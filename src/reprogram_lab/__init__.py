"""Random two-layer ReLU networks, hypercube data models, adversarial
programs, gradient-flow training, and the Monte-Carlo suites that verify
their claimed behaviour at desk scale."""

from .data_models import BernoulliModel, LabeledDataset
from .gradient_flow import TrajectoryReport
from .maxmargin import MarginSolution
from .network import TwoLayerNet
from .numerics import SeededRng
from .reprogram import ProgramImage
from .verify import SuiteVerdict, Theorem1Config

__all__ = [
    "BernoulliModel",
    "LabeledDataset",
    "MarginSolution",
    "ProgramImage",
    "SeededRng",
    "SuiteVerdict",
    "Theorem1Config",
    "TrajectoryReport",
    "TwoLayerNet",
]
__version__ = "0.1.0"
