"""Span tracer that wraps reprogram_lab's public functions from outside.

The suites import functions by name (``from .network import forward``), so
a function is rebound in every module of the package that holds it, and
methods of :class:`SeededRng` are rebound on the class.  Spans stay in
memory and are written out once, at the end of the run.

Per-step functions (``loss_value_and_derivative``) are not wrapped: they
run about a million times in ``flow``.  Step counts come from the values
that ``train`` and ``train_to_directional_limit`` return instead.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

_PACKAGE = "reprogram_lab"

# Exceptions that ``construct_program`` raises for an unusable random draw.
_CONSTRUCTION_ERRORS = ("TieEncountered", "GramNotPositiveDefinite")


def _length(args, result) -> float:
    return float(len(result))


def _solve_flops(args, result) -> float:
    # k^2 d for the Gram matrix, k^3/3 for the factorisation, 2 k d for
    # the two products with W; computed from the shapes, not measured.
    k, d = args[0].shape
    return k * k * d + k**3 / 3.0 + 2.0 * k * d


# (defining module, attribute, span name, work(args, result) or None).
# ``work`` is the amount the call processed, taken from its arguments or
# its result; rates divide it by the span's duration.
POINTS = (
    ("numerics", "SeededRng.gaussian", "numerics.gaussian", _length),
    ("numerics", "SeededRng.random", "numerics.uniform", _length),
    ("numerics", "SeededRng.random_open", "numerics.uniform", _length),
    ("numerics", "SeededRng.signs", "numerics.uniform", _length),
    ("numerics", "min_norm_solve", "numerics.min_norm_solve", _solve_flops),
    ("numerics", "singular_extremes", "numerics.singular_extremes", None),
    ("network", "random_init", "network.random_init", None),
    ("network", "forward", "network.forward", None),
    ("network", "forward_batch", "network.forward_batch", _length),
    ("data_models", "random_hypercube_direction", "data_models.random_hypercube_direction", None),
    ("data_models", "sample_bernoulli", "data_models.sample_bernoulli", lambda a, r: float(len(r[1]))),
    ("data_models", "generate_orthosep", "data_models.generate_orthosep", None),
    ("reprogram", "construct_program", "reprogram.construct_program", None),
    ("reprogram", "optimize_program", "reprogram.optimize_program", lambda a, r: float(len(r[1]))),
    ("reprogram", "reprogrammed_accuracy", "reprogram.reprogrammed_accuracy", None),
    ("gradient_flow", "train", "gradient_flow.train", lambda a, r: float(r.steps_run)),
    ("gradient_flow", "balanced_live_init", "gradient_flow.balanced_live_init", None),
    ("maxmargin", "max_margin_vector", "maxmargin.max_margin_vector", lambda a, r: r.kkt_residual),
    ("verify", "train_to_directional_limit", "verify.train_to_directional_limit", lambda a, r: float(r[1])),
    ("verify", "theorem1_montecarlo", "verify.suite", None),
    ("verify", "corollary1_sweep", "verify.suite", None),
    ("verify", "theorem2_suite", "verify.suite", None),
    ("verify", "corollary2_suite", "verify.suite", None),
    ("verify", "proposition_suite", "verify.suite", None),
    ("verify", "appendix_a_suite", "verify.suite", None),
    ("verify", "_theorem1_block", "verify.suite", None),
    ("verify", "_corollary1_block", "verify.suite", None),
)

# Trial blocks take a tuple whose fourth entry is d; spans below a block
# are grouped by it, so one sweep row can be read on its own.
_BLOCKS = ("_theorem1_block", "_corollary1_block")


@dataclass
class Span:
    name: str
    run: int
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    work: float = 0.0
    error: str | None = None
    row: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _package_modules() -> list:
    importlib.import_module(_PACKAGE)
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == _PACKAGE or name.startswith(_PACKAGE + "."))
    ]


class Tracer:
    """Records one span per call into each wrapped function while installed.

    Use as a context manager; leaving the block restores every rebound
    name, also when the traced code raised.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = _package_modules()
        for module_name, attr, span_name, work in POINTS:
            owner = importlib.import_module(f"{_PACKAGE}.{module_name}")
            if "." in attr:
                class_name, attr = attr.split(".")
                owner = getattr(owner, class_name)
                self._rebind(owner, attr, span_name, work, attr in _BLOCKS)
                continue
            original = getattr(owner, attr)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._rebind(module, attr, span_name, work, attr in _BLOCKS)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr: str, span_name: str, work, block: bool) -> None:
        original = owner.__dict__[attr]
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._open[-1] if tracer._open else None
            index = len(tracer.spans)
            span = Span(span_name, tracer.run, parent, time.perf_counter())
            if parent is not None:
                span.row = tracer.spans[parent].row
            if block:
                span.row = f"d={args[0][3]}"
            tracer.spans.append(span)
            tracer._open.append(index)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()
                if parent is not None:
                    tracer.spans[parent].child_s += span.duration
            if work is not None:
                span.work = work(args, result)
            return result

        traced.__wrapped__ = original
        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def runs(self) -> list[int]:
        return sorted({span.run for span in self.spans})

    def layer_metrics(self, run: int) -> dict:
        """Per-layer metrics of one workload run; 0 where a layer did not run."""
        by_name = defaultdict(list)
        for span in self.spans:
            if span.run == run:
                by_name[span.name].append(span)

        def self_s(name):
            return sum(s.self_s for s in by_name[name])

        def total_s(name):
            return sum(s.duration for s in by_name[name])

        def work(name):
            return sum(s.work for s in by_name[name])

        def ratio(num, den):
            return num / den if den > 0 else 0.0

        solves = [s.duration * 1e3 for s in by_name["numerics.min_norm_solve"]]
        constructs = by_name["reprogram.construct_program"]
        train_steps = work("gradient_flow.train")
        limit_steps = work("verify.train_to_directional_limit")
        margins = by_name["maxmargin.max_margin_vector"]
        return {
            "numerics.gaussian.self_s": self_s("numerics.gaussian"),
            "numerics.gaussian.normals_per_s": ratio(work("numerics.gaussian"), total_s("numerics.gaussian")),
            "numerics.uniform.self_s": self_s("numerics.uniform"),
            "numerics.min_norm_solve.calls": len(solves),
            "numerics.min_norm_solve.self_s": self_s("numerics.min_norm_solve"),
            "numerics.min_norm_solve.p50_ms": float(np.percentile(solves, 50)) if solves else 0.0,
            "numerics.min_norm_solve.p99_ms": float(np.percentile(solves, 99)) if solves else 0.0,
            "numerics.min_norm_solve.gflop_computed": work("numerics.min_norm_solve") / 1e9,
            "numerics.singular_extremes.self_s": self_s("numerics.singular_extremes"),
            "network.random_init.self_s": self_s("network.random_init"),
            "network.forward.self_s": self_s("network.forward"),
            "network.forward_batch.rows_per_s": ratio(work("network.forward_batch"), total_s("network.forward_batch")),
            "data_models.random_hypercube_direction.self_s": self_s("data_models.random_hypercube_direction"),
            "data_models.sample_bernoulli.self_s": self_s("data_models.sample_bernoulli"),
            "data_models.sample_bernoulli.samples_per_s": ratio(work("data_models.sample_bernoulli"), total_s("data_models.sample_bernoulli")),
            "data_models.generate_orthosep.self_s": self_s("data_models.generate_orthosep"),
            "reprogram.construct_program.self_s": self_s("reprogram.construct_program"),
            "reprogram.construct_program.error_share": ratio(
                sum(s.error in _CONSTRUCTION_ERRORS for s in constructs), len(constructs)
            ),
            "reprogram.optimize_program.self_s": self_s("reprogram.optimize_program"),
            "reprogram.optimize_program.steps_per_s": ratio(work("reprogram.optimize_program"), total_s("reprogram.optimize_program")),
            "reprogram.reprogrammed_accuracy.self_s": self_s("reprogram.reprogrammed_accuracy"),
            "gradient_flow.train.calls": len(by_name["gradient_flow.train"]),
            "gradient_flow.train.steps": train_steps,
            "gradient_flow.train.self_s": self_s("gradient_flow.train"),
            "gradient_flow.train.us_per_step": ratio(1e6 * self_s("gradient_flow.train"), train_steps),
            "gradient_flow.balanced_live_init.self_s": self_s("gradient_flow.balanced_live_init"),
            "verify.train_to_directional_limit.self_s": self_s("verify.train_to_directional_limit"),
            "verify.train_to_directional_limit.steps": limit_steps,
            "verify.train_to_directional_limit.us_per_step": ratio(
                1e6 * total_s("verify.train_to_directional_limit"), limit_steps
            ),
            "verify.suite.self_s": self_s("verify.suite"),
            "maxmargin.max_margin_vector.calls": len(margins),
            "maxmargin.max_margin_vector.self_s": self_s("maxmargin.max_margin_vector"),
            "maxmargin.max_margin_vector.kkt_residual_max": max((s.work for s in margins), default=0.0),
        }

    def shares(self, run: int, wall_s: float) -> dict:
        """Self time of each span name as a share of the run's wall time,
        overall and per trial-block row (for example ``d=256``)."""
        table = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            if span.run == run:
                table["all"][span.name] += span.self_s
                if span.row:
                    table[span.row][span.name] += span.self_s
        out = {}
        for row, times in table.items():
            base = wall_s if row == "all" else sum(times.values())
            out[row] = {name: t / base for name, t in sorted(times.items(), key=lambda kv: -kv[1])}
        return out

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "run": span.run, "parent": span.parent,
                    "name": span.name, "start": span.start, "end": span.end,
                    "self_s": span.self_s, "work": span.work,
                    "error": span.error, "row": span.row,
                }) + "\n")


def median_metrics(per_run: list[dict]) -> dict:
    """Median of each metric over the traced workload runs."""
    return {key: float(statistics.median(m[key] for m in per_run)) for key in per_run[0]}
