"""Exception types shared across the package.

Every argument and input check raises :class:`ConfigError`; each other
class names one failure mode of one operation.  Nothing here carries
state beyond the message.
"""


class ReprogramLabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ReprogramLabError, ValueError):
    """An argument or input is outside what its operation accepts; the
    message names the offending value.  It is a ValueError, so callers
    that catch ValueError keep working."""


class GramNotPositiveDefinite(ReprogramLabError):
    """A Cholesky pivot fell below the positive-definiteness floor.

    Signals a (numerically) rank-deficient Gram matrix, i.e. linearly
    dependent rows in the system being solved.
    """


class TieEncountered(ReprogramLabError):
    """A sign that should be nonzero almost surely came out as (near) zero.

    Raised instead of silently assigning a side, so that degenerate inputs
    surface in tests rather than skewing statistics.
    """


class GenerationExhausted(ReprogramLabError):
    """A rejection-sampling generator ran out of retries."""


class LivenessExhausted(ReprogramLabError):
    """Initialisation retries ran out before the live condition held."""


class NonFiniteLoss(ReprogramLabError):
    """Training produced a non-finite loss (step size too large)."""


class Infeasible(ReprogramLabError):
    """The margin problem has no feasible point: a convex combination of
    the points is the origin."""


class HypothesisViolated(ReprogramLabError):
    """A closed-form bound was requested outside its stated hypothesis."""
