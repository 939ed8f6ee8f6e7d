"""Exception types shared across the package.

Each class names a failure that a caller can meet at run time.  Every
argument and input check, including a value outside a claim's hypothesis,
raises :class:`ConfigError`.  A failed internal self-check, which no input
is known to reach, raises the base :class:`ReprogramLabError`.  Nothing
here carries state beyond the message.
"""


class ReprogramLabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ReprogramLabError, ValueError):
    """An argument or input is outside what its operation accepts; the
    message names the offending value.  It is a ValueError, so callers
    that catch ValueError keep working."""


class GramNotPositiveDefinite(ReprogramLabError):
    """The rows of a system being solved are numerically dependent."""


class TieEncountered(ReprogramLabError):
    """A sign that should be nonzero almost surely came out as (near) zero.

    Raised instead of silently assigning a side, so that degenerate inputs
    surface in tests rather than skewing statistics.
    """


class NonFiniteLoss(ReprogramLabError):
    """Training produced a non-finite loss (step size too large)."""
