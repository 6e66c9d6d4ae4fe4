"""Exception hierarchy for the sortkern package, and its scalar range checks."""

import math
import operator


class SortkernError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SortkernError):
    """Invalid configuration or argument values."""


class DimensionMismatchError(SortkernError):
    """Operands have incompatible dimensions."""


class CapExceededError(ConfigError):
    """A factorial-cost mode or grid construction exceeds its configured cap."""


class DuplicateOrbitError(SortkernError):
    """A design contains two points in the same permutation orbit where
    distinct orbits are required for positive definiteness."""


class FactorizationError(SortkernError):
    """Symmetric positive-definite factorization failed, even at maximum
    diagonal jitter."""


class NumericalError(SortkernError):
    """A numerical routine produced an unusable result (non-convergence,
    residual check failure, nonpositive values where positives are required)."""


# The one owner of the rule "finite and at least / above a bound" for scalar
# parameters. Each test is one chained comparison, which NaN fails.
# _int_at_least adds the integer rule for degrees, dimensions and every count
# (nu, d, n, j, m, sample and trial counts).

def _at_least(name, value, low):
    """Raise ConfigError unless low <= value < inf."""
    if not low <= value < math.inf:
        raise ConfigError(f"{name} must be finite and >= {low}, got {value!r}")


def _int_at_least(name, value, low):
    """Raise ConfigError unless value is an integer with low <= value < inf."""
    _at_least(name, value, low)
    try:
        operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def _above(name, value, low):
    """Raise ConfigError unless low < value < inf."""
    if not low < value < math.inf:
        raise ConfigError(f"{name} must be finite and > {low}, got {value!r}")
