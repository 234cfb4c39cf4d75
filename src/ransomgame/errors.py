"""Exception types shared across the package, and the scalar domain checks.

Each domain rule is checked by one function here.  A check converts its
argument with ``float()``, raises DomainError if the rule fails, and returns
the float, so callers keep the checked value rather than the raw input.
A ``label`` may describe the argument before its name ("aggression a"); a
non-finite value is reported under the name alone.
"""

import math


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent."""


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its accuracy target."""


def _require_finite(name: str, value) -> float:
    try:
        value = float(value)
    except OverflowError:  # an int such as 10**400, whose repr may be too long to print
        value = math.inf
    except (TypeError, ValueError):  # None, "abc"
        pass
    if not (isinstance(value, float) and math.isfinite(value)):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _positive(label: str, value) -> float:
    value = _require_finite(label.split()[-1], value)
    if value <= 0.0:
        raise DomainError(f"{label} must be > 0, got {value}")
    return value


def _nonnegative(label: str, value) -> float:
    value = _require_finite(label.split()[-1], value)
    if value < 0.0:
        raise DomainError(f"{label} must be >= 0, got {value}")
    return value


def _probability(name: str, value) -> float:
    value = _require_finite(name, value)
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {value}")
    return value


def _scale(name: str, value) -> float:
    """A lognormal scale sigma in (0, 1]."""
    value = _require_finite(name, value)
    if not 0.0 < value <= 1.0:
        raise DomainError(f"{name} must lie in (0, 1], got {value!r}")
    return value


def _counteroffer(c, r: float) -> float:
    """A counteroffer c with 0 <= c <= r against the demand r."""
    c = _require_finite("c", c)
    if not 0.0 <= c <= r:
        raise DomainError(f"counteroffer must satisfy 0 <= c <= r, got c={c} r={r}")
    return c
