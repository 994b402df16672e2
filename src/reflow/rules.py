"""Input rules shared by the library's entry points and the CLI. Each returns the
checked value or raises ValueError naming the input; every range rule rejects NaN."""

import math

import numpy as np

__all__ = ["number", "numbers", "finite_positive", "finite_nonnegative", "count", "exponent",
           "breakpoints", "interval", "covers"]


def number(x, name: str) -> float:
    """``float(x)`` of a number that is not a boolean: YAML's ``true`` is not 1."""
    if isinstance(x, bool):
        raise ValueError(f"{name} must be a number, got {x!r}")
    return float(x)


def numbers(x, name: str) -> np.ndarray:
    """``number`` over the list ``x``, as one float array."""
    if all(isinstance(v, float) for v in x):  # no boolean is a float
        return np.array(x, dtype=float)
    return np.array([number(v, name) for v in x], dtype=float)


def finite_positive(x, name: str) -> float:
    x = number(x, name)
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {x!r}")
    return x


def finite_nonnegative(x, name: str) -> float:
    x = number(x, name)
    if not 0.0 <= x < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {x!r}")
    return x


def count(x, name: str, minimum: int = 1) -> int:
    """``x`` as an int: a whole number >= ``minimum`` that is not a boolean."""
    v = math.nan if isinstance(x, bool) else float(x)  # a boolean fails like NaN
    if not (v >= minimum and v.is_integer()):
        raise ValueError(f"{name} must be a whole number >= {minimum}, got {x!r}")
    return int(v)


def exponent(p):
    """``p`` if it is 1 or 2 and not a boolean: the exponents of the exact Lp norms."""
    if isinstance(p, bool) or p not in (1, 2):
        raise ValueError(f"unsupported exponent p={p!r}; expected 1 or 2")
    return p


def breakpoints(x, name: str) -> np.ndarray:
    """``x`` as a 1-D float array of at least two finite, strictly increasing values."""
    x = np.asarray(x, dtype=float)
    if not (x.ndim == 1 and x.size >= 2 and np.all(np.isfinite(x)) and np.all(np.diff(x) > 0)):
        raise ValueError(f"{name} must be at least two breakpoints, finite and strictly increasing")
    return x


def interval(x, hi: float, name: str) -> np.ndarray:
    """``x`` as a 1-D float array in [0, hi], within 1e-12 max(1, hi)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    eps = 1e-12 * max(1.0, hi)
    if not np.all((x >= -eps) & (x <= hi + eps)):  # also rejects NaN
        raise ValueError(f"{name} must lie in [0, {hi:g}], got [{np.min(x):g}, {np.max(x):g}]")
    return x


def covers(signal, T: float, name: str):
    """``signal`` if its horizon reaches T, within 1e-12."""
    if signal.horizon < T - 1e-12:
        raise ValueError(f"{name} horizon {signal.horizon} shorter than T={T}")
    return signal
