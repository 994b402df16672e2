"""Input rules shared by the library's entry points and the CLI. Each returns the
checked value or raises ValueError naming the input; every range rule rejects NaN."""

import math


def number(x, name: str) -> float:
    """``float(x)`` of a number that is not a boolean: YAML's ``true`` is not 1."""
    if isinstance(x, bool):
        raise ValueError(f"{name} must be a number, got {x!r}")
    return float(x)


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


def covers(signal, T: float, name: str):
    """``signal`` if its horizon reaches T, within 1e-12."""
    if signal.horizon < T - 1e-12:
        raise ValueError(f"{name} horizon {signal.horizon} shorter than T={T}")
    return signal
