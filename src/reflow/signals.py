"""Piecewise-constant 1-D data: densities on [0,1] and flux signals on [0,T].

All integration primitives are exact for step functions, which keeps the
characteristic construction free of quadrature error in the data terms.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PiecewiseConstant", "DensityProfile", "ControlSignal"]


class PiecewiseConstant:
    """Right-continuous step function on ``[breakpoints[0], breakpoints[-1]]``.

    ``values[i]`` is the value on ``[breakpoints[i], breakpoints[i+1])``;
    the last cell is closed on the right. All values must be nonnegative.
    """

    __slots__ = ("breakpoints", "values", "_cum")

    def __init__(self, breakpoints, values):
        bp = np.atleast_1d(np.asarray(breakpoints, dtype=float))
        v = np.atleast_1d(np.asarray(values, dtype=float))
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if v.size != bp.size - 1:
            raise ValueError(
                f"expected {bp.size - 1} cell values, got {v.size}"
            )
        if not np.all(np.isfinite(bp)) or not np.all(np.isfinite(v)):
            raise ValueError("breakpoints and values must be finite")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if np.any(v < 0):
            raise ValueError("values must be nonnegative")
        self.breakpoints = bp
        self.values = v
        self._cum = np.concatenate(([0.0], np.cumsum(v * np.diff(bp))))

    # -- basic geometry -------------------------------------------------

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    @property
    def total_mass(self) -> float:
        return float(self._cum[-1])

    def _cell_index(self, x: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.breakpoints, x, side="right") - 1
        return np.minimum(np.maximum(idx, 0), self.values.size - 1)

    # -- evaluation and quadrature --------------------------------------

    def __call__(self, x):
        """Pointwise value; arguments outside the domain are clamped."""
        x = np.asarray(x, dtype=float)
        xc = np.minimum(np.maximum(x, self.breakpoints[0]), self.breakpoints[-1])
        out = self.values[self._cell_index(xc)]
        return float(out) if np.isscalar(x) or x.ndim == 0 else out

    def cumulative(self, x):
        """Exact integral from the left end of the domain to ``x`` (clamped)."""
        x = np.asarray(x, dtype=float)
        xc = np.minimum(np.maximum(x, self.breakpoints[0]), self.breakpoints[-1])
        idx = self._cell_index(xc)
        out = self._cum[idx] + (xc - self.breakpoints[idx]) * self.values[idx]
        return float(out) if np.isscalar(x) or x.ndim == 0 else out

    def integrate(self, a: float, b: float) -> float:
        """Exact integral over ``[a, b]``; endpoints are clamped to the domain."""
        if a > b:
            raise ValueError(f"integrate requires a <= b, got a={a}, b={b}")
        return float(self.cumulative(b) - self.cumulative(a))

    def lp_norm(self, p: int) -> float:
        """Exact L^p norm, p in {1, 2}."""
        widths = np.diff(self.breakpoints)
        if p == 1:
            return float(np.sum(np.abs(self.values) * widths))
        if p == 2:
            return float(np.sqrt(np.sum(self.values**2 * widths)))
        raise ValueError(f"unsupported exponent p={p}; expected 1 or 2")

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_function(cls, f, a: float, b: float, n_cells: int = 1024):
        """Sample a function onto a uniform grid by midpoint values."""
        bp = np.linspace(a, b, n_cells + 1)
        mid = 0.5 * (bp[:-1] + bp[1:])
        return cls(bp, np.asarray(f(mid), dtype=float))

    def __repr__(self) -> str:
        a, b = self.domain
        return (
            f"{type(self).__name__}(cells={self.values.size}, "
            f"domain=[{a:g}, {b:g}], mass={self.total_mass:g})"
        )


class DensityProfile(PiecewiseConstant):
    """Nonnegative piecewise-constant density on [0, 1]."""

    def __init__(self, breakpoints, values):
        super().__init__(breakpoints, values)
        if self.breakpoints[0] != 0.0 or self.breakpoints[-1] != 1.0:
            raise ValueError("density profile must span exactly [0, 1]")

    @classmethod
    def constant(cls, value: float) -> "DensityProfile":
        return cls([0.0, 1.0], [value])

    @classmethod
    def from_function(cls, f, n_cells: int = 1024) -> "DensityProfile":
        bp = np.linspace(0.0, 1.0, n_cells + 1)
        mid = 0.5 * (bp[:-1] + bp[1:])
        return cls(bp, np.asarray(f(mid), dtype=float))

    def tail_mass(self, delta: float) -> float:
        """Mass in the outflow tail ``[1 - delta, 1]``."""
        if not 0.0 <= delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {delta}")
        return self.integrate(1.0 - delta, 1.0)


class ControlSignal(PiecewiseConstant):
    """Nonnegative piecewise-constant signal on [0, T] (influx, demand, outflux)."""

    def __init__(self, breakpoints, values):
        super().__init__(breakpoints, values)
        if self.breakpoints[0] != 0.0:
            raise ValueError("control signal must start at t = 0")

    @property
    def horizon(self) -> float:
        return float(self.breakpoints[-1])

    @classmethod
    def constant(cls, value: float, horizon: float) -> "ControlSignal":
        return cls([0.0, horizon], [value])

    @classmethod
    def from_function(cls, f, horizon: float, n_cells: int = 1024) -> "ControlSignal":
        bp = np.linspace(0.0, horizon, n_cells + 1)
        mid = 0.5 * (bp[:-1] + bp[1:])
        return cls(bp, np.asarray(f(mid), dtype=float))
