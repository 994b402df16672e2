"""Piecewise-constant 1-D data: densities on [0,1] and flux signals on [0,T].

All integration primitives are exact for step functions, which keeps the
characteristic construction free of quadrature error in the data terms.
"""

from __future__ import annotations

import numpy as np

from . import rules

__all__ = ["PiecewiseConstant", "DensityProfile", "ControlSignal", "segment", "distinct"]


def segment(grid, x, side="right"):
    """Index of the cell of the increasing ``grid`` holding each x, clamped to
    the cells; ``side="left"`` puts a point on a breakpoint in the cell before it.
    One search among the interior breakpoints gives the clamped index directly."""
    return grid[1:-1].searchsorted(x, side)


def distinct(x) -> np.ndarray:
    """The sorted distinct values of ``x`` (no NaN), as ``np.unique`` gives them:
    the same default sort, then every value unequal to the one before it.
    Unlike ``np.unique``, it does not import ``numpy.ma`` on its first call."""
    x = np.sort(x, axis=None)
    keep = np.empty(x.size, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


class PiecewiseConstant:
    """Right-continuous step function on ``[breakpoints[0], breakpoints[-1]]``.

    ``values[i]`` is the value on ``[breakpoints[i], breakpoints[i+1])``;
    the last cell is closed on the right. All values must be nonnegative.
    """

    __slots__ = ("breakpoints", "values", "_cum")

    def __init__(self, breakpoints, values):
        bp = rules.breakpoints(breakpoints, "breakpoints")
        v = np.atleast_1d(np.asarray(values, dtype=float))
        if v.size != bp.size - 1:
            raise ValueError(f"expected {bp.size - 1} cell values, got {v.size}")
        if not np.all((v >= 0.0) & (v < np.inf)):  # also rejects NaN
            raise ValueError("values must be finite and nonnegative")
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

    # -- evaluation and quadrature --------------------------------------

    def __call__(self, x):
        """Pointwise value; arguments outside the domain are clamped."""
        x = np.asarray(x, dtype=float)
        out = self.values[segment(self.breakpoints, x)]
        return float(out) if x.ndim == 0 else out

    def left_limit(self, x):
        """Value just before x (the function itself is right-continuous), clamped."""
        return self.values[segment(self.breakpoints, x, side="left")]

    def cumulative(self, x):
        """Exact integral from the left end of the domain to ``x`` (clamped).

        The integral of a step function is the piecewise-linear interpolant of
        its prefix sums, so one ``np.interp`` gives it, exactly at every
        breakpoint and constant outside the domain.
        """
        out = np.interp(x, self.breakpoints, self._cum)
        return out if isinstance(out, np.ndarray) else float(out)

    def integrate(self, a: float, b: float) -> float:
        """Exact integral over ``[a, b]``; endpoints are clamped to the domain."""
        if not a <= b:  # also rejects NaN
            raise ValueError(f"integrate requires a <= b, got a={a}, b={b}")
        return float(self.cumulative(b) - self.cumulative(a))

    def lp_norm(self, p: int) -> float:
        """Exact L^p norm, p in {1, 2}."""
        widths = np.diff(self.breakpoints)
        if rules.exponent(p) == 1:
            return float(np.sum(np.abs(self.values) * widths))
        return float(np.sqrt(np.sum(self.values**2 * widths)))

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
        return super().from_function(f, 0.0, 1.0, n_cells)


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
        return super().from_function(f, 0.0, horizon, n_cells)
