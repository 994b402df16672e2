"""Transport speed as a function of the total mass in the system.

A speed law is a positive, non-increasing, Lipschitz function of the total
mass W, together with its slope and envelope bounds over mass intervals
[0, M]: the infimum and supremum of the speed and the supremum of |slope|. The built-in
reciprocal law is lambda(W) = 1/(1+W); tabulated laws interpolate user
samples linearly and extend constantly beyond the last knot (and below
W = 0), and take the slope bound from their own table, and the time a
characteristic takes to advance while W is linear in its position.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rules import breakpoints, finite_nonnegative

__all__ = ["SpeedLaw", "reciprocal", "tabulated"]

RECIPROCAL = "reciprocal"
TABULATED = "tabulated"


@dataclass(frozen=True)
class SpeedLaw:
    kind: str
    grid: np.ndarray | None = field(default=None, repr=False)
    grid_values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in (RECIPROCAL, TABULATED):
            raise ValueError(f"unknown speed-law kind {self.kind!r}")
        if self.kind == TABULATED:
            g = breakpoints(self.grid, "tabulated grid")
            v = np.asarray(self.grid_values, dtype=float)
            if v.shape != g.shape:
                raise ValueError("values must match the grid shape")
            if g[0] != 0.0:
                raise ValueError("tabulated grid must start at W = 0")
            if not np.all((v > 0.0) & (v < np.inf)):  # also rejects NaN
                raise ValueError("speed values must be positive and finite")
            if np.any(np.diff(v) > 0):
                raise ValueError("tabulated speed values must be non-increasing in W")
            object.__setattr__(self, "grid", g)
            object.__setattr__(self, "grid_values", v)
            # each piece's slope, with 0 below W = 0 and past the last knot
            object.__setattr__(self, "_slopes", np.pad(np.diff(v) / np.diff(g), 1))

    def __call__(self, W):
        """Speed at total mass ``W``; constant extension for W < 0."""
        # a float skips the array round trip: fv_solve asks once per step
        Wc = max(W, 0.0) if isinstance(W, float) else np.maximum(np.asarray(W, float), 0.0)
        if self.kind == RECIPROCAL:
            out = 1.0 / (1.0 + Wc)
        else:
            out = np.interp(Wc, self.grid, self.grid_values)
        return out if isinstance(out, np.ndarray) else float(out)

    def slope(self, W, side="right"):
        """Derivative of the speed in W, from the right (a table's from the left
        with ``side="left"``): 0 below W = 0 and, for a table, past its last knot."""
        W = np.asarray(W, dtype=float)
        if self.kind == RECIPROCAL:
            out = np.where(W >= 0.0, -1.0 / (1.0 + np.maximum(W, 0.0)) ** 2, 0.0)
        else:
            out = self._slopes[np.searchsorted(self.grid, W, side=side)]
        return float(out) if W.ndim == 0 else out

    def _piece(self, W, g):
        """(lambda(W), g q), q the slope of the table piece W + g s is on for small s > 0."""
        return self(W), g * np.where(g < 0.0, self.slope(W, "left"), self.slope(W))

    def elapsed(self, W, g, d):
        """The integral of 1 / lambda(W + g s) over [0, d], W + g s on one linear
        piece of the law: the time xi takes to advance by d while W changes by g
        per unit of xi. Reciprocal: (1 + W) d + g d^2 / 2; a table piece lambda =
        p + q W, with r = q g: log1p(r d / lambda(W)) / r."""
        if self.kind == RECIPROCAL:
            return (1.0 + W) * d + 0.5 * g * d * d
        lam, r = self._piece(W, g)
        with np.errstate(all="ignore"):  # r = 0 takes the limit d / lam
            return np.where(r == 0.0, d / lam, np.log1p(r * d / lam) / r)

    def advance(self, W, g, dt):
        """The inverse of ``elapsed`` in d: how far xi advances in time dt; inf
        where the piece never takes that long. Reciprocal: 2 dt / ((1 + W) +
        sqrt((1 + W)^2 + 2 g dt)); a table piece: lambda(W) expm1(r dt) / r."""
        if self.kind == RECIPROCAL:
            disc = (1.0 + W) ** 2 + 2.0 * g * dt
            return np.where(disc >= 0.0, 2.0 * dt / (1.0 + W + np.sqrt(np.maximum(disc, 0.0))),
                            np.inf)
        lam, r = self._piece(W, g)
        with np.errstate(all="ignore"):  # r = 0 takes the limit lam dt; expm1 overflows to inf
            return np.where(r == 0.0, lam * dt, lam * np.expm1(r * dt) / r)

    @property
    def kinks(self) -> np.ndarray:
        """Masses where the slope of the speed jumps: every table knot past W = 0."""
        return self.grid[1:] if self.kind == TABULATED else np.empty(0)

    def kink_times(self, times, W) -> np.ndarray:
        """Times where W, sampled at ``times`` and linear between them, crosses a kink."""
        levels = self.kinks
        if levels.size == 0:
            return levels
        levels = levels[(levels > W.min()) & (levels < W.max())]
        d = W[:, None] - levels
        seg, k = np.nonzero((d[:-1] < 0) != (d[1:] < 0))
        frac = d[seg, k] / (d[seg, k] - d[seg + 1, k])
        return times[seg] + frac * (times[seg + 1] - times[seg])

    def bounds(self, M: float) -> tuple[float, float, float]:
        """(inf speed, sup speed, sup |slope|) over masses in [0, M]. The law is
        non-increasing, so the speeds are law(M) and law(0); it is linear or convex
        between kinks, so |slope| peaks at each piece's left end, and sup |slope|
        is the largest |slope(w)| (from the right) over w = 0 and each kink <= M."""
        M = finite_nonnegative(M, "mass bound M")
        w = np.concatenate(([0.0], self.kinks[self.kinks <= M]))
        return self(M), self(0.0), float(np.max(np.abs(self.slope(w))))


def reciprocal() -> SpeedLaw:
    """The reciprocal law lambda(W) = 1/(1+W)."""
    return SpeedLaw(kind=RECIPROCAL)


def tabulated(grid, values) -> SpeedLaw:
    """Piecewise-linear law through the samples, constant beyond the last knot."""
    return SpeedLaw(kind=TABULATED, grid=grid, grid_values=values)
