"""Transport speed as a function of the total mass in the system.

A speed law is a positive, non-increasing, Lipschitz function of the total
mass W, together with its slope and envelope bounds over mass intervals
[0, M]: the infimum and supremum of the speed and the supremum of |slope|. The built-in
reciprocal law is lambda(W) = 1/(1+W); tabulated laws interpolate user
samples linearly and extend constantly beyond the last knot (and below
W = 0), and take the slope bound from their own table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
            g = np.asarray(self.grid, dtype=float)
            v = np.asarray(self.grid_values, dtype=float)
            if g.ndim != 1 or g.size < 2 or np.any(np.diff(g) <= 0):
                raise ValueError("tabulated grid must be increasing, length >= 2")
            if v.shape != g.shape:
                raise ValueError("values must match the grid shape")
            if not (np.all(np.isfinite(g)) and np.all(np.isfinite(v))):
                raise ValueError("tabulated grid and values must be finite")
            if g[0] != 0.0:
                raise ValueError("tabulated grid must start at W = 0")
            if np.any(v <= 0):
                raise ValueError("speed values must be strictly positive")
            if np.any(np.diff(v) > 0):
                raise ValueError("tabulated speed values must be non-increasing in W")
            object.__setattr__(self, "grid", g)
            object.__setattr__(self, "grid_values", v)

    def __call__(self, W):
        """Speed at total mass ``W``; constant extension for W < 0."""
        # a float skips the array round trip: fv_solve asks twice per step
        Wc = max(W, 0.0) if isinstance(W, float) else np.maximum(np.asarray(W, float), 0.0)
        if self.kind == RECIPROCAL:
            out = 1.0 / (1.0 + Wc)
        else:
            out = np.interp(Wc, self.grid, self.grid_values)
        return out if isinstance(out, np.ndarray) else float(out)

    def slope(self, W):
        """Derivative of the speed in W, from the right: 0 below W = 0 and,
        for a table, past its last knot."""
        W = np.asarray(W, dtype=float)
        if self.kind == RECIPROCAL:
            out = np.where(W >= 0.0, -1.0 / (1.0 + np.maximum(W, 0.0)) ** 2, 0.0)
        else:
            g, v = self.grid, self.grid_values
            slopes = np.concatenate(([0.0], np.diff(v) / np.diff(g), [0.0]))
            out = slopes[np.searchsorted(g, W, side="right")]
        return float(out) if W.ndim == 0 else out

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
        """(inf speed, sup speed, sup |slope|) over masses in [0, M]; the law is
        non-increasing, so the inf and sup speeds are law(M) and law(0)."""
        if M < 0:
            raise ValueError(f"mass bound M must be nonnegative, got {M}")
        if self.kind == RECIPROCAL:
            return self(M), self(0.0), 1.0
        g, v = self.grid, self.grid_values
        # knots inside [0, M] plus one padding knot past M, so the segments
        # scanned cover [0, M]; the law is linear on each, so the largest
        # segment slope is the exact sup |slope|
        hi = min(int(np.searchsorted(g, M, side="right")) + 1, g.size)
        slopes = np.diff(v[:hi]) / np.diff(g[:hi])
        return self(M), self(0.0), float(np.max(np.abs(slopes)))


def reciprocal() -> SpeedLaw:
    """The reciprocal law lambda(W) = 1/(1+W)."""
    return SpeedLaw(kind=RECIPROCAL)


def tabulated(grid, values) -> SpeedLaw:
    """Piecewise-linear law through the samples, constant beyond the last knot."""
    return SpeedLaw(kind=TABULATED, grid=grid, grid_values=values)
