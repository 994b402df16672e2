"""Transport speed as a function of the total mass in the system.

A speed law is a positive, non-increasing, Lipschitz function of the total
mass W, together with envelope bounds over mass intervals [0, M]: the infimum
and supremum of the speed and the supremum of |slope|. The built-in
reciprocal law is lambda(W) = 1/(1+W); tabulated laws interpolate user
samples linearly and extend constantly beyond the last knot (and below
W = 0), and take all three bounds from their own table.
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
        W = np.asarray(W, dtype=float)
        Wc = np.maximum(W, 0.0)
        if self.kind == RECIPROCAL:
            out = 1.0 / (1.0 + Wc)
        else:
            out = np.interp(Wc, self.grid, self.grid_values)
        return float(out) if W.ndim == 0 else out

    def bounds(self, M: float) -> tuple[float, float, float]:
        """(inf speed, sup speed, sup |slope|) over masses in [0, M]."""
        if M < 0:
            raise ValueError(f"mass bound M must be nonnegative, got {M}")
        if self.kind == RECIPROCAL:
            return 1.0 / (1.0 + M), 1.0, 1.0
        g, v = self.grid, self.grid_values
        # knots inside [0, M] plus one padding knot past M, so the segments
        # scanned cover [0, M]; the law is linear on each, so the largest
        # segment slope is the exact sup |slope|
        hi = min(int(np.searchsorted(g, M, side="right")) + 1, g.size)
        vals = np.concatenate((v[:hi], [float(np.interp(M, g, v))]))
        slopes = np.diff(v[:hi]) / np.diff(g[:hi])
        return float(np.min(vals)), float(np.max(vals)), float(np.max(np.abs(slopes)))


def reciprocal() -> SpeedLaw:
    """The reciprocal law lambda(W) = 1/(1+W)."""
    return SpeedLaw(kind=RECIPROCAL)


def tabulated(grid, values) -> SpeedLaw:
    """Piecewise-linear law through the samples, constant beyond the last knot."""
    return SpeedLaw(kind=TABULATED, grid=grid, grid_values=values)
