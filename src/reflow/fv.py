"""Independent upwind finite-volume discretization for cross-validation.

First-order upwind scheme on a uniform grid of [0, 1]. The transport speed is
nonlocal (a function of the instantaneous total mass) and is frozen over each
time step, so the update is a plain linear advection step with an inflow
boundary flux. Used to corroborate the characteristic solution; it converges
at first order in the mesh width.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .laws import SpeedLaw
from .signals import ControlSignal, DensityProfile

__all__ = ["FvState", "CflError", "fv_step", "fv_solve"]

_CFL = 0.9  # Courant number of fv_solve's march and fv_step's limit


class CflError(RuntimeError):
    """Raised when a step would violate the CFL stability constraint."""

    def __init__(self, dt: float, required_dt: float):
        super().__init__(f"time step {dt} exceeds CFL limit {required_dt}")
        self.required_dt = required_dt


@dataclass
class FvState:
    """Cell averages on a uniform grid, together with the current time."""

    t: float
    cells: np.ndarray  # shape (n,)

    @property
    def dx(self) -> float:
        return 1.0 / self.cells.size

    @cached_property
    def total_mass(self) -> float:
        """Summed once: no step changes a state's cells after building it."""
        return float(self.cells.sum()) * self.dx

    @classmethod
    def from_profile(cls, rho0: DensityProfile, n: int) -> "FvState":
        edges = np.linspace(0.0, 1.0, n + 1)
        cum = rho0.cumulative(edges)
        return cls(t=0.0, cells=np.diff(cum) * n)


def fv_step(state: FvState, law: SpeedLaw, influx: float, dt: float) -> FvState:
    """Advance one upwind step with the speed frozen at the current mass.

    ``influx`` is the boundary flux (mass per unit time) entering at x = 0,
    averaged over the step. A step above Courant number ``_CFL`` (0.9, the
    number fv_solve marches at) raises CflError.
    """
    lam = float(law(state.total_mass))
    dx = state.dx
    if lam * dt > _CFL * dx * (1.0 + 1e-12):
        raise CflError(dt, _CFL * dx / lam)
    rho = state.cells
    # d[i] = flux out of cell i minus flux into it, then scaled to the update
    f = lam * rho
    d = np.empty_like(rho)
    d[0] = f[0] - influx
    np.subtract(f[1:], f[:-1], out=d[1:])
    d *= dt / dx
    return FvState(t=state.t + dt, cells=np.subtract(rho, d, out=d))


def fv_solve(rho0: DensityProfile, law: SpeedLaw, u: ControlSignal, T: float,
             n_cells: int):
    """March to time T; returns the final state and the outflux time series.

    The step size is chosen from the global speed bound so the CFL condition
    holds uniformly; the boundary flux uses the exact step average of u, which
    makes the discrete mass balance exact. The step averages come from one
    evaluation of the cumulative influx, and the outflux series
    ``law(mass) * last cell`` is formed once after the march.
    """
    state = FvState.from_profile(rho0, n_cells)
    M = u.integrate(0.0, T) + rho0.total_mass
    _, lam_max, _ = law.bounds(M)
    dt = _CFL / (n_cells * lam_max)
    n_steps = int(np.ceil(T / dt))
    dt = T / n_steps
    influx = np.diff(u.cumulative(np.arange(n_steps + 1) * dt)) / dt
    times, mass, last = np.empty((3, n_steps + 1))
    times[0], mass[0], last[0] = 0.0, state.total_mass, state.cells[-1]
    for k in range(n_steps):
        state = fv_step(state, law, influx[k], dt)
        times[k + 1], mass[k + 1], last[k + 1] = state.t, state.total_mass, state.cells[-1]
    return state, times, law(mass) * last
