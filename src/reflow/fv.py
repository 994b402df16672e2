"""Independent upwind finite-volume discretization for cross-validation.

First-order upwind scheme on a uniform grid of [0, 1]. The transport speed is
nonlocal (a function of the instantaneous total mass) and is frozen over each
time step, which runs at the CFL limit of that speed, so the update is a plain
linear advection step with an inflow boundary flux. Used to corroborate the
characteristic solution; it converges at first order in the mesh width. A
state's width and total mass are set when it is built, so a step costs one
cell sum, one speed and the upwind update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .laws import SpeedLaw
from .rules import count, covers, finite_positive
from .signals import ControlSignal, DensityProfile

__all__ = ["FvState", "CflError", "fv_step", "fv_solve"]

_CFL = 0.9  # Courant number of fv_solve's march and fv_step's limit


class CflError(RuntimeError):
    """Raised when a step would violate the CFL stability constraint."""

    def __init__(self, dt: float, required_dt: float):
        super().__init__(f"time step {dt} exceeds CFL limit {required_dt}")
        self.required_dt = required_dt


@dataclass(slots=True)
class FvState:
    """Cell averages on a uniform grid, together with the current time. Its
    cells do not change after it is built (fv_solve reuses the cells only of
    states it has dropped), so ``dx`` and ``total_mass`` are set then."""

    t: float
    cells: np.ndarray  # shape (n,)
    dx: float = field(init=False)
    total_mass: float = field(init=False)

    def __post_init__(self):
        self.dx = 1.0 / self.cells.size
        self.total_mass = float(self.cells.sum()) * self.dx

    @classmethod
    def from_profile(cls, rho0: DensityProfile, n: int) -> "FvState":
        edges = np.linspace(0.0, 1.0, n + 1)
        cum = rho0.cumulative(edges)
        return cls(t=0.0, cells=np.diff(cum) * n)


def fv_step(state: FvState, law: SpeedLaw, influx: float, dt: float,
            out: np.ndarray | None = None, speed: float | None = None) -> FvState:
    """Advance one upwind step with the speed frozen at the current mass.

    ``influx`` is the boundary flux (mass per unit time) entering at x = 0,
    averaged over the step. A step above Courant number ``_CFL`` (0.9, the
    number fv_solve marches at) raises CflError. The new cells are written to
    ``out`` if given (an array of the cells' size other than ``state.cells``),
    else to a new array. ``speed``, if given, is ``law(state.total_mass)``,
    which the caller already holds; the law is then not asked again.
    """
    lam = law(state.total_mass) if speed is None else speed
    dx = state.dx
    if lam * dt > _CFL * dx * (1.0 + 1e-12):
        raise CflError(dt, _CFL * dx / lam)
    rho = state.cells
    # d[i] = (dt/dx) * (upwind flux lam*rho out of cell i minus the flux into it)
    c = lam * dt / dx
    d = np.empty_like(rho) if out is None else out
    np.subtract(rho[1:], rho[:-1], out=d[1:])
    d[1:] *= c
    d[0] = c * rho[0] - influx * (dt / dx)
    return FvState(t=state.t + dt, cells=np.subtract(rho, d, out=d))


def fv_solve(rho0: DensityProfile, law: SpeedLaw, u: ControlSignal, T: float,
             n_cells: int):
    """March to time T; returns the final state, the step times and the
    outflux ``law(mass) * last cell`` at each of them.

    Every step runs at the CFL limit of the current speed,
    ``dt = min(_CFL * dx / law(mass), T - t)``, which also keeps the scheme's
    numerical diffusion, proportional to 1 - Courant number, at its least.
    The boundary flux is the exact step average of u, which makes the
    discrete mass balance exact. Two cell buffers serve the whole march.
    """
    T = finite_positive(T, "horizon")
    covers(u, T, "control")
    state = FvState.from_profile(rho0, count(n_cells, "n_cells"))
    spare = np.empty_like(state.cells)
    courant_dx = _CFL * state.dx
    t, U = 0.0, 0.0  # U = u.cumulative(t)
    times, outflux = [t], []
    while t < T:
        lam = law(state.total_mass)
        outflux.append(lam * state.cells[-1])
        limit = courant_dx / lam
        if T - t <= limit:
            t_next = T
        else:
            t_next = t + limit
            if t_next - t > limit:  # the sum rounded up past the CFL limit
                t_next = math.nextafter(t_next, t)
        dt = t_next - t
        U_next = u.cumulative(t_next)
        cells = state.cells
        state = fv_step(state, law, (U_next - U) / dt, dt, out=spare, speed=lam)
        spare = cells
        t, U = t_next, U_next
        times.append(t)
    outflux.append(law(state.total_mass) * state.cells[-1])
    state.t = T  # t + (T - t) can round off T when t < T/2
    return state, np.array(times), np.array(outflux)
