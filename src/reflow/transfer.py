"""Time-optimal transfer between constant equilibria for the reciprocal law.

For the speed law lam(W) = 1/(1+W), moving the state from the equilibrium
rho ≡ rho_lo to rho ≡ rho_hi by holding the boundary density at rho_hi admits
closed forms for the total mass, the characteristic curve, both boundary
fluxes, and the transfer time T = 1 + (rho_lo + rho_hi)/2. This module
evaluates those forms, the backlog/excess diagnostics, and a numerical
certificate for the lower bound T >= 1 + (rho_lo+rho_hi)/2 + xi(t0) that
proves the transfer time minimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .laws import reciprocal
from .rules import finite_nonnegative
from .signals import ControlSignal, DensityProfile
from .transport import Trajectory, abs_integral, simulate

__all__ = [
    "TransferScenario",
    "ClosedFormTransfer",
    "OptimalityCertificate",
    "minimal_time",
    "closed_form_trajectory",
    "transfer_diagnostics",
    "check_lower_bound",
    "certify_trajectory",
    "write_figure_csv",
]

_SLICE_TOL = 1e-4  # L^1 distance at which the final slice counts as rho_hi
_DETECTION_TOL = 1e-6  # boundary-density gap to rho_hi that places t0 later


@dataclass(frozen=True)
class TransferScenario:
    """Equilibrium pair 0 <= rho_lo <= rho_hi to transfer between."""

    rho_lo: float
    rho_hi: float

    def __post_init__(self):
        lo = finite_nonnegative(self.rho_lo, "rho_lo")
        if not lo <= finite_nonnegative(self.rho_hi, "rho_hi"):
            raise ValueError(f"need 0 <= rho_lo <= rho_hi, got ({self.rho_lo}, {self.rho_hi})")


def minimal_time(scenario: TransferScenario) -> float:
    """Minimal time to transfer between the two equilibria."""
    return 1.0 + 0.5 * (scenario.rho_lo + scenario.rho_hi)


@dataclass(frozen=True)
class ClosedFormTransfer:
    """Closed-form trajectory of the candidate optimal transfer.

    All four callables accept scalars or arrays on [0, T].
    """

    W: Callable
    xi: Callable
    u: Callable
    y: Callable
    T: float


def closed_form_trajectory(scenario: TransferScenario,
                           reverse: bool = False) -> ClosedFormTransfer:
    """Closed forms for filling rho_lo -> rho_hi (or draining, reversed).

    The draining direction is obtained from the filling solution by the
    change of variables (t, x) -> (T - t, 1 - x), which swaps the roles of
    the two boundaries: draining u is filling y at T - t, and back.
    """
    lo, hi = scenario.rho_lo, scenario.rho_hi
    T = minimal_time(scenario)
    a, d = 1.0 + lo, hi - lo

    def xi(t):
        """(sqrt(a² + 2dt) − a)/d, written without the cancellation when hi ≈ lo."""
        t = np.asarray(t, dtype=float)
        return 2.0 * t / (np.sqrt(a * a + 2.0 * d * t) + a)

    def W(t):
        return lo + d * xi(t)

    fill = ClosedFormTransfer(W=W, xi=xi, u=lambda t: hi / (1.0 + W(t)),
                              y=lambda t: lo / (1.0 + W(t)), T=T)
    if not reverse:
        return fill

    def mirrored(f):
        return lambda t: f(T - np.asarray(t, dtype=float))

    return ClosedFormTransfer(W=mirrored(W), xi=lambda t: 1.0 - mirrored(xi)(t),
                              u=mirrored(fill.y), y=mirrored(fill.u), T=T)


def transfer_diagnostics(scenario: TransferScenario) -> dict:
    """Backlog, influx excess, and the mass-accounting identity residual.

    beta is the total backlog against a demand that steps from the old to the
    new equilibrium outflux at time T; alpha is the total influx spent above
    the new equilibrium influx. Together with the nominal equilibrium-flux
    difference over [0, T] they account exactly for the mass gained:
    alpha + beta + (y1 - y0) T = rho_hi - rho_lo.

    Closed forms follow from int_0^T lam(W) = xi(T) = 1 and
    T - 1 - rho_lo = (rho_hi - rho_lo)/2:
    beta = y0 T - rho_lo = y0 (rho_hi - rho_lo)/2 and, symmetrically,
    alpha = rho_hi - y1 T = y1 (rho_hi - rho_lo)/2.
    """
    lo, hi = scenario.rho_lo, scenario.rho_hi
    if hi <= lo:
        raise ValueError("diagnostics require rho_hi > rho_lo")
    T = minimal_time(scenario)
    y0 = lo / (1.0 + lo)
    y1 = hi / (1.0 + hi)
    beta = 0.5 * y0 * (hi - lo)
    alpha = 0.5 * y1 * (hi - lo)
    residual = abs(alpha + beta + (y1 - y0) * T - (hi - lo))
    return {"alpha": alpha, "beta": beta, "mass_balance_residual": residual}


@dataclass(frozen=True)
class OptimalityCertificate:
    """Evaluated lower bound for one admissible transfer.

    t0 is the onset of the final stretch during which the boundary density
    stays at the target value; t1 is when the t = 0 characteristic exits.
    slack = T - bound_value; the transfer is consistent with the lower bound
    iff the slack is nonnegative (up to tolerance).
    """

    t0: float
    t1: float
    bound_value: float
    satisfied: bool
    slack: float


def _check_certificate_inputs(rho_lo, rho_hi, tol):
    """Finite nonnegative equilibria with rho_hi > rho_lo, and a finite nonnegative tol."""
    finite_nonnegative(tol, "certificate tol")
    if not finite_nonnegative(rho_hi, "rho_hi") > finite_nonnegative(rho_lo, "rho_lo"):
        raise ValueError("certificate requires rho_hi > rho_lo; "
                         "equal equilibria need no transfer")


def certify_trajectory(traj: Trajectory, rho_lo: float, rho_hi: float,
                       *, tol: float = 1e-6) -> OptimalityCertificate:
    """Evaluate the minimal-time lower bound on a simulated transfer.

    Requires that the trajectory starts from the equilibrium rho_lo and that
    its final slice equals rho_hi within ``_SLICE_TOL`` in L^1; ``tol`` (finite,
    nonnegative) is the slack below zero still counted as satisfied.
    """
    _check_certificate_inputs(rho_lo, rho_hi, tol)
    T = traj.horizon
    dist = abs_integral(traj.slice_panels(T), lambda x: traj.slice_values(T, x) - rho_hi)
    if dist > _SLICE_TOL:
        raise ValueError(
            f"trajectory does not reach the target equilibrium: "
            f"final-slice L1 distance {dist:.3e} > {_SLICE_TOL:.1e}"
        )

    # Boundary density rho(t, 0); in flux mode it is u(t) / lam(W(t)).
    grid = traj.time_panels(max_width=T / 4096.0)
    nodes = 0.5 * (grid[:-1] + grid[1:])
    bdens = traj.inflow.boundary_density(nodes, traj.speed)
    bad = np.abs(bdens - rho_hi) > _DETECTION_TOL
    t0 = float(grid[1 + np.max(np.nonzero(bad)[0])]) if np.any(bad) else 0.0

    t1 = traj.exit_time or T  # T when the curve never reaches x = 1
    half_sum = minimal_time(TransferScenario(rho_lo, rho_hi))
    bound = half_sum + (float(traj.xi(t0)) if t0 < t1 else 1.0)
    slack = T - bound
    return OptimalityCertificate(
        t0=t0, t1=t1, bound_value=bound,
        satisfied=bool(slack >= -tol), slack=slack,
    )


def check_lower_bound(u: ControlSignal | None, rho0: float, rho1: float,
                      T: float, *, boundary_density: ControlSignal | None = None,
                      tol: float = 1e-6) -> OptimalityCertificate:
    """Simulate an admissible control and certify the minimal-time bound.

    The control may be given as an influx signal u or as a prescribed
    boundary density (exactly one of the two).
    """
    _check_certificate_inputs(rho0, rho1, tol)  # before the solve
    traj = simulate(DensityProfile.constant(rho0), reciprocal(), T,
                    u=u, boundary_density=boundary_density)
    return certify_trajectory(traj, rho0, rho1, tol=tol)


def write_figure_csv(scenario: TransferScenario, mass_path, flux_path,
                     n: int = 2048) -> None:
    """Plot-ready closed-form traces: (t, W) and (t, u, y) over [0, T]."""
    cf = closed_form_trajectory(scenario)
    t = np.linspace(0.0, cf.T, n)
    np.savetxt(mass_path, np.column_stack((t, cf.W(t))),
               delimiter=",", header="columns: t,W")
    np.savetxt(flux_path, np.column_stack((t, cf.u(t), cf.y(t))),
               delimiter=",", header="columns: t,u,y")
