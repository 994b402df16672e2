"""reflow: nonlocal-velocity transport on [0, 1] with boundary influx control.

Solves rho_t + (lam(W(t)) rho)_x = 0, W(t) = integral of rho over [0, 1],
with influx u(t) = rho(t, 0) lam(W(t)) at x = 0, by a characteristic
fixed-point construction; provides L2 demand-tracking optimization over
nonnegative controls and closed-form analysis of the time-optimal transfer
between constant equilibria.
"""

from .characteristics import (CharacteristicCurve, Inflow, SolverError, apply_F,
                              solve_xi)
from .fv import CflError, FvState, fv_solve, fv_step
from .laws import SpeedLaw, reciprocal, tabulated
from .signals import ControlSignal, DensityProfile, PiecewiseConstant
from .tracking import (OptimizationReport, TrackingProblem, cost, minimize,
                       resample_control)
from .transfer import (ClosedFormTransfer, OptimalityCertificate,
                       TransferScenario, certify_trajectory, check_lower_bound,
                       closed_form_trajectory, minimal_time,
                       transfer_diagnostics)
from .transport import Trajectory, simulate

__version__ = "0.1.0"

__all__ = [
    "PiecewiseConstant", "DensityProfile", "ControlSignal",
    "SpeedLaw", "reciprocal", "tabulated",
    "CharacteristicCurve", "Inflow", "SolverError", "solve_xi", "apply_F",
    "Trajectory", "simulate",
    "FvState", "CflError", "fv_step", "fv_solve",
    "TrackingProblem", "OptimizationReport", "cost", "minimize",
    "resample_control",
    "TransferScenario", "ClosedFormTransfer", "OptimalityCertificate",
    "minimal_time", "closed_form_trajectory", "transfer_diagnostics",
    "check_lower_bound", "certify_trajectory",
]
