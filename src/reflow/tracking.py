"""Demand tracking: minimize J(u) = ∫u² + w·∫(y−y_d)² over nonnegative u.

The control is a piecewise-constant influx on a fixed breakpoint grid. The
cost is evaluated through the characteristic solver, so each evaluation is an
exact (up to solver tolerance) trajectory. The gradient in all cell values
comes from the same trajectory and the quadrature nodes of its cost, without
another solve: one adjoint sweep along its curve, seeded with the nodes'
weights (``TrackingQuadrature.gradient``). Descent is
projected gradient with Armijo backtracking, restarted from a few structured
initial guesses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .laws import SpeedLaw
from .rules import breakpoints, count, covers, finite_nonnegative, finite_positive, interval
from .signals import ControlSignal, DensityProfile
from .transport import TrackingQuadrature, simulate

__all__ = ["TrackingProblem", "OptimizationReport", "cost", "minimize",
           "resample_control"]

_STEP_SIZE = 0.5  # first trial step of every restart


@dataclass(frozen=True)
class TrackingProblem:
    rho0: DensityProfile
    y_d: ControlSignal
    law: SpeedLaw
    horizon: float
    control_grid: np.ndarray  # breakpoints spanning [0, horizon]
    tracking_weight: float = 1.0
    solver_tol: float = 1e-9
    knots_per_window: int = 256

    def __post_init__(self):
        finite_positive(self.horizon, "horizon")
        grid = breakpoints(self.control_grid, "control grid")
        object.__setattr__(self, "control_grid", grid)
        self.control_from_values(np.zeros(grid.size - 1))  # a control starts at t = 0
        if abs(grid[-1] - self.horizon) > 1e-12:
            raise ValueError("control grid must span [0, horizon]")
        covers(self.y_d, self.horizon, "demand")
        finite_nonnegative(self.tracking_weight, "tracking weight")
        finite_positive(self.solver_tol, "solver_tol")
        count(self.knots_per_window, "knots_per_window")

    def control_from_values(self, values) -> ControlSignal:
        return ControlSignal(self.control_grid, np.asarray(values, dtype=float))


@dataclass
class OptimizationReport:
    best_control: ControlSignal
    best_cost: float
    cost_history: list
    gradient_norm_history: list
    restarts: int
    converged: bool  # the best restart stopped on meeting grad_tol
    kkt_residual: float  # projected-gradient norm at best_control
    solves: list  # solves run by each restart


def _evaluate(problem: TrackingProblem, u: ControlSignal):
    """J(u) and the tracking quadrature it was read from, whose nodes and
    trajectory its gradient reuses."""
    if np.any(u.values < 0):
        raise ValueError("tracking cost is defined for nonnegative controls only")
    traj = simulate(problem.rho0, problem.law, problem.horizon, u=u,
                    tol=problem.solver_tol,
                    knots_per_window=problem.knots_per_window)
    quad = TrackingQuadrature(traj, problem.y_d)
    return u.lp_norm(2) ** 2 + problem.tracking_weight * quad.error_sq(), quad


def cost(problem: TrackingProblem, u: ControlSignal) -> float:
    """J(u) = ∫₀ᵀ u² + w ∫₀ᵀ (y − y_d)²."""
    return _evaluate(problem, u)[0]


def _projected_gradient(problem: TrackingProblem, values: np.ndarray, quad):
    """∇J at the cell values, from the tracking quadrature of their cost, and
    its projection: descent directions blocked at v = 0 do not count."""
    grid = problem.control_grid
    grad = 2.0 * values * np.diff(grid) + problem.tracking_weight * quad.gradient(grid)
    return grad, np.where((values <= 0.0) & (grad > 0.0), 0.0, grad)


def _initial_guesses(problem: TrackingProblem, seed, extra_random: int, warm_starts):
    """Distinct starts: rest, matched equilibrium, demand mirror, random, warm;
    one within 1e-12 max(1, max|q|) of an earlier start q (max norm) is dropped."""
    n = problem.control_grid.size - 1
    c = problem.rho0.total_mass
    lam_c = float(problem.law(c))
    mids = 0.5 * (problem.control_grid[:-1] + problem.control_grid[1:])
    starts = [np.zeros(n), np.full(n, c * lam_c), np.maximum(problem.y_d(mids), 0.0)]
    rng = np.random.default_rng(seed)
    scale = max(float(np.max(problem.y_d.values, initial=0.0)), c * lam_c, 0.1)
    starts += [rng.uniform(0.0, scale, size=n) for _ in range(extra_random)]
    starts += [np.maximum(resample_control(covers(w, problem.horizon, "warm start"),
                                           problem.control_grid), 0.0) for w in warm_starts]
    guesses = []
    for g in starts:
        if all(np.max(np.abs(g - q)) > 1e-12 * max(1.0, np.max(np.abs(q))) for q in guesses):
            guesses.append(g)
    return guesses


def resample_control(u: ControlSignal, grid: np.ndarray) -> np.ndarray:
    """Cell averages of u on a step-function breakpoint grid in [0, u.horizon], exact."""
    grid = breakpoints(interval(grid, u.horizon, "grid"), "grid")
    return np.diff(u.cumulative(grid)) / np.diff(grid)


def minimize(problem: TrackingProblem, *, max_iters: int = 200, grad_tol: float = 1e-7,
             seed: int = 0, extra_random_restarts: int = 0,
             warm_starts: tuple = ()) -> OptimizationReport:
    """Projected gradient descent over the control cell values.

    Each restart runs Armijo-backtracked steps of v ← max(v − s·∇J, 0) until
    the projected gradient is small or the step collapses. Additional
    warm-start controls (e.g. a known feasible candidate, or the result from
    a coarser grid) are resampled onto the control grid and join the restart
    pool, which skips repeated starts. The best restart wins; ties go to the
    control with smaller L² norm.
    """
    finite_nonnegative(grad_tol, "grad_tol")
    max_iters, seed, extra_random_restarts = (count(v, name, minimum=0) for v, name in (
        (max_iters, "max_iters"), (seed, "seed"), (extra_random_restarts, "extra_random_restarts")))
    guesses = _initial_guesses(problem, seed, extra_random_restarts, warm_starts)
    best, best_j, best_norm = None, np.inf, np.inf
    all_hist, all_gnorms, all_solves = [], [], []
    for values in guesses:
        values = values.copy()
        j, quad = _evaluate(problem, problem.control_from_values(values))
        hist, gnorms, solves = [j], [], 1
        converged = False
        step = _STEP_SIZE
        for _ in range(max_iters):
            grad, pg = _projected_gradient(problem, values, quad)
            gnorm = float(np.linalg.norm(pg))
            gnorms.append(gnorm)
            if gnorm <= grad_tol:
                converged = True
                break
            accepted = False
            while step > 1e-14:
                trial = np.maximum(values - step * grad, 0.0)
                jt, quad_t = _evaluate(problem, problem.control_from_values(trial))
                solves += 1
                if jt <= j - 1e-4 * float(np.dot(grad, values - trial)):
                    values, j, quad = trial, jt, quad_t
                    accepted = True
                    step = min(step * 2.0, 1e3)
                    break
                step *= 0.5
            if not accepted:
                break
            hist.append(j)
        all_hist.append(hist)
        all_gnorms.append(gnorms)
        all_solves.append(solves)
        unorm = float(np.linalg.norm(values))
        if j < best_j - 1e-14 or (abs(j - best_j) <= 1e-14 and unorm < best_norm):
            best, best_j, best_norm = (values, quad, converged), j, unorm
    values, quad, converged = best
    return OptimizationReport(
        best_control=problem.control_from_values(values),
        best_cost=best_j,
        cost_history=all_hist,
        gradient_norm_history=all_gnorms,
        restarts=len(guesses),
        converged=converged,
        kkt_residual=float(np.linalg.norm(_projected_gradient(problem, values, quad)[1])),
        solves=all_solves,
    )
