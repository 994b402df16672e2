"""Demand tracking: minimize J(u) = ∫u² + w·∫(y−y_d)² over nonnegative u.

The control is a piecewise-constant influx on a fixed breakpoint grid. The
cost is evaluated through the characteristic solver, so each evaluation is an
exact (up to solver tolerance) trajectory. Gradients are finite differences
per cell — the grids are small enough that an adjoint is not worth the
machinery — and descent is projected gradient with Armijo backtracking,
restarted from a few structured initial guesses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .laws import SpeedLaw
from .signals import ControlSignal, DensityProfile
from .transport import simulate

__all__ = ["TrackingProblem", "OptimizationReport", "cost", "minimize",
           "resample_control"]


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
        grid = np.asarray(self.control_grid, dtype=float)
        object.__setattr__(self, "control_grid", grid)
        if grid.size < 2 or grid[0] != 0.0 or abs(grid[-1] - self.horizon) > 1e-12:
            raise ValueError("control grid must span [0, horizon]")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("control grid must be strictly increasing")
        if self.y_d.horizon < self.horizon - 1e-12:
            raise ValueError("demand must be defined on all of [0, horizon]")

    def control_from_values(self, values) -> ControlSignal:
        return ControlSignal(self.control_grid, np.asarray(values, dtype=float))


@dataclass
class OptimizationReport:
    best_control: ControlSignal
    best_cost: float
    cost_history: list
    gradient_norm_history: list
    restarts: int
    converged: bool


def cost(problem: TrackingProblem, u: ControlSignal) -> float:
    """J(u) = ∫₀ᵀ u² + w ∫₀ᵀ (y − y_d)²."""
    if np.any(u.values < 0):
        raise ValueError("tracking cost is defined for nonnegative controls only")
    traj = simulate(problem.rho0, problem.law, problem.horizon, u=u,
                    tol=problem.solver_tol,
                    knots_per_window=problem.knots_per_window)
    return (u.lp_norm(2) ** 2
            + problem.tracking_weight * traj.tracking_error_sq(problem.y_d))


def _cost_of_values(problem: TrackingProblem, values: np.ndarray) -> float:
    return cost(problem, problem.control_from_values(values))


def _fd_gradient(problem: TrackingProblem, values: np.ndarray, j0: float,
                 rel_h: float = 1e-6) -> np.ndarray:
    """Per-cell finite differences; one-sided at the nonnegativity boundary."""
    grad = np.empty_like(values)
    for k in range(values.size):
        h = rel_h * max(1.0, abs(values[k]))
        vp = values.copy()
        vp[k] += h
        jp = _cost_of_values(problem, vp)
        if values[k] >= h:
            vm = values.copy()
            vm[k] -= h
            grad[k] = (jp - _cost_of_values(problem, vm)) / (2.0 * h)
        else:
            grad[k] = (jp - j0) / h
    return grad


def _initial_guesses(problem: TrackingProblem, seed, extra_random: int):
    """Structured starts: rest, matched equilibrium, demand mirror, random."""
    n = problem.control_grid.size - 1
    guesses = [np.zeros(n)]
    c = problem.rho0.total_mass
    lam_c = float(problem.law(c))
    guesses.append(np.full(n, c * lam_c))
    mids = 0.5 * (problem.control_grid[:-1] + problem.control_grid[1:])
    guesses.append(np.maximum(problem.y_d(mids), 0.0))
    rng = np.random.default_rng(seed)
    scale = max(float(np.max(problem.y_d.values, initial=0.0)), c * lam_c, 0.1)
    for _ in range(extra_random):
        guesses.append(rng.uniform(0.0, scale, size=n))
    return guesses


def resample_control(u: ControlSignal, grid: np.ndarray) -> np.ndarray:
    """Cell averages of u on a new breakpoint grid (exact for step data)."""
    return np.diff(u.cumulative(grid)) / np.diff(grid)


def minimize(problem: TrackingProblem, *, max_iters: int = 200,
             step_size: float = 0.5, grad_tol: float = 1e-7,
             seed: int = 0, extra_random_restarts: int = 0,
             warm_starts: tuple = ()) -> OptimizationReport:
    """Projected gradient descent over the control cell values.

    Each restart runs Armijo-backtracked steps of v ← max(v − s·∇J, 0) until
    the projected gradient is small or the step collapses. Additional
    warm-start controls (e.g. a known feasible candidate, or the result from
    a coarser grid) are resampled onto the control grid and join the restart
    pool. The best restart wins; ties go to the control with smaller L² norm.
    """
    guesses = _initial_guesses(problem, seed, extra_random_restarts)
    guesses += [np.maximum(resample_control(w, problem.control_grid), 0.0)
                for w in warm_starts]
    best_values, best_j, best_norm = None, np.inf, np.inf
    all_hist, all_gnorms = [], []
    converged = False
    for values in guesses:
        values = values.copy()
        j = _cost_of_values(problem, values)
        hist = [j]
        gnorms = []
        step = step_size
        for _ in range(max_iters):
            grad = _fd_gradient(problem, values, j)
            # projected gradient: descent directions blocked at v=0 don't count
            pg = np.where((values <= 0.0) & (grad > 0.0), 0.0, grad)
            gnorm = float(np.linalg.norm(pg))
            gnorms.append(gnorm)
            if gnorm <= grad_tol:
                converged = True
                break
            accepted = False
            while step > 1e-14:
                trial = np.maximum(values - step * grad, 0.0)
                jt = _cost_of_values(problem, trial)
                if jt <= j - 1e-4 * float(np.dot(grad, values - trial)):
                    values, j = trial, jt
                    accepted = True
                    step = min(step * 2.0, 1e3)
                    break
                step *= 0.5
            if not accepted:
                break
            hist.append(j)
        all_hist.append(hist)
        all_gnorms.append(gnorms)
        unorm = float(np.linalg.norm(values))
        if j < best_j - 1e-14 or (abs(j - best_j) <= 1e-14 and unorm < best_norm):
            best_values, best_j, best_norm = values, j, unorm
    return OptimizationReport(
        best_control=problem.control_from_values(best_values),
        best_cost=best_j,
        cost_history=all_hist,
        gradient_norm_history=all_gnorms,
        restarts=len(guesses),
        converged=converged,
    )
