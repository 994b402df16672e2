"""Demand-tracking cost and projected-gradient minimization."""

import numpy as np
import pytest

from reflow.laws import reciprocal, tabulated
from reflow.signals import ControlSignal, DensityProfile
from reflow.tracking import (TrackingProblem, _projected_gradient, cost, minimize,
                             resample_control)
from reflow.transport import simulate


def small_problem(**kw):
    defaults = dict(solver_tol=1e-8, knots_per_window=64)
    defaults.update(kw)
    return TrackingProblem(
        DensityProfile.constant(1.0),
        ControlSignal.constant(0.5, 1.0),
        reciprocal(), 1.0, np.linspace(0.0, 1.0, 5), **defaults)


class TestCost:
    def test_empty_system_with_zero_demand_costs_nothing(self):
        pr = TrackingProblem(DensityProfile.constant(0.0),
                             ControlSignal.constant(0.0, 1.0),
                             reciprocal(), 1.0, np.array([0.0, 1.0]))
        assert cost(pr, ControlSignal.constant(0.0, 1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_pure_tracking_term(self):
        # empty system, no influx, demand 1 on [0, 1]: J = integral of 1
        pr = TrackingProblem(DensityProfile.constant(0.0),
                             ControlSignal.constant(1.0, 1.0),
                             reciprocal(), 1.0, np.array([0.0, 1.0]))
        assert cost(pr, ControlSignal.constant(0.0, 1.0)) == pytest.approx(1.0, abs=1e-10)

    def test_matched_equilibrium_costs_only_control_energy(self):
        # equilibrium c = 1 with lam = 1/2: u = y = y_d = 1/2, J = T u^2
        pr = TrackingProblem(DensityProfile.constant(1.0),
                             ControlSignal.constant(0.5, 2.0),
                             reciprocal(), 2.0, np.array([0.0, 2.0]))
        assert cost(pr, ControlSignal.constant(0.5, 2.0)) == pytest.approx(0.5, abs=1e-9)

    def test_rejects_negative_control(self):
        pr = small_problem()
        u = ControlSignal.__new__(ControlSignal)
        # bypass the signal validator to exercise the cost-side check
        u.breakpoints = np.array([0.0, 1.0])
        u.values = np.array([-0.5])
        with pytest.raises(ValueError, match="nonnegative"):
            cost(pr, u)

    def test_tracking_weight_scales_the_error_term(self):
        pr1 = small_problem(tracking_weight=1.0)
        pr2 = small_problem(tracking_weight=3.0)
        zero = ControlSignal.constant(0.0, 1.0)
        assert cost(pr2, zero) == pytest.approx(3.0 * cost(pr1, zero), rel=1e-10)


def fd_gradient(problem, values, rel_h=1e-5):
    """The finite-difference oracle: central per cell, second-order one-sided
    where v - h would leave the nonnegative controls."""
    def J(k, dv):
        v = values.copy()
        v[k] += dv
        return cost(problem, problem.control_from_values(v))

    grad = np.empty_like(values)
    for k in range(values.size):
        h = rel_h * max(1.0, abs(values[k]))
        if values[k] >= h:
            grad[k] = (J(k, h) - J(k, -h)) / (2.0 * h)
        else:
            grad[k] = (4.0 * J(k, h) - J(k, 2.0 * h) - 3.0 * J(k, 0.0)) / (2.0 * h)
    return grad


def tangent_gradient(problem, values):
    traj = simulate(problem.rho0, problem.law, problem.horizon,
                    u=problem.control_from_values(values), tol=problem.solver_tol,
                    knots_per_window=problem.knots_per_window)
    return _projected_gradient(problem, values, traj)[0], traj


def assert_matches_fd(problem, values):
    grad, traj = tangent_gradient(problem, values)
    fd = fd_gradient(problem, values)
    assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))
    return traj


def exact_problem(rho0, y_d, law, T, n, **kw):
    return TrackingProblem(rho0, y_d, law, T, np.linspace(0.0, T, n + 1),
                           solver_tol=1e-12, knots_per_window=64, **kw)


class TestGradient:
    """The tangent gradient against finite differences of J."""

    @pytest.mark.parametrize("c, level, T", [(0.0, 0.4, 1.0), (0.5, 0.2, 1.0), (1.0, 0.6, 1.0),
                                             (0.8, 0.0, 1.0), (0.3, 0.5, 1.2)])
    def test_criterion_8_scenarios(self, c, level, T):
        pr = exact_problem(DensityProfile.constant(c), ControlSignal.constant(level, T),
                           reciprocal(), T, 4)
        assert_matches_fd(pr, np.random.default_rng(int(10 * c)).uniform(0.1, 0.8, 4))

    @pytest.mark.parametrize("T", [2.5, 3.0, 4.5])
    def test_after_exit_with_moving_outflux_jumps(self, T):
        # a 2-cell rho0 and control breakpoints reach x = 1; y_d jumps at t = 1
        pr = exact_problem(DensityProfile([0.0, 0.4, 1.0], [0.3, 0.9]),
                           ControlSignal([0.0, 1.0, T], [0.3, 0.5]), reciprocal(), T, 5,
                           tracking_weight=2.0)
        traj = assert_matches_fd(pr, np.array([0.2, 0.7, 0.1, 0.5, 0.3]))
        # the rho0 jump has left, and so has the material that entered at the
        # jump's exit time, i.e. x = 1 passes 1 - 0.4 + 1
        assert traj.xi.x_end > 1.6
        assert np.any(1.0 + traj.xi(pr.control_grid[1:-1]) < traj.xi.x_end)

    @pytest.mark.parametrize("T", [1.0, 2.5])
    def test_tabulated_law(self, T):
        law = tabulated([0.0, 0.5, 1.0, 2.0, 4.0], [1.0, 0.8, 0.5, 0.35, 0.2])
        pr = exact_problem(DensityProfile([0.0, 0.5, 1.0], [0.4, 0.8]),
                           ControlSignal([0.0, 0.6, T], [0.3, 0.5]), law, T, 4)
        traj = assert_matches_fd(pr, np.array([0.2, 0.7, 0.4, 0.5]))
        W = traj.total_mass(np.linspace(0.0, T, 200))
        assert np.any((W.min() < law.kinks) & (law.kinks < W.max()))

    def test_cell_at_zero(self):
        pr = exact_problem(DensityProfile([0.0, 0.4, 1.0], [0.3, 0.9]),
                           ControlSignal([0.0, 1.0, 2.5], [0.3, 0.5]), reciprocal(), 2.5, 4)
        assert_matches_fd(pr, np.array([0.5, 0.0, 0.6, 0.3]))

    def test_density_mode_trajectory_is_refused(self):
        traj = simulate(DensityProfile.constant(1.0), reciprocal(), 1.0,
                        boundary_density=ControlSignal.constant(1.0, 1.0))
        with pytest.raises(ValueError, match="prescribed influx"):
            traj.tracking_gradient(ControlSignal.constant(0.5, 1.0), np.array([0.0, 1.0]))


class TestProblemValidation:
    def test_grid_must_span_horizon(self):
        with pytest.raises(ValueError, match="span"):
            TrackingProblem(DensityProfile.constant(0.0),
                            ControlSignal.constant(0.0, 1.0),
                            reciprocal(), 1.0, np.array([0.0, 0.5]))

    @pytest.mark.parametrize("w", [-1.0, float("nan"), float("inf")])
    def test_tracking_weight_must_be_finite_and_nonnegative(self, w):
        with pytest.raises(ValueError, match="tracking weight"):
            small_problem(tracking_weight=w)

    @pytest.mark.parametrize("kw", [dict(solver_tol=float("inf")), dict(solver_tol=0.0),
                                    dict(knots_per_window=0), dict(knots_per_window=True)])
    def test_solver_settings_are_checked_when_built(self, kw):
        # they used to be checked only by the first solve
        with pytest.raises(ValueError, match="solver_tol|knots_per_window"):
            small_problem(**kw)

    def test_demand_must_cover_horizon(self):
        with pytest.raises(ValueError, match="demand"):
            TrackingProblem(DensityProfile.constant(0.0),
                            ControlSignal.constant(0.0, 0.5),
                            reciprocal(), 1.0, np.array([0.0, 1.0]))


class TestMinimize:
    def test_zero_demand_keeps_zero_control(self):
        pr = TrackingProblem(DensityProfile.constant(0.0),
                             ControlSignal.constant(0.0, 1.0),
                             reciprocal(), 1.0, np.linspace(0.0, 1.0, 4),
                             solver_tol=1e-8, knots_per_window=64)
        report = minimize(pr, max_iters=10, grad_tol=1e-6)
        assert report.best_cost == pytest.approx(0.0, abs=1e-10)
        assert np.all(report.best_control.values == 0.0)

    def test_descent_is_monotone_and_feasible(self):
        pr = small_problem()
        report = minimize(pr, max_iters=15, grad_tol=1e-5,
                          extra_random_restarts=1, seed=3)
        for hist in report.cost_history:
            assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
        assert np.all(report.best_control.values >= 0.0)
        # rest, matched equilibrium 0.5 (the same as the demand mirror), one random
        assert report.restarts == 3

    def test_report_describes_the_best_restart(self):
        pr = small_problem()
        # the warm start meets grad_tol at once but costs more than one step
        # from rest, whose projected gradient is still above grad_tol
        warm = pr.control_from_values([0.06, 0.055, 0.05, 0.03])
        report = minimize(pr, max_iters=1, grad_tol=0.028, warm_starts=(warm,))
        assert report.gradient_norm_history[-1] == [pytest.approx(0.0259, abs=1e-3)]
        assert report.best_cost == report.cost_history[0][-1] < cost(pr, warm)
        assert not report.converged
        assert report.solves[-1] == 1 and len(report.solves) == report.restarts == 3
        assert all(s >= len(h) for s, h in zip(report.solves, report.cost_history))
        grad, traj = tangent_gradient(pr, report.best_control.values)
        pg = np.where((report.best_control.values <= 0.0) & (grad > 0.0), 0.0, grad)
        assert report.kkt_residual == pytest.approx(np.linalg.norm(pg), rel=1e-12)
        assert report.kkt_residual > 0.0

    def test_converged_restart_reports_its_residual(self):
        pr = small_problem()
        report = minimize(pr, max_iters=200, grad_tol=1e-4)
        assert report.converged
        assert report.kkt_residual <= 1e-4

    def test_never_worse_than_trivial_comparators(self):
        pr = small_problem()
        report = minimize(pr, max_iters=15, grad_tol=1e-5)
        j_zero = cost(pr, ControlSignal.constant(0.0, 1.0))
        j_eq = cost(pr, ControlSignal.constant(0.5, 1.0))
        assert report.best_cost <= min(j_zero, j_eq) + 1e-12

    def test_warm_start_at_matched_equilibrium_adds_no_restart(self):
        pr = TrackingProblem(DensityProfile.constant(0.5), ControlSignal.constant(0.2, 1.0),
                             reciprocal(), 1.0, np.linspace(0.0, 1.0, 5),
                             solver_tol=1e-8, knots_per_window=64)
        plain = minimize(pr, max_iters=3, grad_tol=1e-5)
        # resampling c * lam(c) = 1/3 moves two of its cells by 6e-17
        warm = minimize(pr, max_iters=3, grad_tol=1e-5,
                        warm_starts=(ControlSignal.constant(0.5 / 1.5, 1.0),))
        assert warm.restarts == plain.restarts == 3
        assert warm.cost_history == plain.cost_history

    @pytest.mark.parametrize("grad_tol", [float("nan"), -1.0, float("inf")])
    def test_rejects_grad_tol_that_disables_convergence(self, grad_tol):
        with pytest.raises(ValueError, match="grad_tol"):
            minimize(small_problem(), max_iters=1, grad_tol=grad_tol)

    def test_warm_start_caps_the_result(self):
        pr = small_problem()
        candidate = ControlSignal(np.array([0.0, 0.5, 1.0]), np.array([0.4, 0.2]))
        report = minimize(pr, max_iters=5, grad_tol=1e-5,
                          warm_starts=(candidate,))
        assert report.best_cost <= cost(pr, candidate) + 1e-12


class TestResample:
    def test_exact_on_aligned_grids(self):
        u = ControlSignal(np.array([0.0, 0.5, 1.0]), np.array([2.0, 1.0]))
        vals = resample_control(u, np.linspace(0.0, 1.0, 5))
        assert np.allclose(vals, [2.0, 2.0, 1.0, 1.0])

    def test_cell_averages_on_straddling_grid(self):
        u = ControlSignal(np.array([0.0, 0.5, 1.0]), np.array([2.0, 1.0]))
        vals = resample_control(u, np.array([0.0, 0.75, 1.0]))
        assert vals[0] == pytest.approx((0.5 * 2.0 + 0.25 * 1.0) / 0.75)
