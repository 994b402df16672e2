"""Demand-tracking cost and projected-gradient minimization."""

import numpy as np
import pytest

from reflow import transport
from reflow.characteristics import G3_WEIGHTS, FluxInflow, gauss_nodes
from reflow.laws import reciprocal, tabulated
from reflow.signals import ControlSignal, DensityProfile
from reflow.tracking import (TrackingProblem, _projected_gradient, cost, minimize,
                             resample_control)
from reflow.transport import simulate

from test_characteristics import CurveTangent, tangent_influx, tangent_mass


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


def nodewise_gradient(traj, y_d, grid):
    """The oracle of ``TrackingQuadrature.gradient``: the same formula, with
    dy of every direction built at each Gauss node (``tangent_mass`` at the
    node t and at its entry time sig) and then weighted by 2 w (y - y_d)."""
    assert isinstance(traj.inflow, FluxInflow)
    u, xi, law = traj.inflow.signal, traj.xi, traj.law
    tangent = CurveTangent(xi, law, grid, traj._outlet)
    h, t = gauss_nodes(traj.time_panels(extra=y_d.breakpoints))  # the quadrature's grid
    xi_t = xi(t)
    terms = W, post, sigma, rho1 = traj._outlet(t, xi_t)
    lam = law(W)
    dy = tangent_mass(tangent, t, terms)
    dy *= (law.slope(W) * rho1)[:, None]
    if np.any(post):
        at_sigma = W_s, *_, rho1_s = traj._outlet(sigma, xi_t[post] - 1.0)
        u_s, lam_s = u(sigma), law(W_s)
        d_sigma = (tangent(t[post]) - tangent(sigma)) / lam_s[:, None]
        dW_s = tangent_mass(tangent, sigma, at_sigma) + (u_s - lam_s * rho1_s)[:, None] * d_sigma
        drho = tangent_influx(tangent, sigma) - (u_s * law.slope(W_s) / lam_s)[:, None] * dW_s
        dy[post] += (lam[post] / lam_s)[:, None] * drho
    weights = (h[:, None] * G3_WEIGHTS).ravel()
    grad = (2.0 * weights * (lam * rho1 - y_d(t))) @ dy

    beta = traj.rho0.breakpoints[:-1]
    tau = u.breakpoints[1:]
    tau = tau[tau <= traj.horizon]
    levels = 1.0 + traj.inflow.labels(traj.rho0, xi, traj.horizon)
    moving = levels < xi.x_end
    if np.any(moving):
        lam_tau = traj.speed(tau)
        before = np.concatenate((traj.rho0(beta), u.left_limit(tau) / lam_tau))
        after = np.concatenate((traj.rho0.left_limit(beta), u(tau) / lam_tau))
        after[0] = u(0.0) / traj.speed(0.0)
        entry = np.concatenate((np.zeros((beta.size, tangent.cells.size - 1)), tangent(tau)))
        e = xi.inverse(levels[moving])
        lam_e = traj.speed(e)
        f_before = (lam_e * before[moving] - y_d.left_limit(e)) ** 2
        f_after = (lam_e * after[moving] - y_d(e)) ** 2
        shift = (entry[moving] - tangent(e)) / xi.slope(e)[:, None]
        grad += (f_before - f_after) @ shift
    return grad


def tangent_gradient(problem, values):
    traj = simulate(problem.rho0, problem.law, problem.horizon,
                    u=problem.control_from_values(values), tol=problem.solver_tol,
                    knots_per_window=problem.knots_per_window)
    return _projected_gradient(problem, values, transport.TrackingQuadrature(traj, problem.y_d))[0], traj


def assert_matches_nodewise(problem, traj):
    grad = transport.TrackingQuadrature(traj, problem.y_d).gradient(problem.control_grid)
    oracle = nodewise_gradient(traj, problem.y_d, problem.control_grid)
    assert np.max(np.abs(grad - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def assert_matches_fd(problem, values):
    grad, traj = tangent_gradient(problem, values)
    fd = fd_gradient(problem, values)
    assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))
    assert_matches_nodewise(problem, traj)
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

    def test_control_longer_than_the_horizon(self):
        # its breakpoints past T enter no moving jump; one at T never moves
        pr = exact_problem(DensityProfile([0.0, 0.4, 1.0], [0.3, 0.9]),
                           ControlSignal([0.0, 1.0, 2.5], [0.3, 0.5]), reciprocal(), 2.5, 4)
        values = np.array([0.5, 0.2, 0.6, 0.3])
        traj = assert_matches_fd(pr, values)
        longer = ControlSignal(np.append(pr.control_grid, [3.0, 4.0]), np.append(values, [0.9, 0.1]))
        traj_long = simulate(pr.rho0, pr.law, 2.5, u=longer, tol=pr.solver_tol,
                             knots_per_window=pr.knots_per_window)
        grid, Quadrature = pr.control_grid, transport.TrackingQuadrature
        np.testing.assert_allclose(Quadrature(traj_long, pr.y_d).gradient(grid),
                                   Quadrature(traj, pr.y_d).gradient(grid), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("T, n", [pytest.param(1.0, 64, id="1.0"), pytest.param(4.5, 64, id="4.5"),
                                      pytest.param(4.5, 512, id="4.5-512")])
    def test_fine_grid_matches_the_nodewise_oracle(self, T, n):
        # at T = 4.5 nodes lie behind the exit and so do their entry times
        pr = exact_problem(DensityProfile([0.0, 0.4, 1.0], [0.3, 0.9]),
                           ControlSignal([0.0, 0.5, T], [0.3, 0.5]), reciprocal(), T, n)
        values = np.random.default_rng(n).uniform(0.05, 0.8, n)
        traj = simulate(pr.rho0, pr.law, T, u=pr.control_from_values(values),
                        tol=pr.solver_tol, knots_per_window=pr.knots_per_window)
        assert (traj.xi.x_end > 2.0) == (T == 4.5)
        assert_matches_nodewise(pr, traj)

    def test_cost_and_gradient_read_the_outlet_once_at_the_nodes(self, monkeypatch):
        # the adjoint used to evaluate it again on a grid of its own
        pr = exact_problem(DensityProfile([0.0, 0.4, 1.0], [0.3, 0.9]),
                           ControlSignal([0.0, 1.0, 2.5], [0.3, 0.5]), reciprocal(), 2.5, 4)
        traj = simulate(pr.rho0, pr.law, 2.5, u=pr.control_from_values([0.5, 0.2, 0.6, 0.3]),
                        tol=pr.solver_tol, knots_per_window=pr.knots_per_window)
        outlet, sizes = transport.Trajectory._outlet, []
        monkeypatch.setattr(transport.Trajectory, "_outlet",
                            lambda self, t, xi_t: sizes.append(t.size) or outlet(self, t, xi_t))
        quad = transport.TrackingQuadrature(traj, pr.y_d)
        quad.error_sq()
        quad.gradient(pr.control_grid)
        # once at the nodes, once at the entry times of the nodes behind the exit
        assert sizes == [quad.t.size, quad.terms[2].size] and quad.terms[2].size > 0

    def test_cell_at_zero(self):
        pr = exact_problem(DensityProfile([0.0, 0.4, 1.0], [0.3, 0.9]),
                           ControlSignal([0.0, 1.0, 2.5], [0.3, 0.5]), reciprocal(), 2.5, 4)
        assert_matches_fd(pr, np.array([0.5, 0.0, 0.6, 0.3]))

    @pytest.mark.parametrize("grid, match", [
        ([0.0, 0.7, 0.5, 1.0], "strictly increasing"),  # gave a wrong gradient
        ([0.0, float("nan"), 1.0], "finite"),  # gave NaN
        ([0.0], "at least two breakpoints"),  # failed in a numpy reshape
    ])
    def test_grid_takes_the_breakpoint_rule_of_a_step_function(self, grid, match):
        traj = simulate(DensityProfile.constant(0.5), reciprocal(), 1.0,
                        u=ControlSignal.constant(0.3, 1.0))
        y_d = ControlSignal.constant(0.2, 1.0)
        with pytest.raises(ValueError, match=match):
            transport.TrackingQuadrature(traj, y_d).gradient(np.array(grid))

    def test_demand_shorter_than_the_horizon_is_refused(self):
        # it read as clamped past its end, and gave the cost of a demand on [0, 1]
        traj = simulate(DensityProfile.constant(0.5), reciprocal(), 1.0,
                        u=ControlSignal.constant(0.3, 1.0))
        short = ControlSignal.constant(0.2, 0.5)
        with pytest.raises(ValueError, match="demand horizon 0.5 shorter than T=1.0"):
            traj.tracking_error_sq(short)
        with pytest.raises(ValueError, match="demand horizon 0.5 shorter than T=1.0"):
            transport.TrackingQuadrature(traj, short).gradient(np.array([0.0, 1.0]))

    def test_density_mode_trajectory_is_refused(self):
        traj = simulate(DensityProfile.constant(1.0), reciprocal(), 1.0,
                        boundary_density=ControlSignal.constant(1.0, 1.0))
        y_d = ControlSignal.constant(0.5, 1.0)
        with pytest.raises(ValueError, match="prescribed influx"):
            transport.TrackingQuadrature(traj, y_d).gradient(np.array([0.0, 1.0]))


class TestOptimizerPath:
    """``minimize`` takes the same path with the nodewise oracle patched in."""

    @pytest.mark.parametrize("problem", [
        small_problem(),
        exact_problem(DensityProfile([0.0, 0.4, 1.0], [0.3, 0.9]),
                      ControlSignal([0.0, 1.0, 2.5], [0.3, 0.5]), reciprocal(), 2.5, 5,
                      tracking_weight=2.0),
        exact_problem(DensityProfile([0.0, 0.5, 1.0], [0.4, 0.8]),
                      ControlSignal([0.0, 0.6, 1.0], [0.3, 0.5]),
                      tabulated([0.0, 0.5, 1.0, 2.0, 4.0], [1.0, 0.8, 0.5, 0.35, 0.2]), 1.0, 4),
    ])
    def test_same_solves_and_costs(self, problem, monkeypatch):
        contracted = minimize(problem, max_iters=3, grad_tol=1e-5)
        monkeypatch.setattr(transport.TrackingQuadrature, "gradient",
                            lambda quad, grid: nodewise_gradient(quad.traj, quad.y_d, grid))
        nodewise = minimize(problem, max_iters=3, grad_tol=1e-5)
        assert contracted.solves == nodewise.solves
        for a, b in zip(contracted.cost_history, nodewise.cost_history, strict=True):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)


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

    def test_nan_horizon_is_rejected_when_built(self):
        # the grid and demand checks both passed NaN; the first solve failed
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            TrackingProblem(DensityProfile.constant(0.0),
                            ControlSignal.constant(0.0, 1.0),
                            reciprocal(), float("nan"), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("grid, match", [
        ([0.0, float("nan"), 1.0], "finite"),  # used to fail only in minimize
        ([0.0, 0.7, 0.5, 1.0], "strictly increasing"),
        ([0.5, 1.0], "start at t = 0"),
        ([1.0], "at least two breakpoints"),
        (1.0, "at least two breakpoints"),  # raised IndexError
    ])
    def test_grid_takes_the_breakpoint_rule_of_a_control(self, grid, match):
        with pytest.raises(ValueError, match=match):
            TrackingProblem(DensityProfile.constant(0.0),
                            ControlSignal.constant(0.0, 1.0),
                            reciprocal(), 1.0, np.array(grid))

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

    @pytest.mark.parametrize("kw", [dict(max_iters=-1), dict(max_iters=True), dict(max_iters=2.5),
                                    dict(extra_random_restarts=-1),
                                    dict(extra_random_restarts=2.5), dict(seed=-1),
                                    dict(seed=float("nan"))])
    def test_rejects_counts_that_are_not_whole_and_nonnegative(self, kw):
        # max_iters=-1 ran no iteration, True one, and -1 random restarts were none
        name = next(iter(kw))
        with pytest.raises(ValueError, match=f"{name} must be a whole number >= 0"):
            minimize(small_problem(), **kw)

    def test_rejects_warm_start_shorter_than_the_horizon(self):
        # it read as zero influx past its end: [0.4, 0.2, 0] on thirds of [0, 1]
        short = ControlSignal.constant(0.4, 0.5)
        with pytest.raises(ValueError, match="warm start horizon 0.5 shorter than T=1.0"):
            minimize(small_problem(), max_iters=1, warm_starts=(short,))

    def test_zero_iterations_report_the_starts(self):
        report = minimize(small_problem(), max_iters=0)
        assert all(len(h) == 1 for h in report.cost_history)
        assert report.gradient_norm_history == [[]] * report.restarts

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

    @pytest.mark.parametrize("grid, match", [
        ([0.0, 1.0, 2.0], r"grid must lie in \[0, 1\]"),  # read u as 0 past its end: [2, 0]
        ([-0.5, 0.5, 1.0], r"grid must lie in \[0, 1\]"),
        ([0.0, float("nan"), 1.0], r"grid must lie in \[0, 1\]"),
        ([0.0, 0.7, 0.3, 1.0], "strictly increasing"),  # gave [2, 2, 2]
        ([0.0, 0.5, 0.5, 1.0], "strictly increasing"),  # gave a NaN
        ([0.5], "at least two"),
        ([], "at least two"),
    ])
    def test_rejects_a_grid_off_the_breakpoint_rule_or_past_the_horizon(self, grid, match):
        with pytest.raises(ValueError, match=match):
            resample_control(ControlSignal([0.0, 1.0], [2.0]), grid)
