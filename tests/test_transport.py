"""Assembled weak solution: mass balance, branch formulas, diagnostics."""

import numpy as np
import pytest

from reflow.laws import reciprocal, tabulated
from reflow.signals import ControlSignal, DensityProfile
from reflow.transport import _gauss5, simulate

from test_characteristics import random_scenario


@pytest.fixture(scope="module")
def step_fill():
    """rho0 = 1 filled to 2 by a held boundary density (closed forms known)."""
    b = ControlSignal.constant(2.0, 2.5)
    return simulate(DensityProfile.constant(1.0), reciprocal(), 2.5,
                    boundary_density=b)


class TestMassBalance:
    def test_identity_on_randomized_scenarios(self):
        rng = np.random.default_rng(5)
        law = reciprocal()
        for _ in range(12):
            u, rho0 = random_scenario(rng)
            traj = simulate(rho0, law, 1.5, u=u)
            t = np.linspace(0.0, 1.5, 60)
            resid = traj.total_mass(t) - (traj.total_mass(0.0)
                                          + traj.cumulative_influx(t)
                                          - traj.cumulative_outflux(t))
            assert np.max(np.abs(resid)) <= 1e-10 * (1.0 + traj.M)

    def test_initial_mass_is_profile_mass(self, step_fill):
        assert step_fill.total_mass(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_total_mass(self, step_fill):
        t = np.linspace(0.0, 2.5, 300)
        exact = -1.0 + np.sqrt(4.0 + 2.0 * t)
        assert np.max(np.abs(step_fill.total_mass(t) - exact)) <= 1e-9


class TestDensityBranches:
    def test_ahead_of_curve_is_translated_initial_profile(self):
        # rho0 = 0 filled at boundary density 2: xi(1) ~ 0.618 < 0.9
        b = ControlSignal.constant(2.0, 2.0)
        traj = simulate(DensityProfile.constant(0.0), reciprocal(), 2.0,
                        boundary_density=b)
        assert traj.rho_at(1.0, 0.9) == 0.0

    def test_behind_curve_carries_entry_density(self, step_fill):
        for (t, x) in [(1.0, 0.1), (2.0, 0.5), (2.5, 0.99)]:
            if x <= step_fill.xi(t):
                assert step_fill.rho_at(t, x) == pytest.approx(2.0, abs=1e-9)

    def test_constant_speed_linear_advection_oracle(self):
        # with a constant tabulated speed the problem is linear advection:
        # rho(t, x) = rho0(x - ct) ahead of the curve, u(t - x/c)/c behind
        c = 0.8
        law = tabulated([0.0, 8.0], [c, c])
        u = ControlSignal(np.array([0.0, 0.5, 1.1, 2.0]), np.array([0.7, 0.1, 1.2]))
        rho0 = DensityProfile(np.array([0.0, 0.4, 1.0]), np.array([0.5, 1.5]))
        traj = simulate(rho0, law, 2.0, u=u)
        rng = np.random.default_rng(9)
        for t in rng.uniform(0.0, 2.0, 30):
            x = rng.uniform(0.0, 1.0)
            if x > c * t + 1e-9:
                assert traj.rho_at(t, x) == pytest.approx(rho0(x - c * t), abs=1e-11)
            elif x < c * t - 1e-9:
                assert traj.rho_at(t, x) == pytest.approx(u(t - x / c) / c, abs=1e-11)

    def test_every_sampled_density_is_nonnegative(self):
        rng = np.random.default_rng(11)
        law = reciprocal()
        for _ in range(6):
            u, rho0 = random_scenario(rng)
            traj = simulate(rho0, law, 1.5, u=u)
            for t in np.linspace(0.0, 1.5, 12):
                assert np.all(traj.slice_values(t, np.linspace(0, 1, 200)) >= 0.0)


class TestFluxes:
    def test_w_derivative_matches_finite_differences(self, step_fill):
        h = 1e-6
        t = np.linspace(0.1, 2.4, 40)
        t = t[np.abs(t - step_fill.exit_time) > 1e-2]
        fd = (step_fill.total_mass(t + h) - step_fill.total_mass(t - h)) / (2 * h)
        assert np.max(np.abs(step_fill.w_derivative(t) - fd)) <= 1e-7

    def test_outflux_closed_form_across_exit(self, step_fill):
        t = np.linspace(0.0, 2.5, 500)
        W = step_fill.total_mass(t)
        expected = np.where(t < step_fill.exit_time, 1.0, 2.0) / (1.0 + W)
        err = np.abs(step_fill.outflux(t) - expected)
        # exclude the sample nearest the outflux jump itself
        err[np.abs(t - step_fill.exit_time) < 5e-3] = 0.0
        assert np.max(err) <= 1e-9

    def test_backlog_against_hand_integral(self, step_fill):
        # demand 0.5 (old equilibrium outflux) up to t: backlog =
        # 0.5 t - integral of the outflux, evaluated exactly
        y_d = ControlSignal.constant(0.5, 2.5)
        t = 2.0
        expected = 0.5 * t - step_fill.cumulative_outflux(t)
        assert step_fill.backlog(y_d, t) == pytest.approx(expected, abs=1e-12)
        with pytest.raises(ValueError, match="horizon"):
            step_fill.backlog(y_d, 3.0)

    def test_nan_horizon_rejected(self):
        u = ControlSignal.constant(0.5, 2.0)
        with pytest.raises(ValueError, match="horizon must be positive"):
            simulate(DensityProfile.constant(1.0), reciprocal(), float("nan"), u=u)


class TestRegularityDiagnostics:
    def test_slice_norms_at_equilibrium(self):
        c = 1.3
        u = ControlSignal.constant(c / (1.0 + c), 1.0)
        traj = simulate(DensityProfile.constant(c), reciprocal(), 1.0, u=u)
        assert traj.slice_lp_norm(0.5, 1) == pytest.approx(c, abs=1e-9)
        assert traj.slice_lp_norm(0.5, 2) == pytest.approx(c, abs=1e-9)

    def test_l1_slice_distance_shrinks_with_time_gap(self, step_fill):
        d_big = step_fill.l1_slice_distance(1.0, 1.0 + 1e-2)
        d_small = step_fill.l1_slice_distance(1.0, 1.0 + 5e-3)
        assert 0.0 < d_small < d_big

    def test_l1_slice_distance_is_symmetric(self, step_fill):
        a = step_fill.l1_slice_distance(0.7, 1.4)
        b = step_fill.l1_slice_distance(1.4, 0.7)
        assert a == pytest.approx(b, rel=1e-9)

    @pytest.mark.parametrize("inflow", ["u", "boundary_density"])
    def test_l1_time_distance_matches_pointwise_rho_at(self, inflow):
        rho0 = DensityProfile([0.0, 0.3, 0.7, 1.0], [1.2, 0.4, 2.0])
        signal = ControlSignal(np.linspace(0.0, 2.0, 5), [0.8, 0.1, 1.5, 0.6])
        traj = simulate(rho0, reciprocal(), 2.0, **{inflow: signal})
        # the same Gauss-Legendre panels, each node through the scalar rho_at
        nodes, weights = np.polynomial.legendre.leggauss(5)
        edges = traj.time_panels(max_width=0.05 * traj.horizon)
        h = np.diff(edges)
        ts = edges[:-1, None] + h[:, None] * (0.5 * (nodes + 1.0))
        for x1, x2 in [(0.2, 0.9), (0.0, 1.0), (0.5, 0.55)]:
            gap = np.abs(np.vectorize(traj.rho_at)(ts, x1) - np.vectorize(traj.rho_at)(ts, x2))
            expected = float(np.sum(h * (gap @ (0.5 * weights))))
            assert traj.l1_time_distance(x1, x2, max_width=0.05) == pytest.approx(
                expected, rel=1e-12)


class TestTimePanels:
    @pytest.mark.parametrize("law, rho0, y_d, u, T", [
        # W crosses kinks of a tabulated law
        (tabulated([0.0, 0.5, 1.0, 2.0, 4.0], [1.0, 0.8, 0.5, 0.35, 0.2]),
         DensityProfile([0.0, 0.5, 1.0], [0.4, 0.8]), ControlSignal([0.0, 0.6, 2.5], [0.3, 0.5]),
         [0.2, 0.7, 0.4, 0.5], 2.5),
        # material that entered at the rho0 jump's exit time leaves again
        (reciprocal(), DensityProfile([0.0, 0.4, 1.0], [0.3, 0.9]),
         ControlSignal([0.0, 1.0, 4.5], [0.3, 0.5]), [0.2, 0.7, 0.1, 0.5, 0.3], 4.5),
    ])
    def test_tracking_error_is_panel_exact_at_outflux_kinks(self, law, rho0, y_d, u, T):
        traj = simulate(rho0, law, T, u=ControlSignal(np.linspace(0.0, T, len(u) + 1), u),
                        tol=1e-12)
        # a reference with an edge at the exit time of every knot, 32 times finer
        edges = traj.time_panels(extra=np.concatenate((
            y_d.breakpoints, traj.xi.with_exits(traj.xi.times))), max_width=T / 16384)
        ref = _gauss5(edges, lambda t: (traj.outflux(t) - y_d(t)) ** 2)
        assert traj.tracking_error_sq(y_d) == pytest.approx(ref, rel=1e-13, abs=1e-15)


class TestExport:
    def test_timeseries_csv_schema(self, tmp_path, step_fill):
        path = tmp_path / "ts.csv"
        step_fill.write_timeseries(path, n=16)
        lines = path.read_text().splitlines()
        assert lines[0] == "# columns: t,W,u,y,beta"
        assert len(lines) == 17

    def test_slice_csv_schema(self, tmp_path, step_fill):
        path = tmp_path / "slice.csv"
        step_fill.write_slice(path, 1.0, n=8)
        lines = path.read_text().splitlines()
        assert lines[0] == "# columns: x,rho"
        assert len(lines) == 9
