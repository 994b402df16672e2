"""Assembled weak solution: mass balance, branch formulas, diagnostics."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import reflow.transport as transport
from reflow.laws import reciprocal, tabulated
from reflow.signals import ControlSignal, DensityProfile
from reflow.transport import _gauss5, _panels, abs_integral, simulate

from test_characteristics import random_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
            M = rho0.total_mass + traj.cumulative_influx(1.5)
            assert np.max(np.abs(resid)) <= 1e-10 * (1.0 + M)

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

    def test_boundary_branch_is_the_solution_formula_at_the_entry_time(self):
        # the trace-back takes the entry speed from the position it inverted
        # for; with T = 3 some particles entered after the first exit
        rho0 = DensityProfile([0.0, 0.3, 0.7, 1.0], [1.2, 0.4, 2.0])
        u = ControlSignal(np.linspace(0.0, 3.0, 9), [0.8, 0.1, 1.5, 0.6, 0.0, 1.1, 0.9, 0.3])
        traj = simulate(rho0, reciprocal(), 3.0, u=u)
        late = 0
        for t in (0.5, 1.5, 2.2, 3.0):
            x = np.linspace(0.0, 1.0, 201)
            x = x[x <= traj.xi(t)]
            sigma = traj.xi.inverse(traj.xi(t) - x)
            late += np.count_nonzero(sigma > traj.exit_time)
            expected = u(sigma) / traj.speed(sigma)
            assert np.all(np.abs(traj.slice_values(t, x) - expected) <= 1e-14 * expected)
            assert traj.outflux(t) == pytest.approx(
                traj.speed(t) * traj.slice_values(t, 1.0)[0], rel=1e-14, abs=0.0)
        assert traj.xi.x_end > 1.0 and late > 0

    def test_boundary_density_branch_is_the_prescribed_density(self):
        b = ControlSignal(np.linspace(0.0, 3.0, 7), [1.5, 0.2, 0.9, 2.0, 0.4, 1.1])
        traj = simulate(DensityProfile.constant(0.8), reciprocal(), 3.0, boundary_density=b)
        for t in (1.0, 2.0, 3.0):
            x = np.linspace(0.0, 1.0, 201)
            x = x[x <= traj.xi(t)]
            sigma = traj.xi.inverse(traj.xi(t) - x)
            assert np.array_equal(traj.slice_values(t, x), b(sigma))

    @pytest.mark.parametrize("x", [1.5, -0.5, float("nan"), np.array([0.5, 1.0 + 1e-9])])
    def test_slice_rejects_positions_outside_the_segment(self, x):
        # rho_at(1.0, 1.5) read clamped initial data (0.5); -0.5 and NaN raised
        # the curve's range error and the time check instead
        traj = simulate(DensityProfile(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.5])),
                        reciprocal(), 2.0,
                        u=ControlSignal(np.array([0.0, 1.0, 2.0]), np.array([0.8, 0.2])))
        with pytest.raises(ValueError, match="positions must lie in"):
            traj.slice_values(1.0, x)
        if np.ndim(x) == 0:
            with pytest.raises(ValueError, match="positions must lie in"):
                traj.rho_at(1.0, x)
        eps = 1e-13  # within the end tolerance 1e-12
        assert traj.rho_at(1.0, -eps) == pytest.approx(traj.rho_at(1.0, 0.0), abs=1e-12)
        assert traj.rho_at(1.0, 1.0 + eps) == pytest.approx(traj.rho_at(1.0, 1.0), abs=1e-12)

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

    @pytest.mark.parametrize("inflow", [dict(u=ControlSignal.constant(1.0, 4.0)),
                                        dict(boundary_density=ControlSignal.constant(2.0, 4.0))])
    def test_outflux_at_exit_takes_the_inflow_branch(self, inflow):
        # at the exit instant x = 1 is the interface; the outflux reads the
        # same density there as every slice does
        traj = simulate(DensityProfile.constant(1.0), reciprocal(), 4.0, **inflow)
        t = traj.exit_time
        assert traj.outflux(t) == traj.speed(t) * traj.rho_at(t, 1.0)

    def test_backlog_against_hand_integral(self, step_fill):
        # demand 0.5 (old equilibrium outflux) up to t: backlog =
        # 0.5 t - integral of the outflux, evaluated exactly
        y_d = ControlSignal.constant(0.5, 2.5)
        t = 2.0
        expected = 0.5 * t - step_fill.cumulative_outflux(t)
        assert step_fill.backlog(y_d, t) == pytest.approx(expected, abs=1e-12)
        with pytest.raises(ValueError, match="horizon"):
            step_fill.backlog(y_d, 3.0)

    def test_backlog_takes_the_horizon_slack_of_every_observable(self):
        # 2e-12 past T = 4 is within 1e-12 max(1, T), the slack rules.interval
        # gives every observable of time
        traj = simulate(DensityProfile.constant(1.0), reciprocal(), 4.0,
                        boundary_density=ControlSignal.constant(2.0, 4.0))
        y_d = ControlSignal.constant(0.5, 5.0)
        t = 4.0 + 2e-12
        assert traj.backlog(y_d, t) == y_d.cumulative(t) - traj.cumulative_outflux(t)

    @pytest.mark.parametrize("t", [1.5, -0.1, float("nan"), np.array([0.5, 1.5])])
    def test_observables_reject_times_outside_the_horizon(self, t):
        # the curve is clamped at T but the influx is not: total_mass(1.5) read
        # 1.7269 where a solve to 1.5 gives 1.6235
        traj = simulate(DensityProfile.constant(0.5), reciprocal(), 1.0,
                        u=ControlSignal.constant(1.0, 2.0))
        for observable in (traj.total_mass, traj.outflux, traj.cumulative_outflux,
                           traj.cumulative_influx, traj.influx, traj.speed,
                           lambda t: traj.slice_values(t, [0.5])):
            with pytest.raises(ValueError, match="times must lie in"):
                observable(t)
        eps = 1e-13  # within the end tolerance 1e-12 max(1, T)
        assert traj.total_mass(1.0 + eps) == pytest.approx(traj.total_mass(1.0), abs=1e-12)
        assert traj.total_mass(-eps) == pytest.approx(traj.total_mass(0.0), abs=1e-12)

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

    @pytest.mark.parametrize("p", [True, 3, 0])
    def test_slice_norm_rejects_an_exponent_other_than_1_or_2(self, p):
        # slice_lp_norm(t, True) returned the L1 norm
        traj = simulate(DensityProfile.constant(1.0), reciprocal(), 1.0,
                        u=ControlSignal.constant(0.5, 1.0))
        with pytest.raises(ValueError, match="unsupported exponent"):
            traj.slice_lp_norm(0.5, p)

    def test_l1_slice_distance_shrinks_with_time_gap(self, step_fill):
        d_big = step_fill.l1_slice_distance(1.0, 1.0 + 1e-2)
        d_small = step_fill.l1_slice_distance(1.0, 1.0 + 5e-3)
        assert 0.0 < d_small < d_big

    def test_l1_slice_distance_is_symmetric(self, step_fill):
        a = step_fill.l1_slice_distance(0.7, 1.4)
        b = step_fill.l1_slice_distance(1.4, 0.7)
        assert a == pytest.approx(b, rel=1e-9)

    @pytest.mark.parametrize("inflow", ["u", "boundary_density"])
    def test_l1_time_distance_matches_pointwise_rho_at(self, inflow, monkeypatch):
        rho0 = DensityProfile([0.0, 0.3, 0.7, 1.0], [1.2, 0.4, 2.0])
        signal = ControlSignal(np.linspace(0.0, 2.0, 5), [0.8, 0.1, 1.5, 0.6])
        traj = simulate(rho0, reciprocal(), 2.0, **{inflow: signal})
        # the same panels, each node through the scalar rho_at
        panels = []
        monkeypatch.setattr(transport, "abs_integral",
                            lambda edges, f: panels.append(edges) or abs_integral(edges, f))
        for x1, x2 in [(0.2, 0.9), (0.0, 1.0), (0.5, 0.55)]:
            value = traj.l1_time_distance(x1, x2)
            gap = np.vectorize(lambda t: traj.rho_at(t, x1) - traj.rho_at(t, x2), otypes=[float])
            assert value == pytest.approx(abs_integral(panels.pop(), gap), rel=1e-12)


def l1_reference(traj, s, t, width=2e-4):
    """Brute force for ``l1_slice_distance``: (the integral, the roots found).

    Edges at every jump and at xi(r) - xi(tau) for every edge tau of
    ``time_panels`` and every curve knot, a superset of the kinks; Gauss-5
    panels ``width`` wide, split at the brentq roots of the exact difference
    wherever it changes sign on a 9-point sample of a panel.
    """
    xi = traj.xi
    taus = np.concatenate((traj.time_panels(), xi.times))
    breaks = [xi(r) - np.concatenate((traj.inflow.labels(traj.rho0, xi, r), xi(taus[taus <= r])))
              for r in (s, t)]
    edges = _panels(1.0, np.concatenate(breaks), width)

    def d(x):
        return traj.slice_values(s, x) - traj.slice_values(t, x)

    theta = np.linspace(0.0, 1.0, 9)
    theta[[0, -1]] = 1e-9, 1.0 - 1e-9  # one-sided at the jumps
    xs = edges[:-1, None] + np.diff(edges)[:, None] * theta
    v = d(xs.ravel()).reshape(xs.shape)
    roots = [brentq(lambda x: d(x)[0], xs[i, j], xs[i, j + 1], xtol=1e-16)
             for i, j in zip(*np.nonzero(v[:, :-1] * v[:, 1:] < 0.0))]
    return _gauss5(np.unique(np.concatenate((edges, roots))), lambda x: np.abs(d(x))), len(roots)


@pytest.fixture(scope="module")
def slice_cases():
    """Flux mode, density mode and a tabulated law whose kinks W crosses at
    t = 0.24 and 1.11; "sign" is a flux-mode input on which rho(s, .) - rho(t, .)
    changes sign inside smooth stretches."""
    rho0 = DensityProfile([0.0, 0.3, 0.7, 1.0], [1.2, 0.4, 2.0])
    signal = ControlSignal(np.linspace(0.0, 2.0, 5), [0.8, 0.1, 1.5, 0.6])
    law = tabulated([0.0, 0.5, 1.0, 2.0, 4.0], [1.0, 0.8, 0.5, 0.35, 0.2])
    return {
        "flux": simulate(rho0, reciprocal(), 2.0, u=signal),
        "density": simulate(rho0, reciprocal(), 2.0, boundary_density=signal),
        "tabulated": simulate(DensityProfile([0.0, 0.5, 1.0], [0.4, 0.8]), law, 2.5,
                              u=ControlSignal(np.linspace(0.0, 2.5, 5), [0.2, 0.7, 0.4, 0.5])),
        "sign": simulate(
            DensityProfile([0.0, 0.45, 0.47, 1.0], [1.15, 0.86, 0.95]), reciprocal(), 3.0,
            u=ControlSignal([0.0, 0.51, 1.22, 1.56, 2.41, 2.45, 2.64, 2.83, 3.0],
                            [0.87, 0.43, 0.62, 0.68, 0.96, 1.07, 0.45, 0.53])),
    }


class TestSliceQuadrature:
    @pytest.mark.parametrize("case, s, t, roots", [
        ("flux", 0.3, 0.31, 0), ("flux", 1.2, 1.25, 0), ("flux", 1.9, 1.99, 0),
        ("flux", 0.5, 1.9, 0),
        ("density", 0.8, 1.1, 0), ("density", 1.5, 1.8, 0), ("density", 0.5, 1.9, 0),
        ("tabulated", 1.2, 1.25, 0), ("tabulated", 1.5, 1.8, 0), ("tabulated", 0.5, 1.9, 0),
        ("sign", 2.4, 2.41, 2), ("sign", 2.4, 2.5, 1), ("sign", 2.2, 2.21, 1),
    ])
    def test_l1_slice_distance_matches_brute_force(self, slice_cases, case, s, t, roots):
        # fixed 1e-3-wide panels, which missed the kinks, were up to 2.7e-7 off here
        traj = slice_cases[case]
        expected, found = l1_reference(traj, s, t)
        assert found == roots
        assert traj.l1_slice_distance(s, t) == pytest.approx(expected, rel=1e-12)
        assert traj.l1_slice_distance(t, s) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("t", [0.3, 1.2, 1.9])
    def test_slice_lp_norms_of_a_piecewise_constant_slice(self, slice_cases, t):
        # in density mode the slice is rho0 shifted by xi(t) ahead of the curve
        # and b(tau) on [xi(t) - xi(tau'), xi(t) - xi(tau)] for each cell
        # [tau, tau'] of b behind it
        traj = slice_cases["density"]
        xi_t, b, rho0 = traj.xi(t), traj.inflow.signal, traj.rho0
        tau = np.minimum(b.breakpoints, t)
        lo = np.concatenate((rho0.breakpoints[:-1] + xi_t, xi_t - traj.xi(tau[1:])))
        hi = np.concatenate((rho0.breakpoints[1:] + xi_t, xi_t - traj.xi(tau[:-1])))
        values = np.concatenate((rho0.values, b.values))
        length = np.clip(hi, 0.0, 1.0) - np.clip(lo, 0.0, 1.0)
        assert traj.slice_lp_norm(t, 1) == pytest.approx(np.sum(values * length), rel=1e-13)
        assert traj.slice_lp_norm(t, 2) == pytest.approx(
            np.sqrt(np.sum(values ** 2 * length)), rel=1e-13)

    @pytest.mark.parametrize("index", range(8))
    def test_slice_l1_norm_is_the_total_mass_on_smooth_inputs(self, index):
        # a guard on inputs whose slices are smooth between the breaks (at
        # most 1.6e-12 off); on the steep table the norm is up to 1e-6 off
        with pytest.MonkeyPatch.context() as mp:
            mp.syspath_prepend(str(PERFBENCH))
            import workloads
        inp = workloads.make_flux(1, index, None)
        traj = simulate(inp.rho0, workloads.LAW, workloads.FLUX_T, u=inp.u)
        for t in np.linspace(0.0, workloads.FLUX_T, 13):
            assert traj.slice_lp_norm(t, 1) == pytest.approx(traj.total_mass(t), rel=1e-10)

    @pytest.mark.parametrize("case", ["flux", "density", "tabulated", "sign"])
    def test_slice_panels_hold_every_jump_and_kink(self, slice_cases, case):
        traj = slice_cases[case]
        law, xi = traj.law, traj.xi
        kinks = law.kink_times(xi.times, traj.total_mass(xi.times)) if law.kinks.size else []
        tau = xi.with_exits(np.concatenate((traj.outflux_breaks(), kinks)))
        for times in [(0.0,), (0.45,), (1.3,), (traj.horizon,), (0.9, 1.7)]:
            edges = traj.slice_panels(*times)
            for t in times:
                z = np.concatenate((traj.inflow.labels(traj.rho0, xi, t), xi(tau[tau <= t])))
                x = xi(t) - z
                x = x[(x > 0.0) & (x < 1.0)]
                assert np.all(np.min(np.abs(edges[:, None] - x), axis=0) <= 1e-15)
            assert edges[0] == 0.0 and edges[-1] == 1.0
            assert np.all(np.diff(edges) > 0.0) and np.diff(edges).max() <= 1.0 / 32.0 + 1e-16
            assert traj.l1_slice_distance(times[0], times[0]) == 0.0


@pytest.fixture(scope="module")
def diagnostic():
    return simulate(DensityProfile([0.0, 0.5, 1.0], [1.0, 0.5]), reciprocal(), 2.0,
                    u=ControlSignal([0.0, 1.0, 2.0], [0.8, 0.2]))


class TestDiagnosticInputs:
    """Positions and panel widths of the diagnostics are checked, not clamped."""

    @pytest.mark.parametrize("x1, x2", [(2.0, 0.5), (-0.5, 0.5), (float("nan"), 0.5),
                                        (0.5, 1.5)])
    def test_l1_time_distance_rejects_positions_outside_the_segment(self, diagnostic, x1, x2):
        # (2, 0.5) read 1.5808 from clamped initial data; (-0.5, 0.5) and NaN
        # failed in the curve's inverse with its own range message
        with pytest.raises(ValueError, match=r"positions must lie in \[0, 1\]"):
            diagnostic.l1_time_distance(x1, x2)

    @pytest.mark.parametrize("max_width", [-1.0, 0.0, float("nan"), float("inf"), True])
    def test_max_width_must_be_positive_and_finite(self, diagnostic, max_width):
        # 0 overflowed and NaN failed to convert to an integer
        with pytest.raises(ValueError, match="max_width"):
            diagnostic.time_panels(max_width=max_width)

    def test_positions_at_the_ends_are_accepted(self, diagnostic):
        assert diagnostic.l1_time_distance(0.0, 1.0) == diagnostic.l1_time_distance(1.0, 0.0) > 0.0
        assert diagnostic.l1_time_distance(0.2, 0.9) == pytest.approx(1.4054, abs=1e-4)


def l1_time_reference(traj, x1, x2, width=2e-4):
    """Brute force for ``l1_time_distance``.

    Edges at every edge tau of ``time_panels`` and every curve knot, and
    wherever x1 or x2 meets a line x = xi(t) - z, z a rho0 jump -beta or
    xi(tau) for any of those tau: a superset of the jumps and kinks of both
    densities. Gauss-5 panels ``width`` T wide, split at the brentq roots of
    the difference wherever it changes sign on a 9-point sample of a panel.
    """
    xi, T = traj.xi, traj.horizon
    taus = np.concatenate((traj.time_panels(), xi.times))
    z = np.concatenate((-traj.rho0.breakpoints, xi(taus)))
    levels = np.concatenate((x1 + z, x2 + z))
    levels = levels[(levels > 0.0) & (levels < xi.x_end)]
    edges = _panels(T, np.concatenate((taus, xi.inverse(levels))), width * T)

    def d(t):
        rho = traj._density(xi(t)[None, :], np.array([[x1], [x2]]))[0]
        return rho[0] - rho[1]

    theta = np.linspace(0.0, 1.0, 9)
    theta[[0, -1]] = 1e-9, 1.0 - 1e-9  # one-sided at the jumps
    ts = edges[:-1, None] + np.diff(edges)[:, None] * theta
    v = d(ts.ravel()).reshape(ts.shape)
    roots = [brentq(lambda t: d(np.array([t]))[0], ts[i, j], ts[i, j + 1], xtol=1e-16)
             for i, j in zip(*np.nonzero(v[:, :-1] * v[:, 1:] < 0.0))]
    return _gauss5(np.unique(np.concatenate((edges, roots))), lambda t: np.abs(d(t)))


@pytest.fixture(scope="module")
def time_cases(slice_cases, diagnostic):
    """Flux mode, density mode, the tabulated law, the diagnostic-inputs
    trajectory and the first four seed-1 inputs of the benchmark's flux_sim
    workload."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import workloads
    cases = {name: slice_cases[name] for name in ("flux", "density", "tabulated")}
    cases["diagnostic"] = diagnostic
    for i in range(4):
        inp = workloads.make_flux(1, i, None)
        cases[f"flux_sim{i}"] = simulate(inp.rho0, workloads.LAW, workloads.FLUX_T, u=inp.u)
    return cases


class TestTimeQuadrature:
    @pytest.mark.parametrize("case", ["flux", "density", "tabulated", "diagnostic", "flux_sim0",
                                      "flux_sim1", "flux_sim2", "flux_sim3"])
    @pytest.mark.parametrize("x1, x2", [(0.2, 0.9), (0.5, 0.55), (0.0, 1.0)])
    def test_l1_time_distance_matches_brute_force(self, time_cases, case, x1, x2):
        # fixed panels 1e-3 T wide, with no edge where a jump passes x1 or x2,
        # were up to 1.6e-3 off here
        traj = time_cases[case]
        expected = l1_time_reference(traj, x1, x2)
        assert traj.l1_time_distance(x1, x2) == pytest.approx(expected, rel=1e-13)
        assert traj.l1_time_distance(x2, x1) == pytest.approx(expected, rel=1e-13)


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
        assert traj.tracking_error_sq(y_d) == pytest.approx(
            fine_tracking_error(traj, y_d), rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("case", ["steep", "tracking"])
    def test_tracking_error_matches_a_fine_reference(self, case):
        # panels T/512 wide were 1.0e-12 off on the steep table
        if case == "steep":
            law = tabulated([0.0, 2.3, 2.35, 20.0], [1.0, 0.9, 0.1, 0.05])
            traj = simulate(DensityProfile.constant(2.5), law, 1.1,
                            u=ControlSignal.constant(0.05, 1.1), tol=1e-11)
            y_d = ControlSignal([0.0, 0.5, 1.1], [0.05, 0.2])
        else:  # the benchmark's first seed-1 tracking problem at random controls
            with pytest.MonkeyPatch.context() as mp:
                mp.syspath_prepend(str(PERFBENCH))
                import workloads
            problem = workloads.make_tracking(1, 0, None)
            values = np.random.default_rng(0).uniform(0.0, 1.0, problem.control_grid.size - 1)
            traj = simulate(problem.rho0, problem.law, problem.horizon,
                            u=problem.control_from_values(values), tol=1e-8, knots_per_window=64)
            y_d = problem.y_d
        assert traj.tracking_error_sq(y_d) == pytest.approx(fine_tracking_error(traj, y_d),
                                                            rel=1e-13)


def fine_tracking_error(traj, y_d):
    """A reference for ``tracking_error_sq``: Gauss-5 on panels T/16384 wide,
    with an edge at every break, demand breakpoint, curve knot and its exits."""
    edges = traj.time_panels(extra=np.concatenate((
        y_d.breakpoints, traj.xi.with_exits(traj.xi.times))), max_width=traj.horizon / 16384)
    return _gauss5(edges, lambda t: (traj.outflux(t) - y_d(t)) ** 2)


class TestOneOutletRead:
    """``timeseries`` and ``w_derivative`` read W, u, y and the outflow off one
    ``_outlet`` call, which inverts the curve once per exited time."""

    @pytest.fixture(scope="class", params=["flux", "density"])
    def traj(self, request):
        # past the exit (at t = 2.06 and 1.62), with xi(T) < 2: no entry time is itself
        # behind the exit
        rho0 = DensityProfile([0.0, 0.3, 1.0], [0.6, 1.1])
        signal = ControlSignal([0.0, 0.7, 1.6, 3.0], [0.8, 0.4, 1.2])
        key = "u" if request.param == "flux" else "boundary_density"
        traj = simulate(rho0, tabulated([0.0, 1.0, 2.0, 4.0], [1.0, 0.5, 0.34, 0.2]), 3.0,
                        **{key: signal})
        assert 1.0 < traj.xi.x_end < 2.0
        return traj

    def test_timeseries_columns_are_the_observables_bit_for_bit(self, traj):
        y_d = ControlSignal([0.0, 1.0, 3.0], [0.2, 0.5])
        t, W, u, y, beta = traj.timeseries(301, y_d)
        assert t[0] < traj.exit_time < t[-1]
        assert np.array_equal(W, traj.total_mass(t))
        assert np.array_equal(u, traj.influx(t))
        assert np.array_equal(y, traj.outflux(t))
        assert np.array_equal(beta, y_d.cumulative(t) - traj.cumulative_outflux(t))
        assert np.array_equal(traj.w_derivative(t), traj.influx(t) - traj.outflux(t))
        assert traj.w_derivative(2.5) == traj.influx(2.5) - traj.outflux(2.5)

    def test_each_exited_time_is_inverted_once(self, traj, monkeypatch):
        # in flux mode the mass that left took a second inversion at the same
        # positions, for W and again for the outflow
        inverse, sizes = transport.CharacteristicCurve.inverse, []
        monkeypatch.setattr(transport.CharacteristicCurve, "inverse",
                            lambda self, x: sizes.append(np.size(x)) or inverse(self, x))
        t = np.linspace(0.0, 3.0, 301)
        exited = int(np.sum(traj.xi(t) >= 1.0))
        assert exited > 0
        traj.timeseries(301, ControlSignal([0.0, 1.0, 3.0], [0.2, 0.5]))
        assert sizes == [exited]
        sizes.clear()
        traj._outlet(t, traj.xi(t))
        assert sizes == [exited]
        sizes.clear()
        traj.w_derivative(t)
        assert sizes == [exited]


OBSERVABLES_OF_TIME = ("total_mass", "influx", "cumulative_influx", "outflux",
                       "cumulative_outflux", "w_derivative")


class TestObservablesOfTime:
    """The six observables of time share one evaluator: the times checked
    against [0, T], the curve evaluated once, a float for a scalar time."""

    @pytest.fixture(scope="class", params=[("flux", 1.0), ("flux", 3.0), ("density", 1.0),
                                           ("density", 3.0)], ids=lambda p: f"{p[0]}-T{p[1]}")
    def traj(self, request):
        # T = 1 ends before the exit, T = 3 after it (at t = 2.06 and 1.62)
        mode, T = request.param
        rho0 = DensityProfile([0.0, 0.3, 1.0], [0.6, 1.1])
        signal = ControlSignal([0.0, 0.7, 1.6, 3.0], [0.8, 0.4, 1.2])
        key = "u" if mode == "flux" else "boundary_density"
        traj = simulate(rho0, tabulated([0.0, 1.0, 2.0, 4.0], [1.0, 0.5, 0.34, 0.2]), T,
                        **{key: signal})
        assert (traj.exit_time is not None) == (T == 3.0)
        return traj

    @pytest.mark.parametrize("name", OBSERVABLES_OF_TIME)
    def test_a_scalar_time_gives_the_array_element_bit_for_bit(self, traj, name):
        observable = getattr(traj, name)
        t = np.linspace(0.0, traj.horizon, 13)
        if traj.exit_time is not None:
            t = np.append(t, traj.exit_time)
        at = observable(t)
        assert at.shape == t.shape
        for s, v in zip(t, at):
            one = observable(float(s))
            assert type(one) is float and np.float64(one).tobytes() == v.tobytes()

    @pytest.mark.parametrize("name", OBSERVABLES_OF_TIME)
    @pytest.mark.parametrize("t", [-0.1, 3.5, float("nan"), [0.5, 3.5]], ids=str)
    def test_a_time_outside_the_horizon_is_refused(self, traj, name, t):
        with pytest.raises(ValueError, match="times must lie in"):
            getattr(traj, name)(t)


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


def loop_panels(end, breaks, max_width):
    """Oracle: the per-piece linspace loop that ``_panels`` replaced."""
    breaks = breaks[(breaks > 0.0) & (breaks < end)]
    edges = np.unique(np.concatenate(([0.0, end], breaks)))
    pieces = [np.linspace(a, b, max(2, int(np.ceil((b - a) / max_width)) + 1))
              for a, b in zip(edges[:-1], edges[1:])]
    return np.unique(np.concatenate(pieces))


class TestPanels:
    @settings(max_examples=300, deadline=None)
    @given(end=st.floats(0.01, 10.0),
           fractions=st.lists(st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 1.0])),
                              max_size=12),
           repeats=st.integers(0, 4),
           width_fraction=st.floats(1e-3, 2.0))
    @example(end=3.0, fractions=[0.1, 0.1, 0.5, -0.2, 1.0, 1.3, 0.0], repeats=2,
             width_fraction=1.0 / 512.0)
    @example(end=1.0, fractions=[], repeats=0, width_fraction=2.0)
    def test_equals_the_per_piece_linspace(self, end, fractions, repeats, width_fraction):
        # breaks outside (0, end), on its ends and repeated are all allowed
        breaks = np.array(fractions, dtype=float) * end
        breaks = np.concatenate((breaks, breaks[:repeats]))
        max_width = width_fraction * end
        edges = _panels(end, breaks, max_width)
        assert np.array_equal(edges, loop_panels(end, breaks, max_width))
        assert edges[0] == 0.0 and edges[-1] == end
