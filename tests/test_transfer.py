"""Equilibrium transfer: closed forms, diagnostics, minimal-time certificate."""

from decimal import Decimal, localcontext

import numpy as np
import pytest

from reflow import transfer
from reflow.laws import reciprocal
from reflow.signals import ControlSignal, DensityProfile
from reflow.transfer import (TransferScenario, certify_trajectory,
                             check_lower_bound, closed_form_trajectory,
                             minimal_time, transfer_diagnostics)
from reflow.transport import simulate


class TestScenario:
    def test_minimal_time_substitutions(self):
        assert minimal_time(TransferScenario(0.0, 2.0)) == 2.0
        assert minimal_time(TransferScenario(0.0, 1.0)) == 1.5
        assert minimal_time(TransferScenario(1.0, 1.0)) == 2.0

    def test_rejects_decreasing_or_negative_pairs(self):
        with pytest.raises(ValueError):
            TransferScenario(2.0, 1.0)
        with pytest.raises(ValueError):
            TransferScenario(-0.5, 1.0)

    # TransferScenario(True, 2.0) stored rho_lo=True, which the CLI rejects
    @pytest.mark.parametrize("lo, hi", [(True, 2.0), (1.0, float("nan")),
                                        (float("nan"), 2.0), (1.0, float("inf"))])
    def test_rejects_a_pair_that_is_not_finite_and_nonnegative(self, lo, hi):
        with pytest.raises(ValueError, match="rho_(lo|hi) must be"):
            TransferScenario(lo, hi)


class TestClosedForms:
    def test_mass_curve_substitution(self):
        cf = closed_form_trajectory(TransferScenario(1.0, 3.0))
        t = np.linspace(0.0, cf.T, 200)
        assert np.max(np.abs(cf.W(t) - (-1.0 + 2.0 * np.sqrt(1.0 + t)))) <= 1e-12
        assert cf.T == 3.0
        assert cf.W(3.0) == pytest.approx(3.0, abs=1e-12)

    def test_characteristic_substitution(self):
        cf = closed_form_trajectory(TransferScenario(0.0, 2.0))
        t = np.linspace(0.0, 2.0, 200)
        assert np.max(np.abs(cf.xi(t) - 0.5 * (np.sqrt(1.0 + 4.0 * t) - 1.0))) <= 1e-12

    def test_endpoint_identities(self):
        for lo, hi in [(0.0, 1.0), (0.5, 2.0), (1.0, 3.0)]:
            cf = closed_form_trajectory(TransferScenario(lo, hi))
            assert cf.xi(cf.T) == pytest.approx(1.0, abs=1e-12)
            assert cf.W(cf.T) == pytest.approx(hi, abs=1e-12)
            assert cf.W(0.0) == pytest.approx(lo, abs=1e-12)

    def test_influx_jump_exceeds_outflux_jump(self):
        for lo, hi in [(0.0, 2.0), (1.0, 2.0), (0.3, 4.0)]:
            cf = closed_form_trajectory(TransferScenario(lo, hi))
            u_jump = cf.u(0.0) - lo / (1.0 + lo)
            y_jump = hi / (1.0 + hi) - cf.y(cf.T)
            assert u_jump == pytest.approx((hi - lo) / (1.0 + lo), abs=1e-12)
            assert y_jump == pytest.approx((hi - lo) / (1.0 + hi), abs=1e-12)
            assert u_jump >= y_jump

    def test_degenerate_pair_returns_equilibrium_constants(self):
        cf = closed_form_trajectory(TransferScenario(1.0, 1.0))
        assert cf.W(0.7) == 1.0
        assert cf.u(0.3) == cf.y(0.9) == 0.5

    def test_nearby_equilibria_keep_their_digits(self):
        # (sqrt(a² + 2dt) − a)/d cancelled: xi(0.7) was off by 3.0e-4 relative
        sc = TransferScenario(0.5, 0.5 + 1e-12)
        cf, back = closed_form_trajectory(sc), closed_form_trajectory(sc, reverse=True)
        with localcontext() as ctx:
            ctx.prec = 60
            lo, d = Decimal(sc.rho_lo), Decimal(sc.rho_hi) - Decimal(sc.rho_lo)
            for t in (0.1, 0.7, cf.T):
                s = Decimal(t)
                xi = 2 * s / (((1 + lo) ** 2 + 2 * d * s).sqrt() + 1 + lo)
                assert abs(Decimal(float(cf.xi(t))) - xi) <= Decimal(1e-15) * xi
                assert abs(Decimal(float(cf.W(t))) - (lo + d * xi)) <= Decimal(1e-15) * lo
                assert abs(float(back.xi(cf.T - t)) - float(1 - xi)) <= 1e-15

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (1.0, 2.0), (0.5, 1.5), (0.0, 2.0),
                                        (0.5, 0.5 + 1e-12)])
    def test_draining_is_the_filling_transfer_mirrored(self, lo, hi):
        # (t, x) -> (T - t, 1 - x) swaps the boundaries: draining u is filling y
        sc = TransferScenario(lo, hi)
        fill, drain = closed_form_trajectory(sc), closed_form_trajectory(sc, reverse=True)
        t = np.linspace(0.0, fill.T, 201)
        back = fill.T - t
        assert drain.T == fill.T
        assert np.array_equal(drain.W(t), fill.W(back))
        assert np.array_equal(drain.xi(t), 1.0 - fill.xi(back))
        assert np.array_equal(drain.u(t), fill.y(back))
        assert np.array_equal(drain.y(t), fill.u(back))

    def test_monotone_mass_and_decreasing_speed(self):
        cf = closed_form_trajectory(TransferScenario(0.5, 2.5))
        t = np.linspace(0.0, cf.T, 400)
        assert np.all(np.diff(cf.W(t)) > 0)
        assert np.all(np.diff(np.diff(cf.xi(t))) < 1e-12)

    def test_agrees_with_simulation(self):
        for lo, hi in [(0.0, 1.0), (1.0, 2.0)]:
            sc = TransferScenario(lo, hi)
            cf = closed_form_trajectory(sc)
            b = ControlSignal.constant(hi, cf.T)
            traj = simulate(DensityProfile.constant(lo), reciprocal(), cf.T,
                            boundary_density=b)
            t = np.linspace(0.0, cf.T, 400)
            assert np.max(np.abs(traj.total_mass(t) - cf.W(t))) <= 1e-8
            assert np.max(np.abs(traj.xi(t) - cf.xi(t))) <= 1e-8

    def test_reversed_direction_agrees_with_draining_simulation(self):
        sc = TransferScenario(0.5, 2.0)
        cf = closed_form_trajectory(sc, reverse=True)
        b = ControlSignal.constant(0.5, cf.T)
        traj = simulate(DensityProfile.constant(2.0), reciprocal(), cf.T,
                        boundary_density=b)
        t = np.linspace(0.0, cf.T, 400)
        assert np.max(np.abs(traj.total_mass(t) - cf.W(t))) <= 1e-8
        assert np.max(np.abs(traj.xi(t) - cf.xi(t))) <= 1e-8


class TestDiagnostics:
    def test_identity_residual_is_zero(self):
        for lo, hi in [(1.0, 2.0), (1.0, 3.0), (0.0, 2.0)]:
            d = transfer_diagnostics(TransferScenario(lo, hi))
            assert d["mass_balance_residual"] <= 1e-12

    def test_empty_start_has_no_backlog(self):
        assert transfer_diagnostics(TransferScenario(0.0, 2.0))["beta"] == 0.0

    def test_values_match_trace_quadrature(self):
        lo, hi = 1.0, 2.0
        d = transfer_diagnostics(TransferScenario(lo, hi))
        T = minimal_time(TransferScenario(lo, hi))
        b = ControlSignal.constant(hi, T)
        traj = simulate(DensityProfile.constant(lo), reciprocal(), T,
                        boundary_density=b)
        edges = traj.time_panels(max_width=T / 8192.0)
        h = np.diff(edges)
        mids = 0.5 * (edges[:-1] + edges[1:])
        lam = traj.law(traj.total_mass(mids))
        beta_q = float(np.sum(h * (lo / (1.0 + lo) - lo * lam)))
        alpha_q = float(np.sum(h * (hi * lam - hi / (1.0 + hi))))
        assert d["beta"] == pytest.approx(beta_q, abs=1e-6)
        assert d["alpha"] == pytest.approx(alpha_q, abs=1e-6)

    def test_rejects_degenerate_pair(self):
        with pytest.raises(ValueError):
            transfer_diagnostics(TransferScenario(1.0, 1.0))


class TestCertificate:
    def test_candidate_optimal_control_has_zero_slack(self):
        lo, hi = 1.0, 2.0
        T = minimal_time(TransferScenario(lo, hi))
        cert = check_lower_bound(None, lo, hi, T,
                                 boundary_density=ControlSignal.constant(hi, T))
        assert cert.t0 == 0.0
        assert cert.slack == pytest.approx(0.0, abs=1e-6)
        assert cert.satisfied

    def test_delayed_step_pays_for_the_delay(self):
        lo, hi, tau = 1.0, 2.0, 0.4
        law = reciprocal()
        b_long = ControlSignal(np.array([0.0, tau, 6.0]), np.array([lo, hi]))
        probe = simulate(DensityProfile.constant(lo), law, 6.0,
                         boundary_density=b_long)
        T = float(probe.xi.inverse(1.0 + probe.xi(tau)))
        b = ControlSignal(np.array([0.0, tau, T]), np.array([lo, hi]))
        cert = check_lower_bound(None, lo, hi, T, boundary_density=b)
        # holding the old equilibrium for tau advances xi by tau/(1+lo)
        assert cert.t0 == pytest.approx(tau, abs=1e-3)
        assert cert.bound_value == pytest.approx(
            1.0 + 0.5 * (lo + hi) + tau / (1.0 + lo), abs=1e-3)
        assert cert.slack >= 0.0
        assert cert.satisfied

    def test_rejects_trajectory_that_misses_target(self):
        lo, hi = 1.0, 2.0
        with pytest.raises(ValueError, match="does not reach"):
            check_lower_bound(None, lo, hi, 1.0,
                              boundary_density=ControlSignal.constant(hi, 1.0))

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    def test_rejects_tol_that_is_not_finite_and_nonnegative(self, tol):
        # a NaN or negative tol used to certify nothing: satisfied false, slack 0
        lo, hi = 1.0, 2.0
        T = minimal_time(TransferScenario(lo, hi))
        b = ControlSignal.constant(hi, T)
        with pytest.raises(ValueError, match="tol"):
            check_lower_bound(None, lo, hi, T, boundary_density=b, tol=tol)
        traj = simulate(DensityProfile.constant(lo), reciprocal(), T, boundary_density=b)
        with pytest.raises(ValueError, match="tol"):
            certify_trajectory(traj, lo, hi, tol=tol)

    def test_rejects_equal_equilibria(self):
        traj = simulate(DensityProfile.constant(1.0), reciprocal(), 1.0,
                        u=ControlSignal.constant(0.5, 1.0))
        with pytest.raises(ValueError, match="equal"):
            certify_trajectory(traj, 1.0, 1.0)

    @pytest.mark.parametrize("lo, hi", [(1.0, float("nan")), (float("nan"), 2.0),
                                        (-1.0, 2.0), (1.0, float("inf"))])
    def test_rejects_equilibria_that_are_not_finite_and_nonnegative(self, lo, hi):
        # a NaN pair used to give slack nan and satisfied False without an error
        traj = simulate(DensityProfile.constant(1.0), reciprocal(), 2.5,
                        boundary_density=ControlSignal.constant(2.0, 2.5))
        with pytest.raises(ValueError, match="rho_(lo|hi) must be finite and nonnegative"):
            certify_trajectory(traj, lo, hi)

    def test_pair_is_checked_before_the_solve(self, monkeypatch):
        # a decreasing pair used to be rejected only after the whole solve
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking the pair")

        monkeypatch.setattr(transfer, "simulate", no_solve)
        b = ControlSignal.constant(2.0, 2.5)
        with pytest.raises(ValueError, match="rho_hi > rho_lo"):
            check_lower_bound(None, 2.0, 1.0, 2.5, boundary_density=b)
        with pytest.raises(ValueError, match="rho_hi must be finite"):
            check_lower_bound(None, 1.0, float("nan"), 2.5, boundary_density=b)

    def test_late_onset_takes_the_second_bound(self):
        # b = 0.5 until t = 2 > t1: the t = 0 characteristic has left before the
        # final stretch starts, so the bound is 2 + (lo + hi) / 2
        lo, hi, tau = 1.0, 2.0, 2.0
        probe = simulate(DensityProfile.constant(lo), reciprocal(), 10.0,
                         boundary_density=ControlSignal([0.0, tau, 10.0], [0.5, hi]))
        T = float(probe.xi.inverse(1.0 + probe.xi(tau))) + 0.01
        cert = check_lower_bound(None, lo, hi, T,
                                 boundary_density=ControlSignal([0.0, tau, T], [0.5, hi]))
        assert cert.t0 == tau
        assert cert.t1 == pytest.approx(1.75, abs=1e-9)
        assert cert.t0 >= cert.t1
        assert cert.bound_value == 3.5
        assert cert.slack == pytest.approx(T - 3.5)
        assert cert.slack == pytest.approx(0.76, abs=0.01)
        assert cert.satisfied

    @staticmethod
    def _settled(lo, hi, knee, tau, lead):
        """b = lead[0] on [0, knee), lead[1] on [knee, tau), then hi, up to the
        time the tau characteristic leaves: the trajectory then ends at rho_hi."""
        probe = simulate(DensityProfile.constant(lo), reciprocal(), 6.0,
                         boundary_density=ControlSignal([0.0, knee, tau, 6.0], [*lead, hi]))
        T = float(probe.xi.inverse(1.0 + probe.xi(tau)))
        return ControlSignal([0.0, knee, tau, T], [*lead, hi])

    @staticmethod
    def _onset(b, hi, T):
        """t0 read off b's cells: the end, capped at T, of the last cell in
        [0, T) more than 1e-6 from hi; 0 if no cell is."""
        ends = [min(right, T) for left, right, v in
                zip(b.breakpoints[:-1], b.breakpoints[1:], b.values)
                if left < T and abs(v - hi) > 1e-6]
        return float(ends[-1]) if ends else 0.0

    def test_onset_is_read_off_the_boundary_cells(self):
        # the three candidate transfers, then 30 with two lead cells
        cases = [(lo, hi, ControlSignal.constant(hi, minimal_time(TransferScenario(lo, hi))))
                 for lo, hi in [(1.0, 2.0), (0.0, 2.0), (0.5, 1.5)]]
        rng = np.random.default_rng(27)
        for _ in range(30):
            tau = float(rng.uniform(0.05, 0.6))
            knee = float(rng.uniform(0.2, 0.8)) * tau
            cases.append((0.5, 1.5, self._settled(0.5, 1.5, knee, tau,
                                                   rng.uniform(0.0, 0.9 * 1.5, 2))))
        for lo, hi, b in cases:
            cert = check_lower_bound(None, lo, hi, b.horizon, boundary_density=b)
            assert cert.t0 == self._onset(b, hi, b.horizon)

    def test_a_gap_of_5e_4_to_rho_hi_still_delays_the_onset(self):
        # b settles within 1e-3 of rho_hi at the knee but reaches it only at
        # tau: the final stretch starts at tau
        lo, hi, knee, tau = 0.5, 1.5, 0.2, 0.4
        b = self._settled(lo, hi, knee, tau, (0.3, hi + 5e-4))
        cert = check_lower_bound(None, lo, hi, b.horizon, boundary_density=b)
        assert cert.t0 == tau

    def test_no_random_admissible_control_beats_the_bound(self):
        rng = np.random.default_rng(21)
        lo, hi = 0.5, 1.5
        law = reciprocal()
        t_min = minimal_time(TransferScenario(lo, hi))
        for _ in range(10):
            tau = rng.uniform(0.0, 0.5)
            lead = rng.uniform(0.0, hi)
            b_long = ControlSignal(np.array([0.0, tau, 8.0]),
                                   np.array([lead, hi]))
            probe = simulate(DensityProfile.constant(lo), law, 8.0,
                             boundary_density=b_long)
            T = float(probe.xi.inverse(1.0 + probe.xi(tau)))
            assert T >= t_min - 1e-3
