"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each."""

import sys
import time

import numpy as np
import pytest

from reflow.characteristics import CharacteristicCurve, apply_F
from reflow.fv import fv_solve
from reflow.laws import reciprocal
from reflow.signals import ControlSignal, DensityProfile
from reflow.tracking import TrackingProblem, cost, minimize
from reflow.transfer import (TransferScenario, check_lower_bound,
                             minimal_time, transfer_diagnostics)
from reflow.transport import simulate

PAIRS = [(0.0, 1.0), (0.0, 2.0), (1.0, 2.0), (1.0, 3.0)]


def report(ok: bool, name: str, detail: str):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    print(line)


@pytest.fixture(scope="module")
def transfer_runs():
    """Boundary-density simulations for the four equilibrium pairs, timed."""
    runs = {}
    for lo, hi in PAIRS:
        T = 1.0 + 0.5 * (lo + hi)
        tic = time.perf_counter()
        traj = simulate(DensityProfile.constant(lo), reciprocal(), T + 0.1,
                        boundary_density=ControlSignal.constant(hi, T + 0.1))
        runs[(lo, hi)] = (traj, T, time.perf_counter() - tic)
    return runs


def test_criterion_1_minimal_time_formula(transfer_runs):
    worst_dt, worst_w, worst_rt = 0.0, 0.0, 0.0
    for (lo, hi), (traj, T, runtime) in transfer_runs.items():
        t_hit = float(traj.xi.inverse(1.0))
        worst_dt = max(worst_dt, abs(t_hit - T))
        worst_w = max(worst_w, abs(traj.total_mass(t_hit) - hi))
        worst_rt = max(worst_rt, runtime)
    ok = worst_dt <= 1e-6 and worst_w <= 1e-6 and worst_rt < 1.0
    report(ok, "criterion 1 (minimal-time formula)",
           f"max |dT|={worst_dt:.2e}, max |W(T)-rho1|={worst_w:.2e}, "
           f"max runtime={worst_rt:.2f}s over {len(PAIRS)} pairs")
    assert ok


def test_criterion_2_closed_form_mass_agreement(transfer_runs):
    worst = 0.0
    for (lo, hi), (traj, T, _) in transfer_runs.items():
        t = np.linspace(0.0, T, 1000)
        exact = -1.0 + np.sqrt((1.0 + lo) ** 2 + 2.0 * t * (hi - lo))
        worst = max(worst, float(np.max(np.abs(traj.total_mass(t) - exact))))
    ok = worst <= 1e-8
    report(ok, "criterion 2 (closed-form W agreement)",
           f"max error {worst:.2e} at 1000 sample times per pair (tol 1e-8)")
    assert worst <= 1e-8


def test_criterion_3_transfer_diagnostics():
    worst_q, worst_id = 0.0, 0.0
    for lo, hi in [(1.0, 2.0), (1.0, 3.0), (0.0, 2.0)]:
        sc = TransferScenario(lo, hi)
        d = transfer_diagnostics(sc)
        T = minimal_time(sc)
        traj = simulate(DensityProfile.constant(lo), reciprocal(), T,
                        boundary_density=ControlSignal.constant(hi, T))
        edges = traj.time_panels(max_width=T / 8192.0)
        h = np.diff(edges)
        lam = traj.law(traj.total_mass(0.5 * (edges[:-1] + edges[1:])))
        beta_q = float(np.sum(h * (lo / (1.0 + lo) - lo * lam)))
        alpha_q = float(np.sum(h * (hi * lam - hi / (1.0 + hi))))
        worst_q = max(worst_q, abs(d["beta"] - beta_q), abs(d["alpha"] - alpha_q))
        worst_id = max(worst_id, d["mass_balance_residual"])
    ok = worst_q <= 1e-6 and worst_id <= 1e-10
    report(ok, "criterion 3 (transfer diagnostics)",
           f"max |closed form - quadrature|={worst_q:.2e} (tol 1e-6), "
           f"identity residual={worst_id:.2e} (tol 1e-10)")
    assert ok


def quadratic_spline_curve(rng, delta, lam_lo, lam_hi, n_knots=7):
    ts = np.linspace(0.0, delta, n_knots)
    ss = rng.uniform(lam_lo, lam_hi, n_knots)
    xs = np.concatenate(([0.0], np.cumsum(0.5 * (ss[:-1] + ss[1:]) * np.diff(ts))))
    return CharacteristicCurve(ts, xs, ss)


def test_criterion_4_contraction_property():
    rng = np.random.default_rng(101)
    law = reciprocal()
    u = ControlSignal(np.array([0.0, 0.4, 1.0]), np.array([0.8, 0.3]))
    rho0 = DensityProfile(np.array([0.0, 0.6, 1.0]), np.array([1.2, 0.2]))
    lam_lo, lam_hi, d = law.bounds(u.total_mass + rho0.total_mass)
    delta = 0.3
    assert rho0.integrate(1.0 - lam_hi * delta, 1.0) < 0.5 * lam_lo / d
    t = np.linspace(0.0, delta, 600)
    worst, violations = 0.0, 0
    for _ in range(100):
        xi1 = quadratic_spline_curve(rng, delta, lam_lo, lam_hi)
        xi2 = quadratic_spline_curve(rng, delta, lam_lo, lam_hi)
        gap = float(np.max(np.abs(xi1(t) - xi2(t))))
        f1 = apply_F(xi1, u, rho0, law, (0.0, delta))
        f2 = apply_F(xi2, u, rho0, law, (0.0, delta))
        mapped = float(np.max(np.abs(f1(t) - f2(t))))
        worst = max(worst, mapped / gap)
        if mapped > 0.5 * gap + 1e-12:
            violations += 1
    ok = violations == 0
    report(ok, "criterion 4 (contraction property)",
           f"100 random curve pairs, worst ratio {worst:.4f} <= 0.5, "
           f"{violations} violations")
    assert ok


@pytest.fixture(scope="module")
def randomized_scenarios():
    rng = np.random.default_rng(55)
    out = []
    for _ in range(50):
        n_u = int(rng.integers(1, 7))
        bp_u = np.unique(np.concatenate(([0.0], np.sort(rng.uniform(0.1, 1.5, n_u)),
                                         [1.5])))
        u = ControlSignal(bp_u, rng.uniform(0.0, 2.0, bp_u.size - 1))
        n_r = int(rng.integers(1, 7))
        bp_r = np.unique(np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, n_r)),
                                         [1.0])))
        rho0 = DensityProfile(bp_r, rng.uniform(0.0, 3.0, bp_r.size - 1))
        M = u.total_mass + rho0.total_mass
        if M > 10.0:
            u = ControlSignal(u.breakpoints, u.values * 10.0 / M)
            rho0 = DensityProfile(rho0.breakpoints, rho0.values * 10.0 / M)
        out.append(simulate(rho0, reciprocal(), 1.5, u=u))
    return out


def test_criterion_5_mass_balance_general_data(randomized_scenarios):
    worst = 0.0
    for traj in randomized_scenarios:
        t = np.linspace(0.0, 1.5, 100)
        resid = np.abs(traj.total_mass(t) - traj.total_mass(0.0)
                       - traj.cumulative_influx(t) + traj.cumulative_outflux(t))
        M = traj.rho0.total_mass + traj.cumulative_influx(1.5)
        worst = max(worst, float(np.max(resid)) / (1.0 + M))
    ok = worst <= 1e-8
    report(ok, "criterion 5 (mass balance, general data)",
           f"50 scenarios x 100 times, max |residual|/(1+M) = {worst:.2e} (tol 1e-8)")
    assert ok


def test_criterion_6_slope_sandwich_and_nonnegativity(randomized_scenarios):
    law = reciprocal()
    worst_slope, worst_rho, worst_tv = 0.0, 0.0, -np.inf
    for traj in randomized_scenarios:
        M = traj.rho0.total_mass + traj.cumulative_influx(1.5)
        lam_lo, lam_hi, _ = law.bounds(M)
        t = np.unique(np.concatenate((traj.xi.times, np.linspace(0.0, 1.5, 200))))
        slopes = traj.xi.slope(t)
        worst_slope = max(worst_slope,
                          float(np.max(lam_lo - slopes)),
                          float(np.max(slopes - lam_hi)))
        for tt in np.linspace(0.0, 1.5, 8):
            vals = traj.slice_values(tt, np.linspace(0.0, 1.0, 100))
            worst_rho = max(worst_rho, float(np.max(-vals)))
        edges = traj.time_panels(max_width=1.5 / 4096.0)
        mids = 0.5 * (edges[:-1] + edges[1:])
        tv = float(np.sum(np.diff(edges) * np.abs(traj.w_derivative(mids))))
        worst_tv = max(worst_tv, tv - M)
    ok = worst_slope <= 1e-12 and worst_rho <= 0.0 and worst_tv <= 1e-8
    report(ok, "criterion 6 (slope sandwich, nonnegativity)",
           f"max slope excursion {worst_slope:.1e}, min density {-worst_rho:.1e}, "
           f"max int|W'| - M = {worst_tv:.2e}")
    assert ok


def test_criterion_7_finite_volume_oracle_equivalence():
    rng = np.random.default_rng(77)
    law = reciprocal()
    grids = (1000, 2000, 4000)
    tic = time.perf_counter()
    all_ratios, worst_fine = [], 0.0
    for _ in range(10):
        a = rng.uniform(0.5, 1.5)
        amp = rng.uniform(0.1, 0.4) * a
        phase = rng.uniform(0.0, 2 * np.pi)
        rho0 = DensityProfile.from_function(
            lambda x: a + amp * np.sin(2 * np.pi * x + phase), 4096)
        W0 = rho0.total_mass
        # influx compatible with the initial profile at the inflow corner,
        # so the exact solution stays Lipschitz and upwind converges at
        # first order
        r_edge = a + amp * np.sin(phase)
        lam0 = float(law(W0))
        ua = rng.uniform(0.1, 0.4) * r_edge
        om = rng.uniform(1.0, 3.0)
        T = 1.2
        u = ControlSignal.from_function(
            lambda t: lam0 * (r_edge + ua * np.sin(om * t)), T, 4096)
        traj = simulate(rho0, law, T, u=u)
        errs = []
        for n in grids:
            state, _, _ = fv_solve(rho0, law, u, T, n_cells=n)
            # exact cell averages, as crosscheck takes them: the mass past x at
            # time T is the outflow with the curve at xi(T) + 1 - x
            edges = np.linspace(0.0, 1.0, n + 1)
            tail = traj.inflow.outflow(rho0, traj.xi(T) + 1.0 - edges, traj.boundary_mass)
            errs.append(float(np.abs(state.cells + n * np.diff(tail)).mean()))
        all_ratios += [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        worst_fine = max(worst_fine, errs[-1])
    elapsed = time.perf_counter() - tic
    ok = (all(1.6 <= r <= 2.4 for r in all_ratios)
          and worst_fine <= 5e-3 and elapsed < 30.0)
    report(ok, "criterion 7 (finite-volume oracle)",
           f"10 smooth scenarios, refinement ratios in "
           f"[{min(all_ratios):.2f}, {max(all_ratios):.2f}] (need [1.6, 2.4]), "
           f"max L1 error at 4000 cells {worst_fine:.2e} (tol 5e-3), "
           f"{elapsed:.1f}s (< 30s)")
    assert ok


def test_criterion_8_optimizer_sanity():
    law = reciprocal()
    scenarios = []
    for c, level, T in [(0.0, 0.4, 1.0), (0.5, 0.2, 1.0), (1.0, 0.6, 1.0),
                        (0.8, 0.0, 1.0), (0.3, 0.5, 1.2)]:
        rho0 = DensityProfile.constant(c)
        y_d = ControlSignal.constant(level, T)
        scenarios.append((rho0, y_d, T))
    opts = dict(max_iters=12, grad_tol=1e-5)
    worst_mono, worst_cap, worst_refine = 0.0, -np.inf, -np.inf
    for rho0, y_d, T in scenarios:
        coarse = TrackingProblem(rho0, y_d, law, T, np.linspace(0.0, T, 5),
                                 solver_tol=1e-8, knots_per_window=64)
        # known feasible candidate: the equilibrium-matched constant control
        c = rho0.total_mass
        known = ControlSignal.constant(c * float(law(c)), T)
        rep = minimize(coarse, warm_starts=(known,), **opts)
        for hist in rep.cost_history:
            worst_mono = max(worst_mono,
                             max((b - a for a, b in zip(hist, hist[1:])),
                                 default=0.0))
        cap = min(cost(coarse, ControlSignal.constant(0.0, T)),
                  cost(coarse, known))
        worst_cap = max(worst_cap, rep.best_cost - cap)
        refined = TrackingProblem(rho0, y_d, law, T, np.linspace(0.0, T, 9),
                                  solver_tol=1e-8, knots_per_window=64)
        rep2 = minimize(refined, warm_starts=(known, rep.best_control), **opts)
        worst_refine = max(worst_refine, rep2.best_cost - rep.best_cost)
    ok = worst_mono <= 1e-12 and worst_cap <= 1e-12 and worst_refine <= 1e-6
    report(ok, "criterion 8 (optimizer sanity)",
           f"5 scenarios: max in-restart increase {worst_mono:.1e}, "
           f"best-vs-comparators gap {worst_cap:.1e} (<= 0), "
           f"grid-refinement degradation {worst_refine:.2e} (tol 1e-6)")
    assert ok


def test_criterion_9_lower_bound_certificate():
    law = reciprocal()
    # candidate optimal controls: zero slack
    worst_slack0 = 0.0
    for lo, hi in [(1.0, 2.0), (0.0, 2.0), (0.5, 1.5)]:
        T = 1.0 + 0.5 * (lo + hi)
        cert = check_lower_bound(None, lo, hi, T,
                                 boundary_density=ControlSignal.constant(hi, T))
        worst_slack0 = max(worst_slack0, abs(cert.slack))
    # randomized delayed/perturbed admissible controls: nonnegative slack
    rng = np.random.default_rng(91)
    lo, hi = 0.5, 1.5
    min_slack = np.inf
    for _ in range(20):
        tau = float(rng.uniform(0.05, 0.6))
        knee = float(rng.uniform(0.2, 0.8)) * tau
        lead = rng.uniform(0.0, 0.9 * hi, 2)
        b_probe = ControlSignal(np.array([0.0, knee, tau, 6.0]),
                                np.array([lead[0], lead[1], hi]))
        probe = simulate(DensityProfile.constant(lo), law, 6.0,
                         boundary_density=b_probe)
        T = float(probe.xi.inverse(1.0 + probe.xi(tau)))
        b = ControlSignal(np.array([0.0, knee, tau, T]),
                          np.array([lead[0], lead[1], hi]))
        cert = check_lower_bound(None, lo, hi, T, boundary_density=b)
        min_slack = min(min_slack, cert.slack)
        assert cert.satisfied
    ok = worst_slack0 <= 1e-6 and min_slack >= 0.0
    report(ok, "criterion 9 (lower-bound certificate)",
           f"candidate slack |{worst_slack0:.2e}| (tol 1e-6); 20 randomized "
           f"admissible controls, min slack {min_slack:.3f} >= 0")
    assert ok


def test_criterion_10_l1_time_continuity(transfer_runs, randomized_scenarios):
    hs = [1e-2, 5e-3, 2.5e-3]
    trajs = [run[0] for run in transfer_runs.values()] + randomized_scenarios[:4]
    ok = True
    worst_pair = (np.inf, np.inf)
    for traj in trajs:
        T = traj.horizon
        for t in (0.2 * T, 0.5 * T, 0.8 * T):
            eps = [traj.l1_slice_distance(t, t + h) for h in hs]
            if not (eps[1] <= eps[0] and eps[2] <= eps[1]):
                ok = False
            worst_pair = min(worst_pair, (eps[0] - eps[1], eps[1] - eps[2]))
    report(ok, "criterion 10 (L1-in-time continuity)",
           f"{len(trajs)} scenarios x 3 times: eps(h) halving-monotone over "
           f"h in {{1e-2, 5e-3, 2.5e-3}}")
    assert ok
