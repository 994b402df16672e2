"""The four benchmark workloads: seeded inputs, one user-facing op, a gate.

Each op calls reflow through module attributes (``transport.simulate``, ...)
looked up at call time, so the tracer's wrappers see every layer crossing.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from click.testing import CliRunner

import reflow.cli as cli
import reflow.tracking as tracking
import reflow.transfer as transfer
import reflow.transport as transport
from reflow.laws import reciprocal
from reflow.signals import ControlSignal, DensityProfile

from gates import crosscheck_gate, flux_gate, tracking_gate, transfer_gate

LAW = reciprocal()


@dataclass(frozen=True)
class Workload:
    name: str
    pool: int       # distinct inputs generated per run; ops cycle through them
    count_ops: int  # leading ops over which work counts are reported
    make: Callable  # (seed, input index, slot path) -> input
    op: Callable    # (input, tracer or None) -> result
    check: Callable  # (input, result) -> list of violations


# -- flux_sim ------------------------------------------------------------------

FLUX_T = 3.0
# Total input mass, fixed because the window count grows with it; with cell
# values kept within a factor 3 the solve cost varies about 16% between
# inputs, so a run's mean over ~100 inputs hardly depends on the seed.
FLUX_MASS = 3.0
HALVING = (1e-2, 5e-3, 2.5e-3)
X_FINAL = np.linspace(0.0, 1.0, 1024)


@dataclass(frozen=True)
class FluxInput:
    rho0: DensityProfile
    u: ControlSignal
    y_d: ControlSignal


def make_flux(seed, index, slot):
    rng = np.random.default_rng([seed, index])
    T = FLUX_T
    bp_u = np.concatenate(([0.0], np.sort(rng.uniform(0.05 * T, 0.95 * T, 7)), [T]))
    u_vals = rng.uniform(0.5, 1.5, 8)
    bp_r = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, 2)), [1.0]))
    r_vals = rng.uniform(0.5, 1.5, 3)
    scale = FLUX_MASS / (np.dot(u_vals, np.diff(bp_u)) + np.dot(r_vals, np.diff(bp_r)))
    return FluxInput(
        rho0=DensityProfile(bp_r, r_vals * scale),
        u=ControlSignal(bp_u, u_vals * scale),
        y_d=ControlSignal(np.linspace(0.0, T, 5), rng.uniform(0.0, 1.0, 4)),
    )


def op_flux(inp: FluxInput, tracer):
    """simulate, then the analysis a user runs on the trajectory."""
    T = FLUX_T
    traj = transport.simulate(inp.rho0, LAW, T, u=inp.u)
    t, W, _, _, beta = traj.timeseries(4096, inp.y_d)
    final = traj.slice_values(T, X_FINAL)
    err = traj.tracking_error_sq(inp.y_d)
    edges = traj.time_panels(max_width=T / 4096.0)
    wdot = traj.w_derivative(0.5 * (edges[:-1] + edges[1:]))
    tv = float(np.sum(np.diff(edges) * np.abs(wdot)))
    eps = [[traj.l1_slice_distance(s, s + h) for h in HALVING]
           for s in (0.2 * T, 0.5 * T, 0.8 * T)]
    return dict(traj=traj, t=t, W=W, beta=beta, final=final, err=err, tv=tv, eps=eps)


def check_flux(inp: FluxInput, res) -> list[str]:
    T = FLUX_T
    traj, t = res["traj"], res["t"]
    M = inp.u.integrate(0.0, T) + inp.rho0.total_mass
    outflow = inp.y_d.cumulative(t) - res["beta"]
    resid = res["W"] - inp.rho0.total_mass - inp.u.cumulative(t) + outflow
    lam_lo, lam_hi, _ = LAW.bounds(M)
    ts = np.unique(np.concatenate((traj.xi.times, np.linspace(0.0, T, 200))))
    x = np.linspace(0.0, 1.0, 100)
    dens = [res["final"]] + [traj.slice_values(s, x) for s in np.linspace(0.0, T, 8)]
    bad = flux_gate(mass_residual=resid, M=M, slopes=traj.xi.slope(ts),
                    lam_lo=lam_lo, lam_hi=lam_hi, densities=np.concatenate(dens),
                    tv=res["tv"], eps=res["eps"])
    if not np.isfinite(res["err"]) or res["err"] < 0:
        bad.append(f"tracking error {res['err']} is not a finite square integral")
    return bad


# -- transfer_cert -------------------------------------------------------------

CANDIDATES = [(1.0, 2.0), (0.0, 2.0), (0.5, 1.5)]
PROBE_T = 6.0


@dataclass(frozen=True)
class TransferInput:
    lo: float
    hi: float
    knee: float
    tau: float  # 0 for a candidate-optimal transfer (boundary density hi throughout)
    lead: tuple


def make_transfer(seed, index, slot):
    if index % 3 == 0:
        lo, hi = CANDIDATES[(index // 3) % 3]
        return TransferInput(lo, hi, 0.0, 0.0, ())
    rng = np.random.default_rng([seed, index])
    lo, hi = 0.5, 1.5
    tau = float(rng.uniform(0.05, 0.6))
    knee = float(rng.uniform(0.2, 0.8)) * tau
    lead = tuple(float(v) for v in rng.uniform(0.0, 0.9 * hi, 2))
    return TransferInput(lo, hi, knee, tau, lead)


def _boundary(inp: TransferInput, T: float) -> ControlSignal:
    if inp.tau == 0.0:
        return ControlSignal.constant(inp.hi, T)
    return ControlSignal(np.array([0.0, inp.knee, inp.tau, T]),
                         np.array([inp.lead[0], inp.lead[1], inp.hi]))


def op_transfer(inp: TransferInput, tracer):
    """Probe the transfer to find when it settles, then certify it."""
    probe = transport.simulate(DensityProfile.constant(inp.lo), LAW, PROBE_T,
                               boundary_density=_boundary(inp, PROBE_T))
    T = float(probe.xi.inverse(1.0 + probe.xi(inp.tau)))
    return transfer.check_lower_bound(None, inp.lo, inp.hi, T,
                                      boundary_density=_boundary(inp, T))


def check_transfer(inp: TransferInput, cert) -> list[str]:
    return transfer_gate(satisfied=cert.satisfied, slack=cert.slack,
                         candidate=inp.tau == 0.0)


# -- tracking ------------------------------------------------------------------

TRACK_T = 1.0
TRACK_OPTS = dict(max_iters=3, grad_tol=1e-5)


# Ops come in rounds of five, one per control-cell count 4..8, that share an
# initial density and demand. Across round pairs these follow the additive
# recurrence of the R3 low-discrepancy sequence, and the second round of a
# pair mirrors the first within the ranges, so every run's ops spread evenly
# over the ranges and the seed only shifts the pattern. The solve cost grows
# with the density; with independent draws a run's mean cost varied about
# 30% between seeds.
R3 = 1.0 / 1.2207440846057596 ** np.arange(1, 4)


def make_tracking(seed, index, slot):
    n = 4 + index % 5
    x = (np.random.default_rng(seed).random(3) + (index // 10 + 1) * R3) % 1.0
    if index // 5 % 2:
        x = 1.0 - x
    c = 0.3 + 0.6 * float(x[0])
    y_d = ControlSignal(np.array([0.0, 0.5, 1.0]) * TRACK_T, 0.1 + 0.4 * x[1:])
    return tracking.TrackingProblem(
        DensityProfile.constant(c), y_d, LAW, TRACK_T,
        np.linspace(0.0, TRACK_T, n + 1), solver_tol=1e-8, knots_per_window=64)


def op_tracking(problem, tracer):
    return tracking.minimize(problem, **TRACK_OPTS)


def check_tracking(problem, report) -> list[str]:
    c = problem.rho0.total_mass
    comparators = [
        tracking.cost(problem, ControlSignal.constant(0.0, TRACK_T)),
        tracking.cost(problem, ControlSignal.constant(c * float(LAW(c)), TRACK_T)),
    ]
    return tracking_gate(cost_history=report.cost_history,
                         best_cost=report.best_cost, comparator_costs=comparators)


# -- crosscheck_cli --------------------------------------------------------------

CROSS_T = 1.2
CROSS_CELLS = (1000, 2000, 4000)


@dataclass(frozen=True)
class CliInput:
    config: Path
    out: Path
    config_bytes: int


def _yaml_list(values) -> str:
    items = [repr(float(v)) for v in values]
    if any("e" in s or "n" in s for s in items):  # exponent, inf or nan
        raise ValueError("config values must print as plain YAML floats")
    return "[" + ", ".join(items) + "]"


def make_cli(seed, index, slot):
    """A smooth, corner-compatible config in the shape of criterion 7."""
    rng = np.random.default_rng([seed, index])
    a = rng.uniform(0.5, 1.5)
    amp = rng.uniform(0.1, 0.4) * a
    phase = rng.uniform(0.0, 2 * np.pi)
    rho0 = DensityProfile.from_function(
        lambda x: a + amp * np.sin(2 * np.pi * x + phase), 4096)
    r_edge = a + amp * np.sin(phase)
    lam0 = float(LAW(rho0.total_mass))
    ua = rng.uniform(0.1, 0.4) * r_edge
    om = rng.uniform(1.0, 3.0)
    u = ControlSignal.from_function(
        lambda t: lam0 * (r_edge + ua * np.sin(om * t)), CROSS_T, 4096)
    text = "\n".join([
        "law: {kind: reciprocal}",
        f"horizon: {CROSS_T!r}",
        f"cells: [{', '.join(map(str, CROSS_CELLS))}]",
        "rho0:",
        f"  breakpoints: {_yaml_list(rho0.breakpoints)}",
        f"  values: {_yaml_list(rho0.values)}",
        "control:",
        f"  breakpoints: {_yaml_list(u.breakpoints)}",
        f"  values: {_yaml_list(u.values)}",
        "",
    ])
    config = slot.with_suffix(".yaml")
    config.write_text(text)
    return CliInput(config, slot.parent / "cli-out", len(text.encode()))


def op_cli(inp: CliInput, tracer):
    """One ``reflow crosscheck`` invocation through click, in-process."""
    args = ["crosscheck", "--config", str(inp.config), "--out", str(inp.out)]
    runner = CliRunner()
    if tracer is None:
        return runner.invoke(cli.main, args).exit_code
    return tracer.call("cli.crosscheck", "cli", runner.invoke, cli.main, args).exit_code


def check_cli(inp: CliInput, exit_code) -> list[str]:
    table = inp.out / "crosscheck.csv"
    cells, l1 = [], []
    if exit_code == 0:
        if not table.is_file():
            return ["crosscheck exited 0 without writing crosscheck.csv"]
        with open(table) as f:
            for row in csv.reader(line for line in f if not line.startswith("#")):
                cells.append(int(row[0]))
                l1.append(float(row[1]))
        table.unlink()  # a later op that writes no table must not pass on this one
    return crosscheck_gate(exit_code=exit_code, cells=cells, l1_errors=l1)


WORKLOADS = {w.name: w for w in [
    Workload("flux_sim", 160, 8, make_flux, op_flux, check_flux),
    Workload("transfer_cert", 54, 9, make_transfer, op_transfer, check_transfer),
    Workload("tracking", 30, 5, make_tracking, op_tracking, check_tracking),
    Workload("crosscheck_cli", 6, 2, make_cli, op_cli, check_cli),
]}
