"""Command-line front end: run scenarios from YAML configs, emit CSV/JSON.

Subcommands: simulate, optimize, transfer, verify, crosscheck. Each run
writes its artifacts plus a resolved_config.json echo into the output
directory, and is deterministic for a fixed config and seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np
import yaml

from .characteristics import SolverError
from .fv import fv_solve
from .laws import SpeedLaw, reciprocal, tabulated
from .signals import ControlSignal, DensityProfile
from .tracking import TrackingProblem, minimize
from .transfer import (TransferScenario, check_lower_bound,
                       closed_form_trajectory, minimal_time,
                       transfer_diagnostics, write_figure_csv)
from .transport import simulate as run_simulation


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.field_path = path


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"{where}.{key}", "missing required field")
    return cfg[key]


def _int_from(cfg: dict, key: str, default: int, where: str | None = None,
              minimum: int = 0) -> int:
    """The count ``cfg[key]``; ``where`` is the path of ``cfg`` in the config."""
    path = key if where is None else f"{where}.{key}"
    try:
        n = int(cfg.get(key, default))
    except (ValueError, TypeError) as e:
        raise ConfigError(path, str(e)) from e
    if n < minimum:
        raise ConfigError(path, f"must be at least {minimum}, got {n}")
    return n


def _law_from(cfg: dict) -> SpeedLaw:
    kind = cfg.get("kind", "reciprocal")
    if kind == "reciprocal":
        return reciprocal()
    if kind == "tabulated":
        try:
            return tabulated(np.asarray(_require(cfg, "grid", "law"), dtype=float),
                             np.asarray(_require(cfg, "values", "law"), dtype=float))
        except ValueError as e:
            raise ConfigError("law", str(e)) from e
    raise ConfigError("law.kind", f"unknown speed law {kind!r}")


def _density_from(cfg, where: str = "rho0") -> DensityProfile:
    try:
        if "constant" in cfg:
            return DensityProfile.constant(float(cfg["constant"]))
        return DensityProfile(
            np.asarray(_require(cfg, "breakpoints", where), dtype=float),
            np.asarray(_require(cfg, "values", where), dtype=float))
    except ConfigError:
        raise
    except (ValueError, TypeError) as e:
        raise ConfigError(where, str(e)) from e


def _signal_from(cfg, where: str, horizon: float | None = None) -> ControlSignal:
    try:
        if "constant" in cfg:
            if horizon is None:
                horizon = float(_require(cfg, "horizon", where))
            return ControlSignal.constant(float(cfg["constant"]), horizon)
        return ControlSignal(
            np.asarray(_require(cfg, "breakpoints", where), dtype=float),
            np.asarray(_require(cfg, "values", where), dtype=float))
    except ConfigError:
        raise
    except (ValueError, TypeError) as e:
        raise ConfigError(where, str(e)) from e


# config key of each inflow mode -> its keyword in simulate/check_lower_bound
_INFLOW_KEYS = {"control": "u", "boundary_density": "boundary_density"}


def _inflow_from(cfg: dict, where: str, T: float) -> dict:
    """The one inflow keyword argument given by exactly one of the config keys."""
    keys = [k for k in _INFLOW_KEYS if k in cfg]
    if len(keys) != 1:
        raise ConfigError(where, "provide exactly one of control, boundary_density")
    key = keys[0]
    path = key if where == "<root>" else f"{where}.{key}"
    return {_INFLOW_KEYS[key]: _signal_from(cfg[key], path, T)}


def _load(config_path: str) -> dict:
    with open(config_path) as f:
        cfg = yaml.safe_load(f)
    if not isinstance(cfg, dict):
        raise ConfigError("<root>", "config must be a mapping")
    return cfg


def _echo_config(cfg: dict, out: Path, overrides: dict):
    resolved = dict(cfg)
    resolved["_resolved"] = overrides
    with open(out / "resolved_config.json", "w") as f:
        json.dump(resolved, f, indent=2, sort_keys=True, default=str)


def _fail(kind: str, err: Exception, code: int):
    diag = {"error": kind, "message": str(err)}
    if isinstance(err, ConfigError):
        diag["field"] = err.field_path
    click.echo(json.dumps(diag, indent=2), err=True)
    sys.exit(code)


def _common(f):
    f = click.option("--config", "config_path", required=True,
                     type=click.Path(exists=True, dir_okay=False))(f)
    f = click.option("--out", "out_dir", default=".",
                     type=click.Path(file_okay=False))(f)
    f = click.option("--seed", default=0, type=int, show_default=True)(f)
    f = click.option("--cells", default=None, type=int,
                     help="override grid/cell counts")(f)
    f = click.option("--tol", default=None, type=float,
                     help="override solver tolerance")(f)
    return f


def _build_trajectory(cfg: dict, tol: float | None):
    law = _law_from(cfg.get("law", {}))
    rho0 = _density_from(_require(cfg, "rho0", "<root>"))
    T = float(_require(cfg, "horizon", "<root>"))
    return run_simulation(rho0, law, T, **_inflow_from(cfg, "<root>", T),
                          tol=tol if tol is not None else float(cfg.get("tol", 1e-10)),
                          knots_per_window=_int_from(cfg, "knots_per_window", 256))


@click.group()
def main():
    """Nonlocal-velocity transport: simulate, optimize, verify."""


@main.command()
@_common
def simulate(config_path, out_dir, seed, cells, tol):
    """Run one trajectory and write time-series and final-slice CSVs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        cfg = _load(config_path)
        y_d = None
        if "demand" in cfg:
            T = float(_require(cfg, "horizon", "<root>"))
            y_d = _signal_from(cfg["demand"], "demand", T)
            if y_d.horizon < T - 1e-12:
                raise ConfigError("demand", f"demand ends at {y_d.horizon:g}, "
                                            f"before the horizon {T:g}")
        n_trace = _int_from(cfg, "trace_samples", 4096)
        n_slice = _int_from(cfg, "slice_samples", 1024)
        traj = _build_trajectory(cfg, tol)
    except (ConfigError, ValueError) as e:
        _fail("validation", e, 2)
    except SolverError as e:
        _fail("solver", e, 3)
    traj.write_timeseries(out / "timeseries.csv", n=n_trace, y_d=y_d)
    traj.write_slice(out / "slice_final.csv", traj.horizon, n=n_slice)
    _echo_config(cfg, out, {"seed": seed, "tol": tol, "cells": cells})
    click.echo(f"wrote {out / 'timeseries.csv'} and {out / 'slice_final.csv'}")


@main.command()
@_common
def optimize(config_path, out_dir, seed, cells, tol):
    """Minimize the demand-tracking cost; write report JSON + history CSV."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        cfg = _load(config_path)
        law = _law_from(cfg.get("law", {}))
        rho0 = _density_from(_require(cfg, "rho0", "<root>"))
        T = float(_require(cfg, "horizon", "<root>"))
        y_d = _signal_from(_require(cfg, "demand", "<root>"), "demand", T)
        opt = cfg.get("optimize", {})
        n_cells = (cells if cells is not None
                   else _int_from(opt, "control_cells", 16, "optimize", minimum=1))
        problem = TrackingProblem(
            rho0, y_d, law, T, np.linspace(0.0, T, n_cells + 1),
            tracking_weight=float(opt.get("tracking_weight", 1.0)),
            solver_tol=tol if tol is not None else float(cfg.get("tol", 1e-9)),
        )
        max_iters = _int_from(opt, "max_iters", 100, "optimize")
        grad_tol = float(opt.get("grad_tol", 1e-6))
        restarts = _int_from(opt, "random_restarts", 0, "optimize")
    except (ConfigError, ValueError) as e:
        _fail("validation", e, 2)
    try:
        report = minimize(problem, max_iters=max_iters, grad_tol=grad_tol, seed=seed,
                          extra_random_restarts=restarts)
    except SolverError as e:
        _fail("solver", e, 3)
    with open(out / "report.json", "w") as f:
        json.dump({
            "best_cost": report.best_cost,
            "control_breakpoints": report.best_control.breakpoints.tolist(),
            "control_values": report.best_control.values.tolist(),
            "restarts": report.restarts,
            "converged": report.converged,
        }, f, indent=2)
    with open(out / "history.csv", "w") as f:
        f.write("# columns: restart,iteration,cost\n")
        for r, hist in enumerate(report.cost_history):
            for i, j in enumerate(hist):
                f.write(f"{r},{i},{j!r}\n")
    _echo_config(cfg, out, {"seed": seed, "tol": tol, "cells": cells})
    click.echo(f"best cost {report.best_cost:.8g} ({report.restarts} restarts)")


@main.command()
@_common
def transfer(config_path, out_dir, seed, cells, tol):
    """Closed-form equilibrium transfer: diagnostics JSON + trace CSVs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        cfg = _load(config_path)
        tcfg = _require(cfg, "transfer", "<root>")
        sc = TransferScenario(float(_require(tcfg, "rho_lo", "transfer")),
                              float(_require(tcfg, "rho_hi", "transfer")))
        n_trace = _int_from(cfg, "trace_samples", 2048)
    except (ConfigError, ValueError) as e:
        _fail("validation", e, 2)
    T = minimal_time(sc)
    result = {"rho_lo": sc.rho_lo, "rho_hi": sc.rho_hi, "T": T}
    if sc.rho_hi > sc.rho_lo:
        result.update(transfer_diagnostics(sc))
        cf = closed_form_trajectory(sc)
        result["u_jump_at_0"] = float(cf.u(0.0)) - sc.rho_lo / (1.0 + sc.rho_lo)
        result["y_jump_at_T"] = sc.rho_hi / (1.0 + sc.rho_hi) - float(cf.y(T))
    write_figure_csv(sc, out / "transfer_mass.csv", out / "transfer_flux.csv",
                     n=n_trace)
    with open(out / "diagnostics.json", "w") as f:
        json.dump(result, f, indent=2)
    _echo_config(cfg, out, {"seed": seed, "tol": tol, "cells": cells})
    click.echo(json.dumps(result))


@main.command()
@_common
def verify(config_path, out_dir, seed, cells, tol):
    """Certify an admissible transfer against the minimal-time lower bound."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        cfg = _load(config_path)
        vcfg = _require(cfg, "verify", "<root>")
        rho_lo = float(_require(vcfg, "rho_lo", "verify"))
        rho_hi = float(_require(vcfg, "rho_hi", "verify"))
        T = float(_require(vcfg, "horizon", "verify"))
        kw = _inflow_from(vcfg, "verify", T)
        cert = check_lower_bound(kw.get("u"), rho_lo, rho_hi, T,
                                 boundary_density=kw.get("boundary_density"),
                                 tol=tol if tol is not None else 1e-6)
    except ConfigError as e:
        _fail("validation", e, 2)
    except SolverError as e:
        _fail("solver", e, 3)
    except ValueError as e:
        _fail("validation", e, 2)
    payload = {
        "t0": cert.t0, "t1": cert.t1, "bound_value": cert.bound_value,
        "satisfied": cert.satisfied, "slack": cert.slack,
    }
    with open(out / "certificate.json", "w") as f:
        json.dump(payload, f, indent=2)
    _echo_config(cfg, out, {"seed": seed, "tol": tol, "cells": cells})
    click.echo(json.dumps(payload))


@main.command()
@_common
def crosscheck(config_path, out_dir, seed, cells, tol):
    """Characteristic-vs-finite-volume grid study; error table CSV."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        cfg = _load(config_path)
        if "control" not in cfg:
            raise ConfigError("<root>", "crosscheck requires flux-mode control")
        try:
            grid = ([cells] if cells is not None
                    else [int(n) for n in cfg.get("cells", [250, 1000, 4000])])
        except (ValueError, TypeError) as e:
            raise ConfigError("cells", str(e)) from e
        if any(n < 1 for n in grid):
            raise ConfigError("cells", f"cell counts must be at least 1, got {grid}")
        traj = _build_trajectory(cfg, tol)
    except (ConfigError, ValueError) as e:
        _fail("validation", e, 2)
    except SolverError as e:
        _fail("solver", e, 3)
    rows = []
    for n in grid:
        state, _, _ = fv_solve(traj.rho0, traj.law, traj.inflow.signal, traj.horizon, n)
        sub = 8
        fine = traj.slice_values(
            traj.horizon, (np.arange(n * sub) + 0.5) / (n * sub))
        ref = fine.reshape(n, sub).mean(axis=1)
        l1 = float(np.abs(state.cells - ref).mean())
        rows.append((n, l1, abs(state.total_mass - traj.total_mass(traj.horizon))))
    with open(out / "crosscheck.csv", "w") as f:
        f.write("# columns: n_cells,l1_error,mass_error\n")
        for n, l1, dm in rows:
            f.write(f"{n},{l1!r},{dm!r}\n")
    _echo_config(cfg, out, {"seed": seed, "tol": tol, "cells": cells})
    for n, l1, dm in rows:
        click.echo(f"n={n}: l1_error={l1:.3e} mass_error={dm:.3e}")


if __name__ == "__main__":
    main()
