"""Command-line front end: run scenarios from YAML configs, emit CSV/JSON.

Subcommands: simulate, optimize, transfer, verify, crosscheck. Each is a body
``(cfg, out) -> message`` registered by ``_command``, which keeps the
exit-code contract in one place: 2 for a ValueError (a ``ConfigError`` or
malformed YAML among them), 3 for a ``SolverError``. The config is the whole
input of a run: no option sets a value. Fields are read only through ``_get``
and ``_block``, so each error names its field: a root field by its bare key, a
block field as ``block.key``, the file as ``<root>``. Runs are deterministic
for a fixed config.

A config parses exactly as ``yaml.safe_load`` parses it, on libyaml where
PyYAML has it. ``_Loader`` only adds a fast path for plain decimal floats such
as ``-0.25`` or ``3.``, and for a list made only of them. The load runs with
Python's cyclic garbage collector paused (``_load``): a config's node tree has
no reference cycles, so the passes a large file would trigger free nothing.
"""

from __future__ import annotations

import gc
import json
import re
import sys
from functools import partial
from pathlib import Path

import click
import numpy as np
import yaml

from .characteristics import SolverError
from .fv import fv_solve
from .laws import SpeedLaw, reciprocal, tabulated
from .rules import count, covers, finite_nonnegative, finite_positive, number, numbers
from .signals import ControlSignal, DensityProfile
from .tracking import TrackingProblem, minimize
from .transfer import (TransferScenario, check_lower_bound,
                       closed_form_trajectory, minimal_time,
                       transfer_diagnostics, write_figure_csv)
from .transport import simulate as run_simulation

__all__ = ["main"]

ROOT = "<root>"  # the path of the whole config file
REQUIRED = object()  # the default of a field that must be given
_count0 = partial(count, minimum=0)  # samples, iterations and restarts may be 0


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.field_path = path


def _at(where: str, key: str) -> str:
    """The path of ``key`` in the block at ``where``."""
    return key if where == ROOT else f"{where}.{key}"


def _get(cfg: dict, key: str, where: str = ROOT, parse=number, default=REQUIRED):
    """``parse(cfg[key], key)``, or ``default`` if the key is absent."""
    if key not in cfg:
        if default is REQUIRED:
            raise ConfigError(_at(where, key), "missing required field")
        return default
    try:
        return parse(cfg[key], key)
    except (ValueError, TypeError, OverflowError) as e:
        raise ConfigError(_at(where, key), str(e)) from e


def _array(value, name: str) -> np.ndarray:
    return numbers(value if isinstance(value, list) else [value], name)


def _cell_counts(value, name: str) -> list[int]:
    counts = [count(n, name) for n in value]
    if not counts:
        raise ValueError("must list at least one cell count")
    return counts


def _block(cfg: dict, key: str, where: str = ROOT, keys=(), default=REQUIRED) -> dict:
    """The mapping ``cfg[key]``; any key of it not in ``keys`` is rejected."""
    block = _get(cfg, key, where, lambda v, _: v, default)
    path = _at(where, key)
    if not isinstance(block, dict):
        raise ConfigError(path, "must be a mapping")
    unknown = [k for k in block if k not in keys]
    if unknown:
        raise ConfigError(_at(path, str(unknown[0])), "unknown key")
    return block


def _built(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a ValueError it raises reported at ``path``."""
    try:
        return build(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(path, str(e)) from e


def _law_from(cfg: dict) -> SpeedLaw:
    law = _block(cfg, "law", keys=("kind", "grid", "values"), default={})
    kind = _get(law, "kind", "law", lambda v, _: str(v), "reciprocal")
    if kind == "reciprocal":
        return reciprocal()
    if kind != "tabulated":
        raise ConfigError("law.kind", f"unknown speed law {kind!r}")
    return _built("law", tabulated, _get(law, "grid", "law", _array),
                  _get(law, "values", "law", _array))


def _steps_from(cls, cfg: dict, key: str, where: str, end: float):
    """The step function ``cfg[key]``: a constant on [0, end], or breakpoints and
    values, never both; a ``ControlSignal`` must reach ``end``."""
    block = _block(cfg, key, where, keys=("constant", "breakpoints", "values"))
    path = _at(where, key)
    if "constant" in block:
        if len(block) > 1:
            raise ConfigError(path, "give either constant or breakpoints and values")
        return _built(path, cls, [0.0, end], [_get(block, "constant", path)])
    steps = _built(path, cls, _get(block, "breakpoints", path, _array),
                   _get(block, "values", path, _array))
    return _built(path, covers, steps, end, key) if cls is ControlSignal else steps


# config key of each inflow mode -> its keyword in simulate/check_lower_bound
_INFLOW_KEYS = {"control": "u", "boundary_density": "boundary_density"}
_TRAJECTORY_KEYS = ("law", "rho0", *_INFLOW_KEYS, "horizon", "tol", "knots_per_window")


def _inflow_from(cfg: dict, where: str, T: float) -> dict:
    """The one inflow keyword argument given by exactly one of the config keys."""
    keys = [k for k in _INFLOW_KEYS if k in cfg]
    if len(keys) != 1:
        raise ConfigError(where, "provide exactly one of control, boundary_density")
    return {_INFLOW_KEYS[keys[0]]: _steps_from(ControlSignal, cfg, keys[0], where, T)}


def _build_trajectory(cfg: dict):
    law = _law_from(cfg)
    rho0 = _steps_from(DensityProfile, cfg, "rho0", ROOT, 1.0)
    T = _get(cfg, "horizon", ROOT, finite_positive)
    return run_simulation(rho0, law, T, **_inflow_from(cfg, ROOT, T),
                          tol=_get(cfg, "tol", ROOT, finite_positive, 1e-10),
                          knots_per_window=_get(cfg, "knots_per_window", ROOT, count, 256))


def _fail(kind: str, err: Exception, code: int):
    diag = {"error": kind, "message": str(err)}
    if code == 2:
        diag["field"] = getattr(err, "field_path", ROOT)
    click.echo(json.dumps(diag, indent=2), err=True)
    sys.exit(code)


_FLOAT = "tag:yaml.org,2002:float"
# a subset of YAML 1.1's float rule, which float() reads as construct_yaml_float does
_plain_float = re.compile(r"[-+]?[0-9]+\.[0-9]*").fullmatch


def _loader_over(base):
    """``base`` (a safe loader), with plain decimal floats resolved and a list
    of only such floats built without a per-item constructor call."""
    class Loader(base):
        def resolve(self, kind, value, implicit):
            if kind is yaml.ScalarNode and implicit[0] and _plain_float(value):
                return _FLOAT
            return super().resolve(kind, value, implicit)

        def construct_floats(self, node):
            if all(k.tag == _FLOAT and _plain_float(k.value) for k in node.value):
                return [float(k.value) for k in node.value]
            return self.construct_yaml_seq(node)

    Loader.add_constructor("tag:yaml.org,2002:seq", Loader.construct_floats)
    return Loader


# libyaml's scanner where present; the same safe constructor
_Loader = _loader_over(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def _load(path):
    """The config at ``path``. Its node tree has no reference cycles, so the
    cyclic collector is paused for the load, whose passes would free nothing,
    and switched back on only if it was on."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path) as f:
            return yaml.load(f, Loader=_Loader)
    finally:
        if enabled:
            gc.enable()


@click.group()
def main():
    """Nonlocal-velocity transport: simulate, optimize, verify."""


def _command(*keys):
    """Register ``body(cfg, out) -> message`` as a subcommand whose config is a
    mapping of the root ``keys``; any other root key is rejected.

    Parsing, computing and writing artifacts share one ``try``; a run that
    succeeds also writes the parsed config to resolved_config.json and echoes
    the message.
    """
    def register(body):
        @main.command(name=body.__name__, help=body.__doc__)
        @click.option("--config", "config_path", required=True,
                      type=click.Path(exists=True, dir_okay=False))
        @click.option("--out", "out_dir", default=".", type=click.Path(file_okay=False))
        def run(config_path, out_dir):
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            try:
                cfg = _load(config_path)
                # the whole file is the block at <root>
                message = body(_block({ROOT: cfg}, ROOT, keys=keys), out)
                with open(out / "resolved_config.json", "w") as f:
                    # not sort_keys: YAML keys need not be mutually comparable; no
                    # indent, which would force the pure-Python encoder
                    f.write(json.dumps(cfg, default=str, skipkeys=True))
            except (ValueError, yaml.YAMLError) as e:
                _fail("validation", e, 2)
            except SolverError as e:
                _fail("solver", e, 3)
            click.echo(message)
        return run
    return register


@_command(*_TRAJECTORY_KEYS, "demand", "trace_samples", "slice_samples")
def simulate(cfg, out):
    """Run one trajectory and write time-series and final-slice CSVs."""
    y_d = None
    if "demand" in cfg:
        T = _get(cfg, "horizon", ROOT, finite_positive)
        y_d = _steps_from(ControlSignal, cfg, "demand", ROOT, T)
    n_trace = _get(cfg, "trace_samples", parse=_count0, default=4096)
    n_slice = _get(cfg, "slice_samples", parse=_count0, default=1024)
    traj = _build_trajectory(cfg)
    traj.write_timeseries(out / "timeseries.csv", n=n_trace, y_d=y_d)
    traj.write_slice(out / "slice_final.csv", traj.horizon, n=n_slice)
    return f"wrote {out / 'timeseries.csv'} and {out / 'slice_final.csv'}"


@_command("law", "rho0", "horizon", "demand", "tol", "optimize")
def optimize(cfg, out):
    """Minimize the demand-tracking cost; write report JSON + history CSV."""
    law = _law_from(cfg)
    rho0 = _steps_from(DensityProfile, cfg, "rho0", ROOT, 1.0)
    T = _get(cfg, "horizon", ROOT, finite_positive)
    y_d = _steps_from(ControlSignal, cfg, "demand", ROOT, T)
    opt = _block(cfg, "optimize", default={}, keys=(
        "control_cells", "tracking_weight", "max_iters", "grad_tol", "random_restarts", "seed"))
    n_cells = _get(opt, "control_cells", "optimize", count, 16)
    problem = TrackingProblem(
        rho0, y_d, law, T, np.linspace(0.0, T, n_cells + 1),
        tracking_weight=_get(opt, "tracking_weight", "optimize", finite_nonnegative, 1.0),
        solver_tol=_get(cfg, "tol", ROOT, finite_positive, 1e-9),
    )
    report = minimize(problem, seed=_get(opt, "seed", "optimize", _count0, 0),
                      max_iters=_get(opt, "max_iters", "optimize", _count0, 100),
                      grad_tol=_get(opt, "grad_tol", "optimize", finite_nonnegative, 1e-6),
                      extra_random_restarts=_get(opt, "random_restarts", "optimize", _count0, 0))
    with open(out / "report.json", "w") as f:
        json.dump({
            "best_cost": report.best_cost,
            "control_breakpoints": report.best_control.breakpoints.tolist(),
            "control_values": report.best_control.values.tolist(),
            "restarts": report.restarts,
            "converged": report.converged,
            "kkt_residual": report.kkt_residual,
            "solves": report.solves,
        }, f, indent=2)
    with open(out / "history.csv", "w") as f:
        f.write("# columns: restart,iteration,cost\n")
        for r, hist in enumerate(report.cost_history):
            for i, j in enumerate(hist):
                f.write(f"{r},{i},{j!r}\n")
    return f"best cost {report.best_cost:.8g} ({report.restarts} restarts)"


@_command("transfer", "trace_samples")
def transfer(cfg, out):
    """Closed-form equilibrium transfer: diagnostics JSON + trace CSVs."""
    tcfg = _block(cfg, "transfer", keys=("rho_lo", "rho_hi"))
    sc = _built("transfer", TransferScenario, _get(tcfg, "rho_lo", "transfer"),
                _get(tcfg, "rho_hi", "transfer"))
    n_trace = _get(cfg, "trace_samples", parse=_count0, default=2048)
    T = minimal_time(sc)
    result = {"rho_lo": sc.rho_lo, "rho_hi": sc.rho_hi, "T": T}
    if sc.rho_hi > sc.rho_lo:
        result.update(transfer_diagnostics(sc))
        cf = closed_form_trajectory(sc)
        result["u_jump_at_0"] = float(cf.u(0.0)) - float(cf.y(0.0))
        result["y_jump_at_T"] = sc.rho_hi / (1.0 + sc.rho_hi) - float(cf.y(T))
    write_figure_csv(sc, out / "transfer_mass.csv", out / "transfer_flux.csv", n=n_trace)
    with open(out / "diagnostics.json", "w") as f:
        json.dump(result, f, indent=2)
    return json.dumps(result)


@_command("verify")
def verify(cfg, out):
    """Certify an admissible transfer against the minimal-time lower bound."""
    vcfg = _block(cfg, "verify", keys=("rho_lo", "rho_hi", "horizon", "tol", *_INFLOW_KEYS))
    rho_lo = _get(vcfg, "rho_lo", "verify", finite_nonnegative)
    rho_hi = _get(vcfg, "rho_hi", "verify", finite_nonnegative)
    T = _get(vcfg, "horizon", "verify", finite_positive)
    kw = _inflow_from(vcfg, "verify", T)
    # a pair or horizon the certificate rejects names the whole block
    cert = _built("verify", check_lower_bound, kw.get("u"), rho_lo, rho_hi, T,
                  boundary_density=kw.get("boundary_density"),
                  tol=_get(vcfg, "tol", "verify", finite_nonnegative, 1e-6))
    payload = {"t0": cert.t0, "t1": cert.t1, "bound_value": cert.bound_value,
               "satisfied": cert.satisfied, "slack": cert.slack}
    with open(out / "certificate.json", "w") as f:
        json.dump(payload, f, indent=2)
    return json.dumps(payload)


@_command(*_TRAJECTORY_KEYS, "cells")
def crosscheck(cfg, out):
    """Characteristic-vs-finite-volume grid study; error table CSV."""
    if "control" not in cfg:
        raise ConfigError(ROOT, "crosscheck requires flux-mode control")
    grid = _get(cfg, "cells", parse=_cell_counts, default=[250, 1000, 4000])
    traj = _build_trajectory(cfg)
    T, B = traj.horizon, traj.boundary_mass
    rows = []
    for n in grid:
        state, _, _ = fv_solve(traj.rho0, traj.law, traj.inflow.signal, T, n)
        # the exact reference: the mass past x at time T is the outflow with the
        # curve at xi(T) + 1 - x, so a cell's average is -n times its change over the cell
        tail = traj.inflow.outflow(traj.rho0, traj.xi(T) + 1.0 - np.linspace(0.0, 1.0, n + 1), B)
        l1 = float(np.abs(state.cells + n * np.diff(tail)).mean())
        rows.append((n, l1, abs(state.total_mass - traj.total_mass(T))))
    with open(out / "crosscheck.csv", "w") as f:
        f.write("# columns: n_cells,l1_error,mass_error\n")
        for n, l1, dm in rows:
            f.write(f"{n},{l1!r},{dm!r}\n")
    return "\n".join(f"n={n}: l1_error={l1:.3e} mass_error={dm:.3e}" for n, l1, dm in rows)


if __name__ == "__main__":
    main()
