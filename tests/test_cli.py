"""CLI round trips: artifacts, determinism, validation failures."""

import copy
import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from reflow.cli import main
from reflow.laws import reciprocal
from reflow.signals import ControlSignal, DensityProfile
from reflow.transport import simulate
from test_characteristics import ode_oracle


@pytest.fixture
def runner():
    return CliRunner()


def write_config(path, payload):
    """Write ``payload`` as YAML; a string is written as it is."""
    path.write_text(payload if isinstance(payload, str) else yaml.safe_dump(payload))
    return str(path)


SIM_CFG = {
    "law": {"kind": "reciprocal"},
    "rho0": {"constant": 1.0},
    "boundary_density": {"constant": 2.0},
    "horizon": 2.5,
    "trace_samples": 64,
}


class TestSimulate:
    def test_writes_trace_and_slice(self, runner, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", SIM_CFG)
        out = tmp_path / "out"
        res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert (out / "timeseries.csv").exists()
        assert (out / "slice_final.csv").exists()
        assert (out / "resolved_config.json").exists()
        header = (out / "timeseries.csv").read_text().splitlines()[0]
        assert header == "# columns: t,W,u,y,beta"

    def test_equilibrium_mass_column_is_constant(self, runner, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", {
            "rho0": {"constant": 1.0},
            "control": {"constant": 0.5},
            "horizon": 2.0,
            "trace_samples": 128,
        })
        out = tmp_path / "out"
        res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        data = np.loadtxt(out / "timeseries.csv", delimiter=",")
        assert np.max(np.abs(data[:, 1] - 1.0)) <= 1e-10

    def test_repeated_runs_are_bit_identical(self, runner, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", SIM_CFG)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            res = runner.invoke(main, ["simulate", "--config", cfg,
                                       "--out", str(out), "--seed", "7"])
            assert res.exit_code == 0
            outs.append((out / "timeseries.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_invalid_config_exits_2_with_field_path(self, runner, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", {
            "rho0": {"constant": -1.0},
            "control": {"constant": 0.1},
            "horizon": 1.0,
        })
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        diag = json.loads(res.output)
        assert diag["error"] == "validation"
        assert "rho0" in diag["field"]

    @pytest.mark.parametrize("demand, field", [
        ({"values": [0.2]}, "demand.breakpoints"),       # no breakpoints
        ({"breakpoints": [0.0, 1.0], "values": [0.2]}, "demand"),  # ends before T
    ])
    def test_invalid_demand_exits_2_with_field_path(self, runner, tmp_path, demand, field):
        cfg = write_config(tmp_path / "c.yaml", dict(SIM_CFG, demand=demand))
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        diag = json.loads(res.output)
        assert diag["error"] == "validation"
        assert diag["field"] == field

    def test_nan_horizon_exits_2(self, runner, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", {
            "rho0": {"constant": 1.0},
            "control": {"breakpoints": [0.0, 1.0, 2.0], "values": [0.5, 0.2]},
            "horizon": float("nan"),
        })
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "horizon must be positive" in json.loads(res.output)["message"]

    def test_both_influx_modes_rejected(self, runner, tmp_path):
        bad = dict(SIM_CFG)
        bad["control"] = {"constant": 0.1}
        cfg = write_config(tmp_path / "c.yaml", bad)
        res = runner.invoke(main, ["simulate", "--config", cfg,
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2


class TestTransfer:
    def test_diagnostics_json_contains_formula_time(self, runner, tmp_path):
        cfg = write_config(tmp_path / "c.yaml",
                           {"transfer": {"rho_lo": 0.0, "rho_hi": 2.0}})
        out = tmp_path / "out"
        res = runner.invoke(main, ["transfer", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["T"] == 2.0
        assert (out / "transfer_mass.csv").exists()
        assert (out / "transfer_flux.csv").exists()


class TestVerify:
    def test_certificate_for_candidate_optimal(self, runner, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", {"verify": {
            "rho_lo": 1.0, "rho_hi": 2.0, "horizon": 2.5,
            "boundary_density": {"constant": 2.0},
        }})
        out = tmp_path / "out"
        res = runner.invoke(main, ["verify", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["satisfied"]
        assert abs(cert["slack"]) <= 1e-6

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_tol_that_is_not_finite_and_nonnegative_exits_2(self, runner, tmp_path, tol):
        # --tol is the certificate tolerance here; it used to exit 0, unsatisfied
        cfg = write_config(tmp_path / "c.yaml", {"verify": {
            "rho_lo": 1.0, "rho_hi": 2.0, "horizon": 2.5,
            "boundary_density": {"constant": 2.0},
        }})
        res = runner.invoke(main, ["verify", "--config", cfg, "--out", str(tmp_path / "o"),
                                   "--tol", tol])
        assert res.exit_code == 2, res.output
        assert "tol must be finite and nonnegative" in json.loads(res.output)["message"]


class TestCrosscheck:
    def test_error_table_shrinks_with_refinement(self, runner, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", {
            "rho0": {"constant": 1.0},
            "control": {"breakpoints": [0.0, 0.5, 1.5], "values": [0.6, 0.3]},
            "horizon": 1.5,
            "cells": [100, 400],
        })
        out = tmp_path / "out"
        res = runner.invoke(main, ["crosscheck", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = np.loadtxt(out / "crosscheck.csv", delimiter=",")
        assert rows[1, 1] < rows[0, 1]


class TestOptimize:
    def test_report_and_history_artifacts(self, runner, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", {
            "rho0": {"constant": 0.5},
            "demand": {"constant": 0.3},
            "horizon": 1.0,
            "optimize": {"control_cells": 3, "max_iters": 8},
        })
        out = tmp_path / "out"
        res = runner.invoke(main, ["optimize", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "report.json").read_text())
        assert report["best_cost"] >= 0.0
        assert all(v >= 0.0 for v in report["control_values"])
        assert isinstance(report["converged"], bool)
        assert 0.0 <= report["kkt_residual"] < float("inf")
        assert len(report["solves"]) == report["restarts"]
        assert all(isinstance(n, int) and n >= 1 for n in report["solves"])
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "# columns: restart,iteration,cost"


CROSS_CFG = {
    "rho0": {"constant": 1.0},
    "control": {"breakpoints": [0.0, 0.5, 1.5], "values": [0.6, 0.3]},
    "horizon": 1.5,
}
OPT_CFG = {
    "rho0": {"constant": 0.5},
    "demand": {"constant": 0.3},
    "horizon": 1.0,
    "optimize": {"control_cells": 3},
}


@pytest.mark.parametrize("command, cfg, field", [
    ("simulate", dict(SIM_CFG, trace_samples="abc"), "trace_samples"),
    ("simulate", dict(SIM_CFG, slice_samples="abc"), "slice_samples"),
    ("optimize", dict(OPT_CFG, optimize={"max_iters": "abc"}), "optimize.max_iters"),
    ("optimize", dict(OPT_CFG, optimize={"random_restarts": "abc"}),
     "optimize.random_restarts"),
    ("transfer", {"transfer": {"rho_lo": 0.0, "rho_hi": 2.0}, "trace_samples": "abc"},
     "trace_samples"),
    ("crosscheck", dict(CROSS_CFG, cells=["abc"]), "cells"),
    ("simulate", dict(SIM_CFG, trace_samples=-5), "trace_samples"),
    ("optimize", dict(OPT_CFG, optimize={"control_cells": 0}), "optimize.control_cells"),
    ("crosscheck", dict(CROSS_CFG, cells=[100, 0]), "cells"),
    ("crosscheck", dict(CROSS_CFG, cells=[float("inf")]), "cells"),
    # blocks reject the keys they do not read
    ("simulate", dict(SIM_CFG, law={"kind": "reciprocal", "derivatives": [1]}),
     "law.derivatives"),
    ("simulate", dict(SIM_CFG, rho0={"constnat": 1.0}), "rho0.constnat"),
    ("optimize", dict(OPT_CFG, optimize={"control_cell": 3}), "optimize.control_cell"),
    ("verify", {"verify": {"rho_lo": 1.0, "rho_hi": 2.0, "horizon": 2.5, "T": 1.0,
                           "boundary_density": {"constant": 2.0}}}, "verify.T"),
    # mistyped blocks and fields
    ("simulate", dict(SIM_CFG, law="abc"), "law"),
    ("simulate", dict(SIM_CFG, law=None), "law"),
    ("optimize", dict(OPT_CFG, optimize=[1]), "optimize"),
    ("optimize", dict(OPT_CFG, optimize=None), "optimize"),
    ("transfer", {"transfer": 5}, "transfer"),
    ("simulate", dict(SIM_CFG, horizon=[1.0]), "horizon"),
    ("simulate", dict(SIM_CFG, tol="abc"), "tol"),
    ("transfer", {"transfer": {"rho_lo": [0.0], "rho_hi": 2.0}}, "transfer.rho_lo"),
    ("transfer", {"transfer": {"rho_lo": 2.0, "rho_hi": 1.0}}, "transfer"),
    ("optimize", dict(OPT_CFG, optimize={"grad_tol": None}), "optimize.grad_tol"),
    ("simulate", {k: v for k, v in SIM_CFG.items() if k != "horizon"}, "horizon"),
    # a boolean is not a number, a count is whole, a grid study needs a grid
    ("simulate", dict(SIM_CFG, horizon=True), "horizon"),
    ("simulate", dict(SIM_CFG, trace_samples=2.7), "trace_samples"),
    ("simulate", dict(SIM_CFG, law={"kind": "tabulated", "grid": [0.0, True],
                                    "values": [1.0, 0.5]}), "law.grid"),
    ("crosscheck", dict(CROSS_CFG, cells=[]), "cells"),
    ("crosscheck", dict(CROSS_CFG, cells=[True]), "cells"),
    # malformed YAML names the whole file
    ("simulate", "rho0: {constant: 1.0", "<root>"),
    ("verify", "- [1, 2", "<root>"),
    # a negative weight makes J unbounded below, NaN poisons the line search
    ("optimize", dict(OPT_CFG, optimize={"tracking_weight": -1.0}), "optimize.tracking_weight"),
    ("optimize", dict(OPT_CFG, optimize={"tracking_weight": float("nan")}),
     "optimize.tracking_weight"),
    ("optimize", dict(OPT_CFG, optimize={"tracking_weight": float("inf")}),
     "optimize.tracking_weight"),
    # NaN or a negative value switches the convergence test off, .inf stops at once
    ("optimize", dict(OPT_CFG, optimize={"grad_tol": float("nan")}), "optimize.grad_tol"),
    ("optimize", dict(OPT_CFG, optimize={"grad_tol": -1.0}), "optimize.grad_tol"),
    ("optimize", dict(OPT_CFG, optimize={"grad_tol": float("inf")}), "optimize.grad_tol"),
    # 0 knots per window used to give the grid of 1
    ("simulate", dict(SIM_CFG, knots_per_window=0), "knots_per_window"),
    # a NaN speed used to fail the solve with exit 3
    ("simulate", dict(SIM_CFG, law={"kind": "tabulated", "grid": [0.0, 1.0],
                                    "values": [1.0, float("nan")]}), "law"),
    # each command rejects a root key it does not read; these used to exit 0
    ("simulate", dict(SIM_CFG, tabc=1), "tabc"),
    ("optimize", dict(OPT_CFG, knots_per_window=-5), "knots_per_window"),
    ("verify", {"verify": {"rho_lo": 1.0, "rho_hi": 2.0, "horizon": 2.5,
                           "boundary_density": {"constant": 2.0}}, "tol": float("nan")}, "tol"),
    ("transfer", {"transfer": {"rho_lo": 0.0, "rho_hi": 2.0}, "horizon": 1.0}, "horizon"),
    ("crosscheck", dict(CROSS_CFG, demand={"constant": 0.3}), "demand"),
])
def test_invalid_count_exits_2_with_field_path(runner, tmp_path, command, cfg, field):
    path = write_config(tmp_path / "c.yaml", cfg)
    res = runner.invoke(main, [command, "--config", path, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    diag = json.loads(res.output)
    assert diag["error"] == "validation"
    assert diag["field"] == field


def test_loader_builds_no_python_object(runner, tmp_path):
    # an unsafe loader would run the command and accept the unread key
    marker = tmp_path / "ran"
    path = write_config(tmp_path / "c.yaml", yaml.safe_dump(SIM_CFG)
                        + f"x: !!python/object/apply:os.system ['touch {marker}']\n")
    res = runner.invoke(main, ["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert json.loads(res.output)["field"] == "<root>"
    assert not marker.exists()


def test_zero_cells_option_exits_2(runner, tmp_path):
    path = write_config(tmp_path / "c.yaml", CROSS_CFG)
    res = runner.invoke(main, ["crosscheck", "--config", path, "--out", str(tmp_path / "o"),
                               "--cells", "0"])
    assert res.exit_code == 2, res.output
    assert json.loads(res.output)["field"] == "cells"


def test_nan_tol_exits_2(runner, tmp_path):
    cfg = write_config(tmp_path / "c.yaml", dict(SIM_CFG, tol=float("nan")))
    res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "tol must be positive" in json.loads(res.output)["message"]


@pytest.mark.parametrize("cfg, options", [
    (dict(SIM_CFG, tol=float("inf")), []), (SIM_CFG, ["--tol", "inf"]),
])
def test_infinite_tol_exits_2(runner, tmp_path, cfg, options):
    # every window stopped after one map application, and the run exited 0
    path = write_config(tmp_path / "c.yaml", cfg)
    res = runner.invoke(main, ["simulate", "--config", path, "--out", str(tmp_path / "o"),
                               *options])
    assert res.exit_code == 2, res.output
    assert "tol must be positive and finite" in json.loads(res.output)["message"]


def test_window_below_knot_resolution_exits_3(runner, tmp_path):
    # so dense a boundary density that the cap-length trial is rejected and the
    # a-priori window is about 2.5e-14 long
    path = write_config(tmp_path / "c.yaml", dict(SIM_CFG, rho0={"constant": 0.0},
                                                  boundary_density={"constant": 1.0e13}))
    res = runner.invoke(main, ["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert res.exit_code == 3, res.output
    diag = json.loads(res.output)
    assert diag["error"] == "solver"
    assert "knot resolution" in diag["message"]


def test_dense_initial_mass_is_solved_by_its_cap_length_trial(runner, tmp_path):
    # the a-priori window is about 5e-17 long, below the knot resolution, but
    # the first trial window, of length 0.9 / sup speed, converges
    cfg = {k: v for k, v in SIM_CFG.items() if k != "boundary_density"}
    path = write_config(tmp_path / "c.yaml", dict(cfg, rho0={"constant": 1.0e13},
                                                  control={"constant": 1.0}))
    res = runner.invoke(main, ["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert res.exit_code == 0, res.output
    u, rho0, T = ControlSignal.constant(1.0, 2.5), DensityProfile.constant(1.0e13), 2.5
    xi = simulate(rho0, reciprocal(), T, u=u).xi
    t = np.linspace(0.0, T, 200)
    oracle = ode_oracle(u, rho0, reciprocal(), T, t)
    assert np.max(np.abs(xi(t) - oracle)) <= 1e-12 * np.max(oracle)


def test_non_string_root_key_exits_2(runner, tmp_path):
    path = write_config(tmp_path / "c.yaml", "1: one\n" + yaml.safe_dump(SIM_CFG))
    res = runner.invoke(main, ["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert json.loads(res.output)["field"] == "1"


# -- fuzz: every config exits 0, 2 or 3, never with a traceback ------------------

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.floats(-2.0, 2.0), st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
)
MISSING = object()


def steps(end):
    """A step-function block on [0, end]: a constant or up to 3 cells."""
    values = st.floats(0.0, 2.0)
    cells = st.lists(values, min_size=1, max_size=3).map(lambda v: {
        "breakpoints": np.linspace(0.0, end, len(v) + 1).tolist(), "values": v})
    return st.one_of(st.builds(dict, constant=values), cells)


# the root keys each command reads
TRAJECTORY_KEYS = ["law", "rho0", "control", "boundary_density", "horizon", "tol",
                   "knots_per_window"]
ROOT_KEYS = {
    "simulate": TRAJECTORY_KEYS + ["demand", "trace_samples", "slice_samples"],
    "optimize": ["law", "rho0", "horizon", "demand", "tol", "optimize"],
    "transfer": ["transfer", "trace_samples"],
    "verify": ["verify"],
    "crosscheck": TRAJECTORY_KEYS + ["cells"],
}


@st.composite
def cli_runs(draw):
    """A command, a valid config of the root keys it reads with up to two fields
    junked or removed, and options."""
    command = draw(st.sampled_from(sorted(ROOT_KEYS)))
    T = draw(st.floats(0.1, 1.5))
    inflow = draw(st.sampled_from(["control", "boundary_density"]))
    transfers = st.lists(st.floats(0.0, 0.5), min_size=2, max_size=2).map(sorted)
    cfg = copy.deepcopy(draw(st.fixed_dictionaries({
        "law": st.sampled_from([{"kind": "reciprocal"}, {
            "kind": "tabulated", "grid": [0.0, 1.0, 2.0], "values": [1.0, 0.5, 0.3]}]),
        "rho0": steps(1.0), inflow: steps(T), "demand": steps(T), "horizon": st.just(T),
        "tol": st.just(1e-8), "trace_samples": st.integers(0, 16),
        "slice_samples": st.integers(0, 16), "knots_per_window": st.integers(0, 16),
        "cells": st.lists(st.integers(1, 40), max_size=2),
        "optimize": st.fixed_dictionaries({
            "control_cells": st.integers(1, 2), "max_iters": st.integers(0, 1),
            "random_restarts": st.integers(0, 1), "grad_tol": st.floats(0.0, 1.0),
            "tracking_weight": st.floats(0.0, 2.0)}),
        "transfer": transfers.map(lambda lh: {"rho_lo": lh[0], "rho_hi": lh[1]}),
        "verify": transfers.map(lambda lh: {  # candidate optimal: certified
            "rho_lo": lh[0], "rho_hi": lh[1], "horizon": 1.0 + 0.5 * (lh[0] + lh[1]),
            "boundary_density": {"constant": lh[1]}}),
    })))
    cfg = {k: v for k, v in cfg.items() if k in ROOT_KEYS[command]}
    for _ in range(draw(st.integers(0, min(2, len(cfg))))):  # never samples an empty cfg
        target = cfg
        key = draw(st.sampled_from(sorted(cfg)))
        if isinstance(cfg[key], dict) and cfg[key] and draw(st.booleans()):
            target = cfg[key]
            key = draw(st.one_of(st.sampled_from(sorted(target)), st.text(max_size=3)))
        value = draw(st.one_of(JUNK, st.just(MISSING)))
        if value is MISSING:
            target.pop(key, None)
        else:
            target[key] = value
    options = []
    for name, values in (("--cells", [None, None, "0", "2"]),
                         ("--tol", [None, None, "nan", "1e-8"])):
        value = draw(st.sampled_from(values))
        if value is not None:
            options += [name, value]
    return command, cfg, options


@settings(max_examples=200, deadline=None)
@given(run=cli_runs())
def test_fuzzed_configs_exit_0_2_or_3(tmp_path_factory, run):
    command, cfg, options = run
    tmp = tmp_path_factory.getbasetemp() / "fuzz"
    tmp.mkdir(exist_ok=True)
    path = write_config(tmp / "c.yaml", cfg)
    res = CliRunner().invoke(main, [command, "--config", path, "--out", str(tmp / "o"),
                                    *options])
    assert res.exit_code in (0, 2, 3), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    if res.exit_code == 2:
        assert "field" in json.loads(res.output)
