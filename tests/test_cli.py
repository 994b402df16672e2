"""CLI round trips: artifacts, determinism, validation failures."""

import copy
import gc
import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from reflow.cli import _loader_over, main
from reflow.fv import fv_solve
from reflow.laws import reciprocal, tabulated
from reflow.rules import number, numbers
from reflow.signals import ControlSignal, DensityProfile
from reflow.tracking import TrackingProblem, minimize
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
            res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out)])
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

    @pytest.mark.parametrize("tol", [float("nan"), -1])
    def test_tol_that_is_not_finite_and_nonnegative_exits_2(self, runner, tmp_path, tol):
        # verify.tol is the certificate tolerance; it used to exit 0, unsatisfied
        cfg = write_config(tmp_path / "c.yaml", {"verify": {
            "rho_lo": 1.0, "rho_hi": 2.0, "horizon": 2.5,
            "boundary_density": {"constant": 2.0}, "tol": tol,
        }})
        res = runner.invoke(main, ["verify", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        diag = json.loads(res.output)
        assert diag["field"] == "verify.tol"
        assert "tol must be finite and nonnegative" in diag["message"]


def gauss5_cell_averages(traj, n):
    """Averages of the slice at T over n equal cells: 5-point Gauss on the slice
    panels merged with the cell edges, summed per cell."""
    T = traj.horizon
    cells = np.linspace(0.0, 1.0, n + 1)
    edges = np.union1d(traj.slice_panels(T), cells)
    y, w = np.polynomial.legendre.leggauss(5)
    h = np.diff(edges)
    nodes = edges[:-1, None] + h[:, None] * (0.5 + 0.5 * y)
    part = 0.5 * h * (traj.slice_values(T, nodes.ravel()).reshape(-1, 5) @ w)
    cell = np.clip(cells.searchsorted(0.5 * (edges[:-1] + edges[1:])) - 1, 0, n - 1)
    return np.bincount(cell, part, n) * n


class TestCrosscheck:
    def test_l1_error_is_against_the_exact_cell_averages(self, runner, tmp_path):
        # the reference used to be 8 midpoint samples per cell, 0.5-2.7% off the
        # FV error it measures
        cfg = dict(CROSS_CFG, rho0={"breakpoints": [0.0, 0.3, 1.0], "values": [1.4, 0.8]},
                   cells=[100, 400])
        out = tmp_path / "out"
        res = runner.invoke(main, ["crosscheck", "--config", write_config(tmp_path / "c.yaml", cfg),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = np.loadtxt(out / "crosscheck.csv", delimiter=",")
        rho0 = DensityProfile([0.0, 0.3, 1.0], [1.4, 0.8])
        u = ControlSignal([0.0, 0.5, 1.5], [0.6, 0.3])
        traj = simulate(rho0, reciprocal(), 1.5, u=u)
        for n, l1, _ in rows:
            state, _, _ = fv_solve(rho0, reciprocal(), u, 1.5, int(n))
            ref = np.abs(state.cells - gauss5_cell_averages(traj, int(n))).mean()
            assert abs(l1 - ref) <= 1e-5 * ref

    @pytest.mark.parametrize("law", [reciprocal(), tabulated([0.0, 1.0, 2.5], [1.0, 0.6, 0.3])])
    @pytest.mark.parametrize("mode", ["u", "boundary_density"])
    def test_tail_mass_gives_the_cell_averages(self, mode, law):
        # the mass past x at time T is Inflow.outflow with the curve at
        # xi(T) + 1 - x, before and after the curve leaves x = 1
        rho0 = DensityProfile([0.0, 0.3, 0.7, 1.0], [1.2, 0.4, 0.9])
        signal = ControlSignal([0.0, 0.6, 1.4, 2.5], [0.7, 0.2, 0.5])
        traj = simulate(rho0, law, 2.5, **{mode: signal})
        assert traj.xi(2.5) > 1.0
        for n in (7, 250, 1000):
            x = np.linspace(0.0, 1.0, n + 1)
            tail = traj.inflow.outflow(rho0, traj.xi(2.5) + 1.0 - x, traj.boundary_mass)
            ref = gauss5_cell_averages(traj, n)
            # relative in L1, the norm crosscheck measures in
            assert np.sum(np.abs(-n * np.diff(tail) - ref)) <= 1e-9 * np.sum(ref)

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
SHORT = {"breakpoints": [0.0, 0.5], "values": [0.5]}  # a step signal shorter than every horizon
VERIFY = {"rho_lo": 1.0, "rho_hi": 2.0, "horizon": 2.5}


def both(end, keys=("breakpoints", "values")):
    """A step block that gives a constant and also the ``keys`` of cells on [0, end]."""
    cells = {"breakpoints": [0.0, end], "values": [2.0]}
    return {"constant": 1.0, **{k: cells[k] for k in keys}}


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
    # an infinite horizon reached np.linspace before any check and ended in a traceback
    ("optimize", dict(OPT_CFG, horizon=float("inf")), "horizon"),
    ("verify", {"verify": {"rho_lo": 1.0, "rho_hi": 2.0, "horizon": float("nan"),
                           "boundary_density": {"constant": 2.0}}}, "verify.horizon"),
    # a NaN equilibrium exited 0 with NaN in certificate.json; -1 named <root>
    ("verify", {"verify": {"rho_lo": 1.0, "rho_hi": float("nan"), "horizon": 2.5,
                           "boundary_density": {"constant": 2.0}}}, "verify.rho_hi"),
    ("verify", {"verify": {"rho_lo": -1.0, "rho_hi": 2.0, "horizon": 2.5,
                           "boundary_density": {"constant": 2.0}}}, "verify.rho_lo"),
    ("simulate", dict(SIM_CFG, law={"kind": "foo"}), "law.kind"),
    # a step signal that ends before T named <root>, except simulate's demand
    ("simulate", {**{k: v for k, v in SIM_CFG.items() if k != "boundary_density"},
                  "control": SHORT}, "control"),
    ("simulate", dict(SIM_CFG, boundary_density=SHORT), "boundary_density"),
    ("crosscheck", dict(CROSS_CFG, control=SHORT), "control"),
    ("verify", {"verify": {"rho_lo": 1.0, "rho_hi": 2.0, "horizon": 2.5, "control": SHORT}},
     "verify.control"),
    ("optimize", dict(OPT_CFG, demand=SHORT), "demand"),
    # a pair or a horizon the certificate rejects named <root>
    ("verify", {"verify": {"rho_lo": 2.0, "rho_hi": 1.0, "horizon": 2.5,
                           "boundary_density": {"constant": 1.0}}}, "verify"),
    ("verify", {"verify": {"rho_lo": 1.0, "rho_hi": 2.0, "horizon": 1.0,
                           "boundary_density": {"constant": 2.0}}}, "verify"),
    # a step block that gives a constant and cells ran on the constant alone
    ("simulate", dict(SIM_CFG, rho0=both(1.0)), "rho0"),
    ("simulate", dict(SIM_CFG, rho0=both(1.0, ["values"])), "rho0"),
    ("simulate", dict(SIM_CFG, boundary_density=both(2.5)), "boundary_density"),
    ("simulate", dict(SIM_CFG, boundary_density=both(2.5, ["breakpoints"])), "boundary_density"),
    ("simulate", {**{k: v for k, v in SIM_CFG.items() if k != "boundary_density"},
                  "control": both(2.5)}, "control"),
    ("simulate", dict(SIM_CFG, demand=both(2.5)), "demand"),
    ("optimize", dict(OPT_CFG, demand=both(1.0)), "demand"),
    ("crosscheck", dict(CROSS_CFG, control=both(1.5)), "control"),
    ("verify", {"verify": dict(VERIFY, control=both(2.5))}, "verify.control"),
    ("verify", {"verify": dict(VERIFY, boundary_density=both(2.5))}, "verify.boundary_density"),
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


# -- the config loader is yaml.safe_load, with a fast path for plain floats -------

LOADERS = [_loader_over(base) for base in
           (yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader))]


def assert_loads_as_safe_load(text):
    # repr tells apart 1.0 from 1, True and '1.0', and -0.0 from 0.0
    expected = repr(yaml.safe_load(text))
    for loader in LOADERS:
        assert repr(yaml.load(text, Loader=loader)) == expected, (loader.__mro__[1], text)


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(st.floats(), max_size=6), flow=st.booleans())
def test_loader_reads_printed_float_lists_as_safe_load(xs, flow):
    # repr prints 1e-05, inf and nan, which YAML 1.1 reads as strings
    items = list(map(repr, xs))
    text = ("[" + ", ".join(items) + "]") if flow else "".join(f"- {s}\n" for s in items)
    assert_loads_as_safe_load(text)
    assert_loads_as_safe_load(f"values: {text}" if flow else f"values:\n{text}")


@pytest.mark.parametrize("text", [
    "1_000.5", "1:30.5", ".inf", "-.inf", ".nan", ".5", "+1.", "-0.0", "1.0e+5",
    "1e5", "'1.5'", "!!str 1.5", "! 1.5", "!!float 2", "[1.5, !!float 1_0.5]",
    "[1.5, .inf, -.inf, 1:30.5, 1.0e+5, +2.]", "[1_000.5, 1__0.5, 2_.5]",
    "a: &x [1.5, -0., 2.]\nb: *x", "[&y 1.5, *y]", "[1.5, true]", "[1.5, '2.5']",
    "[1.5, 1e5]", "[]", "[[1.5, 2.5], [], [-3., [4.5]]]", "{1.5: [2.5]}",
])
def test_loader_reads_documents_as_safe_load(text):
    assert_loads_as_safe_load(text)


@pytest.mark.parametrize("values, field", [
    ("[0.0, true, 1.0]", "rho0.values"),
    # a NaN is a number; DensityProfile rejects it and names its block
    ("[0.0, .nan, 1.0]", "rho0"),
])
def test_array_items_keep_the_number_rule(runner, tmp_path, values, field):
    path = write_config(tmp_path / "c.yaml", (
        "control: {breakpoints: [0.0, 0.5, 1.5], values: [0.6, 0.3]}\nhorizon: 1.5\n"
        f"rho0: {{breakpoints: [0.0, 0.3, 0.6, 1.0], values: {values}}}\n"))
    res = runner.invoke(main, ["crosscheck", "--config", path, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    diag = json.loads(res.output)
    assert diag["field"] == field and "values" in diag["message"]


@pytest.mark.parametrize("x", [[0.25, -0.0, 1e300], [], [1, 2.5], [np.float64(0.5), 3]])
def test_numbers_is_number_item_by_item(x):
    got, expected = numbers(x, "v"), np.array([number(v, "v") for v in x])
    assert got.dtype == expected.dtype == float
    assert np.array_equal(got, expected) and np.array_equal(np.signbit(got), np.signbit(expected))


def test_nan_tol_exits_2(runner, tmp_path):
    cfg = write_config(tmp_path / "c.yaml", dict(SIM_CFG, tol=float("nan")))
    res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "tol must be positive" in json.loads(res.output)["message"]


def test_infinite_tol_exits_2(runner, tmp_path):
    # every window stopped after one map application, and the run exited 0
    path = write_config(tmp_path / "c.yaml", dict(SIM_CFG, tol=float("inf")))
    res = runner.invoke(main, ["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    diag = json.loads(res.output)
    assert diag["field"] == "tol"
    assert "tol must be positive and finite" in diag["message"]


COMMANDS = ["simulate", "optimize", "transfer", "verify", "crosscheck"]


@pytest.mark.parametrize("command", COMMANDS)
def test_help_lists_only_config_and_out(runner, command):
    res = runner.invoke(main, [command, "--help"])
    assert res.exit_code == 0, res.output
    options = [line.split()[0] for line in res.output.splitlines()
               if line.lstrip().startswith("--")]
    assert options == ["--config", "--out", "--help"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("option", ["--seed", "--cells", "--tol"])
def test_value_options_are_usage_errors(runner, tmp_path, command, option):
    # the config is the whole input; these options used to bypass its rules
    # (simulate took tol: abc with --tol 1e-8, transfer ignored all three)
    path = write_config(tmp_path / "c.yaml", SIM_CFG)
    res = runner.invoke(main, [command, "--config", path, "--out", str(tmp_path / "o"),
                               option, "3"])
    assert res.exit_code == 2, res.output
    assert "No such option" in res.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, cfg", [
    ("simulate", SIM_CFG), ("optimize", OPT_CFG), ("crosscheck", dict(CROSS_CFG, cells=[50])),
    ("transfer", {"transfer": {"rho_lo": 0.0, "rho_hi": 2.0}, "trace_samples": 8}),
    ("verify", {"verify": {"rho_lo": 1.0, "rho_hi": 2.0, "horizon": 2.5, "tol": 1e-6,
                           "boundary_density": {"constant": 2.0}}}),
])
def test_resolved_config_is_the_loaded_config(runner, tmp_path, command, cfg):
    path = write_config(tmp_path / "c.yaml", cfg)
    out = tmp_path / "o"
    res = runner.invoke(main, [command, "--config", path, "--out", str(out)])
    assert res.exit_code == 0, res.output
    with open(path) as f:
        assert json.loads((out / "resolved_config.json").read_text()) == yaml.safe_load(f)


def test_optimize_seed_is_the_seed_of_minimize(runner, tmp_path):
    # optimize.seed draws the random restarts, as seed= does in the library
    opt = {"control_cells": 3, "max_iters": 2, "random_restarts": 2}
    reports, histories = {}, {}
    for seed in (0, 3):
        path = write_config(tmp_path / "c.yaml",
                            dict(OPT_CFG, optimize=dict(opt, seed=seed)))
        out = tmp_path / str(seed)
        res = runner.invoke(main, ["optimize", "--config", path, "--out", str(out)])
        assert res.exit_code == 0, res.output
        reports[seed] = json.loads((out / "report.json").read_text())
        histories[seed] = (out / "history.csv").read_text()
    problem = TrackingProblem(DensityProfile.constant(0.5), ControlSignal.constant(0.3, 1.0),
                              reciprocal(), 1.0, np.linspace(0.0, 1.0, 4))
    for seed, report in reports.items():
        lib = minimize(problem, seed=seed, max_iters=2, grad_tol=1e-6, extra_random_restarts=2)
        assert report["best_cost"] == lib.best_cost
        assert report["control_values"] == lib.best_control.values.tolist()
        assert report["solves"] == lib.solves
        assert histories[seed].splitlines()[1:] == [
            f"{r},{i},{j!r}" for r, hist in enumerate(lib.cost_history)
            for i, j in enumerate(hist)]
    assert histories[0] != histories[3]


# a flux-mode input with mass 1e6 in the last 1e-7 of the domain: the cap-length
# trial is rejected and the a-priori window is 5e-17 long
_DENSE_OUTLET_CFG = {k: v for k, v in SIM_CFG.items() if k != "boundary_density"}
_DENSE_OUTLET_CFG.update(rho0={"breakpoints": [0.0, 0.9999999, 1.0], "values": [0.0, 1.0e13]},
                         control={"constant": 0.0})


def test_window_below_knot_resolution_exits_3(runner, tmp_path):
    path = write_config(tmp_path / "c.yaml", _DENSE_OUTLET_CFG)
    res = runner.invoke(main, ["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert res.exit_code == 3, res.output
    diag = json.loads(res.output)
    assert diag["error"] == "solver"
    assert "below the knot resolution" in diag["message"]


def test_dense_boundary_density_is_solved_in_closed_form(runner, tmp_path):
    # rho0 = 0 and b = 1e13 once exited 3, its a-priori window 2.5e-14 long; the
    # density-mode curve has no windows: xi(t) = (sqrt(1 + 2bt) - 1)/b
    b = 1.0e13
    path = write_config(tmp_path / "c.yaml", dict(SIM_CFG, rho0={"constant": 0.0},
                                                  boundary_density={"constant": b}))
    res = runner.invoke(main, ["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert res.exit_code == 0, res.output
    xi = simulate(DensityProfile.constant(0.0), reciprocal(), 2.5,
                  boundary_density=ControlSignal.constant(b, 2.5)).xi
    t = np.linspace(0.0, 2.5, 2001)
    assert np.max(np.abs(xi(t) - 2.0 * t / (np.sqrt(1.0 + 2.0 * b * t) + 1.0))) <= 1e-10


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
    """A command and a valid config of the root keys it reads, with up to two
    fields junked or removed."""
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
            "tracking_weight": st.floats(0.0, 2.0), "seed": st.integers(0, 3)}),
        "transfer": transfers.map(lambda lh: {"rho_lo": lh[0], "rho_hi": lh[1]}),
        "verify": transfers.map(lambda lh: {  # candidate optimal: certified
            "rho_lo": lh[0], "rho_hi": lh[1], "horizon": 1.0 + 0.5 * (lh[0] + lh[1]),
            "boundary_density": {"constant": lh[1]}, "tol": 1e-6}),
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
    return command, cfg


@settings(max_examples=200, deadline=None)
@given(run=cli_runs())
def test_fuzzed_configs_exit_0_2_or_3(tmp_path_factory, run):
    command, cfg = run
    tmp = tmp_path_factory.getbasetemp() / "fuzz"
    tmp.mkdir(exist_ok=True)
    path = write_config(tmp / "c.yaml", cfg)
    res = CliRunner().invoke(main, [command, "--config", path, "--out", str(tmp / "o")])
    assert res.exit_code in (0, 2, 3), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    if res.exit_code == 2:
        assert "field" in json.loads(res.output)


# a run that succeeds, exits 2 (malformed YAML, a bad field, a recursive alias)
# or exits 3 (a window below the knot resolution)
_COLLECTOR_RUNS = [
    pytest.param(yaml.safe_dump(SIM_CFG), 0, id="ok"),
    pytest.param("horizon: [1.0\n", 2, id="malformed"),
    pytest.param(yaml.safe_dump(dict(SIM_CFG, horizon="soon")), 2, id="bad-field"),
    pytest.param("rho0: &a [*a]\n", 2, id="recursive-alias"),
    pytest.param(yaml.safe_dump(_DENSE_OUTLET_CFG), 3, id="solver"),
]


@pytest.mark.parametrize("text, code", _COLLECTOR_RUNS)
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_config_loads_with_the_collector_paused(runner, tmp_path, monkeypatch, text, code, enabled):
    # the load pauses the cyclic collector, and the run leaves it as it found it
    seen, yaml_load = [], yaml.load

    def load(stream, Loader):
        seen.append(gc.isenabled())
        return yaml_load(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", load)
    path = write_config(tmp_path / "c.yaml", text)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        res = runner.invoke(main, ["simulate", "--config", path, "--out", str(tmp_path / "o")])
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert res.exit_code == code, res.output
    assert seen == [False]
    assert after is enabled
