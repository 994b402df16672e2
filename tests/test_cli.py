"""CLI round trips: artifacts, determinism, validation failures."""

import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from reflow.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def write_config(path, payload):
    path.write_text(yaml.safe_dump(payload))
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
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "# columns: restart,iteration,cost"
