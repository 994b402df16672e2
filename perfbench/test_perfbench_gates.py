"""Each benchmark gate passes a real op and rejects a deliberately corrupted one."""

import dataclasses

import numpy as np
import pytest

import workloads as wl
from gates import crosscheck_gate, flux_gate, tracking_gate, transfer_gate


def real(name, index, tmp_path):
    w = wl.WORKLOADS[name]
    inp = w.make(1, index, tmp_path / str(index))
    return w, inp, w.op(inp, None)


@pytest.fixture(scope="module")
def flux(tmp_path_factory):
    return real("flux_sim", 0, tmp_path_factory.mktemp("flux"))


def test_flux_gate_passes_real_op(flux):
    w, inp, res = flux
    assert w.check(inp, res) == []


@pytest.mark.parametrize("corrupt, message", [
    (lambda r: r["W"].__setitem__(2000, r["W"][2000] + 1e-6), "mass balance"),
    (lambda r: r["final"].__setitem__(10, -1e-9), "negative density"),
    (lambda r: r.__setitem__("tv", r["tv"] + 10.0), "|W'|"),
    (lambda r: r["eps"][1].reverse(), "halving-monotone"),
])
def test_flux_gate_rejects_corruption(flux, corrupt, message):
    w, inp, res = flux
    res = {k: (v.copy() if hasattr(v, "copy") else v) for k, v in res.items()}
    res["eps"] = [list(row) for row in res["eps"]]
    corrupt(res)
    bad = w.check(inp, res)
    assert any(message in b for b in bad), bad


def test_flux_gate_rejects_slope_outside_envelope():
    clean = dict(mass_residual=np.zeros(3), M=1.0, slopes=np.array([0.6, 0.9]),
                 lam_lo=0.5, lam_hi=1.0, densities=np.ones(3), tv=0.5,
                 eps=[[3.0, 2.0, 1.0]])
    assert flux_gate(**clean) == []
    bad = flux_gate(**{**clean, "slopes": np.array([0.6, 1.0 + 1e-9])})
    assert any("envelope" in b for b in bad)


@pytest.mark.parametrize("index, candidate", [(0, True), (1, False)])
def test_transfer_gate(tmp_path, index, candidate):
    w, inp, cert = real("transfer_cert", index, tmp_path)
    assert (inp.tau == 0.0) == candidate
    assert w.check(inp, cert) == []
    assert w.check(inp, dataclasses.replace(cert, satisfied=False))
    # a candidate optimum must have zero slack, any other transfer nonnegative
    assert w.check(inp, dataclasses.replace(cert, slack=1e-3 if candidate else -1e-3))


def test_transfer_gate_rejects_negative_slack_only_off_candidates():
    assert transfer_gate(satisfied=True, slack=-1e-9, candidate=True) == []
    assert transfer_gate(satisfied=True, slack=-1e-9, candidate=False)


def test_tracking_gate(tmp_path):
    w, problem, report = real("tracking", 0, tmp_path)
    assert w.check(problem, report) == []
    rising = dataclasses.replace(
        report, cost_history=[h + [h[-1] + 1e-9] for h in report.cost_history])
    assert any("rose" in b for b in w.check(problem, rising))
    worse = dataclasses.replace(report, best_cost=report.best_cost + 10.0)
    assert any("comparator" in b for b in w.check(problem, worse))


def test_tracking_gate_on_plain_values():
    assert tracking_gate(cost_history=[[3.0, 2.0]], best_cost=2.0,
                         comparator_costs=[2.5, 3.0]) == []
    assert tracking_gate(cost_history=[[3.0, 2.0]], best_cost=2.6,
                         comparator_costs=[2.5, 3.0])


def test_crosscheck_gate(tmp_path):
    w, inp, code = real("crosscheck_cli", 0, tmp_path)
    assert code == 0
    table = (inp.out / "crosscheck.csv").read_text()
    assert w.check(inp, code) == []
    rows = [line.split(",") for line in table.splitlines() if not line.startswith("#")]
    rows[-1][1] = repr(float(rows[-1][1]) * 3.0)  # breaks the refinement ratio
    (inp.out / "crosscheck.csv").write_text(
        "\n".join(",".join(r) for r in rows) + "\n")
    assert any("ratios" in b for b in w.check(inp, 0))
    assert w.check(inp, 2) == ["crosscheck exited with code 2"]


def test_crosscheck_gate_on_plain_values():
    cells = [1000, 2000, 4000]
    assert crosscheck_gate(exit_code=0, cells=cells, l1_errors=[8e-3, 4e-3, 2e-3]) == []
    bad = crosscheck_gate(exit_code=0, cells=cells, l1_errors=[24e-3, 12e-3, 6e-3])
    assert any("4000 cells" in b for b in bad)
