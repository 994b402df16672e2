"""The benchmark tracer wraps reflow's entry points by name.

``perfbench/spans.py`` patches module and class attributes through
``owner.__dict__[name]``, so renaming or moving a function it wraps breaks
the traced benchmark run. This test makes that a failure of the test suite.
"""

from pathlib import Path

import numpy as np

import reflow.fv as fv
import reflow.transport as transport
from reflow.laws import reciprocal
from reflow.signals import ControlSignal, DensityProfile

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_a_simulate_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    points = spans.SPAN_POINTS + spans.COUNT_POINTS
    originals = [owner.__dict__[name] for owner, name, _ in points]
    rho0 = DensityProfile([0.0, 0.5, 1.0], [1.0, 0.5])
    u = ControlSignal([0.0, 1.0, 2.0], [0.8, 0.2])
    tracer = spans.Tracer()
    with tracer.installed(), tracer.op(0):
        traj = transport.simulate(rho0, reciprocal(), 2.0, u=u)
        err = traj.tracking_error_sq(ControlSignal.constant(0.3, 2.0))

    assert all(owner.__dict__[name] is fn for (owner, name, _), fn in zip(points, originals))
    assert np.isfinite(err)
    names = {row[0] for row in tracer.spans}
    assert {"transport.simulate", "characteristics.solve_xi",
            "transport.tracking_error_sq", "characteristics.inverse"} <= names
    assert tracer.counted("characteristics.solves", None, {0}) == 1
    assert tracer.counted("characteristics.knots", None, {0}) == traj.xi.times.size
    assert tracer.counted("signals.cumulative", "characteristics", {0}) > 0
    assert tracer.counted("laws.bounds", "characteristics", {0}) > 0


def test_traced_simulate_returns_the_untraced_curve(monkeypatch):
    # the solver's own candidate curves run through the class-level wrappers
    # of CharacteristicCurve; tracing must not change a single bit
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    rho0 = DensityProfile([0.0, 0.5, 1.0], [1.0, 0.5])
    u = ControlSignal([0.0, 1.0, 2.0], [0.8, 0.2])
    b = ControlSignal([0.0, 0.3, 2.0], [0.4, 1.5])
    runs = [dict(u=u), dict(boundary_density=b)]
    bare = [transport.simulate(rho0, reciprocal(), 2.0, **kw).xi for kw in runs]
    tracer = spans.Tracer()
    with tracer.installed(), tracer.op(0):
        traced = [transport.simulate(rho0, reciprocal(), 2.0, **kw).xi for kw in runs]
    assert tracer.counted("characteristics.solves", None, {0}) == 2
    for x, y in zip(bare, traced):
        for name in ("times", "values", "slopes"):
            assert np.array_equal(getattr(x, name), getattr(y, name))


def test_tracer_counts_one_fv_step_per_march_step(monkeypatch):
    # fv.steps_per_op counts the march's calls of fv_step through its module name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    rho0 = DensityProfile([0.0, 0.5, 1.0], [1.0, 0.5])
    u = ControlSignal([0.0, 1.0, 2.0], [0.8, 0.2])
    tracer = spans.Tracer()
    with tracer.installed(), tracer.op(0):
        _, times, _ = fv.fv_solve(rho0, reciprocal(), u, 2.0, n_cells=300)
    assert tracer.counted("fv.step", None, {0}) == times.size - 1 > 0


def test_layer_probes_run_and_read_positive(monkeypatch):
    # the probes call solve_xi, apply_F and fv_step directly, as `--trace 1` does
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import probes

    values = {**probes.characteristics_probes(), **probes.fv_probe()}
    assert len(values) == 4
    assert all(np.isfinite(v) and v > 0 for v in values.values())
