"""Step-function primitives: exact integrals, clamping, validation."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reflow
from reflow.signals import ControlSignal, DensityProfile, PiecewiseConstant, distinct, segment


def overlap_integral(breakpoints, values, a, b):
    """Independent oracle: sum of interval overlaps, plain python loop."""
    a = max(a, breakpoints[0])
    b = min(b, breakpoints[-1])
    total = 0.0
    for lo, hi, v in zip(breakpoints[:-1], breakpoints[1:], values):
        total += v * max(0.0, min(hi, b) - max(lo, a))
    return total


@pytest.fixture
def random_steps():
    rng = np.random.default_rng(42)
    out = []
    for _ in range(25):
        n = rng.integers(1, 12)
        bp = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 3.0, n))))
        bp = np.unique(bp)
        vals = rng.uniform(0.0, 5.0, bp.size - 1)
        out.append(PiecewiseConstant(bp, vals))
    return out


class TestConstruction:
    def test_rejects_short_breakpoints(self):
        with pytest.raises(ValueError):
            PiecewiseConstant([0.0], [])

    def test_rejects_unsorted_breakpoints(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PiecewiseConstant([0.0, 1.0, 0.5], [1.0, 1.0])

    def test_rejects_wrong_value_count(self):
        with pytest.raises(ValueError, match="cell values"):
            PiecewiseConstant([0.0, 1.0], [1.0, 2.0])

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PiecewiseConstant([0.0, 1.0], [-0.1])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            PiecewiseConstant([0.0, np.inf], [1.0])

    def test_density_must_span_unit_interval(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            DensityProfile([0.0, 0.5], [1.0])

    def test_control_must_start_at_zero(self):
        with pytest.raises(ValueError, match="t = 0"):
            ControlSignal([0.5, 1.0], [1.0])


class TestEvaluation:
    def test_right_continuity_at_breakpoint(self):
        f = PiecewiseConstant([0.0, 1.0, 2.0], [3.0, 5.0])
        assert f(1.0) == 5.0
        assert f(1.0 - 1e-12) == 3.0

    def test_clamps_outside_domain(self):
        f = PiecewiseConstant([0.0, 1.0, 2.0], [3.0, 5.0])
        assert f(-1.0) == 3.0 and f(10.0) == 5.0
        assert f.cumulative(-1.0) == 0.0
        assert f.cumulative(10.0) == f.total_mass

    def test_vectorized_matches_scalar(self):
        f = PiecewiseConstant([0.0, 0.3, 1.0, 2.0], [1.0, 0.0, 4.0])
        x = np.linspace(-0.5, 2.5, 301)
        assert np.array_equal(f(x), np.array([f(float(xx)) for xx in x]))


class TestIntegrals:
    def test_cumulative_matches_overlap_oracle(self, random_steps):
        rng = np.random.default_rng(7)
        for f in random_steps:
            a0, b0 = f.domain
            for x in rng.uniform(a0 - 0.5, b0 + 0.5, 20):
                expected = overlap_integral(f.breakpoints, f.values, a0, x)
                assert abs(f.cumulative(x) - expected) <= 1e-10

    def test_integrate_matches_overlap_oracle(self, random_steps):
        rng = np.random.default_rng(8)
        for f in random_steps:
            a0, b0 = f.domain
            pts = np.sort(rng.uniform(a0, b0, 2))
            expected = overlap_integral(f.breakpoints, f.values, pts[0], pts[1])
            assert abs(f.integrate(pts[0], pts[1]) - expected) <= 1e-10

    def test_cumulative_is_exact_at_every_breakpoint(self, random_steps):
        for f in random_steps:
            prefix = np.concatenate(([0.0], np.cumsum(f.values * np.diff(f.breakpoints))))
            assert np.array_equal(f.cumulative(f.breakpoints), prefix)
            assert np.array_equal([f.cumulative(b) for b in f.breakpoints], prefix)

    def test_cumulative_clamps_to_zero_and_total_mass(self, random_steps):
        for f in random_steps:
            a0, b0 = f.domain
            below = f.cumulative([a0 - 1.0, -np.inf, a0])
            above = f.cumulative([b0 + 1e-9, np.inf, 2.0 * b0 + 1.0])
            assert np.array_equal(below, [0.0, 0.0, 0.0])
            assert np.array_equal(above, [f.total_mass] * 3)

    def test_cumulative_of_a_scalar_is_a_float(self):
        f = PiecewiseConstant([0.0, 0.5, 2.0], [1.0, 3.0])
        for x in (0.7, np.float64(0.7), 1, np.array(0.7), -1.0, 5.0):
            assert type(f.cumulative(x)) is float
        assert isinstance(f.cumulative([0.7]), np.ndarray)

    def test_cumulative_matches_the_cell_formula_to_a_few_ulp(self, random_steps):
        # the cell-by-cell formula cum[i] + (x - bp[i]) * values[i] is the oracle
        rng = np.random.default_rng(9)
        for f in random_steps:
            bp, v = f.breakpoints, f.values
            cum = np.concatenate(([0.0], np.cumsum(v * np.diff(bp))))
            x = rng.uniform(*f.domain, 200)
            i = np.searchsorted(bp, x, side="right") - 1
            expected = cum[i] + (x - bp[i]) * v[i]
            assert np.all(np.abs(f.cumulative(x) - expected) <= 4 * np.spacing(expected))

    def test_integrate_rejects_reversed_interval(self):
        f = PiecewiseConstant([0.0, 1.0], [1.0])
        with pytest.raises(ValueError, match="a <= b"):
            f.integrate(0.7, 0.2)

    @pytest.mark.parametrize("a, b", [(float("nan"), 1.0), (0.2, float("nan"))])
    def test_integrate_rejects_nan_ends(self, a, b):
        # a > b is False on NaN, so a NaN end came back as a NaN integral
        f = PiecewiseConstant([0.0, 1.0], [1.0])
        with pytest.raises(ValueError, match="a <= b"):
            f.integrate(a, b)

    def test_lp_norms(self):
        f = PiecewiseConstant([0.0, 1.0, 3.0], [2.0, 1.0])
        assert f.lp_norm(1) == pytest.approx(4.0)
        assert f.lp_norm(2) == pytest.approx(np.sqrt(6.0))
        with pytest.raises(ValueError):
            f.lp_norm(3)
        # True == 1, so lp_norm(True) returned the L1 norm 0.75
        with pytest.raises(ValueError, match="unsupported exponent"):
            DensityProfile([0.0, 0.5, 1.0], [1.0, 0.5]).lp_norm(True)

    @given(st.floats(0, 2), st.floats(0, 2), st.floats(0, 2))
    @settings(max_examples=50, deadline=None)
    def test_integral_additivity(self, a, b, c):
        f = PiecewiseConstant([0.0, 0.5, 1.1, 2.0], [1.0, 3.0, 0.5])
        lo, mid, hi = np.sort([a, b, c])
        left = f.integrate(lo, mid) + f.integrate(mid, hi)
        assert f.integrate(lo, hi) == pytest.approx(left, abs=1e-12)

    @given(st.floats(-1, 3), st.floats(-1, 3))
    @settings(max_examples=50, deadline=None)
    def test_cumulative_is_monotone(self, a, b):
        f = PiecewiseConstant([0.0, 0.5, 1.1, 2.0], [1.0, 3.0, 0.5])
        if a <= b:
            assert f.cumulative(a) <= f.cumulative(b) + 1e-15


class TestLookup:
    def test_segment_side_at_a_breakpoint(self):
        grid = np.array([0.0, 0.5, 1.1, 2.0])
        assert segment(grid, 0.5) == 1
        assert segment(grid, 0.5, side="left") == 0
        assert np.array_equal(segment(grid, [-1.0, 0.0, 2.0, 5.0]), [0, 0, 2, 2])
        assert np.array_equal(segment(grid, [-1.0, 0.0, 2.0, 5.0], side="left"), [0, 0, 2, 2])

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=8, unique=True),
           st.lists(st.one_of(st.floats(-6, 6), st.sampled_from([np.nan, np.inf, -np.inf])),
                    max_size=12),
           st.sampled_from(["left", "right"]))
    @settings(max_examples=200, deadline=None)
    def test_segment_is_the_clamped_cell_index(self, grid, x, side):
        # one search on the interior breakpoints gives the index of the
        # search on the whole grid, clamped to the cells, for every x
        grid, x = np.sort(grid), np.array(x)
        clamped = np.clip(np.searchsorted(grid, x, side=side) - 1, 0, grid.size - 2)
        assert np.array_equal(segment(grid, x, side=side), clamped)

    def test_left_limit(self):
        f = PiecewiseConstant([0.0, 0.5, 1.1, 2.0], [1.0, 3.0, 0.5])
        # at a breakpoint: the cell before it, while f itself takes the cell after
        assert f.left_limit(0.5) == 1.0 and f(0.5) == 3.0
        assert f.left_limit(1.1) == 3.0 and f(1.1) == 0.5
        x = np.array([0.2, 0.7, 1.5, 1.99])
        assert np.array_equal(f.left_limit(x), f(x))
        # clamped below and above the domain
        assert np.array_equal(f.left_limit([-1.0, 0.0, 2.0, 3.0]), [1.0, 1.0, 0.5, 0.5])


class TestHelpers:
    def test_from_function_uses_midpoints(self):
        f = PiecewiseConstant.from_function(lambda x: x, 0.0, 1.0, n_cells=4)
        assert np.allclose(f.values, [0.125, 0.375, 0.625, 0.875])

    def test_control_constant_and_horizon(self):
        u = ControlSignal.constant(0.7, 2.5)
        assert u.horizon == 2.5
        assert u.total_mass == pytest.approx(1.75)


# a few values, so that repeats and both signed zeros are common
_FEW = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, 3.0, 0.1 + 0.2, 0.3])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_FEW, st.floats(allow_nan=False)), max_size=40))
def test_distinct_is_np_unique_bit_for_bit(xs):
    got, want = distinct(np.array(xs, dtype=float)), np.unique(np.array(xs, dtype=float))
    assert got.dtype == want.dtype and np.array_equal(got.view(np.int64), want.view(np.int64))


@given(st.lists(st.integers(-5, 5), max_size=30))
def test_distinct_of_int_rows_is_np_unique(rows):
    got, want = distinct(np.array(rows, dtype=np.intp)), np.unique(np.array(rows, dtype=np.intp))
    assert got.dtype == want.dtype and np.array_equal(got, want)


_NO_MASKED_ARRAYS = r"""
import json, sys
from click.testing import CliRunner
from reflow import ControlSignal, DensityProfile, TrackingProblem, check_lower_bound, minimize, reciprocal, simulate
from reflow.cli import main
u, rho0 = ControlSignal([0.0, 0.7, 2.0], [0.8, 0.3]), DensityProfile([0.0, 0.4, 1.0], [1.2, 0.6])
traj = simulate(rho0, reciprocal(), 2.0, u=u)
traj.timeseries(256)
traj.tracking_error_sq(ControlSignal.constant(0.4, 2.0))
traj.l1_slice_distance(0.5, 1.5)
minimize(TrackingProblem(rho0, ControlSignal.constant(0.4, 2.0), reciprocal(), 2.0,
                         [0.0, 0.5, 1.0, 1.5, 2.0]), max_iters=1)
check_lower_bound(None, 1.0, 2.0, 2.5, boundary_density=ControlSignal.constant(2.0, 2.5))
with open(sys.argv[1] + "/cross.yaml", "w") as f:
    f.write("rho0: {constant: 1.0}\ncontrol: {breakpoints: [0.0, 0.5, 1.5], values: [0.6, 0.3]}\n"
            "horizon: 1.5\ncells: [50, 100]\n")
res = CliRunner().invoke(main, ["crosscheck", "--config", sys.argv[1] + "/cross.yaml",
                                "--out", sys.argv[1] + "/out"])
assert res.exit_code == 0, res.output
print(json.dumps("numpy.ma" in sys.modules))
"""


def test_library_and_cli_runs_do_not_import_masked_arrays(tmp_path):
    # np.unique imports numpy.ma on its first call (tens of ms per process);
    # a fresh interpreter shows whether any path still reaches it
    src = str(Path(reflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "false"
