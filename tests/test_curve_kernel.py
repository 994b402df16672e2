"""CharacteristicCurve's per-segment cubic against the Hermite-basis formulas.

The oracle below evaluates the cubic Hermite interpolant from its basis
functions in the normalised offset theta = (t - t_k) / h_k, and inverts it by
Newton in theta, rebuilding each segment's cubic from the knots on every call.
The curve builds each segment's coefficients once and runs Horner and Newton
in the offset d = t - t_k; both must describe the same curve to rounding.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reflow.characteristics import CharacteristicCurve, SolverError

# -- oracle --------------------------------------------------------------------


def _locate(ts, t):
    idx = np.minimum(np.maximum(np.searchsorted(ts, t, side="right") - 1, 0), ts.size - 2)
    h = ts[idx + 1] - ts[idx]
    th = (np.minimum(np.maximum(t, ts[0]), ts[-1]) - ts[idx]) / h
    return idx, h, th


def oracle_value(curve, t):
    ts, xs, ss = curve.times, curve.values, curve.slopes
    t = np.asarray(t, dtype=float)
    if xs.size == 1:
        return np.full(t.shape, xs[0])
    idx, h, th = _locate(ts, t)
    t2 = th * th
    t3 = t2 * th
    return ((2 * t3 - 3 * t2 + 1) * xs[idx] + (t3 - 2 * t2 + th) * h * ss[idx]
            + (-2 * t3 + 3 * t2) * xs[idx + 1] + (t3 - t2) * h * ss[idx + 1])


def oracle_slope(curve, t):
    ts, xs, ss = curve.times, curve.values, curve.slopes
    t = np.asarray(t, dtype=float)
    if xs.size == 1:
        return np.full(t.shape, ss[0])
    idx, h, th = _locate(ts, t)
    t2 = th * th
    return ((6 * t2 - 6 * th) * (xs[idx] - xs[idx + 1]) / h
            + (3 * t2 - 4 * th + 1) * ss[idx] + (3 * t2 - 2 * th) * ss[idx + 1])


def oracle_inverse(curve, x):
    ts, xs, ss = curve.times, curve.values, curve.slopes
    x = np.asarray(x, dtype=float)
    if ts.size == 1:
        return np.full(x.shape, ts[0])
    idx = np.minimum(np.maximum(np.searchsorted(xs, x, side="right") - 1, 0), xs.size - 2)
    h = ts[idx + 1] - ts[idx]
    x0, x1 = xs[idx], xs[idx + 1]
    c1, m1 = h * ss[idx], h * ss[idx + 1]
    c2 = 3 * (x1 - x0) - 2 * c1 - m1
    c3 = 2 * (x0 - x1) + c1 + m1
    r = x0 - x
    th = np.minimum(np.maximum(-r / (x1 - x0), 0.0), 1.0)
    for _ in range(60):
        f = r + th * (c1 + th * (c2 + th * c3))
        d = c1 + th * (2 * c2 + 3 * c3 * th)
        step = f / np.maximum(d, 1e-300)
        th = np.minimum(np.maximum(th - step, 0.0), 1.0)
        if np.max(np.abs(step) * h, initial=0.0) <= 1e-13:
            break
    f = r + th * (c1 + th * (c2 + th * c3))
    if np.any(np.abs(f) > 1e-11 * max(1.0, xs[-1])):
        raise SolverError("unresolved")
    return ts[idx] + h * th


# -- random curves ---------------------------------------------------------------

@st.composite
def curves(draw):
    """Increasing curves of 1 to 8 knots, shaped like solver output: secants
    within a factor 4 of each other, and each knot slope 0.3 to 3.5 times the
    geometric mean of its adjacent secants, so that some segment cubics are
    not monotone. A segment is either wide or at the solver's knot resolution
    1e-13 * max(1, t)."""
    n = draw(st.integers(1, 8))
    ts = [draw(st.floats(-2.0, 2.0))]
    xs = [draw(st.floats(-1.0, 1.0))]
    secants = [draw(st.floats(0.5, 2.0)) for _ in range(n - 1)]
    for m in secants:
        if draw(st.booleans()):
            h = draw(st.floats(1e-3, 2.0))
        else:
            h = draw(st.floats(1.0, 4.0)) * 1e-13 * max(1.0, abs(ts[-1]))
        ts.append(ts[-1] + h)
        xs.append(xs[-1] + m * h)
    near = secants[:1] + [np.sqrt(a * b) for a, b in zip(secants[:-1], secants[1:])] + secants[-1:]
    ss = [m * draw(st.floats(0.3, 3.5)) for m in (near or [1.0])]
    return CharacteristicCurve(np.array(ts), np.array(xs), np.array(ss))


def _monotone(curve, x):
    """Whether the segment cubic holding each position x is monotone, by the
    sufficient condition alpha^2 + beta^2 <= 9 on the end slopes over the secant."""
    xs = curve.values
    if xs.size == 1:
        return np.ones(np.shape(x), dtype=bool)
    k = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.size - 2)
    m = np.diff(xs) / np.diff(curve.times)
    return (curve.slopes[k] / m[k]) ** 2 + (curve.slopes[k + 1] / m[k]) ** 2 <= 9.0


def _times(curve, fractions):
    """Knots, points inside each segment and points outside [t0, tN]."""
    ts = curve.times
    span = max(ts[-1] - ts[0], 1.0)
    inside = ts[:-1, None] + np.diff(ts)[:, None] * np.asarray(fractions)
    outside = [ts[0] - span, ts[0] - 1e-9, ts[-1] + 1e-9, ts[-1] + span]
    return np.concatenate((ts, inside.ravel(), outside))


def _positions(curve, fractions):
    xs = curve.values
    inside = xs[:-1, None] + np.diff(xs)[:, None] * np.asarray(fractions)
    return np.concatenate((xs, inside.ravel()))


FRACTIONS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6)


ONE_KNOT = CharacteristicCurve(np.array([0.5]), np.array([0.2]), np.array([0.7]))
TWO_KNOTS = CharacteristicCurve(np.array([1.0, 2.0]), np.array([0.5, 1.5]), np.array([0.5, 2.0]))


class TestAgainstHermiteBasis:
    @given(curves(), FRACTIONS)
    @example(ONE_KNOT, [0.5])
    @example(TWO_KNOTS, [0.25, 1.0])
    @settings(max_examples=300, deadline=None)
    def test_values_and_slopes(self, curve, fractions):
        t = _times(curve, fractions)
        x = oracle_value(curve, t)
        assert np.all(np.abs(curve(t) - x) <= 1e-14 * np.maximum(1.0, np.abs(x)))
        # a slope sums terms as large as the knot slopes and secants, each
        # rounded in either formula
        steepest = max(1.0, curve.slopes.max(),
                       *np.diff(curve.values) / np.diff(curve.times))
        assert np.all(np.abs(curve.slope(t) - oracle_slope(curve, t)) <= 1e-14 * steepest)
        for method in (curve, curve.slope):
            assert method(np.empty(0)).shape == (0,)
            assert method(float(t[-1])) == method(t)[-1] and isinstance(method(t[-1]), float)

    @given(curves(), FRACTIONS)
    @example(ONE_KNOT, [0.5])
    @example(TWO_KNOTS, [0.25, 1.0])
    @settings(max_examples=300, deadline=None)
    def test_inverse_matches_and_round_trips(self, curve, fractions):
        x = _positions(curve, fractions)
        new, old = curve.inverse(x), oracle_inverse(curve, x)
        # a value the segment cubic takes more than once may give either root
        unique = _monotone(curve, x)
        assert np.all(np.abs(new - old)[unique] <= 1e-13)
        # Newton stops at a time step of 1e-13, after one step on a segment at
        # the knot resolution: a position is resolved to 1e-13 times the slope
        scale = np.maximum(np.abs(x), max(1.0, curve.slopes.max()))
        assert np.all(np.abs(curve(new) - x) <= 1e-13 * scale)
        assert curve.inverse(np.empty(0)).shape == (0,)
        # one point may take fewer Newton steps than the batch it was part of
        one = curve.inverse(float(x[-1]))
        assert isinstance(one, float) and (abs(one - new[-1]) <= 1e-13 or not unique[-1])

    @given(curves(), FRACTIONS)
    @example(ONE_KNOT, [0.5])
    @example(TWO_KNOTS, [0.25, 1.0])
    @settings(max_examples=300, deadline=None)
    def test_reach_is_the_inverse_strictly_inside_the_range(self, curve, fractions):
        # the knot values include both range ends, which reach drops
        xs = curve.values
        span = max(xs[-1] - xs[0], 1.0)
        x = np.concatenate(([xs[0] - span, xs[-1] + span], _positions(curve, fractions),
                            [xs[0] - 1e-9, xs[-1] + 1e-9]))
        inside = x[(x > xs[0]) & (x < xs[-1])]
        got = curve.reach(x)
        assert got.dtype == float and np.array_equal(got, curve.inverse(inside))


class TestUncheckedBuild:
    @given(curves())
    @example(ONE_KNOT)
    @example(TWO_KNOTS)
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_checked_build_field_for_field(self, curve):
        fast = CharacteristicCurve._unchecked(curve.times.copy(), curve.values.copy(),
                                              curve.slopes.copy())
        assert vars(fast).keys() == vars(curve).keys()
        for f in dataclasses.fields(CharacteristicCurve):
            a, b = getattr(fast, f.name), getattr(curve, f.name)
            assert a.shape == b.shape and np.array_equal(a, b), f.name
