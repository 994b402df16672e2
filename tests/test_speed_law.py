"""Speed laws: closed-form reciprocal values and envelope bounds."""

import numpy as np
import pytest

from reflow.laws import SpeedLaw, reciprocal, tabulated


class TestReciprocal:
    def test_matches_closed_form_on_grid(self):
        law = reciprocal()
        W = np.linspace(0.0, 20.0, 1000)
        assert np.max(np.abs(law(W) - 1.0 / (1.0 + W))) <= 1e-12

    def test_constant_extension_below_zero(self):
        law = reciprocal()
        assert law(-0.5) == law(0.0) == 1.0

    def test_bounds_closed_form(self):
        law = reciprocal()
        lam_lo, lam_hi, d = law.bounds(3.0)
        assert lam_lo == pytest.approx(0.25)
        assert lam_hi == 1.0
        assert d == 1.0
        for M in (0.0, 0.37, 3.0):
            assert law.bounds(M)[:2] == (law(M), law(0.0))

    # a NaN M passed the M < 0 check
    @pytest.mark.parametrize("M", [-1.0, float("nan"), float("inf"), True])
    def test_bounds_reject_a_mass_that_is_not_finite_and_nonnegative(self, M):
        for law in (reciprocal(), tabulated([0.0, 1.0], [1.0, 0.5])):
            with pytest.raises(ValueError, match="mass bound M must"):
                law.bounds(M)


def segment_scan(law, M):
    """The slope bound by the table's segments: the knots in [0, M] plus one
    padding knot past M, so the segments scanned cover [0, M]."""
    g, v = law.grid, law.grid_values
    hi = min(int(np.searchsorted(g, M, side="right")) + 1, g.size)
    return float(np.max(np.abs(np.diff(v[:hi]) / np.diff(g[:hi]))))


class TestTabulated:
    def law(self):
        g = np.linspace(0.0, 5.0, 11)
        return tabulated(g, 2.0 / (2.0 + g))

    def test_matches_interp_oracle(self):
        law = self.law()
        W = np.linspace(0.0, 6.0, 1000)
        expected = np.interp(np.maximum(W, 0.0), law.grid, law.grid_values)
        assert np.max(np.abs(law(W) - expected)) <= 1e-12

    def test_constant_extension_past_last_knot(self):
        law = self.law()
        assert law(100.0) == law(5.0)

    def test_bounds_envelope_the_values(self):
        law = self.law()
        for M in (0.0, 0.17, 1.3, 4.99, 5.0, 7.0):
            lam_lo, lam_hi, d = law.bounds(M)
            W = np.linspace(0.0, M, 1000) if M > 0 else np.array([0.0])
            vals = law(W)
            assert np.all(vals >= lam_lo - 1e-12)
            assert np.all(vals <= lam_hi + 1e-12)
            # the law is linear between knots: d bounds every table slope up to M
            g, v = law.grid, law.grid_values
            slopes = np.abs(np.diff(v) / np.diff(g))[g[:-1] < M]
            assert d >= np.max(slopes, initial=0.0)
            # non-increasing law: the speed bounds are the end values, also
            # for an M strictly between knots (0.17, 1.3, 4.99)
            assert (lam_lo, lam_hi) == (law(M), law(0.0))

    def test_slope_bound_equals_the_segment_scan(self):
        # bounds takes sup |slope| from slope() at W = 0 and the kinks <= M
        rng = np.random.default_rng(3)
        for k in range(200):
            g = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 2.0, rng.integers(1, 8)))))
            v = np.sort(rng.uniform(0.05, 3.0, g.size))[::-1]
            if k % 4 == 0:
                v[1:] = v[1]  # flat past the first knot
            law = tabulated(g, v)
            mids = 0.5 * (g[1:] + g[:-1])
            for M in (*g, *mids, 1.5 * g[-1], g[-1] + 10.0, *rng.uniform(0.0, 1.2 * g[-1], 3)):
                lam_lo, lam_hi, d = law.bounds(M)
                assert d == segment_scan(law, M)
                assert (lam_lo, lam_hi) == (law(M), law(0.0))

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError, match="increasing"):
            tabulated([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="start at W = 0"):
            tabulated([1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="positive"):
            tabulated([0.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="non-increasing"):
            tabulated([0.0, 1.0, 2.0], [1.0, 0.5, 0.6])
        with pytest.raises(ValueError, match="kind"):
            SpeedLaw(kind="cubic")

    @pytest.mark.parametrize("grid, values", [
        ([0.0, 1.0], [1.0, float("nan")]), ([0.0, float("nan")], [1.0, 0.5]),
        ([0.0, float("inf")], [1.0, 0.5]), ([0.0, 1.0], [float("inf"), 0.5]),
    ])
    def test_rejects_tables_that_are_not_finite(self, grid, values):
        # law(0.7) read NaN, and a solve failed later with "residual nan"
        with pytest.raises(ValueError, match="finite"):
            tabulated(grid, values)


class TestSlope:
    """SpeedLaw.slope against one-sided differences of the law (from the right)."""

    @staticmethod
    def forward_difference(law, W, h=1e-7):
        return (law(W + h) - law(W)) / h

    def test_reciprocal(self):
        law = reciprocal()
        W = np.array([0.0, 0.3, 1.0, 7.5])
        assert np.allclose(law.slope(W), self.forward_difference(law, W), rtol=1e-6, atol=0)
        assert law.slope(2.0) == pytest.approx(-1.0 / 9.0, rel=1e-15)

    def test_tabulated_inside_and_at_knots(self):
        law = tabulated([0.0, 0.5, 1.0, 2.0, 4.0], [1.0, 0.8, 0.5, 0.35, 0.2])
        W = np.array([0.0, 0.25, 0.5, 0.9, 1.0, 3.0])
        assert np.allclose(law.slope(W), self.forward_difference(law, W), rtol=1e-6, atol=1e-9)

    def test_zero_below_zero_mass_and_past_the_last_knot(self):
        for law in (reciprocal(), tabulated([0.0, 1.0, 2.0], [1.0, 0.6, 0.5])):
            W = np.array([-3.0, -1e-3])
            assert np.all(law.slope(W) == 0.0)
            assert np.allclose(self.forward_difference(law, W, h=1e-4), 0.0)
        law = tabulated([0.0, 1.0, 2.0], [1.0, 0.6, 0.5])
        W = np.array([2.0, 2.5, 10.0])
        assert np.all(law.slope(W) == 0.0)
        assert np.allclose(self.forward_difference(law, W), 0.0)


@pytest.mark.parametrize("law", [reciprocal(), tabulated([0.0, 1.0, 4.0], [1.0, 0.6, 0.2])])
def test_a_float_gives_the_array_value_bit_for_bit(law):
    # floats take a path of their own, without the array round trip
    W = np.concatenate((np.linspace(-1.0, 6.0, 141), [0.0, -0.0, 1.0, 4.0]))
    by_float = [law(float(w)) for w in W]
    assert all(type(v) is float for v in by_float)
    assert np.array_equal(by_float, law(W))
    assert [law(np.float64(w)) for w in W] == by_float == [law(np.array(w)) for w in W]
