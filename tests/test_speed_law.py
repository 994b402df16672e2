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

    def test_bounds_reject_negative_mass(self):
        with pytest.raises(ValueError):
            reciprocal().bounds(-1.0)


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
