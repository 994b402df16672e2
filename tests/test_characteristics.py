"""Characteristic-curve solver: closed forms, ODE oracle, contraction."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from reflow import characteristics
from reflow.characteristics import (_G3_COLLOCATION, _G3_INTEGRATED, _G3_NODES, G3_WEIGHTS,
                                    CharacteristicCurve, CurveAdjoint, DensityInflow, FluxInflow,
                                    SolverError, _choose_window, _density_pieces, _exact,
                                    _horner, _inverse3, apply_F, gauss_nodes, lagrange_rows,
                                    solve_xi)
from reflow.laws import reciprocal, tabulated
from reflow.signals import ControlSignal, DensityProfile, segment
from reflow.transfer import TransferScenario, closed_form_trajectory
from reflow.transport import Trajectory, simulate


def random_scenario(rng, horizon=1.5, mass_cap=6.0):
    n_u = rng.integers(1, 6)
    bp_u = np.concatenate(([0.0], np.sort(rng.uniform(0.1, horizon, n_u - 1)),
                           [horizon])) if n_u > 1 else np.array([0.0, horizon])
    bp_u = np.unique(bp_u)
    u = ControlSignal(bp_u, rng.uniform(0.0, 1.5, bp_u.size - 1))
    n_r = rng.integers(1, 6)
    bp_r = np.unique(np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, n_r - 1)),
                                     [1.0])))
    rho0 = DensityProfile(bp_r, rng.uniform(0.0, 2.0, bp_r.size - 1))
    if u.total_mass + rho0.total_mass > mass_cap:
        scale = mass_cap / (u.total_mass + rho0.total_mass)
        u = ControlSignal(u.breakpoints, u.values * scale)
        rho0 = DensityProfile(rho0.breakpoints, rho0.values * scale)
    return u, rho0


class TestCurveType:
    def test_rejects_nonmonotone_data(self):
        with pytest.raises(ValueError):
            CharacteristicCurve(np.array([0.0, 1.0]), np.array([0.0, -1.0]),
                                np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            CharacteristicCurve(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                                np.array([1.0, 0.0]))

    @pytest.mark.parametrize("times, values, slopes", [
        ([0.0, np.nan, 1.0], [0.0, 0.5, 1.0], [1.0, 1.0, 1.0]),
        ([0.0, 0.5, np.inf], [0.0, 0.5, 1.0], [1.0, 1.0, 1.0]),
        ([-np.inf, 0.5, 1.0], [0.0, 0.5, 1.0], [1.0, 1.0, 1.0]),
        ([0.0, 0.5, 1.0], [0.0, np.nan, 1.0], [1.0, 1.0, 1.0]),
        ([0.0, 0.5, 1.0], [0.0, 0.5, np.inf], [1.0, 1.0, 1.0]),
        ([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], [1.0, np.nan, 1.0]),
        ([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], [1.0, 1.0, np.inf]),
        ([np.nan], [0.0], [1.0]),
        ([0.0], [np.inf], [1.0]),
        ([0.0], [0.0], [np.nan]),
    ])
    def test_rejects_nan_and_infinite_knots(self, times, values, slopes):
        # NaN passed the old slice comparisons, and an infinite last time made
        # inverse(0.75) NaN
        with pytest.raises(ValueError, match="knot"):
            CharacteristicCurve(np.array(times), np.array(values), np.array(slopes))

    def test_inverse_round_trip(self):
        t = np.linspace(0.0, 2.0, 9)
        xi = CharacteristicCurve(t, np.sinh(t), np.cosh(t))
        x = np.linspace(0.0, float(np.sinh(2.0)), 50)
        assert np.max(np.abs(xi(xi.inverse(x)) - x)) <= 1e-10
        with pytest.raises(ValueError):
            xi.inverse(np.sinh(2.0) + 1.0)

    @pytest.mark.parametrize("x", [float("nan"), np.array([0.5, float("nan")])])
    def test_inverse_rejects_nan(self, x):
        # a NaN target passed the range check and came back as NaN
        t = np.linspace(0.0, 2.0, 9)
        xi = CharacteristicCurve(t, np.sinh(t), np.cosh(t))
        with pytest.raises(ValueError, match="outside curve range"):
            xi.inverse(x)

    def test_inverse_of_no_targets_is_empty(self):
        t = np.linspace(0.0, 2.0, 9)
        xi = CharacteristicCurve(t, np.sinh(t), np.cosh(t))
        assert xi.inverse(np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("x", [[], [0.0], [float(np.sinh(2.0))], [-1.0, 0.0, 4.0, 9.0]])
    def test_reach_of_no_position_inside_calls_no_inverse(self, x, monkeypatch):
        # the solver asks once per map application, mostly for no position
        t = np.linspace(0.0, 2.0, 9)
        xi = CharacteristicCurve(t, np.sinh(t), np.cosh(t))
        inverse, calls = CharacteristicCurve.inverse, []
        monkeypatch.setattr(CharacteristicCurve, "inverse",
                            lambda self, x: calls.append(np.size(x)) or inverse(self, x))
        got = xi.reach(np.array(x, dtype=float))
        assert got.dtype == float and got.shape == (0,) and calls == []
        assert np.array_equal(xi.reach(np.array([*x, 1.0])), [inverse(xi, 1.0)]) and calls == [1]

    def test_inverse_on_non_monotone_segment(self):
        # the first segment's cubic is not monotone; Newton still resolves it
        curve = CharacteristicCurve(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.01, 1.0]),
                                    np.array([1.0, 1.0, 1.0]))
        x = np.concatenate((np.linspace(0.0, 0.01, 201), np.linspace(0.01, 1.0, 50)))
        assert np.max(np.abs(curve(curve.inverse(x)) - x)) <= 1e-11

    def test_unresolved_inverse_raises(self):
        # end slopes 1e8 times the rise: no inversion meets its 1e-11 check
        curve = CharacteristicCurve(np.array([0.0, 1.0]), np.array([0.0, 0.01]),
                                    np.array([1e6, 1e6]))
        with pytest.raises(SolverError, match="segment"):
            curve.inverse(np.linspace(0.0, 0.01, 1001))

    def test_one_knot_curve(self):
        curve = CharacteristicCurve(np.array([0.5]), np.array([0.2]), np.array([0.7]))
        assert curve(0.5) == 0.2 and curve.slope(0.5) == 0.7
        assert curve.inverse(0.2) == 0.5
        assert np.array_equal(curve.inverse(np.array([0.2, 0.2])), [0.5, 0.5])
        for x in (0.2 + 1e-9, 0.1, np.array([0.2, 0.3])):
            with pytest.raises(ValueError, match="outside curve range"):
                curve.inverse(x)
        with pytest.raises(ValueError):
            CharacteristicCurve(np.empty(0), np.empty(0), np.empty(0))


class CurveTangent:
    """The forward tangent: the derivatives of a flux-mode curve in the cell
    values of its influx, every direction at once, as the oracle of
    ``CurveAdjoint``.

    Direction k raises u by one on cell k of the grid ``cells``. The tangent
    solves the linear delay equation of ``CurveAdjoint``'s docstring on the
    same knots by the same 3-stage Gauss collocation: dxi_{j+1} = R_j dxi_j +
    q_j, one cumulative product and sum for all knots and directions at once;
    the delayed values are known from the pass before, so one pass per
    transit of [0, 1] suffices. Between knots it is the collocation polynomial.
    """

    def __init__(self, xi, law, cells, outlet):
        self.cells = np.asarray(cells, dtype=float)
        self.knots = knots = xi.with_exits(xi.times)
        h, s = gauss_nodes(knots)
        self.h = h
        W, post, sigma, rho1 = outlet(s, xi(s))
        slope = law.slope(W)
        # dxi' = a dxi + forcing, the forcing holding the delayed dxi(sig)
        a = (slope * -rho1).reshape(-1, 3)
        forcing = slope[:, None] * self._cell_mass(s)
        forcing[post] -= slope[post, None] * self._cell_mass(sigma)
        # stage slopes F solve (I - h a A) F = a dxi_j + forcing on each interval
        inv = _inverse3(np.eye(3) - h[:, None, None] * a[:, :, None] * _G3_COLLOCATION)
        r = h[:, None] * (G3_WEIGHTS @ inv)
        growth = np.concatenate(([1.0], np.cumprod(1.0 + np.sum(r * a, axis=1))))
        n = self.cells.size - 1
        self.values = np.zeros((knots.size, n))
        self.coeffs = np.zeros((h.size, 3, n))  # of theta, theta^2, theta^3 per interval
        for _ in range(int(np.ceil(xi.x_end))):
            f = forcing.copy()
            f[post] -= a.ravel()[post, None] * self(sigma)
            f = f.reshape(-1, 3, n)
            q = np.einsum("ji,jin->jn", r, f)
            self.values = growth[:, None] * np.concatenate(
                (np.zeros((1, n)), np.cumsum(q / growth[1:, None], axis=0)))
            stages = np.einsum("jgi,jin->jgn", inv, a[:, :, None] * self.values[:-1, None, :] + f)
            self.coeffs = h[:, None, None] * np.einsum("pi,jin->jpn", _G3_INTEGRATED, stages)

    def _cell_mass(self, t):
        """dU(t) of every direction: the part of each cell before t, (t.size, n)."""
        g = self.cells
        d = t[:, None] - g[:-1]
        return np.clip(d, 0.0, np.diff(g), out=d)

    def __call__(self, t):
        """dxi at the times t (1-D), one column per direction."""
        t = np.asarray(t, dtype=float)
        j = segment(self.knots, t)
        th = ((t - self.knots[j]) / self.h[j])[:, None]
        c = self.coeffs[j]  # in place: the arrays are points x directions
        return _horner(th, (c[:, 2], c[:, 1], c[:, 0], self.values[j]))


def tangent_influx(tangent, t):
    """du at the times t (1-D): 1 in the column of the cell holding t."""
    return (segment(tangent.cells, t)[:, None] == np.arange(tangent.cells.size - 1)).astype(float)


def tangent_mass(tangent, t, terms):
    """dW at the times t (1-D), one column per direction of ``tangent``;
    ``terms`` are what ``Trajectory._outlet`` gave at t."""
    _, behind, sigma, rho1 = terms
    dW = tangent(t)
    dW *= -rho1[:, None]
    dW += tangent._cell_mass(t)
    dW[behind] -= tangent._cell_mass(sigma) - rho1[behind, None] * tangent(sigma)
    return dW


class TestTangent:
    """The forward tangent against central differences of solved curves, and
    the adjoint's contraction against the tangent's dense sums."""

    @pytest.mark.parametrize("law", [reciprocal(), tabulated([0.0, 0.5, 1.0, 2.0],
                                                             [1.0, 0.7, 0.5, 0.4])])
    def test_matches_central_differences_over_two_transits(self, law):
        T = 4.5
        rho0 = DensityProfile([0.0, 0.4, 1.0], [0.3, 0.9])
        grid = np.linspace(0.0, T, 6)
        v = np.array([0.2, 0.7, 0.1, 0.5, 0.3])

        ts = np.linspace(0.0, T, 61)

        def solved(values):
            return simulate(rho0, law, T, u=ControlSignal(grid, values), tol=1e-12,
                            knots_per_window=64)

        traj = solved(v)
        xi = traj.xi
        assert xi.x_end > 2.0  # the delay reaches back over a whole transit
        tangent = CurveTangent(xi, law, grid, traj._outlet)
        mass = tangent_mass(tangent, ts, traj._outlet(ts, xi(ts)))
        h = 1e-5
        for k in range(v.size):
            plus, minus = (solved(v + s * h * np.eye(v.size)[k]) for s in (1, -1))
            dxi = (plus.xi(ts) - minus.xi(ts)) / (2 * h)
            dW = (plus.total_mass(ts) - minus.total_mass(ts)) / (2 * h)
            assert np.max(np.abs(tangent(ts)[:, k] - dxi)) <= 1e-6 * np.max(np.abs(dxi))
            assert np.max(np.abs(mass[:, k] - dW)) <= 1e-6 * np.max(np.abs(dW))

    @pytest.mark.parametrize("cells", [np.linspace(0.0, 2.5, 6), np.array([0.3, 0.6, 1.5, 2.0])])
    def test_contract_equals_the_dense_sums(self, cells):
        # the second grid leaves out [0, 0.3) and (2.0, 2.5]; times on every
        # knot, cell edge and end included
        traj = simulate(DensityProfile([0.0, 0.4, 1.0], [0.3, 0.9]), reciprocal(), 2.5,
                        u=ControlSignal([0.0, 1.0, 2.5], [0.3, 0.5]), tol=1e-10,
                        knots_per_window=32)
        tangent = CurveTangent(traj.xi, traj.law, cells, traj._outlet)
        s_nodes = gauss_nodes(tangent.knots)[1]  # the tangent's own grid
        adjoint = CurveAdjoint(traj.xi, traj.law, cells, tangent.knots,
                               traj._outlet(s_nodes, traj.xi(s_nodes)))
        rng = np.random.default_rng(7)
        t = np.concatenate((rng.uniform(0.0, 2.5, 300), tangent.knots, cells, [0.0, 2.5]))
        a, b, e = rng.normal(size=(3, t.size))
        dense = a @ tangent(t) + b @ tangent._cell_mass(t) + e @ tangent_influx(tangent, t)
        scale = np.abs(a) @ np.abs(tangent(t)) + np.abs(b) @ tangent._cell_mass(t) + np.sum(np.abs(e))
        assert np.all(np.abs(adjoint.contract(t, a, b, e) - dense) <= 1e-13 * scale)

    def test_with_exits_follows_material_over_every_transit(self):
        xi = solve_xi(ControlSignal.constant(0.2, 3.2), DensityProfile.constant(0.3),
                      reciprocal(), 3.2)
        assert 2.0 < xi.x_end < 3.0
        entries = np.array([0.1, 0.5])
        expected = np.sort(np.concatenate([entries] + [
            xi.inverse(xi(entries) + m)[xi(entries) + m < xi.x_end] for m in (1, 2)]))
        assert expected.size == 6
        assert np.allclose(xi.with_exits(entries), expected, rtol=0.0, atol=1e-11)


class TestAgainstClosedForms:
    def test_equilibrium_curve_is_linear(self):
        c = 1.5
        lam = 1.0 / (1.0 + c)
        u = ControlSignal.constant(c * lam, 3.0)
        xi = solve_xi(u, DensityProfile.constant(c), reciprocal(), 3.0)
        t = np.linspace(0.0, 3.0, 400)
        assert np.max(np.abs(xi(t) - lam * t)) <= 1e-10

    def test_step_fill_matches_square_root_curve(self):
        # rho0 = 0, boundary density held at 2: xi(t) = (sqrt(1+4t)-1)/2
        b = ControlSignal.constant(2.0, 2.0)
        xi = solve_xi(DensityInflow(b), DensityProfile.constant(0.0), reciprocal(), 2.0)
        t = np.linspace(0.0, 2.0, 500)
        assert np.max(np.abs(xi(t) - 0.5 * (np.sqrt(1.0 + 4.0 * t) - 1.0))) <= 1e-8
        assert xi(2.0) == pytest.approx(1.0, abs=1e-9)

    def test_step_fill_slopes_are_the_exact_speed_at_every_knot(self):
        # rho0 = 1 filled by b = 2: lam(W(t)) = 1/sqrt(4 + 2t) up to the exit at
        # T = 2.5. Keeping the old window's last slope at the joint t = 1.8 put
        # it 2.1e-11 off, where every other knot is within 2.7e-13
        b = ControlSignal.constant(2.0, 2.5)
        xi = solve_xi(DensityInflow(b), DensityProfile.constant(1.0), reciprocal(), 2.5)
        exact = 1.0 / np.sqrt(4.0 + 2.0 * xi.times)
        assert np.max(np.abs(xi.slopes - exact) / exact) <= 1e-12

    def test_step_fill_every_piece_ends_on_the_exact_speed(self):
        # a window's last slope once read b's breakpoint past the window at the
        # old iterate's end value and was 2.1e-11 off; the curve now has no
        # windows, and each knot, a piece end or a halving point, has lam(W)
        b, rho0 = ControlSignal.constant(2.0, 2.5), DensityProfile.constant(1.0)
        xi = solve_xi(DensityInflow(b), rho0, reciprocal(), 2.5)
        t_end = _density_pieces(DensityInflow(b), rho0, reciprocal(), 2.5)[0]
        assert np.isin(t_end, xi.times).all()
        exact = 1.0 / np.sqrt(4.0 + 2.0 * xi.times)
        assert np.max(np.abs(xi.slopes - exact) / exact) <= 1e-14
        assert_exact_density_curve(xi, b, rho0, reciprocal(), 2.5, 1e-10)

    def test_constant_speed_law_gives_exactly_linear_curve(self):
        law = tabulated([0.0, 10.0], [0.7, 0.7])
        u = ControlSignal(np.array([0.0, 0.4, 1.0]), np.array([1.0, 0.2]))
        xi = solve_xi(u, DensityProfile.constant(1.0), law, 1.0)
        t = np.linspace(0.0, 1.0, 100)
        assert np.max(np.abs(xi(t) - 0.7 * t)) <= 1e-14


def ode_oracle(u, rho0, law, T, t_eval):
    """Pre-exit curve from solve_ivp on xi' = speed(U(t) + R0(1 - xi))."""
    def rhs(t, x):
        W = u.cumulative(t) + rho0.cumulative(1.0 - x[0])
        return [float(law(W))]

    sol = solve_ivp(rhs, (0.0, T), [0.0], t_eval=t_eval,
                    rtol=1e-12, atol=1e-13, max_step=1e-2)
    return sol.y[0]


class TestOdeOracle:
    def test_pre_exit_curve_matches_stiff_ode_solver(self):
        rng = np.random.default_rng(3)
        law = reciprocal()
        for _ in range(8):
            u, rho0 = random_scenario(rng, horizon=0.9)
            tol = 1e-11
            xi = solve_xi(u, rho0, law, 0.9, tol=tol)
            if xi.x_end >= 1.0:  # keep the oracle ODE self-contained
                continue

            t_eval = np.linspace(0.0, 0.9, 200)
            oracle = ode_oracle(u, rho0, law, 0.9, t_eval)
            assert np.max(np.abs(xi(t_eval) - oracle)) <= 100 * tol


class TestWindowsShorterThanTheKnotGrid:
    """A-priori windows of a few 1e-12: their 256 uniform knots lie closer
    than the 1e-13 knot resolution, yet both window ends are kept."""

    def test_dense_boundary_density_matches_square_root_curve(self):
        # rho0 = 0, boundary density b: xi(t) = (sqrt(1 + 2bt) - 1)/b
        b, tol = 1e11, 1e-10
        xi = solve_xi(DensityInflow(ControlSignal.constant(b, 1.0)),
                      DensityProfile.constant(0.0), reciprocal(), 1.0, tol=tol)
        assert xi.times[0] == 0.0
        t = np.linspace(0.0, 1.0, 200)
        assert np.max(np.abs(xi(t) - (np.sqrt(1.0 + 2.0 * b * t) - 1.0) / b)) <= 100 * tol

    def test_dense_flux_scenario_matches_ode(self):
        u, rho0, tol = ControlSignal.constant(5e5, 1.0), DensityProfile.constant(1e5), 1e-10
        xi = solve_xi(u, rho0, reciprocal(), 1.0, tol=tol)
        assert xi.times[0] == 0.0
        t = np.linspace(0.0, 1.0, 200)
        assert np.max(np.abs(xi(t) - ode_oracle(u, rho0, reciprocal(), 1.0, t))) <= 100 * tol


def curve_in_slope_envelope(rng, delta, lam_lo, lam_hi, n_knots=7):
    """Random curve through (0,0) with slopes inside [lam_lo, lam_hi].

    Slopes vary linearly between knots, so the exact curve is piecewise
    quadratic and the cubic Hermite knot representation reproduces it.
    """
    ts = np.linspace(0.0, delta, n_knots)
    ss = rng.uniform(lam_lo, lam_hi, n_knots)
    xs = np.concatenate(([0.0],
                         np.cumsum(0.5 * (ss[:-1] + ss[1:]) * np.diff(ts))))
    return CharacteristicCurve(ts, xs, ss)


@pytest.fixture
def windows(monkeypatch):
    """Records (t_a, t_b, trial, accepted) of every _solve_window call."""
    calls = []
    solve_window = characteristics._solve_window

    def recording(*args, **kwargs):
        out = solve_window(*args, **kwargs)
        calls.append((args[4], args[5], "speeds" in kwargs, out is not None))
        return out

    monkeypatch.setattr(characteristics, "_solve_window", recording)
    return calls


def tail_mass(inflow, rho0, prefix, width):
    """Mass in [1 - width, 1] when the curve is at the end of ``prefix``: the
    initial data there plus the boundary mass that entered at those depths."""
    xa = prefix.x_end
    total = rho0.integrate(min(max(1.0 - xa - width, 0.0), 1.0), min(max(1.0 - xa, 0.0), 1.0))
    z_lo = max(xa - 1.0, 0.0)
    z_hi = min(max(xa - 1.0 + width, 0.0), xa)
    if z_hi > z_lo:
        B = inflow.boundary_mass(prefix)
        total += float(B(z_hi) - B(z_lo))
    return total


class TestWindows:
    def test_a_priori_length_meets_tail_mass_criterion(self):
        rng = np.random.default_rng(7)
        law = reciprocal()
        T = 1.5
        for _ in range(6):
            u, rho0 = random_scenario(rng, horizon=T)
            inflow = FluxInflow(u)
            bounds = lam_tilde, lam_bar, d = law.bounds(u.lp_norm(1) + rho0.lp_norm(1))
            xi = solve_xi(inflow, rho0, law, T)
            start = np.array([law(rho0.total_mass)])
            prefixes = [CharacteristicCurve(np.zeros(1), np.zeros(1), start)]
            prefixes += [xi.restricted(t) for t in (0.4, 0.8, 1.2)]
            for prefix in prefixes:
                delta = _choose_window(inflow, rho0, bounds, prefix, T)
                assert 0.0 < delta <= T - prefix.t_end
                tail = tail_mass(inflow, rho0, prefix, lam_bar * delta)
                assert tail < 0.5 * lam_tilde / d
            # a boundary density takes no window: its curve is built from exact pieces
            xi = solve_xi(DensityInflow(u), rho0, law, T)
            assert_exact_density_curve(xi, u, rho0, law, T, 1e-10)

    @pytest.mark.parametrize("mode", ["u", "boundary_density"])
    def test_outflow_is_the_tail_mass_and_the_cumulative_outflux(self, mode):
        # the mass that leaves while the curve moves from xi(t1) to xi(t2)
        rng = np.random.default_rng(3)
        T = 2.5
        t = np.linspace(0.0, T, 11)
        for _ in range(4):
            u, rho0 = random_scenario(rng, horizon=T)
            traj = simulate(rho0, reciprocal(), T, **{mode: u})
            assert traj.xi.x_end > 1.0
            inflow, xi = traj.inflow, traj.xi
            out = traj.cumulative_outflux(t)
            assert np.array_equal(out, inflow.outflow(rho0, xi(t), traj.boundary_mass))
            for k in range(1, t.size - 1):
                prefix = xi.restricted(t[k])
                width = xi(t[k + 1]) - prefix.x_end
                expected = tail_mass(inflow, rho0, prefix, width)
                gone = inflow.outflow(rho0, prefix.x_end + np.array([0.0, width]),
                                      inflow.boundary_mass(prefix))
                assert abs(gone[1] - gone[0] - expected) <= 1e-14 * max(1.0, out[-1])
                assert abs(out[k + 1] - out[k] - expected) <= 1e-14 * max(1.0, out[-1])

    def test_first_window_is_a_trial_at_the_cap_length(self, windows):
        rng = np.random.default_rng(5)
        for law in (reciprocal(), tabulated([0.0, 1.0, 4.0], [2.0, 1.2, 0.5])):
            for T in (0.3, 1.5):
                u, rho0 = random_scenario(rng, horizon=T)
                inflow = FluxInflow(u)
                windows.clear()
                solve_xi(inflow, rho0, law, T)
                lam_bar = law.bounds(u.lp_norm(1) + rho0.lp_norm(1))[1]
                assert windows[0][:3] == (0.0, min(0.9 / lam_bar, T), True)
                # a boundary density takes no window: its curve is built from exact pieces
                windows.clear()
                xi = solve_xi(DensityInflow(u), rho0, law, T)
                assert windows == []
                assert_exact_density_curve(xi, u, rho0, law, T, 1e-10)

    def test_equilibrium_transfer_takes_no_more_windows(self, windows):
        # density-mode transfer from equilibrium 1 to 2; with an a-priori first
        # window of length 1/32 and doubling trials after it, it took 11 windows,
        # and now takes none. Past the exit at 2.5, W = 2 and xi' = 1/3
        b, rho0, tol = ControlSignal.constant(2.0, 6.0), DensityProfile.constant(1.0), 1e-10
        xi = solve_xi(DensityInflow(b), rho0, reciprocal(), 6.0, tol=tol)
        assert windows == []
        assert_exact_density_curve(xi, b, rho0, reciprocal(), 6.0, tol)
        t = np.linspace(0.0, 6.0, 2001)
        exact = np.where(t <= 2.5, closed_form_trajectory(TransferScenario(1.0, 2.0)).xi(t),
                         1.0 + (t - 2.5) / 3.0)
        assert np.max(np.abs(xi(t) - exact)) <= tol

    def test_rejected_trial_falls_back_and_matches_ode(self, windows):
        # a steep law with dense mass near x = 1: some trial windows, the first
        # one at the cap length included, do not halve the residual and are
        # solved again at the a-priori length
        law = tabulated([0.0, 2.3, 2.4, 20.0], [1.0, 0.9, 0.1, 0.05])
        rho0 = DensityProfile.constant(2.5)
        T = 1.1
        u = ControlSignal.constant(0.05, T)
        tol = 1e-11
        xi = solve_xi(u, rho0, law, T, tol=tol)
        rejected = [(t_a, t_b) for t_a, t_b, _, accepted in windows if not accepted]
        assert rejected
        assert any(t_a == 0.0 for t_a, _ in rejected)
        assert xi.x_end < 1.0
        t_eval = np.linspace(0.0, T, 200)
        oracle = ode_oracle(u, rho0, law, T, t_eval)
        assert np.max(np.abs(xi(t_eval) - oracle)) <= 100 * tol

    def test_tabulated_law_kinks_are_knots(self):
        # the load crosses table knots inside long windows; without a knot there
        # the Gauss quadrature loses its order and the curve drifts beyond tol
        grid = np.linspace(0.0, 8.0, 33)
        law = tabulated(grid, 1.0 / (1.0 + grid))
        u = ControlSignal(np.linspace(0.0, 3.0, 9),
                          np.array([0.9, 1.4, 0.3, 1.1, 0.6, 1.5, 0.4, 1.0]))
        rho0 = DensityProfile(np.array([0.0, 0.3, 0.7, 1.0]), np.array([1.2, 0.4, 1.8]))
        tol = 1e-10
        xi = solve_xi(u, rho0, law, 3.0, tol=tol)
        ref = solve_xi(u, rho0, law, 3.0, tol=1e-12, knots_per_window=4096)
        t = np.linspace(0.0, 3.0, 3001)
        assert np.max(np.abs(xi(t) - ref(t))) <= tol

    def test_many_cell_density_keeps_every_event_knot(self):
        # 16384 cells put thousands of kink levels in one window
        n = 16384
        rng = np.random.default_rng(4)
        rho0 = DensityProfile(np.linspace(0.0, 1.0, n + 1), rng.uniform(0.2, 1.5, n))
        u = ControlSignal(np.linspace(0.0, 1.5, 4), np.array([0.8, 0.3, 1.0]))
        tol = 1e-10
        xi = solve_xi(u, rho0, reciprocal(), 1.5, tol=tol)
        ref = solve_xi(u, rho0, reciprocal(), 1.5, tol=1e-12, knots_per_window=1024)
        t = np.linspace(0.0, 1.5, 4001)
        assert np.max(np.abs(xi(t) - ref(t))) <= tol
        # every time the curve meets a breakpoint of rho0 is a knot
        levels = 1.0 - rho0.breakpoints[1:-1]
        crossings = xi.inverse(levels[levels < xi.x_end])
        assert crossings.size > 10_000
        k = np.clip(np.searchsorted(xi.times, crossings), 1, xi.times.size - 1)
        gap = np.minimum(np.abs(xi.times[k] - crossings), np.abs(xi.times[k - 1] - crossings))
        assert np.max(gap) <= 1e-8


class TestContraction:
    def test_window_map_is_half_contraction_on_random_pairs(self):
        rng = np.random.default_rng(12)
        law = reciprocal()
        u = ControlSignal(np.array([0.0, 0.4, 1.0]), np.array([0.8, 0.3]))
        rho0 = DensityProfile(np.array([0.0, 0.6, 1.0]), np.array([1.2, 0.2]))
        M = u.total_mass + rho0.total_mass
        lam_lo, lam_hi, d = law.bounds(M)
        # window small enough that the mass which can reach x = 1 stays below
        # half the minimum speed over the Lipschitz constant of the law
        delta = 0.3
        assert rho0.integrate(1.0 - lam_hi * delta, 1.0) < 0.5 * lam_lo / d
        t_grid = np.linspace(0.0, delta, 600)
        worst = 0.0
        for _ in range(100):
            xi1 = curve_in_slope_envelope(rng, delta, lam_lo, lam_hi)
            xi2 = curve_in_slope_envelope(rng, delta, lam_lo, lam_hi)
            gap = np.max(np.abs(xi1(t_grid) - xi2(t_grid)))
            f1 = apply_F(xi1, u, rho0, law, (0.0, delta))
            f2 = apply_F(xi2, u, rho0, law, (0.0, delta))
            mapped = np.max(np.abs(f1(t_grid) - f2(t_grid)))
            worst = max(worst, mapped / gap)
            assert mapped <= 0.5 * gap + 1e-12
        assert worst <= 0.5 + 1e-12

    def test_entry_time_beyond_prefix_is_rejected(self):
        # the mapped curve passes x = 1 but xi, the prefix, ends at 0.005: the
        # mass of what leaves would need an entry time xi does not hold
        xi = CharacteristicCurve(np.array([0.0, 5.0]), np.array([0.0, 0.005]),
                                 np.array([1e-3, 1e-3]))
        u = ControlSignal.constant(0.5, 5.0)
        with pytest.raises(ValueError, match="outside curve range"):
            apply_F(xi, u, DensityProfile.constant(0.5), reciprocal(), (0.0, 5.0))

    def test_solved_curve_is_a_fixed_point(self):
        u = ControlSignal(np.array([0.0, 0.5, 1.2]), np.array([0.9, 0.4]))
        rho0 = DensityProfile(np.array([0.0, 0.5, 1.0]), np.array([0.8, 1.4]))
        xi = solve_xi(u, rho0, reciprocal(), 1.2, tol=1e-12)
        mapped = apply_F(xi, u, rho0, reciprocal(), (0.0, min(1.2, xi.t_end)))
        t = np.linspace(0.0, 1.2, 300)
        assert np.max(np.abs(mapped(t) - xi(t))) <= 1e-9


class TestValidation:
    def test_requires_exactly_one_influx_description(self):
        u = ControlSignal.constant(1.0, 1.0)
        rho0 = DensityProfile.constant(1.0)
        with pytest.raises(ValueError, match="exactly one"):
            simulate(rho0, reciprocal(), 1.0, u=u, boundary_density=u)
        with pytest.raises(ValueError, match="exactly one"):
            simulate(rho0, reciprocal(), 1.0)

    def test_rejects_short_control_horizon(self):
        u = ControlSignal.constant(1.0, 0.5)
        with pytest.raises(ValueError, match="horizon"):
            solve_xi(u, DensityProfile.constant(1.0), reciprocal(), 1.0)

    def test_rejects_nonpositive_horizon(self):
        u = ControlSignal.constant(1.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            solve_xi(u, DensityProfile.constant(1.0), reciprocal(), 0.0)

    def test_rejects_nan_tol(self):
        u = ControlSignal.constant(1.0, 1.0)
        with pytest.raises(ValueError, match="tol must be positive"):
            solve_xi(u, DensityProfile.constant(1.0), reciprocal(), 1.0, tol=float("nan"))

    def test_rejects_infinite_tol(self):
        # every window stopped after one map application: xi(2) was 5.8e-3 off
        u, rho0 = ControlSignal.constant(1.0, 2.0), DensityProfile.constant(0.5)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            solve_xi(u, rho0, reciprocal(), 2.0, tol=float("inf"))
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            simulate(rho0, reciprocal(), 2.0, u=u, tol=float("inf"))

    @pytest.mark.parametrize("n", [-1, 0, True, 2.5, float("nan")])
    def test_rejects_knots_per_window_that_is_not_a_whole_count(self, n):
        # -1 used to fail in the knot merge, 0 gave the grid of 1, True was 1
        u, rho0 = ControlSignal.constant(1.0, 1.0), DensityProfile.constant(1.0)
        with pytest.raises(ValueError, match="knots_per_window must be a whole number"):
            solve_xi(u, rho0, reciprocal(), 1.0, knots_per_window=n)

    def test_horizon_below_end_tolerance_keeps_the_start_knot(self):
        # no window runs; the curve must still pass through (0, 0)
        u, rho0, T = ControlSignal.constant(1.0, 1.0), DensityProfile.constant(1.0), 5e-13
        xi = solve_xi(u, rho0, reciprocal(), T)
        assert xi.times[0] == 0.0 and xi(0.0) == 0.0
        traj = simulate(rho0, reciprocal(), T, u=u)
        assert traj.total_mass(0.0) == 1.0
        assert traj.cumulative_outflux(0.0) == 0.0

    def test_denormal_boundary_density_is_solved(self):
        # W grows at the denormal rate g = b, so the first kink of the law, at a
        # distance 1 / g that overflows, is never reached: xi(1) = 1
        b, rho0 = ControlSignal.constant(5e-324, 1.0), DensityProfile.constant(0.0)
        law = tabulated([0.0, 1.0, 2.0], [1.0, 0.5, 0.3])
        curve = solve_xi(DensityInflow(b), rho0, law, 1.0)
        assert curve.x_end == pytest.approx(1.0, abs=1e-12)
        assert_exact_density_curve(curve, b, rho0, law, 1.0, 1e-10)

    def test_window_that_runs_out_of_iterations_names_window_and_residual(self, monkeypatch):
        monkeypatch.setattr(characteristics, "_MAX_ITER", 2)
        u, rho0 = ControlSignal.constant(1.0, 2.0), DensityProfile.constant(0.5)
        with pytest.raises(SolverError, match=r"window \[0, [0-9.e-]+\] did not converge: "
                                              r"residual [0-9.e+-]+ after 2 iterations"):
            solve_xi(u, rho0, reciprocal(), 2.0, tol=1e-12)


class TestUncheckedIterates:
    """Iterates and prefixes are built without the curve checks."""

    STEEP = tabulated([0.0, 2.3, 2.35, 20.0], [1.0, 0.9, 0.1, 0.05])

    @pytest.mark.parametrize("mode", [FluxInflow, DensityInflow])
    @pytest.mark.parametrize("steep", [False, True])
    def test_checked_build_gives_the_same_curve_bit_for_bit(self, monkeypatch, mode, steep):
        if steep:
            args = (ControlSignal.constant(0.05, 1.1), DensityProfile.constant(2.5),
                    self.STEEP, 1.1)
            tol = 1e-11
        else:
            u, rho0 = random_scenario(np.random.default_rng(11))
            args, tol = (u, rho0, reciprocal(), 1.5), 1e-10
        fast = solve_xi(mode(args[0]), *args[1:], tol=tol)
        monkeypatch.setattr(CharacteristicCurve, "_unchecked",
                            classmethod(lambda cls, ts, xs, ss: cls(ts, xs, ss)))
        checked = solve_xi(mode(args[0]), *args[1:], tol=tol)
        for name in ("times", "values", "slopes"):
            assert np.array_equal(getattr(fast, name), getattr(checked, name))

    def test_nan_window_map_fails_the_window_after_one_application(self, monkeypatch, windows):
        calls = []
        integrate = characteristics._integrate_window

        def poisoned(*args):
            calls.append(args[4].t_end)
            values, *rest = integrate(*args)
            values[-1] = np.nan
            return values, *rest

        monkeypatch.setattr(characteristics, "_integrate_window", poisoned)
        u, rho0 = ControlSignal.constant(1.0, 2.0), DensityProfile.constant(0.5)
        with pytest.raises(SolverError, match=r"window \[0, ([0-9.e-]+)\]: the window map "
                                              r"gave a non-finite residual nan") as err:
            solve_xi(u, rho0, reciprocal(), 2.0)
        # the trial at the cap length is given up after one application, and
        # the a-priori window that replaces it raises after one
        (t_a, t_cap, trial, accepted), = windows
        assert (t_a, trial, accepted) == (0.0, True, False)
        assert len(calls) == 2 and calls[0] == t_cap
        assert f"[0, {calls[1]:g}]" in str(err.value) and calls[1] < t_cap


def density_ode_oracle(b, rho0, law, T, t_eval):
    """Density-mode curve from solve_ivp, through one exit at most (xi(T) < 2).

    Before exit x' = lam(W), E' = b(t) x' and W = E + R0(1 - x). After it the
    material at x = 1 entered at sigma, with x(sigma) = x - 1, so W = E -
    E(sigma) and sigma' = x'(t) / x'(sigma); sigma lies in the first phase,
    read from its dense output.
    """
    opts = dict(rtol=1e-12, atol=1e-13, max_step=1e-2)

    def pre(t, y):
        lam = float(law(y[1] + rho0.cumulative(1.0 - y[0])))
        return [lam, b(t) * lam]

    def exits(t, y):
        return y[0] - 1.0
    exits.terminal = True

    first = solve_ivp(pre, (0.0, T), [0.0, 0.0], events=exits, dense_output=True, **opts)
    t_exit = first.t[-1]
    x = np.empty_like(t_eval)
    early = t_eval <= t_exit
    x[early] = first.sol(t_eval[early])[0]
    if t_exit >= T:
        return x

    def post(t, y):
        x_s, E_s = first.sol(y[2])
        lam = float(law(y[1] - E_s))
        lam_s = float(law(E_s + rho0.cumulative(1.0 - x_s)))
        return [lam, b(t) * lam, lam / lam_s]

    late = ~early
    second = solve_ivp(post, (t_exit, T), [1.0, first.y[1, -1], 0.0], t_eval=t_eval[late],
                       **opts)
    x[late] = second.y[0]
    return x


def assert_exact_density_curve(xi, b, rho0, law, T, tol):
    """The checks of a density-mode curve: every knot slope is lambda(W) within
    1e-14 relative, W read off the curve by ``Trajectory``, and the curve is
    within tol of its exact pieces and, through one exit at most, of
    ``density_ode_oracle``."""
    W = Trajectory(law, rho0, xi, T, DensityInflow(b)).total_mass(xi.times)
    assert np.max(np.abs(xi.slopes - law(W)) / law(W)) <= 1e-14
    t = np.linspace(0.0, T, 1001)
    pieces = _density_pieces(DensityInflow(b), rho0, law, T)
    assert np.max(np.abs(xi(t) - _exact(pieces, law, t)[0])) <= tol
    if xi.x_end < 2.0:
        assert np.max(np.abs(xi(t) - density_ode_oracle(b, rho0, law, T, t))) <= tol


class TestExactDensityCurve:
    """A boundary-density curve from its exact pieces in tau = xi(t)."""

    MILD = tabulated([0.0, 1.0, 2.0, 4.0], [1.0, 0.5, 0.34, 0.2])

    @pytest.mark.parametrize("lo, hi", [(1.0, 2.0), (0.0, 2.0), (0.5, 1.5)])
    def test_pieces_are_the_closed_form_transfer(self, lo, hi):
        cf = closed_form_trajectory(TransferScenario(lo, hi))
        pieces = _density_pieces(DensityInflow(ControlSignal.constant(hi, cf.T)),
                                 DensityProfile.constant(lo), reciprocal(), cf.T)
        t = np.linspace(0.0, cf.T, 2001)
        xi, W = _exact(pieces, reciprocal(), t)
        assert np.max(np.abs(xi - cf.xi(t))) <= 1e-15
        assert np.max(np.abs(W - cf.W(t))) <= 1e-15

    @pytest.mark.parametrize("law", [reciprocal(), MILD], ids=["reciprocal", "mild"])
    @pytest.mark.parametrize("tol", [1e-13, 1e-10, 1e-6])
    def test_curve_is_within_tol_through_one_exit(self, law, tol):
        # inputs through one exit on which material that entered at a jump of b
        # leaves before T: W reads the delayed b across that jump. Comparing
        # tau - 1 with the crossing, in place of tau with the crossing + 1, can
        # round onto the old cell of b; such a curve ended 0.0136 off at t = 3.
        # solve_ivp at rtol 1e-12 is itself 2e-11 to 1.3e-10 off here, so the
        # curve is held to tol of the exact pieces, and those to 5e-10 of the oracle
        rng, T, found = np.random.default_rng(11), 2.5, 0
        t = np.linspace(0.0, T, 1001)
        while found < 4:
            b, rho0 = random_scenario(rng, horizon=T)
            xi = solve_xi(DensityInflow(b), rho0, law, T, tol=tol)
            if not (1.0 < xi.x_end < 2.0 and np.any(xi(b.breakpoints[1:-1]) + 1.0 < xi.x_end)):
                continue
            found += 1
            exact = _exact(_density_pieces(DensityInflow(b), rho0, law, T), law, t)[0]
            assert np.max(np.abs(xi(t) - exact)) <= tol
            assert np.max(np.abs(exact - density_ode_oracle(b, rho0, law, T, t))) <= 5e-10
            W = Trajectory(law, rho0, xi, T, DensityInflow(b)).total_mass(xi.times)
            assert np.max(np.abs(xi.slopes - law(W)) / law(W)) <= 1e-14

    def test_drained_domain_refills_on_the_first_piece_of_the_law(self):
        # b = 0 drains the domain by the exit, and W summed to -7.6e-17 there:
        # the table's constant extension below W = 0 then held the speed at 1
        # after b turned on, and the curve ended 0.117 off
        law = self.MILD
        rho0 = DensityProfile([0.0, 0.1, 0.35, 0.7, 1.0], [0.3, 1.7, 0.9, 2.3])
        b, T = ControlSignal([0.0, 1.7, 2.3], [0.0, 1.5]), 2.3
        xi = solve_xi(DensityInflow(b), rho0, law, T)
        assert 1.0 < xi.x_end < 2.0
        assert np.min(_density_pieces(DensityInflow(b), rho0, law, T)[2]) == 0.0
        assert_exact_density_curve(xi, b, rho0, law, T, 1e-10)

    def test_tol_below_the_rounding_raises_at_the_knot_resolution(self):
        # no halving brings a cubic within 2.5e-21 of a curve near 1; the miss
        # stops shrinking at the rounding of the values, long before 2^40 segments
        b = DensityInflow(ControlSignal.constant(2.0, 2.5))
        with pytest.raises(SolverError, match="knot resolution 2.5e-13"):
            solve_xi(b, DensityProfile.constant(1.0), reciprocal(), 2.5, tol=1e-20)


class TestNewtonWindows:
    """Trial windows iterate the map's output plus a Newton correction; they
    need about half the map applications of the plain map, and keep its
    fixed point."""

    RHO0 = DensityProfile([0.0, 0.4, 1.0], [0.3, 0.8])

    @pytest.fixture
    def applications(self, monkeypatch):
        calls = []
        integrate = characteristics._integrate_window

        def counting(*args):
            calls.append(args[4].t_end)
            return integrate(*args)

        monkeypatch.setattr(characteristics, "_integrate_window", counting)
        return calls

    @pytest.mark.parametrize("tol", [1e-10, 1e-11])
    def test_smooth_flux_input_takes_four_applications(self, applications, tol):
        # the plain map takes 8 and 9
        u = ControlSignal([0.0, 0.3, 0.7, 1.0], [1.0, 0.2, 0.6])
        xi = solve_xi(u, self.RHO0, reciprocal(), 0.9, tol=tol)
        assert len(applications) <= 4
        t = np.linspace(0.0, 0.9, 200)
        assert np.max(np.abs(xi(t) - ode_oracle(u, self.RHO0, reciprocal(), 0.9, t))) <= 100 * tol

    def test_boundary_density_input_takes_at_most_thirteen_applications(self, applications):
        # the plain map took 18 and the Newton windows 13; the curve is now built
        # from exact pieces with no map application, and leaves x = 1
        b = ControlSignal([0.0, 0.2, 0.5, 2.0], [1.5, 0.4, 1.2])
        tol = 1e-10
        xi = solve_xi(DensityInflow(b), self.RHO0, reciprocal(), 2.0, tol=tol)
        assert applications == []
        assert 1.0 < xi.x_end < 2.0
        assert_exact_density_curve(xi, b, self.RHO0, reciprocal(), 2.0, tol)

    @pytest.mark.parametrize("law", [reciprocal(), TestExactDensityCurve.MILD],
                             ids=["reciprocal", "mild"])
    def test_flux_input_past_the_exit_takes_at_most_fifteen_applications(self, applications,
                                                                         law):
        # 14 and 13 applications; with the outlet density past the exit left
        # out of the Newton step's coefficient A, 20 and 18
        u = ControlSignal([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 1.2])
        xi = solve_xi(u, DensityProfile([0.0, 0.4, 1.0], [0.8, 1.2]), law, 3.0)
        assert 1.1 < xi.x_end < 1.3
        assert len(applications) <= 15

    @pytest.mark.parametrize("law, u, rho0, T, tol, given_up", [
        (tabulated([0.0, 2.3, 2.4, 20.0], [1.0, 0.9, 0.1, 0.05]),
         ControlSignal.constant(0.05, 1.1), DensityProfile.constant(2.5), 1.1, 1e-11, True),
        (reciprocal(), ControlSignal([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 1.2]),
         DensityProfile([0.0, 0.4, 1.0], [0.8, 1.2]), 3.0, 1e-10, False),
    ], ids=["given-up-trials", "past-the-exit"])
    def test_lumped_coefficient_is_evaluated_only_for_a_newton_step(self, monkeypatch, windows,
                                                                    law, u, rho0, T, tol,
                                                                    given_up):
        # A is evaluated once per Newton step: not on a window's last
        # application, nor on a trial given up. In a flux solve law.slope is
        # called by A and, once per call, by bounds
        steps, slopes, bounds = [], [], []
        newton, slope, bound = characteristics._newton_values, type(law).slope, type(law).bounds
        monkeypatch.setattr(characteristics, "_newton_values",
                            lambda *args: steps.append(1) or newton(*args))
        monkeypatch.setattr(type(law), "slope",
                            lambda self, *args: slopes.append(1) or slope(self, *args))
        monkeypatch.setattr(type(law), "bounds", lambda self, M: bounds.append(1) or bound(self, M))
        solve_xi(u, rho0, law, T, tol=tol)
        assert any(not accepted for *_, accepted in windows) == given_up
        assert steps and len(slopes) - len(bounds) == len(steps)


class TestBoundaryMass:
    """B(z, sigma) reads the mass that has left off the entry times sigma when
    a caller holds them, and off the positions z otherwise; the two paths
    agree bit for bit, and so do both sides of the exit mask x >= 1."""

    U = ControlSignal([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 1.2])
    RHO0 = DensityProfile([0.0, 0.4, 1.0], [0.8, 1.2])

    @pytest.mark.parametrize("mode", ["u", "boundary_density"])
    @pytest.mark.parametrize("law", [reciprocal(), TestExactDensityCurve.MILD],
                             ids=["reciprocal", "mild"])
    def test_entry_times_give_the_position_path(self, mode, law):
        rho0 = self.RHO0
        traj = simulate(rho0, law, 3.0, **{mode: self.U})
        inflow, B, xi = traj.inflow, traj.boundary_mass, traj.xi
        t = np.linspace(0.0, 3.0, 301)
        x = xi(t)
        post = x >= 1.0
        assert 0 < post.sum() < t.size - 100
        sigma = xi.inverse(x[post] - 1.0)
        assert np.array_equal(inflow.mass(rho0, t, x, B, sigma), inflow.mass(rho0, t, x, B))
        assert np.array_equal(inflow.outflow(rho0, x, B, sigma), inflow.outflow(rho0, x, B))
        if mode == "u":
            assert np.array_equal(traj.cumulative_influx(t), self.U.cumulative(t))
        # at x = 1 the mass that has left is B(0) = 0 and R0(0) = 0: the
        # mass and the outflow are the pre-exit formula's
        s, one = np.array([traj.exit_time]), np.ones(1)
        at_exit = xi.inverse(np.zeros(1))
        pre_exit = B(one, s) + rho0.cumulative(1.0 - one)
        assert np.array_equal(inflow.mass(rho0, s, one, B, at_exit), pre_exit)
        assert np.array_equal(inflow.mass(rho0, s, one, B), pre_exit)
        pre_exit = rho0.total_mass - rho0.cumulative(1.0 - one)
        assert np.array_equal(inflow.outflow(rho0, one, B, at_exit), pre_exit)
        assert np.array_equal(inflow.outflow(rho0, one, B), pre_exit)


class TestLabels:
    def test_labels_of_initial_and_entered_jumps(self):
        u = ControlSignal([0.0, 0.5, 1.0, 2.0], [1.0, 0.5, 1.5])
        rho0 = DensityProfile([0.0, 0.25, 1.0], [1.0, 2.0])
        xi = solve_xi(u, rho0, reciprocal(), 2.0)
        z = FluxInflow(u).labels(rho0, xi, 1.0)
        # -beta for beta in {0, 0.25}, then xi(tau) for tau in {0.5, 1.0}
        assert np.array_equal(z, np.array([-0.0, -0.25, xi(0.5), xi(1.0)]))
        assert FluxInflow(u).labels(rho0, xi, 0.0).tolist() == [-0.0, -0.25]


class TestGaussTables:
    def test_lagrange_rows_are_the_cardinal_polynomials(self):
        nodes = [-0.9, -0.2, 0.4, 1.0]
        rows = lagrange_rows(nodes)
        assert np.allclose([np.polyval(r, nodes) for r in rows], np.eye(4), rtol=0.0, atol=1e-14)

    def test_integrals_sum_to_the_weights_and_the_nodes(self):
        # each column integrates one cardinal quadratic over [0, theta]: at
        # theta = 1 it gives the Gauss weight, and at a node g the rows of the
        # collocation matrix add up to theta_g
        assert np.max(np.abs(_G3_INTEGRATED.sum(axis=0) - G3_WEIGHTS)) <= 1e-15
        assert np.max(np.abs(_G3_COLLOCATION.sum(axis=1) - _G3_NODES)) <= 1e-15


class TestInverse3:
    def test_equals_the_cross_product_cofactors_and_inverts(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(600, 3, 3)) + 3.0 * np.eye(3)
        cof = np.stack((np.cross(m[:, 1], m[:, 2]), np.cross(m[:, 2], m[:, 0]),
                        np.cross(m[:, 0], m[:, 1])), axis=-1)
        det = np.einsum("ji,ji->j", m[:, 0], cof[:, :, 0])
        inv = _inverse3(m)
        assert np.array_equal(inv, cof / det[:, None, None])
        assert np.allclose(inv @ m, np.eye(3), rtol=0.0, atol=1e-12)
