"""Characteristic curve through (0, 0): xi'(t) = speed(W(t)), W the total mass.

Under a boundary density W is piecewise linear in tau = xi(t), and t(tau) is
exact on each piece (``SpeedLaw.elapsed``): the curve has a knot at every
piece end, and segments are halved until each cubic Hermite midpoint lies
within tol / 4 of the exact curve. Under an influx the curve is the fixed
point of an integral map, built window by window (``solve_xi``): trial
windows iterate the map with a Newton correction (``_solve_window``), while
a-priori windows, short enough for the map to be a 1/2-contraction, and
``apply_F`` apply the plain map, whose contraction the paper proves. Integrals
of the speed are composite 3-point Gauss quadratures on a knot grid at the
kinks of the integrand (``_window_knots``). Iterates and the frozen prefix are
built without the curve checks; the curve ``solve_xi`` returns is checked.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .laws import SpeedLaw
from .rules import breakpoints, count, covers, finite_positive
from .signals import ControlSignal, DensityProfile, distinct, segment

__all__ = ["CharacteristicCurve", "CurveAdjoint", "DensityInflow", "FluxInflow", "G3_WEIGHTS",
           "Inflow", "SolverError", "apply_F", "gauss_nodes", "lagrange_rows", "solve_xi"]

# nodes/weights of 3-point Gauss-Legendre on [0, 1]
_G3_NODES = np.array([0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0])
G3_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


def gauss_nodes(edges, theta=_G3_NODES):
    """(h, nodes): the widths of the panels ``edges`` and their Gauss nodes at offsets ``theta``."""
    h = np.diff(edges)
    return h, (edges[:-1, None] + h[:, None] * theta).ravel()


def _inverse3(m):
    """Inverses of a stack of 3 x 3 matrices, from their cofactors (no LAPACK)."""
    a, b, c = m[:, 0].T, m[:, 1].T, m[:, 2].T  # the rows, component first
    cof = np.empty(m.shape)
    for k, (p, q) in enumerate(((b, c), (c, a), (a, b))):  # column k is p x q
        cof[:, 0, k] = p[1] * q[2] - p[2] * q[1]
        cof[:, 1, k] = p[2] * q[0] - p[0] * q[2]
        cof[:, 2, k] = p[0] * q[1] - p[1] * q[0]
    return cof / np.einsum("ji,ji->j", m[:, 0], cof[:, :, 0])[:, None, None]


def lagrange_rows(nodes):
    """Row i: the coefficients, highest power first, of the polynomial that is 1
    at nodes[i] and 0 at the others, the product of the (y - yk) divided once by
    its value at nodes[i]. Plain float arithmetic: numpy's polynomial helpers or a
    first matmul or LAPACK call at import would raise every command's peak memory."""
    rows = []
    for yi in nodes:
        row, den = [1.0], 1.0
        for yk in nodes:
            if yk != yi:  # times (y - yk)
                row = [a - yk * b for a, b in zip(row + [0.0], [0.0] + row)]
                den *= yi - yk
        rows.append([c / den for c in row])
    return np.array(rows)


# row p, column i: the coefficient of theta^(p+1) in the integral from 0 to
# theta of the quadratic that is 1 at node i and 0 at the other nodes
_G3_INTEGRATED = (lagrange_rows(_G3_NODES.tolist())[:, ::-1] / [1.0, 2.0, 3.0]).T
# the collocation matrix of 3-stage Gauss: row g integrates up to node g
_G3_COLLOCATION = np.sum((_G3_NODES[:, None] ** np.arange(1, 4))[:, :, None] * _G3_INTEGRATED,
                         axis=1)
_NEWTON_TOL = 1e-13  # time step at which Newton inversion stops
_MAX_ITER = 80  # map applications allowed per window


def _horner(d, coeffs):
    """The polynomial in d with ``coeffs``, highest power first (degree >= 1);
    one array is allocated and updated in place."""
    out = coeffs[0] * d
    for c in coeffs[1:-1]:
        out += c
        out *= d
    out += coeffs[-1]
    return out


class SolverError(RuntimeError):
    """Fixed-point iteration failed to converge, or a curve failed to invert."""


@dataclass(frozen=True)
class CharacteristicCurve:
    """Strictly increasing curve given by knot times, values and slopes.

    Between knots the curve is the cubic Hermite interpolant; slopes are the
    transport speed at the knot, so secants stay inside the speed envelope. A
    single knot is the curve at one instant, as at the start of a solve. The
    cubic of segment k is built once per curve, as x_k + d (s_k + d (a2_k +
    d a3_k)) in the offset d = t - t_k; times outside the knots are clamped.

    A curve holds one coefficient table whose rows run a3, a2, s, t_k, x_k,
    h (the segment width) and the secant slope, one column per knot: the last
    column completes the knot rows, which are the ``times``, ``values`` and
    ``slopes`` fields, and gives a one-knot curve its constant segment.
    Evaluation gathers the leading five rows, the slope four, inversion all.
    The public constructor checks the knots; the solver builds its iterates
    and frozen prefixes through ``_unchecked`` and checks the curve it returns.
    """

    times: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ts = np.asarray(self.times, dtype=float)
        xs = np.asarray(self.values, dtype=float)
        ss = np.asarray(self.slopes, dtype=float)
        if not (ts.shape == xs.shape == ss.shape) or ts.ndim != 1 or ts.size < 1:
            raise ValueError("knot arrays must share a 1-D shape of length >= 1")
        # the checks reuse the diffs the coefficients need; a NaN fails each
        # of them (min propagates it)
        h, dx = ts[1:] - ts[:-1], xs[1:] - xs[:-1]
        if not (np.minimum(h, dx).min(initial=np.inf) > 0 and math.isfinite(ts[0])
                and math.isfinite(ts[-1]) and math.isfinite(xs[0]) and math.isfinite(xs[-1])):
            raise ValueError("knot times and values must be finite and strictly increasing")
        if not (ss.min() > 0 and ss.max() < np.inf):
            raise ValueError("knot slopes must be positive and finite")
        self._fill(ts, xs, ss, h, dx)

    @classmethod
    def _unchecked(cls, ts, xs, ss) -> "CharacteristicCurve":
        """The curve through float knot arrays the caller knows to be valid,
        built without the checks: a window iterate's values are a cumulative
        sum of positive increments, and its slopes are speeds."""
        curve = object.__new__(cls)
        curve._fill(ts, xs, ss, ts[1:] - ts[:-1], xs[1:] - xs[:-1])
        return curve

    def _fill(self, ts, xs, ss, h, dx):
        """Build the coefficient table from the knots and their gaps h, dx."""
        table = np.zeros((7, ts.size))
        a3, a2, s, t, x, w, m = table
        s[:], t[:], x[:], w[:-1] = ss, ts, xs, h
        np.divide(dx, h, out=m[:-1])
        q = ss[:-1] + ss[1:] - 2.0 * m[:-1]  # a3 h^2; then a2 h = m - s_k - a3 h^2
        np.divide(m[:-1] - ss[:-1] - q, h, out=a2[:-1])
        np.divide(q, h * h, out=a3[:-1])
        # a frozen dataclass: the fields go into the instance dict directly
        self.__dict__.update(times=t, values=x, slopes=s, _table=table)

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def x_end(self) -> float:
        return float(self.values[-1])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        ts = self.times
        a3, a2, s, t_k, x_k = self._table[:5].take(segment(ts, t), axis=1)
        d = np.minimum(np.maximum(t, ts[0]), ts[-1]) - t_k
        out = _horner(d, (a3, a2, s, x_k))
        return float(out) if t.ndim == 0 else out

    def slope(self, t):
        t = np.asarray(t, dtype=float)
        ts = self.times
        a3, a2, s, t_k = self._table[:4].take(segment(ts, t), axis=1)
        d = np.minimum(np.maximum(t, ts[0]), ts[-1]) - t_k
        out = _horner(d, (3.0 * a3, 2.0 * a2, s))
        return float(out) if t.ndim == 0 else out

    def inverse(self, x):
        """Unique t with curve(t) = x, for x in [curve(0), curve(T)].

        Each target is located once on the values; Newton then runs on that
        segment's cubic with the segment held fixed. A point Newton leaves
        unresolved raises SolverError naming its segment.
        """
        x = np.asarray(x, dtype=float)
        if not x.size:
            return np.empty(x.shape)
        ts, xs = self.times, self.values
        lo, hi = x.min(), x.max()  # NaN if any x is NaN
        if not (lo >= xs[0] - 1e-12 and hi <= xs[-1] + 1e-12):
            raise ValueError(f"positions [{lo:g}, {hi:g}] outside curve range "
                             f"[{xs[0]:g}, {xs[-1]:g}]")
        if ts.size == 1:
            return float(ts[0]) if x.ndim == 0 else np.full(x.shape, ts[0])
        xv = np.atleast_1d(x)  # the Newton loop updates its arrays in place
        idx = segment(xs, xv)
        a3, a2, s, t_k, x_k, h, m = self._table.take(idx, axis=1)
        r = x_k - xv
        value, derivative = (a3, a2, s, r), (3.0 * a3, 2.0 * a2, s)
        d = np.minimum(np.maximum(-r / m, 0.0), h)
        for _ in range(60):
            step = _horner(d, value)
            fp = _horner(d, derivative)
            step /= np.maximum(fp, 1e-300, out=fp)
            d -= step
            np.minimum(np.maximum(d, 0.0, out=d), h, out=d)
            if np.abs(step).max() <= _NEWTON_TOL:
                break
        bad = np.abs(_horner(d, value)) > 1e-11 * max(1.0, xs[-1])
        if bad.any():
            i = idx.ravel()[bad.argmax()]
            raise SolverError(f"Newton inversion unresolved on segment [{ts[i]:g}, {ts[i + 1]:g}]")
        d += t_k
        return float(d[0]) if x.ndim == 0 else d

    def reach(self, x: np.ndarray) -> np.ndarray:
        """The times at which the curve takes those of the positions x (a float
        array) that lie strictly inside (``values[0]``, ``x_end``), in their
        order; with none there, an empty array without an ``inverse`` call."""
        xs = self.values
        x = x[(x > xs[0]) & (x < xs[-1])]
        return self.inverse(x) if x.size else np.empty(0)

    def with_exits(self, times) -> np.ndarray:
        """Sorted ``times`` and every later time at which a particle that
        entered x = 0 at one of them, or at such a time, leaves x = 1."""
        found = new = np.asarray(times, dtype=float)
        while new.size:
            new = self.reach(self(new) + 1.0)
            found = np.concatenate((found, new))
        return distinct(found)

    def sample(self, n: int):
        """(t, xi, xi') on a uniform grid of n points, for export."""
        t = np.linspace(self.times[0], self.times[-1], n)
        return t, self(t), self.slope(t)

    def restricted(self, t_hi: float) -> "CharacteristicCurve":
        """Copy truncated to [times[0], t_hi] (t_hi must be beyond the first knot)."""
        k = int(np.searchsorted(self.times, t_hi, side="left"))
        ts = self.times[:k]
        if ts.size == 0 or ts[-1] < t_hi - 1e-15:
            ts = np.append(ts, t_hi)
            xs = np.append(self.values[: ts.size - 1], self(t_hi))
            ss = np.append(self.slopes[: ts.size - 1], self.slope(t_hi))
        else:
            xs, ss = self.values[:k], self.slopes[:k]
        return CharacteristicCurve(ts, xs, ss)


# ---------------------------------------------------------------------------
# boundary inflow: total mass W(s) as a functional of the curve
# ---------------------------------------------------------------------------

class Inflow:
    """Boundary control at x = 0: a prescribed influx or boundary density.

    Both modes give the total mass as one functional of a characteristic
    curve xi through (0, 0). With B(z, sigma) the mass that entered while xi
    was below z, sigma the time at which xi is at z, and R0 the cumulative
    initial density,

        W(s) = B(xi(s), s) + R0(1 - xi(s))           until xi reaches x = 1,
        W(s) = B(xi(s), s) - B(xi(s) - 1, sigma)     after,

    with sigma the entry time of the particle at x = 1. The two subclasses
    supply B (``boundary_mass``, built once per curve: without sigma, entry
    times are found on the frozen ``prefix``), the boundary density and
    influx; the solver and ``Trajectory`` share the rest. The window map's
    Newton step also needs the density at x = 1: rho0's before the exit, the
    boundary density at the entry time after it (``_integrate_window``).
    """

    def __init__(self, signal: ControlSignal):
        self.signal = signal

    @staticmethod
    def of(u: ControlSignal | None = None,
           boundary_density: ControlSignal | None = None) -> "Inflow":
        """The inflow of exactly one of an influx ``u`` and a ``boundary_density``."""
        if (u is None) == (boundary_density is None):
            raise ValueError("provide exactly one of u and boundary_density")
        return DensityInflow(boundary_density) if u is None else FluxInflow(u)

    def mass(self, rho0: DensityProfile, s, xi_s, B, sigma=None):
        """W at times s where the curve takes values xi_s; B is its boundary_mass.
        Past the exit (xi_s >= 1) the mass that has left is B(xi_s - 1, sigma),
        read off the entry times ``sigma`` there when the caller holds them."""
        xi_s = np.asarray(xi_s, dtype=float)
        entered = B(xi_s, s)
        W = entered + rho0.cumulative(1.0 - xi_s)
        post = xi_s >= 1.0
        if post.any():
            W[post] = entered[post] - B(xi_s[post] - 1.0, sigma)
        return W

    def outflow(self, rho0: DensityProfile, x, B, sigma=None):
        """Mass past x = 1 with the curve at the array of positions x; B is its
        boundary_mass, and past the exit (x >= 1) it adds B(x - 1, sigma), read
        off the entry times ``sigma`` there when the caller holds them."""
        out = rho0.total_mass - rho0.cumulative(1.0 - x)
        post = x >= 1.0
        if post.any():
            out[post] += B(x[post] - 1.0, sigma)
        return out

    def labels(self, rho0: DensityProfile, xi: CharacteristicCurve, t: float) -> np.ndarray:
        """Labels of the data jumps that have entered by time t: -beta for each
        rho0 breakpoint beta < 1, then xi(tau) for each breakpoint tau in (0, t]
        of the signal. At time s label z sits at x = xi(s) - z; it leaves x = 1
        when xi = 1 + z."""
        tau = self.signal.breakpoints
        return np.concatenate((-rho0.breakpoints[:-1], xi(tau[(tau > 0.0) & (tau <= t)])))


class FluxInflow(Inflow):
    """Prescribed influx u(t): the classical boundary condition."""

    what = "control"  # the signal's name in messages

    def boundary_mass(self, prefix):
        """B(z, sigma) = U(sigma), U the cumulative influx; without sigma, U(prefix^-1(z)):
        windows below 1/sup-speed keep that entry time in the frozen prefix."""
        return lambda z, sigma=None: self.signal.cumulative(
            prefix.inverse(z) if sigma is None else sigma)

    def boundary_density(self, t, speed):
        """rho(t, 0) = u(t) / speed(t)."""
        return self.signal(t) / speed(t)

    def influx(self, t, speed):
        return self.signal(t)


class DensityInflow(Inflow):
    """Prescribed boundary density b(t); the influx u = b * speed is derived.

    Material entering at time tau carries density b(tau), so the mass that
    entered while the curve was below z is the cumulative of the step function
    b composed with the inverse curve, expressed in position space.
    """

    what = "boundary-density"

    def boundary_mass(self, prefix):
        """B(z, sigma), which reads z alone: b's breakpoints mapped to positions; a cell
        the curve has not crossed has zero width and adds exactly 0 (np.interp takes repeats)."""
        z = np.maximum.accumulate(prefix(self.signal.breakpoints))
        mass = np.concatenate(([0.0], (self.signal.values * (z[1:] - z[:-1])).cumsum()))
        return lambda x, sigma=None: np.interp(x, z, mass)

    def boundary_density(self, t, speed):
        return self.signal(t)

    def influx(self, t, speed):
        """u(t) = b(t) * speed(t)."""
        return self.signal(t) * speed(t)


# ---------------------------------------------------------------------------
# window machinery
# ---------------------------------------------------------------------------

def _window_knots(inflow, rho0, prefix, t_a, t_b, n_uniform):
    """Knot grid of the window [t_a, t_b] as a function of a candidate curve.

    The uniform refinement, the time breakpoints and the kink levels in xi
    depend only on the window and the frozen ``prefix``, so they are built
    once; the returned ``knots(cand, kinks=())`` adds the times where ``cand``
    crosses a level, and ``kinks``, extra knot times where the speed law has a
    kink. Both window ends are knots; a knot between them within the
    resolution of an end or of the knot below it is dropped, and a window
    below the resolution raises. The knot sources are merged by one sort:
    that drop also removes repeated times.
    """
    res = 1e-13 * max(1.0, t_b)
    if not t_b - t_a > res:
        raise SolverError(f"window [{t_a:g}, {t_b:g}] of length {t_b - t_a:.3g} is below "
                          f"the knot resolution {res:.3g}")
    bp = inflow.signal.breakpoints
    fixed = np.concatenate((np.linspace(t_a, t_b, n_uniform + 1), bp[(bp > t_a) & (bp < t_b)]))
    all_levels = 1.0 + inflow.labels(rho0, prefix, prefix.t_end)

    def knots(cand, kinks=()):
        grid = np.concatenate((fixed, kinks, cand.reach(all_levels)))
        grid.sort()
        # grid[lo:hi] is the part in [t_a, t_b - res): t_a first (the uniform
        # grid holds it); grid[hi] exists, as t_b is in the grid, and becomes t_b
        lo, hi = grid.searchsorted((t_a, t_b - res))
        grid = grid[lo:hi + 1]
        grid[-1] = t_b
        keep = np.concatenate(([True], grid[1:] - grid[:-1] > res))
        keep[-1] = True
        return grid[keep]

    return knots


def _integrate_window(inflow, rho0, law, prefix, cand, knots, B):
    """One application of the window map on a knot grid; B is the prefix's boundary_mass.

    The candidate is evaluated once, on the knots and the Gauss nodes
    together, and each node past the exit is inverted once on the prefix for
    its entry time. Returns the mapped values, the candidate at the knots and,
    unevaluated, the lumped coefficient A_j = h_j sum_g w_g a(node g) of each
    knot interval, with a = lam'(W) dW/dxi the linearized map's: dW/dxi is
    minus the density at x = 1, rho0's until xi reaches 1 and the boundary
    density at the entry time after.
    """
    h, nodes = gauss_nodes(knots)
    xi = cand(np.concatenate((knots, nodes)))
    xi_knots, xi_nodes = xi[:knots.size], xi[knots.size:]
    exited = xi_nodes >= 1.0
    sigma = prefix.inverse(xi_nodes[exited] - 1.0)
    W = inflow.mass(rho0, nodes, xi_nodes, B, sigma)
    increments = h * (law(W).reshape(-1, 3) @ G3_WEIGHTS)
    values = xi_knots[0] + np.concatenate(([0.0], increments.cumsum()))

    def A():
        rho1 = rho0(1.0 - xi_nodes)
        if sigma.size:  # an empty call took about 4% of a T = 1 tracking solve
            rho1[exited] = inflow.boundary_density(sigma, prefix.slope)
        return h * ((law.slope(W) * -rho1).reshape(-1, 3) @ G3_WEIGHTS)
    return values, xi_knots, A


def _newton_values(values, resid, A, h, speeds):
    """The values F(c) + e of the Newton-corrected candidate at the knots.

    e solves the linearized window equation e' = a (e + r), e(t_a) = 0, with r
    = F(c) - c the knot residual, discretized per knot interval as e_{j+1} =
    (1 + A_j) e_j + A_j (r_j + r_{j+1}) / 2: one cumulative product and one
    cumulative sum. e vanishes with r, so the map's fixed point is kept (C. T.
    Kelley, Iterative Methods for Linear and Nonlinear Equations, SIAM 1995,
    ch. 5). If a corrected increment leaves [h inf speed, h sup speed] (a NaN
    does), the plain F(c) is returned.
    """
    with np.errstate(all="ignore"):
        growth = (1.0 + A).cumprod()
        e = growth * (A * (resid[:-1] + resid[1:]) * 0.5 / growth).cumsum()
        new = values + np.concatenate(([0.0], e))
        rates = (new[1:] - new[:-1]) / h
    return new if speeds[0] <= rates.min() and rates.max() <= speeds[1] else values


def _solve_window(inflow, rho0, law, prefix, t_a, t_b, tol, n_uniform, speeds=None):
    """Fixed-point iteration of the window map starting from the linear guess.

    A trial is a window given ``speeds``, the (inf, sup) of the speed: no
    a-priori bound backs its length, so it is given up (None is returned) as
    soon as a residual is more than half the one before, the 1/2-contraction
    that bound would guarantee not being observed. A trial owns the Newton
    step: an application whose residual exceeds tol / 2 evaluates the map's
    lumped coefficient A, and the next candidate is the map's output plus a
    Newton correction (``_newton_values``) if its increments stay in the
    ``speeds``. An a-priori window iterates the plain map. Either stops once a residual is
    at most tol / 2 and returns the map's output. The iterates are built
    unchecked, so a non-finite residual fails the window at once: a trial is
    given up, any other window raises SolverError.
    """
    x_a = prefix.x_end
    s_a = prefix.slopes[-1]
    cand = CharacteristicCurve._unchecked(np.array([t_a, t_b]),
                                          np.array([x_a, x_a + s_a * (t_b - t_a)]),
                                          np.array([s_a, s_a]))
    window_knots = _window_knots(inflow, rho0, prefix, t_a, t_b, n_uniform)
    B = inflow.boundary_mass(prefix)
    resid = np.inf
    kinks = ()  # unknown until W is known on a candidate
    for _ in range(_MAX_ITER):
        knots = window_knots(cand, kinks)
        values, old, A = _integrate_window(inflow, rho0, law, prefix, cand, knots, B)
        r = values - old
        new_resid = float(np.abs(r).max())
        if not new_resid < np.inf:  # NaN or infinite: the iterate is no curve
            if speeds is not None:
                return None
            raise SolverError(f"window [{t_a:g}, {t_b:g}]: the window map gave a "
                              f"non-finite residual {new_resid}")
        if speeds is not None and new_resid > 0.5 * resid:
            return None
        resid = new_resid
        if speeds is not None and resid > 0.5 * tol:
            values = _newton_values(values, r, A(), knots[1:] - knots[:-1], speeds)
        W = inflow.mass(rho0, knots, values, B)
        cand = CharacteristicCurve._unchecked(knots, values, law(W))
        kinks = law.kink_times(knots, W)
        if resid <= 0.5 * tol:
            return cand
    raise SolverError(
        f"window [{t_a:g}, {t_b:g}] did not converge: residual {resid:.3e} "
        f"after {_MAX_ITER} iterations (tol {tol:g})"
    )


def _choose_window(inflow, rho0, bounds, prefix, T):
    """A-priori window length at the current front time.

    ``bounds`` are the law's (inf speed, sup speed, sup |slope| > 0) over
    masses in [0, M]. On windows of the returned length, the cap halved as
    few times as needed, the tail-mass criterion makes the window map a
    1/2-contraction.
    """
    lam_tilde, lam_bar, d = bounds
    deltas = min(0.9 / lam_bar, T - prefix.t_end) * 0.5 ** np.arange(200)
    gone = inflow.outflow(rho0, prefix.x_end + lam_bar * np.append(0.0, deltas),
                          inflow.boundary_mass(prefix))
    ok = np.flatnonzero(gone[1:] - gone[0] < 0.99 * (0.5 * lam_tilde / d))
    if not ok.size:
        raise SolverError("could not find an admissible window length")
    return float(deltas[ok[0]])


def _density_pieces(inflow, rho0, law, T):
    """Rows t, tau = xi(t), W at each piece boundary of the density-mode curve,
    from (0, 0, W(0)) to t = T, and the rate g of W in tau on the piece it starts.

    With E(tau) the integral of b(t(s)) over [0, tau], W = E(tau) + R0(1 - tau)
    before the exit and E(tau) - E(tau - 1) after it, linear on a piece. A
    piece ends at the first of tau = 1 - beta (beta a breakpoint of rho0; 1 is
    the exit), tau_j + 1 (t crossed a breakpoint of b at tau_j), a kink of the
    law, the next breakpoint of b and T; exactly on a tau-event, off which the
    cells of rho0 and of the delayed b are counted."""
    bp, vb, kinks = inflow.signal.breakpoints, inflow.signal.values.tolist(), law.kinks.tolist()
    lines, rv = (1.0 - rho0.breakpoints[-2::-1]).tolist(), rho0.values[::-1].tolist()
    delayed = [1.0]  # tau_j + 1 per breakpoint of b crossed, from b's first at 0
    pieces, t, tau, W = [], 0.0, 0.0, rho0.total_mass
    while t < T:
        k, m = bisect.bisect_right(lines, tau), bisect.bisect_right(delayed, tau)
        g = vb[len(delayed) - 1] - (rv[k] if k < len(lines) else vb[m - 1])
        tau_e = min(lines[k:k + 1] + delayed[m:m + 1], default=np.inf)
        W_e = W + g * (tau_e - tau) if g else W
        i = bisect.bisect_right(kinks, W) if g > 0 else bisect.bisect_left(kinks, W) - 1
        if g and 0 <= i < len(kinks) and abs(kinks[i] - W) < abs(g) * (tau_e - tau):
            W_e, tau_e = kinks[i], tau + (kinks[i] - W) / g  # the next kink W meets
        t_e = min(bp[len(delayed)], T)
        dt = float(law.elapsed(W, g, tau_e - tau)) if tau_e < np.inf else np.inf
        if t + dt < t_e:
            t_e = t + dt
        else:  # the next breakpoint of b, or T, comes first
            d = float(law.advance(W, g, t_e - t))
            tau_e, W_e = tau + d, W + g * d
            delayed.append(tau_e + 1.0)
        pieces.append((t, tau, W, g))
        t, tau, W = t_e, tau_e, max(W_e, 0.0)  # no mass below 0, nor a slope there
    return np.array(pieces + [(t, tau, W, 0.0)]).T


def _exact(pieces, law, t):
    """(xi, W) at the times t in [0, T], off the ``_density_pieces``."""
    t_i, tau_i, W_i, g_i = pieces[:, pieces[0].searchsorted(t, "right") - 1]
    d = law.advance(W_i, g_i, t - t_i)
    return tau_i + d, W_i + g_i * d


def _density_curve(inflow, rho0, law, T, tol):
    """The density-mode curve: knots at the ends of its ``_density_pieces`` (an
    end that rounds onto the one before is dropped), with exact values and
    slopes lambda(W); then, in rounds over all segments at once, each segment
    whose cubic Hermite midpoint (x_a + x_b) / 2 + h (s_a - s_b) / 8 misses the
    exact curve by more than tol / 4 is halved. A miss at the knot resolution,
    or within the rounding of the values, raises SolverError."""
    pieces = _density_pieces(inflow, rho0, law, T)
    t, x, W, _ = pieces[:, np.append(True, (np.diff(pieces[0]) > 0) & (np.diff(pieces[1]) > 0))]
    t[-1] = T
    knots = [np.stack((t, x, law(W)))]
    res = 1e-13 * max(1.0, T)
    seg = np.vstack((knots[0][:, :-1], knots[0][:, 1:]))  # rows: t, x, s at both ends
    while seg.size:
        h = seg[3] - seg[0]
        mid_t = seg[0] + 0.5 * h
        mid_x, mid_W = _exact(pieces, law, mid_t)
        miss = np.abs(0.5 * (seg[1] + seg[4]) + 0.125 * h * (seg[2] - seg[5]) - mid_x)
        bad = miss > 0.25 * tol
        stuck = np.flatnonzero(bad & ((h <= res) | (miss <= 4.0 * np.spacing(mid_x))))
        if stuck.size:
            i = stuck[0]
            raise SolverError(f"segment [{seg[0, i]:g}, {seg[3, i]:g}] misses the exact curve by "
                              f"{miss[i]:.3g}; no knots above the knot resolution {res:.3g} fit")
        mid = np.stack((mid_t[bad], mid_x[bad], law(mid_W[bad])))
        knots.append(mid)
        seg = np.vstack((np.hstack((seg[:3, bad], mid)), np.hstack((mid, seg[3:, bad]))))
    knots = np.hstack(knots)
    return CharacteristicCurve(*knots[:, knots[0].argsort()])


def solve_xi(
    inflow: Inflow | ControlSignal,
    rho0: DensityProfile,
    law: SpeedLaw,
    T: float,
    tol: float = 1e-10,
    *,
    knots_per_window: int = 256,
) -> CharacteristicCurve:
    """Characteristic curve through (0, 0) on [0, T] under the boundary ``inflow``
    (a bare ``ControlSignal`` is a prescribed influx), within ``tol``.

    A ``DensityInflow``'s curve is built from exact pieces (``_density_curve``);
    an influx's by window-by-window fixed-point continuation. Each window tries
    twice the last accepted length, capped at 0.9 / sup speed and at T (the
    first window tries the cap), and keeps it while the residuals halve at
    every map application. A window whose trial fails takes the length at which
    the tail-mass contraction criterion holds on the current state; below the
    knot resolution, SolverError is raised. ``knots_per_window``, the uniform
    knots of a window, is checked in both modes and acts only under an influx.
    """
    if isinstance(inflow, ControlSignal):
        inflow = FluxInflow(inflow)
    T = finite_positive(T, "horizon")
    tol = finite_positive(tol, "tol")
    knots_per_window = count(knots_per_window, "knots_per_window")
    covers(inflow.signal, T, inflow.what)
    if isinstance(inflow, DensityInflow):
        return _density_curve(inflow, rho0, law, T, tol)

    M = inflow.signal.lp_norm(1) + rho0.lp_norm(1)
    W0 = rho0.total_mass
    ts = np.array([0.0])
    xs = np.array([0.0])
    ss = np.array([float(law(W0))])

    eps = 1e-12 * max(1.0, T)
    last = np.inf  # length of the last accepted window; the first trial takes the cap
    while ts[-1] < T - eps:
        prefix = CharacteristicCurve._unchecked(ts, xs, ss)
        t_a = ts[-1]
        # one call per window although M is fixed: the benchmark counts windows by it
        bounds = law.bounds(M)
        if bounds[2] == 0:
            # speed constant on [0, M]: the curve is exactly linear
            ts = np.append(ts, T)
            xs = np.append(xs, xs[-1] + ss[-1] * (T - t_a))
            ss = np.append(ss, ss[-1])
            break
        # the trial stays below 1/sup-speed so that the entry time of every
        # particle reaching x = 1 lies in the frozen prefix
        t_b = min(t_a + min(2.0 * last, 0.9 / bounds[1]), T)
        window = _solve_window(inflow, rho0, law, prefix, t_a, t_b, tol, knots_per_window,
                               speeds=bounds[:2])
        if window is None:
            delta = _choose_window(inflow, rho0, bounds, prefix, T)
            window = _solve_window(inflow, rho0, law, prefix, t_a, min(t_a + delta, T),
                                   tol, knots_per_window)
        knots, values, slopes = window.times, window.values, window.slopes
        last = knots[-1] - t_a
        ts = np.concatenate((ts, knots[1:]))
        xs = np.concatenate((xs, values[1:]))
        # the joint takes the new window's first slope
        ss = np.concatenate((ss[:-1], slopes))
    if ts.size == 1:
        # no window ran (T below the end tolerance): the start knot stays at t = 0
        ts, xs, ss = (np.append(a, a[-1]) for a in (ts, xs, ss))
    if ts[-1] < T:
        # extend the last knot across the sub-tolerance remainder
        xs[-1] += ss[-1] * (T - ts[-1])
        ts[-1] = T
    return CharacteristicCurve(ts, xs, ss)


class CurveAdjoint:
    """Weighted sums of the derivatives of a flux-mode curve in the cell values
    of its influx, by the transposed tangent recurrence.

    Direction k raises u by one on cell k of the grid ``cells`` (the
    breakpoint rule of a step function: finite, strictly increasing, two or
    more). The cell values enter only through dU(s), the integral of du up
    to s, and the solution only through ``terms`` (``Trajectory._outlet``):
    W, and rho(s, 1) at x = 1. The tangent of every direction solves one
    linear delay equation, with lam' = law.slope(W) and sig = xi^-1(xi(s) - 1):

        dxi' = lam'(W) dW,   dW = dU(s) - rho(s, 1) dxi(s)
                                  - [dU(sig) - rho(s, 1) dxi(sig)]   once xi(s) >= 1,

    as W = U(s) - U(sig) there and u(sig) dsig = rho(s, 1) (dxi(s) - dxi(sig)).
    The grid ``knots``, at whose ``gauss_nodes`` ``terms`` are taken, holds
    every jump of dxi': the knots of ``xi`` and their exits (``with_exits``).
    On each interval 3-stage Gauss collocation turns the equation into
    dxi_{j+1} = R_j dxi_j + r_j . f_j, with f the forcing at the nodes, which
    holds dU and the delayed dxi(sig); the delay is met by one pass per
    transit of [0, 1]. The tangent itself is never built: ``contract`` runs
    that recurrence backwards for one set of weights (M. B. Giles and N. A.
    Pierce, Flow Turbul. Combust. 65, 2000), so the n cells appear only in its final sums.
    """

    def __init__(self, xi: CharacteristicCurve, law: SpeedLaw, cells, knots, terms):
        self.cells = breakpoints(cells, "cells")
        self.knots, (self.h, self.nodes) = knots, gauss_nodes(knots)
        W, self.post, self.sigma, rho1 = terms
        self.slope = law.slope(W)
        # dxi' = a dxi + forcing; stage slopes F solve (I - h a A) F = a dxi_j + forcing
        self.a = a = (self.slope * -rho1).reshape(-1, 3)
        self.inv = _inverse3(np.eye(3) - self.h[:, None, None] * a[:, :, None] * _G3_COLLOCATION)
        self.r = r = self.h[:, None] * (G3_WEIGHTS @ self.inv)
        self.growth = np.concatenate(([1.0], np.cumprod(1.0 + np.sum(r * a, axis=1))))
        self.passes = int(np.ceil(xi.x_end))

    def _moments(self, t, w):
        """Sums of w theta^q per knot interval, q = 0..3, for weights w at the
        times t, theta the offset of t in its interval over the width."""
        j = segment(self.knots, t)
        th = (t - self.knots[j]) / self.h[j]
        out = np.empty((4, self.h.size))
        for q in range(4):
            out[q] = np.bincount(j, w, self.h.size)
            w = w * th
        return out

    def contract(self, t, a, b, e) -> np.ndarray:
        """The sum over the times t (1-D) of a dxi(t) + b dU(t) + e du(t), one
        entry per direction, in O(t.size + knots + n). dxi is a cubic in theta
        on each knot interval, so four moments m0..m3 of a per interval give
        its sum: beta_j = h_j (m1, m2, m3) _G3_INTEGRATED inv_j weighs the
        stage slopes and alpha_j = m0_j + beta_j . a_j the value at knot j.
        One reversed cumulative sum, mu_i = sum_{j > i} alpha_j g_j / g_{i+1}
        with g the cumulative product of R, gives zeta = mu r + beta, the
        weight of the forcing at each node. The forcing's delayed dxi(sig)
        turns it into the weights -zeta a at sig, which join a in the next
        pass, and its dU terms join b: zeta lam' at the nodes, -zeta lam' at
        sig. dU(t) is the part of each cell before t: the whole cell for the t
        after it, t - g_k for the t inside; du(t) is 1 in the column of the
        cell holding t."""
        fixed = self._moments(t, a)
        zeta = np.zeros_like(self.a)
        for _ in range(self.passes):
            m = fixed + self._moments(self.sigma, -(zeta * self.a).ravel()[self.post])
            beta = self.h[:, None] * np.einsum("ji,jik->jk", m[1:].T @ _G3_INTEGRATED, self.inv)
            alpha_g = (m[0] + np.sum(beta * self.a, axis=1)) * self.growth[:-1]
            tail = np.cumsum(alpha_g[::-1])[::-1]  # over the intervals >= i
            zeta = beta + (np.append(tail[1:], 0.0) / self.growth[1:])[:, None] * self.r
        w = zeta.ravel() * self.slope
        times = np.concatenate((t, self.nodes, self.sigma))
        b = np.concatenate((b, w, -w[self.post]))
        g = self.cells
        n = g.size - 1
        k = g.searchsorted(times, "right")  # 0 before the grid, n + 1 after it; cell k - 1
        inside = np.bincount(k, b * (times - g[np.clip(k - 1, 0, n)]), n + 2)
        after = np.cumsum(np.bincount(k, b, n + 2)[::-1])[::-1]  # of b over cells >= k - 1
        return inside[1:-1] + np.diff(g) * after[2:] + np.bincount(segment(g, t), e, n)


def apply_F(
    xi: CharacteristicCurve,
    u: ControlSignal,
    rho0: DensityProfile,
    law: SpeedLaw,
    window: tuple[float, float],
) -> CharacteristicCurve:
    """One application of the integral map to ``xi`` on ``window``.

    ``xi`` must be defined on [0, window end]; as the frozen prefix it must also
    hold every entry time the map asks for (ValueError otherwise). Returns the
    mapped curve on the window; its value at the window start equals xi there.
    """
    t_a, t_b = float(window[0]), float(window[1])
    if not (0.0 <= t_a < t_b):
        raise ValueError(f"invalid window [{t_a}, {t_b}]")
    covers(u, t_b, "control")
    if t_b > xi.t_end + 1e-12:
        raise ValueError(f"window end {t_b} exceeds curve domain {xi.t_end}")
    inflow = FluxInflow(u)
    B = inflow.boundary_mass(xi)
    knots = _window_knots(inflow, rho0, xi, t_a, t_b, 256)(xi)  # solve_xi's default grid
    values, _, _ = _integrate_window(inflow, rho0, law, xi, xi, knots, B)
    return CharacteristicCurve(knots, values, law(inflow.mass(rho0, knots, values, B)))
