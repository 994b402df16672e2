"""Characteristic curve through (0, 0) as the fixed point of an integral map.

The curve xi satisfies xi'(t) = speed(W(t)) where W is the total mass, and is
built window by window: on each window the integral map is a 1/2-contraction
provided the window is short enough that little mass can leave through x = 1,
so plain fixed-point iteration converges geometrically. That a-priori length
rests on the whole-horizon mass bound and is mostly far too short, so each
window first tries twice the last accepted length, capped at 0.9 / sup speed
(the first window tries the cap itself), and keeps it while every map
application at least halves the residual; otherwise it falls back to the
a-priori length. Integrals of the speed are evaluated by
composite 3-point Gauss quadrature on a knot grid that tracks the kink
locations of the integrand (data breakpoints composed with the curve, the
instant the curve reaches x = 1, and the masses where a tabulated speed law
has a kink).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .laws import SpeedLaw
from .rules import count, covers, finite_positive
from .signals import ControlSignal, DensityProfile, segment

__all__ = ["CharacteristicCurve", "CurveTangent", "DensityInflow", "FluxInflow", "Inflow",
           "SolverError", "apply_F", "solve_xi"]

# nodes/weights of 3-point Gauss-Legendre on [0, 1]
_G3_NODES = np.array([0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0])
_G3_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


def _inverse3(m):
    """Inverses of a stack of 3 x 3 matrices, from their cofactors (no LAPACK)."""
    cof = np.stack((np.cross(m[:, 1], m[:, 2]), np.cross(m[:, 2], m[:, 0]),
                    np.cross(m[:, 0], m[:, 1])), axis=-1)
    return cof / np.einsum("ji,ji->j", m[:, 0], cof[:, :, 0])[:, None, None]


def _g3_integrated():
    """Row p, column i: coefficient of theta^(p+1) in the integral from 0 to
    theta of the quadratic that is 1 at node i and 0 at the other nodes. Plain
    float arithmetic: a first matmul or LAPACK call at import would raise the
    peak memory of every command."""
    nodes = _G3_NODES.tolist()
    cols = []
    for c in nodes:
        a, b = [x for x in nodes if x != c]
        d = (c - a) * (c - b)
        cols.append([a * b / d, -(a + b) / (2.0 * d), 1.0 / (3.0 * d)])
    return np.array(cols).T


_G3_INTEGRATED = _g3_integrated()
# the collocation matrix of 3-stage Gauss: row g integrates up to node g
_G3_COLLOCATION = np.sum((_G3_NODES[:, None] ** np.arange(1, 4))[:, :, None] * _G3_INTEGRATED,
                         axis=1)
_NEWTON_TOL = 1e-13  # time step at which Newton inversion stops
_MAX_ITER = 80  # map applications allowed per window


class SolverError(RuntimeError):
    """Fixed-point iteration failed to converge, or a curve failed to invert."""


@dataclass(frozen=True)
class CharacteristicCurve:
    """Strictly increasing curve given by knot times, values and slopes.

    Between knots the curve is the cubic Hermite interpolant; slopes are the
    transport speed at the knot, so secants stay inside the speed envelope. A
    single knot is the curve at one instant, as at the start of a solve.
    """

    times: np.ndarray
    values: np.ndarray
    slopes: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.times, dtype=float)
        xs = np.asarray(self.values, dtype=float)
        ss = np.asarray(self.slopes, dtype=float)
        if not (ts.shape == xs.shape == ss.shape) or ts.ndim != 1 or ts.size < 1:
            raise ValueError("knot arrays must share a 1-D shape of length >= 1")
        # slice comparisons: every solver iterate is checked, so the cost shows
        if (ts[1:] <= ts[:-1]).any() or (xs[1:] <= xs[:-1]).any():
            raise ValueError("knot times and values must be strictly increasing")
        if (ss <= 0).any():
            raise ValueError("knot slopes must be positive")
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "values", xs)
        object.__setattr__(self, "slopes", ss)

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def x_end(self) -> float:
        return float(self.values[-1])

    def _locate(self, t):
        """Segment index, width and offset in [0, 1] of each t, clamped to the knots."""
        ts = self.times
        idx = segment(ts, t)
        h = ts[idx + 1] - ts[idx]
        th = (np.minimum(np.maximum(t, ts[0]), ts[-1]) - ts[idx]) / h
        return idx, h, th

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        xs, ss = self.values, self.slopes
        if xs.size == 1:
            out = np.full(t.shape, xs[0])
        else:
            idx, h, th = self._locate(t)
            t2 = th * th
            t3 = t2 * th
            out = ((2 * t3 - 3 * t2 + 1) * xs[idx] + (t3 - 2 * t2 + th) * h * ss[idx]
                   + (-2 * t3 + 3 * t2) * xs[idx + 1] + (t3 - t2) * h * ss[idx + 1])
        return float(out) if t.ndim == 0 else out

    def slope(self, t):
        t = np.asarray(t, dtype=float)
        xs, ss = self.values, self.slopes
        if xs.size == 1:
            out = np.full(t.shape, ss[0])
        else:
            idx, h, th = self._locate(t)
            t2 = th * th
            out = ((6 * t2 - 6 * th) * (xs[idx] - xs[idx + 1]) / h
                   + (3 * t2 - 4 * th + 1) * ss[idx] + (3 * t2 - 2 * th) * ss[idx + 1])
        return float(out) if t.ndim == 0 else out

    def inverse(self, x):
        """Unique t with curve(t) = x, for x in [curve(0), curve(T)].

        Each target is located once on the values; Newton then runs on that
        segment's cubic with the segment held fixed. A point Newton leaves
        unresolved raises SolverError naming its segment.
        """
        x = np.asarray(x, dtype=float)
        ts, xs, ss = self.times, self.values, self.slopes
        if (x < xs[0] - 1e-12).any() or (x > xs[-1] + 1e-12).any():
            raise ValueError(f"positions [{x.min():g}, {x.max():g}] outside curve range "
                             f"[{xs[0]:g}, {xs[-1]:g}]")
        if ts.size == 1:
            return float(ts[0]) if x.ndim == 0 else np.full(x.shape, ts[0])
        idx = segment(xs, x)
        h = ts[idx + 1] - ts[idx]
        # the segment cubic x0 + th (c1 + th (c2 + th c3)) in the offset th
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
            if np.max(np.abs(step) * h, initial=0.0) <= _NEWTON_TOL:  # initial: x may be empty
                break
        f = r + th * (c1 + th * (c2 + th * c3))
        bad = np.abs(f) > 1e-11 * max(1.0, xs[-1])
        if np.any(bad):
            i = np.ravel(idx)[np.argmax(bad)]
            raise SolverError(f"Newton inversion unresolved on segment [{ts[i]:g}, {ts[i + 1]:g}]")
        out = ts[idx] + h * th
        return float(out) if x.ndim == 0 else out

    def with_exits(self, times) -> np.ndarray:
        """Sorted ``times`` and every later time at which a particle that
        entered x = 0 at one of them, or at such a time, leaves x = 1."""
        found = new = np.asarray(times, dtype=float)
        while new.size:
            levels = self(new) + 1.0
            new = self.inverse(levels[levels < self.x_end])
            found = np.concatenate((found, new))
        return np.unique(found)

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
    curve xi through (0, 0). With E(s) the mass that entered by time s, B(z)
    the mass that entered while xi was below z, and R0 the cumulative initial
    density,

        W(s) = E(s) + R0(1 - xi(s))    until xi reaches x = 1,
        W(s) = E(s) - B(xi(s) - 1)     after.

    The two subclasses supply E (``entered``), B (``boundary_mass``, built
    once per curve: entry times are found on the frozen ``prefix``, and
    ``xi_of`` maps times to positions on the whole candidate curve), the
    boundary density and influx, and the a-priori ``mass_bound`` and
    ``window_cap`` the solver needs; the solver and ``Trajectory`` share the
    rest.
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

    def mass(self, rho0: DensityProfile, s, xi_s, B):
        """W at times s where the curve takes values xi_s; B is its boundary_mass."""
        xi_s = np.asarray(xi_s, dtype=float)
        entered = self.entered(s, xi_s, B)
        W = entered + rho0.cumulative(1.0 - xi_s)
        post = xi_s > 1.0
        if np.any(post):
            W[post] = entered[post] - B(xi_s[post] - 1.0)
        return W

    # kink levels of the integrand in xi-space (see _window_knots)
    def xi_levels(self, rho0: DensityProfile, prefix: CharacteristicCurve):
        levels = [1.0 - rho0.breakpoints[1:-1], np.array([1.0])]
        bp = self.signal.breakpoints
        inside = bp[bp <= prefix.t_end]
        if inside.size:
            levels.append(1.0 + prefix(inside))
        return np.concatenate(levels)

    def time_knots(self, t_a, t_b):
        bp = self.signal.breakpoints
        return bp[(bp > t_a) & (bp < t_b)]

    def slice_tail_mass(self, rho0: DensityProfile, prefix: CharacteristicCurve,
                        width: float) -> float:
        """Mass in [1 - width, 1] when the curve is at the end of ``prefix``."""
        xa = prefix.x_end
        total = rho0.integrate(
            min(max(1.0 - xa - width, 0.0), 1.0), min(max(1.0 - xa, 0.0), 1.0)
        )
        z_lo = max(xa - 1.0, 0.0)
        z_hi = min(max(xa - 1.0 + width, 0.0), xa)
        if z_hi > z_lo:
            B = self.boundary_mass(prefix)
            total += float(B(z_hi) - B(z_lo))
        return total


class FluxInflow(Inflow):
    """Prescribed influx u(t): the classical boundary condition."""

    what = "control"  # the signal's name in messages

    def boundary_mass(self, prefix, xi_of=None):
        # the particle now at z entered at prefix^-1(z); window lengths below
        # 1/sup-speed keep that in the frozen prefix (the inverse checks it)
        return lambda z: self.signal.cumulative(prefix.inverse(z))

    def entered(self, s, xi_s, B):
        return self.signal.cumulative(s)

    def boundary_density(self, t, speed):
        """rho(t, 0) = u(t) / speed(t)."""
        return self.signal(t) / speed(t)

    def influx(self, t, speed):
        return self.signal(t)

    def mass_bound(self, rho0: DensityProfile, law: SpeedLaw) -> float:
        return self.signal.lp_norm(1) + rho0.lp_norm(1)

    def window_cap(self, d: float) -> float:
        return np.inf


class DensityInflow(Inflow):
    """Prescribed boundary density b(t); the influx u = b * speed is derived.

    Material entering at time tau carries density b(tau), so the mass that
    entered while the curve was below z is the cumulative of the step function
    b composed with the inverse curve, expressed in position space.
    """

    what = "boundary-density"

    def boundary_mass(self, prefix, xi_of=None):
        # breakpoints of b mapped to positions; a cell the curve has not crossed
        # yet has zero width and adds exactly 0; np.interp takes repeated abscissae
        z = np.maximum.accumulate((prefix if xi_of is None else xi_of)(self.signal.breakpoints))
        mass = np.concatenate(([0.0], np.cumsum(self.signal.values * np.diff(z))))
        return lambda x: np.interp(x, z, mass)

    def entered(self, s, xi_s, B):
        return B(xi_s)

    def boundary_density(self, t, speed):
        return self.signal(t)

    def influx(self, t, speed):
        """u(t) = b(t) * speed(t)."""
        return self.signal(t) * speed(t)

    def mass_bound(self, rho0: DensityProfile, law: SpeedLaw) -> float:
        """A priori bound on the total input mass, the influx being b * speed.

        Laws are non-increasing, so the speed never exceeds law(0).
        """
        return rho0.lp_norm(1) + float(law(0.0)) * self.signal.lp_norm(1)

    def window_cap(self, d: float) -> float:
        # the derived influx depends on the candidate curve itself; keep the
        # extra Lipschitz term of the window map below 1/4
        bv = self.signal.values
        tv = float(np.max(bv) + np.sum(np.abs(np.diff(bv))))
        if d * tv <= 0:  # also when a denormal tv underflows the product
            return np.inf
        return 0.25 / (d * tv)


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
    below the resolution raises.
    """
    res = 1e-13 * max(1.0, t_b)
    if not t_b - t_a > res:
        raise SolverError(f"window [{t_a:g}, {t_b:g}] of length {t_b - t_a:.3g} is below "
                          f"the knot resolution {res:.3g}")
    fixed = [np.linspace(t_a, t_b, n_uniform + 1), inflow.time_knots(t_a, t_b)]
    all_levels = inflow.xi_levels(rho0, prefix)

    def knots(cand, kinks=()):
        extra = fixed + [kinks]
        levels = all_levels[(all_levels > cand.values[0]) & (all_levels < cand.x_end)]
        if levels.size:
            extra.append(cand.inverse(levels))
        grid = np.unique(np.concatenate(extra))  # t_a first: the uniform grid holds it
        grid = grid[(grid >= t_a) & (grid < t_b - res)]
        return np.append(grid[np.concatenate(([True], np.diff(grid) > res))], t_b)

    return knots


def _integrate_window(inflow, rho0, law, prefix, cand, knots):
    """One application of the window map on the given knot grid.

    Returns (values, slopes, W at knots) of the mapped curve.
    """
    x_a = cand(knots[0])
    h = np.diff(knots)
    nodes = (knots[:-1, None] + h[:, None] * _G3_NODES[None, :]).ravel()
    xi_nodes = cand(nodes)

    def xi_of(t):
        return np.where(t <= prefix.t_end, prefix(t), cand(t))

    B = inflow.boundary_mass(prefix, xi_of)
    W_nodes = inflow.mass(rho0, nodes, xi_nodes, B)
    g = law(W_nodes).reshape(-1, 3)
    increments = h * (g @ _G3_WEIGHTS)
    values = x_a + np.concatenate(([0.0], np.cumsum(increments)))
    W_knots = inflow.mass(rho0, knots, values, B)
    return values, law(W_knots), W_knots


def _solve_window(inflow, rho0, law, prefix, t_a, t_b, tol, n_uniform, trial=False):
    """Fixed-point iteration of the window map starting from the linear guess.

    A ``trial`` window, whose length no a-priori bound backs, is given up
    (None is returned) as soon as a residual is more than half the one before:
    the 1/2-contraction that bound would guarantee is not observed.
    """
    x_a = prefix.x_end
    s_a = prefix.slopes[-1]
    cand = CharacteristicCurve(np.array([t_a, t_b]), np.array([x_a, x_a + s_a * (t_b - t_a)]),
                               np.array([s_a, s_a]))
    window_knots = _window_knots(inflow, rho0, prefix, t_a, t_b, n_uniform)
    resid = np.inf
    kinks = ()  # unknown until W is known on a candidate
    for _ in range(_MAX_ITER):
        knots = window_knots(cand, kinks)
        old = cand(knots)
        values, slopes, W = _integrate_window(inflow, rho0, law, prefix, cand, knots)
        new_resid = float(np.max(np.abs(values - old)))
        if trial and new_resid > 0.5 * resid:
            return None
        resid = new_resid
        cand = CharacteristicCurve(knots, values, slopes)
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
    masses in [0, M]. On windows of the returned length the tail-mass
    criterion makes the window map a 1/2-contraction.
    """
    lam_tilde, lam_bar, d = bounds
    delta = min(0.9 / lam_bar, T - prefix.t_end, inflow.window_cap(d))
    threshold = 0.5 * lam_tilde / d
    for _ in range(200):
        if inflow.slice_tail_mass(rho0, prefix, lam_bar * delta) < 0.99 * threshold:
            return delta
        delta *= 0.5
    raise SolverError("could not find an admissible window length")


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
    (a bare ``ControlSignal`` is a prescribed influx).

    The curve is built by window-by-window fixed-point continuation. Each
    window tries twice the last accepted length, capped at 0.9 / sup speed and
    at T (the first window tries the cap), and keeps it while the residuals
    halve at every map application. A window whose trial fails takes the
    length at which the tail-mass contraction criterion holds on the current
    state; if that is below the knot resolution, SolverError is raised.
    """
    if isinstance(inflow, ControlSignal):
        inflow = FluxInflow(inflow)
    T = finite_positive(T, "horizon")
    tol = finite_positive(tol, "tol")
    knots_per_window = count(knots_per_window, "knots_per_window")
    covers(inflow.signal, T, inflow.what)

    M = inflow.mass_bound(rho0, law)
    W0 = rho0.total_mass
    ts = np.array([0.0])
    xs = np.array([0.0])
    ss = np.array([float(law(W0))])

    eps = 1e-12 * max(1.0, T)
    last = np.inf  # length of the last accepted window; the first trial takes the cap
    while ts[-1] < T - eps:
        prefix = CharacteristicCurve(ts, xs, ss)
        t_a = ts[-1]
        # one call per window although M is fixed: the benchmark counts windows by it
        bounds = law.bounds(M)
        if bounds[2] == 0:
            # speed constant on [0, M]: the curve is exactly linear
            ts = np.append(ts, T)
            xs = np.append(xs, xs[-1] + ss[-1] * (T - t_a))
            ss = np.append(ss, ss[-1])
            break
        # the trial stays below 1/sup-speed so that, in flux mode, the entry
        # time of every particle reaching x = 1 lies in the frozen prefix
        t_b = min(t_a + min(2.0 * last, 0.9 / bounds[1]), T)
        window = _solve_window(inflow, rho0, law, prefix, t_a, t_b, tol, knots_per_window,
                               trial=True)
        if window is None:
            delta = _choose_window(inflow, rho0, bounds, prefix, T)
            window = _solve_window(inflow, rho0, law, prefix, t_a, min(t_a + delta, T),
                                   tol, knots_per_window)
        knots, values, slopes = window.times, window.values, window.slopes
        last = knots[-1] - t_a
        ts = np.concatenate((ts, knots[1:]))
        xs = np.concatenate((xs, values[1:]))
        ss = np.concatenate((ss, slopes[1:]))
        # keep the joint consistent with the converged window
        ss[ts.size - knots.size] = slopes[0]
    if ts.size == 1:
        # no window ran (T below the end tolerance): the start knot stays at t = 0
        ts, xs, ss = (np.append(a, a[-1]) for a in (ts, xs, ss))
    if ts[-1] < T:
        # extend the last knot across the sub-tolerance remainder
        xs[-1] += ss[-1] * (T - ts[-1])
        ts[-1] = T
    return CharacteristicCurve(ts, xs, ss)


class CurveTangent:
    """Derivatives of a flux-mode curve in the cell values of its influx.

    Direction k raises u by one on cell k of the grid ``cells``. The cell
    values enter only through dU(s), the integral of du up to s, so the
    tangent of every direction solves one linear delay equation, with
    lam' = law.slope(W):

        dxi' = lam'(W) dW,   dW = dU(s) - rho0(1 - xi) dxi        before exit,
                             dW = dU(s) - dU(sig) - u(sig) dsig   after,

    where sig = xi^-1(xi(s) - 1) is the entry time of the particle leaving at
    s and dsig = (dxi(s) - dxi(sig)) / xi'(sig). The knots of ``xi``,
    refined by the exit times of particles that entered at a knot, hold
    every jump of dxi'. On each interval 3-stage Gauss collocation turns the
    equation into dxi_{j+1} = R_j dxi_j + q_j, which one cumulative product
    and sum solve for all knots and directions at once; the delayed values
    are known from the pass before, so one pass per transit of [0, 1]
    suffices. Values between knots come from the collocation polynomials.
    """

    def __init__(self, xi: CharacteristicCurve, inflow: Inflow, rho0: DensityProfile,
                 law: SpeedLaw, cells):
        if not isinstance(inflow, FluxInflow):
            raise ValueError("the curve tangent needs a prescribed influx")
        self.xi, self.u, self.rho0 = xi, inflow.signal, rho0
        self.cells = np.asarray(cells, dtype=float)
        self.knots = knots = xi.with_exits(xi.times)
        self.h = h = np.diff(knots)
        s = (knots[:-1, None] + h[:, None] * _G3_NODES).ravel()
        k, post, sigma = self._mass_terms(s)
        slope = law.slope(inflow.mass(rho0, s, xi(s), inflow.boundary_mass(xi)))
        # dxi' = a dxi + forcing, the forcing holding the delayed dxi(sig)
        a = (slope * k).reshape(-1, 3)
        forcing = slope[:, None] * self._cell_mass(s)
        forcing[post] -= slope[post, None] * self._cell_mass(sigma)
        # stage slopes F solve (I - h a A) F = a dxi_j + forcing on each interval
        inv = _inverse3(np.eye(3) - h[:, None, None] * a[:, :, None] * _G3_COLLOCATION)
        r = h[:, None] * (_G3_WEIGHTS @ inv)
        growth = np.concatenate(([1.0], np.cumprod(1.0 + np.sum(r * a, axis=1))))
        n = self.cells.size - 1
        self.values = np.zeros((knots.size, n))
        self.coeffs = np.zeros((h.size, 3, n))  # of theta, theta^2, theta^3 per interval
        for _ in range(int(np.ceil(xi.x_end))):
            f = forcing.copy()
            f[post] -= (slope * k)[post, None] * self(sigma)
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

    def influx(self, t) -> np.ndarray:
        """du at the times t (1-D): 1 in the column of the cell holding t."""
        return (segment(self.cells, t)[:, None] == np.arange(self.cells.size - 1)).astype(float)

    def _mass_terms(self, t):
        """(k, post, sig) with dW = dU(t) + k dxi(t) - [dU(sig) + k dxi(sig)] after exit."""
        xs = self.xi(t)
        post = xs > 1.0
        k = -self.rho0(1.0 - xs)
        sigma = self.xi.inverse(xs[post] - 1.0)
        k[post] = -self.u(sigma) / self.xi.slope(sigma)
        return k, post, sigma

    def __call__(self, t) -> np.ndarray:
        """dxi at the times t (1-D), one column per direction."""
        t = np.asarray(t, dtype=float)
        j = segment(self.knots, t)
        th = ((t - self.knots[j]) / self.h[j])[:, None]
        out = self.coeffs[j, 2] * th  # Horner, in place: the arrays are points x directions
        for p in (1, 0):
            out += self.coeffs[j, p]
            out *= th
        out += self.values[j]
        return out

    def mass(self, t) -> np.ndarray:
        """dW at the times t (1-D), one column per direction."""
        t = np.asarray(t, dtype=float)
        k, post, sigma = self._mass_terms(t)
        dW = self(t)
        dW *= k[:, None]
        dW += self._cell_mass(t)
        dW[post] -= self._cell_mass(sigma) + k[post, None] * self(sigma)
        return dW


def apply_F(
    xi: CharacteristicCurve,
    u: ControlSignal,
    rho0: DensityProfile,
    law: SpeedLaw,
    window: tuple[float, float],
    *,
    knots_per_window: int = 256,
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
    knots_per_window = count(knots_per_window, "knots_per_window")
    inflow = FluxInflow(u)
    knots = _window_knots(inflow, rho0, xi, t_a, t_b, knots_per_window)(xi)
    values, slopes, _ = _integrate_window(inflow, rho0, law, xi, xi, knots)
    return CharacteristicCurve(knots, values, slopes)
