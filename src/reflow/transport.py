"""Full weak solution assembled from the characteristic curve.

A trajectory evaluates the density pointwise by tracing back along
characteristics, and derives the total mass, outflux, backlog, regularity
diagnostics and the gradient of a tracking error in the influx. Integral
quantities (cumulative outflux, mass balance) are computed from the solution
formula itself rather than by quadrature of a sampled trace, so they are
exact up to the curve tolerance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .characteristics import (G3_WEIGHTS, CharacteristicCurve, CurveAdjoint, FluxInflow, Inflow,
                              gauss_nodes, lagrange_rows, solve_xi)
from .laws import SpeedLaw
from .rules import covers, exponent, finite_positive, interval
from .signals import ControlSignal, DensityProfile

__all__ = ["TrackingQuadrature", "Trajectory", "abs_integral", "simulate"]

# 5-point Gauss-Legendre on [0, 1]
_N5 = np.array([0.04691007703066800, 0.23076534494715845, 0.5,
                0.76923465505284155, 0.95308992296933200])
_W5 = np.array([0.11846344252809454, 0.23931433524968324, 0.28444444444444444,
                0.23931433524968324, 0.11846344252809454])


# (d[:, :, None] * _QUARTIC).sum(1): the coefficients in y = 2 theta - 1 of the
# quartics through the values d at a panel's Gauss nodes (no matmul at import)
_QUARTIC = lagrange_rows((2.0 * _N5 - 1.0).tolist())
_SAMPLE = np.linspace(-1.0, 1.0, 17)  # where the quartics' sign changes are looked for


def _panels(end: float, breaks, max_width: float) -> np.ndarray:
    """Edges in [0, end] at every break inside, refined to at most max_width.

    The piece [a, b] between breaks gets n = ceil((b - a) / max_width) equal
    panels, with edges j (b - a) / n + a for j < n, linspace's arithmetic; its
    last edge b is the next piece's first, or ``end``. All pieces are built in
    one pass.
    """
    breaks = breaks[(breaks > 0.0) & (breaks < end)]
    edges = np.unique(np.concatenate(([0.0, end], breaks)))
    a = edges[:-1]
    widths = edges[1:] - a
    n = np.maximum(np.ceil(widths / max_width), 1.0).astype(np.intp)
    first = n.cumsum() - n  # index of each piece's first edge
    j = np.arange(first[-1] + n[-1]) - np.repeat(first, n)
    return np.unique(np.concatenate((j * np.repeat(widths / n, n) + np.repeat(a, n), [end])))


def _gauss5(edges: np.ndarray, f) -> float:
    """Composite 5-point Gauss-Legendre integral of f over the panels ``edges``."""
    h, nodes = gauss_nodes(edges, _N5)
    return float(np.sum(h * (f(nodes).reshape(-1, 5) @ _W5)))


def _quartic_roots(c):
    """(row, y): the sign changes in [-1, 1] of the quartics whose coefficient
    rows (highest power first) are c. They are bracketed on the 16 intervals of
    ``_SAMPLE`` and polished by Newton's method on the quartic alone, with a
    bisection step wherever Newton would leave the bracket or the slope is 0.
    An identically zero quartic has none."""
    neg = np.polyval(c.T[:, :, None], _SAMPLE) < 0.0
    row, j = np.nonzero(neg[:, 1:] != neg[:, :-1])
    if not row.size:
        return row, np.empty(0)
    p = c[row].T
    dp = p[:-1] * np.array([4.0, 3.0, 2.0, 1.0])[:, None]
    a, b, neg_a = _SAMPLE[j], _SAMPLE[j + 1], neg[row, j]
    y = 0.5 * (a + b)
    for _ in range(60):
        v, slope = np.polyval(p, y), np.polyval(dp, y)
        ahead = (v < 0.0) == neg_a  # y is on a's side, so the root is in [y, b]
        a, b = np.where(ahead, y, a), np.where(ahead, b, y)
        new = y - np.divide(v, slope, out=np.full(v.shape, np.inf), where=slope != 0.0)
        new = np.where((new >= a) & (new <= b), new, 0.5 * (a + b))
        step, y = np.abs(new - y).max(initial=0.0), new
        if step <= 1e-14:
            break
    return row, y


def abs_integral(edges: np.ndarray, f) -> float:
    """Integral of |f| over the panels ``edges``, f smooth on each panel.

    Composite 5-point Gauss-Legendre, one call of f for all the nodes. On each
    panel the quartic through f's five Gauss values stands in for f; a panel on
    which it changes sign is split at its roots, and the pieces take their own
    Gauss nodes in one more call of f. So |f| is smooth on every piece, and
    finding the roots costs no further evaluation of f.
    """
    h, nodes = gauss_nodes(edges, _N5)
    d = f(nodes).reshape(-1, 5)
    part = h * (np.abs(d) * _W5).sum(axis=1)
    row, y = _quartic_roots((d[:, :, None] * _QUARTIC).sum(axis=1))
    if not row.size:
        return float(part.sum())
    split = np.unique(row)
    cuts = np.unique(np.concatenate((edges[split], edges[split + 1],
                                     edges[row] + h[row] * (0.5 + 0.5 * y))))
    # the pieces between consecutive cuts that lie in a split panel
    inside = np.isin(np.searchsorted(edges, 0.5 * (cuts[:-1] + cuts[1:])) - 1, split)
    a, w = cuts[:-1][inside], np.diff(cuts)[inside]
    sub = f((a[:, None] + w[:, None] * _N5).ravel()).reshape(-1, 5)
    part[split] = 0.0
    return float(part.sum() + np.sum(w * (np.abs(sub) * _W5).sum(axis=1)))


def simulate(
    rho0: DensityProfile,
    law: SpeedLaw,
    T: float,
    *,
    u: ControlSignal | None = None,
    boundary_density: ControlSignal | None = None,
    tol: float = 1e-10,
    knots_per_window: int = 256,
) -> "Trajectory":
    """Solve the transport problem and wrap the result in a Trajectory."""
    inflow = Inflow.of(u, boundary_density)
    xi = solve_xi(inflow, rho0, law, T, tol=tol, knots_per_window=knots_per_window)
    return Trajectory(law=law, rho0=rho0, xi=xi, horizon=float(T), inflow=inflow)


@dataclass(frozen=True)
class Trajectory:
    law: SpeedLaw
    rho0: DensityProfile
    xi: CharacteristicCurve
    horizon: float
    inflow: Inflow

    # -- influx bookkeeping ----------------------------------------------

    @functools.cached_property
    def boundary_mass(self):
        """B(z), the mass that entered while xi was below z; built once per curve."""
        return self.inflow.boundary_mass(self.xi)

    def _times(self, t) -> np.ndarray:
        """``t`` as a 1-D float array in [0, T]: past it the curve and the influx
        would be clamped differently."""
        return interval(t, self.horizon, "times")

    def speed(self, t):
        """Transport speed lambda(W(t))."""
        return self.law(self.total_mass(t))

    def influx(self, t):
        """The influx u(t); derived from the boundary density when prescribed."""
        u = self.inflow.influx(self._times(t), self.speed)
        return float(u[0]) if np.ndim(t) == 0 else u

    def cumulative_influx(self, t):
        """Mass that entered through x = 0 by time t."""
        ts = self._times(t)
        E = self.inflow.entered(ts, self.xi(ts), self.boundary_mass)
        return float(E[0]) if np.ndim(t) == 0 else E

    @property
    def exit_time(self) -> float | None:
        """Time the t = 0 boundary characteristic reaches x = 1, if it does."""
        if self.xi.x_end < 1.0:
            return None
        return self.xi.inverse(1.0)

    # -- primary observables ----------------------------------------------

    def total_mass(self, t):
        """W(t), the mass currently inside [0, 1]."""
        ts = self._times(t)
        W = self._mass(ts, self.xi(ts))
        return float(W[0]) if np.ndim(t) == 0 else W

    def _mass(self, t, xi_t, sigma=None):
        """W at times t where the curve is at the known positions xi_t; ``sigma``
        as in ``Inflow.mass``."""
        return self.inflow.mass(self.rho0, t, xi_t, self.boundary_mass, sigma=sigma)

    def rho_at(self, t: float, x: float) -> float:
        """Density at (t, x); the interface x = xi(t) takes the inflow branch."""
        return float(self.slice_values(t, np.array([x]))[0])

    def slice_values(self, t: float, x) -> np.ndarray:
        """Density profile at time t on an array of positions in [0, 1]."""
        x = interval(x, 1.0, "positions")
        return self._density(self.xi(self._times(t)), x)[0]

    def _density(self, xi_t, x):
        """(rho, sigma): density at positions x where the curve is at xi_t
        (broadcast together), and for the material behind the curve
        (x <= xi_t) its entry times; the mass then is computed in flux mode only."""
        behind = xi_t - x
        out = np.empty_like(behind)
        init = behind < 0
        out[init] = self.rho0(-behind[init])
        sigma = np.empty(0)
        if not np.all(init):
            entry = behind[~init]
            sigma = self.xi.inverse(entry)
            out[~init] = self.inflow.boundary_density(
                sigma, lambda s: self.law(self._mass(s, entry)))
        return out, sigma

    def _outlet(self, t, xi_t):
        """(W, behind, sigma, rho1) at times t where the curve is at xi_t: the
        mass, the mask xi_t >= 1, ``_density`` at x = 1 there. The entry times
        sigma also give the mass that has left (``Inflow.mass``), so each
        exited time is inverted once."""
        rho1, sigma = self._density(xi_t, 1.0)
        return self._mass(t, xi_t, sigma), xi_t >= 1.0, sigma, rho1

    def outflux(self, t):
        """y(t) = speed(W(t)) * rho(t, 1); the interface takes the inflow branch."""
        ts = self._times(t)
        W, _, _, rho1 = self._outlet(ts, self.xi(ts))
        y = self.law(W) * rho1
        return float(y[0]) if np.ndim(t) == 0 else y

    def cumulative_outflux(self, t):
        """Exact accumulated outflux: mass that has left through x = 1."""
        out = self.inflow.outflow(self.rho0, self.xi(self._times(t)), self.boundary_mass)
        return float(out[0]) if np.ndim(t) == 0 else out

    def _flows(self, t, xi_t):
        """(W, u, y, sigma) at times t where the curve is at xi_t, off one
        ``_outlet`` call: the influx (in density mode b lam(W)) and the outflux
        read its W, and sigma its entry times."""
        W, _, sigma, rho1 = self._outlet(t, xi_t)
        lam = self.law(W)
        return W, self.inflow.influx(t, lambda _: lam), lam * rho1, sigma

    def w_derivative(self, t):
        """W'(t) = u(t) - y(t); one-sided values at data breakpoints."""
        ts = self._times(t)
        _, u, y, _ = self._flows(ts, self.xi(ts))
        return float(u[0] - y[0]) if np.ndim(t) == 0 else u - y

    def backlog(self, y_d: ControlSignal, t: float) -> float:
        """Accumulated demand minus accumulated outflux at time t."""
        return float(covers(y_d, t, "demand").cumulative(t) - self.cumulative_outflux(t))

    # -- regularity diagnostics -------------------------------------------

    def slice_panels(self, *times: float) -> np.ndarray:
        """Quadrature edges in [0, 1] at every jump and kink of the density
        profiles at the given times, x = xi(t) - z for z in ``_lines``, and no
        panel wider than 1/32. A label or break time later than t gives a
        position below 0, which is dropped."""
        ts = self._times(times)
        return _panels(1.0, (self.xi(ts)[:, None] - self._lines).ravel(), 1.0 / 32.0)

    def l1_slice_distance(self, s: float, t: float) -> float:
        """Integral over [0, 1] of |rho(s, x) - rho(t, x)|.

        The panels are ``slice_panels(s, t)``, so the difference is smooth on
        each; both profiles come from one ``_density`` call at all the Gauss
        nodes. ``abs_integral`` splits a panel where the quartic through the
        difference's Gauss values changes sign, at its roots, and evaluates the
        pieces in one more call.
        """
        xi_st = self.xi(self._times([s, t]))[:, None]
        return abs_integral(self.slice_panels(s, t),
                            lambda x: np.subtract(*self._density(xi_st, x)[0]))

    def slice_lp_norm(self, t: float, p: int) -> float:
        """L^p norm of the density profile at time t (p in {1, 2})."""
        p = exponent(p)
        return _gauss5(self.slice_panels(t),
                       lambda x: self.slice_values(t, x) ** p) ** (1.0 / p)

    def l1_time_distance(self, x1: float, x2: float) -> float:
        """Hidden-regularity dual: integral over [0, T] of |rho(t,x1) - rho(t,x2)|.

        The density at x jumps or has a kink when a line x = xi(t) - z of
        ``_lines`` passes it, at t = xi^-1(x + z). Those times join
        ``time_panels``, and the rest is ``l1_slice_distance``'s rule.
        """
        x = interval([x1, x2], 1.0, "positions")[:, None]
        levels = (x + self._lines).ravel()
        levels = levels[(levels > 0.0) & (levels < self.xi.x_end)]
        return abs_integral(self.time_panels(extra=self.xi.inverse(levels)),
                            lambda ts: np.subtract(*self._density(self.xi(ts)[None, :], x)[0]))

    # -- time quadrature ----------------------------------------------------

    def outflux_breaks(self) -> np.ndarray:
        """Times in (0, T) where the outflux (or influx) can jump."""
        levels = 1.0 + self.inflow.labels(self.rho0, self.xi, self.horizon)
        levels = levels[levels < self.xi.x_end]
        ev = np.concatenate((self.xi.inverse(levels), self.inflow.signal.breakpoints))
        return np.unique(ev[(ev > 0.0) & (ev < self.horizon)])

    def time_panels(self, extra=(), *, max_width: float | None = None) -> np.ndarray:
        """Quadrature edges in [0, T] at every jump and kink of the outflux and
        influx, at the times ``extra`` and at every curve knot and its exits,
        between which each time observable is smooth; with ``max_width``, no
        knots, and the panels refined to at most that width.

        The outflux has kinks where W crosses a kink of the law and, once
        material that entered at a jump or kink leaves, at that exit."""
        knots = self.xi.with_exits(self.xi.times) if max_width is None else ()
        width = np.inf if max_width is None else finite_positive(max_width, "max_width")
        return _panels(self.horizon, np.concatenate((self._breaks[0], knots, extra)), width)

    @functools.cached_property
    def _breaks(self):
        """(tau, xi(tau)): the sorted times at which the outflux or influx jumps or
        has a kink, and the curve there; built once per trajectory."""
        kinks = self.law.kinks
        if kinks.size:
            kinks = self.law.kink_times(self.xi.times, self.total_mass(self.xi.times))
        tau = self.xi.with_exits(np.concatenate((self.outflux_breaks(), kinks)))
        return tau, self.xi(tau)

    @functools.cached_property
    def _lines(self) -> np.ndarray:
        """z of every line x = xi(t) - z off which the density is smooth; built
        once per trajectory. It jumps on the labels (``Inflow.labels`` up to T)
        and has a kink on z = xi(tau) for each break time tau of ``_breaks``:
        the material there entered when W, so the entry density u / lam(W),
        had a kink or a jump."""
        return np.concatenate((self.inflow.labels(self.rho0, self.xi, self.horizon),
                               self._breaks[1]))

    def tracking_error_sq(self, y_d: ControlSignal) -> float:
        """Integral over [0, T] of (y - y_d)^2, panel-exact Gauss quadrature."""
        return TrackingQuadrature(self, y_d).error_sq()

    def tracking_gradient(self, y_d: ControlSignal, grid) -> np.ndarray:
        """Gradient of ``tracking_error_sq(y_d)`` in the influx values on the cells
        of ``grid``; see ``TrackingQuadrature.gradient``."""
        return TrackingQuadrature(self, y_d).gradient(grid)

    def influx_l2_sq(self) -> float:
        """Integral over [0, T] of u^2, panel-exact Gauss quadrature."""
        return _gauss5(self.time_panels(), lambda t: self.influx(t) ** 2)

    # -- export -------------------------------------------------------------

    def timeseries(self, n: int = 4096, y_d: ControlSignal | None = None):
        """(t, W, u, y, beta) arrays on a uniform grid, all read off one
        evaluation of the curve and one ``_flows`` call."""
        t = np.linspace(0.0, self.horizon, n)
        xi_t = self.xi(t)
        W, uu, y, sigma = self._flows(t, xi_t)
        if y_d is not None:
            outflow = self.inflow.outflow(self.rho0, xi_t, self.boundary_mass, sigma)
            beta = y_d.cumulative(t) - outflow
        else:
            beta = np.zeros_like(t)
        return t, W, np.asarray(uu, dtype=float), y, beta

    def write_timeseries(self, path, n: int = 4096, y_d: ControlSignal | None = None):
        t, W, uu, y, beta = self.timeseries(n=n, y_d=y_d)
        data = np.column_stack((t, W, uu, y, beta))
        np.savetxt(path, data, delimiter=",", header="columns: t,W,u,y,beta")

    def write_slice(self, path, t: float, n: int = 1024):
        x = np.linspace(0.0, 1.0, n)
        data = np.column_stack((x, self.slice_values(t, x)))
        np.savetxt(path, data, delimiter=",", header="columns: x,rho")


class TrackingQuadrature:
    """The one build of the Gauss nodes of ``Trajectory.tracking_error_sq``, for
    its cost and its gradient: the edges ``time_panels`` with the demand's
    breaks, widths h, 3-point Gauss nodes t, xi(t), ``_outlet``'s terms there
    (W, post, sigma, rho1) and y - y_d against a demand that covers the
    horizon. ``CurveAdjoint`` takes the edges and the terms as they are."""

    def __init__(self, traj: Trajectory, y_d: ControlSignal):
        self.traj, self.y_d = traj, covers(y_d, traj.horizon, "demand")
        self.edges = traj.time_panels(extra=y_d.breakpoints)
        self.h, self.t = gauss_nodes(self.edges)
        self.xi_t = traj.xi(self.t)
        self.terms = traj._outlet(self.t, self.xi_t)
        self.residual = traj.law(self.terms[0]) * self.terms[3] - y_d(self.t)

    def error_sq(self) -> float:
        """Integral over [0, T] of (y - y_d)^2."""
        return float(np.sum(self.h * ((self.residual ** 2).reshape(-1, 3) @ G3_WEIGHTS)))

    def gradient(self, grid) -> np.ndarray:
        """Gradient of ``error_sq`` in the influx values on the cells of ``grid``.

        Exact for the solved curve, from its ``CurveAdjoint``: between jumps,
        y = lam(W) rho(t, 1) changes by dy = lam'(W) dW rho(t, 1) + lam(W) drho,
        where dW = dU(t) - rho(t, 1) dxi(t) - [dU(sig) - rho(t, 1) dxi(sig)]
        once xi(t) >= 1, drho = 0 before exit and, after it,
        rho(t, 1) = u(sig) / lam(W(sig)) changes with du(sig) and with W(sig), by
        dW(sig) + W'(sig) dsig. Each node's term is linear in dxi, dU and du at
        the node t, its entry time sig and, once xi(sig) >= 1, the entry time
        of sig. A jump of y that moves with u (a rho0 or control breakpoint
        reaching x = 1 at t_e) adds its jump of (y - y_d)^2 times its shift
        dt_e = (dxi(tau) - dxi(t_e)) / xi'(t_e), tau the control breakpoint
        (dxi = 0 for a rho0 one; S. Ulbrich, SIAM J. Control Optim. 41, 2002).
        So all the weights are applied first, 2 w (y - y_d) at the nodes, and
        the sums are one ``CurveAdjoint.contract`` call.
        """
        traj, y_d = self.traj, self.y_d
        if not isinstance(traj.inflow, FluxInflow):
            raise ValueError("the gradient needs a prescribed influx")
        u, xi, law = traj.inflow.signal, traj.xi, traj.law
        adjoint = CurveAdjoint(xi, law, grid, self.edges, self.terms)
        W, post, sigma, rho1 = self.terms
        c = 2.0 * (self.h[:, None] * G3_WEIGHTS).ravel() * self.residual
        # c dy at the node t is alpha dW(t), plus kappa du(sig) + mu dW(sig) after exit
        alpha = c * law.slope(W) * rho1
        times, a, b, e = [self.t], [-alpha * rho1], [alpha], [np.zeros(self.t.size)]
        if np.any(post):
            W_s, post_s, sigma_s, rho1_s = traj._outlet(sigma, self.xi_t[post] - 1.0)
            u_s, lam_s = u(sigma), law(W_s)
            # the particle entered at speed lam_s, so dsig = (dxi(t) - dxi(sig)) / lam_s,
            # and W'(sig) = u(sig) - y(sig): mu dW(sig) holds nu (dxi(t) - dxi(sig))
            kappa = c[post] * law(W[post]) / lam_s
            mu = -kappa * u_s * law.slope(W_s) / lam_s
            nu = mu * (u_s - lam_s * rho1_s) / lam_s
            alpha_p = alpha[post]
            a[0][post] += nu
            times += [sigma, sigma_s]
            a += [alpha_p * rho1[post] - mu * rho1_s - nu, (mu * rho1_s)[post_s]]
            b += [mu - alpha_p, -mu[post_s]]
            e += [kappa, np.zeros(sigma_s.size)]

        # moving jumps, in the order of their labels: rho0 breakpoint beta
        # (beta = 0 at the exit time), then the material that entered at
        # control breakpoint tau; one entering at T never reaches x = 1
        beta = traj.rho0.breakpoints[:-1]
        tau = u.breakpoints[1:]
        tau = tau[tau <= traj.horizon]
        levels = 1.0 + traj.inflow.labels(traj.rho0, xi, traj.horizon)
        moving = levels < xi.x_end
        if np.any(moving):
            lam_tau = traj.speed(tau)
            before = np.concatenate((traj.rho0(beta), u.left_limit(tau) / lam_tau))
            after = np.concatenate((traj.rho0.left_limit(beta), u(tau) / lam_tau))
            after[0] = u(0.0) / traj.speed(0.0)  # beta = 0: the first boundary material
            t_e = xi.inverse(levels[moving])
            lam_e = traj.speed(t_e)
            f_before = (lam_e * before[moving] - y_d.left_limit(t_e)) ** 2
            f_after = (lam_e * after[moving] - y_d(t_e)) ** 2
            jump = np.zeros(levels.size)
            jump[moving] = (f_before - f_after) / xi.slope(t_e)
            times += [t_e, tau]
            a += [-jump[moving], jump[beta.size:]]
            b += [np.zeros(t_e.size + tau.size)]
            e += [np.zeros(t_e.size + tau.size)]
        return adjoint.contract(*(np.concatenate(v) for v in (times, a, b, e)))
