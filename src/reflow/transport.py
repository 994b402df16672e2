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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .characteristics import CharacteristicCurve, CurveTangent, FluxInflow, Inflow, solve_xi
from .laws import SpeedLaw
from .rules import finite_positive
from .signals import ControlSignal, DensityProfile

__all__ = ["Trajectory", "simulate"]

# 5-point Gauss-Legendre on [0, 1]
_N5 = np.array([0.04691007703066800, 0.23076534494715845, 0.5,
                0.76923465505284155, 0.95308992296933200])
_W5 = np.array([0.11846344252809454, 0.23931433524968324, 0.28444444444444444,
                0.23931433524968324, 0.11846344252809454])
_SLICE_WIDTH = 1e-3  # widest panel of the slice quadratures


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


def _positions(x) -> np.ndarray:
    """``x`` as a 1-D float array in [0, 1], within 1e-12 (ValueError otherwise)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((x >= -1e-12) & (x <= 1.0 + 1e-12)):  # also rejects NaN
        raise ValueError(f"positions must lie in [0, 1], got [{np.min(x):g}, {np.max(x):g}]")
    return x


def _nodes5(edges: np.ndarray):
    """(h, nodes): the panel widths and the 5-point Gauss nodes of the panels ``edges``."""
    h = np.diff(edges)
    return h, (edges[:-1, None] + h[:, None] * _N5[None, :]).ravel()


def _gauss5(edges: np.ndarray, f) -> float:
    """Composite 5-point Gauss-Legendre integral of f over the panels ``edges``."""
    h, nodes = _nodes5(edges)
    return float(np.sum(h * (f(nodes).reshape(-1, 5) @ _W5)))


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
    # B(z), the mass that entered while xi was below z; built once per curve
    boundary_mass: Callable = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "boundary_mass", self.inflow.boundary_mass(self.xi))

    # -- influx bookkeeping ----------------------------------------------

    def _times(self, t) -> np.ndarray:
        """``t`` as a 1-D float array; a time outside [0, T] raises ValueError,
        since the curve and the influx would be clamped there differently."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        eps = 1e-12 * max(1.0, self.horizon)
        if not np.all((t >= -eps) & (t <= self.horizon + eps)):  # also rejects NaN
            raise ValueError(f"times must lie in [0, {self.horizon:g}], got "
                             f"[{np.min(t):g}, {np.max(t):g}]")
        return t

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

    def _mass(self, t, xi_t):
        """W at times t where the curve is at the known positions xi_t."""
        return self.inflow.mass(self.rho0, t, xi_t, self.boundary_mass)

    def rho_at(self, t: float, x: float) -> float:
        """Density at (t, x); the interface x = xi(t) takes the inflow branch."""
        return float(self.slice_values(t, np.array([x]))[0])

    def slice_values(self, t: float, x) -> np.ndarray:
        """Density profile at time t on an array of positions in [0, 1]."""
        x = _positions(x)
        return self._density(self.xi(self._times(t)), x)[0]

    def _density(self, xi_t, x):
        """(rho, sigma, W_sigma): density at positions x where the curve is at xi_t
        (broadcast together); for the material behind the curve (x <= xi_t) its
        entry times and the mass then, cached, never computed in density mode."""
        behind = xi_t - x
        out = np.empty_like(behind)
        init = behind < 0
        out[init] = self.rho0(-behind[init])
        sigma, W_sigma = np.empty(0), None
        if not np.all(init):
            entry = behind[~init]
            sigma = self.xi.inverse(entry)
            W_sigma = functools.cache(lambda: self._mass(sigma, entry))
            out[~init] = self.inflow.boundary_density(sigma, lambda s: self.law(W_sigma()))
        return out, sigma, W_sigma

    def _outlet(self, t, xi_t):
        """(W, behind, sigma, W_sigma, rho1) at times t where the curve is at
        xi_t: the mass, the mask xi_t >= 1, ``_density`` at x = 1 there."""
        rho1, sigma, W_sigma = self._density(xi_t, 1.0)
        return self._mass(t, xi_t), xi_t >= 1.0, sigma, W_sigma, rho1

    def outflux(self, t):
        """y(t) = speed(W(t)) * rho(t, 1); the interface takes the inflow branch."""
        ts = self._times(t)
        W, _, _, _, rho1 = self._outlet(ts, self.xi(ts))
        y = self.law(W) * rho1
        return float(y[0]) if np.ndim(t) == 0 else y

    def cumulative_outflux(self, t):
        """Exact accumulated outflux: mass that has left through x = 1."""
        out = self.inflow.outflow(self.rho0, self.xi(self._times(t)), self.boundary_mass)
        return float(out[0]) if np.ndim(t) == 0 else out

    def w_derivative(self, t):
        """W'(t) = u(t) - y(t); one-sided values at data breakpoints."""
        return self.influx(t) - self.outflux(t)

    def backlog(self, y_d: ControlSignal, t: float) -> float:
        """Accumulated demand minus accumulated outflux at time t."""
        if t > min(y_d.horizon, self.horizon) + 1e-12:
            raise ValueError(f"t={t} beyond demand or trajectory horizon")
        return float(y_d.cumulative(t) - self.cumulative_outflux(t))

    # -- regularity diagnostics -------------------------------------------

    def slice_panels(self, *times: float) -> np.ndarray:
        """Quadrature edges in [0, 1] aligned with the density jumps at the given times."""
        breaks = [self.xi(t) - self.inflow.labels(self.rho0, self.xi, t) for t in times]
        return _panels(1.0, np.concatenate(breaks), _SLICE_WIDTH)

    def l1_slice_distance(self, s: float, t: float) -> float:
        """Integral over [0, 1] of |rho(s, x) - rho(t, x)|."""
        return _gauss5(self.slice_panels(s, t),
                       lambda x: np.abs(self.slice_values(s, x) - self.slice_values(t, x)))

    def slice_lp_norm(self, t: float, p: int) -> float:
        """L^p norm of the density profile at time t (p in {1, 2})."""
        if p not in (1, 2):
            raise ValueError(f"unsupported exponent p={p}")
        return _gauss5(self.slice_panels(t),
                       lambda x: self.slice_values(t, x) ** p) ** (1.0 / p)

    def l1_time_distance(self, x1: float, x2: float, *, max_width: float = 1e-3) -> float:
        """Hidden-regularity dual: integral over [0, T] of |rho(t,x1) - rho(t,x2)|."""
        x1, x2 = _positions(x1), _positions(x2)
        max_width = finite_positive(max_width, "max_width")

        def gap(ts):
            xi_t = self.xi(ts)
            return np.abs(self._density(xi_t, x1)[0] - self._density(xi_t, x2)[0])

        return _gauss5(self.time_panels(max_width=max_width * self.horizon), gap)

    # -- time quadrature ----------------------------------------------------

    def outflux_breaks(self) -> np.ndarray:
        """Times in (0, T) where the outflux (or influx) can jump."""
        levels = 1.0 + self.inflow.labels(self.rho0, self.xi, self.horizon)
        levels = levels[levels < self.xi.x_end]
        ev = np.concatenate((self.xi.inverse(levels), self.inflow.signal.breakpoints))
        return np.unique(ev[(ev > 0.0) & (ev < self.horizon)])

    def time_panels(self, extra=(), *, max_width: float | None = None) -> np.ndarray:
        """Quadrature edges in [0, T] at every jump and kink of the outflux and
        influx, and at the times ``extra``.

        The outflux has kinks where W crosses a kink of the law and, once
        material that entered at a jump or kink leaves, at that exit.
        """
        max_width = (self.horizon / 512.0 if max_width is None
                     else finite_positive(max_width, "max_width"))
        kinks = self.law.kinks
        if kinks.size:
            kinks = self.law.kink_times(self.xi.times, self.total_mass(self.xi.times))
        breaks = self.xi.with_exits(np.concatenate((self.outflux_breaks(), kinks)))
        return _panels(self.horizon, np.concatenate((breaks, np.asarray(extra, dtype=float))),
                       max_width)

    def tracking_error_sq(self, y_d: ControlSignal) -> float:
        """Integral over [0, T] of (y - y_d)^2, panel-exact Gauss quadrature."""
        return _TrackingQuadrature(self, y_d).error_sq()

    def tracking_gradient(self, y_d: ControlSignal, grid) -> np.ndarray:
        """Gradient of ``tracking_error_sq(y_d)`` in the influx values on the cells
        of ``grid``; see ``_TrackingQuadrature.gradient``."""
        return _TrackingQuadrature(self, y_d).gradient(grid)

    def influx_l2_sq(self) -> float:
        """Integral over [0, T] of u^2, panel-exact Gauss quadrature."""
        return _gauss5(self.time_panels(), lambda t: self.influx(t) ** 2)

    # -- export -------------------------------------------------------------

    def timeseries(self, n: int = 4096, y_d: ControlSignal | None = None):
        """(t, W, u, y, beta) arrays on a uniform grid."""
        t = np.linspace(0.0, self.horizon, n)
        W = self.total_mass(t)
        uu = np.asarray(self.influx(t), dtype=float)
        y = self.outflux(t)
        if y_d is not None:
            beta = y_d.cumulative(t) - self.cumulative_outflux(t)
        else:
            beta = np.zeros_like(t)
        return t, W, uu, y, beta

    def write_timeseries(self, path, n: int = 4096, y_d: ControlSignal | None = None):
        t, W, uu, y, beta = self.timeseries(n=n, y_d=y_d)
        data = np.column_stack((t, W, uu, y, beta))
        np.savetxt(path, data, delimiter=",", header="columns: t,W,u,y,beta")

    def write_slice(self, path, t: float, n: int = 1024):
        x = np.linspace(0.0, 1.0, n)
        data = np.column_stack((x, self.slice_values(t, x)))
        np.savetxt(path, data, delimiter=",", header="columns: x,rho")


class _TrackingQuadrature:
    """The one build of the Gauss nodes of ``Trajectory.tracking_error_sq`` on
    ``time_panels``, for its cost and its gradient: panel widths h, nodes t,
    xi(t), ``_outlet``'s terms there (W, post, sigma, W_sigma, rho1) and the
    residual y - y_d."""

    def __init__(self, traj: Trajectory, y_d: ControlSignal):
        self.traj, self.y_d = traj, y_d
        self.h, self.t = _nodes5(traj.time_panels(extra=y_d.breakpoints))
        self.xi_t = traj.xi(self.t)
        self.terms = traj._outlet(self.t, self.xi_t)
        self.residual = traj.law(self.terms[0]) * self.terms[4] - y_d(self.t)

    def error_sq(self) -> float:
        """Integral over [0, T] of (y - y_d)^2."""
        return float(np.sum(self.h * ((self.residual ** 2).reshape(-1, 5) @ _W5)))

    def gradient(self, grid) -> np.ndarray:
        """Gradient of ``error_sq`` in the influx values on the cells of ``grid``.

        Exact for the solved curve, from its ``CurveTangent``: between jumps,
        y = lam(W) rho(t, 1) changes by dy = lam'(W) dW rho(t, 1) + lam(W) drho,
        where dW = dU(t) - rho(t, 1) dxi(t) - [dU(sig) - rho(t, 1) dxi(sig)]
        once xi(t) >= 1, drho = 0 before exit and, after it,
        rho(t, 1) = u(sig) / lam(W(sig)) changes with du(sig) and with W(sig), by
        dW(sig) + W'(sig) dsig. Each node's term is linear in dxi, dU and du at
        the node t, its entry time sig and, once xi(sig) >= 1, the entry time
        of sig. So the scalar Gauss weights 2 w (y - y_d) are applied first,
        and the sums over those times are read off the tangent once
        (``CurveTangent.contract``). A jump of y that moves with u (a rho0 or
        control breakpoint reaching x = 1 at t_e) adds its jump of (y - y_d)^2
        times its shift dt_e (S. Ulbrich, SIAM J. Control Optim. 41, 2002).
        """
        traj, y_d = self.traj, self.y_d
        if not isinstance(traj.inflow, FluxInflow):
            raise ValueError("the curve tangent needs a prescribed influx")
        u, xi, law = traj.inflow.signal, traj.xi, traj.law
        tangent = CurveTangent(xi, law, grid, traj._outlet)
        W, post, sigma, _, rho1 = self.terms
        c = 2.0 * (self.h[:, None] * _W5).ravel() * self.residual
        # c dy at the node t is alpha dW(t), plus kappa du(sig) + mu dW(sig) after exit
        alpha = c * law.slope(W) * rho1
        times, a, b, e = [self.t], [-alpha * rho1], [alpha], [np.zeros(self.t.size)]
        if np.any(post):
            W_s, post_s, sigma_s, _, rho1_s = traj._outlet(sigma, self.xi_t[post] - 1.0)
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
        grad = tangent.contract(*(np.concatenate(v) for v in (times, a, b, e)))

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
            entry = np.concatenate((np.zeros((beta.size, tangent.cells.size - 1)), tangent(tau)))
            t_e = xi.inverse(levels[moving])
            lam_e = traj.speed(t_e)
            f_before = (lam_e * before[moving] - y_d.left_limit(t_e)) ** 2
            f_after = (lam_e * after[moving] - y_d(t_e)) ** 2
            shift = (entry[moving] - tangent(t_e)) / xi.slope(t_e)[:, None]
            grad += (f_before - f_after) @ shift
        return grad
