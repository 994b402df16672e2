"""Full weak solution assembled from the characteristic curve.

A trajectory evaluates the density pointwise by tracing back along
characteristics, and derives the total mass, outflux, backlog, regularity
diagnostics and the gradient of a tracking error in the influx. Integral
quantities (cumulative outflux, mass balance) are computed from the solution
formula itself rather than by quadrature of a sampled trace, so they are
exact up to the curve tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .characteristics import CharacteristicCurve, CurveTangent, Inflow, solve_xi
from .laws import SpeedLaw
from .signals import ControlSignal, DensityProfile, PiecewiseConstant

__all__ = ["Trajectory", "simulate"]

# 5-point Gauss-Legendre on [0, 1]
_N5 = np.array([0.04691007703066800, 0.23076534494715845, 0.5,
                0.76923465505284155, 0.95308992296933200])
_W5 = np.array([0.11846344252809454, 0.23931433524968324, 0.28444444444444444,
                0.23931433524968324, 0.11846344252809454])


def _panels(end: float, breaks, max_width: float) -> np.ndarray:
    """Edges in [0, end] at every break inside, refined to at most max_width."""
    breaks = breaks[(breaks > 0.0) & (breaks < end)]
    edges = np.unique(np.concatenate(([0.0, end], breaks)))
    pieces = [
        np.linspace(a, b, max(2, int(np.ceil((b - a) / max_width)) + 1))
        for a, b in zip(edges[:-1], edges[1:])
    ]
    return np.unique(np.concatenate(pieces))


def _gauss5(edges: np.ndarray, f) -> float:
    """Composite 5-point Gauss-Legendre integral of f over the panels ``edges``."""
    h = np.diff(edges)
    nodes = (edges[:-1, None] + h[:, None] * _N5[None, :]).ravel()
    return float(np.sum(h * (f(nodes).reshape(-1, 5) @ _W5)))


def _left_limit(f: PiecewiseConstant, t):
    """f just before t (f itself is right-continuous)."""
    i = np.searchsorted(f.breakpoints, t, side="left") - 1
    return f.values[np.minimum(np.maximum(i, 0), f.values.size - 1)]


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
    xi = solve_xi(
        u, rho0, law, T,
        tol=tol,
        boundary_density=boundary_density,
        knots_per_window=knots_per_window,
    )
    return Trajectory(law=law, rho0=rho0, xi=xi, horizon=float(T),
                      inflow=Inflow.of(u, boundary_density))


@dataclass(frozen=True)
class Trajectory:
    law: SpeedLaw
    rho0: DensityProfile
    xi: CharacteristicCurve
    horizon: float
    inflow: Inflow
    M: float = field(init=False)
    # B(z), the mass that entered while xi was below z; built once per curve
    boundary_mass: Callable = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "boundary_mass", self.inflow.boundary_mass(self.xi))
        object.__setattr__(self, "M", float(self.cumulative_influx(self.horizon))
                           + self.rho0.total_mass)

    # -- influx bookkeeping ----------------------------------------------

    def speed(self, t):
        """Transport speed lambda(W(t))."""
        return self.law(self.total_mass(t))

    def influx(self, t):
        """The influx u(t); derived from the boundary density when prescribed."""
        return self.inflow.influx(t, self.speed)

    def cumulative_influx(self, t):
        """Mass that entered through x = 0 by time t."""
        return self.inflow.entered(t, self.xi(t), self.boundary_mass)

    @property
    def exit_time(self) -> float | None:
        """Time the t = 0 boundary characteristic reaches x = 1, if it does."""
        if self.xi.x_end < 1.0:
            return None
        return self.xi.inverse(1.0)

    # -- primary observables ----------------------------------------------

    def total_mass(self, t):
        """W(t), the mass currently inside [0, 1]."""
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        W = self.inflow.mass(self.rho0, t, self.xi(t), self.boundary_mass)
        return float(W[0]) if scalar else np.asarray(W)

    def rho_at(self, t: float, x: float) -> float:
        """Density at (t, x); the interface x = xi(t) takes the inflow branch."""
        return float(self.slice_values(t, np.array([x]))[0])

    def slice_values(self, t: float, x) -> np.ndarray:
        """Density profile at time t evaluated on an array of positions."""
        return self._density(self.xi(t), np.atleast_1d(np.asarray(x, dtype=float)))

    def _density(self, xi_t, x) -> np.ndarray:
        """Density at positions x where the curve is at xi_t (broadcast
        together); the interface x = xi_t takes the inflow branch."""
        behind = xi_t - x
        out = np.empty_like(behind)
        init = behind < 0
        out[init] = self.rho0(-behind[init])
        if not np.all(init):
            sigma = self.xi.inverse(behind[~init])
            out[~init] = self.inflow.boundary_density(sigma, self.speed)
        return out

    def outflux(self, t):
        """y(t) = speed(W(t)) * rho(t, 1)."""
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        xi_t = self.xi(t)
        rho1 = np.empty_like(t)
        pre = xi_t <= 1.0
        rho1[pre] = self.rho0(1.0 - xi_t[pre])
        if np.any(~pre):
            sigma = self.xi.inverse(xi_t[~pre] - 1.0)
            rho1[~pre] = self.inflow.boundary_density(sigma, self.speed)
        y = self.speed(t) * rho1
        return float(y[0]) if scalar else y

    def cumulative_outflux(self, t):
        """Exact accumulated outflux: mass that has left through x = 1."""
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        xi_t = np.asarray(self.xi(t), dtype=float)
        from_init = self.rho0.total_mass - np.atleast_1d(self.rho0.cumulative(1.0 - xi_t))
        from_boundary = np.zeros_like(xi_t)
        post = xi_t > 1.0
        if np.any(post):
            from_boundary[post] = self.boundary_mass(xi_t[post] - 1.0)
        out = from_init + from_boundary
        return float(out[0]) if scalar else np.asarray(out)

    def w_derivative(self, t):
        """W'(t) = u(t) - y(t); one-sided values at data breakpoints."""
        return self.influx(t) - self.outflux(t)

    def backlog(self, y_d: ControlSignal, t: float) -> float:
        """Accumulated demand minus accumulated outflux at time t."""
        if t > min(y_d.horizon, self.horizon) + 1e-12:
            raise ValueError(f"t={t} beyond demand or trajectory horizon")
        return float(y_d.cumulative(t) - self.cumulative_outflux(t))

    # -- regularity diagnostics -------------------------------------------

    def slice_panels(self, *times: float, max_width: float = 1e-3) -> np.ndarray:
        """Quadrature edges in [0, 1] aligned with the density jumps at the given times."""
        taus = self.inflow.signal.breakpoints
        breaks = []
        for t in times:
            xi_t = self.xi(t)
            breaks += [[xi_t], xi_t + self.rho0.breakpoints,
                       xi_t - np.asarray(self.xi(taus[taus <= t]), dtype=float)]
        return _panels(1.0, np.concatenate(breaks), max_width)

    def l1_slice_distance(self, s: float, t: float, *, max_width: float = 1e-3) -> float:
        """Integral over [0, 1] of |rho(s, x) - rho(t, x)|."""
        return _gauss5(self.slice_panels(s, t, max_width=max_width),
                       lambda x: np.abs(self.slice_values(s, x) - self.slice_values(t, x)))

    def slice_lp_norm(self, t: float, p: int, *, max_width: float = 1e-3) -> float:
        """L^p norm of the density profile at time t (p in {1, 2})."""
        if p not in (1, 2):
            raise ValueError(f"unsupported exponent p={p}")
        return _gauss5(self.slice_panels(t, max_width=max_width),
                       lambda x: self.slice_values(t, x) ** p) ** (1.0 / p)

    def l1_time_distance(self, x1: float, x2: float, *, max_width: float = 1e-3) -> float:
        """Hidden-regularity dual: integral over [0, T] of |rho(t,x1) - rho(t,x2)|."""
        def gap(ts):
            xi_t = self.xi(ts)
            return np.abs(self._density(xi_t, x1) - self._density(xi_t, x2))

        return _gauss5(self.time_panels(max_width=max_width * self.horizon), gap)

    # -- time quadrature ----------------------------------------------------

    def outflux_breaks(self) -> np.ndarray:
        """Times in (0, T) where the outflux (or influx) can jump."""
        levels = self.inflow.xi_levels(self.rho0, self.xi)
        levels = levels[(levels > 0.0) & (levels < self.xi.x_end)]
        ev = np.concatenate((self.xi.inverse(levels), self.inflow.signal.breakpoints))
        return np.unique(ev[(ev > 0.0) & (ev < self.horizon)])

    def time_panels(self, extra=(), *, max_width: float | None = None) -> np.ndarray:
        """Quadrature edges in [0, T] at every jump and kink of the outflux and
        influx, and at the times ``extra``.

        The outflux has kinks where W crosses a kink of the law and, once
        material that entered at a jump or kink leaves, at that exit.
        """
        if max_width is None:
            max_width = self.horizon / 512.0
        kinks = self.law.kinks
        if kinks.size:
            kinks = self.law.kink_times(self.xi.times, self.total_mass(self.xi.times))
        breaks = self.xi.with_exits(np.concatenate((self.outflux_breaks(), kinks)))
        return _panels(self.horizon, np.concatenate((breaks, np.asarray(extra, dtype=float))),
                       max_width)

    def tracking_error_sq(self, y_d: ControlSignal) -> float:
        """Integral over [0, T] of (y - y_d)^2, panel-exact Gauss quadrature."""
        return _gauss5(self.time_panels(extra=y_d.breakpoints),
                       lambda t: (self.outflux(t) - y_d(t)) ** 2)

    def tracking_gradient(self, y_d: ControlSignal, grid) -> np.ndarray:
        """Gradient of ``tracking_error_sq(y_d)`` in the influx values on the cells of ``grid``.

        Exact for the solved curve, from its ``CurveTangent``: between jumps,
        y = lam(W) rho(t, 1) changes by dy = lam'(W) dW rho(t, 1) + lam(W) drho,
        where drho = 0 before exit and, after it, rho(t, 1) = u(sig) / lam(W(sig))
        changes with du(sig) and with W(sig), by dW(sig) + W'(sig) dsig. A jump
        of y that moves with u (a rho0 or control breakpoint reaching x = 1 at
        t_e) adds its jump of (y - y_d)^2 times its shift dt_e (S. Ulbrich,
        SIAM J. Control Optim. 41, 2002).
        """
        u, xi, law = self.inflow.signal, self.xi, self.law
        tangent = CurveTangent(xi, self.inflow, self.rho0, law, grid)
        edges = self.time_panels(extra=y_d.breakpoints)
        h = np.diff(edges)
        t = (edges[:-1, None] + h[:, None] * _N5[None, :]).ravel()
        xi_t = xi(t)
        post = xi_t > 1.0
        W = self.total_mass(t)
        lam = law(W)
        rho1 = self.rho0(1.0 - xi_t)
        sigma = xi.inverse(xi_t[post] - 1.0)
        W_s = self.total_mass(sigma)
        lam_s, u_s = law(W_s), u(sigma)
        rho1[post] = u_s / lam_s
        dy = tangent.mass(t)
        dy *= (law.slope(W) * rho1)[:, None]
        if np.any(post):
            d_sigma = (tangent(t[post]) - tangent(sigma)) / xi.slope(sigma)[:, None]
            dW_s = tangent.mass(sigma) + self.w_derivative(sigma)[:, None] * d_sigma
            drho = tangent.influx(sigma) - (u_s * law.slope(W_s) / lam_s)[:, None] * dW_s
            dy[post] += (lam[post] / lam_s)[:, None] * drho
        weights = (h[:, None] * _W5).ravel()
        grad = (2.0 * weights * (lam * rho1 - y_d(t))) @ dy

        # moving jumps: rho0 breakpoint beta reaches x = 1 when xi = 1 - beta
        # (beta = 0 at the exit time), the material that entered at control
        # breakpoint tau when xi = 1 + xi(tau)
        beta = self.rho0.breakpoints[:-1]
        tau = u.breakpoints[1:]
        tau = tau[tau < self.horizon]
        levels = np.concatenate((1.0 - beta, 1.0 + xi(tau)))
        moving = levels < xi.x_end
        if np.any(moving):
            lam_tau = self.speed(tau)
            before = np.concatenate((self.rho0(beta), _left_limit(u, tau) / lam_tau))
            after = np.concatenate((_left_limit(self.rho0, beta), u(tau) / lam_tau))
            after[0] = u(0.0) / self.speed(0.0)  # beta = 0: the first boundary material
            entry = np.concatenate((np.zeros((beta.size, tangent.cells.size - 1)), tangent(tau)))
            e = xi.inverse(levels[moving])
            lam_e = self.speed(e)
            f_before = (lam_e * before[moving] - _left_limit(y_d, e)) ** 2
            f_after = (lam_e * after[moving] - y_d(e)) ** 2
            shift = (entry[moving] - tangent(e)) / xi.slope(e)[:, None]
            grad += (f_before - f_after) @ shift
        return grad

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
