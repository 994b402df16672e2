"""Fixed-input layer probes, the same on every workload and seed.

They time one layer on its own, so a change to that layer shows here even
when a workload's op mix hides it: one window-map application, Hermite
evaluation and inversion on a converged curve, and the finite-volume step.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import reflow.characteristics as characteristics
import reflow.fv as fv
from reflow.laws import reciprocal
from reflow.signals import ControlSignal, DensityProfile

LAW = reciprocal()


def _median_s(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def characteristics_probes() -> dict:
    """apply_F window, eval and inverse on the T=3 flux-mode reference curve."""
    rho0 = DensityProfile([0.0, 0.3, 0.7, 1.0], [1.2, 0.4, 2.0])
    u = ControlSignal(np.linspace(0.0, 3.0, 9),
                      [0.8, 0.1, 1.5, 0.6, 0.0, 1.1, 0.9, 0.3])
    curve = characteristics.solve_xi(u, rho0, LAW, 3.0)
    t = np.linspace(0.0, 3.0, 100_000)
    x = np.linspace(curve.values[0], curve.x_end, 10_000)
    return {
        "characteristics.apply_F_ms": 1e3 * _median_s(
            lambda: characteristics.apply_F(curve, u, rho0, LAW, (1.5, 1.6)), 31),
        "characteristics.eval_ns_per_point": 1e9 * _median_s(
            lambda: curve(t), 21) / t.size,
        "characteristics.inverse_ns_per_point": 1e9 * _median_s(
            lambda: curve.inverse(x), 11) / x.size,
    }


def fv_probe(n_cells: int = 4000, steps: int = 200) -> dict:
    """Upwind steps on a smooth 4000-cell state at the CFL limit."""
    rho0 = DensityProfile.from_function(lambda x: 1.0 + 0.3 * np.sin(2 * np.pi * x),
                                        n_cells)
    start = fv.FvState.from_profile(rho0, n_cells)
    dt = 0.9 / n_cells  # the reciprocal law's speed never exceeds 1

    def march():
        state = start
        for _ in range(steps):
            state = fv.fv_step(state, LAW, 0.5, dt)

    return {"fv.ns_per_cell_step": 1e9 * _median_s(march, 7) / (steps * n_cells)}
