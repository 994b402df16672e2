"""Correctness gates, one per workload, at the tier-1 tolerance they mirror.

Each gate takes plain numbers and arrays and returns the list of violations;
an empty list means the op passed. Keeping them free of reflow objects lets
the tests feed them deliberately corrupted results.
"""

from __future__ import annotations

import numpy as np


def flux_gate(*, mass_residual, M, slopes, lam_lo, lam_hi, densities,
              tv, eps) -> list[str]:
    """Criteria 5, 6 and 10 on one flux-mode simulation.

    ``mass_residual`` is W(t) - W(0) - U(t) + Y(t) on a time grid, ``slopes``
    the curve slopes on a grid that includes every knot, ``densities`` density
    samples, ``tv`` the panel integral of |W'| and ``eps`` the L1 slice
    distances for halving steps h, one row per base time.
    """
    bad = []
    worst = float(np.max(np.abs(mass_residual))) / (1.0 + M)
    if not worst <= 1e-8:
        bad.append(f"mass balance residual {worst:.2e} > 1e-8 (1+M)")
    excursion = max(float(np.max(lam_lo - slopes)), float(np.max(slopes - lam_hi)))
    if not excursion <= 1e-12:
        bad.append(f"slope outside speed envelope by {excursion:.2e} > 1e-12")
    if not float(np.min(densities)) >= 0.0:
        bad.append(f"negative density {float(np.min(densities)):.2e}")
    if not tv - M <= 1e-8:
        bad.append(f"int |W'| - M = {tv - M:.2e} > 1e-8")
    for row in np.asarray(eps, dtype=float):
        if not np.all(np.diff(row) <= 0.0):
            bad.append(f"L1 slice distance not halving-monotone: {row.tolist()}")
    return bad


def transfer_gate(*, satisfied, slack, candidate: bool) -> list[str]:
    """Criterion 9: a satisfied certificate; zero slack on a candidate optimum."""
    bad = []
    if not satisfied:
        bad.append("certificate not satisfied")
    if candidate and not abs(slack) <= 1e-6:
        bad.append(f"candidate-optimal slack |{slack:.2e}| > 1e-6")
    if not candidate and not slack >= 0.0:
        bad.append(f"admissible transfer has negative slack {slack:.2e}")
    return bad


def tracking_gate(*, cost_history, best_cost, comparator_costs) -> list[str]:
    """Criterion 8: no increase within a restart, best no worse than comparators."""
    bad = []
    rise = max((b - a for hist in cost_history for a, b in zip(hist, hist[1:])),
               default=0.0)
    if not rise <= 1e-12:
        bad.append(f"cost rose by {rise:.2e} within a restart")
    gap = best_cost - min(comparator_costs)
    if not gap <= 1e-12:
        bad.append(f"best cost exceeds a comparator control by {gap:.2e}")
    return bad


def crosscheck_gate(*, exit_code, cells, l1_errors) -> list[str]:
    """Criterion 7 through the CLI: first-order convergence to the FV oracle."""
    if exit_code != 0:
        return [f"crosscheck exited with code {exit_code}"]
    if list(cells) != [1000, 2000, 4000]:
        return [f"unexpected grid {list(cells)}"]
    bad = []
    ratios = [a / b for a, b in zip(l1_errors, l1_errors[1:])]
    if not all(1.6 <= r <= 2.4 for r in ratios):
        bad.append(f"refinement ratios {ratios} outside [1.6, 2.4]")
    if not l1_errors[-1] <= 5e-3:
        bad.append(f"L1 error at 4000 cells {l1_errors[-1]:.2e} > 5e-3")
    return bad
