"""Mutation check: each mutant below must be killed by the tests named for it.

Run from anywhere with ``python tests/mutants.py``. For each mutant the script
copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory,
checks that the named tests pass there, applies the mutant and requires every
named test to fail. A mutant's old text must occur exactly once in its file,
so the list follows the code. Exits 1 if a mutant's text does not match, its
tests do not pass unmutated, or one of them passes mutated. pytest does not
collect this file: its name does not start with ``test_``.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOLVER = "src/reflow/characteristics.py"
TRANSPORT = "src/reflow/transport.py"
WINDOWS = "tests/test_characteristics.py::TestWindows::"
NEWTON = "tests/test_characteristics.py::TestNewtonWindows::"
SLICE = "tests/test_transport.py::TestSliceQuadrature::test_l1_slice_distance_matches_brute_force"

# (what the mutant does, file, old text, new text, the test ids that must kill it)
MUTANTS = [
    ("the Newton step takes the outlet density past the exit as 0", SOLVER,
     "rho1[exited] = inflow.boundary_density(sigma, prefix.slope)",
     "rho1[exited] = 0.0",
     [NEWTON + "test_flux_input_past_the_exit_takes_at_most_fifteen_applications[reciprocal]",
      NEWTON + "test_flux_input_past_the_exit_takes_at_most_fifteen_applications[mild]"]),
    ("a Newton candidate is kept outside the speed bounds", SOLVER,
     "return new if speeds[0] <= rates.min() and rates.max() <= speeds[1] else values",
     "return new",
     [WINDOWS + "test_rejected_trial_falls_back_and_matches_ode",
      "tests/test_cli.py::test_window_below_knot_resolution_exits_3"]),
    ("a trial is kept while its residuals contract by 0.9", SOLVER,
     "if speeds is not None and new_resid > 0.5 * resid:",
     "if speeds is not None and new_resid > 0.9 * resid:",
     [WINDOWS + "test_rejected_trial_falls_back_and_matches_ode"]),
    ("the density curve halves a segment whose midpoint misses by tol, not tol / 4", SOLVER,
     "bad = miss > 0.25 * tol",
     "bad = miss > tol",
     [WINDOWS + "test_a_priori_length_meets_tail_mass_criterion",
      NEWTON + "test_boundary_density_input_takes_at_most_thirteen_applications"]),
    ("the lumped coefficient A is evaluated on every application", SOLVER,
     "    return values, xi_knots, A\n",
     "    a = A()\n    return values, xi_knots, lambda: a\n",
     [NEWTON + "test_lumped_coefficient_is_evaluated_only_for_a_newton_step[given-up-trials]",
      NEWTON + "test_lumped_coefficient_is_evaluated_only_for_a_newton_step[past-the-exit]"]),
    ("a window's knots miss the times the candidate crosses a label level", SOLVER,
     "grid = np.concatenate((fixed, kinks, cand.reach(all_levels)))",
     "grid = np.concatenate((fixed, kinks))",
     ["tests/test_characteristics.py::TestOdeOracle::test_pre_exit_curve_matches_stiff_ode_solver",
      "tests/test_characteristics.py::TestContraction::test_solved_curve_is_a_fixed_point"]),
    ("a window's knots miss the kinks of the speed law", SOLVER,
     "kinks = law.kink_times(knots, W)",
     "kinks = ()",
     [WINDOWS + "test_tabulated_law_kinks_are_knots",
      "tests/test_tracking.py::TestGradient::test_tabulated_law[1.0]"]),
    ("abs_integral splits no panel where the difference changes sign", TRANSPORT,
     "    if not row.size:\n        return float(part.sum())",
     "    if True:\n        return float(part.sum())",
     [SLICE + "[sign-2.4-2.5-1]"]),
    ("the quartic's roots are not polished", TRANSPORT,
     "    y = 0.5 * (a + b)\n    for _ in range(60):",
     "    y = 0.5 * (a + b)\n    for _ in range(0):",
     [SLICE + "[sign-2.4-2.41-2]"]),
    ("M9: the certificate misses a boundary-density gap below 1e-3", "src/reflow/transfer.py",
     "_DETECTION_TOL = 1e-6",
     "_DETECTION_TOL = 1e-3",
     ["tests/test_transfer.py::TestCertificate::test_a_gap_of_5e_4_to_rho_hi_still_delays_the_onset"]),
    ("every trial is capped at 0.45 / sup speed", SOLVER,
     "min(2.0 * last, 0.9 / bounds[1])",
     "min(2.0 * last, 0.45 / bounds[1])",
     [WINDOWS + "test_first_window_is_a_trial_at_the_cap_length"]),
]


def passed(root: Path, ids: list[str]) -> dict[str, bool]:
    """{test id: whether it passed} for the ids pytest ran and reported."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
                          "-W", "error::RuntimeWarning", *ids],
                         cwd=root, env=env, capture_output=True, text=True)
    out = {}
    for line in run.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            out[rest.split(" - ")[0]] = word == "PASSED"
    return out


def check(what: str, path: str, old: str, new: str, ids: list[str]) -> str | None:
    """None if the mutant is killed by every one of its ids, else the fault."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, root / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", root)
        target = root / path
        text = target.read_text()
        if text.count(old) != 1:
            return f"its old text occurs {text.count(old)} times in {path}"
        before = passed(root, ids)
        if [before.get(i) for i in ids] != [True] * len(ids):
            return f"its tests do not all pass unmutated: {before}"
        target.write_text(text.replace(old, new))
        after = passed(root, ids)
        if [after.get(i) for i in ids] != [False] * len(ids):
            return f"it survives: {after}"
    return None


def main() -> int:
    faults = 0
    for what, path, old, new, ids in MUTANTS:
        fault = check(what, path, old, new, ids)
        print(f"killed: {what}" if fault is None else f"FAILED: {what}: {fault}")
        faults += fault is not None
    return int(faults > 0)


if __name__ == "__main__":
    sys.exit(main())
