"""Benchmark for reflow: four seeded closed-loop workloads, one client each.

    python3 perfbench/run.py --workload flux_sim --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Run from the repository root. ``--trace 0`` times ops with nothing wrapped
and reports the end-to-end metrics: peak RSS, op cost in units of a fixed
reference computation timed after each op, and set-up time scaled to the host
speed at which that reference takes REFERENCE_S, so that host speed drift
cancels (wall-clock ops/s, latency percentiles and set-up seconds are printed
with the run summary). ``--trace 1`` runs
every op once bare and once traced, and reports per-layer metrics from the
spans. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the spans, the environment and the full result are
written under ``.bench_out/``. ``--workload all`` runs each workload in its
own process and prints every metric with its unit.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
# Seconds the reference computation takes at the speed setup_s is given in.
REFERENCE_S = 0.008
END_TO_END = {"setup_s": "s", "op_cost_ref": "ref", "peak_rss_mb": "MB"}


def git_revision() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    from importlib import metadata

    import yaml

    versions = {}
    for pkg in ("numpy", "scipy", "click", "PyYAML"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "absent"
    return {"git_revision": git_revision(), "python": platform.python_version(),
            **versions, "libyaml": bool(yaml.__with_libyaml__),
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


class Tally:
    """Gated ops: every op is checked, a raised error counts as a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, wl, inp, tracer=None):
        """(result, seconds) of one op, or (None, seconds) if it raised."""
        self.attempted += 1
        t = time.perf_counter()
        try:
            res = wl.op(inp, tracer)
        except Exception:  # a solver or validation error is a failed op
            dt = time.perf_counter() - t
            traceback.print_exc()
            self.failed += 1
            return None, dt
        return res, time.perf_counter() - t

    def check(self, wl, inp, res):
        if res is None:
            return
        bad = wl.check(inp, res)
        if bad:
            self.failed += 1
            print(f"gate failed: {'; '.join(bad)}", file=sys.stderr)


def setup(wl, seed, slots, tally, reps, reference):
    """Generate the inputs and run one warm-up op, ``reps`` times.

    The warm-up input is the same for every seed (seed 0), so that set-up time
    measures the program and not the seed. Returns the inputs, the median
    seconds of one repetition and the median reference time between them.
    """
    times, references = [], []
    for _ in range(reps):
        t = time.perf_counter()
        inputs = [wl.make(seed, i, slots / str(i)) for i in range(wl.pool)]
        warm = wl.make(0, wl.pool, slots / "warm")
        res, _ = tally.run(wl, warm)
        times.append(time.perf_counter() - t)
        references.append(reference())
        tally.check(wl, warm, res)
    return inputs, statistics.median(times), statistics.median(references)


def reference_timer():
    """A timer of a fixed computation that does not call reflow.

    Like reflow's ops it is Python interpretation around small-array numpy
    calls, so it slows down with the host; dividing op time by its time
    cancels the host's speed drift.
    """
    import numpy as np

    grid = np.linspace(0.0, 1.0, 257)
    queries = np.random.default_rng(0).random(64)

    def seconds() -> float:
        t = time.perf_counter()
        s = 0.0
        for _ in range(700):  # about 8 ms
            i = np.clip(np.searchsorted(grid, queries, side="right") - 1, 0, 255)
            s += float(np.sum(grid[i] * queries))
        return time.perf_counter() - t

    seconds()  # first calls into numpy are slower
    return seconds


def timed(wl, inputs, seconds, tally, reference):
    """Latencies of the ops, and of the reference run right after each."""
    latencies, references = [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        inp = inputs[i % len(inputs)]
        res, dt = tally.run(wl, inp)
        latencies.append(dt)
        references.append(reference())
        tally.check(wl, inp, res)
        i += 1
    return latencies, references


def traced(wl, inputs, seconds, tally):
    """Each op bare and traced, in alternating order; returns tracer and walls."""
    from spans import Tracer

    tracer = Tracer()
    bare, wrapped = [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i < wl.count_ops:
        inp = inputs[i % len(inputs)]
        for with_trace in ((False, True) if i % 2 else (True, False)):
            if with_trace:
                with tracer.installed(), tracer.op(i):
                    res, dt = tally.run(wl, inp, tracer)
                wrapped.append(dt)
            else:
                res, dt = tally.run(wl, inp)
                bare.append(dt)
            tally.check(wl, inp, res)
        i += 1
    return tracer, bare, wrapped


def layer_metrics(wl, tracer, inputs, bare, wrapped) -> dict:
    from probes import characteristics_probes, fv_probe
    from spans import OP

    counted = set(range(wl.count_ops))
    n_ops = len(wrapped)
    wall = sum(tracer.durations(OP))
    own = tracer.self_times()
    solves = tracer.counted("characteristics.solves", None, counted)
    solve_ns = tracer.durations("characteristics.solve_xi")

    def per_solve(counter):
        return tracer.counted(counter, "characteristics", counted) / solves

    def per_op(counter):
        return tracer.counted(counter, None, counted) / len(counted)

    return {
        "characteristics.solve_ms": sum(solve_ns) / len(solve_ns) / 1e6,
        "characteristics.share": own["characteristics"] / wall,
        "characteristics.knots_per_solve":
            tracer.counted("characteristics.knots", None, counted) / solves,
        "laws.calls_per_solve": per_solve("laws.call"),
        "laws.bounds_calls_per_solve": per_solve("laws.bounds"),
        "signals.cumulative_calls_per_solve": per_solve("signals.cumulative"),
        **characteristics_probes(),
        "transport.self_ms_per_op": own["transport"] / n_ops / 1e6,
        "transport.share": own["transport"] / wall,
        "transport.time_panels_per_op": per_op("transport.time_panels"),
        **fv_probe(),
        "fv.steps_per_op": per_op("fv.step"),
        "fv.share": own["fv"] / wall,
        "cli.share": own["cli"] / wall,
        "cli.config_bytes": statistics.fmean(
            getattr(inputs[i % len(inputs)], "config_bytes", 0) for i in counted),
        "tracking.solves_per_op":
            tracer.calls_from("transport.simulate", "tracking", counted) / len(counted),
        "tracking.share": own["tracking"] / wall,
        "transfer.share": own["transfer"] / wall,
        "trace.overhead_frac": sum(wrapped) / sum(bare) - 1.0,
        "trace.unattributed_share": own[OP] / wall,
    }


def run_one(args, seed) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports numpy and reflow
    import_s = time.perf_counter() - t0

    wl = workloads.WORKLOADS[args.workload]
    out = ROOT / ".bench_out" / f"{wl.name}-seed{seed}-trace{args.trace}"
    slots = out / "inputs"
    slots.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    extra = {}
    try:
        reference = reference_timer()
        # setup_s is reported by the untraced run only
        inputs, setup_rep, setup_ref = setup(wl, seed, slots, tally,
                                             1 if args.trace else SETUP_REPS, reference)
        if args.trace:
            tracer, bare, wrapped = traced(wl, inputs, args.seconds, tally)
            metrics = layer_metrics(wl, tracer, inputs, bare, wrapped)
            tracer.write(out / "spans.csv")
            extra = {"ops": len(wrapped), "spans": len(tracer.spans)}
        else:
            lat, ref = timed(wl, inputs, args.seconds, tally, reference)
            metrics = {
                # at the host speed where the reference takes REFERENCE_S
                "setup_s": (import_s + setup_rep) * REFERENCE_S / setup_ref,
                "op_cost_ref": sum(lat) / sum(ref),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            # wall-clock figures, printed but not gated: on a shared host they
            # drift by more between runs than the largest bound allows
            extra = {"ops": len(lat), "ops_per_s": len(lat) / sum(lat),
                     "op_p50_ms": 1e3 * statistics.median(lat),
                     "reference_ms": 1e3 * statistics.median(ref),
                     "wall_setup_s": import_s + setup_rep, "import_s": import_s, "latencies_ms": [1e3 * x for x in lat]}
            if len(lat) >= 100:  # keep ten samples beyond the percentile
                extra["op_p90_ms"] = 1e3 * statistics.quantiles(lat, n=10)[-1]
    finally:
        shutil.rmtree(slots, ignore_errors=True)

    units = {**END_TO_END, **{m["name"]: m["unit"] for m in benchmark()["per_layer"]}}
    extra["fail_frac"] = tally.failed / tally.attempted
    env = environment()
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    (out / "result.json").write_text(json.dumps(
        {"workload": wl.name, "seed": seed, "trace": args.trace, **result,
         "extra": extra, "environment": env}, indent=2))
    print(f"environment: {json.dumps(env)}")
    summary = {k: v for k, v in extra.items() if k != "latencies_ms"}
    print(f"workload {wl.name} seed {seed} trace {args.trace}: {json.dumps(summary)}")
    print(json.dumps(result))
    return 0


def run_all(args, seed) -> int:
    """Each workload in a child process; prints one table of every metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in benchmark_workloads():
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        print(f"== {name}: {lines[-2].split(': ', 1)[1]}")
        for key, m in res["metrics"].items():
            print(f"   {key:40s} {m['value']:.6g} {m['unit']}")
            combined["metrics"][f"{name}.{key}"] = m
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
    print(json.dumps(combined))
    return 0


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def benchmark_workloads() -> list[str]:
    return [w["name"] for w in benchmark()["workloads"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the one in perfbench/baseline.json)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "reflow" / "__init__.py").is_file():
        print(f"perfbench: no reflow sources in {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = benchmark()["run_seconds"]
    seed = args.seed
    if seed is None:
        seed = json.loads((HERE / "baseline.json").read_text())["seeds"]["default"]
    if args.workload == "all":
        return run_all(args, seed)
    if args.workload not in benchmark_workloads():
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args, seed)


if __name__ == "__main__":
    sys.exit(main())
