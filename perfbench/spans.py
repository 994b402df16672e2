"""In-memory span tracer that wraps reflow's public entry points from outside.

A span is recorded only where a call crosses from one layer into another, so
the solver's own calls to ``CharacteristicCurve`` methods or the tracker's
repeated ``simulate`` calls into its own layer add no spans. Counters (speed-law
calls, step-function cumulatives, FV steps) are attributed to the layer that is
innermost when the call happens. Nothing under ``src/`` is modified: the
wrappers are installed by assigning module and class attributes, and removed
again by ``uninstall``.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

import reflow.characteristics as characteristics
import reflow.cli as cli
import reflow.fv as fv
import reflow.tracking as tracking
import reflow.transfer as transfer
import reflow.transport as transport
from reflow.laws import SpeedLaw
from reflow.signals import PiecewiseConstant

OP = "op"

# (owner, attribute, layer). Module attributes are the names the calling
# module looks up at call time, so patching them intercepts the cross-module
# call; class attributes cover every instance, including solver subclasses.
SPAN_POINTS = [
    (transport, "simulate", "transport"),
    (transport, "solve_xi", "characteristics"),
    (tracking, "simulate", "transport"),
    (tracking, "minimize", "tracking"),
    (transfer, "simulate", "transport"),
    (transfer, "check_lower_bound", "transfer"),
    (transfer, "certify_trajectory", "transfer"),
    (cli, "run_simulation", "transport"),
    (cli, "fv_solve", "fv"),
] + [(transport.Trajectory, name, "transport") for name in (
    "total_mass", "rho_at", "slice_values", "outflux", "cumulative_outflux",
    "cumulative_influx", "influx", "w_derivative", "backlog", "l1_slice_distance",
    "slice_lp_norm", "outflux_breaks", "time_panels", "tracking_error_sq",
    "influx_l2_sq", "timeseries",
)] + [(characteristics.CharacteristicCurve, name, "characteristics") for name in (
    "__call__", "slope", "inverse", "sample", "restricted",
)]
COUNT_POINTS = [
    (SpeedLaw, "__call__", "laws.call"),
    (SpeedLaw, "bounds", "laws.bounds"),
    (PiecewiseConstant, "cumulative", "signals.cumulative"),
    (fv, "fv_step", "fv.step"),
]


class Tracer:
    """Spans and counters of the ops run while it is installed.

    ``spans`` holds ``[name, layer, start_ns, end_ns, parent, op_id]`` rows;
    ``parent`` is the row index of the enclosing span (-1 for an op's root).
    ``counts`` maps ``(op_id, layer, counter)`` to a count; besides the
    wrapped calls it holds ``characteristics.solves`` and
    ``characteristics.knots`` (knots of the curves ``solve_xi`` returned) and
    ``transport.time_panels`` (quadrature panels built).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []  # rows of the open spans
        self._op: int | None = None
        self._saved: list[tuple] = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def op(self, op_id: int):
        """Root span of one user-facing operation."""
        self._op = op_id
        row = [OP, OP, time.perf_counter_ns(), 0, -1, op_id]
        self.spans.append(row)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            row[3] = time.perf_counter_ns()
            self._stack.pop()
            self._op = None

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span if it enters ``layer`` from another layer."""
        if self._op is None or self._layer() == layer:
            return fn(*args, **kwargs)
        row = [name, layer, time.perf_counter_ns(), 0, self._stack[-1], self._op]
        self.spans.append(row)
        self._stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            row[3] = time.perf_counter_ns()
            self._stack.pop()

    def _layer(self) -> str:
        return self.spans[self._stack[-1]][1]

    def count(self, counter: str, n: int = 1):
        if self._op is not None:
            self.counts[(self._op, self._layer(), counter)] += n

    # -- installation --------------------------------------------------------

    def _span_wrapper(self, fn, name, layer, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call(name, layer, fn, *args, **kwargs)
            if after is not None and self._op is not None:
                after(out)
            return out
        return wrapper

    def _count_wrapper(self, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(counter)
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")

        def on_solve(curve):
            self.count("characteristics.solves")
            self.count("characteristics.knots", curve.times.size)

        def on_panels(edges):
            self.count("transport.time_panels", edges.size - 1)

        after = {"solve_xi": on_solve, "time_panels": on_panels}
        for owner, attr, layer in SPAN_POINTS:
            self._patch(owner, attr, self._span_wrapper(
                owner.__dict__[attr], f"{layer}.{attr}", layer, after.get(attr)))
        for owner, attr, counter in COUNT_POINTS:
            self._patch(owner, attr, self._count_wrapper(owner.__dict__[attr], counter))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> Counter:
        """Self time in ns per layer: span durations minus their children's."""
        out = Counter()
        for name, layer, start, end, parent, op in self.spans:
            out[layer] += end - start
            if parent >= 0:
                out[self.spans[parent][1]] -= end - start
        return out

    def durations(self, name: str) -> list[int]:
        return [end - start for n, _, start, end, _, _ in self.spans if n == name]

    def calls_from(self, name: str, parent_layer: str, ops) -> int:
        """Spans called ``name`` opened directly from a ``parent_layer`` span."""
        return sum(1 for n, _, _, _, parent, op in self.spans
                   if n == name and op in ops and self.spans[parent][1] == parent_layer)

    def counted(self, counter: str, layer: str | None, ops) -> int:
        return sum(v for (op, lay, c), v in self.counts.items()
                   if c == counter and op in ops and (layer is None or lay == layer))

    def write(self, path):
        with open(path, "w") as f:
            f.write("name,layer,start_ns,end_ns,parent,op\n")
            for row in self.spans:
                f.write(",".join(map(str, row)) + "\n")
