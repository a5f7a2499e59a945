"""Spans around calls into quantlink's layers, recorded from outside the package.

A :class:`Tracer` replaces the names that ``quantlink.harness`` and
``quantlink.rates`` look up at call time with timing wrappers, and puts the
originals back on exit.  No source file of the package changes.  Each span
records its layer name, start, end, parent span, run id and thread; spans stay
in memory until the run ends.

Self time follows the wall clock.  At every instant, each thread that is
inside a wrapped call charges that instant to its innermost open span, and
threads inside wrapped calls at the same instant split it evenly.  An instant
in which no thread is inside a wrapped call belongs to the harness.  The
layer self times therefore sum to the traced sweep time exactly, also when
pool workers run spans concurrently.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import statistics
import threading
import time

ROOT = -1

# (module, global name) -> layer.  The harness resolves these names in its own
# module globals on every call; rate_ci_exact resolves the two quantizer/MI
# helpers in quantlink.rates.
WRAPPED = {
    ("quantlink.harness", "generate_channel"): "channel.generate",
    ("quantlink.harness", "alternating_projection"): "analog.ap",
    ("quantlink.harness", "effective_channel"): "analog.effective_channel",
    ("quantlink.harness", "svd_precoder"): "digital.svd_precoder",
    ("quantlink.harness", "lloyd_max"): "quantizers.lloyd_max",
    ("quantlink.harness", "rate_ci_exact"): "rates.ci_exact",
    ("quantlink.harness", "rate_ci_fano"): "rates.ci_fano",
    ("quantlink.harness", "rate_ci_onebit"): "rates.ci_onebit",
    ("quantlink.harness", "rate_aqnm"): "rates.aqnm",
    ("quantlink.harness", "ub_onebit_tight"): "rates.bounds",
    ("quantlink.harness", "ub_onebit_loose"): "rates.bounds",
    ("quantlink.harness", "ub_infinite"): "rates.bounds",
    ("quantlink.harness", "total_power"): "power",
    ("quantlink.harness", "energy_efficiency"): "power",
    ("quantlink.rates", "build_transition_matrix"): "quantizers.build_transition_matrix",
    ("quantlink.rates", "discrete_mi"): "rates.discrete_mi",
}

# What a span keeps from its call: AP iterations and convergence, ci_exact bit depth.
NOTES = {
    "analog.ap": lambda args, kwargs, result: (result.iterations, result.converged),
    "rates.ci_exact": lambda args, kwargs, result: args[0] if args else kwargs["bits"],
}

EMIT_CSV = "harness.emit_csv"
MAX_BITS = 8

# Per-layer metrics in output order: (name, unit).
PER_LAYER = (
    [
        ("channel.generate.calls", "count"),
        ("channel.generate.self_s", "s"),
        ("analog.ap.calls", "count"),
        ("analog.ap.self_s", "s"),
        ("analog.ap.iters_median", "count"),
        ("analog.ap.iters_max", "count"),
        ("analog.ap.iters_total", "count"),
        ("analog.ap.converged_ratio", "ratio"),
        ("analog.effective_channel.self_s", "s"),
        ("digital.svd_precoder.calls", "count"),
        ("digital.svd_precoder.self_s", "s"),
        ("quantizers.build_transition_matrix.calls", "count"),
        ("quantizers.build_transition_matrix.self_s", "s"),
        ("quantizers.lloyd_max.calls", "count"),
        ("quantizers.lloyd_max.self_s", "s"),
        ("rates.ci_exact.calls", "count"),
        ("rates.ci_exact.self_s", "s"),
    ]
    + [(f"rates.ci_exact.b{b}_s", "s") for b in range(1, MAX_BITS + 1)]
    + [
        ("rates.discrete_mi.calls", "count"),
        ("rates.discrete_mi.self_s", "s"),
        ("rates.aqnm.calls", "count"),
        ("rates.aqnm.self_s", "s"),
        ("rates.ci_fano.self_s", "s"),
        ("rates.ci_onebit.self_s", "s"),
        ("rates.bounds.self_s", "s"),
        ("power.self_s", "s"),
        ("harness.self_s", "s"),
        ("harness.emit_csv_s", "s"),
        ("harness.records", "count"),
        ("harness.nan_cells", "count"),
        ("trace.overhead_s", "s"),
    ]
)

LAYERS = sorted(set(WRAPPED.values()))


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id", "thread", "note")

    def __init__(self, name, parent, run_id, thread):
        self.name = name
        self.parent = parent
        self.run_id = run_id
        self.thread = thread
        self.start = self.end = None
        self.note = None


class Tracer:
    """Records spans for calls into the wrapped quantlink functions.

    Use as a context manager: entering installs the wrappers, leaving restores
    the original module globals.  Set ``run_id`` before each traced sweep.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else ROOT, self.run_id, threading.get_ident())
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(span)
        return span

    def wrap(self, name, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack().pop()
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block of the benchmark's own code."""
        span = self._open(name)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack().pop()

    def __enter__(self):
        for (module_name, attr), layer in WRAPPED.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(layer, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def write(self, path):
        """Write every span as one CSV line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("index,run_id,name,start,end,parent,thread\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s.run_id},{s.name},{s.start!r},{s.end!r},{s.parent},{s.thread}\n")


def self_times(spans, start, end) -> dict[str, float]:
    """Wall-clock self time per span name over ``[start, end]``.

    ``spans`` are the spans of one traced sweep.  Within each thread spans
    nest; each instant goes to the innermost open span of every thread that
    has one, split evenly among those threads, and to ``"harness"`` when no
    thread has an open span.  The values sum to ``end - start``.
    """
    # per thread: (time, thread, innermost span name or None) transitions
    by_thread: dict[int, list[tuple[float, int, Span]]] = {}
    for s in spans:
        by_thread.setdefault(s.thread, []).extend(((s.start, 1, s), (s.end, 0, s)))
    transitions = []
    for thread, events in by_thread.items():
        events.sort(key=lambda e: (e[0], e[1]))
        stack = []
        for t, is_start, s in events:
            if is_start:
                stack.append(s)
            else:
                stack.pop()
            transitions.append((t, thread, stack[-1].name if stack else None))
    transitions.sort(key=lambda e: e[0])

    totals = {"harness": 0.0}
    current: dict[int, str] = {}
    last = start
    for t, thread, name in transitions + [(end, None, None)]:
        dt = t - last
        if dt > 0:
            active = list(current.values())
            if active:
                share = dt / len(active)
                for layer in active:
                    totals[layer] = totals.get(layer, 0.0) + share
            else:
                totals["harness"] += dt
            last = t
        if thread is None:
            break
        if name is None:
            current.pop(thread, None)
        else:
            current[thread] = name
    return totals


def layer_metrics(tracer, sweeps, overhead_s) -> dict[str, float]:
    """Per-layer metrics, as means per traced sweep.

    ``sweeps`` lists one ``(run_id, start, end, n_records, n_nan)`` tuple per
    traced sweep; ``overhead_s`` is the traced minus the untraced sweep time.
    """
    n = len(sweeps)
    by_run: dict[object, list[Span]] = {}
    for s in tracer.spans:
        by_run.setdefault(s.run_id, []).append(s)

    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    ci_bits = [0.0] * (MAX_BITS + 1)
    ap_iters, ap_converged = [], 0
    emit_s = 0.0
    for run_id, start, end, _, _ in sweeps:
        spans = by_run.get(run_id, [])
        for layer, value in self_times(spans, start, end).items():
            self_s[layer] = self_s.get(layer, 0.0) + value
        for s in spans:
            calls[s.name] = calls.get(s.name, 0) + 1
            if s.name == "analog.ap":
                ap_iters.append(s.note[0])
                ap_converged += bool(s.note[1])
            elif s.name == "rates.ci_exact":
                ci_bits[s.note] += s.end - s.start
            elif s.name == EMIT_CSV:
                emit_s += s.end - s.start

    # emit_csv is harness work: its span only splits harness time apart
    self_s["harness"] = self_s.get("harness", 0.0) + self_s.pop(EMIT_CSV, 0.0)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls.get(layer, 0) / n
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0) / n
    out["analog.ap.iters_median"] = float(statistics.median(ap_iters)) if ap_iters else 0.0
    out["analog.ap.iters_max"] = float(max(ap_iters, default=0))
    out["analog.ap.iters_total"] = sum(ap_iters) / n
    out["analog.ap.converged_ratio"] = ap_converged / len(ap_iters) if ap_iters else 0.0
    for b in range(1, MAX_BITS + 1):
        out[f"rates.ci_exact.b{b}_s"] = ci_bits[b] / n
    out["harness.self_s"] = self_s["harness"] / n
    out["harness.emit_csv_s"] = emit_s / n
    out["harness.records"] = sum(s[3] for s in sweeps) / n
    out["harness.nan_cells"] = sum(s[4] for s in sweeps) / n
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name, _ in PER_LAYER}
