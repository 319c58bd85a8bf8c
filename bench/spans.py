"""In-memory spans around the calls into each hensim layer.

Spans are recorded only by wrappers that this file installs over the names
hensim's own callers look up (module attributes), so the program itself is
unchanged. A span started on a pool thread whose own stack is empty takes the
innermost open span of the main thread as its parent: the main thread is the one
blocked in ``sample_ensemble`` while the pool runs its chunks.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import threading
import time

import numpy as np


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "attr")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.attr = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals, overlaps counted once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span, children) -> float:
    """Duration of ``span`` minus the union of its children's intervals clipped to it.

    Children that overlap in time (pool threads) are not subtracted twice.
    """
    clipped = [(max(c.start, span.start), min(c.end, span.end)) for c in children]
    return span.duration - union_length([iv for iv in clipped if iv[1] > iv[0]])


class Tracer:
    """Collects spans from the main thread and from threads it starts."""

    def __init__(self):
        self.spans: list[Span] = []
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._local = threading.local()

    def _stack(self, ident):
        if ident == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attr=None):
        """``fn`` recording one span per call.

        ``attr(args, result)`` fills span.attr; ``attr="cpu"`` stores the process
        CPU time (all threads) spent during the call instead.
        """
        cpu = attr == "cpu"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ident = threading.get_ident()
            stack = self._stack(ident)
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = Span(name, parent, ident)
            stack.append(span)
            cpu0 = time.process_time() if cpu else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if cpu:
                span.attr = time.process_time() - cpu0
            elif attr is not None:
                span.attr = attr(args, result)
            return result

        return traced

    def children(self):
        """{span: [its direct children]} for every span that has any."""
        out: dict[Span, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                out.setdefault(span.parent, []).append(span)
        return out


def _elements(args, result):
    arrays = [a for a in args if isinstance(a, (np.ndarray, float, int))]
    return int(np.broadcast(*arrays).size) if arrays else 0


def _points(args, result):
    return int(np.size(args[0]))


def _no_tc(args, result):
    return getattr(result, "t_c", 0.0) is None


# (module, attribute, span name, attr) for Tracer.wrap. Names that a later
# version of hensim no longer has are skipped, and their metrics read 0.
PATCH_POINTS = [
    ("hensim.cli", "sample_ensemble", "ensemble.sample_ensemble", "cpu"),
    ("hensim.entanglement", "sample_ensemble", "ensemble.sample_ensemble", "cpu"),
    ("hensim.validation", "sample_ensemble", "ensemble.sample_ensemble", "cpu"),
    ("hensim.ensemble", "seed_stream", "ensemble.seed_stream", None),
    ("hensim.ensemble", "evolve_single_realization", "ensemble.evolve", _elements),
    ("hensim.ensemble", "evolve_two_realization", "ensemble.evolve", _elements),
    ("hensim.cli", "single_trajectory", "analytic.single_trajectory", None),
    ("hensim.entanglement", "avg_xstate_two", "analytic.avg_xstate_two", _points),
    ("hensim.validation", "avg_xstate_two", "analytic.avg_xstate_two", _points),
    ("hensim.cli", "find_tc", "entanglement.find_tc", _no_tc),
    ("hensim.cli", "concurrence_trajectory", "entanglement.concurrence_trajectory", None),
    ("hensim.validation", "concurrence_general", "entanglement.concurrence_general", None),
    ("hensim.cli", "emit_trajectory", "tables.write", None),
    ("hensim.cli", "write_csv", "tables.write", None),
    ("hensim.cli", "write_json", "tables.write", None),
    ("hensim.validation", "matrix_exponential", "linalg.matrix_exponential", None),
    ("hensim.validation", "partial_trace", "linalg.partial_trace", None),
]


def _validation_checks():
    """(attribute, span name) for each check_* function hensim.validation defines."""
    mod = importlib.import_module("hensim.validation")
    return [(attr, "validation." + attr[len("check_"):])
            for attr in sorted(vars(mod)) if attr.startswith("check_") and callable(getattr(mod, attr))]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install span wrappers over the patch points; restore the originals on exit.

    Yields the list of "module.attribute" names that were wrapped.
    """
    points = list(PATCH_POINTS)
    points += [("hensim.validation", attr, name, None) for attr, name in _validation_checks()]
    saved = []
    try:
        for mod_name, attr, name, extra in points:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            saved.append((mod, attr, fn))
            setattr(mod, attr, tracer.wrap(name, fn, extra))
        yield [f"{mod.__name__}.{attr}" for mod, attr, _ in saved]
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def write_spans(path, runs) -> None:
    """Write spans as CSV: run, id, parent id, thread, name, start, end (seconds)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "id", "parent", "thread", "name", "start", "end"])
        for run, spans in enumerate(runs):
            ids = {span: i for i, span in enumerate(spans)}
            for span, i in ids.items():
                parent = ids.get(span.parent, "")
                writer.writerow([run, i, parent, span.thread, span.name,
                                 f"{span.start:.9f}", f"{span.end:.9f}"])


VALIDATION_CHECKS = (
    "propagator_oracle",
    "single_elements_oracle",
    "two_qubit_oracle",
    "concurrence_dual_path",
    "specializations",
    "mc_convergence",
    "mc_scaling",
)

# Every per-layer metric with its unit, in report order. Those not derived from
# spans (cpu_per_wall of the process, pool_speedup, tables.bytes, trace
# overhead) are measured by the child process around whole invocations.
PER_LAYER = {
    "ensemble.sample_ensemble.calls": "count",
    "ensemble.sample_ensemble.s": "s",
    "ensemble.sample_ensemble.self_s": "s",
    "ensemble.seed_stream.calls": "count",
    "ensemble.seed_stream.busy_s": "s",
    "ensemble.evolve.calls": "count",
    "ensemble.evolve.busy_s": "s",
    "ensemble.evolve.elements": "count",
    "ensemble.cpu_per_wall": "ratio",
    "ensemble.pool_speedup": "ratio",
    "analytic.avg_xstate_two.calls": "count",
    "analytic.avg_xstate_two.points": "count",
    "analytic.avg_xstate_two.s": "s",
    "analytic.single_trajectory.s": "s",
    "entanglement.find_tc.calls": "count",
    "entanglement.find_tc.s": "s",
    "entanglement.find_tc.self_s": "s",
    "entanglement.find_tc.none": "count",
    "entanglement.gap_evals_per_cell": "count",
    "entanglement.concurrence_trajectory.s": "s",
    "entanglement.concurrence_general.calls": "count",
    "entanglement.concurrence_general.s": "s",
    "tables.write.s": "s",
    "tables.bytes": "bytes",
    "linalg.matrix_exponential.calls": "count",
    "linalg.matrix_exponential.s": "s",
    "linalg.partial_trace.calls": "count",
    "linalg.partial_trace.s": "s",
    **{f"validation.{name}.s": "s" for name in VALIDATION_CHECKS},
    "cli.main.s": "s",
    "cli.self_s": "s",
    "proc.cpu_s": "s",
    "proc.cpu_per_wall": "ratio",
    "trace.overhead_s": "s",
}


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced invocation, derived from its spans."""
    kids = tracer.children()
    by_name: dict[str, list[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(span.duration for span in by_name.get(name, ()))

    def self_total(name):
        return sum(self_time(span, kids.get(span, ())) for span in by_name.get(name, ()))

    ens = by_name.get("ensemble.sample_ensemble", [])
    ens_wall = total("ensemble.sample_ensemble")
    tcs = by_name.get("entanglement.find_tc", [])
    gap_evals = sum(1 for span in tcs for child in kids.get(span, ())
                    if child.name == "analytic.avg_xstate_two")
    out = {
        "ensemble.sample_ensemble.calls": calls("ensemble.sample_ensemble"),
        "ensemble.sample_ensemble.s": ens_wall,
        "ensemble.sample_ensemble.self_s": self_total("ensemble.sample_ensemble"),
        "ensemble.seed_stream.calls": calls("ensemble.seed_stream"),
        "ensemble.seed_stream.busy_s": total("ensemble.seed_stream"),
        "ensemble.evolve.calls": calls("ensemble.evolve"),
        "ensemble.evolve.busy_s": total("ensemble.evolve"),
        "ensemble.evolve.elements": sum(s.attr for s in by_name.get("ensemble.evolve", ())),
        "ensemble.cpu_per_wall": sum(s.attr for s in ens) / ens_wall if ens_wall > 0 else 0.0,
        "analytic.avg_xstate_two.calls": calls("analytic.avg_xstate_two"),
        "analytic.avg_xstate_two.points": sum(s.attr for s in by_name.get("analytic.avg_xstate_two", ())),
        "analytic.avg_xstate_two.s": total("analytic.avg_xstate_two"),
        "analytic.single_trajectory.s": total("analytic.single_trajectory"),
        "entanglement.find_tc.calls": len(tcs),
        "entanglement.find_tc.s": total("entanglement.find_tc"),
        "entanglement.find_tc.self_s": self_total("entanglement.find_tc"),
        "entanglement.find_tc.none": sum(1 for s in tcs if s.attr),
        "entanglement.gap_evals_per_cell": gap_evals / len(tcs) if tcs else 0.0,
        "entanglement.concurrence_trajectory.s": total("entanglement.concurrence_trajectory"),
        "entanglement.concurrence_general.calls": calls("entanglement.concurrence_general"),
        "entanglement.concurrence_general.s": total("entanglement.concurrence_general"),
        "tables.write.s": total("tables.write"),
        "linalg.matrix_exponential.calls": calls("linalg.matrix_exponential"),
        "linalg.matrix_exponential.s": total("linalg.matrix_exponential"),
        "linalg.partial_trace.calls": calls("linalg.partial_trace"),
        "linalg.partial_trace.s": total("linalg.partial_trace"),
        "cli.main.s": total("cli.main"),
        "cli.self_s": self_total("cli.main"),
    }
    for name in VALIDATION_CHECKS:
        out[f"validation.{name}.s"] = total(f"validation.{name}")
    return out
