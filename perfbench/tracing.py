"""In-memory span tracing around the calls into pooltest's public functions.

Each wrapper is installed at the name its caller looks the function up by
(``gen_rid`` as imported into ``pooltest.cli`` and ``pooltest.simulate``,
``eliminate`` as a global of ``pooltest.decode``, ...), so no program file
changes. A wrapper records one span -- name, start, end, parent span,
instance id and the exception it raised, if any -- and adds counts at the
same boundary. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections import Counter
from typing import Callable, NamedTuple

from pooltest import cli, core, decode, design, randgen, simulate, verify
from pooltest.decode import DECODED

LAYERS = ("cli", "design", "randgen", "core", "decode", "verify", "simulate")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the root
    instance: object  # "setup" or the operation index
    error: str | None  # class name of the exception the call raised


class Tracer:
    """Wraps functions in place; every call through a wrapper becomes a span."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.instance: object = "setup"
        self.planted: tuple[int, ...] | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.instance, error)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> None:
        for module, attr, name, count in targets:
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# counts recorded at the wrapped boundaries
# ---------------------------------------------------------------------------

def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_matrix(tracer, args, kwargs, matrix) -> None:
    tracer.counts["randgen.rows"] += matrix.m
    tracer.counts["randgen.cells"] += matrix.m * matrix.n


def _count_gtm1_write(tracer, args, kwargs, result) -> None:
    tracer.counts["core.gtm1_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_gtm1_read(tracer, args, kwargs, result) -> None:
    tracer.counts["core.gtm1_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_decoded(tracer, args, kwargs, outcome) -> None:
    if outcome.status == DECODED and tracer.planted is not None:
        tracer.counts["decode.exact" if outcome.items == tracer.planted else "decode.inexact"] += 1


def _count_finish(tracer, args, kwargs, outcome) -> None:
    matrix = _arg(args, kwargs, 0, "matrix")
    residue = matrix.n - outcome.eliminated_count
    tracer.counts["decode.residual_sum"] += residue
    if outcome.exhaustive_candidates:
        tracer.counts["decode.finish_runs"] += 1
        tracer.counts["decode.subset_bound"] += math.comb(residue, _arg(args, kwargs, 2, "d"))
    _count_decoded(tracer, args, kwargs, outcome)


def _count_trials(tracer, args, kwargs, report) -> None:
    tracer.counts["simulate.trials"] += report.trials


def _note_planted(tracer, args, kwargs, instance) -> None:
    tracer.planted = instance[1]


def targets() -> list[tuple[object, str, str, Callable | None]]:
    """(module, attribute, span name, counter) for every wrapped lookup site.

    These are the sites the benchmark's workloads reach; the CLI's verify
    and simulate commands are not among them.
    """
    return [
        (cli, "main", "cli.main", None),
        (design, "make_design", "design.make_design", None),
        *[(m, "gen_rid", "randgen.gen_rid", _count_matrix) for m in (randgen, cli, simulate)],
        (cli, "write_gtm1", "core.write_gtm1", _count_gtm1_write),
        (cli, "read_gtm1", "core.read_gtm1", _count_gtm1_read),
        *[(m, "answer_vector", "core.answer_vector", None) for m in (core, cli, simulate, verify)],
        (decode, "eliminate", "decode.eliminate", None),
        *[(m, "decode_semidisjunct", "decode.decode_semidisjunct", _count_finish)
          for m in (decode, cli, simulate)],
        (simulate, "decode_separable_bruteforce", "decode.bruteforce", _count_decoded),
        (verify, "separability_witness", "verify.separability_witness", None),
        *[(m, "non_disjunct_items", "verify.non_disjunct_items", None) for m in (verify, simulate)],
        (simulate, "run_trials", "simulate.run_trials", _count_trials),
        (simulate, "estimate_property_rate", "simulate.estimate_property_rate", _count_trials),
        (simulate, "run_single_trial", "simulate.run_single_trial", None),
        (simulate, "property_trial", "simulate.property_trial", None),
        (simulate, "trial_instance", "simulate.trial_instance", _note_planted),
    ]


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [s.end - s.start - covered(s.start, s.end, kids) for s, kids in zip(spans, children)]


def busy_time(spans: list[Span], name: str) -> float:
    """Total duration of ``name`` spans, not counting one nested in another."""
    total = 0.0
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name != name:
            parent = spans[parent].parent
        if parent < 0:
            total += span.end - span.start
    return total


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, ops: int, traced_wall: float, overhead: float) -> dict:
    """Every per-layer metric, keyed by name; see PER_LAYER for units.

    ``traced_wall`` is the traced run's set-up plus operation time; ``ops``
    counts its operations and ``overhead`` is its cost share over untraced.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    self_by_name: Counter = Counter()
    for span, own in zip(spans, selfs):
        self_by_name[span.name] += own
    calls = Counter(span.name for span in spans)
    busy = Counter({name: busy_time(spans, name) for name in calls})
    counts = tracer.counts

    def layer_self(layer: str) -> float:
        return sum(v for k, v in self_by_name.items() if k.split(".", 1)[0] == layer)

    randgen_busy = busy["randgen.gen_rid"]
    root_time = sum(s.end - s.start for s in spans if s.parent < 0)
    gtm1_busy = busy["core.write_gtm1"] + busy["core.read_gtm1"]
    metrics = {f"{layer}.self_s": layer_self(layer) for layer in LAYERS}
    metrics.update({
        "design.make_design.busy_s": busy["design.make_design"],
        "randgen.busy_s": randgen_busy,
        "randgen.cells": counts["randgen.cells"],
        "randgen.rows": counts["randgen.rows"],
        "randgen.ns_per_cell": 1e9 * _ratio(randgen_busy, counts["randgen.cells"]),
        "randgen.us_per_row": 1e6 * _ratio(randgen_busy, counts["randgen.rows"]),
        "core.write_gtm1.busy_s": busy["core.write_gtm1"],
        "core.read_gtm1.busy_s": busy["core.read_gtm1"],
        "core.gtm1_bytes": counts["core.gtm1_bytes"],
        "core.gtm1_mb_per_s": _ratio(counts["core.gtm1_bytes"] / 1e6, gtm1_busy),
        "core.answer_vector.busy_s": busy["core.answer_vector"],
        "core.answer_vector.calls": calls["core.answer_vector"],
        "decode.eliminate.busy_s": busy["decode.eliminate"],
        "decode.eliminate.calls": calls["decode.eliminate"],
        "decode.finish.self_s": self_by_name["decode.decode_semidisjunct"],
        "decode.finish_runs": counts["decode.finish_runs"],
        "decode.residual_sum": counts["decode.residual_sum"],
        "decode.subset_bound": counts["decode.subset_bound"],
        "decode.refusals": sum(
            1 for s in spans
            if s.name.startswith("decode.") and s.error == "BudgetExceededError"
        ),
        "decode.exact": counts["decode.exact"],
        "decode.inexact": counts["decode.inexact"],
        "decode.bruteforce.busy_s": busy["decode.bruteforce"],
        "verify.separability_witness.busy_s": busy["verify.separability_witness"],
        "verify.non_disjunct_items.busy_s": busy["verify.non_disjunct_items"],
        "simulate.trial_instance.self_s": self_by_name["simulate.trial_instance"],
        "simulate.run_single_trial.self_s": self_by_name["simulate.run_single_trial"],
        "simulate.trials": counts["simulate.trials"],
        "trace.ops": ops,
        "trace.overhead_share": overhead,
        "trace.unattributed_share": _ratio(traced_wall - root_time, traced_wall),
    })
    return metrics


# (name, unit, better) of every per-layer metric, in the order they print.
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("design.self_s", "s", "lower"),
    ("randgen.self_s", "s", "lower"),
    ("core.self_s", "s", "lower"),
    ("decode.self_s", "s", "lower"),
    ("verify.self_s", "s", "lower"),
    ("simulate.self_s", "s", "lower"),
    ("design.make_design.busy_s", "s", "lower"),
    ("randgen.busy_s", "s", "lower"),
    ("randgen.cells", "count", "lower"),
    ("randgen.rows", "count", "lower"),
    ("randgen.ns_per_cell", "ns", "lower"),
    ("randgen.us_per_row", "us", "lower"),
    ("core.write_gtm1.busy_s", "s", "lower"),
    ("core.read_gtm1.busy_s", "s", "lower"),
    ("core.gtm1_bytes", "bytes", "lower"),
    ("core.gtm1_mb_per_s", "MB/s", "higher"),
    ("core.answer_vector.busy_s", "s", "lower"),
    ("core.answer_vector.calls", "count", "lower"),
    ("decode.eliminate.busy_s", "s", "lower"),
    ("decode.eliminate.calls", "count", "lower"),
    ("decode.finish.self_s", "s", "lower"),
    ("decode.finish_runs", "count", "lower"),
    ("decode.residual_sum", "count", "lower"),
    ("decode.subset_bound", "count", "lower"),
    ("decode.refusals", "count", "lower"),
    ("decode.exact", "count", "higher"),
    ("decode.inexact", "count", "lower"),
    ("decode.bruteforce.busy_s", "s", "lower"),
    ("verify.separability_witness.busy_s", "s", "lower"),
    ("verify.non_disjunct_items.busy_s", "s", "lower"),
    ("simulate.trial_instance.self_s", "s", "lower"),
    ("simulate.run_single_trial.self_s", "s", "lower"),
    ("simulate.trials", "count", "higher"),
    ("trace.ops", "count", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
]
