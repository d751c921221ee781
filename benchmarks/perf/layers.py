"""Per-layer spans for the perf benchmark, recorded from outside ``src/``.

The program under test is not edited.  :func:`installed` replaces the
public entry point of each layer with a wrapper that records one span
(name, start, end, parent) per call into a :class:`Recorder`, and puts
every original attribute back on exit.  Spans stay in memory until the
run ends; :func:`self_times` folds them into per-layer self time, a
span's duration minus the part of it its child spans cover.

Spans are kept on one stack, so the recorder assumes the wrapped calls
happen on one thread, which holds for the serial harness and for the
parent side of the lease scheduler.  Forked scheduler workers inherit
the wrappers, but their spans stay in the worker and are lost: work done
there is measured from outside (see ``workloads.py``).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

#: Name of the span around the whole traced run; its self time is the
#: time no layer span accounts for (``unattributed_s``).
ROOT = "run"

#: ``(module, attribute, span name)`` per wrapped entry point.  A dotted
#: attribute names a method, patched on the class that defines it.
#: ``backward_trace`` is patched where ``run_query_group`` looks it up, and
#: ``to_dnf``/``simplify`` where the backward meta-analysis does.
PATCHES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.bench.harness", "prepare", "harness.prepare"),
    ("repro.bench.harness", "analysis_setups", "harness.client_setup"),
    ("repro.bench.parallel", "evaluate_many", "scheduler"),
    ("repro.core.tracer", "run_query_group", "tracer.loop"),
    ("repro.core.tracer", "TracerClient.counterexamples", "tracer.counterexamples"),
    ("repro.typestate.client", "TypestateClient.run_forward", "forward"),
    ("repro.escape.client", "EscapeClient.run_forward", "forward"),
    ("repro.provenance.client", "ProvenanceClient.run_forward", "forward"),
    ("repro.core.tracer", "backward_trace", "backward"),
    ("repro.core.meta", "to_dnf", "formula.to_dnf"),
    ("repro.core.meta", "simplify", "formula.simplify"),
    ("repro.core.viability", "ViabilityStore.choose_minimum", "synthesis"),
)

#: The per-layer metric holding each span name's summed self time.
SELF_METRICS: Dict[str, str] = {
    ROOT: "unattributed_s",
    "harness.prepare": "harness.prepare_s",
    "harness.client_setup": "harness.client_setup_s",
    "scheduler": "scheduler.self_s",
    "tracer.loop": "tracer.loop.self_s",
    "tracer.counterexamples": "tracer.counterexamples.self_s",
    "forward": "forward.self_s",
    "backward": "backward.self_s",
    "formula.to_dnf": "formula.to_dnf.self_s",
    "formula.simplify": "formula.simplify.self_s",
    "synthesis": "synthesis.self_s",
}

#: Span names whose call counts are per-layer metrics (``<name>.calls``).
COUNTED_CALLS: Tuple[str, ...] = ("forward", "backward", "synthesis")


class Recorder:
    """In-memory span store: one ``[name, start, end, parent]`` list per
    span, ``parent`` being the index of the enclosing span or ``-1``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        #: Cubes returned by the wrapped ``to_dnf`` calls, summed.
        self.cubes = 0
        self._open: List[int] = [-1]

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, self._open[-1]])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)


def _wrap(recorder: Recorder, name: str, function: Callable) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.end(index)
        if name == "formula.to_dnf":
            recorder.cubes += len(result.cubes)
        return result

    return wrapper


def patch_targets() -> List[Tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every entry in
    :data:`PATCHES`, importing the modules."""
    targets = []
    for module_name, path, name in PATCHES:
        owner = importlib.import_module(module_name)
        *outer, attribute = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        targets.append((owner, attribute, name))
    return targets


@contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every layer entry point for the ``with`` block, then restore
    the original attributes, also when the block raises."""
    saved: List[Tuple[object, str, Callable]] = []
    try:
        for owner, attribute, name in patch_targets():
            # Only attributes the owner defines itself are patched, so
            # restoring them never shadows an inherited one.
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(recorder, name, original))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def self_times(spans: List[list]) -> Dict[str, float]:
    """Self time per span name: each span's duration minus the
    durations of its direct children, summed by name."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: Dict[str, float] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - covered[index]
    return totals


def span_metrics(recorder: Recorder) -> Dict[str, float]:
    """The per-layer metrics the spans give: self time per layer, call
    counts, cubes, and ``trace.wall_s``, the duration of the root span
    (the recorder's first)."""
    selfs = self_times(recorder.spans)
    calls: Dict[str, int] = {}
    for name, _start, _end, _parent in recorder.spans:
        calls[name] = calls.get(name, 0) + 1
    metrics: Dict[str, float] = {
        metric: selfs.get(name, 0.0) for name, metric in SELF_METRICS.items()
    }
    metrics.update({f"{name}.calls": calls.get(name, 0) for name in COUNTED_CALLS})
    metrics["formula.to_dnf.cubes"] = recorder.cubes
    _name, start, end, _parent = recorder.spans[0]
    metrics["trace.wall_s"] = end - start
    return metrics


def write_spans(path: str, spans: List[list], workload: str) -> None:
    """Append the spans as JSON lines, times relative to the root's
    start; ``parent`` is the line's ``id`` of the enclosing span."""
    origin = spans[0][1]
    with open(path, "a") as handle:
        for index, (name, start, end, parent) in enumerate(spans):
            record = {
                "workload": workload,
                "id": index,
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent,
            }
            handle.write(json.dumps(record) + "\n")
