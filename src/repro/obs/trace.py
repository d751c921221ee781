"""Span/event tracing runtime for the TRACER search loop.

The instrumentation points in :mod:`repro.core.tracer` (and anywhere
else) call :func:`span` and :func:`event` unconditionally; when no
sink is installed both are near-free no-ops (one global read plus a
singleton context manager); what an installed sink costs is not
measured yet.  Installing a sink via
:func:`tracing` turns the same call sites into a structured event
stream (see :mod:`repro.obs.events` for the schema):

* a *span* is a named, timed interval with a parent (spans nest
  lexically via ``with``); phase-carrying spans (``phase`` in
  ``{"forward", "backward", "synthesis", "replay"}``) are what
  ``repro trace summarize`` aggregates into the per-phase wall-clock
  breakdown behind the paper's Table 3 timing columns;
* an *event* is a point-in-time record attached to the current span.

The runtime is deliberately process-local and not thread-safe: the
evaluation parallelises across *processes* (``repro.bench.parallel``),
each of which owns its own context, and worker streams are merged
deterministically afterwards (:func:`repro.obs.events.merge_streams`).

Two serving-layer additions ride the same ambient-state design:

* **Trace ids** — a context may carry a ``trace_id`` (schema v2);
  every record emitted while it is set gains a ``"trace"`` key.  The
  daemon wraps each request in :func:`trace_scope` with the request id,
  so all spans/events of one request share one trace id end to end.
* **Phase timing without a sink** — :func:`phase_timing` installs a
  :class:`PhaseTimer` that accumulates exclusive per-phase wall-clock
  from the same ``span(..., phase=...)`` call sites, whether or not a
  sink is installed.  The no-op fast path stays near-free: an
  unphased ``span()`` with no sink still reads a single module global.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterator, List, Optional

from repro.obs.events import (
    EVENT,
    METRIC,
    SPAN_END,
    SPAN_START,
    TRACE_HEADER,
    header as _header,
)
from repro.obs.sinks import Sink

__all__ = [
    "PhaseTimer",
    "TraceContext",
    "active",
    "current",
    "current_phase_timer",
    "detail_enabled",
    "event",
    "metric",
    "phase_timing",
    "span",
    "trace_scope",
    "tracing",
]


class _NoopSpan:
    """Shared do-nothing span returned while tracing is inactive."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs) -> None:
        """Discard end-time attributes (tracing is off)."""


_NOOP_SPAN = _NoopSpan()


class _Span:
    """A live span: emits ``span_start`` on enter, ``span_end`` on exit."""

    __slots__ = ("_ctx", "_id", "_end_attrs")

    def __init__(self, ctx: "TraceContext", span_id: int, end_attrs: dict):
        self._ctx = ctx
        self._id = span_id
        self._end_attrs = end_attrs

    def __enter__(self):
        return self

    def set(self, **attrs) -> None:
        """Attach attributes to the ``span_end`` record (values that
        are only known once the spanned work finishes)."""
        self._end_attrs.update(attrs)

    def __exit__(self, *exc):
        self._ctx._end_span(self._id, self._end_attrs)
        return False


class TraceContext:
    """One tracing session: a sink, a span stack, and an id counter."""

    __slots__ = ("sink", "detail", "clock", "trace_id", "_next_id", "_stack")

    def __init__(
        self,
        sink: Sink,
        detail: bool = False,
        clock: Callable[[], float] = time.perf_counter,
        trace_id: Optional[str] = None,
    ):
        self.sink = sink
        self.detail = detail
        self.clock = clock
        #: Stamped as ``"trace"`` on every emitted record while set —
        #: the schema v2 correlation key (see :func:`trace_scope`).
        self.trace_id = trace_id
        self._next_id = 0
        self._stack: List[int] = []

    def open(self) -> None:
        self.sink.emit(_header())

    def close(self) -> None:
        self.sink.close()

    # -- emission ----------------------------------------------------------

    def start_span(self, name: str, phase: Optional[str], attrs: dict) -> _Span:
        span_id = self._next_id
        self._next_id += 1
        record: Dict[str, object] = {
            "type": SPAN_START,
            "id": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "t": self.clock(),
        }
        if phase is not None:
            record["phase"] = phase
        if attrs:
            record["attrs"] = attrs
        if self.trace_id is not None:
            record["trace"] = self.trace_id
        self._stack.append(span_id)
        self.sink.emit(record)
        return _Span(self, span_id, {})

    def _end_span(self, span_id: int, attrs: dict) -> None:
        # Close any spans left open below this one (a span abandoned by
        # an exception) so the stream stays well-nested.
        while self._stack and self._stack[-1] != span_id:
            dangling = self._stack.pop()
            closer: Dict[str, object] = {
                "type": SPAN_END, "id": dangling, "t": self.clock(),
            }
            if self.trace_id is not None:
                closer["trace"] = self.trace_id
            self.sink.emit(closer)
        if self._stack:
            self._stack.pop()
        record: Dict[str, object] = {
            "type": SPAN_END,
            "id": span_id,
            "t": self.clock(),
        }
        if attrs:
            record["attrs"] = attrs
        if self.trace_id is not None:
            record["trace"] = self.trace_id
        self.sink.emit(record)

    def emit_event(self, name: str, attrs: dict) -> None:
        record: Dict[str, object] = {
            "type": EVENT,
            "name": name,
            "span": self._stack[-1] if self._stack else None,
            "t": self.clock(),
        }
        if attrs:
            record["attrs"] = attrs
        if self.trace_id is not None:
            record["trace"] = self.trace_id
        self.sink.emit(record)

    def emit_metric(self, name: str, hits: int, misses: int, **extra) -> None:
        record: Dict[str, object] = {
            "type": METRIC,
            "name": name,
            "hits": hits,
            "misses": misses,
            "t": self.clock(),
        }
        record.update(extra)
        if self.trace_id is not None:
            record["trace"] = self.trace_id
        self.sink.emit(record)

    def ingest(self, records) -> None:
        """Replay externally-recorded records (e.g. a merged parallel
        worker stream) into this context's stream.

        Span ids are re-allocated from this context's counter so they
        can never collide with ids this context assigns before or
        after; headers are dropped (this stream already has one).
        Timestamps are kept verbatim — they remain comparable only
        within their original stream, which per-span durations are.
        """
        remap: Dict[int, int] = {}
        for record in records:
            if record.get("type") == TRACE_HEADER:
                continue
            record = dict(record)
            span_id = record.get("id")
            if isinstance(span_id, int):
                if span_id not in remap:
                    remap[span_id] = self._next_id
                    self._next_id += 1
                record["id"] = remap[span_id]
            for key in ("parent", "span"):
                ref = record.get(key)
                if isinstance(ref, int) and ref in remap:
                    record[key] = remap[ref]
            self.sink.emit(record)


class _PhaseSpan:
    """A live phase-timing interval (no sink involved)."""

    __slots__ = ("_timer", "_entry")

    def __init__(self, timer: "PhaseTimer", entry: list):
        self._timer = timer
        self._entry = entry

    def __enter__(self):
        return self

    def set(self, **attrs) -> None:
        """Discard attributes (phase timing keeps durations only)."""

    def __exit__(self, *exc):
        self._timer._end(self._entry)
        return False


class PhaseTimer:
    """Accumulates *exclusive* wall-clock per phase from the same
    ``span(..., phase=...)`` call sites the tracer instruments — no
    sink required.  Exclusive means a phased span is charged its
    duration minus its phased children, matching the attribution of
    :func:`repro.obs.summarize.phase_durations`."""

    __slots__ = ("totals", "clock", "_stack")

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.totals: Dict[str, float] = {}
        self.clock = clock
        self._stack: List[list] = []  # [phase, start_t, child_seconds]

    def start(self, phase: str) -> _PhaseSpan:
        entry = [phase, self.clock(), 0.0]
        self._stack.append(entry)
        return _PhaseSpan(self, entry)

    def _end(self, entry: list) -> None:
        now = self.clock()
        # Pop down to (and including) ``entry`` so intervals abandoned
        # by an exception still get charged.
        while self._stack:
            top = self._stack.pop()
            duration = now - top[1]
            self.totals[top[0]] = self.totals.get(top[0], 0.0) + max(
                0.0, duration - top[2]
            )
            if self._stack:
                self._stack[-1][2] += duration
            if top is entry:
                break


class _DualSpan:
    """A traced span that also feeds the installed phase timer."""

    __slots__ = ("_traced", "_timed")

    def __init__(self, traced: _Span, timed: _PhaseSpan):
        self._traced = traced
        self._timed = timed

    def __enter__(self):
        return self

    def set(self, **attrs) -> None:
        self._traced.set(**attrs)

    def __exit__(self, *exc):
        self._timed.__exit__(*exc)
        return self._traced.__exit__(*exc)


#: The installed context, or ``None`` (tracing off — the default).
_CURRENT: Optional[TraceContext] = None

#: The installed phase timer, or ``None`` (the default).
_PHASES: Optional[PhaseTimer] = None


def current() -> Optional[TraceContext]:
    """The installed :class:`TraceContext`, or ``None``."""
    return _CURRENT


def active() -> bool:
    """Whether a sink is installed (anything will actually be emitted)."""
    return _CURRENT is not None


def detail_enabled() -> bool:
    """Whether the installed context asks for *detail* events — the
    heavyweight per-iteration payloads (rendered formulas, forward
    states) that make post-hoc transcripts possible but are too
    expensive for always-on production traces."""
    ctx = _CURRENT
    return ctx is not None and ctx.detail


def current_phase_timer() -> Optional[PhaseTimer]:
    """The installed :class:`PhaseTimer`, or ``None``."""
    return _PHASES


def span(name: str, phase: Optional[str] = None, **attrs):
    """Open a span; use as ``with span("forward", phase="forward"):``.

    Returns a no-op singleton when tracing is inactive, so the call is
    safe (and cheap) on hot paths.  Phased spans additionally feed the
    installed :class:`PhaseTimer` (if any), sink or no sink."""
    ctx = _CURRENT
    if phase is None:
        if ctx is None:
            return _NOOP_SPAN
        return ctx.start_span(name, phase, attrs)
    timer = _PHASES
    if ctx is None:
        if timer is None:
            return _NOOP_SPAN
        return timer.start(phase)
    traced = ctx.start_span(name, phase, attrs)
    if timer is None:
        return traced
    return _DualSpan(traced, timer.start(phase))


def event(name: str, **attrs) -> None:
    """Emit a point event attached to the current span (no-op when
    tracing is inactive)."""
    ctx = _CURRENT
    if ctx is not None:
        ctx.emit_event(name, attrs)


def metric(name: str, hits: int, misses: int, **extra) -> None:
    """Emit one cache-counter snapshot record (no-op when tracing is
    inactive)."""
    ctx = _CURRENT
    if ctx is not None:
        ctx.emit_metric(name, hits, misses, **extra)


class tracing:
    """Install ``sink`` for the duration of a ``with`` block.

    Nested installations stack: the inner context temporarily replaces
    the outer one (this is what lets ``narrate`` capture its own event
    stream even inside an already-traced run)."""

    def __init__(
        self,
        sink: Sink,
        detail: bool = False,
        clock: Callable[[], float] = time.perf_counter,
        trace_id: Optional[str] = None,
    ):
        self._context = TraceContext(
            sink, detail=detail, clock=clock, trace_id=trace_id
        )
        self._previous: Optional[TraceContext] = None

    def __enter__(self) -> TraceContext:
        global _CURRENT
        self._previous = _CURRENT
        _CURRENT = self._context
        self._context.open()
        return self._context

    def __exit__(self, *exc) -> bool:
        global _CURRENT
        _CURRENT = self._previous
        self._context.close()
        return False


class trace_scope:
    """Set the ambient context's trace id for a ``with`` block.

    All records emitted inside the block carry ``"trace": trace_id``;
    the previous id (usually ``None``) is restored on exit.  A no-op
    when tracing is inactive — the scope is safe to enter
    unconditionally, which is how the daemon wraps every request."""

    def __init__(self, trace_id: Optional[str]):
        self.trace_id = trace_id
        self._previous: Optional[str] = None
        self._context: Optional[TraceContext] = None

    def __enter__(self) -> "trace_scope":
        self._context = _CURRENT
        if self._context is not None:
            self._previous = self._context.trace_id
            self._context.trace_id = self.trace_id
        return self

    def __exit__(self, *exc) -> bool:
        if self._context is not None:
            self._context.trace_id = self._previous
        return False


class phase_timing:
    """Install a :class:`PhaseTimer` for a ``with`` block.

    ``with phase_timing() as timer: ...`` — afterwards
    ``timer.totals`` maps each phase to its exclusive wall-clock.
    Nested installations stack (the inner timer shadows the outer one
    for its duration), mirroring :func:`tracing`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._timer = PhaseTimer(clock=clock)
        self._previous: Optional[PhaseTimer] = None

    def __enter__(self) -> PhaseTimer:
        global _PHASES
        self._previous = _PHASES
        _PHASES = self._timer
        return self._timer

    def __exit__(self, *exc) -> bool:
        global _PHASES
        _PHASES = self._previous
        return False
