"""The versioned trace-event schema, validation, and stream merging.

A trace is a sequence of flat JSON records (one per line in a ``.jsonl``
file).  Record types:

``trace_header``
    First record of every stream: ``{"type": "trace_header",
    "schema": SCHEMA_VERSION, "producer": "repro"}``.  Consumers must
    reject streams whose major schema version they do not know;
    :func:`validate_events` accepts every version in
    :data:`SUPPORTED_SCHEMA_VERSIONS` (version 1 streams predate trace
    ids and remain valid).

Schema version 2 adds an optional ``"trace"`` key — a string trace id
— to every non-header record.  All records emitted while one daemon
request (or one parallel work unit) is active carry the same trace id,
so spans from one logical request can be correlated across merged
streams and across the client/server boundary (the daemon uses the
request's ``request_id`` as the trace id).

``span_start`` / ``span_end``
    A timed interval: ``{"type": "span_start", "id": N,
    "parent": M | null, "name": str, "t": seconds, "phase"?: str,
    "attrs"?: {...}}`` and ``{"type": "span_end", "id": N,
    "t": seconds, "attrs"?: {...}}``.  ``t`` is a monotonic clock
    reading — only differences within one stream are meaningful.
    ``phase`` classifies the span for the per-phase breakdown; the
    phases emitted by the TRACER driver are ``"synthesis"`` (picking
    the next abstraction by MinCostSAT), ``"forward"`` (the forward
    fixpoint and counterexample extraction), ``"backward"`` (the
    backward meta-analysis), and ``"replay"`` (re-applying a recorded
    round from a journal, the knowledge store or the clause bus).
    Traces written before ``"replay"`` existed book ``replay_round``
    spans as ``"synthesis"``; they still validate.

``event``
    A point record attached to the enclosing span: ``{"type": "event",
    "name": str, "span": N | null, "t": seconds, "attrs"?: {...}}``.
    Notable names: ``query_resolved`` (one per query, carrying the
    fields of its :class:`~repro.core.stats.QueryRecord`) and
    ``iteration_detail`` (detail mode only; the payload transcripts
    are rebuilt from).  The robustness layer adds three more:
    ``budget_exceeded`` (a cooperative deadline/step budget tripped;
    ``phase`` says where, ``reason`` why), ``degraded`` (the solver
    kept going in a reduced mode — a beam-width retreat after a
    formula explosion, a contained client error under lenient mode,
    or permanently failed work units), and ``fault_injected`` (a
    :mod:`repro.robust.faults` rule fired; carries ``site``,
    ``action``, ``hit``).  The certification layer adds three more:
    ``certificate_emitted`` (the driver packaged a verdict certificate;
    carries ``query``, ``verdict``, ``clauses``, ``witnesses``),
    ``certificate_checked`` (the independent checker finished one
    certificate; carries ``query``, ``verdict``, ``ok``, ``problems``),
    and ``journal_replayed`` (a resumed search consumed one recorded
    CEGAR round instead of re-running it; carries ``round``,
    ``queries``, ``outcome``).  The serving layer adds four more:
    ``session_opened`` (a resident session first saw a program digest,
    or the daemon started listening), ``warm_start`` (a search was
    seeded from prior knowledge; ``mode`` is ``"replay"`` or
    ``"clauses"``), ``store_hit`` (a knowledge-store lookup answered;
    ``tier`` is ``"replay"`` or ``"clauses"``), and ``request_served``
    (the daemon finished one request; carries ``op``, ``ok``, ``mode``,
    ``seconds``).  The telemetry layer adds three more:
    ``request_received`` (the daemon dequeued one request; carries
    ``request_id``, ``op``, ``queue_seconds``), ``request_finished``
    (the full per-request summary: ``request_id``, ``op``, ``ok``,
    ``mode``, ``seconds``, ``queue_seconds``, per-phase ``phases``),
    and ``metrics_scraped`` (the ``metrics`` op or the ``--metrics-out``
    writer rendered the registry; carries ``bytes``).  The hardened
    serving layer adds four more: ``request_shed`` (admission control
    refused a request; ``reason`` is ``"overloaded"``,
    ``"deadline_exceeded"``, or ``"oversized"``), ``request_retried``
    (a retried request id was answered from the dedup ring or coalesced
    onto the in-flight execution; ``replay`` says which),
    ``worker_respawned`` (a supervised pool worker was restarted after
    a crash or hang; carries ``reason``, ``backoff_seconds``,
    ``consecutive_failures``), and ``store_compacted`` (the knowledge
    store was rewritten latest-wins; carries ``entries_before``,
    ``entries_after``, ``dropped``, byte counts).  Event names are
    open — new ones carry no schema
    change — but every name the codebase emits is registered in
    :data:`KNOWN_EVENT_NAMES` so tools (and tests) can spot typos.

``metric``
    A named counter snapshot: ``{"type": "metric", "name": str,
    "hits": int, "misses": int, "t": seconds}`` — emitted at the end
    of a run from the :class:`~repro.obs.metrics.MetricsRegistry`.

Streams recorded by parallel workers are combined with
:func:`merge_streams`, which keeps one header, remaps span ids into
disjoint ranges, and tags every record with its worker stream index —
the merge is a pure function of the input streams and their order, so
parallel traces are deterministic given the work-unit order.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

SCHEMA_VERSION = 2

#: Versions :func:`validate_events` accepts.  Version 1 streams (no
#: trace ids) remain readable by every consumer.
SUPPORTED_SCHEMA_VERSIONS = frozenset({1, 2})

TRACE_HEADER = "trace_header"
SPAN_START = "span_start"
SPAN_END = "span_end"
EVENT = "event"
METRIC = "metric"

RECORD_TYPES = frozenset({TRACE_HEADER, SPAN_START, SPAN_END, EVENT, METRIC})

PHASES = ("forward", "backward", "synthesis", "replay")

#: Every event name the codebase emits (``obs.event(name, ...)``).
#: The schema leaves names open, so an unknown name is not a validation
#: error — this registry exists so consumers can enumerate what a
#: trace may contain and so the test suite catches emit-site typos.
KNOWN_EVENT_NAMES = frozenset({
    # the TRACER driver
    "query_resolved",
    "iteration_detail",
    # the robustness layer (docs/ROBUSTNESS.md)
    "budget_exceeded",
    "degraded",
    "fault_injected",
    # certification and the search journal
    "certificate_emitted",
    "certificate_checked",
    "journal_replayed",
    # the compiled forward engine (docs/PERFORMANCE.md)
    "kernel_exec",
    # the serving layer (docs/SERVING.md)
    "session_opened",
    "warm_start",
    "store_hit",
    "request_served",
    # serving telemetry (docs/OBSERVABILITY.md)
    "request_received",
    "request_finished",
    "metrics_scraped",
    # hardened serving (docs/ROBUSTNESS.md, "The daemon's fault sites")
    "request_shed",
    "request_retried",
    "worker_respawned",
    "store_compacted",
    # the work-stealing scheduler + clause bus (docs/ROBUSTNESS.md,
    # "Leases and work stealing")
    "lease_claimed",
    "lease_expired",
    "lease_stolen",
    "clause_published",
    "clause_imported",
})


def header() -> dict:
    """The stream-opening record."""
    return {"type": TRACE_HEADER, "schema": SCHEMA_VERSION, "producer": "repro"}


def validate_events(records: Iterable[dict]) -> List[str]:
    """Check a record stream against the schema; returns the list of
    problems found (empty = valid).

    Validation is structural: header first and version known, every
    record carries its required keys, span ends match prior starts,
    span parents exist, and events reference open-or-finished spans.
    """
    errors: List[str] = []
    seen_header = False
    started: Dict[int, str] = {}
    ended: set = set()
    for index, record in enumerate(records):
        where = f"record {index}"
        if not isinstance(record, dict):
            errors.append(f"{where}: not an object")
            continue
        rtype = record.get("type")
        if index == 0:
            if rtype != TRACE_HEADER:
                errors.append(f"{where}: first record must be a trace_header")
            elif record.get("schema") not in SUPPORTED_SCHEMA_VERSIONS:
                errors.append(
                    f"{where}: unsupported schema version "
                    f"{record.get('schema')!r} (supported: "
                    f"{sorted(SUPPORTED_SCHEMA_VERSIONS)})"
                )
            seen_header = True
            continue
        if rtype == TRACE_HEADER:
            errors.append(f"{where}: duplicate trace_header")
            continue
        if rtype not in RECORD_TYPES:
            errors.append(f"{where}: unknown record type {rtype!r}")
            continue
        if not isinstance(record.get("t"), (int, float)):
            errors.append(f"{where}: missing numeric timestamp 't'")
        trace = record.get("trace")
        if trace is not None and not isinstance(trace, str):
            errors.append(f"{where}: non-string trace id {trace!r}")
        if rtype == SPAN_START:
            span_id = record.get("id")
            if not isinstance(span_id, int):
                errors.append(f"{where}: span_start without integer 'id'")
                continue
            if span_id in started:
                errors.append(f"{where}: duplicate span id {span_id}")
            if not isinstance(record.get("name"), str):
                errors.append(f"{where}: span_start without 'name'")
            parent = record.get("parent")
            if parent is not None and parent not in started:
                errors.append(
                    f"{where}: span {span_id} has unknown parent {parent!r}"
                )
            phase = record.get("phase")
            if phase is not None and phase not in PHASES:
                errors.append(f"{where}: unknown phase {phase!r}")
            started[span_id] = record.get("name", "?")
        elif rtype == SPAN_END:
            span_id = record.get("id")
            if span_id not in started:
                errors.append(f"{where}: span_end for unknown id {span_id!r}")
            elif span_id in ended:
                errors.append(f"{where}: span {span_id} ended twice")
            else:
                ended.add(span_id)
        elif rtype == EVENT:
            if not isinstance(record.get("name"), str):
                errors.append(f"{where}: event without 'name'")
            span = record.get("span")
            if span is not None and span not in started:
                errors.append(f"{where}: event on unknown span {span!r}")
        elif rtype == METRIC:
            if not isinstance(record.get("name"), str):
                errors.append(f"{where}: metric without 'name'")
            for key in ("hits", "misses"):
                if not isinstance(record.get(key), int):
                    errors.append(f"{where}: metric without integer {key!r}")
    if not seen_header:
        errors.append("empty stream: no trace_header")
    unfinished = sorted(set(started) - ended)
    if unfinished:
        errors.append(
            "unfinished spans: "
            + ", ".join(f"{i} ({started[i]})" for i in unfinished)
        )
    return errors


def merge_streams(streams: Sequence[Sequence[dict]]) -> List[dict]:
    """Deterministically merge per-worker event streams into one.

    Streams are concatenated in the given order (the parallel harness
    passes them in work-unit order, which is the serial evaluation
    order), span ids are remapped into disjoint ranges, per-stream
    headers are dropped in favour of a single leading header, and each
    record gains a ``"stream"`` key naming its origin.  Timestamps and
    ``"trace"`` ids are left untouched: timestamps are only comparable
    within one stream, while trace ids are global — records from
    different streams that share a trace id belong to one logical
    request and stay correlated across the merge.
    """
    merged: List[dict] = [header()]
    offset = 0
    for stream_index, stream in enumerate(streams):
        top = 0
        for record in stream:
            if record.get("type") == TRACE_HEADER:
                continue
            record = dict(record)
            record["stream"] = stream_index
            span_id = record.get("id")
            if isinstance(span_id, int):
                record["id"] = span_id + offset
                top = max(top, span_id + 1)
            for key in ("parent", "span"):
                ref = record.get(key)
                if isinstance(ref, int):
                    record[key] = ref + offset
            merged.append(record)
        offset += top
    return merged
