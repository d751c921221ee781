"""Trace sinks: where emitted records go.

Four bundled sinks cover the intended deployment modes:

* :class:`NullSink` — swallow everything: the cost of *active*
  instrumentation alone, which is not measured yet.  The default is
  *no* sink installed at all, in which case every instrumentation point
  is one global read and never constructs a record.
* :class:`MemorySink` — collect records in a list; the test sink, and
  the capture buffer behind post-hoc transcripts and parallel-worker
  trace collection.
* :class:`JsonlSink` — one compact JSON record per line, schema-stamped
  by the leading ``trace_header``; the artifact format consumed by
  ``repro trace validate / summarize / transcript``.
* :class:`TtySink` — a live, human-oriented progress feed on stderr
  (one line per CEGAR iteration and per resolved query).
"""

from __future__ import annotations

import json
import sys
from typing import IO, List, Optional

__all__ = ["Sink", "NullSink", "MemorySink", "JsonlSink", "TtySink", "MultiSink"]


class Sink:
    """A consumer of trace records (plain dicts; see
    :mod:`repro.obs.events` for the shapes)."""

    def emit(self, record: dict) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources; further ``emit`` calls are
        undefined."""


class NullSink(Sink):
    """Accept and discard every record."""

    def emit(self, record: dict) -> None:
        pass


class MemorySink(Sink):
    """Collect records in :attr:`events` (in emission order)."""

    def __init__(self):
        self.events: List[dict] = []

    def emit(self, record: dict) -> None:
        self.events.append(record)


class JsonlSink(Sink):
    """Write records as JSON lines to ``path`` (or an open handle)."""

    def __init__(self, path: str, handle: Optional[IO[str]] = None):
        self.path = path
        self._handle = handle if handle is not None else open(path, "w")
        self._owns_handle = handle is None

    def emit(self, record: dict) -> None:
        self._handle.write(json.dumps(record, separators=(",", ":")))
        self._handle.write("\n")

    def close(self) -> None:
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()


class TtySink(Sink):
    """Render a live progress feed from the event stream.

    Prints one line per finished CEGAR iteration (abstraction cost,
    group size, whether the forward run was served from cache) and one
    per resolved query; everything else is ignored.
    """

    def __init__(self, stream: Optional[IO[str]] = None):
        self.stream = stream if stream is not None else sys.stderr
        self._iteration_starts = {}

    def emit(self, record: dict) -> None:
        rtype = record.get("type")
        if rtype == "span_start" and record.get("name") == "iteration":
            self._iteration_starts[record["id"]] = record
        elif rtype == "span_end" and record.get("id") in self._iteration_starts:
            start = self._iteration_starts.pop(record["id"])
            attrs = {**start.get("attrs", {}), **record.get("attrs", {})}
            seconds = record["t"] - start["t"]
            cost = attrs.get("abstraction_cost")
            self._line(
                f"iteration {attrs.get('round', '?')}: "
                f"group={attrs.get('group_size', '?')} "
                f"cost={'-' if cost is None else cost} "
                f"proven={attrs.get('proven', 0)} "
                f"{'cached ' if attrs.get('cached') else ''}"
                f"({seconds:.3f}s)"
            )
        elif rtype == "event" and record.get("name") == "query_resolved":
            attrs = record.get("attrs", {})
            self._line(
                f"query {attrs.get('query', '?')}: "
                f"{attrs.get('status', '?').upper()} "
                f"after {attrs.get('iterations', '?')} iterations "
                f"({attrs.get('time_seconds', 0.0):.3f}s)"
            )

    def _line(self, text: str) -> None:
        self.stream.write(text + "\n")
        self.stream.flush()


class MultiSink(Sink):
    """Fan every record out to several sinks."""

    def __init__(self, sinks):
        self.sinks = list(sinks)

    def emit(self, record: dict) -> None:
        for sink in self.sinks:
            sink.emit(record)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
