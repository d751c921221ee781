"""Tests for the trace schema, validation, and stream merging."""

from repro.obs.events import (
    SCHEMA_VERSION,
    header,
    merge_streams,
    validate_events,
)


def stream(*records):
    return [header(), *records]


def span_start(span_id, name="s", parent=None, t=0.0, **extra):
    return {
        "type": "span_start",
        "id": span_id,
        "parent": parent,
        "name": name,
        "t": t,
        **extra,
    }


def span_end(span_id, t=1.0):
    return {"type": "span_end", "id": span_id, "t": t}


class TestValidate:
    def test_valid_stream(self):
        records = stream(
            span_start(0, "outer"),
            span_start(1, "inner", parent=0, phase="forward"),
            {"type": "event", "name": "e", "span": 1, "t": 0.5},
            span_end(1),
            span_end(0),
            {"type": "metric", "name": "c", "hits": 1, "misses": 2, "t": 1.0},
        )
        assert validate_events(records) == []

    def test_missing_header(self):
        errors = validate_events([span_start(0), span_end(0)])
        assert any("trace_header" in e for e in errors)

    def test_wrong_schema_version(self):
        bad = {"type": "trace_header", "schema": SCHEMA_VERSION + 1}
        errors = validate_events([bad])
        assert any("unsupported schema" in e for e in errors)

    def test_duplicate_header(self):
        errors = validate_events(stream(header()))
        assert any("duplicate trace_header" in e for e in errors)

    def test_unknown_record_type(self):
        errors = validate_events(stream({"type": "mystery", "t": 0.0}))
        assert any("unknown record type" in e for e in errors)

    def test_duplicate_span_id(self):
        errors = validate_events(
            stream(span_start(0), span_start(0), span_end(0))
        )
        assert any("duplicate span id" in e for e in errors)

    def test_unknown_parent(self):
        errors = validate_events(
            stream(span_start(1, parent=99), span_end(1))
        )
        assert any("unknown parent" in e for e in errors)

    def test_unknown_phase(self):
        errors = validate_events(
            stream(span_start(0, phase="sideways"), span_end(0))
        )
        assert any("unknown phase" in e for e in errors)

    def test_unfinished_span(self):
        errors = validate_events(stream(span_start(0, "open_ended")))
        assert any("unfinished spans" in e for e in errors)

    def test_span_end_without_start(self):
        errors = validate_events(stream(span_end(7)))
        assert any("unknown id" in e for e in errors)

    def test_metric_requires_integer_counts(self):
        errors = validate_events(
            stream({"type": "metric", "name": "c", "hits": "many", "misses": 0, "t": 0.0})
        )
        assert any("integer 'hits'" in e for e in errors)

    def test_event_on_unknown_span(self):
        errors = validate_events(
            stream({"type": "event", "name": "e", "span": 3, "t": 0.0})
        )
        assert any("unknown span" in e for e in errors)


class TestMerge:
    def test_merge_remaps_ids_and_tags_streams(self):
        a = stream(span_start(0, "a0"), span_end(0))
        b = stream(
            span_start(0, "b0"),
            span_start(1, "b1", parent=0),
            {"type": "event", "name": "e", "span": 1, "t": 0.2},
            span_end(1),
            span_end(0),
        )
        merged = merge_streams([a, b])
        assert validate_events(merged) == []
        assert sum(1 for r in merged if r["type"] == "trace_header") == 1
        ids = [r["id"] for r in merged if r["type"] == "span_start"]
        assert len(ids) == len(set(ids))
        by_name = {r["name"]: r for r in merged if r["type"] == "span_start"}
        assert by_name["a0"]["stream"] == 0
        assert by_name["b0"]["stream"] == 1
        assert by_name["b1"]["parent"] == by_name["b0"]["id"]
        event = next(r for r in merged if r["type"] == "event")
        assert event["span"] == by_name["b1"]["id"]

    def test_merge_is_deterministic_in_stream_order(self):
        a = stream(span_start(0, "a0"), span_end(0))
        b = stream(span_start(0, "b0"), span_end(0))
        assert merge_streams([a, b]) == merge_streams([a, b])
        assert merge_streams([a, b]) != merge_streams([b, a])

    def test_merge_of_empty_streams(self):
        merged = merge_streams([])
        assert validate_events(merged) == []


class TestKnownEventNames:
    def test_every_emit_site_is_registered(self):
        """Scan the source tree for ``obs.event("name", ...)`` call
        sites and check each name against the registry — a typo'd or
        unregistered name fails here, not in a consumer."""
        import pathlib
        import re

        from repro.obs.events import KNOWN_EVENT_NAMES

        import repro

        root = pathlib.Path(repro.__file__).parent
        pattern = re.compile(r'\bevent\(\s*\n?\s*"([a-z_]+)"')
        emitted = set()
        for path in root.rglob("*.py"):
            emitted.update(pattern.findall(path.read_text()))
        assert emitted, "no emit sites found — the scan regex broke"
        unregistered = emitted - KNOWN_EVENT_NAMES
        assert not unregistered, (
            f"event names emitted but not in KNOWN_EVENT_NAMES: "
            f"{sorted(unregistered)}"
        )

    def test_serving_events_are_registered(self):
        from repro.obs.events import KNOWN_EVENT_NAMES

        assert {
            "session_opened",
            "warm_start",
            "store_hit",
            "request_served",
        } <= KNOWN_EVENT_NAMES

    def test_telemetry_events_are_registered(self):
        from repro.obs.events import KNOWN_EVENT_NAMES

        assert {
            "request_received",
            "request_finished",
            "metrics_scraped",
        } <= KNOWN_EVENT_NAMES

    def test_scan_reaches_the_serving_emit_sites(self):
        """The emit-site scan must keep covering the daemon and the
        obs helper modules, where the telemetry events are emitted."""
        import pathlib
        import re

        import repro

        root = pathlib.Path(repro.__file__).parent
        pattern = re.compile(r'\bevent\(\s*\n?\s*"([a-z_]+)"')
        serve_names = set()
        for path in (root / "serve").rglob("*.py"):
            serve_names.update(pattern.findall(path.read_text()))
        assert "metrics_scraped" in serve_names
        assert "request_finished" in serve_names


class TestSchemaVersions:
    def test_current_version_is_2(self):
        from repro.obs.events import SUPPORTED_SCHEMA_VERSIONS

        assert SCHEMA_VERSION == 2
        assert SCHEMA_VERSION in SUPPORTED_SCHEMA_VERSIONS

    def test_v1_streams_still_validate(self):
        v1_header = {"type": "trace_header", "schema": 1, "producer": "old"}
        records = [v1_header, span_start(0), span_end(0)]
        assert validate_events(records) == []

    def test_trace_id_key_is_valid_on_every_record_type(self):
        records = stream(
            {**span_start(0), "trace": "req-1"},
            {"type": "event", "name": "e", "span": 0, "t": 0.5,
             "trace": "req-1"},
            {"type": "metric", "name": "c", "hits": 0, "misses": 0,
             "t": 0.6, "trace": "req-1"},
            {**span_end(0), "trace": "req-1"},
        )
        assert validate_events(records) == []

    def test_non_string_trace_id_is_an_error(self):
        records = stream({**span_start(0), "trace": 17}, span_end(0))
        errors = validate_events(records)
        assert any("trace id" in e for e in errors)


class TestReplayPhase:
    def test_replay_is_a_phase(self):
        records = stream(span_start(0, "replay_round", phase="replay"), span_end(0))
        assert validate_events(records) == []

    def test_pre_replay_phase_trace_still_validates(self):
        """Traces written before the ``replay`` phase existed book
        ``replay_round`` spans as ``synthesis``."""
        records = stream(
            span_start(0, "query_group"),
            span_start(1, "replay_round", parent=0, phase="synthesis"),
            span_end(1),
            span_end(0),
        )
        assert validate_events(records) == []
