"""Tests for the post-hoc trace summarizer."""

import pytest

from repro.obs.events import header
from repro.obs.summarize import (
    phase_durations,
    render_summary,
    summarize_trace,
    validate_trace,
)


def span_start(span_id, name, parent=None, t=0.0, phase=None, attrs=None):
    record = {
        "type": "span_start",
        "id": span_id,
        "parent": parent,
        "name": name,
        "t": t,
    }
    if phase is not None:
        record["phase"] = phase
    if attrs:
        record["attrs"] = attrs
    return record


def span_end(span_id, t):
    return {"type": "span_end", "id": span_id, "t": t}


class TestPhaseDurations:
    def test_flat_phased_spans(self):
        records = [
            header(),
            span_start(0, "forward_run", t=0.0, phase="forward"),
            span_end(0, t=2.0),
            span_start(1, "choose", t=2.0, phase="synthesis"),
            span_end(1, t=2.5),
        ]
        durations = phase_durations(records)
        assert durations["forward"] == pytest.approx(2.0)
        assert durations["synthesis"] == pytest.approx(0.5)
        assert durations["backward"] == 0.0

    def test_nested_phased_spans_count_once(self):
        # counterexamples [forward] wrapping forward_run [forward]:
        # the instant 0..3 must be attributed exactly once.
        records = [
            header(),
            span_start(0, "counterexamples", t=0.0, phase="forward"),
            span_start(1, "forward_run", parent=0, t=0.5, phase="forward"),
            span_end(1, t=2.5),
            span_end(0, t=3.0),
        ]
        assert phase_durations(records)["forward"] == pytest.approx(3.0)

    def test_unphased_parent_does_not_absorb(self):
        records = [
            header(),
            span_start(0, "iteration", t=0.0),
            span_start(1, "backward", parent=0, t=1.0, phase="backward"),
            span_end(1, t=4.0),
            span_end(0, t=5.0),
        ]
        durations = phase_durations(records)
        assert durations["backward"] == pytest.approx(3.0)
        assert sum(durations.values()) == pytest.approx(3.0)

    def test_replay_rounds_are_their_own_phase(self):
        records = [
            header(),
            span_start(0, "replay_round", t=0.0, phase="replay"),
            span_end(0, t=0.25),
            span_start(1, "choose", t=0.25, phase="synthesis"),
            span_end(1, t=0.5),
        ]
        durations = phase_durations(records)
        assert durations["replay"] == pytest.approx(0.25)
        assert durations["synthesis"] == pytest.approx(0.25)

    def test_pre_replay_phase_trace_books_replay_as_synthesis(self):
        records = [
            header(),
            span_start(0, "replay_round", t=0.0, phase="synthesis"),
            span_end(0, t=0.25),
        ]
        durations = phase_durations(records)
        assert durations["synthesis"] == pytest.approx(0.25)
        assert durations["replay"] == 0.0


class TestSummarize:
    def trace(self):
        return [
            header(),
            span_start(0, "query_group", t=0.0),
            span_start(1, "iteration", parent=0, t=0.0),
            span_start(2, "choose", parent=1, t=0.0, phase="synthesis"),
            span_end(2, t=0.1),
            span_start(3, "counterexamples", parent=1, t=0.1, phase="forward"),
            span_end(3, t=0.6),
            span_start(4, "backward", parent=1, t=0.6, phase="backward"),
            span_end(4, t=1.0),
            {
                "type": "event",
                "name": "query_resolved",
                "span": 1,
                "t": 1.0,
                "attrs": {
                    "query": "q",
                    "status": "proven",
                    "time_seconds": 1.0,
                },
            },
            span_end(1, t=1.0),
            span_end(0, t=1.0),
            {"type": "metric", "name": "wp_memo.a", "hits": 1, "misses": 1, "t": 1.0},
            {"type": "metric", "name": "wp_memo.a", "hits": 2, "misses": 0, "t": 1.0},
        ]

    def test_counts_and_phases(self):
        summary = summarize_trace(self.trace())
        assert summary.iterations == 1
        assert summary.span_counts["choose"] == 1
        assert summary.phase_seconds["forward"] == pytest.approx(0.5)
        assert summary.phase_total == pytest.approx(1.0)
        assert summary.query_time_total == pytest.approx(1.0)
        assert summary.coverage == pytest.approx(1.0)

    def test_metric_records_aggregate_by_name(self):
        summary = summarize_trace(self.trace())
        assert summary.metrics == [
            {"name": "wp_memo.a", "hits": 3, "misses": 1}
        ]

    def test_render_mentions_all_sections(self):
        text = render_summary(summarize_trace(self.trace()))
        assert "Per-phase wall-clock breakdown" in text
        assert "forward" in text and "backward" in text and "synthesis" in text
        assert "iterations: 1" in text
        assert "1 resolved (1 proven)" in text
        assert "phase coverage: 100.0%" in text
        assert "wp_memo.a" in text

    def test_validate_trace_accepts_it(self):
        assert validate_trace(self.trace()) == []

    def test_empty_trace_summary(self):
        summary = summarize_trace([header()])
        assert summary.coverage is None
        text = render_summary(summary)
        assert "iterations: 0" in text
