"""Event log + flight recorder: JSON-lines sink, counters, bounded ring."""

import io
import json

import pytest

from repro.obs import (
    EventLog,
    FlightRecorder,
    MetricsRegistry,
    parse_event_lines,
)
from repro.serve.clock import FakeClock


class TestEventLog:
    def test_emit_writes_one_json_line_per_event(self):
        stream = io.StringIO()
        log = EventLog(stream=stream, clock=FakeClock(10.0))
        log.emit("worker_added", engine="threaded", workers=3)
        log.emit("drain_begin", active_sessions=2)
        records = parse_event_lines(stream.getvalue())
        assert records == [
            {"ts": 10.0, "event": "worker_added", "engine": "threaded",
             "workers": 3},
            {"ts": 10.0, "event": "drain_begin", "active_sessions": 2},
        ]
        # Each line is standalone JSON (tail -f friendly).
        for line in stream.getvalue().splitlines():
            json.loads(line)

    def test_counts_and_records_without_any_sink(self):
        """Library default: no stream, no path — still observable."""
        metrics = MetricsRegistry()
        recorder = FlightRecorder(capacity=8)
        log = EventLog(metrics=metrics, recorder=recorder)
        log.emit("session_admitted", session=1)
        log.emit("session_admitted", session=2)
        counter = metrics.counter(
            "repro_events_total", labels=("event",)
        )
        assert counter.value(event="session_admitted") == 2.0
        assert [kind for kind, _ in recorder.entries()] == [
            "event", "event",
        ]

    def test_path_mode_appends_to_file(self, tmp_path):
        target = tmp_path / "events.jsonl"
        log = EventLog(path=str(target), clock=FakeClock())
        log.emit("drain_complete", results_delivered=5)
        log.close()
        (record,) = parse_event_lines(target.read_text())
        assert record["event"] == "drain_complete"
        assert record["results_delivered"] == 5

    def test_stream_and_path_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError):
            EventLog(stream=io.StringIO(), path=str(tmp_path / "x"))

    def test_emit_survives_closed_stream(self):
        """Interpreter-teardown ordering must not raise in emit."""
        stream = io.StringIO()
        metrics = MetricsRegistry()
        log = EventLog(stream=stream, metrics=metrics)
        stream.close()
        log.emit("engine_broken", error="Boom")
        counter = metrics.counter(
            "repro_events_total", labels=("event",)
        )
        assert counter.value(event="engine_broken") == 1.0


class TestFlightRecorder:
    def test_ring_is_bounded_oldest_evicted(self):
        recorder = FlightRecorder(capacity=3)
        for index in range(5):
            recorder.record_event({"event": "e", "n": index})
        assert len(recorder) == 3
        assert [record["n"] for _, record in recorder.entries()] == [
            2, 3, 4,
        ]

    def test_mixed_entries_dump_as_json_lines_with_kind(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record_event({"event": "worker_retired", "workers": 1})
        recorder.record_trace({"trace_id": 7, "owner": "engine",
                               "spans": []})
        lines = [json.loads(line) for line in
                 recorder.dump().splitlines()]
        assert lines[0]["kind"] == "event"
        assert lines[0]["event"] == "worker_retired"
        assert lines[1]["kind"] == "trace"
        assert lines[1]["trace_id"] == 7

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
