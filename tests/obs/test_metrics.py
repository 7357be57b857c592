"""MetricsRegistry: families, exporters, cross-process folding.

The registry is the contract every serving tier publishes into and the
gateway ``metrics`` verb exports from, so its pinned behaviours are:
get-or-create identity, both export formats agreeing with each other
(the repo's own promtext parser closes that loop — the same parser CI
runs over a live scrape), and ``state()``/``merge()`` folding worker
deltas without double counting.
"""

import math

import pytest

from repro.obs import (
    MetricsRegistry,
    parse_prometheus,
    validate_exposition,
)


class TestFamilies:
    def test_counter_inc_and_labelled_series(self):
        registry = MetricsRegistry()
        frames = registry.counter(
            "frames_total", "Frames.", labels=("event",)
        )
        frames.inc(event="admitted")
        frames.inc(2, event="admitted")
        frames.inc(event="rejected")
        assert frames.value(event="admitted") == 3.0
        assert frames.value(event="rejected") == 1.0
        assert frames.value(event="never_seen") == 0.0

    def test_gauge_set_and_inc(self):
        registry = MetricsRegistry()
        depth = registry.gauge("depth", labels=("queue",))
        depth.set(4, queue="ingest")
        depth.inc(-1, queue="ingest")
        assert depth.value(queue="ingest") == 3.0

    def test_histogram_snapshot(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "latency_s", buckets=(0.1, 1.0)
        )
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(5.55)

    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("c", "help", labels=("a",))
        second = registry.counter("c", "other help", labels=("a",))
        assert first is second

    def test_kind_or_label_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("c", labels=("a",))
        with pytest.raises(ValueError):
            registry.gauge("c", labels=("a",))
        with pytest.raises(ValueError):
            registry.counter("c", labels=("b",))


class TestExporters:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("f_total", "Frames.", labels=("event",)).inc(
            3, event="done"
        )
        registry.gauge("depth", "Depth.", labels=("queue",)).set(
            2, queue="ingest"
        )
        hist = registry.histogram(
            "stage_seconds", "Stage.", labels=("stage",),
            buckets=(0.1, 1.0),
        )
        hist.observe(0.05, stage="execute")
        hist.observe(0.5, stage="execute")
        return registry

    def test_prometheus_round_trips_through_own_parser(self):
        registry = self.build()
        families = parse_prometheus(registry.render_prometheus())
        assert families["f_total"]["type"] == "counter"
        assert ("f_total", {"event": "done"}, 3.0) in (
            families["f_total"]["samples"]
        )
        assert ("depth", {"queue": "ingest"}, 2.0) in (
            families["depth"]["samples"]
        )
        # Histogram explodes into bucket/sum/count samples, all
        # attributed back to the declaring family.
        names = [s[0] for s in families["stage_seconds"]["samples"]]
        assert "stage_seconds_bucket" in names
        assert "stage_seconds_sum" in names
        assert "stage_seconds_count" in names
        buckets = [
            (labels["le"], value)
            for name, labels, value in (
                families["stage_seconds"]["samples"]
            )
            if name == "stage_seconds_bucket"
        ]
        assert ("+Inf", 2.0) in buckets  # cumulative, ends at count

    def test_label_values_escape_and_parse_back(self):
        registry = MetricsRegistry()
        registry.counter("c", labels=("k",)).inc(
            k='quote " slash \\ newline \n end'
        )
        families = parse_prometheus(registry.render_prometheus())
        ((_, labels, value),) = families["c"]["samples"]
        assert labels["k"] == 'quote " slash \\ newline \n end'
        assert value == 1.0

    def test_as_dict_shape_agrees_with_prometheus(self):
        registry = self.build()
        view = registry.as_dict()
        assert view["f_total"]["type"] == "counter"
        (sample,) = view["f_total"]["samples"]
        assert sample == {
            "sample": "f_total",
            "labels": {"event": "done"},
            "value": 3.0,
        }

    def test_parse_rejects_sample_without_type(self):
        with pytest.raises(ValueError, match="no preceding TYPE"):
            parse_prometheus("orphan_metric 1.0\n")

    def test_validate_exposition_rejects_nan(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(math.nan)
        with pytest.raises(ValueError, match="NaN"):
            validate_exposition(registry.render_prometheus())

    def test_validate_exposition_rejects_missing_family(self):
        registry = self.build()
        with pytest.raises(ValueError, match="missing"):
            validate_exposition(
                registry.render_prometheus(),
                required=("f_total", "repro_absent_total"),
            )
        # And passes when everything required is present.
        validate_exposition(
            registry.render_prometheus(), required=("f_total", "depth")
        )
