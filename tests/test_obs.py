"""The observability layer: no-op overhead, nesting, exporters."""

import json
import time

import pytest

from repro import obs
from repro.hw.config import FAST_CONFIG
from repro.obs.tracer import NOOP_SPAN, Tracer
from repro.sched import ScheduledEngine
from repro.sim.engine import Engine, UNIT_NAMES
from repro.workloads import bootstrap_trace, helr_trace


@pytest.fixture()
def tracer():
    t = Tracer(enabled=True)
    yield t


@pytest.fixture(autouse=True)
def _clean_global():
    """Never leak global tracing state between tests."""
    yield
    obs.configure(enabled=False, reset=True)


class TestDisabledNoop:
    def test_span_returns_shared_singleton(self):
        t = Tracer(enabled=False)
        span = t.span("x", a=1)
        assert span is NOOP_SPAN
        assert t.span("y") is span  # no per-call allocation
        with span as s:
            s.set(more=2)
        assert t.spans == []

    def test_count_observe_event_record_nothing(self):
        t = Tracer(enabled=False)
        t.count("c", 5)
        t.observe("h", 1.0)
        t.event("e", 0.0, 1.0, track="nttu")
        assert t.metrics.counters() == {}
        assert t.metrics.histograms() == {}
        assert t.spans == []

    def test_disabled_calls_are_cheap(self):
        # Generous absolute bound: 200k disabled count+event calls in
        # well under a second (each is one attribute check + return).
        t = Tracer(enabled=False)
        start = time.perf_counter()
        for _ in range(200_000):
            t.count("c")
            t.event("e", 0.0, 1.0)
        assert time.perf_counter() - start < 2.0

    def test_disabled_by_default(self):
        assert Tracer().enabled is False


class TestSpans:
    def test_span_records_duration(self, tracer):
        with tracer.span("work", kind="test"):
            pass
        assert len(tracer.spans) == 1
        span = tracer.spans[0]
        assert span.name == "work"
        assert span.duration_s >= 0.0
        assert span.clock == obs.WALL
        assert span.labels == {"kind": "test"}

    def test_span_nesting_links_parents(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        inner_rec, outer_rec = tracer.spans  # inner finishes first
        assert inner_rec.name == "inner"
        assert inner_rec.parent_id == outer_rec.span_id
        assert outer_rec.parent_id is None

    def test_set_labels_after_exit(self, tracer):
        with tracer.span("s") as span:
            pass
        span.set(result=42)
        assert tracer.spans[0].labels["result"] == 42

    def test_sim_events_carry_track_and_clock(self, tracer):
        tracer.event("ntt", 1.5e-6, 2.5e-6, track="nttu", op="HMult")
        span = tracer.spans[0]
        assert span.clock == obs.SIM
        assert span.track == "nttu"
        assert span.start_s == 1.5e-6

    def test_max_events_cap(self):
        t = Tracer(enabled=True, max_events=3)
        for i in range(5):
            t.event("e", float(i), 1.0)
        assert len(t.spans) == 3
        assert t.dropped_events == 2

    def test_reset_clears_everything(self, tracer):
        with tracer.span("s"):
            tracer.count("c")
        tracer.reset()
        assert tracer.spans == [] and tracer.metrics.counters() == {}
        assert tracer.enabled  # reset keeps the enabled state


class TestMetrics:
    def test_counter_accumulates(self, tracer):
        tracer.count("hits")
        tracer.count("hits", 2.5)
        assert tracer.counter_value("hits") == 3.5

    def test_histogram_summary(self, tracer):
        for v in (1.0, 2.0, 4.0):
            tracer.observe("lat", v)
        summary = tracer.metrics.histograms()["lat"]
        assert summary["count"] == 3
        assert summary["total"] == 7.0
        assert summary["min"] == 1.0 and summary["max"] == 4.0
        assert summary["mean"] == pytest.approx(7.0 / 3)
        assert summary["buckets_pow2"] == {"0": 1, "1": 1, "2": 1}

    def test_empty_histogram_summary(self):
        from repro.obs.metrics import Histogram
        assert Histogram("x").summary()["count"] == 0


class TestExporters:
    def _traced(self):
        t = Tracer(enabled=True)
        with t.span("wall-work", n=8):
            pass
        t.event("ntt", 0.0, 1e-6, track="nttu", op="HMult")
        t.count("calls", 2)
        t.observe("lat", 0.5)
        return t

    def test_json_snapshot_schema(self):
        snap = self._traced().snapshot()
        assert snap["schema"] == "repro-obs/v1"
        for key in ("enabled", "num_spans", "dropped_events", "spans",
                    "counters", "histograms"):
            assert key in snap
        assert snap["num_spans"] == len(snap["spans"]) == 2
        assert snap["counters"] == {"calls": 2}
        json.dumps(snap)  # round-trippable

    def test_span_dict_fields(self):
        snap = self._traced().snapshot()
        sim = next(s for s in snap["spans"] if s["clock"] == "sim")
        assert sim["track"] == "nttu"
        assert sim["labels"] == {"op": "HMult"}
        assert sim["duration_s"] == 1e-6

    def test_write_json(self, tmp_path):
        path = tmp_path / "obs.json"
        obs.write_json(self._traced(), str(path))
        assert json.loads(path.read_text())["schema"] == "repro-obs/v1"

    def test_chrome_trace_structure(self):
        t = self._traced()
        doc = obs.to_chrome_trace(t)
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 2
        assert {m["name"] for m in meta} >= {"process_name",
                                             "thread_name"}
        sim_event = next(e for e in complete if e["name"] == "ntt")
        assert sim_event["dur"] == pytest.approx(1.0)  # microseconds
        # wall and sim spans live in different chrome processes
        wall_event = next(e for e in complete if e["name"] == "wall-work")
        assert wall_event["pid"] != sim_event["pid"]

    def test_write_chrome_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(self._traced(), str(path))
        assert "traceEvents" in json.loads(path.read_text())


class TestEngineIntegration:
    def test_traced_run_matches_untraced(self):
        trace = bootstrap_trace()
        plain = Engine().run(trace)
        obs.configure(enabled=True, reset=True)
        traced = Engine().run(trace)
        assert traced.total_s == plain.total_s
        assert traced.key_cache_hit_rate == plain.key_cache_hit_rate

    def test_engine_emits_unit_tracks_and_counters(self):
        obs.configure(enabled=True, reset=True)
        Engine().run(bootstrap_trace())
        tracer = obs.get_tracer()
        tracks = {s.track for s in tracer.spans if s.clock == obs.SIM}
        assert set(UNIT_NAMES) <= tracks
        assert "op" in tracks
        counters = tracer.metrics.counters()
        assert counters["engine.ops"] > 0
        assert counters["aether.units"] > 0
        assert counters["lower.schedules"] == counters["engine.ops"]
        assert (counters["engine.key_cache_hits"]
                + counters["engine.key_cache_misses"]) > 0

    def test_result_cache_rate_consistent(self):
        result = Engine().run(bootstrap_trace())
        lookups = result.key_cache_hits + result.key_cache_misses
        assert lookups > 0
        assert result.key_cache_hit_rate == pytest.approx(
            result.key_cache_hits / lookups)


class TestScheduledIntegration:
    """A multi-cluster run draws its timeline from the same per-op
    loop: one unit track per cluster, the shared HBM channel once."""

    def test_traced_four_cluster_run_has_per_cluster_tracks(self):
        trace = helr_trace(batch=256)
        plain = ScheduledEngine(FAST_CONFIG).run(trace)
        obs.configure(enabled=True, reset=True)
        traced = ScheduledEngine(FAST_CONFIG).run(trace)
        assert traced.total_s == plain.total_s
        tracks = {s.track for s in obs.get_tracer().spans
                  if s.clock == obs.SIM}
        for cluster in range(FAST_CONFIG.clusters):
            assert {f"c{cluster}.nttu", f"c{cluster}.op"} <= tracks
        assert "hbm" in tracks
        # only the shared HBM channel keeps an unindexed track
        assert set(UNIT_NAMES) & tracks == {"hbm"}

    def test_untraced_run_records_nothing(self):
        obs.configure(enabled=False, reset=True)
        ScheduledEngine(FAST_CONFIG).run(helr_trace(batch=256))
        tracer = obs.get_tracer()
        assert tracer.spans == []
        assert tracer.metrics.counters() == {}
