"""Throughput-mode scheduler: the 6x gate, determinism, observability.

The flagship claim this suite pins: at 4 clusters / 8 streams the
software-pipelined schedule of HELR256 amortizes to >= 6x the serial
single-pipeline latency (vs ~3.9x for latency mode, whose speedup one
program's dataflow caps), with structural stalls under 5% of
cluster-time and zero dependency violations — and the whole timeline
is bit-reproducible run over run.
"""

import functools

import pytest

from repro import obs
from repro.core.optrace import TraceBuilder
from repro.hw.config import FAST_CONFIG
from repro.sched import (DEFAULT_PIPELINE_DEPTH, ClusterScheduler,
                         ScheduledEngine, ThroughputResult,
                         replicate_graph, serial_reference,
                         throughput_scaling)
from repro.workloads import helr_trace


@functools.lru_cache(maxsize=None)
def engine_at(clusters: int, **kwargs) -> ScheduledEngine:
    config = FAST_CONFIG.with_(name=f"FAST-{clusters}C",
                               clusters=clusters)
    return ScheduledEngine(config, **kwargs)


@pytest.fixture(scope="module")
def helr():
    return helr_trace(batch=256)


@pytest.fixture(scope="module")
def serial_s(helr):
    return serial_reference(FAST_CONFIG).run(helr).total_s


@pytest.fixture(scope="module")
def flagship(helr, serial_s):
    """The gated point: 4 clusters, 8 streams, default depth."""
    result = engine_at(4).run_streams(helr, 8)
    result.serial_total_s = serial_s
    return result


def small_trace() -> "OpTrace":
    tb = TraceBuilder("tiny")
    for _ in range(2):
        ct = tb.fresh_ct()
        tb.hmult(ct, 6)
        tb.hrot(ct, 6, 2)
        tb.rescale(ct, 6)
    return tb.build().check()


class TestAmortizedSpeedupGate:
    def test_six_x_amortized_at_4c_8s(self, flagship):
        assert flagship.amortized_speedup >= 6.0, \
            flagship.amortized_speedup

    def test_zero_dependency_violations(self, flagship):
        assert flagship.dependency_violations == 0

    def test_structural_stalls_under_five_percent(self, flagship):
        fraction = flagship.stalls["structural_s"] / (
            flagship.total_s * flagship.clusters)
        assert fraction < 0.05, fraction

    def test_beats_latency_mode(self, helr, serial_s, flagship):
        """Streaming must buy what one program's dataflow cannot:
        the amortized per-stream time beats the 4-cluster latency-mode
        makespan of a single program."""
        latency = engine_at(4).run(helr)
        assert flagship.amortized_s < latency.total_s

    def test_amortized_improves_with_streams(self, helr, serial_s):
        engine = engine_at(4)
        amortized = []
        for streams in (1, 4, 8):
            result = engine.run_streams(helr, streams)
            result.serial_total_s = serial_s
            amortized.append(result.amortized_s)
        assert amortized[0] > amortized[1] > amortized[2], amortized

    def test_deeper_admission_helps_at_the_gate(self, helr, serial_s):
        """The depth default exists for a reason: a depth-8 front end
        measurably underfills the units vs the default at 4C/8S."""
        shallow = ScheduledEngine(
            FAST_CONFIG.with_(name="FAST-4C", clusters=4),
            pipeline_depth=8).run_streams(helr, 8)
        default = engine_at(4).run_streams(helr, 8)
        assert default.total_s < shallow.total_s


class TestResultPackaging:
    def test_throughput_result_fields(self, flagship):
        assert isinstance(flagship, ThroughputResult)
        assert flagship.streams == 8
        assert flagship.amortized_s == pytest.approx(
            flagship.total_s / 8)
        assert flagship.amortized_speedup == pytest.approx(
            flagship.serial_total_s / flagship.amortized_s)

    def test_amortized_speedup_needs_serial_reference(self, helr):
        result = engine_at(2).run_streams(helr, 2)
        assert result.amortized_speedup is None
        assert result.amortized_s > 0

    def test_prefetch_counters_populated(self, flagship):
        """8 aligned streams of a key-switch-heavy workload must ride
        shared prefetches; demand misses stay the exception."""
        assert flagship.prefetch_hits > 0
        assert flagship.prefetch_misses < flagship.prefetch_hits
        assert flagship.prefetch_bytes > 0

    def test_single_stream_valid(self, helr):
        result = engine_at(2).run_streams(helr, 1)
        assert result.streams == 1
        assert result.dependency_violations == 0
        assert result.amortized_s == result.total_s

    def test_run_multi_distinct_traces(self, helr):
        result = engine_at(2).run_multi([small_trace(), small_trace()])
        assert result.streams == 2
        assert result.dependency_violations == 0


class TestDeterminism:
    """Same trace + same engine parameters => identical timeline, on
    every run — the schedule reproducibility regression."""

    def _timeline(self, clusters=2, streams=4):
        engine = ScheduledEngine(
            FAST_CONFIG.with_(name=f"FAST-{clusters}C",
                              clusters=clusters))
        graph = replicate_graph(
            engine.lower_for_streams(helr_trace(batch=256)), streams)
        return engine.throughput_scheduler.run(graph)

    def test_identical_timelines_run_over_run(self):
        first, second = self._timeline(), self._timeline()
        assert first.order == second.order
        assert first.total_s == second.total_s
        for nid, timing in first.timings.items():
            other = second.timings[nid]
            assert (timing.cluster, timing.start_s, timing.end_s) == \
                (other.cluster, other.start_s, other.end_s), nid

    def test_latency_mode_deterministic_too(self):
        engine = ScheduledEngine(
            FAST_CONFIG.with_(name="FAST-4C", clusters=4))
        graph = engine.lower(helr_trace(batch=256))
        first = engine.scheduler.run(graph)
        second = engine.scheduler.run(graph)
        assert first.order == second.order
        assert first.total_s == second.total_s

    def test_pick_cluster_breaks_ties_to_lowest_index(self):
        """Equal free times must select the lowest cluster index,
        never an iteration incidental."""
        assert ClusterScheduler._pick_cluster([1.0, 1.0, 1.0], 2.0) == 0
        assert ClusterScheduler._pick_cluster([0.5, 0.5], 0.0) == 0

    def test_pick_cluster_prefers_latest_feasible(self):
        """Best-fit: the latest pipeline still free by the release
        time wastes the least idle; ties still break low."""
        assert ClusterScheduler._pick_cluster([0.0, 2.0, 2.0], 3.0) == 1
        assert ClusterScheduler._pick_cluster([4.0, 3.0, 3.0], 1.0) == 1


class TestParameterValidation:
    def test_unknown_mode_rejected(self):
        from repro.ckks.params import SET_I
        with pytest.raises(ValueError, match="unknown scheduler mode"):
            ClusterScheduler(FAST_CONFIG, SET_I, mode="bogus")

    def test_nonpositive_depth_rejected(self):
        from repro.ckks.params import SET_I
        with pytest.raises(ValueError, match="pipeline_depth"):
            ClusterScheduler(FAST_CONFIG, SET_I, mode="throughput",
                             pipeline_depth=0)

    def test_depth_plumbs_through_engine(self):
        engine = ScheduledEngine(FAST_CONFIG, pipeline_depth=5,
                                 prefetch_slots=3)
        assert engine.throughput_scheduler.pipeline_depth == 5
        assert engine.throughput_scheduler.prefetch_slots == 3
        assert engine.scheduler.pipeline_depth == \
            DEFAULT_PIPELINE_DEPTH


class TestObservability:
    def test_tracer_counts_prefetch_and_steals(self):
        tracer = obs.configure(enabled=True, reset=True)
        try:
            engine = ScheduledEngine(
                FAST_CONFIG.with_(name="FAST-2C", clusters=2))
            result = engine.run_streams(helr_trace(batch=256), 4)
            assert tracer.counter_value("hemera.prefetch.hit") == \
                result.prefetch_hits
            assert tracer.counter_value("hemera.prefetch.miss") == \
                result.prefetch_misses
            assert tracer.counter_value("sched.stolen_ops") == \
                result.stolen_ops
        finally:
            obs.configure(enabled=False, reset=True)


class TestBenchSection:
    """The throughput grid's bars live in TestAmortizedSpeedupGate
    (>= 6x amortized and < 5% structural stalls at 4C/8S) and in
    test_multistream_executor (merged streams bit-exact); what is left
    is that no corner of the grid reports a dependency violation."""

    @pytest.mark.parametrize("clusters, streams",
                             [(1, 1), (1, 8), (4, 1), (4, 8)])
    def test_grid_corners_report_zero_dependency_violations(
            self, helr, clusters, streams):
        result = engine_at(clusters).run_streams(helr, streams)
        assert result.dependency_violations == 0


class TestScalingHelper:
    def test_throughput_scaling_on_small_trace(self):
        grid = throughput_scaling(small_trace(), cluster_counts=(1, 2),
                                  stream_counts=(1, 2))
        points = {(p["clusters"], p["streams"]): p
                  for p in grid["points"]}
        assert set(points) == {(1, 1), (1, 2), (2, 1), (2, 2)}
        assert grid["serial_s"] > 0
        for point in points.values():
            assert point["dependency_violations"] == 0
            assert point["amortized_s"] == pytest.approx(
                point["sim_s"] / point["streams"])


class TestCli:
    def test_sched_streams_cli(self, capsys):
        from repro.__main__ import main
        code = main(["sched", "--workload", "helr256",
                     "--clusters", "2", "--streams", "2",
                     "--pipeline-depth", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 cluster(s) x 2 streams" in out
        assert "amortized" in out
        assert "prefetch:" in out
