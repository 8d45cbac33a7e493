"""Scheduler correctness: op preservation, ordering, serial parity."""

from dataclasses import fields

import pytest

from repro.hw.config import FAST_CONFIG, fast_variant
from repro.sched import ScheduledEngine, serial_reference
from repro.sim.engine import SimulationResult
from repro.workloads import bootstrap_trace, helr_trace


def engine_at(clusters: int) -> ScheduledEngine:
    config = FAST_CONFIG.with_(name=f"FAST-{clusters}C",
                               clusters=clusters)
    return ScheduledEngine(config)


@pytest.fixture(scope="module")
def helr():
    return helr_trace(batch=256)


@pytest.fixture(scope="module")
def boot():
    return bootstrap_trace()


@pytest.fixture(scope="module")
def helr_4c(helr):
    return engine_at(4).run(helr)


class TestOpPreservation:
    """The schedule executes exactly the serial engine's op set.

    The comparison runs the serial engine at the *same* design point
    (Aether's decisions depend on the chip's aggregate rate, so the
    1-cluster reference would legitimately lower differently); the
    scheduled path reuses that engine's lowering, so every op count
    and every modop must match exactly.
    """

    @pytest.fixture(scope="class")
    def serial_same_config(self, helr):
        from repro.sim.engine import Engine
        return Engine(FAST_CONFIG.with_(name="FAST-4C")).run(helr)

    def test_counts_match_serial(self, helr_4c, serial_same_config):
        serial = serial_same_config
        assert helr_4c.num_ops == serial.num_ops
        assert helr_4c.num_key_switches == serial.num_key_switches
        assert dict(helr_4c.method_ops) == dict(serial.method_ops)

    def test_kernel_work_matches_serial(self, helr_4c,
                                        serial_same_config):
        serial = serial_same_config
        assert set(helr_4c.kernel_modops) == set(serial.kernel_modops)
        for kernel, modops in serial.kernel_modops.items():
            assert helr_4c.kernel_modops[kernel] == \
                pytest.approx(modops), kernel

    def test_every_node_dispatched_once(self, helr):
        engine = engine_at(4)
        graph = engine.lower(helr)
        timeline = engine.scheduler.run(graph)
        assert sorted(timeline.order) == list(range(len(graph)))


class TestOrdering:
    """Dependent ops never reorder, at any cluster count."""

    @pytest.mark.parametrize("clusters", [1, 2, 4, 8])
    def test_no_dependency_violations(self, helr, clusters):
        engine = engine_at(clusters)
        graph = engine.lower(helr)
        timeline = engine.scheduler.run(graph)
        assert timeline.violations() == []

    def test_producers_clear_first_stage_before_consumers(self, helr):
        engine = engine_at(4)
        graph = engine.lower(helr)
        timeline = engine.scheduler.run(graph)
        for node in graph.nodes:
            timing = timeline.timings[node.node_id]
            for pred in node.preds:
                producer = timeline.timings[pred]
                assert timing.start_s >= \
                    producer.first_stage_end_s - 1e-12

    def test_same_cluster_ops_pipeline_in_dispatch_order(self, helr):
        engine = engine_at(4)
        timeline = engine.scheduler.run(engine.lower(helr))
        last_first_stage = {}
        for nid in timeline.order:
            timing = timeline.timings[nid]
            prev = last_first_stage.get(timing.cluster)
            if prev is not None:
                assert timing.start_s >= prev - 1e-12
            last_first_stage[timing.cluster] = timing.first_stage_end_s


class TestSerialParity:
    """One-cluster scheduling *is* the serial reference: the same
    in-order loop on the same per-cluster units, so every result field
    is equal, not close."""

    DESIGN_POINTS = [
        FAST_CONFIG,
        fast_variant("2C", clusters=2),
        fast_variant("8C", clusters=8),
        fast_variant("64MB", onchip_memory_bytes=64 * 2**20,
                     key_storage_bytes=40 * 2**20),
    ]

    @pytest.mark.parametrize("trace_fixture", ["helr", "boot"])
    def test_one_cluster_matches_serial(self, trace_fixture, request):
        trace = request.getfixturevalue(trace_fixture)
        for config in self.DESIGN_POINTS:
            serial = serial_reference(config).run(trace)
            result = ScheduledEngine(config.with_(clusters=1)).run(trace)
            for f in fields(SimulationResult):
                assert getattr(result, f.name) == \
                    getattr(serial, f.name), (config.name, f.name)

    def test_sim_suite_parity_is_exactly_one(self, helr):
        """``sim.engine.parity_1c`` as the benchmark computes it."""
        serial_s = serial_reference(FAST_CONFIG).run(helr).total_s
        one = ScheduledEngine(FAST_CONFIG.with_(name="FAST-1C",
                                                clusters=1))
        assert one.run(helr).total_s / serial_s == 1.0


class TestScaling:
    """The acceptance bar: >= 2x at 4 clusters on both workloads."""

    @pytest.mark.parametrize("trace_fixture", ["helr", "boot"])
    def test_four_clusters_at_least_2x(self, trace_fixture, request):
        trace = request.getfixturevalue(trace_fixture)
        serial = serial_reference(FAST_CONFIG).run(trace)
        result = engine_at(4).run(trace)
        assert serial.total_s / result.total_s >= 2.0

    def test_more_clusters_never_slower(self, helr):
        totals = [engine_at(c).run(helr).total_s for c in (1, 2, 4, 8)]
        assert totals == sorted(totals, reverse=True)

    def test_occupancy_and_stalls_reported(self, helr_4c):
        assert len(helr_4c.per_cluster) == 4
        assert all(0.0 <= c.occupancy <= 1.0
                   for c in helr_4c.per_cluster)
        assert set(helr_4c.stalls) == {"dependency_s", "evk_s",
                                       "structural_s"}
        assert all(v >= 0.0 for v in helr_4c.stalls.values())

    def test_speedup_property(self, helr, helr_4c):
        assert helr_4c.speedup is None  # no reference attached yet
        serial = serial_reference(FAST_CONFIG).run(helr)
        helr_4c.serial_total_s = serial.total_s
        assert helr_4c.speedup == pytest.approx(
            serial.total_s / helr_4c.total_s)


class TestBenchGate:
    """The third bar of the scheduler gate, next to TestSerialParity
    (one cluster is the serial engine, field for field) and TestScaling
    (>= 2x at 4 clusters): no result on either gated workload reports
    a dependency violation, at any cluster count."""

    @pytest.mark.parametrize("trace_fixture", ["helr", "boot"])
    def test_results_report_zero_dependency_violations(self, trace_fixture,
                                                       request):
        trace = request.getfixturevalue(trace_fixture)
        for clusters in (1, 2, 4, 8):
            assert engine_at(clusters).run(trace) \
                .dependency_violations == 0, clusters
