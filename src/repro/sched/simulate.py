"""The scheduled execution path: Aether's front half -> cluster timeline.

:class:`ScheduledEngine` is the multi-cluster counterpart of
:class:`repro.sim.engine.Engine`.  It reuses the serial engine's
whole front half — Aether's offline decisions, the kernel lowering of
:mod:`repro.sim.kernels` — then lifts the schedules into the dataflow
DAG (:mod:`repro.sched.graph`) and hands it to the cluster scheduler
(:mod:`repro.sched.scheduler`), which dispatches every op through the
same per-op execution model the serial engine runs in order.

The serial engine charges every kernel task at chip-aggregate
throughput, i.e. it idealises all clusters ganging on each op with
zero cost; the scheduled engine is the explicit model — each op runs
on *one* cluster's units, and clusters overlap only where the
dataflow permits.  ``speedup`` therefore reads against the serial
one-pipeline execution (:func:`serial_reference`: ``Engine`` on the
1-cluster slice of the same design point), which a 1-cluster schedule
reproduces by construction: it is the same in-order loop on the same
per-cluster units.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.ckks.params import CkksParams, SET_I, SET_II
from repro.hw.config import ChipConfig, FAST_CONFIG
from repro.sim.engine import (Engine, ScheduleTimeline,
                              SimulationResult, package)
from repro.sim.kernels import lower_trace

from repro.sched.graph import DataflowGraph
from repro.sched.scheduler import (DEFAULT_PIPELINE_DEPTH,
                                   DEFAULT_PREFETCH_SLOTS, ClusterScheduler)
from repro.sched.streams import merge_graphs, replicate_graph


@dataclass
class ClusterReport:
    """One cluster's share of a scheduled run."""

    cluster_id: int
    ops: int
    occupancy: float
    span_fraction: float
    busy_s: dict
    dep_stall_s: float
    evk_stall_s: float


@dataclass
class ScheduledResult(SimulationResult):
    """Everything one scheduled run produces: the simulator's result
    plus the per-cluster, stall and graph reports."""

    per_cluster: list = field(default_factory=list)
    stalls: dict = field(default_factory=dict)
    graph_stats: dict = field(default_factory=dict)
    dependency_violations: int = 0
    serial_total_s: float | None = None

    @property
    def speedup(self) -> float | None:
        """Speedup over serial one-pipeline execution (if measured)."""
        if not self.serial_total_s or not self.total_s:
            return None
        return self.serial_total_s / self.total_s

    def mean_occupancy(self) -> float:
        if not self.per_cluster:
            return 0.0
        return sum(c.occupancy for c in self.per_cluster) / \
            len(self.per_cluster)


@dataclass
class ThroughputResult(ScheduledResult):
    """A :class:`ScheduledResult` over K interleaved streams.

    ``total_s`` is the merged makespan; the headline figure is the
    *amortized* per-stream time ``total_s / streams`` and its speedup
    against the serial single-stream reference.
    """

    streams: int = 1
    prefetch_hits: int = 0
    prefetch_misses: int = 0
    prefetch_bytes: float = 0.0
    stolen_ops: int = 0

    @property
    def amortized_s(self) -> float:
        return self.total_s / self.streams if self.streams else 0.0

    @property
    def amortized_speedup(self) -> float | None:
        """Per-stream speedup over the serial reference: how many
        serial pipelines this one chip replaces in steady state."""
        if not self.serial_total_s or not self.total_s:
            return None
        return self.serial_total_s / self.amortized_s


class ScheduledEngine:
    """Simulates traces on one design point with explicit clusters."""

    def __init__(self, config: ChipConfig = FAST_CONFIG,
                 hybrid_params: CkksParams = SET_I,
                 klss_params: CkksParams = SET_II,
                 policy_mode: str = "aether",
                 pipeline_depth: int = DEFAULT_PIPELINE_DEPTH,
                 prefetch_slots: int = DEFAULT_PREFETCH_SLOTS):
        self.config = config
        # The serial engine supplies Aether and the policy machinery
        # (priced at chip-wide rates).
        self.engine = Engine(config, hybrid_params, klss_params,
                             policy_mode)
        # Throughput mode lowers against ONE cluster's throughput:
        # every op executes on a single cluster, so Aether's
        # method/hoisting trade-offs (NTT work vs key traffic) must be
        # priced at per-cluster rates — the chip-wide policy under-
        # counts NTT time 4x and picks hoisting plans whose NTT work
        # alone would cap the amortized speedup below the target.
        self.stream_engine = Engine(config.per_cluster(), hybrid_params,
                                    klss_params, policy_mode)
        # Both schedulers time ops on one cluster's units (their
        # default accelerator: the per-cluster slice).
        self.scheduler = ClusterScheduler(config, hybrid_params)
        self.throughput_scheduler = ClusterScheduler(
            config, hybrid_params, mode="throughput",
            pipeline_depth=pipeline_depth, prefetch_slots=prefetch_slots)

    # -- pipeline stages ---------------------------------------------------
    def lower(self, trace) -> DataflowGraph:
        """Trace -> validated dataflow DAG with attached schedules."""
        return _lower(self.engine, trace)

    def lower_for_streams(self, trace) -> DataflowGraph:
        """Trace -> DAG with per-cluster-priced Aether decisions (the
        lowering throughput mode schedules; see ``stream_engine``)."""
        return _lower(self.stream_engine, trace)

    def run(self, trace, name: str | None = None) -> ScheduledResult:
        tracer = obs.get_tracer()
        with tracer.span("sched.run", trace=trace.name,
                         clusters=self.config.clusters):
            graph = self.lower(trace)
            timeline = self.scheduler.run(graph)
            result = self._package(timeline, graph,
                                   name or trace.name)
        if tracer.enabled:
            tracer.count("sched.runs")
            tracer.observe("sched.sim_total_s", result.total_s)
        return result

    # -- throughput mode ---------------------------------------------------
    def run_streams(self, trace, streams: int,
                    name: str | None = None) -> ThroughputResult:
        """Throughput mode over K streams of the same workload.

        The trace is lowered *once* and the graph replicated with
        stream tags (:func:`~repro.sched.streams.replicate_graph`),
        then software-pipelined across the clusters.
        """
        tracer = obs.get_tracer()
        with tracer.span("sched.run_streams", trace=trace.name,
                         clusters=self.config.clusters,
                         streams=streams):
            graph = replicate_graph(self.lower_for_streams(trace),
                                    streams)
            timeline = self.throughput_scheduler.run(graph)
            result = self._package(timeline, graph,
                                   name or graph.name, streams)
        if tracer.enabled:
            tracer.count("sched.runs")
            tracer.observe("sched.sim_total_s", result.total_s)
        return result

    def run_multi(self, traces,
                  name: str | None = None) -> ThroughputResult:
        """Throughput mode over distinct per-stream traces (each
        lowered independently, merged with stream tags)."""
        graphs = [self.lower_for_streams(trace) for trace in traces]
        graph = merge_graphs(graphs, name=name)
        timeline = self.throughput_scheduler.run(graph)
        return self._package(timeline, graph, graph.name, len(graphs))

    def _package(self, timeline: ScheduleTimeline, graph: DataflowGraph,
                 name: str, streams: int | None = None) -> ScheduledResult:
        """The scheduled result of ``timeline``: a
        :class:`ThroughputResult` over ``streams`` when given."""
        makespan = timeline.total_s
        per_cluster = [
            ClusterReport(
                cluster_id=c.cluster_id, ops=c.ops,
                occupancy=c.occupancy(makespan),
                span_fraction=c.span_fraction(makespan),
                busy_s=dict(c.busy_s),
                dep_stall_s=c.dep_stall_s, evk_stall_s=c.evk_stall_s)
            for c in timeline.cluster_timelines]
        extra = {} if streams is None else dict(
            streams=streams, prefetch_hits=timeline.prefetch_hits,
            prefetch_misses=timeline.prefetch_misses,
            prefetch_bytes=timeline.prefetch_bytes,
            stolen_ops=timeline.stolen_ops)
        return package(
            timeline, name,
            ScheduledResult if streams is None else ThroughputResult,
            per_cluster=per_cluster, stalls=timeline.stall_breakdown(),
            graph_stats=graph.stats(),
            dependency_violations=len(timeline.violations()), **extra)


def _lower(engine: Engine, trace) -> DataflowGraph:
    """``engine``'s front half: Aether's policy, then the lowering."""
    schedules = lower_trace(trace, engine.aether, engine.make_policy(trace))
    return DataflowGraph.from_schedules(trace, schedules)


def serial_reference(config: ChipConfig = FAST_CONFIG,
                     **engine_kwargs) -> Engine:
    """The serial one-pipeline baseline for ``config``: the in-order
    engine on the single-cluster slice of the same design point."""
    return Engine(config.per_cluster(), **engine_kwargs)


def throughput_scaling(trace, cluster_counts=(1, 2, 4, 8),
                       stream_counts=(1, 2, 4, 8),
                       config: ChipConfig = FAST_CONFIG,
                       serial: SimulationResult | None = None,
                       **engine_kwargs) -> dict:
    """Table-6-style grid: amortized per-op time and utilisation at
    every ``clusters x streams`` point of the throughput scheduler.

    Returns ``{"serial_s": ..., "points": [{clusters, streams, sim_s,
    amortized_s, amortized_speedup, ...}, ...]}``; every point also
    carries the stall taxonomy so throughput mode's deltas against
    latency mode stay visible.
    """
    if serial is None:
        serial = serial_reference(config).run(trace)
    points = []
    for count in cluster_counts:
        variant = config.with_(name=f"{config.name}-{count}C",
                               clusters=count)
        engine = ScheduledEngine(variant, **engine_kwargs)
        graph = engine.lower_for_streams(trace)
        for streams in stream_counts:
            merged = replicate_graph(graph, streams)
            timeline = engine.throughput_scheduler.run(merged)
            result = engine._package(timeline, merged, merged.name,
                                     streams)
            result.serial_total_s = serial.total_s
            points.append({
                "clusters": count,
                "streams": streams,
                "sim_s": result.total_s,
                "amortized_s": result.amortized_s,
                "amortized_speedup": result.amortized_speedup,
                "mean_occupancy": result.mean_occupancy(),
                "utilisation": result.utilisation(),
                "stalls": result.stalls,
                "prefetch_hits": result.prefetch_hits,
                "prefetch_misses": result.prefetch_misses,
                "stolen_ops": result.stolen_ops,
                "dependency_violations": result.dependency_violations,
            })
    return {"serial_s": serial.total_s, "points": points}
