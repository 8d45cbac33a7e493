"""Cluster dispatch orders: critical-path list scheduling and the
throughput-mode software pipeline.

The chip's ``num_clusters`` clusters (Sec. 5) are modelled as
independent pipelines, each with its own unit set (NTTU, BConvU, KMU,
AutoU, DSU) at per-cluster throughput; the HBM channel and the
on-chip evaluation-key store stay shared.  Every op, in every order,
runs through the simulator's one per-op execution model
(:class:`repro.sim.engine.ExecutionModel`); this module decides only
*which* op goes *where* and *when*.  A 1-cluster latency schedule is
that model's in-order dispatch, i.e. the serial reference itself, and
every extra cluster buys only what the dataflow actually permits.

Dispatch is time-ordered list scheduling: among the nodes whose
dependencies allow the earliest start, the one with the longest
remaining critical path wins (ties break on trace order), and it goes
to the cluster that can accept it with the least idle gap.  A
dependent node may start once all its producers have cleared their
first stage — the limb-level forwarding the in-order pipeline already
models — but key-switch ops additionally stall at the KeyMult stage
until Hemera's (shared, batched, work-queued) HBM channel reports
their evaluation key resident.

The stall taxonomy every run reports:

* **dependency** — a cluster sat idle because the chosen op's
  producers had not cleared their first stage yet;
* **evk** — the KeyMult stage waited for its evaluation key;
* **structural** — HBM operand/plaintext streaming delays plus
  end-of-schedule drain (clusters idle while the last chains finish).

Two modes:

* **latency** (default): critical-path list scheduling that minimises
  one program's makespan; in program order at 1 cluster;
* **throughput**: FPT-style software pipelining over stream-tagged
  graphs (:mod:`repro.sched.streams`).  Each cluster admits up to
  ``pipeline_depth`` operations into its front end (stream i+1's
  early stages overlap stream i's tail instead of waiting for the
  first stage to drain), streams get round-robin cluster affinity
  with deterministic work-stealing when a pipeline idles, and a
  double-buffered Hemera prefetcher
  (:class:`~repro.hw.memory.EvkPrefetcher`) fetches the next
  key-switches' keys while the current ones compute.
"""

from __future__ import annotations

import heapq

from repro import obs
from repro.ckks.params import CkksParams
from repro.hw.accelerator import Accelerator
from repro.hw.config import ChipConfig
from repro.hw.memory import EvkPrefetcher
from repro.sim.engine import ExecutionModel, ScheduleTimeline, key_identities
from repro.sim.kernels import OpSchedule

from repro.sched.graph import DataflowGraph, GraphNode

MODES = ("latency", "throughput")
# Software-pipelined front-end depth: operations one cluster may have
# simultaneously in flight before admission blocks.  Deep enough that
# independent streams backfill each other's stage bubbles (amortized
# speedup at 4 clusters / 8 streams saturates past ~24), shallow
# enough to bound the in-flight working set.
DEFAULT_PIPELINE_DEPTH = 32
DEFAULT_PREFETCH_SLOTS = 2


class ClusterScheduler:
    """Schedules one dataflow graph onto ``config.clusters`` pipelines.

    ``accelerator`` must be the *per-cluster* hardware model (one
    cluster's unit throughputs); the scheduler replicates its unit set
    per cluster and shares the HBM channel and key store across them.
    """

    def __init__(self, config: ChipConfig, hybrid_params: CkksParams,
                 accelerator: Accelerator | None = None,
                 mode: str = "latency",
                 pipeline_depth: int = DEFAULT_PIPELINE_DEPTH,
                 prefetch_slots: int = DEFAULT_PREFETCH_SLOTS):
        if mode not in MODES:
            raise ValueError(f"unknown scheduler mode {mode!r}; "
                             f"expected one of {MODES}")
        if pipeline_depth < 1:
            raise ValueError("pipeline_depth must be positive")
        self.config = config
        self.hybrid_params = hybrid_params
        self.accelerator = accelerator or Accelerator(
            config.per_cluster(), hybrid_params.ring_degree)
        self.model = ExecutionModel(config, hybrid_params, self.accelerator)
        self.mode = mode
        self.pipeline_depth = pipeline_depth
        self.prefetch_slots = prefetch_slots

    # -- node cost estimation (priority function) --------------------------
    def estimate_node_s(self, node: GraphNode) -> float:
        """Contention-free node latency: sum of stage bottlenecks."""
        task_seconds = self.model.task_seconds
        return sum(max((task_seconds(t) for t in stage), default=0.0)
                   for stage in node.schedule.stages)

    def estimate_first_stage_s(self, node: GraphNode) -> float:
        """Contention-free first (decompose) stage bottleneck."""
        stages = node.schedule.stages
        if not stages:
            return 0.0
        return max((self.model.task_seconds(t) for t in stages[0]),
                   default=0.0)

    def pipelined_critical_path_s(self, graph: DataflowGraph) -> float:
        """Lower bound on any legal makespan of ``graph`` here.

        Under limb-level forwarding a consumer may start once every
        producer clears its *first* stage, so along a dependency
        chain each non-terminal node contributes at least its
        first-stage bottleneck and the chain's last node its full
        contention-free latency.  Queueing and stalls only add time;
        every schedule this class produces satisfies
        ``total_s >= pipelined_critical_path_s(graph)`` (the
        property-test invariant).
        """
        down: dict[int, float] = {}
        best = 0.0
        for nid in reversed(graph.topological_order()):
            node = graph.nodes[nid]
            tail = max((down[s] for s in node.succs), default=None)
            value = self.estimate_node_s(node)
            if tail is not None:
                value = max(value,
                            self.estimate_first_stage_s(node) + tail)
            down[nid] = value
            best = max(best, value)
        return best

    # -- the dispatch loop -------------------------------------------------
    def run(self, graph: DataflowGraph) -> ScheduleTimeline:
        tracer = obs.get_tracer()
        with tracer.span("sched.schedule", graph=graph.name,
                         clusters=self.config.clusters,
                         mode=self.mode) as span:
            if self.mode == "throughput":
                timeline = self._run_throughput(graph)
            else:
                timeline = self._run(graph)
        if tracer.enabled:
            span.set(total_s=timeline.total_s)
            tracer.count("sched.dispatched", len(timeline.order))
            tracer.observe("sched.dep_stall_s", timeline.dep_stall_s)
            tracer.observe("sched.evk_stall_s", timeline.key_stall_s)
            tracer.observe("sched.total_s", timeline.total_s)
            if self.mode == "throughput":
                tracer.count("hemera.prefetch.hit",
                             timeline.prefetch_hits)
                tracer.count("hemera.prefetch.miss",
                             timeline.prefetch_misses)
                tracer.count("sched.stolen_ops", timeline.stolen_ops)
        return timeline

    def _run(self, graph: DataflowGraph) -> ScheduleTimeline:
        num_clusters = self.config.clusters
        if num_clusters == 1:
            # One pipeline has no parallelism to exploit: dispatch in
            # program order, the serial engine's own loop (the
            # dependency constraint is subsumed by in-order limb
            # pipelining).  List scheduling below kicks in only when
            # reordering can buy overlap.
            return self.model.run_in_order(
                [n.schedule for n in graph.nodes],
                [n.preds for n in graph.nodes])
        timeline = self.model.start(num_clusters)
        pipeline_ready = timeline.pipeline_ready
        priority = graph.critical_path(self.estimate_node_s)
        pending = {n.node_id: len(n.preds) for n in graph.nodes}
        # Two-heap dispatch: ``waiting`` orders dependency-released
        # nodes by the time their producers allow them to start;
        # ``released`` holds nodes startable "now", ordered by
        # critical-path priority (longest first, trace order on ties).
        waiting: list = []   # (dep_ready, node_id)
        released: list = []  # (-priority, node_id)
        dep_ready: dict[int, float] = {}
        for node in graph.nodes:
            if pending[node.node_id] == 0:
                dep_ready[node.node_id] = 0.0
                heapq.heappush(released, (-priority[node.node_id],
                                          node.node_id))
        scheduled = 0
        total_nodes = len(graph.nodes)
        while scheduled < total_nodes:
            t_free = min(pipeline_ready)
            while waiting and waiting[0][0] <= t_free:
                ready_t, nid = heapq.heappop(waiting)
                heapq.heappush(released, (-priority[nid], nid))
            if not released:
                # Every startable node waits on producers: advance to
                # the earliest dependency-release time.
                ready_t, nid = heapq.heappop(waiting)
                heapq.heappush(released, (-priority[nid], nid))
                while waiting and waiting[0][0] <= ready_t:
                    t2, nid2 = heapq.heappop(waiting)
                    heapq.heappush(released, (-priority[nid2], nid2))
            _, node_id = heapq.heappop(released)
            node = graph.nodes[node_id]
            ready = dep_ready[node_id]
            cluster = self._pick_cluster(pipeline_ready, ready)
            timeline.timings[node_id], _ = self.model.execute(
                timeline, node.schedule, node_id, cluster, ready)
            timeline.order.append(node_id)
            scheduled += 1
            for succ in node.succs:
                pending[succ] -= 1
                if pending[succ] == 0:
                    # Limb-level forwarding: a consumer may enter its
                    # cluster once every producer cleared its first
                    # stage (same rule the serial pipeline applies to
                    # successive ops).
                    ready_at = max(
                        timeline.timings[p].first_stage_end_s
                        for p in graph.nodes[succ].preds)
                    dep_ready[succ] = ready_at
                    heapq.heappush(waiting, (ready_at, succ))
        return timeline

    # -- throughput mode: software-pipelined multi-stream dispatch ---------
    def _run_throughput(self, graph: DataflowGraph) -> ScheduleTimeline:
        """FPT-style streaming dispatch over a stream-tagged graph.

        Differences from latency mode:

        * **admission depth** — each cluster's front end holds at
          most ``pipeline_depth`` operations in flight (admitted but
          not yet drained): instead of draining one first stage per
          admission, stream i+1's early stages overlap stream i's
          tail, with unit booking on interval timelines
          (:class:`~repro.hw.memory.UnitTimeline`) as the capacity
          limit;
        * **stream affinity** — node ``n`` runs on cluster
          ``n.stream % clusters`` (round-robin) unless another
          cluster could start it strictly earlier, in which case the
          idle cluster steals it (deterministically, lowest index);
        * **evk prefetch** — a double-buffered
          :class:`~repro.hw.memory.EvkPrefetcher` issues the next
          scheduled key-switches' fetches while compute runs, and
          pins in-flight keys against eviction.

        Dispatch is plain priority order (longest remaining critical
        path, ties to the lowest node id, i.e. the earliest stream):
        a node is dispatched as soon as all its producers are, and
        the earliest-fit unit timelines place its tasks — later
        dispatches backfill earlier bubbles, so dispatch order need
        not track simulated time.
        """
        num_clusters = self.config.clusters
        # Interval timelines, not high-water marks: streams backfill
        # the unit bubbles other streams' stage structure leaves, and
        # an HBM transfer takes the earliest channel slot at or after
        # its request time instead of queueing behind every
        # earlier-dispatched transfer regardless of when it was needed.
        timeline = self.model.start(num_clusters, mode="throughput")
        prefetcher = EvkPrefetcher(timeline.key_cache,
                                   self.config.hbm_bandwidth_bytes,
                                   slots=self.prefetch_slots)
        priority = graph.critical_path(self.estimate_node_s)
        pending = {n.node_id: len(n.preds) for n in graph.nodes}
        depth = self.pipeline_depth
        # Per-cluster admission window: min-heap of the ``depth``
        # LARGEST end times among admitted ops.  When the window is
        # full the next op may be admitted at heap[0] — the instant
        # the in-flight count drops below ``depth``.
        windows: list[list[float]] = [[] for _ in range(num_clusters)]

        def admission(c: int) -> float:
            window = windows[c]
            return window[0] if len(window) >= depth else 0.0

        released: list = []  # (-priority, node_id): deps dispatched
        ks_queue: list = []  # key-switch lookahead (prefetch)
        issued: set = set()
        ready_at: dict[int, float] = {}

        def release(nid: int) -> None:
            ready_at[nid] = max(
                (timeline.timings[p].first_stage_end_s
                 for p in graph.nodes[nid].preds), default=0.0)
            heapq.heappush(released, (-priority[nid], nid))
            if graph.nodes[nid].schedule.key_bytes > 0:
                heapq.heappush(ks_queue, (-priority[nid], nid))

        for node in graph.nodes:
            if pending[node.node_id] == 0:
                release(node.node_id)
        # Execution pins held while a node is in flight in simulated
        # time: (end_s, identities), released once the (monotone)
        # dispatch watermark passes end_s.
        live_pins: list = []
        watermark = 0.0
        while released:
            _, node_id = heapq.heappop(released)
            node = graph.nodes[node_id]
            dep_ready = ready_at[node_id]
            home = node.stream % num_clusters
            cluster = home
            start = max(admission(home), dep_ready)
            # Work-stealing with hysteresis: affinity keeps a stream's
            # ops on one cluster (their unit bookings interlock), so
            # another cluster takes the node only when it would start
            # it at least one first-stage earlier — i.e. the home
            # pipeline is genuinely backlogged, not float-jittered.
            margin = self.estimate_first_stage_s(node)
            for c in range(num_clusters):
                other = max(admission(c), dep_ready)
                if other + margin < start:
                    cluster, start = c, other
            if cluster != home:
                timeline.stolen_ops += 1
            watermark = max(watermark, start)
            while live_pins and live_pins[0][0] <= watermark:
                _, identities = heapq.heappop(live_pins)
                prefetcher.unpin_group(identities)
            timeline.pipeline_ready[cluster] = admission(cluster)
            timing, claimed = self.model.execute(
                timeline, node.schedule, node_id, cluster, dep_ready,
                prefetcher=prefetcher)
            timeline.timings[node_id] = timing
            timeline.order.append(node_id)
            if claimed:
                heapq.heappush(live_pins, (timing.end_s, claimed))
            window = windows[cluster]
            heapq.heappush(window, timing.end_s)
            if len(window) > depth:
                heapq.heappop(window)
            for succ in node.succs:
                pending[succ] -= 1
                if pending[succ] == 0:
                    release(succ)
            # Double-buffered lookahead: start the next scheduled
            # key-switches' fetches behind the one just dispatched.
            self._issue_prefetches(graph, prefetcher, ks_queue, issued,
                                   timeline, ready_at)
        timeline.prefetch_bytes = prefetcher.issued_bytes
        return timeline

    def _issue_prefetches(self, graph, prefetcher: EvkPrefetcher,
                          ks_queue: list, issued: set,
                          timeline: ScheduleTimeline,
                          ready_at: dict) -> None:
        """Issue fetches for the highest-priority released
        key-switches that still lack one, while slots last.

        Each fetch is requested at the consuming node's
        dependency-ready time — when its producers clear their first
        stage the front end provably knows the key is next, and the
        transfer overlaps the node's remaining wait instead of
        queueing at some unrelated dispatch-order time.
        """
        cfg = self.config
        while ks_queue and prefetcher.outstanding < prefetcher.slots:
            _, nid = heapq.heappop(ks_queue)
            if nid in issued or nid in timeline.timings:
                continue  # already prefetched or already executed
            node = graph.nodes[nid]
            schedule: OpSchedule = node.schedule
            identities = key_identities(schedule, cfg.use_minks)
            timeline.hbm_free, issued_bytes = prefetcher.issue(
                nid, identities, schedule.key_bytes_per_key,
                timeline.hbm_free, ready_at.get(nid, 0.0))
            issued.add(nid)
            if issued_bytes:
                timeline.key_bytes += issued_bytes
                timeline.unit_busy_s["hbm"] += \
                    issued_bytes / cfg.hbm_bandwidth_bytes

    @staticmethod
    def _pick_cluster(pipeline_ready: list[float], ready: float) -> int:
        """Best-fit cluster: latest pipeline that is still free by the
        node's dependency-release time (least idle waste); if none is,
        the earliest-free pipeline.

        Ties on equal free times break to the LOWEST cluster index,
        explicitly: the selection must not depend on float identity
        quirks or iteration incidentals, so the same trace always
        yields the same timeline on every Python version (the
        reproducibility regression test pins this).
        """
        feasible = [c for c, free in enumerate(pipeline_ready)
                    if free <= ready]
        if feasible:
            best_free = max(pipeline_ready[c] for c in feasible)
            return next(c for c in feasible
                        if pipeline_ready[c] == best_free)
        best_free = min(pipeline_ready)
        return pipeline_ready.index(best_free)
