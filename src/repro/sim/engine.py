"""The queueing cycle simulator: one execution model, the serial engine.

Operations lower to staged kernel tasks (:mod:`repro.sim.kernels`);
:class:`ExecutionModel` then executes one lowered op at a time on a
pipeline's unit set with availability-time queueing:

* tasks inside one stage may overlap on different units;
* stage ``i`` of an op starts only after stage ``i-1`` finishes
  (dataflow dependency);
* an op may enter its pipeline once the op before it there has
  cleared the first (decompose) stage — the limb-level pipelining
  that keeps the NTTU busy;
* the KeyMult stage additionally waits for its evaluation key, which
  Hemera streams over the shared HBM channel (serialised, cached on
  chip with LRU eviction);
* PMult plaintext operands stream from HBM as well (the DFT matrices
  of bootstrapping are far too large to pin on chip) — this is what
  makes FHE memory-bound at 1 TB/s, as Sec. 7.4 observes.

That per-op model is the only one.  Three dispatch orders call it:
in program order on one pipeline (:meth:`ExecutionModel.run_in_order`,
which is :class:`Engine`), and the cluster scheduler's list-scheduled
and software-pipelined orders (:mod:`repro.sched.scheduler`).
:class:`Engine` dispatches in order on the chip-aggregate
:class:`~repro.hw.accelerator.Accelerator` (every cluster ganged on
each op); the scheduler's serial reference is the same loop on the
per-cluster slice.

The result carries total latency, per-unit busy time (utilisation),
per-stage-label latency breakdowns (Fig. 10), kernel op totals
(Fig. 11b) and HBM traffic, feeding every evaluation figure.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, fields, replace

from repro import obs
from repro.ckks.keys import HYBRID
from repro.ckks.keyswitch import cost
from repro.ckks.params import CkksParams, SET_I, SET_II
from repro.core import optrace
from repro.core.aether import Aether, AetherConfig
from repro.core.hemera import KeyCache
from repro.hw.accelerator import Accelerator, KERNEL_AUTOMORPH, KERNEL_UNITS
from repro.hw.config import ChipConfig, FAST_CONFIG
from repro.hw.memory import EvkPrefetcher, UnitTimeline, hbm_transfer
from repro.sim.kernels import KERNEL_DSU, OpSchedule, Policy, lower_trace

UNIT_NAMES = ("nttu", "bconvu", "kmu", "autou", "dsu", "hbm")

# Live ciphertexts a key-switch needs resident (operands, the
# decomposed digits' accumulators, BSGS partial sums) — Fig. 3b's
# working-set convention.
WORKING_SET_CIPHERTEXTS = 4


def key_identities(schedule: OpSchedule, use_minks: bool) -> list[tuple]:
    """One identity per evaluation key the op needs.

    With Min-KS (ARK key reuse) the level is not part of the identity,
    so a rotation key fetched once serves every level.
    """
    op = schedule.op
    level_part = () if use_minks else (op.level,)
    if op.kind == optrace.HMULT:
        return [(schedule.method, "mult", *level_part)]
    if op.kind == optrace.CONJ:
        return [(schedule.method, "conj", *level_part)]
    rotations = schedule.rotations or (op.rotation,)
    return [(schedule.method, "rot", r, *level_part)
            for r in rotations]


@dataclass
class SimulationResult:
    """Everything one simulated run produces.

    ``clusters`` is the number of pipelines the unit set was
    replicated over: 1 for the in-order engine, whose units are either
    chip-aggregate (:class:`Engine`) or one cluster's.
    """

    name: str = ""
    total_s: float = 0.0
    unit_busy_s: dict = field(default_factory=lambda: defaultdict(float))
    stage_s: dict = field(default_factory=lambda: defaultdict(float))
    kernel_modops: dict = field(default_factory=lambda: defaultdict(float))
    method_ops: dict = field(default_factory=lambda: defaultdict(int))
    key_bytes: float = 0.0
    plaintext_bytes: float = 0.0
    key_stall_s: float = 0.0
    num_ops: int = 0
    num_key_switches: int = 0
    key_cache_hits: int = 0
    key_cache_misses: int = 0
    clusters: int = 1

    @property
    def key_cache_hit_rate(self) -> float:
        lookups = self.key_cache_hits + self.key_cache_misses
        return self.key_cache_hits / lookups if lookups else 0.0

    def utilisation(self) -> dict:
        """Unit busy fractions: compute units over ``clusters *
        total_s`` (cluster-summed busy time), the shared HBM channel
        over ``total_s``."""
        if self.total_s <= 0:
            return {u: 0.0 for u in UNIT_NAMES}
        return {u: self.unit_busy_s.get(u, 0.0) /
                (self.total_s if u == "hbm"
                 else self.total_s * self.clusters)
                for u in UNIT_NAMES}

    @property
    def hbm_bytes(self) -> float:
        return self.key_bytes + self.plaintext_bytes


@dataclass
class NodeTiming:
    """When and where one op (graph node) executed."""

    node_id: int
    cluster: int
    start_s: float
    end_s: float
    first_stage_end_s: float
    dep_ready_s: float
    dep_stall_s: float = 0.0
    evk_stall_s: float = 0.0
    hbm_wait_s: float = 0.0


@dataclass
class ClusterTimeline:
    """Per-cluster execution summary."""

    cluster_id: int
    ops: int = 0
    busy_s: dict = field(default_factory=lambda: defaultdict(float))
    first_start_s: float = 0.0
    last_end_s: float = 0.0
    dep_stall_s: float = 0.0
    evk_stall_s: float = 0.0

    def occupancy(self, makespan: float) -> float:
        """Bottleneck-unit busy fraction of the whole makespan."""
        if makespan <= 0:
            return 0.0
        compute = [v for u, v in self.busy_s.items() if u != "hbm"]
        return max(compute, default=0.0) / makespan

    def span_fraction(self, makespan: float) -> float:
        """Fraction of the makespan the cluster had work in flight."""
        if makespan <= 0:
            return 0.0
        return (self.last_end_s - self.first_start_s) / makespan


@dataclass
class ScheduleTimeline(SimulationResult):
    """One dispatch's full record: the run's totals plus per-cluster
    summaries, the stall taxonomy and (for a graph) per-op timings.

    The last four fields are the machine state while it runs: each
    cluster's admission clock and unit clocks, the shared HBM channel
    and the shared on-chip key store (see :meth:`ExecutionModel.start`).
    """

    timings: dict = field(default_factory=dict)   # node_id -> NodeTiming
    order: list = field(default_factory=list)     # dispatch order
    cluster_timelines: list = field(default_factory=list)
    dep_stall_s: float = 0.0
    hbm_wait_s: float = 0.0
    mode: str = "latency"
    prefetch_hits: int = 0
    prefetch_misses: int = 0
    prefetch_bytes: float = 0.0
    stolen_ops: int = 0
    pipeline_ready: list = field(default_factory=list, repr=False)
    unit_free: list = field(default_factory=list, repr=False)
    hbm_free: object = field(default=0.0, repr=False)
    key_cache: KeyCache | None = field(default=None, repr=False)

    @property
    def structural_stall_s(self) -> float:
        """HBM streaming waits plus end-of-schedule drain idle."""
        drain = sum(self.total_s - c.last_end_s
                    for c in self.cluster_timelines)
        return self.hbm_wait_s + drain

    def stall_breakdown(self) -> dict:
        return {
            "dependency_s": self.dep_stall_s,
            "evk_s": self.key_stall_s,
            "structural_s": self.structural_stall_s,
        }

    def violations(self) -> list[str]:
        """Ordering violations (empty = dependency-safe schedule)."""
        problems = []
        for timing in self.timings.values():
            if timing.start_s + 1e-12 < timing.dep_ready_s:
                problems.append(
                    f"node {timing.node_id} started {timing.start_s:.3e}s "
                    f"before its producers allowed "
                    f"({timing.dep_ready_s:.3e}s)")
        return problems


def package(timeline: ScheduleTimeline, name: str,
            cls: type = SimulationResult, **extra) -> SimulationResult:
    """A finished timeline's totals as a result of type ``cls`` (a
    :class:`SimulationResult` subclass; ``extra`` fills its own
    fields)."""
    totals = {f.name: getattr(timeline, f.name)
              for f in fields(SimulationResult)}
    totals["name"] = name
    return cls(**totals, **extra)


class ExecutionModel:
    """Per-op timing on one design point: the simulator's one model.

    ``config`` supplies the shared memory system (HBM bandwidth,
    on-chip data region and key store, Min-KS); ``accelerator`` the
    unit throughputs of one pipeline — chip-aggregate for
    :class:`Engine`, one cluster's for the cluster scheduler.
    """

    def __init__(self, config: ChipConfig, hybrid_params: CkksParams,
                 accelerator: Accelerator):
        self.config = config
        self.hybrid_params = hybrid_params
        self.accelerator = accelerator
        self.data_region = config.onchip_memory_bytes - \
            config.key_storage_bytes
        # OF-Limb: a PMult streams only its single stored plaintext limb.
        self.pt_bytes = hybrid_params.ring_degree * cost.NARROW_WORD_BYTES
        # Modops per cycle, per (kernel, width), evaluated once: the
        # AutoU permutes at its raw element rate, every other unit at
        # its sustained rate.
        self._rate = {
            (kernel, wide): (accelerator.unit_throughput(kernel).at(wide)
                             if kernel == KERNEL_AUTOMORPH
                             else accelerator.sustained_rate(kernel, wide))
            for kernel in KERNEL_UNITS for wide in (False, True)}

    def task_seconds(self, task) -> float:
        """Busy seconds of one kernel task on its unit."""
        if task.kernel == KERNEL_DSU:
            cycles = self.accelerator.aem.dsu.cycles_for_rescale(
                1, int(task.modops))  # elements given directly
        else:
            cycles = task.modops / self._rate[task.kernel, task.wide]
        return cycles / self.config.frequency_hz

    def start(self, num_clusters: int = 1,
              mode: str = "latency") -> ScheduleTimeline:
        """An empty timeline with fresh machine state.

        Latency mode books units and the HBM channel on high-water-mark
        clocks (floats); throughput mode on earliest-fit
        :class:`~repro.hw.memory.UnitTimeline` intervals, so streams
        backfill each other's bubbles.
        """
        clock = UnitTimeline if mode == "throughput" else float
        return ScheduleTimeline(
            clusters=num_clusters, mode=mode,
            cluster_timelines=[ClusterTimeline(c)
                               for c in range(num_clusters)],
            pipeline_ready=[0.0] * num_clusters,
            unit_free=[{u: clock() for u in UNIT_NAMES}
                       for _ in range(num_clusters)],
            hbm_free=clock(),
            key_cache=KeyCache(self.config.key_storage_bytes))

    def run_in_order(self, schedules: list[OpSchedule],
                     preds: list | None = None) -> ScheduleTimeline:
        """Dispatch in program order on one pipeline.

        With a graph's producer lists (``preds[i]`` for op ``i``) each
        op's timing is kept, its dependency-ready time recorded (in-order
        limb pipelining already satisfies it, so it never delays an op).
        Without, the timeline keeps only totals: per-op records of a
        whole trace would hold megabytes nobody reads.
        """
        run = self.start()
        for node_id, schedule in enumerate(schedules):
            if preds is None:
                self.execute(run, schedule, node_id, 0, 0.0)
                continue
            ready = max((run.timings[p].first_stage_end_s
                         for p in preds[node_id]), default=0.0)
            run.timings[node_id], _ = self.execute(run, schedule, node_id,
                                                   0, ready)
            run.order.append(node_id)
        return run

    def execute(self, run: ScheduleTimeline, schedule: OpSchedule,
                node_id: int, cluster: int, dep_ready: float,
                prefetcher: EvkPrefetcher | None = None
                ) -> tuple[NodeTiming, tuple]:
        """Execute one op on ``cluster`` no earlier than ``dep_ready``.

        Books the op into ``run``'s machine state and totals, and
        returns its timing (the dispatcher records it) plus the key
        identities it claimed from ``prefetcher`` (pinned until the
        caller retires the op; empty without a prefetcher).
        """
        cfg = self.config
        tracer = obs.get_tracer()
        tracing = tracer.enabled  # hoisted: one branch per event below
        multi = run.clusters > 1
        op = schedule.op
        pipeline_ready = run.pipeline_ready[cluster]
        op_start = max(pipeline_ready, dep_ready)
        dep_stall = max(0.0, dep_ready - pipeline_ready)
        hbm_free = run.hbm_free
        bandwidth = cfg.hbm_bandwidth_bytes
        run.num_ops += 1
        # -- evaluation-key traffic (shared HBM work queue) -----------------
        key_arrival = 0.0
        operand_arrival = 0.0
        claimed: tuple = ()
        if schedule.key_bytes > 0:
            # One key switch per rotation of a hoist batch (the last
            # batch of a group may be shorter than ``hoisting``).
            switches = len(schedule.indices)
            run.num_key_switches += switches
            run.method_ops[schedule.method] += switches
            identities = key_identities(schedule, cfg.use_minks)
            per_key = schedule.key_bytes_per_key
            if prefetcher is not None:
                # Resolve the group through the double-buffered
                # prefetcher.  Keys come back pinned; the dispatch loop
                # unpins them once the op retires.
                stats, hbm_free = prefetcher.claim(
                    node_id, identities, per_key, hbm_free, op_start)
                claimed = tuple(identities)
                key_arrival = stats.arrival_s
                run.key_cache_hits += stats.cache_hits + stats.prefetch_hits
                run.key_cache_misses += stats.demand_misses
                run.prefetch_hits += stats.prefetch_hits
                run.prefetch_misses += stats.demand_misses
                if stats.demand_bytes:
                    run.key_bytes += stats.demand_bytes
                    run.unit_busy_s["hbm"] += stats.demand_bytes / bandwidth
            else:
                key_cache = run.key_cache
                missing = [k for k in identities
                           if not key_cache.contains(k)]
                run.key_cache_hits += len(identities) - len(missing)
                run.key_cache_misses += len(missing)
                if missing:
                    # Hemera's batch-wise prefetcher keeps the HBM
                    # channel as a work queue: the next key transfer
                    # starts the moment the channel frees up.
                    bytes_needed = per_key * len(missing)
                    duration = bytes_needed / bandwidth
                    hbm_free, key_arrival = hbm_transfer(
                        hbm_free, op_start, duration)
                    run.key_bytes += bytes_needed
                    run.unit_busy_s["hbm"] += duration
                    if tracing:
                        tracer.event("key-fetch", key_arrival - duration,
                                     duration, track="hbm", op=op.kind,
                                     keys=len(missing))
                    for k in missing:
                        key_cache.insert(k, per_key)
            # -- ciphertext working-set spills ------------------------------
            # When the data region (on-chip memory minus the key
            # reserve) cannot hold the level's working set, operands
            # spill to HBM and must stream back before the op's first
            # stage can start.
            spill = WORKING_SET_CIPHERTEXTS * cost.ciphertext_bytes(
                self.hybrid_params, op.level) - self.data_region
            if spill > 0:
                duration = spill / bandwidth
                hbm_free, operand_arrival = hbm_transfer(
                    hbm_free, op_start, duration)
                run.plaintext_bytes += spill
                run.unit_busy_s["hbm"] += duration
                if tracing:
                    tracer.event("spill-refill", operand_arrival - duration,
                                 duration, track="hbm", op=op.kind)
        # -- plaintext streaming for PMult ----------------------------------
        if op.kind == optrace.PMULT:
            duration = self.pt_bytes / bandwidth
            hbm_free, pt_arrival = hbm_transfer(hbm_free, op_start, duration)
            key_arrival = max(key_arrival, pt_arrival)
            run.plaintext_bytes += self.pt_bytes
            run.unit_busy_s["hbm"] += duration
            if tracing:
                tracer.event("pt-stream", pt_arrival - duration, duration,
                             track="hbm", op=op.kind)
        run.hbm_free = hbm_free
        # -- staged execution on this pipeline's units ----------------------
        stage_ready = max(op_start, operand_arrival)
        hbm_wait = max(0.0, operand_arrival - op_start)
        evk_stall = 0.0
        first_stage_end = op_start
        free = run.unit_free[cluster]
        backfill = run.mode == "throughput"
        state = run.cluster_timelines[cluster]
        for stage_idx, tasks in enumerate(schedule.stages):
            if stage_idx == schedule.keymult_stage and \
                    key_arrival > stage_ready:
                stall = key_arrival - stage_ready
                evk_stall += stall
                if tracing:
                    tracer.observe("engine.key_stall_s", stall)
                stage_ready = key_arrival
            stage_end = stage_ready
            for task in tasks:
                unit = KERNEL_UNITS.get(task.kernel, task.kernel)
                seconds = self.task_seconds(task)
                if backfill:
                    begin = free[unit].alloc(stage_ready, seconds)
                else:
                    begin = max(stage_ready, free[unit])
                    free[unit] = begin + seconds
                end = begin + seconds
                state.busy_s[unit] += seconds
                run.unit_busy_s[unit] += seconds
                run.kernel_modops[task.kernel] += task.modops
                if tracing:
                    tracer.event(task.kernel, begin, seconds,
                                 track=f"c{cluster}.{unit}" if multi
                                 else unit, op=op.kind,
                                 stage=task.label or
                                 schedule.stage_label or "main",
                                 wide=task.wide, modops=task.modops)
                stage_end = max(stage_end, end)
            if stage_idx == 0:
                first_stage_end = stage_end
            stage_ready = stage_end
        op_end = stage_ready
        label = schedule.stage_label or "main"
        run.stage_s[label] += op_end - op_start
        if tracing:
            tracer.event(op.kind, op_start, op_end - op_start,
                         track=f"c{cluster}.op" if multi else "op",
                         stage=label, method=schedule.method,
                         level=op.level, hoisting=schedule.hoisting)
        if state.ops == 0:
            state.first_start_s = op_start
        state.ops += 1
        state.last_end_s = max(state.last_end_s, op_end)
        state.dep_stall_s += dep_stall
        state.evk_stall_s += evk_stall
        run.dep_stall_s += dep_stall
        run.key_stall_s += evk_stall
        run.hbm_wait_s += hbm_wait
        run.pipeline_ready[cluster] = first_stage_end
        run.total_s = max(run.total_s, op_end)
        return NodeTiming(
            node_id=node_id, cluster=cluster, start_s=op_start,
            end_s=op_end, first_stage_end_s=first_stage_end,
            dep_ready_s=dep_ready, dep_stall_s=dep_stall,
            evk_stall_s=evk_stall, hbm_wait_s=hbm_wait), claimed


class Engine:
    """Simulates traces on one accelerator design point, in program
    order on one pipeline of chip-aggregate units."""

    def __init__(self, config: ChipConfig = FAST_CONFIG,
                 hybrid_params: CkksParams = SET_I,
                 klss_params: CkksParams = SET_II,
                 policy_mode: str = "aether"):
        self.config = config
        self.accelerator = Accelerator(config,
                                       hybrid_params.ring_degree)
        self.model = ExecutionModel(config, hybrid_params, self.accelerator)
        self.hybrid_params = hybrid_params
        self.klss_params = klss_params
        self.policy_mode = policy_mode
        # Aether decides on the paper's own metric: modular-operation
        # counts (Fig. 2), converted to delay at the chip's effective
        # sustained rate.  The engine's width-aware queueing then
        # executes whatever Aether chose.
        self.aether = Aether(
            hybrid_params, klss_params,
            key_storage_bytes=config.key_storage_bytes,
            hbm_bandwidth=config.hbm_bandwidth_bytes,
            modops_per_second=config.effective_modops_per_second(),
            use_ekg=config.use_ekg,
            use_minks=config.use_minks)

    # -- Aether integration -------------------------------------------------
    def make_policy(self, trace) -> Policy:
        if self.policy_mode == "aether":
            config = self.aether.run(trace)
            if not self.config.supports_klss or \
                    not self.config.supports_hoisting:
                config = self._constrain_config(config)
            return Policy("aether", config)
        return Policy(self.policy_mode)

    def _constrain_config(self, config: AetherConfig) -> AetherConfig:
        """Clamp decisions to what the chip variant supports.

        Returns a fresh config with copied decisions: the input may be
        shared (cached, or reused across engine variants), and clamping
        it in place would corrupt later runs on chips that *do*
        support KLSS/hoisting.
        """
        constrained = AetherConfig()
        for unit_id, decision in config.decisions.items():
            method = decision.method
            hoisting = decision.hoisting
            if not self.config.supports_klss and method != HYBRID:
                method = HYBRID
            if not self.config.supports_hoisting:
                hoisting = 1
            if (method, hoisting) != (decision.method, decision.hoisting):
                decision = replace(decision, method=method,
                                   hoisting=hoisting)
            constrained.decisions[unit_id] = decision
        return constrained

    # -- the run ------------------------------------------------------------
    def run(self, trace, name: str | None = None) -> SimulationResult:
        tracer = obs.get_tracer()
        with tracer.span("engine.run", trace=trace.name, ops=len(trace)):
            policy = self.make_policy(trace)
            schedules = lower_trace(trace, self.aether, policy)
            result = package(self.model.run_in_order(schedules),
                             name or trace.name)
        if tracer.enabled:
            tracer.count("engine.runs")
            tracer.count("engine.ops", result.num_ops)
            tracer.count("engine.key_switches", result.num_key_switches)
            tracer.count("engine.key_cache_hits", result.key_cache_hits)
            tracer.count("engine.key_cache_misses",
                         result.key_cache_misses)
            tracer.observe("engine.sim_total_s", result.total_s)
        return result
