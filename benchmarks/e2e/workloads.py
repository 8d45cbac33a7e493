"""The five named workloads of the end-to-end benchmark.

Every workload drives only public functions of ``repro.*`` and has one
definition here — this file is what "HELR-mini step", "hoisted BSGS",
"closed loop", "open loop" and "simulator sweep" mean from now on.
See README.md for why each was chosen and which layer it stresses.

A workload runs inside one worker process (``run.py --phase``):
``execute`` builds everything and warms up (set-up), calls ``ready``,
measures one untraced window (for ``--trace 1``, untraced and traced
iterations in alternation), checks every output outside the timed
windows, and returns a :class:`Result`.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import os
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import trace as tracing

clock = time.perf_counter

MAX_SLOT_ERROR = 1e-2          # CKKS decrypt must land this close
LATENCY_LIMIT_S = 0.25         # serve_open: tail latency limit
BACKLOG_LIMIT = 16             # serve_open: outstanding when arrivals stop
OPEN_RATES = (15, 40, 100)     # serve_open: the fixed arrival rates, rps
CHECK_EVERY = 16               # serve_*: every 16th response is re-derived
COMPUTE_THREADS = min(2, os.cpu_count() or 1)


def no_span(name: str):
    """What ``Workload.span`` is while nothing is traced."""
    return nullcontext()


# -- small statistics ---------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return (median(values),) * 2
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    ``(value, percentile)``; with fewer than 21 samples, the maximum."""
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0.0
    index = len(ordered) - 11 if len(ordered) > 20 else len(ordered) - 1
    return float(ordered[index]), 100.0 * (index + 1) / len(ordered)


def middle_half(values) -> list:
    """The values between the quartiles.  Throughput of an iteration
    loop is taken over these: on the shared box the hypervisor stalls
    every few iterations for up to a second (it takes freed pages back
    and hands them out again), which moved work / wall over all
    iterations by 10% between identical runs."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return ordered[cut:len(ordered) - cut]


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    return sum(os.times()[:4])


# -- results ------------------------------------------------------------------

@dataclass
class Window:
    """One timed window: per-iteration walls and what they produced."""

    walls: list = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    work: float = 0.0            # completed work units (see work_unit)
    outputs: list = field(default_factory=list)
    # traced: (sum of median layer self times + glue, median wall)
    reconcile: tuple | None = None


@dataclass
class Result:
    """What a worker hands back to the runner."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    result_err: float = 0.0
    untraced: Window | None = None
    traced: Window | None = None
    layers: dict = field(default_factory=dict)     # per-layer values
    notes: list = field(default_factory=list)      # human-readable lines

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.failures.append(f"{why} (x{count})")


class Workload:
    """Iteration-style workload: ``iterate()`` is one unit of work."""

    name = ""
    work_unit = ""            # what work_per_s counts
    work_basis = "over the middle half of the iterations"
    work_per_iteration = 0
    min_iterations = 3
    warmup_iterations = 2     # counted in set-up, never timed

    def __init__(self, seed: int, smoke: bool):
        self.seed = int(seed)
        self.smoke = smoke
        self.span = no_span
        self.recorder: tracing.Recorder | None = None
        self.setup_layers: dict = {}

    # subclasses -------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def iterate(self):
        raise NotImplementedError

    def check(self, result: Result, window: Window) -> None:
        raise NotImplementedError

    def layers(self, result: Result, window: Window, groups: list) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        pass

    # the shared flow ----------------------------------------------------
    def measure(self, seconds: float, traced: bool):
        """Timed iterations until ``seconds`` have passed; returns the
        untraced and the traced window.  In a traced run the two
        alternate iteration by iteration, so both see the same state
        of a noisy host and their ratio is the tracing overhead."""
        plain, spans = Window(), Window() if traced else None
        if traced:
            self.recorder = tracing.Recorder()
            patches = tracing.Patches(self.recorder)
        start = clock()
        try:
            for turn in itertools.count():
                tracing_now = traced and turn % 2 == 1
                window = spans if tracing_now else plain
                if tracing_now:
                    patches.on()
                    self.span = self.recorder.span
                cpu0, begin = cpu_seconds(), clock()
                with self.span("iter"):
                    window.outputs.append(self.iterate())
                end = clock()
                window.cpu_s += cpu_seconds() - cpu0
                window.walls.append(end - begin)
                if tracing_now:
                    self.span = no_span
                    patches.off()
                if end - start >= seconds and (not traced or turn % 2) \
                        and len(window.walls) >= self.min_iterations:
                    break
        finally:
            self.span = no_span
            if traced:
                patches.off()
        for window in (plain, spans):
            if window is not None:
                kept = middle_half(window.walls)
                window.work = len(kept) * self.work_per_iteration
                window.wall_s = sum(kept)
        return plain, spans

    def execute(self, plan, ready) -> Result | None:
        try:
            self.setup()
            for _ in range(self.warmup_iterations):
                self.iterate()
            ready()
            if plan.setup_only:
                return None
            result = Result()
            before = self.counters()
            result.untraced, result.traced = self.measure(
                plan.seconds, plan.traced)
            after = self.counters()
            for window in (result.untraced, result.traced):
                if window is not None:
                    result.attempted += len(window.walls)
                    self.check(result, window)
            if plan.traced:
                groups = self.recorder.by_root("iter")
                result.layers = dict(self.setup_layers)
                result.layers.update(
                    self.layers(result, result.traced, groups))
                result.layers.update(
                    {name: after[name] - before[name] for name in after})
                result.layers.update(self.ledger())
            return result
        finally:
            self.close()

    # caches over the timed window (CKKS workloads override) ---------------
    def counters(self) -> dict:
        return {}

    def ledger(self) -> dict:
        return {}


def _per_iteration(groups: list, key: str, name: str) -> list:
    return [group[key].get(name, 0) for group in groups]


def _repeated(result: Result, metric: str, counts: list):
    """A per-iteration count must repeat exactly; returns the first."""
    result.fail(len(set(counts)) > 1,
                f"{metric} varies across iterations: {sorted(set(counts))}")
    return counts[0] if counts else 0


# -- CKKS workloads -------------------------------------------------------------

# wrapped span name -> per-layer self-time metric
CKKS_SELF = {
    "ckks.encoding": "ckks.encoding.self_s",
    "ckks.ntt": "ckks.ntt.self_s",
    "ckks.rns.bconv": "ckks.rns.bconv_self_s",
    "ckks.rns.auto": "ckks.rns.auto_self_s",
    "ckks.rns.ewise": "ckks.rns.ewise_self_s",
    "ckks.keyswitch.hybrid.modup": "ckks.keyswitch.hybrid.modup_s",
    "ckks.keyswitch.hybrid.keymult": "ckks.keyswitch.hybrid.keymult_s",
    "ckks.keyswitch.hybrid.moddown": "ckks.keyswitch.hybrid.moddown_s",
    "ckks.keyswitch.klss.decompose": "ckks.keyswitch.klss.decompose_s",
    "ckks.keyswitch.klss.switch": "ckks.keyswitch.klss.switch_s",
    "ckks.keyswitch.hoisting.permute_acc":
        "ckks.keyswitch.hoisting.permute_acc_s",
}
# wrapped span name -> per-layer count metric (outermost calls)
CKKS_CALLS = {
    "ckks.encoding": "ckks.encoding.calls",
    "ckks.ntt": "ckks.ntt.calls",
    "ckks.rns.bconv": "ckks.rns.bconv_calls",
    "ckks.rns.auto": "ckks.rns.auto_calls",
    "ckks.rns.ewise": "ckks.rns.ewise_calls",
    "ckks.keyswitch.hybrid.keymult": "ckks.keyswitch.hybrid.switches",
    "ckks.keyswitch.klss.switch": "ckks.keyswitch.klss.switches",
    "ckks.keyswitch.hoisting.permute_acc":
        "ckks.keyswitch.hoisting.rotations",
}
# the benchmark's own op spans -> inclusive per-op metric
CKKS_OPS = ("encrypt", "decrypt", "mult_hybrid", "mult_klss",
            "pmult_rescale", "rotate", "hoisted_rotate", "ewise")


class CkksWorkload(Workload):
    """Shared set-up, checks and layer accounting of the CKKS pair."""

    work_unit = "homomorphic ops"

    def params(self):
        raise NotImplementedError

    def build(self) -> None:
        raise NotImplementedError

    def expected(self) -> np.ndarray:
        raise NotImplementedError

    def decrypted(self, output) -> np.ndarray:
        return output

    def setup(self) -> None:
        from repro import obs
        from repro.ckks.context import CkksContext

        obs.configure(enabled=False)
        self.p = self.params()
        self.ctx = CkksContext(self.p, seed=self.seed)
        self.rng = np.random.default_rng(self.seed)
        self.build()

    def keygen(self, make_keys) -> None:
        start = clock()
        make_keys()
        self.setup_layers["ckks.keys.keygen_s"] = clock() - start

    def check(self, result: Result, window: Window) -> None:
        expected = self.expected()
        errors = [float(np.max(np.abs(self.decrypted(out) - expected)))
                  for out in window.outputs]
        result.result_err = max([result.result_err] + errors)
        result.fail(sum(1 for e in errors if not e <= MAX_SLOT_ERROR),
                    f"slot error above {MAX_SLOT_ERROR}")

    def counters(self) -> dict:
        from repro.ckks import ntt, rns

        infos = (rns.plan_cache_info(), ntt.batch_plan_cache_info(),
                 rns.bconv_plan_cache_info(), rns.auto_plan_cache_info())
        return {
            "ckks.plan_cache.misses_steady":
                sum(info.misses for info in infos),
            "ckks.plan_cache.evictions":
                sum(rns.plan_cache_evictions().values()),
        }

    def ledger(self) -> dict:
        """Arena pool misses of one more warmed iteration.  The ledger
        only counts while obs is enabled, so this iteration runs after
        the timed windows and is never timed."""
        from repro import obs
        from repro.backend.arena import ledger_counters

        obs.configure(enabled=True, reset=True)
        try:
            before = sum(ledger_counters().values())
            self.iterate()
            misses = sum(ledger_counters().values()) - before
        finally:
            obs.configure(enabled=False, reset=True)
        return {"backend.arena.misses_steady": misses}

    def layers(self, result: Result, window: Window, groups: list) -> dict:
        out: dict = {}
        walls = [group["wall"] for group in groups]
        wrapped = [sum(group["self"].get(name, 0.0) for name in CKKS_SELF)
                   for group in groups]
        for name, metric in CKKS_SELF.items():
            out[metric] = median(_per_iteration(groups, "self", name))
        for name, metric in CKKS_CALLS.items():
            out[metric] = _repeated(
                result, metric, _per_iteration(groups, "calls", name))
        for op in CKKS_OPS:
            out[f"ckks.context.{op}_s"] = median(
                _per_iteration(groups, "incl", "op." + op))
        out["ckks.context.ops"] = self.work_per_iteration
        out["ckks.context.glue_s"] = median(
            [wall - inside for wall, inside in zip(walls, wrapped)])
        n = self.p.ring_degree
        limbs = out["ckks.ntt.limb_transforms"] = _repeated(
            result, "ckks.ntt.limb_transforms",
            [sum(group["notes"].get("ckks.ntt", ())) for group in groups])
        bconv_bytes = [sum(group["notes"].get("ckks.rns.bconv", ()))
                       for group in groups]
        ntt_s = out["ckks.ntt.self_s"]
        bconv_s = out["ckks.rns.bconv_self_s"]
        out["ckks.ntt.butterflies_per_s"] = (
            limbs * (n // 2) * int(math.log2(n)) / ntt_s if ntt_s else 0.0)
        # computed, not measured: one read and one write of every limb
        out["ckks.ntt.computed_gbps"] = (
            limbs * n * 8 * 2 / ntt_s / 1e9 if ntt_s else 0.0)
        out["ckks.rns.bconv_computed_gbps"] = (
            median(bconv_bytes) / bconv_s / 1e9 if bconv_s else 0.0)
        out["harness.unattributed_share"] = (
            out["ckks.context.glue_s"] / median(walls) if walls else 0.0)
        window.reconcile = (
            sum(out[metric] for metric in CKKS_SELF.values())
            + out["ckks.context.glue_s"], median(walls))
        return out


class HelrStep(CkksWorkload):
    """THE "HELR-mini step": encrypt -> HMult/hybrid+rescale ->
    PMult+rescale -> HMult/KLSS+rescale -> HRot/hybrid -> decrypt at
    Set-II-mini N=4096 (36-bit scale primes, 60-bit KLSS words)."""

    name = "helr_step"
    work_per_iteration = 7   # HMult Rescale PMult Rescale HMult Rescale HRot

    def params(self):
        from repro.ckks.params import set_ii_mini, toy_params

        if self.smoke:
            return toy_params(ring_degree=256)
        return set_ii_mini(ring_degree=4096)

    def build(self) -> None:
        from repro.ckks.keys import HYBRID, KLSS

        ctx, top, slots = self.ctx, self.p.max_level, self.p.num_slots
        self.keygen(lambda: (
            ctx.evaluation_key(HYBRID, top, "mult"),
            ctx.evaluation_key(KLSS, top - 2, "mult"),
            ctx.rotation_key(HYBRID, top - 3, 1)))
        self.message = (self.rng.uniform(-1, 1, slots)
                        + 1j * self.rng.uniform(-1, 1, slots))
        self.weights = self.rng.uniform(0.25, 1.0, slots)

    def expected(self) -> np.ndarray:
        return np.roll((self.message ** 2 * self.weights) ** 2, -1)

    def iterate(self):
        from repro.ckks.keys import HYBRID, KLSS

        ctx, span = self.ctx, self.span
        with span("op.encrypt"):
            ct = ctx.encrypt(self.message)
        with span("op.mult_hybrid"):
            ct = ctx.multiply_rescale(ct, ct, method=HYBRID)
        with span("op.pmult_rescale"):
            ct = ctx.rescale(ctx.multiply_plain(
                ct, ctx.plain_for(ct, self.weights)))
        with span("op.mult_klss"):
            ct = ctx.multiply_rescale(ct, ct, method=KLSS)
        with span("op.rotate"):
            ct = ctx.rotate(ct, 1, method=HYBRID)
        with span("op.decrypt"):
            return ctx.decrypt(ct)


class HoistedBsgs(CkksWorkload):
    """64x64 plaintext matrix x encrypted vector, diagonal method with
    8 baby x 8 giant steps, written here from public ops: one hoisted
    batch of 7 baby rotations, PMult/add against 64 diagonals encoded
    in set-up, 7 giant rotations, one rescale.  No encoding and no
    KLSS inside the loop; the decrypt-check runs after the window."""

    name = "hoisted_bsgs"
    dim, baby = 64, 8

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        if smoke:
            self.dim, self.baby = 16, 4
        self.giant = self.dim // self.baby
        # rotations per matvec: hoisted baby steps + giant steps
        self.work_per_iteration = (self.baby - 1) + (self.giant - 1)

    def params(self):
        from repro.ckks.params import set_ii_mini, toy_params

        if self.smoke:
            return toy_params(ring_degree=256)
        # N=2048, not 4096: encoding the 64 diagonals costs one dense
        # embedding product each, and three cold starts per run must
        # fit the run-time cap (see README "Deviations").
        return set_ii_mini(ring_degree=2048)

    def build(self) -> None:
        from repro.ckks.keys import HYBRID

        ctx, d, bs = self.ctx, self.dim, self.baby
        top = self.p.max_level
        steps = list(range(1, bs)) + [g * bs for g in range(1, self.giant)]
        self.keygen(lambda: [ctx.rotation_key(HYBRID, top, step)
                             for step in steps])
        self.matrix = self.rng.uniform(-1, 1, (d, d)) / 8.0
        self.vector = self.rng.uniform(-1, 1, d)
        self.ct = ctx.encrypt(self.vector)
        rows = np.arange(d)
        self.plains = [
            [ctx.plain_for(self.ct, np.roll(
                self.matrix[rows, (rows + g * bs + b) % d], g * bs))
             for b in range(bs)]
            for g in range(self.giant)]

    def expected(self) -> np.ndarray:
        return np.tile(self.matrix @ self.vector,
                       self.p.num_slots // self.dim)

    def decrypted(self, output) -> np.ndarray:
        return self.ctx.decrypt(output)

    def iterate(self):
        from repro.ckks.keys import HYBRID

        ctx, span, bs = self.ctx, self.span, self.baby
        with span("op.hoisted_rotate"):
            babies = [self.ct] + ctx.hoisted_rotate(
                self.ct, range(1, bs), method=HYBRID)
        result = None
        for g, row in enumerate(self.plains):
            with span("op.ewise"):
                partial = ctx.multiply_plain(babies[0], row[0])
                for baby, plain in zip(babies[1:], row[1:]):
                    partial = ctx.add(
                        partial, ctx.multiply_plain(baby, plain))
            if g:
                with span("op.rotate"):
                    partial = ctx.rotate(partial, g * bs, method=HYBRID)
            with span("op.ewise"):
                result = partial if result is None \
                    else ctx.add(result, partial)
        with span("op.pmult_rescale"):
            return ctx.rescale(result)


# -- simulator sweep -----------------------------------------------------------

SIM_PHASES = {
    "sim.engine": "sim.engine.host_s",
    "sched.simulate": "sched.simulate.host_s",
    "sched.simulate.streams": "sched.simulate.streams_host_s",
    "sched.executor.serial": "sched.executor.serial_s",
    "sched.executor.parallel": "sched.executor.parallel_s",
    "opt.pipeline": "opt.pipeline.host_s",
    "core.aether": "core.aether.host_s",
    # the functional executor's NTT round trips: the one CKKS kernel
    # a sweep does run
    "ckks.ntt": "ckks.ntt.self_s",
}
TABLE5 = ("Bootstrap", "HELR256", "HELR1024", "ResNet-20")
STREAM_TRACES = ("Bootstrap", "HELR256")
CLUSTERS, STREAMS = 4, 4


class SimSuite(Workload):
    """One sweep = the four Table-5 traces through the serial engine,
    the 4-cluster scheduler, 4-stream throughput mode (Bootstrap,
    HELR256), the dataflow optimiser, and the functional executor
    (serial + process pool) on HELR256.  Host time of sim / sched /
    core / opt / hw with no CKKS kernel in it."""

    name = "sim_suite"
    work_unit = "trace ops simulated"
    warmup_iterations = 1

    def setup(self) -> None:
        from repro import obs
        from repro.analysis import figures
        from repro.core.optrace import OpTrace
        from repro.hw.config import FAST_CONFIG
        from repro.sched import (FunctionalExecutor, ScheduledEngine,
                                 serial_reference)
        from repro.workloads import (bootstrap_trace, helr_trace,
                                     resnet20_trace)

        obs.configure(enabled=False)
        cut = 300 if self.smoke else 3000
        traces = {"Bootstrap": bootstrap_trace(),
                  "HELR256": helr_trace(batch=256),
                  "HELR1024": helr_trace(batch=1024),
                  "ResNet-20": resnet20_trace()}
        if self.smoke:
            traces = {name: OpTrace(list(trace)[:cut], name=trace.name)
                      for name, trace in traces.items()}
        else:
            resnet = traces["ResNet-20"]
            traces["ResNet-20"] = OpTrace(
                list(resnet)[:cut], name=f"{resnet.name}[:{cut}]")
        self.traces = traces
        self.config = FAST_CONFIG.with_(name=f"FAST-{CLUSTERS}C",
                                        clusters=CLUSTERS)
        # A resident pool: forking two workers per sweep measured the
        # hypervisor's first-touch cost more than the executor.
        self.executor = FunctionalExecutor(seed=self.seed, persistent=True)
        self.work_per_iteration = (
            2 * sum(len(trace) for trace in traces.values())
            + STREAMS * sum(len(traces[name]) for name in STREAM_TRACES))
        # Accuracy against the paper, on the full traces, once.
        table = figures.table5()
        paper = table["published_ms"]["FAST"]
        self.simulated_ms = dict(table["ours_ms"])
        self.accuracy = sum(abs(table["ours_ms"][name] - paper[name])
                            / paper[name] for name in TABLE5) / len(TABLE5)
        # The library's own serial baseline: the in-order engine on the
        # single-cluster slice (what `repro sched` calls "serial").
        helr = traces["HELR256"]
        self.serial_s = serial_reference(FAST_CONFIG).run(helr).total_s
        one = ScheduledEngine(FAST_CONFIG.with_(name="FAST-1C", clusters=1))
        self.parity = one.run(helr).total_s / self.serial_s

    def iterate(self):
        from repro.ckks.params import SET_II
        from repro.opt import optimise_trace
        from repro.sched import ScheduledEngine
        from repro.sim import Engine

        span, traces = self.span, self.traces
        helr = traces["HELR256"]
        with span("sim.engine"):
            engine = Engine()
            sims = {name: engine.run(trace)
                    for name, trace in traces.items()}
        with span("sched.simulate"):
            scheduled = ScheduledEngine(self.config)
            scheds = {name: scheduled.run(trace)
                      for name, trace in traces.items()}
        with span("sched.simulate.streams"):
            streams = {name: scheduled.run_streams(traces[name], STREAMS)
                       for name in STREAM_TRACES}
        with span("opt.pipeline"):
            opts = {name: optimise_trace(trace, SET_II)
                    for name, trace in traces.items()}
        with span("sched.executor.serial"):
            serial = self.executor.run_serial(helr)
        with span("sched.executor.parallel"):
            parallel, _ = self.executor.run_parallel(
                helr, workers=COMPUTE_THREADS)
        lookups = sum(r.key_cache_hits + r.key_cache_misses
                      for r in sims.values())
        switches = sum(sum(r.method_ops.values()) for r in sims.values())
        before = sum(o.stats.ntt_before for o in opts.values())
        return {
            "simulated": [r.total_s for group in (sims, scheds, streams)
                          for r in group.values()],
            "violations": sum(r.dependency_violations for group in
                              (scheds, streams) for r in group.values()),
            "bit_exact": all(np.array_equal(serial[ct], parallel[ct])
                             for ct in serial),
            "speedup_4c": self.serial_s / scheds["HELR256"].total_s,
            "amortized_4c4s": self.serial_s
            / streams["HELR256"].amortized_s,
            "ntt_removed_share": sum(o.stats.ntt_removed
                                     for o in opts.values()) / before,
            "klss_share": sum(r.method_ops.get("klss", 0)
                              for r in sims.values()) / switches,
            "key_hit_rate": sum(r.key_cache_hits
                                for r in sims.values()) / lookups,
            "hbm_gbytes": sum(r.hbm_bytes for r in sims.values()) / 1e9,
        }

    def close(self) -> None:
        self.executor.close()

    def check(self, result: Result, window: Window) -> None:
        first = window.outputs[0]
        result.result_err = self.accuracy
        result.fail(sum(1 for out in window.outputs
                        if out["simulated"] != first["simulated"]),
                    "simulated time differs between sweeps")
        result.fail(sum(1 for out in window.outputs if out["violations"]),
                    "scheduler dependency violations")
        result.fail(sum(1 for out in window.outputs
                        if not out["bit_exact"]),
                    "parallel executor not bit-exact with serial")

    def layers(self, result: Result, window: Window, groups: list) -> dict:
        out = {metric: median(_per_iteration(groups, "self", name))
               for name, metric in SIM_PHASES.items()}
        walls = [group["wall"] for group in groups]
        sim_ops = sum(len(trace) for trace in self.traces.values())
        out["sim.engine.host_us_per_op"] = \
            out["sim.engine.host_s"] / sim_ops * 1e6
        inside = [sum(group["self"].values()) for group in groups]
        glue = median([w - i for w, i in zip(walls, inside)])
        out["harness.unattributed_share"] = glue / median(walls)
        window.reconcile = (
            sum(out[m] for m in SIM_PHASES.values()) + glue, median(walls))
        last = window.outputs[-1]
        for name in TABLE5:
            out[f"sim.engine.simulated_ms.{name}"] = self.simulated_ms[name]
        out["sim.engine.parity_1c"] = self.parity
        out["sched.simulate.speedup_4c.HELR256"] = last["speedup_4c"]
        out["sched.simulate.amortized_speedup_4c4s.HELR256"] = \
            last["amortized_4c4s"]
        out["sched.scheduler.violations"] = sum(
            o["violations"] for o in window.outputs)
        out["sched.executor.bit_exact"] = int(all(
            o["bit_exact"] for o in window.outputs))
        out["opt.pipeline.ntt_removed_share"] = last["ntt_removed_share"]
        out["core.aether.klss_share"] = last["klss_share"]
        out["core.hemera.key_hit_rate"] = last["key_hit_rate"]
        out["hw.memory.hbm_gbytes"] = last["hbm_gbytes"]
        return out


# -- serving ---------------------------------------------------------------------

TENANTS, CONCURRENCY = 8, 2
SHAPE = "helr-mini-step"


@dataclass
class Served:
    """One request as the load generator saw it."""

    request_id: int
    reference_s: float      # submit time (closed) or due time (open)
    sent_s: float
    done_s: float
    response: object

    @property
    def latency_s(self) -> float:
        return self.done_s - self.reference_s


class ServeWorkload(Workload):
    """Shared server lifecycle, digest check and per-layer accounting
    for the two arrival disciplines (one ``asyncio.run`` per worker)."""

    work_unit = "requests"
    work_basis = "from first submit to last response"
    digests_wrong = digests_checked = 0

    def request_base(self) -> int:
        # Distinct seeds give disjoint request ids, hence distinct data
        # seeds (request_seed mixes the id into the server's base seed).
        return (self.seed % (1 << 20)) << 24

    def make_server(self):
        from repro.serve import FheServer, ServerConfig

        return FheServer(ServerConfig())

    async def submit(self, server, served: list, rid: int, reference: float,
                     tenant: int) -> None:
        sent = clock()
        response = await server.submit(f"tenant-{tenant}", shape=SHAPE,
                                       request_id=rid)
        served.append(Served(rid, reference if reference else sent, sent,
                             clock(), response))

    async def closed_loop(self, server, ids, minimum: int,
                          deadline: float = 0.0) -> list:
        """TENANTS x CONCURRENCY clients, each keeping one request in
        flight, until ``minimum`` requests were issued and the
        ``deadline`` (on ``clock``) has passed."""
        served: list = []
        issued = itertools.count()

        async def client(tenant: int) -> None:
            while next(issued) < minimum or clock() < deadline:
                await self.submit(server, served, next(ids), 0.0, tenant)

        await asyncio.gather(*(client(tenant) for tenant in range(TENANTS)
                               for _ in range(CONCURRENCY)))
        return served

    def execute(self, plan, ready) -> Result | None:
        from repro import obs

        obs.configure(enabled=False)
        return asyncio.run(self.main(plan, ready))

    async def main(self, plan, ready) -> Result | None:
        raise NotImplementedError

    # checks ---------------------------------------------------------------
    def check_served(self, result: Result, server, served: list) -> None:
        """Response errors, then every 16th digest against the serial
        per-request oracle (after timing, on the server's executor)."""
        from repro.serve import get_shape, request_seed

        result.attempted += len(served)
        result.fail(sum(1 for s in served if not s.response.ok),
                    "response carried an error")
        executor, trace = server.executor, get_shape(SHAPE)
        sample = sorted(served, key=lambda s: s.request_id)[::CHECK_EVERY]
        wrong = 0
        for s in sample:
            state = executor.run_serial(
                trace, request_seed(server.config.seed, s.request_id))
            wrong += executor.digest_serial(state) != s.response.digest
        result.fail(wrong, "digest differs from ServeExecutor.run_serial")
        self.digests_wrong += wrong
        self.digests_checked += len(sample)
        result.result_err = self.digests_wrong / self.digests_checked

    # per-layer ---------------------------------------------------------------
    def serve_layers(self, server, served: list, groups: list,
                     wall_s: float) -> dict:
        """Queue wait, batch time and overhead per request from the
        ``run_batch`` spans (a request is found in its batch through
        ``request_seed``), plus the server's own tallies."""
        from repro.serve import request_seed

        batch_of = {seed: group for group in groups
                    for seed in group["note"]}
        waits, overheads, ours = [], [], {}
        for s in served:
            group = batch_of.get(
                request_seed(server.config.seed, s.request_id))
            if group is None:
                continue
            ours[id(group)] = group
            wait = group["start"] - s.reference_s
            waits.append(wait)
            overheads.append(s.latency_s - wait - group["wall"])
        ours = list(ours.values())
        busy = sum(group["wall"] for group in ours)
        mean_batch = len(waits) / len(ours) if ours else 0.0
        latency = median([s.latency_s for s in served])
        tenancy = server.tenants.to_dict()
        return {
            "serve.server.queue_wait_p50_s": median(waits),
            "serve.server.overhead_p50_s": median(overheads),
            "serve.server.max_queue_depth": server.max_queue_depth,
            "serve.batcher.mean_batch": mean_batch,
            "serve.batcher.batches": len(ours),
            "serve.batcher.occupancy": mean_batch / server.config.max_batch,
            "serve.engine.batch_p50_s": median(
                [group["wall"] for group in ours]),
            "serve.engine.busy_share": busy / wall_s if wall_s else 0.0,
            "serve.engine.ntt_self_s": (
                sum(group["self"].get("serve.engine.ntt", 0.0)
                    for group in ours) / len(ours) if ours else 0.0),
            "serve.tenants.evk_hit_rate": tenancy["totals"]["evk_hit_rate"],
            "serve.tenants.evictions": tenancy["evictions"]["total"],
            "serve.tenants.pin_violations": tenancy["pin_violations"],
            "harness.unattributed_share": (
                median(overheads) / latency if latency else 0.0),
        }


class ServeClosed(ServeWorkload):
    """Closed loop: 8 tenants x concurrency 2 keep 16 requests in
    flight, so batches fill and the work is ``run_batch``."""

    name = "serve_closed"
    segments = 3      # traced run: untraced/traced pairs of segments

    async def segment(self, server, ids, seconds: float,
                      window: Window) -> None:
        """One closed-loop segment, drained before it returns, added
        to ``window``."""
        cpu0, start = cpu_seconds(), clock()
        served = await self.closed_loop(
            server, ids, 2 * TENANTS * CONCURRENCY, start + seconds)
        window.wall_s += max(s.done_s for s in served) - start
        window.cpu_s += cpu_seconds() - cpu0
        window.walls += [s.latency_s for s in served]
        window.work += sum(1 for s in served if s.response.ok)
        window.outputs += served

    async def main(self, plan, ready) -> Result | None:
        server = self.make_server()
        try:
            ids = itertools.count(self.request_base())
            await self.closed_loop(server, ids, 16 if self.smoke else 64)
            ready()
            if plan.setup_only:
                return None
            result = Result()
            result.untraced = Window()
            if plan.traced:
                # Alternating segments, so both windows see the same
                # state of a noisy host.
                result.traced = Window()
                self.recorder = tracing.Recorder()
                patches = tracing.Patches(self.recorder)
                segments = 1 if self.smoke else self.segments
                share = plan.seconds / (2 * segments)
                for _ in range(segments):
                    await self.segment(server, ids, share, result.untraced)
                    patches.on()
                    try:
                        await self.segment(server, ids, share, result.traced)
                    finally:
                        patches.off()
            else:
                await self.segment(server, ids, plan.seconds,
                                   result.untraced)
        finally:
            await server.close()
        for window in (result.untraced, result.traced):
            if window is not None:
                self.check_served(result, server, window.outputs)
        if plan.traced:
            result.layers.update(self.serve_layers(
                server, result.traced.outputs,
                self.recorder.by_root("serve.engine.batch"),
                result.traced.wall_s))
        return result


class ServeOpen(ServeWorkload):
    """Open loop on an absolute schedule at 15, 40 and 100 rps, a
    fresh server per rate: independent arrivals, so the admission
    window, per-batch overhead and queueing dominate."""

    name = "serve_open"
    warm_requests = 4
    trace_block = 8   # traced run, first rate: requests per on/off block

    def requests_per_rate(self, seconds: float) -> int:
        # the three rates together take about count * (1/15 + 2/25) s
        # while the server saturates near 25 rps
        return 12 if self.smoke else max(24, round(6.8 * seconds))

    async def warm(self, server, ids) -> None:
        served: list = []
        for _ in range(self.warm_requests):
            await self.submit(server, served, next(ids), 0.0, 0)

    async def one_rate(self, server, ids, rate: int, count: int,
                       toggle=None) -> dict:
        """Request k is due at k/rate; latency counts from the due
        time, whatever the generator or the server was doing.  With
        ``toggle`` (the traced run's patches) tracing alternates in
        blocks of ``trace_block`` requests and ``traced`` lists the
        ids sent while it was on."""
        served: list = []
        tasks = []
        traced = set()
        cpu0 = cpu_seconds()
        start = clock() + 0.02
        for k in range(count):
            due = start + k / rate
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            rid = next(ids)
            if toggle is not None:
                block, first = divmod(k, self.trace_block)
                if not first:
                    (toggle.on if block % 2 else toggle.off)()
                if block % 2:
                    traced.add(rid)
            tasks.append(asyncio.ensure_future(self.submit(
                server, served, rid, due, k % TENANTS)))
        await asyncio.sleep(0)          # the last arrival enters the queue
        backlog = sum(1 for task in tasks if not task.done())
        await asyncio.gather(*tasks)
        latencies = [s.latency_s for s in served]
        tail_s, tail_pct = tail(latencies)
        errors = sum(1 for s in served if not s.response.ok)
        return {
            "rate": rate, "served": served, "traced": traced,
            "backlog_end": backlog,
            "wall_s": max(s.done_s for s in served) - start,
            "cpu_s": cpu_seconds() - cpu0,
            "latency_p50_s": median(latencies),
            "latency_tail_s": tail_s, "tail_pct": tail_pct,
            "late_s": [s.sent_s - s.reference_s for s in served],
            "ok": int(tail_s <= LATENCY_LIMIT_S and not errors
                      and backlog <= BACKLOG_LIMIT),
        }

    async def main(self, plan, ready) -> Result | None:
        """One fresh, warmed server per rate.  An iteration is one
        request of the first rate; in a traced run that rate alternates
        traced and untraced blocks and the higher rates run traced."""
        ids = itertools.count(self.request_base())
        count = self.requests_per_rate(plan.seconds)
        patches = None
        if plan.traced:
            self.recorder = tracing.Recorder()
            patches = tracing.Patches(self.recorder)
        runs, servers = [], []
        for rate in OPEN_RATES:
            server = self.make_server()
            try:
                await self.warm(server, ids)
                if not runs:
                    ready()
                    if plan.setup_only:
                        return None
                if patches is not None and runs:
                    patches.on()
                runs.append(await self.one_rate(
                    server, ids, rate, count, None if runs else patches))
            finally:
                if patches is not None:
                    patches.off()
                await server.close()
            servers.append(server)
        result = Result()
        for run, server in zip(runs, servers):
            self.check_served(result, server, run["served"])
            result.notes.append(
                f"{run['rate']} rps: latency p50 {run['latency_p50_s']:.6f} s"
                f"  p{run['tail_pct']:.0f} {run['latency_tail_s']:.6f} s  "
                f"n {len(run['served'])}  backlog at end "
                f"{run['backlog_end']}  meets limit: {bool(run['ok'])}")
        first = runs[0]
        result.untraced, result.traced = Window(), None
        untraced = [s for s in first["served"]
                    if s.request_id not in first["traced"]]
        result.untraced.walls = [s.latency_s for s in untraced]
        result.untraced.wall_s = sum(run["wall_s"] for run in runs)
        result.untraced.work = sum(1 for run in runs for s in run["served"]
                                   if s.response.ok)
        per_request = first["cpu_s"] / len(first["served"])
        result.untraced.cpu_s = per_request * len(untraced)
        if plan.traced:
            traced = [s for s in first["served"]
                      if s.request_id in first["traced"]]
            result.traced = Window(
                walls=[s.latency_s for s in traced],
                wall_s=len(traced) / first["rate"],
                cpu_s=per_request * len(traced))
            result.layers.update(self.open_layers(
                runs, servers[0], traced, result.traced.wall_s))
        return result

    def open_layers(self, runs: list, server, traced: list,
                    wall_s: float) -> dict:
        out = self.serve_layers(
            server, traced, self.recorder.by_root("serve.engine.batch"),
            wall_s)
        out["serve.loadgen.late_p50_s"] = median(
            [late for run in runs for late in run["late_s"]])
        sustained = [run["rate"] for run in runs if run["ok"]]
        out["serve.loadgen.rate_sustained"] = max(sustained, default=0)
        for run in runs:
            prefix = f"serve.rate{run['rate']}."
            out[prefix + "latency_p50_s"] = run["latency_p50_s"]
            out[prefix + "latency_tail_s"] = run["latency_tail_s"]
            out[prefix + "backlog_end"] = run["backlog_end"]
            out[prefix + "ok"] = run["ok"]
        return out


WORKLOADS = {cls.name: cls for cls in
             (HelrStep, HoistedBsgs, ServeClosed, ServeOpen, SimSuite)}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
