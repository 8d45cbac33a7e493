"""Functional multiprocess executor: dependency proof by execution.

The cycle model asserts the cluster schedule respects the dataflow
DAG; this module *proves* it on real data.  Every ciphertext becomes a
small RNS polynomial (``limbs x N`` residue matrix over NTT-friendly
primes) and every trace op becomes a deterministic, order-sensitive
transform of its ciphertext:

* plain ops apply an element-wise affine map ``x -> a*x + b`` with
  per-op pseudorandom ``a``/``b`` (affine maps do not commute);
* key-switch ops apply the affine map in the NTT domain
  (forward -> affine -> inverse), which does not commute with the
  coefficient-domain maps;
* rotations additionally apply the negacyclic shift ``x -> X^r * x``
  (a signed permutation, non-commuting with non-constant affines).

Running the DAG out of order therefore yields different bits with
overwhelming probability.

This module holds the one copy of each moving part, shared with the
serving layer (:mod:`repro.serve.engine`):

* **one op body** — :func:`apply_op` transforms a ``(B, limbs, N)``
  uint64 stack in place, ``B`` independent data seeds at once.  The
  affine parameters derive from ``(seed, op index, limb)`` through a
  vectorised SplitMix64 chain (:func:`op_params`), so row ``b`` of a
  batch and a ``B = 1`` run on seed ``b`` evaluate the same function.
  :class:`FunctionalExecutor` runs it at ``B = 1``, the serving layer
  at ``B = batch``;
* **one worker context** — :func:`worker_context`, per-process and
  lazily cached, so a forked pool worker inherits or rebuilds it on
  first use.  Its ``reference`` variant swaps the fused NTT for the
  Python-int reference network (the serving layer's serial oracle);
* **one DAG-ready dispatcher** — :func:`dispatch_ready`, and one
  pooled run over a shared-memory arena (:func:`run_pooled`).

:meth:`FunctionalExecutor.verify` executes a trace twice — serially in
program order, and across a fork-based process pool with nodes
dispatched purely by DAG readiness — and compares bit-for-bit.  Each
node touches only its own ciphertext's rows and the DAG chains
same-ciphertext nodes, so concurrent nodes never alias: bit-equality
demonstrates the dependency discipline end to end.  A plain trace is
the one-stream case of the merged multi-stream run.

When the platform cannot fork a pool (restricted sandboxes), the
parallel run degrades to in-process execution in DAG order — still a
reordering of the program, just not a concurrent one — and reports
``parallel=False``.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import lru_cache

import multiprocessing
from multiprocessing import shared_memory

import numpy as np

from repro import obs
from repro.ckks import modmath, primes
from repro.ckks.ntt import NttPlan
from repro.ckks.rns import get_plan
from repro.core.optrace import OpTrace

from repro.sched.graph import DataflowGraph, GraphNode

_MASK = 0xFFFFFFFFFFFFFFFF
_MIX = 0x9E3779B97F4A7C15  # golden-ratio odd constant for seed mixing

#: what a pool that cannot be created, or broke mid-run, raises
POOL_ERRORS = (OSError, ValueError, PermissionError, BrokenProcessPool)


class DatapathWidthError(ValueError):
    """``prime_bits`` asks for moduli the ``(B, limbs, N)`` uint64
    stacks cannot hold."""


def check_prime_bits(prime_bits: int) -> None:
    """Reject moduli beyond the uint64 datapath (``modmath``'s wide
    bound, 62 bits) before any prime search or allocation."""
    if modmath.width_path(1 << (int(prime_bits) - 1)) == modmath.OBJECT:
        raise DatapathWidthError(
            f"prime_bits={prime_bits} is outside the uint64 datapath: "
            f"the functional executors stack residues as uint64 and "
            f"support at most 62-bit primes")


def derive_seed(base_seed: int, index: int) -> int:
    """Independent data seed number ``index`` under ``base_seed``
    (a stream of a merged run, a request of the serving layer);
    index 0 keeps the base seed."""
    return (base_seed ^ (index * _MIX)) & _MASK


# -- seeded parameters: a vectorised SplitMix64 chain ----------------------
# (Steele et al.)  The finaliser is a bijection on 64-bit words, so
# distinct (seed, op, limb) tuples keep distinct parameter streams.

_C1 = np.uint64(0x9E3779B97F4A7C15)
_C2 = np.uint64(0xBF58476D1CE4E5B9)
_C3 = np.uint64(0x94D049BB133111EB)
_SHIFT30 = np.uint64(30)
_SHIFT27 = np.uint64(27)
_SHIFT31 = np.uint64(31)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorised SplitMix64 finaliser over a uint64 array."""
    z = x + _C1
    z = (z ^ (z >> _SHIFT30)) * _C2
    z = (z ^ (z >> _SHIFT27)) * _C3
    return z ^ (z >> _SHIFT31)


def _mix_key(*parts: int) -> np.uint64:
    """One uint64 tweak from a few small integers (order-sensitive)."""
    acc = 0
    for part in parts:
        acc = (acc * 0x100000001B3 + (int(part) & _MASK) + 1) & _MASK
    return np.uint64(acc)


def op_params(seeds: np.ndarray, index: int, limb: int, q: int,
              counter: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-seed affine parameters of op ``index`` on limb ``limb``.

    ``seeds`` is the ``(B,)`` uint64 seed vector; returns
    ``(scale (B,), offsets (B, N))`` with scales in ``[1, q-1]``
    (invertible) and offsets canonical in ``[0, q)``.  The whole
    derivation is uint64 wraparound arithmetic — identical bits for a
    batch row and for a 1-seed evaluation.
    """
    base = splitmix64(seeds ^ _mix_key(index, limb))
    scale = base % np.uint64(q - 1) + np.uint64(1)
    offsets = splitmix64(base[:, None] + counter[None, :]) % np.uint64(q)
    return scale, offsets


def fresh_params(seeds: np.ndarray, ct_id: int, limb: int, q: int,
                 counter: np.ndarray) -> np.ndarray:
    """Per-seed initial residues ``(B, N)`` of ciphertext ``ct_id``."""
    base = splitmix64(seeds ^ _mix_key(0x5EED, ct_id, limb))
    return splitmix64(base[:, None] + counter[None, :]) % np.uint64(q)


def seed_array(seeds) -> np.ndarray:
    """``(B,)`` uint64 seed vector."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        return seeds        # already built by the caller
    return np.array([int(s) & _MASK for s in seeds], dtype=np.uint64)


# -- the op body ------------------------------------------------------------

class RowNtt:
    """One limb's negacyclic NTT over ``(B, N)`` uint64 rows.

    A holder around one :class:`~repro.ckks.ntt.NttPlan`: copies the
    rows and runs the copy through the plan's in-place rows entry
    point, so every row equals the scalar plan's transform of that
    row bit for bit.  ``reference=True`` holds a plan of its own and
    runs the reference network on it (rows cross to Python ints and
    back) — the oracle never shares butterflies with what it vets.
    """

    def __init__(self, ring_degree: int, modulus: int,
                 reference: bool = False):
        self.n = int(ring_degree)
        self.modulus = int(modulus)
        self.reference = reference
        if reference:
            self._plan = NttPlan(self.n, self.modulus)
        else:
            self._plan = get_plan(self.n, self.modulus)

    def _transform(self, rows, inverse: bool) -> np.ndarray:
        plan = self._plan
        a = np.array(rows, dtype=object if self.reference else np.uint64)
        if inverse:
            plan.inverse_rows(a)
        else:
            plan.forward_rows(a)
        return a if a.dtype == np.uint64 else a.astype(np.uint64)

    def forward(self, rows: np.ndarray) -> np.ndarray:
        """Coefficient -> evaluation form, every row at once."""
        return self._transform(rows, inverse=False)

    def inverse(self, rows: np.ndarray) -> np.ndarray:
        """Evaluation -> coefficient form, every row at once."""
        return self._transform(rows, inverse=True)


def _affine(rows: np.ndarray, scale: np.ndarray, offsets: np.ndarray,
            q: int) -> np.ndarray:
    """Canonical ``rows * scale + offsets mod q`` with one scalar per
    row.  The scale is the fixed operand of its row, so the multiply
    is the lazy Shoup one (exact in ``[0, 2q)`` for any ``q < 2^62``);
    adding a canonical offset stays below ``3q < 2^64`` and two folds
    finish."""
    qq = np.uint64(q)
    s = modmath.mul_shoup_lazy(
        rows, scale[:, None],
        modmath.shoup_companions(scale, q)[:, None], qq) + offsets
    s = np.where(s >= qq, s - qq, s)
    return np.where(s >= qq, s - qq, s)


def apply_op(ct3: np.ndarray, index: int, rotation: int,
             needs_key_switch: bool, seeds: np.ndarray,
             ctx: dict) -> None:
    """Apply op ``index``'s transform to one ciphertext's ``(B, limbs,
    N)`` stack in place — row ``b`` under ``seeds[b]``."""
    n = ctx["n"]
    counter = ctx["counter"]
    r = rotation % n if rotation else 0
    for j, (q, ntt) in enumerate(zip(ctx["moduli"], ctx["ntts"])):
        scale, offsets = op_params(seeds, index, j, q, counter)
        rows = ct3[:, j, :]
        if needs_key_switch:
            evals = _affine(ntt.forward(rows), scale, offsets, q)
            rows = ntt.inverse(evals)
        else:
            rows = _affine(rows, scale, offsets, q)
        if r:
            rows = np.roll(rows, r, axis=1)
            head = rows[:, :r]
            rows[:, :r] = np.where(head == 0, head, np.uint64(q) - head)
        ct3[:, j, :] = rows


def fresh_stack(ct_id: int, seeds: np.ndarray, ctx: dict) -> np.ndarray:
    """Initial ``(B, limbs, N)`` residue stack of ciphertext ``ct_id``."""
    moduli = ctx["moduli"]
    stack = np.empty((len(seeds), len(moduli), ctx["n"]), np.uint64)
    for j, q in enumerate(moduli):
        stack[:, j, :] = fresh_params(seeds, ct_id, j, q, ctx["counter"])
    return stack


@lru_cache(maxsize=8)
def worker_context(moduli: tuple[int, ...], ring_degree: int,
                   reference: bool = False,
                   row_ntt: type = RowNtt) -> dict:
    """Per-process op-body context (pool workers build it lazily).

    ``row_ntt`` lets the serving layer hold its own
    :class:`RowNtt` subclass, so its batch transforms stay
    attributable under their own name.
    """
    return {
        "moduli": moduli,
        "n": ring_degree,
        "counter": np.arange(1, ring_degree + 1, dtype=np.uint64) * _C3,
        "ntts": [row_ntt(ring_degree, q, reference=reference)
                 for q in moduli],
    }


# -- DAG-ready dispatch over a fork pool ------------------------------------

def node_items(node: GraphNode) -> list[tuple]:
    """``(op index, rotation, needs_key_switch)`` per member op."""
    return [(index, op.rotation, op.needs_key_switch)
            for index, op in zip(node.indices, node.ops)]


def dispatch_ready(graph: DataflowGraph, submit, lanes: int) -> None:
    """Run every node of ``graph`` purely by DAG readiness.

    ``submit(nodes)`` starts one task over a list of ready nodes and
    returns its future; a node is handed out only after its last
    predecessor finished.  At most ``lanes`` tasks are in flight and
    the ready nodes are shared out evenly among the free lanes (one
    round trip per node keeps the dispatcher as busy as a worker;
    DESIGN.md Sec. 12).  Worker exceptions surface here.
    """
    indegree = {n.node_id: len(n.preds) for n in graph.nodes}
    ready = [nid for nid, deg in indegree.items() if deg == 0]
    in_flight: dict = {}
    done = 0
    while done < len(graph.nodes):
        while ready and len(in_flight) < lanes:
            share = -(-len(ready) // (lanes - len(in_flight)))
            chunk, ready = ready[-share:], ready[:-share]
            in_flight[submit([graph.node(nid) for nid in chunk])] = chunk
        finished, _ = wait(in_flight, return_when=FIRST_COMPLETED)
        for future in finished:
            chunk = in_flight.pop(future)
            future.result()
            done += len(chunk)
            for nid in chunk:
                for succ in graph.node(nid).succs:
                    indegree[succ] -= 1
                    if indegree[succ] == 0:
                        ready.append(succ)


def _run_nodes(shm_name: str, shape: tuple, tasks: list[tuple],
               moduli: tuple[int, ...], ring_degree: int) -> None:
    """Pool task: apply each ``(slot, items, seeds)`` node to its slot
    of the shared arena (self-contained: the worker builds its context
    on first use)."""
    ctx = worker_context(tuple(moduli), int(ring_degree))
    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        arena = np.ndarray(shape, dtype=np.uint64, buffer=shm.buf)
        for slot, items, seeds in tasks:
            seeds_arr = seed_array(seeds)
            for index, rotation, needs_ks in items:
                apply_op(arena[slot], index, rotation, needs_ks,
                         seeds_arr, ctx)
    finally:
        shm.close()


def run_pooled(pool, lanes: int, graph: DataflowGraph, stacks: list,
               slot_of, seeds_of, moduli: tuple[int, ...],
               ring_degree: int) -> list:
    """One DAG-ready-order run over ``lanes`` workers of ``pool`` and a
    shared-memory arena.

    ``stacks[i]`` is the initial ``(B, limbs, N)`` uint64 stack of
    slot ``i``; ``slot_of(node)`` / ``seeds_of(node)`` name the slot a
    node transforms and the ``B`` seeds it runs under.  Returns the
    final stacks.
    """
    shape = (len(stacks),) + tuple(stacks[0].shape)
    shm = shared_memory.SharedMemory(
        create=True, size=max(int(np.prod(shape)) * 8, 8))
    try:
        arena = np.ndarray(shape, dtype=np.uint64, buffer=shm.buf)
        for slot, stack in enumerate(stacks):
            arena[slot] = stack
        dispatch_ready(graph, lambda nodes: pool.submit(
            _run_nodes, shm.name, shape,
            [(slot_of(n), node_items(n), seeds_of(n)) for n in nodes],
            moduli, ring_degree), lanes)
        return [arena[slot].copy() for slot in range(len(stacks))]
    finally:
        shm.close()
        shm.unlink()


@dataclass
class ExecutionCheck:
    """Result of one serial-vs-parallel bit-exactness run."""

    bit_exact: bool
    parallel: bool
    workers: int
    num_cts: int
    num_ops: int
    num_nodes: int
    mismatched_cts: list = field(default_factory=list)


@dataclass
class StreamExecutionCheck:
    """Result of one merged-vs-independent multi-stream run.

    ``mismatched`` lists ``(stream, local ciphertext id)`` pairs whose
    merged-run bits differ from that stream's independent serial run.
    """

    bit_exact: bool
    parallel: bool
    workers: int
    streams: int
    num_cts: int
    num_ops: int
    num_nodes: int
    mismatched: list = field(default_factory=list)


class FunctionalExecutor:
    """Executes traces functionally, serially or across processes."""

    def __init__(self, ring_degree: int = 256, num_limbs: int = 3,
                 prime_bits: int = 36, seed: int = 20250806,
                 persistent: bool = False):
        check_prime_bits(prime_bits)
        self.ring_degree = ring_degree
        self.seed = seed
        self.moduli = tuple(primes.ntt_primes(
            num_limbs, prime_bits, ring_degree))
        self._ctx = worker_context(self.moduli, ring_degree)
        # Persistent mode keeps one fork pool alive across runs so a
        # server dispatching many small batches does not pay the pool
        # spin-up (fork + worker context build) per batch.
        self.persistent = persistent
        self._pool: ProcessPoolExecutor | None = None
        self._pool_workers = 0

    # -- pool lifecycle ----------------------------------------------------
    def ensure_pool(self, workers: int) -> ProcessPoolExecutor:
        """The fork pool: created on first use, reused across runs,
        grown (recreated) when a caller needs more workers.  Raises
        ``OSError`` where fork is unavailable — callers fall back to
        in-process execution.  Non-persistent executors close it after
        each run."""
        if self._pool is not None and workers <= self._pool_workers:
            obs.get_tracer().count("sched.executor.pool_reuse")
            return self._pool
        self.close()
        self._pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"))
        self._pool_workers = workers
        obs.get_tracer().count("sched.executor.pool_create")
        return self._pool

    def close(self) -> None:
        """Shut down the pool (idempotent; the executor stays usable
        — the next parallel run re-creates it)."""
        pool, self._pool, self._pool_workers = self._pool, None, 0
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "FunctionalExecutor":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- state -------------------------------------------------------------
    def _ct_ids(self, trace: OpTrace) -> list[int]:
        return sorted({op.ct_id for op in trace})

    def stream_seed(self, stream: int) -> int:
        """Stream ``s``'s independent data seed (stream 0 keeps the
        base seed, so a 1-stream merged run equals the plain run)."""
        return derive_seed(self.seed, stream)

    def _seeds(self, seed: int | None) -> np.ndarray:
        return seed_array([self.seed if seed is None else seed])

    def initial_state(self, trace: OpTrace,
                      seed: int | None = None) -> dict[int, np.ndarray]:
        seeds = self._seeds(seed)
        return {ct: fresh_stack(ct, seeds, self._ctx)[0]
                for ct in self._ct_ids(trace)}

    # -- serial reference --------------------------------------------------
    def run_serial(self, trace: OpTrace,
                   seed: int | None = None) -> dict[int, np.ndarray]:
        """Program-order execution: the ground truth."""
        seeds = self._seeds(seed)
        state = self.initial_state(trace, seed)
        for index, op in enumerate(trace):
            apply_op(state[op.ct_id][None], index, op.rotation,
                     op.needs_key_switch, seeds, self._ctx)
        return state

    def run_serial_streams(self, streams) -> list[dict[int, np.ndarray]]:
        """K independent program-order runs, stream ``s`` under
        ``stream_seed(s)`` — the merged run's ground truth."""
        return [self.run_serial(trace, seed=self.stream_seed(s))
                for s, trace in enumerate(streams)]

    # -- parallel execution ------------------------------------------------
    def run_parallel(self, trace: OpTrace,
                     graph: DataflowGraph | None = None,
                     workers: int = 2
                     ) -> tuple[dict[int, np.ndarray], bool]:
        """DAG-ready-order execution over a process pool: the
        one-stream case of :meth:`run_merged`.

        Returns ``(final state, ran_concurrently)``; the second item is
        False when the pool could not be created and the run fell back
        to in-process DAG-order execution.
        """
        if graph is None:
            graph = DataflowGraph.from_trace(trace)
        states, concurrent = self.run_merged([trace], graph, workers)
        return states[0], concurrent

    def _merged_graph(self, streams) -> "DataflowGraph":
        from repro.sched.streams import merge_graphs
        return merge_graphs([DataflowGraph.from_trace(t)
                             for t in streams])

    def run_merged(self, streams, graph: DataflowGraph | None = None,
                   workers: int = 2
                   ) -> tuple[list[dict[int, np.ndarray]], bool]:
        """One DAG-ready-order run of K merged streams.

        ``graph`` must be a stream-tagged merged graph whose node
        ``indices`` and ciphertext ids are *local* to each stream
        (what :func:`~repro.sched.streams.merge_graphs` and
        :func:`~repro.sched.streams.replicate_graph` build; a plain
        single-trace graph is the one-stream case); stream ``s``'s
        nodes execute under ``stream_seed(s)``.  Returns the
        per-stream final states plus the concurrency flag.
        """
        streams = list(getattr(streams, "streams", streams))
        if graph is None:
            graph = self._merged_graph(streams)
        slots = {}
        for nid in range(len(graph.nodes)):
            node = graph.node(nid)
            slots.setdefault((node.stream, node.ct_id), len(slots))
        # Untouched ciphertexts still belong to the comparison.
        for s, trace in enumerate(streams):
            for ct in self._ct_ids(trace):
                slots.setdefault((s, ct), len(slots))
        stacks = self._fresh_stacks(slots)
        try:
            stacks = run_pooled(
                self.ensure_pool(workers), workers, graph, stacks,
                lambda node: slots[(node.stream, node.ct_id)],
                lambda node: [self.stream_seed(node.stream)],
                self.moduli, self.ring_degree)
            concurrent = True
        except POOL_ERRORS:
            self.close()  # a broken resident pool must not be reused
            obs.get_tracer().count("sched.executor.pool_fallback")
            self._run_inline(graph, slots, stacks)
            concurrent = False
        finally:
            if not self.persistent:
                self.close()
        return self._stream_states(streams, slots, stacks), concurrent

    def _fresh_stacks(self, slots: dict) -> list:
        """Initial ``(1, limbs, N)`` stack per ``(stream, ct)`` slot."""
        return [fresh_stack(ct, self._seeds(self.stream_seed(s)),
                            self._ctx) for s, ct in slots]

    @staticmethod
    def _stream_states(streams, slots: dict, stacks: list) -> list[dict]:
        states: list[dict] = [{} for _ in streams]
        for (s, ct), stack in zip(slots, stacks):
            states[s][ct] = stack[0]
        return states

    def _run_inline(self, graph, slots: dict, stacks: list) -> None:
        """Fallback: DAG-order (not program-order) in-process run,
        in place on ``stacks``."""
        for nid in graph.topological_order():
            node = graph.node(nid)
            seeds = self._seeds(self.stream_seed(node.stream))
            ct3 = stacks[slots[(node.stream, node.ct_id)]]
            for index, rotation, needs_ks in node_items(node):
                apply_op(ct3, index, rotation, needs_ks, seeds,
                         self._ctx)

    # -- the proof ---------------------------------------------------------
    def verify(self, trace: OpTrace,
               graph: DataflowGraph | None = None,
               workers: int = 2) -> ExecutionCheck:
        """Serial vs parallel bit-exactness on one trace."""
        tracer = obs.get_tracer()
        with tracer.span("sched.executor.verify", trace=trace.name,
                         workers=workers):
            if graph is None:
                graph = DataflowGraph.from_trace(trace)
            serial = self.run_serial(trace)
            parallel, concurrent = self.run_parallel(
                trace, graph, workers=workers)
            mismatched = [ct for ct in serial
                          if not np.array_equal(serial[ct], parallel[ct])]
            check = ExecutionCheck(
                bit_exact=not mismatched, parallel=concurrent,
                workers=workers, num_cts=len(serial),
                num_ops=len(trace), num_nodes=len(graph.nodes),
                mismatched_cts=mismatched)
        if tracer.enabled:
            tracer.count("sched.executor.verifications")
            if not check.bit_exact:
                tracer.count("sched.executor.mismatches")
        return check

    def verify_streams(self, streams,
                       graph: DataflowGraph | None = None,
                       workers: int = 2) -> StreamExecutionCheck:
        """Merged K-stream execution vs K independent serial runs.

        The merged graph interleaves the streams' nodes arbitrarily
        (subject to per-stream dependencies); bit-equality of every
        stream's final state against its own independent program-order
        run proves the merge fabricated no cross-stream coupling and
        dropped no intra-stream ordering.
        """
        tracer = obs.get_tracer()
        streams = list(getattr(streams, "streams", streams))
        with tracer.span("sched.executor.verify_streams",
                         streams=len(streams), workers=workers):
            if graph is None:
                graph = self._merged_graph(streams)
            reference = self.run_serial_streams(streams)
            merged, concurrent = self.run_merged(
                streams, graph, workers=workers)
            mismatched = [
                (s, ct)
                for s, ref in enumerate(reference)
                for ct in ref
                if not np.array_equal(ref[ct], merged[s][ct])]
            check = StreamExecutionCheck(
                bit_exact=not mismatched, parallel=concurrent,
                workers=workers, streams=len(streams),
                num_cts=sum(len(ref) for ref in reference),
                num_ops=sum(len(t) for t in streams),
                num_nodes=len(graph.nodes),
                mismatched=mismatched)
        if tracer.enabled:
            tracer.count("sched.executor.stream_verifications")
            if not check.bit_exact:
                tracer.count("sched.executor.mismatches")
        return check


def default_workers() -> int:
    """A conservative worker count for the verification runs."""
    return max(2, min(4, (os.cpu_count() or 2) // 2))
