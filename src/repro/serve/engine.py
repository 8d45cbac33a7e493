"""Batch-vectorised functional compute substrate for serving.

The serving layer's geometry over the one op body of
:mod:`repro.sched.executor`: every request's synthetic ciphertexts
are ``limbs x N`` residue matrices over NTT-friendly primes, every
trace op is :func:`~repro.sched.executor.apply_op` (affine map per
limb, applied in the NTT domain for key-switch ops, plus the
negacyclic shift for rotations), and a batch of B admitted requests
runs as one *stacked* ``(B, limbs, N)`` array per ciphertext — one
whole-batch numpy pass per op instead of B interpreted passes, the
software shape of the accelerator amortising its pipelines across
independent requests.  Nothing here re-implements the op: this module
holds the request-axis executor (:class:`ServeExecutor`), the digests,
and :class:`RowBatchNtt`, the serving layer's name for the shared row
transform.

Cross-request batching is **bit-transparent** by construction:

* per-op affine parameters derive from the request seed through a
  vectorised SplitMix64 chain — the serial oracle and the stacked
  path evaluate the *same function* of ``(seed, op index, limb)``;
* the stacked NTT runs the request rows through the limb's
  :class:`repro.ckks.ntt.NttPlan` rows entry point (one
  shared-modulus fused engine), bit-identical to the scalar plan per
  row, while the serial oracle runs the same op body at ``B = 1`` on
  the Python-int **reference** network — the fused engine never vets
  itself;
* all residues stay canonical (``[0, q)``), so mathematically equal
  intermediate values are bit-identical regardless of kernel path.

Hence a request's response digest depends only on its shape and its
request-id-derived seed, never on which batch it landed in — the
property the serving CI gate asserts against a serial per-request
oracle.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.ckks import primes
from repro.core.optrace import OpTrace
from repro.sched.executor import (POOL_ERRORS, RowNtt, apply_op,
                                  check_prime_bits, fresh_stack,
                                  run_pooled, seed_array, worker_context)
from repro.sched.graph import DataflowGraph

from repro.serve.jobs import request_seed


class RowBatchNtt(RowNtt):
    """Negacyclic NTT over ``(B, N)`` request rows sharing one modulus.

    :class:`repro.ckks.ntt.BatchNttPlan` batches the *limb* axis of
    one RNS basis; serving batches the *request* axis of one limb.
    This is :class:`~repro.sched.executor.RowNtt` — a holder around
    the limb's scalar plan, no tables of its own — under the serving
    layer's name: ``forward`` / ``inverse`` are defined here so a
    profiler wrapping them attributes the stacked transforms to
    serving rather than to the scheduler's executor.
    """

    def forward(self, rows: np.ndarray) -> np.ndarray:
        """Coefficient -> evaluation form, every row at once."""
        return super().forward(rows)

    def inverse(self, rows: np.ndarray) -> np.ndarray:
        """Evaluation -> coefficient form, every row at once."""
        return super().inverse(rows)


@dataclass
class ServeCheck:
    """Stacked-batch vs per-request-serial bit-exactness result."""

    bit_exact: bool
    batch: int
    num_ops: int
    num_cts: int
    parallel: bool = False
    mismatched: list = field(default_factory=list)


class ServeExecutor:
    """Executes one shape over a batch of request seeds, stacked.

    ``run_serial`` is the per-request oracle (program order, one
    request, reference NTT plans); ``run_batch`` is the production
    path (program order, all requests stacked per op);
    ``run_batch_pooled`` dispatches stacked tasks of ready nodes over a
    resident :class:`~repro.sched.executor.FunctionalExecutor` fork
    pool in DAG-ready order.  All three run the one op body and
    produce bit-identical per-request states.
    """

    def __init__(self, ring_degree: int = 256, num_limbs: int = 3,
                 prime_bits: int = 36, seed: int = 20250806):
        check_prime_bits(prime_bits)
        self.ring_degree = int(ring_degree)
        self.seed = int(seed)
        self.moduli = tuple(primes.ntt_primes(
            num_limbs, prime_bits, ring_degree))
        self._ctx = worker_context(self.moduli, self.ring_degree,
                                   row_ntt=RowBatchNtt)

    # -- seeds ----------------------------------------------------------
    def request_seed(self, request_id: int) -> int:
        return request_seed(self.seed, request_id)

    # -- state ----------------------------------------------------------
    def _ct_ids(self, trace: OpTrace) -> list[int]:
        return sorted({op.ct_id for op in trace})

    def _fresh(self, trace: OpTrace, seeds_arr: np.ndarray,
               ctx: dict) -> dict[int, np.ndarray]:
        return {ct: fresh_stack(ct, seeds_arr, ctx)
                for ct in self._ct_ids(trace)}

    def initial_state(self, trace: OpTrace,
                      seeds) -> dict[int, np.ndarray]:
        """ct id -> ``(B, limbs, N)`` fresh residue stack."""
        return self._fresh(trace, seed_array(seeds), self._ctx)

    def _run(self, trace: OpTrace, seeds, ctx: dict
             ) -> dict[int, np.ndarray]:
        seeds_arr = seed_array(seeds)
        state = self._fresh(trace, seeds_arr, ctx)
        for index, op in enumerate(trace):
            apply_op(state[op.ct_id], index, op.rotation,
                     op.needs_key_switch, seeds_arr, ctx)
        return state

    # -- serial oracle ---------------------------------------------------
    def run_serial(self, trace: OpTrace,
                   seed: int) -> dict[int, np.ndarray]:
        """Program-order single-request run: the ground truth.  The
        same op body at ``B = 1``, on the Python-int reference NTT
        network — the oracle must not share the fused butterflies the
        stacked path runs."""
        reference = worker_context(self.moduli, self.ring_degree,
                                   reference=True)
        return {ct: stack[0] for ct, stack
                in self._run(trace, [seed], reference).items()}

    # -- stacked execution -----------------------------------------------
    def run_batch(self, trace: OpTrace, seeds) -> dict[int, np.ndarray]:
        """Program-order whole-batch run: each op transforms its
        ciphertext's ``(B, limbs, N)`` stack in one vectorised pass."""
        return self._run(trace, seeds, self._ctx)

    def run_batch_pooled(self, trace: OpTrace, seeds,
                         executor, workers: int = 4
                         ) -> tuple[dict[int, np.ndarray], bool]:
        """DAG-ready-order stacked run over ``executor``'s resident
        fork pool (:meth:`FunctionalExecutor.ensure_pool`); falls
        back to the in-process stacked run when the pool cannot be
        created or breaks, returning ``parallel=False``."""
        seeds_list = [int(s) for s in seeds]    # picklable
        ct_ids = self._ct_ids(trace)
        slots = {ct: i for i, ct in enumerate(ct_ids)}
        initial = self.initial_state(trace, seeds_list)
        try:
            stacks = run_pooled(
                executor.ensure_pool(workers), workers,
                DataflowGraph.from_trace(trace),
                [initial[ct] for ct in ct_ids],
                lambda node: slots[node.ct_id],
                lambda node: seeds_list,
                self.moduli, self.ring_degree)
        except POOL_ERRORS:
            executor.close()
            obs.get_tracer().count("serve.pool_fallback")
            return self.run_batch(trace, seeds_list), False
        return dict(zip(ct_ids, stacks)), True

    # -- digests ---------------------------------------------------------
    def digest_row(self, state: dict[int, np.ndarray],
                   row: int) -> str:
        """Response digest of request ``row`` in a batch state."""
        h = hashlib.blake2b(digest_size=16)
        for ct in sorted(state):
            h.update(ct.to_bytes(8, "little", signed=True))
            h.update(np.ascontiguousarray(state[ct][row]).tobytes())
        return h.hexdigest()

    def digest_serial(self, state: dict[int, np.ndarray]) -> str:
        """Digest of one serial-oracle final state."""
        h = hashlib.blake2b(digest_size=16)
        for ct in sorted(state):
            h.update(ct.to_bytes(8, "little", signed=True))
            h.update(np.ascontiguousarray(
                state[ct], dtype=np.uint64).tobytes())
        return h.hexdigest()

    # -- the proof --------------------------------------------------------
    def verify_batch(self, trace: OpTrace, seeds) -> ServeCheck:
        """Stacked run vs per-request serial oracle, bit-for-bit."""
        seeds_list = [int(s) for s in seeds]
        batched = self.run_batch(trace, seeds_list)
        mismatched = []
        for row, seed in enumerate(seeds_list):
            serial = self.run_serial(trace, seed)
            for ct in serial:
                if not np.array_equal(
                        np.asarray(serial[ct], dtype=np.uint64),
                        batched[ct][row]):
                    mismatched.append((row, ct))
        return ServeCheck(bit_exact=not mismatched,
                          batch=len(seeds_list), num_ops=len(trace),
                          num_cts=len(batched), mismatched=mismatched)
