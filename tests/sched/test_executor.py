"""The functional executor: bit-exactness proves dependency order."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core.optrace import TraceBuilder
from concurrent.futures import Future

from repro.ckks import primes
from repro.sched.executor import (DatapathWidthError, FunctionalExecutor,
                                  _affine, apply_op, dispatch_ready)
from repro.sched.graph import DataflowGraph
from repro.workloads import helr


@pytest.fixture(scope="module")
def executor():
    return FunctionalExecutor(ring_degree=64, num_limbs=2)


def small_trace():
    tb = TraceBuilder("small")
    for _ in range(3):
        ct = tb.fresh_ct()
        tb.hmult(ct, 5)
        tb.hrot(ct, 5, rotation=3)
        tb.rescale(ct, 5)
    return tb.build()


class TestDeterminism:
    def test_serial_runs_are_identical(self, executor):
        trace = small_trace()
        a, b = executor.run_serial(trace), executor.run_serial(trace)
        assert all(np.array_equal(a[ct], b[ct]) for ct in a)

    def test_transforms_are_order_sensitive(self, executor):
        """Swapping two dependent ops must change the bits — otherwise
        bit-equality would prove nothing about ordering."""
        trace = small_trace()
        state = executor.initial_state(trace)
        seeds, ctx = executor._seeds(None), executor._ctx
        forward = state[0].copy()[None]          # (B=1, limbs, N)
        apply_op(forward, 0, 0, True, seeds, ctx)   # HMult
        apply_op(forward, 1, 3, True, seeds, ctx)   # HRot
        swapped = state[0].copy()[None]
        apply_op(swapped, 1, 3, True, seeds, ctx)
        apply_op(swapped, 0, 0, True, seeds, ctx)
        assert not np.array_equal(forward, swapped)

    def test_ops_change_the_ciphertext(self, executor):
        trace = small_trace()
        before = executor.initial_state(trace)
        after = executor.run_serial(trace)
        assert all(not np.array_equal(before[ct], after[ct])
                   for ct in before)


class TestParallelBitExactness:
    def test_small_trace_bit_exact(self, executor):
        check = executor.verify(small_trace(), workers=2)
        assert check.bit_exact
        assert check.mismatched_cts == []
        assert check.num_cts == 3

    def test_helr_iteration_bit_exact(self, executor):
        trace = helr.helr_iteration()
        check = executor.verify(trace, workers=2)
        assert check.bit_exact
        assert check.num_ops == len(trace)

    def test_fused_graph_bit_exact(self, executor):
        """Hoist-fused nodes execute their members in trace order."""
        tb = TraceBuilder("fused")
        ct = tb.fresh_ct()
        tb.rotations(ct, 5, [1, 2, 4], hoisted=True)
        tb.hmult(ct, 5)
        trace = tb.build()
        graph = DataflowGraph.from_trace(trace)
        assert len(graph) == 2
        check = executor.verify(trace, graph=graph, workers=2)
        assert check.bit_exact

    def test_inline_fallback_matches_serial(self, executor, monkeypatch):
        def no_fork(workers):
            raise OSError("fork unavailable")

        monkeypatch.setattr(executor, "ensure_pool", no_fork)
        trace = small_trace()
        serial = executor.run_serial(trace)
        inline, concurrent = executor.run_parallel(trace, workers=2)
        assert not concurrent
        assert all(np.array_equal(serial[ct], inline[ct])
                   for ct in serial)


def fuzzed_trace(seed: int, chains: int, length: int):
    """Random op mix over a few ciphertext chains (fixed by ``seed``)."""
    rng = np.random.default_rng(seed)
    tb = TraceBuilder(f"fuzz{seed}")
    cts = [tb.fresh_ct() for _ in range(chains)]
    for _ in range(length):
        ct = cts[int(rng.integers(chains))]
        kind = int(rng.integers(4))
        if kind == 0:
            tb.hmult(ct, 5)
        elif kind == 1:
            tb.hrot(ct, 5, rotation=int(rng.integers(1, 64)))
        elif kind == 2:
            tb.pmult(ct, 5)
        else:
            tb.rescale(ct, 5)
    return tb.build()


class TestOneStreamIsThePlainRun:
    """``run_parallel(t)`` == ``run_merged([t])[0]`` == ``run_serial(t)``,
    with a fork pool and on the forced in-process fallback."""

    def _assert_equal(self, a, b):
        assert set(a) == set(b)
        for ct in a:
            assert np.array_equal(a[ct], b[ct]), ct

    @settings(deadline=None, max_examples=5)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           chains=st.integers(min_value=1, max_value=4),
           length=st.integers(min_value=1, max_value=24))
    def test_with_pool(self, executor, seed, chains, length):
        trace = fuzzed_trace(seed, chains, length)
        serial = executor.run_serial(trace)
        parallel, _ = executor.run_parallel(trace, workers=2)
        merged, _ = executor.run_merged([trace], workers=2)
        self._assert_equal(serial, parallel)
        self._assert_equal(serial, merged[0])

    def test_forced_inline_fallback_is_counted(self, executor,
                                               monkeypatch):
        def no_fork(workers):
            raise OSError("fork unavailable")

        monkeypatch.setattr(executor, "ensure_pool", no_fork)
        trace = fuzzed_trace(7, 3, 20)
        serial = executor.run_serial(trace)
        obs.configure(enabled=True, reset=True)
        try:
            parallel, concurrent = executor.run_parallel(trace, workers=2)
            merged, merged_concurrent = executor.run_merged([trace],
                                                            workers=2)
            fallbacks = obs.get_tracer().counter_value(
                "sched.executor.pool_fallback")
        finally:
            obs.configure(enabled=False, reset=True)
        assert not concurrent and not merged_concurrent
        assert fallbacks == 2
        self._assert_equal(serial, parallel)
        self._assert_equal(serial, merged[0])


class TestDispatchReady:
    """Ready nodes are shared out among at most ``lanes`` tasks; every
    node runs once, after all of its predecessors."""

    @pytest.mark.parametrize("lanes", [1, 2, 5])
    def test_lanes_order_and_coverage(self, lanes):
        graph = DataflowGraph.from_trace(fuzzed_trace(11, 4, 24))
        ran, in_flight, sizes = set(), set(), []

        class Collected(Future):
            def result(self, timeout=None):
                in_flight.discard(self)     # the dispatcher took it back
                return super().result(timeout)

        def submit(nodes):
            assert len(in_flight) < lanes
            for node in nodes:              # runs here, synchronously
                assert node.node_id not in ran
                assert all(p in ran for p in node.preds)
            ran.update(node.node_id for node in nodes)
            sizes.append(len(nodes))
            future = Collected()
            future.set_result(None)
            in_flight.add(future)
            return future

        dispatch_ready(graph, submit, lanes)
        assert ran == {n.node_id for n in graph.nodes}
        assert sum(sizes) == len(graph.nodes)


class TestAffine:
    @pytest.mark.parametrize("bits", [26, 31, 36, 62])
    def test_matches_python_ints(self, bits):
        n = 64
        q = primes.ntt_primes(1, bits, n)[0]
        rng = np.random.default_rng(bits)
        rows = rng.integers(0, q, size=(5, n), dtype=np.uint64)
        offsets = rng.integers(0, q, size=(5, n), dtype=np.uint64)
        scale = rng.integers(1, q, size=5, dtype=np.uint64)
        rows[0], offsets[0], scale[0] = q - 1, q - 1, q - 1  # worst case
        scale[1] = 1
        got = _affine(rows, scale, offsets, q)
        want = [[(int(x) * int(s) + int(o)) % q for x, o in zip(r, off)]
                for r, s, off in zip(rows, scale, offsets)]
        assert got.dtype == np.uint64 and got.tolist() == want


class TestPrimeBits:
    """The ``(B, limbs, N)`` uint64 stacks hold moduli up to 62 bits."""

    @pytest.mark.parametrize("bits", [31, 62])
    def test_uint64_datapath_widths_accepted(self, bits):
        ex = FunctionalExecutor(ring_degree=64, num_limbs=2,
                                prime_bits=bits)
        assert all(q.bit_length() == bits for q in ex.moduli)
        check = ex.verify(small_trace(), workers=2)
        assert check.bit_exact

    @pytest.mark.parametrize("bits", [63, 64, 66])
    def test_wider_primes_rejected_by_name(self, bits, monkeypatch):
        from repro.ckks import primes

        def no_search(*args, **kwargs):
            raise AssertionError("prime search ran before the check")

        monkeypatch.setattr(primes, "ntt_primes", no_search)
        with pytest.raises(DatapathWidthError, match="prime_bits"):
            FunctionalExecutor(ring_degree=64, prime_bits=bits)
