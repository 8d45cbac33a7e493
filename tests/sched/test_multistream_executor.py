"""Differential multi-stream executor tests.

A merged K-stream execution must be bit-exact against K independent
serial runs — per stream, per ciphertext — including interleaved
hybrid and KLSS key-switches at both evaluated word widths (36- and
60-bit primes).  The merged graph interleaves streams arbitrarily, so
equality proves the merge fabricated no cross-stream coupling and
dropped no intra-stream ordering.
"""

import numpy as np
import pytest

from repro.core.optrace import TraceBuilder
from repro.sched import (DataflowGraph, FunctionalExecutor,
                         StreamExecutionCheck, merge_graphs, replicate,
                         replicate_graph)
from repro.workloads import helr


def keyswitch_trace(name: str = "ks-mix") -> "OpTrace":
    """Hybrid- and KLSS-eligible key-switches interleaved: hmults and
    rotations (hoisted and not) across three ciphertext chains."""
    tb = TraceBuilder(name)
    for _ in range(3):
        ct = tb.fresh_ct()
        tb.hmult(ct, 10)
        tb.rotations(ct, 10, [1, 2, 4], hoisted=True)
        tb.rescale(ct, 10)
        tb.hrot(ct, 9, 7)
        tb.hmult(ct, 9)
        tb.rescale(ct, 9)
    return tb.build().check()


@pytest.fixture(scope="module")
def ex36():
    return FunctionalExecutor(ring_degree=64, num_limbs=2,
                              prime_bits=36)


@pytest.fixture(scope="module")
def ex60():
    return FunctionalExecutor(ring_degree=64, num_limbs=2,
                              prime_bits=60)


@pytest.fixture(scope="module")
def trace():
    return keyswitch_trace()


class TestMergedBitExact:
    def test_replicated_streams_36bit(self, ex36, trace):
        check = ex36.verify_streams([trace] * 3, workers=2)
        assert check.bit_exact, check.mismatched
        assert check.streams == 3

    def test_replicated_streams_60bit(self, ex60, trace):
        check = ex60.verify_streams([trace] * 3, workers=2)
        assert check.bit_exact, check.mismatched
        assert check.streams == 3

    def test_distinct_traces_per_stream(self, ex36, trace):
        """Heterogeneous streams: different programs, one merged run."""
        tb = TraceBuilder("other")
        ct = tb.fresh_ct()
        tb.pmult(ct, 8)
        tb.hrot(ct, 8, 3)
        tb.rescale(ct, 8)
        other = tb.build().check()
        check = ex36.verify_streams([trace, other], workers=2)
        assert check.bit_exact, check.mismatched
        assert check.streams == 2
        assert check.num_ops == len(trace) + len(other)

    def test_helr_iteration_streams(self, ex36):
        """The bench gate's shape: real workload ops, 4 streams."""
        iteration = helr.helr_iteration()
        check = ex36.verify_streams([iteration] * 4, workers=2)
        assert check.bit_exact, check.mismatched
        assert check.num_nodes > 0
        assert check.num_cts > 0

    def test_stream_tagged_graph_accepted(self, ex36, trace):
        """verify_streams against an externally merged graph (what the
        scheduler actually consumes)."""
        graph = replicate_graph(DataflowGraph.from_trace(trace), 2)
        check = ex36.verify_streams([trace] * 2, graph=graph,
                                    workers=2)
        assert check.bit_exact, check.mismatched

    def test_multistream_trace_object_accepted(self, ex36, trace):
        """A MultiStreamTrace works wherever a list of streams does."""
        bundle = replicate(trace, 2)
        check = ex36.verify_streams(bundle, workers=2)
        assert check.bit_exact, check.mismatched
        assert check.streams == 2


class TestStreamIndependence:
    def test_streams_carry_independent_data(self, ex36, trace):
        """Different stream seeds: the per-stream final states must
        differ (identical states would mean the seeds collapsed and
        bit-exactness proves nothing)."""
        states, _ = ex36.run_merged([trace] * 2, workers=2)
        shared = [ct for ct in states[0]
                  if np.array_equal(states[0][ct], states[1][ct])]
        assert not shared, shared

    def test_stream_zero_keeps_base_seed(self, ex36, trace):
        """A 1-stream merged run equals the plain serial run — stream
        0's seed is the executor's base seed."""
        merged, _ = ex36.run_merged([trace], workers=2)
        plain = ex36.run_serial(trace)
        assert set(merged[0]) == set(plain)
        for ct in plain:
            assert np.array_equal(merged[0][ct], plain[ct]), ct

    def test_stream_seeds_distinct(self, ex36):
        seeds = [ex36.stream_seed(s) for s in range(16)]
        assert len(set(seeds)) == len(seeds)
        assert seeds[0] == ex36.seed
        assert all(0 <= s < 2 ** 64 for s in seeds)

    def test_serial_streams_match_per_seed_runs(self, ex36, trace):
        """run_serial_streams is literally K seeded serial runs."""
        reference = ex36.run_serial_streams([trace] * 2)
        for s in range(2):
            solo = ex36.run_serial(trace, seed=ex36.stream_seed(s))
            for ct in solo:
                assert np.array_equal(reference[s][ct], solo[ct])


class TestExecutionPaths:
    def test_inline_fallback_matches_pool(self, ex36, trace, monkeypatch):
        """The inline (no process pool) path computes the same bits."""
        graph = ex36._merged_graph([trace] * 2)
        pooled, _ = ex36.run_merged([trace] * 2, graph=graph,
                                    workers=2)

        def no_fork(workers):
            raise OSError("fork unavailable")

        monkeypatch.setattr(ex36, "ensure_pool", no_fork)
        inline, concurrent = ex36.run_merged([trace] * 2, graph=graph,
                                             workers=2)
        assert not concurrent
        for s in range(2):
            for ct in pooled[s]:
                assert np.array_equal(inline[s][ct], pooled[s][ct]), \
                    (s, ct)

    def test_check_reports_shape(self, ex36, trace):
        check = ex36.verify_streams([trace] * 2, workers=2)
        assert isinstance(check, StreamExecutionCheck)
        assert check.workers == 2
        assert check.num_ops == 2 * len(trace)
        assert check.num_cts == 2 * len({op.ct_id for op in trace})
        assert check.mismatched == []

    def test_mismatch_localised_to_stream_and_ct(self, ex36, trace):
        """Corrupting one stream's state shows up as that stream's
        (stream, ct) pair — the diff localises faults."""
        graph = ex36._merged_graph([trace] * 2)
        reference = ex36.run_serial_streams([trace] * 2)
        merged, _ = ex36.run_merged([trace] * 2, graph=graph,
                                    workers=2)
        victim = sorted(merged[1])[0]
        merged[1][victim] = merged[1][victim] + np.uint64(1)
        mismatched = [(s, ct)
                      for s, ref in enumerate(reference)
                      for ct in ref
                      if not np.array_equal(ref[ct], merged[s][ct])]
        assert mismatched == [(1, victim)]


class TestMergedGraphShape:
    def test_merged_graph_has_no_cross_stream_edges(self, ex36, trace):
        graph = ex36._merged_graph([trace] * 3)
        for node in graph.nodes:
            for pred in node.preds:
                assert graph.node(pred).stream == node.stream

    def test_node_indices_stay_local(self, ex36, trace):
        """Merged nodes keep per-stream local trace indices (what the
        seeded replay keys the op RNG on)."""
        graph = ex36._merged_graph([trace] * 2)
        for node in graph.nodes:
            assert all(i < len(trace) for i in node.indices)
