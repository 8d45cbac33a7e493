"""Admission bookkeeping and the evk-aware stream ordering."""

import pytest

from repro.ckks.keys import HYBRID
from repro.core.hemera import KeyId
from repro.core.optrace import TraceBuilder
from repro.serve.batcher import (BatchKey, BatchQueue, evk_aware_order,
                                 evk_working_set)
from repro.serve.jobs import ServeRequest


def request(rid, kind="eval", shape="helr-mini-step", tenant="t"):
    return ServeRequest(tenant=tenant, kind=kind, shape=shape,
                        request_id=rid)


class TestBatchQueue:
    def test_first_request_opens_group(self):
        queue = BatchQueue(max_batch=4)
        key, opened, full = queue.add(request(0))
        assert key == BatchKey("eval", "helr-mini-step")
        assert opened and not full
        _, opened, _ = queue.add(request(1))
        assert not opened

    def test_group_fills_at_max_batch(self):
        queue = BatchQueue(max_batch=2)
        _, _, full = queue.add(request(0))
        assert not full
        key, _, full = queue.add(request(1))
        assert full
        assert [r.request_id for r in queue.take(key)] == [0, 1]
        assert queue.take(key) == []        # take is destructive

    def test_take_caps_at_max_batch_and_keeps_the_rest_oldest(self):
        queue = BatchQueue(max_batch=16)
        for rid in range(20):
            key, _, _ = queue.add(request(rid), now_s=1.0)
        queue.add(request(20, shape="encode-mini", kind="encode"),
                  now_s=2.0)
        assert [r.request_id for r in queue.take(key)] == list(range(16))
        # The remainder keeps its place and its opening time.
        assert queue.pending_keys()[0] == key
        assert queue._pending[key].opened_s == 1.0
        assert [r.request_id for r in queue.take(key)] == \
            list(range(16, 20))
        assert queue.pending_keys() == [BatchKey("encode", "encode-mini")]

    def test_distinct_shapes_do_not_mix(self):
        queue = BatchQueue(max_batch=8)
        queue.add(request(0, shape="helr-mini-step"))
        queue.add(request(1, shape="encode-mini", kind="encode"))
        assert len(queue) == 2
        assert queue.depth() == 2
        taken = queue.take(BatchKey("eval", "helr-mini-step"))
        assert [r.request_id for r in taken] == [0]
        assert queue.depth() == 1

    def test_rejects_degenerate_max_batch(self):
        with pytest.raises(ValueError):
            BatchQueue(max_batch=0)


class TestEvkWorkingSet:
    def test_collects_keyswitch_keys_only(self):
        tb = TraceBuilder("ws")
        ct = tb.fresh_ct()
        tb.hmult(ct, 9)
        tb.hrot(ct, 9, rotation=3)
        tb.pmult(ct, 9)                     # no key switch
        tb.rescale(ct, 9)                   # no key switch
        working = evk_working_set(tb.build())
        assert working == frozenset({
            KeyId(HYBRID, 9, "mult"),
            KeyId(HYBRID, 9, "rot", 3),
        })

    def test_disjoint_rotations_disjoint_sets(self):
        def rots(name, amounts):
            tb = TraceBuilder(name)
            ct = tb.fresh_ct()
            for amount in amounts:
                tb.hrot(ct, 5, rotation=amount)
            return evk_working_set(tb.build())

        assert not rots("a", [1, 2]) & rots("b", [10, 11])


class TestEvkAwareOrder:
    def _sets(self, letters):
        table = {"A": frozenset({KeyId(HYBRID, 5, "rot", 1)}),
                 "B": frozenset({KeyId(HYBRID, 5, "rot", 2)}),
                 "C": frozenset({KeyId(HYBRID, 5, "rot", 3)})}
        return [table[letter] for letter in letters]

    def test_is_a_permutation(self):
        sets = self._sets("ABABAB")
        order = evk_aware_order(sets)
        assert sorted(order) == list(range(6))

    def test_contiguous_grouping_by_default(self):
        sets = self._sets("ABABAB")
        order = evk_aware_order(sets)
        drained = [sets[i] for i in order]
        # Same-set streams must be adjacent: exactly one transition.
        transitions = sum(1 for a, b in zip(drained, drained[1:])
                          if a != b)
        assert transitions == 1

    def test_largest_bucket_first(self):
        sets = self._sets("ABBB")
        order = evk_aware_order(sets)
        assert [sets[i] for i in order[:3]] == [sets[1]] * 3

    def test_cluster_mode_aligns_buckets_to_clusters(self):
        sets = self._sets("AABB")
        order = evk_aware_order(sets, clusters=2)
        # Position p runs on cluster p % 2: each bucket must land on
        # one cluster only.
        homes = {}
        for position, index in enumerate(order):
            homes.setdefault(sets[index], set()).add(position % 2)
        assert all(len(clusters) == 1 for clusters in homes.values())

    def test_cluster_mode_steals_when_counts_skew(self):
        sets = self._sets("AAAB")
        order = evk_aware_order(sets, clusters=2)
        assert sorted(order) == list(range(4))

    def test_rejects_bad_cluster_count(self):
        with pytest.raises(ValueError):
            evk_aware_order(self._sets("AB"), clusters=0)
