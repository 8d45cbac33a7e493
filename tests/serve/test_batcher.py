"""Admission bookkeeping and the evaluation-key working set."""

import pytest

from repro.ckks.keys import HYBRID
from repro.core.hemera import KeyId
from repro.core.optrace import TraceBuilder
from repro.serve.batcher import BatchKey, BatchQueue, evk_working_set
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
            key, _, _ = queue.add(request(rid))
        queue.add(request(20, shape="encode-mini", kind="encode"))
        assert [r.request_id for r in queue.take(key)] == list(range(16))
        # The remainder keeps its place.
        assert queue.pending_keys()[0] == key
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
