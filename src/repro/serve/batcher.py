"""Admission batching and the evaluation-key working set of a trace.

:class:`BatchQueue` is the pure bookkeeping behind the server's
admission: requests group by :class:`BatchKey` — ``(kind,
shape)``, i.e. identical params, level schedule and op sequence, the
exact condition under which the stream machinery can stack them into
one batch-vectorised execution.  The queue holds no clock and no
timers; the asyncio server owns both and calls ``take`` on the
oldest group (the first of ``pending_keys``) whenever its compute
slot is free.

:func:`evk_working_set` names the evaluation keys a trace's key
switches touch: the server leases that set from the tenant key
manager for each batch.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.ckks.keys import HYBRID
from repro.core import optrace
from repro.core.hemera import KeyId
from repro.core.optrace import OpTrace


# -- batching queue --------------------------------------------------------

@dataclass(frozen=True)
class BatchKey:
    """Batchability class of a request: same kind + same shape."""

    kind: str
    shape: str


@dataclass
class PendingBatch:
    """One admission group waiting for the compute slot."""

    key: BatchKey
    requests: list = field(default_factory=list)


class BatchQueue:
    """Groups compatible requests until the server flushes them."""

    def __init__(self, max_batch: int = 16):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = max_batch
        self._pending: "OrderedDict[BatchKey, PendingBatch]" = OrderedDict()

    def add(self, request):
        """Enqueue one request.

        Returns ``(key, opened, full)``: ``opened`` is True when this
        request opened a new admission group, ``full`` when the group
        just reached ``max_batch`` (there is no reason to wait for
        more).
        """
        key = BatchKey(request.kind, request.shape)
        batch = self._pending.get(key)
        opened = batch is None
        if opened:
            batch = self._pending[key] = PendingBatch(key=key)
        batch.requests.append(request)
        return key, opened, len(batch.requests) >= self.max_batch

    def take(self, key: BatchKey) -> list:
        """Remove and return up to ``max_batch`` of one group's
        requests, oldest first (empty if gone).  A remainder stays
        pending, in its place."""
        batch = self._pending.get(key)
        if batch is None:
            return []
        taken = batch.requests[:self.max_batch]
        del batch.requests[:self.max_batch]
        if not batch.requests:
            del self._pending[key]
        return taken

    def depth(self) -> int:
        """Requests currently queued across all open groups."""
        return sum(len(b.requests) for b in self._pending.values())

    def pending_keys(self) -> list[BatchKey]:
        """Open groups, oldest first."""
        return list(self._pending)

    def __len__(self) -> int:
        return len(self._pending)


# -- evaluation-key working sets -------------------------------------------

def evk_working_set(trace: OpTrace,
                    method: str = HYBRID) -> frozenset[KeyId]:
    """The evaluation keys a trace's key-switch ops will touch.

    Mirrors Hemera's decision->keys mapping: HMult uses the level's
    multiply key, rotations and conjugations use per-rotation keys.
    """
    keys = set()
    for op in trace:
        if not op.needs_key_switch:
            continue
        if op.kind == optrace.HMULT:
            keys.add(KeyId(method, op.level, "mult"))
        else:
            keys.add(KeyId(method, op.level, "rot", op.rotation))
    return frozenset(keys)
