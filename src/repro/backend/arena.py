"""Per-plan workspace arenas with an obs allocation ledger.

The numpy NTT engine (the fused butterflies a host without the
compiled kernel runs, and every shared-modulus plan) runs on
``out=``-chained ufuncs writing into pooled buffers instead of letting
each numpy expression allocate 3-4 temporaries per stage.  A :class:`WorkspaceArena` is the pool: plans
own one, keyed buffers are checked out with :meth:`take`, and a
*pool miss* — the only event that allocates — is an ``np.empty``
that bumps an ``obs`` counter ``kernel.alloc.<domain>``.

That ledger is how "zero steady-state allocations" is asserted: by
reading the counter across a warmed call, never assumed.
The counters are cheap enough to keep always-on locally
(:attr:`misses`/:attr:`hits` plain ints); the tracer counter only
records when observability is enabled.

Buffers are cached per ``(key, shape, dtype)`` and never freed while
the owning plan lives — the steady state of a workload touches a
fixed set of shapes per plan, so the pool converges after the first
call (warmup) and every later checkout is a hit.
"""

from __future__ import annotations

import numpy as np

from repro.obs.tracer import get_tracer

_TRACER = get_tracer()


class WorkspaceArena:
    """Keyed pool of work buffers for one kernel plan.

    ``domain`` is the ledger suffix: misses bump
    ``kernel.alloc.<domain>``.
    """

    __slots__ = ("domain", "_buffers", "hits", "misses")

    def __init__(self, domain: str):
        self.domain = str(domain)
        self._buffers: dict = {}
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:
        return (f"WorkspaceArena(domain={self.domain!r}, "
                f"buffers={len(self._buffers)}, hits={self.hits}, "
                f"misses={self.misses})")

    def take(self, key, shape, dtype=np.uint64):
        """Check out the pooled buffer for ``key``, allocating on miss.

        The returned array is owned by the arena: contents are
        unspecified on entry and the same buffer is returned for the
        same ``(key, shape, dtype)`` on every later call, so callers
        must finish with it before the next checkout of the same key.
        """
        if not isinstance(shape, tuple):
            shape = (int(shape),)
        pool_key = (key, shape, np.dtype(dtype))
        buf = self._buffers.get(pool_key)
        if buf is not None:
            self.hits += 1
            return buf
        self.misses += 1
        if _TRACER.enabled:
            _TRACER.count("kernel.alloc." + self.domain)
        buf = np.empty(shape, dtype)
        self._buffers[pool_key] = buf
        return buf

    def take_many(self, key, count: int, shape, dtype=np.uint64) -> tuple:
        """``count`` distinct pooled buffers sharing one logical key."""
        return tuple(self.take((key, i), shape, dtype)
                     for i in range(count))

    def drop(self) -> None:
        """Release every pooled buffer (next takes are misses)."""
        self._buffers.clear()


def ledger_counters() -> dict[str, float]:
    """Current ``kernel.alloc.*`` counter values (obs must be enabled)."""
    return get_tracer().counters_with_prefix("kernel.alloc.")
