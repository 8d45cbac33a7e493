"""Tenant key-manager counters on a key-disjoint workload pair.

Two working sets alternate against a key store with room for one;
draining the queue in arrival order, the manager's evk hit and miss
totals, overall and per tenant, must equal the tracer's
``hemera.prefetch.*`` and ``serve.tenant.*`` counters.
"""

import pytest

from repro import obs
from repro.ckks.params import SET_I, SET_II
from repro.core.hemera import EvkPool
from repro.core.optrace import TraceBuilder
from repro.hw.memory import PartitionedKeyCache
from repro.serve.batcher import evk_working_set
from repro.serve.tenants import TenantKeyManager


def rotations_trace(name, amounts):
    builder = TraceBuilder(name)
    ct = builder.fresh_ct()
    for amount in amounts:
        builder.hrot(ct, 20, rotation=amount)
    return builder.build()


@pytest.fixture()
def tracing():
    obs.configure(enabled=True, reset=True)
    yield obs.get_tracer()
    obs.configure(enabled=False, reset=True)


@pytest.fixture()
def workload():
    set_a = evk_working_set(rotations_trace("wsA", range(1, 7)))
    set_b = evk_working_set(rotations_trace("wsB", range(101, 107)))
    assert not set_a & set_b
    pool = EvkPool(SET_I, SET_II)
    set_bytes = sum(pool.lookup(key).size_bytes for key in set_a)
    # Room for one working set (plus slack), never both at once.
    return [set_a, set_b] * 4, set_bytes * 1.3


def drain(queue, capacity, order):
    manager = TenantKeyManager(EvkPool(SET_I, SET_II),
                               PartitionedKeyCache(capacity))
    for position in order:
        lease = manager.acquire(f"tenant-{position % 4}",
                                queue[position])
        manager.release(lease)
    return manager


class TestEvkAwareAdmission:
    """Evk hit/miss accounting under admission (arrival-order drain)."""

    def test_manager_counters_match_tracer(self, tracing, workload):
        queue, capacity = workload
        manager = drain(queue, capacity, range(len(queue)))
        totals = manager.totals()
        assert tracing.counter_value("hemera.prefetch.miss") \
            == totals.evk_misses
        assert tracing.counter_value("hemera.prefetch.hit") \
            == totals.evk_hits

    def test_per_tenant_counters_are_attributed(self, tracing,
                                                workload):
        queue, capacity = workload
        manager = drain(queue, capacity, range(len(queue)))
        for tenant in manager.tenants():
            stats = manager.stats(tenant)
            prefix = f"serve.tenant.{tenant}."
            counters = tracing.counters_with_prefix(prefix)
            assert counters.get(prefix + "evk_hits", 0) \
                == stats.evk_hits
            assert counters.get(prefix + "evk_misses", 0) \
                == stats.evk_misses

    def test_disabled_tracer_emits_nothing(self, workload):
        queue, capacity = workload
        obs.configure(enabled=False, reset=True)
        drain(queue, capacity, range(len(queue)))
        assert obs.get_tracer().counter_value("hemera.prefetch.miss") \
            == 0
