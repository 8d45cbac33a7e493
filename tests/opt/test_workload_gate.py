"""The optimiser's acceptance bars on the two gated Table-5 workloads.

HELR256 and full bootstrapping, whole traces: the NTT limb count drops
strictly (pinned, so a lost rewrite shows), the op list is untouched,
the optimised trace never schedules slower, and the multiprocess
functional executor stays bit-exact on an optimised trace.
"""

import pytest

from repro.ckks.params import SET_II
from repro.hw.config import FAST_CONFIG
from repro.opt import optimise_trace
from repro.sched import FunctionalExecutor, ScheduledEngine
from repro.workloads import bootstrap_trace, helr, helr_trace

# workload -> (trace, limb transforms before, after): a strict drop
NTT_LIMBS = {
    "HELR256": (lambda: helr_trace(batch=256), 10896, 9632),
    "Bootstrap": (bootstrap_trace, 12526, 11342),
}


@pytest.mark.parametrize("name", NTT_LIMBS)
def test_ntt_drop_same_ops_and_no_slower_schedule(name):
    build, before, after = NTT_LIMBS[name]
    trace = build()
    opt = optimise_trace(trace, SET_II)
    assert (opt.stats.ntt_before, opt.stats.ntt_after) == (before, after)
    assert list(opt.ops) == list(trace.ops)
    config = FAST_CONFIG.with_(name="FAST-4C", clusters=4)
    # ties are legitimate (HELR's cancelled conversions sit on rescales
    # the hardware model already runs in the evaluation domain)
    assert ScheduledEngine(config).run(opt).total_s <= \
        ScheduledEngine(config).run(trace).total_s + 1e-9


def test_parallel_execution_of_an_optimised_trace_is_bit_exact():
    trace = optimise_trace(helr.helr_iteration(), SET_II)
    assert trace.optimised and trace.stats.ntt_removed > 0
    check = FunctionalExecutor().verify(trace, workers=2)
    assert check.bit_exact
