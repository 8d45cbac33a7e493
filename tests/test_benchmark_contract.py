"""What ``benchmarks/e2e`` relies on in the library, checked in tier 1.

The benchmark's tracer (``benchmarks/e2e/trace.py``) wraps the
callables of its ``WRAP_TABLE``, found by ``vars(owner)[attr]`` on the
defining module or class, and its note helpers read the wrapped call's
arguments; its workloads read the plan-cache and arena accessors.  A
rename or a changed argument shape otherwise only shows in the
benchmark's smoke run or a traced run.  ``trace.py`` is loaded by path
and only read.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TRACE_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "trace.py"

ACCESSORS = (
    ("repro.ckks.rns", "plan_cache_info"),
    ("repro.ckks.ntt", "batch_plan_cache_info"),
    ("repro.ckks.rns", "bconv_plan_cache_info"),
    ("repro.ckks.rns", "auto_plan_cache_info"),
    ("repro.ckks.rns", "plan_cache_evictions"),
    ("repro.backend.arena", "ledger_counters"),
)


@pytest.fixture(scope="module")
def trace():
    spec = importlib.util.spec_from_file_location("e2e_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_target_is_defined_on_its_owner(trace):
    missing = []
    for target, _name, _note in trace.WRAP_TABLE:
        owner, attr = trace._resolve(target)
        if not callable(vars(owner).get(attr)):
            missing.append(target)
    assert not missing, f"WRAP_TABLE targets not defined: {missing}"


@pytest.mark.parametrize("module, name", ACCESSORS)
def test_workload_accessors_exist(module, name):
    assert callable(getattr(importlib.import_module(module), name))


def test_a_traced_ckks_step_runs_every_note(trace):
    """One toy HMult + rotation + hoisted batch + PMult under the
    benchmark's patches: every wrapped kernel is called and its note
    helper accepts the arguments it is given."""
    from repro.ckks import CkksContext, toy_params
    from repro.ckks.keys import HYBRID, KLSS

    ctx = CkksContext(toy_params(ring_degree=64), seed=1)
    top = ctx.params.max_level
    message = np.linspace(-1, 1, ctx.params.num_slots)
    recorder = trace.Recorder()
    patches = trace.Patches(recorder)
    patches.on()
    try:
        ct = ctx.encrypt(message)
        ct = ctx.multiply_rescale(ct, ct, method=HYBRID)
        ct = ctx.rescale(ctx.multiply_plain(ct, ctx.plain_for(ct, message)))
        ct = ctx.multiply_rescale(ct, ct, method=KLSS)
        ct = ctx.add(ct, ctx.rotate(ct, 1, method=HYBRID))
        ctx.hoisted_rotate(ct, (1, 2), method=HYBRID)
        ctx.decrypt(ct)
    finally:
        patches.off()
    names = {record[trace.NAME] for record in recorder.spans}
    for bucket in ("ckks.ntt", "ckks.rns.bconv", "ckks.rns.auto",
                   "ckks.rns.ewise", "ckks.keyswitch.hybrid.modup",
                   "ckks.keyswitch.hybrid.keymult",
                   "ckks.keyswitch.hybrid.moddown",
                   "ckks.keyswitch.klss.decompose",
                   "ckks.keyswitch.hoisting.permute_acc"):
        assert bucket in names
    limbs = sum(record[trace.NOTE] for record in recorder.spans
                if record[trace.NAME] == "ckks.ntt")
    assert limbs > 0
