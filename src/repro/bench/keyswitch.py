"""Key-switching benchmarks: AutoU, KMU and hoisted rotations.

Four sections feed the ``keyswitch`` block of BENCH_sim.json, all at
Set-II-mini shapes (the paper's real 36-bit word length on the wide
uint64 path) with ring degree 1024:

* ``auto`` — the eval-domain automorphism (one AutoPlan point gather,
  zero NTTs) against the coefficient-domain oracle pipeline
  (iNTT -> index/negate scatter -> NTT) on a full key basis.  The
  gather is bit-exactness-checked against the oracle before timing.
* ``kmu`` — the fused lazy-reduction :class:`~repro.ckks.keyswitch.
  hybrid.KeyMultPlan` (stack + accumulate, one reduction per limb)
  against the per-digit reference loop, on a real hybrid evaluation
  key.  Gated on bit-exactness; the speedup is recorded without a
  bar.
* ``hoisted`` — the headline: ``hoisted_rotations`` vs the pre-plan
  ``hoisted_rotations_reference`` pipeline for a 4-rotation batch.
  Two speedups are recorded: the *pipeline* speedup (whole batch,
  decompose + per-rotation work + batched ModDown) and the *stage*
  speedup (the per-rotation AutoU + KeyMult stage, which the AutoPlan
  gather turns from O(digits x NTT) into O(digits x gather +
  KeyMult)).  Both are recorded without a bar.  The pipeline's two
  sides spend most of their time in the same ModDown transforms
  (``2k`` limbs per rotation, which no automorphism strategy can
  remove), so its ratio follows the arithmetic they share, not
  hoisting.  The stage ratio *was* NTT avoidance (digit round trips
  against a gather, ~10x on the ufunc engine) and is therefore a
  measure of what an NTT costs: 2.9-3.7x once the compiled butterfly
  made the avoided transforms ~9x cheaper.  What the gate keeps is the
  property itself: a separate traced pass pins down that the
  post-decomposition hoisting loop increments **zero** ``ntt.*``
  counters.

The KMU and pipeline ratios, like ``micro``'s BConv one, divide by
an in-tree reference built on ``ModulusKernel.mul``; they lost their
bars when the 36-bit mode made that multiply five times faster
(1.6-2.2x against a 1.5x bar and 1.5-1.7x against 2.0x over six
runs), as the stage ratio lost its 5x bar when the reference's NTT
round trips got the compiled butterfly.  Whether the fused kernels
pay is what ``benchmarks/e2e`` measures (``hoisted_bsgs``,
``ckks.keyswitch.hybrid.keymult_s``).
* ``bsgs_sweep`` — hoisted vs per-rotation key-switching for growing
  batch sizes (the baby-step pattern of BSGS linear transforms),
  recording how the hoisting advantage scales with batch size.

Wall times are best-of-``reps``; every timed pair is bit-exactness-
checked first so a reported speedup can never come from a wrong
answer.
"""

from __future__ import annotations

import time

import numpy as np

# The eval-domain gather vs the coeff-domain round-trip oracle.
MIN_AUTO_SPEEDUP = 10.0

KEYSWITCH_RING_DEGREE = 1024
HOISTED_ROTATIONS = 4
BSGS_SWEEP = (2, 4, 8)


def _best(fn, reps: int) -> float:
    walls = []
    for _ in range(max(1, reps)):
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
    return min(walls)


def _poly_equal(a, b) -> bool:
    if a.moduli != b.moduli or a.form != b.form:
        return False
    return all(np.array_equal(x, y) for x, y in zip(a.limbs, b.limbs))


def _ct_equal(a, b) -> bool:
    return _poly_equal(a.c0, b.c0) and _poly_equal(a.c1, b.c1)


def _setup(quick: bool):
    """One Set-II-mini context with rotation keys for the batch."""
    from repro.ckks import encoding
    from repro.ckks.context import CkksContext
    from repro.ckks.params import set_ii_mini

    params = set_ii_mini(ring_degree=KEYSWITCH_RING_DEGREE)
    ctx = CkksContext(params, seed=11)
    level = params.max_level
    steps = list(range(1, max(HOISTED_ROTATIONS, max(BSGS_SWEEP)) + 1))
    galois = [encoding.rotation_galois_element(params.ring_degree, s)
              for s in steps]
    keys = {g: ctx.evaluation_key("hybrid", level, ("galois", g))
            for g in galois}
    message = np.arange(params.num_slots) / params.num_slots
    ct = ctx.encrypt(message, level=level)
    return ctx, ct, galois, keys


def _auto_section(ctx, quick: bool) -> dict:
    from repro.ckks import rns

    reps = 5 if quick else 15
    inner = 8 if quick else 16
    level = ctx.params.max_level
    key = ctx.evaluation_key("hybrid", level, "mult")
    rng = np.random.default_rng(33)
    coeffs = [int(v) for v in rng.integers(-10**6, 10**6,
                                           size=ctx.params.ring_degree)]
    poly = rns.from_big_ints(coeffs, key.moduli, ctx.params.ring_degree)
    ev = poly.to_eval()
    g = 5
    gather = ev.automorphism(g)
    oracle = poly.automorphism(g).to_eval()
    bit_exact = _poly_equal(gather, oracle)

    def gather_run():
        for _ in range(inner):
            ev.automorphism(g)

    def roundtrip_run():
        for _ in range(inner):
            ev.to_coeff().automorphism(g).to_eval()

    gather_best = _best(gather_run, reps) / inner
    roundtrip_best = _best(roundtrip_run, reps) / inner
    return {
        "ring_degree": ctx.params.ring_degree,
        "num_limbs": len(key.moduli),
        "galois": g,
        "bit_exact": bit_exact,
        "gather_best_s": gather_best,
        "roundtrip_best_s": roundtrip_best,
        "speedup": roundtrip_best / gather_best,
        "min_required_speedup": MIN_AUTO_SPEEDUP,
    }


def _kmu_section(ctx, quick: bool) -> dict:
    from repro.ckks import rns
    from repro.ckks.keyswitch.hybrid import (get_key_mult_plan,
                                             hybrid_decompose,
                                             key_mult_accumulate_reference)

    reps = 5 if quick else 15
    inner = 4 if quick else 8
    level = ctx.params.max_level
    key = ctx.evaluation_key("hybrid", level, "mult")
    plan = get_key_mult_plan(key)       # plan build is out of timing
    rng = np.random.default_rng(44)
    coeffs = [int(v) for v in rng.integers(-10**6, 10**6,
                                           size=ctx.params.ring_degree)]
    poly = rns.from_big_ints(coeffs, ctx.moduli_at(level),
                             ctx.params.ring_degree)
    digits = hybrid_decompose(poly, key, ctx.params.alpha)
    got0, got1 = plan.accumulate(plan.stack(digits))
    ref0, ref1 = key_mult_accumulate_reference(digits, key)
    bit_exact = _poly_equal(got0, ref0) and _poly_equal(got1, ref1)

    def fused_run():
        for _ in range(inner):
            plan.accumulate(plan.stack(digits))

    def reference_run():
        for _ in range(inner):
            key_mult_accumulate_reference(digits, key)

    fused_best = _best(fused_run, reps) / inner
    reference_best = _best(reference_run, reps) / inner
    return {
        "ring_degree": ctx.params.ring_degree,
        "num_limbs": len(key.moduli),
        "num_digits": key.num_digits,
        "tier": plan.tier,
        "bit_exact": bit_exact,
        "fused_best_s": fused_best,
        "reference_best_s": reference_best,
        "speedup": reference_best / fused_best,
    }


def _hoisted_stage_reference(decomposed, key):
    """The pre-plan per-rotation stage: digit round-trips + loop KMU."""
    from repro.ckks.keyswitch.hybrid import key_mult_accumulate_reference

    def run(g):
        rotated = [d.to_coeff().automorphism(g).to_eval()
                   for d in decomposed]
        return key_mult_accumulate_reference(rotated, key)

    return run


def _hoisted_section(ctx, ct, galois, keys, quick: bool) -> dict:
    from repro import obs
    from repro.ckks.keyswitch.hoisting import (hoisted_rotations,
                                               hoisted_rotations_reference,
                                               permute_and_accumulate)
    from repro.ckks.keyswitch.hybrid import (get_key_mult_plan,
                                             hybrid_decompose)

    reps = 3 if quick else 7
    alpha = ctx.params.alpha
    batch = galois[:HOISTED_ROTATIONS]
    new = hoisted_rotations(ct, batch, keys, alpha)
    ref = hoisted_rotations_reference(ct, batch, keys, alpha)
    bit_exact = all(_ct_equal(a, b) for a, b in zip(new, ref))

    pipeline_new = _best(
        lambda: hoisted_rotations(ct, batch, keys, alpha), reps)
    pipeline_ref = _best(
        lambda: hoisted_rotations_reference(ct, batch, keys, alpha), reps)

    # Per-rotation stage: AutoU gather + fused KMU vs digit NTT
    # round-trips + per-digit KMU, on the same shared decomposition.
    reference_key = keys[batch[0]]
    decomposed = hybrid_decompose(ct.c1.to_coeff(), reference_key, alpha)
    plan = get_key_mult_plan(reference_key)
    stacked = plan.stack(decomposed)
    stage_ref_run = _hoisted_stage_reference(decomposed, reference_key)

    def stage_new():
        for g in batch:
            permute_and_accumulate(stacked, get_key_mult_plan(keys[g]), g)

    def stage_ref():
        for g in batch:
            stage_ref_run(g)

    stage_new_best = _best(stage_new, reps) / len(batch)
    stage_ref_best = _best(stage_ref, reps) / len(batch)

    # Traced pass: the post-decomposition hoisting loop must run zero
    # NTTs (kept out of the timing loops above).
    was_enabled = obs.enabled()
    obs.configure(enabled=True, reset=True)
    try:
        for g in batch:
            permute_and_accumulate(stacked, get_key_mult_plan(keys[g]), g)
        counters = obs.get_tracer().metrics.counters()
        loop_ntt_calls = int(sum(v for k, v in counters.items()
                                 if k.startswith("ntt.")))
        loop_counters = {k: int(v) for k, v in counters.items()
                         if k.startswith(("rns.auto.", "keyswitch."))}
    finally:
        obs.configure(enabled=was_enabled, reset=True)
    return {
        "ring_degree": ctx.params.ring_degree,
        "params": ctx.params.name,
        "rotations": len(batch),
        "num_digits": reference_key.num_digits,
        "num_limbs": len(reference_key.moduli),
        "bit_exact": bit_exact,
        "pipeline_new_s": pipeline_new,
        "pipeline_reference_s": pipeline_ref,
        "pipeline_speedup": pipeline_ref / pipeline_new,
        "stage_new_s": stage_new_best,
        "stage_reference_s": stage_ref_best,
        "stage_speedup": stage_ref_best / stage_new_best,
        "loop_ntt_calls": loop_ntt_calls,
        "loop_counters": loop_counters,
    }


def _bsgs_section(ctx, ct, galois, keys, quick: bool) -> dict:
    from repro.ckks.keyswitch.hoisting import (hoisted_rotations,
                                               hoisted_rotations_reference)

    reps = 2 if quick else 5
    alpha = ctx.params.alpha
    points = {}
    for r in BSGS_SWEEP:
        batch = galois[:r]
        hoisted = _best(
            lambda b=batch: hoisted_rotations(ct, b, keys, alpha), reps)
        reference = _best(
            lambda b=batch: hoisted_rotations_reference(ct, b, keys, alpha),
            reps)
        points[str(r)] = {
            "rotations": r,
            "hoisted_s": hoisted,
            "reference_s": reference,
            "speedup": reference / hoisted,
        }
    return {"points": points}


def run_keyswitch(quick: bool = False) -> dict:
    """The full ``keyswitch`` block for the bench report."""
    ctx, ct, galois, keys = _setup(quick)
    return {
        "auto": _auto_section(ctx, quick),
        "kmu": _kmu_section(ctx, quick),
        "hoisted": _hoisted_section(ctx, ct, galois, keys, quick),
        "bsgs_sweep": _bsgs_section(ctx, ct, galois, keys, quick),
    }


def validate_keyswitch(section: dict) -> list[str]:
    """Acceptance-bar violations in a ``keyswitch`` block (empty = pass)."""
    violations: list[str] = []
    auto = section.get("auto", {})
    if not auto.get("bit_exact", False):
        violations.append(
            "auto: eval-domain gather disagrees with the coeff oracle")
    speedup = auto.get("speedup", 0.0)
    if speedup < MIN_AUTO_SPEEDUP:
        violations.append(
            f"auto: gather speedup {speedup:.1f}x is below the "
            f"{MIN_AUTO_SPEEDUP:.0f}x bar")
    kmu = section.get("kmu", {})
    if not kmu.get("bit_exact", False):
        violations.append(
            "kmu: fused KeyMultPlan disagrees with the reference loop")
    hoisted = section.get("hoisted", {})
    if not hoisted.get("bit_exact", False):
        violations.append(
            "hoisted: new pipeline disagrees with the reference pipeline")
    if hoisted.get("loop_ntt_calls", -1) != 0:
        violations.append(
            f"hoisted: {hoisted.get('loop_ntt_calls')} NTT calls inside "
            "the post-decomposition hoisting loop (must be zero)")
    return violations
