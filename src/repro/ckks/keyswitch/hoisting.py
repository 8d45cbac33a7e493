"""Hoisting: share one decomposition across many rotations (Sec. 2.2.3).

When several rotations of the *same* ciphertext are needed (the
baby-step/giant-step linear transforms inside bootstrapping are the
canonical case), the expensive first stage of key-switching — ModUp
for the hybrid method, the double decomposition for KLSS — depends
only on ``c1``, not on the rotation amount.  Hoisting performs it
once; each rotation then costs only an automorphism of the decomposed
digits, a KeyMult with that rotation's key, and a ModDown.

Since the digits stay in evaluation form throughout, the per-rotation
automorphism is a pure AutoPlan gather of NTT points (software AutoU)
and the KeyMult runs through the stacked
:class:`~repro.ckks.keyswitch.hybrid.KeyMultPlan` (software KMU):
:func:`permute_and_accumulate`, the whole pre-ModDown stage, performs
**zero NTTs** — the per-rotation cost drops from O(digits x NTT) to
O(digits x gather + KeyMult).  The pre-plan pipeline is kept as
:func:`hoisted_rotations_reference`, the bit-exactness oracle.

This trades evaluation-key storage (one key per rotation, all resident
simultaneously) for NTT work — exactly the tension Aether arbitrates.
"""

from __future__ import annotations

import numpy as np

from repro.ckks import rns
from repro.ckks.ciphertext import Ciphertext
from repro.ckks.keys import HYBRID, KLSS, KeySwitchKey
from repro.ckks.keyswitch.hybrid import (KeyMultPlan, _mod_down_batch_ready,
                                         get_key_mult_plan,
                                         hybrid_decompose,
                                         key_mult_accumulate,
                                         key_mult_accumulate_reference,
                                         mod_down_batch, mod_down_pair)
from repro.ckks.keyswitch.klss import klss_decompose
from repro.ckks.rns import RnsPoly
from repro.obs.tracer import get_tracer


def validate_hoisting_keys(galois_elements: list[int],
                           keys: dict[int, KeySwitchKey]) -> KeySwitchKey:
    """Check every key shares one decomposition geometry; return the first.

    A hoisted batch reuses one decomposition of ``c1`` for every
    rotation, so all keys must agree on method, basis (``moduli`` /
    ``aux_count``) and digit layout (``num_digits`` / ``digit_bits``).
    Raises :class:`ValueError` naming each mismatched Galois element
    and the fields it diverges in.
    """
    reference = keys[galois_elements[0]]
    profile = reference.hoisting_profile()
    problems = []
    for g in galois_elements[1:]:
        other = keys[g].hoisting_profile()
        diverged = [name for name, value in profile.items()
                    if other[name] != value]
        if diverged:
            problems.append(f"g={g} differs in {', '.join(diverged)}")
    if problems:
        raise ValueError(
            "hoisting requires keys sharing one decomposition geometry "
            f"(reference g={galois_elements[0]}): " + "; ".join(problems))
    return reference


def _decompose(c1_coeff: RnsPoly, key: KeySwitchKey,
               alpha: int) -> list[RnsPoly]:
    if key.method == HYBRID:
        return hybrid_decompose(c1_coeff, key, alpha)
    if key.method == KLSS:
        return klss_decompose(c1_coeff, key)
    raise ValueError(f"unknown method {key.method!r}")


def permute_and_accumulate(stacked, plan: KeyMultPlan,
                           galois_power: int) -> tuple[RnsPoly, RnsPoly]:
    """Per-rotation AutoU + KMU stage on a stacked digit tensor.

    ``stacked`` is the ``(d, k, N)`` tensor from ``plan.stack`` (built
    once per hoisted batch); the automorphism is one gather of
    evaluation slots across the whole tensor, and the fused
    plan accumulates the KeyMult.  No NTT runs anywhere in here —
    ``tests/ckks/test_hoisting.py`` pins that down via the ``ntt.*``
    counters.
    """
    auto = rns.get_auto_plan(plan.n, galois_power)
    tracer = get_tracer()
    if tracer.enabled:
        tracer.count("keyswitch.hoisting.auto_gather")
    return plan.accumulate(np.take(stacked, auto.eval_perm, axis=2))


def hoisted_rotations(ct: Ciphertext, galois_elements: list[int],
                      keys: dict[int, KeySwitchKey],
                      alpha: int) -> list[Ciphertext]:
    """Rotate ``ct`` by every Galois element, decomposing ``c1`` once.

    ``keys[g]`` must be the switching key for ``s(X^g) -> s`` at the
    ciphertext's level; all keys must share one method, basis and
    digit layout (:func:`validate_hoisting_keys`).  Returns the
    rotated ciphertexts in the order of ``galois_elements``.
    """
    if not galois_elements:
        return []
    reference = validate_hoisting_keys(galois_elements, keys)
    tracer = get_tracer()
    if tracer.enabled:
        tracer.count("keyswitch.hoisting.batch")
        tracer.count("keyswitch.hoisting.rotations", len(galois_elements))
    decomposed = _decompose(ct.c1.to_coeff(), reference, alpha)
    plan = get_key_mult_plan(reference)
    stacked = plan.stack(decomposed) if plan is not None else None
    pairs = []
    for g in galois_elements:
        key = keys[g]
        if stacked is not None:
            # All keys share the reference geometry, so each key's
            # plan stacks digits identically and the one tensor feeds
            # them all.
            pairs.append(permute_and_accumulate(
                stacked, get_key_mult_plan(key), g))
        else:
            # Object-path moduli: no fused plan, but the per-digit
            # automorphisms are still eval-domain gathers (no NTTs
            # before ModDown even here).
            rotated_digits = [d.automorphism(g) for d in decomposed]
            pairs.append(key_mult_accumulate(rotated_digits, key))
    # One batched ModDown for the whole rotation set: its NTT and
    # subtract/scale sweeps amortise across all rotations.
    if _mod_down_batch_ready(pairs[0][0], pairs[0][1], reference.aux_count):
        deltas = mod_down_batch(pairs, reference.aux_count)
    else:
        deltas = [mod_down_pair(acc0, acc1, reference.aux_count)
                  for acc0, acc1 in pairs]
    results = []
    for g, (delta0, delta1) in zip(galois_elements, deltas):
        c0_rot = ct.c0.automorphism(g)
        results.append(Ciphertext(c0_rot + delta0, delta1,
                                  ct.scale, ct.level))
    return results


def hoisted_rotations_reference(ct: Ciphertext, galois_elements: list[int],
                                keys: dict[int, KeySwitchKey],
                                alpha: int) -> list[Ciphertext]:
    """The pre-plan hoisting pipeline (the bit-exactness oracle).

    Shares the decomposition like :func:`hoisted_rotations`, but each
    rotation round-trips every digit (and ``c0``) through a full
    iNTT -> coefficient permutation -> NTT, accumulates KeyMult with
    the per-digit reference loop, and ModDowns each half separately —
    the exact dataflow this module had before the AutoPlan/KeyMultPlan
    kernels.  Results are bit-identical to :func:`hoisted_rotations`.
    """
    if not galois_elements:
        return []
    reference = validate_hoisting_keys(galois_elements, keys)
    decomposed = _decompose(ct.c1.to_coeff(), reference, alpha)
    q_count = len(reference.moduli) - reference.aux_count
    results = []
    for g in galois_elements:
        key = keys[g]
        rotated_digits = [d.to_coeff().automorphism(g).to_eval()
                          for d in decomposed]
        acc0, acc1 = key_mult_accumulate_reference(rotated_digits, key)
        delta0 = rns.mod_down(acc0.to_coeff(), q_count).to_eval()
        delta1 = rns.mod_down(acc1.to_coeff(), q_count).to_eval()
        c0_rot = ct.c0.to_coeff().automorphism(g).to_eval()
        results.append(Ciphertext(c0_rot + delta0, delta1,
                                  ct.scale, ct.level))
    return results
