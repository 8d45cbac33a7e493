"""Arithmetic-kernel microbenchmarks for ``python -m repro bench``.

Three sections feed the ``micro`` block of BENCH_sim.json:

* ``modmul`` — element-wise modular multiplication at each width path
  (narrow int64 / wide uint64 in 36-bit mode at 36 bits and in 60-bit
  mode at 60 and near-2^62 bits / forced-object oracle), the software
  analogue of timing the TBM's 36-bit and 60-bit modes in isolation.
  ``tbm_ratio`` is the measured 60-bit / 36-bit cost ratio, recorded
  next to the hardware TBM's issue ratio (2 narrow products per cycle
  against 1 wide); a reported number, no bar.
* ``ntt`` — the N=4096 negacyclic NTT at a 36-bit and a 60-bit prime
  on the fused engine, cross-checked element-wise against the
  object-path reference plan (``wide_matches_oracle``, the gated
  bit).  The reference's own wall is recorded, not gated: a ratio
  against an in-tree oracle measures how slow the oracle is.  The
  scalar plans run the shared-modulus engine (64-bit multiply at
  either width); the per-limb cost at each width is timed on 4-limb
  batch plans and recorded as ``tbm_ratio``, as measured and with no
  bar: ~2x on the ufunc engine (two multiplier modes), 1.0x on the
  compiled butterfly (``batch_kernel`` says which ran), where a host
  ``mulq`` costs the same at 36 and 60 bits.
* ``bconv`` — the matrix-form base-conversion kernel (the software
  BConvU) against the per-pair scalar loop it replaced, at the three
  conversion shapes one Set-II-mini hybrid key-switch actually runs:
  ModUp digit 0 (alpha limbs incl. the 44-bit first prime onto the
  complement), ModUp digit 1 (the short tail digit onto the widest
  target), and ModDown (specials back onto Q).  Results are
  bit-exactness-checked against the oracle before timing (the gate);
  the speedup over the loop is recorded without a bar, because the
  loop is ``ModulusKernel.mul_scalar`` and gets faster whenever the
  kernel does.  The plan-cache hit/miss counters are recorded from a
  separate traced pass.
* ``functional`` — one HELR-style step (encrypt, PMult + rescale,
  HMult/hybrid + rescale, HMult/KLSS + rescale, HRot, decrypt) at
  either toy (``--params toy``) or Set-II-shaped wide-word parameters
  (``--params full``).  It runs with the obs layer enabled and
  records the width-path counter deltas — TBM mode occupancy,
  Fig. 12 — which CI uses to assert that full-size parameters never
  fall back onto the object path, plus the ``rns.bconv.*`` deltas
  which must show zero object-path conversion fallbacks.

Wall times are best-of-``reps`` to shrug off interpreter hiccups.
"""

from __future__ import annotations

import time

import numpy as np

# The functional step decrypt must land this close to the clear-text
# result, or the kernels are fast but wrong.
MAX_FUNCTIONAL_ERROR = 1e-2

NTT_RING_DEGREE = 4096
NTT_BATCH_LIMBS = 4            # limbs per batch plan of the TBM ratio
MODMUL_SIZE = 4096
BCONV_RING_DEGREE = 1024


def _best(fn, reps: int) -> float:
    walls = []
    for _ in range(max(1, reps)):
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
    return min(walls)


def _modmul_section(quick: bool) -> dict:
    from repro.ckks import modmath, primes

    reps = 3 if quick else 10
    n = MODMUL_SIZE
    rng = np.random.default_rng(2024)
    cases = {}
    q36 = primes.ntt_primes(1, 36, n)[0]
    specs = [
        ("narrow28", primes.ntt_primes(1, 28, n)[0], None),
        ("wide36", q36, None),
        ("wide60", primes.ntt_primes(1, 60, n)[0], None),
        ("wide62", primes.ntt_primes(1, 62, n)[0], None),
        ("object36", q36, modmath.OBJECT),
    ]
    for label, q, path in specs:
        kernel = modmath.get_kernel(q, path)
        a = kernel.asresidues(rng.integers(0, q, size=n).tolist())
        b = kernel.asresidues(rng.integers(0, q, size=n).tolist())
        best = _best(lambda: kernel.mul(a, b), reps)
        cases[label] = {
            "modulus_bits": q.bit_length(),
            "path": kernel.path,
            "n": n,
            "best_s": best,
            "ns_per_element": best / n * 1e9,
        }
    return {
        "cases": cases,
        "speedup_wide36_vs_object": (cases["object36"]["best_s"]
                                     / cases["wide36"]["best_s"]),
        "tbm_ratio": cases["wide60"]["best_s"] / cases["wide36"]["best_s"],
    }


def _ntt_section(quick: bool) -> dict:
    from repro.ckks import modmath, primes
    from repro.ckks.ntt import NttPlan, get_batch_plan

    n = NTT_RING_DEGREE
    wide_reps = 5 if quick else 20
    object_reps = 2 if quick else 3
    rng = np.random.default_rng(4096)
    q36 = primes.ntt_primes(1, 36, n)[0]
    q60 = primes.ntt_primes(1, 60, n)[0]
    wide_plan = NttPlan(n, q36)
    oracle_plan = NttPlan(n, q36, path=modmath.OBJECT)
    x = rng.integers(0, q36, size=n, dtype=np.uint64)
    fw = wide_plan.forward(x)
    fo = oracle_plan.forward(np.array(x.tolist(), dtype=object))
    matches = all(int(a) == int(b) for a, b in zip(fw, fo))
    wide_best = _best(lambda: wide_plan.forward(x), wide_reps)
    object_best = _best(
        lambda: oracle_plan.forward(np.array(x.tolist(), dtype=object)),
        object_reps)
    wide60_plan = NttPlan(n, q60)
    x60 = rng.integers(0, q60, size=n, dtype=np.uint64)
    wide60_best = _best(lambda: wide60_plan.forward(x60), wide_reps)
    per_limb = {}
    for bits in (36, 60):
        moduli = tuple(primes.ntt_primes(NTT_BATCH_LIMBS, bits, n))
        plan = get_batch_plan(n, moduli)
        limbs = [rng.integers(0, q, size=n, dtype=np.uint64)
                 for q in moduli]
        block = plan.backend.empty((len(moduli), n), np.uint64)
        plan.forward(limbs, out=block)       # warm (ufunc engine: arena)
        per_limb[bits] = _best(lambda: plan.forward(limbs, out=block),
                               wide_reps) / len(moduli)
    return {
        "ring_degree": n,
        "modulus_bits": q36.bit_length(),
        "wide_matches_oracle": matches,
        "wide_best_s": wide_best,
        "object_best_s": object_best,
        "wide60_best_s": wide60_best,
        "batch36_per_limb_s": per_limb[36],
        "batch60_per_limb_s": per_limb[60],
        "tbm_ratio": per_limb[60] / per_limb[36],
        "batch_kernel": "ufunc" if plan.backend.native_ntt() is None
        else "native",
    }


def _bconv_bases(n: int):
    """Set-II-mini prime chains, built exactly as the context builds them."""
    from repro.ckks import primes
    from repro.ckks.params import set_ii_mini

    params = set_ii_mini(ring_degree=n)
    used: set[int] = set()
    first = primes.ntt_primes(1, params.first_prime_bits, n, exclude=used)
    used.update(first)
    scale = primes.ntt_primes(params.max_level, params.prime_bits, n,
                              exclude=used)
    used.update(scale)
    specials = primes.ntt_primes(params.num_special_primes, params.prime_bits,
                                 n, exclude=used)
    return params, tuple(first + scale), tuple(specials)


def _bconv_section(quick: bool) -> dict:
    from repro import obs
    from repro.ckks import modmath, rns

    n = BCONV_RING_DEGREE
    reps = 5 if quick else 15
    inner = 4 if quick else 8
    params, q_chain, specials = _bconv_bases(n)
    alpha = params.alpha
    # The three conversions a top-level hybrid key-switch actually runs.
    shapes = {
        "modup_digit0": (q_chain[:alpha], q_chain[alpha:] + specials),
        "modup_digit1": (q_chain[alpha:], q_chain[:alpha] + specials),
        "moddown": (specials, q_chain),
    }
    rng = np.random.default_rng(1024)
    cases = {}
    bit_exact = True
    matrix_total = loop_total = 0.0
    polys = {}
    for label, (src, dst) in shapes.items():
        poly = rns.RnsPoly([modmath.random_uniform(n, q, rng) for q in src],
                           src, rns.COEFF)
        polys[label] = poly
        plan = rns.get_bconv_plan(src, dst)  # plan build is out of timing
        got = plan.convert(poly.limbs)
        want = rns.base_convert_reference(poly, dst)
        exact = all(all(int(a) == int(b) for a, b in zip(x, y))
                    for x, y in zip(got, want.limbs))
        bit_exact = bit_exact and exact

        def matrix_run(plan=plan, limbs=poly.limbs):
            for _ in range(inner):
                plan.convert(limbs)

        def loop_run(poly=poly, dst=dst):
            for _ in range(inner):
                rns.base_convert_reference(poly, dst)

        matrix_best = _best(matrix_run, reps) / inner
        loop_best = _best(loop_run, reps) / inner
        matrix_total += matrix_best
        loop_total += loop_best
        cases[label] = {
            "k_in": len(src),
            "k_out": len(dst),
            "src_bits": sorted({q.bit_length() for q in src}),
            "dst_bits": sorted({q.bit_length() for q in dst}),
            "matrix_best_s": matrix_best,
            "loop_best_s": loop_best,
            "speedup": loop_best / matrix_best,
            "bit_exact": exact,
        }
    # Plan-cache counters from a short traced pass (never mixed into
    # the timing above: counter bumps would distort the matrix side).
    was_enabled = obs.enabled()
    obs.configure(enabled=True, reset=True)
    try:
        rns.clear_bconv_plan_cache()
        for label, (src, dst) in shapes.items():
            rns.base_convert(polys[label], dst)
            rns.base_convert(polys[label], dst)
        counters = _bconv_counters()
    finally:
        obs.configure(enabled=was_enabled, reset=True)
    return {
        "ring_degree": n,
        "params": params.name,
        "cases": cases,
        "bit_exact": bit_exact,
        "speedup_aggregate": loop_total / matrix_total,
        "plan_counters": counters,
    }


def _functional_params(params_mode: str, quick: bool):
    from repro.ckks.params import set_ii_mini, toy_params

    if params_mode == "toy":
        return toy_params(ring_degree=256, name="toy (narrow path)")
    return set_ii_mini(ring_degree=1024 if quick else 4096)


def _path_counters() -> dict:
    from repro.obs.tracer import get_tracer
    counters = get_tracer().metrics.counters()
    return {name: int(value) for name, value in counters.items()
            if name.startswith(("modmath.path.", "ntt.path."))}


def _bconv_counters() -> dict:
    """``rns.bconv.*`` counter values, with the prefix stripped."""
    from repro.obs.tracer import get_tracer
    counters = get_tracer().metrics.counters()
    prefix = "rns.bconv."
    return {name[len(prefix):]: int(value)
            for name, value in counters.items() if name.startswith(prefix)}


def _functional_section(params_mode: str, quick: bool) -> dict:
    """One HELR-style step at real word widths, with path accounting."""
    from repro import obs
    from repro.ckks.context import CkksContext
    from repro.ckks.keys import HYBRID, KLSS

    params = _functional_params(params_mode, quick)
    was_enabled = obs.enabled()
    obs.configure(enabled=True, reset=True)
    try:
        before = _path_counters()
        bconv_before = _bconv_counters()
        start = time.perf_counter()
        ctx = CkksContext(params, seed=11)
        top = params.max_level
        ctx.evaluation_key(HYBRID, top, "mult")
        ctx.evaluation_key(KLSS, top - 2, "mult")
        ctx.rotation_key(HYBRID, top - 3, 1)
        keygen_wall = time.perf_counter() - start

        base = np.array([0.75, -1.25, 0.5, 1.5], dtype=np.complex128)
        message = np.tile(base, params.num_slots // 4)
        weights = np.full(params.num_slots, 0.5)
        start = time.perf_counter()
        ct = ctx.encrypt(message)
        # multiply_rescale takes the fused ModDown+Rescale kernel on
        # the HYBRID path (one batched conversion instead of ModDown
        # followed by an exact rescale); KLSS falls back internally to
        # the sequential pipeline.
        ct = ctx.multiply_rescale(ct, ct, method=HYBRID)
        ct = ctx.rescale(ctx.multiply_plain(ct, ctx.plain_for(ct, weights)))
        ct = ctx.multiply_rescale(ct, ct, method=KLSS)
        ct = ctx.rotate(ct, 1, method=HYBRID)
        expected = np.roll((message ** 2 * weights) ** 2, -1)
        error = float(np.max(np.abs(ctx.decrypt(ct) - expected)))
        step_wall = time.perf_counter() - start
        after = _path_counters()
        bconv_after = _bconv_counters()
    finally:
        obs.configure(enabled=was_enabled, reset=True)
    width_paths = {name: after.get(name, 0) - before.get(name, 0)
                   for name in after}
    bconv = {name: bconv_after.get(name, 0) - bconv_before.get(name, 0)
             for name in bconv_after}
    return {
        "workload": "HELR-mini step",
        "params": params.name,
        "params_mode": params_mode,
        "ring_degree": params.ring_degree,
        "prime_bits": params.prime_bits,
        "klss_word_bits": params.klss_word_bits,
        "keygen_wall_s": keygen_wall,
        "step_wall_s": step_wall,
        "max_slot_error": error,
        "width_paths": width_paths,
        "bconv": bconv,
    }


def run_micro(params_mode: str = "full", quick: bool = False) -> dict:
    """The full ``micro`` block for the bench report."""
    from repro.core.tbm import TunableBitMultiplier

    tbm = TunableBitMultiplier()
    return {
        "params_mode": params_mode,
        # narrow products per cycle over wide ones: what the two
        # measured ``tbm_ratio`` figures stand next to
        "tbm_issue_ratio": (tbm.products_per_cycle(wide=False)
                            / tbm.products_per_cycle(wide=True)),
        "modmul": _modmul_section(quick),
        "ntt": _ntt_section(quick),
        "bconv": _bconv_section(quick),
        "functional": _functional_section(params_mode, quick),
    }


def validate_micro(micro: dict) -> list[str]:
    """Acceptance-bar violations in a ``micro`` block (empty = pass)."""
    violations: list[str] = []
    ntt = micro.get("ntt", {})
    if not ntt.get("wide_matches_oracle", False):
        violations.append("ntt: wide path disagrees with the object oracle")
    bconv = micro.get("bconv", {})
    if not bconv.get("bit_exact", False):
        violations.append(
            "bconv: matrix kernel disagrees with the object-path oracle")
    if bconv.get("plan_counters", {}).get("object_fallback"):
        violations.append(
            "bconv: conversions fell back onto the object path at "
            "Set-II-mini shapes")
    functional = micro.get("functional", {})
    error = functional.get("max_slot_error")
    if error is None or error > MAX_FUNCTIONAL_ERROR:
        violations.append(
            f"functional: slot error {error} exceeds {MAX_FUNCTIONAL_ERROR}")
    if functional.get("params_mode") == "full":
        paths = functional.get("width_paths", {})
        object_hits = sum(v for k, v in paths.items()
                          if k.endswith(".object"))
        wide_hits = sum(v for k, v in paths.items() if k.endswith(".wide"))
        if object_hits:
            violations.append(
                f"functional: {object_hits} kernel invocations fell back "
                "onto the object path at full-size parameters")
        if not wide_hits:
            violations.append(
                "functional: no kernel invocation took the wide path at "
                "full-size parameters")
        conversions = functional.get("bconv", {})
        if conversions.get("object_fallback"):
            violations.append(
                f"functional: {conversions['object_fallback']} base "
                "conversions fell back onto the object path")
        if not conversions.get("matrix"):
            violations.append(
                "functional: no base conversion took the matrix path")
    return violations
