"""Hybrid key-switching: ModUp -> KeyMult -> ModDown (Fig. 1a).

The input polynomial (e.g. the ``c1 * c1'`` tensor component, or the
rotated ``c1``) is split into ``beta`` digits of ``alpha`` limbs.
Each digit is extended onto the full ``Q_l * P`` basis (*ModUp*, heavy
in NTTs), multiplied element-wise with its evaluation-key pair
(*KeyMult*), and the accumulated pair is divided by ``P``
(*ModDown*).

The KeyMult stage runs through a cached :class:`KeyMultPlan` — the
software analogue of FAST's KMU, a 3x256 output-stationary systolic
array: the key is stored as one ``(2, d, k, N)`` uint64 block, read in
place, and the per-digit products are *accumulated lazily*
(raw uint64 or 128-bit hi/lo split-limb sums) across all digits
before a single reduction per limb, instead of reducing — and
allocating two ``RnsPoly`` temporaries — per digit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.backend.arena import WorkspaceArena
from repro.ckks import modmath, rns
from repro.ckks.keys import KeySwitchKey, hybrid_digit_indices
from repro.ckks.ntt import transform_limbs
from repro.ckks.rns import RnsPoly
from repro.obs.tracer import get_tracer

_U64_ONE = np.uint64(1)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def digits_to_eval(digits: list[RnsPoly]) -> list[RnsPoly]:
    """Forward-NTT every limb of every digit in one batched call.

    The decomposed digits share one basis, so their blocks stack into
    a single ``(d * k, N)`` batched transform, run in place — one
    stage-vectorised pass instead of ``d`` separate ``to_eval`` calls.
    Digits that do not share a coefficient-form basis fall back to
    per-digit conversion (bit-identical either way).
    """
    if len(digits) <= 1:
        return [d.to_eval() for d in digits]
    moduli = digits[0].moduli
    n = digits[0].n
    if any(d.moduli != moduli or d.form != rns.COEFF or d.n != n
           for d in digits):
        return [d.to_eval() for d in digits]
    return _eval_in_place(np.stack([d.data for d in digits]), moduli)


def _eval_in_place(block: np.ndarray, moduli) -> list[RnsPoly]:
    """Forward-NTT a ``(d, k, N)`` coefficient block in place (one
    batched call over its ``(d * k, N)`` rows); the digits are views."""
    rows = block.reshape(-1, block.shape[-1])
    transform_limbs(rows, moduli * len(block), block.shape[-1], out=rows)
    return [RnsPoly._of(digit, moduli, rns.EVAL) for digit in block]


def hybrid_decompose(poly: RnsPoly, key: KeySwitchKey,
                     alpha: int) -> list[RnsPoly]:
    """ModUp stage: digits of ``poly`` extended to the key's basis.

    ``poly`` must be in coefficient form over the first
    ``len(key.moduli) - key.aux_count`` primes of the key basis.
    Returns the extended digits in **evaluation** form, ready for
    KeyMult (and reusable across rotations — this is what hoisting
    hoists).
    """
    q_count = len(key.moduli) - key.aux_count
    q_moduli = key.moduli[:q_count]
    p_moduli = key.moduli[q_count:]
    if poly.moduli != q_moduli:
        raise ValueError("input basis does not match the key's Q basis")
    digits = hybrid_digit_indices(q_count, alpha)
    if len(digits) != key.num_digits:
        raise ValueError(
            f"key has {key.num_digits} digits, input needs {len(digits)}")
    extended = rns.mod_up(poly, digits, q_moduli, p_moduli)
    # mod_up's digits are the rows of one (d, k, N) block it just made:
    # transform that block where it lies
    return _eval_in_place(extended[0].data.base, key.moduli)


# -- fused KeyMult (software KMU) -----------------------------------------

class KeyMultPlan:
    """Stacked-tensor KeyMult for one :class:`KeySwitchKey`.

    Built once per key (see :func:`get_key_mult_plan`) and cached on
    the key object.  The key's ``num_digits`` RLWE pairs are stacked
    into two ``(d, k, N)`` uint64 weight tensors (``b`` and ``a``
    halves: the key's own :attr:`~repro.ckks.keys.KeySwitchKey.weights`
    block, not a copy), and :meth:`accumulate` computes ``sum_j digit_j * w_j``
    with the reduction *deferred across all digits* — the
    output-stationary dataflow of FAST's KMU systolic array.  Three
    accumulation tiers, chosen from the widest modulus and the digit
    count (:func:`_kmu_tier`), with the worst-case bit budget
    ``2 * max_bits + ceil(log2 d)``:

    * ``u64`` (budget <= 64): raw wrapping-uint64 products summed
      directly, one ``np.mod`` per limb at the end.  Covers narrow
      (<= 31-bit) moduli at any realistic digit count.
    * ``float`` (every modulus below 2^46, ``2 q d <= 2^49``): each
      product comes out of the float-quotient multiply
      (:func:`repro.ckks.modmath.mul_float_lazy_var_into`) already
      folded to ``[0, 2q)`` and is summed in uint64; the sum stays
      below 2^49, so one more float-quotient step and a fold reduce
      it.  3 scratch blocks; the tier of a hybrid key over 36/44-bit
      primes.
    * ``hilo`` (budget <= 126): exact 128-bit products via
      :func:`repro.ckks.modmath.mul128` accumulated as a carry-tracked
      (hi, lo) split-limb pair, one :func:`~repro.ckks.modmath.
      barrett128` sweep per limb at the end.  Valid through 62-bit
      moduli (the barrett128 range proof caps the accumulator at
      ``2^126``).

    Keys whose moduli exceed the uint64 datapath (or whose digit count
    blows the 126-bit budget) get no plan; ``key_mult_accumulate``
    falls back to the per-digit reference loop for those.
    """

    __slots__ = ("moduli", "num_digits", "n", "tier", "_w",
                 "_q_col", "_q_inv", "_r_hi", "_r_lo32", "_r_hi32",
                 "_arena")

    def __init__(self, key: KeySwitchKey):
        self.moduli = key.moduli
        self.num_digits = key.num_digits
        self.n = key.parts[0][0].n
        tier = _kmu_tier(key.moduli, key.num_digits)
        if tier is None:
            raise ValueError("key does not fit the fused KeyMult budgets")
        self.tier = tier
        if any(part.form != rns.EVAL for pair in key.parts for part in pair):
            raise ValueError("key parts must be in evaluation form")
        self._w = key.weights
        self._q_col = np.array(self.moduli, dtype=np.uint64).reshape(-1, 1)
        if tier == "float":
            self._q_inv = np.array(
                [modmath.float_companion(1, q) for q in self.moduli]
            ).reshape(-1, 1)
        elif tier == "hilo":
            # The split-operand 128-bit kernels: Barrett-ratio columns
            # pre-split once into uint32 halves (the weights are split
            # per digit into scratch, so the key is held once).
            consts = [modmath.barrett_constants(q) for q in self.moduli]
            self._r_hi = np.array(
                [c[0] for c in consts], dtype=np.uint64).reshape(-1, 1)
            r_lo = np.array(
                [c[1] for c in consts], dtype=np.uint64).reshape(-1, 1)
            self._r_lo32 = modmath.split32(r_lo)
            self._r_hi32 = modmath.split32(self._r_hi)
        self._arena = WorkspaceArena("kmu")

    def stack(self, decomposed: list[RnsPoly]) -> np.ndarray:
        """Stack decomposed digits into one ``(d, k, N)`` uint64 tensor.

        The tensor is an arena-pooled workspace (reused across calls,
        so the steady state allocates nothing): consume it via
        :meth:`accumulate` before the next :meth:`stack`.
        """
        if len(decomposed) != self.num_digits:
            raise ValueError(
                f"key expects exactly {self.num_digits} digits, "
                f"got {len(decomposed)}")
        k = len(self.moduli)
        out = self._arena.take("stack", (self.num_digits, k, self.n))
        for j, digit in enumerate(decomposed):
            if digit.form != rns.EVAL:
                raise ValueError("decomposed digits must be in eval form")
            if digit.moduli != self.moduli:
                raise ValueError("digit basis does not match the key")
            out[j] = digit.data
        return out

    def accumulate(self, stacked: np.ndarray) -> tuple[RnsPoly, RnsPoly]:
        """``(sum_j d_j b_j, sum_j d_j a_j)`` from a stacked digit tensor.

        One lazy pass over all digits per half, a single reduction per
        limb at the end — no per-digit temporaries.  Bit-identical to
        :func:`key_mult_accumulate_reference`.
        """
        d, k, n = self.num_digits, len(self.moduli), self.n
        if stacked.shape != (d, k, n):
            raise ValueError("stacked digit tensor has the wrong shape")
        # One (2, k, N) output block per call — the returned polys own
        # their limbs as views into it; all intermediates are arena
        # scratch, so the warmed steady state allocates only this.
        res = np.empty((2, k, n), np.uint64)
        arena = self._arena
        if self.tier == "u64":
            acc, prod = arena.take_many("u64", 2, (k, n))
            for half in range(2):               # b-half then a-half
                w = self._w[half]
                np.multiply(stacked[0], w[0], out=acc)
                for j in range(1, d):
                    np.multiply(stacked[j], w[j], out=prod)
                    np.add(acc, prod, out=acc)
                np.mod(acc, self._q_col, out=res[half])
        elif self.tier == "float":
            term, *s = arena.take_many("float", 3, (k, n))
            q, q_inv = self._q_col, self._q_inv
            for half in range(2):
                w, acc = self._w[half], res[half]
                modmath.mul_float_lazy_var_into(
                    stacked[0], w[0], q_inv, q, acc, s)
                for j in range(1, d):
                    modmath.mul_float_lazy_var_into(
                        stacked[j], w[j], q_inv, q, term, s)
                    np.add(acc, term, out=acc)
                # acc < 2qd <= 2^49: times one, by the same multiply
                modmath.mul_float_lazy_into(acc, _U64_ONE, q_inv, q, acc, s)
                modmath.cond_sub_into(acc, q, term)
        else:
            hi, lo, p_hi, p_lo, w_lo, w_hi = arena.take_many(
                "hilo", 6, (k, n))
            s = arena.take_many("scratch", 8, (k, n))
            carry = arena.take("carry", (k, n), dtype=bool)

            def split(w):
                np.bitwise_and(w, _MASK32, out=w_lo)
                np.right_shift(w, _SHIFT32, out=w_hi)
                return w_lo, w_hi

            for half in range(2):
                modmath.mul128_into(stacked[0], *split(self._w[half, 0]),
                                    hi, lo, s[:4])
                for j in range(1, d):
                    modmath.mul128_into(stacked[j],
                                        *split(self._w[half, j]),
                                        p_hi, p_lo, s[:4])
                    np.add(lo, p_lo, out=lo)
                    np.less(lo, p_lo, out=carry)    # carry out of lo
                    np.add(hi, p_hi, out=hi)
                    np.add(hi, carry, out=hi)
                modmath.barrett128_into(
                    hi, lo, self._q_col, self._r_hi, self._r_lo32,
                    self._r_hi32, res[half], s, carry)
        return (RnsPoly._of(res[0], self.moduli, rns.EVAL),
                RnsPoly._of(res[1], self.moduli, rns.EVAL))


def _kmu_tier(moduli, num_digits: int) -> str | None:
    """Accumulation tier for a key's basis, or None when infeasible."""
    if any(modmath.width_path(q) == modmath.OBJECT for q in moduli):
        return None
    bits = max(int(q).bit_length() for q in moduli)
    log_d = max(0, num_digits - 1).bit_length()
    if 2 * bits + log_d <= 64:
        return "u64"
    if all(modmath.fits_float_quotient(q) for q in moduli) \
            and bits + 1 + log_d <= 49:
        return "float"
    if 2 * bits + log_d <= 126:
        return "hilo"
    return None


_NO_PLAN_YET = object()


def get_key_mult_plan(key: KeySwitchKey) -> KeyMultPlan | None:
    """Cached :class:`KeyMultPlan` for ``key`` (built on first use).

    The plan is stored on the key object itself (keys are frozen but
    carry a ``__dict__``), so its lifetime matches the key's — no
    global cache to bound or invalidate.  Returns ``None`` for keys
    outside the fused budgets.  When the observability layer is
    enabled, bumps ``keyswitch.kmu.plan_hit`` / ``plan_miss``.
    """
    tracer = get_tracer()
    cached = getattr(key, "_kmu_plan", _NO_PLAN_YET)
    if cached is not _NO_PLAN_YET:
        if tracer.enabled:
            tracer.count("keyswitch.kmu.plan_hit")
        return cached
    if tracer.enabled:
        tracer.count("keyswitch.kmu.plan_miss")
    plan = (KeyMultPlan(key)
            if _kmu_tier(key.moduli, key.num_digits) is not None else None)
    object.__setattr__(key, "_kmu_plan", plan)
    return plan


def key_mult_accumulate_reference(
        decomposed: list[RnsPoly],
        key: KeySwitchKey) -> tuple[RnsPoly, RnsPoly]:
    """Per-digit KeyMult loop (the bit-exactness oracle).

    The pre-plan implementation: one reduced product and running sum
    per digit, all through :class:`RnsPoly` arithmetic.  Structurally
    independent of :class:`KeyMultPlan`'s lazy accumulation, and the
    only path for keys over object-path moduli.
    """
    acc0 = acc1 = None
    for digit, (b_j, a_j) in zip(decomposed, key.parts):
        term0 = digit * b_j
        term1 = digit * a_j
        acc0 = term0 if acc0 is None else acc0 + term0
        acc1 = term1 if acc1 is None else acc1 + term1
    return acc0, acc1


def key_mult_accumulate(decomposed: list[RnsPoly],
                        key: KeySwitchKey) -> tuple[RnsPoly, RnsPoly]:
    """KeyMult stage: ``(sum d_j b_j, sum d_j a_j)`` in eval form.

    Runs the fused :class:`KeyMultPlan` when the key fits the lazy
    budgets, the reference loop otherwise.  Exactly ``key.num_digits``
    digits are required: a shorter prefix would silently drop key
    parts and compute a different (wrong) switch — callers that
    legitimately have fewer digits must pad with zeros explicitly.
    """
    if len(decomposed) != key.num_digits:
        raise ValueError(
            f"key expects exactly {key.num_digits} digits, "
            f"got {len(decomposed)}")
    tracer = get_tracer()
    plan = get_key_mult_plan(key)
    if plan is not None:
        if tracer.enabled:
            tracer.count("keyswitch.kmu.fused")
            tracer.count("keyswitch.kmu.tier." + plan.tier)
        return plan.accumulate(plan.stack(decomposed))
    if tracer.enabled:
        tracer.count("keyswitch.kmu.object_fallback")
    return key_mult_accumulate_reference(decomposed, key)


def mod_down_batch(
        pairs: list[tuple[RnsPoly, RnsPoly]],
        aux_count: int) -> list[tuple[RnsPoly, RnsPoly]]:
    """ModDown applied to many accumulator pairs over one shared basis.

    ModDown only needs the *auxiliary* limbs in coefficient form (for
    the P -> Q base conversion); the subtraction and the ``P^{-1}``
    scaling are element-wise, so they commute with the NTT.  Every
    half therefore stays in the evaluation domain on its Q limbs: per
    half, only ``aux_count`` limbs ride the inverse transform instead
    of the full ``k``, the conversion result is forward-NTT'd, and
    the difference is taken point-wise in eval form.  Bit-identical
    to :func:`repro.ckks.rns.mod_down` per half — the NTT is an exact
    linear map mod q, so ``NTT((x - conv) * P^-1)`` equals
    ``(NTT(x) - NTT(conv)) * P^-1`` residue for residue.

    All pairs are processed together: one batched transform per
    direction, one matrix conversion and one subtract and one scale
    pass over a ``(2R, q_count, N)`` stack of every half.  For a
    hoisted batch of R rotations that is 2 NTT dispatches and two
    element-wise passes total, not per rotation — the stage-vectorised
    kernels amortise their per-stage dispatch overhead over ``2R``
    rows.

    Requires evaluation form and a matrix/down-scale path; callers
    fall back to :func:`mod_down_pair`'s coefficient pipeline
    otherwise (see :func:`_mod_down_batch_ready`).
    """
    if not pairs:
        return []
    accs = [half for pair in pairs for half in pair]
    moduli = accs[0].moduli
    if any(a.moduli != moduli for a in accs):
        raise ValueError("accumulator halves live on different bases")
    if aux_count <= 0:
        raise ValueError("nothing to mod-down: no auxiliary limbs")
    q_count = len(moduli) - aux_count
    q_moduli = moduli[:q_count]
    p_moduli = moduli[q_count:]
    n = accs[0].n
    m = len(accs)
    plan = rns.get_bconv_plan(p_moduli, q_moduli)
    if any(a.form != rns.EVAL for a in accs) or not (
            plan.matrix_path and plan.has_down_scale):
        raise ValueError("batch requires eval form and a matrix path")
    tracer = get_tracer()
    if tracer.enabled:
        tracer.count("keyswitch.moddown.eval_batch")
        tracer.count("keyswitch.moddown.eval_halves", m)
        tracer.count("rns.bconv.matrix")    # one batched plan.convert
    # Aux rows grouped by modulus, (aux_count, m, n): the inverse NTT
    # sees one (aux_count * m, n) block and the conversion one
    # (aux_count, m * n) block over the same memory.
    aux = np.stack([acc.data[q_count:] for acc in accs], axis=1)
    rows = aux.reshape(-1, n)
    transform_limbs(rows, tuple(p for p in p_moduli for _ in range(m)), n,
                    inverse=True, out=rows)
    conv = plan.convert(RnsPoly._of(aux.reshape(aux_count, m * n),
                                    p_moduli, rns.COEFF))
    rows = conv.reshape(-1, n)
    transform_limbs(rows, tuple(q for q in q_moduli for _ in range(m)), n,
                    out=rows)
    kernel = plan.dst_kernel
    x = np.stack([acc.data[:q_count] for acc in accs])     # (m, q_count, n)
    diff = kernel.sub(x, conv.reshape(q_count, m, n).transpose(1, 0, 2))
    scaled = plan.down_scale(diff)
    return [(RnsPoly._of(scaled[2 * j], q_moduli, rns.EVAL, kernel),
             RnsPoly._of(scaled[2 * j + 1], q_moduli, rns.EVAL, kernel))
            for j in range(len(pairs))]


def _mod_down_batch_ready(acc0: RnsPoly, acc1: RnsPoly,
                          aux_count: int) -> bool:
    """Whether a pair qualifies for the eval-domain batched ModDown."""
    if acc0.form != rns.EVAL or acc1.form != rns.EVAL or aux_count <= 0:
        return False
    q_count = len(acc0.moduli) - aux_count
    plan = rns.get_bconv_plan(acc0.moduli[q_count:], acc0.moduli[:q_count])
    return plan.matrix_path and plan.has_down_scale


def mod_down_pair(acc0: RnsPoly, acc1: RnsPoly,
                  aux_count: int) -> tuple[RnsPoly, RnsPoly]:
    """ModDown stage applied to both halves; returns eval form.

    Runs the eval-domain :func:`mod_down_batch` on the single pair
    when the basis qualifies; otherwise (coefficient inputs, object
    moduli, non-invertible aux product) falls back to the coefficient
    pipeline, still sharing one batched transform per direction
    between the halves.  Bit-identical either way.
    """
    if acc0.moduli != acc1.moduli:
        raise ValueError("accumulator halves live on different bases")
    if aux_count <= 0:
        raise ValueError("nothing to mod-down: no auxiliary limbs")
    if _mod_down_batch_ready(acc0, acc1, aux_count):
        return mod_down_batch([(acc0, acc1)], aux_count)[0]
    q_count = len(acc0.moduli) - aux_count
    n = acc0.n
    down0 = rns.mod_down(acc0.to_coeff(), q_count)
    down1 = rns.mod_down(acc1.to_coeff(), q_count)
    both = np.concatenate((down0.data, down1.data))
    transform_limbs(both, down0.moduli + down1.moduli, n, out=both)
    return (RnsPoly._of(both[:q_count], down0.moduli, rns.EVAL),
            RnsPoly._of(both[q_count:], down1.moduli, rns.EVAL))


FOLD_CACHE_MAXSIZE = 64


@lru_cache(maxsize=FOLD_CACHE_MAXSIZE)
def _fold_scalars(p_moduli: tuple[int, ...],
                  q_moduli: tuple[int, ...]):
    """Hoisted ``P mod q_i`` residues per Q limb.

    Used by the fused ModDown+Rescale to fold the tensor ``d`` parts
    into the key-switch accumulator as ``acc_i + (P mod q_i) * d_i``.
    Bounded LRU: keys are (P basis, Q basis) pairs, one entry per
    level actually exercised.
    """
    big_p = rns.product(p_moduli)
    return tuple(big_p % q for q in q_moduli)


def _mod_down_rescale_ready(acc0: RnsPoly, acc1: RnsPoly,
                            aux_count: int, drop: int) -> bool:
    """Whether the fused eval-domain ModDown+Rescale kernel applies."""
    if acc0.form != rns.EVAL or acc1.form != rns.EVAL:
        return False
    if aux_count <= 0 or drop < 1:
        return False
    q_count = len(acc0.moduli) - aux_count
    if q_count - drop < 1:
        return False
    kept = acc0.moduli[:q_count - drop]
    src = acc0.moduli[q_count - drop:]
    plan = rns.get_bconv_plan(src, kept)
    return plan.matrix_path and plan.has_down_scale


def mod_down_rescale_pair(
        acc0: RnsPoly, acc1: RnsPoly,
        d0: RnsPoly, d1: RnsPoly,
        aux_count: int, drop: int = 1) -> tuple[RnsPoly, RnsPoly]:
    """Fused ModDown + ``drop`` rescales, dividing by ``P * D`` once.

    Implements the optimiser's ``merge_rescale`` rewrite as a real
    kernel.  The sequential pipeline computes
    ``y = d + round(acc / P)`` over Q_k (ModDown: aux INTT ``2p``,
    conversion NTT ``2k``) and then ``round(y / D)`` over
    ``Q_{k-drop}`` (each rescale: full INTT ``2k`` + NTT ``2(k-1)``).
    Here the divisor is applied in one step on the integer form
    ``Z = acc + P * d``: the last ``drop`` Q primes join the auxiliary
    basis (``D`` = their product), one base conversion maps
    ``Z mod (D * P)`` onto the kept primes, and a single
    ``(P * D)^{-1}`` down-scale finishes.  Per drop=1 merge that is
    ``2(p + 1)`` inverse and ``2(k - 1)`` forward limb transforms in
    place of ``2p + 2k`` plus the rescale's ``4k - 2`` — a saving of
    ``4k - 2``, exactly the micro-IR accounting.

    ``round(round(Z/P)/D)`` and ``round(Z/(P*D))`` differ only in
    rounding (each base conversion carries its own sub-unit slack), so
    the fused path is *not* bit-identical to ModDown-then-rescale —
    :func:`mod_down_rescale_reference` is the matching oracle, and the
    functional tests bound the decrypt error against the sequential
    pipeline instead.

    ``acc0``/``acc1`` are the KeyMult accumulators over ``Q_k x P``,
    ``d0``/``d1`` the tensor parts over ``Q_k`` to fold in (the
    ``d + delta`` merge of the relinearisation) — all in evaluation
    form.  Returns both halves over ``Q_{k-drop}`` in evaluation form.
    """
    if acc0.moduli != acc1.moduli:
        raise ValueError("accumulator halves live on different bases")
    q_count = len(acc0.moduli) - aux_count
    q_moduli = acc0.moduli[:q_count]
    if d0.moduli != q_moduli or d1.moduli != q_moduli:
        raise ValueError("tensor parts must live on the Q basis")
    if d0.form != rns.EVAL or d1.form != rns.EVAL:
        raise ValueError("tensor parts must be in evaluation form")
    if not _mod_down_rescale_ready(acc0, acc1, aux_count, drop):
        raise ValueError(
            "fused ModDown+Rescale needs eval form, a matrix path and "
            "1 <= drop < q_count")
    keep = q_count - drop
    kept = acc0.moduli[:keep]
    src = acc0.moduli[keep:]            # dropped q primes, then P
    n = acc0.n
    plan = rns.get_bconv_plan(src, kept)
    tracer = get_tracer()
    if tracer.enabled:
        tracer.count("keyswitch.moddown.fused_rescale")
        tracer.count("keyswitch.moddown.fused_rescale_drop", drop)
        tracer.count("rns.bconv.matrix")
    fold = d0.kernel
    fold_cols = fold.row_scalars(_fold_scalars(acc0.moduli[q_count:],
                                               q_moduli))
    z = [fold.add(acc.data[:q_count], fold.mul_rows(d.data, fold_cols))
         for acc, d in ((acc0, d0), (acc1, d1))]
    # Aux rows grouped by modulus, (src_count, 2, n): the dropped Q
    # rows of Z, then the P rows of acc (Z == acc there); one batched
    # inverse transform over its (src_count * 2, n) view.
    aux = np.empty((len(src), 2, n), np.uint64)
    for h, acc in enumerate((acc0, acc1)):
        aux[:drop, h] = z[h][keep:]
        aux[drop:, h] = acc.data[q_count:]
    rows = aux.reshape(-1, n)
    transform_limbs(rows, tuple(q for q in src for _ in range(2)), n,
                    inverse=True, out=rows)
    conv = plan.convert(RnsPoly._of(aux.reshape(len(src), 2 * n), src,
                                    rns.COEFF))
    rows = conv.reshape(-1, n)
    transform_limbs(rows, tuple(q for q in kept for _ in range(2)), n,
                    out=rows)
    kernel = plan.dst_kernel
    conv = conv.reshape(keep, 2, n)
    return tuple(
        RnsPoly._of(plan.down_scale(kernel.sub(z[h][:keep], conv[:, h])),
                    kept, rns.EVAL, kernel)
        for h in range(2))


def mod_down_rescale_reference(
        acc: RnsPoly, d: RnsPoly,
        aux_count: int, drop: int = 1) -> RnsPoly:
    """Coefficient-domain oracle for one fused ModDown+Rescale half.

    Evaluates the same fused formula —
    ``(Z - BConv(Z mod (D*P))) * (D*P)^{-1}`` with ``Z = acc + P*d`` —
    through :class:`RnsPoly` arithmetic and the per-pair
    object-oracle conversion, structurally independent of the batched
    kernel.  Bit-identical to :func:`mod_down_rescale_pair` (the NTT
    is an exact linear map per limb).  Inputs and output in
    coefficient form.
    """
    if acc.form != rns.COEFF or d.form != rns.COEFF:
        raise ValueError("reference oracle expects coefficient form")
    q_count = len(acc.moduli) - aux_count
    if not 1 <= drop < q_count:
        raise ValueError("need 1 <= drop < q_count")
    q_moduli = acc.moduli[:q_count]
    p_moduli = acc.moduli[q_count:]
    if d.moduli != q_moduli:
        raise ValueError("tensor part must live on the Q basis")
    z = acc.drop_limbs(q_count) + d.mul_scalar_per_limb(
        _fold_scalars(p_moduli, q_moduli))
    keep = q_count - drop
    src = acc.moduli[keep:]
    aux_part = RnsPoly(np.concatenate((z.data[keep:],
                                       acc.data[q_count:])),
                       src, rns.COEFF)
    approx = rns.base_convert(aux_part, q_moduli[:keep])
    inv = [modmath.inv_mod(rns.product(src) % q, q)
           for q in q_moduli[:keep]]
    return (z.drop_limbs(keep) - approx).mul_scalar_per_limb(inv)


def hybrid_key_switch(poly: RnsPoly, key: KeySwitchKey,
                      alpha: int) -> tuple[RnsPoly, RnsPoly]:
    """Full hybrid switch of ``poly`` (coeff or eval form, Q_l basis).

    Returns ``(delta0, delta1)`` in evaluation form over ``Q_l`` such
    that ``delta0 + delta1 * s ~= poly * s_from``.
    """
    get_tracer().count("keyswitch.hybrid")
    coeff = poly.to_coeff()
    decomposed = hybrid_decompose(coeff, key, alpha)
    acc0, acc1 = key_mult_accumulate(decomposed, key)
    return mod_down_pair(acc0, acc1, key.aux_count)
