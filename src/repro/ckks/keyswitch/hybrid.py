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
place, and the compiled kernel sums each output word's per-digit
products in ``unsigned __int128`` before a single reduction, instead
of reducing — and allocating two ``RnsPoly`` temporaries — per digit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.backend import native
from repro.ckks import modmath, rns
from repro.ckks.keys import KeySwitchKey, hybrid_digit_indices
from repro.ckks.ntt import transform_limbs
from repro.ckks.rns import RnsPoly
from repro.obs.tracer import get_tracer


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
    the key object.  The key's ``num_digits`` RLWE pairs are read where
    the key stores them, its ``(2, d, k, N)`` uint64
    :attr:`~repro.ckks.keys.KeySwitchKey.weights` block, and
    :meth:`accumulate` computes ``sum_j digit_j * w_j`` for both halves
    with the reduction deferred across all digits: the output-stationary
    dataflow of FAST's KMU systolic array.  Where the compiled kernel
    is loaded (:func:`repro.backend.native.load`) that is one C loop
    accumulating each output word in ``unsigned __int128`` and reducing
    it once; a host without one runs the per-digit reference loop
    (:func:`key_mult_accumulate_reference`).  Both give the canonical
    residues, so the bits are the same.

    Keys whose moduli exceed the 62-bit uint64 datapath get no plan;
    ``key_mult_accumulate`` runs the reference loop on their Python
    ints.
    """

    __slots__ = ("moduli", "num_digits", "n", "_w", "_q", "_parts")

    def __init__(self, key: KeySwitchKey):
        self.moduli = key.moduli
        self.num_digits = key.num_digits
        self.n = key.parts[0][0].n
        if modmath.block_dtype(key.moduli) is object:
            raise ValueError("key moduli exceed the uint64 datapath")
        if any(part.form != rns.EVAL for pair in key.parts for part in pair):
            raise ValueError("key parts must be in evaluation form")
        self._w = key.weights
        self._q = np.array(self.moduli, dtype=np.uint64)
        self._parts = key.parts

    def stack(self, decomposed: list[RnsPoly]) -> np.ndarray:
        """The decomposed digits as one ``(d, k, N)`` uint64 tensor.

        Digits that are the consecutive rows of one such block (what
        ModUp and the KLSS decomposition hand over) are that block, not
        a copy; any others are stacked into a new one.
        """
        if len(decomposed) != self.num_digits:
            raise ValueError(
                f"key expects exactly {self.num_digits} digits, "
                f"got {len(decomposed)}")
        for digit in decomposed:
            if digit.form != rns.EVAL:
                raise ValueError("decomposed digits must be in eval form")
            if digit.moduli != self.moduli:
                raise ValueError("digit basis does not match the key")
        block = decomposed[0].data.base
        shape = (self.num_digits, len(self.moduli), self.n)
        if (isinstance(block, np.ndarray) and block.shape == shape
                and block.dtype == np.uint64 and block.flags.c_contiguous
                and all(digit.data.base is block
                        and digit.data.ctypes.data == row.ctypes.data
                        for digit, row in zip(decomposed, block))):
            return block
        return np.stack([digit.data for digit in decomposed])

    def accumulate(self, stacked: np.ndarray) -> tuple[RnsPoly, RnsPoly]:
        """``(sum_j d_j b_j, sum_j d_j a_j)`` from a stacked digit tensor.

        One ``(2, k, N)`` output block per call, the one allocation a
        call makes; the returned polys are its halves.  Bit-identical
        to :func:`key_mult_accumulate_reference`, which is also what a
        host without the compiled kernel runs.
        """
        d, k, n = self.num_digits, len(self.moduli), self.n
        if stacked.shape != (d, k, n):
            raise ValueError("stacked digit tensor has the wrong shape")
        kernel = native.load()
        tracer = get_tracer()
        if kernel is None:
            if tracer.enabled:
                tracer.count("keyswitch.kmu.numpy")
            return _accumulate_digits(
                [RnsPoly._of(x, self.moduli, rns.EVAL) for x in stacked],
                self._parts)
        if tracer.enabled:
            tracer.count("keyswitch.kmu.native")
        res = np.empty((2, k, n), np.uint64)
        kernel.key_mult(stacked, self._w, self._q, res)
        return (RnsPoly._of(res[0], self.moduli, rns.EVAL),
                RnsPoly._of(res[1], self.moduli, rns.EVAL))


_NO_PLAN_YET = object()


def get_key_mult_plan(key: KeySwitchKey) -> KeyMultPlan | None:
    """Cached :class:`KeyMultPlan` for ``key`` (built on first use).

    The plan is stored on the key object itself (keys are frozen but
    carry a ``__dict__``), so its lifetime matches the key's — no
    global cache to bound or invalidate.  Returns ``None`` for keys
    over moduli beyond the uint64 datapath.  When the observability
    layer is enabled, bumps ``keyswitch.kmu.plan_hit`` / ``plan_miss``.
    """
    tracer = get_tracer()
    cached = getattr(key, "_kmu_plan", _NO_PLAN_YET)
    if cached is not _NO_PLAN_YET:
        if tracer.enabled:
            tracer.count("keyswitch.kmu.plan_hit")
        return cached
    if tracer.enabled:
        tracer.count("keyswitch.kmu.plan_miss")
    plan = (None if modmath.block_dtype(key.moduli) is object
            else KeyMultPlan(key))
    object.__setattr__(key, "_kmu_plan", plan)
    return plan


def _accumulate_digits(decomposed, parts) -> tuple[RnsPoly, RnsPoly]:
    acc0 = acc1 = None
    for digit, (b_j, a_j) in zip(decomposed, parts):
        term0 = digit * b_j
        term1 = digit * a_j
        acc0 = term0 if acc0 is None else acc0 + term0
        acc1 = term1 if acc1 is None else acc1 + term1
    return acc0, acc1


def key_mult_accumulate_reference(
        decomposed: list[RnsPoly],
        key: KeySwitchKey) -> tuple[RnsPoly, RnsPoly]:
    """Per-digit KeyMult loop (the bit-exactness oracle).

    One reduced product and running sum per digit, all through
    :class:`RnsPoly` arithmetic.  Structurally independent of the
    compiled KMU; the path of a host without it and of keys over
    object-path moduli.
    """
    return _accumulate_digits(decomposed, key.parts)


def key_mult_accumulate(decomposed: list[RnsPoly],
                        key: KeySwitchKey) -> tuple[RnsPoly, RnsPoly]:
    """KeyMult stage: ``(sum d_j b_j, sum d_j a_j)`` in eval form.

    Runs the key's :class:`KeyMultPlan` on the uint64 datapath, the
    reference loop on object-path moduli.  Exactly ``key.num_digits``
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
