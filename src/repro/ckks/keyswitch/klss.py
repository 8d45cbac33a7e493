"""KLSS (gadget decomposition) key-switching (Fig. 1b).

The KLSS method of Kim-Lee-Seo-Song trades the hybrid method's many
narrow-limb NTTs for fewer, wider operations: the input is *doubly
decomposed* — first recombined out of its narrow RNS limbs, then cut
into wide base-``2^v`` digits (``v = 60`` at full scale) — and each
digit is key-multiplied against gadget keys over ``Q_l * T`` where
``T`` is a wide auxiliary basis.  Recovery of the original limb
structure happens implicitly when the accumulated result is reduced
on the ``Q_l * T`` basis, and a final ModDown by ``T`` removes the
gadget scaling.

Functionally this is the classic balanced-digit gadget switch; the
wide-limb grouping of the paper (``alpha'`` limbs in ``R_T``) shows up
in the cost model (:mod:`repro.ckks.keyswitch.cost`), which counts
operations exactly as the paper does.
"""

from __future__ import annotations

import numpy as np

from repro.ckks import modmath, rns
from repro.ckks.keys import KeySwitchKey
from repro.ckks.keyswitch.hybrid import (_eval_in_place, digits_to_eval,
                                         key_mult_accumulate, mod_down_pair)
from repro.ckks.rns import RnsPoly
from repro.obs.tracer import get_tracer


def balanced_digits(value: int, digit_bits: int, num_digits: int) -> list[int]:
    """Balanced base-``2^v`` digits of a (centred) integer.

    Digits lie in ``[-2^(v-1), 2^(v-1))`` and satisfy
    ``sum_j d_j 2^(v j) == value`` exactly.  Balancing halves the
    digit magnitude and therefore the switching noise.
    """
    base = 1 << digit_bits
    half = base >> 1
    digits = []
    v = int(value)
    for _ in range(num_digits):
        d = v % base
        if d >= half:
            d -= base
        digits.append(d)
        v = (v - d) >> digit_bits
    if v not in (0, -1):
        # -1 can remain for negative inputs whose sign bit exhausted
        # the digit budget; one extra digit absorbs it.
        raise ValueError("digit budget too small for value")
    if v == -1:
        digits[-1] -= base
    return digits


def _balanced_digits_columns(values: list[int], digit_bits: int,
                             num_digits: int) -> list[np.ndarray]:
    """Column-wise :func:`balanced_digits` over a coefficient vector.

    Returns ``num_digits`` object arrays, ``columns[j][i]`` being digit
    ``j`` of ``values[i]``.  Same digits as the scalar routine (the
    property tests cross-check the two) but each extraction step runs
    as a whole-vector big-int pass instead of a per-coefficient loop.
    """
    base = 1 << digit_bits
    half = base >> 1
    v = np.empty(len(values), dtype=object)
    v[:] = [int(c) for c in values]
    columns = []
    for _ in range(num_digits):
        d = np.mod(v, base)
        d = np.where(d >= half, d - base, d)
        columns.append(d)
        v = (v - d) >> digit_bits
    bad = ~((v == 0) | (v == -1))
    if bad.any():
        raise ValueError("digit budget too small for value")
    columns[-1] = np.where(v == -1, columns[-1] - base, columns[-1])
    return columns


def klss_decompose(poly: RnsPoly, key: KeySwitchKey) -> list[RnsPoly]:
    """Double decomposition: narrow limbs -> integers -> wide digits.

    Returns one small-coefficient polynomial per gadget digit,
    extended over the key's full ``Q_l * T`` basis in evaluation form
    (reusable across hoisted rotations).
    """
    q_count = len(key.moduli) - key.aux_count
    q_moduli = key.moduli[:q_count]
    if poly.moduli != q_moduli:
        raise ValueError("input basis does not match the key's Q basis")
    coeff = poly.to_coeff()
    big_coeffs = rns.compose_crt(coeff)
    columns = _balanced_digits_columns(big_coeffs, key.digit_bits,
                                       key.num_digits)
    if key.digit_bits <= 62 and modmath.block_dtype(key.moduli) == np.uint64:
        # Balanced digits stay below 1.5 * 2^digit_bits in magnitude,
        # so every column fits int64 and the whole (digits, k, N)
        # residue stack reduces in one pass; digits_to_eval then runs
        # every limb of *every* digit through one batched NTT call.
        cols = np.array(columns, dtype=np.int64)[:, None, :]
        q = np.array(key.moduli, dtype=np.int64).reshape(-1, 1)
        block = np.empty((len(columns), len(key.moduli), poly.n), np.uint64)
        np.mod(cols, q, out=block.view(np.int64))
        return _eval_in_place(block, key.moduli)
    return digits_to_eval(
        [rns.from_big_ints(col.tolist(), key.moduli, poly.n)
         for col in columns])


def klss_key_switch(poly: RnsPoly, key: KeySwitchKey) -> tuple[RnsPoly, RnsPoly]:
    """Full KLSS switch; returns ``(delta0, delta1)`` over ``Q_l`` (eval).

    ``delta0 + delta1 * s ~= poly * s_from`` with gadget noise bounded
    by ``num_digits * 2^(v-1) * ||e||``, removed by the ModDown by T.
    """
    get_tracer().count("keyswitch.klss")
    decomposed = klss_decompose(poly, key)
    acc0, acc1 = key_mult_accumulate(decomposed, key)
    return mod_down_pair(acc0, acc1, key.aux_count)
