"""Tunable-width vectorised modular arithmetic.

The software analogue of the accelerator's modular ALUs and of the
paper's Tunable-Bit Multiplier picking its datapath width per
operation (Sec. 4.2, 36-bit vs 60-bit mode).  Each modulus runs one of
two paths, by width alone (:func:`width_path`):

* ``wide`` (below 2^62) — the uint64 datapath, with two multipliers
  picked from the modulus alone by :func:`fits_float_quotient` (the
  TBM's two modes):

  - **36-bit mode**, ``q < 2^46``: the quotient ``floor(a*w/q)`` fits
    a float64 with room to spare, so a modular multiply is the
    float-quotient lazy multiply :func:`mul_float_lazy_into`, 5 ufunc
    passes (:func:`mul_float_lazy_var_into` for two variable
    operands, 6), plus one fold.
  - **60-bit mode**, ``2^46 <= q < 2^62``: products are formed
    exactly as 128-bit (hi, lo) pairs via 32-bit-limb schoolbook
    multiplication and reduced with a vectorised Barrett reduction
    using ``floor(2^128 / q)``; a fixed operand (twiddles, CRT
    scalars) uses Shoup's precomputed-quotient trick
    (:func:`mul_shoup_lazy_into`, 20 passes: a 64x64 ``mulhi`` costs
    17 of them).

  Both multiplies return the exact representative in ``[0, 2q)``, so
  every lazy-domain consumer (the NTT engine's ``[0, 4q)`` / ``[0,
  2q)`` discipline, the KeyMult accumulator) is the same code in
  either mode.
* ``object`` — arbitrary-precision Python integers: the only path
  beyond 62 bits.

Why 46 bits and why ``a < 2^49``: the float multiply admits any
operand below ``2^49`` against a reduced ``w < q`` (the proof is in
:func:`mul_float_lazy_into`), and the NTT engine's widest lazy value
is ``4q - 1``; ``4q <= 2^48 < 2^49`` exactly when ``q < 2^46``.

An RNS polynomial is one ``(k, N)`` block, one modulus per row
(:func:`block_dtype`: uint64 at every width up to 62 bits).
:func:`as_block` is the one boundary that reduces integers into a
block, and :class:`BasisKernel` the one element-wise kernel: each op
is one pass over the block per step.  With the observability layer
on, every kernel invocation bumps ``modmath.path.{wide,object}`` once
per row — the software analogue of TBM mode-occupancy statistics
(Fig. 12).
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from repro.obs.tracer import get_tracer

WIDE = "wide"
OBJECT = "object"

# Largest modulus for the split-limb Barrett path: the reduction needs
# q < 2^62 so that the (< 3q) pre-subtraction remainder and the lazy
# Shoup product (< 2q) both fit in uint64 with slack.
_WIDE_SAFE_BITS = 62
# Largest modulus for the float-quotient multiply: an NTT lazy value
# (< 4q) must stay below the 2^49 the float64 quotient estimate admits.
_FLOAT_QUOTIENT_BITS = 46
# Shrinks a float companion so three roundings cannot push the
# quotient estimate above the true quotient (mul_float_lazy_into).
_FLOAT_SHRINK = 1.0 - 2.0 ** -50

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_U64_ZERO = np.uint64(0)

# The process-global tracer is a stable singleton (obs.configure
# mutates it in place), so one module-level reference is safe and
# keeps the disabled-tracer cost to a single attribute read per op.
_TRACER = get_tracer()


def width_path(modulus: int) -> str:
    """The width path of ``modulus``: ``wide`` (uint64) below 2^62,
    ``object`` (Python ints) from there up."""
    return WIDE if int(modulus).bit_length() <= _WIDE_SAFE_BITS else OBJECT


def fits_float_quotient(modulus: int) -> bool:
    """Whether ``modulus`` runs the float-quotient multiply (36-bit
    mode, ``q < 2^46``) rather than the 64-bit Shoup/Barrett one.

    The one switch between the two wide multipliers: the per-row NTT
    engine, :class:`BasisKernel` and the KeyMult tiers all ask this
    and nothing else.
    """
    return int(modulus).bit_length() <= _FLOAT_QUOTIENT_BITS


# -- 64x64 -> 128-bit building blocks (uint64 arrays) ---------------------

def _mul128(a, b):
    """Exact 128-bit product of uint64 operands as a (hi, lo) pair.

    Schoolbook on 32-bit halves; every partial product and carry sum
    fits uint64, so no wraparound occurs inside this function.
    """
    a0 = a & _MASK32
    a1 = a >> _SHIFT32
    b0 = b & _MASK32
    b1 = b >> _SHIFT32
    ll = a0 * b0
    lh = a0 * b1
    hl = a1 * b0
    mid = (ll >> _SHIFT32) + (lh & _MASK32) + (hl & _MASK32)
    lo = (ll & _MASK32) | ((mid & _MASK32) << _SHIFT32)
    hi = a1 * b1 + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, lo


def _mulhi(a, b):
    """High 64 bits of the 128-bit product (skips lo-word assembly)."""
    a0 = a & _MASK32
    a1 = a >> _SHIFT32
    b0 = b & _MASK32
    b1 = b >> _SHIFT32
    lh = a0 * b1
    hl = a1 * b0
    mid = ((a0 * b0) >> _SHIFT32) + (lh & _MASK32) + (hl & _MASK32)
    return a1 * b1 + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)


def _barrett128(hi, lo, q, r_hi, r_lo):
    """Reduce the 128-bit values ``hi * 2^64 + lo`` modulo ``q < 2^62``.

    ``(r_hi, r_lo)`` is ``floor(2^128 / q)``.  The quotient estimate
    ``floor(x * ratio / 2^128)`` is computed exactly except for the
    dropped low word of ``lo * r_lo`` (SEAL-style two rounds with
    carry propagation).  For ``x < 2^126`` the estimate undershoots
    ``floor(x / q)`` by at most 2 — one unit from the dropped word,
    less than one from ``x * (2^128 mod q) / (q * 2^128) < x / 2^128
    < 1/4`` — so the remainder lands in ``[0, 3q)`` and ``3q < 2^64``
    still fits uint64; the two conditional subtractions finish the
    job.  The BConv matrix kernel (:mod:`repro.ckks.rns`) leans on
    the full ``x < 2^126`` range to accumulate several 124-bit
    products between reductions.
    """
    carry = _mulhi(lo, r_lo)
    t_hi, t_lo = _mul128(lo, r_hi)
    s1 = t_lo + carry
    c1 = s1 < t_lo
    u_hi, u_lo = _mul128(hi, r_lo)
    s2 = s1 + u_lo
    c2 = s2 < u_lo
    quotient = hi * r_hi + t_hi + u_hi + c1 + c2
    r = lo - quotient * q          # exact in [0, 3q), mod-2^64 wraps cancel
    r = np.where(r >= q, r - q, r)
    return np.where(r >= q, r - q, r)


# Public aliases for the batch kernels (BConv matrix stage, batched
# multi-limb NTT).  All three broadcast: operands may be any mutually
# broadcastable uint64 array shapes, e.g. a (N,) residue row against a
# (k, 1) per-modulus column.
mul128 = _mul128
mulhi = _mulhi
barrett128 = _barrett128


def mul_shoup_lazy(a, w, w_shoup, q):
    """Shared lazy-Shoup butterfly multiply: exact value in ``[0, 2q)``.

    ``r = a*w - mulhi(a, w_shoup)*q`` with every product wrapping mod
    2^64.  For ``w < q`` (a reduced table entry) and **any** uint64
    ``a`` the quotient estimate ``mulhi(a, w_shoup)`` undershoots the
    true quotient by at most one, so the wraps cancel and ``r`` is the
    exact representative of ``a*w mod q`` in ``[0, 2q)`` whenever
    ``2q < 2^64``.  :func:`mul_shoup_lazy_into` is the same formula
    into caller-owned scratch (the fused NTT engine's multiply).
    """
    return a * w - _mulhi(a, w_shoup) * q


# -- out=-chained kernels (zero-allocation steady state) -------------------
#
# The functions below are the arena tier of the same arithmetic: every
# intermediate lands in a caller-provided scratch buffer via ufunc
# ``out=``, so a warmed plan performs *zero* allocations per call (the
# ledger in :mod:`repro.backend.arena` asserts it).  Fixed operands
# (twiddles, key weights, Barrett ratios) arrive pre-split into 32-bit
# halves — :func:`split32` — saving two splits per multiply and
# halving the table bytes (uint32 storage).
#
# Aliasing contract: ``a`` may alias ``out`` (the product ``a*w`` is
# read off before ``out`` is first written); ``a`` must not alias any
# scratch buffer, and scratch buffers must be mutually distinct.

def split32(table):
    """Pre-split a uint64 table into ``(lo, hi)`` uint32 halves."""
    return ((table & _MASK32).astype(np.uint32),
            (table >> _SHIFT32).astype(np.uint32))


def mulhi_into(a, b_lo, b_hi, out, s):
    """``out = floor(a * b / 2^64)`` with ``b`` pre-split, no allocs.

    ``s`` is a tuple of 4 uint64 scratch buffers broadcast-compatible
    with the result shape.  ``a`` is only read before ``out`` is first
    written, so ``out`` may alias ``a``.
    """
    s1, s2, s3, s4 = s
    np.bitwise_and(a, _MASK32, out=s1)          # a0
    np.right_shift(a, _SHIFT32, out=s2)         # a1
    np.multiply(s1, b_lo, out=s3)               # ll
    np.right_shift(s3, _SHIFT32, out=s3)        # mid := ll >> 32
    np.multiply(s1, b_hi, out=s4)               # lh
    np.bitwise_and(s4, _MASK32, out=s1)
    np.add(s3, s1, out=s3)                      # mid += lh & M
    np.right_shift(s4, _SHIFT32, out=s4)        # lh >> 32
    np.multiply(s2, b_lo, out=s1)               # hl
    np.multiply(s2, b_hi, out=out)              # hh
    np.bitwise_and(s1, _MASK32, out=s2)
    np.add(s3, s2, out=s3)                      # mid += hl & M
    np.right_shift(s1, _SHIFT32, out=s1)        # hl >> 32
    np.right_shift(s3, _SHIFT32, out=s3)        # mid >> 32
    np.add(out, s4, out=out)
    np.add(out, s1, out=out)
    np.add(out, s3, out=out)


def mul128_into(a, b_lo, b_hi, out_hi, out_lo, s):
    """Exact 128-bit product into ``(out_hi, out_lo)``, no allocs.

    ``b`` pre-split via :func:`split32`; ``s`` is 4 uint64 scratch
    buffers.  ``a`` must not alias ``out_lo`` or scratch.
    """
    s1, s2, s3, s4 = s
    np.bitwise_and(a, _MASK32, out=s1)          # a0
    np.right_shift(a, _SHIFT32, out=s2)         # a1
    np.multiply(s1, b_lo, out=s3)               # ll
    np.bitwise_and(s3, _MASK32, out=out_lo)     # lo := ll & M
    np.right_shift(s3, _SHIFT32, out=s3)        # mid := ll >> 32
    np.multiply(s1, b_hi, out=s4)               # lh
    np.bitwise_and(s4, _MASK32, out=s1)
    np.add(s3, s1, out=s3)                      # mid += lh & M
    np.right_shift(s4, _SHIFT32, out=s4)        # lh >> 32
    np.multiply(s2, b_lo, out=s1)               # hl
    np.multiply(s2, b_hi, out=out_hi)           # hh
    np.bitwise_and(s1, _MASK32, out=s2)
    np.add(s3, s2, out=s3)                      # mid += hl & M
    np.right_shift(s1, _SHIFT32, out=s1)        # hl >> 32
    np.add(out_hi, s4, out=out_hi)
    np.add(out_hi, s1, out=out_hi)
    np.bitwise_and(s3, _MASK32, out=s1)
    np.left_shift(s1, _SHIFT32, out=s1)
    np.bitwise_or(out_lo, s1, out=out_lo)       # lo |= (mid & M) << 32
    np.right_shift(s3, _SHIFT32, out=s3)        # mid >> 32
    np.add(out_hi, s3, out=out_hi)


def mul_shoup_lazy_into(a, w, ws, q, out, s):
    """:func:`mul_shoup_lazy` into ``out``, no allocations.

    ``ws`` is the :func:`split32` ``(lo, hi)`` pair of the Shoup
    companion table; ``s`` is 5 uint64 scratch buffers (4 for
    :func:`mulhi_into` plus one holding the wrap product ``a*w``).
    ``out`` may alias ``a``.
    """
    s5 = s[4]
    np.multiply(a, w, out=s5)                   # a*w mod 2^64
    mulhi_into(a, ws[0], ws[1], out, s[:4])     # quotient estimate
    np.multiply(out, q, out=out)
    np.subtract(s5, out, out=out)               # exact in [0, 2q)


def float_companion(w, modulus):
    """``(w / q) * (1 - 2^-50)`` as float64: the fixed-operand
    companion of :func:`mul_float_lazy_into`, for a reduced residue
    ``w < q < 2^46`` (scalar or uint64 array, converted exactly).
    Refuses a wider modulus: the multiply is not exact there."""
    if not fits_float_quotient(modulus):
        raise ValueError(
            f"modulus {modulus} ({int(modulus).bit_length()} bits) is "
            f"beyond the {_FLOAT_QUOTIENT_BITS}-bit float-quotient mode")
    if isinstance(w, (int, np.integer)):
        return np.float64(int(w) / int(modulus) * _FLOAT_SHRINK)
    wf = w.astype(np.float64)
    np.divide(wf, np.float64(int(modulus)), out=wf)
    np.multiply(wf, _FLOAT_SHRINK, out=wf)
    return wf


def mul_float_lazy_into(a, w, wf, q, out, s):
    """Float-quotient lazy multiply: ``out = a*w - trunc(a*wf) * q``
    in wrapping uint64, the exact representative of ``a*w mod q`` in
    ``[0, 2q)`` — :func:`mul_shoup_lazy_into`'s contract in 5 ufunc
    passes instead of 20.

    Requires ``q < 2^46`` (:func:`fits_float_quotient`), a reduced
    ``w < q`` with ``wf = float_companion(w, q)``, and ``a < 2^49``.
    Proof: let ``x = a*w/q < a < 2^49``.  ``a`` converts to float64
    exactly, and the estimate ``a * wf`` carries three roundings (the
    division, the shrink, this product), each within a factor
    ``1 +- 2^-53``, so ``est = x * (1 - 2^-50) * (1 + e)`` with
    ``|e| < 3 * 2^-53 + 2^-104``.  Above: ``(1 - 8u)(1 + 3u) < 1`` at
    ``u = 2^-53``, so ``est <= x``.  Below: ``x - est < 11u * x <
    11 * 2^-53 * 2^49 < 1``.  With ``est`` in ``(x - 1, x]``,
    ``trunc(est)`` is ``floor(x)`` or one less, so the remainder is
    in ``[0, 2q)``, below ``2^64``, and the mod-2^64 wraps of the two
    products cancel.

    ``s`` is 2 uint64 scratch buffers (the wrap product, and the
    estimate, viewed as float64); ``out`` may alias ``a`` but neither
    scratch buffer, and ``wf`` may be that estimate view.
    """
    prod = s[0]
    est = s[1].view(np.float64)
    np.multiply(a, w, out=prod)                 # a*w mod 2^64
    np.multiply(a, wf, out=est)                 # quotient estimate
    np.copyto(out, est, casting="unsafe")       # truncates toward zero
    np.multiply(out, q, out=out)
    np.subtract(prod, out, out=out)             # exact in [0, 2q)


def mul_float_lazy_var_into(a, b, q_inv, q, out, s):
    """:func:`mul_float_lazy_into` for two variable operands: the
    companion ``b * q_inv`` is formed on the fly.

    ``b < q`` canonical, ``a < 2^49``, ``q_inv = float_companion(1,
    q)`` (scalar or per-row column).  One more rounding than the fixed
    form: ``(1 - 8u)(1 + 4u) < 1`` and ``12u * 2^49 < 1``, so the same
    proof gives the same ``[0, 2q)`` contract.  Scratch and aliasing
    as the fixed form.
    """
    est = s[1].view(np.float64)
    np.multiply(b, q_inv, out=est)
    mul_float_lazy_into(a, b, est, q, out, s)


def cond_sub_into(a, bound, scratch) -> None:
    """In-place ``a -= bound`` wherever ``a >= bound`` (branch-free).

    The uint64 min-trick: ``a - bound`` wraps past 2^64 exactly when
    ``a < bound`` (any ``bound < 2^64``), so ``min(a, a - bound)``
    selects the folded value without a boolean temporary.  This is the
    lazy-domain correction of the fused butterflies: one call folds
    ``[0, 2*bound)`` into ``[0, bound)``.
    """
    np.subtract(a, bound, out=scratch)
    np.minimum(a, scratch, out=a)


def barrett128_into(hi, lo, q, r_hi, r_lo_split, r_hi_split, out, s,
                    carry) -> None:
    """:func:`barrett128` into ``out``, no allocations.

    ``r_lo_split``/``r_hi_split`` are :func:`split32` halves of the
    Barrett ratio words; ``r_hi`` is the full uint64 hi word (needed
    for the wrapping ``hi * r_hi`` quotient term).  ``s`` is 8 uint64
    scratch buffers, ``carry`` one bool buffer.  ``out`` must not
    alias ``hi``/``lo``/scratch.  Same range contract as
    :func:`barrett128`: exact for ``x < 2^126``, ``q < 2^62``.
    """
    t1, t2, t3, t4, t5, t6, t7, t8 = s
    rlo_lo, rlo_hi = r_lo_split
    rhi_lo, rhi_hi = r_hi_split
    mulhi_into(lo, rlo_lo, rlo_hi, t1, (t2, t3, t4, t5))   # dropped-word carry
    mul128_into(lo, rhi_lo, rhi_hi, t6, t7, (t2, t3, t4, t5))  # lo * r_hi
    np.add(t7, t1, out=t7)
    np.less(t7, t1, out=carry)                  # carry out of t_lo + carry
    np.add(t6, carry, out=t6)
    mul128_into(hi, rlo_lo, rlo_hi, t1, t8, (t2, t3, t4, t5))  # hi * r_lo
    np.add(t7, t8, out=t7)
    np.less(t7, t8, out=carry)                  # carry out of s1 + u_lo
    np.multiply(hi, r_hi, out=t2)               # hi * r_hi (wraps cancel)
    np.add(t2, t6, out=t2)
    np.add(t2, t1, out=t2)
    np.add(t2, carry, out=t2)                   # quotient estimate
    np.multiply(t2, q, out=t2)
    np.subtract(lo, t2, out=out)                # exact in [0, 3q)
    cond_sub_into(out, q, t2)
    cond_sub_into(out, q, t2)


def barrett_constants(modulus: int) -> tuple[np.uint64, np.uint64]:
    """``floor(2^128 / q)`` as a uint64 (hi, lo) pair for :func:`barrett128`."""
    ratio = (1 << 128) // int(modulus)
    return np.uint64(ratio >> 64), np.uint64(ratio & 0xFFFFFFFFFFFFFFFF)


def shoup_pair(w: int, modulus: int) -> tuple[np.uint64, np.uint64]:
    """``(w mod q, floor(w * 2^64 / q))`` for lazy fixed-operand mulmod.

    The Shoup trick is valid for any ``q < 2^62``, whatever the
    multiplier mode the modulus runs elsewhere.
    """
    q = int(modulus)
    w = int(w) % q
    return np.uint64(w), np.uint64((w << 64) // q)


def shoup_companions(w, modulus: int):
    """``floor(w * 2^64 / q)`` for a uint64 array of residues ``w < q``:
    :func:`shoup_pair`'s companion for operands that only exist as an
    array (any ``q < 2^62``), computed where the array lives.

    With ``R = floor(2^128 / q)``, ``floor(w * R / 2^64)`` is
    ``w * r_hi + mulhi(w, r_lo)`` exactly and undershoots the quotient
    by at most one (``w * (2^128 mod q) / (q * 2^64) < 1``), so the
    remainder ``w * 2^64 - est * q`` lands in ``[0, 2q)`` — its low
    word is ``-est * q`` mod 2^64 — and one fold finishes the job.
    """
    q = np.uint64(modulus)
    r_hi, r_lo = barrett_constants(modulus)
    est = w * r_hi + _mulhi(w, r_lo)
    return est + ((_U64_ZERO - est * q) >= q)


# -- one modulus per row: the (k, N) block of an RNS polynomial ------------

def block_dtype(moduli):
    """The dtype of a ``(k, N)`` residue block over ``moduli``: uint64
    at every width up to 62 bits, Python ints (``object``) once any
    modulus needs the object path."""
    if any(width_path(q) == OBJECT for q in moduli):
        return object
    return np.uint64


def as_block(values, moduli, out=None) -> np.ndarray:
    """The one reduction boundary: the residues of ``values`` as a
    C-contiguous ``(k, N)`` block, row ``i`` modulo ``moduli[i]``
    (``out`` when given, else a new block of :func:`block_dtype`).

    ``values`` is ``k`` rows (a ``(k, N)`` array or a sequence of
    vectors) or one length-``N`` vector every row shares; either way
    it is converted once and reduced in one pass against the ``(k,
    1)`` modulus column.  Signed and unreduced integers are welcome;
    the pass runs on Python ints only where a value exceeds int64 or a
    modulus needs the object path.
    """
    moduli = tuple(int(q) for q in moduli)
    arr = np.asarray(values)
    if arr.dtype.kind == "f" and not isinstance(values, np.ndarray):
        # numpy turns a list holding ints in [2^63, 2^64) beside
        # signed ones into float64, losing low bits: rebox them
        arr = np.array(values, dtype=object)
    if arr.ndim == 2 and arr.shape[0] != len(moduli):
        raise ValueError("limb count does not match the basis")
    if arr.ndim not in (1, 2):
        raise ValueError("values must be rows or one shared vector")
    shape = (len(moduli), arr.shape[-1])
    dtype = block_dtype(moduli)
    if out is None:
        out = np.empty(shape, dtype)
    elif out.shape != shape:
        raise ValueError("limb length does not match the out block")
    if dtype is object or arr.dtype == object:
        q = np.array(moduli, object).reshape(-1, 1)
        out[...] = np.mod(arr.astype(object, copy=False), q)
    elif arr.dtype == np.uint64:
        q = np.array(moduli, np.uint64).reshape(-1, 1)
        if (arr < q).all():
            out[...] = arr                   # already canonical: a copy
        else:
            np.mod(arr, q, out=out)
    else:
        # signed: int64 remainders of a positive modulus are canonical
        q = np.array(moduli, np.int64).reshape(-1, 1)
        np.mod(arr.astype(np.int64, copy=False), q, out=out,
               casting="unsafe")
    return out


class BasisKernel:
    """The element-wise modular kernel of one basis: row ``i`` of a
    ``(..., k, N)`` block holds residues modulo ``moduli[i]``, and each
    op is one ufunc pass per step over the block, the moduli riding as
    a ``(k, 1)`` column.  A single modulus is the basis of one row.

    Add, sub and neg are mode-free (two variable operands below
    ``2q < 2^63``, one branch-free fold).  A multiply runs once per
    *run*: a maximal slice of consecutive rows in one TBM mode, the
    float-quotient multiply below 2^46, the 128-bit product (Shoup for
    a per-row scalar) above.  A basis sorted by mode, as every CKKS
    chain is, costs one call per mode.  A basis holding any modulus
    beyond 62 bits is an object block and runs exact Python-int
    arithmetic on the same shapes.  Operands must be canonical and of
    one shape; results are fresh, canonical and equal to Python-int
    arithmetic bit for bit.
    """

    __slots__ = ("moduli", "dtype", "q", "_runs", "_paths")

    def __init__(self, moduli):
        self.moduli = tuple(int(q) for q in moduli)
        self.dtype = block_dtype(self.moduli)
        paths = [width_path(q) for q in self.moduli]
        self._paths = [("modmath.path." + p, paths.count(p))
                       for p in (WIDE, OBJECT) if p in paths]
        self.q = np.array(self.moduli, self.dtype).reshape(-1, 1)
        self._runs = []
        if self.dtype is object:
            return
        start = 0
        for float_mode, group in groupby(self.moduli, fits_float_quotient):
            moduli = list(group)
            rows = slice(start, start + len(moduli))
            start = rows.stop
            if float_mode:
                const = np.array([float_companion(1, q)
                                  for q in moduli]).reshape(-1, 1)
            else:
                const = tuple(np.array(col, np.uint64).reshape(-1, 1)
                              for col in zip(*map(barrett_constants, moduli)))
            self._runs.append((rows, self.q[rows], const))

    def _tick(self) -> None:
        if _TRACER.enabled:
            for name, rows in self._paths:
                _TRACER.count(name, rows)

    def _fold(self, x) -> np.ndarray:
        cond_sub_into(x, self.q, np.empty_like(x))      # [0, 2q) -> [0, q)
        return x

    def add(self, a, b) -> np.ndarray:
        self._tick()
        if self.dtype is object:
            return np.mod(a + b, self.q)
        return self._fold(np.add(a, b))

    def sub(self, a, b) -> np.ndarray:
        self._tick()
        if self.dtype is object:
            return np.mod(a - b, self.q)
        out = np.subtract(self.q, b)
        return self._fold(np.add(out, a, out=out))

    def neg(self, a) -> np.ndarray:
        self._tick()
        if self.dtype is object:
            return np.mod(-a, self.q)
        return self._fold(np.subtract(self.q, a))

    def mul(self, a, b) -> np.ndarray:
        """Row-wise ``a * b mod q`` of two variable blocks."""
        self._tick()
        if self.dtype is object:
            return np.mod(a * b, self.q)
        out = np.empty_like(a)
        s = (np.empty_like(a), np.empty_like(a))
        for rows, q, const in self._runs:
            x, y, o = a[..., rows, :], b[..., rows, :], out[..., rows, :]
            if isinstance(const, tuple):
                o[...] = _barrett128(*_mul128(x, y), q, *const)
                continue
            t = (s[0][..., rows, :], s[1][..., rows, :])
            mul_float_lazy_var_into(x, y, const, q, o, t)
            cond_sub_into(o, q, t[0])
        return out

    def row_scalars(self, scalars):
        """Per-row scalars prepared for :meth:`mul_rows`: per run, the
        reduced ``(w, companion)`` columns of its multiply."""
        ws = [int(s) % q for s, q in zip(scalars, self.moduli)]
        if self.dtype is object:
            return np.array(ws, object).reshape(-1, 1)
        cols = []
        for rows, _q, const in self._runs:
            pairs = [(w, q) for w, q in zip(ws[rows], self.moduli[rows])]
            if isinstance(const, tuple):
                comp = np.array([(w << 64) // q for w, q in pairs], np.uint64)
            else:
                comp = np.array([float_companion(w, q) for w, q in pairs])
            cols.append((np.array([w for w, _ in pairs], np.uint64)
                         .reshape(-1, 1), comp.reshape(-1, 1)))
        return cols

    def mul_rows(self, a, scalars) -> np.ndarray:
        """Row ``i`` times scalar ``i``, ``scalars`` from
        :meth:`row_scalars` (plans hoist them)."""
        self._tick()
        if self.dtype is object:
            return np.mod(a * scalars, self.q)
        out = np.empty_like(a)
        s = (np.empty_like(a), np.empty_like(a))
        for (rows, q, const), (w, comp) in zip(self._runs, scalars):
            x, o = a[..., rows, :], out[..., rows, :]
            t = (s[0][..., rows, :], s[1][..., rows, :])
            if isinstance(const, tuple):
                o[...] = mul_shoup_lazy(x, w, comp, q)
            else:
                mul_float_lazy_into(x, w, comp, q, o, t)
            cond_sub_into(o, q, t[0])
        return out


# -- scalars and samplers --------------------------------------------------

def pow_mod(base: int, exp: int, modulus: int) -> int:
    """Scalar modular exponentiation (thin wrapper over built-in pow)."""
    return pow(base % modulus, exp, modulus)


def inv_mod(value: int, modulus: int) -> int:
    """Scalar modular inverse; raises ValueError when not invertible."""
    value %= modulus
    if value == 0:
        raise ValueError("zero has no modular inverse")
    return pow(value, -1, modulus)


def random_ternary(n: int, rng: np.random.Generator,
                   hamming_weight: int | None = None) -> np.ndarray:
    """Ternary {-1, 0, 1} secret vector, optionally of fixed Hamming weight."""
    if hamming_weight is None:
        return rng.integers(-1, 2, size=n, dtype=np.int64)
    coeffs = np.zeros(n, dtype=np.int64)
    support = rng.choice(n, size=min(hamming_weight, n), replace=False)
    coeffs[support] = rng.choice(np.array([-1, 1], dtype=np.int64),
                                 size=len(support))
    return coeffs


def random_discrete_gaussian(n: int, rng: np.random.Generator,
                             sigma: float = 3.2) -> np.ndarray:
    """Rounded-Gaussian error vector (standard RLWE error distribution)."""
    return np.rint(rng.normal(0.0, sigma, size=n)).astype(np.int64)


def uniform_block(n: int, moduli, rng: np.random.Generator) -> np.ndarray:
    """Uniform ``(k, n)`` residue block, drawn row by row into place:
    the RLWE masks and the evk ``a`` halves.

    A uint64 row is one ``rng.integers`` draw; a modulus beyond 62
    bits pays a per-element loop over 63-bit words.
    """
    moduli = tuple(int(q) for q in moduli)
    out = np.empty((len(moduli), n), block_dtype(moduli))
    for row, q in zip(out, moduli):
        if width_path(q) == WIDE:
            row[:] = rng.integers(0, q, size=n, dtype=np.uint64)
            continue
        words = (q.bit_length() + 62) // 63
        for i in range(n):
            v = 0
            for _ in range(words):
                v = (v << 63) | int(rng.integers(0, 1 << 63,
                                                 dtype=np.uint64))
            row[i] = v % q
    return out
