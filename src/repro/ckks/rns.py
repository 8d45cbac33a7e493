"""RNS (residue number system) polynomial machinery.

A CKKS ciphertext limb set is a polynomial of degree ``N`` whose huge
integer coefficients (mod ``Q = prod q_i``) are stored as *limbs*: one
residue vector per prime.  This module provides

* :class:`RnsPoly` — an RNS polynomial held as one ``(k, N)`` block
  (one row per prime), with coefficient/evaluation form tracking,
  element-wise ring ops, NTTs and automorphisms, each one call over
  the block;
* fast approximate base conversion (:func:`base_convert`) executed by
  a precomputed-matrix kernel (:class:`BConvPlan`), the workhorse of
  ModUp/ModDown — the software analogue of the accelerator's BConvU
  systolic arrays;
* exact CRT composition/decomposition, used by the KLSS gadget
  decomposition and by decryption;
* :func:`mod_up` / :func:`mod_down`, the hybrid key-switching stages.

Plans are cached and bounded: NTT tables per ``(N, q)``
(:func:`get_plan`), conversion matrices per ``(source basis, target
basis)`` pair (:func:`get_bconv_plan`), automorphism index tables per
``(N, g)`` (:func:`get_auto_plan` — the software AutoU), CRT constants
per basis, so repeated level changes redo neither root searches nor
modular inverses.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from time import perf_counter

import numpy as np

from repro.ckks import modmath
from repro.ckks.ntt import NttPlan, transform_limbs
from repro.obs.tracer import get_tracer

COEFF = "coeff"
EVAL = "eval"

# Bound on cached NTT plans.  Both paper parameter sets together touch
# fewer than ~100 (N, q) pairs (36 + 12 primes for Set-I, 36 + 5 for
# Set-II, plus KLSS wide bases), so 256 keeps every real working set
# resident while stopping pathological callers (parameter sweeps,
# fuzzers) from growing the table without limit.  Plans are pure
# functions of (N, q): eviction only costs a rebuild, never
# correctness — tests/ckks/test_plan_cache.py pins that down.
PLAN_CACHE_MAXSIZE = 256


@lru_cache(maxsize=PLAN_CACHE_MAXSIZE)
def _build_plan(ring_degree: int, modulus: int) -> NttPlan:
    tracer = get_tracer()
    if tracer.enabled:
        start = perf_counter()
        plan = NttPlan(ring_degree, modulus)
        tracer.count("rns.plan_builds")
        tracer.observe("rns.plan_build_s", perf_counter() - start)
        return plan
    return NttPlan(ring_degree, modulus)


def get_plan(ring_degree: int, modulus: int) -> NttPlan:
    """Shared NTT plan for one (N, q) pair (bounded LRU).

    Reference plans (``NttPlan(n, q, path=modmath.OBJECT)``) are built
    by their callers and never enter this cache.
    """
    return _build_plan(int(ring_degree), int(modulus))


def plan_cache_info():
    """``functools`` cache statistics for the NTT-plan cache."""
    return _build_plan.cache_info()


def clear_plan_cache() -> None:
    _build_plan.cache_clear()


class RnsPoly:
    """Polynomial in ``prod_i Z_{q_i}[X]/(X^N+1)``, one row per prime.

    Attributes
    ----------
    data:
        One C-contiguous ``(k, N)`` block, row ``i`` holding the
        residues modulo ``moduli[i]``: uint64 at every width up to 62
        bits, Python ints (``object``) once the basis holds a wider
        modulus (:func:`~repro.ckks.modmath.block_dtype`).
    moduli:
        Tuple of the primes, aligned with the rows.
    form:
        Either ``"coeff"`` or ``"eval"``; element-wise multiplication
        is only defined in evaluation form.

    Every ring op is one pass over the block through the basis's
    :class:`~repro.ckks.modmath.BasisKernel` and returns a fresh block;
    nothing writes a block after it is wrapped, so row views
    (:attr:`limbs`, :meth:`drop_limbs`) stay valid.  The constructor
    takes a block as is (it must be C-contiguous, of the basis's dtype,
    one row per modulus) or reduces a sequence of limb vectors into
    one.
    """

    __slots__ = ("data", "moduli", "form", "_kernel")

    def __init__(self, data, moduli, form: str):
        self.moduli = tuple(int(q) for q in moduli)
        if len(set(self.moduli)) != len(self.moduli):
            # A repeated prime would silently mis-pair rows wherever a
            # basis is navigated by modulus *value* (mod_up builds the
            # digit complement that way), so reject it outright.
            raise ValueError("duplicate moduli in RNS basis")
        if form not in (COEFF, EVAL):
            raise ValueError(f"unknown form {form!r}")
        if isinstance(data, np.ndarray) and data.ndim == 2:
            dtype = modmath.block_dtype(self.moduli)
            if data.dtype != dtype:
                raise ValueError(f"block dtype must be {np.dtype(dtype)} "
                                 f"for this basis, not {data.dtype}")
            if not data.flags.c_contiguous:
                raise ValueError("block must be C-contiguous")
            if data.shape[0] != len(self.moduli):
                raise ValueError(f"block has {data.shape[0]} rows for "
                                 f"{len(self.moduli)} moduli")
        else:
            data = modmath.as_block(data, self.moduli)
        self.data = data
        self.form = form
        self._kernel = None

    @classmethod
    def _of(cls, data, moduli, form, kernel=None) -> "RnsPoly":
        """Wrap a block a kernel just produced (no checks, no copy)."""
        poly = object.__new__(cls)
        poly.data, poly.moduli, poly.form = data, moduli, form
        poly._kernel = kernel
        return poly

    @property
    def n(self) -> int:
        return self.data.shape[1]

    # A polynomial is also the sequence of its rows: ``len(poly)``
    # limbs, ``poly[i]`` a row view.
    def __len__(self) -> int:
        return len(self.moduli)

    def __getitem__(self, index):
        return self.data[index]

    @property
    def limbs(self) -> list:
        """Row views of the block, for callers that index limbs."""
        return list(self.data)

    @property
    def kernel(self) -> modmath.BasisKernel:
        """The basis's row-column arithmetic (built on first use and
        handed on to every result over the same basis)."""
        if self._kernel is None:
            self._kernel = modmath.BasisKernel(self.moduli)
        return self._kernel

    # -- constructors -------------------------------------------------
    @classmethod
    def zeros(cls, n: int, moduli, form: str = COEFF) -> "RnsPoly":
        moduli = tuple(int(q) for q in moduli)
        data = np.zeros((len(moduli), n), modmath.block_dtype(moduli))
        return cls(data, moduli, form)

    @classmethod
    def from_int_coeffs(cls, coeffs, moduli) -> "RnsPoly":
        """Reduce signed integer coefficients into every limb (coeff form)."""
        return cls(modmath.as_block([coeffs] * len(moduli), moduli),
                   moduli, COEFF)

    def copy(self) -> "RnsPoly":
        return RnsPoly._of(self.data.copy(), self.moduli, self.form,
                           self._kernel)

    # -- form conversion ---------------------------------------------
    def to_eval(self) -> "RnsPoly":
        if self.form == EVAL:
            return self.copy()
        return RnsPoly._of(transform_limbs(self.data, self.moduli, self.n),
                           self.moduli, EVAL, self._kernel)

    def to_coeff(self) -> "RnsPoly":
        if self.form == COEFF:
            return self.copy()
        return RnsPoly._of(transform_limbs(self.data, self.moduli, self.n,
                                           inverse=True),
                           self.moduli, COEFF, self._kernel)

    # ``from_eval`` mirrors the accelerator's INTT direction name.
    from_eval = to_coeff

    # -- ring operations ----------------------------------------------
    def _check_compatible(self, other: "RnsPoly") -> modmath.BasisKernel:
        if self.moduli != other.moduli:
            raise ValueError("RNS bases differ")
        if self.form != other.form:
            raise ValueError("representation forms differ")
        if self._kernel is None and other._kernel is not None:
            self._kernel = other._kernel
        return self.kernel

    def __add__(self, other: "RnsPoly") -> "RnsPoly":
        kernel = self._check_compatible(other)
        return RnsPoly._of(kernel.add(self.data, other.data),
                           self.moduli, self.form, kernel)

    def __sub__(self, other: "RnsPoly") -> "RnsPoly":
        kernel = self._check_compatible(other)
        return RnsPoly._of(kernel.sub(self.data, other.data),
                           self.moduli, self.form, kernel)

    def __neg__(self) -> "RnsPoly":
        kernel = self.kernel
        return RnsPoly._of(kernel.neg(self.data), self.moduli, self.form,
                           kernel)

    def __mul__(self, other) -> "RnsPoly":
        if isinstance(other, (int, np.integer)):
            return self.mul_scalar_per_limb([int(other)] * len(self.moduli))
        kernel = self._check_compatible(other)
        if self.form != EVAL:
            raise ValueError("polynomial product requires evaluation form")
        return RnsPoly._of(kernel.mul(self.data, other.data),
                           self.moduli, EVAL, kernel)

    __rmul__ = __mul__

    def mul_scalar_per_limb(self, scalars) -> "RnsPoly":
        """Multiply limb ``i`` by scalar ``scalars[i]`` (any form)."""
        kernel = self.kernel
        return RnsPoly._of(
            kernel.mul_rows(self.data, kernel.row_scalars(scalars)),
            self.moduli, self.form, kernel)

    # -- basis manipulation ---------------------------------------------
    def drop_limbs(self, keep: int) -> "RnsPoly":
        """Restrict to the first ``keep`` moduli (rescale/level drop):
        a view of the leading rows."""
        if keep > len(self.moduli):
            raise ValueError("cannot keep more limbs than present")
        return RnsPoly._of(self.data[:keep], self.moduli[:keep], self.form)

    def select_limbs(self, indices) -> "RnsPoly":
        """Arbitrary sub-basis selection (used by digit grouping): a
        view when ``indices`` is a run of consecutive rows."""
        indices = [int(i) for i in indices]
        moduli = tuple(self.moduli[i] for i in indices)
        if indices and indices == list(range(indices[0],
                                             indices[-1] + 1)):
            data = self.data[indices[0]:indices[-1] + 1]
        else:
            data = self.data[indices]
        return RnsPoly._of(data, moduli, self.form)

    def concat(self, other: "RnsPoly") -> "RnsPoly":
        """Adjoin the limbs of ``other`` (bases must be disjoint)."""
        if self.form != other.form:
            raise ValueError("representation forms differ")
        if set(self.moduli) & set(other.moduli):
            raise ValueError("bases overlap")
        return RnsPoly._of(np.concatenate((self.data, other.data)),
                           self.moduli + other.moduli, self.form)

    # -- automorphism -----------------------------------------------------
    def automorphism(self, galois_power: int) -> "RnsPoly":
        """Apply ``X -> X^g`` with ``g = galois_power`` (odd, mod 2N).

        This is the functional model of the accelerator's AutoU.  The
        index tables come from the cached :class:`AutoPlan` for this
        ``(N, g)`` pair:

        * **evaluation form** — a pure gather of NTT points, zero
          NTTs: slot ``i`` holds the value at root ``psi^(2 brv(i) +
          1)`` (see :func:`repro.ckks.ntt.eval_point_exponents`), and
          ``sigma_g`` permutes those points among themselves because
          ``g`` is odd;
        * **coefficient form** — coefficient ``i`` moves to position
          ``(i * g) mod 2N``, negated when the destination falls in
          the upper half (``X^N = -1``).  This path is the
          bit-exactness oracle for the eval-domain gather.
        """
        plan = get_auto_plan(self.n, galois_power)
        tracer = get_tracer()
        if self.form == EVAL:
            perm = plan.eval_perm
            if perm is None:
                # No point permutation exists (non-power-of-two ring,
                # no NTT either): round-trip through the coeff oracle.
                if tracer.enabled:
                    tracer.count("rns.auto.eval_roundtrip")
                return self.to_coeff().automorphism(galois_power).to_eval()
            if tracer.enabled:
                tracer.count("rns.auto.eval")
            # One gather on the point axis of the block.
            return RnsPoly._of(np.take(self.data, perm, axis=1),
                               self.moduli, EVAL, self._kernel)
        if tracer.enabled:
            tracer.count("rns.auto.coeff")
        out = np.zeros_like(self.data)
        # np.where instead of a sign multiply: mixing an int64 sign
        # array into a uint64 block would promote to float64 and
        # corrupt wide residues.
        out[:, plan.coeff_dest] = np.where(
            plan.coeff_negate, self.kernel.neg(self.data), self.data)
        return RnsPoly._of(out, self.moduli, COEFF, self._kernel)


# -- automorphism plans (software AutoU) ----------------------------------

class AutoPlan:
    """Precomputed index tables for ``X -> X^g`` on one ``(N, g)`` pair.

    This is the software analogue of FAST's AutoU, which routes NTT
    points through a Benes network instead of leaving the evaluation
    domain.  Two table sets are built once and shared via the bounded
    :func:`get_auto_plan` cache:

    * ``eval_perm`` — the evaluation-domain permutation.  Slot ``i``
      of a forward NTT holds the value at root ``psi^e(i)`` with
      ``e(i) = 2 brv(i) + 1`` (:func:`~repro.ckks.ntt.
      eval_point_exponents`).  Applying ``sigma_g: a(X) -> a(X^g)``
      maps the value at point ``psi^e`` to the slot whose point is
      ``psi^(e g mod 2N)`` — for odd ``g`` the odd exponents permute
      among themselves, so ``out[i] = in[eval_perm[i]]`` with
      ``eval_perm[i] = brv((e(i) * g mod 2N - 1) / 2)``.  A pure
      gather: zero NTTs, exact on every width path.  ``None`` when
      ``N`` is not a power of two (no evaluation form exists there).
    * ``coeff_dest`` / ``coeff_negate`` — the coefficient-domain
      scatter: coefficient ``i`` lands at ``(i g) mod 2N`` folded into
      ``[0, N)`` with a sign flip in the upper half (``X^N = -1``).
      Kept as the structurally independent bit-exactness oracle for
      the gather, and as the only path for coefficient-form inputs.
    """

    __slots__ = ("n", "galois", "eval_perm", "coeff_dest", "coeff_negate")

    def __init__(self, n: int, galois_power: int):
        if galois_power % 2 == 0:
            raise ValueError("Galois element must be odd")
        self.n = int(n)
        two_n = 2 * self.n
        g = int(galois_power) % two_n
        self.galois = g
        idx = (np.arange(self.n, dtype=np.int64) * g) % two_n
        self.coeff_dest = np.where(idx < n, idx, idx - n)
        self.coeff_negate = idx >= n
        if self.n >= 1 and not (self.n & (self.n - 1)):
            from repro.ckks.ntt import (bit_reverse_permutation,
                                        eval_point_exponents)
            rev = bit_reverse_permutation(self.n)
            target = (eval_point_exponents(self.n) * g) % two_n
            self.eval_perm = rev[(target - 1) >> 1]
        else:
            self.eval_perm = None


@lru_cache(maxsize=PLAN_CACHE_MAXSIZE)
def _build_auto_plan(n: int, galois: int) -> AutoPlan:
    return AutoPlan(n, galois)


def get_auto_plan(n: int, galois_power: int) -> AutoPlan:
    """Shared :class:`AutoPlan` per ``(N, g)`` (bounded LRU).

    ``galois_power`` is normalised modulo ``2N`` before the cache
    lookup, so equivalent elements share one entry.  When the
    observability layer is enabled, bumps ``rns.auto.plan_hit`` /
    ``rns.auto.plan_miss``.
    """
    n = int(n)
    g = int(galois_power)
    if g % 2 == 0:
        raise ValueError("Galois element must be odd")
    g %= 2 * n
    tracer = get_tracer()
    if not tracer.enabled:
        return _build_auto_plan(n, g)
    hits_before = _build_auto_plan.cache_info().hits
    plan = _build_auto_plan(n, g)
    if _build_auto_plan.cache_info().hits > hits_before:
        tracer.count("rns.auto.plan_hit")
    else:
        tracer.count("rns.auto.plan_miss")
    return plan


def auto_plan_cache_info():
    """``functools`` cache statistics for the automorphism-plan cache."""
    return _build_auto_plan.cache_info()


def clear_auto_plan_cache() -> None:
    _build_auto_plan.cache_clear()


# -- CRT helpers ----------------------------------------------------------

@lru_cache(maxsize=PLAN_CACHE_MAXSIZE)
def _crt_constants(moduli: tuple[int, ...]):
    """Per-basis CRT constants: Q, Q/q_i, and (Q/q_i)^-1 mod q_i.

    Bounded like the NTT-plan cache: constants are pure functions of
    the basis, so eviction only costs big-int recomputation, never
    correctness (tests/ckks/test_plan_cache.py pins that down).
    """
    big_q = 1
    for q in moduli:
        big_q *= q
    q_hat = tuple(big_q // q for q in moduli)
    q_hat_inv = tuple(modmath.inv_mod(h % q, q)
                      for h, q in zip(q_hat, moduli))
    return big_q, q_hat, q_hat_inv


def crt_constants_cache_info():
    """``functools`` cache statistics for the CRT-constants cache."""
    return _crt_constants.cache_info()


def clear_crt_constants_cache() -> None:
    _crt_constants.cache_clear()


def product(moduli) -> int:
    """Product of a basis (the composite modulus it represents)."""
    big_q = 1
    for q in moduli:
        big_q *= int(q)
    return big_q


def compose_crt(poly: RnsPoly) -> list[int]:
    """Exact CRT recombination to centred big-integer coefficients.

    Returns Python ints in ``(-Q/2, Q/2]``.  Used by decryption,
    decoding and the KLSS gadget decomposition.
    """
    if poly.form != COEFF:
        poly = poly.to_coeff()
    get_tracer().count("rns.compose_crt")
    big_q, q_hat, q_hat_inv = _crt_constants(poly.moduli)
    half = big_q // 2
    # One vectorised big-int pass per limb, deferring the expensive
    # mod-Q reduction to a single sweep at the end (the accumulated
    # magnitude stays below len(moduli) * q_max * Q).
    acc = np.zeros(poly.n, dtype=object)
    for limb, q, hat, hat_inv in zip(poly.data, poly.moduli,
                                     q_hat, q_hat_inv):
        scale = hat * hat_inv % big_q
        boxed = np.empty(poly.n, dtype=object)
        boxed[:] = limb.tolist()
        acc = acc + boxed * scale
    acc = np.mod(acc, big_q)
    return [int(v) - big_q if v > half else int(v) for v in acc]


def from_big_ints(coeffs: list[int], moduli, n: int | None = None) -> RnsPoly:
    """Reduce big-integer coefficients into an RNS polynomial (``n``
    is implied by ``coeffs``; kept for the historic signature)."""
    return RnsPoly(modmath.as_block([coeffs] * len(moduli), moduli),
                   moduli, COEFF)


# -- fast base conversion (BConv) -----------------------------------------

class BConvPlan:
    """Precomputed HPS base-conversion pipeline for one basis pair.

    This is the software BConvU: everything that depends only on the
    ``(source basis, target basis)`` pair is computed once —

    * the element-wise stage scalars ``(Q/q_i)^{-1} mod q_i`` as Shoup
      pairs (one lazy-reduction pass over the stacked ``(k_in, N)``
      input, the KMU stage in FAST);
    * the ``(k_out, k_in)`` residue matrix ``Q/q_i mod p_j`` (the
      systolic-array weights), pre-split into ``PIECE_BITS``-wide
      limb pieces and stacked into one block matrix per output scale;
    * the target-side reduction constants (``2^64 mod p_j`` Shoup
      pairs and Barrett ratios);
    * the ModDown / rescale scalars ``(prod src)^{-1} mod p_j``, so
      :func:`mod_down` and :func:`exact_rescale` never call
      ``inv_mod`` per invocation.

    :meth:`convert` executes the conversion as a handful of
    whole-array kernels.  The O(k_in * k_out * N) multiply-accumulate
    core — the systolic array's job — runs as float64 matrix products
    over the split pieces: with 22-bit pieces every partial product
    fits 44 bits and a whole block-row dot product stays below the
    2^53 float64 integer window, so BLAS does the accumulation
    exactly at SIMD speed.  The piece sums are then recombined into a
    lazily-carried 128-bit (hi, lo) split-limb accumulator — pieces
    are shifted back by their scale, never individually reduced — and
    a single vectorised Barrett/Shoup pass per target limb folds the
    result into ``[0, p_j)``.

    Any modulus beyond the 62-bit uint64 datapath (or a basis pair so
    large the float64 window or the 128-bit accumulator would
    overflow — see ``_matrix_feasible``) forces ``matrix_path =
    False``; those conversions run the per-pair object-oracle loop
    (:func:`base_convert_reference`) instead.
    """

    # Width of the split pieces fed to the float64 matrix products.
    # Two 22-bit pieces multiply into 44 bits, leaving 53 - 44 = 9
    # doubling levels of exact float64 headroom for the row-length
    # accumulation (checked against the actual k_in below).
    PIECE_BITS = 22

    # Scratch-buffer sets kept per plan, over all input lengths.
    _WS_POOL_SETS = 4

    __slots__ = ("src_moduli", "dst_moduli", "k_in", "k_out",
                 "src_product", "matrix_path", "total_bits", "dst_kernel",
                 "_down_cols", "_ew_w", "_ew_ws",
                 "_src_q", "_ew_wf",
                 "_pieces_in", "_block_stack", "_shifts",
                 "_reduce_float", "_vf_gemm", "_scales", "_dst_qf",
                 "_dst_q", "_t64_w", "_t64_ws",
                 "_down_inv", "_ws_pool", "_ws_lock")

    def __init__(self, src_moduli, dst_moduli):
        self.src_moduli = tuple(int(q) for q in src_moduli)
        self.dst_moduli = tuple(int(p) for p in dst_moduli)
        self.k_in = len(self.src_moduli)
        self.k_out = len(self.dst_moduli)
        big_q, q_hat, q_hat_inv = _crt_constants(self.src_moduli)
        self.src_product = big_q
        self.dst_kernel = modmath.BasisKernel(self.dst_moduli)
        self._ws_pool = []
        self._ws_lock = threading.Lock()
        self.matrix_path = self._matrix_feasible()
        if self.matrix_path and self.k_in and self.k_out:
            ew = [modmath.shoup_pair(inv, q)
                  for inv, q in zip(q_hat_inv, self.src_moduli)]
            self._ew_w = np.array(
                [w for w, _ in ew], dtype=np.uint64).reshape(-1, 1)
            self._ew_ws = np.array(
                [ws for _, ws in ew], dtype=np.uint64).reshape(-1, 1)
            self._src_q = np.array(
                self.src_moduli, dtype=np.uint64).reshape(-1, 1)
            self._dst_q = np.array(
                self.dst_moduli, dtype=np.uint64).reshape(-1, 1)
            t64 = [modmath.shoup_pair(1 << 64, p) for p in self.dst_moduli]
            self._t64_w = np.array(
                [w for w, _ in t64], dtype=np.uint64).reshape(-1, 1)
            self._t64_ws = np.array(
                [ws for _, ws in t64], dtype=np.uint64).reshape(-1, 1)
            bits_in = max(q.bit_length() for q in self.src_moduli)
            bits_out = max(p.bit_length() for p in self.dst_moduli)
            b = self.PIECE_BITS
            pieces_in = -(-bits_in // b)
            pieces_mat = -(-bits_out // b)
            # Element-wise stage in the software TBM's 36-bit mode
            # when every source modulus allows it (None: 60-bit mode).
            self._ew_wf = None
            if all(modmath.fits_float_quotient(q) for q in self.src_moduli):
                self._ew_wf = np.array(
                    [modmath.float_companion(int(w), q)
                     for (w, _), q in zip(ew, self.src_moduli)]
                ).reshape(-1, 1)
            # Float-quotient final reduction: the row value is below
            # k_in * 2^bits_in * p_j, so the absolute error of the
            # float quotient (ncomp recombination roundings plus the
            # p_j cast and the division, each 2^-53 relative) stays
            # strictly below 1/2 — quotient within 1 of the true
            # floor, remainder correctable in (0, 3 p_j) — exactly
            # when this bit budget holds (2 bits of slack).
            ncomp = max(1, pieces_in + pieces_mat - 1)
            logk = (self.k_in - 1).bit_length()
            self._reduce_float = (bits_in + logk
                                  + (ncomp - 1).bit_length()) <= 50
            # With a little more slack the quotient can come straight
            # out of the matrix product: one extra k_out-row block of
            # float(m_ji) * 2^(a*PIECE_BITS) accumulates the full
            # (approximate) value per row, with relative error below
            # (row length) * 2^-53 — still within 1 of the true floor
            # when this tighter budget holds.
            vf_rows = pieces_in * self.k_in
            self._vf_gemm = (self._reduce_float
                             and (bits_in + logk
                                  + (vf_rows - 1).bit_length() + 2) <= 53)
            if self._reduce_float:
                self._dst_qf = self._dst_q.astype(np.float64)
            self._build_matrix_blocks(q_hat)
        # Hoisted ModDown/rescale scalars: (prod src)^-1 mod p_j.
        # None when src and dst share a factor (never the case for
        # the disjoint bases ModDown and rescale use).
        try:
            self._down_inv = tuple(modmath.inv_mod(big_q % p, p)
                                   for p in self.dst_moduli)
            self._down_cols = self.dst_kernel.row_scalars(self._down_inv)
        except ValueError:
            self._down_inv = self._down_cols = None

    def _matrix_feasible(self) -> bool:
        """Whether the split-piece matrix kernel is exact for this pair."""
        moduli = self.src_moduli + self.dst_moduli
        if not self.k_in or not self.k_out:
            return bool(moduli) and all(
                modmath.width_path(q) != modmath.OBJECT for q in moduli)
        if any(modmath.width_path(q) == modmath.OBJECT for q in moduli):
            return False
        b = self.PIECE_BITS
        bits_in = max(q.bit_length() for q in self.src_moduli)
        bits_out = max(p.bit_length() for p in self.dst_moduli)
        pieces_in = -(-bits_in // b)
        pieces_mat = -(-bits_out // b)
        # Each block-row dot product sums min(pieces) * k_in exact
        # 2b-bit products and must stay inside float64's 2^53 window.
        rows = min(pieces_in, pieces_mat) * self.k_in
        if 2 * b + (rows - 1).bit_length() > 53:
            return False
        # The recombined value sum_i y_i * m_ji must fit the 126-bit
        # validity range of the final reduction's 128-bit accumulator.
        self.total_bits = (bits_in + bits_out
                           + (self.k_in - 1).bit_length())
        return self.total_bits <= 126

    def _build_matrix_blocks(self, q_hat) -> None:
        """Split the residue matrix into piece-scale block matrices.

        ``mat[j, i] = q_hat_i mod p_j`` is cut into ``PIECE_BITS``
        pieces; block matrix ``s`` gathers every (input-piece a,
        matrix-piece d) combination with ``a + d == s``, laid out so
        one float64 product against the stacked input pieces yields
        the whole ``2^(s * PIECE_BITS)``-scale component.  When the
        quotient comes from the gemm too (``_vf_gemm``), a final
        k_out-row block holding ``float(m_ji) * 2^(a*PIECE_BITS)``
        is appended, and components that only feed bits >= 2^64 of
        the value (zero modulo 2^64) are dropped.
        """
        b = self.PIECE_BITS
        bits_in = max(q.bit_length() for q in self.src_moduli)
        bits_out = max(p.bit_length() for p in self.dst_moduli)
        self._pieces_in = -(-bits_in // b)
        pieces_mat = -(-bits_out // b)
        mat = np.array([[hat % p for hat in q_hat]
                        for p in self.dst_moduli], dtype=np.uint64)
        mat_pieces = [((mat >> np.uint64(d * b))
                       & np.uint64((1 << b) - 1)).astype(np.float64)
                      for d in range(pieces_mat)]
        blocks = []
        self._shifts = []
        for s in range(self._pieces_in + pieces_mat - 1):
            if self._vf_gemm and s * b >= 64:
                break
            block = np.zeros((self.k_out, self._pieces_in * self.k_in))
            used = False
            for a in range(self._pieces_in):
                d = s - a
                if 0 <= d < pieces_mat:
                    block[:, a * self.k_in:(a + 1) * self.k_in] = \
                        mat_pieces[d]
                    used = True
            if used:
                blocks.append(block)
                self._shifts.append(s * b)
        self._scales = [float(1 << s) for s in self._shifts]
        if self._vf_gemm:
            # Quotient rows carry the 1/p_j scaling too, so the gemm
            # yields v/p_j directly and convert() only floors it.
            vf_block = np.empty((self.k_out, self._pieces_in * self.k_in))
            matf = mat.astype(np.float64) / np.array(
                self.dst_moduli, dtype=np.float64).reshape(-1, 1)
            for a in range(self._pieces_in):
                vf_block[:, a * self.k_in:(a + 1) * self.k_in] = \
                    matf * float(1 << (a * b))
            blocks.append(vf_block)
        # One tall matrix so the whole multiply-accumulate runs as a
        # single BLAS call; component s is rows [s*k_out, (s+1)*k_out).
        # The 22-bit split matrix is the big table, built once and
        # reused by every convert().
        self._block_stack = np.vstack(blocks)

    def __repr__(self) -> str:
        return (f"BConvPlan(k_in={self.k_in}, k_out={self.k_out}, "
                f"matrix_path={self.matrix_path})")

    @property
    def has_down_scale(self) -> bool:
        """Whether the hoisted ``(prod src)^{-1} mod p_j`` scalars exist."""
        return self._down_inv is not None

    def _workspace(self, n: int) -> dict:
        """Check out a scratch-buffer set for length-``n`` inputs.

        Buffers are pooled on the plan and matched by length, so a
        plan that serves two lengths (``rotate`` at N, a hoisted
        ``mod_down_batch`` at r*N) keeps a warm set for each instead of
        dropping the other's on every call; concurrent converts simply
        allocate their own set — the steady state runs with zero large
        allocations.
        Pool misses are ledger-counted as ``kernel.alloc.bconv``, the
        same way the NTT and KMU arenas count theirs (see
        :mod:`repro.backend.arena`), so "zero steady-state allocs" is
        asserted (``tests/ckks/test_bconv.py``), never assumed.
        """
        with self._ws_lock:
            for i, ws in enumerate(self._ws_pool):
                if ws["n"] == n:
                    return self._ws_pool.pop(i)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("kernel.alloc.bconv")
        k_in, k_out = self.k_in, self.k_out
        empty = np.empty
        ws = {
            "n": n,
            "y": empty((k_in, n), np.uint64),
            "tq": empty((k_in, n), np.uint64),
            "pieces": empty((self._pieces_in * k_in, n), np.float64),
            "flat": empty((self._block_stack.shape[0], n), np.float64),
            "quo": empty((k_out, n), np.uint64),
            "tmpu": empty((k_out, n), np.uint64),
            "tmpf": empty((k_out, n), np.float64),
        }
        if self._ew_wf is not None:
            ws["est"] = empty((k_in, n), np.uint64)
        if not self._reduce_float:
            ws["hi"] = empty((k_out, n), np.uint64)
            ws["lo"] = empty((k_out, n), np.uint64)
        return ws

    def _release(self, ws: dict) -> None:
        with self._ws_lock:
            if len(self._ws_pool) >= self._WS_POOL_SETS:
                del self._ws_pool[0]        # least recently released
            self._ws_pool.append(ws)

    def convert(self, poly) -> np.ndarray:
        """Matrix-form conversion of a ``(k_in, L)`` source block.

        ``poly`` is an :class:`RnsPoly` over the source basis (rows of
        any length ``L``), its ``(k_in, L)`` block, or a sequence of
        limb vectors (reduced into a block first).  Returns a new
        ``(k_out, L)`` uint64 block, row ``j`` modulo ``dst_moduli[j]``,
        bit-identical to :func:`base_convert_reference`.
        """
        if not self.matrix_path:
            raise ValueError("plan has no matrix path for this basis pair")
        x = poly.data if isinstance(poly, RnsPoly) else poly
        if not isinstance(x, np.ndarray):
            x = modmath.as_block(x, self.src_moduli)
        if x.shape[0] != self.k_in or x.dtype != np.uint64:
            raise ValueError("source block must be (k_in, L) uint64")
        n = x.shape[1]
        if not self.k_in or not self.k_out:
            return np.zeros((self.k_out, n), np.uint64)
        ws = self._workspace(n)
        # Element-wise stage over the whole stack: one lazy multiply
        # by (Q/q_i)^-1 in the source moduli's multiplier mode
        # (float-quotient below 2^46, Shoup above) and one fold.
        sq = self._src_q
        y = ws["y"]
        tq = ws["tq"]
        if self._ew_wf is not None:
            modmath.mul_float_lazy_into(x, self._ew_w, self._ew_wf, sq, y,
                                        (tq, ws["est"]))
        else:
            np.multiply(modmath.mulhi(x, self._ew_ws), sq, out=tq)
            np.multiply(x, self._ew_w, out=y)
            np.subtract(y, tq, out=y)
        modmath.cond_sub_into(y, sq, tq)
        # Matrix stage: split the scaled residues into float64 pieces
        # and let BLAS run the exact multiply-accumulate — all scale
        # components in one tall matrix product.  The a=0 piece needs
        # no shift and the top piece needs no mask (y's leading bits
        # run out first).
        bp = self.PIECE_BITS
        mask = np.uint64((1 << bp) - 1)
        pieces = ws["pieces"]
        top = self._pieces_in - 1
        for a in range(self._pieces_in):
            src = y
            if a:
                np.right_shift(y, np.uint64(a * bp), out=tq)
                src = tq
            if a < top:
                np.bitwise_and(src, mask, out=tq)
                src = tq
            pieces[a * self.k_in:(a + 1) * self.k_in] = src
        flat = ws["flat"]
        np.matmul(self._block_stack, pieces, out=flat)
        comps = [flat[s * self.k_out:(s + 1) * self.k_out]
                 for s in range(len(self._shifts))]
        pq = self._dst_q
        # the result block is the one allocation a warmed call makes
        lo = np.empty((self.k_out, n), np.uint64) if self._reduce_float \
            else ws["lo"]
        tmpu = ws["tmpu"]
        lo[:] = comps[0]
        if self._reduce_float:
            # Recombine modulo 2^64 only (no carry tracking) and
            # recover the quotient from the float components: every
            # 2^(s*PIECE_BITS) scale is an exact float multiply, so
            # the only roundings are the ncomp additions, the p_j
            # cast and the division — within 1 of the true floor by
            # the _reduce_float bit budget above.
            if self._vf_gemm:
                vf = flat[len(self._shifts) * self.k_out:]
                for comp, shift in zip(comps[1:], self._shifts[1:]):
                    tmpu[:] = comp
                    np.left_shift(tmpu, np.uint64(shift), out=tmpu)
                    np.add(lo, tmpu, out=lo)
            else:
                tmpf = ws["tmpf"]
                vf = comps[0]
                for comp, scale, shift in zip(comps[1:], self._scales[1:],
                                              self._shifts[1:]):
                    np.multiply(comp, scale, out=tmpf)
                    np.add(vf, tmpf, out=vf)
                    if shift < 64:
                        tmpu[:] = comp
                        np.left_shift(tmpu, np.uint64(shift), out=tmpu)
                        np.add(lo, tmpu, out=lo)
                np.divide(vf, self._dst_qf, out=vf)
            np.floor(vf, out=vf)
            quo = ws["quo"]
            quo[:] = vf
            np.multiply(quo, pq, out=quo)
            np.subtract(lo, quo, out=lo)
            # lo is v - quo*p in wrapping uint64, i.e. (-p, 2p); the
            # same two branch-free np.minimum fix-ups as the
            # element-wise stage fold it into [0, p).
            np.add(lo, pq, out=tmpu)
            np.minimum(lo, tmpu, out=lo)
            np.subtract(lo, pq, out=tmpu)
            np.minimum(lo, tmpu, out=lo)
            acc = lo
        else:
            # Recombine into a lazily-carried 128-bit (hi, lo)
            # accumulator, then one vectorised fold of hi with the
            # precomputed 2^64 mod p_j Shoup pairs and a single
            # division sweep per target limb.
            hi = ws["hi"]
            hi[:] = 0
            down = ws["quo"]
            for comp_f, shift in zip(comps[1:], self._shifts[1:]):
                tmpu[:] = comp_f
                if shift < 64:
                    np.right_shift(tmpu, np.uint64(64 - shift), out=down)
                    np.add(hi, down, out=hi)
                    np.left_shift(tmpu, np.uint64(shift), out=tmpu)
                    np.add(lo, tmpu, out=lo)
                    hi += lo < tmpu
                else:
                    np.left_shift(tmpu, np.uint64(shift - 64), out=tmpu)
                    np.add(hi, tmpu, out=hi)
            r = hi * self._t64_w - modmath.mulhi(hi, self._t64_ws) * pq
            acc = np.mod(np.mod(lo, pq) + r, pq)
        self._release(ws)
        return acc

    def down_scale(self, block) -> np.ndarray:
        """Row ``j`` of a ``(..., k_out, L)`` block times the hoisted
        ``(prod src)^{-1} mod p_j``."""
        if self._down_inv is None:
            raise ValueError("source product not invertible in target basis")
        return self.dst_kernel.mul_rows(block, self._down_cols)


@lru_cache(maxsize=PLAN_CACHE_MAXSIZE)
def _build_bconv_plan(src: tuple[int, ...],
                      dst: tuple[int, ...]) -> BConvPlan:
    return BConvPlan(src, dst)


def get_bconv_plan(src_moduli, dst_moduli) -> BConvPlan:
    """Shared :class:`BConvPlan` per basis pair (bounded LRU).

    When the observability layer is enabled, bumps
    ``rns.bconv.plan_hit`` / ``rns.bconv.plan_miss``.
    """
    src = tuple(int(q) for q in src_moduli)
    dst = tuple(int(p) for p in dst_moduli)
    tracer = get_tracer()
    if not tracer.enabled:
        return _build_bconv_plan(src, dst)
    hits_before = _build_bconv_plan.cache_info().hits
    plan = _build_bconv_plan(src, dst)
    if _build_bconv_plan.cache_info().hits > hits_before:
        tracer.count("rns.bconv.plan_hit")
    else:
        tracer.count("rns.bconv.plan_miss")
    return plan


def bconv_plan_cache_info():
    """``functools`` cache statistics for the BConv-plan cache."""
    return _build_bconv_plan.cache_info()


def clear_bconv_plan_cache() -> None:
    _build_bconv_plan.cache_clear()


def plan_cache_evictions() -> dict:
    """Evictions per plan cache since the last clear.

    ``functools.lru_cache`` does not expose an eviction counter, but
    every miss inserts exactly one entry, so evictions are simply
    ``misses - currsize``.  Steady-state workloads — including the
    fused ModDown+Rescale kernel, whose conversion basis pairs are
    canonicalised the same way as the sequential path's — must show
    zero here: a non-zero count means some caller is generating
    unbounded key shapes and thrashing the plan tables.
    """
    caches = {
        "ntt": _build_plan.cache_info(),
        "auto": _build_auto_plan.cache_info(),
        "crt": _crt_constants.cache_info(),
        "bconv": _build_bconv_plan.cache_info(),
    }
    return {name: max(0, info.misses - info.currsize)
            for name, info in caches.items()}


def base_convert_reference(poly: RnsPoly, target_moduli) -> RnsPoly:
    """Per-pair scalar-loop HPS conversion (the exactness oracle).

    The pre-matrix implementation: element-wise stage per source limb,
    then one scalar multiply-accumulate per (target, source) pair.  It
    only goes through :mod:`modmath`'s per-modulus kernels, so it is
    structurally independent of the matrix kernel and serves as its
    bit-exactness oracle; it is also the only path for bases with
    moduli beyond the 62-bit uint64 datapath.
    """
    if poly.form != COEFF:
        raise ValueError("base_convert expects coefficient form")
    moduli = poly.moduli
    _, q_hat, q_hat_inv = _crt_constants(moduli)
    target = tuple(int(p) for p in target_moduli)
    scaled = [modmath.mul_scalar(limb, inv, q)
              for limb, inv, q in zip(poly.limbs, q_hat_inv, moduli)]
    out_limbs = []
    for p in target:
        acc = modmath.zeros(poly.n, p)
        for y, q, hat in zip(scaled, moduli, q_hat):
            acc = modmath.add(acc, modmath.mul_scalar(
                modmath.asresidues(y, p), hat % p, p), p)
        out_limbs.append(acc)
    return RnsPoly(out_limbs, target, COEFF)


def base_convert(poly: RnsPoly, target_moduli) -> RnsPoly:
    """HPS fast approximate base conversion ``Q-basis -> target basis``.

    Computes ``y_i = x_i * (Q/q_i)^{-1} mod q_i`` (element-wise stage,
    executed by the KMU in FAST) followed by
    ``out_j = sum_i y_i * (Q/q_i mod p_j)`` (the matrix stage, executed
    by the BConvU systolic array).  The result equals
    ``x + e * Q (mod p_j)`` for a small integer ``e`` in ``[0, k)``;
    callers that need exactness (ModDown) correct for it structurally.

    Executed through the cached :class:`BConvPlan` matrix kernel;
    bases with object-path moduli fall back to the scalar-loop oracle
    (``rns.bconv.object_fallback`` counts those).  Input must be in
    coefficient form; output is in coefficient form.
    """
    if poly.form != COEFF:
        raise ValueError("base_convert expects coefficient form")
    tracer = get_tracer()
    start = perf_counter() if tracer.enabled else 0.0
    target = tuple(int(p) for p in target_moduli)
    plan = get_bconv_plan(poly.moduli, target)
    if plan.matrix_path:
        result = RnsPoly._of(plan.convert(poly), target, COEFF,
                             plan.dst_kernel)
        if tracer.enabled:
            tracer.count("rns.bconv.matrix")
    else:
        result = base_convert_reference(poly, target)
        if tracer.enabled:
            tracer.count("rns.bconv.object_fallback")
    if tracer.enabled:
        tracer.count("rns.base_convert")
        tracer.observe("rns.base_convert_s", perf_counter() - start)
    return result


def mod_up(poly: RnsPoly, digit_indices: list[list[int]],
           full_moduli, aux_moduli) -> list[RnsPoly]:
    """Hybrid-method ModUp: split limbs into digits, extend each digit.

    ``digit_indices`` lists, per digit, the positions of its limbs in
    ``poly``.  Each digit is base-converted onto the *complement*
    moduli (the rest of the Q basis plus all auxiliary P moduli) and
    recombined with its own limbs, yielding one RnsPoly per digit over
    ``full_moduli + aux_moduli``, the digits being consecutive views of
    one ``(digits, k, N)`` block.  Input/outputs in coefficient form.
    """
    if poly.form != COEFF:
        raise ValueError("mod_up expects coefficient form")
    get_tracer().count("rns.mod_up")
    basis = tuple(int(q) for q in full_moduli) + tuple(
        int(p) for p in aux_moduli)
    position = {q: i for i, q in enumerate(basis)}
    block = np.empty((len(digit_indices), len(basis), poly.n),
                     modmath.block_dtype(basis))
    for out, indices in zip(block, digit_indices):
        digit = poly.select_limbs(indices)
        own = [position[q] for q in digit.moduli]
        rest = [i for i in range(len(basis)) if i not in own]
        converted = base_convert(digit, tuple(basis[i] for i in rest))
        out[own] = digit.data
        out[rest] = converted.data
    return [RnsPoly._of(out, basis, COEFF) for out in block]


def mod_down(poly: RnsPoly, main_count: int) -> RnsPoly:
    """Divide by the auxiliary modulus and drop its limbs (exact-ish).

    ``poly`` lives over ``Q x P`` with the first ``main_count`` limbs
    forming Q.  Returns ``round(poly / P)`` over Q:
    ``(x - BConv_{P->Q}(x mod P)) * P^{-1} mod Q``, the standard RNS
    ModDown with error below 1 plus the BConv slack.
    """
    if poly.form != COEFF:
        raise ValueError("mod_down expects coefficient form")
    get_tracer().count("rns.mod_down")
    q_moduli = poly.moduli[:main_count]
    p_moduli = poly.moduli[main_count:]
    if not p_moduli:
        raise ValueError("nothing to mod-down: no auxiliary limbs")
    approx = base_convert(poly.select_limbs(range(main_count,
                                                  len(poly.moduli))),
                          q_moduli)
    # The P^-1 mod q scalars are hoisted into the conversion plan —
    # no per-call inv_mod.
    plan = get_bconv_plan(p_moduli, q_moduli)
    kernel = plan.dst_kernel
    diff = kernel.sub(poly.data[:main_count], approx.data)
    return RnsPoly._of(plan.down_scale(diff), q_moduli, COEFF, kernel)


def exact_rescale(poly: RnsPoly) -> RnsPoly:
    """Drop the last limb, dividing by its prime with rounding.

    This is CKKS rescaling in RNS form: for each remaining limb,
    ``(x mod q_i - x mod q_last) * q_last^{-1} mod q_i``.
    """
    if poly.form != COEFF:
        raise ValueError("exact_rescale expects coefficient form")
    if len(poly.moduli) < 2:
        raise ValueError("cannot rescale a single-limb polynomial")
    front = poly.moduli[:-1]
    # A single-limb conversion plan: its matrix stage is exactly the
    # fold ``x mod q_i`` (HPS is exact for one source limb), and it
    # hoists the q_last^-1 mod q_i scalars across calls.
    plan = get_bconv_plan(poly.moduli[-1:], front)
    if plan.matrix_path:
        folded = plan.convert(poly.select_limbs([len(front)]))
    else:
        folded = modmath.as_block([poly.data[-1]] * len(front), front)
    kernel = plan.dst_kernel
    diff = kernel.sub(poly.data[:-1], folded)
    return RnsPoly._of(plan.down_scale(diff), front, COEFF, kernel)
