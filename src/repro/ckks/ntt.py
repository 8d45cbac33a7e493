"""Negacyclic number-theoretic transform over one RNS prime.

This is the software model of the accelerator's NTTU: it converts a
limb between *coefficient* representation and *evaluation* (point)
representation so that polynomial multiplication in
``Z_q[X]/(X^N + 1)`` becomes element-wise multiplication.

The network is the standard merged-twist pair:

* forward: Cooley-Tukey butterflies on bit-reversed powers of ``psi``
  (a primitive 2N-th root of unity), which folds the negacyclic
  twisting into the butterflies;
* inverse: Gentleman-Sande butterflies on powers of ``psi^-1``
  followed by multiplication with ``N^-1``.

There is one engine, one compiled kernel that takes its place under
batch plans wherever the host can build it, and one reference:

* **the engine** — :class:`FusedNttEngine`, the butterfly every
  modulus below 2^62 can run on: two radix-2 stages merged into one pass
  over the limb tensor, values riding in Harvey-style lazy domains
  between stages ([0, 4q) on the forward network, [0, 2q) on the
  inverse; one correction pass at the end instead of per-stage
  normalisation), every intermediate written via ``out=``-chained
  ufuncs into an arena-pooled scratch block so a warmed plan allocates
  nothing but its output.  All lazy sums stay below ``4q < 2^64``,
  which is exactly the wide-path bound.  Its twiddle tables and their
  multiply companions are derived once per ``(N, q)`` by
  :class:`NttPlan` (:meth:`NttPlan.fused_tables`);
  :class:`BatchNttPlan` stacks them per row, and a scalar transform
  is the shared-modulus rows transform (:meth:`NttPlan.forward_rows`)
  with one row.

  The sweeps are one network; the twiddle multiply under them comes in
  the software TBM's two modes (:mod:`repro.ckks.modmath`), fixed per
  engine.  *60-bit mode*, any ``q < 2^62``: Shoup's multiply on a
  uint64 companion ``floor(w * 2^64 / q)``, 20 ufunc passes because
  numpy has no 64x64 ``mulhi``.  *36-bit mode*, ``q < 2^46``: the
  float-quotient multiply on a float64 companion ``w / q``, 5 passes.
  Both return the exact representative in ``[0, 2q)``, so the domain
  discipline above does not know which one ran; the float form needs
  its operand below 2^49, and the widest lazy value is ``4q - 1 <
  2^48`` — which is why the mode ends at 46 bits.  A
  :class:`BatchNttPlan` puts each limb row on the engine of its mode
  (:func:`~repro.ckks.modmath.fits_float_quotient`, nothing else);
  shared-modulus plans run 60-bit mode at every width.
* **the compiled kernel** — ``_ntt_kernel.c`` beside this file, built
  and loaded by :mod:`repro.backend.native` (:func:`~repro.backend.
  native.load` is ``None`` without a C compiler).  The same radix-2
  network and the same lazy domains as the engine, one stage per pass
  over a row that stays in cache, Shoup's multiply through a real
  64x64 ``mulhi`` at every width.  A :class:`BatchNttPlan` runs it on
  its whole block whenever it is there (availability is the only
  selector) and reads each row's tables where the scalar plan keeps
  them; the engine is the fallback, unchanged.  Shared-modulus plans
  stay on the engine (DESIGN.md Sec. 21).
* **the reference** — the radix-2 network, one canonically reduced
  stage per pass, on Python ints (``%`` on object arrays).  The rows'
  dtype selects it, as it selects :class:`~repro.ckks.modmath.
  BasisKernel`'s path: any :class:`NttPlan` runs object rows on it.
  It is the only path for moduli above 62 bits, and what every
  bit-exactness test and the serving layer's serial oracle compare
  the engine against.

All three emit the same slot ordering (``2*brv(i)+1``, see
:func:`eval_point_exponents`) and bit-identical canonical outputs.
"""

from __future__ import annotations

from functools import lru_cache
from time import perf_counter

import numpy as np

from repro.backend import native
from repro.backend.arena import WorkspaceArena
from repro.ckks import modmath, primes
from repro.obs.tracer import get_tracer


def bit_reverse_permutation(n: int) -> np.ndarray:
    """Index permutation reversing log2(n)-bit indices."""
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    out = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        out = (out << 1) | (idx & 1)
        idx >>= 1
    return out


def eval_point_exponents(n: int) -> np.ndarray:
    """Root exponents ``e(i)`` with ``forward(a)[i] = a(psi^e(i))``.

    The merged-twist Cooley-Tukey network evaluates the input at every
    odd power of the primitive 2N-th root ``psi`` (the negacyclic
    points), emitting slot ``i`` at exponent ``2 * brv(i) + 1`` where
    ``brv`` is :func:`bit_reverse_permutation`.  Automorphism plans
    (:class:`repro.ckks.rns.AutoPlan`) lean on this ordering to turn
    ``X -> X^g`` into a pure permutation of evaluation slots: slot
    holding point ``psi^e`` must move to the slot holding
    ``psi^(e * g mod 2N)``.  The fused engine merges stages without
    reindexing, so it shares the reference network's ordering.
    """
    if n < 1 or n & (n - 1):
        raise ValueError("ring degree must be a power of two")
    return 2 * bit_reverse_permutation(n) + 1


class FusedNttEngine:
    """Radix-4 merged-stage lazy-reduction butterfly engine.

    Operates **in place** on ``(R, n)`` uint64 stacks.  Twiddle tables
    are either per-row ``(R, n)`` (one modulus per row — the batched
    limb transform) or shared ``(n,)`` (one modulus for all rows —
    scalar plans and the serving layer's request batching).

    One butterfly network, two twiddle multiplies, fixed at build by
    ``float_quotient``: the 64-bit Shoup multiply
    (:func:`~repro.ckks.modmath.mul_shoup_lazy_into`, companions
    pre-split into uint32 halves) for any ``q < 2^62``, or the
    float-quotient multiply (:func:`~repro.ckks.modmath.
    mul_float_lazy_into`, float64 companions: the same table bytes)
    when every modulus is below 2^46.  Both have one contract, which
    is all the sweeps rely on.

    Domain discipline (the headroom proof, per width):

    * every twiddle multiply returns the exact representative in
      ``[0, 2q)`` for a reduced ``w < q``: the quotient estimate
      undershoots the true quotient by at most 1.  The Shoup form
      admits *any* uint64 input; the float form inputs below 2^49,
      and the widest value either network holds is ``4q - 1 < 2^48``
      for ``q < 2^46``.
    * forward (Cooley-Tukey): stage inputs live in ``[0, 4q)``.  The
      two added operands are folded to ``[0, 2q)`` with one
      branch-free conditional subtraction each, the two multiplied
      operands feed the multiply unfolded; sums are then
      ``< 2q + 2q = 4q``, so the invariant holds and nothing exceeds
      ``4q < 2^64`` — which is precisely ``q < 2^62``, the wide-path
      bound (:data:`repro.ckks.modmath._WIDE_SAFE_BITS`); 26- to 31-bit
      moduli ride the same datapath with even more slack.
    * inverse (Gentleman-Sande): stage values stay in ``[0, 2q)`` —
      sums are folded once, differences are computed as
      ``a + (2q - b) < 4q`` and immediately consumed by a multiply
      that re-normalises to ``[0, 2q)``.
    * one final correction pass (two folds forward, scale by
      ``N^-1`` plus one fold inverse) lands canonical ``[0, q)``
      residues.

    All scratch comes from a :class:`~repro.backend.arena
    .WorkspaceArena`: six flat ``R * n/2`` buffers per distinct row
    count (four in float-quotient mode), allocated on first use (a
    ledger-counted pool miss) and reused forever after — the steady
    state is zero allocations.
    """

    def __init__(self, ring_degree: int, moduli, psi, psi_companion,
                 psi_inv, psi_inv_companion, n_inv_pair, arena,
                 per_row: bool, float_quotient: bool = False):
        self.n = int(ring_degree)
        self.arena = arena
        self.per_row = per_row
        self.float_quotient = float_quotient
        ni_w, ni_ws = n_inv_pair
        companions = (psi_companion, psi_inv_companion, ni_ws)
        if float_quotient:
            if not all(modmath.fits_float_quotient(q) for q in
                       (moduli if per_row else (moduli,))):
                raise ValueError(
                    "float-quotient mode needs every modulus below 2^46")
            self._mul, self._nbufs = modmath.mul_float_lazy_into, 4
        else:
            # Pre-split Shoup companions once (uint32 halves: saves two
            # splits per multiply and half the table bytes).
            self._mul, self._nbufs = modmath.mul_shoup_lazy_into, 6
            companions = tuple(modmath.split32(c) for c in companions)
        self._w_f = psi
        self._w_i = psi_inv
        self._ws_f, self._ws_i, self._ni_ws = companions
        if per_row:
            qs = np.array([int(q) for q in moduli], dtype=np.uint64)
            self._q3 = qs.reshape(-1, 1, 1)
            self._q2_3 = (qs * 2).reshape(-1, 1, 1)
            self._q2d = self._q3[:, :, 0]
            self._q2_2d = self._q2_3[:, :, 0]
            self._ni_w = ni_w                   # (k, 1) column
        else:
            q = int(moduli)
            self._q3 = self._q2d = np.uint64(q)
            self._q2_3 = self._q2_2d = np.uint64(2 * q)
            self._ni_w = np.uint64(ni_w)
        # Per-stage twiddle views are pure slicing — built once here,
        # zero per-call cost.  Merged (radix-4) entries carry three
        # (twiddle, companion) pairs: the first-stage column and the
        # even/odd second-stage columns.
        stages = self.n.bit_length() - 1
        self._fwd: list = []
        m = 1
        if stages % 2:
            self._fwd.append(("r2", 1, self.n // 2,
                              (self._tw_f(1, 2),)))
            m = 2
        while m < self.n:
            self._fwd.append(("r4", m, self.n // (4 * m),
                              (self._tw_f(m, 2 * m),
                               self._tw_f(2 * m, 4 * m, 2),
                               self._tw_f(2 * m + 1, 4 * m, 2))))
            m *= 4
        self._inv: list = []
        h, t = self.n // 2, 1
        while h >= 2:
            self._inv.append(("r4", h // 2, t,
                              (self._tw_i(h, 2 * h, 2),
                               self._tw_i(h + 1, 2 * h, 2),
                               self._tw_i(h // 2, h))))
            h //= 4
            t *= 4
        if h == 1:
            self._inv.append(("r2", 1, self.n // 2,
                              (self._tw_i(1, 2),)))

    @property
    def mode(self) -> str:
        """The TBM mode these rows occupy (``ntt.path.<mode>``)."""
        return "wide36" if self.float_quotient else "wide60"

    def _tw_f(self, start, stop, step=1):
        return self._slice(self._w_f, self._ws_f, start, stop, step)

    def _tw_i(self, start, stop, step=1):
        return self._slice(self._w_i, self._ws_i, start, stop, step)

    def _slice(self, w, ws, start, stop, step):
        if self.per_row:
            def cut(table):
                return table[:, start:stop:step, None]
        else:
            def cut(table):
                return table[None, start:stop:step, None]
        if self.float_quotient:
            return cut(w), cut(ws)
        return cut(w), (cut(ws[0]), cut(ws[1]))

    def _scratch(self, rows: int) -> tuple:
        size = rows * max(self.n // 2, 1)
        return self.arena.take_many(("fused", rows), self._nbufs, (size,))

    # -- forward (Cooley-Tukey, [0, 4q) lazy domain) --------------------
    def forward(self, a) -> None:
        """In-place forward NTT of an ``(R, n)`` canonical stack."""
        rows = a.shape[0]
        bufs = self._scratch(rows)
        q, q2 = self._q3, self._q2_3
        for kind, m, t, tw in self._fwd:
            cnt = rows * m * t
            work = tuple(b[:cnt].reshape(rows, m, t) for b in bufs)
            if kind == "r4":
                view = a.reshape(rows, m, 4, t)
                self._fwd_r4(view, tw, q, q2, work)
            else:
                view = a.reshape(rows, m, 2, t)
                self._fwd_r2(view, tw[0], q, q2, work)
        # Final correction: [0, 4q) -> canonical, in scratch-sized
        # half-row chunks (the arena buffers span R * n/2 words).
        half = max(self.n // 2, 1)
        sc = bufs[0]
        for col in range(0, self.n, half):
            part = a[:, col:col + half]
            scr = sc[:part.size].reshape(part.shape)
            modmath.cond_sub_into(part, self._q2_2d, scr)
            modmath.cond_sub_into(part, self._q2d, scr)

    def _fwd_r4(self, view, tw, q, q2, work) -> None:
        (w1, c1), (w2, c2), (w3, c3) = tw
        mul = self._mul
        x0 = view[:, :, 0]
        x1 = view[:, :, 1]
        x2 = view[:, :, 2]
        x3 = view[:, :, 3]
        T, s1 = work[0], work[1]
        s = work[1:]
        # first half-stage: (x0, x2) and (x1, x3), twiddle w1
        modmath.cond_sub_into(x0, q2, s1)
        modmath.cond_sub_into(x1, q2, s1)
        mul(x2, w1, c1, q, T, s)
        np.subtract(q2, T, out=s1)
        np.add(x0, s1, out=x2)                  # b2 = x0 - w1*x2
        np.add(x0, T, out=x0)                   # b0 = x0 + w1*x2
        mul(x3, w1, c1, q, T, s)
        np.subtract(q2, T, out=s1)
        np.add(x1, s1, out=x3)                  # b3 = x1 - w1*x3
        np.add(x1, T, out=x1)                   # b1 = x1 + w1*x3
        # second half-stage: (b0, b1) by w2, (b2, b3) by w3
        modmath.cond_sub_into(x0, q2, s1)
        modmath.cond_sub_into(x2, q2, s1)
        mul(x1, w2, c2, q, T, s)
        np.subtract(q2, T, out=s1)
        np.add(x0, s1, out=x1)                  # c1
        np.add(x0, T, out=x0)                   # c0
        mul(x3, w3, c3, q, T, s)
        np.subtract(q2, T, out=s1)
        np.add(x2, s1, out=x3)                  # c3
        np.add(x2, T, out=x2)                   # c2

    def _fwd_r2(self, view, tw, q, q2, work) -> None:
        w, c = tw
        lo = view[:, :, 0]
        hi = view[:, :, 1]
        T, s1 = work[0], work[1]
        modmath.cond_sub_into(lo, q2, s1)
        self._mul(hi, w, c, q, T, work[1:])
        np.subtract(q2, T, out=s1)
        np.add(lo, s1, out=hi)
        np.add(lo, T, out=lo)

    # -- inverse (Gentleman-Sande, [0, 2q) lazy domain) -----------------
    def inverse(self, a) -> None:
        """In-place inverse NTT of an ``(R, n)`` canonical stack.

        Includes the trailing ``N^-1`` scaling and canonicalisation.
        """
        rows = a.shape[0]
        bufs = self._scratch(rows)
        q, q2 = self._q3, self._q2_3
        for kind, g, t, tw in self._inv:
            cnt = rows * g * t
            work = tuple(b[:cnt].reshape(rows, g, t) for b in bufs)
            if kind == "r4":
                view = a.reshape(rows, g, 4, t)
                self._inv_r4(view, tw, q, q2, work)
            else:
                view = a.reshape(rows, g, 2, t)
                self._inv_r2(view, tw[0], q, q2, work)
        # N^-1 scaling (in-place Shoup) + canonical fold, by halves.
        half = max(self.n // 2, 1)
        qd = self._q2d
        for col in range(0, self.n, half):
            part = a[:, col:col + half]
            s = tuple(b[:part.size].reshape(part.shape) for b in bufs)
            self._mul(part, self._ni_w, self._ni_ws, qd, part, s)
            modmath.cond_sub_into(part, qd, s[0])

    def _inv_r4(self, view, tw, q, q2, work) -> None:
        (we, ce), (wo, co), (w2, c2) = tw
        mul = self._mul
        x0 = view[:, :, 0]
        x1 = view[:, :, 1]
        x2 = view[:, :, 2]
        x3 = view[:, :, 3]
        T, s1 = work[0], work[1]
        s = work[2:] + (T,)
        # first half-stage: (x0, x1) by we, (x2, x3) by wo
        np.subtract(q2, x1, out=s1)
        np.add(s1, x0, out=s1)                  # x0 - x1 (+2q)
        np.add(x0, x1, out=x0)
        modmath.cond_sub_into(x0, q2, work[2])  # b0
        mul(s1, we, ce, q, x1, s)
        np.subtract(q2, x3, out=s1)
        np.add(s1, x2, out=s1)
        np.add(x2, x3, out=x2)
        modmath.cond_sub_into(x2, q2, work[2])  # b2
        mul(s1, wo, co, q, x3, s)
        # second half-stage: (b0, b2) and (b1, b3), shared twiddle w2
        np.subtract(q2, x2, out=s1)
        np.add(s1, x0, out=s1)
        np.add(x0, x2, out=x0)
        modmath.cond_sub_into(x0, q2, work[2])  # c0
        mul(s1, w2, c2, q, x2, s)
        np.subtract(q2, x3, out=s1)
        np.add(s1, x1, out=s1)
        np.add(x1, x3, out=x1)
        modmath.cond_sub_into(x1, q2, work[2])  # c1
        mul(s1, w2, c2, q, x3, s)

    def _inv_r2(self, view, tw, q, q2, work) -> None:
        w, c = tw
        lo = view[:, :, 0]
        hi = view[:, :, 1]
        T, s1 = work[0], work[1]
        np.subtract(q2, hi, out=s1)
        np.add(s1, lo, out=s1)
        np.add(lo, hi, out=lo)
        modmath.cond_sub_into(lo, q2, work[2])
        self._mul(s1, w, c, q, hi, work[2:] + (T,))


class NttPlan:
    """Precomputed tables for the negacyclic NTT of one prime.

    Parameters
    ----------
    ring_degree:
        Power-of-two polynomial degree ``N``.
    modulus:
        NTT-friendly prime with ``modulus = 1 (mod 2N)``.

    The rows' dtype picks the butterfly: uint64 rows (``q < 2^62``)
    transform on a shared-modulus :class:`FusedNttEngine`, object rows
    (Python ints; the only kind beyond 62 bits) on the radix-2
    reference network (:meth:`_forward_stages` /
    :meth:`_inverse_stages`).  The primitive is the in-place ``(B,
    N)`` rows transform (:meth:`forward_rows` / :meth:`inverse_rows`);
    the scalar :meth:`forward` / :meth:`inverse` are that transform
    with ``B = 1``.
    """

    def __init__(self, ring_degree: int, modulus: int):
        if ring_degree & (ring_degree - 1):
            raise ValueError("ring degree must be a power of two")
        if (modulus - 1) % (2 * ring_degree) != 0:
            raise ValueError(
                f"modulus {modulus} is not NTT-friendly for N={ring_degree}")
        self.n = ring_degree
        self.modulus = modulus
        self.wide = modmath.width_path(modulus) == modmath.WIDE
        psi = primes.root_of_unity(2 * ring_degree, modulus)
        psi_inv = modmath.inv_mod(psi, modulus)
        # Twiddle tables are built once, here, from exact Python ints.
        self._psi_rev = self._power_table(psi)
        self._psi_inv_rev = self._power_table(psi_inv)
        self._n_inv = modmath.inv_mod(ring_degree, modulus)
        self._reference = None       # Python-int tables, on first use
        if self.wide:
            # The one derivation of the multiply companions: the batch
            # plan and the serving layer reuse these through
            # :meth:`fused_tables` instead of re-deriving them.
            self._psi_rev_shoup = modmath.shoup_companions(
                self._psi_rev, modulus)
            self._psi_inv_rev_shoup = modmath.shoup_companions(
                self._psi_inv_rev, modulus)
            self._n_inv_pair = modmath.shoup_pair(self._n_inv, modulus)
        # The shared-modulus engine is built lazily on first use:
        # plans built only for their tables (the batch plan stacks
        # them) never pay for Shoup splitting or stage slicing.
        self._engine = None

    def fused_tables(self, float_quotient: bool = False) -> tuple:
        """``(psi, psi_companion, psi_inv, psi_inv_companion,
        n_inv_pair)``: the tables one :class:`FusedNttEngine` mode
        runs on — the uint64 Shoup companions, or with
        ``float_quotient`` the float64 ones (``q < 2^46`` only;
        derived here on request, since only batch-plan builds ask and
        they stack a copy: a plan the serving layer holds pays no
        bytes for them).
        """
        psi, psi_inv = self._psi_rev, self._psi_inv_rev
        if float_quotient:
            q = self.modulus
            return (psi, modmath.float_companion(psi, q),
                    psi_inv, modmath.float_companion(psi_inv, q),
                    (self._n_inv_pair[0],
                     modmath.float_companion(self._n_inv, q)))
        return (psi, self._psi_rev_shoup, psi_inv,
                self._psi_inv_rev_shoup, self._n_inv_pair)

    def _get_engine(self) -> FusedNttEngine:
        if self._engine is None:
            # Shared-modulus plans stay on the 64-bit multiply for
            # every modulus (DESIGN.md Sec. 20: serve_closed's RSS
            # bound); passing fits_float_quotient(q) here and to
            # fused_tables is the whole switch.
            self._engine = FusedNttEngine(
                self.n, self.modulus, *self.fused_tables(),
                WorkspaceArena("ntt"), per_row=False)
        return self._engine

    def _power_table(self, base: int) -> np.ndarray:
        """Powers base^0..base^(N-1) stored in bit-reversed order."""
        n, q = self.n, self.modulus
        powers = np.empty(n, dtype=object)
        acc = 1
        for i in range(n):
            powers[i] = acc
            acc = acc * base % q
        return modmath.as_block(powers[bit_reverse_permutation(n)],
                                (self.modulus,))[0]

    # -- the reference: radix-2, one stage per pass, Python ints ---------
    # Only object rows run these, so the fused engine is never checked
    # against its own arithmetic.

    def _reference_tables(self) -> tuple:
        if self._reference is None:
            self._reference = (self._psi_rev.astype(object),
                               self._psi_inv_rev.astype(object))
        return self._reference

    def _forward_stages(self, a: np.ndarray) -> None:
        """In-place Cooley-Tukey network on one length-N object row."""
        q = self.modulus
        psi = self._reference_tables()[0]
        t = self.n
        m = 1
        while m < self.n:
            t //= 2
            view = a.reshape(m, 2 * t)
            lo = view[:, :t]
            hi = view[:, t:]
            prod = hi * psi[m:2 * m].reshape(m, 1) % q
            new_hi = (lo - prod) % q
            view[:, :t] = (lo + prod) % q
            view[:, t:] = new_hi
            m *= 2

    def _inverse_stages(self, a: np.ndarray) -> None:
        """In-place Gentleman-Sande network plus the ``N^-1`` scaling."""
        q = self.modulus
        psi_inv = self._reference_tables()[1]
        t = 1
        m = self.n
        while m > 1:
            h = m // 2
            view = a.reshape(h, 2 * t)
            lo = view[:, :t]
            hi = view[:, t:]
            # diff must be taken before lo's slot is overwritten:
            # lo/hi are views into the working array.
            diff = lo - hi
            view[:, :t] = (lo + hi) % q
            view[:, t:] = diff * psi_inv[h:2 * h].reshape(h, 1) % q
            t *= 2
            m = h
        a[:] = a * self._n_inv % q

    # -- transforms --------------------------------------------------------
    def _transform_rows(self, a, inverse: bool) -> None:
        if a.ndim != 2 or a.shape[1] != self.n:
            raise ValueError("rows must be (B, N) for this plan")
        if a.dtype == object:
            stages = self._inverse_stages if inverse \
                else self._forward_stages
            for row in a:
                stages(row)
            return
        if not self.wide:
            raise ValueError(f"rows modulo a {self.modulus.bit_length()}"
                             f"-bit prime must be Python ints")
        if a.dtype != np.uint64 or not a.flags.c_contiguous:
            # a reshape of anything else would transform a silent copy
            raise ValueError("rows must be C-contiguous uint64")
        if inverse:
            self._get_engine().inverse(a)
        else:
            self._get_engine().forward(a)

    def forward_rows(self, a) -> None:
        """In-place forward NTT of every row of a ``(B, N)`` stack.

        Rows are canonical residues of this plan's modulus: a
        C-contiguous uint64 array for the engine, an object array of
        Python ints for the reference.  ``B`` independent
        :meth:`forward` calls, bit for bit.
        """
        self._transform_rows(a, inverse=False)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("ntt.rows_forward")
            tracer.observe("ntt.rows_forward.rows", a.shape[0])

    def inverse_rows(self, a) -> None:
        """In-place inverse NTT (``N^-1`` scaling included) of every
        row of a ``(B, N)`` stack; see :meth:`forward_rows`."""
        self._transform_rows(a, inverse=True)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("ntt.rows_inverse")
            tracer.observe("ntt.rows_inverse.rows", a.shape[0])

    def _one_row(self, values) -> np.ndarray:
        """A fresh ``(1, N)`` working row of canonical residues: Python
        ints when ``values`` is an object array (the reference), else
        the plan's block dtype."""
        if isinstance(values, np.ndarray) and values.dtype == object:
            rows = np.mod(values, self.modulus).reshape(1, -1)
        else:
            rows = modmath.as_block(values, (self.modulus,))
        if rows.shape[1] != self.n:
            raise ValueError("limb length does not match the plan")
        return rows

    def _count_path(self, tracer, rows) -> None:
        """One limb row under its width path and, on the engine, its
        multiplier mode (``ntt.path.wide36`` / ``ntt.path.wide60``)."""
        if rows.dtype == object:
            tracer.count("ntt.path." + modmath.OBJECT)
            return
        tracer.count("ntt.path." + modmath.WIDE)
        tracer.count("ntt.path." + self._engine.mode)

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficient form -> evaluation form (negacyclic NTT)."""
        tracer = get_tracer()
        start = perf_counter() if tracer.enabled else 0.0
        rows = self._one_row(coeffs)
        self._transform_rows(rows, inverse=False)
        if tracer.enabled:
            tracer.count("ntt.forward")
            self._count_path(tracer, rows)
            tracer.observe("ntt.forward_s", perf_counter() - start)
        return rows[0]

    def inverse(self, evals: np.ndarray) -> np.ndarray:
        """Evaluation form -> coefficient form (inverse negacyclic NTT)."""
        tracer = get_tracer()
        start = perf_counter() if tracer.enabled else 0.0
        rows = self._one_row(evals)
        self._transform_rows(rows, inverse=True)
        if tracer.enabled:
            tracer.count("ntt.inverse")
            self._count_path(tracer, rows)
            tracer.observe("ntt.inverse_s", perf_counter() - start)
        return rows[0]


# -- batched multi-limb transforms ----------------------------------------

# Bound on cached batch plans: one entry per (N, basis) pair actually
# transformed.  A full workload touches one basis per level per
# key-switch flavour — a few dozen — and each entry only *references*
# per-prime twiddle tables (the ufunc fallback: stacked copies), so
# eviction costs a rebind, never a root search.
BATCH_PLAN_CACHE_MAXSIZE = 64


class BatchNttPlan:
    """One fused NTT over every limb of one RNS basis at once.

    The per-limb :class:`NttPlan` loop spends most of its time in
    Python dispatch: ``k`` limbs times ``log2 N`` stages times a
    handful of kernel calls each.  This plan transforms a polynomial's
    C-contiguous ``(k, N)`` block (:class:`~repro.ckks.rns.RnsPoly`)
    in place in one call, every row whose modulus fits the uint64
    datapath (``q < 2^62``) at once: the software shape of the
    accelerator's NTTU operating on a whole limb set per ModUp digit.

    Where the host has the compiled kernel
    (:func:`repro.backend.native.load`), that call is the C butterfly,
    bound to one pointer per row into the scalar plans' own
    :meth:`NttPlan.fused_tables`: the plan holds no table copy and no
    scratch.  Otherwise the plan stacks those tables into per-basis
    ``(k, N)`` copies, so each butterfly sweep of the per-row
    :class:`FusedNttEngine` is a single set of whole-batch numpy ops
    with the per-limb modulus broadcast as a ``(k, 1, 1)`` column.

    On that fallback the rows are ordered by multiplier mode
    (:func:`~repro.ckks.modmath.fits_float_quotient`): rows below 2^46
    first, on a float-quotient engine, then the rest on a 64-bit Shoup
    engine, each transforming its contiguous row range.  A basis
    already in that order (every CKKS chain: 36/44-bit Q limbs, then
    60-bit T words) is transformed where it lies; any other order, or a
    basis with object rows, goes through one mode-ordered copy.

    Rows over the exact ``object`` path (moduli beyond 62 bits, an
    object block) run their scalar reference plans; results are
    bit-identical to the per-limb plans on every path.
    """

    def __init__(self, ring_degree: int, moduli: tuple[int, ...]):
        # Imported lazily: rns imports NttPlan from this module at
        # load time, but the shared bounded per-(N, q) plan cache
        # lives there and must be reused so batch and scalar callers
        # agree on tables.
        from repro.ckks.rns import get_plan

        self.n = int(ring_degree)
        self.moduli = tuple(int(q) for q in moduli)
        self._scalar_plans = [get_plan(self.n, q) for q in self.moduli]
        self._object_rows = []               # limb positions on the oracle
        by_mode = {True: [], False: []}      # float-quotient rows first
        for i, plan in enumerate(self._scalar_plans):
            if plan.wide:
                by_mode[modmath.fits_float_quotient(plan.modulus)].append(i)
            else:
                self._object_rows.append(i)
        self._batch_rows = by_mode[True] + by_mode[False]   # stack order
        self._in_place = self._batch_rows == list(range(len(self.moduli)))
        self._dtype = modmath.block_dtype(self.moduli)
        # Rows per TBM mode, by modulus width alone: what
        # ``ntt.path.wide36`` / ``wide60`` count under either butterfly.
        self._mode_rows = [(mode, len(by_mode[fq])) for fq, mode in
                           ((True, "wide36"), (False, "wide60"))
                           if by_mode[fq]]
        self._engines = []                   # (row range of the block, engine)
        # through the module attribute: tests swap ``native.load`` out
        kernel = native.load() if self._batch_rows else None
        if kernel is None:
            self._native = None
            self._build_engines(by_mode)
        else:
            # The compiled butterfly reads each row's tables where the
            # scalar plans already keep them: one pointer per row, no
            # stacked copy, no float companions, no arena scratch.
            self._native = kernel.bind(
                self.n, [self.moduli[i] for i in self._batch_rows],
                [self._scalar_plans[i].fused_tables()
                 for i in self._batch_rows])

    def _build_engines(self, by_mode: dict) -> None:
        """The ufunc fallback: one per-row engine per multiplier mode
        over stacked ``(rows, N)`` copies of the scalar plans' tables."""
        arena = WorkspaceArena("ntt")
        start = 0
        for float_quotient, rows in by_mode.items():
            if not rows:
                continue
            *tables, n_inv = zip(*(
                self._scalar_plans[i].fused_tables(float_quotient)
                for i in rows))
            stacked = [np.stack(table) for table in tables]
            n_inv_pair = tuple(np.array(col).reshape(-1, 1)
                               for col in zip(*n_inv))
            self._engines.append((
                slice(start, start + len(rows)),
                FusedNttEngine(
                    self.n, [self.moduli[i] for i in rows], *stacked,
                    n_inv_pair, arena, per_row=True,
                    float_quotient=float_quotient)))
            start += len(rows)

    def _out_block(self, out):
        shape = (len(self.moduli), self.n)
        if out is None:
            return np.empty(shape, self._dtype)
        # Both butterflies transform the block in place through
        # reshaped views (and the compiled one through its address), so
        # anything but a C-contiguous block would be a silent copy, or
        # a wild write.
        if (out.shape != shape or out.dtype != self._dtype
                or not out.flags.c_contiguous):
            raise ValueError("out block must be C-contiguous (k, N) "
                             f"{np.dtype(self._dtype)}")
        return out

    def _transform(self, block, out, inverse: bool) -> np.ndarray:
        a = self._out_block(out)
        if not isinstance(block, np.ndarray) or block.ndim != 2:
            modmath.as_block(block, self.moduli, out=a)   # limb vectors
        elif block.shape != a.shape:
            raise ValueError("block shape does not match the plan")
        elif a is not block:
            np.copyto(a, block)
        tracer = get_tracer()
        start = perf_counter() if tracer.enabled else 0.0
        if self._batch_rows:
            # The block in basis order is the work block whenever every
            # row is uint64 and the basis is sorted by mode (every CKKS
            # chain); otherwise the rows go through a mode-ordered copy.
            rows = a if self._in_place else \
                a[self._batch_rows].astype(np.uint64)
            if self._native is not None:
                if inverse:
                    self._native.inverse(rows)
                else:
                    self._native.forward(rows)
            for span, engine in self._engines:
                if inverse:
                    engine.inverse(rows[span])
                else:
                    engine.forward(rows[span])
            if rows is not a:
                a[self._batch_rows] = rows
        for i in self._object_rows:
            plan = self._scalar_plans[i]
            a[i] = plan.inverse(a[i]) if inverse else plan.forward(a[i])
        if tracer.enabled:
            name = "ntt.batch_inverse" if inverse else "ntt.batch_forward"
            tracer.count(name)
            if self._batch_rows:
                tracer.count("ntt.path." + modmath.WIDE,
                             len(self._batch_rows))
            for mode, rows in self._mode_rows:
                tracer.count("ntt.path." + mode, rows)
            if self._native is not None:
                tracer.count("ntt.kernel.native", len(self._batch_rows))
            tracer.observe(name + "_s", perf_counter() - start)
        return a

    def forward(self, block, out=None) -> np.ndarray:
        """Batched forward NTT of a ``(k, N)`` block (or a sequence of
        limb vectors, reduced on the way in) into a new block, or into
        ``out``: a caller-owned C-contiguous ``(k, N)`` block of the
        basis's dtype, which may be ``block`` itself (in place, no
        allocation); anything else raises ``ValueError``."""
        return self._transform(block, out, inverse=False)

    def inverse(self, block, out=None) -> np.ndarray:
        """Batched inverse NTT; ``out`` as for :meth:`forward`."""
        return self._transform(block, out, inverse=True)


@lru_cache(maxsize=BATCH_PLAN_CACHE_MAXSIZE)
def _build_batch_plan(ring_degree: int,
                      moduli: tuple[int, ...]) -> BatchNttPlan:
    return BatchNttPlan(ring_degree, moduli)


def get_batch_plan(ring_degree: int,
                   moduli: tuple[int, ...]) -> BatchNttPlan:
    """Shared batch plan for one (N, basis) pair (bounded LRU)."""
    return _build_batch_plan(int(ring_degree),
                             tuple(int(q) for q in moduli))


def batch_plan_cache_info():
    return _build_batch_plan.cache_info()


def clear_batch_plan_cache() -> None:
    _build_batch_plan.cache_clear()


def transform_limbs(block, moduli, ring_degree: int,
                    inverse: bool = False, out=None) -> np.ndarray:
    """Run every row of a ``(k, N)`` block, row ``i`` modulo
    ``moduli[i]``, through one batched NTT call (the cached
    :class:`BatchNttPlan`); ``out`` as for :meth:`BatchNttPlan.forward`.
    Bit-identical to looping :meth:`NttPlan.forward` /
    :meth:`NttPlan.inverse` per row.
    """
    plan = get_batch_plan(int(ring_degree), tuple(int(q) for q in moduli))
    return plan.inverse(block, out) if inverse else plan.forward(block, out)


def negacyclic_convolution_reference(a, b, modulus: int) -> np.ndarray:
    """O(N^2) schoolbook multiply in Z_q[X]/(X^N+1), for testing."""
    n = len(a)
    out = [0] * n
    for i in range(n):
        ai = int(a[i]) % modulus
        if ai == 0:
            continue
        for j in range(n):
            k = i + j
            term = ai * (int(b[j]) % modulus)
            if k < n:
                out[k] = (out[k] + term) % modulus
            else:
                out[k - n] = (out[k - n] - term) % modulus
    return modmath.as_block(out, (modulus,))[0]
