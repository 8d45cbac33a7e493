"""Functional CKKS bootstrapping at toy scale (Sec. 6.2's pipeline).

The four stages the paper's benchmark executes — **ModRaise**,
**CoeffToSlot**, **EvalMod**, **SlotToCoeff** — implemented on the
functional scheme so a level-exhausted ciphertext really is refreshed
and keeps decrypting correctly:

* **ModRaise** re-reads the level-0 limb in the full prime chain,
  turning the plaintext into ``Delta*m + q0*I(X)`` for a small
  integer polynomial ``I`` (bounded by the sparse secret's weight);
* **CoeffToSlot** moves coefficients into slots with one pass of two
  homomorphic matrix products (``w = A z + B conj(z)``), the matrices
  solved numerically from the canonical embedding;
* **EvalMod** removes ``q0*I`` by evaluating a polynomial fit of
  ``(q0 / 2 pi Delta) * sin(2 pi u)`` with Paterson-Stockmeyer
  (depth ~ 2 log2 sqrt(deg)); real and imaginary coefficient parts
  are extracted by conjugation and reduced separately;
* **SlotToCoeff** applies the inverse pair ``m = C w' + D conj(w')``.

Scaled-down regime: the ring is tiny (N = 32 by default) and the base
prime ``q0`` is ~2^38 against a 2^28 working scale, so the sine
argument ``Delta*m/q0`` stays ~2^-10 — exactly the headroom structure
the full-size parameters have, at laptop cost.  The paper's full-size
bootstrap is represented by the trace generator
(:mod:`repro.workloads.bootstrap`) that the simulator executes.
"""

from __future__ import annotations

import numpy as np

from repro.ckks import encoding, linalg
from repro.ckks.ciphertext import Ciphertext
from repro.ckks.context import CkksContext
from repro.ckks.params import CkksParams, toy_params
from repro.ckks.rns import RnsPoly, compose_crt, from_big_ints


def bootstrappable_toy_params(ring_degree: int = 32,
                              max_level: int = 15) -> CkksParams:
    """A toy set with the headroom bootstrapping needs.

    ``q0`` is larger than the working scale (the paper's full-size
    sets put 60 bits against a 36-bit scale; we put 34 against 28 —
    enough headroom that the sine argument ``Delta m / q0`` stays
    small, while keeping the sine amplitude ``q0 / 2 pi Delta`` low
    so it does not amplify evaluation noise), and the secret is very
    sparse so the ModRaise overflow polynomial ``I`` stays within the
    sine fit's range.
    """
    return toy_params(
        ring_degree=ring_degree, max_level=max_level, alpha=3,
        prime_bits=28, scale_bits=28, hamming_weight=2,
        boot_levels=max_level - 2,
        name="toy-bootstrappable").with_(first_prime_bits=34)


class Bootstrapper:
    """Precomputes the linear transforms and the sine polynomial."""

    def __init__(self, ctx: CkksContext, sine_degree: int = 30,
                 i_bound: float = 1.5, method: str | None = None):
        self.ctx = ctx
        self.method = method
        self.n_slots = ctx.params.num_slots
        self.q0 = ctx.q_chain[0]
        self.delta = float(2 ** ctx.params.scale_bits)
        self.i_bound = i_bound
        self._build_linear_transforms()
        self._fit_sine(sine_degree)

    # -- precomputation ----------------------------------------------------
    def _build_linear_transforms(self) -> None:
        """Solve the CoeffToSlot / SlotToCoeff matrix pairs.

        With ``E`` the n x N embedding (slots = E c / scale for real
        coefficient vectors c), CoeffToSlot needs ``[A|B]`` such that
        ``A E + B conj(E) = [I | iI]`` and SlotToCoeff is the explicit
        inverse ``m = C w + D conj(w)`` with ``C = (E_lo - i E_hi)/2``
        and ``D = (E_lo + i E_hi)/2``.
        """
        n = self.ctx.params.ring_degree
        slots = self.n_slots
        emb = encoding.reference_embedding_matrix(n)       # n_slots x N
        stacked = np.vstack([emb, np.conj(emb)])           # N x N
        selector = np.hstack([np.eye(slots),
                              1j * np.eye(slots)])         # n x N
        solution = selector @ np.linalg.inv(stacked)
        self.cts_a = solution[:, :slots]
        self.cts_b = solution[:, slots:]
        e_lo = emb[:, :slots]
        e_hi = emb[:, slots:]
        self.stc_c = (e_lo - 1j * e_hi) / 2
        self.stc_d = (e_lo + 1j * e_hi) / 2

    def _fit_sine(self, degree: int) -> None:
        """Chebyshev fit of the scaled sine in a normalised variable.

        ``g(u) = (q0 / (2 pi Delta)) sin(2 pi u)`` over ``|u| <=
        i_bound + 0.5``; near integers ``g(I + d) ~ q0 d / Delta``,
        exactly the coefficient EvalMod must keep.  Fitting in
        ``v = u / bound`` on [-1, 1] keeps the power-basis
        coefficients conditioned (max error ~1e-7 at degree 30).
        """
        bound = self.i_bound + 0.5
        self.sine_domain = bound
        grid = np.cos(np.linspace(0, np.pi, 12 * degree))
        target = (self.q0 / (2 * np.pi * self.delta)) * \
            np.sin(2 * np.pi * grid * bound)
        self.sine_cheb = np.polynomial.chebyshev.chebfit(grid, target,
                                                         degree)
        fit = np.polynomial.chebyshev.chebval(grid, self.sine_cheb)
        self.sine_fit_error = float(np.max(np.abs(fit - target)))

    # -- stages ---------------------------------------------------------------
    def mod_raise(self, ct: Ciphertext) -> Ciphertext:
        """Reinterpret a level-0 ciphertext in the full prime chain."""
        if ct.level != 0:
            raise ValueError("mod_raise expects a level-0 ciphertext")
        full = self.ctx.q_chain
        n = self.ctx.params.ring_degree

        def raise_poly(poly: RnsPoly) -> RnsPoly:
            centred = compose_crt(poly.to_coeff())
            return from_big_ints(centred, full, n).to_eval()

        return Ciphertext(raise_poly(ct.c0), raise_poly(ct.c1),
                          ct.scale, self.ctx.params.max_level)

    def _matvec_pair(self, ct: Ciphertext, mat_direct: np.ndarray,
                     mat_conj: np.ndarray) -> Ciphertext:
        """``mat_direct @ slots + mat_conj @ conj(slots)`` (1 level)."""
        ctx = self.ctx
        conj = ctx.conjugate(ct, method=self.method)
        left = linalg.matvec_bsgs(ctx, mat_direct, ct,
                                  method=self.method)
        right = linalg.matvec_bsgs(ctx, mat_conj, conj,
                                   method=self.method)
        return ctx.add(*ctx.align_for_add(left, right))

    def coeff_to_slot(self, ct: Ciphertext) -> Ciphertext:
        return self._matvec_pair(ct, self.cts_a, self.cts_b)

    def slot_to_coeff(self, ct: Ciphertext) -> Ciphertext:
        return self._matvec_pair(ct, self.stc_c, self.stc_d)

    def _cmult_complex(self, ct: Ciphertext, value: complex) -> Ciphertext:
        """Multiply every slot by one complex constant (1 level)."""
        ctx = self.ctx
        pt = ctx.plain_for(ct, np.full(self.n_slots, value))
        return ctx.rescale(ctx.multiply_plain(ct, pt))

    def eval_mod(self, ct: Ciphertext) -> Ciphertext:
        """Approximate ``w -> (Delta w) mod q0 / Delta`` per slot."""
        ctx = self.ctx
        # v = w * Delta / (q0 * bound): the sine fit's normalised
        # variable (integer part of u = v*bound is I).
        u = ctx.rescale(ctx.multiply_scalar(
            ct, self.delta / (self.q0 * self.sine_domain)))
        u_conj = ctx.conjugate(u, method=self.method)
        u_sum = ctx.add(*ctx.align_for_add(u, u_conj))       # 2 Re(u)
        u_diff = ctx.sub(*ctx.align_for_add(u, u_conj))      # 2i Im(u)
        u_re = self._cmult_complex(u_sum, 0.5)
        u_im = self._cmult_complex(u_diff, -0.5j)
        reduced_re = linalg.evaluate_chebyshev(
            ctx, u_re, self.sine_cheb, method=self.method)
        reduced_im = linalg.evaluate_chebyshev(
            ctx, u_im, self.sine_cheb, method=self.method)
        reduced_im_i = self._cmult_complex(reduced_im, 1j)
        return ctx.add(*ctx.align_for_add(reduced_re, reduced_im_i))

    def bootstrap(self, ct: Ciphertext) -> Ciphertext:
        """Full refresh: level-0 input -> usable-level output."""
        raised = self.mod_raise(ct)
        slots = self.coeff_to_slot(raised)
        reduced = self.eval_mod(slots)
        return self.slot_to_coeff(reduced)
