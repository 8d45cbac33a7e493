"""Key material: secret/public keys and key-switching (evaluation) keys.

Both key-switching families in the paper are generated here:

* **hybrid** keys: per digit ``j`` (a group of ``alpha`` primes with
  product ``D_j``), a ring-LWE pair over ``Q_l * P`` encrypting
  ``P * q~_j * s_from`` where ``q~_j = (Q_l/D_j) * ((Q_l/D_j)^{-1}
  mod D_j)`` is the CRT interpolation factor;
* **KLSS** gadget keys: per digit ``j`` of a balanced base-``2^v``
  decomposition, a pair over ``Q_l * T`` encrypting
  ``T * 2^{v j} * s_from``, where ``T`` is the wide (60-bit-class)
  auxiliary basis.

Keys are generated *per level* and cached in :class:`EvkStore`; this
mirrors the paper's Hemera evk pool, which is likewise indexed by the
ciphertext level and holds one rotation-key and one multiply-key group
per level (Sec. 4.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ckks import modmath, rns
from repro.ckks.params import CkksParams
from repro.ckks.rns import RnsPoly

HYBRID = "hybrid"
KLSS = "klss"
METHODS = (HYBRID, KLSS)


@dataclass(frozen=True)
class SecretKey:
    """Sparse ternary secret ``s`` stored as small integer coefficients."""

    coeffs: np.ndarray  # int64, entries in {-1, 0, 1}

    def as_rns(self, moduli) -> RnsPoly:
        """The secret reduced onto a basis, in evaluation form."""
        return RnsPoly.from_int_coeffs(self.coeffs, moduli).to_eval()

    def squared_coeffs(self) -> np.ndarray:
        """Integer coefficients of ``s^2`` in ``Z[X]/(X^N+1)``."""
        n = len(self.coeffs)
        full = np.convolve(self.coeffs, self.coeffs)
        folded = full[:n].copy()
        folded[: n - 1] -= full[n:]
        return folded

    def automorphism_coeffs(self, galois_power: int) -> np.ndarray:
        """Integer coefficients of ``s(X^g)`` in ``Z[X]/(X^N+1)``."""
        n = len(self.coeffs)
        two_n = 2 * n
        out = np.zeros(n, dtype=np.int64)
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            k = (i * galois_power) % two_n
            if k < n:
                out[k] += c
            else:
                out[k - n] -= c
        return out


@dataclass(frozen=True)
class PublicKey:
    """RLWE encryption key ``(b, a)`` with ``b = -a s + e`` (eval form)."""

    b: RnsPoly
    a: RnsPoly


@dataclass(frozen=True)
class KeySwitchKey:
    """A gadget key: one RLWE pair per decomposition digit.

    ``parts[j] = (b_j, a_j)`` over ``moduli`` in evaluation form with
    ``b_j = -a_j s + e_j + factor_j * s_from``.  ``aux_count`` is the
    number of trailing auxiliary limbs (P or T) removed by ModDown.
    For KLSS keys, ``digit_bits`` records the gadget width ``v``.

    The key lives in one ``(2, d, k, N)`` block, :attr:`weights`
    (``weights[0, j]`` is ``b_j``, ``weights[1, j]`` is ``a_j``); the
    parts are views of it, so the fused KeyMult reads the key where it
    is stored instead of keeping a second copy.
    """

    method: str
    parts: tuple
    moduli: tuple
    aux_count: int
    digit_bits: int = 0
    digit_indices: tuple = ()

    def __post_init__(self):
        if not self.parts:
            object.__setattr__(self, "weights", None)
            return
        weights = np.stack([np.stack([pair[h].data for pair in self.parts])
                            for h in range(2)])
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "parts", tuple(
            tuple(RnsPoly._of(weights[h, j], part.moduli, part.form)
                  for h, part in enumerate(pair))
            for j, pair in enumerate(self.parts)))

    @property
    def num_digits(self) -> int:
        return len(self.parts)

    def hoisting_profile(self) -> dict:
        """The decomposition geometry hoisted rotations must agree on.

        A shared decomposition of ``c1`` can only feed keys whose
        method, basis and digit layout all match; anything else would
        silently pair digits with the wrong key parts.  Field name ->
        value, so a validator can report exactly what diverged.
        """
        return {"method": self.method, "moduli": self.moduli,
                "aux_count": self.aux_count, "num_digits": self.num_digits,
                "digit_bits": self.digit_bits}

    def size_bytes(self) -> int:
        """Storage footprint (two polys per digit, ceil(bits/8) per word)."""
        total = 0
        for _ in self.parts:
            for q in self.moduli:
                word_bytes = (int(q).bit_length() + 7) // 8
                total += 2 * word_bytes * self.parts[0][0].n
        return total


def generate_secret_key(params: CkksParams,
                        rng: np.random.Generator) -> SecretKey:
    """Sparse ternary secret of the configured Hamming weight."""
    coeffs = modmath.random_ternary(params.ring_degree, rng,
                                    params.hamming_weight)
    return SecretKey(coeffs)


def _rlwe_pair(secret_eval: RnsPoly, payload_eval: RnsPoly | None,
               moduli, params: CkksParams,
               rng: np.random.Generator) -> tuple[RnsPoly, RnsPoly]:
    """Sample ``(b, a)`` with ``b = -a s + e (+ payload)`` in eval form."""
    n = params.ring_degree
    # uniform_block draws straight into the uint64 block, so evk
    # generation at 36/60-bit primes never touches Python ints.
    a = RnsPoly(modmath.uniform_block(n, moduli, rng), moduli, rns.EVAL)
    e = RnsPoly.from_int_coeffs(
        modmath.random_discrete_gaussian(n, rng, params.sigma),
        moduli).to_eval()
    b = -(a * secret_eval) + e
    if payload_eval is not None:
        b = b + payload_eval
    return b, a


def generate_public_key(params: CkksParams, secret: SecretKey,
                        moduli, rng: np.random.Generator) -> PublicKey:
    b, a = _rlwe_pair(secret.as_rns(moduli), None, moduli, params, rng)
    return PublicKey(b, a)


def hybrid_digit_indices(num_limbs: int, alpha: int) -> list[list[int]]:
    """Chunk limb positions ``0..num_limbs-1`` into digits of ``alpha``."""
    return [list(range(lo, min(lo + alpha, num_limbs)))
            for lo in range(0, num_limbs, alpha)]


def generate_hybrid_key(params: CkksParams, secret: SecretKey,
                        source_coeffs: np.ndarray, q_moduli, p_moduli,
                        rng: np.random.Generator) -> KeySwitchKey:
    """Hybrid key switching ``s_from -> s`` at the level of ``q_moduli``.

    ``source_coeffs`` are the integer coefficients of ``s_from`` (e.g.
    ``s^2`` for relinearisation, ``s(X^g)`` for a rotation key).
    """
    q_moduli = tuple(int(q) for q in q_moduli)
    p_moduli = tuple(int(p) for p in p_moduli)
    full = q_moduli + p_moduli
    digits = hybrid_digit_indices(len(q_moduli), params.alpha)
    big_q = rns.product(q_moduli)
    big_p = rns.product(p_moduli)
    secret_eval = secret.as_rns(full)
    source = RnsPoly.from_int_coeffs(source_coeffs, full).to_eval()
    parts = []
    for indices in digits:
        d_j = rns.product(q_moduli[i] for i in indices)
        q_over_d = big_q // d_j
        tilde = q_over_d * modmath.inv_mod(q_over_d % d_j, d_j)
        factor = big_p * tilde
        payload = source.mul_scalar_per_limb([factor % q for q in full])
        parts.append(_rlwe_pair(secret_eval, payload, full, params, rng))
    return KeySwitchKey(method=HYBRID, parts=tuple(parts), moduli=full,
                        aux_count=len(p_moduli),
                        digit_indices=tuple(tuple(d) for d in digits))


def klss_digit_count(q_moduli, digit_bits: int) -> int:
    """Digits needed for a balanced base-``2^v`` split of ``Q_l``."""
    big_q = rns.product(q_moduli)
    return -(-(big_q.bit_length() + 1) // digit_bits)


def generate_klss_key(params: CkksParams, secret: SecretKey,
                      source_coeffs: np.ndarray, q_moduli, t_moduli,
                      rng: np.random.Generator) -> KeySwitchKey:
    """KLSS gadget key ``s_from -> s`` over ``Q_l * T``.

    Digit ``j`` of the key encrypts ``T * 2^{v j} * s_from``; the
    switching procedure decomposes the input into balanced base-``2^v``
    digits (the paper's double decomposition into wide ``R_T`` limbs)
    so that ``sum_j d_j 2^{v j} = x`` exactly over the integers.
    """
    q_moduli = tuple(int(q) for q in q_moduli)
    t_moduli = tuple(int(t) for t in t_moduli)
    full = q_moduli + t_moduli
    v = params.klss_digit_bits
    num_digits = klss_digit_count(q_moduli, v)
    big_t = rns.product(t_moduli)
    secret_eval = secret.as_rns(full)
    source = RnsPoly.from_int_coeffs(source_coeffs, full).to_eval()
    parts = []
    for j in range(num_digits):
        factor = big_t * (1 << (v * j))
        payload = source.mul_scalar_per_limb([factor % q for q in full])
        parts.append(_rlwe_pair(secret_eval, payload, full, params, rng))
    return KeySwitchKey(method=KLSS, parts=tuple(parts), moduli=full,
                        aux_count=len(t_moduli), digit_bits=v)
