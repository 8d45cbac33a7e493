"""Canonical-embedding encoding between complex vectors and plaintexts.

CKKS packs a vector of ``n <= N/2`` complex numbers into one plaintext
polynomial by inverting the canonical embedding: slot ``j`` is the
polynomial's value at ``zeta^{5^j}`` where ``zeta = exp(i*pi/N)`` is a
primitive 2N-th root of unity.  The ``5^j`` ordering makes the Galois
automorphism ``X -> X^5`` act as a cyclic rotation of the slots, which
is what gives **HRot** its meaning.

Both directions run on one length-N complex FFT.  Every odd exponent is
``2m + 1`` for one ``m`` in ``[0, N)``, and

    p(zeta^(2m+1)) = sum_k (c_k zeta^k) w^(mk),      w = exp(2*pi*i/N),

so the values of ``p`` at *all* N odd powers of ``zeta`` are the inverse
DFT of the twisted coefficients ``c_k zeta^k``:

* **decode**: twist by ``zeta^k`` -> ``N * ifft`` -> gather the slots at
  ``m_j = (5^j mod 2N - 1) / 2``;
* **encode**: scatter ``z_j`` to ``m_j`` and ``conj(z_j)`` to the
  mirrored index ``N - 1 - m_j`` (the root ``zeta^(-5^j)``, which makes
  the coefficients real) -> ``fft / N`` -> untwist by ``zeta^-k`` ->
  real part -> scale -> ``rint``.

That is O(N log N) time and O(N) memory; the only precomputation is the
two index arrays and the twist vector of :func:`_fft_tables`.  The dense
``N/2 x N`` Vandermonde survives only as
:func:`reference_embedding_matrix`, the slow and obviously-right oracle
the tests diff against and the toy-size bootstrap builds its
CoeffToSlot matrices from; nothing on the encode/decode path reaches it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class EncodingError(ValueError):
    """A message (or scale) the canonical embedding cannot encode."""


def _slot_exponents(ring_degree: int) -> np.ndarray:
    """Exponents ``5^j mod 2N`` addressing each of the N/2 slots' roots."""
    two_n = 2 * ring_degree
    exps = np.empty(ring_degree // 2, dtype=np.int64)
    e = 1
    for j in range(len(exps)):
        exps[j] = e
        e = (e * 5) % two_n
    return exps


@lru_cache(maxsize=8)
def _fft_tables(ring_degree: int):
    """``(slot_index, mirror_index, twist)`` for one ring degree.

    ``slot_index[j] = m_j`` with ``5^j = 2 m_j + 1 (mod 2N)``,
    ``mirror_index[j] = N - 1 - m_j`` addresses the conjugate root and
    ``twist[k] = zeta^k``.  O(N) memory, shared read-only.
    """
    slot_index = (_slot_exponents(ring_degree) - 1) // 2
    mirror_index = ring_degree - 1 - slot_index
    twist = np.exp(1j * np.pi * np.arange(ring_degree) / ring_degree)
    for table in (slot_index, mirror_index, twist):
        table.setflags(write=False)
    return slot_index, mirror_index, twist


def reference_embedding_matrix(ring_degree: int) -> np.ndarray:
    """Dense ``E[j, k] = zeta^{5^j k}`` (slot j, coefficient k), N/2 x N.

    The O(N^2) definition of the embedding: ``slots = E c / scale``.
    Uncached and quadratic in memory, so toy ring degrees only.
    """
    two_n = 2 * ring_degree
    exps = _slot_exponents(ring_degree)
    # Reduce the exponent products mod 2N in exact integers first, so
    # every entry is within an ulp whatever the ring degree.
    powers = np.outer(exps, np.arange(ring_degree)) % two_n
    return np.exp(2j * np.pi * powers / two_n)


def encode_to_coeffs(message, ring_degree: int, scale: float) -> np.ndarray:
    """Encode complex slots into integer polynomial coefficients.

    ``message`` may have any length up to ``N/2``; shorter vectors are
    *repeated* to fill all slots (matching the usual sparse-packing
    convention, and keeping rotations meaningful).  Returns an object
    array of Python ints (coefficients may exceed 64 bits for large
    scales).  Raises :class:`EncodingError` for NaN/inf input.
    """
    n_slots = ring_degree // 2
    msg = np.asarray(message, dtype=np.complex128).ravel()
    if len(msg) == 0 or len(msg) > n_slots:
        raise ValueError(f"message length must be in [1, {n_slots}]")
    if n_slots % len(msg) != 0:
        raise ValueError("message length must divide the slot count")
    if not (np.isfinite(msg).all() and np.isfinite(scale)):
        raise EncodingError("message slots and scale must be finite "
                            "(got NaN or inf)")
    slot_index, mirror_index, twist = _fft_tables(ring_degree)
    full = np.tile(msg, n_slots // len(msg))
    values = np.empty(ring_degree, dtype=np.complex128)
    values[slot_index] = full
    values[mirror_index] = np.conj(full)
    # c_k = (Delta/N) * Re( zeta^-k * sum_m V_m w^(-mk) )
    spectrum = np.fft.fft(values)
    spectrum *= np.conj(twist)
    rounded = np.rint(spectrum.real * (scale / ring_degree))
    return np.array([int(v) for v in rounded.tolist()], dtype=object)


def decode_from_coeffs(coeffs, ring_degree: int, scale: float,
                       num_slots: int | None = None) -> np.ndarray:
    """Evaluate integer coefficients at the slot roots and unscale."""
    if num_slots is None:
        num_slots = ring_degree // 2
    slot_index, _, twist = _fft_tables(ring_degree)
    twisted = np.array(coeffs, dtype=np.float64) * twist
    values = np.fft.ifft(twisted)[slot_index[:num_slots]]
    return values * (ring_degree / scale)


def rotation_galois_element(ring_degree: int, steps: int) -> int:
    """Galois element ``5^steps mod 2N`` rotating slots left by ``steps``."""
    two_n = 2 * ring_degree
    return pow(5, steps % (ring_degree // 2), two_n)


def conjugation_galois_element(ring_degree: int) -> int:
    """Galois element ``-1 mod 2N`` conjugating every slot."""
    return 2 * ring_degree - 1
