"""Canonical-embedding encoder: round trips, slots, Galois action, and
the FFT path against the dense reference matrix."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ckks import CkksContext, encoding, toy_params

N = 32
SLOTS = N // 2
SCALE = float(2 ** 28)


class TestRoundTrip:
    def test_real_vector(self, rng):
        msg = rng.uniform(-3, 3, SLOTS)
        coeffs = encoding.encode_to_coeffs(msg, N, SCALE)
        back = encoding.decode_from_coeffs(coeffs, N, SCALE)
        assert np.max(np.abs(back - msg)) < 1e-6

    def test_complex_vector(self, rng):
        msg = rng.uniform(-1, 1, SLOTS) + 1j * rng.uniform(-1, 1, SLOTS)
        coeffs = encoding.encode_to_coeffs(msg, N, SCALE)
        back = encoding.decode_from_coeffs(coeffs, N, SCALE)
        assert np.max(np.abs(back - msg)) < 1e-6

    def test_short_vector_tiles(self, rng):
        msg = np.array([1.0, -2.0, 0.5, 4.0])
        coeffs = encoding.encode_to_coeffs(msg, N, SCALE)
        back = encoding.decode_from_coeffs(coeffs, N, SCALE)
        assert np.max(np.abs(back - np.tile(msg, SLOTS // 4))) < 1e-6

    def test_coefficients_are_python_ints(self):
        coeffs = encoding.encode_to_coeffs([1.0], N, SCALE)
        assert coeffs.dtype == object
        assert all(isinstance(int(c), int) for c in coeffs)

    def test_scaling_factor_applied(self):
        coeffs = encoding.encode_to_coeffs([1.0], N, SCALE)
        # constant vector 1.0 encodes to constant polynomial Delta
        assert abs(int(coeffs[0]) - SCALE) <= 1
        assert all(abs(int(c)) <= 1 for c in coeffs[1:])

    def test_precision_improves_with_scale(self, rng):
        msg = rng.uniform(-1, 1, SLOTS)
        errs = []
        for bits in (12, 20, 28):
            scale = float(2 ** bits)
            coeffs = encoding.encode_to_coeffs(msg, N, scale)
            back = encoding.decode_from_coeffs(coeffs, N, scale)
            errs.append(np.max(np.abs(back - msg)))
        assert errs[0] > errs[1] > errs[2]


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            encoding.encode_to_coeffs([], N, SCALE)

    def test_oversized_rejected(self):
        with pytest.raises(ValueError):
            encoding.encode_to_coeffs(np.ones(SLOTS + 1), N, SCALE)

    def test_non_divisor_length_rejected(self):
        with pytest.raises(ValueError):
            encoding.encode_to_coeffs(np.ones(3), N, SCALE)


class TestNonFiniteInput:
    """NaN/inf slots raise a named error, at every public door."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     complex(0.0, np.nan)])
    def test_encode_to_coeffs(self, bad):
        msg = np.ones(SLOTS, dtype=np.complex128)
        msg[3] = bad
        with pytest.raises(encoding.EncodingError, match="finite") as info:
            encoding.encode_to_coeffs(msg, N, SCALE)
        assert isinstance(info.value, ValueError)

    def test_non_finite_scale(self):
        with pytest.raises(encoding.EncodingError, match="finite"):
            encoding.encode_to_coeffs(np.ones(SLOTS), N, float("nan"))

    def test_length_errors_keep_their_messages(self):
        with pytest.raises(ValueError, match="message length must be in"):
            encoding.encode_to_coeffs([np.nan] * (SLOTS + 1), N, SCALE)
        with pytest.raises(ValueError, match="must divide the slot count"):
            encoding.encode_to_coeffs([np.nan] * 3, N, SCALE)

    @pytest.mark.parametrize("door", ["encode", "encrypt", "plain_for"])
    def test_through_context(self, ctx32, door):
        msg = np.tile([1.0, np.nan, 0.5, 2.0], 4)
        ct = ctx32.encrypt(np.ones(16))
        call = {"encode": lambda: ctx32.encode(msg),
                "encrypt": lambda: ctx32.encrypt(msg),
                "plain_for": lambda: ctx32.plain_for(ct, msg)}[door]
        with pytest.raises(encoding.EncodingError):
            call()


class TestGaloisElements:
    def test_rotation_element_is_power_of_5(self):
        assert encoding.rotation_galois_element(N, 1) == 5
        assert encoding.rotation_galois_element(N, 2) == 25 % (2 * N)

    def test_rotation_element_wraps_at_slot_count(self):
        assert encoding.rotation_galois_element(N, SLOTS) == \
            encoding.rotation_galois_element(N, 0)

    def test_conjugation_element(self):
        assert encoding.conjugation_galois_element(N) == 2 * N - 1

    def test_rotation_moves_slots_left(self, rng):
        """Slot semantics via raw coefficients: encode, apply the
        Galois map to the coefficients, decode, compare to roll."""
        from repro.ckks import rns, primes
        msg = rng.uniform(-1, 1, SLOTS)
        coeffs = encoding.encode_to_coeffs(msg, N, SCALE)
        moduli = primes.ntt_primes(2, 28, N)
        poly = rns.from_big_ints(list(coeffs), moduli, N)
        g = encoding.rotation_galois_element(N, 3)
        rotated = rns.compose_crt(poly.automorphism(g))
        back = encoding.decode_from_coeffs(rotated, N, SCALE)
        assert np.max(np.abs(back - np.roll(msg, -3))) < 1e-5

    def test_conjugation_conjugates_slots(self, rng):
        from repro.ckks import rns, primes
        msg = rng.uniform(-1, 1, SLOTS) + 1j * rng.uniform(-1, 1, SLOTS)
        coeffs = encoding.encode_to_coeffs(msg, N, SCALE)
        moduli = primes.ntt_primes(2, 28, N)
        poly = rns.from_big_ints(list(coeffs), moduli, N)
        g = encoding.conjugation_galois_element(N)
        conj = rns.compose_crt(poly.automorphism(g))
        back = encoding.decode_from_coeffs(conj, N, SCALE)
        assert np.max(np.abs(back - np.conj(msg))) < 1e-5


class TestHomomorphicStructure:
    def test_encoding_is_additive(self, rng):
        a = rng.uniform(-1, 1, SLOTS)
        b = rng.uniform(-1, 1, SLOTS)
        ca = encoding.encode_to_coeffs(a, N, SCALE)
        cb = encoding.encode_to_coeffs(b, N, SCALE)
        summed = np.array([int(x) + int(y) for x, y in zip(ca, cb)],
                          dtype=object)
        back = encoding.decode_from_coeffs(summed, N, SCALE)
        assert np.max(np.abs(back - (a + b))) < 1e-5

    def test_negacyclic_product_multiplies_slots(self, rng):
        a = rng.uniform(-1, 1, SLOTS)
        b = rng.uniform(-1, 1, SLOTS)
        ca = encoding.encode_to_coeffs(a, N, SCALE)
        cb = encoding.encode_to_coeffs(b, N, SCALE)
        prod = [0] * N
        for i in range(N):
            for j in range(N):
                k, sgn = (i + j, 1) if i + j < N else (i + j - N, -1)
                prod[k] += sgn * int(ca[i]) * int(cb[j])
        back = encoding.decode_from_coeffs(
            np.array(prod, dtype=object), N, SCALE * SCALE)
        assert np.max(np.abs(back - a * b)) < 1e-4


# -- the FFT path against the dense definition ----------------------------

def _message(rng, n, length):
    return rng.uniform(-2, 2, length) + 1j * rng.uniform(-2, 2, length)


@given(st.integers(0, 2**32 - 1), st.sampled_from([8, 16, 64, 256, 1024]),
       st.integers(0, 3), st.integers(20, 50))
@settings(max_examples=60, deadline=None)
def test_property_fft_path_matches_dense_reference(seed, n, sparsity,
                                                   scale_bits):
    """Full and sparse (tiled) messages, scales 2^20..2^50."""
    rng = np.random.default_rng(seed)
    slots = n // 2
    length = max(1, slots >> (2 * sparsity))
    msg = _message(rng, n, length)
    full = np.tile(msg, slots // length)
    scale = float(2 ** scale_bits)
    coeffs = encoding.encode_to_coeffs(msg, n, scale)
    emb = encoding.reference_embedding_matrix(n)
    # c_k = (2 Delta / N) Re(sum_j z_j conj(E_jk)), rounded
    want = np.rint((2.0 * scale / n) * np.real(full @ np.conj(emb)))
    # One unit of rounding, plus what the float64 reference itself
    # loses summing N/2 terms of size ~Delta|z| (a random walk of
    # eps-sized errors; nil below 2^45, a few units at 2^50).
    tol = 1 + np.sqrt(n) * np.finfo(np.float64).eps * scale \
        * np.max(np.abs(msg))
    worst = max(abs(int(c) - int(w)) for c, w in zip(coeffs, want))
    assert worst <= tol, (worst, tol)
    dense = emb @ np.array([float(c) for c in coeffs]) / scale
    got = encoding.decode_from_coeffs(coeffs, n, scale)
    assert np.max(np.abs(got - dense)) <= 1e-9 * np.max(np.abs(dense))
    # N roundings of 1/2 a unit each, and float64 on slots of size ~3
    assert np.max(np.abs(got - full)) <= n / scale + 1e-12


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="needs a long double wider than float64")
@pytest.mark.parametrize("n", [64, 1024])
def test_within_one_unit_of_extended_precision_at_2_50(n):
    """At Delta = 2^50 the float64 dense sum is off by several units;
    against an 80-bit sum the FFT path stays within one."""
    rng = np.random.default_rng(n)
    msg = _message(rng, n, n // 2)
    scale = float(2 ** 50)
    powers = (np.outer(encoding._slot_exponents(n), np.arange(n))
              % (2 * n)).astype(np.longdouble)
    angles = np.longdouble("3.14159265358979323846264338327950288") \
        * powers / n
    exact = (np.cos(angles).T * msg.real.astype(np.longdouble)
             + np.sin(angles).T * msg.imag.astype(np.longdouble)).sum(axis=1)
    want = np.rint(exact * np.longdouble(2.0 * scale / n))
    coeffs = encoding.encode_to_coeffs(msg, n, scale)
    assert max(abs(int(c) - int(w)) for c, w in zip(coeffs, want)) <= 1


def test_decode_honours_num_slots():
    msg = np.arange(1.0, 5.0)
    coeffs = encoding.encode_to_coeffs(msg, N, SCALE)
    back = encoding.decode_from_coeffs(coeffs, N, SCALE, num_slots=4)
    assert back.shape == (4,)
    assert np.max(np.abs(back - msg)) < 1e-6


def test_coefficients_beyond_64_bits_round_trip():
    msg = np.array([1.5, -0.25, 3.0, 0.125])
    scale = float(2 ** 90)
    coeffs = encoding.encode_to_coeffs(msg, N, scale)
    assert max(abs(int(c)) for c in coeffs) > 2 ** 64
    back = encoding.decode_from_coeffs(coeffs, N, scale, num_slots=4)
    assert np.max(np.abs(back - msg)) < 1e-12


def test_encode_decode_hold_no_quadratic_array():
    """Encode + decode at N=4096 peak under 2 MiB of traced memory (the
    dense path held a 134 MB matrix and copied it on every encode), and
    the per-degree tables are the only thing left cached."""
    n = 4096
    rng = np.random.default_rng(7)
    msg = _message(rng, n, n // 2)
    scale = float(2 ** 36)
    encoding._fft_tables.cache_clear()
    tracemalloc.start()
    try:
        coeffs = encoding.encode_to_coeffs(msg, n, scale)
        back = encoding.decode_from_coeffs(coeffs, n, scale)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak
    assert np.max(np.abs(back - msg)) < 1e-6
    assert sum(t.nbytes for t in encoding._fft_tables(n)) <= 32 * n
    assert encoding._fft_tables.cache_info().maxsize is not None


def test_context_encode_cannot_reach_dense_matrix(monkeypatch):
    def boom(ring_degree):
        raise AssertionError("dense matrix built on the encode path")
    monkeypatch.setattr(encoding, "reference_embedding_matrix", boom)
    ctx = CkksContext(toy_params(), seed=3)
    msg = np.linspace(-1, 1, ctx.params.num_slots)
    assert np.max(np.abs(ctx.decrypt(ctx.encrypt(msg)) - msg)) < 1e-3


@given(st.integers(0, 2**32 - 1), st.sampled_from([8, 32, 128]))
@settings(max_examples=40, deadline=None)
def test_property_roundtrip_any_ring(seed, n):
    rng = np.random.default_rng(seed)
    msg = rng.uniform(-2, 2, n // 2)
    coeffs = encoding.encode_to_coeffs(msg, n, SCALE)
    back = encoding.decode_from_coeffs(coeffs, n, SCALE)
    assert np.max(np.abs(back - msg)) < 1e-5
