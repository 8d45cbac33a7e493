"""RNS machinery: CRT round trips, BConv error bounds, ModUp/ModDown."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ckks import primes, rns
from repro.ckks.rns import RnsPoly

N = 32
MODULI = tuple(primes.ntt_primes(4, 28, N))
AUX = tuple(primes.ntt_primes(2, 28, N, exclude=set(MODULI)))


def _big_randint(rng, bound: int) -> int:
    """Uniform-ish integer in [-bound, bound] of arbitrary width."""
    bits = bound.bit_length() + 8
    words = (bits + 62) // 63
    v = 0
    for _ in range(words):
        v = (v << 63) | int(rng.integers(0, 1 << 63, dtype=np.uint64))
    return v % (2 * bound + 1) - bound


def random_poly(rng, moduli=MODULI, bound=None):
    big_q = rns.product(moduli)
    bound = bound or big_q // 2 - 1
    coeffs = [_big_randint(rng, bound) for _ in range(N)]
    return rns.from_big_ints(coeffs, moduli, N), coeffs


class TestRnsPolyBasics:
    def test_zeros(self):
        p = RnsPoly.zeros(N, MODULI)
        assert p.n == N
        assert p.form == rns.COEFF
        assert all(int(v) == 0 for limb in p.limbs for v in limb)

    def test_limb_modulus_count_mismatch(self):
        with pytest.raises(ValueError):
            RnsPoly([np.zeros(N, np.uint64)], MODULI, rns.COEFF)

    def test_bad_form_rejected(self):
        with pytest.raises(ValueError):
            RnsPoly([], (), "weird")

    def test_add_requires_same_basis(self, rng):
        a, _ = random_poly(rng)
        b, _ = random_poly(rng, MODULI[:3])
        with pytest.raises(ValueError):
            _ = a + b

    def test_mul_requires_eval_form(self, rng):
        a, _ = random_poly(rng)
        with pytest.raises(ValueError):
            _ = a * a

    def test_drop_limbs(self, rng):
        a, _ = random_poly(rng)
        dropped = a.drop_limbs(2)
        assert dropped.moduli == MODULI[:2]

    def test_concat_disjoint(self, rng):
        a, _ = random_poly(rng, MODULI[:2])
        b, _ = random_poly(rng, MODULI[2:])
        c = a.concat(b)
        assert c.moduli == MODULI

    def test_concat_overlap_rejected(self, rng):
        a, _ = random_poly(rng)
        with pytest.raises(ValueError):
            a.concat(a)


class TestCrtRoundTrip:
    def test_compose_inverts_from_big_ints(self, rng):
        poly, coeffs = random_poly(rng)
        assert rns.compose_crt(poly) == coeffs

    def test_through_eval_form(self, rng):
        poly, coeffs = random_poly(rng)
        assert rns.compose_crt(poly.to_eval().to_coeff()) == coeffs

    def test_single_modulus(self, rng):
        poly, coeffs = random_poly(rng, MODULI[:1],
                                   bound=MODULI[0] // 2 - 1)
        assert rns.compose_crt(poly) == coeffs

    def test_centred_range(self, rng):
        poly, _ = random_poly(rng)
        big_q = rns.product(MODULI)
        for c in rns.compose_crt(poly):
            assert -big_q // 2 < c <= big_q // 2


class TestArithmeticHomomorphism:
    def test_addition_matches_bigint(self, rng):
        a, ca = random_poly(rng, bound=10**8)
        b, cb = random_poly(rng, bound=10**8)
        got = rns.compose_crt(a + b)
        assert got == [x + y for x, y in zip(ca, cb)]

    def test_eval_product_is_negacyclic(self, rng):
        a, ca = random_poly(rng, bound=1000)
        b, cb = random_poly(rng, bound=1000)
        prod = (a.to_eval() * b.to_eval()).to_coeff()
        got = rns.compose_crt(prod)
        # schoolbook negacyclic product over the integers
        ref = [0] * N
        for i in range(N):
            for j in range(N):
                k, sign = (i + j, 1) if i + j < N else (i + j - N, -1)
                ref[k] += sign * ca[i] * cb[j]
        assert got == ref


class TestAutomorphism:
    def test_identity(self, rng):
        a, ca = random_poly(rng)
        assert rns.compose_crt(a.automorphism(1)) == ca

    def test_x_to_x3_on_monomial(self):
        coeffs = [0] * N
        coeffs[1] = 1  # X
        a = rns.from_big_ints(coeffs, MODULI, N)
        out = rns.compose_crt(a.automorphism(3))
        expected = [0] * N
        expected[3] = 1  # X^3
        assert out == expected

    def test_sign_wraparound(self):
        # X^(N/2+1) under g=3 -> X^(3N/2+3) = X^N * X^(N/2+3)
        #                      = -X^(N/2+3).
        coeffs = [0] * N
        coeffs[N // 2 + 1] = 1
        a = rns.from_big_ints(coeffs, MODULI, N)
        out = rns.compose_crt(a.automorphism(3))
        expected = [0] * N
        expected[N // 2 + 3] = -1
        assert out == expected

    def test_composition(self, rng):
        a, _ = random_poly(rng)
        two_n = 2 * N
        g1, g2 = 5, 7
        combined = a.automorphism(g1).automorphism(g2)
        direct = a.automorphism(g1 * g2 % two_n)
        assert rns.compose_crt(combined) == rns.compose_crt(direct)

    def test_even_power_rejected(self, rng):
        a, _ = random_poly(rng)
        with pytest.raises(ValueError):
            a.automorphism(2)

    def test_eval_form_roundtrips(self, rng):
        a, _ = random_poly(rng)
        via_eval = a.to_eval().automorphism(5).to_coeff()
        direct = a.automorphism(5)
        assert rns.compose_crt(via_eval) == rns.compose_crt(direct)


class TestBaseConvert:
    def test_slack_bounded_by_limb_count(self, rng):
        # HPS fast conversion returns x + e*Q with 0 <= e < k,
        # independent of x's magnitude (the flooring slack comes from
        # the per-limb scaled residues, not from x).
        coeffs = [int(rng.integers(0, 10**9)) for _ in range(N)]
        poly = rns.from_big_ints(coeffs, MODULI, N)
        converted = rns.base_convert(poly, AUX)
        big_q = rns.product(MODULI)
        k = len(MODULI)
        for p, limb in zip(AUX, converted.limbs):
            for c, v in zip(coeffs, limb):
                assert (int(v) - c) % p in {(e * big_q) % p
                                            for e in range(k)}

    def test_error_is_multiple_of_source_modulus(self, rng):
        big_q = rns.product(MODULI)
        poly, coeffs = random_poly(rng)  # full range: error can appear
        converted = rns.base_convert(poly, AUX)
        for i in range(N):
            value = coeffs[i] % big_q  # the non-centred representative
            for p, limb in zip(AUX, converted.limbs):
                diff = (int(limb[i]) - value) % p
                # diff must be e*Q mod p with 0 <= e < k
                candidates = {(e * big_q) % p for e in range(len(MODULI) + 1)}
                assert diff in candidates

    def test_requires_coeff_form(self, rng):
        poly, _ = random_poly(rng)
        with pytest.raises(ValueError):
            rns.base_convert(poly.to_eval(), AUX)


class TestModUpModDown:
    def test_mod_down_inverts_scaling(self, rng):
        # Build P * x over Q x P, ModDown must return x (exactly for
        # small x since P*x mod each prime is known).
        x_coeffs = [int(rng.integers(-1000, 1000)) for _ in range(N)]
        big_p = rns.product(AUX)
        scaled = [c * big_p for c in x_coeffs]
        poly = rns.from_big_ints(scaled, MODULI + AUX, N)
        down = rns.mod_down(poly, len(MODULI))
        assert down.moduli == MODULI
        assert rns.compose_crt(down) == x_coeffs

    def test_mod_down_rounds_small_noise(self, rng):
        x_coeffs = [int(rng.integers(-1000, 1000)) for _ in range(N)]
        big_p = rns.product(AUX)
        noisy = [c * big_p + int(rng.integers(-50, 50))
                 for c in x_coeffs]
        poly = rns.from_big_ints(noisy, MODULI + AUX, N)
        down = rns.mod_down(poly, len(MODULI))
        got = rns.compose_crt(down)
        assert all(abs(g - c) <= len(AUX) + 1
                   for g, c in zip(got, x_coeffs))

    def test_mod_up_preserves_value_mod_digit(self, rng):
        poly, coeffs = random_poly(rng)
        digits = [[0, 1], [2, 3]]
        extended = rns.mod_up(poly, digits, MODULI, AUX)
        assert len(extended) == 2
        for digit_indices, ext in zip(digits, extended):
            d_mod = rns.product(MODULI[i] for i in digit_indices)
            assert ext.moduli == MODULI + AUX
            # value mod own digit primes is preserved exactly
            for i in digit_indices:
                q = MODULI[i]
                own = ext.limbs[list(MODULI + AUX).index(q)]
                orig = poly.limbs[i]
                assert all(int(a) == int(b) for a, b in zip(own, orig))

    def test_exact_rescale_divides(self, rng):
        last = MODULI[-1]
        x_coeffs = [int(rng.integers(-10**6, 10**6)) * last
                    for _ in range(N)]
        poly = rns.from_big_ints(x_coeffs, MODULI, N)
        rescaled = rns.exact_rescale(poly)
        assert rescaled.moduli == MODULI[:-1]
        assert rns.compose_crt(rescaled) == [c // last for c in x_coeffs]

    def test_rescale_single_limb_rejected(self, rng):
        poly, _ = random_poly(rng, MODULI[:1], bound=1000)
        with pytest.raises(ValueError):
            rns.exact_rescale(poly)


@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
@settings(max_examples=30, deadline=None)
def test_property_crt_roundtrip(seed, k):
    rng = np.random.default_rng(seed)
    moduli = MODULI[:k]
    big_q = rns.product(moduli)
    coeffs = [_big_randint(rng, big_q // 2 - 1) for _ in range(N)]
    poly = rns.from_big_ints(coeffs, moduli, N)
    assert rns.compose_crt(poly) == coeffs
