"""Unit + property tests for the modular arithmetic kernel."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ckks import modmath

Q31 = (1 << 31) - 1          # forces the int64 fast path boundary
Q_SMALL = 268435009          # 28-bit NTT prime
Q_BIG = (1 << 59) - 55       # takes the wide uint64 Barrett path
Q_HUGE = (1 << 70) - 267     # beyond 62 bits: the object path

moduli = pytest.mark.parametrize("q", [17, Q_SMALL, Q_BIG, Q_HUGE])


class TestDtypeDispatch:
    def test_int64_path_for_small_modulus(self):
        assert modmath.uses_int64(Q_SMALL)
        assert modmath.width_path(Q_SMALL) == modmath.NARROW
        assert modmath.zeros(4, Q_SMALL).dtype == np.int64

    def test_wide_path_for_large_modulus(self):
        assert not modmath.uses_int64(Q_BIG)
        assert modmath.width_path(Q_BIG) == modmath.WIDE
        assert modmath.zeros(4, Q_BIG).dtype == np.uint64

    def test_object_path_for_huge_modulus(self):
        assert modmath.width_path(Q_HUGE) == modmath.OBJECT
        assert modmath.zeros(4, Q_HUGE).dtype == object

    def test_narrow_boundary_is_31_bits(self):
        assert modmath.uses_int64((1 << 31) - 1)
        assert not modmath.uses_int64(1 << 31)
        assert modmath.width_path(1 << 31) == modmath.WIDE

    def test_wide_boundary_is_62_bits(self):
        assert modmath.width_path((1 << 62) - 1) == modmath.WIDE
        assert modmath.width_path(1 << 62) == modmath.OBJECT

    def test_kernel_path_override_only_widens(self):
        oracle = modmath.ModulusKernel(Q_BIG, path=modmath.OBJECT)
        assert oracle.dtype == object
        with pytest.raises(ValueError):
            modmath.ModulusKernel(Q_BIG, path=modmath.NARROW)
        with pytest.raises(ValueError):
            modmath.ModulusKernel(Q_HUGE, path=modmath.WIDE)

    @moduli
    def test_default_and_auto_path_share_one_kernel(self, q):
        assert modmath.get_kernel(q) is \
            modmath.get_kernel(q, modmath.width_path(q))
        assert modmath.get_kernel(Q_BIG, modmath.OBJECT) is not \
            modmath.get_kernel(Q_BIG)


@moduli
class TestBasicOps:
    def test_zeros(self, q):
        z = modmath.zeros(8, q)
        assert len(z) == 8
        assert all(int(v) == 0 for v in z)

    def test_asresidues_reduces(self, q):
        arr = modmath.asresidues([q, q + 1, -1, 0, 2 * q + 5], q)
        assert [int(v) for v in arr] == [0, 1, q - 1, 0, 5]

    def test_add_sub_roundtrip(self, q):
        rng = np.random.default_rng(0)
        a = modmath.random_uniform(16, q, rng)
        b = modmath.random_uniform(16, q, rng)
        back = modmath.sub(modmath.add(a, b, q), b, q)
        assert all(int(x) == int(y) for x, y in zip(back, a))

    def test_neg_is_additive_inverse(self, q):
        rng = np.random.default_rng(1)
        a = modmath.random_uniform(16, q, rng)
        s = modmath.add(a, modmath.neg(a, q), q)
        assert all(int(v) == 0 for v in s)

    def test_mul_matches_python_ints(self, q):
        rng = np.random.default_rng(2)
        a = modmath.random_uniform(16, q, rng)
        b = modmath.random_uniform(16, q, rng)
        got = modmath.mul(a, b, q)
        for x, y, z in zip(a, b, got):
            assert int(z) == int(x) * int(y) % q

    def test_mul_scalar(self, q):
        rng = np.random.default_rng(3)
        a = modmath.random_uniform(16, q, rng)
        got = modmath.mul_scalar(a, 7, q)
        for x, z in zip(a, got):
            assert int(z) == int(x) * 7 % q

    def test_random_uniform_in_range(self, q):
        rng = np.random.default_rng(4)
        a = modmath.random_uniform(256, q, rng)
        assert all(0 <= int(v) < q for v in a)


class TestScalarHelpers:
    def test_inv_mod(self):
        for q in (17, Q_SMALL, Q_BIG, Q_HUGE):
            for v in (1, 2, 12345 % q):
                assert v * modmath.inv_mod(v, q) % q == 1

    def test_inv_mod_zero_raises(self):
        with pytest.raises(ValueError):
            modmath.inv_mod(0, 17)

    def test_pow_mod(self):
        assert modmath.pow_mod(3, 4, 17) == 81 % 17

    def test_to_signed_centres(self):
        q = 17
        a = modmath.asresidues([0, 1, 8, 9, 16], q)
        signed = modmath.to_signed(a, q)
        assert [int(v) for v in signed] == [0, 1, 8, -8, -1]

    def test_to_signed_wide_path(self):
        a = modmath.asresidues([Q_BIG - 1, 5], Q_BIG)
        signed = modmath.to_signed(a, Q_BIG)
        assert signed.dtype == np.int64
        assert int(signed[0]) == -1
        assert int(signed[1]) == 5

    def test_to_signed_object_path(self):
        a = modmath.asresidues([Q_HUGE - 1, 5], Q_HUGE)
        signed = modmath.to_signed(a, Q_HUGE)
        assert int(signed[0]) == -1
        assert int(signed[1]) == 5


class TestSamplers:
    def test_ternary_values(self, rng):
        s = modmath.random_ternary(512, rng)
        assert set(np.unique(s)).issubset({-1, 0, 1})

    def test_ternary_hamming_weight(self, rng):
        s = modmath.random_ternary(512, rng, hamming_weight=64)
        assert np.count_nonzero(s) == 64

    def test_gaussian_is_small(self, rng):
        e = modmath.random_discrete_gaussian(4096, rng, sigma=3.2)
        assert np.max(np.abs(e)) < 40  # > 10 sigma would be absurd
        assert abs(float(np.mean(e))) < 1.0


@given(st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=32),
       st.sampled_from([17, Q_SMALL, Q_BIG, Q_HUGE]))
@settings(max_examples=60, deadline=None)
def test_property_asresidues_congruent(values, q):
    arr = modmath.asresidues(values, q)
    for v, r in zip(values, arr):
        assert (int(r) - v) % q == 0
        assert 0 <= int(r) < q


@given(st.integers(2, 40), st.sampled_from([Q_SMALL, Q_BIG, Q_HUGE]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_property_mul_commutative(n, q, seed):
    rng = np.random.default_rng(seed)
    a = modmath.random_uniform(n, q, rng)
    b = modmath.random_uniform(n, q, rng)
    ab = modmath.mul(a, b, q)
    ba = modmath.mul(b, a, q)
    assert all(int(x) == int(y) for x, y in zip(ab, ba))


@given(st.integers(2, 24), st.sampled_from([Q_SMALL, Q_BIG, Q_HUGE]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_property_distributive(n, q, seed):
    rng = np.random.default_rng(seed)
    a = modmath.random_uniform(n, q, rng)
    b = modmath.random_uniform(n, q, rng)
    c = modmath.random_uniform(n, q, rng)
    left = modmath.mul(a, modmath.add(b, c, q), q)
    right = modmath.add(modmath.mul(a, b, q), modmath.mul(a, c, q), q)
    assert all(int(x) == int(y) for x, y in zip(left, right))
