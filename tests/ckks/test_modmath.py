"""Unit + property tests for the modular arithmetic kernel.

Every op runs on :class:`~repro.ckks.modmath.BasisKernel` over a
one-row ``(1, N)`` block and is checked against Python ints.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ckks import modmath

Q31 = (1 << 31) - 1          # a uint64 row like any other modulus
Q_SMALL = 268435009          # 28-bit NTT prime
Q_BIG = (1 << 59) - 55       # takes the wide uint64 Barrett path
Q_HUGE = (1 << 70) - 267     # beyond 62 bits: the object path

moduli = pytest.mark.parametrize("q", [17, Q_SMALL, Q_BIG, Q_HUGE])


def _row(values, q) -> np.ndarray:
    """``values`` reduced into a one-row block."""
    return modmath.as_block(values, (q,))


def _uniform(n, q, rng) -> np.ndarray:
    return modmath.uniform_block(n, (q,), rng)


def _ints(block) -> list[int]:
    return [int(v) for v in block[0]]


class TestDtypeDispatch:
    def test_small_modulus_runs_the_uint64_path(self):
        for q in (17, Q_SMALL, Q31, 1 << 31):
            assert modmath.width_path(q) == modmath.WIDE
            assert modmath.block_dtype((q,)) == np.uint64
            assert _row([0, 1], q).dtype == np.uint64

    def test_wide_path_for_large_modulus(self):
        assert modmath.width_path(Q_BIG) == modmath.WIDE
        assert modmath.block_dtype((Q_SMALL, Q_BIG)) == np.uint64
        assert modmath.BasisKernel((Q_BIG,)).dtype == np.uint64

    def test_object_path_for_huge_modulus(self):
        assert modmath.width_path(Q_HUGE) == modmath.OBJECT
        assert modmath.block_dtype((Q_SMALL, Q_HUGE)) is object
        assert _row([0, 1], Q_HUGE).dtype == object

    def test_wide_boundary_is_62_bits(self):
        assert modmath.width_path((1 << 62) - 1) == modmath.WIDE
        assert modmath.width_path(1 << 62) == modmath.OBJECT


@moduli
class TestBasicOps:
    def test_zeros(self, q):
        z = _row(np.zeros(8, np.int64), q)
        assert z.shape == (1, 8)
        assert all(int(v) == 0 for v in z[0])

    def test_asresidues_reduces(self, q):
        arr = _row([q, q + 1, -1, 0, 2 * q + 5], q)
        assert _ints(arr) == [0, 1, q - 1, 0, 5]

    def test_add_sub_roundtrip(self, q):
        rng = np.random.default_rng(0)
        kernel = modmath.BasisKernel((q,))
        a, b = _uniform(16, q, rng), _uniform(16, q, rng)
        assert _ints(kernel.sub(kernel.add(a, b), b)) == _ints(a)
        assert _ints(kernel.add(a, b)) == [
            (x + y) % q for x, y in zip(_ints(a), _ints(b))]

    def test_neg_is_additive_inverse(self, q):
        rng = np.random.default_rng(1)
        kernel = modmath.BasisKernel((q,))
        a = _uniform(16, q, rng)
        assert all(v == 0 for v in _ints(kernel.add(a, kernel.neg(a))))

    def test_mul_matches_python_ints(self, q):
        rng = np.random.default_rng(2)
        kernel = modmath.BasisKernel((q,))
        a, b = _uniform(16, q, rng), _uniform(16, q, rng)
        got = kernel.mul(a, b)
        assert _ints(got) == [x * y % q for x, y in zip(_ints(a), _ints(b))]

    def test_mul_scalar(self, q):
        rng = np.random.default_rng(3)
        kernel = modmath.BasisKernel((q,))
        a = _uniform(16, q, rng)
        for scalar in (7, -7, 2**80 + 3):
            got = kernel.mul_rows(a, kernel.row_scalars([scalar]))
            assert _ints(got) == [x * scalar % q for x in _ints(a)]

    def test_random_uniform_in_range(self, q):
        rng = np.random.default_rng(4)
        a = _uniform(256, q, rng)
        assert a.dtype == modmath.block_dtype((q,))
        assert all(0 <= v < q for v in _ints(a))


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

    @pytest.mark.parametrize("q", [40961, Q_SMALL, Q31, 68719403009])
    def test_uniform_block_keeps_the_int64_stream(self, q):
        # sub-2^31 moduli used to draw int64 rows: the uint64 rows
        # the block draws are the same numbers under one seed
        got = modmath.uniform_block(64, (q, q), np.random.default_rng(9))
        rng = np.random.default_rng(9)
        want = [rng.integers(0, q, size=64, dtype=np.int64)
                for _ in range(2)]
        np.testing.assert_array_equal(got, np.stack(want))


class TestAsBlock:
    """The one reduction boundary, against per-row Python ``%``."""

    BASIS = (17, Q_SMALL, Q_BIG)

    def _check(self, values, basis=BASIS):
        got = modmath.as_block(values, basis)
        assert got.dtype == modmath.block_dtype(basis)
        assert got.flags.c_contiguous and got.shape == (len(basis),
                                                        len(values))
        assert [[int(v) for v in row] for row in got] == \
            [[int(v) % q for v in values] for q in basis]

    def test_shared_int64_vector(self):
        self._check(np.array([0, 5, -3, 2**62, -(2**63)], np.int64))

    def test_shared_uint64_vector(self):
        self._check(np.array([0, Q_BIG, 2**64 - 1, 16], np.uint64))

    def test_python_ints_at_and_above_2_63(self):
        self._check([2**63, 2**63 + 1, -1, 2**64 - 1])
        self._check([2**63, 2**64, 2**130 + 7, -(2**100)])

    def test_beyond_62_bit_modulus(self):
        self._check([2**63, -1, 5, 2**90], basis=(Q_SMALL, Q_HUGE))
        self._check(np.array([-7, 3], np.int64), basis=(Q_HUGE,))

    def test_rows_reduce_against_their_own_modulus(self):
        rows = np.array([[17, 18], [-1, 2], [Q_BIG + 1, 0]], np.int64)
        got = modmath.as_block(rows, self.BASIS)
        assert got.tolist() == [[0, 1], [Q_SMALL - 1, 2], [1, 0]]

    def test_wrong_row_count_is_refused(self):
        with pytest.raises(ValueError, match="limb count"):
            modmath.as_block(np.zeros((2, 4), np.uint64), self.BASIS)


@given(st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=32),
       st.sampled_from([17, Q_SMALL, Q_BIG, Q_HUGE]))
@settings(max_examples=60, deadline=None)
def test_property_asresidues_congruent(values, q):
    arr = _row(values, q)
    for v, r in zip(values, _ints(arr)):
        assert (r - v) % q == 0
        assert 0 <= r < q


@given(st.integers(2, 40), st.sampled_from([Q_SMALL, Q_BIG, Q_HUGE]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_property_mul_commutative(n, q, seed):
    rng = np.random.default_rng(seed)
    kernel = modmath.BasisKernel((q,))
    a, b = _uniform(n, q, rng), _uniform(n, q, rng)
    assert _ints(kernel.mul(a, b)) == _ints(kernel.mul(b, a))


@given(st.integers(2, 24), st.sampled_from([Q_SMALL, Q_BIG, Q_HUGE]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_property_distributive(n, q, seed):
    rng = np.random.default_rng(seed)
    kernel = modmath.BasisKernel((q,))
    a, b, c = (_uniform(n, q, rng) for _ in range(3))
    left = kernel.mul(a, kernel.add(b, c))
    right = kernel.add(kernel.mul(a, b), kernel.mul(a, c))
    assert _ints(left) == _ints(right)
