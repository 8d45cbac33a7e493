"""NTT correctness: inversion, convolution theorem, linearity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ckks import modmath, primes
from repro.ckks.ntt import (NttPlan, bit_reverse_permutation,
                            negacyclic_convolution_reference)

N_SMALL = 32
Q_SMALL = primes.ntt_primes(1, 28, N_SMALL)[0]
Q_WIDE = primes.ntt_primes(1, 40, N_SMALL)[0]  # wide uint64-path plan
KERNEL = modmath.BasisKernel((Q_SMALL,))


def _mul(a, b) -> np.ndarray:
    """Pointwise ``a * b mod Q_SMALL`` of two residue vectors."""
    return KERNEL.mul(modmath.as_block(a, (Q_SMALL,)),
                      modmath.as_block(b, (Q_SMALL,)))[0]


def _scale(a, scalar: int) -> np.ndarray:
    return KERNEL.mul_rows(modmath.as_block(a, (Q_SMALL,)),
                           KERNEL.row_scalars([scalar]))[0]


def _zeros() -> np.ndarray:
    return np.zeros(N_SMALL, np.uint64)


@pytest.fixture(scope="module")
def plan():
    return NttPlan(N_SMALL, Q_SMALL)


@pytest.fixture(scope="module")
def wide_plan():
    return NttPlan(N_SMALL, Q_WIDE)


class TestPlanConstruction:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            NttPlan(24, Q_SMALL)

    def test_rejects_unfriendly_modulus(self):
        with pytest.raises(ValueError):
            NttPlan(N_SMALL, 97)  # 97 - 1 not divisible by 64

    def test_bit_reverse_is_involution(self):
        for n in (2, 8, 64):
            perm = bit_reverse_permutation(n)
            assert np.array_equal(perm[perm], np.arange(n))


class TestRoundTrip:
    def test_forward_inverse_identity(self, plan, rng):
        x = rng.integers(0, Q_SMALL, N_SMALL)
        assert np.array_equal(plan.inverse(plan.forward(x)),
                              np.mod(x, Q_SMALL))

    def test_inverse_forward_identity(self, plan, rng):
        x = rng.integers(0, Q_SMALL, N_SMALL)
        assert np.array_equal(plan.forward(plan.inverse(x)),
                              np.mod(x, Q_SMALL))

    def test_wide_path_roundtrip(self, wide_plan, rng):
        assert wide_plan.wide
        x = [int(v) for v in rng.integers(0, 2**40 - 1, N_SMALL)]
        x = modmath.as_block(x, (Q_WIDE,))[0]
        back = wide_plan.inverse(wide_plan.forward(x))
        assert all(int(a) == int(b) for a, b in zip(back, x))

    def test_forced_object_plan_matches_wide(self, wide_plan, rng):
        # object rows run the Python-int reference network
        x = [int(v) for v in rng.integers(0, Q_WIDE, N_SMALL)]
        fw = wide_plan.forward(np.array(x, dtype=np.uint64))
        fo = NttPlan(N_SMALL, Q_WIDE).forward(np.array(x, dtype=object))
        assert fw.dtype == np.uint64 and fo.dtype == object
        assert fw.tolist() == fo.tolist()

    def test_wrong_length_rejected(self, plan):
        with pytest.raises(ValueError):
            plan.forward(np.zeros(N_SMALL // 2, dtype=np.int64))


class TestConvolutionTheorem:
    def test_pointwise_equals_negacyclic(self, plan, rng):
        a = rng.integers(0, Q_SMALL, N_SMALL)
        b = rng.integers(0, Q_SMALL, N_SMALL)
        via_ntt = plan.inverse(_mul(plan.forward(a), plan.forward(b)))
        ref = negacyclic_convolution_reference(a, b, Q_SMALL)
        assert np.array_equal(via_ntt, ref)

    def test_x_times_x_n_minus_1_is_minus_one(self, plan):
        # X * X^(N-1) = X^N = -1 in the negacyclic ring.
        x = _zeros()
        x[1] = 1
        y = _zeros()
        y[N_SMALL - 1] = 1
        prod = plan.inverse(_mul(plan.forward(x), plan.forward(y)))
        expected = _zeros()
        expected[0] = Q_SMALL - 1
        assert np.array_equal(prod, expected)

    def test_multiplication_by_constant_poly(self, plan, rng):
        a = rng.integers(0, Q_SMALL, N_SMALL)
        c = _zeros()
        c[0] = 5
        prod = plan.inverse(_mul(plan.forward(a), plan.forward(c)))
        assert np.array_equal(prod, _scale(a, 5))


class TestLinearity:
    def test_forward_is_linear(self, plan, rng):
        a = rng.integers(0, Q_SMALL, N_SMALL)
        b = rng.integers(0, Q_SMALL, N_SMALL)
        lhs = plan.forward(np.mod(a + b, Q_SMALL))
        rhs = KERNEL.add(plan.forward(a)[None], plan.forward(b)[None])[0]
        assert np.array_equal(lhs, rhs)

    def test_forward_scalar_scaling(self, plan, rng):
        a = rng.integers(0, Q_SMALL, N_SMALL)
        lhs = plan.forward(_scale(a, 11))
        rhs = _scale(plan.forward(a), 11)
        assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("n", [2, 4, 16, 128])
def test_roundtrip_across_sizes(n, rng):
    q = primes.ntt_primes(1, 24, n)[0]
    plan = NttPlan(n, q)
    x = rng.integers(0, q, n)
    assert np.array_equal(plan.inverse(plan.forward(x)), np.mod(x, q))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_property_convolution_commutes(seed):
    rng = np.random.default_rng(seed)
    plan = NttPlan(N_SMALL, Q_SMALL)
    a = rng.integers(0, Q_SMALL, N_SMALL)
    b = rng.integers(0, Q_SMALL, N_SMALL)
    ab = plan.inverse(_mul(plan.forward(a), plan.forward(b)))
    ba = plan.inverse(_mul(plan.forward(b), plan.forward(a)))
    assert np.array_equal(ab, ba)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_property_parseval_style_energy(seed):
    # The all-ones polynomial evaluates to sum of coefficients * psi^..
    # A cheaper invariant: transform of zero is zero, of delta is
    # a vector of roots (all nonzero).
    rng = np.random.default_rng(seed)
    plan = NttPlan(N_SMALL, Q_SMALL)
    delta = _zeros()
    delta[0] = int(rng.integers(1, Q_SMALL))
    transformed = plan.forward(delta)
    assert all(int(v) == int(delta[0]) for v in transformed)
