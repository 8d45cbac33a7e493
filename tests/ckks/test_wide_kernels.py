"""Wide (uint64 Barrett) kernels vs the object-path exactness oracle.

The wide path must be *bit-identical* to arbitrary-precision Python
arithmetic — not merely close — at the paper's real word lengths:
36-bit scale primes, 60-bit KLSS words, and moduli pushed against the
2^62 path boundary.  Edge residues {0, 1, q-1} ride along with every
random vector.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ckks import modmath, primes, rns
from repro.ckks.ntt import NttPlan
from repro.ckks.rns import RnsPoly

N = 64
Q36 = primes.ntt_primes(1, 36, N)[0]
Q60 = primes.ntt_primes(1, 60, N)[0]
Q62 = primes.ntt_primes(1, 62, N)[0]  # near the 2^62 wide boundary

wide_moduli = pytest.mark.parametrize("q", [Q36, Q60, Q62])


def _vector(q: int, seed: int, n: int = N) -> list[int]:
    rng = np.random.default_rng(seed)
    values = [int(v) for v in rng.integers(0, q, size=n)]
    values[:3] = [0, 1, q - 1]  # always include the edge residues
    return values


def _as_wide_and_oracle(values, q):
    wide = modmath.get_kernel(q)
    oracle = modmath.get_kernel(q, modmath.OBJECT)
    assert wide.path == modmath.WIDE
    return wide.asresidues(values), oracle.asresidues(values), wide, oracle


@wide_moduli
class TestElementwiseMatchesOracle:
    def test_mul(self, q):
        a, ao, wide, oracle = _as_wide_and_oracle(_vector(q, 1), q)
        b, bo, _, _ = _as_wide_and_oracle(_vector(q, 2), q)
        got = wide.mul(a, b)
        want = oracle.mul(ao, bo)
        assert got.dtype == np.uint64
        assert [int(v) for v in got] == [int(v) for v in want]

    def test_add_sub_neg(self, q):
        a, ao, wide, oracle = _as_wide_and_oracle(_vector(q, 3), q)
        b, bo, _, _ = _as_wide_and_oracle(_vector(q, 4), q)
        for wide_op, oracle_op in ((wide.add, oracle.add),
                                   (wide.sub, oracle.sub)):
            assert ([int(v) for v in wide_op(a, b)]
                    == [int(v) for v in oracle_op(ao, bo)])
        assert ([int(v) for v in wide.neg(a)]
                == [int(v) for v in oracle.neg(ao)])

    def test_mul_scalar_and_shoup(self, q):
        a, ao, wide, oracle = _as_wide_and_oracle(_vector(q, 5), q)
        for s in (0, 1, q - 1, 12345678901 % q):
            want = [int(v) for v in oracle.mul_scalar(ao, s)]
            assert [int(v) for v in wide.mul_scalar(a, s)] == want
            w, w_shoup = wide.shoup(s)
            assert [int(v) for v in wide.mul_shoup(a, w, w_shoup)] == want

    def test_shoup_companions_match_python_ints(self, q):
        w = np.array(_vector(q, 7), dtype=np.uint64)
        got = modmath.shoup_companions(w, q)
        assert got.dtype == np.uint64
        assert got.tolist() == [(int(v) << 64) // q for v in w]

    def test_to_signed(self, q):
        a, ao, wide, oracle = _as_wide_and_oracle(_vector(q, 6), q)
        assert ([int(v) for v in wide.to_signed(a)]
                == [int(v) for v in oracle.to_signed(ao)])


@wide_moduli
class TestNttMatchesOracle:
    def test_forward_bit_identical(self, q):
        x = _vector(q, 7)
        wide_plan = NttPlan(N, q)
        oracle_plan = NttPlan(N, q, path=modmath.OBJECT)
        assert wide_plan.path == modmath.WIDE
        got = wide_plan.forward(modmath.asresidues(x, q))
        want = oracle_plan.forward(np.array(x, dtype=object))
        assert [int(v) for v in got] == [int(v) for v in want]

    def test_inverse_bit_identical(self, q):
        x = _vector(q, 8)
        wide_plan = NttPlan(N, q)
        oracle_plan = NttPlan(N, q, path=modmath.OBJECT)
        got = wide_plan.inverse(modmath.asresidues(x, q))
        want = oracle_plan.inverse(np.array(x, dtype=object))
        assert [int(v) for v in got] == [int(v) for v in want]

    def test_roundtrip(self, q):
        x = modmath.asresidues(_vector(q, 9), q)
        plan = NttPlan(N, q)
        back = plan.inverse(plan.forward(x))
        assert [int(v) for v in back] == [int(v) for v in x]


class TestBaseConvertMatchesOracle:
    """HPS base conversion: wide limbs vs an exact big-int rebuild."""

    def _oracle_base_convert(self, limbs, moduli, target):
        # Independent reference: y_i = x_i * (Q/q_i)^-1 mod q_i, then
        # out_j = sum_i y_i * (Q/q_i) mod p_j — all in Python ints.
        big_q = 1
        for q in moduli:
            big_q *= q
        n = len(limbs[0])
        out = []
        for p in target:
            acc = [0] * n
            for limb, q in zip(limbs, moduli):
                hat = big_q // q
                hat_inv = pow(hat % q, -1, q)
                for i in range(n):
                    y = int(limb[i]) * hat_inv % q
                    acc[i] = (acc[i] + y * hat) % p
            out.append(acc)
        return out

    @pytest.mark.parametrize("bits,target_bits", [(36, 36), (60, 60),
                                                  (36, 60)])
    def test_matches_exact_reference(self, bits, target_bits):
        moduli = tuple(primes.ntt_primes(3, bits, N))
        target = tuple(primes.ntt_primes(2, target_bits, N,
                                         exclude=set(moduli)))
        limbs = [modmath.asresidues(_vector(q, 20 + i), q)
                 for i, q in enumerate(moduli)]
        poly = RnsPoly(limbs, moduli, rns.COEFF)
        got = rns.base_convert(poly, target)
        want = self._oracle_base_convert(limbs, moduli, target)
        for got_limb, want_limb in zip(got.limbs, want):
            assert [int(v) for v in got_limb] == want_limb


@given(st.sampled_from([Q36, Q60, Q62]), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_property_mul_matches_oracle(q, seed):
    rng = np.random.default_rng(seed)
    a = [int(v) for v in rng.integers(0, q, size=32)]
    b = [int(v) for v in rng.integers(0, q, size=32)]
    a[:3], b[:3] = [0, 1, q - 1], [q - 1, q - 1, q - 1]
    wide = modmath.get_kernel(q)
    got = wide.mul(wide.asresidues(a), wide.asresidues(b))
    assert [int(v) for v in got] == [x * y % q for x, y in zip(a, b)]


@given(st.sampled_from([Q36, Q60, Q62]), st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_property_ntt_roundtrip_matches_oracle(q, seed):
    rng = np.random.default_rng(seed)
    x = [int(v) for v in rng.integers(0, q, size=N)]
    x[:3] = [0, 1, q - 1]
    wide_plan = NttPlan(N, q)
    oracle_plan = NttPlan(N, q, path=modmath.OBJECT)
    fw = wide_plan.forward(modmath.asresidues(x, q))
    fo = oracle_plan.forward(np.array(x, dtype=object))
    assert [int(v) for v in fw] == [int(v) for v in fo]
    assert [int(v) for v in wide_plan.inverse(fw)] == x
