"""Wide (uint64) kernels vs exact Python-int arithmetic.

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


def _row(values, q) -> np.ndarray:
    return modmath.as_block(values, (q,))


def _ints(block) -> list[int]:
    return [int(v) for v in block[0]]


@wide_moduli
class TestElementwiseMatchesOracle:
    def test_mul(self, q):
        x, y = _vector(q, 1), _vector(q, 2)
        kernel = modmath.BasisKernel((q,))
        got = kernel.mul(_row(x, q), _row(y, q))
        assert got.dtype == np.uint64
        assert _ints(got) == [a * b % q for a, b in zip(x, y)]

    def test_add_sub_neg(self, q):
        x, y = _vector(q, 3), _vector(q, 4)
        kernel = modmath.BasisKernel((q,))
        a, b = _row(x, q), _row(y, q)
        assert _ints(kernel.add(a, b)) == [(u + v) % q for u, v in zip(x, y)]
        assert _ints(kernel.sub(a, b)) == [(u - v) % q for u, v in zip(x, y)]
        assert _ints(kernel.neg(a)) == [-u % q for u in x]

    def test_mul_scalar_and_shoup(self, q):
        x = _vector(q, 5)
        a = _row(x, q)
        kernel = modmath.BasisKernel((q,))
        for s in (0, 1, q - 1, 12345678901 % q):
            want = [v * s % q for v in x]
            got = kernel.mul_rows(a, kernel.row_scalars([s]))
            assert _ints(got) == want
            w, w_shoup = modmath.shoup_pair(s, q)
            lazy = modmath.mul_shoup_lazy(a, w, w_shoup, np.uint64(q))
            assert [int(v) % q for v in lazy[0]] == want
            assert all(int(v) < 2 * q for v in lazy[0])

    def test_shoup_companions_match_python_ints(self, q):
        w = np.array(_vector(q, 7), dtype=np.uint64)
        got = modmath.shoup_companions(w, q)
        assert got.dtype == np.uint64
        assert got.tolist() == [(int(v) << 64) // q for v in w]


@wide_moduli
class TestNttMatchesOracle:
    """The engine (uint64 rows) against the reference (object rows)."""

    def test_forward_bit_identical(self, q):
        x = _vector(q, 7)
        plan = NttPlan(N, q)
        assert plan.wide
        got = plan.forward(np.array(x, dtype=np.uint64))
        want = NttPlan(N, q).forward(np.array(x, dtype=object))
        assert got.dtype == np.uint64 and want.dtype == object
        assert got.tolist() == want.tolist()

    def test_inverse_bit_identical(self, q):
        x = _vector(q, 8)
        got = NttPlan(N, q).inverse(np.array(x, dtype=np.uint64))
        want = NttPlan(N, q).inverse(np.array(x, dtype=object))
        assert got.tolist() == want.tolist()

    def test_roundtrip(self, q):
        x = _row(_vector(q, 9), q)[0]
        plan = NttPlan(N, q)
        back = plan.inverse(plan.forward(x))
        assert back.tolist() == x.tolist()


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
        limbs = modmath.as_block([_vector(q, 20 + i)
                                  for i, q in enumerate(moduli)], moduli)
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
    got = modmath.BasisKernel((q,)).mul(_row(a, q), _row(b, q))
    assert _ints(got) == [x * y % q for x, y in zip(a, b)]


@given(st.sampled_from([Q36, Q60, Q62]), st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_property_ntt_roundtrip_matches_oracle(q, seed):
    rng = np.random.default_rng(seed)
    x = [int(v) for v in rng.integers(0, q, size=N)]
    x[:3] = [0, 1, q - 1]
    plan = NttPlan(N, q)
    fw = plan.forward(np.array(x, dtype=np.uint64))
    fo = plan.forward(np.array(x, dtype=object))
    assert fw.tolist() == fo.tolist()
    assert plan.inverse(fw).tolist() == x
