"""Property-style roundtrip identities over many seeded random inputs.

Three invariants the accelerator model leans on daily:

* ``intt(ntt(x)) == x`` for every limb (the NTTU's correctness);
* exact CRT compose/decompose is the identity on centred integers
  (decryption and KLSS gadget decomposition depend on it);
* ``decode(encode(z)) ~= z`` within the rounding error budget.

Parametrized across seeds/sizes instead of hypothesis so failures
name their exact input deterministically.
"""

import numpy as np
import pytest

from repro.ckks import rns
from repro.ckks.encoding import decode_from_coeffs, encode_to_coeffs
from repro.ckks.ntt import NttPlan, negacyclic_convolution_reference
from repro.ckks.primes import ntt_primes
from repro.ckks.rns import RnsPoly, compose_crt, from_big_ints

SEEDS = [0, 1, 2, 7, 13, 42, 1234, 99991]


def _basis(n: int, count: int, bits: int = 20) -> tuple[int, ...]:
    return tuple(ntt_primes(count, bits, n))


class TestNttRoundtrip:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [8, 32, 128])
    def test_forward_inverse_identity(self, n, seed):
        q = ntt_primes(1, 20, n)[0]
        plan = NttPlan(n, q)
        rng = np.random.default_rng(seed)
        x = rng.integers(0, q, size=n)
        np.testing.assert_array_equal(plan.inverse(plan.forward(x)),
                                      x % q)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_inverse_forward_identity(self, seed):
        n = 32
        q = ntt_primes(1, 20, n)[0]
        plan = NttPlan(n, q)
        rng = np.random.default_rng(seed)
        x = rng.integers(0, q, size=n)
        np.testing.assert_array_equal(plan.forward(plan.inverse(x)),
                                      x % q)

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_pointwise_product_is_negacyclic_convolution(self, seed):
        n = 16
        q = ntt_primes(1, 20, n)[0]
        plan = NttPlan(n, q)
        rng = np.random.default_rng(seed)
        a = rng.integers(0, q, size=n)
        b = rng.integers(0, q, size=n)
        via_ntt = plan.inverse(
            (plan.forward(a) * plan.forward(b)) % q)
        np.testing.assert_array_equal(
            via_ntt, negacyclic_convolution_reference(a, b, q))


class TestCrtRoundtrip:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("limbs", [1, 3, 5])
    def test_compose_decompose_identity(self, limbs, seed):
        import random
        n = 16
        moduli = _basis(n, limbs)
        big_q = rns.product(moduli)
        # Q exceeds 64 bits beyond one limb; stdlib randrange handles
        # arbitrary-precision bounds.  Centred range (-Q/2, Q/2].
        rng = random.Random(seed)
        coeffs = [rng.randrange(-(big_q // 2) + 1, big_q // 2 + 1)
                  for _ in range(n)]
        poly = from_big_ints(coeffs, moduli)
        assert compose_crt(poly) == coeffs

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_decompose_compose_limbwise(self, seed):
        n = 16
        moduli = _basis(n, 4)
        rng = np.random.default_rng(seed)
        coeffs = rng.integers(-(1 << 40), 1 << 40, size=n)
        poly = RnsPoly.from_int_coeffs(coeffs, moduli)
        recomposed = from_big_ints(compose_crt(poly), moduli)
        for a, b in zip(poly.limbs, recomposed.limbs):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_eval_form_detour_preserves_value(self, seed):
        n = 16
        moduli = _basis(n, 3)
        rng = np.random.default_rng(seed)
        coeffs = rng.integers(-(1 << 30), 1 << 30, size=n)
        poly = RnsPoly.from_int_coeffs(coeffs, moduli)
        assert compose_crt(poly.to_eval().to_coeff()) == \
            compose_crt(poly)


class TestSetIIShapedRoundtrip:
    """The same invariants at a real 36-bit Set-II-shaped basis.

    Everything here runs on the wide uint64 Barrett path — this is the
    word length the paper's TBM spends its 36-bit mode on, and the one
    the old int64-only fast path used to push onto object arrays.
    """

    N = 64

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ntt_roundtrip_at_36_bits(self, seed):
        q = ntt_primes(1, 36, self.N)[0]
        plan = NttPlan(self.N, q)
        rng = np.random.default_rng(seed)
        x = rng.integers(0, q, size=self.N, dtype=np.uint64)
        got = plan.inverse(plan.forward(x))
        assert [int(v) for v in got] == [int(v) for v in x]

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_convolution_theorem_at_36_bits(self, seed):
        from repro.ckks import modmath
        q = ntt_primes(1, 36, 16)[0]
        plan = NttPlan(16, q)
        rng = np.random.default_rng(seed)
        a = [int(v) for v in rng.integers(0, q, size=16)]
        b = [int(v) for v in rng.integers(0, q, size=16)]
        # The raw `(fa * fb) % q` would wrap in uint64; wide products
        # go through the basis kernel.
        kernel = modmath.BasisKernel((q,))
        via_ntt = plan.inverse(kernel.mul(
            plan.forward(a)[None], plan.forward(b)[None])[0])
        want = negacyclic_convolution_reference(a, b, q)
        assert [int(v) for v in via_ntt] == [int(v) for v in want]

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_crt_roundtrip_on_wide_basis(self, seed):
        import random
        moduli = tuple(ntt_primes(1, 44, self.N)
                       + ntt_primes(3, 36, self.N))
        big_q = rns.product(moduli)
        rng = random.Random(seed)
        coeffs = [rng.randrange(-(big_q // 2) + 1, big_q // 2 + 1)
                  for _ in range(self.N)]
        poly = from_big_ints(coeffs, moduli, self.N)
        assert compose_crt(poly) == coeffs
        assert compose_crt(poly.to_eval().to_coeff()) == coeffs

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_encrypted_multiply_at_set_ii_mini(self, seed):
        from repro.ckks.context import CkksContext
        from repro.ckks.params import set_ii_mini
        params = set_ii_mini(ring_degree=self.N, max_level=4,
                             boot_levels=2)
        ctx = CkksContext(params, seed=seed)
        rng = np.random.default_rng(seed)
        message = rng.normal(size=params.num_slots)
        ct = ctx.encrypt(message)
        got = ctx.decrypt(ctx.rescale(ctx.multiply(ct, ct)))
        np.testing.assert_allclose(got.real, message ** 2, atol=1e-4)


class TestEncodeDecodeRoundtrip:
    SCALE = float(1 << 30)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [16, 64])
    def test_full_slot_roundtrip(self, n, seed):
        rng = np.random.default_rng(seed)
        slots = n // 2
        message = rng.normal(size=slots) + 1j * rng.normal(size=slots)
        coeffs = encode_to_coeffs(message, n, self.SCALE)
        decoded = decode_from_coeffs(coeffs, n, self.SCALE)
        np.testing.assert_allclose(decoded, message, atol=1e-6)

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_sparse_packing_repeats(self, seed):
        n = 64
        rng = np.random.default_rng(seed)
        message = rng.normal(size=8) + 1j * rng.normal(size=8)
        coeffs = encode_to_coeffs(message, n, self.SCALE)
        decoded = decode_from_coeffs(coeffs, n, self.SCALE)
        tiled = np.tile(message, (n // 2) // 8)
        np.testing.assert_allclose(decoded, tiled, atol=1e-6)

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_roundtrip_through_rns(self, seed):
        """encode -> RNS residues -> CRT recompose -> decode."""
        n = 16
        rng = np.random.default_rng(seed)
        message = rng.normal(size=n // 2) + 1j * rng.normal(size=n // 2)
        coeffs = encode_to_coeffs(message, n, self.SCALE)
        moduli = _basis(n, 3, bits=24)
        poly = from_big_ints([int(c) for c in coeffs], moduli)
        recovered = compose_crt(poly)
        decoded = decode_from_coeffs(recovered, n, self.SCALE)
        np.testing.assert_allclose(decoded, message, atol=1e-6)
