"""Homomorphic operations against plaintext references."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ckks import CkksContext, toy_params
from repro.ckks.keys import HYBRID, KLSS

TOL = 1e-4


def vec(ctx, length=4, seed=0, complex_vals=False):
    rng = np.random.default_rng(seed)
    base = rng.uniform(-2, 2, length)
    if complex_vals:
        base = base + 1j * rng.uniform(-2, 2, length)
    return base


def err(ctx, ct, expected):
    return ctx.noise_infinity(ct, expected)


class TestEncryptDecrypt:
    def test_roundtrip(self, ctx32):
        v = vec(ctx32)
        assert err(ctx32, ctx32.encrypt(np.tile(v, 4)), v) < TOL

    def test_complex_roundtrip(self, ctx32):
        v = vec(ctx32, complex_vals=True)
        assert err(ctx32, ctx32.encrypt(np.tile(v, 4)), v) < TOL

    def test_fresh_level_is_max(self, ctx32):
        ct = ctx32.encrypt(vec(ctx32))
        assert ct.level == ctx32.params.max_level

    def test_encrypt_at_lower_level(self, ctx32):
        v = vec(ctx32)
        ct = ctx32.encrypt(np.tile(v, 4), level=2)
        assert ct.level == 2
        assert err(ctx32, ct, v) < TOL

    def test_different_encryptions_differ(self, ctx32):
        v = np.tile(vec(ctx32), 4)
        c1, c2 = ctx32.encrypt(v), ctx32.encrypt(v)
        assert any(int(a) != int(b) for a, b in
                   zip(c1.c1.limbs[0], c2.c1.limbs[0]))

    def test_ciphertext_size_bytes(self, ctx32):
        ct = ctx32.encrypt(vec(ctx32))
        k = ct.num_limbs
        assert ct.size_bytes() == 2 * k * 4 * ctx32.params.ring_degree


class TestAdditive:
    def test_add(self, ctx32):
        a, b = vec(ctx32, seed=1), vec(ctx32, seed=2)
        ct = ctx32.add(ctx32.encrypt(np.tile(a, 4)),
                       ctx32.encrypt(np.tile(b, 4)))
        assert err(ctx32, ct, a + b) < TOL

    def test_sub(self, ctx32):
        a, b = vec(ctx32, seed=1), vec(ctx32, seed=2)
        ct = ctx32.sub(ctx32.encrypt(np.tile(a, 4)),
                       ctx32.encrypt(np.tile(b, 4)))
        assert err(ctx32, ct, a - b) < TOL

    def test_negate(self, ctx32):
        a = vec(ctx32, seed=3)
        ct = ctx32.negate(ctx32.encrypt(np.tile(a, 4)))
        assert err(ctx32, ct, -a) < TOL

    def test_level_mismatch_rejected(self, ctx32):
        a = ctx32.encrypt(vec(ctx32))
        b = ctx32.level_down(ctx32.encrypt(vec(ctx32)), 1)
        with pytest.raises(ValueError):
            ctx32.add(a, b)

    def test_add_plain(self, ctx32):
        a, b = vec(ctx32, seed=1), vec(ctx32, seed=2)
        ct = ctx32.encrypt(np.tile(a, 4))
        pt = ctx32.plain_for(ct, np.tile(b, 4), scale=ct.scale)
        assert err(ctx32, ctx32.add_plain(ct, pt), a + b) < TOL

    def test_add_scalar(self, ctx32):
        a = vec(ctx32, seed=4)
        ct = ctx32.add_scalar(ctx32.encrypt(np.tile(a, 4)), 2.5)
        assert err(ctx32, ct, a + 2.5) < TOL

    @pytest.mark.parametrize("level", [None, 1])
    @pytest.mark.parametrize("scalar", [2.5, -1.75])
    def test_add_scalar_matches_encoded_constant(self, ctx32, level, scalar):
        """The direct EVAL-form constant is bit-identical to encoding
        ``[value, 0, ..]`` and transforming it (the old construction)."""
        from repro.ckks import rns
        ct = ctx32.encrypt(np.tile(vec(ctx32, seed=4), 4), level=level)
        n = ctx32.params.ring_degree
        value = int(round(scalar * ct.scale))
        constant = rns.from_big_ints([value] + [0] * (n - 1), ct.moduli,
                                     n).to_eval()
        got = ctx32.add_scalar(ct, scalar)
        for limb, want in zip(got.c0.limbs, (ct.c0 + constant).limbs):
            assert limb.dtype == want.dtype
            assert np.array_equal(limb, want)
        for limb, want in zip(got.c1.limbs, ct.c1.limbs):
            assert np.array_equal(limb, want)


class TestMultiplicative:
    @pytest.mark.parametrize("method", [HYBRID, KLSS])
    def test_square(self, ctx32, method):
        a = vec(ctx32, seed=5)
        ct = ctx32.rescale(ctx32.square(ctx32.encrypt(np.tile(a, 4)),
                                        method=method))
        assert err(ctx32, ct, a * a) < 10 * TOL

    @pytest.mark.parametrize("method", [HYBRID, KLSS])
    def test_cross_product(self, ctx32, method):
        a, b = vec(ctx32, seed=6), vec(ctx32, seed=7)
        ct = ctx32.multiply(ctx32.encrypt(np.tile(a, 4)),
                            ctx32.encrypt(np.tile(b, 4)), method=method)
        assert err(ctx32, ctx32.rescale(ct), a * b) < 10 * TOL

    def test_methods_agree(self, ctx32):
        a, b = vec(ctx32, seed=8), vec(ctx32, seed=9)
        ca = ctx32.encrypt(np.tile(a, 4))
        cb = ctx32.encrypt(np.tile(b, 4))
        h = ctx32.decrypt(ctx32.rescale(ctx32.multiply(ca, cb,
                                                       method=HYBRID)))
        k = ctx32.decrypt(ctx32.rescale(ctx32.multiply(ca, cb,
                                                       method=KLSS)))
        assert np.max(np.abs(h - k)) < 10 * TOL

    def test_scale_squares(self, ctx32):
        a = vec(ctx32)
        ct = ctx32.encrypt(np.tile(a, 4))
        prod = ctx32.multiply(ct, ct)
        assert prod.scale == pytest.approx(ct.scale * ct.scale)

    def test_rescale_drops_level_and_scale(self, ctx32):
        ct = ctx32.encrypt(vec(ctx32))
        prod = ctx32.multiply(ct, ct)
        rescaled = ctx32.rescale(prod)
        assert rescaled.level == prod.level - 1
        assert rescaled.scale == pytest.approx(
            prod.scale / prod.moduli[-1])

    def test_depth_chain(self, ctx32):
        a = vec(ctx32, seed=10) * 0.5
        ct = ctx32.encrypt(np.tile(a, 4))
        acc = ct
        expected = a.astype(complex)
        for depth in range(3):
            operand = ctx32.level_down(ct, acc.level)
            acc = ctx32.rescale(ctx32.multiply(acc, operand))
            expected = expected * a
            assert err(ctx32, acc, expected) < 1e-2

    def test_multiply_plain(self, ctx32):
        a, b = vec(ctx32, seed=11), vec(ctx32, seed=12)
        ct = ctx32.encrypt(np.tile(a, 4))
        pt = ctx32.plain_for(ct, np.tile(b, 4))
        out = ctx32.rescale(ctx32.multiply_plain(ct, pt))
        assert err(ctx32, out, a * b) < 10 * TOL

    def test_multiply_scalar(self, ctx32):
        a = vec(ctx32, seed=13)
        ct = ctx32.rescale(ctx32.multiply_scalar(
            ctx32.encrypt(np.tile(a, 4)), -1.75))
        assert err(ctx32, ct, -1.75 * a) < 10 * TOL

    def test_rescale_at_level_zero_rejected(self, ctx32):
        ct = ctx32.level_down(ctx32.encrypt(vec(ctx32)), 0)
        with pytest.raises(ValueError):
            ctx32.rescale(ct)


class TestRotation:
    @pytest.mark.parametrize("steps", [1, 2, 5, 15])
    def test_rotate(self, ctx32, steps):
        a = vec(ctx32, length=16, seed=14)
        ct = ctx32.rotate(ctx32.encrypt(a), steps)
        assert err(ctx32, ct, np.roll(a, -steps)) < TOL * 10

    def test_rotate_zero_is_identity(self, ctx32):
        a = vec(ctx32, seed=15)
        ct = ctx32.encrypt(np.tile(a, 4))
        assert err(ctx32, ctx32.rotate(ct, 0), a) < TOL

    def test_rotate_full_cycle(self, ctx32):
        a = vec(ctx32, seed=16)
        ct = ctx32.encrypt(np.tile(a, 4))
        n_slots = ctx32.params.num_slots
        assert err(ctx32, ctx32.rotate(ct, n_slots), a) < TOL

    @pytest.mark.parametrize("method", [HYBRID, KLSS])
    def test_rotate_methods(self, ctx32, method):
        a = vec(ctx32, length=16, seed=17)
        ct = ctx32.rotate(ctx32.encrypt(a), 3, method=method)
        assert err(ctx32, ct, np.roll(a, -3)) < TOL * 10

    def test_rotation_composes(self, ctx32):
        a = vec(ctx32, length=16, seed=18)
        ct = ctx32.encrypt(a)
        double = ctx32.rotate(ctx32.rotate(ct, 2), 3)
        single = ctx32.rotate(ct, 5)
        diff = np.max(np.abs(ctx32.decrypt(double) -
                             ctx32.decrypt(single)))
        assert diff < TOL * 10

    def test_conjugate(self, ctx32):
        a = vec(ctx32, seed=19, complex_vals=True)
        ct = ctx32.conjugate(ctx32.encrypt(np.tile(a, 4)))
        assert err(ctx32, ct, np.conj(a)) < TOL * 10


class TestHoisting:
    def test_matches_individual_rotations(self, ctx32):
        a = vec(ctx32, length=16, seed=20)
        ct = ctx32.encrypt(a)
        steps = [1, 2, 4, 7]
        hoisted = ctx32.hoisted_rotate(ct, steps)
        for s, rot in zip(steps, hoisted):
            direct = ctx32.decrypt(ctx32.rotate(ct, s))
            assert np.max(np.abs(ctx32.decrypt(rot) - direct)) < TOL * 10

    @pytest.mark.parametrize("method", [HYBRID, KLSS])
    def test_hoisting_correct_values(self, ctx32, method):
        a = vec(ctx32, length=16, seed=21)
        ct = ctx32.encrypt(a)
        for s, rot in zip([1, 3], ctx32.hoisted_rotate(ct, [1, 3],
                                                       method=method)):
            assert err(ctx32, rot, np.tile(np.roll(a, -s),
                                           1)) < TOL * 10 or \
                np.max(np.abs(ctx32.decrypt(rot)[:16] -
                              np.roll(a, -s))) < TOL * 10

    def test_empty_batch(self, ctx32):
        ct = ctx32.encrypt(vec(ctx32))
        assert ctx32.hoisted_rotate(ct, []) == []


class TestMethodSelector:
    def test_auto_uses_selector(self, params32):
        calls = []

        def selector(op, level, hoisting):
            calls.append((op, level, hoisting))
            return HYBRID

        ctx = CkksContext(params32, seed=3, method_selector=selector)
        a = np.tile(vec(ctx), 4)
        ct = ctx.encrypt(a)
        ctx.multiply(ct, ct, method="auto")
        assert calls and calls[0][0] == "HMult"

    def test_unknown_method_rejected(self, ctx32):
        ct = ctx32.encrypt(vec(ctx32))
        with pytest.raises(ValueError):
            ctx32.multiply(ct, ct, method="nonsense")


class TestDeeperContext:
    def test_bigger_ring_pipeline(self, ctx64):
        """End-to-end on N=64: mult -> rotate -> conj -> mult."""
        a = vec(ctx64, length=8, seed=30) * 0.5
        ct = ctx64.encrypt(np.tile(a, 4))
        sq = ctx64.rescale(ctx64.multiply(ct, ct, method=HYBRID))
        rot = ctx64.rotate(sq, 2, method=KLSS)
        expected = np.roll(a * a, -2)
        assert ctx64.noise_infinity(rot, expected) < 1e-2


@given(st.integers(0, 2**31 - 1), st.integers(1, 15))
@settings(max_examples=10, deadline=None)
def test_property_rotation_is_cyclic_shift(seed, steps):
    from repro.ckks import CkksContext as C, toy_params as tp
    ctx = _SHARED_CTX
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, 16)
    ct = ctx.rotate(ctx.encrypt(a), steps)
    assert ctx.noise_infinity(ct, np.roll(a, -steps)) < 1e-3


from repro.ckks import CkksContext as _C, toy_params as _tp  # noqa: E402
_SHARED_CTX = _C(_tp(ring_degree=32, max_level=3, alpha=2,
                     prime_bits=28), seed=7)
