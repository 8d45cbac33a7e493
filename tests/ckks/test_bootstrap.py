"""Functional bootstrapping: every stage verified, plus end-to-end."""

import numpy as np
import pytest

from repro.ckks import CkksContext, linalg
from repro.ckks.bootstrap import Bootstrapper, bootstrappable_toy_params
from repro.ckks.rns import compose_crt


@pytest.fixture(scope="module")
def ctx():
    return CkksContext(bootstrappable_toy_params(), seed=5)


@pytest.fixture(scope="module")
def bs(ctx):
    return Bootstrapper(ctx)


@pytest.fixture(scope="module")
def msg():
    return np.array([0.5, -0.25, 0.125, 0.375] * 4)


@pytest.fixture(scope="module")
def refreshed(ctx, bs, msg):
    """One full bootstrap, shared by the end-to-end assertions."""
    ct = ctx.encrypt(msg, level=0)
    return bs.bootstrap(ct)


class TestSetup:
    def test_sine_fit_is_tight(self, bs):
        assert bs.sine_fit_error < 1e-6

    def test_linear_transforms_are_inverse(self, bs, ctx):
        """StC(CtS(z)) must be the identity on slot vectors."""
        n = ctx.params.num_slots
        rng = np.random.default_rng(0)
        z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        w = bs.cts_a @ z + bs.cts_b @ np.conj(z)
        back = bs.stc_c @ w + bs.stc_d @ np.conj(w)
        assert np.max(np.abs(back - z)) < 1e-9

    def test_cts_produces_real_coefficient_split(self, bs, ctx):
        """For a real coefficient vector c, w = c_lo + i c_hi."""
        n = ctx.params.ring_degree
        from repro.ckks import encoding
        rng = np.random.default_rng(1)
        c = rng.integers(-100, 100, n).astype(float)
        emb = encoding.reference_embedding_matrix(n)
        z = emb @ c
        w = bs.cts_a @ z + bs.cts_b @ np.conj(z)
        assert np.max(np.abs(w - (c[:n // 2] + 1j * c[n // 2:]))) < 1e-8


class TestModRaise:
    def test_level_and_scale(self, ctx, bs, msg):
        ct = ctx.encrypt(msg, level=0)
        raised = bs.mod_raise(ct)
        assert raised.level == ctx.params.max_level
        assert raised.scale == ct.scale

    def test_overflow_polynomial_is_small_integer(self, ctx, bs, msg):
        ct = ctx.encrypt(msg, level=0)
        s0 = ctx.secret_key.as_rns(ct.moduli)
        base = np.array(compose_crt((ct.c0 + ct.c1 * s0).to_coeff()),
                        dtype=float)
        raised = bs.mod_raise(ct)
        s = ctx.secret_key.as_rns(raised.moduli)
        lifted = np.array(compose_crt(
            (raised.c0 + raised.c1 * s).to_coeff()), dtype=float)
        overflow = (lifted - base) / ctx.q_chain[0]
        assert np.allclose(overflow, np.round(overflow))
        assert np.max(np.abs(overflow)) <= bs.i_bound

    def test_rejects_higher_level(self, ctx, bs, msg):
        with pytest.raises(ValueError):
            bs.mod_raise(ctx.encrypt(msg, level=2))


class TestStages:
    def test_coeff_to_slot_accuracy(self, ctx, bs, msg):
        ct = ctx.encrypt(msg, level=0)
        raised = bs.mod_raise(ct)
        s = ctx.secret_key.as_rns(raised.moduli)
        coeffs = np.array(compose_crt(
            (raised.c0 + raised.c1 * s).to_coeff()), dtype=float)
        n = ctx.params.ring_degree
        expected = (coeffs[:n // 2] + 1j * coeffs[n // 2:]) / raised.scale
        got = ctx.decrypt(bs.coeff_to_slot(raised))
        assert np.max(np.abs(got - expected)) < 1e-2

    def test_eval_mod_removes_q0_multiples(self, ctx, bs, msg):
        ct = ctx.encrypt(msg, level=0)
        s0 = ctx.secret_key.as_rns(ct.moduli)
        base = np.array(compose_crt((ct.c0 + ct.c1 * s0).to_coeff()),
                        dtype=float)
        raised = bs.mod_raise(ct)
        slots = bs.coeff_to_slot(raised)
        reduced = ctx.decrypt(bs.eval_mod(slots))
        n = ctx.params.ring_degree
        expected = (base[:n // 2] + 1j * base[n // 2:]) / raised.scale
        assert np.max(np.abs(reduced - expected)) < 5e-2


class TestEndToEnd:
    def test_level_is_restored(self, ctx, refreshed):
        assert refreshed.level >= 3

    def test_message_survives(self, ctx, refreshed, msg):
        got = ctx.decrypt(refreshed)[:16]
        assert np.max(np.abs(got - msg)) < 5e-2

    def test_refreshed_ciphertext_is_usable(self, ctx, refreshed, msg):
        squared = ctx.rescale(ctx.multiply(refreshed, refreshed))
        got = ctx.decrypt(squared)[:16]
        assert np.max(np.abs(got - msg ** 2)) < 8e-2

    def test_different_message(self, ctx, bs):
        other = np.array([-0.4, 0.3, -0.2, 0.1] * 4)
        out = bs.bootstrap(ctx.encrypt(other, level=0))
        assert np.max(np.abs(ctx.decrypt(out)[:16] - other)) < 5e-2


class TestChebyshevEvaluation:
    def test_matches_numpy_chebval(self, ctx):
        rng = np.random.default_rng(3)
        x = np.array([0.9, -0.7, 0.2, -0.1] * 4)
        ct = ctx.encrypt(x)
        cheb = rng.uniform(-1, 1, 13)  # degree 12
        got = ctx.decrypt(linalg.evaluate_chebyshev(ctx, ct, cheb))[:16]
        expected = np.polynomial.chebyshev.chebval(x, cheb)
        assert np.max(np.abs(got.real - expected)) < 1e-3

    def test_high_degree_stability(self, ctx):
        x = np.array([0.5, -0.5, 0.25, 0.75] * 4)
        ct = ctx.encrypt(x)
        cheb = np.zeros(29)
        cheb[-1] = 1.0  # pure T_28
        got = ctx.decrypt(linalg.evaluate_chebyshev(ctx, ct, cheb))[:16]
        expected = np.cos(28 * np.arccos(x))
        assert np.max(np.abs(got.real - expected)) < 1e-2

    def test_degree_zero_rejected(self, ctx):
        ct = ctx.encrypt(np.ones(16) * 0.5)
        with pytest.raises(ValueError):
            linalg.evaluate_chebyshev(ctx, ct, [1.0])
