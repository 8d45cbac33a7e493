"""The fused ModDown+Rescale kernel and ``multiply_rescale``.

Three layers of evidence:

* the batched eval-domain kernel is bit-identical to an independent
  coefficient-domain oracle evaluating the same ``(Z - BConv(Z mod
  (D*P))) * (D*P)^{-1}`` formula through per-pair object conversions;
* ``multiply_rescale`` matches ``multiply`` + ``rescale`` on level and
  scale bookkeeping exactly, and on plaintext values to within the
  CKKS noise floor (the two paths round once vs twice, so residues
  legitimately differ by sub-unit slack);
* the fused kernel's conversion plans share the bounded LRU plan
  caches with the sequential path — repeated switching at several
  levels must hit the cache on the second pass with zero evictions.
"""

import numpy as np
import pytest

from repro.ckks import rns
from repro.ckks.context import CkksContext
from repro.ckks.keys import HYBRID, KLSS
from repro.ckks.keyswitch.hybrid import (
    _mod_down_rescale_ready,
    hybrid_decompose,
    key_mult_accumulate,
    mod_down_rescale_pair,
    mod_down_rescale_reference,
)
from repro.ckks.params import toy_params

MAX_TOY_ERROR = 1e-4


@pytest.fixture(scope="module")
def ctx():
    return CkksContext(toy_params(ring_degree=256), seed=3)


@pytest.fixture(scope="module")
def message(ctx):
    base = np.array([0.5, -1.0, 0.25, 1.5], dtype=np.complex128)
    return np.tile(base, ctx.params.num_slots // 4)


def _fused_inputs(ctx, ct):
    """The accumulator and tensor halves multiply_rescale feeds the
    fused kernel, rebuilt through the public pipeline pieces."""
    key = ctx.evaluation_key(HYBRID, ct.level, "mult")
    d2 = ct.c1 * ct.c1
    decomposed = hybrid_decompose(d2.to_coeff(), key, ctx.params.alpha)
    acc0, acc1 = key_mult_accumulate(decomposed, key)
    d0 = ct.c0 * ct.c0
    d1 = ct.c0 * ct.c1 + ct.c1 * ct.c0
    return key, acc0, acc1, d0, d1


class TestKernelVsReference:
    @pytest.mark.parametrize("drop", [1, 2])
    def test_bit_identical_to_oracle(self, ctx, message, drop):
        ct = ctx.encrypt(message)
        key, acc0, acc1, d0, d1 = _fused_inputs(ctx, ct)
        assert _mod_down_rescale_ready(acc0, acc1, key.aux_count, drop)
        f0, f1 = mod_down_rescale_pair(acc0, acc1, d0, d1,
                                       key.aux_count, drop)
        for fused, acc, d in ((f0, acc0, d0), (f1, acc1, d1)):
            ref = mod_down_rescale_reference(
                acc.to_coeff(), d.to_coeff(), key.aux_count, drop)
            got = fused.to_coeff()
            assert got.moduli == ref.moduli
            for i, (a, b) in enumerate(zip(got.limbs, ref.limbs)):
                assert np.array_equal(a, b), f"limb {i} differs"

    def test_rejects_coeff_form_inputs(self, ctx, message):
        ct = ctx.encrypt(message)
        key, acc0, acc1, d0, d1 = _fused_inputs(ctx, ct)
        with pytest.raises(ValueError):
            mod_down_rescale_pair(acc0, acc1, d0.to_coeff(), d1,
                                  key.aux_count, 1)

    def test_rejects_full_drop(self, ctx, message):
        """drop == q_count would leave no primes; the guard refuses."""
        ct = ctx.encrypt(message)
        key, acc0, acc1, d0, d1 = _fused_inputs(ctx, ct)
        q_count = len(acc0.moduli) - key.aux_count
        assert not _mod_down_rescale_ready(acc0, acc1, key.aux_count,
                                           q_count)
        with pytest.raises(ValueError):
            mod_down_rescale_pair(acc0, acc1, d0, d1,
                                  key.aux_count, q_count)


@pytest.mark.usefixtures("no_native")
class TestKernelVsReferenceUfunc(TestKernelVsReference):
    """The same kernel with the ufunc engine under every batch NTT
    (tests/conftest.py): the host without a C compiler."""


class TestMultiplyRescale:
    def test_matches_sequential_bookkeeping(self, ctx, message):
        ct = ctx.encrypt(message)
        fused = ctx.multiply_rescale(ct, ct, method=HYBRID)
        seq = ctx.rescale(ctx.multiply(ct, ct, method=HYBRID))
        assert fused.level == seq.level == ct.level - 1
        assert fused.scale == pytest.approx(seq.scale, rel=1e-12)
        assert fused.c0.moduli == seq.c0.moduli

    def test_decrypts_correctly(self, ctx, message):
        ct = ctx.encrypt(message)
        fused = ctx.multiply_rescale(ct, ct, method=HYBRID)
        err = np.max(np.abs(ctx.decrypt(fused) - message ** 2))
        assert err < MAX_TOY_ERROR

    def test_double_rescale_bookkeeping(self, ctx, message):
        """rescales=2 drops two primes in one fused conversion.  (The
        toy scale makes a double-rescaled product numerically
        meaningless, so value correctness is covered by the drop=2
        kernel-vs-oracle test; this checks the ciphertext metadata.)"""
        ct = ctx.encrypt(message)
        out = ctx.multiply_rescale(ct, ct, method=HYBRID, rescales=2)
        assert out.level == ct.level - 2
        seq = ctx.rescale(ctx.rescale(
            ctx.multiply(ct, ct, method=HYBRID)))
        assert out.scale == pytest.approx(seq.scale, rel=1e-12)
        assert out.c0.moduli == seq.c0.moduli

    def test_klss_falls_back_bit_exactly(self, ctx, message):
        """KLSS has no fused kernel; the fallback is the sequential
        pipeline and therefore bit-identical to it."""
        ct = ctx.encrypt(message)
        fused = ctx.multiply_rescale(ct, ct, method=KLSS)
        seq = ctx.rescale(ctx.multiply(ct, ct, method=KLSS))
        assert fused.level == seq.level and fused.scale == seq.scale
        for a, b in zip(fused.c0.limbs, seq.c0.limbs):
            assert np.array_equal(a, b)
        for a, b in zip(fused.c1.limbs, seq.c1.limbs):
            assert np.array_equal(a, b)

    def test_rejects_zero_rescales(self, ctx, message):
        ct = ctx.encrypt(message)
        with pytest.raises(ValueError):
            ctx.multiply_rescale(ct, ct, rescales=0)

    def test_fused_kernel_counter(self, ctx, message):
        from repro import obs
        from repro.obs.tracer import get_tracer
        ct = ctx.encrypt(message)
        was_enabled = obs.enabled()
        obs.configure(enabled=True, reset=True)
        try:
            ctx.multiply_rescale(ct, ct, method=HYBRID)
            counters = get_tracer().metrics.counters()
        finally:
            obs.configure(enabled=was_enabled, reset=True)
        assert counters.get("keyswitch.moddown.fused_rescale") == 1
        assert counters.get("keyswitch.moddown.fused_rescale_drop") == 1


@pytest.mark.usefixtures("no_native")
class TestMultiplyRescaleUfunc(TestMultiplyRescale):
    pass


class TestPlanCacheCompatibility:
    def test_steady_state_has_zero_evictions(self, ctx, message):
        """Fused switches at several levels build their conversion
        plans once; a second identical pass is all cache hits and the
        bounded LRU never evicts (the fused basis keys are
        canonicalised exactly like the sequential path's)."""
        rns.clear_bconv_plan_cache()
        ct = ctx.encrypt(message)

        def one_pass(ct):
            out = ctx.multiply_rescale(ct, ct, method=HYBRID)
            return ctx.multiply_rescale(out, out, method=HYBRID,
                                        rescales=2)
        one_pass(ct)
        info_first = rns.bconv_plan_cache_info()
        assert info_first.misses > 0
        one_pass(ct)
        info_second = rns.bconv_plan_cache_info()
        assert info_second.misses == info_first.misses
        assert info_second.hits > info_first.hits
        assert rns.plan_cache_evictions()["bconv"] == 0

    def test_fused_and_sequential_share_rescale_plan(self, ctx,
                                                     message):
        """The drop=1 fused conversion uses the same (src, dst) basis
        pair the exact-rescale path would: one plan serves both."""
        ct = ctx.encrypt(message)
        key, acc0, acc1, d0, d1 = _fused_inputs(ctx, ct)
        q_count = len(acc0.moduli) - key.aux_count
        src = acc0.moduli[q_count - 1:]
        dst = acc0.moduli[:q_count - 1]
        plan_before = rns.get_bconv_plan(src, dst)
        info_before = rns.bconv_plan_cache_info()
        mod_down_rescale_pair(acc0, acc1, d0, d1, key.aux_count, 1)
        info_after = rns.bconv_plan_cache_info()
        assert info_after.misses == info_before.misses
        assert rns.get_bconv_plan(src, dst) is plan_before
