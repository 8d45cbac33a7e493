"""KeyMultPlan: the fused lazy-reduction KeyMult vs its reference loop."""

import numpy as np
import pytest

from repro import obs
from repro.ckks import CkksContext, rns, set_ii_mini, toy_params
from repro.ckks.keys import HYBRID, KLSS
from repro.ckks.keyswitch.hybrid import (KeyMultPlan, _kmu_tier,
                                         get_key_mult_plan,
                                         hybrid_decompose,
                                         key_mult_accumulate,
                                         key_mult_accumulate_reference)
from repro.ckks.keyswitch.klss import klss_decompose


@pytest.fixture(scope="module")
def mini_ctx():
    return CkksContext(set_ii_mini(ring_degree=256, max_level=4), seed=3)


@pytest.fixture(scope="module")
def toy_ctx():
    return CkksContext(toy_params(ring_degree=32, max_level=4, alpha=2,
                                  prime_bits=28), seed=5)


def _random_poly(ctx, level, seed=0):
    rng = np.random.default_rng(seed)
    coeffs = [int(v) for v in rng.integers(-10**6, 10**6,
                                           size=ctx.params.ring_degree)]
    return rns.from_big_ints(coeffs, ctx.moduli_at(level),
                             ctx.params.ring_degree)


def _assert_poly_equal(a, b):
    assert a.moduli == b.moduli and a.form == b.form
    for x, y in zip(a.limbs, b.limbs):
        np.testing.assert_array_equal(np.asarray(x, dtype=object),
                                      np.asarray(y, dtype=object))


class TestTierSelection:
    def test_narrow_moduli_take_u64(self):
        # 28-bit moduli, 4 digits: 2*28 + 2 = 58 <= 64
        assert _kmu_tier((268369921, 268238849), 4) == "u64"

    def test_wide_moduli_take_hilo(self):
        # 60-bit moduli: 2*60 + ceil(log2 d) > 64 but <= 126
        q = (1 << 60) - 93
        assert _kmu_tier((q,), 4) == "hilo"

    def test_float_quotient_moduli_take_float(self):
        # 36/44-bit moduli: past the u64 budget, below 2^46
        assert _kmu_tier(((1 << 36) - 5, (1 << 44) - 17), 3) == "float"

    def test_digit_count_enters_budget(self):
        # 31-bit: 62 + ceil(log2 d) crosses 64 at d = 5, into the
        # float-quotient tier (any modulus below 2^46 lands there)
        q = (1 << 31) - 1
        assert _kmu_tier((q,), 4) == "u64"
        assert _kmu_tier((q,), 5) == "float"
        # 46-bit: 2 q d crosses 2^49 at d = 5, into hilo
        q = (1 << 46) - 21
        assert _kmu_tier((q,), 4) == "float"
        assert _kmu_tier((q,), 5) == "hilo"


class TestBitExactness:
    def test_hybrid_set_ii_mini_shapes(self, mini_ctx):
        """float tier at the paper's real word length (36-bit primes)."""
        ctx = mini_ctx
        level = ctx.params.max_level
        key = ctx.evaluation_key(HYBRID, level, "mult")
        plan = get_key_mult_plan(key)
        assert plan is not None and plan.tier == "float"
        digits = hybrid_decompose(_random_poly(ctx, level, seed=1),
                                  key, ctx.params.alpha)
        got0, got1 = plan.accumulate(plan.stack(digits))
        ref0, ref1 = key_mult_accumulate_reference(digits, key)
        _assert_poly_equal(got0, ref0)
        _assert_poly_equal(got1, ref1)

    def test_klss_wide_digits(self, mini_ctx):
        """hilo carry path at KLSS's 60-bit t-moduli."""
        ctx = mini_ctx
        level = ctx.params.max_level
        key = ctx.evaluation_key(KLSS, level, "mult")
        plan = get_key_mult_plan(key)
        assert plan is not None and plan.tier == "hilo"
        digits = klss_decompose(_random_poly(ctx, level, seed=2), key)
        got0, got1 = plan.accumulate(plan.stack(digits))
        ref0, ref1 = key_mult_accumulate_reference(digits, key)
        _assert_poly_equal(got0, ref0)
        _assert_poly_equal(got1, ref1)

    def test_u64_tier_at_toy_params(self, toy_ctx):
        ctx = toy_ctx
        level = 3
        key = ctx.evaluation_key(HYBRID, level, "mult")
        plan = get_key_mult_plan(key)
        assert plan is not None and plan.tier == "u64"
        digits = hybrid_decompose(_random_poly(ctx, level, seed=3),
                                  key, ctx.params.alpha)
        got0, got1 = key_mult_accumulate(digits, key)
        ref0, ref1 = key_mult_accumulate_reference(digits, key)
        _assert_poly_equal(got0, ref0)
        _assert_poly_equal(got1, ref1)

    def test_worst_case_residues(self, toy_ctx):
        """All-(q-1) digits: the lazy accumulators at their ceiling."""
        ctx = toy_ctx
        level = 2
        key = ctx.evaluation_key(HYBRID, level, "mult")
        plan = get_key_mult_plan(key)
        n = ctx.params.ring_degree
        digits = []
        for _ in range(key.num_digits):
            limbs = [np.full(n, q - 1, dtype=np.int64)
                     for q in key.moduli]
            digits.append(rns.RnsPoly(limbs, key.moduli, rns.EVAL))
        got0, got1 = plan.accumulate(plan.stack(digits))
        ref0, ref1 = key_mult_accumulate_reference(digits, key)
        _assert_poly_equal(got0, ref0)
        _assert_poly_equal(got1, ref1)


@pytest.mark.usefixtures("ufunc_ntt")
class TestBitExactnessUfunc(TestBitExactness):
    """The same tiers with the ufunc engine under the decompositions'
    batch NTTs (tests/conftest.py): the host without a C compiler."""


class TestDigitCountValidation:
    def test_exact_count_required(self, toy_ctx):
        ctx = toy_ctx
        level = 3
        key = ctx.evaluation_key(HYBRID, level, "mult")
        digits = hybrid_decompose(_random_poly(ctx, level, seed=4),
                                  key, ctx.params.alpha)
        assert len(digits) == key.num_digits
        for wrong in (digits[:-1], digits + digits[:1]):
            if len(wrong) == key.num_digits:
                continue
            with pytest.raises(ValueError, match="exactly"):
                key_mult_accumulate(wrong, key)

    def test_stack_validates_basis_and_form(self, toy_ctx):
        ctx = toy_ctx
        key = ctx.evaluation_key(HYBRID, 3, "mult")
        plan = get_key_mult_plan(key)
        wrong_basis = [_random_poly(ctx, 2, seed=5).to_eval()
                       for _ in range(key.num_digits)]
        with pytest.raises(ValueError):
            plan.stack(wrong_basis)
        coeff_digits = [_random_poly(ctx, 3, seed=6)
                        for _ in range(key.num_digits)]
        with pytest.raises(ValueError, match="eval"):
            KeyMultPlan(key).stack(coeff_digits)


class TestKeyStorage:
    @pytest.mark.parametrize("method", (HYBRID, KLSS))
    def test_plan_reads_the_keys_own_block(self, mini_ctx, method):
        key = mini_ctx.evaluation_key(method, 3, "mult")
        d, k, n = key.num_digits, len(key.moduli), key.parts[0][0].n
        assert key.weights.shape == (2, d, k, n)
        for j, (b_j, a_j) in enumerate(key.parts):
            assert np.shares_memory(b_j.data, key.weights[0, j])
            assert np.shares_memory(a_j.data, key.weights[1, j])
        plan = get_key_mult_plan(key)
        assert plan.tier == ("float" if method == HYBRID else "hilo")
        assert np.shares_memory(plan._w, key.weights)
        # no table of the plan's holds key-sized bytes of its own
        key_bytes = key.weights.nbytes
        assert all(not isinstance(getattr(plan, slot, None), np.ndarray)
                   or getattr(plan, slot).nbytes < key_bytes // d
                   or np.shares_memory(getattr(plan, slot), key.weights)
                   for slot in KeyMultPlan.__slots__)


class TestPlanCaching:
    def test_plan_cached_on_key(self, toy_ctx):
        key = toy_ctx.evaluation_key(HYBRID, 2, "mult")
        assert get_key_mult_plan(key) is get_key_mult_plan(key)

    def test_counters(self, toy_ctx):
        key = toy_ctx.evaluation_key(HYBRID, 1, "mult")
        assert get_key_mult_plan(key) is not None  # build outside trace
        obs.configure(enabled=True, reset=True)
        try:
            get_key_mult_plan(key)
            get_key_mult_plan(key)
            counters = obs.snapshot(obs.get_tracer())["counters"]
            assert counters["keyswitch.kmu.plan_hit"] == 2
            assert "keyswitch.kmu.plan_miss" not in counters
        finally:
            obs.configure(enabled=False, reset=True)

    def test_fused_counter_fires(self, toy_ctx):
        ctx = toy_ctx
        level = 3
        key = ctx.evaluation_key(HYBRID, level, "mult")
        digits = hybrid_decompose(_random_poly(ctx, level, seed=7),
                                  key, ctx.params.alpha)
        obs.configure(enabled=True, reset=True)
        try:
            key_mult_accumulate(digits, key)
            counters = obs.snapshot(obs.get_tracer())["counters"]
            assert counters["keyswitch.kmu.fused"] == 1
            assert counters["keyswitch.kmu.tier.u64"] == 1
            assert "keyswitch.kmu.object_fallback" not in counters
        finally:
            obs.configure(enabled=False, reset=True)
