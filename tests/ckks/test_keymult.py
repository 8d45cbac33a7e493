"""KeyMultPlan: the compiled KMU (and the numpy fallback a host without
it runs) against the per-digit reference loop."""

import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.backend import native
from repro.ckks import (CkksContext, modmath, primes, rns, set_ii_mini,
                        toy_params)
from repro.ckks.keys import HYBRID, KLSS, KeySwitchKey
from repro.ckks.keyswitch.hybrid import (KeyMultPlan,
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


def _key_at_ceiling(moduli, digits: int, n: int = 16):
    """A key and digits whose every word is ``q - 1``: each product
    is the largest a basis allows, so the sum meets its budget first."""
    def poly():
        return rns.RnsPoly([[q - 1] * n for q in moduli], moduli, rns.EVAL)
    key = KeySwitchKey(HYBRID, tuple((poly(), poly())
                                     for _ in range(digits)),
                       tuple(moduli), aux_count=1)
    return key, [poly() for _ in range(digits)]


def _assert_matches_reference(key, digits):
    plan = get_key_mult_plan(key)
    assert plan is not None
    got = plan.accumulate(plan.stack(digits))
    for g, w in zip(got, key_mult_accumulate_reference(digits, key)):
        _assert_poly_equal(g, w)


class TestTierSelection:
    """One uint64 path replaced the u64 / float / hilo tiers: every
    basis below 2^62 gets a plan, and its sums ride a 128-bit word."""

    def test_narrow_moduli_take_u64(self):
        moduli = (268369921, 268238849)          # 28-bit: sums fit 64 bits
        _assert_matches_reference(*_key_at_ceiling(moduli, 4))

    def test_wide_moduli_take_hilo(self):
        # 60-bit: every product carries into the sum's high word
        moduli = tuple(primes.ntt_primes(2, 60, 16))
        _assert_matches_reference(*_key_at_ceiling(moduli, 4))

    def test_digit_count_enters_budget(self):
        # 62-bit: (q-1)^2 is just under 2^124, so a sum below q takes
        # budget more products under 2^128; one past it, the kernel
        # folds the sum back below q first
        q = primes.ntt_primes(1, 62, 16)[0]
        budget = ((1 << 128) - q) // (q - 1) ** 2
        assert budget == 16
        for digits in (budget, budget + 1, 2 * budget + 1):
            _assert_matches_reference(*_key_at_ceiling((q,), digits))

    def test_beyond_62_bits_takes_the_reference_loop(self):
        moduli = tuple(primes.ntt_primes(1, 66, 16))
        key, digits = _key_at_ceiling(moduli, 2)
        assert modmath.block_dtype(moduli) is object
        assert get_key_mult_plan(key) is None
        got = key_mult_accumulate(digits, key)
        for g, w in zip(got, key_mult_accumulate_reference(digits, key)):
            _assert_poly_equal(g, w)


class TestBitExactness:
    def test_hybrid_set_ii_mini_shapes(self, mini_ctx):
        """At the paper's real word length (36/44-bit primes)."""
        ctx = mini_ctx
        level = ctx.params.max_level
        key = ctx.evaluation_key(HYBRID, level, "mult")
        plan = get_key_mult_plan(key)
        assert plan is not None
        digits = hybrid_decompose(_random_poly(ctx, level, seed=1),
                                  key, ctx.params.alpha)
        got0, got1 = plan.accumulate(plan.stack(digits))
        ref0, ref1 = key_mult_accumulate_reference(digits, key)
        _assert_poly_equal(got0, ref0)
        _assert_poly_equal(got1, ref1)

    def test_klss_wide_digits(self, mini_ctx):
        """At KLSS's 60-bit t-moduli, sums past 2^64."""
        ctx = mini_ctx
        level = ctx.params.max_level
        key = ctx.evaluation_key(KLSS, level, "mult")
        plan = get_key_mult_plan(key)
        assert plan is not None
        digits = klss_decompose(_random_poly(ctx, level, seed=2), key)
        got0, got1 = plan.accumulate(plan.stack(digits))
        ref0, ref1 = key_mult_accumulate_reference(digits, key)
        _assert_poly_equal(got0, ref0)
        _assert_poly_equal(got1, ref1)

    def test_u64_tier_at_toy_params(self, toy_ctx):
        ctx = toy_ctx
        level = 3
        key = ctx.evaluation_key(HYBRID, level, "mult")
        assert get_key_mult_plan(key) is not None
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


class TestWidthGrid:
    """The KMU against the reference loop from 26 to 62 bits, random
    and all-(q-1) words, three digits over a two-prime basis."""

    @pytest.mark.parametrize("bits", (26, 31, 36, 44, 46, 47, 52, 60, 62))
    def test_matches_the_reference_loop(self, bits):
        moduli = tuple(primes.ntt_primes(2, bits, 16))
        rng = np.random.default_rng(bits)

        def poly():
            return rns.RnsPoly(modmath.uniform_block(16, moduli, rng),
                               moduli, rns.EVAL)
        key = KeySwitchKey(HYBRID, tuple((poly(), poly())
                                         for _ in range(3)),
                           moduli, aux_count=1)
        _assert_matches_reference(key, [poly() for _ in range(3)])
        _assert_matches_reference(*_key_at_ceiling(moduli, 3))


def test_warmed_accumulate_allocates_only_its_output(mini_ctx, compiled_ntt):
    key = mini_ctx.evaluation_key(HYBRID, 3, "mult")
    plan = get_key_mult_plan(key)
    digits = hybrid_decompose(_random_poly(mini_ctx, 3, seed=8), key,
                              mini_ctx.params.alpha)
    stacked = plan.stack(digits)
    assert stacked is digits[0].data.base      # ModUp's block, no copy
    plan.accumulate(stacked)                               # warmup
    tracemalloc.start()
    try:
        plan.accumulate(stacked)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out_bytes = 2 * len(key.moduli) * key.parts[0][0].n * 8
    assert out_bytes <= peak < out_bytes + 16384


@pytest.mark.usefixtures("no_native")
class TestWidthGridUfunc(TestWidthGrid):
    """The same grid through the numpy fallback."""


@pytest.mark.usefixtures("no_native")
class TestBitExactnessUfunc(TestBitExactness):
    """The same cases on the host without a C compiler
    (tests/conftest.py): the ufunc engine under the decompositions'
    batch NTTs and the reference loop under every plan."""


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
            path = "native" if native.load() is not None else "numpy"
            assert counters["keyswitch.kmu." + path] == 1
            assert "keyswitch.kmu.object_fallback" not in counters
        finally:
            obs.configure(enabled=False, reset=True)
