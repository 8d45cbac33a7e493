"""Matrix-form BConv (software BConvU): exactness, error bound, caches.

The conversion must be *bit-exact* against the Python-int oracle
(:func:`rns.base_convert_reference`) at every datapath width, on the
compiled kernel and on the numpy fallback (``...Ufunc``): the width
grid below keeps the boundaries of the float-piece tiers that came
before the compiled loop (46/47, 51/52 and 62 bits), and the budget
tests put the 128-bit sum at its ceiling on 62-bit moduli.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ckks import modmath, primes, rns
from repro.ckks.ntt import transform_limbs
from repro.ckks.rns import (PLAN_CACHE_MAXSIZE, RnsPoly,
                            base_convert_reference, bconv_plan_cache_info,
                            clear_bconv_plan_cache, get_bconv_plan)
from repro.obs import tracer as obs_tracer

N = 32


def _chain(specs, exclude=(), n=N):
    """A basis from ``[(count, bits), ...]``, disjoint from ``exclude``."""
    found: list[int] = []
    for count, bits in specs:
        found += primes.ntt_primes(count, bits, n,
                                   exclude=set(found) | set(exclude))
    return tuple(found)


def _uniform_poly(rng, moduli, n=N):
    return RnsPoly(modmath.uniform_block(n, moduli, rng), moduli, rns.COEFF)


def _assert_bit_exact(got: RnsPoly, want: RnsPoly):
    assert got.moduli == want.moduli
    for a, b in zip(got.limbs, want.limbs):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(np.asarray(a, dtype=object),
                                      np.asarray(b, dtype=object))


# One entry per width boundary a conversion has had.  Set-II-mini gate
# shapes (ModUp digit 0/1, ModDown) appear verbatim.
WIDTH_CASES = [
    pytest.param([(4, 28)], [(3, 28)], id="toy-28"),
    pytest.param([(3, 30)], [(4, 30)], id="narrow-30"),
    pytest.param([(1, 44), (4, 36)], [(7, 36)], id="set2mini-modup-d0"),
    pytest.param([(2, 36)], [(1, 44), (9, 36)], id="set2mini-modup-d1"),
    pytest.param([(5, 37)], [(1, 44), (6, 36)], id="set2mini-moddown"),
    pytest.param([(1, 36)], [(6, 36)], id="rescale-single-src"),
    # the element-wise stage's multiplier mode flips at 46 | 47 bits
    # (51 | 52 before the float-quotient mode became the one in modmath)
    pytest.param([(3, 46)], [(3, 46)], id="float-ew-edge-46"),
    pytest.param([(3, 47)], [(3, 47)], id="past-float-ew-47"),
    pytest.param([(3, 51)], [(3, 51)], id="float-ew-edge-51"),
    pytest.param([(3, 52)], [(3, 52)], id="past-float-ew-52"),
    pytest.param([(2, 60)], [(3, 60)], id="klss-wide-60"),
    pytest.param([(2, 62)], [(2, 62)], id="uint64-edge-62"),
]


class TestMatrixBitExact:
    @pytest.mark.parametrize("src_spec,dst_spec", WIDTH_CASES)
    def test_matches_oracle_on_random_input(self, rng, src_spec, dst_spec):
        src = _chain(src_spec)
        dst = _chain(dst_spec, exclude=src)
        plan = get_bconv_plan(src, dst)
        assert plan.matrix_path, "width grid case must ride the matrix path"
        poly = _uniform_poly(rng, src)
        _assert_bit_exact(rns.base_convert(poly, dst),
                          base_convert_reference(poly, dst))

    @pytest.mark.parametrize("src_spec,dst_spec", WIDTH_CASES)
    def test_matches_oracle_on_extremal_residues(self, src_spec, dst_spec):
        # All-(q-1) limbs maximise every intermediate magnitude; any
        # overflow in the piece-gemm or the float-quotient fixups
        # shows up here first.
        src = _chain(src_spec)
        dst = _chain(dst_spec, exclude=src)
        poly = RnsPoly([np.full(N, q - 1, dtype=np.uint64) for q in src],
                       src, rns.COEFF)
        _assert_bit_exact(rns.base_convert(poly, dst),
                          base_convert_reference(poly, dst))
        zero = RnsPoly.zeros(N, src)
        _assert_bit_exact(rns.base_convert(zero, dst),
                          base_convert_reference(zero, dst))

    def test_object_modulus_falls_back_to_oracle(self, rng):
        # >62-bit moduli are beyond the uint64 datapath: the plan must
        # refuse the matrix path and base_convert must still agree with
        # the oracle (it *is* the oracle there).
        wide = primes.ntt_primes(1, 66, N)
        src = wide + list(primes.ntt_primes(2, 36, N))
        dst = _chain([(3, 36)], exclude=src)
        assert not get_bconv_plan(tuple(src), dst).matrix_path
        poly = _uniform_poly(rng, tuple(src))
        _assert_bit_exact(rns.base_convert(poly, dst),
                          base_convert_reference(poly, dst))

    def test_requires_coeff_form(self, rng):
        src = _chain([(3, 28)])
        poly = _uniform_poly(rng, src).to_eval()
        with pytest.raises(ValueError):
            rns.base_convert(poly, _chain([(2, 28)], exclude=src))


@pytest.mark.usefixtures("no_native")
class TestMatrixBitExactUfunc(TestMatrixBitExact):
    """The same grid on the host without a C compiler: the
    ``BasisKernel`` fallback of :meth:`BConvPlan.convert`."""


def _at_ceiling(src) -> RnsPoly:
    """Source words whose scaled residues ``y_i`` are all ``q_i - 1``:
    the largest every product of the matrix stage can get."""
    _, q_hat, _ = rns._crt_constants(src)
    return RnsPoly([[(q - 1) * hat % q] * N for q, hat in zip(src, q_hat)],
                   src, rns.COEFF)


class TestAccumulatorBudget:
    """A 128-bit sum below ``p`` takes ``budget`` products of 62-bit
    words; past that the kernel folds it back below ``p`` first."""

    @pytest.mark.parametrize("k_in", (16, 17, 32))
    def test_k_in_at_and_past_the_budget(self, k_in):
        dst = _chain([(2, 62)])
        src = _chain([(k_in, 62)], exclude=dst)
        q_max, p = max(src), max(dst)
        assert ((1 << 128) - p) // ((q_max - 1) * (p - 1)) == 16
        poly = _at_ceiling(src)
        _assert_bit_exact(rns.base_convert(poly, dst),
                          base_convert_reference(poly, dst))


def _allocated_peak(call) -> int:
    """Peak bytes traced while ``call`` runs once more after a warmup."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_warmed_convert_allocates_only_its_output(rng, compiled_ntt):
    src = _chain([(5, 37)])
    dst = _chain([(1, 44), (6, 36)], exclude=src)
    plan = get_bconv_plan(src, dst)
    poly = _uniform_poly(rng, src, n=4096)
    out_bytes = len(dst) * 4096 * 8
    assert out_bytes <= _allocated_peak(lambda: plan.convert(poly)) \
        < out_bytes + 16384


@given(seed=st.integers(0, 2**32 - 1), k_in=st.integers(1, 5),
       k_out=st.integers(1, 4), bits=st.sampled_from([26, 36, 44]),
       skip=st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_property_result_is_x_plus_e_times_q(seed, k_in, k_out, bits, skip):
    """HPS bound: output == x + e*Q (mod p_j) for ONE integer e in [0, k).

    The same ``e`` must hold across all target primes: we reconstruct
    the exact integer v = sum_i y_i * (Q/q_i) that the conversion
    approximates, check the kernel's limbs equal ``v mod p_j``
    bit-for-bit, and check ``e = v // Q`` stays below k.  ``skip``
    shifts the prime window so bases vary beyond their widths.
    """
    n = 16
    rng = np.random.default_rng(seed)
    pool = primes.ntt_primes(k_in + k_out + skip, bits, n)
    src = tuple(pool[skip:skip + k_in])
    dst = tuple(pool[skip + k_in:skip + k_in + k_out])
    big_q, q_hat, q_hat_inv = rns._crt_constants(src)
    poly = _uniform_poly(rng, src, n=n)
    out = rns.base_convert(poly, dst)
    for idx in range(n):
        v = sum(int(limb[idx]) * inv % q * hat
                for limb, q, hat, inv in zip(poly.limbs, src,
                                             q_hat, q_hat_inv))
        e = v // big_q
        assert 0 <= e < max(len(src), 1)
        for p, limb in zip(dst, out.limbs):
            assert int(limb[idx]) == v % p


# -- ModDown / exact_rescale after the matrix rewrite ---------------------

def _mod_down_reference(poly: RnsPoly, main_count: int) -> RnsPoly:
    """Pre-plan ModDown: oracle conversion + per-call inv_mod scalars,
    on Python ints."""
    q_moduli = poly.moduli[:main_count]
    p_moduli = poly.moduli[main_count:]
    aux = RnsPoly(poly.limbs[main_count:], p_moduli, rns.COEFF)
    approx = base_convert_reference(aux, q_moduli)
    big_p = rns.product(p_moduli)
    out = []
    for limb, conv, q in zip(poly.limbs, approx.limbs, q_moduli):
        inv = modmath.inv_mod(big_p % q, q)
        out.append((limb.astype(object) - conv.astype(object)) * inv % q)
    return RnsPoly(out, q_moduli, rns.COEFF)


def _exact_rescale_reference(poly: RnsPoly) -> RnsPoly:
    """Pre-plan rescale: fold + per-call inv_mod scalars, on Python
    ints."""
    last_q, last_limb = poly.moduli[-1], poly.limbs[-1]
    front = poly.moduli[:-1]
    out = []
    for limb, q in zip(poly.limbs[:-1], front):
        fold = last_limb.astype(object) % q
        inv = modmath.inv_mod(last_q % q, q)
        out.append((limb.astype(object) - fold) * inv % q)
    return RnsPoly(out, front, rns.COEFF)


class TestModDownRescaleSlack:
    # Set-II-mini widths: 44-bit first prime, 36-bit chain, 37-bit specials.
    MAIN = _chain([(1, 44), (6, 36)])
    AUX = _chain([(5, 37)], exclude=MAIN)

    def test_mod_down_bit_exact_vs_reference_pipeline(self, rng):
        poly = _uniform_poly(rng, self.MAIN + self.AUX)
        _assert_bit_exact(rns.mod_down(poly, len(self.MAIN)),
                          _mod_down_reference(poly, len(self.MAIN)))

    def test_mod_down_slack_within_documented_bound(self, rng):
        # round(P*x + noise / P) must land within len(aux)+1 of x — the
        # BConv slack (e < k) plus the rounding unit.
        big_p = rns.product(self.AUX)
        x = [int(rng.integers(-10**6, 10**6)) for _ in range(N)]
        noisy = [c * big_p + int(rng.integers(-1000, 1000)) for c in x]
        poly = rns.from_big_ints(noisy, self.MAIN + self.AUX, N)
        got = rns.compose_crt(rns.mod_down(poly, len(self.MAIN)))
        assert all(abs(g - c) <= len(self.AUX) + 1 for g, c in zip(got, x))

    def test_exact_rescale_bit_exact_vs_reference_pipeline(self, rng):
        poly = _uniform_poly(rng, self.MAIN)
        _assert_bit_exact(rns.exact_rescale(poly),
                          _exact_rescale_reference(poly))

    def test_exact_rescale_divides_exactly(self, rng):
        last = self.MAIN[-1]
        coeffs = [int(rng.integers(-10**9, 10**9)) * last for _ in range(N)]
        poly = rns.from_big_ints(coeffs, self.MAIN, N)
        got = rns.exact_rescale(poly)
        assert got.moduli == self.MAIN[:-1]
        assert rns.compose_crt(got) == [c // last for c in coeffs]


# -- plan cache: bound, eviction correctness, counters --------------------

@pytest.fixture()
def _fresh_bconv_cache():
    clear_bconv_plan_cache()
    yield
    clear_bconv_plan_cache()


class TestBConvPlanCache:
    def test_cache_has_explicit_maxsize(self):
        info = bconv_plan_cache_info()
        assert info.maxsize == PLAN_CACHE_MAXSIZE
        assert info.maxsize is not None and info.maxsize > 0

    def test_eviction_happens_beyond_maxsize(self, _fresh_bconv_cache):
        pool = primes.ntt_primes(PLAN_CACHE_MAXSIZE + 9, 18, 8)
        anchor = (pool[0],)
        for p in pool[1:]:
            get_bconv_plan(anchor, (p,))
        info = bconv_plan_cache_info()
        assert info.currsize == PLAN_CACHE_MAXSIZE
        assert info.misses >= PLAN_CACHE_MAXSIZE + 8

    def test_rebuilt_plan_is_bit_exact_after_churn(self, rng,
                                                   _fresh_bconv_cache):
        pool = primes.ntt_primes(PLAN_CACHE_MAXSIZE + 9, 18, 8)
        src = _chain([(3, 28)])
        dst = _chain([(3, 28)], exclude=src)
        poly = _uniform_poly(rng, src)
        first = get_bconv_plan(src, dst)
        before = rns.base_convert(poly, dst)
        for p in pool[1:]:            # churn: evicts the (src, dst) plan
            get_bconv_plan((pool[0],), (p,))
        rebuilt = get_bconv_plan(src, dst)
        assert rebuilt is not first   # it really was evicted
        _assert_bit_exact(rns.base_convert(poly, dst), before)

    def test_plan_shared_until_evicted(self, _fresh_bconv_cache):
        src = _chain([(2, 28)])
        dst = _chain([(2, 28)], exclude=src)
        assert get_bconv_plan(src, dst) is get_bconv_plan(src, dst)
        assert bconv_plan_cache_info().hits >= 1

    def test_hit_miss_counters(self, _fresh_bconv_cache):
        src = _chain([(2, 28)])
        dst = _chain([(2, 28)], exclude=src)
        tracer = obs_tracer.configure(enabled=True, reset=True)
        try:
            get_bconv_plan(src, dst)
            get_bconv_plan(src, dst)
            get_bconv_plan(src, dst)
            assert tracer.counter_value("rns.bconv.plan_miss") == 1
            assert tracer.counter_value("rns.bconv.plan_hit") == 2
        finally:
            obs_tracer.configure(enabled=False, reset=True)

    def test_matrix_and_fallback_counters(self, rng, _fresh_bconv_cache):
        src = _chain([(2, 28)])
        dst = _chain([(2, 28)], exclude=src)
        wide = tuple(primes.ntt_primes(2, 66, N))
        tracer = obs_tracer.configure(enabled=True, reset=True)
        try:
            rns.base_convert(_uniform_poly(rng, src), dst)
            rns.base_convert(_uniform_poly(rng, wide), dst)
            assert tracer.counter_value("rns.bconv.matrix") == 1
            assert tracer.counter_value("rns.bconv.object_fallback") == 1
            assert tracer.counter_value("rns.base_convert") == 2
        finally:
            obs_tracer.configure(enabled=False, reset=True)

    def test_two_lengths_share_a_plan_without_reallocating(
            self, rng, _fresh_bconv_cache):
        """One plan serving N (``rotate``) and r*N (``mod_down_batch``)
        keeps a warm workspace per length: interleaving them used to
        drop and reallocate both sets on every call."""
        src = _chain([(3, 28)])
        dst = _chain([(2, 28)], exclude=src)
        plan = get_bconv_plan(src, dst)
        short = _uniform_poly(rng, src).limbs
        long = _uniform_poly(rng, src, n=7 * N).limbs
        want = [plan.convert(short), plan.convert(long)]       # warm-up
        tracer = obs_tracer.configure(enabled=True, reset=True)
        try:
            for _ in range(3):
                got = [plan.convert(short), plan.convert(long)]
            assert tracer.counter_value("kernel.alloc.bconv") == 0
        finally:
            obs_tracer.configure(enabled=False, reset=True)
        for got_limbs, want_limbs in zip(got, want):
            for a, b in zip(got_limbs, want_limbs):
                assert np.array_equal(a, b)


# -- duplicate-moduli guard (mod_up mis-pair regression) ------------------

class TestDuplicateModuliGuard:
    def test_init_rejects_duplicate_moduli(self):
        q = primes.ntt_primes(1, 28, N)[0]
        limbs = [np.zeros(N, np.uint64), np.zeros(N, np.uint64)]
        with pytest.raises(ValueError, match="duplicate moduli"):
            RnsPoly(limbs, (q, q), rns.COEFF)

    def test_mod_up_complement_cannot_mispair(self, rng):
        # mod_up navigates the digit complement by modulus *value*
        # (``q not in own``); with the guard in place, a basis that
        # would mis-pair limbs can never be constructed, so every
        # extended digit keeps its own limbs verbatim.
        moduli = _chain([(4, 28)])
        aux = _chain([(2, 28)], exclude=moduli)
        poly = _uniform_poly(rng, moduli)
        digits = [[0, 1], [2, 3]]
        extended = rns.mod_up(poly, digits, moduli, aux)
        order = moduli + aux
        for indices, ext in zip(digits, extended):
            assert ext.moduli == order
            for i in indices:
                own = ext.limbs[order.index(moduli[i])]
                np.testing.assert_array_equal(own, poly.limbs[i])


# -- batched multi-limb NTT ----------------------------------------------

class TestTransformLimbs:
    def test_forward_matches_per_limb_plans(self, rng):
        moduli = _chain([(2, 28), (1, 44), (1, 36)])
        limbs = list(modmath.uniform_block(N, moduli, rng))
        batched = transform_limbs([limb.copy() for limb in limbs],
                                  moduli, N)
        for q, limb, got in zip(moduli, limbs, batched):
            np.testing.assert_array_equal(
                got, rns.get_plan(N, q).forward(limb))

    def test_inverse_roundtrip(self, rng):
        moduli = _chain([(3, 28), (1, 36)])
        limbs = list(modmath.uniform_block(N, moduli, rng))
        fwd = transform_limbs([limb.copy() for limb in limbs], moduli, N)
        back = transform_limbs(fwd, moduli, N, inverse=True)
        for limb, got in zip(limbs, back):
            np.testing.assert_array_equal(got, limb)

    def test_to_eval_agrees_with_per_limb_path(self, rng):
        moduli = _chain([(3, 28)])
        poly = _uniform_poly(rng, moduli)
        multi = poly.to_eval()
        for q, limb, got in zip(moduli, poly.limbs, multi.limbs):
            np.testing.assert_array_equal(
                got, rns.get_plan(N, q).forward(limb))
        back = multi.to_coeff()
        _assert_bit_exact(back, poly)
