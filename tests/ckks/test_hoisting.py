"""Hoisted rotations: batching, bit-exactness oracles, key validation."""

import numpy as np
import pytest

from repro import obs
from repro.ckks import CkksContext, rns, toy_params
from repro.ckks.keys import HYBRID, KLSS
from repro.ckks.keyswitch.hoisting import (hoisted_rotations,
                                           hoisted_rotations_reference,
                                           permute_and_accumulate,
                                           validate_hoisting_keys)
from repro.ckks.keyswitch.hybrid import (get_key_mult_plan,
                                         hybrid_decompose,
                                         key_mult_accumulate,
                                         mod_down_batch, mod_down_pair)
from repro.ckks import encoding

STEPS = [1, 2, 5]


@pytest.fixture(scope="module")
def ctx():
    return CkksContext(toy_params(ring_degree=32, max_level=4, alpha=2,
                                  prime_bits=28), seed=11)


@pytest.fixture(scope="module")
def ct(ctx):
    msg = np.arange(ctx.params.num_slots) / ctx.params.num_slots
    return ctx.encrypt(msg)


def _galois(ctx, steps):
    return [encoding.rotation_galois_element(ctx.params.ring_degree, s)
            for s in steps]


def _keys(ctx, method, galois, level=None):
    level = ctx.params.max_level if level is None else level
    return {g: ctx.evaluation_key(method, level, ("galois", g))
            for g in galois}


def _assert_ct_equal(a, b):
    for pa, pb in ((a.c0, b.c0), (a.c1, b.c1)):
        assert pa.moduli == pb.moduli and pa.form == pb.form
        for x, y in zip(pa.limbs, pb.limbs):
            np.testing.assert_array_equal(x, y)


class TestBitExactness:
    @pytest.mark.parametrize("method", [HYBRID, KLSS])
    def test_matches_reference_pipeline(self, ctx, ct, method):
        """New pipeline vs the pre-plan oracle: bit-identical."""
        gal = _galois(ctx, STEPS)
        keys = _keys(ctx, method, gal)
        new = hoisted_rotations(ct, gal, keys, ctx.params.alpha)
        ref = hoisted_rotations_reference(ct, gal, keys, ctx.params.alpha)
        for a, b in zip(new, ref):
            _assert_ct_equal(a, b)

    def test_klss_matches_per_rotation_rotate(self, ctx, ct):
        """KLSS decomposition is exact, so hoisting commutes with the
        automorphism bit for bit."""
        hoisted = ctx.hoisted_rotate(ct, STEPS, method="klss")
        for s, h in zip(STEPS, hoisted):
            _assert_ct_equal(h, ctx.rotate(ct, s, method="klss"))

    def test_hybrid_matches_per_rotation_noise(self, ctx, ct):
        """Hybrid ModUp is approximate (BConv slack), so hoisting is
        only noise-equivalent to per-rotation rotation — both must
        decrypt to the rotated message."""
        msg = np.arange(ctx.params.num_slots) / ctx.params.num_slots
        hoisted = ctx.hoisted_rotate(ct, STEPS, method="hybrid")
        for s, h in zip(STEPS, hoisted):
            assert ctx.noise_infinity(h, np.roll(msg, -s)) < 1e-4
            single = ctx.rotate(ct, s, method="hybrid")
            assert ctx.noise_infinity(single, np.roll(msg, -s)) < 1e-4

    def test_conjugation_in_batch(self, ctx, ct):
        g_conj = encoding.conjugation_galois_element(ctx.params.ring_degree)
        gal = _galois(ctx, [1]) + [g_conj]
        keys = _keys(ctx, HYBRID, gal)
        new = hoisted_rotations(ct, gal, keys, ctx.params.alpha)
        ref = hoisted_rotations_reference(ct, gal, keys, ctx.params.alpha)
        for a, b in zip(new, ref):
            _assert_ct_equal(a, b)

    def test_empty_batch(self, ctx, ct):
        assert hoisted_rotations(ct, [], {}, ctx.params.alpha) == []


@pytest.mark.usefixtures("no_native")
class TestBitExactnessUfunc(TestBitExactness):
    """The same pipelines with the ufunc engine under every batch NTT
    (tests/conftest.py): the host without a C compiler."""


class TestZeroNttLoop:
    def test_post_decomposition_loop_runs_no_ntt(self, ctx, ct):
        """What hoisting buys: after the one shared decomposition, the
        per-rotation stage is a gather and a KeyMult.  Not one
        ``ntt.*`` counter may move, however many rotations run."""
        gal = _galois(ctx, [1, 2, 3, 5])
        keys = _keys(ctx, HYBRID, gal)
        plans = {g: get_key_mult_plan(keys[g]) for g in gal}
        stacked = plans[gal[0]].stack(hybrid_decompose(
            ct.c1.to_coeff(), keys[gal[0]], ctx.params.alpha))
        obs.configure(enabled=True, reset=True)
        try:
            for g in gal:
                permute_and_accumulate(stacked, plans[g], g)
            counters = obs.get_tracer().metrics.counters()
        finally:
            obs.configure(enabled=False, reset=True)
        assert counters["keyswitch.hoisting.auto_gather"] == len(gal)
        assert not {name: value for name, value in counters.items()
                    if name.startswith("ntt.")}


class TestModDownBatch:
    def test_batch_matches_pairwise(self, ctx):
        """One batched ModDown vs pair-at-a-time: bit-identical."""
        level = ctx.params.max_level
        key = ctx.evaluation_key(HYBRID, level, "mult")
        rng = np.random.default_rng(8)
        pairs = []
        for seed in range(3):
            coeffs = [int(v) for v in rng.integers(-10**6, 10**6,
                                                   size=ctx.params.ring_degree)]
            poly = rns.from_big_ints(coeffs, ctx.moduli_at(level),
                                     ctx.params.ring_degree)
            digits = hybrid_decompose(poly, key, ctx.params.alpha)
            pairs.append(key_mult_accumulate(digits, key))
        batched = mod_down_batch(pairs, key.aux_count)
        for (acc0, acc1), (got0, got1) in zip(pairs, batched):
            ref0, ref1 = mod_down_pair(acc0, acc1, key.aux_count)
            for got, ref in ((got0, ref0), (got1, ref1)):
                assert got.moduli == ref.moduli and got.form == ref.form
                for x, y in zip(got.limbs, ref.limbs):
                    np.testing.assert_array_equal(x, y)

    def test_mismatched_bases_rejected(self, ctx):
        level = ctx.params.max_level
        key = ctx.evaluation_key(HYBRID, level, "mult")
        poly = rns.from_big_ints([1] * ctx.params.ring_degree,
                                 ctx.moduli_at(level),
                                 ctx.params.ring_degree)
        digits = hybrid_decompose(poly, key, ctx.params.alpha)
        acc0, acc1 = key_mult_accumulate(digits, key)
        other = rns.from_big_ints([1] * ctx.params.ring_degree,
                                  ctx.moduli_at(1),
                                  ctx.params.ring_degree).to_eval()
        with pytest.raises(ValueError):
            mod_down_batch([(acc0, acc1), (other, other)], key.aux_count)


@pytest.mark.usefixtures("no_native")
class TestModDownBatchUfunc(TestModDownBatch):
    pass


class TestKeyValidation:
    def test_accepts_uniform_geometry(self, ctx):
        gal = _galois(ctx, STEPS)
        keys = _keys(ctx, HYBRID, gal)
        assert validate_hoisting_keys(gal, keys) is keys[gal[0]]

    def test_names_mismatched_galois_element(self, ctx):
        """Error must say which key diverges and in which fields."""
        gal = _galois(ctx, STEPS)
        keys = _keys(ctx, HYBRID, gal)
        keys[gal[-1]] = ctx.evaluation_key(KLSS, ctx.params.max_level,
                                           ("galois", gal[-1]))
        with pytest.raises(ValueError) as exc:
            validate_hoisting_keys(gal, keys)
        message = str(exc.value)
        assert f"g={gal[-1]}" in message
        assert "method" in message
        assert f"reference g={gal[0]}" in message

    def test_names_level_mismatch(self, ctx):
        """A key generated at the wrong level diverges in its basis."""
        gal = _galois(ctx, STEPS)
        keys = _keys(ctx, HYBRID, gal)
        keys[gal[1]] = ctx.evaluation_key(HYBRID, 2, ("galois", gal[1]))
        with pytest.raises(ValueError, match=f"g={gal[1]}.*moduli"):
            validate_hoisting_keys(gal, keys)

    def test_mixed_keys_rejected_by_hoisted_rotations(self, ctx, ct):
        gal = _galois(ctx, STEPS)
        keys = _keys(ctx, HYBRID, gal)
        keys[gal[0]] = ctx.evaluation_key(KLSS, ctx.params.max_level,
                                          ("galois", gal[0]))
        with pytest.raises(ValueError):
            hoisted_rotations(ct, gal, keys, ctx.params.alpha)


class TestHoistedRotateDedup:
    def test_repeated_steps_share_work(self, ctx, ct):
        outs = ctx.hoisted_rotate(ct, [1, 2, 1], method="hybrid")
        _assert_ct_equal(outs[0], outs[2])
        assert outs[0] is not outs[2]       # copies, not aliases

    def test_counters(self, ctx, ct):
        gal = _galois(ctx, STEPS)
        keys = _keys(ctx, HYBRID, gal)
        hoisted_rotations(ct, gal, keys, ctx.params.alpha)  # warm plans
        obs.configure(enabled=True, reset=True)
        try:
            hoisted_rotations(ct, gal, keys, ctx.params.alpha)
            counters = obs.snapshot(obs.get_tracer())["counters"]
            assert counters["keyswitch.hoisting.batch"] == 1
            assert counters["keyswitch.hoisting.rotations"] == len(STEPS)
            assert counters["keyswitch.hoisting.auto_gather"] == len(STEPS)
        finally:
            obs.configure(enabled=False, reset=True)
