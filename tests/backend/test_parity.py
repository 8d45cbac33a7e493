"""Bit-exact parity: every hot kernel, numpy vs the selected backend.

The grid spans both uint64 width tiers — narrow (<= 31-bit, int64
residues) and wide (<= 62-bit, split-limb Barrett/Shoup) — at the
paper's word lengths.  The fake backend runs numpy's own arithmetic,
so any mismatch here is a residency/threading bug in the backend
plumbing, not a numerical one.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.backend as backend_mod
from repro.ckks import modmath, primes, rns
from repro.ckks.ntt import get_batch_plan
from repro.ckks.rns import get_auto_plan, get_bconv_plan, get_plan

N = 64

#: one prime per width tier actually used by the parameter sets:
#: 26/28 narrow, 31 the narrow/wide boundary, 36 Set-II's word, 60/62
#: the wide-path ceiling.
WIDTH_GRID = [26, 28, 31, 36, 60, 62]


def _prime(bits: int) -> int:
    return primes.ntt_primes(1, bits, N)[0]


def _host(array) -> np.ndarray:
    return np.asarray(backend_mod.to_host(array))


def _rand(q: int, size, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, q, size=size, dtype=np.uint64)


@pytest.fixture(params=WIDTH_GRID, ids=lambda b: f"{b}bit")
def q(request):
    return _prime(request.param)


class TestModmulParity:
    def test_elementwise_ops(self, q, fake_backend):
        kn = modmath.get_kernel(q)
        kf = modmath.get_kernel(q, backend=fake_backend)
        assert kn is not kf and kf.backend is fake_backend
        a, b = _rand(q, N, 1), _rand(q, N, 2)
        for op in ("mul", "add", "sub"):
            ref = getattr(kn, op)(kn.asresidues(a), kn.asresidues(b))
            got = getattr(kf, op)(kf.asresidues(a), kf.asresidues(b))
            np.testing.assert_array_equal(_host(got), _host(ref), op)

    def test_scalar_and_shoup_mul(self, q, fake_backend):
        kn = modmath.get_kernel(q)
        kf = modmath.get_kernel(q, backend=fake_backend)
        a = _rand(q, N, 3)
        w = int(_rand(q, 1, 4)[0]) or 1
        np.testing.assert_array_equal(
            _host(kf.mul_scalar(kf.asresidues(a), w)),
            _host(kn.mul_scalar(kn.asresidues(a), w)))
        if kn.dtype == np.uint64:
            pair = kn.shoup(w)
            np.testing.assert_array_equal(
                _host(kf.mul_shoup(kf.asresidues(a), *pair)),
                _host(kn.mul_shoup(kn.asresidues(a), *pair)))

    @given(values=st.lists(st.integers(0, (1 << 62) - 58),
                           min_size=1, max_size=16),
           bits=st.sampled_from(WIDTH_GRID))
    @settings(max_examples=40, deadline=None)
    def test_mulmod_matches_object_math(self, values, bits):
        q = _prime(bits)
        fake = backend_mod.get_backend("fake")
        a = np.array([v % q for v in values], dtype=np.uint64)
        b = np.array([(v * 3 + 1) % q for v in values], dtype=np.uint64)
        got = _host(fake.mulmod(a, b, q)).astype(object)
        expected = (a.astype(object) * b.astype(object)) % q
        np.testing.assert_array_equal(got, expected)


class TestNttParity:
    def test_scalar_plan_roundtrip(self, q, fake_backend):
        pn = get_plan(N, q)
        pf = get_plan(N, q, backend=fake_backend)
        a = _rand(q, N, 5)
        fwd_n, fwd_f = pn.forward(a), pf.forward(a)
        np.testing.assert_array_equal(_host(fwd_f), _host(fwd_n))
        np.testing.assert_array_equal(_host(pf.inverse(fwd_f)),
                                      _host(pn.inverse(fwd_n)))
        np.testing.assert_array_equal(_host(pf.inverse(fwd_f)), a)

    def test_batch_plan_roundtrip(self, fake_backend):
        moduli = tuple(_prime(b) for b in (28, 36, 60))
        pn = get_batch_plan(N, moduli)
        pf = get_batch_plan(N, moduli, backend=fake_backend)
        limbs = [_rand(qi, N, 6 + i) for i, qi in enumerate(moduli)]
        fwd_n = pn.forward(limbs)
        fwd_f = pf.forward(limbs)
        for gn, gf in zip(fwd_n, fwd_f):
            np.testing.assert_array_equal(_host(gf), _host(gn))
        for back, orig in zip(pf.inverse(fwd_f), limbs):
            np.testing.assert_array_equal(_host(back), orig)


class TestBConvParity:
    def test_convert_and_down_scale(self, fake_backend):
        src = tuple(primes.ntt_primes(3, 36, N))
        dst = tuple(primes.ntt_primes(2, 28, N))
        pn = get_bconv_plan(src, dst)
        pf = get_bconv_plan(src, dst, backend=fake_backend)
        assert pf.matrix_path == pn.matrix_path
        rows = [_rand(qi, N, 10 + i) for i, qi in enumerate(src)]
        for gn, gf in zip(pn.convert(rows), pf.convert(rows)):
            np.testing.assert_array_equal(_host(gf), _host(gn))


class TestKeyMultParity:
    def test_accumulate(self, fake_backend):
        from repro.ckks import CkksContext, set_ii_mini
        from repro.ckks.keys import HYBRID
        from repro.ckks.keyswitch import hybrid as hy

        ctx = CkksContext(set_ii_mini(ring_degree=64, max_level=3),
                          seed=11)
        level = ctx.params.max_level
        key = ctx.evaluation_key(HYBRID, level, "mult")
        rng = np.random.default_rng(12)
        coeffs = [int(v) for v in rng.integers(-10**6, 10**6, size=64)]
        poly = rns.from_big_ints(coeffs, ctx.moduli_at(level), 64)
        digits = hy.hybrid_decompose(poly, key, ctx.params.alpha)
        pn = hy.get_key_mult_plan(key)
        pf = hy.get_key_mult_plan(key, backend=fake_backend)
        assert pf is not pn and pf.tier == pn.tier
        ref = pn.accumulate(pn.stack(digits))
        got = pf.accumulate(pf.stack(digits))
        for gp, rp in zip(got, ref):
            for gl, rl in zip(gp.limbs, rp.limbs):
                np.testing.assert_array_equal(_host(gl), _host(rl))


class TestAutoPlanParity:
    def test_eval_gather(self, q, fake_backend):
        pn = get_auto_plan(N, 5)
        pf = get_auto_plan(N, 5, backend=fake_backend)
        assert pf is not pn
        limb = _rand(q, N, 20)
        np.testing.assert_array_equal(
            _host(fake_backend.gather(fake_backend.from_host(limb),
                                      pf.eval_perm)),
            limb[np.asarray(_host(pn.eval_perm))])

    def test_coeff_tables_match(self, fake_backend):
        pn = get_auto_plan(N, 7)
        pf = get_auto_plan(N, 7, backend=fake_backend)
        np.testing.assert_array_equal(_host(pf.coeff_dest),
                                      _host(pn.coeff_dest))
        np.testing.assert_array_equal(_host(pf.coeff_negate),
                                      _host(pn.coeff_negate))


class TestServeParity:
    def test_stacked_batch(self, fake_backend):
        from repro.serve.engine import ServeExecutor
        from repro.serve.jobs import get_shape

        trace = get_shape("helr-mini-step")
        ex_n = ServeExecutor(ring_degree=64)
        ex_f = ServeExecutor(ring_degree=64, backend=fake_backend)
        seeds = [ex_n.request_seed(i) for i in range(3)]
        sn = ex_n.run_batch(trace, seeds)
        sf = ex_f.run_batch(trace, seeds)
        for ct in sn:
            np.testing.assert_array_equal(_host(sf[ct]), _host(sn[ct]))
        for row in range(len(seeds)):
            assert ex_f.digest_row(sf, row) == ex_n.digest_row(sn, row)


class TestWholeStepParity:
    def test_ckks_step_under_fake_default_equals_numpy(self):
        """One HMult + HRot at Set-II-mini words with the process
        default switched: same decrypted slots to the last bit, every
        kernel dispatched to the requested backend, none downgraded."""
        from repro import obs
        from repro.ckks import CkksContext, set_ii_mini
        from repro.ckks.keys import HYBRID

        def step():
            ctx = CkksContext(set_ii_mini(ring_degree=256, max_level=4),
                              seed=23)
            message = np.tile(np.array([0.75, -1.25, 0.5, 1.5]),
                              ctx.params.num_slots // 4)
            ct = ctx.encrypt(message)
            ct = ctx.rotate(ctx.multiply_rescale(ct, ct, method=HYBRID),
                            1, method=HYBRID)
            slots = ctx.decrypt(ct)
            assert np.max(np.abs(slots - np.roll(message ** 2, -1))) < 1e-2
            return slots

        on_numpy = step()
        backend_mod.select("fake")      # conftest restores the default
        obs.configure(enabled=True, reset=True)
        try:
            on_fake = step()
            counters = obs.get_tracer().metrics.counters()
        finally:
            obs.configure(enabled=False, reset=True)
        np.testing.assert_array_equal(on_fake, on_numpy)
        assert counters["backend.dispatch.fake"] > 0
        assert "backend.fallback" not in counters
