"""The software TBM's 36-bit mode: the float-quotient lazy multiply.

``modmath.mul_float_lazy_into`` (and its variable-operand form) must
return the exact representative of ``a*w mod q`` in ``[0, 2q)`` for
every ``q < 2^46``, ``w < q`` and ``a < 2^49``; moduli from 47 bits up
must refuse it and keep the 64-bit Shoup/Barrett multiply.  On top of
the primitive: the per-row NTT engine against the Python-int
reference on mixed-mode bases in every row order, the batch plan
against per-limb scalar plans, KeyMult on the moduli of that mode
against its reference loop, the HELR-step ciphertexts against digests
taken at the commit before the mode existed, and the ``ntt.path.*``
and kernel counters.

The batch-plan and whole-program classes run on the kernels this host
has (the compiled NTT, KMU and BConv where there is a C compiler);
their ``...Ufunc`` subclasses rerun them under ``no_native``, the host
without one, where the two modes are two engines and KeyMult and
BConv run their numpy fallbacks.
"""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.backend.arena import WorkspaceArena
from repro.ckks import modmath, primes, rns
from repro.ckks.context import CkksContext
from repro.ckks.keys import HYBRID, KLSS, KeySwitchKey
from repro.ckks.keyswitch import hybrid as hy
from repro.ckks.ntt import (BatchNttPlan, FusedNttEngine, NttPlan,
                            get_batch_plan)
from repro.ckks.params import set_ii_mini
from repro.ckks.rns import RnsPoly, get_plan

FLOAT_BITS = (26, 31, 36, 44, 46)
SHOUP_BITS = (47, 60, 62)
A_LIMIT = 1 << 49


def _prime(bits: int, n: int = 4096) -> int:
    """The largest ``bits``-bit NTT prime for ``N = n``."""
    return primes.ntt_primes(1, bits, n)[0]


def _fixed(a, w, q):
    """The fixed-operand form on uint64 vectors; lazy ``[0, 2q)``."""
    a = np.asarray(a, dtype=np.uint64)
    w = np.asarray(w, dtype=np.uint64)
    out = np.empty_like(a)
    scratch = (np.empty_like(a), np.empty_like(a))
    modmath.mul_float_lazy_into(a, w, modmath.float_companion(w, q),
                                np.uint64(q), out, scratch)
    return out


def _variable(a, b, q):
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    out = np.empty_like(a)
    scratch = (np.empty_like(a), np.empty_like(a))
    modmath.mul_float_lazy_var_into(a, b, modmath.float_companion(1, q),
                                    np.uint64(q), out, scratch)
    return out


def _assert_lazy_exact(got, a, w, q):
    for r, x, y in zip(got.tolist(), a, w):
        assert 0 <= r < 2 * q, (r, x, y, q)
        assert r % q == x * y % q, (r, x, y, q)


class TestPrimitive:
    @pytest.mark.parametrize("form", (_fixed, _variable))
    @pytest.mark.parametrize("bits", FLOAT_BITS)
    def test_edge_grid(self, bits, form):
        q = _prime(bits)
        edge_a = [0, 1, q - 1, q, 2 * q - 1, 2 * q, 4 * q - 1,
                  A_LIMIT - 1, A_LIMIT - 2, (1 << 48) + 1]
        edge_w = [0, 1, 2, q // 2, q - 2, q - 1]
        a, w = zip(*itertools.product(edge_a, edge_w))
        _assert_lazy_exact(form(a, w, q), a, w, q)

    @pytest.mark.parametrize("form", (_fixed, _variable))
    def test_largest_46_bit_prime_all_q_minus_one(self, form):
        q = _prime(46)
        assert q.bit_length() == 46 and (q - 1) % 8192 == 0
        a = [q - 1] * 64
        _assert_lazy_exact(form(a, a, q), a, a, q)
        top = [A_LIMIT - 1] * 64
        _assert_lazy_exact(form(top, a, q), top, a, q)

    @settings(deadline=None, max_examples=200)
    @given(bits=st.sampled_from(FLOAT_BITS),
           pairs=st.lists(st.tuples(st.integers(0, A_LIMIT - 1),
                                    st.integers(0, (1 << 46) - 1)),
                          min_size=1, max_size=32))
    def test_matches_python_ints(self, bits, pairs):
        q = _prime(bits)
        a = [x for x, _ in pairs]
        w = [y % q for _, y in pairs]
        _assert_lazy_exact(_fixed(a, w, q), a, w, q)
        _assert_lazy_exact(_variable(a, w, q), a, w, q)

    @pytest.mark.parametrize("bits", FLOAT_BITS)
    def test_out_may_alias_the_operand(self, bits):
        q = _prime(bits)
        rng = np.random.default_rng(bits)
        a = rng.integers(0, 4 * q, size=256, dtype=np.uint64)
        w = rng.integers(0, q, size=256, dtype=np.uint64)
        want = _fixed(a, w, q)
        scratch = (np.empty_like(a), np.empty_like(a))
        modmath.mul_float_lazy_into(a, w, modmath.float_companion(w, q),
                                    np.uint64(q), a, scratch)
        np.testing.assert_array_equal(a, want)


class TestModeSelection:
    """One predicate, and nothing beyond 46 bits runs the float form."""

    @pytest.mark.parametrize("bits", FLOAT_BITS)
    def test_narrow_side(self, bits):
        assert modmath.fits_float_quotient(_prime(bits))

    @pytest.mark.parametrize("bits", SHOUP_BITS)
    def test_wide_side_refuses(self, bits):
        q = _prime(bits)
        assert not modmath.fits_float_quotient(q)
        with pytest.raises(ValueError):
            modmath.float_companion(1, q)
        kernel = modmath.BasisKernel((q,))
        [(_rows, _q, const)] = kernel._runs
        assert isinstance(const, tuple)          # Barrett constants
        [(w, companion)] = kernel.row_scalars([q - 1])
        assert companion.dtype == np.uint64
        assert int(companion[0, 0]) == ((q - 1) << 64) // q
        plan = get_plan(64, _prime(bits, 64))
        with pytest.raises(ValueError):
            plan.fused_tables(float_quotient=True)
        with pytest.raises(ValueError):
            FusedNttEngine(64, plan.modulus, *plan.fused_tables(),
                           WorkspaceArena("ntt"),
                           per_row=False, float_quotient=True)

    def test_batch_plan_splits_rows_by_mode(self, no_native):
        # the ufunc engine's layout; the compiled kernel has one mode
        n = 64
        moduli = (_prime(60, n), _prime(36, n), _prime(62, n),
                  _prime(44, n), _prime(28, n))
        plan = BatchNttPlan(n, moduli)
        modes = [(rows.stop - rows.start, engine.float_quotient)
                 for rows, engine in plan._engines]
        assert modes == [(3, True), (2, False)]
        # float-quotient rows first, basis order kept inside a mode
        assert plan._batch_rows == [1, 3, 4, 0, 2]

    def test_shared_modulus_plans_stay_on_the_64_bit_multiply(self):
        plan = NttPlan(64, _prime(36, 64))
        plan.forward(np.arange(64, dtype=np.uint64))
        assert plan._engine.float_quotient is False


class TestKernelOps:
    """``BasisKernel`` on both sides of the choice, against Python."""

    @settings(deadline=None, max_examples=60)
    @given(bits=st.sampled_from(FLOAT_BITS[2:] + SHOUP_BITS),
           seed=st.integers(0, 2**32 - 1))
    def test_mul_forms_match_python_ints(self, bits, seed):
        q = _prime(bits)
        kernel = modmath.BasisKernel((q,))
        assert kernel.dtype == np.uint64
        rng = np.random.default_rng(seed)
        a = rng.integers(0, q, size=(1, 33), dtype=np.uint64)
        b = rng.integers(0, q, size=(1, 33), dtype=np.uint64)
        a[0, :3] = b[0, :3] = q - 1
        scalar = int(rng.integers(0, 2**62))
        assert kernel.mul(a, b)[0].tolist() == [
            int(x) * int(y) % q for x, y in zip(a[0], b[0])]
        want = [int(x) * scalar % q for x in a[0]]
        got = kernel.mul_rows(a, kernel.row_scalars([scalar]))
        assert got[0].tolist() == want


def _limb(q: int, n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, q, size=n,
                                                dtype=np.uint64)


class TestMixedModeNtt:
    @pytest.mark.parametrize("n", (32, 64))      # odd and even log2 N
    def test_every_row_order_matches_the_reference(self, n):
        base = (_prime(36, n), _prime(44, n), _prime(60, n),
                primes.ntt_primes(2, 36, n)[1])
        limbs = {q: _limb(q, n, q % 1000) for q in base}
        limbs[base[0]][:] = base[0] - 1          # worst case rides along
        want_f, want_i = {}, {}
        for q in base:
            oracle = NttPlan(n, q)             # object rows: the reference
            want_f[q] = oracle.forward(limbs[q].astype(object)
                                       ).astype(np.uint64)
            want_i[q] = oracle.inverse(limbs[q].astype(object)
                                       ).astype(np.uint64)
        for order in itertools.permutations(base):
            plan = BatchNttPlan(n, order)
            rows = [limbs[q] for q in order]
            for got, q in zip(plan.forward(rows), order):
                np.testing.assert_array_equal(got, want_f[q])
            for got, q in zip(plan.inverse(rows), order):
                np.testing.assert_array_equal(got, want_i[q])

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 2**32 - 1), n_log2=st.sampled_from((5, 6)))
    def test_batch_plan_equals_per_limb_plans(self, seed, n_log2):
        self._batch_plan_equals_per_limb_plans(seed, n_log2)

    def _batch_plan_equals_per_limb_plans(self, seed, n_log2):
        n = 1 << n_log2
        moduli = (tuple(primes.ntt_primes(2, 36, n))
                  + (_prime(60, n), _prime(44, n), _prime(46, n),
                     _prime(47, n)))
        limbs = [_limb(q, n, seed + i) for i, q in enumerate(moduli)]
        batch = get_batch_plan(n, moduli)
        fwd = batch.forward(limbs)
        for got, q, x in zip(fwd, moduli, limbs):
            np.testing.assert_array_equal(got, get_plan(n, q).forward(x))
        for got, q, x in zip(batch.inverse(fwd), moduli, fwd):
            np.testing.assert_array_equal(got, get_plan(n, q).inverse(x))


@pytest.mark.usefixtures("no_native")
class TestMixedModeNttUfunc(TestMixedModeNtt):
    # one executor per @given function (hypothesis), hence declared
    # again; the fixture only swaps the butterfly for every example
    @settings(deadline=None, max_examples=20,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), n_log2=st.sampled_from((5, 6)))
    def test_batch_plan_equals_per_limb_plans(self, seed, n_log2):
        self._batch_plan_equals_per_limb_plans(seed, n_log2)


def _synthetic_key(moduli, digits: int, n: int, seed: int):
    rng = np.random.default_rng(seed)

    def poly():
        return RnsPoly(modmath.uniform_block(n, moduli, rng), moduli,
                       rns.EVAL)

    key = KeySwitchKey(HYBRID, tuple((poly(), poly())
                                     for _ in range(digits)),
                       tuple(moduli), aux_count=1)
    return key, [poly() for _ in range(digits)]


class TestFloatKeyMultTier:
    """KeyMult on 36/44/46-bit moduli, where a float-quotient tier ran
    until the compiled KMU replaced it."""

    @pytest.mark.parametrize("digits", (1, 2, 7))
    def test_matches_the_reference_loop(self, digits):
        n = 64
        moduli = (_prime(44, n),) + tuple(primes.ntt_primes(3, 36, n))
        key, decomposed = _synthetic_key(moduli, digits, n, digits)
        for poly in decomposed[:1]:                  # worst case
            for limb, q in zip(poly.limbs, moduli):
                limb[:8] = q - 1
        plan = hy.get_key_mult_plan(key)
        got = plan.accumulate(plan.stack(decomposed))
        want = hy.key_mult_accumulate_reference(decomposed, key)
        for g, w in zip(got, want):
            assert g.moduli == w.moduli and g.form == w.form
            for x, y in zip(g.limbs, w.limbs):
                np.testing.assert_array_equal(x, y)

    def test_largest_modulus_at_its_digit_limit(self):
        n = 64
        q = _prime(46, n)
        key, decomposed = _synthetic_key((q,), 4, n, 46)
        for part in key.parts:
            for poly in part:
                poly.limbs[0][:] = q - 1
        for poly in decomposed:
            poly.limbs[0][:] = q - 1
        plan = hy.get_key_mult_plan(key)
        got0, _ = plan.accumulate(plan.stack(decomposed))
        assert got0.limbs[0].tolist() == [4 * (q - 1) ** 2 % q] * n


# -- whole programs ------------------------------------------------------------

# sha256[:16] over every limb of (c0, c1) after each of the five
# ciphertext ops of benchmarks/e2e's ``helr_step`` (keys generated
# first, as its set-up does) at Set-II-mini N=512, taken at commit
# 6ab4b64 — the parent of the float-quotient mode.
HELR_STEP_DIGESTS = {
    1: ["ee933067a87dc071", "4f56a9513e5c25b1", "6e279cca09ad9b6c",
        "f869f6526d0c3f8b", "3b7d3893c5d5a30a"],
    2: ["22c55c3e902d2fc7", "a4810ab853202bb8", "403001b9f8f85839",
        "f15d9f325aa55d16", "b407dfab2385244d"],
}


def _digest(ct) -> str:
    sha = hashlib.sha256()
    for poly in (ct.c0, ct.c1):
        for limb in poly.limbs:
            sha.update(np.ascontiguousarray(limb).astype(np.uint64)
                       .tobytes())
    return sha.hexdigest()[:16]


class _HelrStep:
    """benchmarks/e2e ``helr_step``: set-up, then one iteration."""

    def __init__(self, seed: int, n: int = 512):
        params = set_ii_mini(ring_degree=n)
        self.ctx = ctx = CkksContext(params, seed=seed)
        top = params.max_level
        ctx.evaluation_key(HYBRID, top, "mult")
        ctx.evaluation_key(KLSS, top - 2, "mult")
        ctx.rotation_key(HYBRID, top - 3, 1)
        rng = np.random.default_rng(seed)
        slots = params.num_slots
        self.message = (rng.uniform(-1, 1, slots)
                        + 1j * rng.uniform(-1, 1, slots))
        self.weights = rng.uniform(0.25, 1.0, slots)

    def iterate(self) -> list:
        """The ciphertext after each op; decrypts the last one."""
        ctx = self.ctx
        cts = [ctx.encrypt(self.message)]
        cts.append(ctx.multiply_rescale(cts[-1], cts[-1], method=HYBRID))
        cts.append(ctx.rescale(ctx.multiply_plain(
            cts[-1], ctx.plain_for(cts[-1], self.weights))))
        cts.append(ctx.multiply_rescale(cts[-1], cts[-1], method=KLSS))
        cts.append(ctx.rotate(cts[-1], 1, method=HYBRID))
        expected = np.roll((self.message ** 2 * self.weights) ** 2, -1)
        assert np.max(np.abs(ctx.decrypt(cts[-1]) - expected)) < 1e-2
        return cts


class TestHelrStep:
    @pytest.mark.parametrize("seed", sorted(HELR_STEP_DIGESTS))
    def test_ciphertexts_equal_the_parent_commit(self, seed):
        got = [_digest(ct) for ct in _HelrStep(seed).iterate()]
        assert got == HELR_STEP_DIGESTS[seed]

    def test_full_size_primes_never_leave_the_vectorised_paths(self):
        """Set-II-mini words (36/44-bit Q and P, 60-bit T) are the
        paper's widths: key generation plus a step that decrypts under
        the bar (``iterate`` asserts 1e-2) may not touch the object-int
        path in any kernel or conversion, and must run both TBM modes."""
        obs.configure(enabled=True, reset=True)
        try:
            _HelrStep(4).iterate()
            counters = obs.get_tracer().metrics.counters()
        finally:
            obs.configure(enabled=False, reset=True)
        assert not {name: value for name, value in counters.items()
                    if name.endswith(".object")}
        assert counters["ntt.path.wide36"] > 0
        assert counters["ntt.path.wide60"] > 0
        assert counters.get("rns.bconv.object_fallback", 0) == 0
        assert counters["rns.bconv.matrix"] > 0

    def test_rows_per_mode_and_tier_counters(self):
        step = _HelrStep(3)
        step.iterate()                   # every plan built, untraced
        obs.configure(enabled=True, reset=True)
        try:
            step.iterate()
            counters = obs.get_tracer().metrics.counters()
        finally:
            obs.configure(enabled=False, reset=True)
        # the 221 limb transforms of one step: 203 on 36/44-bit
        # primes, 18 on the 60-bit KLSS words
        assert counters["ntt.path.wide36"] == 203
        assert counters["ntt.path.wide60"] == 18
        assert counters["ntt.path.wide"] == 221
        # KeyMult of HMult, KLSS and HRot and the step's ten
        # conversions, each on the compiled kernel where this host has
        # it and on the numpy fallback otherwise
        path = "native" if self.native_rows(1) else "numpy"
        assert counters["keyswitch.kmu." + path] == 3
        assert counters["rns.bconv." + path] == 10
        assert not {name for name in counters
                    if name.startswith(("keyswitch.kmu.", "rns.bconv."))
                    and name.endswith(("native", "numpy"))
                    and not name.endswith(path)}
        # every limb transform on one butterfly: the compiled kernel
        # where this host has it, the ufunc engine's arena otherwise
        assert counters.get("ntt.kernel.native", 0) == self.native_rows(221)

    @staticmethod
    def native_rows(rows: int) -> int:
        from repro.backend import native

        return rows if native.load() is not None else 0

    def test_obs_off_counts_nothing(self):
        obs.configure(enabled=False, reset=True)
        _HelrStep(5).iterate()
        assert not obs.get_tracer().metrics.counters()


@pytest.mark.usefixtures("no_native")
class TestHelrStepUfunc(TestHelrStep):
    """The same digests and counters on the host without a compiler."""


# The same digest over the hoisted baby rotations and the rescaled
# result of benchmarks/e2e's ``hoisted_bsgs`` matvec (dim 16, baby 4:
# its smoke shape) at Set-II-mini N=512, taken at commit 41714fe, the
# last commit whose ``RnsPoly`` held a list of limb vectors.
HOISTED_BSGS_DIGESTS = {
    1: ["0863f9a15490795a", "03bd5322d7e872bb", "2fc7453d3e96f9f4",
        "9915ec5f813c7f82"],
    2: ["b1f67555c7fe4c8e", "58ec0aa30ea20c41", "2a4ca79d6147e8c6",
        "f3bb2fd18658f2b4"],
}


class _HoistedBsgs:
    """benchmarks/e2e ``hoisted_bsgs``: set-up, then one matvec."""

    def __init__(self, seed: int, n: int = 512, dim: int = 16,
                 baby: int = 4):
        params = set_ii_mini(ring_degree=n)
        self.ctx = ctx = CkksContext(params, seed=seed)
        rng = np.random.default_rng(seed)
        self.baby, giant = baby, dim // baby
        top = params.max_level
        for step in list(range(1, baby)) + [g * baby
                                            for g in range(1, giant)]:
            ctx.rotation_key(HYBRID, top, step)
        self.matrix = rng.uniform(-1, 1, (dim, dim)) / 8.0
        self.vector = rng.uniform(-1, 1, dim)
        self.ct = ctx.encrypt(self.vector)
        rows = np.arange(dim)
        self.plains = [
            [ctx.plain_for(self.ct, np.roll(
                self.matrix[rows, (rows + g * baby + b) % dim], g * baby))
             for b in range(baby)]
            for g in range(giant)]
        self.slots = params.num_slots

    def iterate(self) -> list:
        """The hoisted baby rotations and the result; checks the result."""
        ctx, bs = self.ctx, self.baby
        babies = [self.ct] + ctx.hoisted_rotate(self.ct, range(1, bs),
                                                method=HYBRID)
        result = None
        for g, row in enumerate(self.plains):
            partial = ctx.multiply_plain(babies[0], row[0])
            for baby, plain in zip(babies[1:], row[1:]):
                partial = ctx.add(partial, ctx.multiply_plain(baby, plain))
            if g:
                partial = ctx.rotate(partial, g * bs, method=HYBRID)
            result = partial if result is None else ctx.add(result, partial)
        result = ctx.rescale(result)
        dim = len(self.vector)
        expected = np.tile(self.matrix @ self.vector, self.slots // dim)
        assert np.max(np.abs(ctx.decrypt(result) - expected)) < 1e-2
        return babies[1:] + [result]


class TestHoistedBsgs:
    @pytest.mark.parametrize("seed", sorted(HOISTED_BSGS_DIGESTS))
    def test_ciphertexts_equal_the_list_layout(self, seed):
        got = [_digest(ct) for ct in _HoistedBsgs(seed).iterate()]
        assert got == HOISTED_BSGS_DIGESTS[seed]


@pytest.mark.usefixtures("no_native")
class TestHoistedBsgsUfunc(TestHoistedBsgs):
    """The same digests on the host without a compiler."""
