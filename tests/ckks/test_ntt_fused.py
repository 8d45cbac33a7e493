"""The NTT butterflies against the one reference; allocation ledger.

The fused engine (merged two-stage butterflies, cross-stage lazy
reduction, arena-pooled workspaces) and the compiled kernel that
replaces it under batch plans where a C compiler exists must be
**bit-identical** to the reference — the radix-2 network on Python ints
that any ``NttPlan(n, q)`` runs on object rows — across the whole
supported width grid, in both engine modes (shared modulus: scalar
plans and the rows entry point; per-row moduli: batch plans), and a
warmed plan must allocate nothing.  The reference itself is anchored
to the schoolbook negacyclic convolution, so the chain of trust is
schoolbook -> reference -> engine.  Allocation is asserted by the
``kernel.alloc.ntt`` obs ledger of the engine's arena.

Batch-plan classes run on the butterfly this host has; their
``...Ufunc`` subclasses rerun them under the ``ufunc_ntt`` fixture (the
host without a compiler), and ``TestCompiledKernel`` is skipped where
no kernel can be built.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.backend.arena import ledger_counters
from repro.ckks import primes
from repro.ckks.ntt import (BatchNttPlan, NttPlan, clear_batch_plan_cache,
                            get_batch_plan,
                            negacyclic_convolution_reference)
from repro.ckks.rns import clear_plan_cache, get_plan

#: the supported uint64-datapath width grid, 26 to 62 bits; 62 bits
#: is the lazy-domain headroom edge (4q < 2^64).
WIDTHS = (26, 28, 31, 36, 60, 62)

N = 64


def _prime(bits: int, n: int = N) -> int:
    return primes.ntt_primes(1, bits, n)[0]


def _limb(q: int, n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, q, size=n,
                                                dtype=np.uint64)


def _host(arr) -> np.ndarray:
    return np.asarray(arr, dtype=np.uint64)


def _boxed(x) -> np.ndarray:
    return np.array([int(v) for v in x], dtype=object)


def _reference(n: int, q: int) -> SimpleNamespace:
    """The one reference: the Python-int network of an (N, q) plan of
    its own, reached by handing it object rows."""
    plan = NttPlan(n, q)
    return SimpleNamespace(forward=lambda x: plan.forward(_boxed(x)),
                           inverse=lambda x: plan.inverse(_boxed(x)),
                           forward_rows=plan.forward_rows)


class TestReference:
    """The reference network itself, against the schoolbook product —
    at a narrow, a wide and a beyond-uint64 modulus."""

    @pytest.mark.parametrize("bits", (28, 36, 70))
    def test_pointwise_product_is_negacyclic_convolution(self, bits):
        n = 16
        q = _prime(bits, n)
        plan = _reference(n, q)
        rng = np.random.default_rng(bits)
        a = [int(v) % q for v in rng.integers(0, 2**62, size=n)]
        b = [int(v) % q for v in rng.integers(0, 2**62, size=n)]
        product = plan.forward(a) * plan.forward(b) % q
        np.testing.assert_array_equal(
            plan.inverse(product),
            negacyclic_convolution_reference(a, b, q))

    @pytest.mark.parametrize("bits", (28, 36, 70))
    def test_roundtrip_is_identity(self, bits):
        q = _prime(bits)
        plan = _reference(N, q)
        x = [int(v) % q for v in
             np.random.default_rng(bits).integers(0, 2**62, size=N)]
        assert list(plan.inverse(plan.forward(x))) == x


class TestScalarDifferential:
    """Fused scalar plans against the reference, per width."""

    @settings(deadline=None, max_examples=60)
    @given(bits=st.sampled_from(WIDTHS),
           n_log2=st.integers(min_value=1, max_value=8),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_forward_inverse_match_oracle(self, bits, n_log2, seed):
        # n_log2 sweeps odd and even stage counts: an odd count keeps
        # one radix-2 sweep beside the merged radix-4 ones.
        n = 1 << n_log2
        q = _prime(bits, n)
        fused = get_plan(n, q)
        oracle = _reference(n, q)
        assert fused.wide
        x = _limb(q, n, seed)
        fwd_fused = _host(fused.forward(x.copy()))
        fwd_oracle = _host(oracle.forward(x.copy()))
        np.testing.assert_array_equal(fwd_fused, fwd_oracle)
        inv_fused = _host(fused.inverse(fwd_fused.copy()))
        inv_oracle = _host(oracle.inverse(fwd_oracle.copy()))
        np.testing.assert_array_equal(inv_fused, inv_oracle)
        # roundtrip composition lands back on the input
        np.testing.assert_array_equal(inv_fused, x)

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_worst_case_residues(self, bits):
        # All-(q-1) inputs drive every butterfly through the top of
        # its lazy domain — the headroom proof's worst case.
        q = _prime(bits)
        fused = get_plan(N, q)
        oracle = _reference(N, q)
        x = np.full(N, q - 1, dtype=np.uint64)
        fwd = _host(fused.forward(x.copy()))
        np.testing.assert_array_equal(fwd, _host(oracle.forward(x.copy())))
        np.testing.assert_array_equal(
            _host(fused.inverse(fwd.copy())),
            _host(oracle.inverse(fwd.copy())))
        np.testing.assert_array_equal(_host(fused.inverse(fwd)), x)

    @pytest.mark.parametrize("bits", (28, 36, 62))
    def test_pointwise_product_is_negacyclic_convolution(self, bits):
        n = 16
        q = _prime(bits, n)
        plan = get_plan(n, q)
        rng = np.random.default_rng(bits)
        a = rng.integers(0, q, size=n, dtype=np.uint64)
        b = rng.integers(0, q, size=n, dtype=np.uint64)
        fa = np.asarray(_host(plan.forward(a)), dtype=object)
        fb = np.asarray(_host(plan.forward(b)), dtype=object)
        via_ntt = _host(plan.inverse((fa * fb) % q))
        reference = _host(negacyclic_convolution_reference(a, b, q))
        np.testing.assert_array_equal(via_ntt, reference)

    @settings(deadline=None, max_examples=20)
    @given(bits=st.sampled_from(WIDTHS),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_inverse_forward_identity(self, bits, seed):
        q = _prime(bits)
        plan = get_plan(N, q)
        x = _limb(q, N, seed)
        np.testing.assert_array_equal(
            _host(plan.forward(plan.inverse(x.copy()))), x)


class TestRowsEntryPoint:
    """Shared-modulus mode: the in-place ``(B, N)`` rows transform is
    ``B`` independent scalar transforms, bit for bit."""

    @pytest.mark.parametrize("batch", (1, 3, 16))
    @pytest.mark.parametrize("bits", (28, 36, 62))
    def test_rows_equal_independent_scalar_calls(self, bits, batch):
        q = _prime(bits)
        plan = get_plan(N, q)
        rows = np.stack([_limb(q, N, 100 * bits + b)
                         for b in range(batch)])
        rows[0] = q - 1                     # worst case rides along
        fwd = rows.copy()
        plan.forward_rows(fwd)
        for b in range(batch):
            np.testing.assert_array_equal(
                fwd[b], _host(plan.forward(rows[b])))
        inv = fwd.copy()
        plan.inverse_rows(inv)
        for b in range(batch):
            np.testing.assert_array_equal(
                inv[b], _host(plan.inverse(fwd[b])))
        np.testing.assert_array_equal(inv, rows)

    @pytest.mark.parametrize("batch", (1, 3))
    def test_rows_match_reference_rows(self, batch):
        q = _prime(36)
        rows = np.stack([_limb(q, N, 40 + b) for b in range(batch)])
        fused = rows.copy()
        get_plan(N, q).forward_rows(fused)
        boxed = rows.astype(object)
        _reference(N, q).forward_rows(boxed)
        np.testing.assert_array_equal(fused, boxed.astype(np.uint64))

    def test_misshapen_rows_rejected(self):
        plan = get_plan(N, _prime(36))
        with pytest.raises(ValueError):
            plan.forward_rows(np.zeros((2, N // 2), dtype=np.uint64))
        with pytest.raises(ValueError):
            plan.inverse_rows(np.zeros(N, dtype=np.uint64))
        with pytest.raises(ValueError):     # a strided view is not in place
            plan.forward_rows(np.zeros((2, 2 * N), dtype=np.uint64)[:, ::2])
        with pytest.raises(ValueError):
            plan.forward_rows(np.zeros((2, N), dtype=np.int64))


class TestBatchDifferential:
    """Per-row mode: fused batch plans against per-limb reference
    plans."""

    def _basis(self, n: int) -> tuple[int, ...]:
        return (tuple(primes.ntt_primes(2, 28, n))
                + tuple(primes.ntt_primes(2, 36, n))
                + tuple(primes.ntt_primes(1, 60, n)))

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n_log2=st.sampled_from((5, 6)))
    def test_forward_inverse_match_oracle(self, seed, n_log2):
        self._forward_inverse_match_oracle(seed, n_log2)

    def _forward_inverse_match_oracle(self, seed, n_log2):
        n = 1 << n_log2
        moduli = self._basis(n)
        fused = get_batch_plan(n, moduli)
        oracles = [_reference(n, q) for q in moduli]
        limbs = [_limb(q, n, seed + i) for i, q in enumerate(moduli)]
        fwd_fused = fused.forward(limbs)
        fwd_oracle = [o.forward(x) for o, x in zip(oracles, limbs)]
        for a, b in zip(fwd_fused, fwd_oracle):
            np.testing.assert_array_equal(_host(a), _host(b))
        inv_fused = fused.inverse(fwd_fused)
        inv_oracle = [o.inverse(x) for o, x in zip(oracles, fwd_oracle)]
        for a, b, x in zip(inv_fused, inv_oracle, limbs):
            np.testing.assert_array_equal(_host(a), _host(b))
            np.testing.assert_array_equal(_host(a), x)

    def test_out_block_round_trips(self):
        moduli = self._basis(N)
        plan = get_batch_plan(N, moduli)
        limbs = [_limb(q, N, 7 + i) for i, q in enumerate(moduli)]
        reference = [_host(r) for r in plan.forward(limbs)]
        block = np.empty((len(moduli), N), np.uint64)
        got = plan.forward(limbs, out=block)
        for a, b in zip(got, reference):
            np.testing.assert_array_equal(_host(a), b)
        # the returned limbs are views into the caller's block
        np.testing.assert_array_equal(_host(block[0]), reference[0])

    def test_object_rows_fall_back(self):
        n = 16
        moduli = (primes.ntt_primes(1, 28, n)[0],
                  primes.ntt_primes(1, 70, n)[0])
        plan = get_batch_plan(n, moduli)
        limbs = [np.random.default_rng(i).integers(0, 2**28, size=n)
                 for i in range(2)]
        fwd = plan.forward(limbs)
        for i, q in enumerate(moduli):
            got = np.asarray(fwd[i], dtype=object) % q
            want = _reference(n, q).forward(limbs[i])
            np.testing.assert_array_equal(got, want)

    def test_object_rows_of_a_mixed_basis_run_their_reference_plans(self):
        # a 70-bit limb between uint64 ones: it never enters the block
        # (so never reaches a pointer) and comes back as Python ints
        n = 16
        moduli = (primes.ntt_primes(1, 36, n)[0],
                  primes.ntt_primes(1, 70, n)[0],
                  primes.ntt_primes(1, 60, n)[0])
        plan = BatchNttPlan(n, moduli)
        assert plan._object_rows == [1] and plan._batch_rows == [0, 2]
        assert not plan._scalar_plans[1].wide
        limbs = [[int(v) % q for v in
                  np.random.default_rng(i).integers(0, 2**62, size=n)]
                 for i, q in enumerate(moduli)]
        fwd = plan.forward(limbs)
        assert fwd[1].dtype == object
        for got, q, x in zip(fwd, moduli, limbs):
            assert [int(v) for v in got] \
                == [int(v) for v in _reference(n, q).forward(x)]
        for got, x in zip(plan.inverse(fwd), limbs):
            assert [int(v) for v in got] == x

    @pytest.mark.parametrize("n_log2", range(1, 9))
    @pytest.mark.parametrize("bits", WIDTHS)
    def test_width_grid_incl_worst_case(self, bits, n_log2):
        # N = 2 and 4 are the networks with only a last (and a first)
        # stage; odd and even log2 N; row 0 random, row 1 all-(q-1)
        n = 1 << n_log2
        moduli = tuple(primes.ntt_primes(2, bits, n))
        plan = get_batch_plan(n, moduli)
        limbs = [_limb(moduli[0], n, bits * n),
                 np.full(n, moduli[1] - 1, dtype=np.uint64)]
        fwd = plan.forward(limbs)
        inv = plan.inverse(limbs)
        for i, q in enumerate(moduli):
            oracle = _reference(n, q)
            np.testing.assert_array_equal(
                _host(fwd[i]), _host(oracle.forward(limbs[i].copy())))
            np.testing.assert_array_equal(
                _host(inv[i]), _host(oracle.inverse(limbs[i].copy())))
        for got, x in zip(plan.inverse(fwd), limbs):
            np.testing.assert_array_equal(_host(got), x)

    @pytest.mark.parametrize("make", (
        lambda k: np.zeros((k, 2 * N), dtype=np.uint64)[:, ::2],
        lambda k: np.zeros((N, k), dtype=np.uint64).T,
        lambda k: np.zeros((k, N), dtype=np.uint64, order="F"),
        lambda k: np.zeros((k, N), dtype=np.int64),
        lambda k: np.zeros((k + 1, N), dtype=np.uint64),
        lambda k: np.zeros((2 * k, N), dtype=np.uint64)[::2],
        lambda k: np.zeros(k * N, dtype=np.uint64),
    ), ids=("strided", "transposed", "fortran", "int64", "extra-row",
            "row-strided", "flat"))
    def test_unsafe_out_block_is_refused_by_name(self, make):
        moduli = self._basis(N)
        plan = get_batch_plan(N, moduli)
        limbs = [_limb(q, N, 3 + i) for i, q in enumerate(moduli)]
        with pytest.raises(ValueError, match="out block must be"):
            plan.forward(limbs, out=make(len(moduli)))
        with pytest.raises(ValueError, match="out block must be"):
            plan.inverse(limbs, out=make(len(moduli)))


@pytest.mark.usefixtures("ufunc_ntt")
class TestBatchDifferentialUfunc(TestBatchDifferential):
    """The same on the host without a compiler (``FusedNttEngine``)."""

    # hypothesis wants one executor per @given function, so the
    # property is declared again; every example may share the
    # function-scoped fixture, which only swaps the butterfly
    @settings(deadline=None, max_examples=20,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n_log2=st.sampled_from((5, 6)))
    def test_forward_inverse_match_oracle(self, seed, n_log2):
        self._forward_inverse_match_oracle(seed, n_log2)


class TestCompiledKernel:
    """The kernel itself: hypothesis against the Python-int reference,
    and the gate in front of every address it is handed."""

    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(widths=st.lists(st.sampled_from(WIDTHS), min_size=1, max_size=5),
           n_log2=st.integers(min_value=1, max_value=8),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           worst=st.booleans())
    def test_equals_the_object_path_reference(self, compiled_ntt, widths,
                                              n_log2, seed, worst):
        n = 1 << n_log2
        moduli = [_prime(bits, n) for bits in widths]
        bound = compiled_ntt.bind(
            n, moduli, [get_plan(n, q).fused_tables() for q in moduli])
        rows = np.stack([np.full(n, q - 1, dtype=np.uint64) if worst
                         else _limb(q, n, seed + i)
                         for i, q in enumerate(moduli)])
        fwd, inv = rows.copy(), rows.copy()
        bound.forward(fwd)
        bound.inverse(inv)
        for i, q in enumerate(moduli):
            oracle = _reference(n, q)
            assert fwd[i].tolist() == [
                int(v) for v in oracle.forward(rows[i].tolist())]
            assert inv[i].tolist() == [
                int(v) for v in oracle.inverse(rows[i].tolist())]
        bound.inverse(fwd)
        np.testing.assert_array_equal(fwd, rows)

    def test_batch_plan_reads_the_scalar_plans_tables_in_place(
            self, compiled_ntt):
        moduli = (_prime(28), _prime(36), _prime(60))
        plan = BatchNttPlan(N, moduli)
        assert plan._engines == [] and plan._native is not None
        columns, _q, _n_inv, *addresses = plan._native._alive
        for row, q in enumerate(moduli):
            tables = get_plan(N, q).fused_tables()[:4]
            for column, theirs, address in zip(columns, tables, addresses):
                assert np.shares_memory(column[row], theirs)
                assert int(address[row]) == theirs.ctypes.data

    def test_bind_refuses_tables_it_cannot_point_into(self, compiled_ntt):
        q = _prime(36)
        good = get_plan(N, q).fused_tables()
        for bad in (good[0][::2], good[0].astype(np.int64),
                    np.concatenate([good[0], good[0]])):
            with pytest.raises(ValueError, match="NTT tables must be"):
                compiled_ntt.bind(N, [q], [(bad,) + tuple(good[1:])])
        with pytest.raises(ValueError, match="below 2\\^62"):
            compiled_ntt.bind(N, [q, q], [good])
        with pytest.raises(ValueError, match="below 2\\^62"):
            compiled_ntt.bind(N, [(1 << 62) + 1], [good])

    def test_bound_kernel_refuses_a_block_it_cannot_own(self, compiled_ntt):
        moduli = [_prime(36), _prime(60)]
        bound = compiled_ntt.bind(
            N, moduli, [get_plan(N, q).fused_tables() for q in moduli])
        frozen = np.zeros((2, N), dtype=np.uint64)
        frozen.flags.writeable = False
        for bad in (np.zeros((2, 2 * N), dtype=np.uint64)[:, ::2],
                    np.zeros((N, 2), dtype=np.uint64).T,
                    np.zeros((2, N), dtype=np.int64),
                    np.zeros((3, N), dtype=np.uint64),
                    np.zeros((1, N), dtype=np.uint64),
                    frozen, [[0] * N] * 2):
            with pytest.raises(ValueError, match="NTT block must be"):
                bound.forward(bad)
            with pytest.raises(ValueError, match="NTT block must be"):
                bound.inverse(bad)

    def test_counts_rows_and_touches_no_arena(self, compiled_ntt):
        moduli = (_prime(36), _prime(44), _prime(60))
        limbs = [_limb(q, N, 5 + i) for i, q in enumerate(moduli)]
        plan = BatchNttPlan(N, moduli)
        plan.forward(limbs)                      # obs off: nothing counted
        assert not obs.get_tracer().metrics.counters()
        obs.configure(enabled=True, reset=True)
        try:
            plan.inverse(plan.forward(limbs))
            counters = obs.get_tracer().metrics.counters()
        finally:
            obs.configure(enabled=False, reset=True)
        assert counters["ntt.kernel.native"] == 6
        assert counters["ntt.path.wide36"] == 4
        assert counters["ntt.path.wide60"] == 2
        assert counters["ntt.path.wide"] == 6
        assert "kernel.alloc.ntt" not in counters


def _warmed_ntt_misses(call, arenas) -> float:
    """``kernel.alloc.ntt`` pool misses of one ``call`` after a warmup
    call; every arena in ``arenas`` must have served that call."""
    obs.configure(enabled=True, reset=True)
    try:
        call()                                  # warmup: misses allowed
        before = ledger_counters().get("kernel.alloc.ntt", 0.0)
        hits = [arena.hits for arena in arenas]
        call()
        assert all(arena.hits > h for arena, h in zip(arenas, hits))
        return ledger_counters().get("kernel.alloc.ntt", 0.0) - before
    finally:
        obs.configure(enabled=False, reset=True)


class TestZeroAllocation:
    """Warmed fused plans take every scratch buffer from their arena.
    The arena is the ufunc engine's; the compiled kernel has none."""

    def test_warmed_batch_plan_allocates_nothing(self, ufunc_ntt):
        moduli = (tuple(primes.ntt_primes(2, 28, N))
                  + tuple(primes.ntt_primes(2, 36, N)))
        plan = get_batch_plan(N, moduli)
        limbs = [_limb(q, N, i) for i, q in enumerate(moduli)]
        block = np.empty((len(moduli), N), np.uint64)
        misses = _warmed_ntt_misses(
            lambda: plan.inverse(plan.forward(limbs, out=block),
                                 out=block),
            [engine.arena for _rows, engine in plan._engines])
        assert misses == 0

    def test_warmed_row_batch_allocates_only_the_row_copy(self, ufunc_ntt):
        from repro.serve.engine import RowBatchNtt

        q = _prime(36)
        row_ntt = RowBatchNtt(N, q)
        rows = np.stack([_limb(q, N, s) for s in range(4)])
        misses = _warmed_ntt_misses(
            lambda: row_ntt.inverse(row_ntt.forward(rows)),
            [row_ntt._plan._get_engine().arena])
        assert misses == 0

    def test_ledger_counts_misses_then_goes_quiet(self, ufunc_ntt):
        # the arena is the ufunc engine's; the compiled kernel has none
        moduli = tuple(primes.ntt_primes(3, 36, N))
        limbs = [_limb(q, N, 11 + i) for i, q in enumerate(moduli)]
        obs.configure(enabled=True, reset=True)
        try:
            clear_batch_plan_cache()
            plan = get_batch_plan(N, moduli)
            block = np.empty((len(moduli), N), np.uint64)
            plan.forward(limbs, out=block)          # warmup: misses
            warm = ledger_counters().get("kernel.alloc.ntt", 0.0)
            assert warm > 0
            plan.inverse(plan.forward(limbs, out=block), out=block)
            steady = ledger_counters().get("kernel.alloc.ntt", 0.0)
            assert steady == warm, (warm, steady)
        finally:
            obs.configure(enabled=False, reset=True)
            clear_batch_plan_cache()


class TestPlanCacheChurn:
    """An evicted and rebuilt plan still agrees with the reference."""

    def test_rebuilt_fused_plan_still_bit_exact_after_churn(self):
        from repro.ckks.rns import PLAN_CACHE_MAXSIZE

        clear_plan_cache()
        try:
            n = 32
            q = primes.ntt_primes(1, 28, n)[0]
            x = _limb(q, n, 3)
            original = get_plan(n, q)
            reference = _host(_reference(n, q).forward(x.copy()))
            for churn_q in primes.ntt_primes(PLAN_CACHE_MAXSIZE + 4, 18, n):
                get_plan(n, churn_q)
            rebuilt = get_plan(n, q)
            assert rebuilt is not original
            np.testing.assert_array_equal(
                _host(rebuilt.forward(x.copy())), reference)
        finally:
            clear_plan_cache()
