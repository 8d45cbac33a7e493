"""The ``(k, N)`` block layout of :class:`RnsPoly`.

Every ring op is one pass over the block through the basis's
``BasisKernel``; it must equal the per-limb ``ModulusKernel`` results
bit for bit on a basis that mixes both TBM modes (and narrow rows, and
in either row order), return fresh memory, and never disturb a row
view handed out earlier.  The constructor refuses a block it cannot
own by name.
"""

import numpy as np
import pytest

from repro.ckks import modmath, primes, rns
from repro.ckks.rns import RnsPoly

N = 64
#: 28-bit narrow, 36/44-bit float-quotient, 60-bit Shoup/128-bit rows
MIXED = tuple(primes.ntt_primes(1, bits, N)[0] for bits in (28, 36, 44, 60))
ORDERS = (MIXED, MIXED[::-1], (MIXED[3], MIXED[0], MIXED[2], MIXED[1]))


def _poly(moduli, seed, form=rns.EVAL, worst=False) -> RnsPoly:
    rng = np.random.default_rng(seed)
    rows = [modmath.random_uniform(N, q, rng) for q in moduli]
    for row, q in zip(rows, moduli):
        row[:] = q - 1 if worst else row
        row[:3] = (q - 1, 0, 1)
    return RnsPoly(rows, moduli, form)


def _per_limb(op, *polys, **kw):
    """The same op limb by limb through ``ModulusKernel``."""
    out = []
    for i, q in enumerate(polys[0].moduli):
        kernel = modmath.get_kernel(q)
        rows = [p.data[i] for p in polys]
        out.append(np.asarray(op(kernel, i, *rows, **kw), dtype=np.uint64))
    return np.stack(out)


OPS = {
    "add": (lambda a, b: a + b,
            lambda k, i, x, y: k.add(x, y)),
    "sub": (lambda a, b: a - b,
            lambda k, i, x, y: k.sub(x, y)),
    "neg": (lambda a, b: -a,
            lambda k, i, x, y: k.neg(x)),
    "mul": (lambda a, b: a * b,
            lambda k, i, x, y: k.mul(x, y)),
    "scalar": (lambda a, b: a * (2**61 + 12345),
               lambda k, i, x, y: k.mul_scalar(x, 2**61 + 12345)),
    "negative-scalar": (lambda a, b: a * -7,
                        lambda k, i, x, y: k.mul_scalar(x, -7)),
    "per-limb": (lambda a, b: a.mul_scalar_per_limb(
                     [3**40 + j for j in range(len(a.moduli))]),
                 lambda k, i, x, y: k.mul_scalar(x, 3**40 + i)),
}


class TestBlockOpsEqualPerLimbKernels:
    @pytest.mark.parametrize("order", ORDERS, ids=("sorted", "reversed",
                                                   "interleaved"))
    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize("worst", (False, True), ids=("random", "q-1"))
    def test_bit_for_bit(self, op, order, worst):
        block_op, limb_op = OPS[op]
        a = _poly(order, 1, worst=worst)
        b = _poly(order, 2, worst=worst)
        got = block_op(a, b)
        assert got.moduli == order and got.form == rns.EVAL
        assert got.data.dtype == np.uint64 and got.data.flags.c_contiguous
        np.testing.assert_array_equal(got.data, _per_limb(limb_op, a, b))

    def test_object_block_matches_too(self):
        moduli = MIXED[:2] + (primes.ntt_primes(1, 70, N)[0],)
        a, b = _poly(moduli, 3), _poly(moduli, 4)
        assert a.data.dtype == object
        for op in sorted(OPS):
            block_op, limb_op = OPS[op]
            got = block_op(a, b)
            want = [[int(v) for v in row] for row in
                    _per_limb_object(limb_op, a, b)]
            assert [[int(v) for v in row] for row in got.data] == want

    def test_rows_per_width_path_are_counted(self):
        from repro import obs

        a, b = _poly(MIXED, 5), _poly(MIXED, 6)
        obs.configure(enabled=True, reset=True)
        try:
            a * b
            counters = obs.get_tracer().metrics.counters()
        finally:
            obs.configure(enabled=False, reset=True)
        assert counters["modmath.path.narrow"] == 1
        assert counters["modmath.path.wide"] == 3


def _per_limb_object(op, *polys):
    out = []
    for i, q in enumerate(polys[0].moduli):
        kernel = modmath.get_kernel(q)
        out.append(op(kernel, i, *[p.data[i] for p in polys]))
    return out


class TestFreshMemory:
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_no_result_shares_memory_with_an_operand(self, op):
        a, b = _poly(MIXED, 7), _poly(MIXED, 8)
        got = OPS[op][0](a, b)
        assert not np.shares_memory(got.data, a.data)
        assert not np.shares_memory(got.data, b.data)

    def test_transforms_and_gathers_return_fresh_blocks(self):
        a = _poly(MIXED, 9, form=rns.COEFF)
        for got in (a.to_eval(), a.copy(), a.automorphism(5),
                    a.to_eval().automorphism(5), a.to_eval().to_coeff()):
            assert not np.shares_memory(got.data, a.data)


class TestViewsStayPut:
    def test_views_survive_later_ops_on_the_parent(self):
        parent = _poly(MIXED, 10)
        other = _poly(MIXED, 11)
        dropped = parent.drop_limbs(2)
        selected = parent.select_limbs([1, 2])
        gathered = parent.select_limbs([3, 0])
        rows = parent.limbs
        before = [v.data.copy() for v in (dropped, selected, gathered)]
        before_rows = [row.copy() for row in rows]
        assert np.shares_memory(dropped.data, parent.data)
        for result in (parent + other, parent - other, -parent,
                       parent * other, parent * 3,
                       parent.mul_scalar_per_limb([2, 3, 4, 5]),
                       parent.automorphism(3), parent.to_coeff()):
            assert result.data is not parent.data
        for view, want in zip((dropped, selected, gathered), before):
            np.testing.assert_array_equal(view.data, want)
        for row, want in zip(rows, before_rows):
            np.testing.assert_array_equal(row, want)

    def test_select_limbs_is_a_view_only_for_a_run(self):
        parent = _poly(MIXED, 12)
        assert np.shares_memory(parent.select_limbs([1, 2, 3]).data,
                                parent.data)
        picked = parent.select_limbs([2, 0])
        assert not np.shares_memory(picked.data, parent.data)
        np.testing.assert_array_equal(picked.data,
                                      parent.data[[2, 0]])


class TestMalformedBlocks:
    def test_wrong_dtype(self):
        block = np.zeros((len(MIXED), N), dtype=np.int64)
        with pytest.raises(ValueError, match="block dtype must be uint64"):
            RnsPoly(block, MIXED, rns.EVAL)

    def test_object_basis_wants_object_block(self):
        moduli = (MIXED[0], primes.ntt_primes(1, 70, N)[0])
        with pytest.raises(ValueError, match="block dtype must be object"):
            RnsPoly(np.zeros((2, N), dtype=np.uint64), moduli, rns.EVAL)

    @pytest.mark.parametrize("make", (
        lambda k: np.zeros((k, 2 * N), dtype=np.uint64)[:, ::2],
        lambda k: np.zeros((N, k), dtype=np.uint64).T,
        lambda k: np.zeros((2 * k, N), dtype=np.uint64)[::2],
    ), ids=("strided", "transposed", "row-strided"))
    def test_not_contiguous(self, make):
        with pytest.raises(ValueError, match="must be C-contiguous"):
            RnsPoly(make(len(MIXED)), MIXED, rns.EVAL)

    @pytest.mark.parametrize("rows", (len(MIXED) - 1, len(MIXED) + 1))
    def test_row_count_does_not_match_the_moduli(self, rows):
        with pytest.raises(ValueError, match=f"block has {rows} rows for "
                                             f"{len(MIXED)} moduli"):
            RnsPoly(np.zeros((rows, N), dtype=np.uint64), MIXED, rns.EVAL)

    def test_a_good_block_is_taken_as_is(self):
        block = np.zeros((len(MIXED), N), dtype=np.uint64)
        assert RnsPoly(block, MIXED, rns.EVAL).data is block
