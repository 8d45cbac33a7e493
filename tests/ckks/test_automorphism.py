"""AutoPlan: the eval-domain automorphism gather vs its coeff oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.ckks import modmath, primes, rns
from repro.ckks.ntt import bit_reverse_permutation, eval_point_exponents
from repro.ckks.rns import RnsPoly

WIDTH_GRID = (26, 31, 36, 48, 54, 62)


def _basis(n: int, bits: int, count: int = 2) -> tuple[int, ...]:
    return tuple(primes.ntt_primes(count, bits, n))


def _random_poly(n: int, moduli, seed: int = 0) -> RnsPoly:
    rng = np.random.default_rng(seed)
    limbs = [rng.integers(0, q, size=n, dtype=np.uint64) for q in moduli]
    return RnsPoly(modmath.as_block(limbs, moduli), moduli, rns.COEFF)


def _assert_poly_equal(a: RnsPoly, b: RnsPoly) -> None:
    assert a.moduli == b.moduli and a.form == b.form
    for x, y in zip(a.limbs, b.limbs):
        np.testing.assert_array_equal(np.asarray(x, dtype=object),
                                      np.asarray(y, dtype=object))


def _odd_elements(n: int) -> list[int]:
    # rotations (powers of 5), an arbitrary odd element, and the
    # conjugation 2N - 1
    return [5, 25, pow(5, 7, 2 * n), 3, 2 * n - 1]


class TestEvalPointExponents:
    @pytest.mark.parametrize("n", [4, 8, 64, 256])
    def test_structure(self, n):
        e = eval_point_exponents(n)
        # odd, distinct, exactly the odd residues mod 2N
        assert np.all(e % 2 == 1)
        assert sorted(int(v) for v in e) == list(range(1, 2 * n, 2))
        np.testing.assert_array_equal(
            e, 2 * bit_reverse_permutation(n) + 1)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            eval_point_exponents(12)


class TestEvalVsCoeffOracle:
    """The gather must agree with the coefficient-domain oracle."""

    @pytest.mark.parametrize("bits", WIDTH_GRID)
    @pytest.mark.parametrize("n", [8, 64])
    def test_bit_exact_across_widths(self, n, bits):
        moduli = _basis(n, bits)
        poly = _random_poly(n, moduli, seed=bits)
        ev = poly.to_eval()
        for g in _odd_elements(n):
            oracle = poly.automorphism(g).to_eval()
            _assert_poly_equal(ev.automorphism(g), oracle)

    def test_conjugation_element(self):
        n = 64
        moduli = _basis(n, 36)
        poly = _random_poly(n, moduli, seed=3)
        g = 2 * n - 1
        _assert_poly_equal(poly.to_eval().automorphism(g),
                           poly.automorphism(g).to_eval())

    @given(st.integers(0, 2**30))
    @settings(max_examples=30, deadline=None)
    def test_property_any_odd_element(self, raw):
        n = 8
        g = 2 * raw + 1
        moduli = _basis(n, 30)
        poly = _random_poly(n, moduli, seed=raw % 17)
        _assert_poly_equal(poly.to_eval().automorphism(g),
                           poly.automorphism(g).to_eval())

    def test_identity_element(self):
        n = 16
        poly = _random_poly(n, _basis(n, 30), seed=9)
        _assert_poly_equal(poly.to_eval().automorphism(1), poly.to_eval())

    def test_composition(self):
        """sigma_g . sigma_h == sigma_{g h mod 2N} in eval form."""
        n = 32
        poly = _random_poly(n, _basis(n, 36), seed=4).to_eval()
        g, h = 5, 2 * n - 1
        _assert_poly_equal(poly.automorphism(h).automorphism(g),
                           poly.automorphism((g * h) % (2 * n)))

    def test_even_element_rejected(self):
        poly = _random_poly(8, _basis(8, 30))
        with pytest.raises(ValueError):
            poly.automorphism(4)


class TestZeroNtt:
    """The eval-form automorphism must never touch the NTT."""

    def test_eval_gather_runs_zero_ntts(self):
        n = 64
        poly = _random_poly(n, _basis(n, 36), seed=5).to_eval()
        obs.configure(enabled=True, reset=True)
        try:
            for g in (5, 25, 2 * n - 1):
                poly.automorphism(g)
            snap = obs.snapshot(obs.get_tracer())
            counters = snap["counters"]
            ntt_hits = {name: value for name, value in counters.items()
                        if name.startswith("ntt.")}
            assert not ntt_hits, f"eval automorphism ran NTTs: {ntt_hits}"
            assert counters["rns.auto.eval"] == 3
        finally:
            obs.configure(enabled=False, reset=True)

    def test_counters_distinguish_paths(self):
        n = 16
        poly = _random_poly(n, _basis(n, 30), seed=6)
        obs.configure(enabled=True, reset=True)
        try:
            poly.automorphism(5)                  # coeff path
            poly.to_eval().automorphism(5)        # eval path
            counters = obs.snapshot(obs.get_tracer())["counters"]
            assert counters["rns.auto.coeff"] == 1
            assert counters["rns.auto.eval"] == 1
        finally:
            obs.configure(enabled=False, reset=True)
