"""Functional + sizing tests for the hardware unit models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ckks import primes
from repro.hw.aem import (AuxiliaryExecutionModule, DoublePrimeScalingUnit,
                          EvaluationKeyGenerator, double_rescale_coeff)
from repro.hw.autou import (AutomorphismUnit, BenesNetwork,
                            automorphism_permutation)
from repro.hw.bconvu import BConvUnit, SystolicArray
from repro.hw.config import FAST_CONFIG, FAST_36BIT_ALU, FAST_WITHOUT_TBM
from repro.hw.kmu import KeyMultUnit, OutputStationaryArray
from repro.hw.nttu import (NttUnit, direct_cyclic_ntt, four_step_ntt,
                           negacyclic_via_four_step)


class TestFourStepNtt:
    N = 64
    Q = primes.ntt_primes(1, 24, 64)[0]

    def test_matches_direct(self, rng):
        omega = primes.root_of_unity(self.N, self.Q)
        x = rng.integers(0, self.Q, self.N)
        got = four_step_ntt(x, 8, 8, omega, self.Q)
        ref = direct_cyclic_ntt(x, omega, self.Q)
        assert list(got) == list(ref)

    def test_non_square_factorisation(self, rng):
        omega = primes.root_of_unity(self.N, self.Q)
        x = rng.integers(0, self.Q, self.N)
        got = four_step_ntt(x, 4, 16, omega, self.Q)
        ref = direct_cyclic_ntt(x, omega, self.Q)
        assert list(got) == list(ref)

    def test_negacyclic_variant(self, rng):
        psi = primes.root_of_unity(2 * self.N, self.Q)
        x = rng.integers(0, self.Q, self.N)
        got = negacyclic_via_four_step(x, 8, 8, psi, self.Q)
        ref = [sum(int(x[i]) * pow(psi, (2 * k + 1) * i, self.Q)
                   for i in range(self.N)) % self.Q
               for k in range(self.N)]
        assert list(got) == ref

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            four_step_ntt([1, 2, 3], 2, 2, 3, self.Q)


class TestNttUnitSizing:
    def test_elements_per_cycle(self):
        unit = NttUnit(FAST_CONFIG)
        assert unit.elements_per_cycle(wide=True) == 512   # 2 * sqrt(N)
        assert unit.elements_per_cycle(wide=False) == 512

    def test_no_tbm_halves_throughput(self):
        unit = NttUnit(FAST_WITHOUT_TBM)
        assert unit.elements_per_cycle(wide=False) == 256

    def test_cycles_for_limbs(self):
        unit = NttUnit(FAST_CONFIG)
        assert unit.cycles_for_limbs(2, wide=False) == \
            pytest.approx(2 * (1 << 16) / 512)

    def test_multiplier_count_structure(self):
        unit = NttUnit(FAST_CONFIG, ring_degree=1 << 16)
        assert unit.multiplier_count == 256 * 16 + 256


class TestSystolicBConv:
    def test_matrix_product_mod(self, rng):
        q = 97
        array = SystolicArray(height=4, width=8)
        limbs = rng.integers(0, q, (5, 3))
        table = rng.integers(0, q, (3, 6))
        out = array.run(limbs, table, q)
        ref = (limbs.astype(object) @ table.astype(object)) % q
        assert np.array_equal(out, ref)
        assert array.cycles == 3 + 5 + 6 - 1

    def test_oversized_matrix_rejected(self, rng):
        array = SystolicArray(height=2, width=2)
        with pytest.raises(ValueError):
            array.run(np.ones((1, 3), dtype=int),
                      np.ones((3, 1), dtype=int), 97)

    def test_dimension_mismatch_rejected(self):
        array = SystolicArray(4, 4)
        with pytest.raises(ValueError):
            array.run(np.ones((2, 3), dtype=int),
                      np.ones((2, 4), dtype=int), 97)


class TestBConvUnitSizing:
    def test_mac_count(self):
        unit = BConvUnit(FAST_CONFIG)
        assert unit.mac_count == 2 * 256 * 4

    def test_cycles_scale_inverse_with_parallelism(self):
        fast = BConvUnit(FAST_CONFIG)
        slow = BConvUnit(FAST_WITHOUT_TBM)
        assert fast.cycles_for_bconv(1 << 16, 5, 40, wide=False) == \
            pytest.approx(slow.cycles_for_bconv(1 << 16, 5, 40,
                                                wide=False) / 2)


class TestOutputStationaryKmu:
    def test_vector_matrix_product(self, rng):
        q = 257
        array = OutputStationaryArray(width=3, height=8)
        digits = rng.integers(0, q, (3, 8))
        keys = rng.integers(0, q, (3, 3, 8))
        out = array.run_vector_matrix(digits, keys, q)
        for j in range(3):
            for e in range(8):
                ref = sum(int(digits[b, e]) * int(keys[b, j, e])
                          for b in range(3)) % q
                assert int(out[j, e]) == ref

    def test_input_sharing_reduces_private_reads(self, rng):
        q = 257
        digits = rng.integers(0, q, (2, 16))
        keys = rng.integers(0, q, (2, 3, 16))
        shared = OutputStationaryArray()
        private = OutputStationaryArray()
        shared.run_vector_matrix(digits, keys, q, share_inputs=True)
        private.run_vector_matrix(digits, keys, q, share_inputs=False)
        assert shared.private_reads < private.private_reads

    def test_dimension_mismatch(self, rng):
        array = OutputStationaryArray()
        with pytest.raises(ValueError):
            array.run_vector_matrix(np.ones((2, 4), dtype=int),
                                    np.ones((3, 2, 4), dtype=int), 97)


class TestBenesNetwork:
    @pytest.mark.parametrize("ports", [2, 4, 16, 64])
    def test_routes_random_permutations(self, ports, rng):
        net = BenesNetwork(ports)
        for _ in range(5):
            perm = list(rng.permutation(ports))
            data = list(range(100, 100 + ports))
            out = net.apply(data, perm)
            assert all(out[perm[i]] == data[i] for i in range(ports))

    def test_routes_automorphism_permutations(self):
        net = BenesNetwork(32)
        for g in (5, 25, 3, 63):
            perm = automorphism_permutation(32, g)
            out = net.apply(list(range(32)), perm)
            assert sorted(out) == list(range(32))

    def test_stage_count(self):
        assert BenesNetwork(256).stages == 15
        assert BenesNetwork(2).stages == 1

    def test_invalid_ports(self):
        with pytest.raises(ValueError):
            BenesNetwork(3)

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            BenesNetwork(4).apply([1, 2, 3, 4], [0, 0, 1, 2])


class TestAutomorphismPermutation:
    @pytest.mark.parametrize("g", [1, 3, 5, 25, 127])
    def test_is_bijection(self, g):
        perm = automorphism_permutation(64, g)
        assert sorted(perm) == list(range(64))


class TestAutoUnit:
    def test_throughput_modes(self):
        unit = AutomorphismUnit(FAST_CONFIG)
        assert unit.elements_per_cycle(wide=True) == 512
        unit36 = AutomorphismUnit(FAST_36BIT_ALU)
        assert unit36.elements_per_cycle(wide=False) == 256

    def test_table3_anchor(self):
        unit = AutomorphismUnit(FAST_CONFIG)
        assert 4 * unit.area_mm2() == pytest.approx(0.6)
        assert 4 * unit.peak_power_w() == pytest.approx(0.8)


class TestAem:
    def test_double_rescale_rounds(self):
        q1, q2, target = 97, 101, 103
        value = 5 * q1 * q2 + q1 * q2 // 3   # rounds to 5
        assert double_rescale_coeff(value, q1, q2, target) == 5
        value = -7 * q1 * q2 - q1 * q2 // 3  # rounds to -7
        assert double_rescale_coeff(value, q1, q2, target) == -7 % target

    def test_dsu_cycles(self):
        dsu = DoublePrimeScalingUnit(FAST_CONFIG)
        assert dsu.cycles_for_rescale(1 << 16, 8) == \
            pytest.approx((1 << 16) * 8 / 512)

    def test_ekg_deterministic(self):
        ekg = EvaluationKeyGenerator(FAST_CONFIG)
        moduli = primes.ntt_primes(2, 28, 32)
        a = ekg.expand(42, 32, moduli)
        b = ekg.expand(42, 32, moduli)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = ekg.expand(43, 32, moduli)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_ekg_halves_traffic(self):
        assert EvaluationKeyGenerator(FAST_CONFIG) \
            .traffic_saving_factor() == 0.5

    def test_aem_area_is_dsu_plus_ekg(self):
        aem = AuxiliaryExecutionModule(FAST_CONFIG)
        assert aem.area_mm2() == pytest.approx(
            aem.dsu.area_mm2() + aem.ekg.area_mm2())


class TestKmuUnitSizing:
    def test_mac_count(self):
        unit = KeyMultUnit(FAST_CONFIG)
        assert unit.mac_count == 3 * 256

    def test_keymult_cycles(self):
        unit = KeyMultUnit(FAST_CONFIG)
        assert unit.cycles_for_keymult(1536.0, wide=True) == \
            pytest.approx(1.0)


@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_property_benes_routes_everything(log_ports, seed):
    rng = np.random.default_rng(seed)
    ports = 1 << log_ports
    net = BenesNetwork(ports)
    perm = list(rng.permutation(ports))
    data = list(rng.integers(0, 1000, ports))
    out = net.apply(data, perm)
    assert all(out[perm[i]] == data[i] for i in range(ports))


class TestChipConfig:
    @pytest.mark.parametrize("field", [
        "clusters", "lanes_per_cluster", "frequency_hz",
        "onchip_bandwidth_bytes", "hbm_bandwidth_bytes"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_design_point_that_cannot_exist_is_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            FAST_CONFIG.with_(**{field: value})
