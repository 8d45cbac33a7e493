"""Area/power models: Fig. 4 scaling, Table 3 roll-up, variants."""

import pytest

from repro.hw import area as hw_area
from repro.hw import multiplier
from repro.hw.accelerator import Accelerator
from repro.hw.config import (FAST_CONFIG, FAST_36BIT_ALU, FAST_WITHOUT_TBM,
                             cluster_sweep, fast_variant, memory_sweep)


class TestFig4Scaling:
    def test_60_vs_36_anchors(self, assert_rows):
        """The paper's quoted 60-bit / 36-bit ratios (the Fig. 4 rows,
        modmult then mult), to the digit."""
        for modular, result in zip((True, False), assert_rows("Fig. 4")):
            area, power = result.row.paper
            assert multiplier.multiplier_area(60, modular=modular) / \
                multiplier.multiplier_area(36, modular=modular) == \
                pytest.approx(area, rel=1e-6)
            assert multiplier.multiplier_power(60, modular=modular) / \
                multiplier.multiplier_power(36, modular=modular) == \
                pytest.approx(power, rel=1e-6)

    def test_monotone_in_bits(self):
        widths = (24, 28, 32, 36, 48, 60, 64)
        areas = [multiplier.multiplier_area(b) for b in widths]
        assert areas == sorted(areas)

    def test_relative_scaling_normalised(self):
        rel = multiplier.relative_scaling((36, 60))
        assert rel[36]["area"] == pytest.approx(1.0)
        assert rel[60]["area"] == pytest.approx(
            multiplier.multiplier_area(60) / multiplier.multiplier_area(36))

    def test_booth_composition_overhead(self):
        native = multiplier.multiplier_area(60)
        booth = multiplier.booth_60_from_36_area()
        assert booth / native == pytest.approx(1.275)
        assert multiplier.booth_60_from_36_power() / \
            multiplier.multiplier_power(60) == pytest.approx(1.30)

    def test_tbm_overhead_vs_conventional_60(self):
        tbm = multiplier.tbm_area()
        conventional = multiplier.multiplier_area(60)
        # +28% datapath +19% control
        assert tbm / conventional == pytest.approx(1.28 * 1.19)


class TestTable3:
    """The paper's Table 3 and its bands are the Table 3 rows of
    ``analysis.figures.ROWS``."""

    def test_component_areas_within_tolerance(self, assert_rows):
        assert_rows("Table 3: component areas")

    def test_component_powers_within_tolerance(self, assert_rows):
        assert_rows("Table 3: component powers")

    def test_total_area_anchor(self, assert_rows):
        assert hw_area.area_for(FAST_CONFIG) == pytest.approx(
            hw_area.table3()["Total"]["area_mm2"])
        assert_rows("Table 3: total area")

    def test_paper_total_power_inconsistency_documented(self, assert_rows):
        """The paper's stated total power does not equal the sum of its
        own component rows; our total matches the rows."""
        (total,) = assert_rows("Table 3: total power")
        assert total.measured != pytest.approx(total.row.paper, rel=0.02)


class TestVariantScaling:
    def test_eight_clusters_area_ratio(self, assert_rows):
        """Fig. 13b: 8 clusters cost the paper's area ratio."""
        four = hw_area.area_for(FAST_CONFIG)
        assert hw_area.area_for(fast_variant("8C", clusters=8)) > four
        assert_rows("Fig. 13b: 8 clusters")

    def test_two_clusters_cheaper(self):
        two = hw_area.area_for(fast_variant("2C", clusters=2))
        assert two < hw_area.area_for(FAST_CONFIG)

    def test_memory_sweep_monotone(self):
        areas = [hw_area.area_for(c)
                 for c in memory_sweep([128, 256, 384])]
        assert areas == sorted(areas)

    def test_no_tbm_datapath_smaller(self):
        # A fixed 60-bit multiplier is smaller than a TBM.
        assert hw_area.area_for(FAST_WITHOUT_TBM) < \
            hw_area.area_for(FAST_CONFIG)

    def test_36bit_alu_smallest(self):
        assert hw_area.area_for(FAST_36BIT_ALU) < \
            hw_area.area_for(FAST_WITHOUT_TBM)


class TestAccelerator:
    def test_throughput_modes(self):
        acc = Accelerator(FAST_CONFIG)
        ntt = acc.unit_throughput("ntt")
        assert ntt.narrow == ntt.wide            # uniform TBM slot rate
        acc36 = Accelerator(FAST_36BIT_ALU)
        assert acc36.unit_throughput("ntt").narrow == ntt.narrow / 2

    def test_kernel_cycles_positive(self):
        acc = Accelerator(FAST_CONFIG)
        assert acc.kernel_cycles("ntt", 1e6, wide=False) > 0
        assert acc.kernel_cycles("bconv", 0, wide=False) == 0

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            Accelerator(FAST_CONFIG).unit_throughput("fft3d")

    def test_supports_predicates(self):
        assert Accelerator(FAST_CONFIG).supports("klss")
        assert not Accelerator(FAST_36BIT_ALU).supports("klss")

    def test_cluster_sweep_configs(self):
        for config in cluster_sweep([2, 4, 8]):
            acc = Accelerator(config)
            assert acc.total_area_mm2() > 0
            assert acc.total_peak_power_w() > 0

    def test_register_file_bandwidth(self):
        acc = Accelerator(FAST_CONFIG)
        bw = acc.register_file.bandwidth_bytes_per_s()
        assert bw == pytest.approx(1024 * 9 * 1e9)  # 72b/lane/cycle

    def test_hbm_transfer_accounting(self):
        acc = Accelerator(FAST_CONFIG)
        stall = acc.hbm.record_key_transfer(1e9, window_s=0.5e-3)
        assert stall == pytest.approx(0.5e-3)
        assert acc.hbm.traffic.key_bytes == 1e9
        acc.hbm.reset()
        assert acc.hbm.traffic.total_bytes == 0

    def test_noc_transpose_cycles(self):
        acc = Accelerator(FAST_CONFIG)
        cycles = acc.noc.transpose_cycles(1 << 16, 1, wide=True)
        assert cycles == pytest.approx((1 << 16) / 512)
