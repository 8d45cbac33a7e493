"""Measured kernel unit costs and the re-pinned Fig. 2 crossover."""

import json

import pytest

from repro.ckks.keyswitch import cost
from repro.ckks.keyswitch.cost import MeasuredKernelCosts
from repro.ckks.params import SET_I, SET_II


@pytest.fixture
def unit_costs():
    """Synthetic costs where every modop is equally expensive — the
    measured crossover must then match the analytic count-based one."""
    return MeasuredKernelCosts(ntt=1.0, bconv=1.0, keymult=1.0,
                               elementwise=1.0)


class TestMeasuredKernelCosts:
    def test_round_trips_through_dict(self, unit_costs):
        data = unit_costs.as_dict()
        again = MeasuredKernelCosts.from_dict(json.loads(
            json.dumps(data)))
        assert again == unit_costs

    def test_seconds_weights_by_kernel(self):
        costs = MeasuredKernelCosts(ntt=2.0, bconv=0.0, keymult=0.0,
                                    elementwise=0.0)
        ops = cost.KernelOps(ntt=3.0, bconv=100.0, keymult=100.0,
                             elementwise=100.0)
        assert costs.seconds(ops) == 6.0

    def test_keyswitch_seconds_positive(self, unit_costs):
        for method, params in (("hybrid", SET_I), ("klss", SET_II)):
            assert cost.keyswitch_seconds(method, params, 10,
                                          unit_costs) > 0.0


class TestCrossoverLevel:
    def test_unit_costs_match_analytic(self, unit_costs):
        analytic = cost.crossover_level(SET_I, SET_II)
        measured = cost.crossover_level(SET_I, SET_II,
                                        costs=unit_costs)
        assert measured == analytic

    def test_analytic_crossover_is_pinned(self):
        """The count-based Fig. 2 crossover sits at level 12 for the
        paper's parameter sets."""
        assert cost.crossover_level(SET_I, SET_II) == 12

    def test_keymult_blowup_removes_crossover(self):
        """When KeyMult modmuls are expensive relative to BConv (what
        the software calibration actually measures), KLSS's wide-word
        KeyMult blowup dominates at every level and hybrid never
        loses: no crossover."""
        costs = MeasuredKernelCosts(ntt=1e-9, bconv=1e-9,
                                    keymult=1e-7, elementwise=1e-9)
        assert cost.crossover_level(SET_I, SET_II, costs=costs) is None

    def test_expensive_bconv_pulls_crossover_in(self):
        """Expensive base conversions penalise hybrid's ModUp/ModDown
        towers and move the crossover to a lower level."""
        costs = MeasuredKernelCosts(ntt=1e-9, bconv=1e-7,
                                    keymult=1e-9, elementwise=1e-9)
        pulled = cost.crossover_level(SET_I, SET_II, costs=costs)
        assert pulled is not None
        assert pulled <= 12

    def test_measured_ratio_consistency(self, unit_costs):
        analytic = cost.quantitative_line(SET_I, SET_II, 20)
        measured = cost.measured_quantitative_line(SET_I, SET_II, 20,
                                                   unit_costs)
        assert measured == pytest.approx(analytic)


class TestCalibration:
    def test_calibrate_kernel_costs_smoke(self):
        from repro.ckks.keyswitch.calibrate import calibrate_kernel_costs
        costs = calibrate_kernel_costs(reps=1, inner=1)
        for unit in (costs.ntt, costs.bconv, costs.keymult,
                     costs.elementwise):
            assert 0.0 < unit < 1.0  # seconds per modop
        meta = dict(costs.meta)
        assert meta["ring_degree"] == 1024

    def test_report_round_trips(self, tmp_path):
        from repro.ckks.keyswitch import calibrate
        report = calibrate.calibration_report(reps=1)
        assert report["schema"] == calibrate.CALIBRATION_SCHEMA
        assert report["crossover"]["analytic_level"] == 12
        path = tmp_path / "CALIBRATION.json"
        calibrate.write_calibration(report, str(path))
        costs = calibrate.load_calibration(str(path))
        assert costs.as_dict()["ntt"] == report["kernel_costs"]["ntt"]
