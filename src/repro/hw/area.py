"""Table 3 / Table 4 roll-ups: chip area and peak power.

The per-unit models in this package are anchored so that the FAST
configuration reproduces the paper's Table 3 within a few percent (the
Table 3 rows of ``repro.analysis.figures``); variant configurations
(more clusters, different memory, no TBM) then scale *structurally* —
that is what makes the performance-per-area comparisons in the
evaluation meaningful.
"""

from __future__ import annotations

from repro.hw.accelerator import Accelerator
from repro.hw.config import ChipConfig, FAST_CONFIG


def table3(config: ChipConfig = FAST_CONFIG) -> dict[str, dict[str, float]]:
    """Regenerate Table 3 for a configuration.

    Returns ``{component: {"area_mm2": ..., "power_w": ...}}`` plus a
    ``"Total"`` row.
    """
    chip = Accelerator(config)
    areas = chip.component_areas_mm2()
    powers = chip.component_powers_w()
    rows = {name: {"area_mm2": areas[name], "power_w": powers[name]}
            for name in areas}
    rows["Total"] = {"area_mm2": sum(areas.values()),
                     "power_w": sum(powers.values())}
    return rows


def area_for(config: ChipConfig) -> float:
    return Accelerator(config).total_area_mm2()
