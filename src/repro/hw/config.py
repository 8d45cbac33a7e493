"""Chip configurations: FAST and its ablation/baseline variants.

A :class:`ChipConfig` carries everything the simulator and the area
model need.  Presets:

* :data:`FAST_CONFIG` — the paper's design point (Table 4 bottom row):
  4 clusters x 256 lanes at 1 GHz, TBM datapath (36/60-bit tunable),
  281 MB on-chip memory, 72+72 TB/s internal bandwidth, 1 TB/s HBM.
* :func:`fast_variant` — derived points for the sensitivity study
  (Fig. 13: scratchpad size and cluster count sweeps) and for the
  efficiency ablation (Fig. 12: no-TBM, 36-bit-ALU).
* SHARP-class baselines for the comparison rows live in
  :mod:`repro.sim.baselines`, built on the same dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ChipConfig:
    """Static description of one accelerator design point.

    Attributes mirror Table 4's columns plus the datapath options the
    efficiency study toggles.
    """

    name: str
    clusters: int = 4
    lanes_per_cluster: int = 256
    frequency_hz: float = 1.0e9
    narrow_bits: int = 36
    wide_bits: int = 60
    has_tbm: bool = True            # TBM datapath (dual narrow / one wide)
    supports_klss: bool = True      # 60-bit KeyMult path present
    supports_hoisting: bool = True
    onchip_memory_bytes: float = 281 * 2**20
    key_storage_bytes: float = 180 * 2**20   # reserve inside on-chip mem
    onchip_bandwidth_bytes: float = 144e12   # 72+72 TB/s
    hbm_bandwidth_bytes: float = 1e12        # 1 TB/s
    use_ekg: bool = True
    # ARK-style minimum key-switching / inter-operation key reuse
    # (Sec. 6.1): one key per (method, kind, rotation) serves every
    # level, so repeated rotations hit the on-chip key cache.
    use_minks: bool = True
    # Unit sizing knobs (per cluster, in base modular multipliers).
    bconv_array_height: int = 4
    kmu_array_width: int = 3

    def __post_init__(self):
        # every throughput and delay divides by these
        for field in ("clusters", "lanes_per_cluster", "frequency_hz",
                      "onchip_bandwidth_bytes", "hbm_bandwidth_bytes"):
            if not getattr(self, field) > 0:
                raise ValueError(f"{self.name}: {field} must be positive, "
                                 f"not {getattr(self, field)!r}")

    @property
    def total_lanes(self) -> int:
        return self.clusters * self.lanes_per_cluster

    @property
    def narrow_parallel_factor(self) -> int:
        """Modmuls per lane-slot in narrow mode (2 with TBM, else 1)."""
        return 2 if self.has_tbm else 1

    def parallel_factor(self, wide: bool) -> int:
        """Modular ops per lane-slot for a precision mode.

        Reconciliation note (documented in DESIGN.md): Sec. 5's prose
        halves the element rate in wide mode, but the paper's own
        evaluation (KLSS adoption at EvalMod/SlotToCoeff, Fig. 10's
        1.24x, Fig. 11b, Tables 5/6) is only self-consistent if the
        TBM datapath sustains the same op-slot rate in both modes; we
        therefore charge one TBM slot per modular operation in either
        precision.  Chips without the TBM run one op per slot.
        """
        return 2 if self.has_tbm else 1

    def modops_per_second(self, wide: bool = False) -> float:
        """Aggregate lane throughput used by Aether's delay estimates."""
        per_lane = 1 if wide else self.narrow_parallel_factor
        return self.total_lanes * per_lane * self.frequency_hz

    def effective_modops_per_second(self) -> float:
        """Sustained modular-op rate for delay estimates.

        Key-switching is NTTU-dominated; the sustained chip rate is
        about 75% of the NTTU's narrow-mode butterfly throughput
        (sqrt(N)-lane streaming with log2(N)/2 butterflies in flight).
        """
        ring_log = 16  # N = 2^16 (the evaluation ring)
        butterflies = (1 << (ring_log // 2)) * ring_log / 2
        per_cluster = butterflies * self.narrow_parallel_factor
        return 0.75 * self.clusters * per_cluster * self.frequency_hz

    def with_(self, **changes) -> "ChipConfig":
        return replace(self, **changes)

    def per_cluster(self) -> "ChipConfig":
        """The single-cluster slice of this design point.

        The dataflow scheduler times each operation on one cluster's
        units (1/``clusters`` of the chip-wide throughput) and runs
        the clusters concurrently; the memory system (HBM channel,
        on-chip key reserve) stays shared at full capacity.
        """
        if self.clusters == 1:
            return self
        return self.with_(name=f"{self.name}/cluster", clusters=1)


FAST_CONFIG = ChipConfig(name="FAST")


def fast_variant(name: str, **changes) -> ChipConfig:
    """A FAST-derived design point (sensitivity/ablation sweeps)."""
    return FAST_CONFIG.with_(name=name, **changes)


# Efficiency-study points (Fig. 12): progressively remove TBM, then
# Aether-Hemera (modelled at the simulator level), down to a plain
# 36-bit-ALU accelerator.
FAST_WITHOUT_TBM = fast_variant("FAST-noTBM", has_tbm=False)
FAST_36BIT_ALU = fast_variant("FAST-36bitALU", has_tbm=False,
                              supports_klss=False, wide_bits=36)


def memory_sweep(sizes_mb: list[int]) -> list[ChipConfig]:
    """Fig. 13(a): FAST at several scratchpad capacities."""
    configs = []
    for mb in sizes_mb:
        # FAST reserves ~64% of the scratchpad for evaluation keys
        # (180 of 281 MB); the sweep keeps that split.
        key_reserve = 0.64 * mb * 2**20
        configs.append(fast_variant(
            f"FAST-{mb}MB", onchip_memory_bytes=mb * 2**20,
            key_storage_bytes=key_reserve))
    return configs


def cluster_sweep(counts: list[int]) -> list[ChipConfig]:
    """Fig. 13(b): FAST at several cluster counts."""
    return [fast_variant(f"FAST-{c}C", clusters=c) for c in counts]
