"""AEM: the auxiliary execution module (Sec. 5.7).

Two sub-units keep full-scale bootstrapping accurate and the key
storage small:

* **DSU** (double-prime scaling unit): with 36-bit ciphertext words a
  single rescale cannot remove a full ``Delta^2``; bootstrapping uses
  a *double rescale* dividing by two primes at once.  The DSU is the
  SHARP design: four multipliers, two adders, two modulo units at
  512-wide parallelism.  :func:`double_rescale_coeff` is the
  functional per-coefficient model.
* **EKG** (evaluation key generator): every RLWE key pair ``(b, a)``
  has a uniformly pseudorandom half that can be regenerated on chip
  from a seed instead of being stored/transferred.
  :class:`EvaluationKeyGenerator` reproduces the pseudorandom half
  deterministically, which is what halves key traffic (the factor
  Aether/Hemera apply).
"""

from __future__ import annotations

import numpy as np

from repro.ckks import modmath
from repro.hw import multiplier
from repro.hw.config import ChipConfig


def double_rescale_coeff(value: int, q_second_last: int, q_last: int,
                         target_modulus: int) -> int:
    """Functionally divide a coefficient by two primes with rounding.

    ``round(value / (q_a * q_b)) mod target`` — the DSU's per-element
    operation during bootstrap's double rescale.
    """
    divisor = q_second_last * q_last
    # With floor division, adding divisor//2 rounds to nearest for
    # positive and negative inputs alike.
    quotient = (value + divisor // 2) // divisor
    return quotient % target_modulus


class DoublePrimeScalingUnit:
    """DSU throughput/area model: 4 mults, 2 adds, 2 mod units, 512-wide."""

    MULTIPLIERS = 4
    ADDERS = 2
    MOD_UNITS = 2
    PARALLELISM = 512

    # Per-512-lane-slice cell constants (4 mults, 2 adders, 2 modulo
    # units plus wide accumulators), calibrated to Table 3's AEM row
    # net of the EKG share.
    CELL_AREA_MM2 = 2.93e-3
    CELL_POWER_W = 4.06e-3

    def __init__(self, config: ChipConfig):
        self.config = config

    def cycles_for_rescale(self, ring_degree: int, num_limbs: int) -> float:
        """One double rescale touches every remaining limb element."""
        elements = ring_degree * num_limbs
        return elements / self.PARALLELISM

    def area_mm2(self) -> float:
        return self.PARALLELISM * self.CELL_AREA_MM2

    def peak_power_w(self) -> float:
        return self.PARALLELISM * self.CELL_POWER_W


class EvaluationKeyGenerator:
    """EKG: deterministic regeneration of the pseudorandom key half.

    The pool stores a 32-byte seed per key; on chip, the PRNG expands
    it to the uniform polynomial ``a``.  Regeneration is exact —
    :meth:`expand` with the same seed always returns the same limbs —
    so only the ``b`` half ever crosses the HBM interface.
    """

    SEED_BYTES = 32

    def __init__(self, config: ChipConfig):
        self.config = config
        self.expansions = 0

    def expand(self, seed: int, ring_degree: int, moduli) -> np.ndarray:
        """Expand ``seed`` into a uniform ``(k, N)`` block, one row
        per modulus."""
        self.expansions += 1
        return modmath.uniform_block(ring_degree, moduli,
                                     np.random.default_rng(seed))

    def traffic_saving_factor(self) -> float:
        """Key bytes that still move off-chip: the stored half only."""
        return 0.5

    def area_mm2(self) -> float:
        """PRNG + expansion datapath, anchored within Table 3's AEM."""
        return 0.67 * (self.config.lanes_per_cluster / 256)

    def peak_power_w(self) -> float:
        return 0.6 * (self.config.lanes_per_cluster / 256)


class AuxiliaryExecutionModule:
    """One cluster's AEM: DSU + EKG."""

    def __init__(self, config: ChipConfig):
        self.config = config
        self.dsu = DoublePrimeScalingUnit(config)
        self.ekg = EvaluationKeyGenerator(config)

    def area_mm2(self) -> float:
        return self.dsu.area_mm2() + self.ekg.area_mm2()

    def peak_power_w(self) -> float:
        return self.dsu.peak_power_w() + self.ekg.peak_power_w()
