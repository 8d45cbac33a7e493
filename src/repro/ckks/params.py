"""CKKS parameter sets.

Two kinds of parameter objects exist in this reproduction:

* The paper's full-size sets (Table 2): ``SET_I`` (hybrid-only,
  ``alpha = 12``) and ``SET_II`` (hybrid + KLSS, ``alpha = 5``,
  ``alpha~ = 9``), with ``N = 2^16``, ``L = 35`` and 36-bit scale
  primes.  These drive the analytic cost models, Aether, and the
  cycle simulator at the paper's scale.
* Scaled-down *toy* sets produced by :func:`toy_params`, used for the
  functional scheme: the ring is smaller and the primes are narrower
  (28 bits by default, the gadget digits shrinking with them), but the structure — digit
  size ``alpha``, special-modulus count, KLSS gadget width — is
  preserved.  Every prime below 2^62 runs the same uint64 path.
* :func:`set_ii_mini` sets, which keep Set-II's *real word lengths*
  (36-bit scale primes, 60-bit KLSS gadget/T words) on the vectorised
  wide uint64 path and shrink only the ring and chain length.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class CkksParams:
    """Static CKKS configuration.

    Attributes
    ----------
    ring_degree:
        Polynomial degree ``N`` (power of two); ``N/2`` complex slots.
    max_level:
        ``L``: number of rescalings supported, so the fresh modulus
        chain has ``L + 1`` primes ``q_0 .. q_L``.
    scale_bits:
        ``log2`` of the encoding scale ``Delta``.
    prime_bits:
        Bit length of the scale primes ``q_1 .. q_L``.
    first_prime_bits:
        Bit length of ``q_0`` (larger, to absorb the final message).
    alpha:
        Hybrid-method digit size (limbs per ModUp group); the paper's
        ``alpha``.  ``beta = ceil((l+1)/alpha)`` digits at level l.
    num_special_primes:
        Limbs of the hybrid auxiliary modulus ``P`` (chosen equal to
        ``alpha`` as in the paper's Set-I/Set-II).
    klss_alpha / klss_alpha_tilde:
        Set-II KLSS grouping parameters (see paper Table 2).
    klss_digit_bits:
        Gadget decomposition width ``v`` (60 in the paper).
    klss_word_bits:
        Word length of the wide KLSS primes (60 in the paper; 30 in
        toy sets, scaled with their primes).
    hamming_weight:
        Secret-key Hamming weight (sparse ternary secret).
    sigma:
        RLWE error standard deviation.
    boot_levels:
        ``L_boot``: levels consumed by bootstrapping, leaving
        ``L_eff = max_level - boot_levels`` usable levels.
    double_rescale:
        Whether every multiplication consumes two levels (the paper's
        36-bit double-rescale configuration, from SHARP).
    name:
        Human-readable label.
    """

    ring_degree: int
    max_level: int
    scale_bits: int
    prime_bits: int
    first_prime_bits: int
    alpha: int
    num_special_primes: int
    klss_alpha: int = 0
    klss_alpha_tilde: int = 0
    klss_digit_bits: int = 60
    klss_word_bits: int = 60
    hamming_weight: int = 64
    sigma: float = 3.2
    boot_levels: int = 27
    double_rescale: bool = False
    name: str = "custom"

    def __post_init__(self):
        if self.ring_degree & (self.ring_degree - 1):
            raise ValueError("ring_degree must be a power of two")
        if self.max_level < 1:
            raise ValueError("max_level must be at least 1")
        if self.alpha < 1 or self.alpha > self.max_level + 1:
            raise ValueError("alpha out of range")

    @property
    def num_slots(self) -> int:
        """Maximum packed slot count ``n = N / 2``."""
        return self.ring_degree // 2

    @property
    def effective_level(self) -> int:
        """``L_eff``: levels left for the application after bootstrap."""
        return self.max_level - self.boot_levels

    @property
    def num_limbs_fresh(self) -> int:
        """Limbs of a fresh ciphertext (``L + 1``)."""
        return self.max_level + 1

    @property
    def levels_per_mult(self) -> int:
        """Levels consumed by one multiplication (2 with double rescale)."""
        return 2 if self.double_rescale else 1

    def limbs_at(self, level: int) -> int:
        """Limb count of a ciphertext at ``level`` (``level + 1``)."""
        if not 0 <= level <= self.max_level:
            raise ValueError(f"level {level} outside [0, {self.max_level}]")
        return level + 1

    def beta_at(self, level: int) -> int:
        """Hybrid digit count ``beta = ceil((level+1)/alpha)``."""
        return -(-self.limbs_at(level) // self.alpha)

    def with_(self, **changes) -> "CkksParams":
        """A modified copy (convenience for sweeps)."""
        return replace(self, **changes)


# Paper Table 2.  128-bit secure full-size sets; used analytically.
SET_I = CkksParams(
    ring_degree=1 << 16,
    max_level=35,
    scale_bits=36,
    prime_bits=36,
    first_prime_bits=60,
    alpha=12,
    num_special_primes=12,
    hamming_weight=192,
    boot_levels=27,
    double_rescale=True,
    name="Set-I (hybrid, alpha=12)",
)

SET_II = CkksParams(
    ring_degree=1 << 16,
    max_level=35,
    scale_bits=36,
    prime_bits=36,
    first_prime_bits=60,
    alpha=5,
    num_special_primes=5,
    klss_alpha=5,
    klss_alpha_tilde=9,
    klss_digit_bits=60,
    klss_word_bits=60,
    hamming_weight=192,
    boot_levels=27,
    double_rescale=True,
    name="Set-II (hybrid+KLSS, alpha=5, alpha~=9)",
)


def set_ii_mini(ring_degree: int = 4096, max_level: int = 6,
                alpha: int | None = None, hamming_weight: int = 64,
                boot_levels: int = 4,
                name: str = "Set-II-mini (36-bit, wide path)") -> CkksParams:
    """A Set-II-shaped set with the paper's *real word lengths*.

    Unlike :func:`toy_params`, the primes keep Set-II's widths — 36-bit
    scale primes, a wider first prime, 60-bit KLSS gadget digits and
    wide T-basis primes.  Only the ring degree and chain length are
    reduced, which keeps functional workloads affordable in software
    while exercising exactly the arithmetic the paper's TBM executes
    in its 36-bit and 60-bit modes.
    """
    if alpha is None:
        alpha = min(5, max_level + 1)
    return CkksParams(
        ring_degree=ring_degree,
        max_level=max_level,
        scale_bits=36,
        prime_bits=36,
        first_prime_bits=44,
        alpha=alpha,
        num_special_primes=alpha,
        klss_alpha=alpha,
        klss_alpha_tilde=3,
        klss_digit_bits=60,
        klss_word_bits=60,
        hamming_weight=hamming_weight,
        sigma=3.2,
        boot_levels=boot_levels,
        double_rescale=False,
        name=name,
    )


def toy_params(ring_degree: int = 64, max_level: int = 6,
               alpha: int = 2, prime_bits: int = 28,
               scale_bits: int = 28, num_special_primes: int | None = None,
               klss_digit_bits: int = 12, klss_word_bits: int = 30,
               hamming_weight: int = 16, boot_levels: int = 4,
               name: str = "toy") -> CkksParams:
    """A scaled-down set preserving Set-II structure.

    Primes default to 28 bits and the gadget digit width shrinks
    proportionally; the arithmetic is the uint64 path every modulus
    below 2^62 runs.
    """
    if num_special_primes is None:
        num_special_primes = alpha
    return CkksParams(
        ring_degree=ring_degree,
        max_level=max_level,
        scale_bits=scale_bits,
        prime_bits=prime_bits,
        first_prime_bits=min(prime_bits + 2, 30),
        alpha=alpha,
        num_special_primes=num_special_primes,
        klss_alpha=alpha,
        klss_alpha_tilde=num_special_primes,
        klss_digit_bits=klss_digit_bits,
        klss_word_bits=klss_word_bits,
        hamming_weight=hamming_weight,
        sigma=3.2,
        boot_levels=boot_levels,
        double_rescale=False,
        name=name,
    )
