"""Analytic modular-operation cost models for key-switching.

These closed-form counts drive the paper's motivational study (Fig. 2:
hybrid vs KLSS across levels; Fig. 3a: hoisting; Fig. 3b: working-set
sizes), the bootstrap workload accounting (Fig. 11b) and — most
importantly — the Aether decision tool, which compares exactly these
quantities against evaluation-key transfer latencies.

Conventions
-----------
* Costs count **modular multiplications** (the paper's "modular
  operations"), broken down by kernel: ``ntt``, ``bconv``,
  ``keymult`` and ``elementwise`` (scaling/rescale-style muls).
* A ciphertext at level ``l`` has ``k = l + 1`` limbs.
* Wide (60-bit-class) operations count as one modular operation each;
  the *hardware* cost difference between 36-bit and 60-bit operations
  is the TBM's job and is modelled by the simulator's throughput,
  not here (this matches the paper, whose Fig. 2 counts operations).

Reconstruction notes (the KLSS internals are not fully specified in
the FAST paper):
* One input group of ``alpha`` narrow limbs plus the ``alpha~`` noise
  margin occupies ``alpha' = ceil((alpha + alpha~) * w / v)`` wide
  limbs — "positively correlated with alpha and alpha~, negatively
  with v" as the paper states.
* KeyMult is the (1 x beta) x (beta x beta~) product where ``beta~ =
  ceil((k + alpha~) / alpha~)`` output groups each hold elements of
  ``alpha'`` wide limbs (Sec. 5.4) — KLSS *increases* KeyMult work
  relative to hybrid, exactly as Sec. 3.1 observes, while slashing
  NTT work; the accumulated output data compacts to
  ``ceil((k + alpha~) * w / v)`` wide limbs before recovery.
* Recovery of narrow limbs from wide limbs is *local* (each ``v``-bit
  word splits across ``ceil(v/w)`` narrow words), not a full base
  conversion — this is what lets KLSS cut BConv work and is why
  ``v < 2w`` is chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ckks.params import CkksParams

# -- calibration constants -------------------------------------------------
# Packed bytes per coefficient word.  Chosen so the paper's Fig. 3b
# anchors hold: a level-35 ciphertext is 19.7 MB (paper) and we get
# 2 * 36 limbs * 2^16 * 4.375 B = 19.7 MB.
NARROW_WORD_BYTES = 4.375   # 35-bit packed storage of 36-bit words
WIDE_WORD_BYTES = 7.5       # 60-bit words, packed (working data)
KLSS_KEY_WORD_BYTES = 8.0   # 60-bit key words stored 64-bit aligned

# Wide (60-bit) and narrow (36-bit) modular operations each count as
# one operation, exactly as the paper's Fig. 2 counts them.  With the
# structural KLSS shapes above this reproduces the paper's anchors
# with no fudge factor: KLSS is 15.1% cheaper over l in [25,35]
# (paper: 15.2%) and hybrid 20.4% cheaper over l in [5,12]
# (paper: 23.5%).
WIDE_OP_WEIGHT = 1.0
MB = float(1 << 20)


@dataclass
class KernelOps:
    """Modular-multiplication counts broken down by hardware kernel."""

    ntt: float = 0.0
    bconv: float = 0.0
    keymult: float = 0.0
    elementwise: float = 0.0

    @property
    def total(self) -> float:
        return self.ntt + self.bconv + self.keymult + self.elementwise

    def __add__(self, other: "KernelOps") -> "KernelOps":
        return KernelOps(self.ntt + other.ntt, self.bconv + other.bconv,
                         self.keymult + other.keymult,
                         self.elementwise + other.elementwise)

    def scaled(self, factor: float) -> "KernelOps":
        return KernelOps(self.ntt * factor, self.bconv * factor,
                         self.keymult * factor, self.elementwise * factor)

    def as_dict(self) -> dict[str, float]:
        return {"ntt": self.ntt, "bconv": self.bconv,
                "keymult": self.keymult, "elementwise": self.elementwise,
                "total": self.total}


def ntt_ops(ring_degree: int) -> float:
    """Modmuls for one limb's (I)NTT: butterflies + merged twisting."""
    n = ring_degree
    return (n / 2) * (n.bit_length() - 1) + n


def bconv_ops(ring_degree: int, a_in: int, b_out: int) -> float:
    """Modmuls for a base conversion ``a_in -> b_out`` limbs.

    ``N * a_in`` scaling multiplications (by ``(Q/q_i)^{-1}``) plus
    the ``N * a_in * b_out`` MAC matrix product (BConvU's job).
    """
    return ring_degree * a_in * (1 + b_out)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# -- hybrid method ---------------------------------------------------------

@dataclass
class HybridShape:
    """Derived size parameters of a hybrid switch at one level."""

    k: int          # ciphertext limbs (level + 1)
    alpha: int      # limbs per digit
    beta: int       # number of digits
    p: int          # special-modulus limbs
    digit_sizes: list[int] = field(default_factory=list)

    @classmethod
    def at_level(cls, params: CkksParams, level: int) -> "HybridShape":
        k = level + 1
        alpha = params.alpha
        beta = _ceil_div(k, alpha)
        sizes = [min(alpha, k - j * alpha) for j in range(beta)]
        # Level-aware framework (paper ref [17]): the auxiliary modulus
        # P only needs to dominate the largest digit, so at low levels
        # fewer special limbs participate.
        p_eff = min(params.num_special_primes, max(sizes))
        return cls(k=k, alpha=alpha, beta=beta, p=p_eff, digit_sizes=sizes)


def hybrid_decompose_ops(params: CkksParams, level: int) -> KernelOps:
    """ModUp stage (hoistable): input INTT + per-digit BConv + NTT."""
    shape = HybridShape.at_level(params, level)
    n = params.ring_degree
    ops = KernelOps()
    ops.ntt += shape.k * ntt_ops(n)                      # input INTT
    for size in shape.digit_sizes:
        ext = shape.k + shape.p - size
        ops.bconv += bconv_ops(n, size, ext)
        ops.ntt += ext * ntt_ops(n)                      # extend to eval
    return ops


def hybrid_keymult_ops(params: CkksParams, level: int) -> KernelOps:
    """KeyMult stage: 2 output polys x beta digits x (k+p) limbs."""
    shape = HybridShape.at_level(params, level)
    n = params.ring_degree
    return KernelOps(keymult=2.0 * shape.beta * (shape.k + shape.p) * n)


def hybrid_moddown_ops(params: CkksParams, level: int) -> KernelOps:
    """ModDown stage for both polys: INTT(p) + BConv(p->k) + NTT(k)."""
    shape = HybridShape.at_level(params, level)
    n = params.ring_degree
    ops = KernelOps()
    ops.ntt += 2 * (shape.p + shape.k) * ntt_ops(n)
    ops.bconv += 2 * bconv_ops(n, shape.p, shape.k)
    ops.elementwise += 2.0 * shape.k * n                 # * P^{-1} scaling
    return ops


def hybrid_keyswitch_ops(params: CkksParams, level: int,
                         hoisting: int = 1) -> KernelOps:
    """Full hybrid key-switch cost for ``hoisting`` fused rotations.

    ``hoisting = 1`` is a plain HMult/HRot switch; ``hoisting = h``
    shares one decomposition across ``h`` rotations (Sec. 2.2.3).
    """
    shared = hybrid_decompose_ops(params, level)
    per_rot = hybrid_keymult_ops(params, level) + \
        hybrid_moddown_ops(params, level)
    return shared + per_rot.scaled(hoisting)


# -- KLSS method ------------------------------------------------------------

@dataclass
class KlssShape:
    """Derived size parameters of a KLSS switch at one level."""

    k: int            # narrow ciphertext limbs
    alpha: int        # narrow limbs per input group
    alpha_tilde: int  # noise-margin narrow limbs
    beta: int         # input groups
    alpha_prime: int  # wide limbs per group (incl. margin)
    beta_tilde_groups: int  # output key groups used in KeyMult
    beta_tilde: int   # compact wide-limb count of the output data
    narrow_bits: int
    wide_bits: int

    @classmethod
    def at_level(cls, params: CkksParams, level: int) -> "KlssShape":
        k = level + 1
        alpha = params.klss_alpha or params.alpha
        alpha_tilde = params.klss_alpha_tilde or params.num_special_primes
        w = params.prime_bits
        v = params.klss_word_bits
        beta = _ceil_div(k, alpha)
        alpha_prime = _ceil_div((alpha + alpha_tilde) * w, v)
        beta_tilde_groups = _ceil_div(k + alpha_tilde, alpha_tilde)
        beta_tilde = _ceil_div((k + alpha_tilde) * w, v)
        return cls(k=k, alpha=alpha, alpha_tilde=alpha_tilde, beta=beta,
                   alpha_prime=alpha_prime,
                   beta_tilde_groups=beta_tilde_groups,
                   beta_tilde=beta_tilde,
                   narrow_bits=w, wide_bits=v)

    @property
    def wide_per_narrow(self) -> int:
        """Narrow words covered by one wide word on recovery."""
        return _ceil_div(self.wide_bits, self.narrow_bits)


def klss_decompose_ops(params: CkksParams, level: int) -> KernelOps:
    """Double decomposition (hoistable): INTT + group lift + wide NTT."""
    shape = KlssShape.at_level(params, level)
    n = params.ring_degree
    ops = KernelOps()
    ops.ntt += shape.k * ntt_ops(n)                       # input INTT
    for j in range(shape.beta):
        size = min(shape.alpha, shape.k - j * shape.alpha)
        ops.bconv += WIDE_OP_WEIGHT * bconv_ops(n, size, shape.alpha_prime)
        ops.ntt += WIDE_OP_WEIGHT * shape.alpha_prime * ntt_ops(n)
    return ops


def klss_keymult_ops(params: CkksParams, level: int) -> KernelOps:
    """Vector-matrix KeyMult: (1 x beta) x (beta x beta~ groups),
    each key element carrying alpha' wide limbs (Sec. 5.4)."""
    shape = KlssShape.at_level(params, level)
    n = params.ring_degree
    return KernelOps(
        keymult=WIDE_OP_WEIGHT * 2.0 * shape.beta *
        shape.beta_tilde_groups * shape.alpha_prime * n)


def klss_recover_ops(params: CkksParams, level: int) -> KernelOps:
    """Recover Limbs + ModDown: wide INTT, local split, BConv, NTT."""
    shape = KlssShape.at_level(params, level)
    n = params.ring_degree
    ops = KernelOps()
    # Wide INTT of the accumulated pair.
    ops.ntt += WIDE_OP_WEIGHT * 2 * shape.beta_tilde * ntt_ops(n)
    # Local wide -> narrow split (per wide word, its covering narrows).
    ops.elementwise += WIDE_OP_WEIGHT * 2.0 * shape.beta_tilde * \
        shape.wide_per_narrow * n
    # ModDown over the narrow basis: BConv(alpha~ -> k) + scaling + NTT.
    ops.bconv += 2 * bconv_ops(n, shape.alpha_tilde, shape.k)
    ops.elementwise += 2.0 * shape.k * n
    ops.ntt += 2 * shape.k * ntt_ops(n)
    return ops


def klss_decompose_split(params: CkksParams,
                         level: int) -> tuple[KernelOps, KernelOps]:
    """(narrow, wide) split of the decompose stage for the hardware
    model: the input INTT runs narrow; group lift + wide NTTs wide."""
    shape = KlssShape.at_level(params, level)
    n = params.ring_degree
    narrow = KernelOps(ntt=shape.k * ntt_ops(n))
    wide = klss_decompose_ops(params, level) + narrow.scaled(-1.0)
    return narrow, wide


def klss_recover_split(params: CkksParams,
                       level: int) -> tuple[KernelOps, KernelOps]:
    """(narrow, wide) split of recover+ModDown: the wide INTT and the
    local split run wide; the ModDown BConv/scale/NTT run narrow."""
    shape = KlssShape.at_level(params, level)
    n = params.ring_degree
    wide = KernelOps(
        ntt=WIDE_OP_WEIGHT * 2 * shape.beta_tilde * ntt_ops(n),
        elementwise=WIDE_OP_WEIGHT * 2.0 * shape.beta_tilde *
        shape.wide_per_narrow * n)
    narrow = klss_recover_ops(params, level) + wide.scaled(-1.0)
    return narrow, wide


def klss_keyswitch_ops(params: CkksParams, level: int,
                       hoisting: int = 1) -> KernelOps:
    """Full KLSS key-switch cost for ``hoisting`` fused rotations."""
    shared = klss_decompose_ops(params, level)
    per_rot = klss_keymult_ops(params, level) + \
        klss_recover_ops(params, level)
    return shared + per_rot.scaled(hoisting)


# -- dispatch ----------------------------------------------------------------

def keyswitch_ops(method: str, params: CkksParams, level: int,
                  hoisting: int = 1) -> KernelOps:
    """Cost of one key-switch under ``method`` ('hybrid' or 'klss')."""
    if method == "hybrid":
        return hybrid_keyswitch_ops(params, level, hoisting)
    if method == "klss":
        return klss_keyswitch_ops(params, level, hoisting)
    raise ValueError(f"unknown key-switching method {method!r}")


def quantitative_line(hybrid_params: CkksParams, klss_params: CkksParams,
                      level: int, hoisting: int = 1) -> float:
    """The paper's 'Quantitative Line': hybrid_ops / KLSS_ops.

    Values above 1 mean KLSS is the more efficient method at this
    level (Fig. 2a right axis).
    """
    hyb = hybrid_keyswitch_ops(hybrid_params, level, hoisting).total
    kls = klss_keyswitch_ops(klss_params, level, hoisting).total
    return hyb / kls


# -- measured kernel costs (calibration injection) ---------------------------

@dataclass(frozen=True)
class MeasuredKernelCosts:
    """Micro-measured seconds per modular operation, per kernel class.

    Produced by
    :func:`repro.ckks.keyswitch.calibrate.calibrate_kernel_costs`
    (``python -m repro calibrate``) from timed runs of the
    *actual* software kernels — batched NTT stages, the BConv matrix
    path, the fused KeyMult plan and raw element-wise modmuls — and
    injected here to turn the analytic :class:`KernelOps` counts into
    wall-clock estimates.  Keeping the counts and the unit costs
    separate means the Fig. 2 study can be re-pinned on measured
    numbers without touching the closed-form models.
    """

    ntt: float          # seconds per NTT-butterfly modmul
    bconv: float        # seconds per BConv MAC modmul
    keymult: float      # seconds per KeyMult modmul
    elementwise: float  # seconds per element-wise modmul
    meta: tuple = ()    # provenance key-value pairs, e.g. ring degree
    # The same kernels on 60-bit-mode limbs (KLSS's wide words), where
    # the software TBM runs its other multiplier; ``None`` prices a
    # wide op like a narrow one.  BConv has one cost: its
    # multiply-accumulate is the float64 matrix product at any width.
    wide_ntt: float | None = None
    wide_keymult: float | None = None
    wide_elementwise: float | None = None

    def seconds(self, ops: KernelOps, wide: KernelOps | None = None) -> float:
        """Wall-clock estimate for ``ops`` on 36-bit-mode limbs plus
        ``wide`` on 60-bit-mode limbs."""
        total = (ops.ntt * self.ntt + ops.bconv * self.bconv
                 + ops.keymult * self.keymult
                 + ops.elementwise * self.elementwise)
        if wide is not None:
            total += (wide.ntt * _or(self.wide_ntt, self.ntt)
                      + wide.bconv * self.bconv
                      + wide.keymult * _or(self.wide_keymult, self.keymult)
                      + wide.elementwise * _or(self.wide_elementwise,
                                               self.elementwise))
        return total

    def as_dict(self) -> dict:
        out = {"ntt": self.ntt, "bconv": self.bconv,
               "keymult": self.keymult,
               "elementwise": self.elementwise,
               "meta": dict(self.meta)}
        out.update((name, getattr(self, name)) for name in _WIDE_COSTS
                   if getattr(self, name) is not None)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MeasuredKernelCosts":
        return cls(ntt=float(data["ntt"]), bconv=float(data["bconv"]),
                   keymult=float(data["keymult"]),
                   elementwise=float(data["elementwise"]),
                   meta=tuple(sorted(dict(data.get("meta", {})).items())),
                   **{name: float(data[name]) for name in _WIDE_COSTS
                      if data.get(name) is not None})


_WIDE_COSTS = ("wide_ntt", "wide_keymult", "wide_elementwise")


def _or(value, default):
    return default if value is None else value


def klss_keyswitch_split(params: CkksParams, level: int,
                         hoisting: int = 1) -> tuple[KernelOps, KernelOps]:
    """(narrow, wide) split of :func:`klss_keyswitch_ops`: KeyMult and
    the wide halves of decompose and recover run on 60-bit words."""
    dec_narrow, dec_wide = klss_decompose_split(params, level)
    rec_narrow, rec_wide = klss_recover_split(params, level)
    return (dec_narrow + rec_narrow.scaled(hoisting),
            dec_wide + (klss_keymult_ops(params, level)
                        + rec_wide).scaled(hoisting))


def keyswitch_seconds(method: str, params: CkksParams, level: int,
                      costs: MeasuredKernelCosts,
                      hoisting: int = 1) -> float:
    """Measured-cost estimate of one key-switch in seconds: hybrid
    runs on narrow limbs throughout, KLSS partly on wide words."""
    if method == "klss":
        return costs.seconds(*klss_keyswitch_split(params, level, hoisting))
    return costs.seconds(keyswitch_ops(method, params, level, hoisting))


def measured_quantitative_line(hybrid_params: CkksParams,
                               klss_params: CkksParams, level: int,
                               costs: MeasuredKernelCosts,
                               hoisting: int = 1) -> float:
    """Fig. 2's hybrid/KLSS ratio re-pinned on measured kernel costs.

    The analytic line weights every modular operation equally; with
    measured per-kernel unit costs the ratio shifts wherever the NTT
    and BConv kernels run at different achieved rates.
    """
    hyb = keyswitch_seconds("hybrid", hybrid_params, level, costs,
                            hoisting)
    kls = keyswitch_seconds("klss", klss_params, level, costs, hoisting)
    return hyb / kls


def crossover_level(hybrid_params: CkksParams, klss_params: CkksParams,
                    costs: MeasuredKernelCosts | None = None,
                    hoisting: int = 1,
                    max_level: int | None = None) -> int | None:
    """Lowest level at which KLSS beats hybrid (Fig. 2 crossover).

    With ``costs`` the comparison uses measured seconds; without, the
    analytic operation counts.  Returns ``None`` when hybrid wins at
    every level up to ``max_level``.
    """
    top = max_level if max_level is not None else \
        min(hybrid_params.max_level, klss_params.max_level)
    for level in range(1, top + 1):
        if costs is not None:
            ratio = measured_quantitative_line(
                hybrid_params, klss_params, level, costs, hoisting)
        else:
            ratio = quantitative_line(hybrid_params, klss_params, level,
                                      hoisting)
        if ratio > 1.0:
            return level
    return None


# -- working-set / key sizes (Fig. 3b) ---------------------------------------

def ciphertext_bytes(params: CkksParams, level: int) -> float:
    """Size of one ciphertext at ``level`` (packed words)."""
    k = level + 1
    return 2.0 * k * params.ring_degree * NARROW_WORD_BYTES


def hybrid_evk_bytes(params: CkksParams, level: int) -> float:
    """One hybrid evaluation key: beta RLWE pairs over Q_l x P."""
    shape = HybridShape.at_level(params, level)
    limbs = shape.k + shape.p
    return 2.0 * shape.beta * limbs * params.ring_degree * NARROW_WORD_BYTES


def klss_evk_bytes(params: CkksParams, level: int) -> float:
    """One KLSS evaluation key: the beta x beta~-group matrix of
    RLWE pairs whose elements carry ``alpha'`` wide limbs each.

    With Set-II at level 35 this yields ~283 MB against the paper's
    295.3 MB anchor (within 5%).
    """
    shape = KlssShape.at_level(params, level)
    # Stored form is compact: the output data limbs plus one group
    # margin per row; KeyMult compute engages the redundant
    # per-group representation (beta~ groups x alpha' limbs).
    wide_limbs = shape.beta_tilde + shape.alpha_prime
    return 2.0 * shape.beta * wide_limbs * params.ring_degree * \
        KLSS_KEY_WORD_BYTES


def minks_key_bytes(params: CkksParams) -> float:
    """Compact (ARK Min-KS) stored form of one hybrid key.

    The key is kept at its single-digit base representation (``alpha``
    limbs plus the special limbs) and its remaining limbs are
    regenerated on chip, so only this much ever crosses HBM.
    """
    return hybrid_evk_bytes(params, params.alpha - 1)


def evk_bytes(method: str, params: CkksParams, level: int,
              hoisting: int = 1) -> float:
    """Total key bytes for one operation (h rotations need h keys)."""
    if method == "hybrid":
        per_key = hybrid_evk_bytes(params, level)
    elif method == "klss":
        per_key = klss_evk_bytes(params, level)
    else:
        raise ValueError(f"unknown key-switching method {method!r}")
    return per_key * max(1, hoisting)


def working_set_bytes(method: str, params: CkksParams, level: int,
                      num_ciphertexts: int = 4, hoisting: int = 1) -> float:
    """Fig. 3b: resident ciphertexts + the evaluation key(s)."""
    return (num_ciphertexts * ciphertext_bytes(params, level)
            + evk_bytes(method, params, level, hoisting))
