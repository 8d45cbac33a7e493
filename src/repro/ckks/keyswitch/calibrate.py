"""Kernel-cost calibration: measured seconds per modular operation.

``python -m repro calibrate`` times the *actual* software
kernels — the stage-vectorised batched NTT, the matrix-form BConv, the
fused KeyMult plan and raw element-wise modmuls — at Set-II-mini
shapes, divides each wall time by the analytic modular-operation count
the cost model assigns to that exact shape, and writes the resulting
:class:`~repro.ckks.keyswitch.cost.MeasuredKernelCosts` to
``CALIBRATION.json`` together with the re-pinned Fig. 2
hybrid-vs-KLSS crossover.

The unit costs differ between kernels (the NTT's strided butterflies
run slower per modmul than BLAS-backed BConv MACs), which is exactly
why the measured crossover can sit at a different level than the
count-based one.  They also differ between the software TBM's two
multiplier modes, so the NTT, KeyMult and element-wise costs are
measured twice: on the 36/44-bit Q chain (what a hybrid switch runs
on) and on the 60-bit T words (``wide_*``, what KLSS's wide half
runs on).
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.ckks.keyswitch import cost
from repro.ckks.keyswitch.cost import MeasuredKernelCosts

CALIBRATION_SCHEMA = "repro-calibration/v1"
CALIBRATE_RING_DEGREE = 1024


def _best(fn, reps: int) -> float:
    walls = []
    for _ in range(max(1, reps)):
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
    return min(walls)


def calibrate_kernel_costs(ring_degree: int = CALIBRATE_RING_DEGREE,
                           reps: int = 5,
                           inner: int = 4) -> MeasuredKernelCosts:
    """Time each kernel class; return seconds-per-modop unit costs."""
    from repro.ckks import modmath, rns
    from repro.ckks.context import CkksContext
    from repro.ckks.keys import HYBRID, KLSS
    from repro.ckks.keyswitch.hybrid import get_key_mult_plan
    from repro.ckks.ntt import transform_limbs
    from repro.ckks.params import set_ii_mini

    n = ring_degree
    params = set_ii_mini(ring_degree=n)
    ctx = CkksContext(params, seed=13)
    q_chain, specials = ctx.q_chain, ctx.p_moduli
    level = params.max_level
    rng = np.random.default_rng(7)

    def timed(fn) -> float:
        return _best(lambda: [fn() for _ in range(inner)], reps) / inner

    def ntt_unit(moduli) -> float:
        """One batched forward pass over the basis, per butterfly."""
        block = modmath.uniform_block(n, moduli, rng)
        return (timed(lambda: transform_limbs(block, moduli, n))
                / (len(moduli) * cost.ntt_ops(n)))

    def keymult_unit(method: str) -> float:
        """The fused plan on a top-level key, per product."""
        key = ctx.evaluation_key(method, level, "mult")
        plan = get_key_mult_plan(key)
        shape = (key.num_digits, len(key.moduli), n)
        stacked = rng.integers(0, 2 ** 30, size=shape, dtype=np.uint64)
        return timed(lambda: plan.accumulate(stacked)) / (2.0 * stacked.size)

    def elementwise_unit(q: int) -> float:
        """One full-width modular multiply per coefficient, on a
        one-row block."""
        kernel = modmath.BasisKernel((q,))
        a = modmath.uniform_block(n, (q,), rng)
        b = modmath.uniform_block(n, (q,), rng)
        return timed(lambda: kernel.mul(a, b)) / n

    # BConv: the ModDown shape (specials -> Q) on the matrix path.
    poly = rns.RnsPoly(modmath.uniform_block(n, specials, rng), specials,
                       rns.COEFF)
    plan = rns.get_bconv_plan(specials, q_chain)
    bconv_unit = (timed(lambda: plan.convert(poly))
                  / cost.bconv_ops(n, len(specials), len(q_chain)))

    return MeasuredKernelCosts(
        ntt=ntt_unit(q_chain), bconv=bconv_unit,
        keymult=keymult_unit(HYBRID),
        elementwise=elementwise_unit(q_chain[0]),
        wide_ntt=ntt_unit(ctx.t_moduli),
        wide_keymult=keymult_unit(KLSS),
        wide_elementwise=elementwise_unit(ctx.t_moduli[0]),
        meta=(("ring_degree", n), ("params", params.name),
              ("reps", reps)))


def calibration_report(ring_degree: int = CALIBRATE_RING_DEGREE,
                       reps: int = 5) -> dict:
    """Measured unit costs plus the re-pinned Fig. 2 crossover."""
    from repro.ckks.params import SET_I, SET_II

    costs = calibrate_kernel_costs(ring_degree=ring_degree, reps=reps)
    analytic = cost.crossover_level(SET_I, SET_II)
    measured = cost.crossover_level(SET_I, SET_II, costs=costs)
    levels = {}
    for level in (5, 15, 25, 35):
        levels[str(level)] = {
            "analytic_ratio": cost.quantitative_line(SET_I, SET_II, level),
            "measured_ratio": cost.measured_quantitative_line(
                SET_I, SET_II, level, costs),
        }
    return {
        "schema": CALIBRATION_SCHEMA,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "kernel_costs": costs.as_dict(),
        "crossover": {
            "analytic_level": analytic,
            "measured_level": measured,
            "levels": levels,
        },
    }


def load_calibration(path: str) -> MeasuredKernelCosts:
    """Read a ``CALIBRATION.json`` back into injectable unit costs."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return MeasuredKernelCosts.from_dict(data["kernel_costs"])


def write_calibration(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
