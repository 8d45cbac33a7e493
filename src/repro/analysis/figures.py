"""One function per evaluation table/figure (see DESIGN.md Sec. 4), and
the one row list EXPERIMENTS.md is rendered from.

Every figure function returns plain data structures (dicts / lists of
rows) and carries no paper value.  :data:`ROWS` holds, per artefact,
the paper's value, how to read the measured value from its figure's
data, and the verdict band.  :func:`experiments_markdown` calls each
figure function once and renders the whole of EXPERIMENTS.md from the
rows, so ``python -m repro evaluate > EXPERIMENTS.md`` regenerates it
and ``tests/analysis/test_experiments.py`` fails on any difference.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from statistics import fmean
from typing import Callable, NamedTuple

from repro.ckks.params import SET_I, SET_II, CkksParams
from repro.ckks.keyswitch import cost
from repro.hw import area as hw_area
from repro.hw import multiplier
from repro.hw.config import (FAST_CONFIG, FAST_WITHOUT_TBM, FAST_36BIT_ALU,
                             ChipConfig, cluster_sweep, fast_variant,
                             memory_sweep)
from repro.sim import baselines, metrics
from repro.sim.engine import UNIT_NAMES, Engine, SimulationResult
from repro.workloads import bootstrap_trace, helr_trace, resnet20_trace

MS = 1e3


# --------------------------------------------------------------------------
# Motivational study
# --------------------------------------------------------------------------

def figure2a(levels=range(1, 36)) -> list[dict]:
    """Modular-op counts for hybrid (Set-I) and KLSS (Set-II) per
    level, plus the quantitative line (hybrid/KLSS)."""
    rows = []
    for level in levels:
        hybrid = cost.hybrid_keyswitch_ops(SET_I, level).total
        klss = cost.klss_keyswitch_ops(SET_II, level).total
        rows.append({"level": level, "hybrid_mops": hybrid / 1e6,
                     "klss_mops": klss / 1e6,
                     "quantitative_line": hybrid / klss})
    return rows


def figure2b(levels=range(1, 36)) -> list[dict]:
    """Per-kernel quantitative lines: which kernel drives the shift."""
    rows = []
    for level in levels:
        hyb = cost.hybrid_keyswitch_ops(SET_I, level)
        kls = cost.klss_keyswitch_ops(SET_II, level)
        rows.append({
            "level": level,
            "ntt": hyb.ntt / max(kls.ntt, 1.0),
            "bconv": hyb.bconv / max(kls.bconv, 1.0),
            "keymult": hyb.keymult / max(kls.keymult, 1.0),
            "elementwise": hyb.elementwise / max(kls.elementwise, 1.0),
        })
    return rows


def figure3a(levels=range(1, 36), hoisting=(2, 4, 6)) -> list[dict]:
    """KLSS/hybrid execution-op ratio under hoisting h2/h4/h6.

    Values are KLSS totals normalised to the hybrid method at the
    same hoisting count, per the paper's Fig. 3(a)."""
    rows = []
    for level in levels:
        row = {"level": level}
        for h in hoisting:
            hyb = cost.hybrid_keyswitch_ops(SET_I, level, hoisting=h).total
            kls = cost.klss_keyswitch_ops(SET_II, level, hoisting=h).total
            row[f"h{h}"] = kls / hyb
        rows.append(row)
    return rows


def figure3b(levels=range(1, 36)) -> list[dict]:
    """Working-set sizes (MB) per level: evk for each method plus 4-
    and 8-ciphertext residency."""
    rows = []
    for level in levels:
        rows.append({
            "level": level,
            "ciphertext_mb": cost.ciphertext_bytes(SET_I, level) / cost.MB,
            "hybrid_evk_mb": cost.hybrid_evk_bytes(SET_I, level) / cost.MB,
            "klss_evk_mb": cost.klss_evk_bytes(SET_II, level) / cost.MB,
            "ws_4ct_hybrid_mb": cost.working_set_bytes(
                "hybrid", SET_I, level, 4) / cost.MB,
            "ws_8ct_hybrid_mb": cost.working_set_bytes(
                "hybrid", SET_I, level, 8) / cost.MB,
        })
    return rows


def figure4(bit_widths=(24, 28, 32, 36, 48, 60, 64)) -> dict:
    """ALU area/power scaling relative to 36-bit (mult and modmult)."""
    return {
        "modular_multiplier": multiplier.relative_scaling(
            bit_widths, modular=True),
        "multiplier": multiplier.relative_scaling(
            bit_widths, modular=False),
    }


# --------------------------------------------------------------------------
# Configuration tables
# --------------------------------------------------------------------------

def table2() -> list[dict]:
    """The parameter sets (straight from repro.ckks.params)."""
    rows = []
    for params, ksw in ((SET_I, "Hybrid"), (SET_II, "Hybrid+KLSS")):
        rows.append({
            "set": params.name, "N": params.ring_degree,
            "n": params.num_slots, "L": params.max_level,
            "L_eff": params.effective_level, "alpha": params.alpha,
            "alpha_tilde": params.klss_alpha_tilde or None,
            "q_bits": params.prime_bits, "ksw": ksw,
        })
    return rows


table3 = hw_area.table3     # component area/power roll-up, per config


def table4() -> list[dict]:
    """Hardware comparison: published rows + our FAST model row."""
    rows = [{"name": b.name, "word_bits": b.word_bits, "lanes": b.lanes,
             "onchip_mb": b.onchip_mb, "area_mm2": b.area_mm2,
             "source": "published"}
            for b in baselines.ALL_PUBLISHED]
    rows.append({"name": "FAST (ours)", "word_bits": 60, "lanes": 1024,
                 "onchip_mb": FAST_CONFIG.onchip_memory_bytes / 2**20,
                 "area_mm2": hw_area.area_for(FAST_CONFIG),
                 "source": "modelled"})
    return rows


# --------------------------------------------------------------------------
# Workload performance
# --------------------------------------------------------------------------

def _workloads(params: CkksParams = SET_II) -> dict:
    return {
        "Bootstrap": bootstrap_trace(params),
        "HELR256": helr_trace(params, batch=256),
        "HELR1024": helr_trace(params, batch=1024),
        "ResNet-20": resnet20_trace(params),
    }


def run_workloads(config: ChipConfig = FAST_CONFIG,
                  policy_mode: str = "aether") -> dict[str, SimulationResult]:
    """Simulate every benchmark workload on one design point."""
    engine = Engine(config, policy_mode=policy_mode)
    return {name: engine.run(trace)
            for name, trace in _workloads().items()}


def table5() -> dict:
    """Execution times: our simulated FAST vs published baselines."""
    results = run_workloads()
    ours = {name: r.total_s * MS for name, r in results.items()}
    published = {}
    for b in baselines.ALL_PUBLISHED + (baselines.PAPER_FAST,):
        published[b.name] = {
            "Bootstrap": b.bootstrap_ms, "HELR256": b.helr256_ms,
            "HELR1024": b.helr1024_ms, "ResNet-20": b.resnet20_ms,
        }
    speedup_vs_sharp = {name: published["SHARP"][name] / ms
                        for name, ms in ours.items()}
    return {"ours_ms": ours, "published_ms": published,
            "speedup_vs_sharp": speedup_vs_sharp}


def table6() -> dict:
    """T_mult,a/s for FAST (measured) and published accelerators."""
    engine = Engine()
    boot = engine.run(bootstrap_trace())
    ours_ns = metrics.amortized_mult_time(
        boot.total_s, SET_II.num_slots, SET_II.effective_level) * 1e9
    rows = [{"name": b.name, "slots": b.slots, "t_as_ns": b.t_mult_ns,
             "source": "published"} for b in baselines.TABLE6_PUBLISHED]
    rows.append({"name": "FAST (ours)", "slots": SET_II.num_slots,
                 "t_as_ns": ours_ns, "source": "measured"})
    return {"rows": rows}


def table7() -> dict:
    """Average power, energy and EDP per workload."""
    engine = Engine()
    out = {}
    for name, trace in _workloads().items():
        result = engine.run(trace)
        report = metrics.power_report(result, engine.accelerator)
        out[name] = {"latency_ms": result.total_s * MS,
                     "avg_power_w": report.average_w,
                     "energy_j": report.energy_j,
                     "edp_js": report.edp_js}
    return out


# --------------------------------------------------------------------------
# Breakdown / utilisation / workload-composition figures
# --------------------------------------------------------------------------

def figure10() -> dict:
    """Execution time under OneKSW / Hoisting / Aether policies, and
    Aether's key switches per bootstrap stage and method."""
    trace = bootstrap_trace()
    out = {}
    for label, mode in (("OneKSW", "hybrid-only"),
                        ("Hoisting", "hoisting-only"),
                        ("Aether", "aether")):
        engine = Engine(policy_mode=mode)
        result = engine.run(trace)
        out[label] = {
            "total_ms": result.total_s * MS,
            "method_ops": dict(result.method_ops),
            "stage_ms": {k: v * MS for k, v in result.stage_s.items()},
        }
    base = out["OneKSW"]["total_ms"]
    for label in out:
        out[label]["speedup_vs_oneksw"] = base / out[label]["total_ms"]
    decisions = engine.make_policy(trace).config.decisions
    stages = defaultdict(Counter)
    for unit in engine.aether.decision_units(trace):
        stages[unit.first.stage][decisions[unit.unit_id].method] += unit.times
    out["Aether"]["stage_methods"] = {s: dict(m) for s, m in stages.items()}
    return out


def figure11a() -> dict:
    """Unit utilisation averaged over the four workloads."""
    results = run_workloads()
    per_workload = {name: r.utilisation() for name, r in results.items()}
    average = {u: sum(per_workload[w][u] for w in per_workload) /
               len(per_workload) for u in UNIT_NAMES}
    return {"per_workload": per_workload, "average": average}


def figure11b() -> dict:
    """Bootstrap modular-op totals: hybrid-only vs KLSS-only vs FAST."""
    trace = bootstrap_trace()
    out = {}
    for label, mode in (("Hybrid", "hybrid-only"), ("KLSS", "klss-only"),
                        ("FAST", "aether")):
        result = Engine(policy_mode=mode).run(trace)
        out[label] = {k: v / 1e9 for k, v in result.kernel_modops.items()}
        out[label]["total"] = sum(result.kernel_modops.values()) / 1e9
    hybrid_total = out["Hybrid"]["total"]
    out["fast_vs_hybrid_total"] = out["FAST"]["total"] / hybrid_total
    return out


def figure12() -> dict:
    """Efficiency ablation: FAST -> -TBM -> -Aether-Hemera (36b ALU)."""
    trace = bootstrap_trace()
    points = (
        ("FAST", FAST_CONFIG, "aether"),
        ("FAST-noTBM", FAST_WITHOUT_TBM, "aether"),
        ("36bit-ALU", FAST_36BIT_ALU, "hybrid-only"),
    )
    out = {}
    for label, config, mode in points:
        result = Engine(config, policy_mode=mode).run(trace)
        out[label] = {"total_ms": result.total_s * MS}
    base = out["36bit-ALU"]["total_ms"]
    for label in out:
        out[label]["speedup_vs_36bit"] = base / out[label]["total_ms"]
    return out


def figure13a(sizes_mb=(128, 192, 245, 281, 384, 512)) -> list[dict]:
    """Bootstrap latency vs scratchpad capacity."""
    trace = bootstrap_trace()
    rows = []
    for config in memory_sweep(list(sizes_mb)):
        result = Engine(config).run(trace)
        rows.append({"memory_mb": config.onchip_memory_bytes / 2**20,
                     "latency_ms": result.total_s * MS,
                     "key_traffic_mb": result.key_bytes / 1e6,
                     "klss_ops": result.method_ops.get("klss", 0)})
    return rows


def figure13b(cluster_counts=(2, 4, 8)) -> list[dict]:
    """Bootstrap latency / area / perf-per-area vs cluster count,
    normalised to the 4-cluster chip (which must be in the sweep)."""
    if 4 not in cluster_counts:
        raise ValueError(f"figure13b normalises to the 4-cluster chip: "
                         f"cluster_counts {tuple(cluster_counts)} lacks 4")
    trace = bootstrap_trace()
    rows = []
    for config in cluster_sweep(list(cluster_counts)):
        result = Engine(config).run(trace)
        area = hw_area.area_for(config)
        perf_area = metrics.performance_per_area(result.total_s, area)
        rows.append({"clusters": config.clusters,
                     "latency_ms": result.total_s * MS,
                     "area_mm2": area, "perf_per_area": perf_area})
    reference = next(row for row in rows if row["clusters"] == 4)
    for row in rows:
        row["speedup_vs_4c"] = reference["latency_ms"] / row["latency_ms"]
        row["area_vs_4c"] = row["area_mm2"] / reference["area_mm2"]
    return rows


def ablation_ekg_minks() -> dict:
    """Bootstrap with the EKG and / or Min-KS key reuse removed: the
    memory-system techniques the paper adopts but never isolates."""
    trace = bootstrap_trace()
    out = {}
    for config in (FAST_CONFIG,
                   fast_variant("FAST-noEKG", use_ekg=False),
                   fast_variant("FAST-noMinKS", use_minks=False),
                   fast_variant("FAST-noEKG-noMinKS", use_ekg=False,
                                use_minks=False)):
        result = Engine(config).run(trace)
        out[config.name] = {"latency_ms": result.total_s * MS,
                            "key_traffic_mb": result.key_bytes / 1e6,
                            "hbm_util": result.utilisation()["hbm"]}
    return out


# --------------------------------------------------------------------------
# EXPERIMENTS.md: verdict bands, the row list and its renderer
# --------------------------------------------------------------------------

class Band(NamedTuple):
    """A verdict band: ``kind`` is ``"match"`` or ``"shape"``, ``text``
    states it in the Band column, ``holds(paper, measured)`` checks it."""

    kind: str
    text: str
    holds: Callable[[object, object], bool]


def _parts(value) -> tuple:
    return value if isinstance(value, tuple) else (value,)


def _numbers(paper, measured) -> list[tuple[float, float]]:
    return [(p, m) for p, m in zip(_parts(paper), _parts(measured))
            if isinstance(p, (int, float)) and not isinstance(p, bool)]


def _deviation(paper, measured) -> float | None:
    """Signed relative distance of the number farthest from the
    paper's; ``None`` when the paper states no number."""
    pairs = _numbers(paper, measured)
    return max((m / p - 1 for p, m in pairs), key=abs) if pairs else None


def match(tolerance: float) -> Band:
    """Every number within ``tolerance`` of the paper's; a yes/no claim
    answered the same."""
    def holds(paper, measured) -> bool:
        deviation = _deviation(paper, measured)
        return paper == measured if deviation is None else \
            abs(deviation) <= tolerance
    return Band("match", f"within {tolerance:.0%}" if tolerance else "exact",
                holds)


def within(factor: float) -> Band:
    """Every number between 1/``factor`` and ``factor`` times the
    paper's."""
    return Band("shape", f"within {factor:g}x", lambda paper, measured: all(
        p / factor <= m <= p * factor for p, m in _numbers(paper, measured)))


def shape(text: str, predicate: Callable[[object], bool]) -> Band:
    """The stated predicate holds on the measured value."""
    return Band("shape", text, lambda paper, measured: predicate(measured))


class Row(NamedTuple):
    """One EXPERIMENTS.md row.  ``measured`` reads the value from the
    output of ``figure``; ``fmt`` formats the paper's and the measured
    value alike (a tuple fills the fields in order, text is shown as
    is, a bool as yes / no)."""

    section: str
    artefact: str
    figure: Callable[[], object]
    paper: object
    measured: Callable[[object], object]
    fmt: str
    band: Band

    def cell(self, value) -> str:
        if isinstance(value, str):
            return value
        if isinstance(value, bool):
            return "yes" if value else "no"
        return self.fmt.format(*_parts(value))

    def evaluate(self, data) -> Result:
        measured = self.measured(data)
        return Result(self, measured, self.band.holds(self.paper, measured))


class Result(NamedTuple):
    """A row evaluated on its figure's data."""

    row: Row
    measured: object
    holds: bool

    @property
    def verdict(self) -> str:
        label = self.row.band.kind if self.holds else "MISS"
        deviation = _deviation(self.row.paper, self.measured)
        if deviation is None:
            return label
        points = round(deviation * 100)
        return f"{label} ({points:+d}%)" if points else f"{label} (0%)"


def _at(rows, key: str, value) -> dict:
    return next(r for r in rows if r[key] == value)


def _line(rows, low: int, high: int) -> float:
    return fmean(r["quantitative_line"] for r in rows
                 if low <= r["level"] <= high)


def _first_level_after(rows, fails) -> int:
    """One above the highest level where ``fails(row)`` (1 if none
    does)."""
    return 1 + max((r["level"] for r in rows if fails(r)), default=0)


def _parameter_set(row: dict) -> tuple:
    return math.log2(row["N"]), row["L"], row["L_eff"], row["alpha"]


def _beats_every_baseline(data) -> bool:
    ours = data["ours_ms"]
    return all(ours[workload] < ms
               for name, row in data["published_ms"].items()
               if name != PAPER.name
               for workload, ms in row.items() if ms is not None)


def _t_mult_ns(data) -> float:
    return _at(data["rows"], "source", "measured")["t_as_ns"]


def _vs_281_mb(rows, memory_mb: float) -> float:
    base = _at(rows, "memory_mb", 281)["latency_ms"]
    return _at(rows, "memory_mb", memory_mb)["latency_ms"] / base - 1


MOTIVATION = "Motivational study (Figs. 2-4)"
HARDWARE = "Configuration and hardware (Tables 2-4)"
PERFORMANCE = "Performance (Tables 5-7)"
BREAKDOWN = "Breakdown, utilisation, ablation, sensitivity (Figs. 10-13)"
ABLATIONS = "Ablations the paper does not isolate"

PAPER = baselines.PAPER_FAST
# The paper's Table 3: component -> (area mm^2, power W).
_TABLE3 = {
    "4xNTTUs": (60.88, 142.7), "4xBConvUs": (28.89, 86.6),
    "4xKMUs": (10.58, 27.67), "4xAUTOUs": (0.6, 0.8),
    "4xAEM": (8.67, 10.7), "Register Files": (123.9, 29.4),
    "HBM": (29.6, 31.8), "NoC": (20.6, 27.0),
}
_TABLE3_AREAS, _TABLE3_POWERS = zip(*_TABLE3.values())
_TABLE3_FMT = " / ".join(["{:.2f}"] * len(_TABLE3))
_COMPUTE_UNITS = tuple(u for u in UNIT_NAMES if u != "hbm")

ROWS: tuple[Row, ...] = (
    Row(MOTIVATION, "Fig. 2a: hybrid cheaper at l in [5,12]", figure2a,
        0.235, lambda d: 1 - _line(d, 5, 12), "{:.1%}",
        shape("> 0", lambda m: m > 0)),
    Row(MOTIVATION, "Fig. 2a: KLSS cheaper at l in [25,35]", figure2a,
        0.152, lambda d: 1 - 1 / _line(d, 25, 35), "{:.1%}", match(0.05)),
    Row(MOTIVATION, "Fig. 2a: crossover location", figure2a,
        "between ~12 and ~25", lambda d: _first_level_after(
            d, lambda r: r["quantitative_line"] <= 1), "level {}",
        shape("in [12, 25]", lambda m: 12 <= m <= 25)),
    Row(MOTIVATION, "Fig. 2b: at high l, NTT drives KLSS's win; KeyMult "
        "rises", figure2b, "qualitative", lambda d: tuple(
            fmean(r[k] for r in d if r["level"] >= 25)
            for k in ("ntt", "keymult")),
        "hybrid/KLSS NTT {:.2f}x, KeyMult {:.2f}x (mean, l >= 25)",
        shape("NTT > 1 > KeyMult", lambda m: m[0] > 1 > m[1])),
    Row(MOTIVATION, "Fig. 3a: KLSS/hybrid ratio grows with hoisting h "
        "(note 1)", figure3a, "qualitative", lambda d: _first_level_after(
            d, lambda r: not r["h2"] <= r["h4"] <= r["h6"]),
        "monotone in h for l >= {}", shape("from l <= 13", lambda m: m <= 13)),
    *(Row(MOTIVATION, f"Fig. 3b: {what} @ l=35{why}", figure3b, paper,
          lambda d, key=key: _at(d, "level", 35)[key], "{:.1f} MB",
          match(0.05))
      for what, why, key, paper in (
          ("ciphertext", " (calibrated word size)", "ciphertext_mb", 19.7),
          ("hybrid evk", "", "hybrid_evk_mb", 79.3),
          ("KLSS evk", " (64-bit-aligned key words)", "klss_evk_mb",
           295.3))),
    *(Row(MOTIVATION, f"Fig. 4: 60-bit vs 36-bit {what} area/power "
          "(anchored)", figure4, paper, lambda d, key=key: (
              d[key][60]["area"], d[key][60]["power"]),
          "{:.1f}x / {:.1f}x", match(0.01))
      for what, key, paper in (("modmult", "modular_multiplier", (2.9, 2.8)),
                               ("mult", "multiplier", (2.8, 2.7)))),

    Row(HARDWARE, "Table 2: Set-I N, L, L_eff, alpha", table2,
        (16, 35, 8, 12), lambda d: _parameter_set(d[0]),
        "N 2^{:g}, L {}, L_eff {}, alpha {}", match(0)),
    Row(HARDWARE, "Table 2: Set-II N, L, L_eff, alpha, alpha~", table2,
        (16, 35, 8, 5, 9),
        lambda d: _parameter_set(d[1]) + (d[1]["alpha_tilde"],),
        "N 2^{:g}, L {}, L_eff {}, alpha {}, alpha~ {}", match(0)),
    Row(HARDWARE, "Table 3: component areas, NTTU / BConvU / KMU / AutoU / "
        "AEM / RF / HBM / NoC (unit sizes structural, one shared per-TBM "
        "anchor)", table3, _TABLE3_AREAS,
        lambda d: tuple(d[name]["area_mm2"] for name in _TABLE3),
        _TABLE3_FMT + " mm^2", match(0.02)),
    Row(HARDWARE, "Table 3: component powers, same order (two documented "
        "per-unit activity factors)", table3, _TABLE3_POWERS,
        lambda d: tuple(d[name]["power_w"] for name in _TABLE3),
        _TABLE3_FMT + " W", match(0.01)),
    Row(HARDWARE, "Table 3: total area", table3, 283.75,
        lambda d: d["Total"]["area_mm2"], "{:.2f} mm^2", match(0.02)),
    Row(HARDWARE, "Table 3: total power (note 2)", table3, 337.5,
        lambda d: d["Total"]["power_w"], "{:.1f} W",
        shape("sum of the paper's rows", lambda m: math.isclose(
            m, sum(_TABLE3_POWERS), rel_tol=0.01))),
    Row(HARDWARE, "Table 4: FAST row", table4,
        (PAPER.word_bits, PAPER.lanes, PAPER.onchip_mb, PAPER.area_mm2),
        lambda d: tuple(_at(d, "name", "FAST (ours)")[key] for key in
                        ("word_bits", "lanes", "onchip_mb", "area_mm2")),
        "{} bit / {} lanes / {:.0f} MB / {:.2f} mm^2", match(0.02)),

    *(Row(PERFORMANCE, f"Table 5: {name}{why}", table5, paper,
          lambda d, name=name: d["ours_ms"][name], "{:.2f} ms", band)
      for name, why, paper, band in (
          ("Bootstrap", "", PAPER.bootstrap_ms, match(0.05)),
          ("HELR256", " (per iteration)", PAPER.helr256_ms, within(2)),
          ("HELR1024", " (per iteration)", PAPER.helr1024_ms, match(0.05)),
          ("ResNet-20", "", PAPER.resnet20_ms, within(2)))),
    Row(PERFORMANCE, "Table 5: average speedup vs SHARP", table5, 1.85,
        lambda d: fmean(d["speedup_vs_sharp"].values()), "{:.2f}x",
        shape("1.5x-2.6x", lambda m: 1.5 < m < 2.6)),
    Row(PERFORMANCE, "Table 5: bootstrap speedup vs SHARP", table5, 2.26,
        lambda d: d["speedup_vs_sharp"]["Bootstrap"], "{:.2f}x",
        match(0.05)),
    Row(PERFORMANCE, "Table 5: beats every published baseline on every "
        "workload", table5, True, _beats_every_baseline, "", match(0)),
    Row(PERFORMANCE, "Table 6: T_mult,a/s", table6, PAPER.t_mult_ns,
        _t_mult_ns, "{:.1f} ns", match(0.10)),
    Row(PERFORMANCE, "Table 6: fastest of all accelerators", table6, True,
        lambda d: all(_t_mult_ns(d) < r["t_as_ns"] for r in d["rows"]
                      if r["source"] == "published"), "", match(0)),
    Row(PERFORMANCE, "Table 7: average power, Bootstrap / HELR256 / "
        "HELR1024 / ResNet-20", table7, (120, 118, 154, 160),
        lambda d: tuple(w["avg_power_w"] for w in d.values()),
        "{:.0f} / {:.0f} / {:.0f} / {:.0f} W", within(2)),
    Row(PERFORMANCE, "Table 7: HELR256 energy (paragraph below)", table7,
        "6.5 J", lambda d: tuple(d["HELR256"][key] for key in
                                 ("energy_j", "avg_power_w", "latency_ms")),
        "{:.2f} J = {:.0f} W x {:.2f} ms", shape(
            "= avg power x latency",
            lambda m: math.isclose(m[0], m[1] * m[2] / MS))),

    Row(BREAKDOWN, "Fig. 10: ordering OneKSW > Hoisting > Aether (time)",
        figure10, "yes", lambda d: tuple(d[label]["total_ms"] for label in
                                         ("OneKSW", "Hoisting", "Aether")),
        "{:.3f} > {:.3f} > {:.3f} ms",
        shape("decreasing", lambda m: m[0] > m[1] > m[2])),
    Row(BREAKDOWN, "Fig. 10: hoisting gain", figure10, "~10% key-switch time",
        lambda d: d["Hoisting"]["speedup_vs_oneksw"], "{:.2f}x end-to-end",
        shape("1.05x-1.15x", lambda m: 1.05 <= m <= 1.15)),
    Row(BREAKDOWN, "Fig. 10: Aether total gain (note 3)", figure10, 1.24,
        lambda d: d["Aether"]["speedup_vs_oneksw"], "{:.2f}x",
        shape("1.05x-1.45x", lambda m: 1.05 < m < 1.45)),
    Row(BREAKDOWN, "Fig. 10: Aether replaces hybrid with KLSS", figure10,
        "yes (EvalMod, StC)", lambda d: tuple(
            d["Aether"]["stage_methods"].get(stage, {}).get("klss", 0)
            for stage in ("CoeffToSlot", "EvalMod", "SlotToCoeff")),
        "KLSS on {} / {} / {} key switches in CoeffToSlot / EvalMod / "
        "SlotToCoeff", shape("KLSS in EvalMod and StC",
                             lambda m: m[1] > 0 and m[2] > 0)),
    Row(BREAKDOWN, "Fig. 11a: NTTU busy", figure11a, 0.6647,
        lambda d: d["average"]["nttu"], "{:.1%}", within(2)),
    Row(BREAKDOWN, "Fig. 11a: NTTU is the busiest compute unit", figure11a,
        True, lambda d: max(_COMPUTE_UNITS, key=d["average"].get) == "nttu",
        "", match(0)),
    Row(BREAKDOWN, "Fig. 11a: BConvU / KMU busy", figure11a, (0.243, 0.257),
        lambda d: (d["average"]["bconvu"], d["average"]["kmu"]),
        "{:.1%} / {:.1%}", within(2)),
    Row(BREAKDOWN, "Fig. 11a: HBM busy (note 3)", figure11a, 0.443,
        lambda d: d["average"]["hbm"], "{:.1%}", within(2)),
    Row(BREAKDOWN, "Fig. 11b: FAST vs hybrid-only total modops", figure11b,
        -0.173, lambda d: d["fast_vs_hybrid_total"] - 1, "{:+.1%}",
        shape("< 0", lambda m: m < 0)),
    Row(BREAKDOWN, "Fig. 12: ordering FAST < noTBM < 36-bit ALU (time)",
        figure12, "yes", lambda d: tuple(d[label]["total_ms"] for label in
                                         ("FAST", "FAST-noTBM", "36bit-ALU")),
        "{:.3f} < {:.3f} < {:.3f} ms",
        shape("increasing", lambda m: m[0] < m[1] < m[2])),
    Row(BREAKDOWN, "Fig. 12: noTBM vs 36-bit ALU (note 3)", figure12, 1.3,
        lambda d: d["FAST-noTBM"]["speedup_vs_36bit"], "{:.2f}x",
        shape("1.0x-1.8x", lambda m: 1.0 < m < 1.8)),
    Row(BREAKDOWN, "Fig. 12: FAST vs 36-bit ALU (note 4)", figure12, 1.45,
        lambda d: d["FAST"]["speedup_vs_36bit"], "{:.2f}x", within(2)),
    Row(BREAKDOWN, "Fig. 13a: small memory hurts", figure13a,
        "noticeable drop", lambda d: (
            _vs_281_mb(d, 128), _at(d, "memory_mb", 128)["klss_ops"],
            _at(d, "memory_mb", 281)["klss_ops"]),
        "{:+.0%} at 128 MB, KLSS on {} key switches (vs {} at 281 MB)",
        shape("slower, less KLSS", lambda m: m[0] > 0 and m[1] < m[2])),
    Row(BREAKDOWN, "Fig. 13a: big memory saturates", figure13a, "yes",
        lambda d: max(abs(_vs_281_mb(d, r["memory_mb"]))
                      for r in d if r["memory_mb"] > 281),
        "flat beyond 281 MB (within {:.1%})",
        shape("within 2%", lambda m: m <= 0.02)),
    Row(BREAKDOWN, "Fig. 13b: 8 clusters speedup / area", figure13b,
        (1.7, 1.37), lambda d: (_at(d, "clusters", 8)["speedup_vs_4c"],
                                _at(d, "clusters", 8)["area_vs_4c"]),
        "{:.2f}x / {:.2f}x", match(0.05)),
    Row(BREAKDOWN, "Fig. 13b: 2 clusters slowdown", figure13b, -0.483,
        lambda d: _at(d, "clusters", 2)["speedup_vs_4c"] - 1, "{:+.1%}",
        match(0.05)),

    Row(ABLATIONS, "EKG / Min-KS: bootstrap latency, FAST / -EKG / -MinKS / "
        "-both", ablation_ekg_minks, "not isolated",
        lambda d: tuple(r["latency_ms"] for r in d.values()),
        "{:.3f} / {:.3f} / {:.3f} / {:.3f} ms",
        shape("FAST < one removed <= both",
              lambda m: m[0] < min(m[1], m[2]) and max(m[1], m[2]) <= m[3])),
    Row(ABLATIONS, "EKG / Min-KS: HBM busy with both removed",
        ablation_ekg_minks, "not isolated",
        lambda d: d["FAST-noEKG-noMinKS"]["hbm_util"], "{:.1%}",
        shape("> 90%", lambda m: m > 0.9)),
)

_HEADER = """\
# EXPERIMENTS: paper vs. measured

Generated by `python -m repro evaluate > EXPERIMENTS.md` from the row
list `ROWS` in `src/repro/analysis/figures.py`; tier 1
(`tests/analysis/test_experiments.py`) fails when this file differs
from a fresh render or a row misses its band.  The paper's full-size
parameters (the Table 2 rows) run through analytic cost models and a
kernel-level cycle simulator (DESIGN.md Secs. 5-6); the functional
scheme is tested separately at scaled-down parameters (DESIGN.md
Sec. 7).

Band: **match** = every number within the stated tolerance of the
paper's (yes/no: the same answer); **shape** = the stated predicate
(an ordering, a range or a factor) holds while the value may deviate.
Verdict: the band's kind, or **MISS**, with the signed relative
distance of the number farthest from the paper's."""

_NOTES = {
    MOTIVATION: """\
Note 1: below the level in the Fig. 3a row our model has the ratio
*fall* slightly with h, because hybrid's per-rotation stages dominate
there; the paper only discusses the hoisting regime (bootstrapping's
DFT levels), where our trend matches.

The Fig. 2 rows price modops by *count*, as the paper does.  Priced by
a CPU's measured unit costs (`python -m repro calibrate`) the Fig. 2a
crossover is never reached on the x86 host of DESIGN.md Secs. 16 and
21: KLSS saves NTTs, the cheapest modop there, and pays KeyMult on
60-bit words.  The paper's crossover belongs to a datapath where a
60-bit product costs two 36-bit issue slots (the TBM), not ten.""",
    HARDWARE: """\
Note 2: the paper's stated total power (the Table 3 total power row)
does **not** equal the sum of its own component rows (the component
powers row).  Our total equals that sum, which is the row's band; we
treat the paper's total as a typo.""",
    PERFORMANCE: """\
Table 7's paper energy and EDP columns disagree with its own power x
latency: its HELR256 energy (the energy row) is far above the product
of its HELR256 power and latency (the average power and Table 5
HELR256 rows), plausibly the full 32-iteration training run where the
other rows are single executions.  We report self-consistent values
(energy = avg power x latency, EDP = energy x latency) and compare
average power.""",
    BREAKDOWN: """\
Note 3 (the main modelling gap): our simulator charges every KLSS
evaluation-key byte against the HBM channel with an explicit queueing
model, and our hybrid baseline already includes the EKG and ARK-style
Min-KS key reuse (the last section weighs both).  That makes KLSS
substitution nearly traffic-neutral in latency (the Fig. 10 Aether
total gain row) and raises measured HBM busy time (the Fig. 11a HBM
busy row).  The paper does not specify how its baseline handles key
traffic; if its OneKSW baseline pays full-size key transfers that
FAST's machinery avoids, its larger Aether gain follows.

Note 4: the inverse side of note 3 plus the precision-rate
reconciliation (DESIGN.md Sec. 8): we charge one TBM slot per modular
operation in *either* precision, so removing the TBM halves all
compute throughput, and the TBM's share of the Fig. 12 gain (the FAST
vs 36-bit ALU row over the noTBM vs 36-bit ALU row) is far larger than
in the paper.  The paper's Sec. 5 prose (wide mode at half the element
rate) and its evaluation (KLSS adopted on TBM hardware, op-count-based
gains) cannot both hold; we sided with the evaluation, and Fig. 12 is
where the residual shows up.""",
    ABLATIONS: """\
The paper adopts the EKG (Sec. 5.7.2, halves key bytes) and ARK's
Min-KS key reuse (Sec. 6.1) but never isolates them; these rows do, on
bootstrap, to show how load-bearing each is for the HBM budget.  The
Aether STEP-2 prefetch-window sweep, the other ablation the paper does
not isolate, is a test (`tests/core/test_aether.py::TestPrefetchWindow`)
rather than a row, because it changes a module constant.""",
}


def figure_data() -> dict:
    """Each figure function the rows read, called once:
    ``{function: output}``."""
    return {figure: figure()
            for figure in dict.fromkeys(row.figure for row in ROWS)}


def evaluate(data: dict | None = None) -> list[Result]:
    """Every row evaluated on its figure's output (from ``data`` of
    :func:`figure_data`, computed afresh unless given)."""
    data = figure_data() if data is None else data
    return [row.evaluate(data[row.figure]) for row in ROWS]


def experiments_markdown(results: list[Result] | None = None) -> str:
    """The whole of EXPERIMENTS.md, rendered from :data:`ROWS`
    (evaluated afresh unless ``results`` of :func:`evaluate` are
    given)."""
    results = evaluate() if results is None else results
    blocks = [_HEADER]
    for section in dict.fromkeys(r.row.section for r in results):
        table = ["| Artefact | Paper | Measured | Band | Verdict |",
                 "|---|---|---|---|---|"]
        table += [f"| {r.row.artefact} | {r.row.cell(r.row.paper)} | "
                  f"{r.row.cell(r.measured)} | {r.row.band.text} | "
                  f"{r.verdict} |"
                  for r in results if r.row.section == section]
        blocks += [f"## {section}", "\n".join(table), _NOTES[section]]
    return "\n\n".join(blocks) + "\n"


# --------------------------------------------------------------------------
# Pretty-printing helper (used by the CLI and examples)
# --------------------------------------------------------------------------

def format_rows(rows: list[dict], columns: list[str] | None = None,
                precision: int = 3) -> str:
    """Plain-text table for a list of row dicts."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {c: max(len(c), 10) for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = []
        for c in columns:
            v = row.get(c)
            if isinstance(v, float):
                cells.append(f"{v:.{precision}f}".ljust(widths[c]))
            else:
                cells.append(str(v).ljust(widths[c]))
        lines.append("  ".join(cells))
    return "\n".join(lines)
