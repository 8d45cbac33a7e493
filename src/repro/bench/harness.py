"""The benchmark harness behind ``python -m repro bench``.

Each workload is simulated ``--repeats`` times with tracing disabled
(best wall time is reported, so one-off interpreter hiccups don't
pollute the baseline); the simulated results themselves are
deterministic and asserted identical across repeats.  ``--quick``
slices the ResNet-20 trace to its opening ops, which keeps CI runs
fast while still exercising every workload generator and both
key-switching methods.

``--chrome-trace``/``--obs-json`` rerun each workload once with the
observability layer enabled *after* timing, so exported timelines
never contaminate the wall-time numbers.

Heavy imports stay inside functions so ``python -m repro --help``
stays instant.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

BENCH_SCHEMA = "repro-bench/v13"
DEFAULT_OUT = "BENCH_sim.json"
DEFAULT_PARAMS_MODE = "full"
QUICK_RESNET_OPS = 1500
# Simulated latency is deterministic; any drift beyond numeric noise
# is a real model change.  Wall time is host-dependent, so the bar is
# deliberately loose and only catches order-of-magnitude slumps.
DEFAULT_SIM_TOLERANCE = 0.01
DEFAULT_WALL_TOLERANCE = 1.0


def _slice_trace(trace, max_ops: int):
    from repro.core.optrace import OpTrace
    if len(trace) <= max_ops:
        return trace
    return OpTrace(list(trace)[:max_ops],
                   name=f"{trace.name}[:{max_ops}]")


def build_workloads(quick: bool = False) -> dict:
    """Name -> OpTrace for the Table 5 workloads."""
    from repro.workloads import bootstrap_trace, helr_trace, resnet20_trace
    traces = {
        "Bootstrap": bootstrap_trace(),
        "HELR256": helr_trace(batch=256),
        "HELR1024": helr_trace(batch=1024),
        "ResNet-20": resnet20_trace(),
    }
    if quick:
        traces["ResNet-20"] = _slice_trace(traces["ResNet-20"],
                                           QUICK_RESNET_OPS)
    return traces


def _measure(engine, trace, repeats: int) -> dict:
    """Simulate one workload; returns its BENCH record."""
    walls = []
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        run = engine.run(trace)
        walls.append(time.perf_counter() - start)
        if result is not None and run.total_s != result.total_s:
            raise AssertionError(
                f"simulation of {trace.name!r} is not deterministic")
        result = run
    return {
        "wall_s": min(walls),
        "wall_s_all": walls,
        "sim_s": result.total_s,
        "sim_ms": result.total_s * 1e3,
        "num_trace_ops": len(trace),
        "num_ops": result.num_ops,
        "num_key_switches": result.num_key_switches,
        "utilisation": {u: round(v, 6)
                        for u, v in result.utilisation().items()},
        "key_cache_hit_rate": result.key_cache_hit_rate,
        "key_cache_hits": result.key_cache_hits,
        "key_cache_misses": result.key_cache_misses,
        "key_stall_s": result.key_stall_s,
        "hbm_bytes": result.hbm_bytes,
        "key_bytes": result.key_bytes,
        "plaintext_bytes": result.plaintext_bytes,
        "method_ops": dict(result.method_ops),
        "stage_s": {k: v for k, v in sorted(result.stage_s.items())},
    }


def run_benchmarks(config=None, quick: bool = False,
                   repeats: int = 3,
                   params_mode: str = DEFAULT_PARAMS_MODE,
                   clusters=None, backends=None) -> dict:
    """Run every workload; returns the full report dict."""
    from repro import __version__, obs
    from repro.bench import (backend as backend_bench, dataflow,
                             keyswitch, micro, sched, serving)
    from repro.hw.config import FAST_CONFIG
    from repro.sim.engine import Engine

    config = config or FAST_CONFIG
    clusters = tuple(clusters or sched.DEFAULT_CLUSTERS)
    was_enabled = obs.enabled()
    obs.configure(enabled=False)  # timing runs are never traced
    try:
        workloads = {}
        for name, trace in build_workloads(quick).items():
            # Fresh engine per workload: cold evk-cache, cold Aether —
            # the regression numbers must not depend on run order.
            workloads[name] = _measure(Engine(config), trace, repeats)
        micro_report = micro.run_micro(params_mode=params_mode, quick=quick)
        keyswitch_report = keyswitch.run_keyswitch(quick=quick)
        sched_report = sched.run_sched(quick=quick, clusters=clusters)
        throughput_report = sched.run_throughput(quick=quick,
                                                 clusters=clusters)
        dataflow_report = dataflow.run_dataflow(quick=quick)
        serving_report = serving.run_serving(quick=quick)
        backend_report = backend_bench.run_backend(quick=quick,
                                                   backends=backends)
    finally:
        obs.configure(enabled=was_enabled)
    return {
        "schema": BENCH_SCHEMA,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "repro_version": __version__,
        "quick": quick,
        "repeats": repeats,
        "params_mode": params_mode,
        "config": {
            "name": config.name,
            "clusters": config.clusters,
            "hbm_bandwidth_bytes": config.hbm_bandwidth_bytes,
            "key_storage_bytes": config.key_storage_bytes,
            "onchip_memory_bytes": config.onchip_memory_bytes,
        },
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        "workloads": workloads,
        "micro": micro_report,
        "keyswitch": keyswitch_report,
        "sched": sched_report,
        "throughput": throughput_report,
        "dataflow": dataflow_report,
        "serving": serving_report,
        "backend": backend_report,
    }


def write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=False)
        fh.write("\n")


def compare_reports(current: dict, baseline: dict,
                    sim_tolerance: float = DEFAULT_SIM_TOLERANCE,
                    wall_tolerance: float = DEFAULT_WALL_TOLERANCE
                    ) -> list[str]:
    """Regressions of ``current`` against ``baseline`` (worse only)."""
    regressions: list[str] = []
    base_workloads = baseline.get("workloads", {})
    for name, record in current.get("workloads", {}).items():
        base = base_workloads.get(name)
        if base is None:
            continue
        for key, tolerance in (("sim_s", sim_tolerance),
                               ("wall_s", wall_tolerance)):
            now, ref = record.get(key), base.get(key)
            if not ref or now is None:
                continue
            ratio = now / ref
            if ratio > 1.0 + tolerance:
                regressions.append(
                    f"{name}: {key} {now:.6g} vs baseline {ref:.6g} "
                    f"(+{(ratio - 1) * 100:.1f}%, "
                    f"tolerance {tolerance * 100:.0f}%)")
    regressions.extend(_compare_micro(current.get("micro") or {},
                                      baseline.get("micro") or {},
                                      wall_tolerance))
    regressions.extend(_compare_keyswitch(current.get("keyswitch") or {},
                                          baseline.get("keyswitch") or {},
                                          wall_tolerance))
    regressions.extend(_compare_sched(current.get("sched") or {},
                                      baseline.get("sched") or {},
                                      sim_tolerance))
    regressions.extend(_compare_throughput(
        current.get("throughput") or {},
        baseline.get("throughput") or {}, sim_tolerance))
    regressions.extend(_compare_dataflow(current.get("dataflow") or {},
                                         baseline.get("dataflow") or {},
                                         wall_tolerance))
    regressions.extend(_compare_serving(current.get("serving") or {},
                                        baseline.get("serving") or {},
                                        wall_tolerance))
    regressions.extend(_compare_backend(current.get("backend") or {},
                                        baseline.get("backend") or {},
                                        wall_tolerance))
    return regressions


def _compare_backend(current: dict, baseline: dict,
                     wall_tolerance: float) -> list[str]:
    """Backend-section regressions against a baseline report.

    Only the numpy baseline path is wall-compared (accelerator entries
    depend on which devices the host happens to have), and only when
    the NTT ring degree matches (quick runs time a smaller transform).
    Bit-exactness going False on a backend the baseline had exact is
    always a regression.  Pre-v9 baselines lack the section and are
    skipped.
    """
    if not current or not baseline:
        return []
    regressions = []
    cur_entries = current.get("backends", {})
    base_entries = baseline.get("backends", {})
    for name, base in base_entries.items():
        entry = cur_entries.get(name)
        if entry is None:
            continue
        if base.get("bit_exact") and not entry.get("bit_exact"):
            regressions.append(
                f"backend.{name}: bit_exact regressed to False "
                "(baseline was exact)")
    now_entry = cur_entries.get("numpy", {})
    ref_entry = base_entries.get("numpy", {})
    if now_entry.get("ntt_ring_degree") != ref_entry.get("ntt_ring_degree"):
        return regressions
    for label in ("modmul_best_s", "ntt_best_s", "bconv_best_s",
                  "kmu_best_s"):
        now = now_entry.get("micro", {}).get(label)
        ref = ref_entry.get("micro", {}).get(label)
        if not ref or now is None:
            continue
        ratio = now / ref
        if ratio > 1.0 + wall_tolerance:
            regressions.append(
                f"backend.numpy.{label}: {now:.6g} vs baseline "
                f"{ref:.6g} (+{(ratio - 1) * 100:.1f}%, "
                f"tolerance {wall_tolerance * 100:.0f}%)")
    return regressions


def _compare_serving(current: dict, baseline: dict,
                     wall_tolerance: float) -> list[str]:
    """Serving-layer regressions against a baseline report.

    Loadgen rps is wall-clock on a live server, so only the loose
    host tolerance applies (to the *speedup ratio*, which divides out
    most host variance); the evk-admission miss counts are exact
    deterministic integers.  Pre-v8 baselines lack the section and
    are skipped.
    """
    if not current or not baseline:
        return []
    regressions = []
    now = (current.get("loadgen") or {}).get("speedup")
    ref = (baseline.get("loadgen") or {}).get("speedup")
    if ref and now is not None and now < ref / (1.0 + wall_tolerance):
        regressions.append(
            f"serving.loadgen: speedup {now:.2f}x vs baseline "
            f"{ref:.2f}x (-{(1 - now / ref) * 100:.0f}%, tolerance "
            f"{wall_tolerance * 100:.0f}%)")
    now = (current.get("evk_admission") or {}).get("aware", {}) \
        .get("misses")
    ref = (baseline.get("evk_admission") or {}).get("aware", {}) \
        .get("misses")
    if ref is not None and now is not None and now > ref:
        regressions.append(
            f"serving.evk_admission: aware-order misses {now} vs "
            f"baseline {ref} (admission policy lost locality)")
    return regressions


def _compare_dataflow(current: dict, baseline: dict,
                      wall_tolerance: float) -> list[str]:
    """Dataflow-optimiser regressions against a baseline report.

    The NTT limb counts are exact integers over fixed workload traces,
    so *any* growth is a real optimiser regression; the fused-kernel
    wall gets the loose host-dependent tolerance.  Pre-v7 baselines
    lack the section and are skipped.
    """
    if not current or not baseline:
        return []
    regressions = []
    base_workloads = baseline.get("workloads", {})
    for name, record in current.get("workloads", {}).items():
        ref = base_workloads.get(name, {}).get("ntt_limb_calls_after")
        now = record.get("ntt_limb_calls_after")
        if ref is None or now is None:
            continue
        if now > ref:
            regressions.append(
                f"dataflow.{name}: ntt_limb_calls_after {now} vs "
                f"baseline {ref} (optimiser lost rewrites)")
    now = current.get("fused_rescale", {}).get("fused_best_s")
    ref = baseline.get("fused_rescale", {}).get("fused_best_s")
    if ref and now is not None and now / ref > 1.0 + wall_tolerance:
        regressions.append(
            f"dataflow.fused_rescale: fused_best_s {now:.6g} vs "
            f"baseline {ref:.6g} (+{(now / ref - 1) * 100:.1f}%, "
            f"tolerance {wall_tolerance * 100:.0f}%)")
    return regressions


def _compare_throughput(current: dict, baseline: dict,
                        sim_tolerance: float) -> list[str]:
    """Amortized-latency regressions per (clusters, streams) point.

    Deterministic simulated numbers; pre-v6 baselines lack the
    section and are skipped.
    """
    if not current or not baseline:
        return []
    base_points = {(p.get("clusters"), p.get("streams")): p
                   for p in baseline.get("points", [])}
    regressions = []
    for point in current.get("points", []):
        key = (point.get("clusters"), point.get("streams"))
        ref = base_points.get(key, {}).get("amortized_s")
        now = point.get("amortized_s")
        if not ref or now is None:
            continue
        ratio = now / ref
        if ratio > 1.0 + sim_tolerance:
            regressions.append(
                f"throughput@{key[0]}C/{key[1]}S: amortized_s "
                f"{now:.6g} vs baseline {ref:.6g} "
                f"(+{(ratio - 1) * 100:.1f}%, "
                f"tolerance {sim_tolerance * 100:.0f}%)")
    return regressions


def _compare_keyswitch(current: dict, baseline: dict,
                       wall_tolerance: float) -> list[str]:
    """Wall-time regressions in the keyswitch section.

    The section's shapes (ring degree, rotation count, Set-II-mini
    basis) are fixed constants, so the new-pipeline walls are
    comparable across runs; pre-v5 baselines simply lack the section
    and are skipped.
    """
    if not current or not baseline:
        return []
    pairs = [
        ("keyswitch.auto.gather_best_s",
         current.get("auto", {}).get("gather_best_s"),
         baseline.get("auto", {}).get("gather_best_s")),
        ("keyswitch.kmu.fused_best_s",
         current.get("kmu", {}).get("fused_best_s"),
         baseline.get("kmu", {}).get("fused_best_s")),
        ("keyswitch.hoisted.pipeline_new_s",
         current.get("hoisted", {}).get("pipeline_new_s"),
         baseline.get("hoisted", {}).get("pipeline_new_s")),
        ("keyswitch.hoisted.stage_new_s",
         current.get("hoisted", {}).get("stage_new_s"),
         baseline.get("hoisted", {}).get("stage_new_s")),
    ]
    regressions = []
    for label, now, ref in pairs:
        if not ref or now is None:
            continue
        ratio = now / ref
        if ratio > 1.0 + wall_tolerance:
            regressions.append(
                f"{label}: {now:.6g} vs baseline {ref:.6g} "
                f"(+{(ratio - 1) * 100:.1f}%, "
                f"tolerance {wall_tolerance * 100:.0f}%)")
    return regressions


def _compare_sched(current: dict, baseline: dict,
                   sim_tolerance: float) -> list[str]:
    """Scheduled-latency regressions per (workload, cluster count).

    Simulated numbers only — deterministic, so growth past the
    tolerance is a real scheduler/model change.
    """
    if not current or not baseline:
        return []
    regressions = []
    base_workloads = baseline.get("workloads", {})
    for name, record in current.get("workloads", {}).items():
        base_points = {p.get("clusters"): p
                       for p in base_workloads.get(name, {})
                       .get("points", [])}
        for point in record.get("points", []):
            ref = base_points.get(point.get("clusters"), {}).get("sim_s")
            now = point.get("sim_s")
            if not ref or now is None:
                continue
            ratio = now / ref
            if ratio > 1.0 + sim_tolerance:
                regressions.append(
                    f"sched.{name}@{point['clusters']}C: sim_s "
                    f"{now:.6g} vs baseline {ref:.6g} "
                    f"(+{(ratio - 1) * 100:.1f}%, "
                    f"tolerance {sim_tolerance * 100:.0f}%)")
    return regressions


def _compare_micro(current: dict, baseline: dict,
                   wall_tolerance: float) -> list[str]:
    """Wall-time regressions in the microbenchmark section.

    Only wall metrics measured at an identical configuration are
    compared: the NTT sizes are fixed constants, while the functional
    step is only comparable when ring degree and parameter mode match
    (quick runs use a smaller functional ring).
    """
    if not current or not baseline:
        return []
    pairs = [("micro.ntt.wide_best_s",
              current.get("ntt", {}).get("wide_best_s"),
              baseline.get("ntt", {}).get("wide_best_s"))]
    base_bconv = baseline.get("bconv", {}).get("cases", {})
    for name, case in current.get("bconv", {}).get("cases", {}).items():
        # The bconv ring degree and shapes are fixed constants, so the
        # matrix-kernel wall is comparable across runs (v3 baselines
        # simply lack the section and are skipped).
        pairs.append((f"micro.bconv.{name}.matrix_best_s",
                      case.get("matrix_best_s"),
                      base_bconv.get(name, {}).get("matrix_best_s")))
    cur_f = current.get("functional", {})
    base_f = baseline.get("functional", {})
    if (cur_f.get("ring_degree") == base_f.get("ring_degree")
            and cur_f.get("params_mode") == base_f.get("params_mode")):
        pairs.append(("micro.functional.keygen_wall_s",
                      cur_f.get("keygen_wall_s"),
                      base_f.get("keygen_wall_s")))
        pairs.append(("micro.functional.step_wall_s",
                      cur_f.get("step_wall_s"), base_f.get("step_wall_s")))
    regressions = []
    for label, now, ref in pairs:
        if not ref or now is None:
            continue
        ratio = now / ref
        if ratio > 1.0 + wall_tolerance:
            regressions.append(
                f"{label}: {now:.6g} vs baseline {ref:.6g} "
                f"(+{(ratio - 1) * 100:.1f}%, "
                f"tolerance {wall_tolerance * 100:.0f}%)")
    return regressions


def _export_traces(quick: bool, chrome_path: str | None,
                   json_path: str | None) -> None:
    """Post-timing traced rerun feeding the exporters."""
    from repro import obs
    from repro.sim.engine import Engine
    obs.configure(enabled=True, reset=True)
    try:
        for name, trace in build_workloads(quick).items():
            Engine().run(trace, name=name)
        if chrome_path:
            obs.dump_chrome_trace(chrome_path)
        if json_path:
            obs.dump_json(json_path)
    finally:
        obs.configure(enabled=False, reset=True)


def _format_table(report: dict) -> str:
    header = (f"{'workload':<12} {'wall ms':>9} {'sim ms':>9} "
              f"{'ops':>7} {'nttu%':>6} {'hbm%':>6} {'evk hit%':>8}")
    lines = [header, "-" * len(header)]
    for name, r in report["workloads"].items():
        util = r["utilisation"]
        lines.append(
            f"{name:<12} {r['wall_s'] * 1e3:>9.1f} {r['sim_ms']:>9.3f} "
            f"{r['num_ops']:>7d} {util.get('nttu', 0):>6.0%} "
            f"{util.get('hbm', 0):>6.0%} "
            f"{r['key_cache_hit_rate']:>8.0%}")
    micro = report.get("micro")
    if micro:
        ntt = micro["ntt"]
        functional = micro["functional"]
        paths = functional["width_paths"]
        by_width = {w: sum(v for k, v in paths.items()
                           if k.endswith("." + w))
                    for w in ("narrow", "wide", "object")}
        lines.append("")
        lines.append(
            f"micro: NTT N={ntt['ring_degree']} "
            f"q{ntt['modulus_bits']} wide {ntt['wide_best_s'] * 1e3:.2f} ms"
            f", object reference {ntt['object_best_s'] * 1e3:.2f} ms "
            f"(bit_exact={ntt['wide_matches_oracle']})")
        lines.append(
            f"micro: software TBM 60-bit / 36-bit mode cost: modmul "
            f"{micro['modmul']['tbm_ratio']:.1f}x, per-limb batch NTT "
            f"{ntt['tbm_ratio']:.1f}x on the {ntt['batch_kernel']} "
            f"butterfly (hardware TBM issue ratio "
            f"{micro['tbm_issue_ratio']:.0f}x)")
        bconv = micro.get("bconv")
        if bconv:
            per_case = " ".join(
                f"{name}({case['k_in']}->{case['k_out']})="
                f"{case['speedup']:.1f}x"
                for name, case in bconv["cases"].items())
            lines.append(
                f"micro: BConv N={bconv['ring_degree']} matrix vs loop "
                f"{bconv['speedup_aggregate']:.1f}x aggregate "
                f"(bit_exact={bconv['bit_exact']}) {per_case}")
        lines.append(
            f"micro: {functional['workload']} @ {functional['params']}: "
            f"keygen {functional['keygen_wall_s'] * 1e3:.0f} ms, "
            f"step {functional['step_wall_s'] * 1e3:.0f} ms, "
            f"err {functional['max_slot_error']:.2e}, width paths "
            f"narrow={by_width['narrow']} wide={by_width['wide']} "
            f"object={by_width['object']}, bconv "
            f"matrix={functional.get('bconv', {}).get('matrix', 0)} "
            f"fallback="
            f"{functional.get('bconv', {}).get('object_fallback', 0)}")
    keyswitch = report.get("keyswitch")
    if keyswitch:
        auto = keyswitch["auto"]
        kmu = keyswitch["kmu"]
        hoisted = keyswitch["hoisted"]
        lines.append("")
        lines.append(
            f"keyswitch: AutoU gather N={auto['ring_degree']} "
            f"k={auto['num_limbs']} {auto['gather_best_s'] * 1e6:.0f} us vs "
            f"roundtrip {auto['roundtrip_best_s'] * 1e3:.2f} ms "
            f"({auto['speedup']:.0f}x, bar {auto['min_required_speedup']:.0f}x,"
            f" bit_exact={auto['bit_exact']})")
        lines.append(
            f"keyswitch: KMU fused d={kmu['num_digits']} tier={kmu['tier']} "
            f"{kmu['fused_best_s'] * 1e3:.2f} ms vs loop "
            f"{kmu['reference_best_s'] * 1e3:.2f} ms ({kmu['speedup']:.1f}x, "
            f"bit_exact={kmu['bit_exact']})")
        lines.append(
            f"keyswitch: hoisted {hoisted['rotations']} rot @ "
            f"{hoisted['params']}: stage {hoisted['stage_speedup']:.1f}x, "
            f"pipeline {hoisted['pipeline_speedup']:.1f}x, "
            f"loop_ntt_calls={hoisted['loop_ntt_calls']}, "
            f"bit_exact={hoisted['bit_exact']}")
        sweep = keyswitch.get("bsgs_sweep", {}).get("points", {})
        if sweep:
            lines.append("keyswitch: bsgs sweep " + " ".join(
                f"{p['rotations']}rot={p['speedup']:.2f}x"
                for p in sweep.values()))
    sched = report.get("sched")
    if sched:
        lines.append("")
        for name, record in sched["workloads"].items():
            speedups = " ".join(
                f"{p['clusters']}C={p['speedup']:.2f}x"
                for p in record["points"])
            lines.append(f"sched: {name:<10} {speedups}")
        executor = sched["executor"]
        lines.append(
            f"sched: executor {executor['trace']} "
            f"({executor['num_ops']} ops, {executor['workers']} workers)"
            f" bit_exact={executor['bit_exact']}"
            f" parallel={executor['parallel']}")
    throughput = report.get("throughput")
    if throughput:
        lines.append("")
        for count in throughput["clusters_axis"]:
            cells = " ".join(
                f"{p['streams']}S={p['amortized_speedup']:.2f}x"
                for p in throughput["points"]
                if p["clusters"] == count)
            lines.append(
                f"throughput: {throughput['workload']} {count}C {cells}")
        executor = throughput["executor"]
        lines.append(
            f"throughput: executor {executor['trace']} x"
            f"{executor['streams']} streams ({executor['num_ops']} ops)"
            f" bit_exact={executor['bit_exact']}"
            f" parallel={executor['parallel']}")
    dataflow = report.get("dataflow")
    if dataflow:
        lines.append("")
        for name, record in dataflow["workloads"].items():
            passes = " ".join(
                f"{entry['name']}={entry['rewrites']}"
                for entry in record.get("passes", []))
            lines.append(
                f"dataflow: {name:<10} NTT "
                f"{record['ntt_limb_calls_before']} -> "
                f"{record['ntt_limb_calls_after']} "
                f"(-{record['reduction_pct']:.1f}%) {passes}")
        fused = dataflow["fused_rescale"]
        lines.append(
            f"dataflow: fused rescale @ {fused['params']}: "
            f"{fused['fused_best_s'] * 1e3:.2f} ms vs sequential "
            f"{fused['sequential_best_s'] * 1e3:.2f} ms "
            f"({fused['speedup']:.2f}x, err {fused['fused_max_error']:.2e}, "
            f"kernel calls {fused['fused_kernel_calls']})")
        executor = dataflow["executor"]
        lines.append(
            f"dataflow: executor {executor['trace']} optimised "
            f"(-{executor['ntt_limb_calls_removed']} NTT limbs) "
            f"bit_exact={executor['bit_exact']} "
            f"evictions={dataflow['plan_cache_evictions']}")
    serving = report.get("serving")
    if serving:
        loadgen = serving["loadgen"]
        lines.append("")
        lines.append(
            f"serving: {loadgen['shape']} {loadgen['tenants']} tenants"
            f" x{loadgen['concurrency']} closed-loop: "
            f"{loadgen['requests']} req @ {loadgen['rps']:.0f} rps, "
            f"p50 {loadgen['p50_ms']:.0f} ms p99 "
            f"{loadgen['p99_ms']:.0f} ms, batch {loadgen['mean_batch']:.1f}"
            f" ({loadgen['batch_occupancy']:.0%} full)")
        lines.append(
            f"serving: speedup {loadgen['speedup']:.2f}x vs serial "
            f"(bar {serving['min_speedup']:.0f}x) "
            f"bit_exact={loadgen['bit_exact']} "
            f"errors={loadgen['errors']} "
            f"pin_violations={loadgen['pin_violations']}")
        admission = serving["evk_admission"]
        lines.append(
            f"serving: evk admission misses "
            f"{admission['naive']['misses']} -> "
            f"{admission['aware']['misses']} "
            f"(-{admission['miss_reduction']}) on the key-disjoint "
            f"pair")
    backend = report.get("backend")
    if backend:
        lines.append("")
        for name, entry in backend["backends"].items():
            micro_b = entry["micro"]
            cells = " ".join(
                f"{label.split('_', 1)[0]}="
                f"{micro_b[label] * 1e3:.2f}ms"
                for label in ("modmul_best_s", "ntt_best_s",
                              "bconv_best_s", "kmu_best_s"))
            status = "" if entry["available"] else \
                f" (fell back to {entry['resolved']})"
            lines.append(
                f"backend: {name:<6} [{entry['device']}]{status} {cells} "
                f"step {entry['functional']['step_wall_s'] * 1e3:.0f} ms "
                f"bit_exact={entry['bit_exact']} "
                f"fallbacks={entry['fallbacks']}")
    return "\n".join(lines)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Bench CLI flags (shared by ``repro bench`` and the wrapper)."""
    parser.add_argument("--quick", action="store_true",
                        help="slice ResNet-20 for a fast CI-sized run")
    parser.add_argument("--params", choices=("full", "toy"),
                        default=DEFAULT_PARAMS_MODE,
                        help="functional microbenchmark parameters: "
                             "Set-II-shaped 36/60-bit wide-word primes "
                             "(full) or narrow int64 toy primes (toy)")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"report path (default {DEFAULT_OUT})")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per workload (best wins)")
    parser.add_argument("--clusters", default="1,2,4,8",
                        help="comma-separated cluster counts for the "
                             "scheduler scaling curve")
    parser.add_argument("--backends", default=None,
                        help="comma-separated array backends to bench "
                             "(default: numpy, fake, plus any available "
                             "accelerator)")
    parser.add_argument("--baseline", default=None,
                        help="previous BENCH_*.json to regress against")
    parser.add_argument("--sim-tolerance", type=float,
                        default=DEFAULT_SIM_TOLERANCE,
                        help="allowed relative simulated-latency growth")
    parser.add_argument("--wall-tolerance", type=float,
                        default=DEFAULT_WALL_TOLERANCE,
                        help="allowed relative wall-time growth")
    parser.add_argument("--chrome-trace", default=None, metavar="PATH",
                        help="also write a chrome://tracing timeline")
    parser.add_argument("--obs-json", default=None, metavar="PATH",
                        help="also write the raw obs snapshot")
    parser.add_argument("--calibrate", action="store_true",
                        help="measure per-modop kernel unit costs and "
                             "the re-pinned Fig. 2 crossover; writes "
                             "CALIBRATION.json and skips the benchmarks")
    parser.add_argument("--calibration-out", default=None, metavar="PATH",
                        help="calibration report path "
                             "(default CALIBRATION.json)")


def run_cli(args: argparse.Namespace) -> int:
    from repro.bench.backend import validate_backend
    from repro.bench.dataflow import validate_dataflow
    from repro.bench.keyswitch import validate_keyswitch
    from repro.bench.micro import validate_micro
    from repro.bench.sched import validate_sched, validate_throughput
    from repro.bench.serving import validate_serving
    if getattr(args, "calibrate", False):
        return _run_calibration(args)
    clusters = tuple(int(c) for c in str(args.clusters).split(",") if c)
    backends = None
    if getattr(args, "backends", None):
        backends = [b.strip() for b in str(args.backends).split(",")
                    if b.strip()]
    report = run_benchmarks(quick=args.quick, repeats=args.repeats,
                            params_mode=args.params, clusters=clusters,
                            backends=backends)
    write_report(report, args.out)
    print(_format_table(report))
    print(f"\nwrote {args.out}"
          + (" (quick mode)" if args.quick else ""))
    violations = validate_micro(report["micro"]) \
        + validate_keyswitch(report["keyswitch"]) \
        + validate_sched(report["sched"]) \
        + validate_throughput(report["throughput"]) \
        + validate_dataflow(report["dataflow"]) \
        + validate_serving(report["serving"]) \
        + validate_backend(report["backend"])
    if violations:
        print("\nACCEPTANCE VIOLATIONS:")
        for line in violations:
            print(f"  {line}")
        return 1
    if args.chrome_trace or args.obs_json:
        _export_traces(args.quick, args.chrome_trace, args.obs_json)
        for path in (args.chrome_trace, args.obs_json):
            if path:
                print(f"wrote {path}")
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
        regressions = compare_reports(
            report, baseline, sim_tolerance=args.sim_tolerance,
            wall_tolerance=args.wall_tolerance)
        if regressions:
            print(f"\nREGRESSIONS vs {args.baseline}:")
            for line in regressions:
                print(f"  {line}")
            return 1
        print(f"\nno regressions vs {args.baseline}")
    return 0


def _run_calibration(args: argparse.Namespace) -> int:
    """``bench --calibrate``: measured unit costs -> CALIBRATION.json."""
    from repro.bench import calibrate
    report = calibrate.calibration_report()
    path = getattr(args, "calibration_out", None) or calibrate.DEFAULT_OUT
    calibrate.write_calibration(report, path)
    costs = report["kernel_costs"]
    print("measured kernel unit costs (s/modop), 36-bit mode and, "
          "where the multiplier differs, 60-bit mode:")
    for name in ("ntt", "bconv", "keymult", "elementwise"):
        wide = costs.get("wide_" + name)
        print(f"  {name:<12} {costs[name]:.3e}" + (
            f"   wide {wide:.3e} ({wide / costs[name]:.1f}x)"
            if wide is not None else ""))
    crossover = report["crossover"]
    analytic = crossover["analytic_level"]
    measured = crossover["measured_level"]
    print(f"Fig. 2 crossover (hybrid loses to KLSS above): "
          f"analytic level {analytic}, measured "
          f"{'level ' + str(measured) if measured is not None else 'never'}")
    for level, ratios in crossover["levels"].items():
        print(f"  level {level:>2}: analytic ratio "
              f"{ratios['analytic_ratio']:.2f}, measured "
              f"{ratios['measured_ratio']:.2f}")
    print(f"\nwrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="FAST simulator perf-regression benchmarks")
    add_arguments(parser)
    return run_cli(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
