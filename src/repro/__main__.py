"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``evaluate``    print EXPERIMENTS.md, rendered from the paper-vs-measured rows
``bootstrap``   simulate fully-packed bootstrapping on FAST
``table5``      workload latencies vs published baselines
``decide``      show Aether's decisions for the bootstrap trace
``security``    security report for the paper's parameter sets
``calibrate``   measured kernel unit costs + the Fig. 2 crossover they give
``sched``       dataflow-scheduled multi-cluster run + scaling curve
``opt``         whole-trace dataflow optimiser report for one workload
``serve``       multi-tenant batching FHE server (JSON over TCP)
``loadgen``     drive a server and report rps / latency / bit-exactness
``backend``     state of the compiled NTT/KMU/BConv kernel (or why not)
"""

from __future__ import annotations

import argparse
import sys


def cmd_evaluate(_args) -> int:
    from repro.analysis import figures
    sys.stdout.write(figures.experiments_markdown())
    return 0


def cmd_bootstrap(args) -> int:
    from repro.hw.config import fast_variant, FAST_CONFIG
    from repro.sim.engine import Engine
    from repro.workloads import bootstrap_trace

    config = FAST_CONFIG
    if args.clusters != 4:
        config = fast_variant(f"FAST-{args.clusters}C",
                              clusters=args.clusters)
    engine = Engine(config, policy_mode=args.policy)
    result = engine.run(bootstrap_trace())
    print(f"{config.name} [{args.policy}] bootstrap: "
          f"{result.total_s * 1e3:.3f} ms")
    print("utilisation:", {k: f"{v:.0%}"
                           for k, v in result.utilisation().items()})
    print(f"key traffic: {result.key_bytes / 1e6:.0f} MB; "
          f"methods: {dict(result.method_ops)}")
    return 0


def cmd_table5(_args) -> int:
    from repro.analysis import figures
    data = figures.table5()
    rows = [{"accelerator": n, **{k: v if v is not None else "-"
                                  for k, v in r.items()}}
            for n, r in data["published_ms"].items()]
    rows.append({"accelerator": "FAST (ours)", **data["ours_ms"]})
    print(figures.format_rows(rows, precision=2))
    return 0


def cmd_decide(_args) -> int:
    from repro.sim.engine import Engine
    from repro.workloads import bootstrap_trace

    engine = Engine()
    config = engine.aether.run(bootstrap_trace())
    for uid, d in sorted(config.decisions.items()):
        print(f"unit {uid:>3}: {d.kind:6} level {d.level:>2} x{d.times}"
              f" -> {d.method:7} h={d.hoisting}")
    print(f"\nconfig file: {config.size_bytes()} bytes; "
          f"mix {config.method_histogram()}")
    return 0


def cmd_calibrate(args) -> int:
    from repro.ckks.keyswitch import calibrate

    report = calibrate.calibration_report()
    calibrate.write_calibration(report, args.out)
    costs = report["kernel_costs"]
    print("measured kernel unit costs (s/modop), 36-bit mode and, "
          "where the multiplier differs, 60-bit mode:")
    for name in ("ntt", "bconv", "keymult", "elementwise"):
        wide = costs.get("wide_" + name)
        print(f"  {name:<12} {costs[name]:.3e}" + (
            f"   wide {wide:.3e} ({wide / costs[name]:.1f}x)"
            if wide is not None else ""))
    crossover = report["crossover"]
    measured = crossover["measured_level"]
    print(f"Fig. 2 crossover (hybrid loses to KLSS above): "
          f"analytic level {crossover['analytic_level']}, measured "
          f"{'level ' + str(measured) if measured is not None else 'never'}")
    for level, ratios in crossover["levels"].items():
        print(f"  level {level:>2}: analytic ratio "
              f"{ratios['analytic_ratio']:.2f}, measured "
              f"{ratios['measured_ratio']:.2f}")
    print(f"\nwrote {args.out}")
    return 0


def cmd_sched(args) -> int:
    from repro.hw.config import FAST_CONFIG
    from repro.sched import (FunctionalExecutor, ScheduledEngine,
                             serial_reference)
    from repro.workloads import bootstrap_trace, helr_trace

    traces = {"helr256": lambda: helr_trace(batch=256),
              "helr1024": lambda: helr_trace(batch=1024),
              "bootstrap": bootstrap_trace}
    trace = traces[args.workload]()
    if args.opt:
        from repro.ckks.params import SET_II
        from repro.opt import optimise_trace
        trace = optimise_trace(trace, SET_II)
        stats = trace.stats
        print(f"dataflow optimiser: NTT limb transforms "
              f"{stats.ntt_before} -> {stats.ntt_after} "
              f"(-{stats.reduction_pct:.1f}%)")
    counts = [int(c) for c in str(args.clusters).split(",") if c]
    streams = args.streams
    serial = serial_reference(FAST_CONFIG).run(trace)
    print(f"{trace.name}: serial 1-pipeline {serial.total_s * 1e3:.3f} ms")
    for count in counts:
        config = FAST_CONFIG.with_(name=f"FAST-{count}C", clusters=count)
        depth_kwargs = {} if args.pipeline_depth is None else \
            {"pipeline_depth": args.pipeline_depth}
        engine = ScheduledEngine(config, **depth_kwargs)
        if streams > 1:
            result = engine.run_streams(trace, streams)
            result.serial_total_s = serial.total_s
            print(f"  {count} cluster(s) x {streams} streams: "
                  f"makespan {result.total_s * 1e3:.3f} ms  "
                  f"amortized {result.amortized_s * 1e3:.3f} ms/stream  "
                  f"({result.amortized_speedup:.2f}x)  "
                  f"violations {result.dependency_violations}")
            print(f"    prefetch: {result.prefetch_hits} hits / "
                  f"{result.prefetch_misses} demand misses; "
                  f"stolen ops {result.stolen_ops}")
        else:
            result = engine.run(trace)
            result.serial_total_s = serial.total_s
            print(f"  {count} cluster(s): {result.total_s * 1e3:.3f} ms  "
                  f"speedup {result.speedup:.2f}x  "
                  f"occupancy {result.mean_occupancy():.0%}  "
                  f"violations {result.dependency_violations}")
        stalls = result.stalls
        print(f"    stalls: dep {stalls['dependency_s'] * 1e6:.1f} us, "
              f"evk {stalls['evk_s'] * 1e6:.1f} us, "
              f"structural {stalls['structural_s'] * 1e6:.1f} us")
        if count == counts[-1] and streams == 1:
            stats = result.graph_stats
            print(f"    graph: {stats['nodes']} nodes, "
                  f"{stats['edges']} edges, depth {stats['depth']}, "
                  f"{stats['ciphertext_chains']} chains, "
                  f"avg parallelism {stats['avg_parallelism']:.1f}")
    if args.verify:
        executor = FunctionalExecutor()
        if streams > 1:
            check = executor.verify_streams([trace] * streams,
                                            workers=args.workers)
            mode = "multiprocess" if check.parallel else "inline fallback"
            print(f"  executor ({mode}, {check.workers} workers): "
                  f"{check.streams} streams, {check.num_ops} ops over "
                  f"{check.num_cts} ciphertexts -> "
                  f"bit_exact={check.bit_exact}")
        else:
            check = executor.verify(trace, workers=args.workers)
            mode = "multiprocess" if check.parallel else "inline fallback"
            print(f"  executor ({mode}, {check.workers} workers): "
                  f"{check.num_ops} ops over {check.num_cts} "
                  f"ciphertexts -> bit_exact={check.bit_exact}")
        if not check.bit_exact:
            return 1
    return 0


def cmd_opt(args) -> int:
    from repro.ckks.params import SET_II
    from repro.opt import optimise_trace
    from repro.opt.stats import stats_report
    from repro.workloads import bootstrap_trace, helr_trace

    traces = {"helr256": lambda: helr_trace(batch=256),
              "helr1024": lambda: helr_trace(batch=1024),
              "bootstrap": bootstrap_trace}
    trace = optimise_trace(traces[args.workload](), SET_II)
    stats = trace.stats
    if args.stats:
        print(stats_report(stats))
    else:
        print(f"{stats.trace}: NTT limb transforms "
              f"{stats.ntt_before} -> {stats.ntt_after} "
              f"(-{stats.ntt_removed}, {stats.reduction_pct:.1f}%), "
              f"{stats.fused_nodes} fused key-switches, "
              f"{stats.merged_rescales} merged rescales")
    return 0 if stats.ntt_after < stats.ntt_before else 1


def cmd_serve(args) -> int:
    import asyncio
    from repro.serve.server import FheServer, ServerConfig

    config = ServerConfig(window_s=args.window_ms / 1e3,
                          max_batch=args.max_batch,
                          backend=args.backend,
                          workers=args.workers,
                          seed=args.seed)

    async def _run() -> None:
        server = FheServer(config)
        try:
            host, port = await server.start_tcp(args.host, args.port)
            print(f"repro serve: listening on {host}:{port} "
                  f"(backend {config.backend}, window "
                  f"{config.window_s * 1e3:.1f} ms, "
                  f"max batch {config.max_batch})", flush=True)
            while args.limit is None or \
                    server.stats()["responses"] < args.limit:
                await asyncio.sleep(0.05)
        finally:
            await server.close()
        stats = server.stats()
        print(f"served {stats['responses']} requests in "
              f"{stats['batches']} batches "
              f"(mean batch {stats['mean_batch']:.1f})")

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("\ninterrupted")
    return 0


def cmd_loadgen(args) -> int:
    import json
    from repro.serve.loadgen import format_report, run_loadgen
    from repro.serve.server import ServerConfig

    config = ServerConfig(window_s=args.window_ms / 1e3,
                          max_batch=args.max_batch,
                          backend=args.backend,
                          workers=args.workers)
    report = run_loadgen(config=config, shape=args.shape,
                         tenants=args.tenants,
                         requests_per_tenant=args.requests_per_tenant,
                         concurrency=args.concurrency,
                         mode=args.mode, rate_rps=args.rate,
                         compare_serial=not args.no_serial)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for line in format_report(report):
            print(line)
    return 1 if report.errors or report.bit_exact is False else 0


def cmd_backend(args) -> int:
    import json
    from repro.backend import native

    info = native.probe()[1]
    keys = ("reason",) if info["state"] == "unavailable" \
        else ("file", "compiler", "entry_points")
    report = {"state": info["state"], **{key: info[key] for key in keys}}
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    print(f"native_ntt: {report.pop('state')}")
    for key, value in report.items():
        print(f"  {key}: {value}")
    return 0


def cmd_security(_args) -> int:
    from repro.ckks import security
    from repro.ckks.params import SET_I, SET_II

    for params in (SET_I, SET_II):
        report = security.security_report(params)
        print(f"{params.name}:")
        for key, value in report.items():
            print(f"  {key}: {value}")
    return 0


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FAST (ISCA 2025) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("evaluate", help="print EXPERIMENTS.md, regenerated")
    boot = sub.add_parser("bootstrap", help="simulate bootstrapping")
    boot.add_argument("--clusters", type=int, default=4)
    boot.add_argument("--policy", default="aether",
                      choices=["aether", "hybrid-only", "hoisting-only",
                               "klss-only"])
    sub.add_parser("table5", help="workload latency table")
    sub.add_parser("decide", help="show Aether's decisions")
    sub.add_parser("security", help="parameter security report")
    calibrate = sub.add_parser(
        "calibrate", help="measured kernel unit costs -> CALIBRATION.json")
    calibrate.add_argument("--out", default="CALIBRATION.json",
                           metavar="PATH", help="report path")
    sched = sub.add_parser(
        "sched", help="dataflow-scheduled multi-cluster simulation")
    sched.add_argument("--workload", default="helr256",
                       choices=["helr256", "helr1024", "bootstrap"])
    sched.add_argument("--clusters", default="1,2,4,8",
                       help="comma-separated cluster counts")
    sched.add_argument("--streams", type=_at_least_one, default=1,
                       help="independent ciphertext streams; >1 runs "
                            "the software-pipelined throughput mode")
    sched.add_argument("--pipeline-depth", type=int, default=None,
                       help="throughput mode: max in-flight ops per "
                            "cluster front end")
    sched.add_argument("--verify", action="store_true",
                       help="also run the multiprocess functional "
                            "executor bit-exactness check")
    sched.add_argument("--workers", type=int, default=2,
                       help="process-pool size for --verify")
    sched.add_argument("--opt", action=argparse.BooleanOptionalAction,
                       default=False,
                       help="run the whole-trace dataflow optimiser "
                            "before lowering (--no-opt disables)")
    opt = sub.add_parser(
        "opt", help="whole-trace dataflow optimiser report")
    opt.add_argument("--workload", default="helr256",
                     choices=["helr256", "helr1024", "bootstrap"])
    opt.add_argument("--stats", action="store_true",
                     help="print the per-pass rewrite breakdown")

    def server_arguments(cmd):
        cmd.add_argument("--window-ms", type=float, default=2.0,
                         help="admission window when idle (milliseconds)")
        cmd.add_argument("--max-batch", type=int, default=16)
        cmd.add_argument("--backend", default="stacked",
                         choices=["stacked", "pool"])
        cmd.add_argument("--workers", type=int, default=4,
                         help="pool backend: compute processes")

    serve = sub.add_parser(
        "serve", help="multi-tenant batching FHE server (JSON/TCP)")
    server_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8473)
    serve.add_argument("--seed", type=int, default=20250806)
    serve.add_argument("--limit", type=int, default=None,
                       help="exit after serving N responses")
    loadgen = sub.add_parser(
        "loadgen", help="drive a server; report rps/latency/exactness")
    server_arguments(loadgen)
    loadgen.add_argument("--shape", default="helr-mini-step")
    loadgen.add_argument("--tenants", type=int, default=8)
    loadgen.add_argument("--requests-per-tenant", type=int, default=8)
    loadgen.add_argument("--concurrency", type=int, default=2)
    loadgen.add_argument("--mode", default="closed",
                         choices=["closed", "open"])
    loadgen.add_argument("--rate", type=float, default=200.0,
                         help="open loop: arrival rate (requests/sec)")
    loadgen.add_argument("--no-serial", action="store_true",
                         help="skip the serial oracle comparison")
    loadgen.add_argument("--json", action="store_true")
    backend = sub.add_parser(
        "backend", help="state of the compiled NTT/KMU/BConv kernel")
    backend.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    return {"evaluate": cmd_evaluate, "bootstrap": cmd_bootstrap,
            "table5": cmd_table5, "decide": cmd_decide,
            "security": cmd_security, "calibrate": cmd_calibrate,
            "sched": cmd_sched, "opt": cmd_opt,
            "serve": cmd_serve, "loadgen": cmd_loadgen,
            "backend": cmd_backend}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
