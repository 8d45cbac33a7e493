#!/usr/bin/env python3
"""One benchmark for the whole stack (see README.md beside this file).

    python3 benchmarks/e2e/run.py --workload helr_step --seed 1 \\
        --seconds 15 --trace 0        # end-to-end metrics, untraced
    python3 benchmarks/e2e/run.py --workload helr_step --trace 1
                                      # per-layer metrics, traced
    python3 benchmarks/e2e/run.py     # every workload, both runs,
                                      # one line appended to history.jsonl

The runner is an orchestrator: it never imports ``repro`` itself.  It
warms guest memory, starts the workload in fresh worker processes
(``--phase``), times their cold starts from the outside, and turns the
measuring worker's result into the metrics ``BENCHMARK.json`` names.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

COLD_STARTS = 3            # set-up samples per run (the first one measures)
WORKER_TIMEOUT_S = 150
# Touched and freed before the first cold start: each workload's
# expected peak RSS and a margin.  First touch of guest memory costs the
# hypervisor, not the program (0.08 s to 10 s for the same 400 MB in
# sizing runs, and the hypervisor takes freed pages back within
# seconds), so the buffer is no larger than the workload needs.
PRETOUCH_MIB = {"helr_step": 448, "hoisted_bsgs": 256, "serve_closed": 64,
                "serve_open": 64, "sim_suite": 96}
STREAM_MIB = 64            # host.stream_gbps array size cap


class Plan:
    """What one worker is asked to do."""

    def __init__(self, args):
        self.seconds = float(args.seconds)
        self.traced = bool(args.trace)
        self.setup_only = args.phase == "setup"


# -- worker side --------------------------------------------------------------

def emit(event: str, **payload) -> None:
    print(json.dumps({"event": event, **payload}), flush=True)


def worker(args) -> int:
    """Runs one phase in this (fresh) process; speaks JSON lines."""
    if args.phase == "pretouch":
        pretouch(PRETOUCH_MIB[args.workload])
        return 0
    if args.phase == "stream":
        rate, size, llc = stream_gbps(8 if args.smoke else STREAM_MIB)
        emit("result", rate=rate, size=size, llc=llc)
        return 0
    import workloads as wl

    workload = wl.WORKLOADS[args.workload](args.seed, args.smoke)
    plan = Plan(args)
    result = workload.execute(plan, lambda: emit("ready"))
    if result is None:
        return 0
    untraced, traced = result.untraced, result.traced
    q1, q3 = wl.quartiles(untraced.walls)
    p50 = wl.median(untraced.walls)
    notes = result.notes + [
        f"iteration wall: p50 {p50:.6f} s  q1 {q1:.6f}  q3 {q3:.6f}  "
        f"n {len(untraced.walls)}  ({untraced.work:.0f} "
        f"{workload.work_unit} in {untraced.wall_s:.3f} s "
        f"{workload.work_basis})",
        f"result_err {result.result_err:.3e}"]
    if traced is None:
        values = {
            "iter_p50_s": p50,
            "work_per_s": untraced.work / untraced.wall_s,
            "peak_rss_mb": wl.peak_rss_mib(),
        }
    else:
        tail_s, tail_pct = wl.tail(traced.walls)
        t50 = wl.median(traced.walls)
        t1, t3 = wl.quartiles(traced.walls)
        values = dict(result.layers)
        values.update({
            "harness.result_err": result.result_err,
            "harness.iterations": len(traced.walls),
            "harness.iter_tail_s": tail_s,
            "harness.iter_iqr_share": (t3 - t1) / t50,
            "harness.cpu_s_per_iter": traced.cpu_s / len(traced.walls),
            "harness.trace_overhead_share": t50 / p50 - 1.0,
        })
        notes.append(
            f"traced iteration wall: p50 {t50:.6f} s  q1 {t1:.6f}  "
            f"q3 {t3:.6f}  n {len(traced.walls)}  tail p{tail_pct:.0f} "
            f"{tail_s:.6f} s")
        if traced.reconcile is not None:
            layers_sum, wall = traced.reconcile
            notes.append(
                f"reconcile: layer self times + glue {layers_sum:.6f} s "
                f"vs traced iteration p50 {wall:.6f} s "
                f"({layers_sum / wall - 1.0:+.2%})")
        OUT.mkdir(exist_ok=True)
        workload.recorder.dump(OUT / f"spans-{args.workload}.jsonl")
    emit("result", attempted=result.attempted, failed=result.failed,
         failures=result.failures, values=values, notes=notes)
    return 0


# -- orchestrator side ----------------------------------------------------------

def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    threads = str(min(2, os.cpu_count() or 1))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = threads
    return env


def pretouch(mib: int) -> None:
    """Touch ``mib`` MiB, so that the workers that follow find guest
    memory the hypervisor has already backed.  Runs in a process of
    its own and frees by exiting: a worker's ``ru_maxrss`` starts at
    the high-water mark of the process that spawned it."""
    buffer = bytearray(mib << 20)
    pages = len(buffer) // 4096
    buffer[::4096] = b"\x01" * pages


def run_worker(args, phase: str) -> tuple[float | None, dict | None]:
    """Start one worker; returns (seconds from spawn to its "ready"
    line, its result event), each None if the phase has none."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--phase", phase, "--workload", args.workload or "",
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    command += ["--smoke"] if args.smoke else []
    command += ["--check-only"] if args.check_only else []
    start = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               cwd=ROOT, env=worker_env())
    watchdog = threading.Timer(WORKER_TIMEOUT_S, process.kill)
    watchdog.start()
    ready_s, result = None, None
    try:
        for line in process.stdout:
            try:
                event = json.loads(line)
            except ValueError:
                sys.stderr.write(line)
                continue
            if event.get("event") == "ready":
                ready_s = time.perf_counter() - start
            elif event.get("event") == "result":
                result = event
    finally:
        process.wait()
        watchdog.cancel()
    if process.returncode != 0 or \
            (ready_s is None and phase in ("setup", "measure")):
        raise RuntimeError(f"{args.workload} worker ({phase}) failed with "
                           f"exit code {process.returncode}")
    return ready_s, result


def stream_gbps(cap_mib: int) -> tuple[float, int, int]:
    """numpy copy bandwidth over arrays of 4 x the last-level cache,
    capped at ``cap_mib``: the denominator for every
    ``*_computed_gbps``.  Returns (GB/s, array bytes, cache bytes)."""
    import numpy as np

    llc = 0
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
        llc = max(llc, int(text.rstrip("KMG")) * scale)
    size = min(max(4 * llc, 8 << 20), cap_mib << 20)
    src = np.ones(size // 8)
    dst = np.ones_like(src)          # both touched before the clock runs
    rates = []
    for _ in range(9):
        start = time.perf_counter()
        np.copyto(dst, src)
        rates.append(2 * size / (time.perf_counter() - start) / 1e9)
    return statistics.median(rates), size, llc


def run_workload(args) -> dict:
    """One driver-style run of one workload; prints and returns the
    contract object."""
    traced = bool(args.trace)
    declared = PER_LAYER if traced else END_TO_END
    print(f"== {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}{'  smoke' if args.smoke else ''}"
          f"{'  check-only' if args.check_only else ''}")
    repeat_setup = not (traced or args.check_only or args.smoke)
    if repeat_setup:
        start = time.perf_counter()
        run_worker(args, "pretouch")
        print(f"pre-touch {PRETOUCH_MIB[args.workload]} MiB: "
              f"{time.perf_counter() - start:.3f} s")
    ready_s, event = run_worker(args, "measure")
    cold = [ready_s]
    if repeat_setup:
        # After the measuring worker, not before it: a host that idled
        # runs its first seconds slowly (first iteration 2.4 s against
        # 0.7 s in sizing runs), and the state after a timed window is
        # the one that repeats.
        cold += [run_worker(args, "setup")[0] for _ in range(COLD_STARTS - 1)]
    values = dict(event["values"])
    values["setup_s"] = statistics.median(cold)
    if traced:
        stream = run_worker(args, "stream")[1]
        values["host.nproc"] = os.cpu_count() or 1
        values["host.stream_gbps"] = stream["rate"]
        event["notes"].append(
            f"host stream: {stream['rate']:.2f} GB/s copying "
            f"{stream['size'] >> 20} MiB arrays (last-level cache "
            f"{stream['llc'] >> 20} MiB"
            f"{'' if stream['size'] >= 4 * stream['llc'] else ', 4x target capped'})")
    else:
        event["notes"].append(
            "cold starts: " + "  ".join(f"{s:.3f}" for s in cold) + " s")
    for line in event["notes"]:
        print(line)
    for line in event["failures"]:
        print(f"FAILED CHECK: {line}")
    # Every declared metric is emitted; a layer this workload does not
    # touch reads 0.
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in declared.items()}
    undeclared = sorted(set(values) - set(END_TO_END) - set(PER_LAYER))
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: "
                           f"{undeclared}")
    for name, metric in metrics.items():
        print(f"{name:52s} {metric['value']:<22.10g} {metric['unit']}")
    outcome = {"correct": event["failed"] == 0,
               "attempted": max(1, event["attempted"]),
               "failed": event["failed"], "metrics": metrics}
    print(f"operations attempted {outcome['attempted']}  "
          f"failed {outcome['failed']}")
    return outcome


def host_record() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"commit": commit, "host": platform.node(),
            "nproc": os.cpu_count()}


def append_history(seed: int, seconds: float, workloads: dict) -> None:
    """One line of history.jsonl: per workload and end-to-end metric
    ``{"median", "q1", "q3", "n"}`` over the runs made (n = 1 here,
    n = the set size from aa.py)."""
    record = {**host_record(), "seed": seed, "seconds": seconds,
              "workloads": workloads}
    with open(HERE / "history.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")


def run_all(args) -> dict:
    """Every workload, untraced then traced; appends the end-to-end
    values to history.jsonl."""
    outcome = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    history = {}
    for name in WORKLOAD_NAMES:
        args.workload = name
        merged: dict = {}
        for trace in (0, 1):
            args.trace = trace
            one = run_workload(args)
            outcome["correct"] &= one["correct"]
            outcome["attempted"] += one["attempted"]
            outcome["failed"] += one["failed"]
            merged.update(one["metrics"])
            if not trace:
                history[name] = {
                    key: {"median": metric["value"], "q1": metric["value"],
                          "q3": metric["value"], "n": 1}
                    for key, metric in one["metrics"].items()}
        outcome["metrics"][name] = merged
    if not (args.no_history or args.check_only or args.smoke):
        append_history(args.seed, args.seconds, history)
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + [""],
                        help="one workload (default: all, both runs)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy parameters, a few iterations")
    parser.add_argument("--check-only", action="store_true",
                        help="run just the output checks")
    parser.add_argument("--no-history", action="store_true",
                        help="do not append to history.jsonl")
    parser.add_argument("--phase", help=argparse.SUPPRESS,
                        choices=("setup", "measure", "pretouch", "stream"))
    args = parser.parse_args(argv)
    if args.smoke or args.check_only:
        args.seconds = 0.0      # the minimum number of iterations only
    if args.phase:
        return worker(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    outcome = run_workload(args) if args.workload else run_all(args)
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
