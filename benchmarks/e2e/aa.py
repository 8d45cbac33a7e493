#!/usr/bin/env python3
"""A/A check: two sets of runs of the same code, compared the way a
change is compared with its parent.

    python3 benchmarks/e2e/aa.py                       # 2 x 10 runs per workload
    python3 benchmarks/e2e/aa.py --out benchmarks/e2e/AA_BASELINE.md

A set is ``--runs`` untraced runs of every workload, each with another
seed (set A starts at ``--seed``, set B where A stopped), and one
traced run at ``--seed``.  Per workload and end-to-end metric the report
gives both medians, both quartile spreads ((q3 - q1) / median, from
``statistics.quantiles(values, n=4)``) and the bound ``BENCHMARK.json``
fixes.  A pair is ``unresolved`` when a spread exceeds the bound and
``worse`` when B's median is worse than A's by more than the bound; on
the same code both mean the benchmark, not the program, needs work.
Counts and simulated statistics of the two traced runs must be equal.
Exits 1 on any ``worse``, ``unresolved``, failed operation or unequal
count.  Each set appends one line to ``history.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run as runner

SPEC = runner.SPEC
TIMED_UNITS = {"s", "us", "1/s", "GB/s"}


def repeats_exactly(name: str, unit: str) -> bool:
    """Per-layer metrics that do not depend on the clock or on how
    arrivals fell into batches: counts, simulated statistics, errors."""
    if name == "harness.result_err":
        return True
    return unit not in TIMED_UNITS and \
        not name.startswith(("serve.", "harness.", "host."))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(runner.HERE / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=runner.ROOT, stdout=subprocess.PIPE,
                          text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} exited with "
                           f"{done.returncode}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.perf_counter() - start
    return result


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def run_set(label: str, workloads: list, seeds: list, traced_seed: int,
            seconds: int) -> dict:
    """{workload: {"end_to_end": {metric: summary}, "per_layer":
    {metric: value}, "attempted": n, "failed": n, "elapsed_s": [..]}}"""
    out = {}
    for workload in workloads:
        samples: dict = {m["name"]: [] for m in SPEC["end_to_end"]}
        attempted = failed = 0
        elapsed = []
        for seed in seeds:
            result = one_run(workload, seed, seconds, 0)
            elapsed.append(result["elapsed_s"])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                samples[name].append(metric["value"])
            print(f"set {label}  {workload}  seed {seed}  "
                  f"{elapsed[-1]:.1f} s  " + "  ".join(
                f"{name} {metric['value']:.6g}"
                for name, metric in result["metrics"].items()),
                file=sys.stderr, flush=True)
        traced = one_run(workload, traced_seed, seconds, 1)
        elapsed.append(traced["elapsed_s"])
        out[workload] = {
            "elapsed_s": elapsed,
            "end_to_end": {name: summary(values)
                           for name, values in samples.items()},
            "per_layer": {name: metric["value"]
                          for name, metric in traced["metrics"].items()},
            "attempted": attempted + traced["attempted"],
            "failed": failed + traced["failed"],
        }
    return out


def compare(set_a: dict, set_b: dict) -> tuple[list, bool]:
    """The report's lines and whether every pair agreed."""
    lines, agreed = [], True
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in set_a:
        a, b = set_a[workload], set_b[workload]
        lines += ["", f"### {workload}", "",
                  f"operations attempted {a['attempted']} / "
                  f"{b['attempted']}, failed {a['failed']} / {b['failed']}; "
                  f"a run took {statistics.median(a['elapsed_s'] + b['elapsed_s']):.1f} s "
                  f"(median), {max(a['elapsed_s'] + b['elapsed_s']):.1f} s "
                  f"at most",
                  "",
                  "| metric | unit | median A | median B | spread A | "
                  "spread B | B worse by | bound | verdict |",
                  "|---|---|---|---|---|---|---|---|---|"]
        agreed &= not (a["failed"] or b["failed"])
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sa, sb = a["end_to_end"][name], b["end_to_end"][name]
            spread_a = (sa["q3"] - sa["q1"]) / sa["median"]
            spread_b = (sb["q3"] - sb["q1"]) / sb["median"]
            shift = (sb["median"] - sa["median"]) / sa["median"]
            worse = shift if metric["better"] == "lower" else -shift
            verdict = "ok"
            # setup_s is judged on its medians alone (see README.md)
            if max(spread_a, spread_b) > bound and name != "setup_s":
                verdict = "unresolved"
            if worse > bound:
                verdict = "worse"
            agreed &= verdict == "ok"
            lines.append(
                f"| `{name}` | {metric['unit']} | {sa['median']:.6g} | "
                f"{sb['median']:.6g} | {spread_a:.3f} | {spread_b:.3f} | "
                f"{worse:+.3f} | {bound} | {verdict} |")
        unequal = [name for name, unit in units.items()
                   if repeats_exactly(name, unit)
                   and a["per_layer"][name] != b["per_layer"][name]]
        agreed &= not unequal
        checked = sum(repeats_exactly(n, u) for n, u in units.items())
        lines += ["", f"counts and simulated statistics equal between the "
                      f"two traced runs: {checked - len(unequal)} of "
                      f"{checked}"
                      + (f"; unequal: {', '.join(unequal)}"
                         if unequal else "")]
        lines += ["", "| traced run | A | B |", "|---|---|---|"] + [
            f"| `{name}` | {a['per_layer'][name]:.6g} | "
            f"{b['per_layer'][name]:.6g} |"
            for name in ("harness.trace_overhead_share",
                         "harness.unattributed_share",
                         "harness.iter_iqr_share", "harness.iter_tail_s")]
    return lines, agreed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="untraced runs per workload and set")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=runner.WORKLOAD_NAMES,
                        help="only this workload (repeatable)")
    parser.add_argument("--out", type=Path, help="write the report here too")
    parser.add_argument("--no-history", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workload or runner.WORKLOAD_NAMES
    sets = {}
    for label, first in (("A", args.seed), ("B", args.seed + args.runs)):
        seeds = list(range(first, first + args.runs))
        sets[label] = run_set(label, workloads, seeds, args.seed,
                              args.seconds)
        if not args.no_history:
            runner.append_history(
                seeds[0], args.seconds,
                {name: one["end_to_end"]
                 for name, one in sets[label].items()})
    body, agreed = compare(sets["A"], sets["B"])
    host = runner.host_record()
    lines = [
        "# A/A baseline of `benchmarks/e2e`", "",
        f"Commit `{host['commit']}`, host `{host['host']}` "
        f"({host['nproc']} cores), {args.runs} untraced runs of "
        f"{args.seconds} s per workload and set plus one traced run; "
        f"set A seeds {args.seed}..{args.seed + args.runs - 1}, set B "
        f"seeds {args.seed + args.runs}..{args.seed + 2 * args.runs - 1}, "
        f"traced runs at seed {args.seed}.", "",
        "Spread is (q3 - q1) / median over a set's runs; `B worse by` is "
        "the share by which B's median is worse than A's (negative: "
        "better).", "",
        f"**{'Both sets agree within every bound.' if agreed else 'The sets DISAGREE; see the verdict column.'}**",
    ] + body
    text = "\n".join(lines) + "\n"
    print(text)
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    return 0 if agreed else 1


if __name__ == "__main__":
    sys.exit(main())
