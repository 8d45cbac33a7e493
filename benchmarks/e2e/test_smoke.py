"""Smoke test of the benchmark itself: ``python -m pytest benchmarks/e2e -q``.

One ``run.py --smoke`` over every workload (toy parameters, a few
iterations) must emit exactly the names ``BENCHMARK.json`` declares.
Not part of the tier-1 suite (``testpaths`` stays ``tests``).
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_every_declared_metric_is_emitted_and_nothing_else():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--no-history"],
        stdout=subprocess.PIPE, text=True, timeout=170, check=False)
    assert done.returncode == 0, done.stdout[-2000:]
    outcome = json.loads(done.stdout.strip().splitlines()[-1])
    assert outcome["correct"] and outcome["failed"] == 0
    assert outcome["attempted"] >= 1
    declared = {m["name"]: m["unit"]
                for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert all(NAME.fullmatch(name) for name in declared)
    assert sorted(outcome["metrics"]) == sorted(
        w["name"] for w in SPEC["workloads"])
    for workload, metrics in outcome["metrics"].items():
        assert set(metrics) == set(declared), workload
        for name, metric in metrics.items():
            assert metric["unit"] == declared[name], (workload, name)
            assert isinstance(metric["value"], (int, float)), (workload, name)
        for metric in SPEC["end_to_end"]:
            assert metrics[metric["name"]]["value"] > 0, (workload, metric)
