"""The `python -m repro` command-line interface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.__main__ import main

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


class TestCli:
    def test_evaluate_prints_experiments_from_any_cwd(self, tmp_path,
                                                      experiments):
        from repro.analysis import figures
        out = subprocess.run(
            [sys.executable, "-m", "repro", "evaluate"], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
            text=True, timeout=300, check=True).stdout
        assert out == figures.experiments_markdown(experiments)

    def test_bootstrap_command(self, capsys):
        assert main(["bootstrap"]) == 0
        out = capsys.readouterr().out
        assert "bootstrap:" in out and "ms" in out

    def test_bootstrap_policy_flag(self, capsys):
        assert main(["bootstrap", "--policy", "hybrid-only"]) == 0
        assert "hybrid-only" in capsys.readouterr().out

    def test_bootstrap_cluster_flag(self, capsys):
        assert main(["bootstrap", "--clusters", "8"]) == 0
        assert "FAST-8C" in capsys.readouterr().out

    def test_bootstrap_rejects_zero_clusters(self):
        with pytest.raises(ValueError, match="clusters must be positive"):
            main(["bootstrap", "--clusters", "0"])

    def test_table5_command(self, capsys):
        assert main(["table5"]) == 0
        out = capsys.readouterr().out
        assert "FAST (ours)" in out and "SHARP" in out

    def test_decide_command(self, capsys):
        assert main(["decide"]) == 0
        out = capsys.readouterr().out
        assert "config file:" in out

    def test_security_command(self, capsys):
        assert main(["security"]) == 0
        out = capsys.readouterr().out
        assert "Set-I" in out and "hes_128bit_budget" in out

    def test_backend_command_names_the_ntt_butterfly(self, capsys):
        # a silent ~9x-slower fallback must be visible from the CLI
        assert main(["backend", "--json"]) == 0
        kernel = json.loads(capsys.readouterr().out)
        assert kernel["state"] in ("compiled", "loaded", "unavailable")
        assert kernel["file"] if kernel["state"] != "unavailable" \
            else kernel["reason"]
        assert main(["backend"]) == 0
        assert f"native_ntt: {kernel['state']}" in capsys.readouterr().out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_sched_command(self, capsys):
        assert main(["sched", "--clusters", "1,4"]) == 0
        out = capsys.readouterr().out
        assert "serial 1-pipeline" in out
        assert "speedup" in out and "violations 0" in out
        assert "graph:" in out

    def test_sched_opt_flag(self, capsys):
        assert main(["sched", "--clusters", "1", "--opt"]) == 0
        out = capsys.readouterr().out
        assert "dataflow optimiser: NTT limb transforms" in out
        assert "serial 1-pipeline" in out

    def test_sched_rejects_zero_clusters(self):
        with pytest.raises(ValueError, match="clusters must be positive"):
            main(["sched", "--clusters", "0"])

    def test_sched_rejects_zero_streams(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sched", "--streams", "0"])
        assert exit_info.value.code == 2
        assert "--streams: must be at least 1" in capsys.readouterr().err

    def test_opt_command(self, capsys):
        assert main(["opt", "--workload", "helr256"]) == 0
        out = capsys.readouterr().out
        assert "NTT limb transforms" in out
        assert "fused key-switches" in out

    def test_opt_stats_flag(self, capsys):
        assert main(["opt", "--workload", "helr256", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "pass sink" in out and "pass fuse" in out
        assert "fixed point after" in out

    def test_loadgen_command(self, capsys):
        assert main(["loadgen", "--tenants", "2",
                     "--requests-per-tenant", "2",
                     "--concurrency", "1"]) == 0
        out = capsys.readouterr().out
        assert "closed-loop" in out
        assert "bit-exact True" in out

    def test_loadgen_json_flag(self, capsys):
        assert main(["loadgen", "--tenants", "2",
                     "--requests-per-tenant", "2", "--no-serial",
                     "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["requests"] == 4
        assert record["errors"] == 0


class TestCalibrateCommand:
    def test_calibrate_writes_report(self, tmp_path, capsys):
        from repro.ckks.keyswitch import calibrate
        path = tmp_path / "CALIBRATION.json"
        assert main(["calibrate", "--out", str(path)]) == 0     # ~0.6 s
        out = capsys.readouterr().out
        assert "analytic level 12" in out and f"wrote {path}" in out
        report = json.loads(path.read_text())
        assert report["schema"] == calibrate.CALIBRATION_SCHEMA

    def test_bench_command_is_gone(self, capsys):
        """`benchmarks/e2e` is the one timing ledger and pytest the one
        gate; the second harness is an argparse error, not an alias."""
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--quick"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
