"""The `python -m repro` command-line interface."""

import json

import pytest

from repro.__main__ import main


class TestCli:
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
        kernel = json.loads(capsys.readouterr().out)["numpy"]["info"][
            "native_ntt"]
        assert kernel["state"] in ("compiled", "loaded", "unavailable")
        assert kernel["file"] if kernel["state"] != "unavailable" \
            else kernel["reason"]
        assert main(["backend"]) == 0
        assert "native_ntt: " in capsys.readouterr().out

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


class TestBenchCommand:
    """`repro bench` seeds the BENCH_sim.json regression baseline."""

    @pytest.fixture(scope="class")
    def report_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("bench") / "BENCH_sim.json"
        assert main(["bench", "--quick", "--repeats", "1",
                     "--out", str(path)]) == 0
        return path

    def test_bench_quick_writes_schema(self, report_path):
        data = json.loads(report_path.read_text())
        assert data["schema"] == "repro-bench/v13"
        assert data["quick"] is True
        assert set(data["workloads"]) == {"Bootstrap", "HELR256",
                                          "HELR1024", "ResNet-20"}

    def test_bench_bconv_section(self, report_path):
        data = json.loads(report_path.read_text())
        bconv = data["micro"]["bconv"]
        assert bconv["bit_exact"] is True
        assert set(bconv["cases"]) == {"modup_digit0", "modup_digit1",
                                       "moddown"}
        for name, case in bconv["cases"].items():
            assert case["matrix_best_s"] > 0 and case["loop_best_s"] > 0
            assert case["bit_exact"] is True, name
        # reported, not gated: the loop it divides by is
        # ModulusKernel.mul_scalar, so the ratio moves with the kernel
        assert bconv["speedup_aggregate"] > 0
        counters = bconv["plan_counters"]
        assert counters.get("plan_miss", 0) >= 3    # one per shape
        assert counters.get("plan_hit", 0) >= 3     # second pass hits
        assert counters.get("object_fallback", 0) == 0
        functional = data["micro"]["functional"]
        assert functional["bconv"].get("matrix", 0) > 0
        assert functional["bconv"].get("object_fallback", 0) == 0

    def test_bench_records_required_metrics(self, report_path):
        from repro.sim.engine import UNIT_NAMES
        data = json.loads(report_path.read_text())
        for name, record in data["workloads"].items():
            for key in ("wall_s", "sim_s", "sim_ms", "utilisation",
                        "key_cache_hit_rate", "hbm_bytes",
                        "key_stall_s", "method_ops"):
                assert key in record, f"{name} missing {key}"
            assert record["wall_s"] > 0 and record["sim_s"] > 0
            assert set(record["utilisation"]) == set(UNIT_NAMES)
            assert 0.0 <= record["key_cache_hit_rate"] <= 1.0

    def test_bench_sched_section(self, report_path):
        data = json.loads(report_path.read_text())
        sched = data["sched"]
        assert sched["clusters_axis"] == [1, 2, 4, 8]
        assert set(sched["workloads"]) == {"HELR256", "Bootstrap"}
        for name, record in sched["workloads"].items():
            points = {p["clusters"]: p for p in record["points"]}
            assert set(points) == {1, 2, 4, 8}, name
            assert points[4]["speedup"] >= 2.0, name
            assert abs(points[1]["speedup"] - 1.0) <= 0.01, name
            assert all(p["dependency_violations"] == 0
                       for p in points.values()), name
        assert sched["executor"]["bit_exact"] is True

    def test_bench_keyswitch_section(self, report_path):
        data = json.loads(report_path.read_text())
        ks = data["keyswitch"]
        assert ks["auto"]["bit_exact"] is True
        assert ks["auto"]["speedup"] >= ks["auto"]["min_required_speedup"]
        assert ks["kmu"]["bit_exact"] is True
        # reported, not gated (see repro.bench.keyswitch): both ratios
        # divide by a reference built on ModulusKernel.mul
        assert ks["kmu"]["speedup"] > 0
        assert ks["kmu"]["tier"] == "float"
        hoisted = ks["hoisted"]
        assert hoisted["bit_exact"] is True
        assert hoisted["rotations"] >= 4
        assert hoisted["loop_ntt_calls"] == 0
        # reported too: the stage ratio was NTT avoidance, so it fell
        # with the cost of an NTT (compiled butterfly)
        assert hoisted["stage_speedup"] > 0
        assert hoisted["pipeline_speedup"] > 0

    def test_bench_dataflow_section(self, report_path):
        from repro.bench.dataflow import validate_dataflow
        data = json.loads(report_path.read_text())
        section = data["dataflow"]
        assert validate_dataflow(section) == []
        assert set(section["workloads"]) == {"HELR256", "Bootstrap"}
        for name, record in section["workloads"].items():
            assert record["ntt_limb_calls_after"] \
                < record["ntt_limb_calls_before"], name
            assert record["ops_identical"] is True, name
            assert record["opt_sim_s"] <= record["base_sim_s"] + 1e-9
        assert section["executor"]["bit_exact"] is True
        assert section["executor"]["optimised"] is True
        fused = section["fused_rescale"]
        assert fused["fused_kernel_calls"] > 0
        assert fused["levels_match"] and fused["scales_match"]
        assert not any(section["plan_cache_evictions"].values())

    def test_bench_serving_section(self, report_path):
        from repro.bench.serving import validate_serving
        data = json.loads(report_path.read_text())
        section = data["serving"]
        assert validate_serving(section) == []
        loadgen = section["loadgen"]
        assert loadgen["requests"] >= 64 and loadgen["tenants"] >= 4
        assert loadgen["speedup"] >= section["min_speedup"]
        assert loadgen["bit_exact"] is True
        assert loadgen["pin_violations"] == 0
        assert loadgen["p99_ms"] >= loadgen["p50_ms"] > 0
        admission = section["evk_admission"]
        assert admission["miss_reduction"] > 0
        assert admission["aware"]["hits"] > admission["naive"]["hits"]

    def test_bench_detects_serving_regression(self, report_path,
                                              tmp_path, capsys):
        doctored = json.loads(report_path.read_text())
        doctored["serving"]["evk_admission"]["aware"]["misses"] = 0
        baseline = tmp_path / "BENCH_serving_doctored.json"
        baseline.write_text(json.dumps(doctored))
        out = tmp_path / "BENCH_now.json"
        assert main(["bench", "--quick", "--repeats", "1",
                     "--out", str(out), "--baseline", str(baseline),
                     "--wall-tolerance", "50"]) == 1
        assert "serving." in capsys.readouterr().out

    def test_bench_detects_dataflow_regression(self, report_path,
                                               tmp_path, capsys):
        doctored = json.loads(report_path.read_text())
        for record in doctored["dataflow"]["workloads"].values():
            record["ntt_limb_calls_after"] -= 1  # baseline was better
        baseline = tmp_path / "BENCH_df_doctored.json"
        baseline.write_text(json.dumps(doctored))
        out = tmp_path / "BENCH_now.json"
        assert main(["bench", "--quick", "--repeats", "1",
                     "--out", str(out), "--baseline", str(baseline),
                     "--wall-tolerance", "50"]) == 1
        assert "dataflow." in capsys.readouterr().out

    def test_bench_detects_keyswitch_regression(self, report_path,
                                                tmp_path, capsys):
        doctored = json.loads(report_path.read_text())
        # --wall-tolerance 50 keeps load-dependent workload walls quiet,
        # so the doctored baseline must be >51x faster to trip the gate
        doctored["keyswitch"]["auto"]["gather_best_s"] *= 0.01
        doctored["keyswitch"]["hoisted"]["stage_new_s"] *= 0.01
        baseline = tmp_path / "BENCH_ks_doctored.json"
        baseline.write_text(json.dumps(doctored))
        out = tmp_path / "BENCH_now.json"
        assert main(["bench", "--quick", "--repeats", "1",
                     "--out", str(out), "--baseline", str(baseline),
                     "--wall-tolerance", "50"]) == 1
        assert "keyswitch." in capsys.readouterr().out

    def test_bench_detects_sched_regression(self, report_path,
                                            tmp_path, capsys):
        doctored = json.loads(report_path.read_text())
        for record in doctored["sched"]["workloads"].values():
            for point in record["points"]:
                point["sim_s"] *= 0.5
        baseline = tmp_path / "BENCH_sched_doctored.json"
        baseline.write_text(json.dumps(doctored))
        out = tmp_path / "BENCH_now.json"
        assert main(["bench", "--quick", "--repeats", "1",
                     "--out", str(out), "--baseline", str(baseline),
                     "--wall-tolerance", "50"]) == 1
        assert "sched." in capsys.readouterr().out

    def test_bench_baseline_self_compare_passes(self, report_path,
                                                tmp_path, capsys):
        out = tmp_path / "BENCH_again.json"
        # Wide wall tolerance: this asserts the *simulated* numbers
        # are reproducible; host wall time is load-dependent noise.
        assert main(["bench", "--quick", "--repeats", "1",
                     "--out", str(out),
                     "--baseline", str(report_path),
                     "--wall-tolerance", "50"]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_bench_detects_sim_regression(self, report_path, tmp_path,
                                          capsys):
        doctored = json.loads(report_path.read_text())
        for record in doctored["workloads"].values():
            record["sim_s"] *= 0.5  # pretend the baseline was 2x faster
        baseline = tmp_path / "BENCH_doctored.json"
        baseline.write_text(json.dumps(doctored))
        out = tmp_path / "BENCH_now.json"
        assert main(["bench", "--quick", "--repeats", "1",
                     "--out", str(out),
                     "--baseline", str(baseline)]) == 1
        assert "REGRESSIONS" in capsys.readouterr().out

    def test_bench_chrome_trace_export(self, tmp_path):
        out = tmp_path / "BENCH.json"
        trace = tmp_path / "timeline.json"
        assert main(["bench", "--quick", "--repeats", "1",
                     "--out", str(out),
                     "--chrome-trace", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])
