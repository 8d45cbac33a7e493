"""The figure functions: each one's data format, and the verdicts of
the ``figures.ROWS`` rows that read it.

Every figure function runs once per session (the ``figure_data``
fixture) and every row is evaluated once (``experiments``).  Paper
values and verdict bands live only in ``figures.ROWS``; a test of a
paper claim looks up the verdicts of the rows that state it
(``assert_rows``), so a miss is reported under the claim's own test id.
"""

import pytest

from repro.analysis import figures as F


class TestFigure2:
    def test_quantitative_line_crossover(self, figure_data, assert_rows):
        rows = figure_data[F.figure2a]
        assert [r["level"] for r in rows] == list(range(1, 36))
        assert_rows("Fig. 2a")

    def test_costs_grow_with_level(self, figure_data):
        rows = figure_data[F.figure2a]
        assert rows[-1]["hybrid_mops"] > rows[0]["hybrid_mops"]
        assert rows[-1]["klss_mops"] > rows[0]["klss_mops"]

    def test_kernel_breakdown_ntt_drives_klss_advantage(self, figure_data,
                                                         assert_rows):
        assert set(figure_data[F.figure2b][0]) == {
            "level", "ntt", "bconv", "keymult", "elementwise"}
        assert_rows("Fig. 2b")


class TestFigure3:
    def test_hoisting_monotone_where_hoisting_lives(self, figure_data,
                                                     assert_rows):
        assert set(figure_data[F.figure3a][0]) == {"level", "h2", "h4", "h6"}
        assert_rows("Fig. 3a")

    def test_working_set_anchors(self, figure_data, assert_rows):
        assert figure_data[F.figure3b][-1]["level"] == 35
        assert_rows("Fig. 3b")

    def test_klss_evk_largest(self, figure_data):
        for r in figure_data[F.figure3b]:
            if r["level"] >= 10:
                assert r["klss_evk_mb"] > r["hybrid_evk_mb"] > \
                    r["ciphertext_mb"]


class TestFigure4:
    def test_anchor_ratios(self, figure_data, assert_rows):
        data = figure_data[F.figure4]
        assert data["multiplier"][36] == {"area": 1.0, "power": 1.0}
        assert_rows("Fig. 4")

    def test_monotone_scaling(self, figure_data):
        data = figure_data[F.figure4]
        widths = sorted(data["multiplier"])
        areas = [data["multiplier"][w]["area"] for w in widths]
        assert areas == sorted(areas)


class TestTables2to4:
    def test_table2_sets(self, figure_data, assert_rows):
        rows = figure_data[F.table2]
        assert [r["ksw"] for r in rows] == ["Hybrid", "Hybrid+KLSS"]
        assert_rows("Table 2: Set-I ", "Table 2: Set-II ")

    def test_table3_total(self, figure_data, assert_rows):
        rows = figure_data[F.table3]
        assert rows["Total"]["area_mm2"] == pytest.approx(
            sum(r["area_mm2"] for name, r in rows.items() if name != "Total"))
        assert_rows("Table 3")

    def test_table4_contains_fast_and_priors(self, figure_data):
        names = {r["name"] for r in figure_data[F.table4]}
        assert "FAST (ours)" in names
        assert "SHARP" in names and "BTS" in names


class TestTable5:
    def test_fast_beats_every_published_baseline(self, assert_rows):
        assert_rows("Table 5: beats every")

    def test_within_2x_of_paper_fast(self, figure_data, assert_rows):
        assert set(figure_data[F.table5]["ours_ms"]) == {
            "Bootstrap", "HELR256", "HELR1024", "ResNet-20"}
        assert_rows("Table 5: Bootstrap", "Table 5: HELR", "Table 5: ResNet")

    def test_average_speedup_vs_sharp_band(self, assert_rows):
        assert_rows("Table 5: average", "Table 5: bootstrap speedup")

    def test_workload_ordering(self, figure_data):
        ours = figure_data[F.table5]["ours_ms"]
        assert ours["HELR256"] < ours["HELR1024"]
        assert ours["ResNet-20"] > 10 * ours["Bootstrap"]


class TestTable6:
    def test_fast_t_as_fastest(self, figure_data, assert_rows):
        sources = [r["source"] for r in figure_data[F.table6]["rows"]]
        assert sources.count("measured") == 1
        assert_rows("Table 6")


class TestTable7:
    def test_rows_and_bands(self, figure_data, assert_rows):
        data = figure_data[F.table7]
        assert set(data) == {"Bootstrap", "HELR256", "HELR1024",
                             "ResNet-20"}
        for row in data.values():
            assert 60 < row["avg_power_w"] < 250
            assert row["energy_j"] > 0
            assert row["edp_js"] == pytest.approx(
                row["energy_j"] * row["latency_ms"] / 1e3)
        assert_rows("Table 7")


class TestFigure10:
    def test_policy_ordering(self, assert_rows):
        assert_rows("Fig. 10: ordering")

    def test_aether_speedup_band(self, assert_rows):
        assert_rows("Fig. 10: hoisting", "Fig. 10: Aether total")

    def test_aether_mixes_methods(self, figure_data, assert_rows):
        aether = figure_data[F.figure10]["Aether"]
        klss = sum(m.get("klss", 0) for m in aether["stage_methods"].values())
        assert klss == aether["method_ops"]["klss"] > 0
        assert_rows("Fig. 10: Aether replaces")


class TestFigure11:
    def test_utilisation_shape(self, figure_data, assert_rows):
        data = figure_data[F.figure11a]
        assert set(data["per_workload"]) == set(figure_data[F.table7])
        assert all(0 < u < 1 for u in data["average"].values())
        assert_rows("Fig. 11a")

    def test_modops_reduction(self, assert_rows):
        assert_rows("Fig. 11b")


class TestFigure12:
    def test_ablation_ordering(self, assert_rows):
        assert_rows("Fig. 12: ordering")

    def test_speedup_bands(self, figure_data, assert_rows):
        assert figure_data[F.figure12]["36bit-ALU"]["speedup_vs_36bit"] == 1
        assert_rows("Fig. 12: noTBM", "Fig. 12: FAST vs")


class TestFigure13:
    def test_memory_sensitivity(self, figure_data, assert_rows):
        sizes = [r["memory_mb"] for r in figure_data[F.figure13a]]
        assert sizes == sorted(sizes) and 281 in sizes
        assert_rows("Fig. 13a")

    def test_cluster_scaling(self, figure_data, assert_rows):
        rows = figure_data[F.figure13b]
        assert [r["clusters"] for r in rows] == [2, 4, 8]
        assert rows[0]["latency_ms"] > rows[1]["latency_ms"] > \
            rows[2]["latency_ms"]
        assert_rows("Fig. 13b")

    def test_cluster_sweep_without_reference_is_refused(self, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before checking its arguments")

        monkeypatch.setattr(F, "bootstrap_trace", no_simulation)
        with pytest.raises(ValueError, match="4-cluster"):
            F.figure13b(cluster_counts=(2, 8))


class TestFormatting:
    def test_format_rows(self):
        text = F.format_rows([{"a": 1.5, "b": "x"}])
        assert "a" in text and "1.500" in text

    def test_format_empty(self):
        assert F.format_rows([]) == "(no rows)"
