"""Aether: MCT construction, STEP-1/2/3 selection, config file."""

import pytest

from repro.ckks.keys import HYBRID, KLSS
from repro.ckks.params import SET_I, SET_II
from repro.core import optrace
from repro.core.aether import Aether, AetherConfig
from repro.core.optrace import TraceBuilder


def make_aether(key_storage=180e6, bandwidth=1e12, throughput=1.2e13,
                **kw):
    return Aether(SET_I, SET_II, key_storage_bytes=key_storage,
                  hbm_bandwidth=bandwidth, modops_per_second=throughput,
                  **kw)


def simple_trace():
    tb = TraceBuilder("t")
    ct = tb.fresh_ct()
    tb.rotations(ct, 30, [1, 2, 4, 8], hoisted=True)
    tb.hmult(ct, 28)
    tb.pmult(ct, 28)          # not a decision unit
    ct2 = tb.fresh_ct()
    tb.hrot(ct2, 10, 5)
    return tb.build()


class TestDecisionUnits:
    def test_hoist_group_fuses(self):
        units = make_aether().decision_units(simple_trace())
        assert len(units) == 3
        assert units[0].times == 4
        assert units[1].first.kind == optrace.HMULT
        assert units[2].first.rotation == 5

    def test_plain_ops_excluded(self):
        units = make_aether().decision_units(simple_trace())
        kinds = {u.first.kind for u in units}
        assert optrace.PMULT not in kinds

    def test_indices_track_trace_positions(self):
        trace = simple_trace()
        units = make_aether().decision_units(trace)
        for unit in units:
            for idx, op in zip(unit.indices, unit.ops):
                assert trace[idx] is op


class TestMct:
    def test_candidates_cover_methods(self):
        aether = make_aether()
        units = aether.decision_units(simple_trace())
        cands = aether.candidates(units[0])
        methods = {e.method for e in cands}
        assert methods == {HYBRID, KLSS}

    def test_hoisting_options_for_groups(self):
        aether = make_aether()
        units = aether.decision_units(simple_trace())
        hs = {e.hoisting for e in aether.candidates(units[0])}
        assert hs == {1, 2, 4}

    def test_hmult_never_hoisted(self):
        aether = make_aether()
        units = aether.decision_units(simple_trace())
        hs = {e.hoisting for e in aether.candidates(units[1])}
        assert hs == {1}

    def test_entry_fields_consistent(self):
        aether = make_aether()
        units = aether.decision_units(simple_trace())
        for e in aether.candidates(units[0]):
            assert e.cost_modops > 0
            assert e.delay_s == pytest.approx(
                e.cost_modops / aether.modops_per_second)
            assert e.transfer_s == pytest.approx(
                e.key_bytes / aether.hbm_bandwidth)

    def test_ekg_halves_key_bytes(self):
        with_ekg = make_aether(use_ekg=True)
        without = make_aether(use_ekg=False)
        units = with_ekg.decision_units(simple_trace())
        k1 = with_ekg.candidates(units[0])[0].key_bytes
        k2 = without.candidates(units[0])[0].key_bytes
        assert k1 == pytest.approx(k2 / 2)


class TestSelection:
    def test_step1_storage_filter(self):
        # Tiny key storage: every multi-key hoisting candidate dies
        # and KLSS (big keys) dies; hybrid h=1 survives.
        aether = make_aether(key_storage=8e6)
        config = aether.run(simple_trace())
        for d in config.decisions.values():
            assert d.key_bytes <= 8e6 or d.hoisting == 1

    def test_step2_transfer_filter(self):
        # Absurdly slow HBM: nothing hides, fallback keeps cheapest.
        aether = make_aether(bandwidth=1e6)
        config = aether.run(simple_trace())
        assert len(config.decisions) == 3

    def test_step3_prefers_fast_then_small(self):
        aether = make_aether()
        config = aether.run(simple_trace())
        unit0 = config.decisions[0]
        # hoisting reduces ops; with ample storage it must be chosen
        assert unit0.hoisting > 1

    def test_deterministic(self):
        t = simple_trace()
        c1 = make_aether().run(t)
        c2 = make_aether().run(t)
        assert c1.to_json() == c2.to_json()


class TestConfigFile:
    def test_json_roundtrip(self):
        config = make_aether().run(simple_trace())
        back = AetherConfig.from_json(config.to_json())
        assert back.decisions.keys() == config.decisions.keys()
        for uid in config.decisions:
            assert back.decisions[uid].method == \
                config.decisions[uid].method

    def test_size_is_small(self):
        # The paper quotes ~1 KB for an application's config file.
        config = make_aether().run(simple_trace())
        assert config.size_bytes() < 4096

    def test_method_histogram_counts_ops(self):
        config = make_aether().run(simple_trace())
        hist = config.method_histogram()
        assert sum(hist.values()) == 6  # 4 + 1 + 1 key-switches

    def test_selector_defaults_to_hybrid(self):
        config = AetherConfig()
        assert config.selector()("HMult", 12, 0) == HYBRID

    def test_selector_follows_majority(self):
        config = make_aether().run(simple_trace())
        select = config.selector()
        mapping = config.level_method_map()
        for (kind, level), method in mapping.items():
            op = "HMult" if kind == optrace.HMULT else "HRot"
            assert select(op, level, 0) == method


class TestBootstrapDecisions:
    """Sanity on the real workload: the paper's placement pattern."""

    def test_klss_appears_at_mid_levels_only(self):
        from repro.workloads import bootstrap_trace
        from repro.sim.engine import Engine
        engine = Engine()
        config = engine.aether.run(bootstrap_trace())
        klss_levels = [d.level for d in config.decisions.values()
                       if d.method == KLSS]
        hybrid_units = [d for d in config.decisions.values()
                        if d.method == HYBRID]
        assert klss_levels, "expected some KLSS adoption"
        assert hybrid_units, "expected hybrid to remain in the mix"

    def test_hoisting_used_for_baby_steps(self):
        from repro.workloads import bootstrap_trace
        from repro.sim.engine import Engine
        engine = Engine()
        config = engine.aether.run(bootstrap_trace())
        assert any(d.hoisting > 1 for d in config.decisions.values())


class TestPrefetchWindow:
    """STEP-2's window depth governs KLSS adoption: a shallow window
    cannot hide KLSS key transfers.  A test, not an EXPERIMENTS.md row,
    because it changes module state."""

    def test_deeper_windows_admit_more_klss(self, monkeypatch):
        from repro.core import aether
        from repro.sim.engine import Engine
        from repro.workloads import bootstrap_trace
        trace = bootstrap_trace()
        klss, latency = [], []
        for depth in (1, 3, aether.PREFETCH_DEPTH, 12):
            monkeypatch.setattr(aether, "PREFETCH_DEPTH", depth)
            result = Engine().run(trace)
            klss.append(result.method_ops.get(KLSS, 0))
            latency.append(result.total_s)
        assert klss == sorted(klss) and klss[0] < klss[-1]
        assert latency == sorted(latency, reverse=True)
