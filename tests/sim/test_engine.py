"""The queueing cycle simulator: accounting identities and orderings."""

import pytest

from repro.ckks.keys import HYBRID, KLSS
from repro.core.optrace import TraceBuilder
from repro.hw.config import (FAST_CONFIG, FAST_36BIT_ALU, FAST_WITHOUT_TBM,
                             fast_variant)
from repro.sim.engine import Engine, UNIT_NAMES
from repro.workloads import bootstrap_trace, helr_trace, resnet20_trace


def tiny_trace():
    tb = TraceBuilder("tiny")
    ct = tb.fresh_ct()
    tb.rotations(ct, 12, [1, 2, 3], hoisted=True)
    tb.hmult(ct, 10)
    tb.pmult(ct, 10)
    tb.rescale(ct, 10)
    return tb.build()


@pytest.fixture(scope="module")
def boot_result():
    return Engine().run(bootstrap_trace())


class TestAccountingIdentities:
    def test_total_at_least_bottleneck_busy(self, boot_result):
        busiest = max(boot_result.unit_busy_s[u] for u in UNIT_NAMES)
        assert boot_result.total_s >= busiest * 0.999

    def test_utilisation_bounded(self, boot_result):
        utilisation = boot_result.utilisation()
        assert set(utilisation) == set(UNIT_NAMES)
        for unit, u in utilisation.items():
            assert 0.0 <= u <= 1.0, unit
        assert 0.0 <= boot_result.key_cache_hit_rate <= 1.0

    def test_op_counts(self, boot_result):
        trace = bootstrap_trace()
        ks = len(trace.key_switch_ops())
        assert boot_result.num_key_switches == ks

    def test_kernel_modops_positive(self, boot_result):
        assert boot_result.kernel_modops["ntt"] > 0
        assert boot_result.kernel_modops["bconv"] > 0
        assert boot_result.kernel_modops["keymult"] > 0

    def test_hbm_bytes_sum(self, boot_result):
        assert boot_result.hbm_bytes == pytest.approx(
            boot_result.key_bytes + boot_result.plaintext_bytes)

    def test_stage_labels_cover_bootstrap(self, boot_result):
        for stage in ("ModRaise", "CoeffToSlot", "EvalMod",
                      "SlotToCoeff"):
            assert stage in boot_result.stage_s


class TestDeterminism:
    def test_same_trace_same_result(self):
        t = tiny_trace()
        r1 = Engine().run(t)
        r2 = Engine().run(t)
        assert r1.total_s == r2.total_s
        assert r1.key_bytes == r2.key_bytes


class TestTable5Latencies:
    """The simulated Table-5 row, pinned: the model is deterministic,
    so any drift is a model change and must be made here on purpose
    (and shows as ``sim.engine.simulated_ms.*`` on ``sim_suite``)."""

    PINNED_MS = {
        "Bootstrap": (bootstrap_trace, 1.3250446266666622),
        "HELR256": (lambda: helr_trace(batch=256), 1.0072435066666672),
        "HELR1024": (lambda: helr_trace(batch=1024), 1.3358421733333286),
        "ResNet-20": (resnet20_trace, 50.67933057333557),
    }

    @pytest.mark.parametrize("name", PINNED_MS)
    def test_simulated_latency_is_pinned(self, name):
        build, expected_ms = self.PINNED_MS[name]
        # a fresh engine each: cold evk cache, cold Aether
        assert Engine().run(build()).total_s * 1e3 == \
            pytest.approx(expected_ms, rel=1e-9)


class TestPolicyOrdering:
    """The Fig. 10 ordering must hold on the real workload."""

    def test_hoisting_beats_oneksw(self):
        trace = bootstrap_trace()
        one = Engine(policy_mode="hybrid-only").run(trace)
        hoist = Engine(policy_mode="hoisting-only").run(trace)
        assert hoist.total_s < one.total_s

    def test_aether_beats_oneksw(self):
        trace = bootstrap_trace()
        one = Engine(policy_mode="hybrid-only").run(trace)
        aether = Engine().run(trace)
        assert aether.total_s < one.total_s

    def test_aether_uses_both_methods(self):
        result = Engine().run(bootstrap_trace())
        assert result.method_ops[HYBRID] > 0
        assert result.method_ops[KLSS] > 0

    def test_klss_only_is_memory_crushed(self):
        trace = bootstrap_trace()
        klss = Engine(policy_mode="klss-only").run(trace)
        aether = Engine().run(trace)
        assert klss.total_s > 2 * aether.total_s
        assert klss.key_bytes > aether.key_bytes


class TestConfigVariants:
    def test_no_tbm_slower(self):
        trace = bootstrap_trace()
        fast = Engine(FAST_CONFIG).run(trace)
        no_tbm = Engine(FAST_WITHOUT_TBM).run(trace)
        assert no_tbm.total_s > fast.total_s

    def test_36bit_alu_slowest(self):
        trace = bootstrap_trace()
        no_tbm = Engine(FAST_WITHOUT_TBM).run(trace)
        alu36 = Engine(FAST_36BIT_ALU, policy_mode="hybrid-only").run(trace)
        assert alu36.total_s >= no_tbm.total_s * 0.95

    def test_36bit_alu_never_uses_klss(self):
        result = Engine(FAST_36BIT_ALU).run(bootstrap_trace())
        assert result.method_ops.get(KLSS, 0) == 0

    def test_no_hoisting_config_respected(self):
        config = fast_variant("no-hoist", supports_hoisting=False)
        result = Engine(config).run(bootstrap_trace())
        # every key-switch schedule must be a single op (h == 1)
        assert result.num_key_switches == \
            len(bootstrap_trace().key_switch_ops())

    def test_more_clusters_faster(self):
        trace = bootstrap_trace()
        four = Engine(FAST_CONFIG).run(trace)
        eight = Engine(fast_variant("8C", clusters=8)).run(trace)
        two = Engine(fast_variant("2C", clusters=2)).run(trace)
        assert eight.total_s < four.total_s < two.total_s

    def test_tiny_memory_hurts(self):
        trace = bootstrap_trace()
        small = fast_variant("64MB", onchip_memory_bytes=64 * 2**20,
                             key_storage_bytes=40 * 2**20)
        big = Engine(FAST_CONFIG).run(trace)
        constrained = Engine(small).run(trace)
        assert constrained.total_s > big.total_s


class TestPaperMagnitudes:
    """Coarse absolute anchors (Table 5's FAST row)."""

    def test_bootstrap_latency_band(self, boot_result):
        assert 0.9e-3 < boot_result.total_s < 1.9e-3  # paper: 1.38 ms

    def test_nttu_is_busiest_compute_unit(self, boot_result):
        u = boot_result.utilisation()
        assert u["nttu"] > u["bconvu"]
        assert u["nttu"] > u["kmu"]
        assert u["nttu"] > 0.35  # paper: 66%

    def test_memory_bound_signature(self, boot_result):
        # Sec. 7.4: substantial HBM busy time.
        assert boot_result.utilisation()["hbm"] > 0.10


class TestConstrainConfigPurity:
    """_constrain_config must not mutate shared Aether decisions."""

    def test_input_config_unmodified(self):
        trace = bootstrap_trace()
        full = Engine(FAST_CONFIG)
        shared = full.aether.run(trace)
        snapshot = {uid: (d.method, d.hoisting)
                    for uid, d in shared.decisions.items()}
        constrained = Engine(FAST_36BIT_ALU)._constrain_config(shared)
        after = {uid: (d.method, d.hoisting)
                 for uid, d in shared.decisions.items()}
        assert after == snapshot
        assert all(d.method == HYBRID
                   for d in constrained.decisions.values())

    def test_hoisting_clamp_copies(self):
        trace = bootstrap_trace()
        engine = Engine(fast_variant("noH", supports_hoisting=False))
        shared = Engine(FAST_CONFIG).aether.run(trace)
        hoisted_before = [d.hoisting for d in shared.decisions.values()]
        constrained = engine._constrain_config(shared)
        assert [d.hoisting for d in shared.decisions.values()] \
            == hoisted_before
        assert all(d.hoisting == 1
                   for d in constrained.decisions.values())
