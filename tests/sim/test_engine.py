"""The queueing cycle simulator: accounting identities and orderings."""

import pytest

from repro.ckks.keys import HYBRID, KLSS
from repro.core.aether import AetherConfig, Decision
from repro.core.optrace import HROT, TraceBuilder
from repro.hw.config import (FAST_CONFIG, FAST_36BIT_ALU, FAST_WITHOUT_TBM,
                             fast_variant)
from repro.sched import ScheduledEngine
from repro.sim.engine import Engine, UNIT_NAMES
from repro.sim.kernels import Policy, lower_trace
from repro.workloads import bootstrap_trace, helr_trace, resnet20_trace

# Half the data region a level-max working set needs: key switches spill.
SPILL_64MB = fast_variant("64MB", onchip_memory_bytes=64 * 2**20,
                          key_storage_bytes=40 * 2**20)


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


class TestPinnedVariants:
    """Beyond Table 5: the baseline policies and the ablation / spill /
    cluster-count design points, pinned on the fields the HBM model
    drives: (total_s, key_bytes, key_stall_s, unit_busy_s["hbm"])."""

    PINNED = {
        ("hybrid-only", "Bootstrap", FAST_CONFIG): (
            0.0014754940000000002, 82575360.0, 0.0,
            0.00014163967999999996),
        ("hybrid-only", "HELR256", FAST_CONFIG): (
            0.001099028506666662, 68812800.0, 1.1341839999999993e-05,
            0.00010522623999999996),
        ("hoisting-only", "Bootstrap", FAST_CONFIG): (
            0.0013388929599999972, 82575360.0, 1.652464000000001e-05,
            0.00014163967999999996),
        ("hoisting-only", "HELR256", FAST_CONFIG): (
            0.001002548506666667, 68812800.0, 1.1341839999999993e-05,
            0.00010522623999999997),
        ("klss-only", "Bootstrap", FAST_CONFIG): (
            0.0053827203680000294, 5319426048.0, 0.005070515152000067,
            0.005378490368000029),
        ("klss-only", "HELR256", FAST_CONFIG): (
            0.0036283462240000114, 3587702784.0, 0.003372156160000002,
            0.003624116224000011),
        ("aether", "Bootstrap", FAST_36BIT_ALU): (
            0.0024998146666666624, 82575360.0, 0.0,
            0.00014163967999999996),
        ("aether", "Bootstrap", FAST_WITHOUT_TBM): (
            0.002471737333333325, 1270087680.0, 0.0,
            0.001329152000000012),
        ("aether", "Bootstrap", SPILL_64MB): (
            0.0019850909973333454, 607125504.0, 0.0,
            0.001953841152000018),
        ("aether", "Bootstrap", fast_variant("2C", clusters=2)): (
            0.002471737333333325, 1270087680.0, 0.0,
            0.001329152000000012),
        ("aether", "Bootstrap", fast_variant("8C", clusters=8)): (
            0.0007681721266666648, 372441088.0, 5.657464000000001e-05,
            0.0004315054079999999),
    }
    TRACES = {"Bootstrap": bootstrap_trace,
              "HELR256": lambda: helr_trace(batch=256)}

    @pytest.mark.parametrize("policy,trace,config", PINNED,
                             ids=[f"{p}-{t}-{c.name}"
                                  for p, t, c in PINNED])
    def test_pinned(self, policy, trace, config):
        result = Engine(config, policy_mode=policy).run(
            self.TRACES[trace]())
        got = (result.total_s, result.key_bytes, result.key_stall_s,
               result.unit_busy_s["hbm"])
        assert got == pytest.approx(self.PINNED[policy, trace, config],
                                    rel=1e-9)


def partial_hoist_trace():
    """Five hoisted rotations: at h=2 they lower to batches 2 / 2 / 1."""
    tb = TraceBuilder("partial-hoist")
    ct = tb.fresh_ct()
    tb.rotations(ct, 12, [1, 2, 3, 4, 5], hoisted=True)
    return tb.build()


class TestKeySwitchCount:
    """One key switch per rotation, however the group is batched."""

    @pytest.fixture()
    def forced_h2(self, monkeypatch):
        """Every engine follows an Aether decision of hybrid, h = 2."""
        config = AetherConfig({0: Decision(
            unit_id=0, ct_id=0, kind=HROT, level=12, method=HYBRID,
            hoisting=2, times=5, delay_s=0.0, key_bytes=0.0,
            transfer_s=0.0)})
        monkeypatch.setattr(Engine, "make_policy",
                            lambda self, trace: Policy("aether", config))
        return partial_hoist_trace()

    def test_partial_batch_lowers_short(self, forced_h2):
        engine = Engine()
        schedules = lower_trace(forced_h2, engine.aether,
                                engine.make_policy(forced_h2))
        assert [len(s.indices) for s in schedules] == [2, 2, 1]
        assert {s.hoisting for s in schedules} == {2}

    def test_engine_counts_each_rotation(self, forced_h2):
        result = Engine().run(forced_h2)
        assert result.num_key_switches == 5
        assert dict(result.method_ops) == {HYBRID: 5}

    @pytest.mark.parametrize("clusters", [1, 4])
    def test_scheduled_counts_each_rotation(self, forced_h2, clusters):
        result = ScheduledEngine(
            FAST_CONFIG.with_(clusters=clusters)).run(forced_h2)
        assert result.num_key_switches == 5
        assert dict(result.method_ops) == {HYBRID: 5}

    def test_streams_count_each_rotation(self, forced_h2):
        result = ScheduledEngine().run_streams(forced_h2, 2)
        assert result.num_key_switches == 10
        assert dict(result.method_ops) == {HYBRID: 10}


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
        big = Engine(FAST_CONFIG).run(trace)
        constrained = Engine(SPILL_64MB).run(trace)
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
