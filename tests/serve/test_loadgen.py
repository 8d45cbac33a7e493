"""Loadgen reporting and per-request seed reproducibility."""

import asyncio

import pytest

from repro.sched.executor import _MIX, FunctionalExecutor, derive_seed
from repro.serve.jobs import request_seed
from repro.serve.loadgen import format_report, percentile, run_loadgen
from repro.serve.server import FheServer, ServerConfig

_MASK = 0xFFFFFFFFFFFFFFFF


def small_config(**overrides):
    base = dict(ring_degree=64, num_limbs=2, window_s=0.005,
                max_batch=8)
    base.update(overrides)
    return ServerConfig(**base)


class TestRequestSeeds:
    """Satellite regression: serve-path seeding is the executor's
    stream-mix scheme keyed by request id."""

    def test_request_and_stream_seed_are_one_function(self):
        assert request_seed is derive_seed

    def test_matches_executor_stream_mix(self):
        executor = FunctionalExecutor(ring_degree=16, num_limbs=1,
                                      seed=0xC0FFEE)
        for rid in (0, 1, 7, 1024, 2**40):
            assert request_seed(0xC0FFEE, rid) \
                == executor.stream_seed(rid)

    def test_scheme_literal(self):
        base = 20250806
        for rid in range(64):
            assert request_seed(base, rid) \
                == (base ^ (rid * _MIX)) & _MASK

    def test_request_zero_keeps_base_seed(self):
        assert request_seed(12345, 0) == 12345

    def test_no_collisions_across_many_requests(self):
        base = 20250806
        seeds = {request_seed(base, rid) for rid in range(4096)}
        assert len(seeds) == 4096

    def test_concurrent_encrypts_are_reproducible(self):
        """Same request id -> same digest, on two separate servers
        with different batch-mates."""
        config = small_config()

        async def serve(ids):
            server = FheServer(config)
            try:
                responses = await asyncio.gather(*[
                    server.submit("t", kind="encrypt", request_id=rid)
                    for rid in ids])
            finally:
                await server.close()
            return {r.request_id: r.digest for r in responses}

        first = asyncio.run(serve([0, 1, 2]))
        second = asyncio.run(serve([2, 9, 11]))
        assert first[2] == second[2]
        assert len(set(first.values())) == 3   # non-colliding


class TestPercentile:
    def test_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 50.0) == 20.0
        assert percentile(values, 99.0) == 40.0
        assert percentile([], 50.0) == 0.0


class TestClosedLoop:
    @pytest.fixture(scope="class")
    def report(self):
        return run_loadgen(config=small_config(), tenants=4,
                           requests_per_tenant=4, concurrency=2)

    def test_serves_every_request(self, report):
        assert report.requests == 16
        assert report.errors == 0
        assert report.mode == "closed"

    def test_bit_exact_against_serial_oracle(self, report):
        assert report.bit_exact is True
        assert report.serial_s > 0
        assert report.speedup > 0

    def test_latency_and_batching_reported(self, report):
        assert report.p99_ms >= report.p50_ms > 0
        assert report.mean_batch > 1.0     # batching actually happened
        assert 0.0 < report.batch_occupancy <= 1.0
        assert report.max_queue_depth >= 1
        assert report.pin_violations == 0

    def test_per_tenant_hit_rates(self, report):
        assert set(report.per_tenant) \
            == {f"tenant-{i}" for i in range(4)}
        assert all(0.0 <= rate <= 1.0
                   for rate in report.per_tenant.values())

    def test_format_report_lines(self, report):
        lines = format_report(report)
        text = "\n".join(lines)
        assert "closed-loop" in text
        assert "p99" in text and "speedup" in text

    def test_to_dict_round_trips(self, report):
        record = report.to_dict()
        assert record["requests"] == 16
        assert record["bit_exact"] is True
        assert "server_stats" not in record


class TestOpenLoop:
    def test_open_loop_mode(self):
        report = run_loadgen(config=small_config(), tenants=2,
                             requests_per_tenant=3, mode="open",
                             rate_rps=500.0, compare_serial=False)
        assert report.mode == "open"
        assert report.requests == 6
        assert report.errors == 0
        assert report.speedup is None

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            run_loadgen(config=small_config(), mode="sideways")

    def test_rejects_degenerate_counts(self):
        with pytest.raises(ValueError):
            run_loadgen(config=small_config(), tenants=0)
