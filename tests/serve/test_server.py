"""The asyncio front-end: batching, bit-exactness, tenancy, TCP."""

import asyncio
import json
import threading

import pytest

from repro.serve.batcher import evk_working_set
from repro.serve.jobs import default_shape, get_shape, request_seed
from repro.serve.server import FheServer, ServerConfig


def small_config(**overrides):
    base = dict(ring_degree=64, num_limbs=2, window_s=0.01,
                max_batch=8)
    base.update(overrides)
    return ServerConfig(**base)


def run(coro):
    return asyncio.run(coro)


async def with_server(config, body):
    server = FheServer(config)
    try:
        return await body(server)
    finally:
        await server.close()


class TestSubmit:
    def test_concurrent_submits_share_a_batch(self):
        async def body(server):
            return await asyncio.gather(*[
                server.submit(f"tenant-{i % 2}", request_id=i)
                for i in range(4)])

        responses = run(with_server(small_config(), body))
        assert all(r.ok for r in responses)
        assert all(r.batch_size == 4 for r in responses)

    def test_digests_match_serial_oracle(self):
        config = small_config()

        async def body(server):
            responses = await asyncio.gather(*[
                server.submit("t", request_id=i) for i in range(3)])
            oracle = {}
            for response in responses:
                state = server.executor.run_serial(
                    get_shape(response.shape),
                    request_seed(config.seed, response.request_id))
                oracle[response.request_id] = \
                    server.executor.digest_serial(state)
            return responses, oracle

        responses, oracle = run(with_server(config, body))
        for response in responses:
            assert response.digest == oracle[response.request_id]

    def test_max_batch_flushes_early(self):
        config = small_config(max_batch=2, window_s=30.0)

        async def body(server):
            # A 30 s window would time the test out unless reaching
            # max_batch flushes the group immediately.
            return await asyncio.wait_for(
                asyncio.gather(server.submit("a", request_id=0),
                               server.submit("b", request_id=1)),
                timeout=10.0)

        responses = run(with_server(config, body))
        assert [r.batch_size for r in responses] == [2, 2]

    def test_duplicate_inflight_id_is_rejected(self):
        config = small_config(window_s=5.0)

        async def body(server):
            first = asyncio.ensure_future(
                server.submit("t", request_id=7))
            await asyncio.sleep(0)      # let the first enqueue
            duplicate = await server.submit("t", request_id=7)
            server.flush_all()
            return await first, duplicate

        first, duplicate = run(with_server(config, body))
        assert first.ok
        assert not duplicate.ok and "already in flight" in duplicate.error

    def test_unknown_kind_and_shape_raise(self):
        async def body(server):
            with pytest.raises(ValueError):
                await server.submit("t", kind="transmogrify")
            with pytest.raises(ValueError):
                await server.submit("t", shape="no-such-shape")
            return True

        assert run(with_server(small_config(), body))

    def test_quota_exceeded_surfaces_as_response_error(self):
        config = small_config(tenant_quotas={"capped": 1.0})

        async def body(server):
            return await server.submit("capped", request_id=0)

        response = run(with_server(config, body))
        assert not response.ok
        assert "quota" in response.error

    def test_stats_after_serving(self):
        async def body(server):
            await asyncio.gather(*[
                server.submit("t", request_id=i) for i in range(3)])
            return server.stats()

        stats = run(with_server(small_config(), body))
        assert stats["responses"] == 3
        assert stats["batches"] == 1
        assert stats["mean_batch"] == 3.0
        assert stats["tenancy"]["tenants"]["t"]["requests"] == 3
        assert stats["tenancy"]["pin_violations"] == 0


async def until(ready, timeout_s: float = 10.0) -> None:
    """Yield to the loop until ``ready()`` (set by the compute thread)."""
    for _ in range(int(timeout_s / 0.001)):
        if ready():
            return
        await asyncio.sleep(0.001)
    raise TimeoutError("the compute thread never got there")


class TestWorkConserving:
    """One batch in flight; the next is cut the moment compute frees."""

    def test_backlog_grows_the_next_batch(self):
        config = small_config(max_batch=4)
        held_first = [("eval", 1), ("encode", 11), ("eval", 2),
                      ("eval", 3), ("encode", 12), ("eval", 4),
                      ("eval", 5), ("eval", 6)]
        held_second = [("eval", 7), ("encode", 13)]

        async def body(server):
            # One permit per batch: each batch holds the compute
            # thread until the test lets it go.
            permits, batches = threading.Semaphore(0), []
            execute = server._execute

            def held(trace, seeds):
                batches.append((trace.name, list(seeds)))
                assert permits.acquire(timeout=10.0)
                return execute(trace, seeds)

            server._execute = held

            def submit(arrivals):
                return [asyncio.ensure_future(server.submit(
                    f"t{rid % 3}", kind=kind, request_id=rid))
                    for kind, rid in arrivals]

            pending = [asyncio.ensure_future(server.submit("t",
                                                           request_id=0))]
            await until(lambda: batches)
            pending += submit(held_first)
            await asyncio.sleep(0)
            # Everything waits in its group while the batch is held.
            assert len(batches) == 1
            assert server.queue.depth() == len(held_first)
            permits.release()
            await until(lambda: len(batches) == 2)
            pending += submit(held_second)
            # Longer than the window: nothing is cut while one batch
            # holds compute, however the slot was freed last time.
            await asyncio.sleep(3 * config.window_s)
            assert len(batches) == 2
            assert server.queue.depth() == 4 + len(held_second)
            permits.release(len(pending))
            responses = await asyncio.gather(*pending)
            oracle = {r.request_id: server.executor.digest_serial(
                server.executor.run_serial(
                    get_shape(r.shape),
                    request_seed(config.seed, r.request_id)))
                for r in responses}
            return batches, responses, oracle

        batches, responses, oracle = run(with_server(config, body))
        rid_of = {request_seed(config.seed, rid): rid
                  for rid in range(14)}
        cut = [(name, [rid_of[seed] for seed in seeds])
               for name, seeds in batches]
        eval_shape, encode_shape = (get_shape(default_shape(kind)).name
                                    for kind in ("eval", "encode"))
        # Oldest group first, each cut up to max_batch: the backlog
        # fills the next batch, and the eval remainder keeps its
        # group's place ahead of the encode group.  So no request waits
        # behind more than one batch of its own group.
        assert cut == [(eval_shape, [0]),
                       (eval_shape, [1, 2, 3, 4]),
                       (eval_shape, [5, 6, 7]),
                       (encode_shape, [11, 12, 13])]
        by_id = {r.request_id: r for r in responses}
        assert [by_id[rid].batch_size for rid in (0, 1, 5, 11)] == \
            [1, 4, 3, 3]
        for response in responses:
            assert response.ok
            assert response.digest == oracle[response.request_id]

    def test_failed_and_refused_batches_free_the_slot(self):
        config = small_config(tenant_quotas={"capped": 1.0})

        async def body(server):
            execute, calls = server._execute, []

            def fails_once(trace, seeds):
                calls.append(seeds)
                if len(calls) == 1:
                    raise RuntimeError("injected fault")
                return execute(trace, seeds)

            server._execute = fails_once
            # A slot left taken would hang the next submit: bound each.
            return [await asyncio.wait_for(
                server.submit(tenant, request_id=rid), timeout=10.0)
                for rid, tenant in enumerate(("a", "capped", "b"))]

        async def scenario():
            server = FheServer(config)
            try:
                responses = await body(server)
            finally:
                await server.close()
            return server, responses

        server, (failed, refused, served) = run(scenario())
        assert "execution failed: injected fault" in failed.error
        assert "quota" in refused.error
        assert served.ok and served.batch_size == 1
        cache = server.tenants.cache
        working = evk_working_set(get_shape(served.shape),
                                  config.evk_method)
        assert working and not any(cache.pinned(key) for key in working)
        assert server.tenants.pin_violations == 0


class TestTcpEndpoint:
    def test_roundtrip_batches_one_connection(self):
        async def body(server):
            host, port = await server.start_tcp()
            reader, writer = await asyncio.open_connection(host, port)
            for rid in range(3):
                writer.write((json.dumps(
                    {"tenant": f"t{rid % 2}", "kind": "eval",
                     "request_id": rid}) + "\n").encode())
            await writer.drain()
            payloads = [json.loads(await reader.readline())
                        for _ in range(3)]
            writer.close()
            await writer.wait_closed()
            return payloads

        payloads = run(with_server(small_config(), body))
        assert {p["request_id"] for p in payloads} == {0, 1, 2}
        assert all(p["error"] is None for p in payloads)
        assert all(p["batch_size"] == 3 for p in payloads)
        assert all(p["digest"] for p in payloads)

    def test_malformed_line_answers_error(self):
        async def body(server):
            host, port = await server.start_tcp()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"this is not json\n")
            await writer.drain()
            payload = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            return payload

        payload = run(with_server(small_config(), body))
        assert "bad request" in payload["error"]


class TestLifecycle:
    def test_close_drains_pending_batches(self):
        config = small_config(window_s=60.0)

        async def body(server):
            # The window never expires on its own: close() must flush.
            futures = [asyncio.ensure_future(
                server.submit("t", request_id=i)) for i in range(2)]
            await asyncio.sleep(0)
            await server.close()
            return await asyncio.gather(*futures)

        async def scenario():
            server = FheServer(config)
            return await body(server)

        responses = run(scenario())
        assert all(r.ok for r in responses)

    def test_submit_after_close_raises(self):
        async def scenario():
            server = FheServer(small_config())
            await server.close()
            with pytest.raises(RuntimeError):
                await server.submit("t")
            return True

        assert run(scenario())
