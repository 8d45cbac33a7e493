"""The asyncio serving front-end: work-conserving admission -> stacked batch.

:class:`FheServer` accepts encode/encrypt/eval/decrypt jobs from
named tenants through two doors — the in-process async API
(:meth:`FheServer.submit`) and a JSON-lines-over-TCP endpoint
(:meth:`FheServer.start_tcp`) — and answers each with a response
digest of the request's final ciphertext state.

The serving loop:

1. ``submit`` assigns the request its id-derived data seed
   (``request_seed``) and drops it into the :class:`BatchQueue`,
   which groups requests by ``(kind, shape)``.
2. At most one batch is in flight, on a single dedicated compute
   thread, so the event loop keeps admitting while it runs.
   Arrivals wait in their group; the moment the batch returns, the
   compute slot is freed and the oldest pending group is cut at
   once, up to ``max_batch`` (a remainder stays oldest).  Only a
   request that finds the server idle waits out the admission
   window (``window_s``), so near-simultaneous arrivals share a
   batch; a group that reaches ``max_batch`` is cut early.
3. A cut batch acquires every member tenant's evk working set
   through the :class:`TenantKeyManager` (quota check, pinning —
   in-flight keys are never evicted), then executes the whole group
   as ONE stacked run on the :class:`ServeExecutor` — in-process
   vectorised (``backend="stacked"``) or fanned across the resident
   :class:`FunctionalExecutor` fork pool (``backend="pool"``).  Its
   leases are released and its digests computed after the slot is
   freed, while the next batch computes.

Batching is invisible in the bits: a response digest depends only on
``(shape, request_id)``, never on batch-mates, so every response can
be checked against a serial per-request oracle (the loadgen does).
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro import obs
from repro.ckks.keys import HYBRID
from repro.ckks.params import SET_I, SET_II
from repro.core.hemera import EvkPool
from repro.hw.config import FAST_CONFIG
from repro.hw.memory import PartitionedKeyCache
from repro.sched.executor import FunctionalExecutor
from repro.serve.batcher import BatchKey, BatchQueue, evk_working_set
from repro.serve.engine import ServeExecutor
from repro.serve.jobs import (EVAL, JOB_KINDS, ServeRequest,
                              ServeResponse, default_shape, get_shape,
                              request_seed)
from repro.serve.tenants import TenantKeyManager, TenantQuotaError

STACKED = "stacked"
POOL = "pool"
BACKENDS = (STACKED, POOL)


@dataclass
class ServerConfig:
    """Everything one server instance is allowed to decide."""

    window_s: float = 0.002        # admission window when idle
    max_batch: int = 16            # cut early at this group size
    backend: str = STACKED         # "stacked" | "pool"
    workers: int = 4               # fork-pool width (pool backend)
    ring_degree: int = 256
    num_limbs: int = 3
    prime_bits: int = 36
    seed: int = 20250806           # base seed; requests mix their id in
    evk_method: str = HYBRID
    key_storage_bytes: float = FAST_CONFIG.key_storage_bytes
    tenant_quota_bytes: float | None = None   # default: full capacity
    tenant_quotas: dict = field(default_factory=dict)  # per-tenant override


class FheServer:
    """Async multi-tenant front-end over the stacked batch executor."""

    def __init__(self, config: ServerConfig | None = None):
        self.config = config = config or ServerConfig()
        if config.backend not in BACKENDS:
            raise ValueError(f"unknown backend {config.backend!r}; "
                             f"expected one of {BACKENDS}")
        self.executor = ServeExecutor(config.ring_degree,
                                      config.num_limbs,
                                      config.prime_bits, config.seed)
        # Resident fork pool (satellite of the serving layer: the
        # executor's persistent mode exists so this server does not
        # pay pool spin-up per batch).
        self.compute_pool = FunctionalExecutor(
            config.ring_degree, config.num_limbs, config.prime_bits,
            config.seed, persistent=True)
        cache = PartitionedKeyCache(config.key_storage_bytes,
                                    config.tenant_quota_bytes)
        self.tenants = TenantKeyManager(EvkPool(SET_I, SET_II), cache)
        for tenant, quota in config.tenant_quotas.items():
            self.tenants.register(tenant, quota)
        self.queue = BatchQueue(config.max_batch)
        self._window: asyncio.TimerHandle | None = None
        self._busy = False          # a batch holds the compute thread
        self._waiters: dict[int, asyncio.Future] = {}
        self._inflight: set[asyncio.Task] = set()
        self._next_request_id = 0
        self._compute = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-compute")
        # Running tallies for stats().
        self.responses = 0
        self.batch_sizes: list[int] = []
        self.max_queue_depth = 0
        self._tcp_server: asyncio.AbstractServer | None = None
        self._closed = False

    # -- submission ------------------------------------------------------
    async def submit(self, tenant: str, kind: str = EVAL,
                     shape: str | None = None,
                     request_id: int | None = None) -> ServeResponse:
        """Submit one job and await its response.

        ``request_id`` may be client-supplied (it determines the
        request's data seed, so a replay with the same id is
        bit-identical); otherwise the server assigns the next free
        monotonic id.
        """
        loop = asyncio.get_running_loop()
        if self._closed:
            raise RuntimeError("server is closed")
        if kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {kind!r}; "
                             f"expected one of {JOB_KINDS}")
        shape = shape or default_shape(kind)
        get_shape(shape)  # validates the name before queueing
        if request_id is None:
            request_id = self._next_request_id
            self._next_request_id += 1
        else:
            request_id = int(request_id)
            self._next_request_id = max(self._next_request_id,
                                        request_id + 1)
        if request_id in self._waiters:
            return ServeResponse(
                request_id=request_id, tenant=tenant, kind=kind,
                shape=shape,
                error=f"request id {request_id} already in flight")
        request = ServeRequest(tenant=tenant, kind=kind, shape=shape,
                               request_id=request_id,
                               submitted_s=loop.time())
        future: asyncio.Future = loop.create_future()
        self._waiters[request_id] = future
        obs.count("serve.requests")
        _, _, full = self.queue.add(request, now_s=request.submitted_s)
        self.max_queue_depth = max(self.max_queue_depth,
                                   self.queue.depth())
        obs.observe("serve.queue_depth", self.queue.depth())
        if full:
            self._cut()
        elif not self._busy and self._window is None:
            self._window = loop.call_later(self.config.window_s,
                                           self._cut)
        return await future

    # -- batch lifecycle -------------------------------------------------
    def _cut(self) -> None:
        """Start the oldest pending group if the compute slot is free.

        The one dispatch path: the idle window's timer, a group
        reaching ``max_batch``, a finished batch and ``close`` all
        come here.  The slot is taken only when compute is submitted,
        so a group whose every member is refused a key quota never
        holds it; the next group is tried instead.
        """
        if self._window is not None:
            self._window.cancel()
            self._window = None
        loop = asyncio.get_running_loop()
        while not self._busy and self.queue:
            key = self.queue.pending_keys()[0]
            requests = self.queue.take(key)
            trace = get_shape(key.shape)
            working = evk_working_set(trace, self.config.evk_method)
            leases, admitted = [], []
            for request in requests:
                self.tenants.count_request(request.tenant)
                try:
                    if working:
                        leases.append(
                            self.tenants.acquire(request.tenant, working))
                    admitted.append(request)
                except TenantQuotaError as exc:
                    self._resolve(request, error=str(exc))
            if not admitted:
                continue
            seeds = [request_seed(self.config.seed, r.request_id)
                     for r in admitted]
            done = loop.run_in_executor(self._compute, self._execute,
                                        trace, seeds)
            self._busy = True
            task = loop.create_task(
                self._finish(key, admitted, leases, done))
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)

    async def _finish(self, key: BatchKey, admitted: list, leases: list,
                      done: asyncio.Future) -> None:
        """Await one batch, free the slot, then answer its requests."""
        error = None
        try:
            with obs.get_tracer().span("serve.batch", shape=key.shape,
                                       kind=key.kind, size=len(admitted)):
                state = await done
        except Exception as exc:  # compute must never strand waiters
            error = f"execution failed: {exc}"
        finally:
            # Exactly once per batch, and before the leases and the
            # digests, so the next batch computes while this one is
            # answered.
            self._busy = False
            self._cut()
            for lease in leases:
                self.tenants.release(lease)
        if error is not None:
            for request in admitted:
                self._resolve(request, error=error)
            return
        self.batch_sizes.append(len(admitted))
        tracer = obs.get_tracer()
        if tracer.enabled:
            tracer.count("serve.batches")
            tracer.observe("serve.batch_size", len(admitted))
            tracer.observe("serve.batch_occupancy",
                           len(admitted) / self.config.max_batch)
            for request in admitted:
                tracer.count(
                    f"serve.tenant.{request.tenant}.requests")
        for row, request in enumerate(admitted):
            self._resolve(request,
                          digest=self.executor.digest_row(state, row),
                          batch_size=len(admitted))

    def _execute(self, trace, seeds):
        """Runs on the compute thread; returns the final batch state."""
        if self.config.backend == POOL:
            state, _ = self.executor.run_batch_pooled(
                trace, seeds, self.compute_pool,
                workers=self.config.workers)
            return state
        return self.executor.run_batch(trace, seeds)

    def _resolve(self, request: ServeRequest, digest: str = "",
                 batch_size: int = 0,
                 error: str | None = None) -> None:
        future = self._waiters.pop(request.request_id, None)
        if future is None or future.done():
            return
        loop = asyncio.get_running_loop()
        latency_ms = (loop.time() - request.submitted_s) * 1e3
        self.responses += 1
        if error is not None:
            obs.count("serve.errors")
        obs.observe("serve.latency_ms", latency_ms)
        future.set_result(ServeResponse(
            request_id=request.request_id, tenant=request.tenant,
            kind=request.kind, shape=request.shape, digest=digest,
            batch_size=batch_size, latency_ms=latency_ms, error=error))

    # -- TCP endpoint ----------------------------------------------------
    async def start_tcp(self, host: str = "127.0.0.1",
                        port: int = 0) -> tuple:
        """Serve JSON-lines jobs over TCP; returns ``(host, port)``.

        One request per line: ``{"tenant": ..., "kind": ...,
        "shape": ..., "request_id": ...}``; one JSON response per
        line, in completion order (lines from one connection are
        admitted concurrently so they can share a batch).
        """
        self._tcp_server = await asyncio.start_server(
            self._handle_connection, host, port)
        return self._tcp_server.sockets[0].getsockname()[:2]

    async def _handle_connection(self, reader, writer) -> None:
        lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()

        async def answer(message: dict) -> None:
            try:
                response = await self.submit(
                    tenant=str(message.get("tenant", "anonymous")),
                    kind=message.get("kind", EVAL),
                    shape=message.get("shape"),
                    request_id=message.get("request_id"))
                payload = response.to_dict()
            except Exception as exc:
                payload = {"error": str(exc),
                           "request_id": message.get("request_id")}
            async with lock:
                writer.write((json.dumps(payload) + "\n").encode())
                await writer.drain()

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    message = json.loads(line)
                    if not isinstance(message, dict):
                        raise ValueError("job must be a JSON object")
                except ValueError as exc:
                    async with lock:
                        writer.write((json.dumps(
                            {"error": f"bad request: {exc}"})
                            + "\n").encode())
                        await writer.drain()
                    continue
                task = asyncio.get_running_loop().create_task(
                    answer(message))
                pending.add(task)
                task.add_done_callback(pending.discard)
            if pending:
                await asyncio.gather(*list(pending),
                                     return_exceptions=True)
        finally:
            # No await here: server shutdown cancels handler tasks,
            # and an awaited wait_closed() would surface that as loop
            # noise; the transport finishes closing on its own.
            writer.close()

    # -- reporting / shutdown --------------------------------------------
    def stats(self) -> dict:
        sizes = self.batch_sizes
        mean_batch = sum(sizes) / len(sizes) if sizes else 0.0
        return {
            "responses": self.responses,
            "batches": len(sizes),
            "mean_batch": mean_batch,
            "batch_occupancy": (mean_batch / self.config.max_batch
                                if sizes else 0.0),
            "max_queue_depth": self.max_queue_depth,
            "backend": self.config.backend,
            "window_ms": self.config.window_s * 1e3,
            "max_batch": self.config.max_batch,
            "tenancy": self.tenants.to_dict(),
        }

    def flush_all(self) -> None:
        """End the idle admission window now: the oldest group is cut
        if the compute slot is free, and the rest follow as it frees."""
        self._cut()

    async def close(self) -> None:
        """Drain pending groups through the dispatch path, shut down."""
        self._closed = True
        self.flush_all()
        while self._inflight:
            await asyncio.gather(*list(self._inflight),
                                 return_exceptions=True)
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        self._compute.shutdown(wait=True)
        self.compute_pool.close()
        for future in self._waiters.values():
            if not future.done():
                future.cancel()
        self._waiters.clear()
