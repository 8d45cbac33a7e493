"""Load generation against :class:`~repro.serve.server.FheServer`.

Two arrival disciplines:

* **closed loop** — ``tenants x concurrency`` workers each keep one
  request in flight, draining their tenant's pre-assigned id
  allotment; offered load adapts to service rate (deterministic
  request-id set, saturating);
* **open loop** — requests arrive at a fixed rate regardless of
  completions, tenants round-robin (deterministic inter-arrival gap,
  no randomness).

The report carries requests/sec, p50 and p99 latency, mean batch
size and occupancy, peak queue depth — plus the honesty checks: a
timed serial per-request oracle run over the *same* request ids
(speedup = serial time / served wall time) and a digest-by-digest
bit-exactness comparison against it.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import deque
from dataclasses import dataclass, field

from repro.serve.jobs import EVAL, default_shape, get_shape, request_seed
from repro.serve.server import FheServer, ServerConfig

CLOSED = "closed"
OPEN = "open"
MODES = (CLOSED, OPEN)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (no interpolation, 0 on empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      math.ceil(pct / 100.0 * len(ordered)) - 1))
    return ordered[rank]


@dataclass
class LoadReport:
    """One loadgen run's measurements."""

    mode: str
    shape: str
    tenants: int
    requests: int
    concurrency: int
    duration_s: float
    rps: float
    p50_ms: float
    p99_ms: float
    mean_latency_ms: float
    mean_batch: float
    batch_occupancy: float
    max_queue_depth: int
    errors: int
    pin_violations: int = 0
    serial_s: float | None = None
    serial_rps: float | None = None
    speedup: float | None = None
    bit_exact: bool | None = None
    per_tenant: dict = field(default_factory=dict)
    server_stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "shape": self.shape,
            "tenants": self.tenants,
            "requests": self.requests,
            "concurrency": self.concurrency,
            "duration_s": self.duration_s,
            "rps": self.rps,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "mean_latency_ms": self.mean_latency_ms,
            "mean_batch": self.mean_batch,
            "batch_occupancy": self.batch_occupancy,
            "max_queue_depth": self.max_queue_depth,
            "errors": self.errors,
            "pin_violations": self.pin_violations,
            "serial_s": self.serial_s,
            "serial_rps": self.serial_rps,
            "speedup": self.speedup,
            "bit_exact": self.bit_exact,
            "per_tenant": self.per_tenant,
        }


async def _drive_closed(server: FheServer, shape: str, kind: str,
                        tenants: int, per_tenant: int,
                        concurrency: int) -> list:
    """``tenants x concurrency`` workers drain per-tenant id pools."""
    responses = []

    async def worker(tenant: str, ids: deque) -> None:
        while ids:
            rid = ids.popleft()
            responses.append(await server.submit(
                tenant, kind=kind, shape=shape, request_id=rid))

    tasks = []
    for t in range(tenants):
        ids = deque(range(t * per_tenant, (t + 1) * per_tenant))
        for _ in range(concurrency):
            tasks.append(asyncio.ensure_future(
                worker(f"tenant-{t}", ids)))
    await asyncio.gather(*tasks)
    return responses


async def _drive_open(server: FheServer, shape: str, kind: str,
                      tenants: int, requests: int,
                      rate_rps: float) -> list:
    """Fixed-rate arrivals; tenants round-robin over request ids."""
    interval = 1.0 / rate_rps if rate_rps > 0 else 0.0
    tasks = []
    for rid in range(requests):
        tasks.append(asyncio.ensure_future(server.submit(
            f"tenant-{rid % tenants}", kind=kind, shape=shape,
            request_id=rid)))
        if interval and rid + 1 < requests:
            await asyncio.sleep(interval)
    return list(await asyncio.gather(*tasks))


def run_loadgen(config: ServerConfig | None = None,
                shape: str | None = None, kind: str = EVAL,
                tenants: int = 8, requests_per_tenant: int = 8,
                concurrency: int = 2, mode: str = CLOSED,
                rate_rps: float = 200.0,
                compare_serial: bool = True) -> LoadReport:
    """Stand up a server, drive it, tear it down, report.

    With ``compare_serial`` the same request ids are then replayed
    one at a time through the serial per-request oracle
    (:meth:`ServeExecutor.run_serial`) — timed, and digest-compared
    against every served response.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; "
                         f"expected one of {MODES}")
    if tenants < 1 or requests_per_tenant < 1 or concurrency < 1:
        raise ValueError("tenants, requests_per_tenant and "
                         "concurrency must be >= 1")
    server_config = config or ServerConfig()
    shape = shape or default_shape(kind)
    get_shape(shape)
    total = tenants * requests_per_tenant
    holder: dict = {}

    async def _run() -> None:
        server = FheServer(server_config)
        try:
            start = time.perf_counter()
            if mode == CLOSED:
                responses = await _drive_closed(
                    server, shape, kind, tenants, requests_per_tenant,
                    concurrency)
            else:
                responses = await _drive_open(
                    server, shape, kind, tenants, total, rate_rps)
            holder["duration_s"] = time.perf_counter() - start
            holder["responses"] = responses
        finally:
            await server.close()
        holder["server"] = server

    asyncio.run(_run())
    server = holder["server"]
    responses = holder["responses"]
    duration = holder["duration_s"]
    stats = server.stats()
    errors = [r for r in responses if not r.ok]
    latencies = [r.latency_ms for r in responses if r.ok]
    tenancy = stats["tenancy"]
    report = LoadReport(
        mode=mode, shape=shape, tenants=tenants,
        requests=len(responses), concurrency=concurrency,
        duration_s=duration,
        rps=len(responses) / duration if duration > 0 else 0.0,
        p50_ms=percentile(latencies, 50.0),
        p99_ms=percentile(latencies, 99.0),
        mean_latency_ms=(sum(latencies) / len(latencies)
                         if latencies else 0.0),
        mean_batch=stats["mean_batch"],
        batch_occupancy=stats["batch_occupancy"],
        max_queue_depth=stats["max_queue_depth"],
        errors=len(errors),
        pin_violations=tenancy["pin_violations"],
        per_tenant={name: record["evk_hit_rate"] for name, record
                    in tenancy["tenants"].items()},
        server_stats=stats)
    if compare_serial:
        trace = get_shape(shape)
        executor = server.executor
        oracle = {}
        start = time.perf_counter()
        for response in responses:
            state = executor.run_serial(
                trace, request_seed(server_config.seed,
                                    response.request_id))
            oracle[response.request_id] = executor.digest_serial(state)
        report.serial_s = time.perf_counter() - start
        report.serial_rps = (len(responses) / report.serial_s
                             if report.serial_s > 0 else 0.0)
        report.speedup = (report.rps / report.serial_rps
                          if report.serial_rps else 0.0)
        report.bit_exact = (not errors and all(
            response.digest == oracle[response.request_id]
            for response in responses))
    return report


def format_report(report: LoadReport) -> list[str]:
    """Human-readable summary lines for the CLI."""
    lines = [
        f"loadgen: {report.mode}-loop, shape {report.shape}, "
        f"{report.tenants} tenants x concurrency {report.concurrency}",
        f"  requests {report.requests}  errors {report.errors}  "
        f"duration {report.duration_s:.3f} s  "
        f"rps {report.rps:.1f}",
        f"  latency p50 {report.p50_ms:.1f} ms  "
        f"p99 {report.p99_ms:.1f} ms  "
        f"mean {report.mean_latency_ms:.1f} ms",
        f"  batch mean {report.mean_batch:.1f}  "
        f"occupancy {report.batch_occupancy:.2f}  "
        f"peak queue depth {report.max_queue_depth}  "
        f"pin violations {report.pin_violations}",
    ]
    if report.speedup is not None:
        lines.append(
            f"  serial oracle {report.serial_s:.3f} s "
            f"({report.serial_rps:.1f} rps)  "
            f"speedup {report.speedup:.2f}x  "
            f"bit-exact {report.bit_exact}")
    return lines
