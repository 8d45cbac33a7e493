"""``repro.serve`` — the async multi-tenant FHE serving layer.

The first layer that turns the repo from a trace replayer into a
server: an asyncio front-end (:mod:`repro.serve.server`) accepts
encode/encrypt/eval/decrypt jobs from named tenants (in-process async
API plus a JSON-over-TCP endpoint), a batching queue
(:mod:`repro.serve.batcher`) groups compatible requests while the
previous batch computes (or, on an idle server, within a short
admission window) and stacks them into one batch-vectorised
execution (:mod:`repro.serve.engine` — the
whole-batch counterpart of the functional executor, built on the
batched NTT of :mod:`repro.ckks.ntt`), a tenant manager
(:mod:`repro.serve.tenants`) shares the Hemera evk pool across
tenants under per-tenant key quotas, and a load generator
(:mod:`repro.serve.loadgen`) drives open- and closed-loop arrivals
and reports requests/sec, p50/p99 latency, batch occupancy and queue
depth — what ``benchmarks/e2e``'s ``serve_closed`` / ``serve_open``
workloads read.

Batching is *bit-transparent*: a request's response digest depends
only on its shape and its request-id-derived seed, never on which
batch it landed in, so every served response is bit-exact against a
serial per-request oracle run.
"""

from repro.serve.batcher import (BatchKey, BatchQueue, evk_aware_order,
                                 evk_working_set)
from repro.serve.engine import RowBatchNtt, ServeCheck, ServeExecutor
from repro.serve.jobs import (DECRYPT, ENCODE, ENCRYPT, EVAL, JOB_KINDS,
                              SHAPES, ServeRequest, ServeResponse,
                              default_shape, get_shape, request_seed)
from repro.serve.loadgen import LoadReport, run_loadgen
from repro.serve.server import FheServer, ServerConfig
from repro.serve.tenants import (TenantKeyManager, TenantQuotaError,
                                 TenantStats)

__all__ = [
    "BatchKey", "BatchQueue", "DECRYPT", "ENCODE", "ENCRYPT", "EVAL",
    "FheServer", "JOB_KINDS", "LoadReport", "RowBatchNtt", "SHAPES",
    "ServeCheck", "ServeExecutor", "ServeRequest", "ServeResponse",
    "ServerConfig", "TenantKeyManager", "TenantQuotaError",
    "TenantStats", "default_shape", "evk_aware_order",
    "evk_working_set", "get_shape", "request_seed", "run_loadgen",
]
