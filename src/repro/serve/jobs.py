"""Job vocabulary of the serving layer: kinds, shapes, requests.

A *job kind* names the client-visible operation (encode / encrypt /
eval / decrypt); a *shape* names the op trace the kind executes on
the functional substrate.  Two requests are batchable exactly when
they agree on ``(kind, shape)`` — same params, same level schedule,
same op sequence — which is what :class:`repro.serve.batcher.BatchKey`
captures.

Per-request data seeds are the stream seeds of
:class:`repro.sched.executor.FunctionalExecutor` — one function,
:func:`repro.sched.executor.derive_seed` (``seed ^ request_id * MIX``
with the golden-ratio odd constant), under the serving layer's name
:func:`request_seed` — so concurrent encrypts are reproducible and
non-colliding: request ``r`` always produces the same bits, and
distinct requests never share a parameter stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.core.optrace import OpTrace, TraceBuilder
from repro.sched.executor import derive_seed as request_seed  # noqa: F401

# -- job kinds -------------------------------------------------------------

ENCODE = "encode"
ENCRYPT = "encrypt"
EVAL = "eval"
DECRYPT = "decrypt"
JOB_KINDS = (ENCODE, ENCRYPT, EVAL, DECRYPT)

# -- shapes ----------------------------------------------------------------

_SHAPE_LEVEL = 20  # nominal working level of the mini client shapes


def _encode_mini() -> OpTrace:
    tb = TraceBuilder("encode-mini")
    ct = tb.fresh_ct()
    tb.pmult(ct, _SHAPE_LEVEL, stage="Encode")
    tb.rescale(ct, _SHAPE_LEVEL, stage="Encode")
    return tb.build()


def _encrypt_mini() -> OpTrace:
    tb = TraceBuilder("encrypt-mini")
    ct = tb.fresh_ct()
    tb.pmult(ct, _SHAPE_LEVEL, stage="Encrypt")
    tb.pmult(ct, _SHAPE_LEVEL, stage="Encrypt")
    tb.rescale(ct, _SHAPE_LEVEL, stage="Encrypt")
    return tb.build()


def _decrypt_mini() -> OpTrace:
    tb = TraceBuilder("decrypt-mini")
    ct = tb.fresh_ct()
    tb.rescale(ct, _SHAPE_LEVEL, stage="Decrypt")
    tb.pmult(ct, _SHAPE_LEVEL, stage="Decrypt")
    return tb.build()


def _helr_mini_step() -> OpTrace:
    from repro.workloads.helr import helr_iteration
    return helr_iteration()


# Shape name -> trace factory.  ``helr-mini-step`` is the HELR
# training-iteration step (36 ops, 4 ciphertext chains, both
# key-switch flavours) — the serving acceptance workload.
SHAPES = {
    "encode-mini": _encode_mini,
    "encrypt-mini": _encrypt_mini,
    "decrypt-mini": _decrypt_mini,
    "helr-mini-step": _helr_mini_step,
}

_DEFAULT_SHAPES = {
    ENCODE: "encode-mini",
    ENCRYPT: "encrypt-mini",
    DECRYPT: "decrypt-mini",
    EVAL: "helr-mini-step",
}


def default_shape(kind: str) -> str:
    if kind not in _DEFAULT_SHAPES:
        raise ValueError(f"unknown job kind {kind!r}; "
                         f"expected one of {JOB_KINDS}")
    return _DEFAULT_SHAPES[kind]


@lru_cache(maxsize=None)
def get_shape(name: str) -> OpTrace:
    """The (immutable, shared) op trace of one shape name."""
    if name not in SHAPES:
        raise ValueError(f"unknown shape {name!r}; "
                         f"expected one of {sorted(SHAPES)}")
    return SHAPES[name]()


# -- requests and responses ------------------------------------------------

@dataclass
class ServeRequest:
    """One admitted job: who asked for what, and when."""

    tenant: str
    kind: str
    shape: str
    request_id: int
    submitted_s: float = 0.0
    payload: dict = field(default_factory=dict)


@dataclass
class ServeResponse:
    """What the server returns for one request."""

    request_id: int
    tenant: str
    kind: str
    shape: str
    digest: str = ""
    batch_size: int = 0
    latency_ms: float = 0.0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "kind": self.kind,
            "shape": self.shape,
            "digest": self.digest,
            "batch_size": self.batch_size,
            "latency_ms": self.latency_ms,
            "error": self.error,
        }
