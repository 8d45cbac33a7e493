"""``repro.backend`` — pluggable array backends behind the kernel layer.

Selection::

    from repro import backend
    backend.select("fake")            # or "numpy"
    REPRO_BACKEND=fake python -m repro loadgen   # env var, read at first use

``select`` sets the process default that every plan cache and kernel
resolves when no explicit backend is passed; an unknown name raises
``ValueError``.  The registry is the numpy host backend plus the
transfer-counting fake device that proves the residency contract; a
real device backend comes back when a host has a device (DESIGN.md
Sec. 18).  Kernels that dispatch to a backend count
``backend.dispatch.<name>``, and capability negotiation (a backend
whose flags cannot run a given datapath bit-exactly) counts
``backend.fallback`` and ``backend.fallback.capability``.

Backends are singletons; pass the instance (or its name) to
``get_kernel``/``get_plan``/``get_bconv_plan``/... to pin a specific
one, and use :func:`backend_of` / :func:`to_host` to bring results back
to the host at API boundaries.
"""

from __future__ import annotations

import os

import numpy as np

from repro.backend.arena import WorkspaceArena, ledger_counters
from repro.backend.base import ArrayBackend, NumpyBackend
from repro.backend.fake import FakeBackend, FakeDeviceArray
from repro.obs.tracer import get_tracer

__all__ = [
    "ArrayBackend", "NumpyBackend", "FakeBackend", "FakeDeviceArray",
    "WorkspaceArena", "available_backends", "backend_of", "get_backend",
    "kernel_backend", "ledger_counters", "resolve", "select", "to_host",
]

_TRACER = get_tracer()

_FACTORIES = {"numpy": NumpyBackend, "fake": FakeBackend}
BACKEND_NAMES = tuple(_FACTORIES)

_instances: dict[str, ArrayBackend] = {}
_default: ArrayBackend | None = None


def get_backend(name: str | None = None) -> ArrayBackend:
    """The backend singleton for ``name`` (default: process default);
    unknown names raise ``ValueError``."""
    if name is None:
        return _default_backend()
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {BACKEND_NAMES}")
    if name not in _instances:
        _instances[name] = _FACTORIES[name]()
    return _instances[name]


def select(name: str) -> ArrayBackend:
    """Set the process-default backend and return it."""
    global _default
    _default = get_backend(name)
    return _default


def _default_backend() -> ArrayBackend:
    global _default
    if _default is None:
        _default = get_backend(os.environ.get("REPRO_BACKEND", "numpy"))
    return _default


def _reset_for_tests() -> None:
    """Forget the cached default so REPRO_BACKEND is re-read (tests)."""
    global _default
    _default = None


def resolve(backend) -> ArrayBackend:
    """Normalise ``None`` / name / instance to a backend singleton."""
    if backend is None:
        return _default_backend()
    if isinstance(backend, ArrayBackend):
        return backend
    return get_backend(backend)


def kernel_backend(backend=None, *, need_uint64: bool = True,
                   need_matmul: bool = False) -> ArrayBackend:
    """Capability negotiation for the vectorised kernel datapaths.

    Resolves ``backend`` and checks the flags the requested datapath
    needs (numpy dispatch always; uint64 lazy arithmetic and exact
    float64 matmul on demand).  A backend that cannot run it bit-exactly
    is downgraded to numpy with ``backend.fallback`` counters; numpy
    itself always qualifies.
    """
    be = resolve(backend)
    capable = be.numpy_dispatch \
        and (be.supports_uint64 or not need_uint64) \
        and (be.exact_float64_matmul or not need_matmul)
    if capable:
        if _TRACER.enabled:
            _TRACER.count(f"backend.dispatch.{be.name}")
        return be
    if _TRACER.enabled:
        _TRACER.count("backend.fallback")
        _TRACER.count("backend.fallback.capability")
        _TRACER.count("backend.dispatch.numpy")
    return get_backend("numpy")


def backend_of(array) -> ArrayBackend:
    """The backend that owns ``array`` (host arrays map to numpy)."""
    if isinstance(array, FakeDeviceArray):
        return get_backend("fake")
    return get_backend("numpy")


def to_host(array) -> np.ndarray:
    """Materialise any backend's array (or a scalar/list) on the host."""
    return backend_of(array).to_host(array)


def available_backends() -> dict:
    """Every registered backend; name -> device/capability/info dict.

    Used by ``repro backend``.  Builds the singletons but does not
    change the process default.
    """
    default = _default_backend()
    report = {}
    for name in BACKEND_NAMES:
        instance = get_backend(name)
        report[name] = {
            "device": instance.device,
            "default": instance is default,
            "capabilities": instance.capability_flags(),
            "info": instance.device_info(),
        }
    return report
