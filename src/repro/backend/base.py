"""The array-backend protocol and the default numpy implementation.

An :class:`ArrayBackend` is the narrow waist between the CKKS hot
kernels (``ModulusKernel``, ``NttPlan``/``BatchNttPlan``, ``BConvPlan``,
``KeyMultPlan``, ``AutoPlan``, ``RowBatchNtt``) and whatever array
library executes them.  The protocol is deliberately small: the kernels
keep calling ``np.*`` ufuncs and operators on whatever arrays the
backend hands out — numpy's NEP-18/NEP-13 dispatch (or plain ndarray
subclassing) routes those calls to the device library — and the backend
only mediates the points where *residency* matters:

* ``from_host`` / ``to_host`` — explicit host<->device transfers.
  Precomputed plan tables (twiddles, Shoup pairs, 22-bit split
  matrices) cross this boundary exactly once, at plan build.
* ``empty`` / ``zeros`` — device allocation for pooled workspaces.
* ``gather`` / ``matmul`` / ``mulmod`` — the three primitives with
  backend-specific fast paths (AutoPlan point gathers, the BConv
  float64 GEMM, and modular multiply).
* ``native_ntt`` — an optional compiled limb-batch NTT over this
  backend's arrays.  ``None`` (the default) keeps the ufunc engine;
  the numpy backend answers with :mod:`repro.backend.native`'s kernel
  where the host could build it.

Capability flags drive negotiation: a kernel that needs the uint64
lazy-reduction datapath (every vectorised hot path in this repo)
checks ``supports_uint64`` and ``numpy_dispatch`` and falls back to
the numpy backend — with a ``backend.fallback`` counter — when the
selected backend cannot run it bit-exactly.  The object-dtype oracle
path is always pinned to numpy; it is the portable reference, not a
fallback.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ArrayBackend", "NumpyBackend"]


class ArrayBackend:
    """Protocol base: residency boundary + primitive ops for one device.

    Subclasses are singletons per (library, device); plan caches key on
    :attr:`cache_token` so tables built for one backend are never served
    to another.  Instances are hashable by identity, which makes them
    valid ``lru_cache`` key components.
    """

    #: registry name ("numpy", "fake").
    name = "abstract"
    #: device handle the backend allocates on ("cpu", "cuda:0", ...).
    device = "cpu"
    #: uint64 arrays with wraparound (lazy-reduction) arithmetic work.
    supports_uint64 = False
    #: float64 matmul is exactly rounded within the 2**53 window, so the
    #: BConv 22-bit split GEMM is bit-exact.
    exact_float64_matmul = False
    #: ``np.*`` ufuncs/functions dispatch to this backend's arrays
    #: (NEP-13/NEP-18 or ndarray subclassing), so the existing kernel
    #: bodies run unchanged on device-resident data.
    numpy_dispatch = False

    # -- residency boundary ----------------------------------------------

    def from_host(self, array):
        """Move a host ndarray onto the device (identity if resident)."""
        raise NotImplementedError

    def to_host(self, array) -> np.ndarray:
        """Materialise ``array`` as a host numpy ndarray."""
        raise NotImplementedError

    def asarray(self, values, dtype=None, copy=False):
        """Device array from arbitrary values (uploads host input)."""
        raise NotImplementedError

    # -- allocation ------------------------------------------------------

    def empty(self, shape, dtype):
        raise NotImplementedError

    def zeros(self, shape, dtype):
        raise NotImplementedError

    # -- primitives ------------------------------------------------------

    def gather(self, array, indices):
        """Fancy-index ``array`` with a device-resident index vector."""
        return array[indices]

    def matmul(self, a, b, out=None):
        raise NotImplementedError

    def mulmod(self, a, b, modulus):
        """Elementwise ``a * b mod modulus`` on this backend.

        Routed through the width-tiered :class:`ModulusKernel` so each
        backend gets the narrow/wide split-limb datapath it can run.
        """
        from repro.ckks import modmath

        kernel = modmath.get_kernel(int(modulus), backend=self)
        return kernel.mul(kernel.asresidues(a), kernel.asresidues(b))

    def is_device_array(self, array) -> bool:
        """True when ``array`` is resident on this backend's device."""
        return False

    def native_ntt(self):
        """A compiled limb-batch NTT over this backend's arrays
        (:class:`repro.backend.native.NttKernel`), or ``None``: the
        batch plan then runs the ufunc engine.  Availability is the
        only selector."""
        return None

    # -- introspection ---------------------------------------------------

    def synchronize(self) -> None:
        """Block until queued device work completes (no-op on host)."""

    def device_info(self) -> dict:
        return {"device": self.device}

    @property
    def cache_token(self) -> str:
        """Stable identity string used in plan-cache keys."""
        return f"{self.name}:{self.device}"

    @property
    def full_datapath(self) -> bool:
        """True when every vectorised hot path runs natively here."""
        return bool(self.numpy_dispatch and self.supports_uint64
                    and self.exact_float64_matmul)

    def capability_flags(self) -> dict:
        return {"supports_uint64": bool(self.supports_uint64),
                "exact_float64_matmul": bool(self.exact_float64_matmul),
                "numpy_dispatch": bool(self.numpy_dispatch),
                "full_datapath": self.full_datapath}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.cache_token}>"


class NumpyBackend(ArrayBackend):
    """The default host backend: every method is a passthrough.

    Bit-identical to pre-backend behaviour by construction — arrays in
    are arrays out, no wrapping, no copies beyond what the caller asks
    for — so the numpy path carries zero dispatch overhead.
    """

    name = "numpy"
    device = "cpu"
    supports_uint64 = True
    exact_float64_matmul = True
    numpy_dispatch = True

    def from_host(self, array):
        return array

    def to_host(self, array) -> np.ndarray:
        if isinstance(array, np.ndarray):
            return array
        return np.asarray(array)

    def asarray(self, values, dtype=None, copy=False):
        if copy:
            return np.array(values, dtype=dtype)
        return np.asarray(values, dtype=dtype)

    def empty(self, shape, dtype):
        return np.empty(shape, dtype=dtype)

    def zeros(self, shape, dtype):
        return np.zeros(shape, dtype=dtype)

    def matmul(self, a, b, out=None):
        if out is not None:
            return np.matmul(a, b, out=out)
        return np.matmul(a, b)

    def is_device_array(self, array) -> bool:
        return isinstance(array, np.ndarray)

    def native_ntt(self):
        # imported on first use: processes that never build a batch
        # NTT plan (serving, the simulators) never look for a compiler
        from repro.backend import native

        return native.load()

    def device_info(self) -> dict:
        from repro.backend import native

        return {"device": "cpu", "library": "numpy",
                "version": np.__version__,
                "native_ntt": dict(native.probe()[1])}
