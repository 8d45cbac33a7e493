"""Build, cache and load the compiled kernels (``ckks/_ntt_kernel.c``).

One shared object holds the NTTU butterflies, the KMU and the BConvU
multiply-accumulate loops.  :func:`load` returns the process's
:class:`NativeKernel`, or ``None`` when this host cannot have one (no
compiler, a failing compile, an unusable cache directory, a missing
entry point, a self-check mismatch): the callers then stay on their
numpy fallbacks, and :func:`probe` says why.  There is nothing to
configure; availability is the only selector.

The shared object lives in a 0700 per-user directory under the name
``_ntt_kernel-<key>-<digest>.so``: ``key`` hashes source, flags,
compiler version and machine, ``digest`` the file's own bytes, so a
truncated or foreign file never reaches ``dlopen``.  It is compiled
beside its final name and moved there with ``os.replace``; concurrent
builders each finish with a whole file.  ``-march=native`` is left out
on purpose: a cached object must not SIGILL on another host sharing
the directory.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.obs.tracer import get_tracer

SOURCE = Path(__file__).resolve().parent.parent / "ckks" / "_ntt_kernel.c"
FLAGS = ("-O3", "-shared", "-fPIC")
COMPILERS = ("cc", "gcc", "clang")


class NativeUnavailable(Exception):
    """Why this host runs without the kernel (the message is shown)."""


def _find_compiler() -> str | None:
    for name in COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def _cache_dir() -> Path:
    """The first per-user directory that is ours alone (uid, 0700)."""
    candidates = (Path.home() / ".cache" / "repro" / "native",
                  Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}")
    for path in candidates:
        try:
            path.mkdir(mode=0o700, parents=True, exist_ok=True)
            info = path.stat()
        except OSError:
            continue
        if info.st_uid == os.getuid() and not info.st_mode & 0o077:
            return path
    raise NativeUnavailable("no private cache directory among "
                            + ", ".join(map(str, candidates)))


def _run(argv) -> str:
    try:
        done = subprocess.run(argv, capture_output=True, text=True,
                              timeout=300)
    except (OSError, subprocess.SubprocessError) as exc:
        raise NativeUnavailable(f"{argv[0]}: {exc}") from exc
    if done.returncode:
        raise NativeUnavailable(
            f"{argv[0]} exited {done.returncode}: {done.stderr[-300:]}")
    return done.stdout


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _shared_object(compiler: str, directory: Path) -> tuple[Path, bool]:
    """``(file, built)``: the cached object for this source, compiler
    and machine, compiling it when no intact one is there."""
    version = _run([compiler, "--version"]).splitlines()[0]
    key = hashlib.sha256("\0".join(
        (SOURCE.read_text(), *FLAGS, version, platform.machine())
    ).encode()).hexdigest()[:16]
    stem = f"{SOURCE.stem}-{key}-"
    for path in sorted(directory.glob(stem + "*.so")):
        try:
            if _digest(path) == path.stem[len(stem):]:
                return path, False
            path.unlink()           # truncated or tampered: never loaded
        except OSError:
            continue
    handle, name = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(handle)
    tmp = Path(name)
    try:
        _run([compiler, *FLAGS, "-o", str(tmp), str(SOURCE)])
        final = directory / f"{stem}{_digest(tmp)}.so"
        os.replace(tmp, final)
    finally:
        tmp.unlink(missing_ok=True)
    return final, True


_P, _S = ctypes.c_void_p, ctypes.c_size_t
# Every entry point of the shared object, with its argument types.
_SIGNATURES = {
    "ntt_forward": [_P, _S, _S] + [_P] * 3,
    "ntt_inverse": [_P, _S, _S] + [_P] * 4,
    "kmu_accumulate": [_P] * 3 + [_S] * 3 + [_P],
    "bconv_convert": [_P] * 2 + [_S] * 3 + [_P] * 4,
}


# Moduli either basis of one BConv call may hold: ``BCONV_TILE`` in the
# C file, which sizes the scaled-word tile and the per-target arrays
# on the stack.
BCONV_TILE = 2048


class NativeKernel:
    """The loaded library: the NTTU butterflies (:meth:`bind` ties them
    to one basis), the KMU (:meth:`key_mult`) and the BConvU
    (:meth:`base_convert`)."""

    def __init__(self, path: Path):
        lib = ctypes.CDLL(str(path))
        for name, argtypes in _SIGNATURES.items():
            entry = getattr(lib, name)
            entry.argtypes, entry.restype = argtypes, None
        self.entry_points = tuple(_SIGNATURES)
        self.forward, self.inverse, self._kmu, self._bconv = (
            getattr(lib, name) for name in _SIGNATURES)

    def bind(self, ring_degree: int, moduli, tables) -> "BoundNtt":
        return BoundNtt(self, ring_degree, moduli, tables)

    def key_mult(self, digits, weights, moduli, out) -> None:
        """KMU: ``out[h, i] = sum_j digits[j, i] * weights[h, j, i] mod
        moduli[i]``, a ``(2, k, N)`` block from the ``(d, k, N)`` digit
        block and the key's ``(2, d, k, N)`` weights, all canonical;
        ``moduli`` lie in ``(1, 2^62)``."""
        d, k, n = _shape(digits, "KMU digits", 3)
        self._kmu(_block(out, (2, k, n), "KMU output", writable=True),
                  _block(digits, (d, k, n), "KMU digits"),
                  _block(weights, (2, d, k, n), "KMU weights"), d, k, n,
                  _block(moduli, (k,), "KMU moduli"))

    def base_convert(self, x, src, hat_inv, matrix, dst, out) -> None:
        """BConvU: ``out[j] = sum_i (x[i] * hat_inv[i] mod src[i]) *
        matrix[j, i] mod dst[j]`` from the canonical ``(k_in, L)``
        block ``x`` into the ``(k_out, L)`` block ``out``; moduli lie
        in ``(1, 2^62)``, ``hat_inv[i] < src[i]``."""
        k_in, n = _shape(x, "BConv source", 2)
        k_out = _shape(matrix, "BConv matrix", 2)[0]
        if not (1 <= k_in <= BCONV_TILE and 1 <= k_out <= BCONV_TILE):
            raise ValueError(f"BConv bases must hold 1..{BCONV_TILE} "
                             "moduli each")
        self._bconv(_block(out, (k_out, n), "BConv output", writable=True),
                    _block(x, (k_in, n), "BConv source"), k_in, k_out, n,
                    _block(src, (k_in,), "BConv source moduli"),
                    _block(hat_inv, (k_in,), "BConv scale vector"),
                    _block(matrix, (k_out, k_in), "BConv matrix"),
                    _block(dst, (k_out,), "BConv target moduli"))


def _shape(array, name: str, ndim: int) -> tuple:
    if not (isinstance(array, np.ndarray) and array.ndim == ndim):
        raise ValueError(f"{name} must be a {ndim}-d array")
    return array.shape


def _block(array, shape: tuple, name: str, writable: bool = False) -> int:
    """The last gate before an address leaves Python: ``array`` is a
    C-contiguous uint64 array of ``shape`` (and writable for an
    output), or the call is refused by ``name``."""
    if not (isinstance(array, np.ndarray) and array.dtype == np.uint64
            and array.shape == shape and array.flags.c_contiguous
            and (array.flags.writeable or not writable)):
        raise ValueError(f"{name} must be a {'writable ' * writable}"
                         f"C-contiguous uint64 {shape} array")
    return array.ctypes.data


def _addresses(arrays, n: int) -> np.ndarray:
    for array in arrays:
        if not (isinstance(array, np.ndarray) and array.dtype == np.uint64
                and array.shape == (n,) and array.flags.c_contiguous):
            raise ValueError(
                "NTT tables must be C-contiguous uint64 vectors of length N")
    return np.array([array.ctypes.data for array in arrays],
                    dtype=np.uintp)


class BoundNtt:
    """The kernel over one ordered set of limb rows.

    ``tables[r]`` is row ``r``'s :meth:`NttPlan.fused_tables` (Shoup
    form).  Nothing is copied: the C side gets one pointer per row into
    those arrays, which this object keeps alive beside the pointer
    vectors; the only words it owns are ``q`` and ``N^-1`` per row.
    """

    def __init__(self, kernel: NativeKernel, ring_degree: int, moduli, tables):
        self.n = int(ring_degree)
        self._kernel = kernel
        *columns, n_inv = zip(*tables)
        q = np.array([int(q) for q in moduli], dtype=np.uint64)
        if len(tables) != len(q) or int(q.max()) >> 62:
            raise ValueError("one table set per modulus below 2^62")
        w, ws, wi, wis = (_addresses(column, self.n) for column in columns)
        n_inv = np.array([int(pair[0]) for pair in n_inv], dtype=np.uint64)
        # every array an address below points into, or at
        self._alive = (columns, q, n_inv, w, ws, wi, wis)
        self._rows = len(q)
        self._forward = tuple(a.ctypes.data for a in (w, ws, q))
        self._inverse = tuple(a.ctypes.data for a in (wi, wis, q, n_inv))

    def _address(self, block) -> int:
        return _block(block, (self._rows, self.n), "NTT block",
                      writable=True)

    def forward(self, block) -> None:
        """In place: canonical coefficient rows -> evaluation rows."""
        self._kernel.forward(self._address(block), self._rows, self.n,
                             *self._forward)

    def inverse(self, block) -> None:
        """In place inverse, ``N^-1`` included; canonical both ends."""
        self._kernel.inverse(self._address(block), self._rows, self.n,
                             *self._inverse)


def _self_check(kernel: NativeKernel) -> str | None:
    """The first entry point that disagrees with its Python-int
    reference at N=16 (``None`` when all agree), on 36-bit and 60-bit
    primes with random and all-(q-1) words: forward and inverse NTT,
    KMU over three digits, BConv from two primes to two others."""
    from repro.ckks import primes, rns
    from repro.ckks.ntt import NttPlan

    n = 16
    rng = np.random.default_rng(0)
    moduli, rows, plans = [], [], []
    for bits in (36, 60):
        q = primes.ntt_primes(1, bits, n)[0]
        moduli += [q, q]
        rows += [rng.integers(0, q, n, dtype=np.uint64),
                 np.full(n, q - 1, dtype=np.uint64)]
        plans += [NttPlan(n, q)] * 2
    rows = np.stack(rows)
    bound = kernel.bind(n, moduli, [plan.fused_tables() for plan in plans])
    for name in ("forward", "inverse"):
        got = rows.copy()
        getattr(bound, name)(got)
        for row, plan, mine in zip(rows, plans, got):
            # object rows: the plan's Python-int reference network
            want = getattr(plan, name)(row.astype(object))
            if mine.tolist() != want.tolist():
                return "NTT"
    basis = primes.ntt_primes(2, 36, n) + primes.ntt_primes(2, 60, n)
    q = np.array(basis, np.uint64)
    x, w = (np.stack([rng.integers(0, p, (*lead, n), dtype=np.uint64)
                      for p in basis], axis=-2) for lead in ((3,), (2, 3)))
    x[..., n // 2:] = w[..., n // 2:] = q[:, None] - 1
    got = np.empty((2, len(basis), n), np.uint64)
    kernel.key_mult(x, w, q, got)
    want = (x.astype(object) * w.astype(object)).sum(axis=1)
    if got.tolist() != (want % q.astype(object)[:, None]).tolist():
        return "KMU"
    src, dst = tuple(basis[::2]), tuple(basis[1::2])
    _, hats, hat_invs = rns._crt_constants(src)
    got = np.empty((2, n), np.uint64)
    kernel.base_convert(x[0, ::2].copy(), q[::2].copy(),
                        np.array(hat_invs, np.uint64),
                        np.array([[h % p for h in hats] for p in dst],
                                 np.uint64), q[1::2].copy(), got)
    want = rns.base_convert_reference(
        rns.RnsPoly(x[0, ::2].copy(), src, rns.COEFF), dst)
    return None if got.tolist() == want.data.tolist() else "BConv"


@lru_cache(maxsize=1)
def probe() -> tuple[NativeKernel | None, dict]:
    """``(kernel, info)``, worked out once per process.

    ``info["state"]`` is ``compiled`` (built just now), ``loaded``
    (from the cache) or ``unavailable`` (``kernel`` is ``None`` and
    ``info["reason"]`` says why); ``compiler`` and ``file`` name what
    was used, ``entry_points`` what a loaded kernel offers.  Counts
    ``backend.native.<state>``.
    """
    info = {"compiler": _find_compiler()}
    try:
        if info["compiler"] is None:
            raise NativeUnavailable(
                "no C compiler on PATH (" + ", ".join(COMPILERS) + ")")
        path, built = _shared_object(info["compiler"], _cache_dir())
        info["file"] = str(path)
        try:
            kernel = NativeKernel(path)
        except (OSError, AttributeError) as exc:
            raise NativeUnavailable(f"cannot load {path}: {exc}") from exc
        # untraced: the check's reference transforms are not the
        # caller's work and must not show up in its counters
        tracer, tracing = get_tracer(), get_tracer().enabled
        tracer.disable()
        try:
            disagrees = _self_check(kernel)
        finally:
            tracer.enabled = tracing
        if disagrees:
            raise NativeUnavailable(
                f"{path} disagrees with the reference {disagrees}")
        info.update(state="compiled" if built else "loaded",
                    entry_points=list(kernel.entry_points))
    except (NativeUnavailable, OSError) as exc:
        # OSError: the source is not installed, the directory is full
        # or went away under us; all mean "not on this host"
        kernel = None
        info.update(state="unavailable", reason=str(exc))
    get_tracer().count("backend.native." + info["state"])
    return kernel, info


def load() -> NativeKernel | None:
    """The process's kernel, or ``None`` when this host has none."""
    return probe()[0]
