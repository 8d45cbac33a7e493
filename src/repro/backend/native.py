"""Build, cache and load the compiled NTT kernel (``ckks/_ntt_kernel.c``).

:func:`load` returns the process's :class:`NttKernel`, or ``None`` when
this host cannot have one (no compiler, a failing compile, an unusable
cache directory, a self-check mismatch): the caller then stays on the
ufunc engine, and :func:`probe` says why.  There is nothing to
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


class NttKernel:
    """The loaded library: :meth:`bind` ties it to one basis."""

    def __init__(self, path: Path):
        lib = ctypes.CDLL(str(path))
        pointer, size = ctypes.c_void_p, ctypes.c_size_t
        self.forward = lib.ntt_forward
        self.forward.argtypes = [pointer, size, size] + [pointer] * 3
        self.inverse = lib.ntt_inverse
        self.inverse.argtypes = [pointer, size, size] + [pointer] * 4
        self.forward.restype = self.inverse.restype = None

    def bind(self, ring_degree: int, moduli, tables) -> "BoundNtt":
        return BoundNtt(self, ring_degree, moduli, tables)


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

    def __init__(self, kernel: NttKernel, ring_degree: int, moduli, tables):
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
        """The last gate before an address leaves Python."""
        if not (isinstance(block, np.ndarray) and block.dtype == np.uint64
                and block.shape == (self._rows, self.n)
                and block.flags.c_contiguous and block.flags.writeable):
            raise ValueError("NTT block must be a writable C-contiguous "
                             f"uint64 ({self._rows}, {self.n}) array")
        return block.ctypes.data

    def forward(self, block) -> None:
        """In place: canonical coefficient rows -> evaluation rows."""
        self._kernel.forward(self._address(block), self._rows, self.n,
                             *self._forward)

    def inverse(self, block) -> None:
        """In place inverse, ``N^-1`` included; canonical both ends."""
        self._kernel.inverse(self._address(block), self._rows, self.n,
                             *self._inverse)


def _self_check(kernel: NttKernel) -> bool:
    """Forward and inverse against the object-path reference at N=16:
    a 36-bit and a 60-bit prime, a random and an all-(q-1) row each."""
    from repro.ckks import modmath, primes
    from repro.ckks.ntt import NttPlan

    n = 16
    rng = np.random.default_rng(0)
    moduli, rows, tables, references = [], [], [], []
    for bits in (36, 60):
        q = primes.ntt_primes(1, bits, n)[0]
        moduli += [q, q]
        rows += [rng.integers(0, q, n, dtype=np.uint64),
                 np.full(n, q - 1, dtype=np.uint64)]
        tables += [NttPlan(n, q).fused_tables()] * 2
        references += [NttPlan(n, q, path=modmath.OBJECT)] * 2
    rows = np.stack(rows)
    bound = kernel.bind(n, moduli, tables)
    for name in ("forward", "inverse"):
        got = rows.copy()
        getattr(bound, name)(got)
        for row, reference, mine in zip(rows, references, got):
            want = getattr(reference, name)(row.tolist())
            if mine.tolist() != [int(v) for v in want]:
                return False
    return True


@lru_cache(maxsize=1)
def probe() -> tuple[NttKernel | None, dict]:
    """``(kernel, info)``, worked out once per process.

    ``info["state"]`` is ``compiled`` (built just now), ``loaded``
    (from the cache) or ``unavailable`` (``kernel`` is ``None`` and
    ``info["reason"]`` says why); ``compiler`` and ``file`` name what
    was used.  Counts ``backend.native.<state>``.
    """
    info = {"compiler": _find_compiler()}
    try:
        if info["compiler"] is None:
            raise NativeUnavailable(
                "no C compiler on PATH (" + ", ".join(COMPILERS) + ")")
        path, built = _shared_object(info["compiler"], _cache_dir())
        info["file"] = str(path)
        try:
            kernel = NttKernel(path)
        except (OSError, AttributeError) as exc:
            raise NativeUnavailable(f"cannot load {path}: {exc}") from exc
        # untraced: the check's reference transforms are not the
        # caller's work and must not show up in its counters
        tracer, tracing = get_tracer(), get_tracer().enabled
        tracer.disable()
        try:
            agrees = _self_check(kernel)
        finally:
            tracer.enabled = tracing
        if not agrees:
            raise NativeUnavailable(
                f"{path} disagrees with the reference NTT")
        info["state"] = "compiled" if built else "loaded"
    except (NativeUnavailable, OSError) as exc:
        # OSError: the source is not installed, the directory is full
        # or went away under us; all mean "not on this host"
        kernel = None
        info.update(state="unavailable", reason=str(exc))
    get_tracer().count("backend.native." + info["state"])
    return kernel, info


def load() -> NttKernel | None:
    """The process's kernel, or ``None`` when this host has none."""
    return probe()[0]
