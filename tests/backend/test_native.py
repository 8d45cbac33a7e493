"""The compiled NTT kernel's loader: build, cache, refuse, fall back.

Every test builds into its own cache directory, so the real per-user
cache is neither read nor written, and ``probe``'s per-process memo is
dropped on both sides of each test.  Tests that need a C compiler skip
where there is none; the refusal tests run everywhere.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.backend import native
from repro.ckks import primes
from repro.ckks.ntt import BatchNttPlan, NttPlan

needs_compiler = pytest.mark.skipif(
    native._find_compiler() is None, reason="no C compiler on PATH")


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    """A private, empty cache directory and a forgotten memo."""
    directory = tmp_path / "cache"
    directory.mkdir(mode=0o700)
    monkeypatch.setattr(native, "_cache_dir", lambda: directory)
    native.probe.cache_clear()
    yield directory
    native.probe.cache_clear()


@pytest.fixture()
def compiles(monkeypatch):
    """The compiler invocations (not ``--version``) made so far."""
    made = []
    run = native._run

    def spy(argv):
        if "--version" not in argv:
            made.append(argv)
        return run(argv)

    monkeypatch.setattr(native, "_run", spy)
    return made


def _objects(directory: Path) -> list[Path]:
    return sorted(directory.glob("*.so"))


def _assert_step_runs_bit_exact_without_it():
    """A mixed basis through a fresh batch plan: no kernel bound, same
    residues as the Python-int reference."""
    n = 32
    moduli = (primes.ntt_primes(1, 36, n)[0], primes.ntt_primes(1, 60, n)[0])
    plan = BatchNttPlan(n, moduli)
    assert plan._native is None and plan._engines
    limbs = [np.random.default_rng(i).integers(0, q, n, dtype=np.uint64)
             for i, q in enumerate(moduli)]
    for got, q, x in zip(plan.forward(limbs), moduli, limbs):
        want = NttPlan(n, q).forward(x.astype(object))
        assert got.tolist() == want.tolist()


@needs_compiler
class TestBuildAndCache:
    def test_builds_once_then_loads_from_the_cache(self, cache, compiles):
        kernel, info = native.probe()
        assert kernel is not None and info["state"] == "compiled"
        assert len(compiles) == 1
        assert "-O3" in compiles[0] and "-shared" in compiles[0]
        assert not any("march" in flag for flag in compiles[0])
        (built,) = _objects(cache)
        assert info["file"] == str(built)
        assert info["compiler"] == native._find_compiler()
        assert not list(cache.glob("*.tmp"))
        # the same process asks again: the memo answers
        assert native.probe()[0] is kernel and len(compiles) == 1
        # a new process (a forgotten memo) finds the file
        native.probe.cache_clear()
        kernel, info = native.probe()
        assert kernel is not None and info["state"] == "loaded"
        assert len(compiles) == 1 and _objects(cache) == [built]

    def test_the_key_follows_the_source(self, cache, tmp_path, monkeypatch):
        native.probe()
        source = tmp_path / "_ntt_kernel.c"
        source.write_text(native.SOURCE.read_text() + "\n/* edited */\n")
        monkeypatch.setattr(native, "SOURCE", source)
        native.probe.cache_clear()
        assert native.probe()[1]["state"] == "compiled"
        assert len(_objects(cache)) == 2

    def test_a_truncated_object_is_rebuilt_never_loaded(
            self, cache, compiles, monkeypatch):
        # built, not loaded: this process must not have the file
        # mapped when the test rewrites it in place
        built, _ = native._shared_object(native._find_compiler(), cache)
        whole = built.read_bytes()
        built.write_bytes(whole[:len(whole) // 2])
        opened = []
        load = native.NttKernel.__init__

        def spy(self, path):
            opened.append(Path(path).read_bytes())
            load(self, path)

        monkeypatch.setattr(native.NttKernel, "__init__", spy)
        native.probe.cache_clear()
        kernel, info = native.probe()
        assert kernel is not None and info["state"] == "compiled"
        assert len(compiles) == 2
        assert opened == [whole]
        assert [path.read_bytes() for path in _objects(cache)] == [whole]

    def test_a_foreign_file_under_the_cached_name_is_refused(
            self, cache, compiles):
        built, _ = native._shared_object(native._find_compiler(), cache)
        built.write_bytes(b"\x7fELF not what the name says")
        assert native.probe()[1]["state"] == "compiled"
        assert len(compiles) == 2

    def test_two_processes_building_at_once_both_end_loadable(self, cache):
        ctx = multiprocessing.get_context("spawn")
        barrier, results = ctx.Barrier(2), ctx.Queue()
        workers = [ctx.Process(target=_probe_in,
                               args=(str(cache), barrier, results))
                   for _ in range(2)]
        for worker in workers:
            worker.start()
        infos = [results.get(timeout=120) for _ in workers]
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive() and worker.exitcode == 0
        assert [info["state"] for info in infos] == ["compiled"] * 2
        assert all(info["round_trip"] for info in infos)
        assert not list(cache.glob("*.tmp"))
        for path in _objects(cache):
            assert native._digest(path) == path.stem.rsplit("-", 1)[1]
        assert native.probe()[1]["state"] == "loaded"


def _probe_in(directory: str, barrier, results) -> None:
    """Spawned worker: build into ``directory`` when the other one does."""
    native._cache_dir = lambda: Path(directory)
    barrier.wait(timeout=60)
    kernel, info = native.probe()
    if kernel is not None:
        n, q = 16, primes.ntt_primes(1, 36, 16)[0]
        bound = kernel.bind(n, [q], [NttPlan(n, q).fused_tables()])
        rows = np.arange(n, dtype=np.uint64).reshape(1, n)
        work = rows.copy()
        bound.forward(work)
        bound.inverse(work)
        info["round_trip"] = bool((work == rows).all())
    results.put(info)


def _script(path: Path, body: str) -> str:
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


class TestUnavailable:
    """No kernel: ``None``, a reason, a counter, and the same bits."""

    def _unavailable(self, fragment: str) -> dict:
        obs.configure(enabled=True, reset=True)
        try:
            kernel, info = native.probe()
            counters = obs.get_tracer().metrics.counters()
        finally:
            obs.configure(enabled=False, reset=True)
        assert kernel is None and native.load() is None
        assert info["state"] == "unavailable" and fragment in info["reason"]
        assert counters == {"backend.native.unavailable": 1}
        _assert_step_runs_bit_exact_without_it()
        return info

    def test_no_compiler(self, cache, monkeypatch):
        monkeypatch.setattr(native, "_find_compiler", lambda: None)
        info = self._unavailable("no C compiler on PATH")
        assert info["compiler"] is None and not _objects(cache)

    def test_failing_compiler(self, cache, tmp_path, monkeypatch):
        fake = _script(tmp_path / "cc", '[ "$1" = --version ] && '
                       '{ echo "fakecc 1.0"; exit 0; }\n'
                       'echo "boom: cannot compile" >&2; exit 1\n')
        monkeypatch.setattr(native, "_find_compiler", lambda: fake)
        info = self._unavailable("boom: cannot compile")
        assert "exited 1" in info["reason"]
        assert not list(cache.iterdir())          # no object, no leftovers

    def test_compiler_that_cannot_be_run(self, cache, tmp_path, monkeypatch):
        missing = str(tmp_path / "gone" / "cc")
        monkeypatch.setattr(native, "_find_compiler", lambda: missing)
        self._unavailable(missing)

    def test_compiler_that_writes_no_library(self, cache, tmp_path,
                                             monkeypatch):
        fake = _script(tmp_path / "cc", 'echo "fakecc 1.0"; exit 0\n')
        monkeypatch.setattr(native, "_find_compiler", lambda: fake)
        self._unavailable("cannot load")

    def test_source_not_installed(self, cache, tmp_path, monkeypatch):
        monkeypatch.setattr(native, "SOURCE", tmp_path / "_ntt_kernel.c")
        if native._find_compiler() is None:
            self._unavailable("no C compiler on PATH")
        else:
            self._unavailable(str(tmp_path / "_ntt_kernel.c"))

    @needs_compiler
    def test_failing_self_check(self, cache, tmp_path, monkeypatch):
        source = tmp_path / "_ntt_kernel.c"
        text = native.SOURCE.read_text()
        assert "return a * w - " in text
        source.write_text(text.replace("return a * w - ",
                                       "return a * w + 1 - "))
        monkeypatch.setattr(native, "SOURCE", source)
        self._unavailable("disagrees with the reference NTT")

    def test_no_private_cache_directory(self, tmp_path, monkeypatch):
        shared = tmp_path / "home" / ".cache" / "repro" / "native"
        shared.mkdir(parents=True)
        shared.chmod(0o755)                       # readable by others
        blocked = tmp_path / "file"
        blocked.write_text("")                    # mkdir under a file fails
        monkeypatch.setattr(Path, "home", lambda: tmp_path / "home")
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        (tmp_path / "tmp").mkdir()
        assert native._cache_dir() == (
            tmp_path / "tmp" / f"repro-native-{os.getuid()}")
        assert stat.S_IMODE(native._cache_dir().stat().st_mode) == 0o700
        monkeypatch.setattr(tempfile, "tempdir", str(blocked))
        # the directory is looked for before the compiler is run
        monkeypatch.setattr(native, "_find_compiler", lambda: "cc")
        native.probe.cache_clear()
        try:
            self._unavailable("no private cache directory")
        finally:
            native.probe.cache_clear()


class TestReporting:
    def test_obs_off_counts_nothing(self, cache):
        native.probe()
        assert not obs.get_tracer().metrics.counters()

    @needs_compiler
    def test_counts_compiled_then_loaded(self, cache):
        states = []
        for _ in range(2):
            native.probe.cache_clear()
            obs.configure(enabled=True, reset=True)
            try:
                native.probe()
                states.append(obs.get_tracer().metrics.counters())
            finally:
                obs.configure(enabled=False, reset=True)
        assert states == [{"backend.native.compiled": 1},
                          {"backend.native.loaded": 1}]

    def test_backend_inventory_names_the_kernel_or_the_reason(
            self, cache, monkeypatch, capsys):
        from repro.__main__ import main

        def report() -> dict:
            assert main(["backend", "--json"]) == 0
            return json.loads(capsys.readouterr().out)

        info = native.probe()[1]
        if info["state"] == "unavailable":
            assert report() == {"state": "unavailable",
                                "reason": info["reason"]}
        else:
            assert report() == {key: info[key]
                                for key in ("state", "file", "compiler")}
            assert Path(info["file"]).is_file() and info["compiler"]
        native.probe.cache_clear()
        monkeypatch.setattr(native, "_find_compiler", lambda: None)
        info = report()
        assert info["state"] == "unavailable" and "compiler" in info["reason"]
        assert main(["backend"]) == 0
        assert capsys.readouterr().out.startswith("native_ntt: unavailable")
