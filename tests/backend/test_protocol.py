"""Selection, capability negotiation and the protocol surface."""

import numpy as np
import pytest

import repro.backend as backend_mod
from repro import obs
from repro.backend import ArrayBackend, FakeDeviceArray
from repro.backend.base import NumpyBackend


class TestSelection:
    def test_default_is_numpy(self):
        assert backend_mod.resolve(None).name == "numpy"

    def test_select_sets_process_default(self):
        backend_mod.select("fake")
        assert backend_mod.resolve(None).name == "fake"

    def test_backends_are_singletons(self):
        assert backend_mod.get_backend("fake") is \
            backend_mod.get_backend("fake")
        assert backend_mod.get_backend("numpy") is \
            backend_mod.get_backend("numpy")

    def test_resolve_accepts_name_instance_and_none(self):
        fake = backend_mod.get_backend("fake")
        assert backend_mod.resolve("fake") is fake
        assert backend_mod.resolve(fake) is fake
        assert backend_mod.resolve(None).name == "numpy"

    def test_unknown_name_raises(self):
        # "cupy" and "auto" included: a device backend comes back when
        # a device does (DESIGN.md Sec. 18)
        for name in ("tpu", "cupy", "auto"):
            with pytest.raises(ValueError, match="unknown backend"):
                backend_mod.get_backend(name)

    def test_env_var_read_at_first_use(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fake")
        backend_mod._reset_for_tests()
        assert backend_mod.resolve(None).name == "fake"


class TestFallback:
    def test_capability_negotiation_downgrades(self):
        class Partial(ArrayBackend):
            name = "partial"
            numpy_dispatch = True
            supports_uint64 = False
            exact_float64_matmul = False

        obs.configure(enabled=True, reset=True)
        try:
            be = backend_mod.kernel_backend(Partial(), need_uint64=True)
            assert be.name == "numpy"
            counters = obs.snapshot(obs.get_tracer())["counters"]
            assert counters["backend.fallback"] == 1
            assert counters["backend.fallback.capability"] == 1
            assert counters["backend.dispatch.numpy"] == 1
        finally:
            obs.configure(enabled=False, reset=True)

    def test_capable_backend_counts_dispatch(self):
        obs.configure(enabled=True, reset=True)
        try:
            be = backend_mod.kernel_backend("fake", need_uint64=True,
                                            need_matmul=True)
            assert be.name == "fake"
            counters = obs.snapshot(obs.get_tracer())["counters"]
            assert counters["backend.dispatch.fake"] == 1
            assert "backend.fallback" not in counters
        finally:
            obs.configure(enabled=False, reset=True)


class TestProtocolSurface:
    def test_cache_token_is_name_and_device(self, fake_backend):
        assert fake_backend.cache_token == "fake:fake0"
        assert backend_mod.get_backend("numpy").cache_token == "numpy:cpu"

    def test_full_datapath_flags(self, fake_backend):
        assert fake_backend.full_datapath
        assert NumpyBackend().full_datapath
        assert not ArrayBackend().full_datapath

    def test_capability_flags_dict(self, numpy_backend):
        flags = numpy_backend.capability_flags()
        assert flags == {"supports_uint64": True,
                         "exact_float64_matmul": True,
                         "numpy_dispatch": True,
                         "full_datapath": True}

    def test_backend_of_and_to_host(self, fake_backend):
        dev = fake_backend.from_host(np.arange(4, dtype=np.uint64))
        assert backend_mod.backend_of(dev) is fake_backend
        assert backend_mod.backend_of(np.arange(4)).name == "numpy"
        host = backend_mod.to_host(dev)
        assert type(host) is np.ndarray
        np.testing.assert_array_equal(host, np.arange(4))

    def test_gather_default(self, fake_backend):
        table = fake_backend.from_host(np.arange(8, dtype=np.uint64))
        idx = fake_backend.from_host(np.array([3, 1, 7]))
        out = fake_backend.gather(table, idx)
        assert isinstance(out, FakeDeviceArray)
        np.testing.assert_array_equal(backend_mod.to_host(out), [3, 1, 7])

    def test_mulmod_routes_through_kernel(self, fake_backend):
        q = 268369921
        a = np.array([5, q - 1, 12345], dtype=np.uint64)
        b = np.array([7, q - 1, 54321], dtype=np.uint64)
        out = backend_mod.to_host(fake_backend.mulmod(a, b, q))
        expected = (a.astype(object) * b.astype(object)) % q
        np.testing.assert_array_equal(out.astype(object), expected)

    def test_available_backends_report(self):
        report = backend_mod.available_backends()
        assert set(report) == {"numpy", "fake"}
        assert report["numpy"]["default"] and not report["fake"]["default"]
        for info in report.values():
            assert "capabilities" in info and "device" in info


class TestFakeDeviceArraySemantics:
    def test_ufuncs_preserve_residency(self, fake_backend):
        a = fake_backend.from_host(np.arange(8, dtype=np.uint64))
        assert isinstance(a + a, FakeDeviceArray)
        assert isinstance(np.mod(a, np.uint64(3)), FakeDeviceArray)

    def test_nep18_functions_retag(self, fake_backend):
        a = fake_backend.from_host(np.arange(8, dtype=np.uint64))
        assert isinstance(np.where(a > 3, a, a), FakeDeviceArray)
        assert isinstance(np.concatenate([a, a]), FakeDeviceArray)
        assert isinstance(np.stack([a, a]), FakeDeviceArray)
        assert isinstance(np.roll(a, 3), FakeDeviceArray)

    def test_transfer_ledger(self, fake_backend):
        fake_backend.reset_counters()
        dev = fake_backend.from_host(np.arange(4, dtype=np.uint64))
        fake_backend.from_host(dev)     # already resident: no count
        fake_backend.to_host(dev)
        fake_backend.empty((2, 2), np.uint64)
        counts = fake_backend.transfer_counts()
        assert counts == {"h2d": 1, "d2h": 1, "alloc": 1}
