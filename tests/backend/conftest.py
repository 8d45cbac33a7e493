"""Shared hygiene for the backend suite.

Every test runs with a clean fake-device ledger and leaves the
process-default backend exactly as it found it — the suite runs inside
the same pytest session as the rest of tier 1, and a leaked
``select("fake")`` would silently re-route every later plan build.
"""

from __future__ import annotations

import pytest

import repro.backend as backend_mod


@pytest.fixture(autouse=True)
def _backend_hygiene():
    previous = backend_mod._default
    fake = backend_mod.get_backend("fake")
    fake.reset_counters()
    yield
    backend_mod._default = previous
    fake.reset_counters()


@pytest.fixture
def fake_backend():
    return backend_mod.get_backend("fake")


@pytest.fixture
def numpy_backend():
    return backend_mod.get_backend("numpy")
