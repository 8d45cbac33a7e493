"""Shared fixtures: toy CKKS contexts and common objects.

Functional tests run scaled-down rings (N = 16..64) on 28-bit primes;
the structure (digit grouping, special primes, gadget digits)
matches the full-size sets.  Contexts are session-scoped — key
generation is the expensive part — and tests never mutate them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckks import CkksContext, toy_params
from repro.ckks.params import SET_I, SET_II


@pytest.fixture(scope="session")
def params32():
    return toy_params(ring_degree=32, max_level=4, alpha=2, prime_bits=28)


@pytest.fixture(scope="session")
def ctx32(params32):
    return CkksContext(params32, seed=1234)


@pytest.fixture(scope="session")
def params64():
    return toy_params(ring_degree=64, max_level=6, alpha=3, prime_bits=26,
                      scale_bits=26, klss_digit_bits=13)


@pytest.fixture(scope="session")
def ctx64(params64):
    return CkksContext(params64, seed=99)


@pytest.fixture(scope="session")
def set_i():
    return SET_I


@pytest.fixture(scope="session")
def set_ii():
    return SET_II


@pytest.fixture(scope="session")
def figure_data():
    """Each figure function EXPERIMENTS.md reads, run once per session
    (~2 s of simulation): ``{function: output}``."""
    from repro.analysis import figures
    return figures.figure_data()


@pytest.fixture(scope="session")
def experiments(figure_data):
    """Every EXPERIMENTS.md row evaluated on ``figure_data``."""
    from repro.analysis import figures
    return figures.evaluate(figure_data)


@pytest.fixture(scope="session")
def assert_rows(experiments):
    """``assert_rows(*prefixes)``: assert that every row whose artefact
    starts with one of ``prefixes`` holds its band; returns them."""
    def check(*prefixes):
        results = [r for r in experiments
                   if r.row.artefact.startswith(prefixes)]
        assert results, prefixes
        for result in results:
            assert result.holds, f"{result.row.artefact}: {result.verdict}"
        return results
    return check


@pytest.fixture()
def rng():
    return np.random.default_rng(2024)


def slot_vector(num_slots: int, length: int, rng=None, complex_vals=False):
    """A repeating message vector compatible with the packing rules."""
    if rng is None:
        rng = np.random.default_rng(0)
    base = rng.uniform(-2, 2, length)
    if complex_vals:
        base = base + 1j * rng.uniform(-2, 2, length)
    return np.tile(base, num_slots // length), base


# -- the two butterflies under the limb-batch NTT --------------------------
# Tests run on whatever this host has (the compiled kernel where a C
# compiler exists).  ``ufunc_ntt`` is the host without one; the
# ``...Ufunc`` subclasses in tests/ckks rerun the exactness suites
# under it, so both butterflies are covered on one machine.

@pytest.fixture()
def ufunc_ntt(monkeypatch):
    """The loader finds no kernel: batch plans built inside the test
    run ``FusedNttEngine``.  Cached batch plans are dropped on both
    sides, so none built on one butterfly is served to the other."""
    from repro.backend import native
    from repro.ckks.ntt import clear_batch_plan_cache

    monkeypatch.setattr(native, "load", lambda: None)
    clear_batch_plan_cache()
    yield
    clear_batch_plan_cache()


@pytest.fixture()
def compiled_ntt():
    """The loaded kernel; skips where this host cannot build one."""
    from repro.backend import native

    kernel, info = native.probe()
    if kernel is None:
        pytest.skip("no compiled NTT kernel: " + info["reason"])
    return kernel
