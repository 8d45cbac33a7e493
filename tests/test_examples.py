"""Smoke tests: the runnable examples must stay runnable."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "bootstrap latency" in out
        assert "hoisted rotations" in out

    def test_functional_bootstrap(self):
        out = run_example("functional_bootstrap.py")
        assert "bootstrap error" in out
        assert "multiplies again" in out

    def test_aether_playground(self):
        out = run_example("aether_playground.py")
        assert "Methods Candidate Table" in out
        assert "method mix" in out

    @pytest.mark.slow
    def test_encrypted_logistic_regression(self):
        out = run_example("encrypted_logistic_regression.py")
        assert "final accuracy" in out

    @pytest.mark.slow
    def test_accelerator_design_space(self):
        out = run_example("accelerator_design_space.py")
        assert "datapath ablation" in out
