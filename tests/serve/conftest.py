"""Serving tests fail on a dropped task or a never-awaited coroutine.

Both surface only as warnings (an unraisable exception in a
finaliser, a ``RuntimeWarning``), so every test under this directory
turns them into errors.
"""

from pathlib import Path

import pytest

HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings(
                "error::pytest.PytestUnraisableExceptionWarning"))
            item.add_marker(pytest.mark.filterwarnings(
                "error::RuntimeWarning"))
