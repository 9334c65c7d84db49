"""Shared fixtures: the 40-digit reference table and its generator."""

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def reference() -> dict:
    """``tests/data/reference.json``, written by ``tests/data/make_reference.py``."""
    return json.loads((DATA / "reference.json").read_text())


@pytest.fixture(scope="session")
def make_reference():
    """The table's generator module; skips the test when mpmath is absent."""
    pytest.importorskip("mpmath")
    spec = importlib.util.spec_from_file_location("make_reference", DATA / "make_reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
