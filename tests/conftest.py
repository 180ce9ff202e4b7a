import importlib.util
import json
import pathlib

import pytest

_DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def reference():
    """Frozen oracle values; see tests/data/make_reference.py for provenance."""
    with open(_DATA / "reference.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="session")
def make_reference():
    """The oracle module tests/data/make_reference.py (needs mpmath)."""
    spec = importlib.util.spec_from_file_location("make_reference", _DATA / "make_reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
