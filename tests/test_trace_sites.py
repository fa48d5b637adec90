"""Every library attribute the benchmark's tracer wraps must still exist.

``perfbench/tracer.py`` replaces these attributes by name while a traced run
is installed; a renamed or removed one makes the traced benchmark crash. The
tracer module is only imported here, never installed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from seqstream import sequence, tensor

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def wrapped_sites(tracer):
    sites = list(tracer.DRIVER_SITES) + list(tracer.RF_MAP_SITES)
    return sites + [(tensor, "tensor"), (sequence.Sequence, "__init__")]


def test_every_wrapped_attribute_exists(tracer):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name in wrapped_sites(tracer)
        if not callable(getattr(owner, name, None))
    ]
    assert not missing, missing

