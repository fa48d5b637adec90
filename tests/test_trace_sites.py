"""The benchmark's tracer still sees what it wraps.

``perfbench/tracer.py`` replaces library attributes by name while a traced
run is installed; a renamed or removed one makes the traced benchmark crash.
It also wraps each node's public methods, so a composite must reach its
leaves through their attributes at call time. The tracer is used as it is:
these tests only import and install it.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import seqstream as sl
from seqstream import sequence, tensor
from seqstream.sequence import Sequence
from seqstream.streaming import _flushed, step_by_step

from conftest import build_spec

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



def leaf_paths(tracer, root):
    return [path for path, node in tracer.walk(root) if not node.children]


@pytest.mark.parametrize("name", ["conv_stack", "transformer_block"])
def test_traced_steps_reach_every_leaf(tracer, name):
    layer, spec = build_spec(name)
    rng = np.random.default_rng(4)
    x = Sequence.from_lengths(
        rng.standard_normal((2, 8 * layer.block_size) + spec.shape).astype(np.float32),
        [8 * layer.block_size, 5 * layer.block_size],
    )
    # the first, untraced run builds the step plan before the tracer wraps anything
    untraced = step_by_step(layer, x, training=False)
    tr, stats = tracer.Tracer(), tracer.Stats()
    with tr.installed([layer]), tr.collect(stats):
        traced = step_by_step(layer, x, training=False)
    after = step_by_step(layer, x, training=False)
    root_calls = stats.nodes[layer.name].calls["step"]
    assert root_calls == x.time // layer.block_size
    for path in leaf_paths(tracer, layer):
        assert stats.nodes[path].calls["step"] == root_calls, path
    for y in (traced, after):
        assert y.values.tobytes() == untraced.values.tobytes()
        assert np.array_equal(y.mask, untraced.mask)


def test_traced_steps_tap_the_same_emits(tracer):
    """Under the tracer every leaf is stepped through its public method, taps
    included; the emits keep their paths and bits."""
    rng = np.random.default_rng(5)
    layer = sl.Serial(
        [
            sl.Dense(3, 3, rng=rng),
            sl.Residual([sl.Emit(), sl.Conv1D(3, 3, 3, padding="same", rng=rng)]),
            sl.Emit(name="last"),
        ]
    )
    x = Sequence.from_lengths(rng.standard_normal((2, 9, 3)).astype(np.float32), [9, 6])
    _, _, untraced = _flushed(layer, x, training=False)
    tr, stats = tracer.Tracer(), tracer.Stats()
    with tr.installed([layer]), tr.collect(stats):
        _, _, traced = _flushed(layer, x, training=False)
    assert stats.nodes["serial/last"].calls["step"] == stats.nodes["serial"].calls["step"]
    assert list(untraced) == list(traced) == ["serial/residual/body/emit", "serial/last"]
    for path, tap in untraced.items():
        assert tap.values.tobytes() == traced[path].values.tobytes(), path
        assert np.array_equal(tap.mask, traced[path].mask), path
