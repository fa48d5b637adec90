"""A composite steps its library leaves through their array kernels.

The plan calls each leaf's ``_step_arrays`` on raw arrays; a leaf's public
``step``, its ``layer()`` and its output spec are derived from the same
kernel. These tests hold the routes to the same bits and the same typed
errors, pin when the plan must leave the kernel route (a ``step`` set on the
leaf itself), and keep a leaf without a kernel, or a second copy of a
kernel's math or of its output spec, from coming back.
"""

import inspect

import numpy as np
import pytest

import seqstream as sl
from seqstream import tensor
from seqstream.combinators import Bidirectional, _Composite
from seqstream.layer import SequenceLayer
from seqstream.sequence import ChannelSpec, Sequence
from seqstream.streaming import step_by_step, stream_blocks

from test_step_plan import F32, assert_identical
from test_trusted_sequences import BOOL, CASES, I32, make_input


def arrays_in(tree):
    """Every array in a state tree, which holds plain arrays and no Sequence."""
    assert not isinstance(tree, Sequence), "a step state holds a Sequence"
    if isinstance(tree, np.ndarray):
        yield tree
    elif isinstance(tree, (tuple, list)):
        for part in tree:
            yield from arrays_in(part)
    elif isinstance(tree, dict):
        for part in tree.values():
            yield from arrays_in(part)


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("mult", [1, 3])
@pytest.mark.parametrize("layer, spec", CASES)
def test_the_plan_steps_a_leaf_as_its_public_step_does(layer, spec, mult, training):
    root = sl.Serial([layer])
    x = make_input(spec)
    block = layer.block_size * mult
    x = x.pad_time(0, -x.time % block, valid=False)
    state = layer.get_initial_state(x.batch_size, spec, training=training)
    root_state = root.get_initial_state(x.batch_size, spec, training=training)
    # a state's arrays are read-only from the first, the initial state's too
    for i, a in enumerate(arrays_in((state, root_state))):
        assert not a.flags.writeable, ("initial", i)
    for start in range(0, x.time, block):
        chunk = x.slice_time(start, start + block)
        y, state = layer.step(chunk, state, training=training)
        z, root_state = root.step(chunk, root_state, training=training)
        # a composite's state is its run of slots in the root's, here all of them
        own = root_state if isinstance(layer, _Composite) else root_state[0]
        assert_identical((z, own), (y, state), f"step at {start}")
        for i, a in enumerate(arrays_in((state, root_state))):
            assert not a.flags.writeable, (start, i)
    # a leaf op is (leaf, slot, src, kernel, zeroes, attrs, parent): every one runs its kernel
    no_kernel = [op[0] for op in root._plan.ops if op[0] is not None and op[3] is None]
    assert no_kernel == [], no_kernel


def wrapped_leaf_tree():
    rng = np.random.default_rng(2)
    conv = sl.Conv1D(3, 3, 3, padding="same", rng=rng)
    dense = sl.Dense(3, 3, rng=rng)
    return sl.Residual([dense, conv, sl.Lookahead(1)]), {"conv1d": conv, "dense": dense}


@pytest.mark.parametrize("name", ["conv1d", "dense"])
def test_a_step_set_on_a_leaf_after_the_plan_is_built_is_called_per_block(name):
    layer, leaves = wrapped_leaf_tree()
    x = make_input(F32, time=12)
    plain = stream_blocks(layer, x, training=False)  # builds the plan
    leaf = leaves[name]
    step, calls = leaf.step, []

    def counting(*args, **kwargs):
        calls.append(args[0].time)
        return step(*args, **kwargs)

    leaf.step = counting
    try:
        wrapped = stream_blocks(layer, x, training=False)
    finally:
        del leaf.step
    assert calls == [layer.block_size] * (x.time // layer.block_size)
    assert_identical(wrapped, plain)
    assert_identical(stream_blocks(layer, x, training=False), plain)


def library_layer_classes(sabotage=False):
    found, todo = [], [SequenceLayer]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__.startswith("seqstream.") and (
            sabotage or cls.__module__ != "seqstream.sabotage"
        ):
            found.append(cls)
    return found


def test_every_library_leaf_is_its_kernel():
    # public leaves: composites and Bidirectional are built from other layers
    # and have no kernel of their own
    leaves = [
        cls for cls in library_layer_classes()
        if cls is not SequenceLayer and not cls.__name__.startswith("_")
        and not issubclass(cls, (_Composite, Bidirectional))
    ]
    names = {cls.__name__ for cls in leaves}
    assert {"Dense", "Emit", "Identity", "Reshape", "Window", "Conv1D", "LSTM"} <= names
    assert "StepDelay" in names
    no_kernel = sorted(
        cls.__name__ for cls in leaves if cls._step_arrays is SequenceLayer._step_arrays
    )
    own_step = sorted(cls.__name__ for cls in leaves if cls.step is not SequenceLayer.step)
    own_layer = sorted(cls.__name__ for cls in leaves if cls.layer is not SequenceLayer.layer)
    assert (no_kernel, own_step, own_layer) == ([], [], [])
    # every layer's spec is what its layer() returns, composites and sabotage
    # fixtures included; Serial's fold is what its layer() runs (Blockwise's
    # layer() over an empty stream asks for it), and Repeat adds its check
    own_spec = sorted(
        cls.__name__ for cls in library_layer_classes(sabotage=True)
        if "get_output_spec" in vars(cls) and cls is not SequenceLayer
    )
    assert own_spec == ["Repeat", "Serial"]


def three_channel_leaves():
    rng = np.random.default_rng(5)
    return [
        sl.Dense(3, 2, rng=rng),
        sl.LayerNormalization(3, rng=rng),
        sl.RMSNormalization(3, rng=rng),
        sl.Conv1D(3, 2, 3, rng=rng),
        sl.Conv1DTranspose(3, 2, 3, stride=2, rng=rng),
        sl.LSTM(3, 2, rng=rng),
        sl.DotProductSelfAttention(3, 2, 2, rng=rng),
        sl.OverlapAdd(3, 1),
    ]


@pytest.mark.parametrize("layer", three_channel_leaves(), ids=lambda layer: layer.name)
def test_a_wrong_channel_input_raises_one_typed_error_in_both_modes(layer):
    x = make_input(ChannelSpec((4,)), time=6)
    with pytest.raises(sl.SpecMismatchError) as layer_err:
        layer.layer(x, training=False)
    with pytest.raises(sl.SpecMismatchError) as step_err:
        step_by_step(layer, x, training=False)
    with pytest.raises(sl.SpecMismatchError) as spec_err:
        layer.get_output_spec(x.channel_spec)
    assert str(layer_err.value) == str(step_err.value) == str(spec_err.value)


@pytest.mark.parametrize(
    "layer, spec",
    [
        (sl.Softmax(), I32),
        (sl.Softmax(), BOOL),
        (sl.MaxPooling1D(2), BOOL),
        (sl.MinPooling1D(2), BOOL),
    ],
    ids=lambda p: p.name if isinstance(p, SequenceLayer) else str(p),
)
def test_a_wrong_dtype_input_raises_one_typed_error_in_both_modes(layer, spec):
    x = make_input(spec)
    with pytest.raises(sl.SpecMismatchError) as layer_err:
        layer.layer(x, training=False)
    with pytest.raises(sl.SpecMismatchError) as step_err:
        step_by_step(layer, x, training=False)
    with pytest.raises(sl.SpecMismatchError) as spec_err:
        layer.get_output_spec(spec)
    assert str(layer_err.value) == str(step_err.value) == str(spec_err.value)
    assert str(spec_err.value).startswith(f"{layer.name}: ")
    assert str(spec_err.value).endswith(f"got {spec.dtype}")


def test_every_kernel_takes_values_mask_and_state_and_nothing_more():
    # no flag about the input's invalid steps may ride along a kernel again
    expected = ["self", "values", "mask", "state", "training", "constants"]
    kernels = {
        cls.__qualname__: list(inspect.signature(vars(cls)["_step_arrays"]).parameters)
        for cls in library_layer_classes(sabotage=True)
        if "_step_arrays" in vars(cls)
    }
    assert {"SequenceLayer", "Dense", "_WindowedLayer", "LSTM", "StepDelay"} <= kernels.keys()
    assert {name: params for name, params in kernels.items() if params != expected} == {}


@pytest.mark.parametrize("spec", [ChannelSpec((4,)), ChannelSpec((4,), np.int32)], ids=str)
def test_fresh_kernel_results_skip_the_validating_copy(monkeypatch, spec):
    """``Scale``, ``Add``, ``Pointwise`` and ``Window`` return the arrays they
    just computed, cast only when numpy promoted them past the three dtypes."""
    layer = sl.Serial([sl.Scale(0.5), sl.Add(1.5), sl.Pointwise("gelu"), sl.Window("hann", 0)])
    x = make_input(spec)

    def run():
        steps = (stream_blocks(layer, x, training=False, block=b)[0] for b in (1, 3))
        return (layer.layer(x, training=False), *steps)

    want = run()

    def refuse(*args, **kwargs):
        raise AssertionError("a kernel's fresh result went through tensor.tensor")

    monkeypatch.setattr(tensor, "tensor", refuse)
    got = run()
    assert_identical(got, want)
    assert got[0].dtype == np.float32
