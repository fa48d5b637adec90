"""What the root of a stepped tree checks, and what the step driver returns.

Inside a stepped composite the leaves do not check their blocks: the root's
block check implies theirs. A bad block must still be rejected with the
typed error and the message a leaf-by-leaf walk gives, never a raw numpy
error. The messages below are pinned as the library printed them before
the leaves stepped over raw arrays.
"""

import numpy as np
import pytest

import seqstream as sl
from seqstream.sequence import ChannelSpec, Sequence
from seqstream.streaming import step_by_step

from conftest import build_spec
from test_step_plan import SPECS, assert_identical, reference_step, trees


def roots():
    cases = {name: build_spec(name) for name in SPECS}
    for name in ("unequal_latencies", "dropout"):  # a Parallel, and Residuals in a Serial
        layer, specs = trees()[name]
        cases[name] = (layer, specs[0])
    return cases


#: name -> (the bad-length block's time, its message, the wrong-channel message,
#: the int32 block's error message or None when it steps). A window's state
#: built for f32 refuses an int32 block as the aligning delay line does.
EXPECTED = {
    "conv_stack": (
        7,
        "conv_stack: step input time 7 is not a positive multiple of block_size 6",
        "conv1d_0: expected channel shape (3,), got (4,)",
        "cannot concatenate 2xi32[3] with 2xf32[3]",
    ),
    "streaming_encoder": (
        3,
        "streaming_encoder: step input time 3 is not a positive multiple of block_size 2",
        "feature_conv: expected channel shape (3,), got (4,)",
        "cannot concatenate 2xi32[3] with 2xf32[3]",
    ),
    "transformer_block": (
        0,
        "transformer_block: step input time 0 is not a positive multiple of block_size 1",
        "pre_norm: expected channel shape (32,), got (33,)",
        None,
    ),
    "mixed_resample": (
        3,
        "mixed_resample: step input time 3 is not a positive multiple of block_size 2",
        "conv1d_0: expected channel shape (3,), got (4,)",
        "cannot concatenate 2xi32[3] with 2xf32[3]",
    ),
    "unequal_latencies": (
        0,
        "parallel: step input time 0 is not a positive multiple of block_size 1",
        "conv1d: expected channel shape (3,), got (4,)",
        "cannot concatenate 2xi32[3] with 2xf32[3]",
    ),
    "dropout": (
        0,
        "serial: step input time 0 is not a positive multiple of block_size 1",
        "dense: expected final channel extent 3, got (4,)",
        None,
    ),
}


def block(time, shape, dtype):
    values = np.arange(2 * time * int(np.prod(shape))).reshape((2, time) + shape) % 5 - 2
    return Sequence.from_lengths(values.astype(dtype), [time, max(time - 1, 0)])


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_the_root_rejects_a_block_of_a_bad_length(name):
    layer, spec = roots()[name]
    time, message, _, _ = EXPECTED[name]
    state = layer.get_initial_state(2, spec, training=False)
    with pytest.raises(sl.BlockSizeError) as err:
        layer.step(block(time, spec.shape, spec.dtype), state, training=False)
    assert str(err.value) == message


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_a_block_with_the_wrong_channels_raises_the_leafs_typed_error(name):
    layer, spec = roots()[name]
    _, _, message, _ = EXPECTED[name]
    state = layer.get_initial_state(2, spec, training=False)
    shape = spec.shape[:-1] + (spec.shape[-1] + 1,)
    with pytest.raises(sl.SpecMismatchError) as err:
        layer.step(block(layer.block_size, shape, spec.dtype), state, training=False)
    assert str(err.value) == message


@pytest.mark.parametrize("mult", [1, 3])
@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_an_int32_block_into_a_float_spec_steps_as_the_tree_walk_does(name, mult):
    layer, spec = roots()[name]
    message = EXPECTED[name][3]
    x = block(layer.block_size * mult, spec.shape, np.int32)
    state = layer.get_initial_state(2, spec, training=False)
    if message is not None:
        with pytest.raises(sl.SpecMismatchError) as err:
            layer.step(x, state, training=False)
        assert str(err.value) == message
        return
    got = layer.step_with_emits(x, state, training=False)
    assert_identical(got, reference_step(layer, x, state, training=False))


WINDOWS = {
    "conv1d": lambda: sl.Conv1D(3, 2, 3, rng=np.random.default_rng(0)),
    "max_pooling": lambda: sl.MaxPooling1D(2, 2),
    "frame": lambda: sl.Frame(2, 1),
}


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_a_window_refuses_a_block_of_another_dtype_than_its_state(name):
    layer = WINDOWS[name]()
    x = block(layer.block_size, (3,), np.int32)
    state = layer.get_initial_state(2, ChannelSpec((3,)), training=False)
    with pytest.raises(sl.SpecMismatchError) as err:
        layer.step(x, state, training=False)
    assert str(err.value) == "cannot concatenate 2xi32[3] with 2xf32[3]"
    # a state built for the block's own spec steps it
    state = layer.get_initial_state(2, x.channel_spec, training=False)
    y, state = layer.step(x, state, training=False)
    assert y.channel_spec == layer.get_output_spec(x.channel_spec)
    assert state[0].dtype == np.int32


def empty_cases():
    rng = np.random.default_rng(1)
    dense = sl.Dense(3, 5, rng=rng)
    cases = {
        "dense": (dense, ChannelSpec((3,))),
        "dense_int32": (dense, ChannelSpec((3,), np.int32)),
        "strided_conv": (sl.Serial([sl.Conv1D(3, 4, 3, stride=2, rng=rng)]), ChannelSpec((3,))),
        "attention": (sl.DotProductSelfAttention(3, 2, 4, 2, 1, rng=rng), ChannelSpec((3,))),
    }
    cases.update({name: build_spec(name) for name in SPECS})
    return cases


@pytest.mark.parametrize("name", sorted(empty_cases()))
def test_an_empty_stream_has_the_layers_output_spec(name):
    layer, spec = empty_cases()[name]
    x = Sequence.from_values(np.zeros((2, 0) + spec.shape, spec.dtype))
    y = step_by_step(layer, x, training=False)
    assert y.channel_spec == layer.get_output_spec(spec)
    assert y.shape[:2] == (2, 0)
    z = layer.layer(x, training=False)
    assert (z.shape, z.channel_spec) == (y.shape, y.channel_spec)
