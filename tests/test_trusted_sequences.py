"""Every Sequence the library builds is read-only and of a supported dtype.

Library code builds its own sequences with the trusted ``Sequence._wrap``,
which checks nothing; these tests hold its contract over the bundled specs
and a catalog of layers, and pin that the public constructor still copies.
"""

from pathlib import Path

import numpy as np
import pytest

import seqstream as sl
from seqstream import pipeline, tensor
from seqstream.sequence import ChannelSpec, Sequence
from seqstream.streaming import step_by_step

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
BUNDLED = sorted(p.stem for p in SPEC_DIR.glob("*.yaml") if p.stem != "sabotage_rf")

F32, I32, BOOL = ChannelSpec((3,)), ChannelSpec((3,), np.int32), ChannelSpec((3,), bool)


def catalog():
    rng = np.random.default_rng(3)
    return [
        (sl.Identity(), (F32, I32, BOOL)),
        (sl.Dense(3, 2, rng=rng), (F32, I32, BOOL)),
        (sl.Scale(0.5), (F32, I32, BOOL)),
        (sl.Add(1.5), (F32, I32, BOOL)),
        (sl.Softmax(), (F32,)),
        (sl.LayerNormalization(3, rng=rng), (F32, I32)),
        (sl.RMSNormalization(3, rng=rng), (F32, I32)),
        (sl.Dropout(0.3, seed=1), (F32,)),
        (sl.Conv1D(3, 2, 3, stride=2, padding="same", rng=rng), (F32,)),
        (sl.Conv1DTranspose(3, 2, 5, stride=2, padding="same", rng=rng), (F32, I32, BOOL)),
        (sl.MaxPooling1D(3, stride=2, padding="same"), (F32, I32)),
        (sl.AveragePooling1D(2), (F32, I32, BOOL)),
        (sl.Frame(4, 2), (F32, I32, BOOL)),
        (sl.OverlapAdd(3, 1), (F32, I32)),
        (sl.Downsample1D(2), (F32, I32, BOOL)),
        (sl.Upsample1D(2), (F32, I32, BOOL)),
        (sl.Delay(2), (F32, I32, BOOL)),
        (sl.StepDelay(2), (F32, I32, BOOL)),
        (sl.Lookahead(2), (F32, I32, BOOL)),
        (sl.LSTM(3, 2, rng=rng), (F32, I32, BOOL)),
        (sl.DotProductSelfAttention(3, 2, 2, 4, 1, rng=rng), (F32,)),
        (sl.Parallel([sl.Delay(1), sl.Lookahead(1)], combine="mean"), (F32, I32)),
        (sl.Residual(sl.Conv1D(3, 3, 2, rng=rng)), (F32,)),
        # float32 leaves over integer input: the next layer's state must be float32
        (sl.Serial([sl.AveragePooling1D(2), sl.Delay(1)]), (I32,)),
        (sl.Serial([sl.AveragePooling1D(2), sl.MaxPooling1D(2)]), (I32,)),
        (sl.Serial([sl.Dense(3, 3, rng=rng), sl.Delay(1)]), (I32,)),
        (sl.Serial([sl.Add(1.5), sl.Lookahead(1), sl.Delay(2)]), (I32, BOOL)),
        # mod promotes bool to int32: the pooling's state must be int32
        (sl.Pointwise("mod", 2), (BOOL,)),
        (sl.Serial([sl.Pointwise("mod", 2), sl.MaxPooling1D(2)], name="mod_max_pool"), (BOOL,)),
    ]


CASES = [
    pytest.param(layer, spec, id=f"{layer.name}-{spec}")
    for layer, specs in catalog()
    for spec in specs
]


def make_input(spec, batch=3, time=13):
    rng = np.random.default_rng(11)
    shape = (batch, time) + spec.shape
    if spec.dtype == tensor.FLOAT32:
        values = rng.standard_normal(shape).astype(np.float32)
    elif spec.dtype == tensor.INT32:
        values = rng.integers(-5, 6, shape).astype(np.int32)
    else:
        values = rng.integers(0, 2, shape).astype(bool)
    return Sequence.from_lengths(values, [time, time - 4, 2])


def assert_trusted(s: Sequence, where):
    assert s.dtype in tensor.DTYPES, (where, s.dtype)
    assert not s.values.flags.writeable, where
    assert not s.mask.flags.writeable, where
    assert s.mask.dtype == tensor.BOOL and s.mask.shape == s.shape[:2], where


def assert_layer_and_steps_trusted(layer, x):
    for training in (False, True):
        assert_trusted(layer.layer(x, training=training), "layer")
        for mult in (1, 3):
            block = layer.block_size * mult
            assert_trusted(step_by_step(layer, x, training=training, block=block), "step_by_step")
        state = layer.get_initial_state(x.batch_size, x.channel_spec, training=training)
        padded = x.pad_time(0, -x.time % layer.block_size, valid=False)
        for start in range(0, padded.time, layer.block_size):
            block = padded.slice_time(start, start + layer.block_size)
            y, state, emits = layer.step_with_emits(block, state, training=training)
            # a state holds no Sequence; an emit map holds one per tap
            for i, s in enumerate([y, *emits.values()]):
                assert_trusted(s, f"step at {start}, sequence {i}")


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_spec_sequences_are_frozen_and_canonical(name):
    node, input_spec = pipeline.load_spec_file(SPEC_DIR / f"{name}.yaml")
    layer = pipeline.build(node, input_spec, seed=0)
    assert_layer_and_steps_trusted(layer, make_input(input_spec, time=29))


@pytest.mark.parametrize("layer, spec", CASES)
def test_catalog_sequences_are_frozen_and_canonical(layer, spec):
    assert_layer_and_steps_trusted(layer, make_input(spec))


@pytest.mark.parametrize("layer, spec", CASES)
def test_layer_and_steps_return_the_declared_dtype(layer, spec):
    x = make_input(spec)
    dtypes = {layer.get_output_spec(spec).dtype, layer.layer(x, training=False).dtype}
    for mult in (1, 3):
        dtypes.add(step_by_step(layer, x, training=False, block=layer.block_size * mult).dtype)
    assert len(dtypes) == 1, dtypes


@pytest.mark.parametrize(
    "body", [sl.AveragePooling1D(3), sl.Dense(3, 3)], ids=lambda layer: layer.name
)
def test_residual_over_a_float_body_promotes_an_int_input(body):
    # the branches are int32 and float32: their sum is promoted, then
    # canonicalized to float32, in layer() and step() alike
    layer = sl.Residual(body)
    x = make_input(I32)
    assert_layer_and_steps_trusted(layer, x)
    y = layer.layer(x, training=False)
    assert y.dtype == tensor.FLOAT32
    for mult in (1, 3):
        s = step_by_step(layer, x, training=False, block=layer.block_size * mult)
        assert s.dtype == tensor.FLOAT32
        np.testing.assert_array_equal(s.mask, y.mask)
        np.testing.assert_array_equal(s.values[s.mask], y.values[y.mask])


@pytest.mark.parametrize("mode", ["add", "concat"])
def test_conditioning_declares_the_promoted_dtype(mode):
    x = make_input(I32)
    cond = make_input(F32)
    layer = sl.Conditioning("c", mode=mode)
    constants = {"c": cond}
    declared = layer.get_output_spec(x.channel_spec, constants)
    assert declared.dtype == tensor.FLOAT32
    assert layer.layer(x, training=False, constants=constants).channel_spec == declared


@pytest.mark.parametrize(
    "layer", [sl.Lookahead(2), sl.Delay(2), sl.Downsample1D(2)], ids=lambda layer: layer.name
)
@pytest.mark.parametrize("spec", [F32, I32, BOOL], ids=str)
def test_step_output_keeps_the_layer_output_dtype(layer, spec):
    x = make_input(spec)
    expected = spec.dtype
    assert layer.layer(x, training=False).dtype == expected
    assert step_by_step(layer, x, training=False).dtype == expected


def test_public_constructor_copies_a_writeable_array():
    values = np.zeros((1, 3, 2), np.float32)
    mask = np.ones((1, 3), bool)
    s = Sequence(values, mask)
    assert values.flags.writeable and mask.flags.writeable
    values[0, 0, 0] = 5.0
    mask[0, 0] = False
    assert s.values[0, 0, 0] == 0.0 and s.mask[0, 0]
    assert not s.values.flags.writeable and not s.mask.flags.writeable


def test_public_constructor_copies_a_read_only_view_of_a_writeable_array():
    arr = np.zeros((1, 3, 2), np.float32)
    view = arr.view()
    view.flags.writeable = False
    s = Sequence(view, np.ones((1, 3), bool))
    arr[0, 0, 0] = 7.0
    assert s.values[0, 0, 0] == 0.0


def test_public_constructor_shares_a_view_of_a_frozen_array():
    frozen = tensor.freeze(np.zeros((1, 3, 2), np.float32))
    view = frozen[:, 1:]
    assert Sequence(view, np.ones((1, 2), bool)).values is view


def test_public_constructor_still_validates():
    with pytest.raises(sl.ShapeMismatchError):
        Sequence(np.zeros(3, np.float32), np.ones(3, bool))
    with pytest.raises(sl.ShapeMismatchError):
        Sequence(np.zeros((2, 3), np.float32), np.ones((2, 4), bool))
    with pytest.raises(TypeError):
        Sequence(np.zeros((2, 3), np.float32), np.ones((2, 3), np.int32))
    assert Sequence(np.zeros((1, 2), np.float64), np.ones((1, 2), bool)).dtype == tensor.FLOAT32


@pytest.mark.parametrize("index", [0, np.zeros((1, 1), int)], ids=["scalar", "2-D"])
def test_batch_index_must_keep_the_batch_axis(index):
    s = make_input(F32)
    with pytest.raises(sl.ShapeMismatchError):
        s.take_batch(index)
    with pytest.raises(sl.ShapeMismatchError):
        s[index, :]
