"""The core execution contract: the block protocol, state threading, the
flush/trim handshake for lookahead layers, and layer metadata."""

import copy
import functools
import inspect

import numpy as np
import pytest
from fractions import Fraction

import seqstream as sl
from seqstream.layer import check_metadata
from seqstream.sequence import ChannelSpec, Sequence
from seqstream.streaming import step_by_step, stream_blocks

from conftest import assert_sequences_close, random_sequence
from test_step_kernels import library_layer_classes
from test_step_plan import assert_identical


def _state_arrays(state, path=()):
    """Every array a step state holds, keyed by its path into the state."""
    if isinstance(state, dict):
        parts = state.items()
    elif isinstance(state, tuple):
        parts = enumerate(state)
    else:
        return {path: state}
    return {k: v for key, part in parts for k, v in _state_arrays(part, path + (key,)).items()}


class TestBlockProtocol:
    def test_stepwise_blocks_reassemble_to_layer_output(self, rng):
        """A basic streaming session: init state, step fixed blocks, concat."""
        model = sl.Conv1D(3, 5, 3, padding="causal", rng=rng)
        x = random_sequence(0, 2, 6, 3)
        y = model.layer(x, training=True)
        state = model.get_initial_state(2, x.channel_spec, training=True)
        pieces = []
        for start in range(0, 6, 2):
            piece, state = model.step(x[:, start : start + 2], state, training=True)
            pieces.append(piece)
        y_step = Sequence.concatenate_sequences(pieces)
        np.testing.assert_array_equal(np.asarray(y.values), np.asarray(y_step.values))
        np.testing.assert_array_equal(np.asarray(y.mask), np.asarray(y_step.mask))

    def test_identity_blocks_of_one_return_slices(self):
        model = sl.Identity()
        x = random_sequence(1, 2, 4, 3)
        state = model.get_initial_state(2, x.channel_spec, training=False)
        for t in range(4):
            piece, state = model.step(x[:, t : t + 1], state, training=False)
            np.testing.assert_array_equal(
                np.asarray(piece.values), np.asarray(x.values)[:, t : t + 1]
            )

    def test_double_block_equals_two_single_blocks(self, rng):
        model = sl.Conv1D(3, 4, 3, stride=2, padding="causal", rng=rng)
        x = random_sequence(2, 2, 8, 3)
        single = step_by_step(model, x, training=False, block=2)
        double = step_by_step(model, x, training=False, block=4)
        assert_sequences_close(single, double, atol=0)

    def test_non_multiple_block_rejected(self, rng):
        model = sl.Downsample1D(3)
        x = random_sequence(3, 2, 4, 2)
        state = model.get_initial_state(2, x.channel_spec, training=False)
        with pytest.raises(sl.BlockSizeError, match="4.*3"):
            model.step(x, state, training=False)


class TestLatencyProtocol:
    def test_lookahead_conv_flush_and_trim(self, rng):
        """Flush with input_latency invalid steps, drop output_latency outputs."""
        model = sl.Conv1D(3, 3, 5, padding="reverse_causal", rng=rng)
        x = Sequence.from_values(
            np.random.default_rng(9).uniform(-0.5, 0.5, (2, 24, 3)).astype(np.float32)
        )
        y = model.layer(x, training=False)

        assert model.input_latency == 4
        assert model.output_latency == 4

        x_padded = x.pad_time(0, model.input_latency, valid=False)
        y_step, _, _ = stream_blocks(model, x_padded, training=False)
        y_step = y_step[:, model.output_latency :]

        np.testing.assert_array_equal(np.asarray(y.values), np.asarray(y_step.values))
        np.testing.assert_array_equal(np.asarray(y.mask), np.asarray(y_step.mask))

    def test_step_by_step_handles_protocol_internally(self, rng):
        model = sl.Conv1D(3, 3, 5, padding="reverse_causal", rng=rng)
        x = random_sequence(4, 2, 24, 3, lengths=[24, 17])
        assert_sequences_close(
            model.layer(x, training=False), step_by_step(model, x, training=False), atol=0
        )

    def test_unflushed_stream_emits_leading_invalid(self, rng):
        model = sl.Conv1D(3, 3, 5, padding="reverse_causal", rng=rng)
        x = random_sequence(5, 2, 8, 3)
        raw, _, _ = stream_blocks(model, x, training=False)
        assert not np.asarray(raw.mask)[:, :4].any()


class TestStateAndSpecs:
    def test_stateless_layer_state_is_empty(self, rng):
        assert sl.Dense(3, 4, rng=rng).get_initial_state(
            2, ChannelSpec((3,)), training=False
        ) == ()

    def test_output_spec_examples(self, rng):
        assert sl.Dense(3, 5, rng=rng).get_output_spec(ChannelSpec((3,))) == ChannelSpec((5,))
        conv = sl.Conv1D(3, 8, 5, rng=rng)
        assert conv.get_output_spec(ChannelSpec((3,))) == ChannelSpec((8,))
        assert sl.Flatten().get_output_spec(ChannelSpec((2, 3))) == ChannelSpec((6,))

    def test_training_is_keyword_only_everywhere(self, rng):
        model = sl.Dense(3, 4, rng=rng)
        x = random_sequence(6, 1, 2, 3)
        with pytest.raises(TypeError):
            model.layer(x, True)
        with pytest.raises(TypeError):
            model.get_initial_state(1, x.channel_spec, True)

    @pytest.mark.parametrize(
        "make,channels",
        [
            pytest.param(lambda rng: sl.LSTM(3, 4, rng=rng), (3,), id="lstm"),
            pytest.param(
                lambda rng: sl.DotProductSelfAttention(3, 2, 2, max_past_horizon=3, rng=rng),
                (3,),
                id="attention_bounded",
            ),
            pytest.param(
                lambda rng: sl.DotProductSelfAttention(3, 2, 2, max_past_horizon=-1, rng=rng),
                (3,),
                id="attention_unbounded",
            ),
            pytest.param(
                lambda rng: sl.DotProductSelfAttention(
                    3, 2, 2, max_past_horizon=2, max_future_horizon=2, rng=rng
                ),
                (3,),
                id="attention_future",
            ),
            pytest.param(
                lambda rng: sl.Conv1DTranspose(3, 2, 6, stride=4, padding="same", rng=rng),
                (3,),
                id="conv1d_transpose",
            ),
            # frame length not a multiple of the hop: a partial last tap group
            pytest.param(lambda rng: sl.OverlapAdd(5, 2), (5, 3), id="overlap_add"),
        ],
    )
    def test_layers_never_mutate_caller_state(self, rng, make, channels):
        model = make(rng)
        x = random_sequence(7, 2, 4, channels, lengths=[4, 3])
        state = model.get_initial_state(2, x.channel_spec, training=False)
        for _ in range(2):  # the second step starts from a state the first one built
            snapshot = {k: np.array(v) for k, v in _state_arrays(state).items()}
            _, next_state = model.step(x, state, training=False)
            for key, value in _state_arrays(state).items():
                np.testing.assert_array_equal(value, snapshot[key])
            state = next_state


#: leaves and a composite whose step state keeps a history of past steps
STEPPED_TWICE = {
    "conv1d": lambda rng: sl.Conv1D(3, 2, 3, padding="same", rng=rng),
    "max_pooling": lambda rng: sl.MaxPooling1D(2, 2),
    "frame": lambda rng: sl.Frame(3, 1),
    "conv1d_transpose": lambda rng: sl.Conv1DTranspose(3, 2, 6, stride=4, padding="same", rng=rng),
    "delay": lambda rng: sl.Delay(2),
    "step_delay": lambda rng: sl.StepDelay(3),
    "attention_bounded": lambda rng: sl.DotProductSelfAttention(3, 2, 2, 3, 2, rng=rng),
    "attention_unbounded": lambda rng: sl.DotProductSelfAttention(3, 2, 2, -1, 1, rng=rng),
    "unequal_latencies": lambda rng: sl.Parallel(
        [sl.Conv1D(3, 3, 3, padding="same", rng=rng), sl.Identity(), sl.Lookahead(2)],
        combine="add",
    ),
}


@pytest.mark.parametrize("name", sorted(STEPPED_TWICE))
def test_stepping_one_state_twice_gives_what_a_fresh_copy_gives(name):
    """A state stays a value: stepping it once must not change what a second
    step from it returns."""
    model = STEPPED_TWICE[name](np.random.default_rng(4))
    time = 2 * model.block_size
    first, a, b = (random_sequence(seed, 2, time, 3) for seed in (1, 2, 3))
    state = model.get_initial_state(2, first.channel_spec, training=False)
    _, state = model.step(first, state, training=False)
    fresh = copy.deepcopy(state)
    model.step(a, state, training=False)
    got = model.step(b, state, training=False)
    assert_identical(got, model.step(b, fresh, training=False))


def stub_layer(**metadata):
    """A layer whose metadata are the given class attributes."""
    return type("Stub", (sl.SequenceLayer,), metadata)()


METADATA = (
    "output_ratio",
    "block_size",
    "input_latency",
    "output_latency",
    "receptive_field_per_step",
    "supports_step",
    "is_stochastic",
)


class TestLayerProperties:
    def test_metadata_is_data(self):
        # layers are immutable, so each sets its metadata once in __init__
        # (or as a class attribute) and none re-derives it on access
        classes = library_layer_classes(sabotage=True)
        names = {cls.__name__ for cls in classes}
        assert {"Serial", "Blockwise", "Bidirectional", "StepDelay", "WrongRatioIdentity"} <= names
        derived = sorted(
            f"{cls.__name__}.{name}"
            for cls in classes
            for name in METADATA
            if isinstance(
                inspect.getattr_static(cls, name), (property, functools.cached_property)
            )
        )
        assert derived == []
        with pytest.raises(TypeError):
            sl.SequenceLayer.receptive_field_per_step[1] = (0, 0)

    def test_block_size_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            check_metadata(stub_layer(output_ratio=Fraction(1, 2), block_size=3))

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError, match="latencies"):
            check_metadata(stub_layer(input_latency=-1))

    def test_overall_rf_is_union_of_per_step(self):
        layer = stub_layer(output_ratio=Fraction(2), receptive_field_per_step={0: (-1, 0), 1: None})
        check_metadata(layer)
        assert layer.receptive_field == (-1, 0)

    def test_four_stacked_same_convs(self, rng):
        model = sl.Serial([sl.Conv1D(3, 3, 5, padding="same", rng=rng) for _ in range(4)] )
        assert model.receptive_field == (-8, 8)


class TestEmitsApi:
    def test_layer_with_emits_matches_layer(self, rng):
        model = sl.Serial([sl.Dense(3, 4, rng=rng), sl.Emit(), sl.Dense(4, 2, rng=rng)])
        x = random_sequence(8, 2, 6, 3)
        y = model.layer(x, training=False)
        y2, emits = model.layer_with_emits(x, training=False)
        np.testing.assert_array_equal(np.asarray(y.values), np.asarray(y2.values))
        assert list(emits) == ["serial/emit"]
        assert isinstance(emits["serial/emit"], Sequence)
        assert emits["serial/emit"].channel_shape == (4,)

    def test_serial_emits_match_manual_run(self, rng):
        a = sl.Dense(3, 4, rng=rng)
        model = sl.Serial([a, sl.Emit()])
        x = random_sequence(9, 2, 6, 3)
        _, emits = model.layer_with_emits(x, training=False)
        manual = a.layer(x, training=False)
        np.testing.assert_array_equal(
            np.asarray(emits["serial/emit"].values), np.asarray(manual.values)
        )

    def test_step_emits_concatenate(self, rng):
        model = sl.Emit()
        x = random_sequence(10, 2, 6, 3)
        _, _, emits = stream_blocks(model, x, training=False, block=2)
        np.testing.assert_array_equal(np.asarray(emits["emit"].values), np.asarray(x.values))


@pytest.mark.parametrize("width", [0, -1])
@pytest.mark.parametrize(
    "make, field",
    [
        (lambda w: sl.Conv1D(3, w, 3), "filters"),
        (lambda w: sl.Conv1DTranspose(3, w, 3), "filters"),
        (lambda w: sl.Dense(3, w), "units"),
        (lambda w: sl.LSTM(3, w), "units"),
        (lambda w: sl.DotProductSelfAttention(3, w, 2), "num_heads"),
        (lambda w: sl.DotProductSelfAttention(3, 2, w), "units_per_head"),
    ],
    ids=["conv1d", "conv1d_transpose", "dense", "lstm", "attention_heads", "attention_units"],
)
def test_a_layer_without_outputs_is_rejected_at_construction(make, field, width):
    # a zero-width output once built and failed in verify; a negative one
    # leaked numpy's "negative dimensions are not allowed"
    with pytest.raises(ValueError, match=f"{field}.* must be >= 1, got"):
        make(width)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda w: sl.Conv1D(w, 3, 3), "in_channels"),
        (lambda w: sl.Conv1DTranspose(w, 3, 3), "in_channels"),
        (lambda w: sl.Dense(w, 3), "in_features"),
        (lambda w: sl.LSTM(w, 3), "in_features"),
        (lambda w: sl.DotProductSelfAttention(w, 2, 2), "d_model"),
    ],
    ids=["conv1d", "conv1d_transpose", "dense", "lstm", "attention"],
)
def test_a_negative_input_width_is_rejected_at_construction(make, field):
    # LSTM(-1, 4) once built a (3, 16) kernel; the others leaked numpy's
    # untyped "negative dimensions are not allowed"
    with pytest.raises(ValueError, match=f"^{field} must be >= 0, got -1$"):
        make(-1)
    make(0)  # a zero-width input is a valid, if empty, contraction
