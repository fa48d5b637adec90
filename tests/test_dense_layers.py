"""Per-timestep layers against closed forms and loop oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

import seqstream as sl
from seqstream.dense import _POINTWISE as POINTWISE_KINDS, counter_uniform
from seqstream.layer import poison_invalid
from seqstream.pipeline import parse_channel_spec
from seqstream.sequence import ChannelSpec, Sequence
from seqstream.streaming import step_by_step

from conftest import assert_sequences_close, random_sequence


class TestDense:
    def test_identity_weight_zero_bias(self, rng):
        layer = sl.Dense(3, 3, params={"weight": np.eye(3, dtype=np.float32), "bias": np.zeros(3, np.float32)})
        x = random_sequence(0, 2, 5, 3)
        assert_sequences_close(layer.layer(x, training=False), x)

    def test_matches_per_timestep_matmul_oracle(self, rng):
        layer = sl.Dense(3, 5, rng=rng)
        x = random_sequence(1, 2, 6, 3)
        y = layer.layer(x, training=False)
        w, b = layer.parameters["weight"], layer.parameters["bias"]
        for bi in range(2):
            for t in range(6):
                expect = np.asarray(x.values)[bi, t] @ w + b
                np.testing.assert_allclose(y.values[bi, t], expect, atol=1e-6)

    def test_valid_steps_unaffected_by_poison(self, rng):
        layer = sl.Dense(3, 4, rng=rng)
        x = random_sequence(2, 2, 6, 3, lengths=[6, 3])
        clean = layer.layer(x, training=False).mask_invalid()
        poisoned = layer.layer(poison_invalid(x), training=False).mask_invalid()
        np.testing.assert_array_equal(clean.values, poisoned.values)

    def test_output_spec(self, rng):
        layer = sl.Dense(3, 5, rng=rng)
        assert layer.get_output_spec(ChannelSpec((3,))) == ChannelSpec((5,))
        with pytest.raises(sl.SpecMismatchError):
            layer.get_output_spec(ChannelSpec((4,)))

    def test_training_keyword_is_required(self, rng):
        layer = sl.Dense(3, 5, rng=rng)
        with pytest.raises(TypeError):
            layer.layer(random_sequence(0, 1, 2, 3))


class TestPointwise:
    def test_relu(self):
        x = Sequence.from_values(np.array([[[-1.0], [2.0]]], np.float32))
        y = sl.Pointwise("relu").layer(x, training=False)
        np.testing.assert_array_equal(y.values[0, :, 0], [0, 2])

    def test_softmax_uniform(self):
        x = Sequence.from_values(np.ones((1, 2, 4), np.float32))
        y = sl.Softmax().layer(x, training=False)
        np.testing.assert_allclose(y.values, 0.25, atol=1e-7)

    def test_gelu_matches_float64_oracle(self, rng):
        x = random_sequence(3, 2, 8, 4)
        y = sl.Pointwise("gelu").layer(x, training=False)
        v64 = np.asarray(x.values, np.float64)
        expect = 0.5 * v64 * (1.0 + np.vectorize(math.erf)(v64 / math.sqrt(2.0)))
        np.testing.assert_allclose(y.values, expect, atol=1e-6)

    def test_gelu_evaluates_float32_in_float32(self):
        x = random_sequence(4, 2, 64, 4)
        y = sl.Pointwise("gelu").layer(x, training=False)
        v = np.asarray(x.values)
        expect = np.float32(0.5) * v * (np.float32(1) + erf(v / np.float32(math.sqrt(2.0))))
        assert expect.dtype == y.values.dtype == np.float32
        assert y.values.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("dtype", ["f32", "i32", "bool"])
    @pytest.mark.parametrize("kind", sorted(POINTWISE_KINDS))
    def test_output_spec_by_kind_and_input_dtype(self, kind, dtype):
        """Float input keeps float32; abs, maximum and minimum keep any dtype;
        mod maps bool to int32; every other kind takes float input only."""
        layer = sl.Pointwise(kind, 2 if kind in ("power", "maximum", "minimum", "mod") else None)
        input_spec = parse_channel_spec(f"{dtype}[3]")
        expect = {"f32": "f32", "i32": "i32", "bool": "i32" if kind == "mod" else "bool"}
        if dtype == "f32" or kind in ("abs", "maximum", "minimum", "mod"):
            assert layer.get_output_spec(input_spec) == parse_channel_spec(f"{expect[dtype]}[3]")
        else:
            with pytest.raises(sl.SpecMismatchError, match="float input required"):
                layer.get_output_spec(input_spec)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown pointwise kind"):
            sl.Pointwise("frobnicate")

    @pytest.mark.parametrize("kind", ["power", "maximum", "minimum", "mod"])
    def test_a_kind_that_takes_a_value_requires_one(self, kind):
        # a missing value used to become NaN: maximum over [1, 2, 3] gave NaNs
        with pytest.raises(ValueError, match=f"pointwise kind '{kind}' requires a value"):
            sl.Pointwise(kind)

    def test_scale_and_add(self):
        x = random_sequence(6, 1, 4, 2)
        two_x = sl.Scale(2.0).layer(x, training=False)
        np.testing.assert_allclose(two_x.values, 2 * np.asarray(x.values), atol=0)
        plus = sl.Add(1.5).layer(x, training=False)
        np.testing.assert_allclose(plus.values, np.asarray(x.values) + 1.5, atol=0)


class TestNormalization:
    def test_rms_constant_vector_closed_form(self, rng):
        c = 0.7
        layer = sl.RMSNormalization(4, params={"scale": np.full(4, 1.3, np.float32)}, epsilon=1e-6)
        x = Sequence.from_values(np.full((1, 3, 4), c, np.float32))
        y = layer.layer(x, training=False)
        expect = 1.3 * c / math.sqrt(c * c + 1e-6)
        np.testing.assert_allclose(y.values, expect, atol=1e-6)

    def test_layer_norm_moments(self, rng):
        layer = sl.LayerNormalization(
            6,
            params={"scale": np.ones(6, np.float32), "offset": np.zeros(6, np.float32)},
            epsilon=1e-12,
        )
        x = random_sequence(7, 2, 5, 6)
        y = np.asarray(layer.layer(x, training=False).values, np.float64)
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-4)

    def test_norm_valid_steps_independent_of_invalid_values(self, rng):
        for cls in (sl.LayerNormalization, sl.RMSNormalization):
            layer = cls(4, rng=np.random.default_rng(1))
            x = random_sequence(8, 2, 6, 4, lengths=[6, 3])
            clean = layer.layer(x, training=False).mask_invalid()
            poisoned = layer.layer(poison_invalid(x), training=False).mask_invalid()
            np.testing.assert_array_equal(clean.values, poisoned.values)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            sl.RMSNormalization(4, epsilon=0.0)


class TestDropout:
    def test_rate_zero_identity(self):
        x = random_sequence(9, 2, 6, 3)
        y = sl.Dropout(0.0).layer(x, training=True)
        np.testing.assert_array_equal(y.values, x.values)

    def test_eval_mode_identity(self):
        x = random_sequence(10, 2, 6, 3)
        y = sl.Dropout(0.9, seed=5).layer(x, training=False)
        np.testing.assert_array_equal(y.values, x.values)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            sl.Dropout(1.0)

    @pytest.mark.parametrize("block", [1, 3])
    def test_partition_invariant_draws(self, block):
        layer = sl.Dropout(0.5, seed=11)
        x = random_sequence(12, 2, 12, 3)
        y = layer.layer(x, training=True)
        ys = step_by_step(layer, x, training=True, block=block)
        assert_sequences_close(y, ys, atol=0)

    def test_draws_are_coordinate_pure(self):
        a = counter_uniform(3, np.arange(4), np.arange(2), np.arange(5))
        b = counter_uniform(3, np.arange(4), np.arange(2), np.arange(5))
        np.testing.assert_array_equal(a, b)
        c = counter_uniform(4, np.arange(4), np.arange(2), np.arange(5))
        assert not np.array_equal(a, c)

    def test_kept_fraction_near_rate(self):
        layer = sl.Dropout(0.25, seed=2)
        x = Sequence.from_values(np.ones((4, 64, 16), np.float32))
        y = layer.layer(x, training=True)
        kept = np.count_nonzero(y.values) / y.values.size
        assert abs(kept - 0.75) < 0.03


class TestShapeOps:
    def test_flatten_row_major(self):
        values = np.arange(12, dtype=np.float32).reshape(1, 2, 2, 3)
        y = sl.Flatten().layer(Sequence.from_values(values), training=False)
        assert y.channel_shape == (6,)
        np.testing.assert_array_equal(y.values[0, 0], values[0, 0].reshape(-1))

    def test_expand_then_squeeze_identity(self):
        x = random_sequence(13, 1, 3, 4)
        out = sl.Squeeze(0).layer(
            sl.ExpandDims(0).layer(x, training=False), training=False
        )
        np.testing.assert_array_equal(out.values, x.values)

    def test_reshape_matches_index_oracle(self):
        values = np.arange(24, dtype=np.float32).reshape(1, 2, 3, 4)
        y = sl.Reshape((4, 3)).layer(Sequence.from_values(values), training=False)
        for t in range(2):
            flat = values[0, t].reshape(-1)
            for i in range(4):
                for j in range(3):
                    assert y.values[0, t, i, j] == flat[i * 3 + j]

    def test_move_axis(self):
        x = Sequence.from_values(np.arange(24, dtype=np.float32).reshape(1, 2, 3, 4))
        y = sl.MoveAxis(0, 1).layer(x, training=False)
        assert y.channel_shape == (4, 3)
        np.testing.assert_array_equal(y.values[0, 0], np.asarray(x.values)[0, 0].T)

    def test_transpose_channels_bit_exact(self):
        x = Sequence.from_values(np.arange(24, dtype=np.float32).reshape(1, 2, 3, 4))
        y = sl.TransposeChannels((1, 0)).layer(x, training=False)
        np.testing.assert_array_equal(y.values[0, 1], np.asarray(x.values)[0, 1].T)

    def test_reshape_bad_target(self):
        with pytest.raises(sl.SpecMismatchError):
            sl.Reshape((5,)).layer(random_sequence(0, 1, 2, 4), training=False)

    def test_reshape_rejects_negative_extents(self):
        # (-1, -3) has the product of f32[3] and would fail inside numpy
        with pytest.raises(ValueError, match=r"reshape extents must be >= 0, got \(-1, -3\)"):
            sl.Reshape((-1, -3))

    @pytest.mark.parametrize(
        "layer, shape, message",
        [
            (sl.Squeeze(0), (), "squeeze: axis 0 out of range [0, 0)"),
            (sl.MoveAxis(0, 0), (), "moveaxis: axis 0 out of range [0, 0)"),
            (sl.Softmax(axis=4), (3,), "softmax: axis 4 out of range [-1, 1)"),
            (sl.Window(axis=5), (3,), "window: axis 5 out of range [-1, 1)"),
            (sl.MoveAxis(0, 5), (2, 3), "moveaxis: axis 5 out of range [-2, 2)"),
            (sl.Squeeze(2), (1,), "squeeze: axis 2 out of range [-1, 1)"),
            (sl.ExpandDims(-9), (3,), "expanddims: axis -9 out of range [-2, 2)"),
        ],
        ids=[
            "squeeze_f32[]",
            "move_axis_f32[]",
            "softmax",
            "window",
            "move_axis",
            "squeeze",
            "expand_dims",
        ],
    )
    def test_a_channel_axis_outside_numpys_range_is_refused(self, layer, shape, message):
        """One rule for every channel axis: ``-rank <= axis < rank``, with
        ``rank + 1`` for ExpandDims; it used to wrap silently, or divide by a
        rank of 0."""
        with pytest.raises(sl.SpecMismatchError) as err:
            layer.get_output_spec(ChannelSpec(shape))
        assert str(err.value) == message
        x = Sequence.from_values(np.ones((1, 2) + shape, np.float32))
        with pytest.raises(sl.SpecMismatchError):
            layer.step(x, (), training=False)

    @pytest.mark.parametrize("axis", [-2, -1, 0, 1])
    def test_expand_dims_takes_numpys_axis_range(self, axis):
        values = np.ones((1, 2, 3), np.float32)
        y = sl.ExpandDims(axis).layer(Sequence.from_values(values), training=False)
        assert y.values.shape == np.expand_dims(values, axis if axis < 0 else 2 + axis).shape


class TestConditioning:
    def make(self, mode="add"):
        x = random_sequence(15, 2, 6, 3)
        cond = random_sequence(16, 2, 10, 3)
        return sl.Conditioning("cond", mode), x, {"cond": cond}

    def test_add_zeros_is_identity(self):
        layer = sl.Conditioning("cond", "add")
        x = random_sequence(17, 2, 6, 3)
        zeros = Sequence.from_values(np.zeros((2, 8, 3), np.float32))
        y = layer.layer(x, training=False, constants={"cond": zeros})
        np.testing.assert_array_equal(
            np.asarray(y.mask_invalid().values), np.asarray(x.mask_invalid().values)
        )

    def test_concat_doubles_channels(self):
        layer, x, constants = self.make("concat")
        y = layer.layer(x, training=False, constants=constants)
        assert y.channel_shape == (6,)
        assert layer.get_output_spec(x.channel_spec, constants) == ChannelSpec((6,))

    def test_step_slicing_matches_layer(self):
        layer, x, constants = self.make("add")
        y = layer.layer(x, training=False, constants=constants)
        ys = step_by_step(layer, x, training=False, block=2, constants=constants)
        assert_sequences_close(y, ys)

    def test_missing_key(self):
        layer, x, _ = self.make()
        with pytest.raises(sl.MissingConstantError):
            layer.layer(x, training=False, constants={})

    def test_conditioning_too_short(self):
        layer = sl.Conditioning("cond", "add")
        x = random_sequence(18, 2, 6, 3)
        short = random_sequence(19, 2, 4, 3)
        with pytest.raises(sl.SpecMismatchError, match="too short"):
            layer.layer(x, training=False, constants={"cond": short})


class TestEmit:
    def test_emits_input(self):
        x = random_sequence(20, 1, 4, 2)
        layer = sl.Emit(name="tap")
        y, emits = layer.layer_with_emits(x, training=False)
        np.testing.assert_array_equal(y.values, x.values)
        assert list(emits) == ["tap"] and emits["tap"] is y
        np.testing.assert_array_equal(emits["tap"].mask, x.mask)

    def test_default_emits_empty(self, rng):
        layer = sl.Dense(2, 2, rng=rng)
        x = random_sequence(0, 1, 2, 2)
        _, emits = layer.layer_with_emits(x, training=False)
        assert emits == {}
        # a new map per call: no caller can change another's
        emits["x"] = x
        assert layer.layer_with_emits(x, training=False)[1] == {}


@settings(max_examples=20)
@given(seed=st.integers(0, 500), rate=st.floats(0.0, 0.9), t=st.integers(1, 16))
def test_dropout_layer_step_property(seed, rate, t):
    layer = sl.Dropout(rate, seed=seed)
    x = random_sequence(seed, 2, t, 2)
    y = layer.layer(x, training=True)
    ys = step_by_step(layer, x, training=True)
    np.testing.assert_array_equal(np.asarray(y.mask), np.asarray(ys.mask))
    np.testing.assert_array_equal(
        np.asarray(y.mask_invalid().values), np.asarray(ys.mask_invalid().values)
    )
