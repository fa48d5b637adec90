"""Combinators: derived metadata, composition laws, streaming equivalence."""

import math
from fractions import Fraction

import numpy as np
import pytest
import yaml

import seqstream as sl
from seqstream import params as params_lib
from seqstream import pipeline
from seqstream.sequence import ChannelSpec, Sequence
from seqstream.streaming import _flushed, step_by_step, stream_blocks
from seqstream.verify import HarnessConfig, verify_contract

from conftest import assert_sequences_close, random_sequence
from test_trusted_sequences import make_input


def fig6_serial(seed=0):
    rng = np.random.default_rng(seed)
    return sl.Serial(
        [
            sl.Conv1D(3, 5, 3, stride=2, padding="causal", rng=rng),
            sl.Conv1D(5, 8, 5, stride=3, padding="causal", rng=rng),
        ]
    )


class TestSerial:
    def test_empty_serial_is_identity(self):
        layer = sl.Serial([])
        x = random_sequence(0, 2, 6, 3)
        assert_sequences_close(layer.layer(x, training=False), x)
        assert layer.output_ratio == 1
        assert layer.block_size == 1
        assert layer.receptive_field == (0, 0)

    def test_strided_stack_metadata(self):
        model = fig6_serial()
        assert model.output_ratio == Fraction(1, 6)
        assert model.block_size == 6
        x = random_sequence(1, 2, 24, 3)
        y = model.layer(x, training=False)
        assert y.shape == (2, 24 // 6, 8)

    def test_equals_manual_composition(self):
        model = fig6_serial(seed=2)
        a, b = model.children
        x = random_sequence(2, 2, 12, 3)
        manual = b.layer(a.layer(x, training=False), training=False)
        assert_sequences_close(model.layer(x, training=False), manual, atol=0)

    def test_state_is_ordered_tuple_of_child_states(self):
        model = fig6_serial(seed=3)
        state = model.get_initial_state(2, ChannelSpec((3,)), training=False)
        assert isinstance(state, tuple) and len(state) == 2
        values, mask = state[0]  # conv context buffer
        assert values.shape == (2, 2, 3) and mask.shape == (2, 2)

    def test_constants_broadcast_to_all_children(self):
        cond = Sequence.from_values(np.zeros((2, 20, 3), np.float32))
        model = sl.Serial([sl.Conditioning("c", "add"), sl.Conditioning("c", "add")])
        x = random_sequence(3, 2, 6, 3)
        y = model.layer(x, training=False, constants={"c": cond})
        np.testing.assert_allclose(
            np.asarray(y.mask_invalid().values),
            np.asarray(x.mask_invalid().values),
            atol=0,
        )

    def test_step_equivalence(self):
        model = fig6_serial(seed=4)
        x = random_sequence(4, 2, 24, 3, lengths=[24, 15])
        assert_sequences_close(
            model.layer(x, training=False), step_by_step(model, x, training=False)
        )

    def test_misaligned_latency_not_steppable(self):
        model = sl.Serial(
            [
                sl.Conv1D(3, 3, 4, padding="reverse_causal", rng=np.random.default_rng(0)),
                sl.Downsample1D(2),
            ]
        )
        assert not model.supports_step
        with pytest.raises(sl.NotSteppableError, match="insert a StepDelay of 1"):
            model.get_initial_state(2, ChannelSpec((3,)), training=False)

    def test_step_delay_restores_alignment(self):
        rng = np.random.default_rng(1)
        model = sl.Serial(
            [
                sl.Conv1D(3, 3, 4, padding="reverse_causal", rng=rng),
                sl.StepDelay(1),
                sl.Downsample1D(2),
            ]
        )
        assert model.supports_step
        assert model.output_latency == 2
        x = random_sequence(5, 2, 16, 3)
        assert_sequences_close(
            model.layer(x, training=False), step_by_step(model, x, training=False)
        )

    def test_duplicate_child_names_get_suffixes(self):
        rng = np.random.default_rng(0)
        model = sl.Serial([sl.Dense(3, 3, rng=rng, name="d"), sl.Dense(3, 3, rng=rng, name="d")])
        assert [c.name for c in model.children] == ["d", "d_1"]

    def test_repeated_child_is_renamed_on_a_copy(self):
        a = sl.Dense(3, 3, rng=np.random.default_rng(0), name="d")
        model = sl.Serial([a, a])
        assert [c.name for c in model.children] == ["d", "d_1"]
        assert a.name == "d"
        assert len(params_lib.collect_parameters(model)) == 4

    def test_suffix_skips_a_name_already_taken(self):
        rng = np.random.default_rng(0)
        model = sl.Serial([sl.Dense(3, 3, rng=rng, name=n) for n in ("d", "d_1", "d")])
        assert [c.name for c in model.children] == ["d", "d_1", "d_2"]
        assert len(params_lib.collect_parameters(model)) == 6

    def test_building_leaves_an_earlier_tree_unchanged(self):
        rng = np.random.default_rng(0)
        b = sl.Dense(3, 3, rng=rng, name="d")
        c = sl.Dense(3, 3, rng=rng, name="d")
        first = sl.Serial([b], name="first")
        sl.Serial([c, b])
        assert sorted(params_lib.collect_parameters(first)) == ["first/d/bias", "first/d/weight"]


class TestParallel:
    def test_identity_add_doubles(self):
        model = sl.Parallel([sl.Identity(), sl.Identity()], combine="add")
        x = random_sequence(6, 2, 6, 3)
        y = model.layer(x, training=False)
        np.testing.assert_allclose(np.asarray(y.values), 2 * np.asarray(x.values), atol=0)

    def test_mean_matches_manual(self):
        rng = np.random.default_rng(7)
        a, b = sl.Dense(3, 3, rng=rng), sl.Dense(3, 3, rng=rng)
        model = sl.Parallel([a, b], combine="mean")
        x = random_sequence(7, 2, 6, 3)
        ya = a.layer(x, training=False)
        yb = b.layer(x, training=False)
        manual = (np.asarray(ya.values) + np.asarray(yb.values)) / 2
        np.testing.assert_allclose(
            np.asarray(model.layer(x, training=False).values), manual, atol=1e-7
        )

    def test_stack_adds_leading_channel_axis(self):
        model = sl.Parallel([sl.Identity(), sl.Identity(), sl.Identity()], combine="stack")
        x = random_sequence(8, 2, 4, 5)
        y = model.layer(x, training=False)
        assert y.channel_shape == (3, 5)
        assert model.get_output_spec(x.channel_spec) == ChannelSpec((3, 5))

    def test_ratio_mismatch_rejected(self):
        with pytest.raises(sl.SpecMismatchError, match="ratio"):
            sl.Parallel([sl.Identity(), sl.Downsample1D(2)], combine="add")

    def test_mixed_latency_children_stream_aligned(self):
        rng = np.random.default_rng(9)
        model = sl.Parallel(
            [
                sl.Conv1D(3, 4, 5, padding="reverse_causal", rng=rng),
                sl.Conv1D(3, 4, 3, padding="causal", rng=rng),
            ],
            combine="add",
        )
        assert model.output_latency == 4
        assert model.input_latency == 4
        x = random_sequence(9, 2, 18, 3, lengths=[18, 11])
        assert_sequences_close(
            model.layer(x, training=False), step_by_step(model, x, training=False)
        )

    def test_block_size_lcm(self):
        model = sl.Parallel(
            [sl.Blockwise(sl.Identity(), 3), sl.Identity()], combine="add"
        )
        assert model.block_size == 3
        model2 = sl.Parallel(
            [sl.Blockwise(sl.Identity(), 3), sl.Blockwise(sl.Identity(), 4)], combine="add"
        )
        assert model2.block_size == 12

    def test_unequal_output_lengths_rejected(self):
        left = sl.Serial([sl.Downsample1D(2), sl.Upsample1D(3)])
        right = sl.Serial([sl.Upsample1D(3), sl.Downsample1D(2)])
        with pytest.raises(sl.SpecMismatchError, match="output length|disagree"):
            sl.Parallel([left, right], combine="add")

    def test_residual_with_unequal_body_length_rejected(self):
        # same ratio 1 as the shortcut, but input length 1 gives body length 2
        body = sl.Serial(
            [sl.MaxPooling1D(3, stride=2, padding="same"), sl.Conv1DTranspose(3, 3, 4, stride=2)]
        )
        with pytest.raises(sl.SpecMismatchError, match="input length 1: \\[2, 1\\]"):
            sl.Residual(body)


class TestResidual:
    def test_zero_body_is_identity(self):
        body = sl.Dense(
            3, 3, params={"weight": np.zeros((3, 3), np.float32), "bias": np.zeros(3, np.float32)}
        )
        model = sl.Residual(body)
        x = random_sequence(11, 2, 6, 3)
        y = model.layer(x, training=False)
        np.testing.assert_allclose(
            np.asarray(y.mask_invalid().values), np.asarray(x.mask_invalid().values), atol=0
        )

    def test_equals_parallel_with_identity(self):
        w = np.random.default_rng(12).uniform(-0.5, 0.5, (3, 3)).astype(np.float32)
        b = np.random.default_rng(13).uniform(-0.5, 0.5, 3).astype(np.float32)
        residual = sl.Residual(sl.Dense(3, 3, params={"weight": w, "bias": b}))
        parallel = sl.Parallel(
            [sl.Dense(3, 3, params={"weight": w, "bias": b}), sl.Identity()], combine="add"
        )
        x = random_sequence(12, 2, 6, 3)
        assert_sequences_close(
            residual.layer(x, training=False), parallel.layer(x, training=False), atol=0
        )

    def test_body_list_is_wrapped_serially(self):
        rng = np.random.default_rng(14)
        model = sl.Residual([sl.Dense(3, 4, rng=rng), sl.Dense(4, 3, rng=rng)])
        x = random_sequence(13, 2, 6, 3)
        y = model.layer(x, training=False)
        assert y.channel_shape == (3,)


def _combine_cases():
    """(layer, input spec, constants, expected): expected is the ChannelSpec
    every route agrees on, or the message fragment of the one
    SpecMismatchError every route raises."""
    rng = np.random.default_rng(30)
    f32, i32 = ChannelSpec((3,)), ChannelSpec((3,), np.int32)

    def cond(*channels):
        # 15 steps cover the input's 13 padded to a 3x block
        return Sequence.from_values(rng.standard_normal((3, 15) + channels).astype(np.float32))

    return {
        # an int input plus a float body is promoted to float32
        "residual_dense_i32": (sl.Residual(sl.Dense(3, 3, rng=rng)), i32, None, f32),
        "residual_avg_pool_i32": (sl.Residual(sl.AveragePooling1D(3)), i32, None, f32),
        # [3] + [1] is not broadcast
        "add_broadcast": (
            sl.Parallel([sl.Identity(), sl.Dense(3, 1, rng=rng)], combine="add"),
            f32, None, "combine=add requires identical channel dims, got f32[3], f32[1]",
        ),
        # the mean of an int and a float branch is a float mean
        "mean_i32": (
            sl.Parallel([sl.Identity(), sl.Dense(3, 3, rng=rng)], combine="mean"),
            i32, None, f32,
        ),
        "mean_both_i32": (
            sl.Parallel([sl.Identity(), sl.Lookahead(1)], combine="mean"), i32, None, f32
        ),
        "mean_both_bool": (
            sl.Parallel([sl.Identity(), sl.Identity()], combine="mean"),
            ChannelSpec((3,), bool), None, f32,
        ),
        "stack_mismatch": (
            sl.Parallel([sl.Identity(), sl.Dense(3, 2, rng=rng)], combine="stack"),
            f32, None, "combine=stack requires identical channel dims, got f32[3], f32[2]",
        ),
        "concat_mixed_dtypes": (
            sl.Parallel([sl.Identity(), sl.Dense(3, 2, rng=rng)], combine="concat"),
            i32, None, ChannelSpec((5,)),
        ),
        # scalar channels have no last dim to join on
        "concat_scalar_channels": (
            sl.Parallel([sl.Identity(), sl.Identity()], combine="concat"),
            ChannelSpec(()), None,
            "combine=concat requires rank >= 1 and equal all-but-last channel dims",
        ),
        "conditioning_add_mismatch": (
            sl.Conditioning("c", "add"), f32, {"c": cond(1)},
            "conditioning: combine=add requires identical channel dims, got f32[3], f32[1]",
        ),
        "conditioning_concat_mismatch": (
            sl.Conditioning("c", "concat"), ChannelSpec((2, 3)), {"c": cond(3, 1)},
            "conditioning: combine=concat requires rank >= 1 and equal all-but-last "
            "channel dims, got f32[2,3], f32[3,1]",
        ),
        # a spec has no batch: a batch-3 constant inside a combinator
        "residual_conditioning": (
            sl.Residual(sl.Conditioning("c", "add")), f32, {"c": cond(3)}, f32
        ),
        "parallel_conditioning_concat": (
            sl.Parallel([sl.Conditioning("c", "concat"), sl.Identity()], combine="concat"),
            f32, {"c": cond(2)}, ChannelSpec((8,)),
        ),
    }


def _outcome(run):
    try:
        return run()
    except sl.SpecMismatchError as err:
        return str(err)


class TestCombineRule:
    """A combinator's spec is what its layer() returns, so the spec, layer()
    and step_by_step agree on a tree, or all raise one typed error."""

    @pytest.mark.parametrize("case", sorted(_combine_cases()))
    def test_spec_layer_and_steps_agree(self, case):
        layer, spec, constants, expected = _combine_cases()[case]
        x = make_input(spec)
        runs = {
            "spec": lambda: layer.get_output_spec(spec, constants),
            "layer": lambda: layer.layer(x, training=False, constants=constants),
            **{
                f"step{mult}x": lambda mult=mult: step_by_step(
                    layer, x, training=False, block=layer.block_size * mult, constants=constants
                )
                for mult in (1, 3)
            },
        }
        outcomes = {route: _outcome(run) for route, run in runs.items()}
        if isinstance(expected, str):
            assert set(outcomes.values()) == {outcomes["spec"]}, outcomes
            assert expected in outcomes["spec"]
            return
        assert outcomes["spec"] == expected
        y = outcomes["layer"]
        assert y.channel_spec == outcomes["spec"]
        for route in ("step1x", "step3x"):
            assert_sequences_close(outcomes[route], y)

    def test_a_mean_over_an_int_input_is_not_truncated(self):
        dense = sl.Dense(3, 3, rng=np.random.default_rng(31))
        x = make_input(ChannelSpec((3,), np.int32))
        y = sl.Parallel([sl.Identity(), dense], combine="mean").layer(x, training=False)
        manual = (np.asarray(x.values, np.float32) + dense.layer(x, training=False).values) / 2
        np.testing.assert_array_equal(y.mask, x.mask)
        np.testing.assert_allclose(y.values[y.mask], manual[x.mask], atol=1e-6, rtol=0)

    def test_a_mean_over_bool_branches_counts_them(self):
        x = make_input(ChannelSpec((3,), bool))
        y = sl.Parallel([sl.Identity(), sl.Identity()], combine="mean").layer(x, training=False)
        assert y.dtype == np.float32
        np.testing.assert_array_equal(y.values[y.mask], x.values[x.mask].astype(np.float32))

    def test_a_constant_as_long_as_the_input_is_too_short_at_3x_blocks(self):
        # pins the FOUND line in CHANGES.md on Conditioning._combine: step_by_step
        # pads the last block with invalid steps the constant must also cover.
        # Update this test when that is mended.
        layer = sl.Conditioning("c", "add")
        x = make_input(ChannelSpec((3,)))
        c = {"c": Sequence.from_values(np.ones((3, 13, 3), np.float32))}
        y = layer.layer(x, training=False, constants=c)
        assert_sequences_close(step_by_step(layer, x, training=False, block=1, constants=c), y)
        with pytest.raises(
            sl.SpecMismatchError, match=r"conditioning time 13 too short for positions \[12, 15\)"
        ):
            step_by_step(layer, x, training=False, block=3, constants=c)


class TestRepeat:
    def test_single_repeat_equals_child(self):
        child = sl.Dense(3, 3, rng=np.random.default_rng(15))
        model = sl.Repeat(lambda i: child, 1)
        x = random_sequence(14, 2, 6, 3)
        assert_sequences_close(
            model.layer(x, training=False), child.layer(x, training=False), atol=0
        )

    def test_reused_template_gets_one_copy_per_iteration(self):
        b = sl.Dense(3, 3, rng=np.random.default_rng(0), name="d")
        model = sl.Repeat(lambda i: b, 2)
        assert [c.name for c in model.children] == ["iter_0", "iter_1"]
        assert b.name == "d"

    def test_equals_serial_of_clones_with_same_params(self):
        def make(i):
            return sl.Dense(3, 3, rng=np.random.default_rng(700 + i))

        repeat = sl.Repeat(make, 3)
        serial = sl.Serial([make(0), make(1), make(2)])
        x = random_sequence(15, 2, 6, 3)
        assert_sequences_close(
            repeat.layer(x, training=False), serial.layer(x, training=False), atol=0
        )

    def test_each_iteration_has_independent_params(self):
        model = sl.Repeat(lambda i: sl.Dense(3, 3, rng=np.random.default_rng(800 + i)), 2)
        named = params_lib.collect_parameters(model)
        w0 = named[f"{model.name}/iter_0/weight"]
        w1 = named[f"{model.name}/iter_1/weight"]
        assert not np.array_equal(w0, w1)

    def test_ratio_one_required(self):
        with pytest.raises(sl.SpecMismatchError, match="ratio"):
            sl.Repeat(lambda i: sl.Downsample1D(2), 2)

    def test_spec_preservation_required(self):
        model = sl.Repeat(lambda i: sl.Dense(3, 4, rng=np.random.default_rng(i)), 2)
        with pytest.raises(sl.SpecMismatchError):
            model.get_output_spec(ChannelSpec((3,)))


class TestBidirectional:
    def test_identity_add_doubles(self):
        model = sl.Bidirectional(sl.Identity(), sl.Identity(), combine="add")
        x = random_sequence(16, 2, 6, 3)
        y = model.layer(x, training=False)
        np.testing.assert_allclose(
            np.asarray(y.mask_invalid().values),
            2 * np.asarray(x.mask_invalid().values),
            atol=0,
        )

    def test_unequal_output_lengths_rejected(self):
        # ratio 1, but input length 1 gives output length 2
        resampled = sl.Serial([sl.Downsample1D(2), sl.Upsample1D(2)])
        with pytest.raises(sl.SpecMismatchError, match="input length 1: \\[2, 1\\]"):
            sl.Bidirectional(resampled, sl.Identity(), combine="add")

    def test_same_layer_both_ways_is_renamed_on_a_copy(self):
        a = sl.Identity(name="i")
        model = sl.Bidirectional(a, a)
        assert [c.name for c in model.children] == ["i", "i_1"]
        assert a.name == "i"

    def test_backward_conv_matches_reverse_apply_reverse_oracle(self):
        conv = sl.Conv1D(3, 4, 2, padding="causal", rng=np.random.default_rng(17))
        model = sl.Bidirectional(sl.Identity(), conv, combine="concat")
        x = random_sequence(17, 2, 8, 3, lengths=[8, 5]).mask_invalid()
        y = model.layer(x, training=False)
        # oracle: reverse valid region per row, run conv, reverse back
        reversed_in = x.reverse_time_valid()
        expect = conv.layer(reversed_in, training=False).reverse_time_valid()
        np.testing.assert_allclose(
            np.asarray(y.mask_invalid().values)[..., 3:],
            np.asarray(expect.mask_invalid().values),
            atol=1e-6,
        )

    def test_not_steppable(self):
        model = sl.Bidirectional(sl.Identity(), sl.Identity())
        assert not model.supports_step
        with pytest.raises(sl.NotSteppableError):
            model.step(random_sequence(0, 1, 2, 2), (), training=False)
        with pytest.raises(sl.NotSteppableError):
            model.get_initial_state(1, ChannelSpec((2,)), training=False)

    def test_receptive_field_mirrors_backward(self):
        fwd = sl.Conv1D(3, 3, 3, padding="causal", rng=np.random.default_rng(18))
        bwd = sl.Conv1D(3, 3, 2, padding="causal", rng=np.random.default_rng(19))
        model = sl.Bidirectional(fwd, bwd, combine="concat")
        assert model.receptive_field == (-2, 1)


class TestBlockwise:
    def test_native_block_size_identical_behavior(self):
        child = sl.Conv1D(3, 4, 3, padding="causal", rng=np.random.default_rng(20))
        model = sl.Blockwise(child, child.block_size)
        x = random_sequence(18, 2, 12, 3)
        assert_sequences_close(
            model.layer(x, training=False), child.layer(x, training=False), atol=0
        )

    def test_reports_wrapped_block_size(self):
        child = sl.Conv1D(3, 4, 3, padding="causal", rng=np.random.default_rng(21))
        model = sl.Blockwise(child, 1024)
        assert model.block_size == 1024
        assert model.output_ratio == child.output_ratio
        assert model.receptive_field == child.receptive_field

    def test_layer_matches_child_on_random_input(self):
        child = sl.Conv1D(3, 4, 3, padding="causal", rng=np.random.default_rng(22))
        model = sl.Blockwise(child, 4)
        x = random_sequence(19, 2, 16, 3, lengths=[16, 9])
        assert_sequences_close(
            model.layer(x, training=False), child.layer(x, training=False)
        )

    def test_wraps_lookahead_child(self):
        child = sl.Conv1D(3, 4, 5, padding="reverse_causal", rng=np.random.default_rng(23))
        model = sl.Blockwise(child, 8)
        x = random_sequence(20, 2, 16, 3, lengths=[16, 9])
        assert_sequences_close(
            model.layer(x, training=False), child.layer(x, training=False)
        )
        assert_sequences_close(
            model.layer(x, training=False), step_by_step(model, x, training=False)
        )

    def test_invalid_block_size(self):
        child = sl.Downsample1D(3)
        with pytest.raises(ValueError, match="multiple"):
            sl.Blockwise(child, 4)

    def test_requires_steppable_child(self):
        bid = sl.Bidirectional(sl.Identity(), sl.Identity())
        with pytest.raises(sl.NotSteppableError):
            sl.Blockwise(bid, 2)


def _counted(name):
    def get(self):
        self.evaluations += 1
        return getattr(sl.SequenceLayer, name)

    return property(get)


EMITTING = {
    "serial": lambda rng: sl.Serial(
        [sl.Dense(3, 3, rng=rng), sl.Emit(name="tap"), sl.Conv1D(3, 3, 3, padding="same", rng=rng)]
    ),
    "parallel": lambda rng: sl.Parallel(
        [sl.Emit(), sl.Conv1D(3, 3, 3, padding="reverse_causal", rng=rng)], combine="add"
    ),
    "blockwise": lambda rng: sl.Blockwise(
        sl.Serial([sl.Emit(name="tap"), sl.Dense(3, 3, rng=rng)]), 4
    ),
}


class TestEmits:
    def test_blockwise_emits_agree_between_layer_and_step(self):
        model = EMITTING["blockwise"](np.random.default_rng(30))
        report = verify_contract(model, ChannelSpec((3,)))
        assert report.passed, report.render()

    @pytest.mark.parametrize("kind", sorted(EMITTING))
    def test_plain_paths_are_the_emitting_paths_minus_emits(self, kind):
        model = EMITTING[kind](np.random.default_rng(31))
        x = random_sequence(31, 2, 12, 3)
        y, _ = model.layer_with_emits(x, training=False)
        assert_sequences_close(model.layer(x, training=False), y, atol=0)
        plain = emitting = model.get_initial_state(2, x.channel_spec, training=False)
        for start in range(0, x.time, model.block_size):
            block = x[:, start : start + model.block_size]
            y, plain = model.step(block, plain, training=False)
            y_emits, emitting, _ = model.step_with_emits(block, emitting, training=False)
            assert_sequences_close(y, y_emits, atol=0)


NAMED_TAPS = """
type: serial
name: net
children:
  - {type: dense, units: 3}
  - type: residual
    children:
      - {type: emit}
      - {type: dense, units: 3}
  - type: parallel
    combine: add
    children:
      - {type: emit}
      - {type: emit}
      - {type: dense, units: 3}
  - type: repeat
    num_repeats: 2
    children:
      - type: serial
        children:
          - {type: dense, units: 3}
          - {type: emit}
"""


def named_tap_trees():
    rng = np.random.default_rng(32)
    return {
        "pipeline": (
            pipeline.build(yaml.safe_load(NAMED_TAPS), ChannelSpec((3,)), seed=0),
            [
                "net/residual_1/body/emit_0",
                "net/parallel_2/emit_0",
                "net/parallel_2/emit_1",
                "net/repeat_3/iter_0/emit_1",
                "net/repeat_3/iter_1/emit_1",
            ],
        ),
        # unnamed siblings are deduplicated to emit and emit_1
        "python": (
            sl.Parallel([sl.Emit(), sl.Emit(), sl.Dense(3, 3, rng=rng)], combine="add"),
            ["parallel/emit", "parallel/emit_1"],
        ),
    }


def input_at(node, path, x):
    """What ``layer()`` feeds the node at ``path`` (names below ``node``)."""
    if not path:
        return x
    for child in node.children:
        if child.name == path[0]:
            return input_at(child, path[1:], x)
        if not isinstance(node, sl.Parallel):
            x = child.layer(x, training=False)
    raise KeyError(path[0])


class TestEmitPaths:
    @pytest.mark.parametrize("name", sorted(named_tap_trees()))
    def test_layer_and_step_file_taps_by_the_parameter_paths(self, name):
        model, paths = named_tap_trees()[name]
        x = random_sequence(32, 2, 7, 3)
        _, emits = model.layer_with_emits(x, training=False)
        _, _, step_emits = stream_blocks(model, x, training=False)
        assert list(emits) == list(step_emits) == paths
        params = params_lib.collect_parameters(model)
        for path, tap in emits.items():
            parent = path.rsplit("/", 1)[0]
            siblings = [k for k in params if k.rsplit("/", 2)[0] == parent]
            assert any(k.split("/")[-2].startswith("dense") for k in siblings), (path, params)
            want = input_at(model, path.split("/")[1:], x)
            assert tap.values.tobytes() == want.values.tobytes(), path
            assert np.array_equal(tap.mask, want.mask), path
            assert step_emits[path].channel_spec == tap.channel_spec, path
            assert step_emits[path].time == x.time, path

    def test_a_tap_has_the_layer_extent_layer_wise_and_the_stepped_one_stepped(self):
        model = sl.Serial([sl.Lookahead(2), sl.Emit()])
        x = random_sequence(33, 2, 6, 3)
        _, emits = model.layer_with_emits(x, training=False)
        _, _, step_emits = _flushed(model, x, training=False)
        assert emits["serial/emit"].time == 6
        assert step_emits["serial/emit"].time == 8

    @pytest.mark.xfail(
        strict=True,
        reason="a Blockwise's taps are its untrimmed stepped stream: the CHANGES.md FOUND "
        "line on Blockwise.layer_with_emits (decision (e), waiting on stream offsets)",
    )
    def test_a_blockwise_tap_has_its_childs_extent(self):
        x = random_sequence(34, 2, 6, 3)
        _, alone = sl.Emit().layer_with_emits(x, training=False)
        _, emits = sl.Blockwise(sl.Emit(), 4).layer_with_emits(x, training=False)
        assert alone["emit"].time == 6
        assert emits["blockwise/emit"].time == 6


class MetadataCounter(sl.SequenceLayer):
    """Pass-through child whose metadata properties count their evaluations.

    Its own step() reads no metadata, so every evaluation comes from outside.
    """

    output_ratio = _counted("output_ratio")
    block_size = _counted("block_size")
    input_latency = _counted("input_latency")
    output_latency = _counted("output_latency")
    receptive_field_per_step = _counted("receptive_field_per_step")
    supports_step = _counted("supports_step")

    def __init__(self, name=None):
        super().__init__(name)
        self.evaluations = 0

    def layer(self, x, *, training, constants=None):
        return x

    def step(self, x, state, *, training, constants=None):
        return x, state


class TestDerivedProperties:
    @pytest.mark.parametrize(
        "wrap",
        [
            lambda c: sl.Serial([c, sl.Identity()]),
            lambda c: sl.Parallel([c, sl.Identity()], combine="add"),
            lambda c: sl.Serial([sl.Residual(sl.Serial([c]))]),
        ],
        ids=["serial", "parallel", "nested"],
    )
    def test_metadata_evaluations_do_not_grow_with_steps(self, wrap):
        evaluations = []
        for blocks in (4, 32):
            child = MetadataCounter()
            model = wrap(child)
            y = step_by_step(model, random_sequence(0, 1, blocks, 3), training=False)
            assert y.time == blocks
            evaluations.append(child.evaluations)
        assert evaluations[0] == evaluations[1], evaluations

    def test_misfit_child_block_raises_value_error(self):
        class HalfRatioBlockOne(MetadataCounter):
            output_ratio = Fraction(1, 2)
            block_size = 1

        with pytest.raises(ValueError, match="identity"):
            sl.Serial([HalfRatioBlockOne(), sl.Identity()])

    def test_properties_recompute_identically(self):
        model = fig6_serial(seed=24)
        names = (
            "output_ratio",
            "block_size",
            "input_latency",
            "output_latency",
            "receptive_field_per_step",
            "supports_step",
        )
        first = [getattr(model, name) for name in names]
        second = [getattr(model, name) for name in names]
        assert first == second

    def test_composite_contract_compliance(self):
        rng = np.random.default_rng(25)
        composites = [
            (fig6_serial(seed=26), ChannelSpec((3,))),
            (
                sl.Serial(
                    [
                        sl.Conv1D(3, 1, 5, stride=2, padding="same", rng=rng),
                        sl.Conv1DTranspose(1, 1, 6, stride=4, padding="same", rng=rng),
                    ]
                ),
                ChannelSpec((3,)),
            ),
            (sl.Residual(sl.Conv1D(3, 3, 5, padding="reverse_causal", rng=rng)), ChannelSpec((3,))),
            (
                sl.Parallel(
                    [sl.Dense(3, 4, rng=rng), sl.Conv1D(3, 4, 3, padding="causal", rng=rng)],
                    combine="mean",
                ),
                ChannelSpec((3,)),
            ),
            (sl.Blockwise(sl.LSTM(3, 4, rng=rng), 4), ChannelSpec((3,))),
        ]
        for layer, spec in composites:
            report = verify_contract(layer, spec)
            assert report.passed, report.render()

    def test_serial_rf_matches_empirical_for_compositions(self):
        from seqstream.verify import empirical_receptive_field
        from seqstream.receptive_field import rf_at

        rng = np.random.default_rng(27)
        model = sl.Serial(
            [
                sl.Conv1D(3, 2, 5, stride=2, padding="same", rng=rng),
                sl.Conv1DTranspose(2, 2, 6, stride=4, padding="same", rng=rng),
            ]
        )
        declared = model.receptive_field_per_step
        measured = empirical_receptive_field(model, ChannelSpec((3,)))
        assert set(measured) == set(declared)
        for s, rf in measured.items():
            assert rf == declared[s], (s, rf, declared[s])
