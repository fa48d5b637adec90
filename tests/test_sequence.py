"""Sequence model: masking semantics, construction helpers, SLS1 round trips."""

import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqstream import tensor
from seqstream.errors import ShapeMismatchError, SpecMismatchError
from seqstream.sequence import (
    ChannelSpec,
    Sequence,
    empty_history,
    load_sequence,
    read_sequence,
    save_sequence,
    shift_in,
    write_sequence,
    zero_invalid,
)


def seq_2x3():
    return Sequence(
        np.ones((2, 3), np.float32),
        np.array([[True, True, False], [True, False, False]]),
    )


def test_from_values_all_true_mask():
    s = Sequence.from_values(np.ones((2, 3), np.float32))
    np.testing.assert_array_equal(s.mask, np.ones((2, 3), bool))


def test_from_values_empty_time():
    s = Sequence.from_values(np.zeros((1, 0, 4), np.float32))
    assert s.time == 0
    assert s.mask.shape == (1, 0)


def test_from_values_rank_too_low():
    with pytest.raises(ShapeMismatchError):
        Sequence.from_values(np.zeros(3, np.float32))


def test_from_lengths_mask():
    s = Sequence.from_lengths(np.ones((2, 3), np.float32), [2, 1])
    np.testing.assert_array_equal(s.mask, [[True, True, False], [True, False, False]])


def test_from_lengths_zero_row():
    s = Sequence.from_lengths(np.ones((1, 3), np.float32), [0])
    assert not s.mask.any()


def test_from_lengths_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        Sequence.from_lengths(np.ones((1, 3), np.float32), [4])


@settings(max_examples=30)
@given(
    time=st.integers(0, 8),
    batch=st.integers(1, 4),
    data=st.data(),
)
def test_lengths_round_trips_from_lengths(time, batch, data):
    lengths = [data.draw(st.integers(0, time)) for _ in range(batch)]
    s = Sequence.from_lengths(np.zeros((batch, time, 2), np.float32), lengths)
    np.testing.assert_array_equal(s.lengths(), lengths)


def test_mask_invalid_zeroes_invalid_positions():
    s = seq_2x3().mask_invalid()
    np.testing.assert_array_equal(s.values, [[1, 1, 0], [1, 0, 0]])


def test_mask_invalid_idempotent():
    s = seq_2x3()
    once = s.mask_invalid()
    twice = once.mask_invalid()
    np.testing.assert_array_equal(once.values, twice.values)
    np.testing.assert_array_equal(once.mask, twice.mask)


def test_mask_invalid_clears_nan_poison():
    values = np.ones((2, 3), np.float32)
    values[0, 2] = np.nan
    values[1, 1:] = np.nan
    s = Sequence(values, np.array([[True, True, False], [True, False, False]]))
    out = s.mask_invalid()
    assert np.isfinite(out.values).all()
    np.testing.assert_array_equal(out.values, [[1, 1, 0], [1, 0, 0]])


def test_values_agree_on_valid_region():
    s = seq_2x3()
    masked = s.mask_invalid()
    np.testing.assert_array_equal(
        np.asarray(masked.values)[s.mask], np.asarray(s.values)[s.mask]
    )


def test_pad_time_back_invalid():
    s = Sequence.from_values(np.ones((1, 3), np.float32))
    out = s.pad_time(0, 2, valid=False)
    assert out.time == 5
    np.testing.assert_array_equal(out.mask[0, 3:], [False, False])
    np.testing.assert_array_equal(out.values[0, 3:], [0, 0])


@pytest.mark.parametrize("front, back", [(0, 2), (3, 0), (1, 1)])
@pytest.mark.parametrize("valid", [False, True])
def test_pad_time_matches_a_zero_pad_oracle(front, back, valid):
    s = Sequence.from_lengths(np.arange(24, dtype=np.int32).reshape(2, 3, 2, 2) + 1, [3, 1])
    out = s.pad_time(front, back, valid)
    pads = [(0, 0), (front, back)]
    np.testing.assert_array_equal(out.values, np.pad(s.values, pads + [(0, 0), (0, 0)]))
    np.testing.assert_array_equal(out.mask, np.pad(s.mask, pads, constant_values=valid))
    assert out.dtype == s.dtype and not out.values.flags.writeable


def test_pad_time_zero_is_identity():
    s = seq_2x3()
    assert s.pad_time(0, 0, valid=False) is s


def test_full_range_slice_is_identity():
    s = seq_2x3()
    assert s.slice_time(0, 3) is s
    assert s[:, :] is s
    assert s[:, 0:2] is not s


def test_concat_partition_identity():
    rng = np.random.default_rng(0)
    s = Sequence.from_lengths(rng.normal(size=(2, 4, 3)).astype(np.float32), [4, 2])
    parts = [s[:, 0:2], s[:, 2:4]]
    back = Sequence.concatenate_sequences(parts)
    np.testing.assert_array_equal(back.values, s.values)
    np.testing.assert_array_equal(back.mask, s.mask)


def test_concat_with_empty_time_is_identity():
    s = seq_2x3()
    empty = s[:, 0:0]
    out = Sequence.concatenate_sequences([empty, s])
    np.testing.assert_array_equal(out.values, s.values)
    assert out is s


def test_concat_spec_mismatch():
    a = Sequence.from_values(np.zeros((2, 3, 4), np.float32))
    b = Sequence.from_values(np.zeros((2, 3, 5), np.float32))
    with pytest.raises(SpecMismatchError):
        Sequence.concatenate_sequences([a, b])
    with pytest.raises(SpecMismatchError):  # an empty part is still checked
        Sequence.concatenate_sequences([a, b[:, 0:0]])
    with pytest.raises(SpecMismatchError):
        Sequence.concatenate_sequences([a, a[:1, 0:0]])


@settings(max_examples=20)
@given(time=st.integers(1, 12), cuts=st.lists(st.integers(0, 12), max_size=4), seed=st.integers(0, 99))
def test_concat_any_partition_identity(time, cuts, seed):
    rng = np.random.default_rng(seed)
    s = Sequence.from_lengths(
        rng.normal(size=(2, time, 2)).astype(np.float32), [time, time // 2]
    )
    points = sorted({0, time, *[c % (time + 1) for c in cuts]})
    parts = [s[:, a:b] for a, b in zip(points, points[1:])]
    back = Sequence.concatenate_sequences(parts) if parts else s
    np.testing.assert_array_equal(back.values, s.values)
    np.testing.assert_array_equal(back.mask, s.mask)


def test_time_slice_shorthand():
    s = seq_2x3()
    assert s[:, 0:2].time == 2


def test_lengths_of_fig_mask():
    np.testing.assert_array_equal(seq_2x3().lengths(), [2, 1])


def loop_zeroed(values, mask):
    """The loop oracle of zero_invalid: valid steps copied, the rest zeros."""
    expect = np.zeros(values.shape, values.dtype)
    for b in range(mask.shape[0]):
        for t in range(mask.shape[1]):
            if mask[b, t]:
                expect[b, t] = values[b, t]
    return expect


def test_zero_invalid_matches_loop_oracle():
    mask = np.array([[True, False, True], [False, False, True]])
    values = np.arange(2 * 3 * 4, dtype=np.float32).reshape(2, 3, 4) + 42
    out = zero_invalid(values, mask)
    expect = loop_zeroed(values, mask)
    np.testing.assert_array_equal(out, expect)
    assert out.dtype == values.dtype
    np.testing.assert_array_equal(out, Sequence(values, mask).mask_invalid().values)


def test_zero_invalid_returns_values_unless_it_must_zero():
    s = seq_2x3()
    values = s.values + 1
    assert zero_invalid(values, np.ones((2, 3), bool)) is values
    out = zero_invalid(values, s.mask)
    assert out is not values
    np.testing.assert_array_equal(values, np.full((2, 3), 2, np.float32))


#: elements a row from which zero_invalid zeroes a prefix mask row by row
ROW_GATE = 8192


def grid_mask(kind, batch, time, rng):
    if kind == "all_valid":
        return np.ones((batch, time), bool)
    if kind == "all_invalid":
        return np.zeros((batch, time), bool)
    if kind == "prefix":
        # a full row, an empty row, then random lengths
        lengths = [time, 0] + rng.integers(0, time + 1, batch - 2).tolist()
        return np.arange(time) < np.array(lengths)[:, None]
    mask = rng.random((batch, max(time, 2))) < 0.7  # holes
    mask[0, :2] = [False, True]  # a rise, wherever time allows one
    return mask[:, :time]


def grid_values(shape, dtype, mask, rng):
    """Values whose valid floats include -0.0 and whose invalid ones are NaN."""
    if dtype == np.bool_:
        return rng.random(shape) < 0.5
    if dtype == np.int32:
        return rng.integers(-(10**9), 10**9, shape, dtype=np.int32)
    values = rng.standard_normal(shape).astype(dtype)
    values[:, ::3] = -0.0
    values[~mask] = np.nan
    return values


@pytest.mark.parametrize("dtype", [np.float32, np.int32, np.bool_], ids=["f32", "i32", "bool"])
@pytest.mark.parametrize("channels", [(), (3,), (2, 4)], ids=["rank2", "c3", "c2x4"])
@pytest.mark.parametrize("mask_kind", ["prefix", "all_invalid", "holes", "all_valid"])
@pytest.mark.parametrize("size", ["t0", "t1", "small", "below_gate", "at_gate"])
def test_zero_invalid_gives_the_loop_oracles_bits(size, mask_kind, channels, dtype):
    rng = np.random.default_rng([len(size), len(mask_kind), len(channels), np.dtype(dtype).num])
    at_gate = -(-ROW_GATE // int(np.prod(channels)))  # steps that reach the gate
    time = {"t0": 0, "t1": 1, "small": 6, "below_gate": at_gate - 1, "at_gate": at_gate}[size]
    mask = grid_mask(mask_kind, 4, time, rng)
    values = grid_values((4, time) + channels, dtype, mask, rng)
    before = values.tobytes()
    values.setflags(write=False)
    mask.setflags(write=False)

    out = zero_invalid(values, mask)

    assert values.tobytes() == before
    if mask.all():
        assert out is values
        return
    expect = loop_zeroed(values, mask)
    assert (out.dtype, out.shape) == (expect.dtype, expect.shape)
    assert out.tobytes() == expect.tobytes()
    # the strided view of a wider array gives the same bits
    wide = np.zeros((4, time + 1) + channels, dtype)
    wide[:, 1:] = values
    assert zero_invalid(wide[:, 1:], mask).tobytes() == expect.tobytes()


def test_shift_in_joins_a_block_onto_a_history_and_keeps_its_tail():
    history = empty_history(2, 3, ChannelSpec((4,), np.int32))
    block = (np.arange(16, dtype=np.int32).reshape(2, 2, 4), np.ones((2, 2), bool))
    joined, kept = shift_in(history, block)
    for past, new, both, tail in zip(history, block, joined, kept):
        np.testing.assert_array_equal(both, np.concatenate([past, new], axis=1))
        np.testing.assert_array_equal(tail, both[:, 2:])
        assert not tail.flags.writeable and not past.flags.writeable


def test_shift_in_refuses_a_block_of_another_batch_channel_shape_or_dtype():
    history = empty_history(2, 3, ChannelSpec((4,)))
    mask = np.ones((2, 1), bool)
    for values, message in [
        (np.zeros((2, 1, 4), np.int32), "2xi32[4] with 2xf32[4]"),
        (np.zeros((2, 1, 5), np.float32), "2xf32[5] with 2xf32[4]"),
        (np.zeros((1, 1, 4), np.float32), "1xf32[4] with 2xf32[4]"),
    ]:
        with pytest.raises(SpecMismatchError, match=re.escape(f"cannot concatenate {message}")):
            shift_in(history, (values, mask[: len(values)]))


def test_shift_in_onto_an_empty_history_joins_the_block_itself():
    history = empty_history(2, 0, ChannelSpec((4,)))
    block = (np.ones((2, 3, 4), np.float32), np.ones((2, 3), bool))
    joined, kept = shift_in(history, block)
    assert all(both is new for both, new in zip(joined, block))
    for new, tail in zip(block, kept):
        assert tail.shape == (2, 0) + new.shape[2:]
        assert not tail.flags.writeable
    for values, message in [
        (np.zeros((2, 1, 4), np.int32), "2xi32[4] with 2xf32[4]"),
        (np.zeros((2, 1, 5), np.float32), "2xf32[5] with 2xf32[4]"),
        (np.zeros((1, 1, 4), np.float32), "1xf32[4] with 2xf32[4]"),
    ]:
        with pytest.raises(SpecMismatchError, match=re.escape(f"cannot concatenate {message}")):
            shift_in(history, (values, np.ones(values.shape[:2], bool)))


def test_channel_spec():
    s = Sequence.from_values(np.zeros((2, 3, 4, 5), np.float32))
    assert s.channel_spec == ChannelSpec((4, 5), np.float32)
    assert str(s.channel_spec) == "f32[4,5]"


def test_reverse_time_valid_region():
    s = Sequence.from_lengths(
        np.arange(8, dtype=np.float32).reshape(2, 4), [3, 4]
    )
    out = s.reverse_time_valid()
    np.testing.assert_array_equal(out.values[0], [2, 1, 0, 3])
    np.testing.assert_array_equal(out.values[1], [7, 6, 5, 4])
    np.testing.assert_array_equal(out.mask, s.mask)


def test_sls1_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    s = Sequence.from_lengths(rng.normal(size=(2, 5, 3)).astype(np.float32), [5, 2])
    path = tmp_path / "seq.sls"
    save_sequence(path, s)
    back = load_sequence(path)
    assert back.values.tobytes() == s.values.tobytes()
    np.testing.assert_array_equal(back.mask, s.mask)


def test_sls1_from_values_round_trip():
    s = Sequence.from_values(np.ones((1, 0, 4), np.float32))
    buf = io.BytesIO()
    write_sequence(buf, s)
    buf.seek(0)
    back = read_sequence(buf)
    assert back.values.shape == (1, 0, 4)


@settings(max_examples=25)
@given(batch=st.integers(1, 3), time=st.integers(0, 6), ch=st.integers(1, 3), seed=st.integers(0, 99))
def test_sls1_round_trip_property(batch, time, ch, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(batch, time, ch)).astype(np.float32)
    lengths = rng.integers(0, time + 1, size=batch)
    s = Sequence.from_lengths(values, lengths)
    buf = io.BytesIO()
    write_sequence(buf, s)
    buf.seek(0)
    back = read_sequence(buf)
    assert back.values.tobytes() == s.values.tobytes()
    assert back.mask.tobytes() == s.mask.tobytes()
