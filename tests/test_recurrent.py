"""LSTM against a float64 scalar recurrence oracle."""

import numpy as np
import pytest
from scipy import special

import seqstream as sl
from seqstream import recurrent, tensor
from seqstream.layer import poison_invalid
from seqstream.sequence import ChannelSpec, Sequence
from seqstream.streaming import step_by_step, stream_blocks
from seqstream.verify import HarnessConfig, verify_contract

from conftest import assert_sequences_close, random_sequence
from test_step_plan import assert_identical


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def lstm_oracle(x: Sequence, kernel, bias, units):
    """Per-row scalar recurrence in float64 with state held at invalid steps."""
    values = np.asarray(x.mask_invalid().values, np.float64)
    mask = np.asarray(x.mask)
    kernel = kernel.astype(np.float64)
    bias = bias.astype(np.float64)
    batch, time, _ = values.shape
    out = np.zeros((batch, time, units))
    for b in range(batch):
        c = np.zeros(units)
        h = np.zeros(units)
        for t in range(time):
            if not mask[b, t]:
                continue
            z = np.concatenate([values[b, t], h]) @ kernel + bias
            i = sigmoid(z[:units])
            f = sigmoid(z[units : 2 * units])
            g = np.tanh(z[2 * units : 3 * units])
            o = sigmoid(z[3 * units :])
            c = f * c + i * g
            h = o * np.tanh(c)
            out[b, t] = h
    return out, mask


def split_scan(layer, values, mask, c, h):
    """LSTM._scan as a plain loop in its contraction order, from the public
    parameters: the input half ``x @ W_x + b`` of every step at once, on
    ``matmul_rows``; per step ``(h @ W_h) + that``, an expit per gate and an
    np.where per state. An invalid step's output is the held h. Kept as a
    bit reference."""
    kernel, bias = layer.parameters["kernel"], layer.parameters["bias"]
    u, n = layer.units, layer.in_features
    xz = tensor.matmul_rows(values, tensor.rows_weight(kernel[:n]), 4 * u) + bias
    h_kernel = np.ascontiguousarray(kernel[n:])
    outputs = np.empty(values.shape[:2] + (u,), np.float32)
    for t in range(values.shape[1]):
        z = np.dot(h, h_kernel) + xz[:, t]
        i_g = special.expit(z[:, :u])
        f_g = special.expit(z[:, u : 2 * u])
        o_g = special.expit(z[:, 3 * u :])
        c_new = f_g * c + i_g * np.tanh(z[:, 2 * u : 3 * u])
        h_new = o_g * np.tanh(c_new)
        valid = mask[:, t][:, None]
        c = np.where(valid, c_new, c)
        h = np.where(valid, h_new, h)
        outputs[:, t] = h
    return outputs, c, h


def masks_of(kind, rng, batch, time):
    """A ``[batch, time]`` mask: end-padded rows (row 0 full), or random
    holes with a step valid in every row and one valid in none."""
    if kind == "ragged":
        lengths = [time] + rng.integers(0, time, size=batch - 1).tolist()
        return np.arange(time)[None, :] < np.array(lengths)[:, None]
    mask = rng.random((batch, time)) < 0.7
    mask[:, 3] = True
    mask[:, 4] = False
    return mask


@pytest.mark.parametrize("batch", [1, 3, 8])
@pytest.mark.parametrize("masks", ["ragged", "holes"])
def test_scan_is_bitwise_the_split_scan(masks, batch):
    rng = np.random.default_rng([batch, len(masks)])
    layer = sl.LSTM(3, 5, rng=rng)
    time = 24
    # unmasked values: the scan, not its caller, keeps invalid steps out
    values = rng.standard_normal((batch, time, 3), dtype=np.float32)
    mask = masks_of(masks, rng, batch, time)
    c, h = rng.standard_normal((2, batch, 5), dtype=np.float32)
    got = layer._scan(values, mask, c, h)
    want = split_scan(layer, values, mask, c, h)
    for name, a, b in zip(("outputs", "c", "h"), got, want):
        assert a.dtype == b.dtype == np.float32, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("block", [1, 3, 8])
@pytest.mark.parametrize("batch", [1, 3, 8])
@pytest.mark.parametrize("masks", ["ragged", "holes"])
def test_steps_are_bitwise_layer(masks, batch, block):
    # NaN at every invalid step: neither mode may let one into a valid output
    # or the state, and both hold the same h at invalid steps. 64 input
    # features: a plain one-row np.dot of the input half rounds apart from
    # the many-row one at this width, and matmul_rows must not
    rng = np.random.default_rng([batch, block, len(masks)])
    layer = sl.LSTM(64, 5, rng=rng)
    values = rng.standard_normal((batch, 24, 64), dtype=np.float32)
    x = poison_invalid(Sequence(values, masks_of(masks, rng, batch, 24)))
    whole, whole_state, _ = stream_blocks(layer, x, training=False, block=24)
    y, state, _ = stream_blocks(layer, x, training=False, block=block)
    assert not np.isnan(np.asarray(whole.values)).any()
    assert_identical((y, state), (whole, whole_state), f"block {block}")
    assert_identical(y, layer.layer(x, training=False), "layer()")


def test_the_input_half_in_chunks_gives_the_same_bits(monkeypatch):
    rng = np.random.default_rng(12)
    layer = sl.LSTM(64, 5, rng=rng)
    values = rng.standard_normal((3, 40, 64), dtype=np.float32)
    x = poison_invalid(Sequence(values, masks_of("holes", rng, 3, 40)))
    whole = layer.layer(x, training=False)
    # 7 steps of 3 rows a chunk: the last chunk is short
    monkeypatch.setattr(recurrent, "_CHUNK_VALUES", 7 * 3 * 4 * 5)
    assert_identical(layer.layer(x, training=False), whole)


def test_a_batch_of_no_rows_runs():
    layer = sl.LSTM(3, 4, rng=np.random.default_rng(13))
    x = Sequence.from_values(np.zeros((0, 5, 3), np.float32))
    assert layer.layer(x, training=False).values.shape == (0, 5, 4)
    state = layer.get_initial_state(0, ChannelSpec((3,)), training=False)
    y, state = layer.step(x, state, training=False)
    assert y.values.shape == (0, 5, 4) and state["h"].shape == (0, 4)


def test_a_state_stepped_twice_gives_identical_outputs():
    layer = sl.LSTM(3, 4, rng=np.random.default_rng(9))
    x = random_sequence(10, 3, 8, 3, lengths=[8, 5, 3])
    state = layer.get_initial_state(3, ChannelSpec((3,)), training=False)
    _, state = layer.step(x.slice_time(0, 4), state, training=False)
    first = layer.step(x.slice_time(4, 8), state, training=False)
    second = layer.step(x.slice_time(4, 8), state, training=False)
    assert_identical(first, second)
    # the state pins no block's outputs
    y, state = first
    assert not any(np.shares_memory(a, y.values) for a in state.values())


def test_zero_params_zero_everything():
    layer = sl.LSTM(
        3, 4, params={"kernel": np.zeros((7, 16), np.float32), "bias": np.zeros(16, np.float32)}
    )
    x = random_sequence(0, 2, 5, 3)
    y = layer.layer(x, training=False)
    np.testing.assert_array_equal(y.values, 0)
    state = layer.get_initial_state(2, ChannelSpec((3,)), training=False)
    _, state = layer.step(x, state, training=False)
    np.testing.assert_array_equal(state["c"], 0)
    np.testing.assert_array_equal(state["h"], 0)


@pytest.mark.parametrize("case", range(20))
def test_matches_scalar_recurrence_oracle(case):
    rng = np.random.default_rng(500 + case)
    time = int(rng.integers(2, 17))
    layer = sl.LSTM(3, 4, rng=rng)
    x = random_sequence(case, 2, time, 3, lengths=[time, max(1, time - 2)])
    y = layer.layer(x, training=False)
    expect, mask = lstm_oracle(x, layer.parameters["kernel"], layer.parameters["bias"], 4)
    np.testing.assert_array_equal(np.asarray(y.mask), mask)
    np.testing.assert_allclose(np.asarray(y.mask_invalid().values, np.float64), expect, atol=1e-6)


def test_receptive_field_unbounded_past():
    layer = sl.LSTM(3, 4, rng=np.random.default_rng(0))
    assert layer.receptive_field == (-np.inf, 0)


def test_forget_bias_initialized_to_one_plus_noise():
    layer = sl.LSTM(3, 4, rng=np.random.default_rng(1))
    forget = layer.parameters["bias"][4:8]
    assert np.all(forget > 0.4)  # uniform(-0.5, 0.5) + 1.0


def test_state_held_at_invalid_steps():
    layer = sl.LSTM(3, 4, rng=np.random.default_rng(2))
    x = random_sequence(1, 2, 8, 3, lengths=[8, 5])
    state = layer.get_initial_state(2, ChannelSpec((3,)), training=False)
    _, state_a = layer.step(x, state, training=False)
    extended = x.pad_time(0, 4, valid=False)
    _, state_b = layer.step(extended, state, training=False)
    np.testing.assert_array_equal(state_a["c"], state_b["c"])
    np.testing.assert_array_equal(state_a["h"], state_b["h"])


def test_nan_at_invalid_steps_reaches_no_output_or_state():
    # the recurrence itself discards invalid steps, so no caller zeroes them;
    # outputs at invalid steps are unspecified, so they are compared zeroed
    layer = sl.LSTM(3, 4, rng=np.random.default_rng(8))
    x = random_sequence(9, 3, 12, 3, lengths=[12, 7, 2])
    clean, poisoned = x.mask_invalid(), poison_invalid(x)
    assert np.isnan(np.asarray(poisoned.values)[1, 7:]).all()
    with np.errstate(all="raise"):
        assert_identical(
            layer.layer(poisoned, training=False).mask_invalid(),
            layer.layer(clean, training=False).mask_invalid(),
        )
        for block in (1, 3):
            y, state, _ = stream_blocks(layer, poisoned, training=False, block=block)
            y_clean, state_clean, _ = stream_blocks(layer, clean, training=False, block=block)
            assert_identical(
                (y.mask_invalid(), state), (y_clean.mask_invalid(), state_clean), f"block {block}"
            )


def test_long_range_dependence_at_distance_eight():
    layer = sl.LSTM(2, 3, rng=np.random.default_rng(3))
    x = random_sequence(2, 1, 12, 2)
    y = layer.layer(x, training=False)
    bumped = np.array(x.values)
    bumped[0, 2] += 1.0
    y2 = layer.layer(Sequence.from_values(bumped), training=False)
    assert np.abs(np.asarray(y.values)[0, 10] - np.asarray(y2.values)[0, 10]).max() > 1e-5


def test_no_future_dependence():
    layer = sl.LSTM(2, 3, rng=np.random.default_rng(4))
    x = random_sequence(3, 1, 10, 2)
    y = layer.layer(x, training=False)
    bumped = np.array(x.values)
    bumped[0, 7] += 1.0
    y2 = layer.layer(Sequence.from_values(bumped), training=False)
    np.testing.assert_array_equal(np.asarray(y.values)[0, :7], np.asarray(y2.values)[0, :7])


def test_step_matches_layer_any_partition():
    layer = sl.LSTM(3, 4, rng=np.random.default_rng(5))
    x = random_sequence(4, 2, 12, 3, lengths=[12, 7])
    y = layer.layer(x, training=False)
    for block in (1, 2, 4):
        assert_sequences_close(y, step_by_step(layer, x, training=False, block=block), atol=0)


def test_contract_suite():
    layer = sl.LSTM(3, 4, rng=np.random.default_rng(6))
    report = verify_contract(layer, ChannelSpec((3,)))
    assert report.passed, report.render()
