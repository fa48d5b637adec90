"""Self-attention against an O(T^2) masked-softmax oracle, plus cache
semantics the streaming path must honor."""

import copy
import math
import tracemalloc

import numpy as np
import pytest

import seqstream as sl
from seqstream.attention import _CHUNK as CHUNK, _QUERY_ROWS as QUERY_ROWS
from seqstream.sequence import ChannelSpec, Sequence
from seqstream.streaming import step_by_step
from seqstream.verify import verify_contract

from conftest import assert_sequences_close, random_sequence


def attention_oracle(x: Sequence, params, num_heads, units, past, future):
    """Explicit double loop over (query, key) pairs in float64."""
    xm = np.asarray(x.mask_invalid().values, np.float64)
    mask = np.asarray(x.mask)
    batch, time = mask.shape
    q = np.einsum("btd,dhu->bthu", xm, params["q_proj"].astype(np.float64))
    k = np.einsum("btd,dhu->bthu", xm, params["k_proj"].astype(np.float64))
    v = np.einsum("btd,dhu->bthu", xm, params["v_proj"].astype(np.float64))
    out = np.zeros((batch, time, num_heads, units))
    scale = 1.0 / np.sqrt(units)
    for b in range(batch):
        for t in range(time):
            if not mask[b, t]:
                continue
            for h in range(num_heads):
                logits, vals = [], []
                for u in range(time):
                    if not mask[b, u]:
                        continue
                    if u > t + future:
                        continue
                    if past >= 0 and u < t - past:
                        continue
                    logits.append(np.dot(q[b, t, h], k[b, u, h]) * scale)
                    vals.append(v[b, u, h])
                logits = np.asarray(logits)
                weights = np.exp(logits - logits.max())
                weights = weights / weights.sum()
                out[b, t, h] = np.einsum("s,su->u", weights, np.stack(vals))
    return out, mask


def where_attend(layer, q, hi, kb, vb, mb):
    """The masked softmax as one np.where over a combined mask, over every
    chunk of the cache buffers, folded chunk by chunk in stream order:
    `_attend`'s bit reference, on its arguments (q [B, H, R, U], buffers
    kb [B, H, U, cap], vb [B, H, cap, U'] and mb [B, cap]). Column U of the
    values holds ones at the written slots, so each chunk's matmul also
    sums its weights."""
    rows, units = q.shape[2:]
    slot = np.arange(mb.shape[1])
    top = hi + np.arange(rows)[:, None]  # row r admits slots below hi + r
    window = slot < top
    if not layer.unbounded_past:
        window &= slot >= top - 1 - layer.max_future_horizon - layer.max_past_horizon
    # every matmul gets two rows or more, as `_attend`'s do
    logits = (np.concatenate([q, q], axis=2) @ kb)[:, :, :rows]
    logits = np.where(window[None, None] & (mb == 1)[:, None, None, :], logits, np.float32(-np.inf))
    peak = np.max(logits, axis=-1, keepdims=True)
    weights = np.exp(logits - np.where(np.isfinite(peak), peak, np.float32(0)))
    total = 0
    for c in range(0, mb.shape[1], CHUNK):
        chunk = np.concatenate([weights[..., c : c + CHUNK]] * 2, axis=2)
        total = total + (chunk @ vb[:, :, c : c + CHUNK])[:, :, :rows]
    return total[..., :units] / np.maximum(total[..., units : units + 1], np.float32(1e-30))


def admitted_mask(layer, q, hi, kb, vb, mb):
    """The key mask of the slots some query of an `_attend` call admits."""
    lo = 0 if layer.unbounded_past else hi - 1 - layer.max_future_horizon - layer.max_past_horizon
    return mb[:, lo : hi + q.shape[2] - 1]


def attend_calls(layer, run):
    """(arguments, context [B, H, R, U]) of every `_attend` call that run() makes."""
    calls = []
    attend = layer._attend

    def record(*args):
        # the cache buffers as the call saw them: later steps append into them
        seen = [np.array(a) if isinstance(a, np.ndarray) else a for a in args[:-1]]
        attend(*args)
        calls.append((seen, np.array(args[-1]).transpose(0, 2, 1, 3)))

    layer._attend = record
    try:
        run()
    finally:
        del layer._attend
    return calls


def make_layer(seed=0, past=-1, future=0, d=4, heads=2, units=4):
    return sl.DotProductSelfAttention(
        d, heads, units, max_past_horizon=past, max_future_horizon=future,
        rng=np.random.default_rng(seed),
    )


class TestAttentionLayer:
    def test_single_valid_timestep_returns_value_projection(self):
        layer = make_layer(seed=1)
        x = random_sequence(0, 1, 4, 4, lengths=[1])
        y = layer.layer(x, training=False)
        v = np.einsum(
            "btd,dhu->bthu", np.asarray(x.mask_invalid().values), layer.parameters["v_proj"]
        )
        np.testing.assert_allclose(y.values[0, 0], v[0, 0], atol=1e-6)

    @pytest.mark.parametrize("case", range(20))
    def test_matches_masked_softmax_oracle(self, case):
        rng = np.random.default_rng(400 + case)
        past = (-1, 3, 5)[case % 3]
        future = (0, 2)[case % 2]
        time = int(rng.integers(3, 17))
        layer = make_layer(seed=case, past=past, future=future)
        x = random_sequence(case, 2, time, 4, lengths=[time, max(1, time - 2)])
        y = layer.layer(x, training=False)
        expect, mask = attention_oracle(
            x, layer.parameters, 2, 4, past, future
        )
        np.testing.assert_array_equal(np.asarray(y.mask), mask)
        np.testing.assert_allclose(
            np.asarray(y.mask_invalid().values, np.float64), expect, atol=1e-5
        )

    @pytest.mark.parametrize("case", range(20))
    def test_attend_matches_where_reference_bitwise(self, case):
        rng = np.random.default_rng(400 + case)
        past = (-1, 3, 5)[case % 3]
        future = (0, 2)[case % 2]
        time = int(rng.integers(3, 17))
        layer = make_layer(seed=case, past=past, future=future)
        x = random_sequence(case, 2, time, 4, lengths=[time, max(1, time - 2)])
        calls = attend_calls(layer, lambda: layer.layer(x, training=False))
        calls += attend_calls(layer, lambda: step_by_step(layer, x, training=False, block=2))
        assert len(calls) > 1
        for args, out in calls:
            assert out.tobytes() == where_attend(layer, *args).tobytes()

    @pytest.mark.parametrize("past,future", [(-1, 0), (3, 2)])
    def test_attend_matches_where_reference_with_and_without_invalid_keys(self, past, future):
        """`_attend` writes the invalid-key refusals only when a key is
        invalid; both kinds of call give the reference's bits."""
        layer = make_layer(seed=13, past=past, future=future)
        x = random_sequence(13, 2, 12, 4, lengths=[12, 8])
        calls = attend_calls(layer, lambda: step_by_step(layer, x, training=False, block=1))
        every_key_valid = [bool(np.all(admitted_mask(layer, *args))) for args, _ in calls]
        assert any(every_key_valid) and not all(every_key_valid)
        for args, out in calls:
            assert out.tobytes() == where_attend(layer, *args).tobytes()

    @pytest.mark.parametrize("past,future", [(-1, 0), (3, 2)])
    def test_attend_matches_where_reference_on_empty_and_invalid_rows(self, past, future):
        layer = make_layer(seed=11, past=past, future=future)
        x = random_sequence(11, 2, 9, 4, lengths=[9, 0])  # row 1 is all invalid

        def run():
            layer.layer(x, training=False)
            step_by_step(layer, x, training=False, block=3)

        # an empty sequence: only F flush queries, and no call without them
        calls = attend_calls(layer, lambda: layer.layer(x[:, :0], training=False))
        assert [out.shape[2] for _, out in calls] == ([future] if future else [])
        calls += attend_calls(layer, run)
        for args, out in calls:
            assert out.tobytes() == where_attend(layer, *args).tobytes()

    @pytest.mark.parametrize("past,future", [(-1, 0), (-1, 2), (40, 3)])
    def test_attend_matches_where_reference_over_many_chunks(self, past, future):
        """Keys across several chunks: the reference adds every chunk of
        the buffers in stream order, so a call that misaligns, drops or
        reorders chunks gives other bits."""
        layer = make_layer(seed=17, past=past, future=future)
        x = random_sequence(17, 2, 300, 4, lengths=[300, 230])
        calls = attend_calls(layer, lambda: layer.layer(x, training=False))
        calls += attend_calls(layer, lambda: step_by_step(layer, x, training=False, block=7))
        assert max(args[2].shape[-1] for args, _ in calls) > 4 * CHUNK
        for args, out in calls:
            assert out.tobytes() == where_attend(layer, *args).tobytes()

    @pytest.mark.parametrize("past,future", [(-1, 0), (-1, 2), (16, 2)])
    def test_layer_allocates_one_logits_buffer_per_query_block(self, past, future):
        """layer() computes its logits a block of queries at a time, so at
        T = 2048 its peak stays near one [B, H, Q, S] buffer, S the keys
        rounded up to whole chunks, not the [B, H, T, S] of all at once."""
        time = 2048
        layer = make_layer(seed=12, past=past, future=future)
        x = random_sequence(12, 2, time, 4, lengths=[time, 1500])
        layer.layer(x, training=False)  # remember the output spec first
        tracemalloc.start()
        try:
            layer.layer(x, training=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        keys = CHUNK * math.ceil((time + future) / CHUNK)
        block_bytes = 2 * 2 * QUERY_ROWS * keys * np.dtype(np.float32).itemsize
        assert peak <= 1.5 * block_bytes

    def test_bounded_past_ignores_older_inputs(self):
        layer = make_layer(seed=2, past=2)
        x = random_sequence(1, 1, 10, 4)
        y = layer.layer(x, training=False)
        perturbed_values = np.array(x.values)
        perturbed_values[0, 1] += 1.0  # more than 2 steps before t=8
        y2 = layer.layer(Sequence.from_values(perturbed_values), training=False)
        np.testing.assert_allclose(y.values[0, 8:], y2.values[0, 8:], atol=1e-7)
        assert np.abs(np.asarray(y.values)[0, 1:4] - np.asarray(y2.values)[0, 1:4]).max() > 1e-4

    def test_softmax_rows_sum_to_one(self):
        # via the oracle decomposition: uniform values make each output the mean
        layer = make_layer(seed=3, past=-1)
        x = Sequence.from_values(np.ones((1, 6, 4), np.float32))
        y = layer.layer(x, training=False)
        v = np.einsum("btd,dhu->bthu", np.asarray(x.values), layer.parameters["v_proj"])
        np.testing.assert_allclose(np.asarray(y.values), v, atol=1e-5)

    def test_unbounded_future_rejected(self):
        with pytest.raises(ValueError, match="max_future_horizon"):
            make_layer(future=-1)

    def test_output_spec(self):
        layer = make_layer()
        assert layer.get_output_spec(ChannelSpec((4,))) == ChannelSpec((2, 4))
        with pytest.raises(sl.SpecMismatchError):
            layer.get_output_spec(ChannelSpec((5,)))

    def test_latency_equals_future_horizon(self):
        layer = make_layer(past=4, future=2)
        assert layer.input_latency == 2
        assert layer.output_latency == 2
        assert layer.receptive_field == (-4, 2)
        assert make_layer(past=-1).receptive_field == (-np.inf, 0)


class TestAttentionStep:
    @pytest.mark.parametrize("past,future", [(-1, 0), (4, 0), (4, 2)])
    def test_step_matches_layer(self, past, future):
        layer = make_layer(seed=4, past=past, future=future)
        x = random_sequence(2, 2, 16, 4, lengths=[16, 11])
        y = layer.layer(x, training=False)
        ys = step_by_step(layer, x, training=False)
        assert_sequences_close(y, ys)

    def test_first_step_single_valid_position(self):
        layer = make_layer(seed=5, past=4)
        x = random_sequence(3, 1, 1, 4)
        state = layer.get_initial_state(1, ChannelSpec((4,)), training=False)
        y, _ = layer.step(x, state, training=False)
        v = np.einsum(
            "btd,dhu->bthu", np.asarray(x.mask_invalid().values), layer.parameters["v_proj"]
        )
        np.testing.assert_allclose(np.asarray(y.values), v, atol=1e-6)

    @pytest.mark.parametrize("past,future", [(4, 0), (-1, 0), (3, 2)])
    def test_invalid_block_acts_as_zeros(self, past, future):
        """An all-invalid block takes cache slots but never reaches an output."""
        layer = make_layer(seed=6, past=past, future=future)
        valid = [random_sequence(4 + i, 2, 4, 4) for i in range(3)]
        invalid = {
            fill: Sequence(np.full((2, 4, 4), fill, np.float32), np.zeros((2, 4), bool))
            for fill in (np.nan, 0.0)
        }
        runs = {}
        for fill, gap in invalid.items():
            state = layer.get_initial_state(2, ChannelSpec((4,)), training=False)
            outputs = []
            for x in [valid[0], gap, valid[1], valid[2]]:
                y, state = layer.step(x, state, training=False)
                outputs.append(y)
                for key, value in state.items():
                    assert not np.isnan(value).any(), key
            runs[fill] = outputs, state
        (nan_out, nan_state), (zero_out, zero_state) = runs[np.nan], runs[0.0]
        for a, b in zip(nan_out, zero_out):
            np.testing.assert_array_equal(np.asarray(a.values), np.asarray(b.values))
            np.testing.assert_array_equal(np.asarray(a.mask), np.asarray(b.mask))
        for key in nan_state:
            np.testing.assert_array_equal(nan_state[key], zero_state[key])

    def test_bounded_state_shapes_constant(self):
        layer = make_layer(seed=7, past=3, future=2)
        x = random_sequence(5, 2, 4, 4)
        state = layer.get_initial_state(2, ChannelSpec((4,)), training=False)
        shapes = {k: np.shape(v) for k, v in state.items() if isinstance(v, np.ndarray)}
        for _ in range(4):
            _, state = layer.step(x, state, training=False)
            # the window reads relative positions; the position places the cache in its chunks
            assert list(state) == [
                "keys", "values", "key_mask", "pending_q", "pending_mask", "position"
            ]
            for key, shape in shapes.items():
                assert np.shape(state[key]) == shape, key
        assert not layer.state_grows

    def test_unbounded_cache_grows(self):
        layer = make_layer(seed=8, past=-1)
        assert layer.state_grows
        x = random_sequence(6, 2, 4, 4)
        state = layer.get_initial_state(2, ChannelSpec((4,)), training=False)
        _, state = layer.step(x, state, training=False)
        first = state["key_mask"].shape[1]
        _, state = layer.step(x, state, training=False)
        assert state["key_mask"].shape[1] > first


def snapshot(state):
    """A deep copy of a state's arrays, to compare its bytes with later."""
    return {key: np.array(value) for key, value in state.items()}


def assert_same_state(got, want):
    assert got.keys() == want.keys()
    for key in want:
        got_key, want_key = np.asarray(got[key]), np.asarray(want[key])
        assert (got_key.dtype, got_key.shape) == (want_key.dtype, want_key.shape), key
        assert got_key.tobytes() == want_key.tobytes(), key


def assert_same_step(got, want):
    (y, state), (y_want, state_want) = got, want
    assert y.values.tobytes() == y_want.values.tobytes()
    assert np.array_equal(y.mask, y_want.mask)
    assert_same_state(state, state_want)


def stream(layer, batch, block, steps, seed=20):
    """The states after each of `steps` blocks of one random stream."""
    x = random_sequence(seed, batch, block * steps, 4)
    state = layer.get_initial_state(batch, x.channel_spec, training=False)
    states = []
    for start in range(0, x.time, block):
        _, state = layer.step(x.slice_time(start, start + block), state, training=False)
        states.append(state)
    return states


def buffers_used(states):
    """How many key buffers the states' views look into, in stream order."""
    count, last = 0, None
    for state in states:
        if state["keys"].base is not last:
            count, last = count + 1, state["keys"].base
    return count


class TestKVCache:
    """The cache appends in place into capacity buffers: a counting test of
    the copies, and of the states the appends must never disturb."""

    @pytest.mark.parametrize("batch,block,steps", [(1, 1, 1024), (4, 8, 128)])
    def test_unbounded_stream_replaces_its_buffers_log_many_times(self, batch, block, steps):
        layer = make_layer(seed=13, past=-1)
        states = stream(layer, batch, block, steps)
        assert states[-1]["key_mask"].shape == (batch, block * steps)
        assert buffers_used(states) <= math.ceil(math.log2(steps)) + 2
        # the first step copies into a buffer of its slots rounded up to whole
        # chunks, as layer() does: room for the next blocks of a short stream
        assert states[0]["keys"].base.shape[-1] == CHUNK * math.ceil(block / CHUNK)

    @pytest.mark.parametrize("past,future,block", [(5, 2, 1), (16, 0, 4), (3, 1, 8)])
    def test_bounded_stream_keeps_its_shape_and_compacts_rarely(self, past, future, block):
        layer = make_layer(seed=14, past=past, future=future)
        steps = 200
        states = stream(layer, 2, block, steps)
        window = past + future
        for state in states:
            assert state["keys"].shape == (2, 2, 4, window)
            assert state["values"].shape == (2, 2, window, 4)
            assert state["key_mask"].shape == (2, window)
        # each buffer starts with one copy of window + block slots, so this
        # bounds the slots copied by the slots appended: O(block) per step
        assert buffers_used(states) <= steps * block // (window + block) + 2

    @pytest.mark.parametrize("past,future", [(-1, 0), (-1, 2), (4, 0), (3, 2)])
    def test_stepping_a_state_twice_leaves_its_first_successor_alone(self, past, future):
        layer = make_layer(seed=15, past=past, future=future)
        a = stream(layer, 2, 2, 6)[-1]
        x1, x2, x3 = (random_sequence(seed, 2, 2, 4) for seed in (31, 32, 33))
        fork = copy.deepcopy(a)
        first = layer.step(x1, a, training=False)
        b = snapshot(first[1])
        second = layer.step(x2, a, training=False)
        assert_same_state(first[1], b)
        assert_same_step(first, layer.step(x1, copy.deepcopy(fork), training=False))
        assert_same_step(second, layer.step(x2, copy.deepcopy(fork), training=False))
        # the first successor still appends, and what it returns is a fresh copy's
        fresh = layer.step(x3, copy.deepcopy(b), training=False)
        assert_same_step(layer.step(x3, first[1], training=False), fresh)

    @pytest.mark.parametrize("past,future", [(-1, 0), (4, 2)])
    def test_a_state_of_caller_arrays_leaves_them_unchanged(self, past, future):
        layer = make_layer(seed=16, past=past, future=future)
        state = stream(layer, 2, 2, 6)[-1]
        # writeable copies of the very arrays the views look into, unwritten
        # marks and all, viewed at the same offsets and made read-only
        owners, aliased = {}, {"position": state["position"]}
        for key, view in state.items():
            if key == "position":
                continue
            base = view if view.base is None else view.base
            owners[key] = np.array(base)
            offset = view.__array_interface__["data"][0] - base.__array_interface__["data"][0]
            alias = np.ndarray(
                view.shape, view.dtype, buffer=owners[key], offset=offset, strides=view.strides
            )
            alias.flags.writeable = False
            aliased[key] = alias
        before = snapshot(owners)
        x = random_sequence(34, 2, 2, 4)
        got = layer.step(x, aliased, training=False)
        assert_same_state(owners, before)
        assert_same_step(got, layer.step(x, state, training=False))


@pytest.mark.parametrize("past,future", [(-1, 0), (4, 0), (4, 2), (0, 3), (-1, 2)])
def test_contract_suite(past, future):
    layer = make_layer(seed=9, past=past, future=future)
    report = verify_contract(layer, ChannelSpec((4,)))
    assert report.passed, report.render()


@pytest.mark.parametrize(
    "front,past,future",
    [
        pytest.param(lambda: sl.Delay(1), 2, 0, id="delay"),
        pytest.param(lambda: sl.StepDelay(1), 3, 1, id="step_delay_future"),
        pytest.param(
            lambda: sl.Conv1D(4, 4, 3, padding="same", rng=np.random.default_rng(1)),
            2, 0, id="same_conv",
        ),
    ],
)
def test_contract_holds_behind_leading_invalid_steps(front, past, future):
    """Upstream latency puts invalid steps first; the bounded-past cache must
    still index keys by position, not by a count of valid entries."""
    tree = sl.Serial([front(), make_layer(seed=10, past=past, future=future)])
    report = verify_contract(tree, ChannelSpec((4,)))
    assert report.passed, report.render()
