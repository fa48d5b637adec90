"""Time-mixing layers against explicit-loop oracles and the metadata the
convolution family must report."""

import itertools
import math

import numpy as np
import pytest
from fractions import Fraction

import seqstream as sl
from seqstream import tensor
from seqstream.layer import poison_invalid
from seqstream.sequence import Sequence
from seqstream.streaming import step_by_step
from seqstream.temporal import PADDING_MODES, explicit_padding, window_curve

from conftest import assert_sequences_close, random_sequence

INF = math.inf


def conv1d_oracle(x: Sequence, weight, bias, stride, dilation, padding):
    """Direct convolution: explicit float64 sum over taps on masked data."""
    xm = np.asarray(x.mask_invalid().values, np.float64)
    mask = np.asarray(x.mask)
    k, cin, cout = weight.shape
    pad_left, _ = explicit_padding(padding, k, dilation)
    batch, time = mask.shape
    out_len = -(-time // stride)
    out = np.zeros((batch, out_len, cout))
    for b in range(batch):
        for t in range(out_len):
            for j in range(k):
                u = t * stride - pad_left + j * dilation
                if 0 <= u < time:
                    for ci in range(cin):
                        out[b, t] += xm[b, u, ci] * weight[j, ci].astype(np.float64)
            out[b, t] += bias.astype(np.float64)
    out_mask = mask[:, ::stride][:, :out_len]
    return out, out_mask


class BtkcConv1D(sl.Conv1D):
    """Conv1D as an einsum over the [B, out, k, C] windows, cast to float32
    as Conv1D casts them: the contraction it ran before BLAS, kept as a
    float32 reference that sums in another order."""

    def _reduce_windows(self, values, idx, mask):
        windows = values[:, idx].astype(np.float32, copy=False)
        y = np.einsum("btkc,kcf->btf", windows, self._params["weight"], optimize=False)
        return (y + self._params["bias"]).astype(np.float32, copy=False)


class LoopedWindowsConv1D(sl.Conv1D):
    """Conv1D with its [B, out, k * C] window rows built by an explicit loop
    over outputs and taps, then contracted by ``tensor.matmul_rows`` on the
    flattened [k * C, F] weight: a bit reference for the gather and the
    contraction rule."""

    def _reduce_windows(self, values, idx, mask):
        k, c = self.kernel_size, self.in_channels
        rows = np.zeros((len(values), len(idx), k * c), np.float32)
        for t in range(len(idx)):
            for j in range(k):
                rows[:, t, j * c : (j + 1) * c] = values[:, t * self.stride + j * self.dilation]
        weight = tensor.rows_weight(self._params["weight"].reshape(k * c, self.filters))
        return tensor.matmul_rows(rows, weight, self.filters) + self._params["bias"]


def conv_grid(dtype, batch, filters=None, reference=BtkcConv1D):
    """(new, reference) outputs of Conv1D and ``reference`` with the same
    params over kernel 1-5, stride 1-3, dilation 1-2, every padding and 1-5
    channels, on ragged rows of ``dtype``; ``filters`` None draws 2-6 per
    conv."""
    rng = np.random.default_rng([batch, filters or 0, len(dtype)])
    for k, stride, dilation, padding, channels in itertools.product(
        range(1, 6), range(1, 4), (1, 2), PADDING_MODES, range(1, 6)
    ):
        n = filters or int(rng.integers(2, 7))
        conv = sl.Conv1D(channels, n, k, stride, dilation, padding, rng=rng)
        ref = reference(channels, n, k, stride, dilation, padding, params=conv.parameters)
        time = int(rng.integers(1, 25))
        shape = (batch, time, channels)
        if dtype == "f32":
            values = rng.uniform(-0.5, 0.5, shape).astype(np.float32)
        elif dtype == "i32":
            values = rng.integers(-4, 5, shape).astype(np.int32)
        else:
            values = rng.random(shape) < 0.5
        lengths = [time] + rng.integers(0, time + 1, size=batch - 1).tolist()
        x = Sequence.from_lengths(values, lengths)
        yield conv.layer(x, training=False), ref.layer(x, training=False)


def tconv_oracle(x: Sequence, weight, bias, stride, padding):
    """Transpose convolution via explicit scatter-add in float64."""
    xm = np.asarray(x.mask_invalid().values, np.float64)
    mask = np.asarray(x.mask)
    k, cin, cout = weight.shape
    trim = max(k - stride, 0) // 2 if padding == "same" else 0
    batch, time = mask.shape
    out_len = time * stride
    out = np.zeros((batch, out_len, cout))
    for b in range(batch):
        for i in range(time):
            for j in range(k):
                o = i * stride + j - trim
                if 0 <= o < out_len:
                    for ci in range(cin):
                        out[b, o] += xm[b, i, ci] * weight[j, ci].astype(np.float64)
    out += bias.astype(np.float64)
    return out, np.repeat(mask, stride, axis=1)


def pool_oracle(kind, x: Sequence, window, stride, padding):
    """Windowed reduction over valid members only; avg divides by the count."""
    values = np.asarray(x.values, np.float64)
    mask = np.asarray(x.mask)
    pad_left, _ = explicit_padding(padding, window, 1)
    batch, time = mask.shape
    out_len = -(-time // stride)
    out = np.zeros((batch, out_len) + values.shape[2:])
    for b in range(batch):
        for t in range(out_len):
            members = []
            for j in range(window):
                u = t * stride - pad_left + j
                if 0 <= u < time and mask[b, u]:
                    members.append(values[b, u])
            if members:
                stackd = np.stack(members)
                if kind == "max":
                    out[b, t] = stackd.max(axis=0)
                elif kind == "min":
                    out[b, t] = stackd.min(axis=0)
                else:
                    out[b, t] = stackd.sum(axis=0) / len(members)
    return out, mask[:, ::stride][:, :out_len]


def shift_oracle(x: Sequence, shift: int):
    """Output step t copies input step t + shift where both steps are valid,
    zeros elsewhere: a delay shifts by -length, a lookahead by +length."""
    values, mask = np.asarray(x.values), np.asarray(x.mask)
    out, out_mask = np.zeros_like(values), np.zeros_like(mask)
    batch, time = mask.shape
    for b in range(batch):
        for t in range(time):
            u = t + shift
            if 0 <= u < time and mask[b, u] and mask[b, t]:
                out[b, t] = values[b, u]
                out_mask[b, t] = True
    return out, out_mask


class TestConv1D:
    def test_k1_identity_weight_matches_dense(self, rng):
        w = rng.uniform(-0.5, 0.5, (1, 3, 4)).astype(np.float32)
        b = rng.uniform(-0.5, 0.5, 4).astype(np.float32)
        conv = sl.Conv1D(3, 4, 1, params={"weight": w, "bias": b})
        dense = sl.Dense(3, 4, params={"weight": w[0], "bias": b})
        x = random_sequence(0, 2, 6, 3)
        assert_sequences_close(
            conv.layer(x, training=False), dense.layer(x, training=False), atol=1e-6
        )

    @pytest.mark.parametrize(
        "padding,expected",
        [("causal", (-4, 0)), ("reverse_causal", (0, 4)), ("same", (-2, 2))],
    )
    def test_k5_receptive_fields(self, padding, expected, rng):
        layer = sl.Conv1D(3, 3, 5, padding=padding, rng=rng)
        assert layer.receptive_field == expected

    def test_reverse_causal_latencies(self, rng):
        layer = sl.Conv1D(3, 3, 5, padding="reverse_causal", rng=rng)
        assert layer.input_latency == 4
        assert layer.output_latency == 4

    def test_strided_latencies_differ(self, rng):
        layer = sl.Conv1D(3, 3, 5, stride=2, padding="reverse_causal", rng=rng)
        assert layer.input_latency == 4
        assert layer.output_latency == 2
        assert layer.output_ratio == Fraction(1, 2)
        assert layer.block_size == 2

    @pytest.mark.parametrize("case", range(20))
    def test_matches_direct_convolution_oracle(self, case):
        rng = np.random.default_rng(100 + case)
        k = int(rng.integers(1, 6))
        stride = int(rng.integers(1, 4))
        dilation = int(rng.integers(1, 3))
        padding = ("causal", "reverse_causal", "same")[case % 3]
        time = int(rng.integers(max(4, k), 17))
        layer = sl.Conv1D(2, 3, k, stride=stride, dilation=dilation, padding=padding, rng=rng)
        x = random_sequence(case, 2, time, 2, lengths=[time, max(1, time - 3)])
        y = layer.layer(x, training=False)
        expect, expect_mask = conv1d_oracle(
            x, layer.parameters["weight"], layer.parameters["bias"], stride, dilation, padding
        )
        np.testing.assert_array_equal(np.asarray(y.mask), expect_mask)
        got = np.asarray(y.mask_invalid().values, np.float64)
        np.testing.assert_allclose(got, np.where(expect_mask[..., None], expect, 0), atol=1e-5)

    @pytest.mark.parametrize("filters", [1, None], ids=["1", "2-6"])
    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("dtype", ["f32", "i32", "bool"])
    def test_contraction_is_bitwise_the_looped_windows_one(self, dtype, batch, filters):
        for y, ref in conv_grid(dtype, batch, filters, reference=LoopedWindowsConv1D):
            assert np.array_equal(y.mask, ref.mask)
            assert y.values.dtype == ref.values.dtype == np.float32
            assert y.values.tobytes() == ref.values.tobytes()

    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("dtype", ["f32", "i32", "bool"])
    def test_contraction_agrees_with_the_btkc_one(self, dtype, batch):
        # BLAS and einsum sum the taps in other orders, so the float32 sums
        # may round apart; the i32 draws (|v| <= 4) are 8x the f32 ones
        atol = 8e-6 if dtype == "i32" else 1e-6
        for y, ref in conv_grid(dtype, batch):
            assert np.array_equal(y.mask, ref.mask)
            np.testing.assert_allclose(y.values, ref.values, atol=atol, rtol=0)

    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("dtype", ["f32", "i32", "bool"])
    def test_one_filter_contraction_agrees_with_the_btkc_one(self, dtype, batch):
        # with one filter einsum picks another loop order: the float32 sums may
        # round apart; the i32 draws (|v| <= 4) are 8x the f32 ones (|v| <= 0.5)
        atol = 8e-6 if dtype == "i32" else 1e-6
        for y, ref in conv_grid(dtype, batch, filters=1):
            assert np.array_equal(y.mask, ref.mask)
            np.testing.assert_allclose(y.values, ref.values, atol=atol, rtol=0)

    def test_int32_input_contracts_as_its_float32_cast(self, rng):
        # past 2**24 most int32 values round when cast to float32, and small
        # taps keep the sums there: a float64 contraction rounds apart
        conv = sl.Conv1D(2, 3, 3, rng=rng)
        values = rng.integers(2**24, 2**26, (2, 9, 2)).astype(np.int32)
        y = conv.layer(Sequence.from_lengths(values, [9, 6]), training=False)
        cast = conv.layer(Sequence.from_lengths(values.astype(np.float32), [9, 6]), training=False)
        assert np.array_equal(y.mask, cast.mask)
        assert y.values.tobytes() == cast.values.tobytes()

    def test_channel_mismatch(self, rng):
        layer = sl.Conv1D(3, 4, 3, rng=rng)
        with pytest.raises(sl.SpecMismatchError):
            layer.layer(random_sequence(0, 1, 6, 5), training=False)

    def test_initial_state_holds_invalid_context(self, rng):
        layer = sl.Conv1D(3, 4, 3, padding="causal", rng=rng)
        state = layer.get_initial_state(2, sl.ChannelSpec((3,)), training=False)
        values, mask = state
        assert values.shape == (2, 2, 3)  # (k-1) buffered steps
        assert not mask.any() and not values.any()


class TestConv1DTranspose:
    def test_per_step_rf_with_hole(self, rng):
        layer = sl.Conv1DTranspose(3, 1, 1, stride=2, padding="same", rng=rng)
        assert layer.receptive_field_per_step == {0: (0, 0), 1: None}
        assert layer.receptive_field == (0, 0)
        assert layer.output_ratio == Fraction(2)

    def test_k_equals_stride_ones_kernel_repeats_impulse(self):
        k = s = 3
        layer = sl.Conv1DTranspose(
            1, 1, k, stride=s, padding="causal",
            params={"weight": np.ones((k, 1, 1), np.float32), "bias": np.zeros(1, np.float32)},
        )
        impulse = np.zeros((1, 5, 1), np.float32)
        impulse[0, 2, 0] = 1.0
        y = layer.layer(Sequence.from_values(impulse), training=False)
        expect, _ = tconv_oracle(
            Sequence.from_values(impulse), layer.parameters["weight"],
            layer.parameters["bias"], s, "causal",
        )
        np.testing.assert_allclose(np.asarray(y.values), expect, atol=1e-6)
        np.testing.assert_array_equal(y.values[0, :, 0], np.repeat(impulse[0, :, 0], s))

    def test_s1_k1_identity_kernel(self):
        layer = sl.Conv1DTranspose(
            2, 2, 1, stride=1,
            params={"weight": np.eye(2, dtype=np.float32)[None], "bias": np.zeros(2, np.float32)},
        )
        x = random_sequence(1, 2, 6, 2)
        assert_sequences_close(layer.layer(x, training=False), x)

    @pytest.mark.parametrize("case", range(20))
    def test_matches_scatter_add_oracle(self, case):
        rng = np.random.default_rng(200 + case)
        k = int(rng.integers(1, 7))
        stride = int(rng.integers(1, 5))
        padding = ("causal", "same")[case % 2]
        time = int(rng.integers(2, 17))
        layer = sl.Conv1DTranspose(2, 3, k, stride=stride, padding=padding, rng=rng)
        x = random_sequence(case, 2, time, 2, lengths=[time, max(1, time - 2)])
        y = layer.layer(x, training=False)
        expect, expect_mask = tconv_oracle(
            x, layer.parameters["weight"], layer.parameters["bias"], stride, padding
        )
        np.testing.assert_array_equal(np.asarray(y.mask), expect_mask)
        got = np.asarray(y.mask_invalid().values, np.float64)
        np.testing.assert_allclose(got, np.where(expect_mask[..., None], expect, 0), atol=1e-5)

    def test_no_bias_matches_scatter_add_oracle(self, rng):
        layer = sl.Conv1DTranspose(2, 3, 5, stride=2, padding="same", use_bias=False, rng=rng)
        assert "bias" not in layer.parameters
        x = random_sequence(4, 2, 11, 2, lengths=[11, 7])
        expect, expect_mask = tconv_oracle(
            x, layer.parameters["weight"], np.zeros(3, np.float32), 2, "same"
        )
        y = layer.layer(x, training=False)
        assert y.values.dtype == np.float32
        np.testing.assert_array_equal(np.asarray(y.mask), expect_mask)
        got = np.asarray(y.mask_invalid().values, np.float64)
        np.testing.assert_allclose(got, np.where(expect_mask[..., None], expect, 0), atol=1e-5)

    def test_int32_input_contracts_as_its_float32_cast(self, rng):
        # past 2**24 most int32 values round when cast to float32
        layer = sl.Conv1DTranspose(2, 3, 3, stride=2, rng=rng)
        values = rng.integers(2**24, 2**26, (2, 9, 2)).astype(np.int32)
        y = layer.layer(Sequence.from_lengths(values, [9, 6]), training=False)
        cast = layer.layer(Sequence.from_lengths(values.astype(np.float32), [9, 6]), training=False)
        assert np.array_equal(y.mask, cast.mask)
        assert y.values.tobytes() == cast.values.tobytes()


class TestResampling:
    def test_rate_one_identity(self):
        x = random_sequence(2, 2, 6, 3)
        for layer in (sl.Downsample1D(1), sl.Upsample1D(1)):
            assert_sequences_close(layer.layer(x, training=False), x)

    def test_down3_takes_every_third(self):
        x = Sequence.from_values(np.arange(9, dtype=np.float32).reshape(1, 9, 1))
        y = sl.Downsample1D(3).layer(x, training=False)
        np.testing.assert_array_equal(y.values[0, :, 0], [0, 3, 6])

    def test_up_then_down_identity(self):
        x = random_sequence(3, 2, 8, 3)
        composed = sl.Serial([sl.Upsample1D(2), sl.Downsample1D(2)])
        assert_sequences_close(composed.layer(x, training=False), x)
        assert composed.output_ratio == 1

    def test_down_then_up_block_size_two(self):
        # the paper's internal-resampling example: ratio 1 but block 2
        composed = sl.Serial([sl.Downsample1D(2), sl.Upsample1D(2)])
        assert composed.output_ratio == 1
        assert composed.block_size == 2


class TestDelayLookahead:
    def test_zero_is_identity(self):
        x = random_sequence(4, 2, 6, 3)
        assert_sequences_close(sl.Delay(0).layer(x, training=False), x)
        assert_sequences_close(sl.Lookahead(0).layer(x, training=False), x)

    def test_delay_then_lookahead_recovers_valid_region(self):
        x = random_sequence(5, 2, 8, 3).mask_invalid()
        composed = sl.Serial([sl.Delay(2), sl.Lookahead(2)])
        y = composed.layer(x, training=False)
        lengths = np.asarray(x.mask).sum(axis=1)
        for b in range(2):
            keep = int(lengths[b]) - 2  # the final delayed steps fall off the end
            np.testing.assert_allclose(
                np.asarray(y.values)[b, :keep], np.asarray(x.values)[b, :keep], atol=0
            )

    def test_delay_rf_anchor(self):
        assert sl.Delay(3).receptive_field == (-3, -3)
        assert sl.Lookahead(2).receptive_field == (2, 2)

    @pytest.mark.parametrize("time", [0, 1, 4, 9])
    @pytest.mark.parametrize("length", [0, 1, 2, 5])
    @pytest.mark.parametrize("cls, sign", [(sl.Delay, -1), (sl.Lookahead, 1)])
    def test_matches_the_index_oracle_over_end_padded_rows(self, cls, sign, length, time):
        rng = np.random.default_rng(10 * time + length)
        lengths = np.array([time, time // 2, 0])
        x = Sequence.from_lengths(rng.standard_normal((3, time, 2)).astype(np.float32), lengths)
        expect, expect_mask = shift_oracle(x, sign * length)
        # a delayed row ends where its input does; a lookahead row `length` steps earlier
        end = np.where(lengths > length, lengths - length * (cls is sl.Lookahead), 0)
        layer = cls(length)
        for y in (layer.layer(poison_invalid(x), training=False), step_by_step(layer, x, training=False)):
            np.testing.assert_array_equal(np.asarray(y.mask), expect_mask)
            np.testing.assert_array_equal(np.asarray(y.mask_invalid().values), expect)
            ends = [np.flatnonzero(row)[-1] + 1 if row.any() else 0 for row in np.asarray(y.mask)]
            np.testing.assert_array_equal(ends, end)

    def test_delay_prepends_invalid(self):
        x = random_sequence(6, 1, 5, 2)
        y = sl.Delay(2).layer(x, training=False)
        assert not np.asarray(y.mask)[0, :2].any()
        np.testing.assert_array_equal(
            np.asarray(y.values)[0, 2:], np.asarray(x.mask_invalid().values)[0, :3]
        )


class TestPooling:
    def test_window_one_identity(self):
        x = random_sequence(7, 2, 6, 3)
        for cls in (sl.MaxPooling1D, sl.MinPooling1D, sl.AveragePooling1D):
            assert_sequences_close(cls(1).layer(x, training=False), x)

    def test_max_window2_causal_hand_case(self):
        x = Sequence.from_values(np.array([[[1.0], [3.0], [2.0]]], np.float32))
        y = sl.MaxPooling1D(2, padding="causal").layer(x, training=False)
        np.testing.assert_array_equal(y.values[0, :, 0], [1, 3, 3])

    @pytest.mark.parametrize("kind,cls", [("max", sl.MaxPooling1D), ("min", sl.MinPooling1D), ("avg", sl.AveragePooling1D)])
    @pytest.mark.parametrize("case", range(7))
    def test_matches_validity_aware_loop_oracle(self, kind, cls, case):
        rng = np.random.default_rng(300 + case)
        window = int(rng.integers(1, 5))
        stride = int(rng.integers(1, 3))
        padding = ("causal", "reverse_causal", "same")[case % 3]
        time = int(rng.integers(4, 17))
        layer = cls(window, stride=stride, padding=padding)
        x = random_sequence(case, 2, time, 2, lengths=[time, max(1, time - 3)])
        y = layer.layer(x, training=False)
        expect, expect_mask = pool_oracle(kind, x, window, stride, padding)
        np.testing.assert_array_equal(np.asarray(y.mask), expect_mask)
        got = np.asarray(y.mask_invalid().values, np.float64)
        np.testing.assert_allclose(got, np.where(expect_mask[..., None], expect, 0), atol=1e-5)

    def test_poisoned_padding_never_read(self, rng):
        layer = sl.AveragePooling1D(3, padding="same")
        x = random_sequence(8, 2, 8, 2, lengths=[8, 4])
        clean = layer.layer(x, training=False).mask_invalid()
        poisoned = layer.layer(poison_invalid(x), training=False).mask_invalid()
        np.testing.assert_array_equal(clean.values, poisoned.values)


class TestFrameWindowOverlapAdd:
    def test_rectangular_roundtrip_no_overlap(self):
        # partition identity requires hop-aligned valid lengths
        x = random_sequence(9, 2, 12, 3, lengths=[12, 9]).mask_invalid()
        frame = sl.Frame(3, 3)
        ola = sl.OverlapAdd(3, 3)
        framed = frame.layer(x, training=False)
        back = ola.layer(framed, training=False)
        assert_sequences_close(back, x)

    def test_half_overlap_doubles_interior(self):
        x = Sequence.from_values(np.ones((1, 12, 1), np.float32))
        composed = sl.Serial([sl.Frame(4, 2), sl.OverlapAdd(4, 2)])
        y = composed.layer(x, training=False)
        # interior positions receive two overlapping contributions
        np.testing.assert_allclose(np.asarray(y.values)[0, 2:10, 0], 2.0, atol=1e-6)
        # explicit overlap-add loop oracle
        frames = sl.Frame(4, 2).layer(x, training=False)
        expect = np.zeros(14)
        for f in range(frames.time):
            expect[f * 2 : f * 2 + 4] += np.asarray(frames.values)[0, f, :, 0]
        np.testing.assert_allclose(np.asarray(y.values)[0, :, 0], expect[:12], atol=1e-6)

    def test_frame_metadata(self):
        frame = sl.Frame(4, 2)
        assert frame.output_ratio == Fraction(1, 2)
        assert frame.block_size == 2
        assert frame.receptive_field == (0, 3)
        ola = sl.OverlapAdd(4, 2)
        assert ola.output_ratio == Fraction(2)
        assert ola.output_latency == 0
        assert ola.input_latency == 0

    def test_hann_symmetric_endpoints_zero(self):
        curve = window_curve("hann", 9)
        expect = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(9) / 8)  # float64 closed form
        np.testing.assert_allclose(curve, expect, atol=1e-7)
        assert curve[0] == 0 and curve[-1] == 0
        np.testing.assert_allclose(curve, curve[::-1], atol=0)

    @pytest.mark.parametrize("kind", ["hann", "hamming", "rectangular"])
    def test_window_curve_is_cached_read_only(self, kind):
        curve = window_curve(kind, 16)
        assert window_curve(kind, 16) is curve
        assert not curve.flags.writeable

    def test_window_layer_multiplies_frame_axis(self):
        x = random_sequence(10, 1, 6, (4, 2))
        y = sl.Window("hann", axis=0).layer(x, training=False)
        curve = window_curve("hann", 4)
        np.testing.assert_allclose(
            np.asarray(y.values), np.asarray(x.values) * curve[None, None, :, None], atol=1e-7
        )

    def test_invalid_hop(self):
        with pytest.raises(ValueError):
            sl.Frame(2, 3)
        with pytest.raises(ValueError):
            sl.OverlapAdd(4, 0)


def _overlap_add_grid():
    ragged = [13, 9, 4]
    for k in range(1, 9):
        for stride in range(1, 6):
            for padding in ("causal", "same"):
                yield pytest.param(
                    lambda rng, k=k, s=stride, p=padding: sl.Conv1DTranspose(
                        3, 2, k, stride=s, padding=p, rng=rng
                    ),
                    3,
                    ragged,
                    id=f"tconv-k{k}-s{stride}-{padding}",
                )
    # a lone row, which matmul_rows duplicates; and K = 40 >= 32 with
    # k * filters = 9 output columns, which rows_weight pads to 16
    yield pytest.param(
        lambda rng: sl.Conv1DTranspose(3, 2, 4, stride=2, padding="same", rng=rng),
        3,
        [13],
        id="tconv-batch1",
    )
    yield pytest.param(
        lambda rng: sl.Conv1DTranspose(40, 3, 3, stride=2, rng=rng), 40, ragged, id="tconv-wide"
    )
    for length in range(1, 8):
        for hop in range(1, length + 1):
            yield pytest.param(
                lambda rng, n=length, h=hop: sl.OverlapAdd(n, h),
                (length, 2),
                ragged,
                id=f"ola-L{length}-h{hop}",
            )


@pytest.mark.parametrize("make,channels,lengths", list(_overlap_add_grid()))
def test_overlap_add_step_is_bit_identical_to_layer(make, channels, lengths):
    # both modes add each position's contributions oldest frame first, and
    # matmul_rows rounds a row alike at any row count, so the float sums
    # agree exactly, not just within tolerance
    layer = make(np.random.default_rng(5))
    x = random_sequence(17, len(lengths), 13, channels, lengths=lengths)
    y = layer.layer(x, training=False).mask_invalid()
    for blocks in (1, 3, 8):
        ys = step_by_step(layer, x, training=False, block=blocks * layer.block_size)
        ys = ys.mask_invalid()
        assert np.array_equal(np.asarray(ys.mask), np.asarray(y.mask)), blocks
        assert np.array_equal(np.asarray(ys.values), np.asarray(y.values)), blocks


@pytest.mark.parametrize(
    "make",
    [
        lambda: sl.Conv1D(3, 5, 3, stride=2, rng=np.random.default_rng(0)),
        lambda: sl.MaxPooling1D(3, stride=2, padding="same"),
        lambda: sl.Frame(4, 2),
        lambda: sl.Conv1DTranspose(3, 5, 4, stride=2, rng=np.random.default_rng(0)),
    ],
    ids=["conv1d", "pooling", "frame", "conv1d_transpose"],
)
def test_step_rejects_a_block_with_the_wrong_channels(make):
    layer = make()
    state = layer.get_initial_state(1, sl.ChannelSpec((3,)), training=False)
    block = random_sequence(0, 1, 2 * layer.block_size, 4)
    with pytest.raises(sl.SpecMismatchError, match=r"expected channel shape \(3,\), got \(4,\)"):
        layer.step(block, state, training=False)


@pytest.mark.parametrize(
    "make",
    [
        lambda: sl.Conv1D(0, 2, 3, stride=2, rng=np.random.default_rng(0)),
        lambda: sl.Conv1DTranspose(0, 2, 3, stride=2, rng=np.random.default_rng(0)),
    ],
    ids=["conv1d", "conv1d_transpose"],
)
def test_zero_input_channels_contract_to_the_bias(make):
    layer = make()
    x = Sequence.from_values(np.zeros((2, 6, 0), np.float32))
    y = layer.layer(x, training=False)
    assert y.values.shape == (2, int(6 * layer.output_ratio), 2)
    assert np.array_equal(y.values, np.broadcast_to(layer.parameters["bias"], y.values.shape))


@pytest.mark.parametrize(
    "make",
    [
        lambda: sl.Conv1D(3, 2, 3, padding="bogus"),
        lambda: sl.Conv1D(3, 2, 0),
        lambda: sl.MaxPooling1D(2, stride=0),
        lambda: sl.Conv1D(3, 2, 3, dilation=0),
        lambda: sl.Conv1DTranspose(3, 2, 3, stride=2, padding="reverse_causal"),
        lambda: sl.Downsample1D(0),
        lambda: sl.Upsample1D(0),
        lambda: sl.Lookahead(-1),
        lambda: sl.Window("bogus"),
    ],
    ids=[
        "unknown-padding",
        "kernel-0",
        "stride-0",
        "dilation-0",
        "transpose-reverse-causal",
        "downsample-0",
        "upsample-0",
        "lookahead-negative",
        "window-kind",
    ],
)
def test_constructor_rejects_invalid_arguments(make):
    with pytest.raises(ValueError):
        make()
