"""Layers that mix information across time.

Each layer here implements its step kernel only; its ``layer()`` is that
kernel run once over the flushed sequence, and its output spec what the
kernel returns (see :mod:`seqstream.layer`). That holds for ``StepDelay``
too: the flushed delay line, trimmed, is the identity. The resamplers and
``Window`` keep no state.

Streaming mechanics: every state kept over past steps is a stream
history that :func:`~seqstream.sequence.shift_in` advances, one block at a
time. The windowed layers (Conv1D, pooling, Frame) keep the trailing
context of already-seen masked inputs as a ``(values, mask)`` pair, sized
``output_latency * stride + pad_left`` so that each incoming block lines up
its windows at fixed offsets within ``context + block``. Over a whole
sequence that context starts as invalid zeros: the left padding, plus the
placeholder windows the flush protocol drops. ``Delay`` and ``StepDelay``
keep a delay line of ``length`` steps, the same pair, and emit the oldest
steps of the line joined with the block. A delay line reads no value, so
no caller zeroes its input. ``Conv1DTranspose``'s output mask is a delay
line too: its input mask repeated ``stride`` times, delayed ``trim_left``
output steps, so stepped output ``o`` is valid iff input
``floor((o - trim_left) / stride)`` is; its overlap-add carry is a
scatter, not a shift. Output validity follows the anchor rule: output step
``t`` is valid iff its anchor input ``t * stride`` (or ``floor(t / ratio)``
for upsampling layers) is valid.

Windowed reductions: a windowed layer's step joins its context and block
with one ``shift_in`` and passes the joined ``[B, context + T, ...]`` values
and mask to ``_reduce_windows`` with the ``[out, k]`` index of each output's
taps (:func:`_window_index`). Every window gathers by one
``take(idx, axis=1)``: pooling takes its window mask the same way.
``Conv1D``'s contiguous ``[B, out, k, C]`` windows are, without a copy,
``[B, out, k * C]`` rows. It contracts them with
:func:`~seqstream.tensor.matmul_rows` against its weight flattened to
``[k * C, filters]``, and ``Conv1DTranspose`` contracts each masked input
step against its weight laid out as ``[C, k * filters]`` (int32 and bool
input contract in float32). So a step gives the bits of ``layer()`` by the
rule every contraction over positions follows (see :mod:`seqstream.tensor`).

Padding conventions (pad_left, with pad_left + pad_right = effective_kernel - 1):

* ``causal``: everything on the left; zero latency.
* ``reverse_causal``: everything on the right; full lookahead.
* ``same``: centered, left = (effective_kernel - 1) // 2.

Transpose convolutions trim ``max(kernel - stride, 0) // 2`` from the left
of the full scatter for ``same`` and nothing for ``causal``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import params as params_lib
from . import tensor
from .errors import SpecMismatchError
from .layer import SequenceLayer
from .sequence import empty_history, shift_in
from fractions import Fraction

__all__ = [
    "Conv1D",
    "Conv1DTranspose",
    "Downsample1D",
    "Upsample1D",
    "Delay",
    "StepDelay",
    "Lookahead",
    "MaxPooling1D",
    "MinPooling1D",
    "AveragePooling1D",
    "Frame",
    "Window",
    "OverlapAdd",
]

PADDING_MODES = ("causal", "reverse_causal", "same")


def effective_kernel(kernel_size: int, dilation: int) -> int:
    return (kernel_size - 1) * dilation + 1


def explicit_padding(mode: str, kernel_size: int, dilation: int) -> tuple[int, int]:
    eff = effective_kernel(kernel_size, dilation)
    if mode == "causal":
        return eff - 1, 0
    if mode == "reverse_causal":
        return 0, eff - 1
    if mode == "same":
        left = (eff - 1) // 2
        return left, eff - 1 - left
    raise ValueError(f"unknown padding mode {mode!r}; expected one of {PADDING_MODES}")


def overlap_add(frames: np.ndarray, hop: int, carry: np.ndarray):
    """Sums frames placed ``hop`` apart onto one time axis.

    ``frames`` is ``[B, T, K, ...]``; tap ``j`` of frame ``t`` lands on
    position ``t * hop + j``, counted from the first position of ``carry``.
    ``carry`` is ``[B, (ceil(K / hop) - 1) * hop, ...]``: the partial sums
    that earlier frames left on the positions after theirs (zeros before
    the first frame). Returns the ``T * hop`` positions no later frame can
    reach, and the carry for the next call.

    Every position adds its contributions oldest frame first, starting from
    its carry, so one call over T frames (``layer()``) and any split of them
    into calls that thread the carry (``step()``) give bit-identical sums.
    The loop runs over the ``ceil(K / hop)`` tap groups, never over T.
    """
    batch, time, kernel = frames.shape[:3]
    rest = frames.shape[3:]
    groups = -(-kernel // hop)
    full = np.zeros((batch, time + groups - 1, hop) + rest, dtype=frames.dtype)
    flat = full.reshape((batch, (time + groups - 1) * hop) + rest)
    flat[:, : carry.shape[1]] = carry
    # tap group g of frame t covers slot t + g: descending g is ascending t
    for g in reversed(range(groups)):
        width = min(hop, kernel - g * hop)
        full[:, g : g + time, :width] += frames[:, :, g * hop : g * hop + width]
    return flat[:, : time * hop], flat[:, time * hop :]


@functools.lru_cache(maxsize=128)
def _window_index(out_len: int, stride: int, kernel_size: int, dilation: int) -> np.ndarray:
    """[out_len, kernel_size] read-only input offsets of each output's window
    taps; cached, since a stream's few block lengths recur on every step."""
    taps = np.arange(kernel_size) * dilation
    return tensor.freeze(np.arange(out_len)[:, None] * stride + taps[None, :])


class _WindowedLayer(SequenceLayer):
    """Shared layer/step plumbing for fixed-window time reductions."""

    def __init__(self, kernel_size, stride, dilation, padding, name):
        super().__init__(name)
        if kernel_size < 1 or stride < 1 or dilation < 1:
            raise ValueError(
                f"kernel_size/stride/dilation must be >= 1, got "
                f"{(kernel_size, stride, dilation)}"
            )
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.dilation = int(dilation)
        self.padding = str(padding)
        self.pad_left, self.pad_right = explicit_padding(padding, kernel_size, dilation)
        self.output_ratio = Fraction(1, self.stride)
        self.block_size = self.stride
        self.input_latency = self.pad_right
        self.output_latency = self.pad_right // self.stride
        eff = effective_kernel(self.kernel_size, self.dilation)
        self.receptive_field_per_step = {0: (-self.pad_left, -self.pad_left + eff - 1)}
        #: steps of trailing input the step state carries
        self._context_len = self.output_latency * self.stride + self.pad_left

    def _reduce_windows(self, values, idx, mask):
        """Joined ``[B, context + T, ...ch]`` values and ``[B, context + T]``
        mask, and the ``[out, k]`` tap index of each output's window ->
        ``[B, out, ...ch]`` outputs."""
        raise NotImplementedError

    def get_initial_state(self, batch_size, input_spec, *, training, constants=None):
        return empty_history(batch_size, self._context_len, input_spec)

    _masks_step_input = True

    def _step_arrays(self, values, mask, state, training, constants):
        self._expect_channels(values.shape[2:], state[0].shape[2:])
        out_len = values.shape[1] // self.stride
        (values, mask), state = shift_in(state, (values, mask))
        idx = _window_index(out_len, self.stride, self.kernel_size, self.dilation)
        out = self._reduce_windows(values, idx, mask)
        out_mask = mask[:, self.pad_left :: self.stride][:, :out_len]
        return out, out_mask, state


class Conv1D(_WindowedLayer):
    """Strided, dilated 1D convolution over the time axis.

    Input channel shape [in_channels]; output [filters]. The kernel is
    applied to masked values, so padding can never leak into valid outputs.
    """

    def __init__(
        self,
        in_channels,
        filters,
        kernel_size,
        stride=1,
        dilation=1,
        padding="causal",
        use_bias=True,
        *,
        params=None,
        rng=None,
        name=None,
    ):
        super().__init__(kernel_size, stride, dilation, padding, name)
        if in_channels < 0:
            raise ValueError(f"in_channels must be >= 0, got {in_channels}")
        if filters < 1:
            raise ValueError(f"filters must be >= 1, got {filters}")
        self.in_channels = int(in_channels)
        self.filters = int(filters)
        self.use_bias = bool(use_bias)
        spec = {"weight": (self.kernel_size, self.in_channels, self.filters)}
        if self.use_bias:
            spec["bias"] = (self.filters,)
        self._params = params_lib.materialize(spec, params, rng, self.name)
        taps = self.kernel_size * self.in_channels
        self._weight = tensor.rows_weight(self._params["weight"].reshape(taps, self.filters))

    def _reduce_windows(self, values, idx, mask):
        self._expect_channels(values.shape[2:], (self.in_channels,))
        # the windows [B, out, k, C], contiguous, are rows of k * C taps
        rows = values.take(idx, axis=1).reshape(len(values), len(idx), len(self._weight))
        y = tensor.matmul_rows(rows, self._weight, self.filters)
        if self.use_bias:
            y += self._params["bias"]
        return y


class _Pooling1D(_WindowedLayer):
    """Windowed reduction over valid timesteps only."""

    kind = ""

    def __init__(self, window, stride=1, padding="causal", *, name=None):
        super().__init__(window, stride, 1, padding, name)
        self.window = int(window)

    @staticmethod
    def _window_mask(mask, idx, ndim):
        """The ``[B, out, k]`` window mask, with unit channel axes up to ``ndim``."""
        wm = mask.take(idx, axis=1)
        return wm.reshape(wm.shape + (1,) * (ndim - 3))


class _ExtremumPooling1D(_Pooling1D):
    """Max or min over each window's valid members. A window with none
    is an invalid output: pooling's anchor is one of its taps."""

    def _reduce_windows(self, values, idx, mask):
        wv = values.take(idx, axis=1)
        if wv.dtype.kind == "b":
            raise SpecMismatchError(f"{self.name}: numeric input required, got {wv.dtype}")
        wm = self._window_mask(mask, idx, wv.ndim)
        info = np.finfo(wv.dtype) if wv.dtype.kind == "f" else np.iinfo(wv.dtype)
        reducer, fill = (np.max, info.min) if self.kind == "max" else (np.min, info.max)
        return reducer(np.where(wm, wv, fill), axis=2)


class MaxPooling1D(_ExtremumPooling1D):
    kind = "max"


class MinPooling1D(_ExtremumPooling1D):
    kind = "min"


class AveragePooling1D(_Pooling1D):
    kind = "avg"

    def _reduce_windows(self, values, idx, mask):
        # window values arrive pre-masked (zeros at invalid), so a plain sum
        # divided by the valid count is the mean over valid members
        wv = values.take(idx, axis=1)
        wm = self._window_mask(mask, idx, wv.ndim)
        total = wv.sum(axis=2, dtype=np.float32)
        count = wm.sum(axis=2, dtype=np.float32)
        return (total / np.maximum(count, 1.0)).astype(np.float32, copy=False)


class Conv1DTranspose(SequenceLayer):
    """Stride-factor upsampling via transposed convolution.

    Each input step scatters kernel_size contributions onto the upsampled
    grid (:func:`overlap_add` with hop = stride); ``same`` trimming removes
    max(kernel-stride, 0) // 2 leading positions, ``causal`` removes none
    (so no output precedes its anchor).

    Step state: ``carry``, the overlap-add partial sums of the next
    ``(ceil(kernel / stride) - 1) * stride`` positions, and ``mask_history``,
    the last ``trim_left`` steps of the output mask's delay line (see the
    module docstring).
    """

    def __init__(
        self,
        in_channels,
        filters,
        kernel_size,
        stride=1,
        padding="causal",
        use_bias=True,
        *,
        params=None,
        rng=None,
        name=None,
    ):
        super().__init__(name)
        if kernel_size < 1 or stride < 1 or filters < 1:
            raise ValueError(
                f"kernel_size/stride/filters must be >= 1, got {(kernel_size, stride, filters)}"
            )
        if padding not in ("causal", "same"):
            raise ValueError(f"transpose padding must be 'causal' or 'same', got {padding!r}")
        if in_channels < 0:
            raise ValueError(f"in_channels must be >= 0, got {in_channels}")
        self.in_channels = int(in_channels)
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = str(padding)
        self.use_bias = bool(use_bias)
        self.trim_left = (
            max(self.kernel_size - self.stride, 0) // 2 if padding == "same" else 0
        )
        self._carry_len = (-(-self.kernel_size // self.stride) - 1) * self.stride
        spec = {"weight": (self.kernel_size, self.in_channels, self.filters)}
        if self.use_bias:
            spec["bias"] = (self.filters,)
        self._params = params_lib.materialize(spec, params, rng, self.name)
        # [k, C, F] -> [C, k * F]: one input step's contributions are one row
        weight = self._params["weight"].transpose(1, 0, 2)
        self._taps = self.kernel_size * self.filters
        self._weight = tensor.rows_weight(weight.reshape(self.in_channels, self._taps))
        self.output_ratio = Fraction(self.stride)
        self.output_latency = self.trim_left
        self.input_latency = -(-self.trim_left // self.stride)
        rf = {}
        for o in range(self.stride):
            lo = math.ceil((o + self.trim_left - self.kernel_size + 1) / self.stride)
            hi = math.floor((o + self.trim_left) / self.stride)
            rf[o] = (lo, hi) if lo <= hi else None
        self.receptive_field_per_step = rf

    def get_initial_state(self, batch_size, input_spec, *, training, constants=None):
        return {
            "carry": tensor.freeze(
                np.zeros((batch_size, self._carry_len, self.filters), dtype=np.float32)
            ),
            "mask_history": tensor.freeze(np.zeros((batch_size, self.trim_left), dtype=bool)),
        }

    _masks_step_input = True

    def _step_arrays(self, values, mask, state, training, constants):
        self._expect_channels(values.shape[2:], (self.in_channels,))
        batch, time = values.shape[:2]
        # masked [B, T, in] -> per-input contributions [B, T, k, filters], overlap-added
        contrib = tensor.matmul_rows(values, self._weight, self._taps)
        contrib = contrib.reshape(batch, time, self.kernel_size, self.filters)
        out, carry = overlap_add(contrib, self.stride, state["carry"])
        if self.use_bias:
            out = out + self._params["bias"]
        # stepped output o is anchored at input floor((o - trim_left) / stride)
        up = np.repeat(mask, self.stride, axis=1)
        (mask,), (history,) = shift_in((state["mask_history"],), (up,))
        out_mask = mask[:, : time * self.stride]
        return out, out_mask, {"carry": tensor.freeze(carry), "mask_history": history}


class Downsample1D(SequenceLayer):
    """Keeps every rate-th timestep (phase 0)."""

    def __init__(self, rate, name=None):
        super().__init__(name)
        if rate < 1:
            raise ValueError(f"rate must be >= 1, got {rate}")
        self.rate = int(rate)
        self.output_ratio = Fraction(1, self.rate)
        self.block_size = self.rate

    def _step_arrays(self, values, mask, state, training, constants):
        return values[:, :: self.rate], mask[:, :: self.rate], state


class Upsample1D(SequenceLayer):
    """Repeats every timestep rate times."""

    def __init__(self, rate, name=None):
        super().__init__(name)
        if rate < 1:
            raise ValueError(f"rate must be >= 1, got {rate}")
        self.rate = int(rate)
        self.output_ratio = Fraction(self.rate)
        self.receptive_field_per_step = {o: (0, 0) for o in range(self.rate)}

    def _step_arrays(self, values, mask, state, training, constants):
        return np.repeat(values, self.rate, axis=1), np.repeat(mask, self.rate, axis=1), state


class Delay(SequenceLayer):
    """Shifts the stream later by ``length`` steps, entering invalid steps.

    The shift happens identically in layer and step mode, so the layer has
    no latency in the protocol sense. Output step t is valid only where both
    the delayed input step t - length and the current input step t are
    valid. So the output ends where the input does, and a lookahead layer
    downstream never reads past the input's end.
    """

    def __init__(self, length, name=None):
        super().__init__(name)
        if length < 0:
            raise ValueError(f"delay length must be >= 0, got {length}")
        self.length = int(length)
        self.receptive_field_per_step = {0: (-self.length, -self.length)}

    def get_initial_state(self, batch_size, input_spec, *, training, constants=None):
        return empty_history(batch_size, self.length, input_spec)

    def _step_arrays(self, values, mask, state, training, constants):
        if self.length == 0:
            return values, mask, state
        time = values.shape[1]
        (delayed, line_mask), state = shift_in(state, (values, mask))
        # valid only where the current input step is valid too
        mask = np.logical_and(line_mask[:, :time], mask)
        return delayed[:, :time], mask, state


class StepDelay(Delay):
    """Delays the step-wise emission schedule without changing layer().

    step() holds ``length`` inputs back, so the layer's output latency is
    ``length``, and layer(), which drops those ``length`` placeholders, is
    the identity. Inserting one before a downsampling layer aligns an odd
    accumulated stream delay to the downsampler's stride without altering
    what the pipeline computes. So step() is the plain delay line, without
    :class:`Delay`'s gating by the current input step.
    """

    def __init__(self, length, name=None):
        super().__init__(length, name)
        self.input_latency = self.output_latency = self.length
        self.receptive_field_per_step = {0: (0, 0)}

    def _step_arrays(self, values, mask, state, training, constants):
        time = values.shape[1]
        (values, mask), state = shift_in(state, (values, mask))
        return values[:, :time], mask[:, :time], state


class Lookahead(SequenceLayer):
    """Drops the first ``length`` steps, shifting the stream earlier.

    Streaming cannot drop what has not arrived, so the step path emits
    ``length`` invalid placeholder steps and the flush protocol recovers the
    tail: input and output latency both equal ``length``.
    """

    def __init__(self, length, name=None):
        super().__init__(name)
        if length < 0:
            raise ValueError(f"lookahead length must be >= 0, got {length}")
        self.length = int(length)
        self.input_latency = self.output_latency = self.length
        self.receptive_field_per_step = {0: (self.length, self.length)}

    def get_initial_state(self, batch_size, input_spec, *, training, constants=None):
        return 0

    def _step_arrays(self, values, mask, state: int, training, constants):
        time = values.shape[1]
        position = state + np.arange(time)
        mask = np.logical_and(mask, (position >= self.length)[None, :])
        return values, mask, state + time


class Frame(_WindowedLayer):
    """Stacks sliding windows of the input as a new leading channel axis.

    Output step f holds inputs [f*hop, f*hop + frame_length); channel shape
    becomes (frame_length, *input_channels). This is the ``reverse_causal``
    window of kernel ``frame_length`` and stride ``hop``, returned unreduced.
    """

    def __init__(self, frame_length, hop, name=None):
        if not 1 <= hop <= frame_length:
            raise ValueError(
                f"require frame_length >= hop >= 1, got {(frame_length, hop)}"
            )
        super().__init__(frame_length, hop, 1, "reverse_causal", name)
        self.frame_length = int(frame_length)
        self.hop = int(hop)

    def _reduce_windows(self, values, idx, mask):
        return values.take(idx, axis=1)


_WINDOW_KINDS = ("hann", "hamming", "rectangular")


@functools.lru_cache(maxsize=128)
def window_curve(kind: str, length: int) -> np.ndarray:
    """Window samples, symmetric convention (endpoints of a Hann are zero).

    Read-only and cached, since a stepped ``Window`` needs it on every block.
    """
    if kind == "rectangular" or length == 1:
        curve = np.ones(length, dtype=np.float32)
    elif kind in ("hann", "hamming"):
        a0, a1 = (0.5, 0.5) if kind == "hann" else (0.54, 0.46)
        n = np.arange(length, dtype=np.float64)
        curve = (a0 - a1 * np.cos(2 * np.pi * n / (length - 1))).astype(np.float32)
    else:
        raise ValueError(f"unknown window kind {kind!r}; expected one of {_WINDOW_KINDS}")
    return tensor.freeze(curve)


class Window(SequenceLayer):
    """Multiplies one channel axis by a window curve."""

    def __init__(self, kind="hann", axis=0, name=None):
        super().__init__(name)
        if kind not in _WINDOW_KINDS:
            raise ValueError(f"unknown window kind {kind!r}; expected one of {_WINDOW_KINDS}")
        self.kind = kind
        self.axis = int(axis)

    def _step_arrays(self, values, mask, state, training, constants):
        channel_shape = values.shape[2:]
        axis = self._channel_axis(self.axis, len(channel_shape))
        curve = window_curve(self.kind, channel_shape[axis])
        shape = [1] * values.ndim
        shape[2 + axis] = channel_shape[axis]
        curve = curve.reshape(shape)
        return (values * curve).astype(values.dtype, copy=False), mask, state


class OverlapAdd(SequenceLayer):
    """Reconstructs a signal from overlapping frames by summation.

    The inverse of :class:`Frame` for non-overlapping (rectangular) configs.
    Input channel shape (frame_length, ...); output drops the frame axis.
    Output position p sums the frames t with ``t * hop <= p``, so frame t's
    ``hop`` positions are final once it arrives: there is no latency.

    Step state: the :func:`overlap_add` carry, the partial sums of the next
    ``(ceil(frame_length / hop) - 1) * hop`` positions.
    """

    def __init__(self, frame_length, hop, name=None):
        super().__init__(name)
        if not 1 <= hop <= frame_length:
            raise ValueError(
                f"require frame_length >= hop >= 1, got {(frame_length, hop)}"
            )
        self.frame_length = int(frame_length)
        self.hop = int(hop)
        self.output_ratio = Fraction(self.hop)
        self.receptive_field_per_step = {
            o: (math.ceil((o - self.frame_length + 1) / self.hop), 0) for o in range(self.hop)
        }

    def _check(self, channel_shape):
        if not channel_shape or channel_shape[0] != self.frame_length:
            raise SpecMismatchError(
                f"{self.name}: expected leading channel extent {self.frame_length}, "
                f"got {channel_shape}"
            )

    def get_initial_state(self, batch_size, input_spec, *, training, constants=None):
        carry_len = (-(-self.frame_length // self.hop) - 1) * self.hop
        shape = (batch_size, carry_len) + input_spec.shape[1:]
        return tensor.freeze(np.zeros(shape, dtype=input_spec.dtype))

    _masks_step_input = True

    def _step_arrays(self, values, mask, state, training, constants):
        self._check(values.shape[2:])
        out, carry = overlap_add(values, self.hop, state)
        out_mask = np.repeat(mask, self.hop, axis=1)
        # after a row's last valid frame, invalid positions hold that
        # frame's tail, not zeros
        return out, out_mask, tensor.freeze(carry)
