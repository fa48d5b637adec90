"""Per-timestep layers: projections, activations, normalization, dropout,
channel-shape manipulation, conditioning, and the identity/emit utilities.

Everything here has output ratio 1, block size 1, zero latency, and a
receptive field of (0, 0): no information moves across time. Each leaf is
its step kernel (see :mod:`seqstream.layer`); all but ``Dropout`` and
``Conditioning`` keep the empty state. Dropout is the one stochastic
member; its draws are a pure function of (seed, absolute timestep, batch
row, flat channel index) so that any block partition of the stream
reproduces the same decisions. Its state is the number of steps consumed,
which is the absolute timestep of its next block. Each leaf checks its
input in its kernel, so its declared spec, derived from the kernel, raises
the same typed error as both modes.
"""

from __future__ import annotations

import math

import numpy as np

from . import combinators
from . import params as params_lib
from . import tensor
from .errors import MissingConstantError, SpecMismatchError
from .layer import Constants, SequenceLayer
from .sequence import Sequence

__all__ = [
    "Identity",
    "Emit",
    "Dense",
    "Scale",
    "Add",
    "Pointwise",
    "Softmax",
    "LayerNormalization",
    "RMSNormalization",
    "Dropout",
    "Reshape",
    "Flatten",
    "ExpandDims",
    "Squeeze",
    "MoveAxis",
    "TransposeChannels",
    "Conditioning",
]


class Identity(SequenceLayer):
    def _step_arrays(self, values, mask, state, training, constants):
        return values, mask, state


class Emit(Identity):
    """Identity layer that exposes its input as an emit for tapping a stack."""

    _is_tap = True


class Dense(SequenceLayer):
    """Affine map over the final channel dimension, in float32 (int32 and
    bool input included)."""

    def __init__(self, in_features, units, use_bias=True, *, params=None, rng=None, name=None):
        super().__init__(name)
        if in_features < 0:
            raise ValueError(f"in_features must be >= 0, got {in_features}")
        if units < 1:
            raise ValueError(f"units must be >= 1, got {units}")
        self.in_features = int(in_features)
        self.units = int(units)
        self.use_bias = bool(use_bias)
        spec = {"weight": (self.in_features, self.units)}
        if self.use_bias:
            spec["bias"] = (self.units,)
        self._params = params_lib.materialize(spec, params, rng, self.name)
        self._weight = tensor.rows_weight(self._params["weight"])

    def _check(self, channel_shape):
        if not channel_shape or channel_shape[-1] != self.in_features:
            raise SpecMismatchError(
                f"{self.name}: expected final channel extent {self.in_features}, "
                f"got {channel_shape}"
            )

    def _step_arrays(self, values, mask, state, training, constants):
        self._check(values.shape[2:])
        y = tensor.matmul_rows(values, self._weight, self.units)
        if self.use_bias:
            y += self._params["bias"]
        return y, mask, state


class Scale(SequenceLayer):
    """Multiplies by a constant scalar or channel-broadcastable array."""

    def __init__(self, value, name=None):
        super().__init__(name)
        self.value = np.asarray(value, dtype=np.float32)

    def _step_arrays(self, values, mask, state, training, constants):
        return tensor.canonical(values * self.value), mask, state


class Add(SequenceLayer):
    """Adds a constant scalar or channel-broadcastable array."""

    def __init__(self, value, name=None):
        super().__init__(name)
        self.value = np.asarray(value, dtype=np.float32)

    def _step_arrays(self, values, mask, state, training, constants):
        return tensor.canonical(values + self.value), mask, state


def _gelu(v):
    if not v.size:
        return np.empty(v.shape, np.float32)
    # a float32 divisor: a float64 one would evaluate a float32 GELU in float64
    e = v / np.float32(np.sqrt(2.0))
    tensor.special.erf(e, out=e)
    # 0.5 * v * (1 + erf), finished in place: scaling by 0.5 is exact
    e += 1
    e *= v
    e *= 0.5
    return e


def _sigmoid(v):
    if not v.size:
        return np.empty(v.shape, np.float32)
    return tensor.special.expit(v).astype(v.dtype, copy=False)


# kind -> (fn builder, allows integer input)
_POINTWISE = {
    "relu": (lambda p: lambda v: np.maximum(v, 0), False),
    "gelu": (lambda p: _gelu, False),
    "sigmoid": (lambda p: _sigmoid, False),
    "tanh": (lambda p: np.tanh, False),
    "swish": (lambda p: lambda v: v * _sigmoid(v), False),
    "softplus": (lambda p: lambda v: np.logaddexp(0.0, v).astype(v.dtype, copy=False), False),
    "leaky_relu": (lambda p: lambda v: np.where(v >= 0, v, np.asarray(p, v.dtype) * v), False),
    "elu": (
        lambda p: lambda v: np.where(v >= 0, v, np.asarray(p, v.dtype) * np.expm1(v)),
        False,
    ),
    "abs": (lambda p: np.abs, True),
    "exp": (lambda p: np.exp, False),
    "log": (lambda p: np.log, False),  # domain: positive values
    "power": (lambda p: lambda v: np.power(v, np.asarray(p, v.dtype)), False),
    "maximum": (lambda p: lambda v: np.maximum(v, np.asarray(p, v.dtype)), True),
    "minimum": (lambda p: lambda v: np.minimum(v, np.asarray(p, v.dtype)), True),
    "mod": (lambda p: lambda v: np.mod(v, np.asarray(p, v.dtype)), True),
}

#: kind -> default value, for the kinds that take one; None: a value is required
_POINTWISE_VALUES = {
    "leaky_relu": 0.2,
    "elu": 1.0,
    "power": None,
    "maximum": None,
    "minimum": None,
    "mod": None,
}


class Pointwise(SequenceLayer):
    """Named elementwise activation applied per value, invalid steps
    included: their values are unspecified anyway, so it never zeroes them.
    ``value`` parameterizes the kinds that take one (the slope of
    ``leaky_relu``, the exponent of ``power``, the bound of ``maximum``).

    An empty float block evaluates no special function: ``gelu``,
    ``sigmoid`` and ``swish`` return an empty float32 block for it, so
    deriving their spec (``get_output_spec`` runs an empty block) never
    imports ``scipy.special``."""

    def __init__(self, kind, value=None, name=None):
        super().__init__(name if name is not None else kind)
        if kind not in _POINTWISE:
            raise ValueError(f"unknown pointwise kind {kind!r}; known: {sorted(_POINTWISE)}")
        self.kind = kind
        self.value = _POINTWISE_VALUES.get(kind) if value is None else value
        if self.value is None and kind in _POINTWISE_VALUES:
            raise ValueError(f"pointwise kind {kind!r} requires a value")
        builder, self._allows_int = _POINTWISE[kind]
        self._fn = builder(self.value)

    def _step_arrays(self, values, mask, state, training, constants):
        if values.dtype.kind != "f" and not self._allows_int:
            raise SpecMismatchError(f"{self.name}: float input required, got {values.dtype}")
        return tensor.canonical(self._fn(values)), mask, state


class Softmax(SequenceLayer):
    """Softmax over one channel axis, computed per (batch, time) position."""

    def __init__(self, axis=-1, name=None):
        super().__init__(name)
        self.axis = int(axis)

    def _step_arrays(self, values, mask, state, training, constants):
        axis = 2 + self._channel_axis(self.axis, values.ndim - 2)
        if values.dtype.kind != "f":
            raise SpecMismatchError(f"{self.name}: float input required, got {values.dtype}")
        shifted = values - np.max(values, axis=axis, keepdims=True)
        e = np.exp(shifted)
        out = e / np.sum(e, axis=axis, keepdims=True)
        return out.astype(values.dtype, copy=False), mask, state


class _Normalization(SequenceLayer):
    """Per-timestep normalization over all channel axes of a fixed shape.

    ``PARAMS`` names the learned tensors, each of the channel shape.
    """

    PARAMS: tuple = ()

    def __init__(self, shape, epsilon=1e-6, *, params=None, rng=None, name=None):
        super().__init__(name)
        if epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {epsilon}")
        self.shape = tuple(int(d) for d in (shape if np.ndim(shape) else (shape,)))
        self.epsilon = float(epsilon)
        spec = {key: self.shape for key in self.PARAMS}
        self._params = params_lib.materialize(spec, params, rng, self.name)
        self._epsilon = np.float32(self.epsilon)
        self._axes = tuple(range(2, 2 + len(self.shape)))
        self._count = np.intp(math.prod(self.shape))

    def _mean(self, v):
        """``np.mean(v, axis=channel axes, keepdims=True)`` as the two ufunc
        calls it makes, without its Python wrapper: the same bits."""
        total = np.add.reduce(v, axis=self._axes, keepdims=True)
        return np.true_divide(total, self._count, out=total, casting="unsafe")


class LayerNormalization(_Normalization):
    """Normalizes each timestep over all channel axes, then applies an affine."""

    PARAMS = ("scale", "offset")

    def _step_arrays(self, values, mask, state, training, constants):
        self._expect_channels(values.shape[2:], self.shape)
        v = np.asarray(values, dtype=np.float32)
        centered = v - self._mean(v)
        var = self._mean(np.square(centered))
        normed = centered / np.sqrt(var + self._epsilon)
        out = normed * self._params["scale"] + self._params["offset"]
        return out.astype(np.float32, copy=False), mask, state


class RMSNormalization(_Normalization):
    """Root-mean-square normalization over channel axes (no mean centering)."""

    PARAMS = ("scale",)

    def _step_arrays(self, values, mask, state, training, constants):
        self._expect_channels(values.shape[2:], self.shape)
        v = np.asarray(values, dtype=np.float32)
        ms = self._mean(np.square(v))
        out = v / np.sqrt(ms + self._epsilon) * self._params["scale"]
        return out.astype(np.float32, copy=False), mask, state


# --- dropout ----------------------------------------------------------------

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_G1 = np.uint64(0x9E3779B97F4A7C15)
_G2 = np.uint64(0xC2B2AE3D27D4EB4F)
_G3 = np.uint64(0x165667B19E3779F9)


def _mix64(z):
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def counter_uniform(seed: int, t_abs, b, c) -> np.ndarray:
    """Uniform [0, 1) draws keyed by (seed, timestep, batch row, channel).

    Pure and order-free: the draw at a coordinate never depends on how the
    stream was partitioned into blocks.
    """
    t_abs = np.asarray(t_abs, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    c = np.asarray(c, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        h = _mix64(z ^ _mix64(t_abs[None, :, None] * _G1 + np.uint64(1)))
        h = _mix64(h ^ _mix64(b[:, None, None] * _G2 + np.uint64(2)))
        h = _mix64(h ^ _mix64(c[None, None, :] * _G3 + np.uint64(3)))
    return (h >> np.uint64(11)).astype(np.float64) * (2.0**-53)


class Dropout(SequenceLayer):
    """Drops each element with probability ``rate`` during training.

    Kept elements are scaled by 1/(1-rate). Identity when training is False.
    Step-wise state is the number of timesteps consumed, so layer-wise and
    step-wise draws coincide for any block split.
    """

    def __init__(self, rate, seed=0, name=None):
        super().__init__(name)
        if not 0 <= rate < 1:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self.seed = int(seed)
        self.is_stochastic = self.rate > 0

    def _apply(self, values, offset: int):
        """``values`` with this layer's draws for steps from ``offset`` applied."""
        if values.dtype.kind != "f":
            raise SpecMismatchError(f"{self.name}: float input required, got {values.dtype}")
        batch, time = values.shape[:2]
        channel_shape = values.shape[2:]
        channels = int(np.prod(channel_shape, dtype=np.int64)) if channel_shape else 1
        u = counter_uniform(
            self.seed, np.arange(offset, offset + time), np.arange(batch), np.arange(channels)
        )
        keep = (u < (1.0 - self.rate)).reshape((batch, time) + channel_shape)
        scale = np.float32(1.0 / (1.0 - self.rate))
        return np.where(keep, values * scale, np.float32(0))

    def get_initial_state(self, batch_size, input_spec, *, training, constants=None):
        return 0

    def _step_arrays(self, values, mask, state: int, training, constants):
        if training and self.rate != 0:
            values = self._apply(values, state)
        return values, mask, state + values.shape[1]


# --- channel shape manipulation ---------------------------------------------


class _ChannelOp(SequenceLayer):
    """Base for pure channel-shape manipulations (bit-exact value moves)."""

    def _out_shape(self, channel_shape) -> tuple[int, ...]:
        raise NotImplementedError

    def _step_arrays(self, values, mask, state, training, constants):
        # a view of the frozen input; tensor() copies it only where the view
        # would alias a writeable array, as the validating path does
        view = self._transform(tensor.freeze(values), self._out_shape(values.shape[2:]))
        return tensor.tensor(view), mask, state

    def _transform(self, values, out_shape):
        return values.reshape(values.shape[:2] + out_shape)


class Reshape(_ChannelOp):
    def __init__(self, shape, name=None):
        super().__init__(name)
        self.shape = tuple(int(d) for d in shape)
        if any(d < 0 for d in self.shape):
            raise ValueError(f"reshape extents must be >= 0, got {self.shape}")

    def _out_shape(self, channel_shape):
        if math.prod(channel_shape) != math.prod(self.shape):
            raise SpecMismatchError(
                f"{self.name}: cannot reshape channels {tuple(channel_shape)} to {self.shape}"
            )
        return self.shape


class Flatten(_ChannelOp):
    def _out_shape(self, channel_shape):
        return (math.prod(channel_shape),)


class ExpandDims(_ChannelOp):
    def __init__(self, axis=0, name=None):
        super().__init__(name)
        self.axis = int(axis)

    def _out_shape(self, channel_shape):
        axis = self._channel_axis(self.axis, len(channel_shape) + 1)
        return channel_shape[:axis] + (1,) + channel_shape[axis:]


class Squeeze(_ChannelOp):
    def __init__(self, axis, name=None):
        super().__init__(name)
        self.axis = int(axis)

    def _out_shape(self, channel_shape):
        axis = self._channel_axis(self.axis, len(channel_shape))
        if channel_shape[axis] != 1:
            raise SpecMismatchError(
                f"{self.name}: cannot squeeze extent {channel_shape[axis]} at axis {axis}"
            )
        return channel_shape[:axis] + channel_shape[axis + 1 :]


class MoveAxis(_ChannelOp):
    def __init__(self, source, destination, name=None):
        super().__init__(name)
        self.source = int(source)
        self.destination = int(destination)

    def _axes(self, rank):
        return self._channel_axis(self.source, rank), self._channel_axis(self.destination, rank)

    def _out_shape(self, channel_shape):
        src, dst = self._axes(len(channel_shape))
        dims = list(channel_shape)
        dims.insert(dst, dims.pop(src))
        return tuple(dims)

    def _transform(self, values, out_shape):
        src, dst = self._axes(values.ndim - 2)
        return np.moveaxis(values, 2 + src, 2 + dst)


class TransposeChannels(_ChannelOp):
    def __init__(self, perm, name=None):
        super().__init__(name)
        self.perm = tuple(int(p) for p in perm)

    def _out_shape(self, channel_shape):
        if sorted(self.perm) != list(range(len(channel_shape))):
            raise SpecMismatchError(
                f"{self.name}: perm {self.perm} invalid for channel rank {len(channel_shape)}"
            )
        return tuple(channel_shape[p] for p in self.perm)

    def _transform(self, values, out_shape):
        return np.transpose(values, (0, 1) + tuple(2 + p for p in self.perm))


# --- conditioning -------------------------------------------------------------


class Conditioning(SequenceLayer):
    """Combines the input with a time-aligned conditioning sequence.

    The conditioning sequence is looked up in ``constants`` under ``key`` and
    must cover at least the input's time extent. In step mode the full
    conditioning sequence is supplied once (at get_initial_state and each
    step); an absolute-position counter in the state selects the slice for
    each block.

    The input and the conditioning window combine by the combinators' one
    rule (:func:`seqstream.combinators._combine`): ``add`` needs identical
    channel shapes and ``concat`` equal all-but-last dims, and the output
    dtype is the promoted dtype of the two, canonicalized. The kernel runs
    it, so its output spec, derived from it, and both modes raise one
    SpecMismatchError.
    """

    MODES = ("add", "concat")

    def __init__(self, key, mode="add", name=None):
        super().__init__(name)
        if mode not in self.MODES:
            raise ValueError(f"conditioning mode must be one of {self.MODES}, got {mode!r}")
        self.key = str(key)
        self.mode = mode

    def _lookup(self, constants: Constants | None) -> Sequence:
        if not constants or self.key not in constants:
            raise MissingConstantError(
                f"{self.name}: constants[{self.key!r}] is required"
            )
        cond = constants[self.key]
        if not isinstance(cond, Sequence):
            raise MissingConstantError(
                f"{self.name}: constants[{self.key!r}] must be a Sequence, got {type(cond).__name__}"
            )
        return cond

    def _combine(self, values, mask, cond: Sequence, start: int):
        batch, time = values.shape[:2]
        if cond.batch_size != batch:
            raise SpecMismatchError(
                f"{self.name}: conditioning batch {cond.batch_size} != input batch {batch}"
            )
        if cond.time < start + time:
            raise SpecMismatchError(
                f"{self.name}: conditioning time {cond.time} too short for "
                f"positions [{start}, {start + time})"
            )
        window = cond.slice_time(start, start + time)
        try:
            return combinators._combine([values, window.values], [mask, window.mask], self.mode)
        except SpecMismatchError as err:
            raise SpecMismatchError(f"{self.name}: {err}") from None

    def get_initial_state(self, batch_size, input_spec, *, training, constants=None):
        self._lookup(constants)
        return 0

    def _step_arrays(self, values, mask, state: int, training, constants):
        values, mask = self._combine(values, mask, self._lookup(constants), start=state)
        return values, mask, state + values.shape[1]
