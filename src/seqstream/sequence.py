"""The masked sequence data model.

A :class:`Sequence` pairs ``values`` of shape ``[batch, time, ...channel]``
with a boolean ``mask`` of shape ``[batch, time]`` marking valid timesteps.
The trailing ``...channel`` dimensions are the sequence's channel shape.

No sequence vouches for the values at its invalid steps, and no reader may
rely on them. A computation that reads them zeroes them first with
:func:`zero_invalid` (or :meth:`Sequence.mask_invalid`): no copy when every
step is valid, one copy with zeroed row tails for a large prefix-shaped
mask, one ``np.where`` pass otherwise. For a layer's kernel its callers do
this (see :mod:`seqstream.layer`).

Validity is expected to be contiguous from t=0 per batch row (end-padding
convention). ``from_lengths`` enforces this by construction; arbitrary masks
are accepted elsewhere, but the library's guarantees only cover end padding.

Validation happens at the public edges: ``Sequence(...)``, ``from_values``,
``from_lengths`` and :func:`read_sequence` check ranks, shapes and dtypes
and take a read-only copy of any writeable array they are given. Sequences
the library builds itself from arrays it just allocated go through the
trusted :meth:`Sequence._wrap`, which freezes those arrays in place and
checks nothing. Either way a sequence's ``values``
and ``mask`` are read-only arrays of a supported dtype.

Step states keep no Sequences. A fixed-length stream history (a window's
context, a delay line) is a tuple of plain arrays ``[batch, time, ...]``
that starts as :func:`empty_history` and advances by :func:`shift_in`, the
one function that joins a block onto a history and keeps its tail.

Serialization uses the ``SLS1`` container: magic ``b"SLS1"`` followed by the
values tensor and the mask tensor, each in SLT1 format.
"""

from __future__ import annotations

import dataclasses
from typing import BinaryIO, Iterable

import numpy as np

from . import tensor
from .errors import FormatError, ShapeMismatchError, SpecMismatchError

_MAGIC = b"SLS1"


@dataclasses.dataclass(frozen=True)
class ChannelSpec:
    """Shape and dtype of the per-timestep channel block (excludes batch/time)."""

    shape: tuple[int, ...]
    dtype: np.dtype = tensor.FLOAT32

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(d) for d in self.shape))
        object.__setattr__(self, "dtype", tensor.canonical_dtype(self.dtype))

    def __str__(self) -> str:
        return f"{tensor.DTYPE_NAMES[self.dtype]}[{','.join(str(d) for d in self.shape)}]"


def zero_invalid(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``values`` with the steps ``mask`` marks invalid set to ``+0``: the
    arrays of :meth:`Sequence.mask_invalid`. Returns ``values`` itself when
    every step is valid; a prefix-shaped mask (no valid step after an invalid
    one in a row) over 8192 elements a row or more costs one copy of the valid
    prefixes plus zeros over the row tails, with the bits of the one
    ``np.where`` pass any other mask costs."""
    if np.count_nonzero(mask) == mask.size:
        return values
    # The rows cost ~1 us each, np.where in proportion to the elements: on a
    # 2-CPU x86 host the rows won from 8192 elements a row (batch 1-32, 1-32
    # channels, f32/i32/bool) and lost by up to 2.3x at 1024.
    if values.size >= len(values) << 13 and not (mask[:, 1:] > mask[:, :-1]).any():
        out = np.empty_like(values)
        ends = np.where(mask[:, -1], mask.shape[1], mask.argmin(axis=1))  # valid lengths
        for row, new, end in zip(values, out, ends.tolist()):
            new[:end] = row[:end]
            new[end:] = 0
        return out
    expanded = mask.reshape(mask.shape + (1,) * (values.ndim - 2))
    return np.where(expanded, values, np.zeros((), dtype=values.dtype))


def empty_history(batch_size: int, length: int, spec: ChannelSpec) -> tuple[np.ndarray, np.ndarray]:
    """A stream history before the first block: ``length`` invalid zero
    steps of ``spec``, as a read-only ``(values, mask)`` pair."""
    values = np.zeros((batch_size, length) + spec.shape, dtype=spec.dtype)
    return tensor.freeze(values), tensor.freeze(np.zeros((batch_size, length), bool))


def shift_in(history: tuple, block: tuple) -> tuple[list, tuple]:
    """Shifts a block into a fixed-length stream history: the one rule that
    advances every step state kept over a fixed number of past steps (a
    window's context, a delay line, the transposed convolution's mask
    history, attention's pending queries). Attention's KV cache, which an
    unbounded past lets grow, appends into capacity buffers of its own
    instead (see :mod:`seqstream.attention`).

    ``history`` and ``block`` are matching tuples of arrays ``[B, L, ...]``
    and ``[B, T, ...]``. Returns the joined arrays ``[B, L + T, ...]``, each
    history array followed in time by its block array, and the next history:
    their last L steps, read-only. An empty history (L = 0) joins with no
    copy: the joined arrays are the block's own. Raises
    :class:`SpecMismatchError` when a block array's batch, channel shape or
    dtype differs from its history array's.
    """
    if history[0].shape[1]:
        joined = []
        for past, new in zip(history, block):
            try:
                # casting "no" refuses a block whose dtype would promote the join
                joined.append(np.concatenate((past, new), axis=1, casting="no"))
            except (TypeError, ValueError):
                raise _join_mismatch(past, new) from None
    else:
        for past, new in zip(history, block):
            same_shape = past.shape[0] == new.shape[0] and past.shape[2:] == new.shape[2:]
            if not same_shape or past.dtype != new.dtype:
                raise _join_mismatch(past, new)
        joined = list(block)
    start = block[0].shape[1]
    return joined, tuple([tensor.freeze(both[:, start:]) for both in joined])


def _join_mismatch(past: np.ndarray, new: np.ndarray) -> SpecMismatchError:
    return SpecMismatchError(
        f"cannot concatenate {new.shape[0]}x{ChannelSpec(new.shape[2:], new.dtype)} "
        f"with {past.shape[0]}x{ChannelSpec(past.shape[2:], past.dtype)}"
    )


@dataclasses.dataclass(frozen=True)
class Sequence:
    """Batched values plus a per-timestep validity mask."""

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        values = tensor.tensor(self.values)
        mask = tensor.tensor(self.mask)
        if values.ndim < 2:
            raise ShapeMismatchError(
                f"sequence values must have rank >= 2 ([batch, time, ...]), got {values.shape}"
            )
        if mask.dtype != tensor.BOOL:
            raise TypeError(f"mask must be bool, got {mask.dtype}")
        if mask.shape != values.shape[:2]:
            raise ShapeMismatchError(
                f"mask shape {mask.shape} does not match values batch/time {values.shape[:2]}"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @staticmethod
    def _wrap(values: np.ndarray, mask: np.ndarray) -> "Sequence":
        """The trusted constructor for arrays the library just built.

        Contract, unchecked: ``values`` is an ndarray of rank >= 2 with a
        dtype in ``tensor.DTYPES``; ``mask`` is a bool ndarray shaped
        ``values.shape[:2]``; both were just allocated by the library or are
        views of already read-only arrays. Never pass a caller's writeable
        array: both arrays are made read-only in place, not copied.
        """
        if values.flags.writeable:
            values.setflags(write=False)
        if mask.flags.writeable:
            mask.setflags(write=False)
        seq = object.__new__(Sequence)
        fields = seq.__dict__
        fields["values"], fields["mask"] = values, mask
        return seq

    # -- construction helpers --

    @staticmethod
    def from_values(values) -> "Sequence":
        """Wraps fully-valid values."""
        values = tensor.tensor(values)
        if values.ndim < 2:
            raise ShapeMismatchError(f"rank >= 2 required, got shape {values.shape}")
        mask = tensor.freeze(np.ones(values.shape[:2], bool))
        return Sequence(values, mask)

    @staticmethod
    def from_lengths(values, lengths) -> "Sequence":
        """Builds a sequence whose row b is valid for the first lengths[b] steps."""
        values = tensor.tensor(values)
        if values.ndim < 2:
            raise ShapeMismatchError(f"rank >= 2 required, got shape {values.shape}")
        lengths = np.asarray(lengths, dtype=np.int64)
        batch, time = values.shape[:2]
        if lengths.shape != (batch,):
            raise ShapeMismatchError(f"lengths shape {lengths.shape} != ({batch},)")
        if np.any(lengths < 0) or np.any(lengths > time):
            raise ValueError(f"lengths {lengths.tolist()} out of range [0, {time}]")
        mask = np.arange(time)[None, :] < lengths[:, None]
        return Sequence(values, tensor.tensor(mask, tensor.BOOL))

    # -- basic properties --

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def batch_size(self) -> int:
        return self.values.shape[0]

    @property
    def time(self) -> int:
        return self.values.shape[1]

    @property
    def channel_shape(self) -> tuple[int, ...]:
        return self.values.shape[2:]

    @property
    def channel_spec(self) -> ChannelSpec:
        return ChannelSpec(self.channel_shape, self.dtype)

    def lengths(self) -> np.ndarray:
        """Count of valid timesteps per row (int32)."""
        return tensor.tensor(self.mask.sum(axis=1), tensor.INT32)

    # -- masking --

    def expanded_mask(self) -> np.ndarray:
        """Mask broadcast to the full values shape."""
        return self.mask.reshape(self.mask.shape + (1,) * (self.ndim - 2))

    def mask_invalid(self) -> "Sequence":
        """Zeroes values at invalid positions.

        When every step is valid there is nothing to zero: the result shares
        this sequence's arrays and copies nothing.
        """
        return Sequence._wrap(zero_invalid(self.values, self.mask), self.mask)

    # -- time manipulation --

    def pad_time(self, front: int, back: int, valid: bool) -> "Sequence":
        if front < 0 or back < 0:
            raise ValueError(f"pad counts must be >= 0, got {(front, back)}")
        if front == 0 and back == 0:
            return self
        # zeros joined on, not np.pad, which costs several times as much per call
        batch, channel = self.batch_size, self.channel_shape
        values = np.concatenate(
            [
                np.zeros((batch, front) + channel, self.dtype),
                self.values,
                np.zeros((batch, back) + channel, self.dtype),
            ],
            axis=1,
        )
        fill = bool(valid)
        mask = np.concatenate(
            [np.full((batch, front), fill), self.mask, np.full((batch, back), fill)], axis=1
        )
        return Sequence._wrap(values, mask)

    def slice_time(self, start: int, stop: int) -> "Sequence":
        """Steps [start, stop) as read-only views of this sequence's arrays."""
        time = self.time
        start = max(0, start + time if start < 0 else start)
        stop = min(time, stop + time if stop < 0 else stop)
        stop = max(stop, start)
        if start == 0 and stop == time:
            return self
        return Sequence._wrap(self.values[:, start:stop], self.mask[:, start:stop])

    def __getitem__(self, key) -> "Sequence":
        """Supports the usual [batch, time] slicing shorthands, e.g. s[:, a:b]."""
        if not isinstance(key, tuple) or len(key) != 2:
            raise TypeError("sequence slicing takes a (batch, time) index pair")
        bkey, tkey = key
        if not isinstance(tkey, slice) or tkey.step not in (None, 1):
            raise TypeError("time index must be a unit-stride slice")
        start, stop, _ = tkey.indices(self.time)
        out = self.slice_time(start, stop)
        if isinstance(bkey, slice) and bkey == slice(None):
            return out
        return out.take_batch(bkey)

    def take_batch(self, indices) -> "Sequence":
        """The rows a batch slice or a 1-D index (or bool) array selects."""
        if not isinstance(indices, slice):
            indices = np.asarray(indices)
            if indices.ndim != 1:
                raise ShapeMismatchError(f"batch index must be 1-D, got shape {indices.shape}")
        return Sequence._wrap(self.values[indices], self.mask[indices])

    @staticmethod
    def concatenate_sequences(seqs: Iterable["Sequence"]) -> "Sequence":
        """Concatenates along time. Batch and channel specs must agree.

        Empty parts add nothing: with one non-empty part, that part is returned.
        """
        seqs = list(seqs)
        if not seqs:
            raise ValueError("cannot concatenate zero sequences")
        first = seqs[0]
        for s in seqs[1:]:
            if (s.batch_size, s.channel_shape, s.dtype) != (
                first.batch_size, first.channel_shape, first.dtype
            ):
                raise SpecMismatchError(
                    f"cannot concatenate {s.batch_size}x{s.channel_spec} "
                    f"with {first.batch_size}x{first.channel_spec}"
                )
        nonempty = [s for s in seqs if s.time]
        if len(nonempty) == 1:
            return nonempty[0]
        values = np.concatenate([s.values for s in seqs], axis=1)
        mask = np.concatenate([s.mask for s in seqs], axis=1)
        return Sequence._wrap(values, mask)

    def reverse_time_valid(self) -> "Sequence":
        """Reverses each row's valid region in place; end padding stays at the end.

        Rows must be valid-contiguous from t=0 for this to be meaningful.
        """
        lengths = np.asarray(self.mask.sum(axis=1))
        t = np.arange(self.time)[None, :]
        src = np.where(t < lengths[:, None], lengths[:, None] - 1 - t, t)
        values = np.take_along_axis(
            np.asarray(self.values), src.reshape(src.shape + (1,) * (self.ndim - 2)), axis=1
        )
        mask = np.take_along_axis(np.asarray(self.mask), src, axis=1)
        return Sequence._wrap(values, mask)


def write_sequence(fp: BinaryIO, s: Sequence) -> None:
    fp.write(_MAGIC)
    tensor.write_tensor(fp, s.values)
    tensor.write_tensor(fp, s.mask)


def read_sequence(fp: BinaryIO) -> Sequence:
    magic = fp.read(4)
    if magic != _MAGIC:
        raise FormatError(f"bad SLS1 magic {magic!r}")
    values = tensor.read_tensor(fp)
    mask = tensor.read_tensor(fp)
    if mask.dtype != tensor.BOOL:
        raise FormatError(f"SLS1 mask must be bool, got {mask.dtype}")
    if values.ndim < 2 or mask.shape != values.shape[:2]:
        raise FormatError(
            f"SLS1 values {values.shape} and mask {mask.shape} do not form a "
            "[batch, time, ...] sequence"
        )
    return Sequence(values, mask)


def save_sequence(path, s: Sequence) -> None:
    with open(path, "wb") as fp:
        write_sequence(fp, s)


def load_sequence(path) -> Sequence:
    with open(path, "rb") as fp:
        return read_sequence(fp)
