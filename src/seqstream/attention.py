"""Multi-headed dot-product self-attention with a streaming KV cache.

Each output step attends over the valid inputs inside a configurable window:
``max_past_horizon`` steps back (-1 for unbounded) through
``max_future_horizon`` steps ahead. A future horizon F makes the layer emit
F invalid placeholder steps while queries wait for their lookahead context,
so output latency and input latency both equal F.

The step kernel is the layer: ``layer()`` runs it once over the flushed
sequence, and the output spec is what it returns (see
:mod:`seqstream.layer`). One attend path serves both modes and both pasts:
``_attend`` runs a block of at most 256 consecutive queries over the keys
its window admits, and a call runs its queries block by block.

Chunks. Keys are grouped in chunks of C = 64 stream indices, aligned to
the stream index modulo C: chunk j holds indices jC to jC + C - 1 in every
mode. A query block computes one [B, H, R, n·C] logits buffer over the n
chunks its window meets, writes the refusals into it as -inf (keys outside
a query's window, slots no key has reached yet, invalid keys), takes each
row's max and exps in place. Each chunk's weights then meet its values in
one matmul with K = C; the values carry a column of ones, so the matmul
gives the chunk's context and its weight sum. The chunks are added oldest
first, and the context is divided by the sum.

Exactness: a step gives the very bits of ``layer()``, because each number
that makes up a query's output comes from the same operands in the same
order in both modes:

1. a logit is a BLAS matmul row with K = U (heads of up to 256 units) and
   at least two rows, whose bits do not depend on the call's other rows or
   columns (a lone query is duplicated for the matmuls, see
   :mod:`seqstream.tensor`);
2. the row max is exact in any order, and the subtraction and exp are
   elementwise;
3. a chunk's context and sum are one matmul row over the same C slots at
   the same offsets, with K = C and the value width a multiple of 16;
4. a refused slot weighs exactly 0, so a chunk that one mode computes and
   the other skips (before a query's window, or past its last key) adds
   exact zeros;
5. the chunks are added in stream order in both modes.

Memory rule: a query block allocates one [B, H, R, n·C] float32 buffer for
its logits and weights, and one for its chunk contexts, [n, B, R, H, U']
(R at least 2). So
``layer()`` over T steps peaks near one [B, H, 256, S] buffer, S its keys
rounded up to whole chunks, where computing all logits at once took
[B, H, T, S]; and a query block skips the chunks before its window, such as
a bounded past's initial slots.

Step-wise state:

* ``keys`` [B, H, U, S], ``values`` [B, H, S, U] and ``key_mask`` [B, S]
  (int8, 0 or 1): the projected keys and values of the most recent input
  positions, one slot per position. An invalid step takes its slot with
  zero keys/values and a 0 mask, so it is masked out of attention exactly
  as in ``layer()``. A bounded past P keeps the last P + F positions at a
  fixed shape (the initial state's are invalid); an unbounded past keeps
  every position seen so far (the one sanctioned exception to fixed-shape
  state);
* ``pending_q``/``pending_mask``: the F most recent projected queries, which
  still wait for their lookahead keys: a delay line of F steps, advanced by
  :func:`~seqstream.sequence.shift_in`;
* ``position``: the number of input steps consumed, a Python int.

The three cache arrays are read-only views of capacity buffers that the
layer allocates and keeps read-only between calls: keys [B, H, U, cap],
values [B, H, cap, U'] and a key mask [B, cap]. U' is U + 1 rounded up to
a multiple of 16: the units, the column of ones, and zero columns that keep
BLAS off its narrow-width path. A buffer's slot s holds stream index
base + s for a base that is a multiple of C, so chunks are aligned slices.
Where no step has written, keys and values are zero and the mask holds the
unwritten mark 2, so the unreached slots of the newest chunk read as
refused keys with zero values.

The position places a state's cache in its buffers, whatever history made
them. An unbounded past starts at slot 0 (base 0). A bounded past starts at
slot D + (position - P - F) mod D, for the period D, the least positive
multiple of C not below P + F: its base is one period below the period of
its first position.

A step appends its block in place, after the state's last slot, when that
slot's mask still holds the mark (the state is the newest of its buffers,
and no view anywhere reaches the slots written) and a bounded cache stays
in its period. Otherwise it copies the state's slots into new buffers and
appends there. An unbounded past's new buffers hold its slots rounded up to
whole chunks when the state is not a cache view (the initial state, so
``layer()`` carries less than a chunk of slack, or a deep copy), and twice
its slots when it is (a state stepped twice, or a full buffer). A bounded
past's hold two periods and the cache and block, which lasts it to the end
of its period. A stream so writes O(block) cache bytes per step, amortized;
the buffers are replaced O(log T) times over T steps of an unbounded past,
and once a period of a bounded one. A block longer than a period, as in
``layer()`` over a long sequence, moves its successor's P + F slots into
buffers of their own.
"""

from __future__ import annotations

import numpy as np

from . import params as params_lib
from . import tensor
from .layer import SequenceLayer
from .sequence import shift_in

__all__ = ["DotProductSelfAttention"]

_NEG_INF = np.float32(-np.inf)
#: the peak of a row that refuses every key: its weights exp to zeros
_LOWEST = np.finfo(np.float32).min
#: the least weight sum a row divides by
_TINY = np.float32(1e-30)
#: the key-mask value of a cache slot that no step has written; no view holds it
_UNWRITTEN = np.int8(2)
#: stream indices per chunk (see the module docstring)
_CHUNK = 64
#: queries per attend call
_QUERY_ROWS = 256
#: ``rows.take(_TWICE, axis=2)`` is a lone query row duplicated
_TWICE = np.zeros(2, np.intp)
#: ``_EARLIER[:R, :R - 1]`` marks column c < row r: the window refusals of R
#: consecutive queries on the columns where their lo differs, and, negated in
#: ``_LATER``, where their hi does
_EARLIER = np.tri(_QUERY_ROWS, _QUERY_ROWS - 1, -1, dtype=bool)
_LATER = ~_EARLIER


def _whole_chunks(slots: int) -> int:
    """``slots`` rounded up to whole chunks."""
    return -(-slots // _CHUNK) * _CHUNK


def _buffer(view: np.ndarray) -> np.ndarray | None:
    """The cache buffer that ``view`` looks into, or None when its base is not
    a read-only array, as a cache buffer is between steps: the initial
    state's arrays, a deep copy's and views of a caller's writeable arrays
    are never written."""
    base = view.base
    return base if isinstance(base, np.ndarray) and not base.flags.writeable else None


class DotProductSelfAttention(SequenceLayer):
    def __init__(
        self,
        d_model,
        num_heads,
        units_per_head,
        max_past_horizon=-1,
        max_future_horizon=0,
        *,
        params=None,
        rng=None,
        name=None,
    ):
        super().__init__(name)
        if d_model < 0:
            raise ValueError(f"d_model must be >= 0, got {d_model}")
        if max_past_horizon < -1:
            raise ValueError(f"max_past_horizon must be >= 0 or -1, got {max_past_horizon}")
        if max_future_horizon < 0:
            raise ValueError(
                f"max_future_horizon must be a finite value >= 0, got {max_future_horizon}"
            )
        if num_heads < 1 or units_per_head < 1:
            raise ValueError(
                f"num_heads/units_per_head must be >= 1, got {(num_heads, units_per_head)}"
            )
        self.d_model = int(d_model)
        self.num_heads = int(num_heads)
        self.units_per_head = int(units_per_head)
        self.max_past_horizon = int(max_past_horizon)
        self.max_future_horizon = int(max_future_horizon)
        self.input_latency = self.output_latency = self.max_future_horizon
        past = -np.inf if self.unbounded_past else -self.max_past_horizon
        self.receptive_field_per_step = {0: (past, self.max_future_horizon)}
        # a bounded cache's slots advance through a period of whole chunks
        self._period = _whole_chunks(max(1, self.max_past_horizon + self.max_future_horizon))
        proj = (self.d_model, self.num_heads, self.units_per_head)
        self._params = params_lib.materialize(
            {"q_proj": proj, "k_proj": proj, "v_proj": proj}, params, rng, self.name
        )
        # One [D, 3*H*U] matrix for all three projections; the logit scale
        # 1/sqrt(U) is folded into the query columns.
        flat = (self.d_model, self.num_heads * self.units_per_head)
        scale = np.float32(1.0 / np.sqrt(self.units_per_head))
        self._qkv_proj = tensor.rows_weight(
            np.concatenate(
                [
                    self._params["q_proj"].reshape(flat) * scale,
                    self._params["k_proj"].reshape(flat),
                    self._params["v_proj"].reshape(flat),
                ],
                axis=1,
            )
        )

    @property
    def unbounded_past(self) -> bool:
        return self.max_past_horizon == -1

    @property
    def state_grows(self) -> bool:
        return self.unbounded_past

    def _project(self, values):
        """Scaled queries, keys and values of masked ``values``, each [B, T, H, U]."""
        self._expect_channels(values.shape[2:], (self.d_model,))
        batch, time = values.shape[:2]
        qkv = tensor.matmul_rows(values, self._qkv_proj, 3 * self.num_heads * self.units_per_head)
        qkv = qkv.reshape(batch, time, 3, self.num_heads, self.units_per_head)
        return qkv[:, :, 0], qkv[:, :, 1], qkv[:, :, 2]

    def _attend(self, q, hi, kb, vb, mb, out):
        """Masked softmax attention of one query block over the chunks its
        window admits, written into ``out``: the context [B, R, H, U].

        q [B, H, R, U] holds R consecutive queries. The cache buffers kb
        [B, H, U, cap], vb [B, H, cap, U'] and mb [B, cap] are laid out in
        chunks (see the module docstring). Query r admits the slots below
        hi + r whose mask is 1: from lo + r, lo = hi - 1 - F - P, for a
        bounded past, and from slot 0 for an unbounded one.
        """
        batch, heads, rows, units = q.shape
        bounded = not self.unbounded_past
        lo = hi - 1 - self.max_future_horizon - self.max_past_horizon if bounded else 0
        first = lo - lo % _CHUNK
        chunks = -((first - hi - rows + 1) // _CHUNK)
        width = chunks * _CHUNK
        # a lone query gets a second row, which only the matmuls see (see tensor.py)
        if rows > 1:
            live = logits = q @ kb[..., first : first + width]  # [B, H, R, width]
        else:
            logits = q.take(_TWICE, axis=2) @ kb[..., first : first + width]
            live = logits[:, :, :1]
        # window refusals: all rows refuse the columns before the first row's
        # lo and from the last row's hi; two triangles cover those between
        near = hi - first
        live[..., near + rows - 1 :] = _NEG_INF
        if rows > 1:
            np.copyto(live[..., near : near + rows - 1], _NEG_INF, where=_LATER[:rows, : rows - 1])
        if bounded:
            far = lo - first
            live[..., :far] = _NEG_INF
            if rows > 1:
                earlier = _EARLIER[:rows, : rows - 1]
                np.copyto(live[..., far : far + rows - 1], _NEG_INF, where=earlier)
        admitted = mb[:, lo : hi + rows - 1]
        if np.count_nonzero(admitted) < admitted.size:
            np.copyto(live, _NEG_INF, where=(mb[:, first : first + width] == 0)[:, None, None])
        peak = live.max(axis=-1, keepdims=True, initial=_LOWEST)
        np.exp(np.subtract(live, peak, out=live), out=live)
        if rows == 1:
            logits[:, :, 1] = logits[:, :, 0]
        # [chunks, B, M, H, U']: each chunk's context and, in column U, its
        # weights' sum, against the values' column of ones; folded in stream order
        weights = logits.reshape(batch, heads, -1, chunks, _CHUNK).transpose(3, 0, 1, 2, 4)
        values = vb[:, :, first : first + width].reshape(batch, heads, chunks, _CHUNK, -1)
        parts = np.empty((chunks, batch, max(rows, 2), heads, vb.shape[-1]), np.float32)
        np.matmul(weights, values.transpose(2, 0, 1, 3, 4), out=parts.transpose(0, 1, 3, 2, 4))
        total = parts[0]
        for part in parts[1:]:
            total += part
        total = total[:, :rows]
        np.divide(total[..., :units], np.maximum(total[..., units : units + 1], _TINY), out=out)

    def _first_slot(self, position, size):
        """The buffer slot of the first of a cache's ``size`` positions, the
        last of which is stream index ``position - 1`` (see the module
        docstring)."""
        if self.unbounded_past:
            return 0
        return self._period + (position - size) % self._period

    def _buffers(self, keys, values, key_mask, slot, cap):
        """New read-only cache buffers of ``cap`` slots that hold a cache's
        views from ``slot`` on, and zeros and the unwritten mark elsewhere."""
        batch, h, u = key_mask.shape[0], self.num_heads, self.units_per_head
        kb = np.zeros((batch, h, u, cap), np.float32)
        vb = np.zeros((batch, h, cap, -(-(u + 1) // 16) * 16), np.float32)
        mb = np.full((batch, cap), _UNWRITTEN, np.int8)
        end = slot + key_mask.shape[1]
        kb[..., slot:end], vb[:, :, slot:end, :u], mb[:, slot:end] = keys, values, key_mask
        vb[:, :, slot:end, u] = 1
        return tensor.freeze(kb), tensor.freeze(vb), tensor.freeze(mb)

    def _append(self, state, k, v, mask):
        """The state's cache with a block's keys and values [B, T, H, U] and
        mask [B, T] appended (see the module docstring): the read-only
        buffers keys [B, H, U, cap], values [B, H, cap, U'] and key mask
        [B, cap], and the slots [first, stop) of the state's positions and
        then the block's."""
        keys, values, key_mask = state["keys"], state["values"], state["key_mask"]
        kb, vb, mb = _buffer(keys), _buffer(values), _buffer(key_mask)
        size, time = key_mask.shape[1], mask.shape[1]
        first = self._first_slot(state["position"], size)
        end = first + size
        if self.unbounded_past:
            home = first
        else:  # where the state's slots go for its successor's to sit at their first slot
            home = self._first_slot(state["position"] + time, size) - time
        cached = kb is not None and vb is not None and mb is not None
        room = mb.shape[1] - end if cached and home == first else 0
        # the slot past the state's last holds the mark until a step appends
        # after it; a buffer of no rows has no mark, and nothing to overwrite
        if not (room >= max(time, 1) and (not len(mb) or mb[0, end] == _UNWRITTEN)):
            if home >= 0:  # else a block longer than a period leaves its successor to move
                first, end = home, home + size
            if self.unbounded_past:
                cap = 2 * (end + time) if cached else end + time
            else:
                cap = 2 * self._period + size + time
            kb, vb, mb = self._buffers(keys, values, key_mask, first, _whole_chunks(cap))
        stop = end + time
        for buf in (kb, vb, mb):
            buf.setflags(write=True)
        try:
            kb[..., end:stop] = k.transpose(0, 2, 3, 1)
            vb[:, :, end:stop, : self.units_per_head] = v.transpose(0, 2, 1, 3)
            vb[:, :, end:stop, self.units_per_head] = 1
            mb[:, end:stop] = mask
        finally:
            for buf in (kb, vb, mb):
                buf.setflags(write=False)
        return kb, vb, mb, first, stop

    def get_initial_state(self, batch_size, input_spec, *, training, constants=None):
        h, u, f = self.num_heads, self.units_per_head, self.max_future_horizon
        size = 0 if self.unbounded_past else self.max_past_horizon + f
        zeros = {
            "keys": np.zeros((batch_size, h, u, size), np.float32),
            "values": np.zeros((batch_size, h, size, u), np.float32),
            "key_mask": np.zeros((batch_size, size), np.int8),
            "pending_q": np.zeros((batch_size, f, h, u), np.float32),
            "pending_mask": np.zeros((batch_size, f), bool),
        }
        return {name: tensor.freeze(a) for name, a in zeros.items()} | {"position": 0}

    _masks_step_input = True

    def _step_arrays(self, values, mask, state, training, constants):
        q, k, v = self._project(values)
        batch, time = mask.shape
        # shift_in checks the block against the state before the cache is touched
        pending = (state["pending_q"], state["pending_mask"])
        (queries, query_mask), pending = shift_in(pending, (q, mask))
        kb, vb, mb, first, stop = self._append(state, k, v, mask)
        # the oldest `time` queries have all their lookahead keys now; query i
        # admits the slots before stop - time + i + 1
        queries = queries.transpose(0, 2, 1, 3)
        units = self.units_per_head
        context = np.empty((batch, time, self.num_heads, units), np.float32)
        for i in range(0, time, _QUERY_ROWS):
            rows = slice(i, min(i + _QUERY_ROWS, time))
            self._attend(queries[:, :, rows], stop - time + i + 1, kb, vb, mb, context[:, rows])
        # an unbounded past keeps every slot, a bounded one its last P + F
        position = state["position"] + time
        if not self.unbounded_past:
            size = self.max_past_horizon + self.max_future_horizon
            first, slot = stop - size, self._first_slot(position, size)
            if first != slot:  # a block longer than a period: move the cache to its slot
                cache = kb[..., first:stop], vb[:, :, first:stop, :units], mb[:, first:stop]
                kb, vb, mb = self._buffers(*cache, slot, _whole_chunks(2 * self._period + size))
                first, stop = slot, slot + size
        new_state = {
            "keys": kb[..., first:stop],
            "values": vb[:, :, first:stop, :units],
            "key_mask": mb[:, first:stop],
            "pending_q": pending[0],
            "pending_mask": pending[1],
            "position": position,
        }
        return context, query_mask[:, :time], new_state
