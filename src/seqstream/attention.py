"""Multi-headed dot-product self-attention with a streaming KV cache.

Each output step attends over the valid inputs inside a configurable window:
``max_past_horizon`` steps back (-1 for unbounded) through
``max_future_horizon`` steps ahead. A future horizon F makes the layer emit
F invalid placeholder steps while queries wait for their lookahead context,
so output latency and input latency both equal F.

The step kernel is the layer: ``layer()`` runs it once over the flushed
sequence, and the output spec is what it returns (see
:mod:`seqstream.layer`). It attends with ``_attend``: queries attend over
keys/values at positions on one axis, admitted by the horizon window (which
reads only position differences, so a call counts them back from its
block's end) and the key validity mask, with batched (BLAS) matmuls.

Memory rule: one call allocates one [B, H, Tq, S] float32 buffer, the logits
of the query-key matmul. The refusals (keys outside the window, then invalid
keys, if any) are written into it as -inf, and the softmax runs in place, so no
second logits array, combined [B, 1, Tq, S] mask or [Tq, S] offset matrix is
made. The window refusals are one bool: [Tq, S] for a bounded past, and for
an unbounded past [Tq, Tq + F] over the newest keys only, the ones a
query's lookahead can refuse. Besides that buffer, a call writes only the
block's slots of the KV cache, unless the cache must move (see below).

Step-wise state:

* ``keys`` [B, H, U, S], ``values`` [B, H, S, U] and ``key_mask`` [B, S]
  (int8, 0 or 1): the projected keys and values of the most recent input
  positions, one slot per position, laid out for the query-key and
  weight-value matmuls. An invalid step takes its slot with zero
  keys/values and a 0 mask, so it is masked out of attention exactly as in
  ``layer()``. A bounded past P keeps the last P + F positions at a fixed
  shape; an unbounded past keeps every position seen so far (the one
  sanctioned exception to fixed-shape state);
* ``pending_q``/``pending_mask``: the F most recent projected queries, which
  still wait for their lookahead keys: a delay line of F steps, advanced by
  :func:`~seqstream.sequence.shift_in`.

The three cache arrays are read-only views of capacity buffers that the
layer allocates and keeps read-only between calls: keys [B, H, U, cap],
values [B, H, cap, U] and a key mask [B, cap] whose slots past every
state's view hold the unwritten mark 2. A step appends its block in place,
after the state's last slot, when that slot's mask still holds the mark:
the state is the newest of its buffers, and no view anywhere reaches the
slots written. Otherwise it copies the state's slots into new buffers and
appends there: exactly sized when the state is not a cache view (the
initial state, so ``layer()`` carries no slack, or a deep copy), twice the
slots it needs when it is (a state stepped twice, or a full buffer, which a
bounded past thereby compacts to its last P + F slots). A stream so writes
O(block) cache bytes per step, amortized, and the buffers are replaced
O(log T) times over T steps of an unbounded past.
"""

from __future__ import annotations

import numpy as np

from . import params as params_lib
from . import tensor
from .layer import SequenceLayer
from .sequence import shift_in

__all__ = ["DotProductSelfAttention"]

_NEG_INF = np.float32(-np.inf)
#: the key-mask value of a cache slot that no step has written; no view holds it
_UNWRITTEN = np.int8(2)


def _buffer(view: np.ndarray) -> np.ndarray | None:
    """The cache buffer that ``view`` looks into, or None when its base is not
    a read-only array, as a cache buffer is between steps: the initial
    state's arrays, a deep copy's and views of a caller's writeable arrays
    are never written."""
    base = view.base
    return base if isinstance(base, np.ndarray) and not base.flags.writeable else None


def _start(view: np.ndarray) -> int:
    """The slot at which an int8 key-mask view starts in its [B, cap] buffer."""
    return view.__array_interface__["data"][0] - view.base.__array_interface__["data"][0]


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

    def _attend(self, q, q_pos, keys, values, k_pos, k_mask):
        """Masked softmax attention over one block's queries; the context
        [B, Tq, H, U].

        q [B, H, Tq, U] at positions q_pos [Tq]; keys [B, H, U, S] and values
        [B, H, S, U] at positions k_pos [S] with validity k_mask [B, S] (0 or
        1). Query t admits key s when s is valid and
        t - past <= s <= t + future. Both position axes end at the block's
        last step: the newest key is at -1 and the oldest query at
        -(Tq + F) or later, so a query's lookahead refuses keys among the last
        Tq + F only.
        """
        logits = q @ keys  # [B, H, Tq, S]
        future = q_pos + self.max_future_horizon
        if self.unbounded_past:
            n = len(q_pos) + self.max_future_horizon  # a slice [-n:] of fewer keys takes all
            refused = np.less.outer(future, k_pos[-n:])  # [Tq, min(S, Tq + F)]
            np.copyto(logits[..., -n:], _NEG_INF, where=refused)
        else:
            refused = np.less.outer(future, k_pos)  # [Tq, S]
            refused |= np.greater.outer(q_pos - self.max_past_horizon, k_pos)
            np.copyto(logits, _NEG_INF, where=refused)
        if np.count_nonzero(k_mask) < k_mask.size:
            np.copyto(logits, _NEG_INF, where=(k_mask == 0)[:, None, None])
        # the initial value gives an empty key axis (an empty first block) a peak
        peak = np.max(logits, axis=-1, keepdims=True, initial=_NEG_INF)
        peak = np.where(np.isfinite(peak), peak, np.float32(0))
        weights = np.exp(np.subtract(logits, peak, out=logits), out=logits)
        denom = np.maximum(np.sum(weights, axis=-1, keepdims=True), np.float32(1e-30))
        context = (weights @ values) / denom  # [B, H, Tq, U]
        # one contiguous copy: Flatten would copy a transposed view twice
        return np.ascontiguousarray(context.transpose(0, 2, 1, 3))

    def _append(self, state, k, v, mask):
        """The state's cache with a block's keys and values [B, T, H, U] and
        mask [B, T] appended (see the module docstring): read-only views
        keys [B, H, U, S], values [B, H, S, U] and key mask [B, S] over the
        state's slots and then the block's."""
        keys, values, key_mask = state["keys"], state["values"], state["key_mask"]
        kb, vb, mb = _buffer(keys), _buffer(values), _buffer(key_mask)
        size, time = key_mask.shape[1], mask.shape[1]
        cached = kb is not None and vb is not None and mb is not None
        start = _start(key_mask) if cached and not self.unbounded_past else 0
        end = start + size
        room = mb.shape[1] - end if cached else 0
        # the slot past the state's last holds the mark until a step appends
        # after it; a buffer of no rows has no mark, and nothing to overwrite
        newest = room >= max(time, 1) and (not len(mb) or mb[0, end] == _UNWRITTEN)
        if newest:
            for buf in (kb, vb, mb):
                buf.setflags(write=True)
        else:
            need = size + time
            batch, h, u = mask.shape[0], self.num_heads, self.units_per_head
            cap = 2 * need if cached else need
            kb = np.empty((batch, h, u, cap), np.float32)
            vb = np.empty((batch, h, cap, u), np.float32)
            mb = np.empty((batch, cap), np.int8)
            kb[..., :size], vb[:, :, :size], mb[:, :size] = keys, values, key_mask
            mb[:, need:] = _UNWRITTEN
            start, end = 0, size
        stop = end + time
        try:
            kb[..., end:stop] = k.transpose(0, 2, 3, 1)
            vb[:, :, end:stop] = v.transpose(0, 2, 1, 3)
            mb[:, end:stop] = mask
        finally:
            for buf in (kb, vb, mb):
                buf.setflags(write=False)
        return kb[..., start:stop], vb[:, :, start:stop], mb[:, start:stop]

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
        return {name: tensor.freeze(a) for name, a in zeros.items()}

    _masks_step_input = True

    def _step_arrays(self, values, mask, state, training, constants):
        q, k, v = self._project(values)
        time = values.shape[1]
        # shift_in checks the block against the state before the cache is touched
        pending = (state["pending_q"], state["pending_mask"])
        (queries, query_mask), pending = shift_in(pending, (q, mask))
        keys, values, key_mask = self._append(state, k, v, mask)
        # the oldest `time` queries have all their lookahead keys now
        q_pos = np.arange(-queries.shape[1], -self.max_future_horizon)
        k_pos = np.arange(-key_mask.shape[1], 0)
        q = queries[:, :time].transpose(0, 2, 1, 3)
        context = self._attend(q, q_pos, keys, values, k_pos, key_mask)
        # an unbounded past keeps every slot, a bounded one its last P + F
        if not self.unbounded_past:
            first = k_pos.size - self.max_past_horizon - self.max_future_horizon
            keys, values, key_mask = keys[..., first:], values[:, :, first:], key_mask[:, first:]
        new_state = {
            "keys": keys,
            "values": values,
            "key_mask": key_mask,
            "pending_q": pending[0],
            "pending_mask": pending[1],
        }
        return context, query_mask[:, :time], new_state
