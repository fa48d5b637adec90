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
keys) are written into it as -inf, and the softmax runs in place, so no
second logits array, combined [B, 1, Tq, S] mask or [Tq, S] offset matrix is
made; the window refusals are one [Tq, S] bool.

Step-wise state:

* ``keys``/``values``/``key_mask``: the projected keys and values of the most
  recent input positions, one slot per position. An invalid step takes its
  slot with zero keys/values and a false mask bit, so it is masked out of
  attention exactly as in ``layer()``. A bounded past P keeps the last P + F
  positions at a fixed shape; an unbounded past keeps every position seen so
  far (the one sanctioned exception to fixed-shape state);
* ``pending_q``/``pending_mask``: the F most recent projected queries, which
  still wait for their lookahead keys: a delay line of F steps.

Both the cache and the pending queries advance by one
:func:`~seqstream.sequence.shift_in` each, the cache growing when the past is
unbounded. ``step()`` handles a whole block per call and never writes into
arrays that the caller's state references.
"""

from __future__ import annotations

import numpy as np

from . import params as params_lib
from . import tensor
from .layer import SequenceLayer
from .sequence import shift_in

__all__ = ["DotProductSelfAttention"]

_NEG_INF = np.float32(-np.inf)


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
        proj = (self.d_model, self.num_heads, self.units_per_head)
        self._params = params_lib.materialize(
            {"q_proj": proj, "k_proj": proj, "v_proj": proj}, params, rng, self.name
        )
        # One [D, 3*H*U] matrix for all three projections; the logit scale
        # 1/sqrt(U) is folded into the query columns.
        flat = (self.d_model, self.num_heads * self.units_per_head)
        scale = np.float32(1.0 / np.sqrt(self.units_per_head))
        self._qkv_proj = tensor.freeze(
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

    @property
    def input_latency(self):
        return self.max_future_horizon

    @property
    def output_latency(self):
        return self.max_future_horizon

    @property
    def receptive_field_per_step(self):
        past = -np.inf if self.unbounded_past else -self.max_past_horizon
        return {0: (past, self.max_future_horizon)}

    def _project(self, values):
        """Scaled queries, keys and values of masked ``values``, each [B, T, H, U]."""
        self._expect_channels(values.shape[2:], (self.d_model,))
        batch, time = values.shape[:2]
        qkv = tensor.matmul_rows(values, self._qkv_proj)
        qkv = qkv.reshape(batch, time, 3, self.num_heads, self.units_per_head)
        return qkv[:, :, 0], qkv[:, :, 1], qkv[:, :, 2]

    def _attend(self, q, q_pos, k, v, k_pos, k_mask):
        """Masked softmax attention over one block's queries.

        q [B, Tq, H, U] at positions q_pos [Tq]; k, v [B, S, H, U] at
        positions k_pos [S] with validity k_mask [B, S]. Query t admits key
        s when s is valid and t - past <= s <= t + future.
        """
        logits = q.transpose(0, 2, 1, 3) @ k.transpose(0, 2, 3, 1)  # [B, H, Tq, S]
        refused = np.less.outer(q_pos + self.max_future_horizon, k_pos)  # [Tq, S]
        if not self.unbounded_past:
            refused |= np.greater.outer(q_pos - self.max_past_horizon, k_pos)
        np.copyto(logits, _NEG_INF, where=refused)
        np.copyto(logits, _NEG_INF, where=~k_mask[:, None, None, :])
        # the initial value gives an empty key axis (an empty first block) a peak
        peak = np.max(logits, axis=-1, keepdims=True, initial=_NEG_INF)
        peak = np.where(np.isfinite(peak), peak, np.float32(0))
        weights = np.exp(np.subtract(logits, peak, out=logits), out=logits)
        denom = np.maximum(np.sum(weights, axis=-1, keepdims=True), np.float32(1e-30))
        context = (weights @ v.transpose(0, 2, 1, 3)) / denom  # [B, H, Tq, U]
        # one contiguous copy: Flatten would copy a transposed view twice
        return np.ascontiguousarray(context.transpose(0, 2, 1, 3))

    def get_initial_state(self, batch_size, input_spec, *, training, constants=None):
        h, u, f = self.num_heads, self.units_per_head, self.max_future_horizon
        cache_len = 0 if self.unbounded_past else self.max_past_horizon + f
        return {
            "keys": np.zeros((batch_size, cache_len, h, u), np.float32),
            "values": np.zeros((batch_size, cache_len, h, u), np.float32),
            "key_mask": np.zeros((batch_size, cache_len), bool),
            "pending_q": np.zeros((batch_size, f, h, u), np.float32),
            "pending_mask": np.zeros((batch_size, f), bool),
        }

    _masks_step_input = True

    def _step_arrays(self, values, mask, state, training, constants):
        q, k, v = self._project(values)
        time = values.shape[1]
        cache = (state["keys"], state["values"], state["key_mask"])
        (keys, values, key_mask), cache = shift_in(cache, (k, v, mask), self.unbounded_past)
        pending = (state["pending_q"], state["pending_mask"])
        (queries, query_mask), pending = shift_in(pending, (q, mask))
        # the oldest `time` queries have all their lookahead keys now
        q_pos = np.arange(-queries.shape[1], -self.max_future_horizon)
        k_pos = np.arange(-keys.shape[1], 0)
        context = self._attend(queries[:, :time], q_pos, keys, values, k_pos, key_mask)
        new_state = {
            "keys": cache[0],
            "values": cache[1],
            "key_mask": cache[2],
            "pending_q": pending[0],
            "pending_mask": pending[1],
        }
        return context, query_mask[:, :time], new_state
