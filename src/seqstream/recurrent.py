"""Recurrent layers: an LSTM with explicit cell/hidden state."""

from __future__ import annotations

import numpy as np

from . import params as params_lib
from . import tensor
from .layer import SequenceLayer

__all__ = ["LSTM"]


class LSTM(SequenceLayer):
    """Standard LSTM over the time axis; the canonical unbounded-memory layer.

    Gate blocks in the fused kernel are ordered (input, forget, cell, output);
    random initialization adds 1.0 to the forget-gate bias. State holds at
    invalid timesteps, which is what makes trailing padding unable to disturb
    the recurrence.

    Internally the kernel and bias columns are reordered once, at
    construction, to (input, forget, output, cell): the three sigmoid gates
    are adjacent, so one ``expit`` covers them. ``parameters`` keeps the
    public order. A step contracts ``[x_t, h] @ kernel`` with a plain matmul:
    its rows are the batch, the same in both modes.
    """

    def __init__(self, in_features, units, *, params=None, rng=None, name=None):
        super().__init__(name)
        if units < 1:
            raise ValueError(f"units must be >= 1, got {units}")
        self.in_features = int(in_features)
        self.units = int(units)
        spec = {
            "kernel": (self.in_features + self.units, 4 * self.units),
            "bias": (4 * self.units,),
        }
        if params is None:
            initialized = params_lib.materialize(spec, None, rng, self.name)
            bias = np.array(initialized["bias"])
            bias[self.units : 2 * self.units] += 1.0
            initialized["bias"] = tensor.freeze(bias)
            self._params = initialized
        else:
            self._params = params_lib.materialize(spec, params, None, self.name)
        u = self.units
        # (i, f, g, o) -> (i, f, o, g)
        order = np.r_[0 : 2 * u, 3 * u : 4 * u, 2 * u : 3 * u]
        self._kernel = tensor.freeze(np.ascontiguousarray(self._params["kernel"][:, order]))
        self._bias = tensor.freeze(self._params["bias"][order])

    @property
    def receptive_field_per_step(self):
        return {0: (-np.inf, 0)}

    def get_initial_state(self, batch_size, input_spec, *, training, constants=None):
        zeros = np.zeros((batch_size, self.units), dtype=np.float32)
        return {"c": zeros, "h": zeros}

    def _scan(self, values, mask, c: np.ndarray, h: np.ndarray):
        """(outputs, c, h) of the recurrence over ``values``: an invalid
        step's values never reach the state or a valid output."""
        self._expect_channels(values.shape[2:], (self.in_features,))
        values = np.asarray(values, dtype=np.float32)
        kernel, bias = self._kernel, self._bias
        u = self.units
        batch, time = values.shape[:2]
        outputs = np.empty((batch, time, u), dtype=np.float32)
        # a step valid in every row needs no per-row select
        every_row_valid = mask.all(axis=0)
        for t in range(time):
            z = np.concatenate([values[:, t], h], axis=1) @ kernel
            z += bias
            ifo = tensor.special.expit(z[:, : 3 * u])
            c_new = ifo[:, u : 2 * u] * c + ifo[:, :u] * np.tanh(z[:, 3 * u :])
            h_new = ifo[:, 2 * u :] * np.tanh(c_new)
            if every_row_valid[t]:
                c, h = c_new, h_new
            else:
                valid = mask[:, t][:, None]
                c = np.where(valid, c_new, c)
                h = np.where(valid, h_new, h)
            outputs[:, t] = h_new
        return outputs, c, h

    def _step_arrays(self, values, mask, state, training, constants):
        outputs, c, h = self._scan(values, mask, state["c"], state["h"])
        return outputs, mask, {"c": tensor.freeze(c), "h": tensor.freeze(h)}
