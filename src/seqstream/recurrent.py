"""Recurrent layers: an LSTM with explicit cell/hidden state."""

from __future__ import annotations

import numpy as np

from . import params as params_lib
from . import tensor
from .layer import SequenceLayer

__all__ = ["LSTM"]

#: the most float32 values (1 MiB) of the input half that one contraction
#: makes: a long ``layer()`` contracts its inputs a chunk of whole steps at
#: a time, with the same bits, since a row's bits do not depend on the
#: call's row count. A whole-call projection (8 MiB for ``streaming_encoder``
#: at [4, 16384]) made the same process's later ``conv_stack`` stepping
#: about 5% slower on a 2-CPU host with glibc and numpy 2.4.
_CHUNK_VALUES = 1 << 18


class LSTM(SequenceLayer):
    """Standard LSTM over the time axis; the canonical unbounded-memory layer.

    Gate blocks in the fused kernel are ordered (input, forget, cell, output);
    random initialization adds 1.0 to the forget-gate bias. State holds at
    invalid timesteps, which is what makes trailing padding unable to disturb
    the recurrence.

    Internally the kernel and bias columns are reordered once, at
    construction, to (input, forget, output, cell): the three sigmoid gates
    are adjacent, so one ``expit`` covers them. ``parameters`` keeps the
    public order. The gates are ``(h @ h_kernel) + (x @ x_kernel + bias)``,
    with the kernel split at construction into its input and recurrent
    rows. A call contracts its inputs with
    :func:`~seqstream.tensor.matmul_rows` (its rows are positions) and adds
    the bias, all at once or, for a long call, a chunk of steps at a time;
    only the recurrent half runs per step, a plain matmul whose rows are the
    batch, the same in both modes.
    """

    def __init__(self, in_features, units, *, params=None, rng=None, name=None):
        super().__init__(name)
        if in_features < 0:
            raise ValueError(f"in_features must be >= 0, got {in_features}")
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
        kernel = self._params["kernel"][:, order]
        self._x_kernel = tensor.rows_weight(kernel[: self.in_features])
        self._h_kernel = tensor.freeze(np.ascontiguousarray(kernel[self.in_features :]))
        self._bias = tensor.freeze(self._params["bias"][order])
        self.receptive_field_per_step = {0: (-np.inf, 0)}

    def get_initial_state(self, batch_size, input_spec, *, training, constants=None):
        zeros = tensor.freeze(np.zeros((batch_size, self.units), dtype=np.float32))
        return {"c": zeros, "h": zeros}

    def _scan(self, values, mask, c: np.ndarray, h: np.ndarray):
        """(outputs, c, h) of the recurrence over ``values``: an invalid
        step's values never reach the state or a valid output, and a row's
        output at an invalid step is its held ``h``."""
        self._expect_channels(values.shape[2:], (self.in_features,))
        batch, time = values.shape[:2]
        u = self.units
        outputs = np.empty((time, batch, u), np.float32)
        if time:  # an empty block evaluates no special function
            expit, h_kernel = tensor.special.expit, self._h_kernel
            # contiguous gates and the new cell state; c is a working copy
            work = np.empty((5, batch, u), np.float32)
            i, f, o, g, c_new = work
            c, sigmoid_gates = c.copy(), work[:3].transpose(1, 0, 2)
            if np.count_nonzero(mask) == mask.size:
                held = [None] * time
            else:
                # per step, the [B, 1] rows whose state holds, or None
                invalid = ~mask.T[:, :, None]
                any_held = invalid.any(axis=(1, 2)).tolist()
                held = [rows if hold else None for rows, hold in zip(invalid, any_held)]
            chunk = max(1, _CHUNK_VALUES // (max(batch, 1) * 4 * u))
            for start in range(0, time, chunk):
                span = slice(start, start + chunk)
                # the input half of the chunk's steps at once, time-major
                xz = tensor.matmul_rows(values[:, span].swapaxes(0, 1), self._x_kernel, 4 * u)
                xz += self._bias
                steps = zip(xz, xz.reshape(len(xz), batch, 4, u), outputs[span], held[span])
                for z, gates, h_new, rows in steps:
                    z += np.dot(h, h_kernel)
                    expit(gates[:, :3], out=sigmoid_gates)
                    np.tanh(gates[:, 3], out=g)
                    g *= i
                    np.multiply(f, c, out=c_new)
                    c_new += g
                    np.tanh(c_new, out=g)
                    np.multiply(o, g, out=h_new)
                    if rows is not None:
                        np.copyto(c_new, c, where=rows)
                        np.copyto(h_new, h, where=rows)
                    c, c_new, h = c_new, c, h_new
            h = h.copy()  # a copy that does not pin the outputs
        return outputs.swapaxes(0, 1), c, h

    def _step_arrays(self, values, mask, state, training, constants):
        outputs, c, h = self._scan(values, mask, state["c"], state["h"])
        return outputs, mask, {"c": tensor.freeze(c), "h": tensor.freeze(h)}
