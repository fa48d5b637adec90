"""Drivers for step-wise execution, including the flush/trim latency protocol."""

from __future__ import annotations

import numpy as np

from .errors import BlockSizeError, NotSteppableError
from .layer import SequenceLayer
from .sequence import Sequence


def _resolve_block(layer: SequenceLayer, block: int | None) -> int:
    if block is None:
        return layer.block_size
    if block <= 0 or block % layer.block_size:
        raise BlockSizeError(
            f"block {block} is not a positive multiple of {layer.name}'s "
            f"block_size {layer.block_size}"
        )
    return block


def concat_emits(emits_list):
    """Concatenates per-block emits over time, preserving tree structure."""
    if not emits_list:
        return ()
    head = emits_list[0]
    if isinstance(head, Sequence):
        return Sequence.concatenate_sequences(emits_list)
    if isinstance(head, np.ndarray):
        return np.concatenate(emits_list, axis=1)
    if isinstance(head, tuple):
        return tuple(concat_emits([e[i] for e in emits_list]) for i in range(len(head)))
    if isinstance(head, dict):
        return {k: concat_emits([e[k] for e in emits_list]) for k in head}
    return head


def stream_blocks(
    layer: SequenceLayer,
    x: Sequence,
    *,
    training: bool,
    block: int | None = None,
    constants=None,
):
    """Steps x block by block with step_with_emits, padding x to a block multiple.

    Returns (output, final_state, emits joined over time); no latency handling is applied.
    """
    if not layer.supports_step:
        raise NotSteppableError(f"{layer.name} cannot be stepped")
    block = _resolve_block(layer, block)
    remainder = x.time % block
    if remainder:
        x = x.pad_time(0, block - remainder, valid=False)
    state = layer.get_initial_state(
        x.batch_size, x.channel_spec, training=training, constants=constants
    )
    outputs = []
    emits_list = []
    for start in range(0, x.time, block):
        y, state, emits = layer.step_with_emits(
            x.slice_time(start, start + block), state, training=training, constants=constants
        )
        outputs.append(y)
        emits_list.append(emits)
    if outputs:
        out = Sequence.concatenate_sequences(outputs)
    else:
        out = x[:, 0:0]
    return out, state, concat_emits(emits_list)


def _flushed(layer: SequenceLayer, x: Sequence, *, training, block=None, constants=None):
    """The latency protocol of :func:`step_by_step`, written once.

    Returns (its output, the raw stepped output before the drop and trim, the
    step emits joined over time).
    """
    expected = layer.output_time(x.time)
    padded = x.pad_time(0, layer.input_latency, valid=False)
    raw, _, emits = stream_blocks(
        layer, padded, training=training, block=block, constants=constants
    )
    return raw[:, layer.output_latency :][:, :expected], raw, emits


def step_by_step(
    layer: SequenceLayer,
    x: Sequence,
    *,
    training: bool,
    block: int | None = None,
    constants=None,
):
    """Step-wise execution equivalent to layer(x) for contract-abiding layers.

    Appends input_latency invalid steps to flush buffered lookahead, drops
    the first output_latency (invalid) outputs, and trims the result to the
    layer-wise output extent.
    """
    return _flushed(layer, x, training=training, block=block, constants=constants)[0]
