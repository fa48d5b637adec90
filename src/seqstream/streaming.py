"""Drivers for step-wise execution, including the flush/trim latency protocol."""

from __future__ import annotations

import numpy as np

from .errors import BlockSizeError, NotSteppableError
from .layer import SequenceLayer, flush_extent
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
    """Joins per-block emits, each a ``{layer path: Sequence}`` map, over time."""
    paths = emits_list[0] if emits_list else ()
    return {path: Sequence.concatenate_sequences([e[path] for e in emits_list]) for path in paths}


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
    The blocks' outputs are joined without re-checking their specs: they all
    come from one layer, and an empty stream gets the layer's output spec.
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
        stop = start + block
        part = Sequence._wrap(x.values[:, start:stop], x.mask[:, start:stop])
        y, state, emits = layer.step_with_emits(part, state, training=training, constants=constants)
        outputs.append(y)
        emits_list.append(emits)
    if len(outputs) == 1:
        out = outputs[0]
    elif outputs:
        out = Sequence._wrap(
            np.concatenate([y.values for y in outputs], axis=1),
            np.concatenate([y.mask for y in outputs], axis=1),
        )
    else:
        spec = layer.get_output_spec(x.channel_spec, constants)
        out = Sequence._wrap(
            np.zeros((x.batch_size, 0) + spec.shape, spec.dtype), np.zeros((x.batch_size, 0), bool)
        )
    return out, state, concat_emits(emits_list)


def _flushed(layer: SequenceLayer, x: Sequence, *, training, block=None, constants=None):
    """The latency protocol of :func:`step_by_step`, written once.

    Returns (its output, the raw stepped output before the drop and trim, the
    step emits joined over time).
    """
    pad, drop, keep = flush_extent(layer, x.time)
    raw, _, emits = stream_blocks(
        layer, x.pad_time(0, pad, valid=False), training=training, block=block, constants=constants
    )
    return raw[:, drop : drop + keep], raw, emits


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
