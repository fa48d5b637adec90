"""Ragged inputs long enough for zero_invalid's row-by-row path.

The contract battery's inputs run a few dozen steps, so every zeroing there
takes ``np.where``. Here each bundled spec runs at a length where every leaf
that zeroes its input sees at least 8192 elements a row: ``mixed_resample``'s
transposed conv reads one channel at half the input rate, so it needs 16384
steps. ``transformer_block`` runs 512 steps (32 channels), since its
attention ``layer()`` makes a [batch, heads, T, T] logits buffer.
"""

import numpy as np
import pytest

from seqstream.layer import poison_invalid
from seqstream.sequence import Sequence
from seqstream.streaming import step_by_step

from conftest import build_spec

TIMES = {"conv_stack": 4096, "streaming_encoder": 4096, "transformer_block": 512, "mixed_resample": 16384}
CONV_SPECS = ("conv_stack", "streaming_encoder", "mixed_resample")
BATCH = 8


def ragged_input(spec, time, kind):
    rng = np.random.default_rng([time, len(kind)])
    values = rng.standard_normal((BATCH, time) + spec.shape).astype(np.float32)
    if kind == "end_padded":
        lengths = [time, 0] + rng.integers(time // 2, time, BATCH - 2).tolist()
        return Sequence.from_lengths(values, lengths)
    mask = rng.random((BATCH, time)) < 0.9  # holes
    mask[:, 0] = False
    return Sequence(values, mask)


def assert_same_bits(a: Sequence, b: Sequence):
    assert a.mask.tobytes() == b.mask.tobytes()
    a, b = a.mask_invalid(), b.mask_invalid()
    assert (a.shape, a.dtype) == (b.shape, b.dtype)
    assert a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize("kind", ["end_padded", "holes"])
@pytest.mark.parametrize("name", list(TIMES))
def test_poisoned_padding_gives_the_same_bits(name, kind):
    layer, spec = build_spec(name)
    x = ragged_input(spec, TIMES[name], kind)
    assert_same_bits(layer.layer(poison_invalid(x), training=False), layer.layer(x, training=False))


@pytest.mark.parametrize("kind", ["end_padded", "holes"])
@pytest.mark.parametrize("name", CONV_SPECS)
def test_stepping_at_8x_blocks_gives_the_layer_bits(name, kind):
    layer, spec = build_spec(name)
    x = ragged_input(spec, TIMES[name], kind)
    stepped = step_by_step(layer, x, training=False, block=8 * layer.block_size)
    assert_same_bits(stepped, layer.layer(x, training=False))
