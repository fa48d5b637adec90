"""Stepping gives the very bits of layer(), at every block multiple.

The contract allows |step - layer| up to 1e-6, but these layers and specs
meet it exactly, and a faster step path must keep it that way. A
contraction whose rows are positions (Dense, the attention projections,
the window rows of Conv1D and Conv1DTranspose) goes through
``tensor.matmul_rows``, which never lets BLAS take its one-row (gemv)
path: that path rounds a row apart from the many-row one, so a bare
matmul on a one-row block changes bits without failing any tolerance.
The row count also decides how BLAS rounds a narrow output past about 1e6
multiply-adds, and a deep one past 448 taps, which ``matmul_rows`` rules
out with its padded weight and its slices of K. So
the cases run at batch 1 (a one-step block is one row), 3 and 8, at
several block multiples, with one filter as well as several, and with
convs deep and long enough to reach those two hazards. Attention's softmax
sums run chunk by chunk in stream order (see ``seqstream.attention``); its
cases run at unit scale and up to 4096 steps, where any other order shows.
"""

import numpy as np
import pytest

import seqstream as sl
from seqstream import tensor
from seqstream.sequence import Sequence
from seqstream.streaming import step_by_step

from conftest import build_spec, random_sequence

MULTS = (1, 2, 3, 8)


def layers():
    rng = np.random.default_rng(5)
    return {
        "conv1d": (sl.Conv1D(3, 4, 3, stride=2, padding="same", rng=rng), (3,)),
        "conv1d_transpose": (sl.Conv1DTranspose(3, 4, 5, stride=2, padding="same", rng=rng), (3,)),
        # wide enough that a matmul's rows would depend on the batch of rows
        "dense": (sl.Dense(128, 32, rng=rng), (128,)),
        "layer_norm": (sl.LayerNormalization((2, 3), rng=rng), (2, 3)),
        "rms_norm": (sl.RMSNormalization(3, rng=rng), (3,)),
        "lstm": (sl.LSTM(3, 4, rng=rng), (3,)),
        # drawn last, so the leaves above keep their weights; the first is
        # mixed_resample's first leaf
        "conv1d_one_filter": (sl.Conv1D(3, 1, 5, stride=2, padding="same", rng=rng), (3,)),
        "conv1d_dilated": (sl.Conv1D(3, 5, 3, dilation=2, padding="causal", rng=rng), (3,)),
        # k * C = 512 taps: contracted in slices of 256
        "conv1d_deep": (sl.Conv1D(64, 8, 8, stride=2, rng=rng), (64,)),
        # k * C = 48 taps and 5 filters, run over TIMES steps: layer()'s call
        # passes 1e6 multiply-adds at batch 8, where the unpadded width would
        # leave BLAS's small-matrix kernel
        "conv1d_narrow": (sl.Conv1D(16, 5, 3, rng=rng), (16,)),
        # the other leaves whose state is a history of their input
        "max_pooling": (sl.MaxPooling1D(3, stride=2, padding="same"), (3,)),
        "average_pooling": (sl.AveragePooling1D(4, stride=2, padding="reverse_causal"), (3,)),
        "frame": (sl.Frame(5, 2), (3,)),
        "delay": (sl.Delay(3), (3,)),
        "step_delay": (sl.StepDelay(2), (3,)),
        # a transposed conv's window of ceil(k / s) inputs: k % s != 0, whose
        # oldest member meets zero weight rows, and K = 4 * 160 = 640 taps,
        # contracted in slices, with stride * filters = 6 columns padded to 16
        "conv1d_transpose_odd": (
            sl.Conv1DTranspose(3, 2, 6, stride=4, padding="same", rng=rng),
            (3,),
        ),
        "conv1d_transpose_deep": (sl.Conv1DTranspose(160, 3, 8, stride=2, rng=rng), (160,)),
        "overlap_add": (sl.OverlapAdd(5, 2), (5, 3)),
    }


#: input steps of the leaves that need more than padded_input's 48
TIMES = {"conv1d_narrow": 544}


BATCHES = (1, 3, 8)


def padded_input(channels, time=48, batch=3):
    lengths = [time, time - 7, time // 3, time - 1, 1, time // 2, time - 5, 2]
    return random_sequence(0, batch, time, channels, lengths=lengths[:batch])


def assert_bit_exact(y, ref):
    assert y.shape == ref.shape
    assert np.array_equal(y.mask, ref.mask)
    assert y.mask_invalid().values.tobytes() == ref.mask_invalid().values.tobytes()


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("mult", MULTS)
@pytest.mark.parametrize("name", sorted(layers()))
def test_leaf_steps_are_bit_exact(name, mult, batch):
    layer, channels = layers()[name]
    x = padded_input(channels, time=TIMES.get(name, 48), batch=batch)
    ref = layer.layer(x, training=False)
    assert_bit_exact(step_by_step(layer, x, training=False, block=mult * layer.block_size), ref)


#: the leaves layer() runs on one buffer of history, input and flush steps
HISTORY_LEAVES = [
    "conv1d",
    "max_pooling",
    "average_pooling",
    "frame",
    "delay",
    "step_delay",
    "conv1d_transpose",
    "conv1d_transpose_odd",
    "overlap_add",
]


def history_input(kind, channels, batch):
    """``all_valid`` steps; ``holes``, invalid steps inside rows; ``long``
    ragged rows of 8192 elements or more, which layer() zeroes row by row;
    ``flush``, ragged rows whose 47 steps a stride-2 leaf pads."""
    rng = np.random.default_rng([len(kind), batch])
    time = {"all_valid": 48, "holes": 48, "long": 2736, "flush": 47}[kind]
    values = rng.uniform(-0.5, 0.5, (batch, time) + channels).astype(np.float32)
    if kind == "all_valid":
        return Sequence.from_values(values)
    if kind == "holes":
        mask = rng.random((batch, time)) < 0.7
        values[~mask] = np.nan  # the kernel must never read them
        return Sequence(values, mask)
    return Sequence.from_lengths(values, [time] + rng.integers(1, time, batch - 1).tolist())


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("mult", MULTS)
@pytest.mark.parametrize("kind", ["all_valid", "holes", "long", "flush"])
@pytest.mark.parametrize("name", HISTORY_LEAVES)
def test_history_leaf_steps_are_bit_exact(name, kind, mult, batch):
    layer, channels = layers()[name]
    x = history_input(kind, channels, batch)
    ref = layer.layer(x, training=False)
    assert_bit_exact(step_by_step(layer, x, training=False, block=mult * layer.block_size), ref)


def test_an_overridden_initial_state_gives_layer_its_history_too():
    """A history leaf's subclass that starts its history otherwise starts
    it so in layer() as in step()."""

    class PrimedConv(sl.Conv1D):
        def get_initial_state(self, batch_size, input_spec, *, training, constants=None):
            values = np.ones((batch_size, self._history_len) + input_spec.shape, np.float32)
            mask = np.ones((batch_size, self._history_len), bool)
            return tensor.freeze(values), tensor.freeze(mask)

    conv = PrimedConv(3, 5, 3, stride=2, rng=np.random.default_rng(0))
    x = padded_input((3,), time=12, batch=2)
    y = conv.layer(x, training=False)
    assert_bit_exact(step_by_step(conv, x, training=False, block=conv.block_size), y)
    plain = sl.Conv1D(3, 5, 3, stride=2, params=conv._params)
    assert plain.layer(x, training=False).values[0, 0].tobytes() != y.values[0, 0].tobytes()


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("mult", MULTS)
@pytest.mark.parametrize("name", ["conv_stack", "streaming_encoder", "mixed_resample"])
def test_spec_steps_are_bit_exact(name, mult, batch):
    layer, spec = build_spec(name)
    x = padded_input(spec.shape, time=16 * layer.block_size, batch=batch)
    ref = layer.layer(x, training=False)
    assert_bit_exact(step_by_step(layer, x, training=False, block=mult * layer.block_size), ref)


def unit_normal(seed, batch, time, channels):
    """Standard-normal values, drawn as the benchmark's stream inputs are:
    row 0 full, the others end-padded to lengths in [time / 2, time)."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((batch, time, channels), dtype=np.float32)
    lengths = [time] + rng.integers(time // 2, time, size=batch - 1).tolist()
    return Sequence.from_lengths(values, lengths)


#: (past, future, time, block, batch): keys past one chunk of 64 and past
#: the 256 of a BLAS call's depth, caches past a bounded past's period, and
#: the longest streams at 1x and 8x blocks
ATTENTION_GRID = [
    (past, future, time, block, batch)
    for past in (-1, 16, 300)
    for future in (0, 2)
    for time in (384, 1500)
    for block in (1, 3, 8)
    for batch in (1, 3)
] + [
    (past, future, 4096, block, batch)
    for past, future in [(-1, 0), (-1, 2), (300, 2)]
    for block, batch in [(1, 1), (8, 1), (8, 3)]
]


@pytest.mark.parametrize("past,future,time,block,batch", ATTENTION_GRID)
def test_attention_steps_are_bit_exact_at_unit_scale(past, future, time, block, batch):
    layer = sl.DotProductSelfAttention(
        32, 2, 16, past, future, rng=np.random.default_rng([past + 1, future])
    )
    x = unit_normal([time, batch], batch, time, 32)
    ref = layer.layer(x, training=False)
    assert_bit_exact(step_by_step(layer, x, training=False, block=block), ref)


@pytest.mark.parametrize(
    "seed,batch,mult",
    # one full-length stream at block_size, as live_stream steps it, and
    # ragged rows at 8x block_size, as bulk_stream steps them, at twelve
    # draws; then the other block multiples and a ragged batch of 3
    [(seed, 1, 1) for seed in range(12)]
    + [(seed, 4, 8) for seed in range(12)]
    + [(0, 1, 3), (0, 1, 8), (0, 3, 1), (0, 3, 3), (0, 3, 8)],
)
def test_transformer_block_steps_are_bit_exact(seed, batch, mult):
    layer, spec = build_spec("transformer_block")
    x = unit_normal([seed, 2], batch, 1024, spec.shape[0])
    ref = layer.layer(x, training=False)
    assert_bit_exact(step_by_step(layer, x, training=False, block=mult * layer.block_size), ref)
