from pathlib import Path

import numpy as np
import pytest

from seqstream import pipeline
from seqstream.sequence import Sequence

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def build_spec(name):
    """(layer, input spec) of a bundled spec, built with seed 0."""
    node, spec = pipeline.load_spec_file(SPEC_DIR / f"{name}.yaml")
    return pipeline.build(node, spec, seed=0), spec


def random_sequence(seed, batch, time, channels, lengths=None):
    rng = np.random.default_rng(seed)
    shape = (batch, time) + (channels if isinstance(channels, tuple) else (channels,))
    values = rng.uniform(-0.5, 0.5, shape).astype(np.float32)
    if lengths is None:
        lengths = [time] + [max(1, time - 1 - i * (time // 3)) for i in range(batch - 1)]
    return Sequence.from_lengths(values, lengths)


def assert_sequences_close(a: Sequence, b: Sequence, atol=1e-6):
    assert a.shape == b.shape, (a.shape, b.shape)
    np.testing.assert_array_equal(np.asarray(a.mask), np.asarray(b.mask))
    np.testing.assert_allclose(
        np.asarray(a.mask_invalid().values),
        np.asarray(b.mask_invalid().values),
        atol=atol,
        rtol=0,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)
