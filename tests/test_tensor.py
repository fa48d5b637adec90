"""Tensor substrate: immutability and SLT1 serialization."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqstream import tensor


def test_tensors_are_immutable():
    t = tensor.tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t[0] = 3.0
    view = t.reshape(2, 1)
    with pytest.raises(ValueError):
        view[0, 0] = 3.0


@pytest.mark.parametrize(
    "arr",
    [
        np.arange(24, dtype=np.float32).reshape(2, 3, 4) / 7,
        np.arange(6, dtype=np.int32).reshape(3, 2) - 2,
        np.array([[True, False], [False, True]]),
        np.float32(3.5).reshape(()),
    ],
)
def test_slt1_round_trip(arr):
    buf = io.BytesIO()
    tensor.write_tensor(buf, tensor.tensor(arr))
    buf.seek(0)
    back = tensor.read_tensor(buf)
    assert back.dtype == tensor.canonical_dtype(arr.dtype)
    assert back.shape == arr.shape
    np.testing.assert_array_equal(back, arr)


def test_slt1_header_layout():
    buf = io.BytesIO()
    tensor.write_tensor(buf, tensor.tensor(np.zeros((2, 3), np.int32)))
    raw = buf.getvalue()
    assert raw[:4] == b"SLT1"
    assert raw[4] == 1  # int32 code
    assert raw[5] == 2  # rank
    assert int.from_bytes(raw[6:14], "little") == 2
    assert int.from_bytes(raw[14:22], "little") == 3


def test_slt1_rejects_bad_magic():
    with pytest.raises(ValueError, match="magic"):
        tensor.read_tensor(io.BytesIO(b"XXXX" + bytes(20)))


@settings(max_examples=30)
@given(
    shape=st.lists(st.integers(0, 4), min_size=0, max_size=3),
    dtype=st.sampled_from(["float32", "int32", "bool"]),
    seed=st.integers(0, 1000),
)
def test_slt1_round_trip_property(shape, dtype, seed):
    rng = np.random.default_rng(seed)
    if dtype == "bool":
        arr = rng.integers(0, 2, size=shape).astype(np.bool_)
    elif dtype == "int32":
        arr = rng.integers(-100, 100, size=shape).astype(np.int32)
    else:
        arr = rng.normal(size=shape).astype(np.float32)
    buf = io.BytesIO()
    tensor.write_tensor(buf, arr)
    buf.seek(0)
    np.testing.assert_array_equal(tensor.read_tensor(buf), arr)
