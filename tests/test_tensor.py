"""Tensor substrate: immutability, SLT1 serialization and the row-stable matmul."""

import io
import itertools

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


#: the bundled specs' widths (streaming_encoder's head is 16 -> 4;
#: transformer_block has 32 and 128 and its fused q/k/v projection 96), and
#: widths that need the pad: N = 1, and from K = 32 N % 16 in 1..8; depths
#: past 256 are contracted in slices
_ROW_CASES = list(
    itertools.product((3, 8, 16, 24, 32, 128, 256, 300, 512, 1000), (1, 4, 5, 8, 20, 32, 96, 128))
)


@pytest.mark.parametrize("k,n", _ROW_CASES, ids=[f"{k}x{n}" for k, n in _ROW_CASES])
def test_matmul_rows_gives_a_row_the_same_bits_at_any_row_count(k, n):
    """The property that lets Dense and the attention projections run on
    BLAS and still step bit for bit: a row's bits do not depend on how many
    rows the call has. It is a property of the BLAS build, so it is pinned
    here for this host's OpenBLAS.
    """
    rng = np.random.default_rng([k, n])
    x = rng.standard_normal((4096, k), dtype=np.float32)
    w = tensor.rows_weight(rng.standard_normal((k, n), dtype=np.float32))
    ref = tensor.matmul_rows(x, w, n)
    assert ref.dtype == np.float32 and ref.shape == (4096, n) and ref.flags.c_contiguous
    for m in (1, 2, 3, 7, 8, 33, 1000):
        assert tensor.matmul_rows(x[:m], w, n).tobytes() == ref[:m].tobytes(), m
    # leading axes flatten into rows: [B, T, K] is the [B * T, K] call
    assert tensor.matmul_rows(x[:24].reshape(3, 8, k), w, n).tobytes() == ref[:24].tobytes()


@pytest.mark.parametrize("dtype", [np.int32, np.bool_])
def test_matmul_rows_contracts_int_and_bool_in_float32(dtype):
    x = (np.arange(12).reshape(2, 2, 3) % 3).astype(dtype)
    w = np.arange(6, dtype=np.float32).reshape(3, 2) / 4
    y = tensor.matmul_rows(x, tensor.rows_weight(w), 2)
    assert y.dtype == np.float32
    assert y.tobytes() == (x.astype(np.float32).reshape(4, 3) @ w).reshape(2, 2, 2).tobytes()


def test_matmul_rows_of_an_empty_block_is_empty():
    w = np.ones((5, 3), np.float32)
    y = tensor.matmul_rows(np.zeros((2, 0, 5), np.float32), tensor.rows_weight(w), 3)
    assert y.shape == (2, 0, 3) and y.dtype == np.float32


def test_matmul_rows_over_no_taps_is_zero():
    w = tensor.rows_weight(np.zeros((0, 3), np.float32))
    y = tensor.matmul_rows(np.zeros((2, 4, 0), np.float32), w, 3)
    assert y.shape == (2, 4, 3) and not y.any()
