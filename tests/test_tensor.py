"""Tensor substrate: shape functions, op semantics against loop oracles, SLT1."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqstream import tensor
from seqstream.errors import ShapeMismatchError


def test_promotion_order():
    assert tensor.promote(np.bool_, np.int32) == tensor.INT32
    assert tensor.promote(np.int32, np.float32) == tensor.FLOAT32
    assert tensor.promote(np.bool_, np.float32) == tensor.FLOAT32
    assert tensor.promote(np.bool_, np.bool_) == tensor.BOOL


@given(
    a=st.sampled_from([np.bool_, np.int32, np.float32]),
    b=st.sampled_from([np.bool_, np.int32, np.float32]),
    c=st.sampled_from([np.bool_, np.int32, np.float32]),
)
def test_promotion_commutative_associative(a, b, c):
    assert tensor.promote(a, b) == tensor.promote(b, a)
    assert tensor.promote(tensor.promote(a, b), c) == tensor.promote(a, tensor.promote(b, c))


def test_tensors_are_immutable():
    t = tensor.tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t[0] = 3.0
    view = t.reshape(2, 1)
    with pytest.raises(ValueError):
        view[0, 0] = 3.0


def test_add_componentwise():
    np.testing.assert_array_equal(tensor.add([1, 2], [3, 4]), [4, 6])


def test_mul_ones_identity():
    x = tensor.tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
    np.testing.assert_array_equal(tensor.multiply(x, np.ones_like(x)), x)


def test_broadcast_add_matches_loop_oracle():
    a = np.array([[1], [2]], dtype=np.int32)
    b = np.array([10, 20], dtype=np.int32)
    got = tensor.add(a, b)
    expect = np.empty((2, 2), dtype=np.int32)
    for i in range(2):
        for j in range(2):
            expect[i, j] = a[i, 0] + b[j]
    np.testing.assert_array_equal(got, expect)
    np.testing.assert_array_equal(got, [[11, 21], [12, 22]])


def test_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(4,\)"):
        tensor.add(np.zeros((2, 3)), np.zeros(4))


@given(
    ra=st.integers(0, 3),
    rb=st.integers(0, 3),
    data=st.data(),
)
def test_broadcast_shape_matches_numpy(ra, rb, data):
    dims = st.integers(1, 4)
    a = tuple(data.draw(dims) for _ in range(ra))
    b = tuple(data.draw(dims) for _ in range(rb))
    # inject broadcastable 1s
    a = tuple(1 if data.draw(st.booleans()) else d for d in a)
    try:
        expect = np.broadcast_shapes(a, b)
    except ValueError:
        with pytest.raises(ShapeMismatchError):
            tensor.broadcast_shapes(a, b)
        return
    assert tensor.broadcast_shapes(a, b) == tuple(expect)


def test_matmul_identity():
    x = np.random.default_rng(0).uniform(-1, 1, (3, 4)).astype(np.float32)
    np.testing.assert_array_equal(tensor.matmul(np.eye(3, dtype=np.float32), x), x)


def test_matmul_hand_dot():
    got = tensor.matmul(
        np.array([[1.0, 2.0]], dtype=np.float32), np.array([[3.0], [4.0]], dtype=np.float32)
    )
    np.testing.assert_array_equal(got, [[11.0]])


def _matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += float(a[i, p]) * float(b[p, j])
            out[i, j] = acc
    return out


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(1)
    a = rng.uniform(-1, 1, (4, 5)).astype(np.float32)
    b = rng.uniform(-1, 1, (5, 3)).astype(np.float32)
    np.testing.assert_allclose(tensor.matmul(a, b), _matmul_oracle(a, b), atol=1e-6)


def test_matmul_inner_mismatch():
    with pytest.raises(ShapeMismatchError, match="inner"):
        tensor.matmul(np.zeros((2, 3), np.float32), np.zeros((4, 2), np.float32))


@settings(max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_matmul_associative_on_small_triples(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (2, 3)).astype(np.float32)
    b = rng.uniform(-1, 1, (3, 4)).astype(np.float32)
    c = rng.uniform(-1, 1, (4, 2)).astype(np.float32)
    left = tensor.matmul(tensor.matmul(a, b), c)
    right = tensor.matmul(a, tensor.matmul(b, c))
    np.testing.assert_allclose(left, right, atol=1e-5)


def test_pad_time_axis():
    x = np.ones((1, 3), np.float32)
    out = tensor.pad(x, [(0, 0), (0, 2)], fill=0)
    assert out.shape == (1, 5)
    np.testing.assert_array_equal(out[0, 3:], [0, 0])


def test_concat_matches_copy_oracle():
    rng = np.random.default_rng(3)
    a = rng.uniform(size=(2, 3)).astype(np.float32)
    b = rng.uniform(size=(2, 5)).astype(np.float32)
    got = tensor.concat([a, b], axis=1)
    expect = np.zeros((2, 8), np.float32)
    for i in range(2):
        for j in range(3):
            expect[i, j] = a[i, j]
        for j in range(5):
            expect[i, 3 + j] = b[i, j]
    np.testing.assert_array_equal(got, expect)


def test_concat_extent_mismatch():
    with pytest.raises(ShapeMismatchError, match="incompatible"):
        tensor.concat([np.zeros((2, 3)), np.zeros((3, 3))], axis=1)


def test_slice_out_of_range():
    with pytest.raises(ShapeMismatchError, match="out of range"):
        tensor.slice_axis(np.zeros((2, 3)), 1, 0, 9)


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
