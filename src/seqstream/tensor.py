"""Dense n-dimensional arrays with the numeric behaviors the library relies on.

Tensors are plain numpy arrays restricted to three dtypes (float32, int32,
bool), made read-only at creation so they behave as immutable values.

:func:`tensor` is the validating edge: it canonicalizes the dtype and copies
any input that is, or is a view of, a writeable array, so a caller's array is
never frozen or aliased. Arrays the library allocates itself skip it: a kernel
canonicalizes its fresh result with :func:`canonical`, and they are frozen in
place with :func:`freeze` (directly, or through ``Sequence._wrap``).

``tensor.special`` is ``scipy.special``, imported when first looked up (see
:func:`__getattr__`).

Contractions. A step must give the very bits of ``layer()``, so a kernel's
contraction may not round a row differently when the call has more or fewer
rows. Kernels contract in one of three ways:

* :func:`matmul_rows`, a float32 BLAS matmul over the flattened leading
  axes, for a contraction whose rows are positions: ``Dense``, the
  attention projections, ``Conv1D`` (a row is one output's window of k * C
  taps), ``Conv1DTranspose`` (a row is one input step, against a
  ``[C, k * filters]`` weight) and the LSTM's input half (a row is one
  input step, against the kernel's input rows, once per call). On
  OpenBLAS 0.3.31 a row's bits depend on the row count in three cases,
  and it rules out each. A one-row or a one-column call takes the gemv
  path, whose rounding depends on the row count, so a lone row gets a
  second row and a lone column a second, zero column. From K = 32, an
  output width N with ``N % 16`` in 1..8 rounds one way in a call of
  fewer than about 1e6 multiply-adds (M * N * K), where OpenBLAS runs its
  small-matrix kernel, and another way in a larger one, so N is padded to
  a multiple of 16; below K = 32 no width was seen to round apart, up to
  65,536 rows. A layer pads its weight once, with :func:`rows_weight`.
  Past K = 448 the larger calls split K and the small ones do not, which
  rounds a ``Dense(512, 32)`` step up to 6e-6 apart from ``layer()``, so
  K is contracted in slices of at most 256, summed in order.
  ``tests/test_tensor.py`` pins the result on this host.
* a plain ``np.dot`` for the LSTM's recurrent half, ``h`` against the
  kernel's recurrent rows at each step, whose rows are the batch, the same
  in both modes;
* attention's batched matmuls, whose rows are queries, under the same
  rule (see :mod:`seqstream.attention`): a lone query row is duplicated,
  the logits contract K = U against whole chunks of 64 keys, and each
  chunk's weights contract K = 64 against values whose width is a
  multiple of 16. The softmax sums come from that matmul too (the values
  carry a column of ones), and the chunks' results are added one by one in
  stream order, never by ``np.add.reduce``, which groups a long axis
  pairwise by its length.

Binary serialization uses the ``SLT1`` format: magic ``b"SLT1"``, a dtype
code byte (0=float32, 1=int32, 2=bool), a rank byte, little-endian u64
extents, then the raw row-major payload (bool stored as u8 0/1).
"""

from __future__ import annotations

import math
import struct
import sys
from typing import BinaryIO

import numpy as np

from .errors import FormatError


def __getattr__(name):
    """``tensor.special``: ``scipy.special``, imported on first lookup and
    then bound here, so a kernel pays one attribute lookup for it.

    Its package init copies numpy's namespace (importing ``numpy.f2py``,
    ``numpy.testing`` and ``numpy.ma``): about 0.2 s of a 0.35 s
    ``import seqstream`` with numpy 2.4 and scipy 1.17 on a 2-CPU host.
    Building, describing or streaming a pipeline that evaluates no special
    function never loads it.
    """
    if name != "special":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import special

    globals()["special"] = special
    return special


#: the deepest contraction :func:`matmul_rows` hands BLAS in one call
_DEPTH = 256

#: ``rows.take(_TWICE, axis=0)`` is a lone row duplicated: faster than a join
_TWICE = np.zeros(2, np.intp)


def rows_weight(w: np.ndarray) -> np.ndarray:
    """``w [K, N]`` as :func:`matmul_rows` contracts it: a read-only float32
    copy with zero columns appended (see the module docstring), up to a
    multiple of 16 from K = 32, and below K = 32 one column when N is 1. A
    layer builds it once, so a step pays for no pad."""
    k, n = w.shape
    pad = -n % 16 if k >= 32 else int(n == 1)
    rows = np.zeros((k, n + pad), FLOAT32)
    rows[:, :n] = w
    return freeze(rows)


def matmul_rows(x: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """``x [..., K] @ w[:, :n]`` in float32, as a BLAS matmul over the
    flattened leading axes of ``x`` (int32 and bool ``x`` contract in
    float32 too), so that a row's bits do not depend on how many rows the
    call has (see the module docstring):

    * ``w`` is :func:`rows_weight` of a ``[K, n]`` weight, whose zero
      columns keep BLAS off its one-column and small-matrix paths and are
      cut from the result;
    * a one-row ``x`` is duplicated to two rows and the first row kept;
    * K is contracted in slices of at most ``_DEPTH``, one matmul each,
      their products summed in order.
    """
    lead = x.shape[:-1]
    m = math.prod(lead)
    rows = x.reshape(m, len(w))
    if rows.dtype != FLOAT32:
        rows = rows.astype(FLOAT32)
    if m == 1:
        rows = rows.take(_TWICE, axis=0)
    # np.dot runs the same BLAS call as ``@`` with less dispatch
    if len(w) <= _DEPTH:
        y = np.dot(rows, w)
    else:
        y = np.dot(rows[:, :_DEPTH], w[:_DEPTH])
        for start in range(_DEPTH, len(w), _DEPTH):
            y += np.dot(rows[:, start : start + _DEPTH], w[start : start + _DEPTH])
    if w.shape[1] != n:
        y = np.ascontiguousarray(y[:m, :n])
    elif m == 1:
        y = y[:1]
    return y.reshape(lead + (n,))


FLOAT32 = np.dtype(np.float32)
INT32 = np.dtype(np.int32)
BOOL = np.dtype(np.bool_)

#: Supported dtypes.
DTYPES = (BOOL, INT32, FLOAT32)

#: each supported dtype's name in a channel spec string such as ``f32[8]``
DTYPE_NAMES = {FLOAT32: "f32", INT32: "i32", BOOL: "bool"}

_DTYPE_CODES = {FLOAT32: 0, INT32: 1, BOOL: 2}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}

_MAGIC = b"SLT1"


def canonical_dtype(dtype) -> np.dtype:
    """Maps a dtype-like onto one of the three supported dtypes."""
    dt = np.dtype(dtype)
    if dt in DTYPES:
        return dt
    if dt.kind == "f":
        return FLOAT32
    if dt.kind in ("i", "u"):
        return INT32
    if dt.kind == "b":
        return BOOL
    raise TypeError(f"unsupported dtype {dt}; expected one of {[str(d) for d in DTYPES]}")


def canonical(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself when its dtype is supported, else a copy cast to its
    canonical dtype: for an array the library just computed, which needs no
    validating copy."""
    if arr.dtype in DTYPES:
        return arr
    return arr.astype(canonical_dtype(arr.dtype))


def freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def tensor(data, dtype=None) -> np.ndarray:
    """Creates an immutable tensor from array-like data.

    Copies unless ``data`` is already an immutable array of the target dtype:
    read-only, and a view of read-only arrays only.
    """
    if dtype is not None:
        dtype = canonical_dtype(dtype)
    base = data
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base  # a read-only view of a writeable array still aliases it
    if base is None and isinstance(data, np.ndarray):
        if dtype is None and data.dtype in DTYPES:
            return data
        if data.dtype == dtype:
            return data
    arr = np.array(data, dtype=dtype)
    if arr.dtype not in DTYPES:
        arr = arr.astype(canonical_dtype(arr.dtype))
    return freeze(arr)


# --- SLT1 serialization ---------------------------------------------------


def write_tensor(fp: BinaryIO, x: np.ndarray) -> None:
    x = np.asarray(x)
    if x.dtype not in _DTYPE_CODES:
        raise TypeError(f"cannot serialize dtype {x.dtype}")
    if x.ndim > 255:
        raise ValueError("rank too large for SLT1")
    fp.write(_MAGIC)
    fp.write(struct.pack("<BB", _DTYPE_CODES[x.dtype], x.ndim))
    for extent in x.shape:
        fp.write(struct.pack("<Q", extent))
    payload = np.ascontiguousarray(x)
    if x.dtype == BOOL:
        payload = payload.astype(np.uint8)
    fp.write(payload.tobytes())


#: largest read issued at once; a header claiming more than the stream holds
#: then fails at the end of the stream instead of allocating what it claims
_READ_CHUNK = 1 << 24


def _read_exact(fp: BinaryIO, nbytes: int, what: str) -> bytes:
    chunks = []
    remaining = nbytes
    while remaining:
        chunk = fp.read(min(remaining, _READ_CHUNK))
        if not chunk:
            raise FormatError(
                f"truncated SLT1 {what}: expected {nbytes} bytes, got {nbytes - remaining}"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_tensor(fp: BinaryIO) -> np.ndarray:
    magic = fp.read(4)
    if magic != _MAGIC:
        raise FormatError(f"bad SLT1 magic {magic!r}")
    code, rank = _read_exact(fp, 2, "header")
    if code not in _CODE_DTYPES:
        raise FormatError(f"bad SLT1 dtype code {code}")
    dtype = _CODE_DTYPES[code]
    shape = struct.unpack(f"<{rank}Q", _read_exact(fp, 8 * rank, "extents"))
    raw_dtype = np.dtype(np.uint8 if dtype == BOOL else dtype)
    nbytes = math.prod(shape) * raw_dtype.itemsize
    if nbytes > sys.maxsize:
        raise FormatError(f"SLT1 shape {shape} declares {nbytes} bytes, more than can be held")
    buf = _read_exact(fp, nbytes, "payload")
    try:
        arr = np.frombuffer(buf, dtype=raw_dtype).reshape(shape)
    except ValueError as exc:
        raise FormatError(f"bad SLT1 shape {shape}: {exc}") from exc
    if dtype == BOOL:
        arr = arr.astype(np.bool_)
    return freeze(np.array(arr))
