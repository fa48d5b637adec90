"""Dense n-dimensional arrays with the numeric behaviors the library relies on.

Tensors are plain numpy arrays restricted to three dtypes (float32, int32,
bool), made read-only at creation so they behave as immutable values.

:func:`tensor` is the validating edge: it canonicalizes the dtype and copies
any input that is, or is a view of, a writeable array, so a caller's array is
never frozen or aliased. Arrays the library allocates itself skip it and are
frozen in place with :func:`freeze` (directly, or through ``Sequence._wrap``).

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

FLOAT32 = np.dtype(np.float32)
INT32 = np.dtype(np.int32)
BOOL = np.dtype(np.bool_)

#: Supported dtypes.
DTYPES = (BOOL, INT32, FLOAT32)

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


def freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
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
