"""Parameter initialization, collection, and the named-tensor archive format.

Archives are a flat concatenation of records: name length (u16 LE), the
UTF-8 name, then the tensor in SLT1 format. Names follow the layer tree:
``<layer path>/<param name>`` with path components joined by ``/``.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Mapping

import numpy as np

from . import tensor
from .errors import FormatError


def uniform_init(rng: np.random.Generator, shape) -> np.ndarray:
    """Default initializer; deliberately avoids zeros for bias-like shapes."""
    return tensor.freeze(rng.uniform(-0.5, 0.5, size=shape).astype(np.float32))


def materialize(
    spec: "dict[str, tuple[int, ...]]",
    params: Mapping[str, np.ndarray] | None,
    rng: np.random.Generator | None,
    owner: str,
) -> dict[str, np.ndarray]:
    """Validates provided params against spec, or initializes from rng."""
    if params is not None:
        extra = set(params) - set(spec)
        missing = set(spec) - set(params)
        if extra or missing:
            raise ValueError(
                f"{owner}: parameter names mismatch (missing={sorted(missing)}, "
                f"unexpected={sorted(extra)})"
            )
        out = {}
        for name, shape in spec.items():
            arr = tensor.tensor(params[name], np.float32)
            if arr.shape != tuple(shape):
                raise ValueError(
                    f"{owner}: parameter {name} has shape {arr.shape}, expected {tuple(shape)}"
                )
            out[name] = arr
        return out
    if rng is None:
        rng = np.random.default_rng(0)
    return {name: uniform_init(rng, shape) for name, shape in spec.items()}


def collect_parameters(layer, prefix: str | None = None) -> dict[str, np.ndarray]:
    """Flattens a layer tree's parameters into `{path/name: tensor}`."""
    prefix = layer.name if prefix is None else prefix
    out = {f"{prefix}/{k}": v for k, v in layer.parameters.items()}
    for child in layer.children:
        out.update(collect_parameters(child, f"{prefix}/{child.name}"))
    return out


def write_archive(fp: BinaryIO, named: Mapping[str, np.ndarray]) -> None:
    for name, arr in named.items():
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"parameter name too long: {name[:40]}...")
        fp.write(struct.pack("<H", len(encoded)))
        fp.write(encoded)
        tensor.write_tensor(fp, arr)


def read_archive(fp: BinaryIO) -> dict[str, np.ndarray]:
    out = {}
    while True:
        header = fp.read(2)
        if not header:
            return out
        if len(header) != 2:
            raise FormatError("truncated archive record header")
        (n,) = struct.unpack("<H", header)
        raw = fp.read(n)
        if len(raw) != n:
            raise FormatError(f"truncated archive record name: expected {n} bytes, got {len(raw)}")
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"archive record name is not UTF-8: {raw[:40]!r}") from exc
        if name in out:
            raise FormatError(f"duplicate archive record {name!r}")
        out[name] = tensor.read_tensor(fp)


def load_archive(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fp:
        return read_archive(fp)
