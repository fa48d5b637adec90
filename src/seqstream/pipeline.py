"""Declarative pipeline specs: a YAML tree format, a layer registry, and a
builder that materializes layers only when asked.

A spec node is a mapping with a ``type`` resolved in the registry, an
optional ``name``, kind-specific scalar fields inline, and ``children`` for
combinators::

    type: serial
    name: encoder
    children:
      - {type: conv1d, filters: 5, kernel_size: 3, stride: 2, padding: causal}
      - {type: conv1d, filters: 8, kernel_size: 5, stride: 3, padding: causal}

Each registered type has a tuple of ``Field``s, the validation schema for
its inline fields, and a build function. Most leaf types are one row of the
``_LEAVES`` table, built by ``_leaf(cls, *fields, takes=...)``: the
validated fields become ``cls`` keywords, and ``takes`` says what the
node's input spec supplies as the first positional argument, ``"channels"``
(the extent of a rank-1 channel shape), ``"shape"`` (the channel shape), or
nothing. A leaf that takes one is a parameterized layer and also gets
``params`` and ``rng``. Dropout, the one-argument pointwise kinds,
the combinators and the sabotage fixtures have their own build functions.

A spec file may be a bare node, or a document with ``pipeline:`` plus an
optional ``input_spec:`` (e.g. ``f32[8]``). ``load_spec_file`` is the one
place spec text is parsed; it returns the root node as parsed YAML.

``build`` checks and builds the tree in one pre-order walk: each node is
checked (mapping, ``type``, ``name``, ``children``, registry entry, fields,
child count, duplicate child names), then built, which builds its children.
Parameters come from a named-tensor archive if given, else from an RNG
seeded by the build seed and the node's layer path.

A layer path is the node names joined by ``/`` (an unnamed child is
``{type}_{index}``, an unnamed root ``{type}``); it prefixes the node's
``collect_parameters`` keys. Errors name a node by its path, plus ``.field``
for a field (``serial/dense_0.units``). A node without a usable ``type`` or
``name`` is named by its parent's path plus ``children[index]``, or
``pipeline`` at the root.
"""

from __future__ import annotations

import dataclasses
import functools
import zlib
from typing import Any, Callable, Mapping

import numpy as np
import yaml

from . import dense, recurrent, sabotage, temporal
from .attention import DotProductSelfAttention
from .combinators import Bidirectional, Blockwise, Parallel, Repeat, Residual, Serial
from .errors import PipelineError, SpecParseError
from .layer import SequenceLayer, renamed
from .sequence import ChannelSpec
from . import tensor


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """Inputs and switches for one CLI execution.

    ``training`` is mandatory in the file; there is no default on purpose.
    """

    input: str
    training: bool
    output: str | None = None
    params: str | None = None
    seed: int = 0
    constants: Mapping[str, str] = dataclasses.field(default_factory=dict)
    block: int | None = None


# --- registry ----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Field:
    name: str
    kind: str  # int | float | bool | str | number | shape
    required: bool = False
    default: Any = None
    choices: tuple | None = None
    aliases: tuple = ()


@dataclasses.dataclass(frozen=True)
class LayerDef:
    fields: tuple
    build: Callable
    children: int | None = 0  # how many children the type takes; None: any number


def _coerce(field: Field, value, path: str):
    kind = field.kind
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise PipelineError(f"{path}: expected an integer, got {value!r}")
        return value
    if kind in ("float", "number"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise PipelineError(f"{path}: expected a number, got {value!r}")
        return float(value) if kind == "float" else value
    if kind == "bool":
        if not isinstance(value, bool):
            raise PipelineError(f"{path}: expected a boolean, got {value!r}")
        return value
    if kind == "str":
        if not isinstance(value, str):
            raise PipelineError(f"{path}: expected a string, got {value!r}")
        if field.choices and value not in field.choices:
            raise PipelineError(
                f"{path}: expected one of {list(field.choices)}, got {value!r}"
            )
        return value
    if kind == "shape":
        if not isinstance(value, (list, tuple)) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            raise PipelineError(f"{path}: expected a list of integers, got {value!r}")
        return tuple(value)
    raise AssertionError(f"unknown field kind {kind}")


_RESERVED = ("type", "name", "children")


def _validate_params(definition: LayerDef, node: dict, path: str) -> dict:
    """The node's inline fields, checked, coerced and completed with defaults."""
    known = {key: f for f in definition.fields for key in (f.name, *f.aliases)}
    out = {}
    for key, value in node.items():
        if key in _RESERVED:
            continue
        if key not in known:
            raise PipelineError(
                f"{path}.{key}: unknown parameter for layer type {node['type']!r} "
                f"(known: {sorted(f.name for f in definition.fields)})"
            )
        f = known[key]
        if f.name in out:
            raise PipelineError(f"{path}.{key}: duplicate value for {f.name!r}")
        out[f.name] = _coerce(f, value, f"{path}.{key}")
    for f in definition.fields:
        if f.name not in out:
            if f.required:
                raise PipelineError(f"{path}: missing required parameter {f.name!r}")
            out[f.name] = f.default
    return out


@dataclasses.dataclass
class BuildContext:
    path: str
    name: str
    type: str
    input_spec: ChannelSpec
    seed: int
    archive: Mapping[str, np.ndarray] | None
    params: dict
    children: list  # the raw child nodes
    builder: Callable

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence([self.seed & 0xFFFFFFFF, zlib.crc32(self.path.encode())])
        )

    def layer_params(self) -> dict | None:
        """Archive entries for this layer, or None to initialize randomly."""
        if self.archive is None:
            return None
        prefix = f"{self.path}/"
        return {
            key[len(prefix) :]: value
            for key, value in self.archive.items()
            if key.startswith(prefix) and "/" not in key[len(prefix) :]
        }

    def build_child(
        self,
        index: int,
        input_spec: ChannelSpec,
        parent_path: str | None = None,
        name: str | None = None,
    ):
        """Checks and builds child ``index`` under ``parent_path`` (default:
        this node's path), named ``name`` if given."""
        return self.builder(
            self.children[index], index, input_spec, parent_path or self.path, name
        )

    def require_channel_rank(self, rank: int):
        if len(self.input_spec.shape) != rank:
            raise PipelineError(
                f"{self.path}: layer type {self.type!r} requires channel rank "
                f"{rank}, got input spec {self.input_spec}"
            )


_REGISTRY: dict[str, LayerDef] = {}


def register(type_name: str, definition: LayerDef):
    if type_name in _REGISTRY:
        raise ValueError(f"layer type {type_name!r} already registered")
    _REGISTRY[type_name] = definition


def registered_types() -> list[str]:
    return sorted(_REGISTRY)


def _leaf(cls, *fields: Field, takes: str | None = None) -> LayerDef:
    """A leaf type whose validated fields are keywords of ``cls``.

    ``takes`` is ``"channels"``, ``"shape"`` or None: what the input spec
    passes first, followed by the archive ``params`` and the path's ``rng``.
    """

    def build(ctx):
        if takes is None:
            return cls(**ctx.params, name=ctx.name)
        if takes == "channels":
            ctx.require_channel_rank(1)
            first = ctx.input_spec.shape[0]
        else:
            first = ctx.input_spec.shape
        return cls(
            first, **ctx.params, params=ctx.layer_params(), rng=ctx.rng(), name=ctx.name
        )

    return LayerDef(fields=fields, build=build)


_STRIDE = Field("stride", "int", default=1, aliases=("strides",))
_PADDING = Field("padding", "str", default="causal", choices=temporal.PADDING_MODES)
_USE_BIAS = Field("use_bias", "bool", default=True)
_EPSILON = Field("epsilon", "float", default=1e-6)
_FRAMING = (Field("frame_length", "int", required=True), Field("hop", "int", required=True))
_POOLING = (Field("window", "int", required=True), _STRIDE, _PADDING)
_COMBINE = Field("combine", "str", default="stack", choices=("stack", "concat", "add", "mean"))

_LEAVES = {
    "identity": _leaf(dense.Identity),
    "emit": _leaf(dense.Emit),
    "dense": _leaf(
        dense.Dense, Field("units", "int", required=True), _USE_BIAS, takes="channels"
    ),
    "scale": _leaf(dense.Scale, Field("value", "number", required=True)),
    "add": _leaf(dense.Add, Field("value", "number", required=True)),
    "softmax": _leaf(dense.Softmax, Field("axis", "int", default=-1)),
    "layer_norm": _leaf(dense.LayerNormalization, _EPSILON, takes="shape"),
    "rms_norm": _leaf(dense.RMSNormalization, _EPSILON, takes="shape"),
    "reshape": _leaf(dense.Reshape, Field("shape", "shape", required=True)),
    "flatten": _leaf(dense.Flatten),
    "expand_dims": _leaf(dense.ExpandDims, Field("axis", "int", default=0)),
    "squeeze": _leaf(dense.Squeeze, Field("axis", "int", required=True)),
    "move_axis": _leaf(
        dense.MoveAxis,
        Field("source", "int", required=True),
        Field("destination", "int", required=True),
    ),
    "transpose_channels": _leaf(dense.TransposeChannels, Field("perm", "shape", required=True)),
    "conditioning": _leaf(
        dense.Conditioning,
        Field("key", "str", required=True),
        Field("mode", "str", default="add", choices=dense.Conditioning.MODES),
    ),
    "conv1d": _leaf(
        temporal.Conv1D,
        Field("filters", "int", required=True),
        Field("kernel_size", "int", required=True),
        _STRIDE,
        Field("dilation", "int", default=1),
        _PADDING,
        _USE_BIAS,
        takes="channels",
    ),
    "conv1d_transpose": _leaf(
        temporal.Conv1DTranspose,
        Field("filters", "int", required=True),
        Field("kernel_size", "int", required=True),
        _STRIDE,
        Field("padding", "str", default="causal", choices=("causal", "same")),
        _USE_BIAS,
        takes="channels",
    ),
    "self_attention": _leaf(
        DotProductSelfAttention,
        Field("num_heads", "int", required=True),
        Field("units_per_head", "int", required=True),
        Field("max_past_horizon", "int", default=-1),
        Field("max_future_horizon", "int", default=0),
        takes="channels",
    ),
    "lstm": _leaf(recurrent.LSTM, Field("units", "int", required=True), takes="channels"),
    "downsample1d": _leaf(temporal.Downsample1D, Field("rate", "int", required=True)),
    "upsample1d": _leaf(temporal.Upsample1D, Field("rate", "int", required=True)),
    "delay": _leaf(temporal.Delay, Field("length", "int", required=True)),
    "step_delay": _leaf(temporal.StepDelay, Field("length", "int", required=True)),
    "lookahead": _leaf(temporal.Lookahead, Field("length", "int", required=True)),
    "max_pool1d": _leaf(temporal.MaxPooling1D, *_POOLING),
    "min_pool1d": _leaf(temporal.MinPooling1D, *_POOLING),
    "avg_pool1d": _leaf(temporal.AveragePooling1D, *_POOLING),
    "frame": _leaf(temporal.Frame, *_FRAMING),
    "overlap_add": _leaf(temporal.OverlapAdd, *_FRAMING),
    "window": _leaf(
        temporal.Window,
        Field("kind", "str", default="hann", choices=temporal._WINDOW_KINDS),
        Field("axis", "int", default=0),
    ),
}
for _kind in ("relu", "gelu", "sigmoid", "tanh", "swish", "softplus", "abs", "exp", "log"):
    _LEAVES[_kind] = _leaf(functools.partial(dense.Pointwise, _kind))
for _type_name, _definition in _LEAVES.items():
    register(_type_name, _definition)

# one-argument pointwise kinds: the spec key is not Pointwise's ``value`` keyword;
# an absent ``alpha`` is None, so Pointwise supplies its default
for _kind, _field in (
    ("leaky_relu", Field("alpha", "float")),
    ("elu", Field("alpha", "float")),
    ("power", Field("exponent", "number", required=True)),
    ("maximum", Field("value", "number", required=True)),
    ("minimum", Field("value", "number", required=True)),
    ("mod", Field("divisor", "number", required=True)),
):
    register(
        _kind,
        LayerDef(
            fields=(_field,),
            build=lambda ctx, kind=_kind, key=_field.name: dense.Pointwise(
                kind, ctx.params[key], name=ctx.name
            ),
        ),
    )


def _build_dropout(ctx):
    seed = ctx.params["seed"]
    if seed is None:
        seed = int(ctx.rng().integers(0, 2**63))
    return dense.Dropout(ctx.params["rate"], seed=seed, name=ctx.name)


register(
    "dropout",
    LayerDef(
        fields=(Field("rate", "float", required=True), Field("seed", "int", default=None)),
        build=_build_dropout,
    ),
)


def _chain(ctx, parent_path=None) -> list:
    """Builds the children in order, each on its predecessor's output spec."""
    spec, layers = ctx.input_spec, []
    for i in range(len(ctx.children)):
        layers.append(ctx.build_child(i, spec, parent_path))
        spec = layers[-1].get_output_spec(spec)
    return layers


def _build_serial(ctx):
    return Serial(_chain(ctx), name=ctx.name)


def _build_parallel(ctx):
    children = [ctx.build_child(i, ctx.input_spec) for i in range(len(ctx.children))]
    return Parallel(children, combine=ctx.params["combine"], name=ctx.name)


def _build_residual(ctx):
    if len(ctx.children) == 1:
        return Residual(ctx.build_child(0, ctx.input_spec), name=ctx.name)
    return Residual(_chain(ctx, f"{ctx.path}/body"), name=ctx.name)


def _build_repeat(ctx):
    # every iteration is built, and so checked, from the one template child
    return Repeat(
        lambda i: ctx.build_child(0, ctx.input_spec, name=f"iter_{i}"),
        ctx.params["num_repeats"],
        name=ctx.name,
    )


def _build_bidirectional(ctx):
    fwd = ctx.build_child(0, ctx.input_spec, name="forward")
    bwd = ctx.build_child(1, ctx.input_spec, name="backward")
    return Bidirectional(fwd, bwd, combine=ctx.params["combine"], name=ctx.name)


def _build_blockwise(ctx):
    child = ctx.build_child(0, ctx.input_spec)
    return Blockwise(child, ctx.params["block_size"], name=ctx.name)


register("serial", LayerDef(fields=(), build=_build_serial, children=None))
register("parallel", LayerDef(fields=(_COMBINE,), build=_build_parallel, children=None))
register("residual", LayerDef(fields=(), build=_build_residual, children=None))
register(
    "repeat",
    LayerDef(fields=(Field("num_repeats", "int", required=True),), build=_build_repeat, children=1),
)
register("bidirectional", LayerDef(fields=(_COMBINE,), build=_build_bidirectional, children=2))
register(
    "blockwise",
    LayerDef(fields=(Field("block_size", "int", required=True),), build=_build_blockwise, children=1),
)

for _check_name, _factory in sabotage.FIXTURES.items():

    def _build_sabotage(ctx, factory=_factory):
        ctx.require_channel_rank(1)
        return renamed(
            factory(ctx.input_spec.shape[0], ctx.rng(), ctx.layer_params()), ctx.name
        )

    register(sabotage.TYPE_NAMES[_check_name], LayerDef(fields=(), build=_build_sabotage))


# --- parsing ------------------------------------------------------------------


def _load_yaml(fp, path):
    """Parses one YAML document; any YAML error is a one-line SpecParseError."""
    try:
        return yaml.safe_load(fp)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1}, column {mark.column + 1}: " if mark else ""
        problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
        raise SpecParseError(f"{path}: {where}{problem}") from exc


def load_spec_file(path) -> tuple[Any, ChannelSpec | None]:
    """Parses a spec file into its root node, as parsed YAML, and its
    optional input spec. ``build`` checks the node."""
    with open(path, "r", encoding="utf-8") as fp:
        data = _load_yaml(fp, path)
    if isinstance(data, dict) and "pipeline" in data:
        input_spec = parse_channel_spec(data["input_spec"]) if "input_spec" in data else None
        return data["pipeline"], input_spec
    return data, None


_DTYPE_NAMES = {"f32": tensor.FLOAT32, "i32": tensor.INT32, "bool": tensor.BOOL}


def parse_channel_spec(text) -> ChannelSpec:
    """Parses 'f32[8]' / 'i32[2,3]' / 'bool[]' into a ChannelSpec."""
    if not isinstance(text, str):
        raise PipelineError(f"input_spec: expected a string such as 'f32[8]', got {text!r}")
    text = text.strip()
    if "[" not in text or not text.endswith("]"):
        raise PipelineError(f"bad channel spec {text!r}; expected e.g. 'f32[8]'")
    dtype_name, dims = text[:-1].split("[", 1)
    if dtype_name not in _DTYPE_NAMES:
        raise PipelineError(
            f"bad channel spec dtype {dtype_name!r}; expected one of {sorted(_DTYPE_NAMES)}"
        )
    dims = [d.strip() for d in dims.split(",") if d.strip() != ""]
    if not all(d.isascii() and d.isdigit() for d in dims):
        raise PipelineError(
            f"input_spec: bad channel spec {text!r}; dimensions must be non-negative integers"
        )
    return ChannelSpec(tuple(int(d) for d in dims), _DTYPE_NAMES[dtype_name])


def load_manifest(path) -> RunManifest:
    with open(path, "r", encoding="utf-8") as fp:
        data = _load_yaml(fp, path)
    if not isinstance(data, dict):
        raise PipelineError(f"{path}: manifest must be a mapping")
    if "input" not in data:
        raise PipelineError(f"{path}: manifest is missing 'input'")
    if "training" not in data:
        raise PipelineError(
            f"{path}: manifest is missing 'training'; it is required and has no default"
        )
    if not isinstance(data["training"], bool):
        raise PipelineError(f"{path}: 'training' must be true or false")
    known = {"input", "training", "output", "params", "seed", "constants", "block"}
    unknown = set(data) - known
    if unknown:
        raise PipelineError(f"{path}: unknown manifest keys {sorted(unknown)}")
    constants = data.get("constants") or {}
    if not isinstance(constants, dict):
        raise PipelineError(f"{path}: 'constants' must map keys to SLS1 paths")
    block = data.get("block")
    if block is not None and (type(block) is not int or block <= 0):
        raise PipelineError(f"{path}: 'block' must be a positive integer, got {block!r}")
    seed = data.get("seed", 0)
    if type(seed) is not int:
        raise PipelineError(f"{path}: 'seed' must be an integer, got {seed!r}")
    return RunManifest(
        input=str(data["input"]),
        training=data["training"],
        output=data.get("output"),
        params=data.get("params"),
        seed=seed,
        constants={str(k): str(v) for k, v in constants.items()},
        block=block,
    )


# --- building -----------------------------------------------------------------


def build(
    node,
    input_spec: ChannelSpec,
    seed: int = 0,
    archive: Mapping[str, np.ndarray] | None = None,
) -> SequenceLayer:
    """Checks and materializes the layer tree of a parsed spec node.

    Parameters come from the archive when given, otherwise from a
    deterministic per-path RNG derived from the seed: building the same spec
    twice with the same seed yields identical parameters.
    """

    def builder(node, index: int | None, node_input: ChannelSpec, parent_path, name):
        path = "pipeline" if parent_path is None else f"{parent_path}/children[{index}]"
        if not isinstance(node, dict):
            raise PipelineError(f"{path}: expected a mapping, got {type(node).__name__}")
        if "type" not in node:
            raise PipelineError(f"{path}: missing 'type'")
        type_name = node["type"]
        if not isinstance(type_name, str):
            raise PipelineError(f"{path}.type: expected a string, got {type_name!r}")
        own_name = node.get("name")
        if own_name is not None and not isinstance(own_name, str):
            raise PipelineError(f"{path}.name: expected a string, got {own_name!r}")
        name = name or own_name or (type_name if index is None else f"{type_name}_{index}")
        path = name if parent_path is None else f"{parent_path}/{name}"
        children = [] if node.get("children") is None else node["children"]
        if not isinstance(children, list):
            raise PipelineError(f"{path}.children: expected a list")
        definition = _REGISTRY.get(type_name)
        if definition is None:
            raise PipelineError(
                f"{path}: unknown layer type {type_name!r}; known types: {registered_types()}"
            )
        params = _validate_params(definition, node, path)
        count = definition.children
        if count is not None and len(children) != count:
            takes = ("no children", "exactly 1 child", "exactly 2 children")[count]
            raise PipelineError(
                f"{path}: layer type {type_name!r} takes {takes}, got {len(children)}"
            )
        names = [c.get("name") for c in children if isinstance(c, dict)]
        names = [n for n in names if isinstance(n, str)]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise PipelineError(f"{path}: duplicate child names {sorted(dupes)}")
        ctx = BuildContext(
            path=path,
            name=name,
            type=type_name,
            input_spec=node_input,
            seed=seed,
            archive=archive,
            params=params,
            children=children,
            builder=builder,
        )
        try:
            return definition.build(ctx)
        except PipelineError:
            raise
        except (ValueError, TypeError) as exc:
            raise PipelineError(f"{path}: {exc}") from exc

    return builder(node, None, input_spec, None, None)
