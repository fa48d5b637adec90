"""The pipeline registry: every type builds, validation errors name the
offending node, bundled specs build reproducibly and keep their contract."""

import functools
import hashlib
from pathlib import Path

import numpy as np
import pytest

import seqstream as sl
from seqstream import pipeline, sabotage
from seqstream.errors import PipelineError
from seqstream.params import collect_parameters
from seqstream.verify import verify_contract

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
REAL_SPECS = ["conv_stack", "mixed_resample", "streaming_encoder", "transformer_block"]

_POINTWISE = ("relu", "gelu", "sigmoid", "tanh", "swish", "softplus", "abs", "exp", "log")

# type -> (expected class, inline fields, children, input channel spec)
MINIMAL = {
    "identity": (sl.Identity, "", "", "f32[3]"),
    "emit": (sl.Emit, "", "", "f32[3]"),
    "dense": (sl.Dense, "units: 4", "", "f32[3]"),
    "scale": (sl.Scale, "value: 2", "", "f32[3]"),
    "add": (sl.Add, "value: 1", "", "f32[3]"),
    "leaky_relu": (sl.Pointwise, "", "", "f32[3]"),
    "elu": (sl.Pointwise, "", "", "f32[3]"),
    "power": (sl.Pointwise, "exponent: 2", "", "f32[3]"),
    "maximum": (sl.Pointwise, "value: 0", "", "f32[3]"),
    "minimum": (sl.Pointwise, "value: 0", "", "f32[3]"),
    "mod": (sl.Pointwise, "divisor: 2", "", "f32[3]"),
    "softmax": (sl.Softmax, "", "", "f32[3]"),
    "layer_norm": (sl.LayerNormalization, "", "", "f32[2,3]"),
    "rms_norm": (sl.RMSNormalization, "", "", "f32[2,3]"),
    "dropout": (sl.Dropout, "rate: 0.1", "", "f32[3]"),
    "reshape": (sl.Reshape, "shape: [3, 1]", "", "f32[3]"),
    "flatten": (sl.Flatten, "", "", "f32[2,3]"),
    "expand_dims": (sl.ExpandDims, "", "", "f32[3]"),
    "squeeze": (sl.Squeeze, "axis: 0", "", "f32[1,3]"),
    "move_axis": (sl.MoveAxis, "source: 0, destination: 1", "", "f32[2,3]"),
    "transpose_channels": (sl.TransposeChannels, "perm: [1, 0]", "", "f32[2,3]"),
    "conditioning": (sl.Conditioning, "key: c", "", "f32[3]"),
    "conv1d": (sl.Conv1D, "filters: 4, kernel_size: 3", "", "f32[3]"),
    "conv1d_transpose": (sl.Conv1DTranspose, "filters: 4, kernel_size: 3", "", "f32[3]"),
    "self_attention": (sl.DotProductSelfAttention, "num_heads: 2, units_per_head: 4", "", "f32[3]"),
    "lstm": (sl.LSTM, "units: 4", "", "f32[3]"),
    "downsample1d": (sl.Downsample1D, "rate: 2", "", "f32[3]"),
    "upsample1d": (sl.Upsample1D, "rate: 2", "", "f32[3]"),
    "delay": (sl.Delay, "length: 2", "", "f32[3]"),
    "step_delay": (sl.StepDelay, "length: 2", "", "f32[3]"),
    "lookahead": (sl.Lookahead, "length: 2", "", "f32[3]"),
    "max_pool1d": (sl.MaxPooling1D, "window: 3", "", "f32[3]"),
    "min_pool1d": (sl.MinPooling1D, "window: 3", "", "f32[3]"),
    "avg_pool1d": (sl.AveragePooling1D, "window: 3", "", "f32[3]"),
    "frame": (sl.Frame, "frame_length: 4, hop: 2", "", "f32[3]"),
    "overlap_add": (sl.OverlapAdd, "frame_length: 4, hop: 2", "", "f32[4,3]"),
    "window": (sl.Window, "", "", "f32[2,3]"),
    "serial": (sl.Serial, "", "[{type: dense, units: 2}, {type: relu}]", "f32[3]"),
    "parallel": (sl.Parallel, "", "[{type: relu}, {type: tanh}]", "f32[3]"),
    "residual": (sl.Residual, "", "[{type: dense, units: 3}]", "f32[3]"),
    "repeat": (sl.Repeat, "num_repeats: 2", "[{type: dense, units: 3}]", "f32[3]"),
    "bidirectional": (sl.Bidirectional, "", "[{type: relu}, {type: tanh}]", "f32[3]"),
    "blockwise": (sl.Blockwise, "block_size: 2", "[{type: relu}]", "f32[3]"),
    **{kind: (sl.Pointwise, "", "", "f32[3]") for kind in _POINTWISE},
    **{
        type_name: (type(sabotage.FIXTURES[check](3, np.random.default_rng(0))), "", "", "f32[3]")
        for check, type_name in sabotage.TYPE_NAMES.items()
    },
}


def write_spec(tmp_path, text):
    path = tmp_path / "spec.yaml"
    path.write_text(text)
    return path


def build_text(tmp_path, text, seed=0):
    spec, input_spec = pipeline.load_spec_file(write_spec(tmp_path, text))
    return pipeline.build(spec, input_spec, seed=seed)


def node_text(type_name, fields, children, input_spec, name=None):
    inline = ", ".join(
        part
        for part in (
            f"type: {type_name}",
            f"name: {name}" if name else "",
            fields,
            f"children: {children}" if children else "",
        )
        if part
    )
    return f"pipeline: {{{inline}}}\ninput_spec: {input_spec}\n"


def test_every_registered_type_has_a_case():
    assert sorted(MINIMAL) == pipeline.registered_types()


@pytest.mark.parametrize("type_name", sorted(MINIMAL))
def test_every_type_builds_from_a_minimal_node(tmp_path, type_name):
    cls, fields, children, input_spec = MINIMAL[type_name]
    layer = build_text(tmp_path, node_text(type_name, fields, children, input_spec, name="node"))
    assert type(layer) is cls
    assert layer.name == "node"


#: the types that take no children, each with its minimal fields
LEAF_TYPES = sorted(t for t, case in MINIMAL.items() if not case[2])


def test_the_leaf_sweep_covers_every_registered_leaf_type():
    leaves = [t for t in pipeline.registered_types() if pipeline._REGISTRY[t].children == 0]
    assert LEAF_TYPES == leaves


@pytest.mark.parametrize("input_spec", ["f32[]", "f32[1]", "f32[2,3]", "i32[3]", "bool[3]"])
@pytest.mark.parametrize("type_name", LEAF_TYPES)
def test_a_leaf_type_on_any_input_spec_builds_or_raises_a_pipeline_error(
    tmp_path, type_name, input_spec
):
    """Scalar, unit, rank-2, int and bool channels: a leaf as the one child
    of a serial builds, or is refused with a typed error, never another
    exception (squeeze and move_axis on f32[] used to divide by zero)."""
    child = ", ".join(part for part in (f"type: {type_name}", MINIMAL[type_name][1]) if part)
    text = node_text("serial", "", f"[{{{child}}}]", input_spec)
    try:
        layer = build_text(tmp_path, text)
    except PipelineError:
        return
    assert isinstance(layer, sl.Serial)


def test_fields_reach_the_constructor(tmp_path):
    conv = build_text(
        tmp_path,
        node_text(
            "conv1d",
            "filters: 2, kernel_size: 4, strides: 2, dilation: 3, padding: same, use_bias: false",
            "",
            "f32[5]",
        ),
    )
    assert (conv.in_channels, conv.filters, conv.kernel_size) == (5, 2, 4)
    assert (conv.stride, conv.dilation, conv.padding, conv.use_bias) == (2, 3, "same", False)
    assert sorted(conv.parameters) == ["weight"]
    power = build_text(tmp_path, node_text("power", "exponent: 3", "", "f32[2]"))
    assert (power.kind, power.value) == ("power", 3)
    elu = build_text(tmp_path, node_text("elu", "", "", "f32[2]"))
    assert (elu.kind, elu.value) == ("elu", 1.0)
    norm = build_text(tmp_path, node_text("rms_norm", "epsilon: 0.01", "", "f32[2,4]"))
    assert (norm.shape, norm.epsilon) == ((2, 4), 0.01)


def test_dropout_seed_is_derived_from_the_path_unless_given(tmp_path):
    text = "pipeline: {type: serial, children: [{type: dropout, rate: 0.5}]}\ninput_spec: f32[3]\n"
    first = build_text(tmp_path, text, seed=1).children[0].seed
    assert build_text(tmp_path, text, seed=1).children[0].seed == first
    assert build_text(tmp_path, text, seed=2).children[0].seed != first
    given = text.replace("rate: 0.5", "rate: 0.5, seed: 7")
    assert build_text(tmp_path, given).children[0].seed == 7


ERRORS = {
    "unknown type": (
        "{type: nope}",
        "f32[3]",
        "nope: unknown layer type 'nope'; known types: [",
    ),
    "missing required field": (
        "{type: dense}",
        "f32[3]",
        "dense: missing required parameter 'units'",
    ),
    "wrong kind": (
        "{type: dense, units: '4'}",
        "f32[3]",
        "dense.units: expected an integer, got '4'",
    ),
    "bool for int": (
        "{type: dense, units: true}",
        "f32[3]",
        "dense.units: expected an integer, got True",
    ),
    "unknown key": (
        "{type: dense, units: 4, foo: 1}",
        "f32[3]",
        "dense.foo: unknown parameter for layer type 'dense' (known: ['units', 'use_bias'])",
    ),
    "bad choice": (
        "{type: conv1d, filters: 2, kernel_size: 3, padding: left}",
        "f32[3]",
        "conv1d.padding: expected one of ['causal', 'reverse_causal', 'same'], got 'left'",
    ),
    "alias plus canonical key": (
        "{type: conv1d, filters: 2, kernel_size: 3, stride: 2, strides: 2}",
        "f32[3]",
        "conv1d.strides: duplicate value for 'stride'",
    ),
    "wrong child count": (
        "{type: bidirectional, children: [{type: relu}]}",
        "f32[3]",
        "bidirectional: layer type 'bidirectional' takes exactly 2 children, got 1",
    ),
    "duplicate child names": (
        "{type: serial, children: [{type: relu, name: a}, {type: tanh, name: a}]}",
        "f32[3]",
        "serial: duplicate child names ['a']",
    ),
    "bad shape list": (
        "{type: reshape, shape: [3, x]}",
        "f32[3]",
        "reshape.shape: expected a list of integers, got [3, 'x']",
    ),
    "rank-1 requirement": (
        "{type: serial, children: [{type: conv1d, filters: 2, kernel_size: 3}]}",
        "f32[2,3]",
        "serial/conv1d_0: layer type 'conv1d' requires channel rank 1, got input spec f32[2,3]",
    ),
    "constructor error names the node": (
        "{type: serial, name: s, children: [{type: delay, length: -1}]}",
        "f32[3]",
        "s/delay_0: delay length must be >= 0, got -1",
    ),
    "nested field": (
        "{type: serial, children: [{type: dense, units: 2.5}]}",
        "f32[3]",
        "serial/dense_0.units: expected an integer, got 2.5",
    ),
    "residual without children": (
        "{type: residual}",
        "f32[3]",
        "residual: residual requires at least one child",
    ),
    "non-mapping child": (
        "{type: serial, children: [{type: relu}, relu]}",
        "f32[3]",
        "serial/children[1]: expected a mapping, got str",
    ),
    "non-mapping root": (
        "[{type: relu}]",
        "f32[3]",
        "pipeline: expected a mapping, got list",
    ),
}


@pytest.mark.parametrize("case", list(ERRORS))
def test_error_messages(tmp_path, case):
    node, input_spec, message = ERRORS[case]
    with pytest.raises(PipelineError) as info:
        build_text(tmp_path, f"pipeline: {node}\ninput_spec: {input_spec}\n")
    assert str(info.value).startswith(message), str(info.value)
    if not message.endswith("["):
        assert str(info.value) == message


# sha256 over sorted (key, bytes) of collect_parameters at build seed 0
SPEC_CHECKSUMS = {
    "conv_stack": "31c681b135eb2852",
    "mixed_resample": "2b66be260656b707",
    "sabotage_rf": "045123ee8b72a245",
    "streaming_encoder": "3897155d9d457132",
    "transformer_block": "0a9d6396eeb105ce",
}
SPEC_KEYS = {
    "conv_stack": ["conv1d_0/bias", "conv1d_0/weight", "conv1d_1/bias", "conv1d_1/weight"],
    "mixed_resample": [
        "conv1d_0/bias",
        "conv1d_0/weight",
        "conv1d_transpose_1/bias",
        "conv1d_transpose_1/weight",
    ],
    "sabotage_rf": ["bias", "weight"],
    "streaming_encoder": [
        "feature_conv/bias",
        "feature_conv/weight",
        "head/bias",
        "head/weight",
        "layer_norm_1/offset",
        "layer_norm_1/scale",
        "memory/bias",
        "memory/kernel",
    ],
    "transformer_block": [
        f"{block}/body/{param}"
        for block, params in (
            (
                "attention_block",
                ["out_proj/bias", "out_proj/weight", "post_norm/scale", "pre_norm/scale"]
                + [f"self_attention/{p}_proj" for p in ("k", "q", "v")],
            ),
            (
                "ffn_block",
                ["dense1/bias", "dense1/weight", "dense2/bias", "dense2/weight"]
                + ["post_norm/scale", "pre_norm/scale"],
            ),
        )
        for param in params
    ],
}


@functools.lru_cache(maxsize=None)
def build_bundled(name):
    spec, input_spec = pipeline.load_spec_file(SPEC_DIR / f"{name}.yaml")
    return pipeline.build(spec, input_spec, seed=0), input_spec


def test_every_spec_file_is_pinned():
    assert sorted(p.stem for p in SPEC_DIR.glob("*.yaml")) == sorted(SPEC_CHECKSUMS)


@pytest.mark.parametrize("name", sorted(SPEC_CHECKSUMS))
def test_bundled_spec_parameters_are_pinned(name):
    named = collect_parameters(build_bundled(name)[0])
    assert sorted(named) == [f"{name}/{key}" for key in SPEC_KEYS[name]]
    digest = hashlib.sha256()
    for key in sorted(named):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(named[key]).tobytes())
    assert digest.hexdigest()[:16] == SPEC_CHECKSUMS[name]


@pytest.mark.parametrize("name", REAL_SPECS + ["sabotage_rf"])
def test_archive_round_trip_reproduces_parameters(name):
    layer, input_spec = build_bundled(name)
    named = collect_parameters(layer)
    spec, _ = pipeline.load_spec_file(SPEC_DIR / f"{name}.yaml")
    rebuilt = collect_parameters(pipeline.build(spec, input_spec, seed=99, archive=named))
    assert rebuilt.keys() == named.keys()
    for key, value in named.items():
        np.testing.assert_array_equal(rebuilt[key], value)


@pytest.mark.parametrize("name", REAL_SPECS)
def test_real_specs_pass_the_contract(name):
    layer, input_spec = build_bundled(name)
    report = verify_contract(layer, input_spec)
    assert report.passed, report.render()


def test_sabotage_rf_fails_only_the_receptive_field_check():
    layer, input_spec = build_bundled("sabotage_rf")
    report = verify_contract(layer, input_spec)
    failed = [c.name for c in report.checks if c.status == "fail"]
    assert failed == ["receptive_field_empirical"], report.render()
