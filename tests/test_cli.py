"""CLI error handling: malformed inputs and manifests exit 2 with one error line;
``diff`` exits 1 on any disagreement between layer-wise and step-wise outputs."""

import contextlib
import io
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqstream import cli, params
from seqstream.errors import FormatError
from seqstream.streaming import step_by_step
from seqstream.sequence import Sequence, read_sequence, save_sequence, write_sequence

SPEC = """\
pipeline:
  type: serial
  name: tiny
  children:
    - {type: dense, units: 2}
input_spec: f32[3]
"""

# two ratio-1 branches whose block sizes are primes near 4096: checking that
# their output lengths agree over one period would take about 1.7e7 steps
RESAMPLING_BRANCHES = """\
pipeline:
  type: parallel
  name: hostile
  combine: add
  children:
    - type: serial
      children:
        - {type: downsample1d, rate: 4093}
        - {type: upsample1d, rate: 4093}
    - type: serial
      children:
        - {type: downsample1d, rate: 4091}
        - {type: upsample1d, rate: 4091}
input_spec: f32[3]
"""


def slt1_header(code, extents):
    return b"SLT1" + struct.pack("<BB", code, len(extents)) + struct.pack(f"<{len(extents)}Q", *extents)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "spec.yaml").write_text(SPEC)
    save_sequence(tmp_path / "x.sls", Sequence.from_values(np.ones((1, 4, 3), np.float32)))
    return tmp_path


def run_cli(workdir, command, input_name="x.sls", extra_manifest="", extra_args=()):
    manifest = workdir / "manifest.yaml"
    manifest.write_text(
        f"input: {workdir / input_name}\ntraining: false\n"
        f"output: {workdir / 'y.sls'}\n{extra_manifest}"
    )
    return cli.main(
        [command, "--spec", str(workdir / "spec.yaml"), "--manifest", str(manifest), *extra_args]
    )


def assert_usage_error(capsys, code):
    err = capsys.readouterr().err
    assert code == cli.USAGE_ERROR, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return err


@pytest.mark.parametrize("command", ["run", "stream"])
def test_valid_input_succeeds(workdir, command):
    assert run_cli(workdir, command) == 0


@pytest.mark.parametrize("command", ["run", "stream"])
@pytest.mark.parametrize(
    "payload",
    [
        b"SLS1SLT1\x00",  # header cut inside the dtype/rank bytes
        b"SLS1" + slt1_header(0, [2, 4])[:-3],  # cut inside the extents
        b"SLS1" + slt1_header(0, [1, 4, 3]) + bytes(10),  # cut inside the payload
        b"SLS1" + slt1_header(0, [2**31, 2**31]),  # byte count beyond any buffer
        b"SLS1" + slt1_header(0, [2**40, 2**40]),  # extent product wraps in int64
        b"SLS1" + slt1_header(0, [0, 2**63]),  # zero bytes, unrepresentable shape
    ],
)
def test_malformed_input_exits_2(workdir, capsys, command, payload):
    (workdir / "bad.sls").write_bytes(payload)
    assert_usage_error(capsys, run_cli(workdir, command, input_name="bad.sls"))


@pytest.mark.parametrize("command", ["run", "stream"])
@pytest.mark.parametrize("block", ['"abc"', "0", "-6", "2.5", "true"])
def test_bad_manifest_block_exits_2(workdir, capsys, command, block):
    code = run_cli(workdir, command, extra_manifest=f"block: {block}\n")
    assert_usage_error(capsys, code)


def test_bad_manifest_block_names_the_field(workdir, capsys):
    run_cli(workdir, "stream", extra_manifest='block: "abc"\n')
    assert "'block'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["stream", "diff"])
def test_block_flag_zero_exits_2(workdir, capsys, command):
    code = run_cli(workdir, command, extra_args=["--block", "0"])
    assert "block_size" in assert_usage_error(capsys, code)


@pytest.mark.parametrize("command", ["run", "stream"])
@pytest.mark.parametrize("seed", ["1.9", '"abc"', "true"])
def test_bad_manifest_seed_exits_2(workdir, capsys, command, seed):
    code = run_cli(workdir, command, extra_manifest=f"seed: {seed}\n")
    assert "'seed'" in assert_usage_error(capsys, code)


@pytest.mark.parametrize("command", ["describe", "run"])
@pytest.mark.parametrize(
    "spec_text, expect",
    [
        (SPEC.replace("f32[3]", "5"), "input_spec"),
        (SPEC.replace("f32[3]", "f32[a]"), "input_spec"),
        (SPEC + "# \x07\n", "#x0007"),
        (SPEC.replace("    - {type: dense, units: 2}", "    - dense"), "tiny/children[0]: "),
        ("pipeline: [dense]\ninput_spec: f32[3]\n", "pipeline: expected a mapping"),
        (RESAMPLING_BRANCHES, "repeat every 16744463 steps; at most 4096"),
    ],
    ids=[
        "input_spec_int",
        "input_spec_letters",
        "control_byte",
        "child_string",
        "root_list",
        "branch_period",
    ],
)
def test_hostile_spec_file_exits_2(workdir, capsys, command, spec_text, expect):
    (workdir / "spec.yaml").write_text(spec_text)
    if command == "describe":
        code = cli.main(["describe", "--spec", str(workdir / "spec.yaml")])
    else:
        code = run_cli(workdir, command)
    assert expect in assert_usage_error(capsys, code)


@pytest.mark.parametrize("command", ["run", "stream"])
def test_manifest_control_byte_exits_2(workdir, capsys, command):
    code = run_cli(workdir, command, extra_manifest="# \x07\n")
    assert "#x0007" in assert_usage_error(capsys, code)


@settings(max_examples=20, deadline=None)
@given(
    batch=st.integers(1, 2),
    time=st.integers(0, 3),
    channels=st.lists(st.integers(1, 3), max_size=2),
    seed=st.integers(0, 99),
)
def test_every_prefix_truncation_raises_value_error(batch, time, channels, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(batch, time, *channels)).astype(np.float32)
    lengths = rng.integers(0, time + 1, size=batch)
    buf = io.BytesIO()
    write_sequence(buf, Sequence.from_lengths(values, lengths))
    blob = buf.getvalue()
    for cut in range(len(blob)):
        with pytest.raises(ValueError):
            read_sequence(io.BytesIO(blob[:cut]))


def sls1_blob():
    values = np.arange(12, dtype=np.float32).reshape(2, 3, 2)
    buf = io.BytesIO()
    write_sequence(buf, Sequence.from_lengths(values, [3, 1]))
    return buf.getvalue()


def archive_blob():
    buf = io.BytesIO()
    named = {"d/bias": np.zeros(2, np.float32), "d/bias2": np.ones((1, 2), np.float32)}
    params.write_archive(buf, named)
    return buf.getvalue()


@pytest.mark.parametrize(
    "blob, read", [(sls1_blob(), read_sequence), (archive_blob(), params.read_archive)],
    ids=["sls1", "archive"],
)
def test_every_single_bit_flip_reads_or_raises_format_error(blob, read):
    for bit in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        try:
            read(io.BytesIO(bytes(flipped)))
        except FormatError:
            pass


def test_duplicate_archive_record_raises_format_error():
    buf = io.BytesIO()
    for _ in range(2):
        params.write_archive(buf, {"d/bias": np.zeros(2, np.float32)})
    with pytest.raises(FormatError, match="duplicate"):
        params.read_archive(io.BytesIO(buf.getvalue()))


CONV_STACK = Path(__file__).resolve().parent.parent / "specs" / "conv_stack.yaml"


def run_diff_on_conv_stack(tmp_path):
    values = np.random.default_rng(0).uniform(-1, 1, (2, 36, 3)).astype(np.float32)
    save_sequence(tmp_path / "x.sls", Sequence.from_lengths(values, [36, 25]))
    manifest = tmp_path / "manifest.yaml"
    manifest.write_text(f"input: {tmp_path / 'x.sls'}\ntraining: false\n")
    return cli.main(["diff", "--spec", str(CONV_STACK), "--manifest", str(manifest)])


def patch_stream(monkeypatch, edit):
    """Makes ``diff``'s step-wise run return ``edit(values, mask)`` of the true output."""

    def patched(*args, **kwargs):
        y = step_by_step(*args, **kwargs)
        values, mask = np.array(y.values), np.array(y.mask)
        edit(values, mask)
        return Sequence(values, mask)

    monkeypatch.setattr(cli, "step_by_step", patched)


def test_diff_passes_on_conv_stack(tmp_path, capsys):
    assert run_diff_on_conv_stack(tmp_path) == 0
    assert "masks identical" in capsys.readouterr().out


def test_diff_fails_on_nan_in_stream_output(tmp_path, capsys, monkeypatch):
    patch_stream(monkeypatch, lambda values, mask: values.__setitem__((0, 1, 0), np.nan))
    assert run_diff_on_conv_stack(tmp_path) == cli.CONTRACT_ERROR
    assert "non-finite" in capsys.readouterr().out


def test_diff_fails_on_mask_mismatch(tmp_path, capsys, monkeypatch):
    patch_stream(monkeypatch, lambda values, mask: mask.__setitem__((1, -1), True))
    assert run_diff_on_conv_stack(tmp_path) == cli.CONTRACT_ERROR
    assert "masks differ" in capsys.readouterr().out


def test_describe_prints_every_line_to_the_current_stdout():
    # the layer tree must follow a stdout rebound after the module's import
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(["describe", "--spec", str(CONV_STACK)]) == 0
    lines = buffer.getvalue().splitlines()
    assert len(lines) == 14, lines
    assert lines[10:] == [
        "layers:", "  serial conv_stack", "    conv1d conv1d_0", "    conv1d conv1d_1"
    ]


@pytest.mark.parametrize("kind", ["relu", "gelu"])
def test_describe_rejects_a_float_only_leaf_on_int_input(workdir, capsys, kind):
    # the spec is what the leaf's kernel returns, so the tree fails when built;
    # gelu's kernel checks the dtype before its empty block skips scipy
    (workdir / "spec.yaml").write_text(
        SPEC.replace("    - {type: dense", f"    - {{type: {kind}}}\n    - {{type: dense").replace(
            "f32[3]", "i32[3]"
        )
    )
    code = cli.main(["describe", "--spec", str(workdir / "spec.yaml")])
    assert f"{kind}_0: float input required, got int32" in assert_usage_error(capsys, code)


@pytest.mark.parametrize("command", ["describe", "run"])
def test_softmax_on_bool_input_exits_2(workdir, capsys, command):
    (workdir / "spec.yaml").write_text("pipeline: {type: softmax}\ninput_spec: bool[3]\n")
    save_sequence(workdir / "b.sls", Sequence.from_values(np.ones((1, 4, 3), bool)))
    if command == "describe":
        code = cli.main(["describe", "--spec", str(workdir / "spec.yaml")])
    else:
        code = run_cli(workdir, command, input_name="b.sls")
    assert "softmax: float input required, got bool" in assert_usage_error(capsys, code)


def test_squeeze_on_a_scalar_channel_spec_exits_2(workdir, capsys):
    # the axis check used to divide by the channel rank 0: a traceback, exit 1
    (workdir / "spec.yaml").write_text("pipeline: {type: squeeze, axis: 0}\ninput_spec: f32[]\n")
    code = cli.main(["describe", "--spec", str(workdir / "spec.yaml")])
    assert "squeeze: axis 0 out of range [0, 0)" in assert_usage_error(capsys, code)


@pytest.mark.parametrize("command", ["describe", "verify"])
@pytest.mark.parametrize(
    "node, expect",
    [
        ("{type: conv1d, filters: 0, kernel_size: 3}", "conv1d: filters must be >= 1, got 0"),
        ("{type: conv1d, filters: -1, kernel_size: 3}", "conv1d: filters must be >= 1, got -1"),
        ("{type: dense, units: 0}", "dense: units must be >= 1, got 0"),
        ("{type: lstm, units: 0}", "lstm: units must be >= 1, got 0"),
    ],
    ids=["conv1d_zero", "conv1d_negative", "dense_zero", "lstm_zero"],
)
def test_a_layer_without_outputs_exits_2(workdir, capsys, command, node, expect):
    # verify used to build it, then exit 1 on a zero-size array in a check
    (workdir / "spec.yaml").write_text(f"pipeline: {node}\ninput_spec: f32[3]\n")
    code = cli.main([command, "--spec", str(workdir / "spec.yaml")])
    assert expect in assert_usage_error(capsys, code)


@pytest.mark.parametrize("where", ["spec", "manifest", "input"])
def test_a_directory_for_a_path_exits_2(workdir, capsys, where):
    """An unreadable path is a usage error: one line, no traceback."""
    folder = workdir / "folder"
    folder.mkdir()
    if where == "spec":
        code = cli.main(["describe", "--spec", str(folder)])
    elif where == "manifest":
        code = cli.main(["run", "--spec", str(workdir / "spec.yaml"), "--manifest", str(folder)])
    else:
        code = run_cli(workdir, "run", input_name="folder")
    assert_usage_error(capsys, code)


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "spec, expect",
    [("specs/conv_stack.yaml", 0), ("specs/sabotage_rf.yaml", 1), ("specs/no_such_spec.yaml", 2)],
    ids=["passes", "fails_a_check", "missing_spec"],
)
def test_python_dash_m_exits_with_the_cli_code(spec, expect):
    """``python -m seqstream`` runs the CLI in a fresh interpreter and exits
    with its code: 0 when every check passes, 1 on a failed check, 2 on a
    usage error."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "seqstream", "verify", "--spec", spec],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == expect, result.stderr
    if expect == 2:
        assert result.stderr.startswith("error: "), result.stderr
