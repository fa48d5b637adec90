"""Cold start: importing seqstream, building and describing any spec load no
``scipy.special`` (whose package init imports ``numpy.f2py``); the first
evaluation of a special function on real data loads it, with the same bits as
a process that imported it eagerly. Each check runs in a fresh interpreter,
since this one has imported both."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.special  # noqa: F401  (the in-process reference imports it eagerly)

from seqstream.sequence import Sequence

from conftest import build_spec

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ("scipy.special", "numpy.f2py")


def run_fresh(code: str, *args: str) -> list[str]:
    """The modules of ``HEAVY`` loaded after ``code`` ran in a fresh
    interpreter that imports seqstream from ``src``; ``code`` runs from the
    repository root with ``args`` in ``sys.argv[1:]``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code += f"\nimport json, sys\nprint(json.dumps([m for m in {list(HEAVY)!r} if m in sys.modules]))\n"
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


BUILD_AND_DESCRIBE = """
from pathlib import Path
import seqstream
from seqstream import cli, pipeline
for path in sorted(Path("specs").glob("*.yaml")):
    node, input_spec = pipeline.load_spec_file(path)
    pipeline.build(node, input_spec, seed=0)
for name in ("transformer_block", "streaming_encoder"):
    assert cli.main(["describe", "--spec", f"specs/{name}.yaml"]) == 0
"""


def test_import_build_and_describe_load_no_scipy_special():
    assert run_fresh(BUILD_AND_DESCRIBE) == []


def test_an_empty_block_of_a_special_function_loads_no_scipy_special():
    code = """
import numpy as np
import seqstream as sl
x = sl.Sequence.from_values(np.zeros((2, 0, 3), np.float32))
for kind in ("gelu", "sigmoid", "swish"):
    layer = sl.Pointwise(kind)
    assert str(layer.get_output_spec(sl.ChannelSpec((3,)))) == "f32[3]"
    y = layer.layer(x, training=False)
    assert y.values.shape == (2, 0, 3) and y.values.dtype == np.float32
"""
    assert run_fresh(code) == []


FIRST_EVALUATION = """
import sys
import numpy as np
from seqstream import pipeline
from seqstream.sequence import Sequence
inputs, outputs, layers = np.load(sys.argv[1]), {}, {}
for name in ("transformer_block", "streaming_encoder"):
    node, input_spec = pipeline.load_spec_file(f"specs/{name}.yaml")
    layers[name] = pipeline.build(node, input_spec, seed=0)
assert "scipy.special" not in sys.modules
for name, layer in layers.items():
    x = Sequence.from_lengths(inputs[name], inputs[name + ".lengths"])
    y = layer.layer(x, training=False)
    outputs[name], outputs[name + ".mask"] = y.values, y.mask
np.savez(sys.argv[2], **outputs)
"""


def test_the_first_evaluation_loads_scipy_special_with_eager_bits(tmp_path):
    rng = np.random.default_rng(25)
    inputs, expect = {}, {}
    for name in ("transformer_block", "streaming_encoder"):
        layer, input_spec = build_spec(name)
        values = rng.standard_normal((2, 6) + input_spec.shape).astype(np.float32)
        inputs[name], inputs[name + ".lengths"] = values, np.array([6, 4])
        y = layer.layer(Sequence.from_lengths(values, [6, 4]), training=False)
        expect[name], expect[name + ".mask"] = y.values, y.mask
    np.savez(tmp_path / "inputs.npz", **inputs)
    loaded = run_fresh(FIRST_EVALUATION, str(tmp_path / "inputs.npz"), str(tmp_path / "out.npz"))
    assert "scipy.special" in loaded
    got = np.load(tmp_path / "out.npz")
    assert sorted(got.files) == sorted(expect)
    for key, want in expect.items():
        assert got[key].dtype == want.dtype
        assert got[key].tobytes() == want.tobytes(), key
