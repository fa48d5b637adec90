"""Short untraced benchmark runs finish correct.

An untraced ``perfbench/run.py`` run wraps each root's ``layer``,
``layer_with_emits``, ``step`` and ``step_with_emits`` by name
(``root_timer``), so a renamed method, or an emits value the run cannot
carry, fails it. ``bulk_stream`` is the one workload that steps the LSTM
in multi-step batched blocks. ``offline_layer`` checks ``layer()`` over long
ragged rows, where ``zero_invalid`` zeroes row by row, against stepping at
8x blocks, whose blocks are too short for that path. Each run goes in a fresh
interpreter from the repository root, as documented in ``perfbench/run.py``;
each takes several seconds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["live_stream", "bulk_stream", "offline_layer"])
def test_a_one_second_run_is_correct(workload):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    args = ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0"]
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.splitlines()[-1])
    assert summary["correct"] is True, summary
    assert summary["failed"] == 0, summary
