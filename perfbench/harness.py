"""What the runner and the set-up probe share: the bundled specs, how they
are built, and the host-speed kernel.

Importing this module imports ``seqstream`` from the ``src`` directory of the
checkout this file sits in, and refuses any other copy, so the benchmark
always measures the code next to it.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_DIR = ROOT / "specs"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import seqstream  # noqa: E402
from seqstream import pipeline  # noqa: E402

if not Path(seqstream.__file__).resolve().is_relative_to(SRC.resolve()):
    raise ImportError(f"seqstream was imported from {seqstream.__file__}, not from {SRC}")

#: the bundled specs the workloads time, in the order they run
SPECS = ("conv_stack", "streaming_encoder", "transformer_block", "mixed_resample")
#: the bundled spec that must fail verification
SABOTAGE_SPEC = "sabotage_rf"
ALL_SPECS = SPECS + (SABOTAGE_SPEC,)


def build_specs(names):
    """Parses and builds each named spec with build seed 0.

    Returns ({name: (layer, input_spec)}, parse seconds, build seconds).
    """
    built = {}
    parse_s = build_s = 0.0
    for name in names:
        start = time.perf_counter()
        node, input_spec = pipeline.load_spec_file(SPEC_DIR / f"{name}.yaml")
        parsed = time.perf_counter()
        layer = pipeline.build(node, input_spec, seed=0)
        built[name] = (layer, input_spec)
        parse_s += parsed - start
        build_s += time.perf_counter() - parsed
    return built, parse_s, build_s


# -- host speed ------------------------------------------------------------------
#
# The host's CPUs are shared with other tenants, so the same work can take tens
# of percent longer for seconds at a time, in CPU time as in wall time. Every
# timed operation therefore runs next to timings of a fixed kernel
# (interpreted Python, small-array numpy as in a step, one larger array pass),
# and its times are scaled by how much slower than KERNEL_REFERENCE_S the
# kernel ran. This cancels the host's common-mode slowdowns. The kernel runs
# no library code, so no change to the library can move it.

#: kernel time that adjusted times are scaled to (its typical time on a quiet 2-CPU host)
KERNEL_REFERENCE_S = 0.008

_kernel_inputs = None


def host_kernel_s() -> float:
    """Seconds the fixed host-speed kernel takes right now."""
    global _kernel_inputs
    if _kernel_inputs is None:
        rng = np.random.default_rng(0)
        _kernel_inputs = (
            rng.standard_normal((4, 32), dtype=np.float32),
            rng.standard_normal((32, 32), dtype=np.float32),
            rng.standard_normal(1 << 18, dtype=np.float32),
        )
    small, weight, large = _kernel_inputs
    start = time.perf_counter()
    total = 0
    for i in range(60000):
        total += i * i
    x = small
    for _ in range(300):
        x = np.tanh(np.concatenate([x[:, 1:], x[:, :1]], axis=1) @ weight)
    for _ in range(4):
        np.exp(large).sum()
    return time.perf_counter() - start


def speed_factor(kernel_s: float) -> float:
    """Scale that maps a time measured while the kernel took kernel_s to the reference host."""
    return KERNEL_REFERENCE_S / kernel_s
