"""Self-test of the benchmark's own gates. Run from the repository root:

    python3 perfbench/selftest.py

1. The correctness gate can fire: live_stream at a tiny size, with the
   ``layer_step_equal_1x`` sabotage fixture standing in for conv_stack, must
   report a failure ratio above 0.
2. Every workload at a tiny size reports no failure, untraced and traced,
   and its traced run finds traced and untraced outputs bit-identical for
   every spec.
3. After all of it, every library attribute the tracer wraps is the
   original again, so nothing traced outlives the traced run.

Exits 0 when all of this holds and prints what failed otherwise.
"""

import sys

import numpy as np

import run
import tracer
from seqstream import sabotage, sequence, tensor

#: run length and input-extent divisor of the tiny runs
SECONDS = 0.05
SCALE = 64


def check(condition, message, problems):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        problems.append(message)


def hooked_attributes():
    """The library attributes the tracer replaces while it is installed."""
    sites = list(tracer.DRIVER_SITES) + list(tracer.RF_MAP_SITES)
    sites += [(tensor, "tensor"), (sequence.Sequence, "__init__")]
    sites += [
        (cls, prop)
        for cls in tracer.COMBINATOR_CLASSES
        for prop in tracer.METADATA_PROPERTIES
        if prop in vars(cls)
    ]
    return {(owner, name): vars(owner)[name] for owner, name in sites}


def main():
    problems = []
    before = hooked_attributes()
    fixture = sabotage.FIXTURES["layer_step_equal_1x"](3, np.random.default_rng(0))
    result, report = run.run_workload(
        "live_stream", 0, SECONDS, False, scale=SCALE, substitute={"conv_stack": fixture}
    )
    ratio = result["failed"] / result["attempted"]
    check(
        ratio > 0 and not result["correct"],
        f"sabotaged conv_stack trips the gate (failure ratio {ratio:.3f}; "
        f"first failure: {report['failures'][:1]})",
        problems,
    )

    for name in run.WORKLOADS:
        for trace in (False, True):
            result, report = run.run_workload(name, 1, SECONDS, trace, scale=SCALE)
            check(
                result["correct"] and result["failed"] == 0,
                f"{name} trace={int(trace)}: {result['attempted']} operations, "
                f"{result['failed']} failed {report['failures'][:1]}",
                problems,
            )
            if trace:
                same = report["traced_vs_untraced_identical"]
                check(
                    len(same) >= len(run.SPECS) and all(same.values()),
                    f"{name}: traced and untraced outputs bit-identical for {sorted(same)}",
                    problems,
                )

    after = hooked_attributes()
    changed = [
        f"{owner.__name__}.{name}"
        for (owner, name), original in before.items()
        if after[owner, name] is not original
    ]
    check(not changed, f"every wrapped library attribute restored {changed}", problems)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
