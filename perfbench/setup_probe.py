"""Measures one set-up in a fresh process: ``import seqstream`` through
parsing and building the named specs.

    python3 perfbench/setup_probe.py conv_stack transformer_block ...

Prints the set-up seconds, then the mean of two host-speed kernel timings
taken afterwards in the same process. The runner starts this once per round
and reports the adjusted median as ``setup_s``; the BLAS thread pin is
inherited from its environment.
"""

import sys
import time

start = time.perf_counter()

import harness  # noqa: E402  (imports seqstream; part of what is timed)

harness.build_specs(sys.argv[1:])
elapsed = time.perf_counter() - start
kernel_s = (harness.host_kernel_s() + harness.host_kernel_s()) / 2
print(repr(elapsed), repr(kernel_s))
