"""seqstream benchmark: four workloads over the bundled specs.

Run from the repository root:

    python3 perfbench/run.py --workload live_stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --table --seed 0

A workload run prints a per-spec summary, one ``report {...}`` JSON line
(environment, sample counts, quartiles and, when traced, the per-node
breakdown) and, as its last line, the result object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the same work untraced, then once
more with the per-node tracer installed, and reports the per-layer metrics.
``--table`` prints the columns of the ROADMAP baseline table instead.

Workloads, metrics and their meaning are described in perfbench/NOTES.md.
"""

import os

# Pin BLAS to one thread before numpy is imported; set-up probes inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import harness  # noqa: E402
from harness import ALL_SPECS, SABOTAGE_SPEC, SPECS  # noqa: E402
from seqstream import streaming, verify  # noqa: E402
from seqstream.sequence import Sequence  # noqa: E402
from tracer import Stats, Tracer  # noqa: E402

#: layer/step equivalence tolerance, the library's own (verify.HarnessConfig); never looser
TOLERANCE = 1e-6
#: rounds a run's --seconds are split into; each opens with one set-up probe
ROUNDS = 6
#: harness seeds a contract_battery spec cycles through
BATTERY_SEEDS = 4
#: traced rounds whose median per spec gives the tracing overhead
TRACED_ROUNDS = 3


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # stream | offline | battery
    batch: int = 0
    block_mult: int = 1  # step block in block_sizes: timed when streaming, the reference's offline
    time: dict = dataclasses.field(default_factory=dict)  # spec -> input steps


WORKLOADS = {
    w.name: w
    for w in (
        # One live stream: 1024 root calls per spec at its own block_size.
        Workload(
            "live_stream",
            "stream",
            batch=1,
            time={
                "conv_stack": 6144,
                "streaming_encoder": 2048,
                "transformer_block": 1024,
                "mixed_resample": 2048,
            },
        ),
        # Per-call overhead amortized 8x; the per-timestep loops dominate.
        Workload(
            "bulk_stream",
            "stream",
            batch=4,
            block_mult=8,
            time={
                "conv_stack": 49152,
                "streaming_encoder": 16384,
                "transformer_block": 1024,
                "mixed_resample": 16384,
            },
        ),
        # layer() over whole sequences: the step path is bypassed.
        Workload(
            "offline_layer",
            "offline",
            batch=8,
            block_mult=8,
            time={
                "conv_stack": 16384,
                "streaming_encoder": 4096,
                "transformer_block": 512,
                "mixed_resample": 16384,
            },
        ),
        Workload("contract_battery", "battery"),
    )
}


# -- inputs and checks -----------------------------------------------------------


def make_input(rng, batch, time_steps, channel_spec) -> Sequence:
    """Standard-normal values; row 0 is full, the others end-padded to random lengths."""
    values = rng.standard_normal((batch, time_steps) + channel_spec.shape, dtype=np.float32)
    lengths = [time_steps] + rng.integers(time_steps // 2, time_steps, size=batch - 1).tolist()
    return Sequence.from_lengths(values, lengths)


def mismatch(y: Sequence, ref: Sequence):
    """None when y matches ref: same shape, identical masks, valid values within TOLERANCE."""
    if y.shape != ref.shape:
        return f"shape {y.shape} != {ref.shape}"
    if not np.array_equal(y.mask, ref.mask):
        return "masks differ"
    valid = y.expanded_mask()
    a = np.where(valid, y.values, 0).astype(np.float64)
    b = np.where(valid, ref.values, 0).astype(np.float64)
    finite = np.isfinite(a)
    if not np.array_equal(finite, np.isfinite(b)):
        return "non-finite values differ"
    worst = float(np.abs(a - b)[finite].max(initial=0.0))
    if worst > TOLERANCE:
        return f"max |diff| {worst:.3e} > {TOLERANCE:g}"
    return None


def identical(a, b) -> bool:
    """Bit-identical outputs: Sequences by values and mask, reports by their JSON."""
    if a is None or b is None:
        return a is b
    if isinstance(a, Sequence):
        return (
            a.shape == b.shape
            and np.array_equal(a.mask, b.mask)
            and a.values.tobytes() == b.values.tobytes()
        )
    return json.dumps(a.to_dict(), default=str) == json.dumps(b.to_dict(), default=str)


@contextlib.contextmanager
def root_timer(layer):
    """Times the root's step calls and counts the input steps of every root call.

    The only wrapper an untraced run installs: one pair of clock reads per
    root call, as instance attributes of the root, removed on exit.
    """
    samples = {"step_s": [], "input_steps": 0}
    depth = [0]

    def wrap(method):
        fn = getattr(layer, method)
        timed = method.startswith("step")

        def wrapper(x, *args, **kwargs):
            if depth[0]:
                return fn(x, *args, **kwargs)
            depth[0] += 1
            start = time.perf_counter()
            try:
                return fn(x, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                depth[0] -= 1
                samples["input_steps"] += x.batch_size * x.time
                if timed:
                    samples["step_s"].append(elapsed)

        return wrapper

    methods = ("layer", "layer_with_emits", "step", "step_with_emits")
    for method in methods:
        setattr(layer, method, wrap(method))
    try:
        yield samples
    finally:
        for method in methods:
            delattr(layer, method)


# -- host speed ------------------------------------------------------------------


def adjusted(fn):
    """Runs fn between two host-speed kernels: (result, wall seconds, scale factor)."""
    before = harness.host_kernel_s()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    after = harness.host_kernel_s()
    return result, elapsed, harness.speed_factor((before + after) / 2)


# -- one operation per spec ------------------------------------------------------


class Case:
    """One spec in one workload: its input, its untimed reference and its operation.

    Every attempt and failure is counted here. `op_seconds` (adjusted for
    host speed), `op_wall_seconds`, `op_input_steps` and, while a root timer
    is installed, `op_p90_s` (of the op's root step calls) hold one entry per
    operation since the last `reset()`. A battery operation is one
    verify_contract call; successive ones cycle through the harness seeds.
    """

    def __init__(self, workload, name, layer, input_spec, seed):
        self.name = name
        self.layer = layer
        self.input_spec = input_spec
        self.kind = workload.kind
        self.block = workload.block_mult * layer.block_size
        self.attempts = 0
        self.failures = []
        self.timer = None  # root_timer samples, when one is installed
        self.expect_pass = name != SABOTAGE_SPEC
        self.harness_seeds = [seed * BATTERY_SEEDS + i for i in range(BATTERY_SEEDS)]
        self.runs = 0
        self.reset()
        if self.kind != "battery":
            rng = np.random.default_rng([seed, ALL_SPECS.index(name)])
            self.x = make_input(rng, workload.batch, workload.time[name], input_spec)
            self.ref = self.reference()

    def reset(self):
        self.op_seconds = []
        self.op_wall_seconds = []
        self.op_input_steps = []
        self.op_p90_s = []

    def reference(self):
        """The untimed result the operation is checked against."""
        if self.kind == "stream":
            return self.layer.layer(self.x, training=False)
        return streaming.step_by_step(self.layer, self.x, training=False, block=self.block)

    def run(self):
        """Runs the operation once, checks it and returns its outputs."""
        gc.collect()
        steps_before = self.timer["input_steps"] if self.timer else 0
        calls_before = len(self.timer["step_s"]) if self.timer else 0
        outputs, elapsed, factor = adjusted(self._operation)
        self.op_seconds.append(elapsed * factor)
        self.op_wall_seconds.append(elapsed)
        self.runs += 1
        if self.timer:
            calls = self.timer["step_s"]
            calls[calls_before:] = [v * factor for v in calls[calls_before:]]
            if len(calls) - calls_before > 1:
                self.op_p90_s.append(p90(calls[calls_before:]))
        if self.kind == "battery":
            steps = self.timer["input_steps"] - steps_before if self.timer else 0
            self.op_input_steps.append(steps)
            return outputs
        self.op_input_steps.append(self.x.batch_size * self.x.time)
        problem = None if outputs[0] is None else mismatch(outputs[0], self.ref)
        if problem:
            self.failures.append(f"{self.name}: {problem}")
        return outputs

    def _operation(self):
        if self.kind == "battery":
            return [self.verify(self.harness_seeds[self.runs % len(self.harness_seeds)])]
        self.attempts += 1
        try:
            if self.kind == "stream":
                y = streaming.step_by_step(self.layer, self.x, training=False, block=self.block)
            else:
                y = self.layer.layer(self.x, training=False)
        except Exception as exc:  # a raising operation is a failed operation
            self.failures.append(f"{self.name}: raised {type(exc).__name__}: {exc}")
            return [None]
        return [y]

    def verify(self, harness_seed):
        """One verify_contract call, failed when it raises or its verdict is wrong."""
        self.attempts += 1
        try:
            report = verify.verify_contract(
                self.layer, self.input_spec, verify.HarnessConfig(seed=harness_seed)
            )
        except Exception as exc:  # a raising operation is a failed operation
            self.failures.append(f"verify {self.name}: raised {type(exc).__name__}: {exc}")
            return None
        if report.passed != self.expect_pass:
            verdict = "passed" if report.passed else f"failed {report.failed_checks}"
            self.failures.append(f"verify {self.name} (harness seed {harness_seed}): {verdict}")
        return report


# -- measurement -----------------------------------------------------------------


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them; a single value repeats."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def p90(values):
    """90th percentile, interpolated between order statistics (numpy's default)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class VerifyPass:
    """Every bundled spec verified once at one harness seed.

    The workloads other than contract_battery run this as one more timed
    operation, the source of their verify_s, and as a further correctness gate.
    """

    name = "verify_pass"

    def __init__(self, cases, harness_seed):
        self.cases = cases
        self.harness_seed = harness_seed
        self.spec_seconds = {}
        self.reset()

    def reset(self):
        self.op_seconds = []
        self.op_wall_seconds = []

    def run(self):
        """Verifies every spec, each call adjusted for host speed on its own."""
        gc.collect()
        outputs = []
        wall = 0.0
        for case in self.cases:
            report, elapsed, factor = adjusted(lambda: case.verify(self.harness_seed))
            outputs.append(report)
            self.spec_seconds[case.name] = elapsed * factor
            wall += elapsed
        self.op_seconds.append(sum(self.spec_seconds.values()))
        self.op_wall_seconds.append(wall)
        return outputs


class SetupProbe:
    """Set-up time of a fresh process: import seqstream, parse and build the specs.

    The probe times the host-speed kernel itself, after its set-up, so the
    adjustment measures the CPU the set-up ran on.
    """

    def __init__(self, names):
        self.command = [sys.executable, str(Path(__file__).resolve().parent / "setup_probe.py")]
        self.command += list(names)
        self.op_seconds = []
        self.op_wall_seconds = []

    def run(self):
        done = subprocess.run(self.command, capture_output=True, text=True, timeout=120, check=True)
        elapsed, kernel_s = (float(v) for v in done.stdout.split()[-2:])
        self.op_seconds.append(elapsed * harness.speed_factor(kernel_s))
        self.op_wall_seconds.append(elapsed)


def blas_threads():
    """Thread count the bundled OpenBLAS reports, or None when it cannot be asked."""
    lib_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(lib_dir.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed):
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def timed_rounds(ops, seconds, probe=None):
    """Closed loop for `seconds`, split into ROUNDS rounds. Each round starts
    with one set-up probe, when given. Then every op repeats for an equal
    share of the time left, and always at least once. Cheap specs so gather
    more samples, and the host's speed drift reaches every metric alike.

    Returns {op name: outputs of its last run}.
    """
    deadline = time.perf_counter() + seconds
    shares_left = ROUNDS * len(ops)
    outputs = {}
    for _ in range(ROUNDS):
        if probe is not None:
            probe.run()
        for op in ops:
            start = time.perf_counter()
            slice_s = max(0.0, deadline - start) / shares_left
            shares_left -= 1
            outputs[op.name] = op.run()
            while time.perf_counter() - start < slice_s:
                outputs[op.name] = op.run()
    return outputs


def one_round(ops):
    """One run of each op; returns {op name: outputs}."""
    return {op.name: op.run() for op in ops}


def run_workload(name, seed, seconds, trace, *, scale=1, substitute=None):
    """Runs one workload; returns (result, report).

    `scale` divides every input extent (the self-test runs tiny sizes);
    `substitute` maps a spec name to a layer that replaces the built one.
    """
    workload = WORKLOADS[name]
    if scale != 1:
        unit = 8 * workload.block_mult * 6  # a multiple of every spec's step block
        workload = dataclasses.replace(
            workload,
            time={k: max(unit, v // scale // unit * unit) for k, v in workload.time.items()},
        )
    built, parse_s, build_s = harness.build_specs(ALL_SPECS)
    for spec_name, layer in (substitute or {}).items():
        built[spec_name] = (layer, built[spec_name][1])

    timed_names = ALL_SPECS if workload.kind == "battery" else SPECS
    cases = [Case(workload, n, *built[n], seed) for n in timed_names]
    if workload.kind == "battery":
        verify_op = None
        involved = cases
    else:
        battery = WORKLOADS["contract_battery"]
        verify_cases = [Case(battery, n, *built[n], seed) for n in ALL_SPECS]
        verify_op = VerifyPass(verify_cases, seed)
        involved = cases + verify_cases

    report = {
        "workload": name,
        "environment": environment(seed),
        "run_seconds": seconds,
        "trace": trace,
        "parse_s": parse_s,
        "build_s": build_s,
    }
    if workload.kind != "battery":
        report["sizes"] = {
            c.name: {"batch": c.x.batch_size, "time": c.x.time, "block": c.block} for c in cases
        }
    one_round(cases)  # warm-up: checked, not reported
    for case in cases:
        case.reset()
    if trace:
        metrics, identical_outputs = traced_run(workload, cases, verify_op, seconds, report)
        metrics["pipeline.parse_s"] = parse_s
        metrics["pipeline.build_s"] = build_s
    else:
        metrics = untraced_run(workload, cases, verify_op, seconds, report)
        identical_outputs = True
    failures = [f for c in involved for f in c.failures]
    attempted = sum(c.attempts for c in involved)
    report["failures"] = failures[:20]
    if not trace:
        metrics["success_ratio"] = 1 - len(failures) / attempted
    result = {
        "correct": identical_outputs and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, report


def untraced_run(workload, cases, verify_op, seconds, report):
    probe = SetupProbe(ALL_SPECS)
    ops = cases + ([verify_op] if verify_op else [])
    timers = {}
    with contextlib.ExitStack() as stack:
        for case in cases:
            case.timer = timers[case.name] = stack.enter_context(root_timer(case.layer))
        timed_rounds(ops, seconds, probe)
        for case in cases:
            case.timer = None

    metrics = {"setup_s": statistics.median(probe.op_seconds)}
    report["setup_s_samples"] = probe.op_seconds
    report["setup_s_wall_samples"] = probe.op_wall_seconds
    report["specs"] = {}
    for case in cases:
        if case.name == SABOTAGE_SPEC:
            continue
        rates = [s / t for s, t in zip(case.op_input_steps, case.op_seconds)]
        # The root call is step() on the stream workloads. Each of their ops
        # makes at least 128 of them, so the p90 is taken per op (over 12 or
        # more samples beyond it) and the median over ops, which keeps a burst
        # of host load in one op out of the tail. Battery ops make only tens
        # of tiny step() calls, so there the p90 is over all of the run's.
        # Offline the root call is the op's one layer() call: p90 over ops.
        if workload.kind == "offline":
            latencies = case.op_seconds
            tail = p90(latencies)
        else:
            latencies = timers[case.name]["step_s"]
            tail = statistics.median(case.op_p90_s) if case.kind == "stream" else p90(latencies)
        q1, median, q3 = quartiles(rates)
        metrics[f"{case.name}.steps_per_s"] = median
        metrics[f"{case.name}.step_p90_us"] = tail * 1e6
        report["specs"][case.name] = {
            "ops": len(rates),
            "op_seconds": case.op_seconds,
            "op_wall_seconds": case.op_wall_seconds,
            "wall_steps_per_s_median": statistics.median(
                s / t for s, t in zip(case.op_input_steps, case.op_wall_seconds)
            ),
            "steps_per_s": {"q1": q1, "median": median, "q3": q3},
            "root_call_median_us": statistics.median(latencies) * 1e6,
            "root_call_p90_us": tail * 1e6,
            "root_call_samples": len(latencies),
            "root_call_samples_beyond_p90": sum(1 for v in latencies if v > tail),
        }
    if verify_op is None:
        # one battery pass: every spec at every harness seed, each call at its median
        metrics["verify_s"] = BATTERY_SEEDS * sum(statistics.median(c.op_seconds) for c in cases)
    else:
        metrics["verify_s"] = statistics.median(verify_op.op_seconds)
        report["verify_s_samples"] = verify_op.op_seconds
        report["verify_s_wall_samples"] = verify_op.op_wall_seconds
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def traced_run(workload, cases, verify_op, seconds, report):
    """Untraced rounds, then traced rounds; returns (per-layer metrics, outputs identical).

    The per-layer metrics come from the first traced round, its references
    and a traced verify pass; the overhead compares the median traced op
    with the median untraced op, spec by spec.
    """
    untraced = timed_rounds(cases, seconds)
    untraced_s = sum(statistics.median(c.op_seconds) for c in cases)
    for case in cases:
        if case.kind == "battery":
            case.runs -= 1  # the traced call repeats the last untraced harness seed
    untraced_refs = {c.name: c.ref for c in cases if c.kind != "battery"}

    tracer = Tracer()
    work = Stats()
    checks = Stats() if verify_op else work
    roots = [c.layer for c in cases] + ([c.layer for c in verify_op.cases] if verify_op else [])
    with tracer.installed(list({id(r): r for r in roots}.values())):
        with tracer.collect(work):
            traced = one_round(cases)
            traced_refs = {c.name: c.reference() for c in cases if c.name in untraced_refs}
        if verify_op is None:
            contract_s = {case.name: case.op_seconds[-1] for case in cases}
        else:
            with tracer.collect(checks):
                verify_op.run()
            contract_s = verify_op.spec_seconds
        with tracer.collect(Stats()):  # more traced rounds, for the overhead only
            for _ in range(TRACED_ROUNDS - 1):
                one_round(cases)
    traced_s = sum(statistics.median(c.op_seconds[-TRACED_ROUNDS:]) for c in cases)

    mismatched = [
        name
        for name in traced
        if not all(identical(a, b) for a, b in zip(untraced[name], traced[name]))
        or (name in untraced_refs and not identical(untraced_refs[name], traced_refs[name]))
    ]
    report["traced_vs_untraced_identical"] = {name: name not in mismatched for name in traced}
    report["untraced_pass_s"] = untraced_s
    report["traced_pass_s"] = traced_s
    report["tracing_overhead_s"] = traced_s - untraced_s
    report["tracing_overhead_ratio"] = traced_s / untraced_s - 1
    report["nodes"] = work.node_breakdown()
    if checks is not work:
        report["verify_nodes"] = checks.node_breakdown()

    metrics = layer_metrics(work, checks)
    for name in ALL_SPECS:
        metrics[f"verify.contract_s.{name}"] = contract_s[name]
    metrics["trace.overhead_s"] = report["tracing_overhead_s"]
    return metrics, not mismatched


def layer_metrics(work: Stats, checks: Stats) -> dict:
    """Per-layer metrics: node metrics from `work`, battery metrics from `checks`."""

    def seconds(category, mode):
        return sum(n.self_s[mode] for n in work.nodes.values() if n.category == category)

    metrics = {
        "streaming.driver_self_s": work.seconds["driver_self"],
        "streaming.valid_fraction": work.counts["root_valid_steps"]
        / max(1, work.counts["root_emitted_steps"]),
        "combinators.step_self_s": seconds("combinators", "step"),
        "combinators.layer_self_s": seconds("combinators", "layer"),
        "combinators.metadata_calls": work.counts["combinator_metadata_calls"],
        "attention.step_s": seconds("attention", "step"),
        "attention.layer_s": seconds("attention", "layer"),
        "attention.state_bytes": sum(
            n.state_bytes for n in work.nodes.values() if n.category == "attention"
        ),
    }
    for category in ("temporal.conv1d", "temporal.conv1d_transpose", "recurrent.lstm", "dense"):
        metrics[f"{category}.step_s"] = seconds(category, "step")
        metrics[f"{category}.layer_s"] = seconds(category, "layer")
    metrics["sequence.constructions"] = work.counts["sequence_constructions"]
    metrics["sequence.init_s"] = work.seconds["sequence_init"]
    metrics["tensor.tensor_calls"] = work.counts["tensor_calls"]
    metrics["verify.layer_calls"] = checks.counts["root_layer_calls"]
    metrics["verify.step_calls"] = checks.counts["root_step_calls"]
    metrics["receptive_field.map_calls"] = checks.counts["rf_map_calls"]
    return metrics


# -- output ----------------------------------------------------------------------


def benchmark_metrics(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    config = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in config["per_layer" if trace else "end_to_end"]}


def emit(result, report, trace):
    units = benchmark_metrics(trace)
    produced = result["metrics"]
    if set(produced) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(produced))}, "
            f"extra {sorted(set(produced) - set(units))}"
        )
    print(f"workload {report['workload']}  environment {json.dumps(report['environment'])}")
    for name, spec in report.get("specs", {}).items():
        rate = spec["steps_per_s"]
        print(
            f"  {name:18} {rate['median']:12.1f} steps/s (q1 {rate['q1']:.1f}, q3 {rate['q3']:.1f},"
            f" {spec['ops']} ops)  root call p90 {spec['root_call_p90_us']:.1f} us"
            f" (n={spec['root_call_samples']}, {spec['root_call_samples_beyond_p90']} beyond)"
        )
    for name in units:
        print(f"  {name:36} {produced[name]:.6g} {units[name]}")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    print("report " + json.dumps(report, default=str))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": produced[k], "unit": units[k]} for k in units},
            }
        )
    )


#: input extents of the ROADMAP baseline table (batch 4)
TABLE_TIME = {
    "conv_stack": 4800,
    "streaming_encoder": 1024,
    "transformer_block": 256,
    "mixed_resample": 4800,
}


def median_call_s(fn, repeats):
    """(median wall seconds of `repeats` calls of fn, its last result)."""
    samples = []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        out = fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), out


def baseline_table(seed):
    """The ROADMAP baseline table's columns, medians of repeated calls, each output checked."""
    built, _, _ = harness.build_specs(SPECS)
    print(f"environment {json.dumps(environment(seed))}")
    print("| spec | B x T | block | layer() | step @block | us / input step | step @8xblock |")
    print("|---|---|---|---|---|---|---|")
    ok = True
    for name in SPECS:
        layer, input_spec = built[name]
        rng = np.random.default_rng([seed, ALL_SPECS.index(name)])
        x = make_input(rng, 4, TABLE_TIME[name], input_spec)
        layer_s, ref = median_call_s(lambda: layer.layer(x, training=False), 5)
        cols = [f"{layer_s * 1e3:.1f} ms"]
        for mult in (1, 8):
            block = mult * layer.block_size
            step_s, y = median_call_s(
                lambda: streaming.step_by_step(layer, x, training=False, block=block), 3
            )
            problem = mismatch(y, ref)
            if problem:
                ok = False
                print(f"FAILED {name} at block {block}: {problem}")
            cols.append(f"{step_s * 1e3:.1f} ms")
            if mult == 1:
                cols.append(f"{step_s / x.time * 1e6:.1f}")
        print(f"| {name} | 4 x {x.time} | {layer.block_size} | " + " | ".join(cols) + " |")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--table", action="store_true", help="print the ROADMAP baseline table")
    args = parser.parse_args(argv)
    if args.table:
        return 0 if baseline_table(args.seed) else 1
    if args.workload is None:
        parser.error("--workload is required unless --table is given")
    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    emit(result, report, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
