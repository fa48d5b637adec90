"""Contract-compliance battery for sequence layers.

``verify_contract`` runs every check a conforming layer must satisfy:

1.  layer_step_equal_1x - step at block_size reproduces layer() after the
    flush/trim latency protocol;
2.  layer_step_equal_2x - same at 2 x block_size;
3.  metadata_consistency - measured output lengths, output spec, block
    divisibility enforcement, and measured output latency match the
    declared properties;
4.  receptive_field_empirical - perturbation probing confirms the declared
    per-step receptive field (containment always; endpoint attainment for
    finite bounds; probing is capped for unbounded fields);
5.  batching_invariance - shuffling batch rows and inserting all-invalid
    rows permutes/extends outputs without changing valid positions;
6.  padding_invariance - extra end padding and poisoned invalid values
    (NaN / 10^9 / flipped bools) leave valid outputs untouched;
7.  emits_consistency - emits carry a stable tree structure and the primary
    outputs match the emit-free paths;
8.  rng_equivalence - stochastic layers reproduce layer() step-wise when
    started from the same RNG counter.

The checks share one random input, its layer() outputs and one flushed step
run per (block multiple, training, poisoned input): 1, 2, 6 and 8 compare
trimmed runs, 3 measures latency on the raw 1x eval run and 7 reads its step
emits. A deterministic layer is stepped three times, a stochastic one five.

Gradient equality between layer and step is intentionally not verified
(no autodiff here); every report carries a permanently skipped
``gradient_equivalence`` entry so the omission is visible.

Failures land in the returned report, never as exceptions.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from collections.abc import Mapping

import numpy as np

from .errors import BlockSizeError
from .layer import SequenceLayer, poison_invalid
from .receptive_field import format_rf, rf_at
from .sequence import ChannelSpec, Sequence
# the step drivers stay importable here: perfbench/tracer.py patches them by these names
from .streaming import _flushed, step_by_step, stream_blocks  # noqa: F401

CHECK_NAMES = (
    "layer_step_equal_1x",
    "layer_step_equal_2x",
    "metadata_consistency",
    "receptive_field_empirical",
    "batching_invariance",
    "padding_invariance",
    "emits_consistency",
    "rng_equivalence",
    "gradient_equivalence",
)


@dataclasses.dataclass
class CheckResult:
    name: str
    status: str  # pass | fail | skipped
    detail: str = ""
    metrics: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class ContractReport:
    layer_name: str
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return not any(c.status == "fail" for c in self.checks)

    @property
    def failed_checks(self) -> list[str]:
        return [c.name for c in self.checks if c.status == "fail"]

    def render(self) -> str:
        lines = [f"contract report for {self.layer_name}:"]
        for c in self.checks:
            tag = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[c.status]
            detail = f"  {c.detail}" if c.detail else ""
            lines.append(f"{tag}  {c.name}{detail}")
        verdict = "PASSED" if self.passed else "FAILED"
        lines.append(f"result: {verdict}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "layer": self.layer_name,
            "passed": self.passed,
            "checks": [dataclasses.asdict(c) for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, default=str)


#: max |layer - step| at any valid position; the contract's bound, never loosened
TOLERANCE = 1e-6
#: smallest perturbation the receptive-field probe applies
EPSILON = 1e-3
#: how far an unbounded receptive field is probed on each side
PROBE_CAP = 16
#: batch rows of every test input
BATCH = 2


@dataclasses.dataclass(frozen=True)
class HarnessConfig:
    """Seeds every random input and probe pattern the battery draws."""

    seed: int = 0


def _auto_time(layer: SequenceLayer) -> int:
    """A multiple of 2 x block_size covering latency and one RF period."""
    block = layer.block_size
    rf = layer.receptive_field
    extent = 0
    if rf is not None:
        lo = rf[0] if math.isfinite(rf[0]) else -PROBE_CAP
        hi = rf[1] if math.isfinite(rf[1]) else PROBE_CAP
        extent = int(hi - lo + 1)
    period_inputs = math.ceil(len(layer.receptive_field_per_step) / layer.output_ratio)
    base = max(
        24,
        2 * block,
        layer.input_latency + 2 * block,
        extent + 4,
        period_inputs + 4,
    )
    unit = 2 * block
    return ((base + unit - 1) // unit) * unit


def _random_input(
    layer, input_spec: ChannelSpec, cfg: HarnessConfig, full=False, time=None
) -> Sequence:
    rng = np.random.default_rng(cfg.seed)
    time = _auto_time(layer) if time is None else time
    shape = (BATCH, time) + input_spec.shape
    if input_spec.dtype.kind == "f":
        values = rng.uniform(-0.5, 0.5, shape).astype(np.float32)
    elif input_spec.dtype.kind == "i":
        values = rng.integers(-5, 6, shape).astype(np.int32)
    else:
        values = rng.integers(0, 2, shape).astype(np.bool_)
    if full or time < 4:
        return Sequence.from_values(values)
    lengths = [time] + [
        int(v) for v in rng.integers(max(1, time // 2), time, size=BATCH - 1)
    ]
    return Sequence.from_lengths(values, lengths)


def compare(a: Sequence, b: Sequence, tolerance: float, context: str):
    """(failure description or None, metrics): shapes, masks, finiteness and
    the max difference at valid positions."""
    if a.shape != b.shape:
        return f"{context}: shapes differ {a.shape} vs {b.shape}", {}
    if not np.array_equal(np.asarray(a.mask), np.asarray(b.mask)):
        where = np.argwhere(np.asarray(a.mask) != np.asarray(b.mask))[0]
        return f"{context}: masks differ first at (b={where[0]}, t={where[1]})", {}
    av = np.asarray(a.mask_invalid().values)
    bv = np.asarray(b.mask_invalid().values)
    if av.dtype.kind == "f":
        finite = np.isfinite(av) & np.isfinite(bv)
        if not np.array_equal(np.isfinite(av), np.isfinite(bv)):
            return f"{context}: non-finite values differ", {}
        diff = np.abs(av.astype(np.float64) - bv.astype(np.float64))
        diff = np.where(finite, diff, 0.0)
        max_diff = float(diff.max()) if diff.size else 0.0
        if max_diff > tolerance:
            coord = np.unravel_index(int(diff.argmax()), diff.shape)
            return (
                f"{context}: max |diff| {max_diff:.3e} > {tolerance:g} first at {coord}",
                {"max_diff": max_diff},
            )
        return None, {"max_diff": max_diff}
    if not np.array_equal(av, bv):
        coord = np.argwhere(av != bv)[0]
        return f"{context}: integer values differ first at {tuple(coord)}", {}
    return None, {"max_diff": 0.0}


def _leading_invalid(seq: Sequence) -> int:
    any_valid = np.asarray(seq.mask).any(axis=0)
    nz = np.flatnonzero(any_valid)
    return int(nz[0]) if nz.size else seq.time


def _check_equivalence(layer_out, flushed, blocks: int, training: bool):
    return compare(
        layer_out(training), flushed(blocks, training)[0], TOLERANCE, f"blocks={blocks}x"
    )


def _probe_dependencies(layer, input_spec, cfg, constants):
    """Boolean [input_time, output_time] matrix of measured dependence.

    Probes every input step with perturbations of +epsilon and +/-1 scaled
    by a fixed non-constant channel pattern (a channel-uniform bump would be
    invisible to shift-invariant maps like softmax). One batched layer()
    call per perturbation size: probe row u carries the bump at input step u.
    """
    x = _random_input(layer, input_spec, cfg, full=True)[0:1, :]
    time = x.time
    base_constants = _take_rows(constants, np.zeros(1, int))
    y_base = layer.layer(x, training=False, constants=base_constants).mask_invalid()
    out_time = y_base.time
    threshold = 10 * TOLERANCE

    pattern_rng = np.random.default_rng(cfg.seed + 7)
    pattern = pattern_rng.uniform(0.5, 1.5, input_spec.shape)
    pattern *= pattern_rng.choice([-1.0, 1.0], size=input_spec.shape)

    changed = np.zeros((time, out_time), dtype=bool)
    base_values = np.asarray(x.values)
    probe_constants = _take_rows(constants, np.zeros(time, int))
    for delta in (EPSILON, 1.0, -1.0):
        tiled = np.repeat(base_values, time, axis=0).copy()
        bump = (delta * pattern).astype(tiled.dtype)
        for u in range(time):
            tiled[u, u] = tiled[u, u] + bump
        probe = Sequence.from_values(tiled)
        y = layer.layer(probe, training=False, constants=probe_constants).mask_invalid()
        diff = np.abs(
            np.asarray(y.values, np.float64) - np.asarray(y_base.values, np.float64)
        )
        diff = diff.reshape(time, out_time, -1).max(axis=2)
        changed |= diff > threshold
    return changed, time, out_time


def _take_rows(value, rows, invalid_rows: int = 0):
    """Batch rows ``rows`` of a Sequence, then ``invalid_rows`` all-invalid
    zero rows. A constants mapping gets this per Sequence entry; any other
    value is returned as it is."""
    if isinstance(value, Mapping):
        return {key: _take_rows(v, rows, invalid_rows) for key, v in value.items()}
    if not isinstance(value, Sequence):
        return value
    taken = value.take_batch(rows)
    if not invalid_rows:
        return taken
    return Sequence(
        np.concatenate([taken.values, np.zeros((invalid_rows,) + value.shape[1:], value.dtype)]),
        np.concatenate([taken.mask, np.zeros((invalid_rows, value.time), bool)]),
    )


def empirical_receptive_field(
    layer: SequenceLayer,
    input_spec: ChannelSpec,
    cfg: HarnessConfig | None = None,
    constants=None,
) -> dict:
    """Measured per-step receptive field via perturbation probing.

    For each output step class, returns the minimal interval (in absolute
    input steps for the first period, matching receptive_field_per_step
    semantics) covering every input whose perturbation moves any output
    element by more than 10 x tolerance. Probing covers one test sequence;
    dependence reaching the probe window edge is reported as-is, so
    unbounded fields appear clipped, never proven.
    """
    cfg = cfg or HarnessConfig()
    measured = dict.fromkeys(range(len(layer.receptive_field_per_step)))
    for s, mid, deps in _probe_step_classes(layer, input_spec, cfg, constants)[0]:
        if deps.size:
            anchor_shift = (mid - s) / layer.output_ratio
            measured[s] = (int(deps.min() - anchor_shift), int(deps.max() - anchor_shift))
    return measured


def _probe_step_classes(layer, input_spec, cfg, constants):
    """Probes once. Returns, for each output step class the probe emits,
    (class, its middle output step, the input steps measured to move that
    step), and the probe's input time."""
    period = len(layer.receptive_field_per_step)
    changed, time, out_time = _probe_dependencies(layer, input_spec, cfg, constants)
    picks = []
    for s in range(period):
        candidates = range(s, out_time, period)
        if candidates:
            mid = candidates[len(candidates) // 2]  # away from the edges
            picks.append((s, mid, np.flatnonzero(changed[:, mid])))
    return picks, time


def _check_receptive_field(layer, input_spec, cfg, constants):
    picks, time = _probe_step_classes(layer, input_spec, cfg, constants)
    metrics = {}
    for s, mid, deps in picks:
        declared = rf_at(layer.receptive_field_per_step, layer.output_ratio, mid)
        metrics[f"step_{s}"] = {
            "declared": format_rf(declared),
            "measured": f"[{deps.min()}, {deps.max()}]" if deps.size else "None",
        }
        if declared is None:
            if deps.size:
                return (
                    f"step class {s} (t_o={mid}): declared no dependence but inputs "
                    f"{deps.tolist()} change the output",
                    metrics,
                )
            continue
        lo = declared[0] if math.isfinite(declared[0]) else -math.inf
        hi = declared[1] if math.isfinite(declared[1]) else math.inf
        outside = [int(u) for u in deps if u < lo or u > hi]
        if outside:
            return (
                f"step class {s} (t_o={mid}): inputs {outside} influence the output "
                f"outside declared {format_rf(declared)}",
                metrics,
            )
        clipped_lo = max(lo, 0)
        clipped_hi = min(hi, time - 1)
        if math.isfinite(lo):
            if deps.size == 0 or deps.min() != clipped_lo:
                return (
                    f"step class {s} (t_o={mid}): declared start {format_rf(declared)} "
                    f"not attained (measured {deps.tolist() if deps.size else 'none'})",
                    metrics,
                )
        else:
            # unbounded: dependence must reach at least 8 steps back
            reach = mid / layer.output_ratio - 8
            if deps.size == 0 or deps.min() > max(reach, 0):
                return (
                    f"step class {s} (t_o={mid}): declared unbounded past but no "
                    f"dependence beyond distance 8",
                    metrics,
                )
        if math.isfinite(hi):
            if deps.size == 0 or deps.max() != clipped_hi:
                return (
                    f"step class {s} (t_o={mid}): declared end {format_rf(declared)} "
                    f"not attained (measured {deps.tolist() if deps.size else 'none'})",
                    metrics,
                )
    return None, metrics


def _check_metadata(layer, input_spec, cfg, constants, x, layer_out, flushed):
    props = layer.properties  # validates internal consistency
    block = props.block_size
    metrics = {
        "output_ratio": str(props.output_ratio),
        "block_size": block,
        "input_latency": props.input_latency,
        "output_latency": props.output_latency,
    }
    for time in (block, 2 * block, 3 * block, 2 * block + 1):
        xt = _random_input(layer, input_spec, cfg, time=time)
        y = layer.layer(xt, training=False, constants=constants)
        expected_time = layer.output_time(time)
        if y.time != expected_time:
            return (
                f"layer() produced {y.time} steps for {time} inputs, "
                f"output_time predicts {expected_time}",
                metrics,
            )
        declared_spec = layer.get_output_spec(xt.channel_spec, constants)
        if y.channel_spec != declared_spec:
            return (
                f"output spec {y.channel_spec} does not match get_output_spec "
                f"{declared_spec}",
                metrics,
            )
    if not props.supports_step:
        return None, metrics
    if block > 1:
        state = layer.get_initial_state(
            x.batch_size, x.channel_spec, training=False, constants=constants
        )
        try:
            layer.step(x[:, : block + 1], state, training=False, constants=constants)
            return f"step() accepted {block + 1} steps with block_size {block}", metrics
        except BlockSizeError:
            pass
    y = layer_out(False)
    raw = flushed(1, False)[1]
    measured = _leading_invalid(raw) - _leading_invalid(y)
    if measured != props.output_latency:
        return (
            f"measured output latency {measured} != declared {props.output_latency}",
            metrics,
        )
    metrics["measured_output_latency"] = measured
    return None, metrics


def _check_batching(layer, cfg, constants, x, layer_out):
    y = layer_out(False)
    rng = np.random.default_rng(cfg.seed + 1)
    perm = rng.permutation(x.batch_size)
    augmented = _take_rows(x, perm, invalid_rows=1)
    # batch-aligned constants travel with their rows
    constants2 = _take_rows(constants, perm, invalid_rows=1)
    y2 = layer.layer(augmented, training=False, constants=constants2)
    if np.asarray(y2.mask)[-1].any():
        return "an all-invalid batch row produced valid outputs", {}
    failure, metrics = compare(
        y.take_batch(perm), y2.take_batch(np.arange(x.batch_size)), TOLERANCE, "shuffled batch"
    )
    return failure, metrics


def _check_padding(layer, constants, x, layer_out, flushed):
    y = layer_out(False)
    # (a) extra end padding
    extra = 2 * layer.block_size
    padded = x.pad_time(0, extra, valid=False)
    y_padded = layer.layer(padded, training=False, constants=constants)
    failure, _ = compare(y, y_padded[:, : y.time], TOLERANCE, "extra end padding")
    if failure:
        return failure, {}
    # (b) poisoned invalid values, layer-wise and step-wise
    poisoned = poison_invalid(x)
    y_poison = layer.layer(poisoned, training=False, constants=constants)
    failure, metrics = compare(y, y_poison, TOLERANCE, "poisoned layer()")
    if failure:
        return failure, metrics
    if layer.supports_step:
        ys = flushed(1, False)[0]
        ys_poison = flushed(1, False, poisoned=True)[0]
        failure, metrics = compare(ys, ys_poison, TOLERANCE, "poisoned step()")
        if failure:
            return failure, metrics
    return None, metrics


def _tree_signature(emits):
    if isinstance(emits, Sequence):
        return ("seq", emits.channel_shape, str(emits.dtype))
    if isinstance(emits, np.ndarray):
        return ("arr", emits.ndim, str(emits.dtype))
    if isinstance(emits, tuple):
        return tuple(_tree_signature(e) for e in emits)
    if isinstance(emits, dict):
        return {k: _tree_signature(v) for k, v in sorted(emits.items())}
    return ("leaf", type(emits).__name__)


def _check_emits(layer, constants, x, layer_out, flushed):
    y_plain = layer_out(False)
    y_emits, emits = layer.layer_with_emits(x, training=False, constants=constants)
    failure, _ = compare(y_plain, y_emits, TOLERANCE, "layer vs layer_with_emits")
    if failure:
        return failure, {}
    sig_layer = _tree_signature(emits)
    _, emits_again = layer.layer_with_emits(x, training=False, constants=constants)
    if _tree_signature(emits_again) != sig_layer:
        return "emits structure changed between identical layer calls", {}
    if layer.supports_step:
        sig_step = _tree_signature(flushed(1, False)[2])
        if sig_step != sig_layer:
            return (
                f"emits structure differs between layer ({sig_layer}) and step ({sig_step})",
                {},
            )
    return None, {"structure": str(sig_layer)}


def verify_contract(
    layer: SequenceLayer,
    input_spec: ChannelSpec,
    config: HarnessConfig | None = None,
    constants=None,
) -> ContractReport:
    """Runs the full compliance battery; failures are reported, not raised."""
    cfg = config or HarnessConfig()
    checks: list[CheckResult] = []

    def run(name, fn, *, skip_reason=None):
        if skip_reason:
            checks.append(CheckResult(name, "skipped", skip_reason))
            return
        try:
            failure, metrics = fn()
        except Exception as exc:  # a crash is a failed check, not a crashed harness
            checks.append(CheckResult(name, "fail", f"raised {type(exc).__name__}: {exc}"))
            return
        if failure:
            checks.append(CheckResult(name, "fail", failure, metrics))
        else:
            checks.append(CheckResult(name, "pass", "", metrics))

    steppable = layer.supports_step
    step_skip = None if steppable else "layer does not support stepping"
    # the checks share one input, its layer() outputs and its flushed step
    # runs; a call that raises is not cached, so it fails every check that
    # needs it
    x = _random_input(layer, input_spec, cfg)

    @functools.cache
    def layer_out(training):
        return layer.layer(x, training=training, constants=constants)

    @functools.cache
    def flushed(blocks, training, poisoned=False):
        return _flushed(
            layer,
            poison_invalid(x) if poisoned else x,
            training=training,
            block=blocks * layer.block_size,
            constants=constants,
        )

    run(
        "layer_step_equal_1x",
        lambda: _check_equivalence(layer_out, flushed, 1, False),
        skip_reason=step_skip,
    )
    run(
        "layer_step_equal_2x",
        lambda: _check_equivalence(layer_out, flushed, 2, False),
        skip_reason=step_skip,
    )
    run(
        "metadata_consistency",
        lambda: _check_metadata(layer, input_spec, cfg, constants, x, layer_out, flushed),
    )
    run(
        "receptive_field_empirical",
        lambda: _check_receptive_field(layer, input_spec, cfg, constants),
    )
    run(
        "batching_invariance",
        lambda: _check_batching(layer, cfg, constants, x, layer_out),
    )
    run("padding_invariance", lambda: _check_padding(layer, constants, x, layer_out, flushed))
    run("emits_consistency", lambda: _check_emits(layer, constants, x, layer_out, flushed))

    if not layer.is_stochastic:
        run("rng_equivalence", None, skip_reason="deterministic layer")
    elif not steppable:
        run("rng_equivalence", None, skip_reason=step_skip)
    else:

        def rng_check():
            for blocks in (1, 2):
                failure, metrics = _check_equivalence(layer_out, flushed, blocks, True)
                if failure:
                    return f"training=True {failure}", metrics
            return None, metrics

        run("rng_equivalence", rng_check)

    checks.append(
        CheckResult(
            "gradient_equivalence",
            "skipped",
            "gradient equality of layer and step is out of scope (no autodiff)",
        )
    )
    return ContractReport(layer.name, checks)
