"""Receptive-field intervals and their composition algebra.

A receptive field is ``None`` (the output step depends on no input) or a
``(start, end)`` pair of input-step bounds; bounds are integers or ±inf.

Layers whose dependence pattern repeats every ``n`` output steps carry a
per-step map ``{s: rf}`` for ``s in range(n)``. Each entry holds the
*absolute* input-step interval influencing output step ``s`` within the
first period; the interval for any other output step follows by shifting
whole periods through the layer's output ratio (:func:`rf_at`).

Invariant: a map's period is a positive multiple of the numerator of the
layer's output ratio (in lowest terms), so period shifts always land on an
integral number of input steps.

The overall receptive field of a layer is the union over step classes of
the interval re-anchored at ``t_i = s // output_ratio`` (:func:`rf_overall`):
it bounds the inputs ``[t_i + start, t_i + end]`` affecting any output step.
"""

from __future__ import annotations

import math
from fractions import Fraction

RF = "tuple[int | float, int | float] | None"


def validate_rf(rf) -> None:
    if rf is None:
        return
    start, end = rf
    if start > end:
        raise ValueError(f"receptive field start {start} > end {end}")


def validate_rf_per_step(rf_per_step: dict) -> None:
    if not rf_per_step:
        raise ValueError("empty receptive field map")
    if sorted(rf_per_step) != list(range(len(rf_per_step))):
        raise ValueError(f"receptive field map keys must be 0..n-1, got {sorted(rf_per_step)}")
    for rf in rf_per_step.values():
        validate_rf(rf)


def rf_union(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a[0], b[0]), max(a[1], b[1])


def _shift(rf, offset: int):
    if rf is None:
        return None
    return rf[0] + offset, rf[1] + offset


def rf_at(rf_per_step: dict, output_ratio: Fraction, step: int):
    """Absolute input interval affecting output step ``step``.

    ``step`` may be any integer; it is reduced into the map's period and the
    interval is shifted back by the corresponding number of input steps.
    """
    period = len(rf_per_step)
    normalized = step % period
    shift = (step - normalized) / output_ratio
    if shift.denominator != 1:
        raise ValueError(
            f"map period {period} incompatible with output ratio {output_ratio}"
        )
    return _shift(rf_per_step[normalized], int(shift))


def rf_overall(rf_per_step: dict, output_ratio: Fraction):
    """Union of per-step intervals re-anchored at each step's input anchor."""
    validate_rf_per_step(rf_per_step)
    out = None
    for step, rf in rf_per_step.items():
        if rf is None:
            continue
        anchor = step // output_ratio
        out = rf_union(out, _shift(rf, -int(anchor)))
    return out


def _map_period(ratio: Fraction, *lengths: int) -> int:
    return math.lcm(ratio.numerator, *lengths)


def _span_union(rf_per_step: dict, ratio: Fraction, lo, hi):
    """Union of rf_at over all integer steps in [lo, hi]; bounds may be ±inf.

    Shifting a step by one period shifts its interval later, so the union
    starts within the span's first period and ends within its last; an
    infinite span bound is the union's bound. Whether a step depends on any
    input repeats with the period, so one period decides an empty union.
    """
    period = len(rf_per_step)
    first = int(lo) if math.isfinite(lo) else int(hi) - period + 1 if math.isfinite(hi) else 0
    last = int(hi) if math.isfinite(hi) else first + period - 1
    head = [rf_at(rf_per_step, ratio, u) for u in range(first, min(first + period, last + 1))]
    tail = [rf_at(rf_per_step, ratio, u) for u in range(max(last - period + 1, first), last + 1)]
    starts = [rf[0] for rf in head if rf is not None]
    if not starts:
        return None
    ends = [rf[1] for rf in tail if rf is not None]
    return (min(starts) if math.isfinite(lo) else lo), (max(ends) if math.isfinite(hi) else hi)


def compose_rf_maps(
    first_map: dict,
    first_ratio: Fraction,
    second_map: dict,
    second_ratio: Fraction,
) -> dict:
    """Per-step map of ``second`` applied after ``first``.

    For each output step of the composition, the second layer's interval
    names the intermediate steps consulted; the result is the union of the
    first layer's intervals over those intermediate steps.
    """
    validate_rf_per_step(first_map)
    validate_rf_per_step(second_map)
    composed_ratio = first_ratio * second_ratio
    period = _map_period(composed_ratio, len(second_map), second_ratio.numerator)
    out = {}
    for s in range(period):
        mid = rf_at(second_map, second_ratio, s)
        if mid is None:
            out[s] = None
            continue
        out[s] = _span_union(first_map, first_ratio, mid[0], mid[1])
    return out


def union_rf_maps(maps: "list[dict]", ratios: "list[Fraction]") -> dict:
    """Pointwise union of per-step maps over a common period (parallel paths)."""
    if len(set(ratios)) != 1:
        raise ValueError(f"union requires equal output ratios, got {ratios}")
    ratio = ratios[0]
    period = _map_period(ratio, *(len(m) for m in maps))
    out = {}
    for s in range(period):
        rf = None
        for m in maps:
            rf = rf_union(rf, rf_at(m, ratio, s))
        out[s] = rf
    return out


def reverse_rf_map(rf_per_step: dict) -> dict:
    """Map of a layer applied to time-reversed input (ratio-1, period-1 only)."""
    if len(rf_per_step) != 1:
        raise ValueError("time reversal is only defined for period-1 receptive fields")
    rf = rf_per_step[0]
    if rf is None:
        return {0: None}
    return {0: (-rf[1], -rf[0])}


def serial_rf_map(maps: "list[dict]", ratios: "list[Fraction]") -> dict:
    """Left-to-right fold of compose_rf_maps over a chain of layers."""
    if not maps:
        return {0: (0, 0)}
    acc_map, acc_ratio = maps[0], ratios[0]
    for m, r in zip(maps[1:], ratios[1:]):
        acc_map = compose_rf_maps(acc_map, acc_ratio, m, r)
        acc_ratio = acc_ratio * r
    return acc_map


def format_rf(rf) -> str:
    if rf is None:
        return "None"

    def fmt(v):
        if v == -math.inf:
            return "-inf"
        if v == math.inf:
            return "inf"
        return str(int(v))

    return f"({fmt(rf[0])}, {fmt(rf[1])})"


def format_rf_map(rf_per_step: dict) -> str:
    inner = ", ".join(f"{s}: {format_rf(rf)}" for s, rf in sorted(rf_per_step.items()))
    return "{" + inner + "}"
