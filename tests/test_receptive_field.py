"""Receptive-field algebra: shifting, reduction, and serial composition.

The composition cases mirror the conv/transpose-conv regression values that
the temporal layers must reproduce; here they are exercised directly on
hand-built per-step maps.
"""

import math
import random
from fractions import Fraction

import pytest

from seqstream.receptive_field import (
    _span_union,
    compose_rf_maps,
    format_rf,
    format_rf_map,
    reverse_rf_map,
    rf_at,
    rf_overall,
    rf_union,
    serial_rf_map,
    union_rf_maps,
    validate_rf_per_step,
)

INF = math.inf

# Hand-derived per-step maps (absolute intervals over the first period):
CONV_SAME_K5_S2 = {0: (-2, 2)}  # stride-2 conv, kernel 5, centered padding
TCONV_K6_S4 = {0: (-1, 0), 1: (0, 0), 2: (0, 0), 3: (0, 1)}  # stride-4 transpose, kernel 6
TCONV_K1_S2 = {0: (0, 0), 1: None}  # stride-2 transpose, kernel 1
IDENTITY = {0: (0, 0)}


def test_rf_union():
    assert rf_union(None, (1, 2)) == (1, 2)
    assert rf_union((-4, 0), (0, 4)) == (-4, 4)
    assert rf_union(None, None) is None


def test_validate_rejects_gaps():
    with pytest.raises(ValueError):
        validate_rf_per_step({0: (0, 0), 2: (0, 0)})


def test_rf_at_shifts_by_whole_periods():
    # downsample-by-2 pattern: output t reads input 2t
    assert rf_at(IDENTITY, Fraction(1, 2), 3) == (6, 6)
    # upsample-by-2 pattern
    up2 = {0: (0, 0), 1: (0, 0)}
    assert rf_at(up2, Fraction(2), 5) == (2, 2)
    assert rf_at(up2, Fraction(2), 4) == (2, 2)
    # negative steps reduce into the period with a negative shift
    assert rf_at(TCONV_K6_S4, Fraction(4), -1) == (-1, 0)


def test_rf_overall_reanchors_per_step():
    composed = {0: (-4, 2), 1: (-2, 2), 2: (-2, 2), 3: (-2, 4)}
    assert rf_overall(composed, Fraction(2)) == (-4, 3)


def test_overall_none_when_all_steps_none():
    assert rf_overall({0: None, 1: None}, Fraction(2)) is None


def test_transpose_k1_s2_overall():
    assert rf_overall(TCONV_K1_S2, Fraction(2)) == (0, 0)


def test_compose_with_identity_is_unchanged():
    for m, r in [(TCONV_K6_S4, Fraction(4)), (CONV_SAME_K5_S2, Fraction(1, 2))]:
        assert compose_rf_maps(m, r, IDENTITY, Fraction(1)) == m
        assert compose_rf_maps(IDENTITY, Fraction(1), m, r) == m


def test_compose_mixed_downsample_upsample():
    got = compose_rf_maps(CONV_SAME_K5_S2, Fraction(1, 2), TCONV_K6_S4, Fraction(4))
    assert got == {0: (-4, 2), 1: (-2, 2), 2: (-2, 2), 3: (-2, 4)}
    assert rf_overall(got, Fraction(2)) == (-4, 3)


def test_compose_four_same_convs():
    same5 = {0: (-2, 2)}
    maps = serial_rf_map([same5] * 4, [Fraction(1)] * 4)
    assert rf_overall(maps, Fraction(1)) == (-8, 8)


def test_compose_propagates_none():
    got = compose_rf_maps(IDENTITY, Fraction(1), TCONV_K1_S2, Fraction(2))
    assert got == {0: (0, 0), 1: None}


def test_compose_absorbs_infinite_bounds():
    lstm = {0: (-INF, 0)}
    causal3 = {0: (-2, 0)}
    got = compose_rf_maps(causal3, Fraction(1), lstm, Fraction(1))
    assert got == {0: (-INF, 0)}
    got = compose_rf_maps(lstm, Fraction(1), causal3, Fraction(1))
    assert got == {0: (-INF, 0)}


def test_compose_infinite_through_holes():
    # An unbounded-past layer after a transpose conv with holes: the holes
    # contribute nothing, but the union over all earlier steps is unbounded.
    lstm = {0: (-INF, 0)}
    got = compose_rf_maps(TCONV_K1_S2, Fraction(2), lstm, Fraction(1))
    assert got == {0: (-INF, 0), 1: (-INF, 0)}


def test_compose_large_finite_spans_probe_periodically():
    attn_past4 = {0: (-64, 0)}
    got = compose_rf_maps(TCONV_K1_S2, Fraction(2), attn_past4, Fraction(1))
    # output step 0 consults intermediate steps -64..0; only even ones map back
    assert got == {0: (-32, 0), 1: (-31, 0)}


@pytest.mark.parametrize("seed", range(4))
def test_span_union_matches_brute_force_over_finite_spans(seed):
    rnd = random.Random(seed)
    for _ in range(500):
        ratio = Fraction(rnd.randint(1, 4), rnd.randint(1, 4))
        period = ratio.numerator * rnd.randint(1, 3)
        rf_map = {}
        for s in range(period):
            start = rnd.randint(-6, 6)
            rf_map[s] = None if rnd.random() < 0.25 else (start, start + rnd.randint(0, 5))
        lo = rnd.randint(-20, 20)
        hi = lo + rnd.randint(0, 3 * period)
        expect = None
        for u in range(lo, hi + 1):
            expect = rf_union(expect, rf_at(rf_map, ratio, u))
        assert _span_union(rf_map, ratio, lo, hi) == expect, (rf_map, ratio, lo, hi)


def test_union_maps_expands_periods():
    up2 = {0: (0, 0), 1: (0, 0)}
    four = {0: (0, 0), 1: (0, 0), 2: (1, 1), 3: (1, 1)}
    got = union_rf_maps([up2, four], [Fraction(2), Fraction(2)])
    assert got == {0: (0, 0), 1: (0, 0), 2: (1, 1), 3: (1, 1)}


def test_reverse_map():
    assert reverse_rf_map({0: (-4, 0)}) == {0: (0, 4)}
    assert reverse_rf_map({0: (-INF, 0)}) == {0: (0, INF)}
    assert reverse_rf_map({0: None}) == {0: None}


def test_formatting():
    assert format_rf((-4, 0)) == "(-4, 0)"
    assert format_rf((-INF, 0)) == "(-inf, 0)"
    assert format_rf(None) == "None"
    assert format_rf_map(TCONV_K1_S2) == "{0: (0, 0), 1: None}"
