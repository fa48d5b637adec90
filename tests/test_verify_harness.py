"""The contract battery itself: clean layers pass, each sabotage fixture is
caught by its designated check, reports are deterministic and serializable."""

import json
from pathlib import Path

import numpy as np
import pytest

import seqstream as sl
from seqstream import pipeline, streaming
from seqstream.sabotage import FIXTURES
from seqstream.sequence import ChannelSpec
from seqstream.verify import (
    CHECK_NAMES,
    HarnessConfig,
    empirical_receptive_field,
    verify_contract,
)

from test_trusted_sequences import catalog as trusted_catalog


SPEC3 = ChannelSpec((3,))


def test_identity_passes_all_checks():
    report = verify_contract(sl.Identity(), SPEC3)
    assert report.passed
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["layer_step_equal_1x"] == "pass"
    assert statuses["layer_step_equal_2x"] == "pass"
    assert statuses["rng_equivalence"] == "skipped"
    assert statuses["gradient_equivalence"] == "skipped"


def test_report_covers_every_check():
    report = verify_contract(sl.Identity(), SPEC3)
    assert tuple(c.name for c in report.checks) == CHECK_NAMES


def test_conv_passes():
    layer = sl.Conv1D(3, 4, 3, padding="causal", rng=np.random.default_rng(0))
    report = verify_contract(layer, SPEC3)
    assert report.passed, report.render()


@pytest.mark.parametrize("check_name", list(FIXTURES))
def test_each_sabotage_is_caught_by_its_check(check_name):
    layer = FIXTURES[check_name](3, np.random.default_rng(0))
    report = verify_contract(layer, SPEC3)
    target = {c.name: c for c in report.checks}[check_name]
    assert target.status == "fail", report.render()
    assert not report.passed


def test_misdeclared_rf_detail_names_the_probe():
    layer = FIXTURES["receptive_field_empirical"](3, np.random.default_rng(0))
    report = verify_contract(layer, SPEC3)
    target = {c.name: c for c in report.checks}["receptive_field_empirical"]
    assert "outside declared" in target.detail


def test_reports_are_deterministic():
    layer = sl.Conv1D(3, 4, 3, padding="causal", rng=np.random.default_rng(1))
    a = verify_contract(layer, SPEC3, HarnessConfig(seed=5))
    b = verify_contract(layer, SPEC3, HarnessConfig(seed=5))
    assert a.to_dict() == b.to_dict()


def test_not_steppable_reports_step_checks_skipped():
    model = sl.Bidirectional(
        sl.Conv1D(3, 3, 2, padding="causal", rng=np.random.default_rng(2)),
        sl.Conv1D(3, 3, 2, padding="causal", rng=np.random.default_rng(3)),
        combine="concat",
    )
    report = verify_contract(model, SPEC3)
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["layer_step_equal_1x"] == "skipped"
    assert statuses["layer_step_equal_2x"] == "skipped"
    assert report.passed, report.render()


def test_stochastic_layer_runs_rng_check():
    report = verify_contract(sl.Dropout(0.5, seed=1), SPEC3)
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["rng_equivalence"] == "pass"
    assert report.passed, report.render()


def test_report_serializes_to_json_and_text():
    report = verify_contract(sl.Identity(), SPEC3)
    data = json.loads(report.to_json())
    assert data["passed"] is True
    assert len(data["checks"]) == len(CHECK_NAMES)
    text = report.render()
    assert "PASS  layer_step_equal_1x" in text
    assert text.endswith("result: PASSED")


class TestEmpiricalReceptiveField:
    def test_dense_is_pointwise(self):
        layer = sl.Dense(3, 4, rng=np.random.default_rng(4))
        assert empirical_receptive_field(layer, SPEC3) == {0: (0, 0)}

    def test_mixed_conv_transpose_reproduces_declared_map(self):
        rng = np.random.default_rng(5)
        model = sl.Serial(
            [
                sl.Conv1D(3, 1, 5, stride=2, padding="same", rng=rng),
                sl.Conv1DTranspose(1, 1, 6, stride=4, padding="same", rng=rng),
            ]
        )
        assert empirical_receptive_field(model, SPEC3) == {
            0: (-4, 2),
            1: (-2, 2),
            2: (-2, 2),
            3: (-2, 4),
        }

    def test_lstm_reaches_probe_window_start(self):
        layer = sl.LSTM(3, 4, rng=np.random.default_rng(6))
        measured = empirical_receptive_field(layer, SPEC3, HarnessConfig())
        start, end = measured[0]
        assert end == 0
        assert start <= -8  # dependence persists at least to distance 8

    def test_transpose_hole_measured_as_none(self):
        layer = sl.Conv1DTranspose(3, 2, 1, stride=2, padding="same", rng=np.random.default_rng(7))
        measured = empirical_receptive_field(layer, SPEC3)
        assert measured[1] is None
        assert measured[0] == (0, 0)


def test_delay_passes_and_lookahead_passes():
    for layer in (sl.Delay(3), sl.Lookahead(2), sl.StepDelay(2)):
        report = verify_contract(layer, SPEC3)
        assert report.passed, report.render()


@pytest.mark.parametrize("layer", [sl.Identity(), sl.Delay(1)], ids=["identity", "delay1"])
def test_a_zero_width_input_measures_no_field_instead_of_raising(layer):
    # no channel can carry a bump, so no output step depends on any input
    # step: the probe reports that rather than reducing an empty axis
    report = verify_contract(layer, ChannelSpec((0,)))
    check = {c.name: c for c in report.checks}["receptive_field_empirical"]
    assert check.status == "fail"
    assert "not attained (measured none)" in check.detail, check.detail
    assert "raised" not in check.detail
    assert all(c.status != "fail" for c in report.checks if c is not check), report.render()


@pytest.mark.parametrize("layer", [sl.Delay(4), sl.Lookahead(3)], ids=["delay4", "lookahead3"])
def test_latency_is_measured_on_the_shared_input(layer):
    # a latency longer than the short shape-check inputs must still be
    # measured against the layer output of the same input
    report = verify_contract(layer, SPEC3)
    assert report.passed, report.render()


SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def _spec_layer(name):
    spec, input_spec = pipeline.load_spec_file(SPEC_DIR / f"{name}.yaml")
    return pipeline.build(spec, input_spec), input_spec


@pytest.mark.parametrize(
    "make, expected",
    [
        # 1x and 2x eval runs and the poisoned 1x run
        (lambda: (sl.Dense(3, 4, rng=np.random.default_rng(0)), SPEC3), 3),
        # plus the probe that step() rejects a block of block_size + 1
        (lambda: _spec_layer("conv_stack"), 4),
        # plus the 1x and 2x training runs of a stochastic layer
        (lambda: _spec_layer("transformer_block"), 5),
    ],
    ids=["dense", "conv_stack", "transformer_block"],
)
def test_battery_steps_each_input_once(make, expected, monkeypatch):
    # counts step runs: each call of the block driver, and each step() call
    # made outside one (the block-size probe); a kernel leaf's layer() builds
    # an initial state too, so initial states are no proxy for step runs
    layer, input_spec = make()
    runs, driving = [], []
    drive, step = streaming.stream_blocks, layer.step

    def counted_drive(*args, **kwargs):
        runs.append(("stream_blocks", kwargs["training"]))
        driving.append(True)
        try:
            return drive(*args, **kwargs)
        finally:
            driving.pop()

    def counted_step(*args, **kwargs):
        if not driving:
            runs.append(("step", kwargs["training"]))
        return step(*args, **kwargs)

    monkeypatch.setattr(streaming, "stream_blocks", counted_drive)
    layer.step = counted_step
    report = verify_contract(layer, input_spec)
    assert report.passed, report.render()
    assert len(runs) == expected, runs


def test_full_catalog_passes():
    rng = np.random.default_rng(8)
    catalog = [
        sl.Identity(),
        sl.Dense(3, 5, rng=rng),
        sl.Scale(1.7),
        sl.Add(0.3),
        sl.Pointwise("relu"),
        sl.Pointwise("gelu"),
        sl.Pointwise("tanh"),
        sl.Softmax(),
        sl.LayerNormalization(3, rng=rng),
        sl.RMSNormalization(3, rng=rng),
        sl.Dropout(0.3, seed=2),
        sl.Flatten(),
        sl.ExpandDims(0),
        sl.Conv1D(3, 4, 5, stride=2, dilation=2, padding="causal", rng=rng),
        sl.Conv1DTranspose(3, 2, 3, stride=2, padding="causal", rng=rng),
        sl.Downsample1D(2),
        sl.Upsample1D(3),
        sl.Delay(2),
        sl.Lookahead(1),
        sl.MaxPooling1D(3, stride=2, padding="same"),
        sl.MinPooling1D(2, padding="causal"),
        sl.AveragePooling1D(3, padding="reverse_causal"),
        sl.Frame(4, 2),
        sl.Window("hann", axis=0),
        sl.LSTM(3, 4, rng=rng),
        sl.DotProductSelfAttention(3, 2, 4, rng=rng),
    ]
    for layer in catalog:
        report = verify_contract(layer, SPEC3)
        assert report.passed, f"{layer.name}:\n{report.render()}"


def test_overlap_add_passes_on_framed_spec():
    layer = sl.OverlapAdd(4, 2)
    report = verify_contract(layer, ChannelSpec((4, 3)))
    assert report.passed, report.render()


#: the catalog's leaves whose kernels read invalid steps, which callers zero
ZEROING_LEAVES = [
    pytest.param(layer, id=layer.name)
    for layer, _ in trusted_catalog()
    if not layer.children and layer._masks_step_input
]


@pytest.mark.parametrize("leaf", ZEROING_LEAVES)
def test_a_zeroing_leaf_behind_nonzero_padding_passes(leaf):
    # Add(1.5) leaves its input's invalid steps nonzero (NaN under
    # padding_invariance's poison) in the plan register the leaf reads, so
    # the plan, step() and layer() must each zero them before the kernel
    report = verify_contract(sl.Serial([sl.Add(1.5), leaf]), SPEC3)
    assert report.passed, report.render()


@pytest.mark.parametrize("line", [sl.Delay(2), sl.StepDelay(2)], ids=["delay", "stepdelay"])
def test_a_delay_line_behind_nonzero_padding_passes(line):
    # a delay line moves invalid steps without reading them, so no caller
    # zeroes its input: Delay zeroes its own invalid output, and a StepDelay's
    # nonzero invalid steps reach the contract checks as they are
    assert not line._masks_step_input
    report = verify_contract(sl.Serial([sl.Add(1.5), line]), SPEC3)
    assert report.passed, report.render()


def test_an_lstm_behind_nonzero_padding_passes():
    # LSTM's kernel reads no invalid step, so no caller zeroes its input
    # (it is not a zeroing leaf); Add(1.5) makes those steps nonzero
    lstm = sl.LSTM(3, 2, rng=np.random.default_rng(3))
    assert not lstm._masks_step_input
    report = verify_contract(sl.Serial([sl.Add(1.5), lstm]), SPEC3)
    assert report.passed, report.render()


def test_overlap_add_output_is_not_masked_for_a_lookahead_consumer():
    # after a row's last valid frame, OverlapAdd's output holds that frame's
    # tail; a `same` conv downstream must see those positions as unmasked
    layer = sl.Serial(
        [sl.OverlapAdd(4, 2), sl.Conv1D(3, 2, 3, padding="same", rng=np.random.default_rng(0))]
    )
    report = verify_contract(layer, ChannelSpec((4, 3)))
    assert report.passed, report.render()


@pytest.mark.parametrize(
    "make",
    [
        lambda: sl.Serial([sl.Delay(2), sl.MaxPooling1D(2, padding="same")]),
        lambda: sl.Serial(
            [
                sl.Delay(1),
                sl.DotProductSelfAttention(
                    4, 2, 4, max_past_horizon=2, max_future_horizon=1,
                    rng=np.random.default_rng(0),
                ),
            ]
        ),
    ],
    ids=["max_pool_same", "attention_future"],
)
def test_delay_output_ends_with_the_input_for_a_lookahead_consumer(make):
    # a delayed step past the input's end is invalid, so a lookahead layer
    # downstream reads the same steps whatever the end padding
    report = verify_contract(make(), ChannelSpec((4,)))
    assert report.passed, report.render()


def test_conditioning_passes_with_constants():
    from seqstream.sequence import Sequence

    layer = sl.Conditioning("cond", "add")
    cond = Sequence.from_values(
        np.random.default_rng(9).uniform(-0.5, 0.5, (2, 128, 3)).astype(np.float32)
    )
    report = verify_contract(layer, SPEC3, constants={"cond": cond})
    assert report.passed, report.render()


def _item_1_repros():
    rng = np.random.default_rng(0)
    cond = sl.Sequence.from_values(rng.uniform(-0.5, 0.5, (2, 128, 3)).astype(np.float32))
    return {
        "lookahead_lookahead_avg_pool": (
            sl.Serial([sl.Lookahead(1), sl.Lookahead(1), sl.AveragePooling1D(2)]),
            None,
            "layer_step_equal_1x",
        ),
        "same_conv_lookahead_strided_conv": (
            sl.Serial(
                [
                    sl.Conv1D(3, 3, 3, padding="same", rng=rng),
                    sl.Lookahead(1),
                    sl.Conv1D(3, 3, 2, rng=rng),
                ]
            ),
            None,
            "layer_step_equal_1x",
        ),
        "same_conv_dropout": (
            sl.Serial([sl.Conv1D(3, 3, 3, padding="same", rng=rng), sl.Dropout(0.2)]),
            None,
            "rng_equivalence",
        ),
        "lookahead_conditioning": (
            sl.Serial([sl.Lookahead(1), sl.Conditioning("c", "add")]),
            {"c": cond},
            "layer_step_equal_1x",
        ),
    }


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: a position-dependent leaf behind a latency counts "
    "the upstream placeholder steps in step mode",
)
@pytest.mark.parametrize("name", sorted(_item_1_repros()))
def test_item_1_minimal_repros_pass_their_check(name):
    layer, constants, check = _item_1_repros()[name]
    report = verify_contract(layer, SPEC3, constants=constants)
    statuses = {c.name: c.status for c in report.checks}
    assert statuses[check] == "pass", report.render()
