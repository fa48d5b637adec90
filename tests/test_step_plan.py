"""Composites step through a plan built once; it must match the tree walk.

``reference_step`` below is the recursive Serial/Parallel step loop that the
plan replaced, kept here as the reference: every output, mask, final state
and emit of the plan must be bit-identical to it, block after block.
"""

import numpy as np
import pytest

import seqstream as sl
from seqstream import combinators, sabotage, tensor
from seqstream.combinators import _combine_outputs, _Composite
from seqstream.sequence import ChannelSpec, Sequence, zero_invalid

from conftest import build_spec

SPECS = ("conv_stack", "streaming_encoder", "transformer_block", "mixed_resample")


def inlined(layer):
    """Whether a parent's plan inlines ``layer``: a composite that does not step itself."""
    return type(layer).step_with_emits is _Composite.step_with_emits


def slot_count(layer):
    """The slots ``layer`` fills in its parent's flat state: one for a leaf or
    a composite that steps itself, else its children's, plus one per
    aligning delay line of a Parallel."""
    if not inlined(layer):
        return 1
    if isinstance(layer, sl.Parallel):
        delayed = sum(c.output_latency < layer.output_latency for c in layer.children)
        return delayed + sum(slot_count(c) for c in layer.children)
    return sum(slot_count(c) for c in layer.children)


def reference_step(layer, x, state, *, training, constants=None):
    """(output, flat state, emits) of one step, walking Serial/Parallel
    recursively: an inlined child takes its run of ``slot_count`` slots of
    ``state``, a leaf its one slot, and the children's emits are filed under
    the layer's name."""
    if not inlined(layer):
        return layer.step_with_emits(x, state, training=training, constants=constants)
    layer._check_block(x)
    rest, new_state, emits = list(state), [], {}

    def step_child(child, x):
        n = slot_count(child)
        part = tuple(rest[:n]) if inlined(child) else rest[0]
        del rest[:n]
        y, part, e = reference_step(child, x, part, training=training, constants=constants)
        new_state.extend(part if inlined(child) else (part,))
        emits.update({f"{layer.name}/{path}": tap for path, tap in e.items()})
        return y

    if isinstance(layer, sl.Parallel):
        outputs = []
        for child in layer.children:
            y = step_child(child, x)
            if child.output_latency < layer.output_latency:
                # the aligning delay line, written out: the fifo then the output
                fifo = rest.pop(0)
                line = [np.concatenate(pair, axis=1) for pair in zip(fifo, (y.values, y.mask))]
                new_state.append(tuple(tensor.freeze(a[:, y.time :]) for a in line))
                y = Sequence._wrap(line[0][:, : y.time], line[1][:, : y.time])
            outputs.append(y)
        x = _combine_outputs(outputs, layer.combine)
    else:
        for child in layer.children:
            x = step_child(child, x)
    assert not rest, "state has more slots than the tree"
    return x, tuple(new_state), emits


def assert_identical(a, b, where="root"):
    """Bit-identical trees of Sequences, arrays, tuples, dicts and scalars."""
    assert type(a) is type(b), (where, type(a), type(b))
    if isinstance(a, Sequence):
        assert_identical(a.values, b.values, f"{where}.values")
        assert_identical(a.mask, b.mask, f"{where}.mask")
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), where
        assert a.tobytes() == b.tobytes(), where
    elif isinstance(a, tuple):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_identical(x, y, f"{where}[{i}]")
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for k in a:
            assert_identical(a[k], b[k], f"{where}[{k!r}]")
    else:
        assert isinstance(a, int), (where, type(a))
        assert a == b, where


def make_input(spec, seed=0, batch=3, time=24):
    rng = np.random.default_rng(seed)
    shape = (batch, time) + spec.shape
    if spec.dtype == tensor.FLOAT32:
        values = rng.standard_normal(shape).astype(np.float32)
    elif spec.dtype == tensor.INT32:
        values = rng.integers(-5, 6, shape).astype(np.int32)
    else:
        values = rng.integers(0, 2, shape).astype(bool)
    return Sequence.from_lengths(values, [time, 2 * time // 3, time // 3][:batch])


def assert_plan_matches_reference(layer, spec, *, training=False, mult=1, time=24):
    x = make_input(spec, time=time)
    block = layer.block_size * mult
    x = x.pad_time(0, -x.time % block, valid=False)
    plan_state = layer.get_initial_state(x.batch_size, spec, training=training)
    ref_state = layer.get_initial_state(x.batch_size, spec, training=training)
    for start in range(0, x.time, block):
        chunk = x.slice_time(start, start + block)
        got = layer.step_with_emits(chunk, plan_state, training=training)
        want = reference_step(layer, chunk, ref_state, training=training)
        assert_identical(got, want, f"step at {start}")
        plan_state, ref_state = got[1], want[1]


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("mult", [1, 2])
@pytest.mark.parametrize("name", SPECS)
def test_bundled_specs_match_the_tree_walk(name, mult, training):
    layer, spec = build_spec(name)
    assert_plan_matches_reference(layer, spec, training=training, mult=mult, time=36)


F32, I32, BOOL = ChannelSpec((3,)), ChannelSpec((3,), np.int32), ChannelSpec((3,), bool)


def trees():
    rng = np.random.default_rng(7)
    conv = lambda: sl.Conv1D(3, 3, 3, padding="same", rng=rng)  # noqa: E731
    return {
        # branch latencies 1, 0 and 2: the faster branches run through fifos
        "unequal_latencies": (
            sl.Parallel([conv(), sl.Identity(), sl.Lookahead(2)], combine="add"),
            (F32,),
        ),
        "stack": (sl.Parallel([conv(), sl.Delay(1)], combine="stack"), (F32,)),
        "concat": (sl.Parallel([conv(), sl.Dense(3, 2, rng=rng)], combine="concat"), (F32,)),
        "mean": (sl.Parallel([sl.Identity(), sl.Lookahead(1)], combine="mean"), (F32, I32)),
        "nested_emits": (
            sl.Serial(
                [
                    sl.Emit(name="first"),
                    sl.Residual([sl.Emit(), sl.Serial([conv(), sl.Emit(name="inner")])]),
                    sl.Serial([sl.Emit(name="last")]),
                ]
            ),
            (F32,),
        ),
        "blockwise_emit": (sl.Serial([sl.Blockwise(sl.Emit(), 4), sl.Identity()]), (F32, I32)),
        "repeat": (
            sl.Repeat(lambda i: sl.Residual([sl.Dense(3, 3, rng=rng), sl.Emit()]), 3),
            (F32,),
        ),
        "shape_shifting_emits": (
            sl.Serial([sabotage.ShapeShiftingEmits(), sl.Delay(1)]),
            (F32, I32, BOOL),
        ),
        "mixed_dtypes": (
            sl.Serial(
                [sl.Parallel([sl.Identity(), sl.Delay(1)], combine="concat"), sl.Lookahead(1)]
            ),
            (I32, BOOL),
        ),
        "dropout": (
            sl.Serial(
                [
                    sl.Residual([sl.Dropout(0.4, seed=3), sl.Dense(3, 3, rng=rng)]),
                    sl.Parallel([sl.Dropout(0.2, seed=5), sl.StepDelay(1)], combine="add"),
                ]
            ),
            (F32,),
        ),
        "empty_serial": (sl.Serial([sl.Serial([]), sl.Parallel([sl.Serial([])])]), (F32, BOOL)),
        "blockwise_conv": (sl.Serial([sl.Blockwise(conv(), 4), sl.Identity()]), (F32,)),
        # a delayed shortcut inside a Blockwise inside a Serial
        "blockwise_residual": (
            sl.Serial([sl.Blockwise(sl.Residual([conv(), sl.Lookahead(1)]), 2), sl.Emit()]),
            (F32,),
        ),
    }


CASES = [
    pytest.param(name, spec, id=f"{name}-{spec}")
    for name, (_, specs) in trees().items()
    for spec in specs
]


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("mult", [1, 3])
@pytest.mark.parametrize("name, spec", CASES)
def test_trees_match_the_tree_walk(name, spec, mult, training):
    layer = trees()[name][0]
    assert_plan_matches_reference(layer, spec, training=training, mult=mult)


def test_nested_emits_are_filed_by_layer_path():
    layer = trees()["nested_emits"][0]
    x = make_input(F32, time=4)
    state = layer.get_initial_state(x.batch_size, F32, training=False)
    _, _, emits = layer.step_with_emits(x, state, training=False)
    assert list(emits) == [
        "serial/first", "serial/residual/body/emit", "serial/residual/body/serial/inner",
        "serial/serial/last",
    ]
    for path in ("serial/first", "serial/residual/body/emit"):
        assert emits[path].values is x.values and emits[path].mask is x.mask, path
    assert emits["serial/residual/body/serial/inner"].time == x.time
    assert emits["serial/serial/last"].time == x.time


def test_plan_is_built_once_per_composite():
    layer, spec = build_spec("transformer_block")
    x = make_input(spec, time=3)
    state = layer.get_initial_state(x.batch_size, spec, training=False)
    layer.step(x[:, 0:1], state, training=False)
    plan = layer._plan
    layer.step(x[:, 1:2], state, training=False)
    assert layer._plan is plan
    # the inner composites are inlined: only leaves are stepped
    stepped = [op[0] for op in plan.ops if op[0] is not None]
    assert not any(isinstance(node, (sl.Serial, sl.Parallel)) for node in stepped)
    assert len(stepped) == 14


def test_the_stepped_composite_checks_its_block():
    layer = sl.Serial([sl.Serial([sl.Downsample1D(2)]), sl.Identity()])
    state = layer.get_initial_state(1, F32, training=False)
    with pytest.raises(sl.BlockSizeError, match="serial"):
        layer.step(make_input(F32, batch=1, time=3), state, training=False)


class CountingSerial(sl.Serial):
    """A Serial subclass that steps itself: the plan must call it, not inline it."""

    def __init__(self, layers, name=None):
        super().__init__(layers, name=name)
        self.calls = 0

    def step_with_emits(self, x, state, *, training, constants=None):
        self.calls += 1
        return super().step_with_emits(x, state, training=training, constants=constants)


def test_a_composite_that_steps_itself_is_called_as_a_leaf():
    inner = CountingSerial([sl.Dense(3, 3, rng=np.random.default_rng(1)), sl.Emit()])
    layer = sl.Serial([sl.Identity(), inner])
    assert_plan_matches_reference(layer, F32)
    assert inner.calls == 2 * make_input(F32).time


def test_a_blockwise_is_inlined_and_its_leaves_step_by_their_kernels():
    layer = trees()["blockwise_conv"][0]
    state = layer.get_initial_state(2, F32, training=False)
    layer.step(make_input(F32, batch=2, time=4), state, training=False)
    # a leaf op is (leaf, slot, src, kernel, zeroes, attrs, parent)
    leaf_ops = [op for op in layer._plan.ops if op[0] is not None]
    assert [type(op[0]) for op in leaf_ops] == [sl.Conv1D, sl.Identity]
    assert all(op[3] is not None for op in leaf_ops)


def test_a_blockwise_state_is_its_childs_state_in_a_tuple():
    child = sl.LSTM(3, 2, rng=np.random.default_rng(4))
    layer = sl.Blockwise(child, 4)
    state = layer.get_initial_state(2, F32, training=False)
    assert_identical(state, (child.get_initial_state(2, F32, training=False),))
    x = make_input(F32, batch=2, time=4)
    _, (child_state,) = layer.step(x, state, training=False)
    _, want = child.step(x, child.get_initial_state(2, F32, training=False), training=False)
    assert_identical(child_state, want)


def test_a_parallel_delays_exactly_its_faster_branches_by_step_delay_ops():
    layer = trees()["unequal_latencies"][0]
    state = layer.get_initial_state(2, F32, training=False)
    layer.step(make_input(F32, batch=2, time=1), state, training=False)
    # branch latencies 1, 0 and 2: the first two are delayed by 1 and 2
    delays = [op[0].length for op in layer._plan.ops if isinstance(op[0], sl.StepDelay)]
    assert delays == [1, 2]
    # slots: conv, its delay, identity, its delay, lookahead; none for a 0 delay
    assert len(state) == 5
    assert [state[1][0].shape[1], state[3][0].shape[1]] == [1, 2]


def state_rule_trees():
    rng = np.random.default_rng(9)
    conv = lambda: sl.Conv1D(3, 3, 3, padding="same", rng=rng)  # noqa: E731
    return {
        "serial_in_serial": sl.Serial(
            [sl.Dense(3, 3, rng=rng), sl.Serial([conv(), sl.LSTM(3, 3, rng=rng)]), sl.Delay(1)]
        ),
        "residual_in_serial": sl.Serial([sl.Delay(2), sl.Residual([conv(), sl.Lookahead(1)])]),
        # branch latencies 1, 0 and 2 against 2: delays 1, 2 and 0
        "parallel_delays_1_2_0": sl.Serial(
            [sl.Parallel([conv(), sl.Identity(), sl.Lookahead(2)], combine="add"), sl.Delay(1)]
        ),
        "blockwise_residual": sl.Serial(
            [sl.Blockwise(sl.Residual([conv(), sl.Dropout(0.2, seed=1)]), 2), sl.Identity()]
        ),
    }


def child_runs(layer, spec, start=0):
    """(composite, its input spec, its first slot) of every inlined composite
    below ``layer``, whose slots begin at ``start``."""
    for child in layer.children:
        if isinstance(layer, sl.Parallel):
            child_spec = spec
        else:
            child_spec, spec = spec, child.get_output_spec(spec)
        if inlined(child):
            yield child, child_spec, start
            yield from child_runs(child, child_spec, start)
        start += slot_count(child)
        if isinstance(layer, sl.Parallel) and child.output_latency < layer.output_latency:
            start += 1


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("name", sorted(state_rule_trees()))
def test_a_composite_state_is_the_flat_tuple_of_its_leaf_states(name, training):
    layer = state_rule_trees()[name]
    state = layer.get_initial_state(2, F32, training=training)
    leaf_ops = [op for op in layer._plan.ops if op[0] is not None]
    assert isinstance(state, tuple) and len(state) == len(leaf_ops) == slot_count(layer)
    assert [op[1] for op in leaf_ops] == list(range(len(state)))
    runs = list(child_runs(layer, F32))
    assert runs, "the tree inlines no composite"
    for child, spec, start in runs:
        own = child.get_initial_state(2, spec, training=training)
        assert_identical(own, state[start : start + len(own)], child.name)
        assert len(own) == slot_count(child), child.name


def test_a_stream_start_with_constants_runs_each_leaf_kernel_once_on_an_empty_block():
    """A stream start steps nothing: every kernel call is the one ``layer()``
    over an empty sequence that derives the leaf's output spec."""
    rng = np.random.default_rng(6)
    layer = sl.Serial(
        [
            sl.Dense(3, 3, rng=rng),
            sl.Serial(
                [
                    sl.Conditioning("c", "add"),
                    sl.Residual([sl.Serial([sl.Conv1D(3, 3, 3, rng=rng), sl.Lookahead(1)])]),
                ]
            ),
            sl.Identity(),
        ]
    )
    nodes = [layer]
    for node in nodes:
        nodes.extend(node.children)
        if isinstance(node, sl.Parallel):
            nodes.extend(delay for delay in node._delays if delay.length)
    leaves = [node for node in nodes if not node.children]
    calls = {id(leaf): 0 for leaf in leaves}
    for leaf in leaves:
        kernel = leaf._step_arrays

        def counting(*args, _leaf=leaf, _kernel=kernel):
            calls[id(_leaf)] += 1
            return _kernel(*args)

        leaf._step_arrays = counting
    constants = {"c": Sequence.from_values(np.ones((2, 8, 3), np.float32))}
    layer.get_initial_state(2, F32, training=False, constants=constants)
    # Dense, Conditioning, Conv1D, Lookahead, the shortcut, its delay and Identity
    assert len(leaves) == 7
    assert [calls[id(leaf)] for leaf in leaves] == [1] * len(leaves)


def test_a_transformer_block_step_zeroes_only_attentions_input(monkeypatch):
    """No combine zeroes its branches: one root step of ``transformer_block``
    zeroes the invalid steps of one register, attention's input."""
    layer, spec = build_spec("transformer_block")
    x = make_input(spec, batch=2, time=4)
    state = layer.get_initial_state(2, spec, training=False)
    calls = []

    def counting(values, mask):
        calls.append(values.shape)
        return zero_invalid(values, mask)

    monkeypatch.setattr(combinators, "zero_invalid", counting)
    layer.step(x, state, training=False)
    assert calls == [(2, 4, 32)]
