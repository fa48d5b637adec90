"""Layers built from layers: Serial, Parallel, Residual, Repeat,
Bidirectional, and Blockwise.

A combinator's streaming metadata is derived from its children at
construction: layers are immutable once built, and a tree whose metadata
cannot be derived raises its ValueError there. A child whose name a
combinator changes (deduplication, Repeat) is a renamed copy, so the
caller's layer keeps its name.

Serial latency accounting: output latencies fold forward (an upstream delay
of d input steps becomes d * ratio output steps plus the child's own), input
latencies fold backward (a child needs its own flush plus enough input to
push the downstream flush through). A downsampling child whose accumulated
upstream delay is not a multiple of its stride would consume misaligned
blocks, so such chains report supports_step = False and name the child; a
Delay inserted before it restores alignment.

Parallel children must agree on output length for every input length, which
is checked at construction over one period of their block sizes. They may
disagree on latency: inside step() each faster child's output runs through a
StepDelay of the difference, so all branches emit the same stream positions,
and the combinator reports the maximum latencies. Blockwise is a one-child
Serial with a larger block.

Parallel, Residual and Bidirectional combine their branch outputs, and
``dense.Conditioning`` its input with the conditioning window, by one rule,
:func:`_combine`, which both modes run and so their output spec too:
``add``, ``mean`` and ``stack`` need identical channel shapes, ``concat``
needs channel rank >= 1 and equal all-but-last dims, and any other pairing
raises SpecMismatchError. numpy promotes the branch dtypes, and the result
is canonicalized: an int input plus a float branch adds to float32, and a
mean is never cast back to the first branch's dtype. A mean adds bool
branches as float32, so it counts them rather than or-ing them.

Stepping runs a plan, not a walk of the tree. On first use a Serial,
Repeat, Blockwise, Parallel or Residual lowers its subtree once into a
cached :class:`_StepPlan`: the children of nested Serials are inlined into
one run of leaf steps, and each nested Parallel or Residual becomes its
branches, their aligning StepDelays and one op that combines the branch
outputs. One executor runs the plan over raw (values, mask) registers. No
register vouches for its invalid steps: a leaf whose kernel reads them
(``_masks_step_input``) gets them zeroed, and a combine needs none zeroed,
since a combined step is invalid wherever a branch step is. Only the
composite being stepped checks its block; every check of a composite or a
leaf block inside it is implied by its own. A leaf runs its array kernel
(see :mod:`seqstream.layer`), or else its public ``step_with_emits``: a
leaf that overrides ``step`` or ``step_with_emits`` does, and so does one
with a ``step`` set on the instance, such as a tracing wrapper (looked up
per call).

Emits are one flat map ``{layer path: Sequence}`` (see
:mod:`seqstream.layer`): a composite files its children's emits under its
own name, in both modes. The plan records the output register and path of
each tap (an ``Emit``) once, at lowering, and builds the map from those
registers after each step; a leaf stepped through its public method has its
emits filed under its parent's path.

A composite's state is one flat tuple: the states of the leaves its plan
steps, in slot order. A leaf, or a composite that steps itself, fills one
slot; an inlined Serial, Repeat, Blockwise, Parallel or Residual contributes
its own state as a contiguous run. A Parallel's aligning StepDelay follows
its branch's run and gets a slot only when its length is > 0. The plan's
initial-state walk derives each register's spec once, so a stream start
derives each leaf's spec once.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import tensor
from .errors import NotSteppableError, SpecMismatchError
from .layer import UNIT_RATIO, SequenceLayer, renamed
from .receptive_field import (
    reverse_rf_map,
    serial_rf_map,
    union_rf_maps,
)
from .sequence import ChannelSpec, Sequence, zero_invalid
# stream_blocks stays importable here: perfbench/tracer.py patches it by this name
from .streaming import _flushed, stream_blocks  # noqa: F401
from .temporal import StepDelay

__all__ = ["Serial", "Parallel", "Residual", "Repeat", "Bidirectional", "Blockwise"]

COMBINE_MODES = ("stack", "concat", "add", "mean")


def _unique_names(children):
    """The children under distinct names: a taken name gets the first free
    numeric suffix, on a renamed copy."""
    taken, unique = set(), []
    for child in children:
        name, k = child.name, 0
        while name in taken:
            k += 1
            name = f"{child.name}_{k}"
        taken.add(name)
        unique.append(renamed(child, name))
    return tuple(unique)


#: the longest period of child block sizes whose output lengths are checked
MAX_OUTPUT_TIME_PERIOD = 4096


def _check_output_times(children, kind: str) -> None:
    """Raises unless the children agree on output length for every input
    length; lengths repeat with the period of the children's block sizes."""
    sizes = [c.block_size for c in children]
    period = math.lcm(*sizes)
    if period > MAX_OUTPUT_TIME_PERIOD:
        raise SpecMismatchError(
            f"{kind} children's block sizes {sizes} repeat every {period} steps; "
            f"at most {MAX_OUTPUT_TIME_PERIOD} is supported"
        )
    for time in range(1, period + 1):
        lengths = [c.output_time(time) for c in children]
        if len(set(lengths)) != 1:
            raise SpecMismatchError(
                f"{kind} children disagree on output length for input length {time}: {lengths}"
            )


def _combine(arrays, masks, mode: str):
    """(values, mask) of branch outputs combined: the one combine rule, which
    both modes run and a combinator's output spec derives from (see the
    module docstring)."""
    time = {a.shape[1] for a in arrays}
    if len(time) != 1:
        raise SpecMismatchError(
            f"parallel branches produced unequal output lengths {sorted(time)}; "
            "equal lengths are required"
        )
    channels = [a.shape[2:] for a in arrays]
    if mode == "concat":
        fits = all(c and c[:-1] == channels[0][:-1] for c in channels)
    else:
        fits = channels.count(channels[0]) == len(channels)
    if not fits:
        rule = "rank >= 1 and equal all-but-last" if mode == "concat" else "identical"
        specs = ", ".join(str(ChannelSpec(a.shape[2:], a.dtype)) for a in arrays)
        raise SpecMismatchError(f"combine={mode} requires {rule} channel dims, got {specs}")
    mask = masks[0]
    for m in masks[1:]:
        mask = np.logical_and(mask, m)
    if mode == "stack":
        values = np.stack(arrays, axis=2)
    elif mode == "concat":
        values = np.concatenate(arrays, axis=-1)
    else:
        if mode == "mean":
            # bool + bool is a logical or; a mean counts the true branches
            arrays = [a.astype(np.float32) if a.dtype == bool else a for a in arrays]
        values = arrays[0]
        for a in arrays[1:]:
            values = values + a
        if mode == "mean":
            values = values / np.float32(len(arrays))
    # numpy promotes the branch dtypes (an int mean to float64); canonicalize
    return tensor.canonical(values), mask


def _combine_outputs(outputs, mode: str) -> Sequence:
    values, mask = _combine([y.values for y in outputs], [y.mask for y in outputs], mode)
    return Sequence._wrap(values, mask)


def _filed(name, emits):
    """``emits`` filed under ``name``: each path gains it as its first part."""
    return {f"{name}/{path}": tap for path, tap in emits.items()}


class _StepPlan:
    """A composite's subtree lowered once for stepping (see the module docstring).

    ``ops`` run in order. Each reads a register, a ``(values, mask)`` pair
    in a list that starts with the input block's, and appends its output's.
    A leaf op ``(leaf, slot, src, kernel, zeroes, attrs, parent)`` steps
    ``leaf`` on register ``src`` with the state in ``slot``. It runs
    ``kernel``, its bound ``_step_arrays``, zeroing the invalid input steps
    first when ``zeroes``; a leaf that steps itself has no kernel, and
    neither does one with a ``step`` in ``attrs``, its instance dict, such
    as a tracing wrapper. Such a leaf is called through ``step_with_emits``
    on the register wrapped as a Sequence, and its emits are filed under
    ``parent``, its parent's path below the composite plus ``/``. A branch
    op ``(None, srcs, combine)`` ends a Parallel: it combines the (aligned)
    branch outputs in ``srcs``.

    ``taps`` holds ``(path below the composite, output register)`` of each
    tap leaf, in op order.
    """

    def __init__(self, composite):
        self.ops = []
        self.taps = []
        self.num_slots = 0
        self.out = self._lower_composite(composite, 0, "")

    def _lower(self, node, src, parent):
        """Appends the ops that step ``node``, a child under the path
        ``parent``, on register ``src``; returns its output register."""
        cls = type(node)
        # inlined: a Serial, Repeat, Blockwise, Parallel or Residual, unless it
        # is a subclass that steps itself
        if cls.step_with_emits is _Composite.step_with_emits:
            return self._lower_composite(node, src, f"{parent}{node.name}/")
        slot = self.num_slots
        self.num_slots += 1
        inherits = cls.step is SequenceLayer.step
        inherits = inherits and cls.step_with_emits is SequenceLayer.step_with_emits
        kernel = node._step_arrays if inherits else None
        self.ops.append((node, slot, src, kernel, node._masks_step_input, vars(node), parent))
        if node._is_tap:
            self.taps.append((parent + node.name, len(self.ops)))
        return len(self.ops)

    def _lower_composite(self, node, src, path):
        if not isinstance(node, Parallel):
            for child in node.children:
                src = self._lower(child, src, path)
            return src
        outputs = []
        for child, delay in zip(node.children, node._delays):
            out = self._lower(child, src, path)
            if delay.length:
                out = self._lower(delay, out, path)
            outputs.append(out)
        self.ops.append((None, tuple(outputs), node.combine))
        return len(self.ops)

    def initial_state(self, batch_size, input_spec, training, constants):
        """The composite's initial state: each leaf op's, in slot order, for
        the spec its input register carries. One walk derives every
        register's spec once."""
        specs, states = [input_spec], []
        for op in self.ops:
            leaf = op[0]
            if leaf is None:
                arrays = [np.zeros((1, 0) + specs[src].shape, specs[src].dtype) for src in op[1]]
                values, _ = _combine(arrays, [np.zeros((1, 0), bool)] * len(arrays), op[2])
                specs.append(ChannelSpec(values.shape[2:], values.dtype))
                continue
            spec = specs[op[2]]
            states.append(
                leaf.get_initial_state(batch_size, spec, training=training, constants=constants)
            )
            specs.append(leaf.get_output_spec(spec, constants))
        return tuple(states)

    def run(self, name, x, state, training, constants):
        """(output, next state, emits) of one step of the composite called ``name``."""
        states = list(state)
        regs = [(x.values, x.mask)]
        emits = {}
        for op in self.ops:
            leaf = op[0]
            if leaf is None:
                arrays, masks = zip(*[regs[src] for src in op[1]])
                regs.append(_combine(arrays, masks, op[2]))
                continue
            _, slot, src, kernel, zeroes, attrs, parent = op
            values, mask = regs[src]
            # a step set on the leaf itself (a wrapper) is looked up per call and honoured
            if kernel is not None and "step" not in attrs:
                if zeroes:
                    values = zero_invalid(values, mask)
                values, mask, states[slot] = kernel(values, mask, states[slot], training, constants)
                regs.append((values, mask))
                continue
            y, states[slot], leaf_emits = leaf.step_with_emits(
                Sequence._wrap(values, mask), states[slot], training=training, constants=constants
            )
            for path, tap in leaf_emits.items():
                emits[parent + path] = tap
            regs.append((y.values, y.mask))
        # a tap stepped through a wrapper has filed the same arrays already
        for path, reg in self.taps:
            emits[path] = Sequence._wrap(*regs[reg])
        out = Sequence._wrap(*regs[self.out])
        return out, tuple(states), _filed(name, emits) if emits else emits


class _Composite(SequenceLayer):
    """Serial and Parallel: a layer over a tuple of children whose emits ride
    its one execution loop. Subclasses derive their metadata in ``__init__``
    and implement ``layer_with_emits``; they step through a
    :class:`_StepPlan` built on first use, and ``layer`` and ``step`` return
    their outputs without the emits."""

    def __init__(self, children, name):
        super().__init__(name)
        self.children = _unique_names(children)
        self.is_stochastic = any(c.is_stochastic for c in self.children)

    def _set_unsteppable(self, reason):
        """Records why this composite cannot be stepped, or None."""
        self._unsteppable = reason
        self.supports_step = reason is None

    @cached_property
    def _plan(self):
        return _StepPlan(self)

    def get_initial_state(self, batch_size, input_spec, *, training, constants=None):
        if self._unsteppable is not None:
            raise NotSteppableError(f"{self.name}: {self._unsteppable}")
        return self._plan.initial_state(batch_size, input_spec, training, constants)

    def layer(self, x, *, training, constants=None):
        return self.layer_with_emits(x, training=training, constants=constants)[0]

    def step(self, x, state, *, training, constants=None):
        y, state, _ = self.step_with_emits(x, state, training=training, constants=constants)
        return y, state

    def step_with_emits(self, x, state, *, training, constants=None):
        self._check_block(x)
        return self._plan.run(self.name, x, state, training, constants)


class Serial(_Composite):
    """Applies children one after another; an empty Serial is the identity."""

    def __init__(self, layers, name=None):
        super().__init__(list(layers), name)
        # forward: ratio, block, and the output latency ahead of each child,
        # up to the first child that it misaligns
        ratio, block, latency, misaligned = UNIT_RATIO, 1, 0, None
        for child in self.children:
            arriving = block * ratio
            if arriving.denominator != 1:
                raise ValueError(
                    f"{self.name}: {child.name!r} would receive {arriving} steps per block; "
                    "a block_size upstream is not a multiple of its ratio denominator"
                )
            block = block * math.lcm(int(arriving), child.block_size) // int(arriving)
            converted = latency * child.output_ratio
            if misaligned is None and converted.denominator != 1:
                misaligned = (
                    f"accumulated latency {latency} ahead of {child.name!r} is not a "
                    f"multiple of {child.output_ratio.denominator}; insert a StepDelay of "
                    f"{-latency % child.output_ratio.denominator} to align"
                )
            if misaligned is None:
                latency = int(converted) + child.output_latency
            ratio *= child.output_ratio
        self.output_ratio, self.block_size, self.output_latency = ratio, block, latency
        bad = [c.name for c in self.children if not c.supports_step]
        self._set_unsteppable(f"children {bad} cannot be stepped" if bad else misaligned)
        # backward: a child's own flush plus enough input to push the
        # downstream flush through
        latency = 0
        for child in reversed(self.children):
            latency = child.input_latency + math.ceil(latency / child.output_ratio)
        self.input_latency = latency
        self.receptive_field_per_step = serial_rf_map(
            [c.receptive_field_per_step for c in self.children],
            [c.output_ratio for c in self.children],
        )

    def output_time(self, input_time):
        time = input_time
        for child in self.children:
            time = child.output_time(time)
        return time

    def get_output_spec(self, input_spec, constants=None):
        spec = input_spec
        for child in self.children:
            spec = child.get_output_spec(spec, constants)
        return spec

    def layer_with_emits(self, x, *, training, constants=None):
        emits = {}
        for child in self.children:
            x, child_emits = child.layer_with_emits(x, training=training, constants=constants)
            emits.update(child_emits)
        return x, _filed(self.name, emits)


class Parallel(_Composite):
    """Feeds the same input to every child and combines their outputs."""

    def __init__(self, layers, combine="stack", name=None):
        children = list(layers)
        if not children:
            raise ValueError("parallel requires at least one child")
        if combine not in COMBINE_MODES:
            raise ValueError(f"combine must be one of {COMBINE_MODES}, got {combine!r}")
        ratios = {c.output_ratio for c in children}
        if len(ratios) != 1:
            raise SpecMismatchError(
                f"parallel children must share an output ratio, got "
                f"{[str(c.output_ratio) for c in children]}"
            )
        _check_output_times(children, "parallel")
        super().__init__(children, name)
        self.combine = combine
        children = self.children
        steppable = all(c.supports_step for c in children)
        self._set_unsteppable(None if steppable else "some children cannot be stepped")
        self.output_ratio = children[0].output_ratio
        self.block_size = math.lcm(*(c.block_size for c in children))
        self.output_latency = max(c.output_latency for c in children)
        self.input_latency = max(c.input_latency for c in children)
        self.receptive_field_per_step = union_rf_maps(
            [c.receptive_field_per_step for c in children], [c.output_ratio for c in children]
        )
        #: the StepDelay that aligns each child's output with the slowest child's
        self._delays = tuple(StepDelay(self.output_latency - c.output_latency) for c in children)

    def output_time(self, input_time):
        return self.children[0].output_time(input_time)

    def layer_with_emits(self, x, *, training, constants=None):
        outputs, emits = [], {}
        for child in self.children:
            y, child_emits = child.layer_with_emits(x, training=training, constants=constants)
            outputs.append(y)
            emits.update(child_emits)
        return _combine_outputs(outputs, self.combine), _filed(self.name, emits)


class Residual(Parallel):
    """body(x) + shortcut(x); the shortcut defaults to the identity."""

    def __init__(self, body, shortcut=None, name=None):
        from .dense import Identity

        if isinstance(body, (list, tuple)):
            if not body:
                raise ValueError("residual requires at least one child")
            body = Serial(list(body), name="body")
        if shortcut is None:
            shortcut = Identity(name="shortcut")
        super().__init__([body, shortcut], combine="add", name=name)


class Repeat(Serial):
    """Applies independently parameterized copies of one template in series.

    ``make_child`` is invoked once per iteration (with the iteration index)
    and must build ratio-1 layers with matching input/output specs.
    """

    def __init__(self, make_child, num_repeats, name=None):
        if num_repeats < 1:
            raise ValueError(f"num_repeats must be >= 1, got {num_repeats}")
        children = []
        for i in range(num_repeats):
            child = make_child(i)
            if child.output_ratio != 1:
                raise SpecMismatchError(
                    f"repeat requires ratio-1 children, got {child.output_ratio}"
                )
            children.append(renamed(child, f"iter_{i}"))
        super().__init__(children, name=name)
        self.num_repeats = int(num_repeats)

    def get_output_spec(self, input_spec, constants=None):
        spec = super().get_output_spec(input_spec, constants)
        if spec != input_spec:
            raise SpecMismatchError(
                f"{self.name}: repeated child must preserve the spec, "
                f"got {input_spec} -> {spec}"
            )
        return spec


class Bidirectional(SequenceLayer):
    """Forward layer on the sequence, backward layer on the time-reversed
    valid region, outputs combined. Reversal needs the whole sequence, so
    this layer cannot be stepped."""

    supports_step = False

    def __init__(self, forward, backward, combine="stack", name=None):
        super().__init__(name)
        if combine not in COMBINE_MODES:
            raise ValueError(f"combine must be one of {COMBINE_MODES}, got {combine!r}")
        for child in (forward, backward):
            if child.output_ratio != 1:
                raise SpecMismatchError(
                    f"bidirectional requires ratio-1 children, got {child.output_ratio}"
                )
        _check_output_times([forward, backward], "bidirectional")
        self.children = self.forward, self.backward = _unique_names([forward, backward])
        self.combine = combine
        self.block_size = math.lcm(forward.block_size, backward.block_size)
        self.is_stochastic = forward.is_stochastic or backward.is_stochastic
        self.receptive_field_per_step = union_rf_maps(
            [forward.receptive_field_per_step, reverse_rf_map(backward.receptive_field_per_step)],
            [UNIT_RATIO, UNIT_RATIO],
        )

    def layer(self, x, *, training, constants=None):
        fwd = self.forward.layer(x, training=training, constants=constants)
        rev = x.reverse_time_valid()
        bwd = self.backward.layer(rev, training=training, constants=constants)
        bwd = bwd.reverse_time_valid()
        return _combine_outputs([fwd, bwd], self.combine)

    def get_initial_state(self, batch_size, input_spec, *, training, constants=None):
        raise NotSteppableError(f"{self.name}: bidirectional layers cannot be stepped")

    def step(self, x, state, *, training, constants=None):
        raise NotSteppableError(f"{self.name}: bidirectional layers cannot be stepped")


class Blockwise(Serial):
    """Re-clocks a steppable child to a larger block size: a one-child Serial
    whose block is ``block_size``, so its state is its child's slots:
    ``(child state,)`` for a leaf child.

    layer() steps it block by block (bounding peak memory by the block
    size), flushed and trimmed per the latency protocol. Its emits, in both
    modes, are its step emits from such a run, filed under its name as a
    Serial's are (``blockwise/emit`` for a child ``Emit``). They are not
    trimmed, so a tap has the raw stepped extent: ``Blockwise(Emit(), 4)``
    over 6 steps taps 8 steps, where ``Emit()`` alone taps 6.
    """

    def __init__(self, child, block_size, name=None):
        if not child.supports_step:
            raise NotSteppableError(f"blockwise requires a steppable child, got {child.name}")
        if block_size <= 0 or block_size % child.block_size:
            raise ValueError(
                f"block_size {block_size} is not a positive multiple of "
                f"{child.name}'s block_size {child.block_size}"
            )
        super().__init__([child], name=name)
        self.block_size = int(block_size)

    def layer_with_emits(self, x, *, training, constants=None):
        out, _, emits = _flushed(self, x, training=training, constants=constants)
        return out, emits
