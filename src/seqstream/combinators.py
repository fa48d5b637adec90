"""Layers built from layers: Serial, Parallel, Residual, Repeat,
Bidirectional, and Blockwise.

A combinator's streaming metadata is derived from its children on first
access and cached: layers are immutable once built. A child whose name a
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
disagree on latency: faster children are delayed inside step() by per-child
FIFOs so all branches emit the same stream positions, and the combinator
reports the maximum latencies.

Stepping runs a plan, not a walk of the tree. On its first step a Serial,
Repeat, Parallel or Residual lowers its subtree once into a cached
:class:`_StepPlan`: the children of nested Serials and Repeats are inlined
into one run of leaf steps, and each nested Parallel or Residual becomes a
branch group that masks its branch outputs, pushes them through their FIFOs
and combines them. One executor runs the plan over raw (values, mask,
masked) registers and zeroes each register's invalid steps at most once.
Only the composite being stepped checks its block; every check of a
composite or a leaf block inside it is implied by its own. Each library
leaf runs its array kernel (see :mod:`seqstream.layer`). A leaf with its
own ``step``, or with a ``step`` set on the instance such as a tracing
wrapper (looked up per call), is called through that ``step``; one that
overrides ``step_with_emits`` (``Emit``, ``Blockwise``) through that. When
no leaf is, the emits tree is the same constant on every step. States and
emits keep the nesting of the tree: a Serial's state is the tuple of its
children's, a Parallel's is (children's states, FIFOs).
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import tensor
from .errors import NotSteppableError, SpecMismatchError
from .layer import EMPTY_EMITS, UNIT_RATIO, Emitting, SequenceLayer, renamed
from .receptive_field import (
    reverse_rf_map,
    rf_at,
    serial_rf_map,
    union_rf_maps,
)
from .sequence import ChannelSpec, Sequence, zero_invalid
# stream_blocks stays importable here: perfbench/tracer.py patches it by this name
from .streaming import _flushed, stream_blocks  # noqa: F401
from .temporal import delay_line, delay_step

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


def _combine_specs(specs, mode: str) -> ChannelSpec:
    first = specs[0]
    if mode in ("add", "mean", "stack"):
        for s in specs[1:]:
            if s != first:
                raise SpecMismatchError(
                    f"combine={mode} requires identical child specs, got {first} and {s}"
                )
        if mode == "stack":
            return ChannelSpec((len(specs),) + first.shape, first.dtype)
        return first
    for s in specs[1:]:
        if s.shape[:-1] != first.shape[:-1] or s.dtype != first.dtype:
            raise SpecMismatchError(
                f"combine=concat requires equal all-but-last channel dims, "
                f"got {first} and {s}"
            )
    last = sum(s.shape[-1] for s in specs)
    return ChannelSpec(first.shape[:-1] + (last,), first.dtype)


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
    """(values, mask) of branch outputs combined: the arrays of :func:`_combine_outputs`."""
    time = {a.shape[1] for a in arrays}
    if len(time) != 1:
        raise SpecMismatchError(
            f"parallel branches produced unequal output lengths {sorted(time)}; "
            "equal lengths are required"
        )
    mask = masks[0]
    for m in masks[1:]:
        mask = np.logical_and(mask, m)
    if mode == "stack":
        values = np.stack(arrays, axis=2)
    elif mode == "concat":
        values = np.concatenate(arrays, axis=-1)
    else:
        total = arrays[0]
        for a in arrays[1:]:
            total = total + a
        if mode == "mean":
            total = (total / np.float32(len(arrays))).astype(arrays[0].dtype, copy=False)
        values = total
    if len({a.dtype for a in arrays}) != 1:
        # numpy promotes mixed branch dtypes; the public edge canonicalizes them
        values = tensor.tensor(values)
    return values, mask


def _combine_outputs(outputs, mode: str) -> Sequence:
    values, mask = _combine([y.values for y in outputs], [y.mask for y in outputs], mode)
    return Sequence._wrap(values, mask)


def _flatten(layout, state, flat):
    """Writes the leaf states and fifos of a nested composite state into
    their slots of ``flat``."""
    children, fifo_slots = layout
    if fifo_slots is not None:
        state, fifos = state
        for slot, fifo in zip(fifo_slots, fifos):
            flat[slot] = fifo
    for sub, child_state in zip(children, state):
        if isinstance(sub, int):
            flat[sub] = child_state
        else:
            _flatten(sub, child_state, flat)


def _unflatten(layout, flat, fifos):
    """The nested tree of the slots of ``flat``: a composite state when
    ``fifos``, else emits, which have no fifos."""
    children, fifo_slots = layout
    tree = tuple([
        flat[sub] if isinstance(sub, int) else _unflatten(sub, flat, fifos) for sub in children
    ])
    if fifos and fifo_slots is not None:
        return tree, tuple([flat[slot] for slot in fifo_slots])
    return tree


#: how the plan steps a leaf: its array kernel, its step or its step_with_emits
_KERNEL, _STEP, _EMITS = range(3)


class _StepPlan:
    """A composite's subtree lowered once for stepping (see the module docstring).

    For the length of a step, leaf states and Parallel fifos live in
    numbered slots of a flat list. ``layout`` maps the nested composite
    state onto them: a leaf is its slot, a composite is ``(child layouts,
    fifo slots)``, where a Serial has None for fifo slots.

    ``ops`` run in order. Each reads a register, a list that starts as
    [input block], and appends its output. A register is ``[values, mask,
    masked, Sequence, zeroed values]``; the last two are None until needed:
    the Sequence is built only for a leaf called through its public
    ``step`` or ``step_with_emits``. A leaf op ``(leaf, slot, src, route,
    kernel, zeroes, attrs)`` steps ``leaf`` on register ``src`` with the
    state in ``slot`` by its route: ``kernel``, its bound ``_step_arrays``
    (the route of every class that inherits ``SequenceLayer.step``), on
    zeroed values when ``zeroes``; or its public method, whose emits go in
    ``slot`` of the flat emits. A ``step`` in ``attrs``, the leaf's instance
    dict, takes over from the kernel. A branch op
    ``(None, branches, combine)`` ends a Parallel: each ``(src, slot)``
    branch output is zeroed and delayed by the fifo in ``slot``, and the
    outputs are combined.
    """

    def __init__(self, composite):
        self.ops = []
        self.num_slots = 0
        self.layout, self.out = self._lower_composite(composite, 0)
        #: a Serial of leaves, whose state tuple is the flat list itself
        self.flat = self.layout == (tuple(range(self.num_slots)), None)
        emitting = any(op[0] is not None and op[3] == _EMITS for op in self.ops)
        #: the emits tree when no leaf is called through step_with_emits
        self.emits = (
            None if emitting else _unflatten(self.layout, [EMPTY_EMITS] * self.num_slots, False)
        )

    def _slot(self):
        self.num_slots += 1
        return self.num_slots - 1

    def _lower(self, node, src):
        """Appends the ops that step ``node`` on register ``src``; returns
        (its layout, its output register)."""
        cls = type(node)
        # inlined: Serial, Repeat, Parallel and Residual, not a subclass that steps itself
        if cls.step_with_emits is _Composite.step_with_emits:
            return self._lower_composite(node, src)
        slot = self._slot()
        if cls.step_with_emits is not SequenceLayer.step_with_emits:
            route = _EMITS
        else:
            route = _KERNEL if cls.step is SequenceLayer.step else _STEP
        kernel = node._step_arrays if route == _KERNEL else None
        self.ops.append((node, slot, src, route, kernel, node._masks_step_input, vars(node)))
        return slot, len(self.ops)

    def _lower_composite(self, node, src):
        if not isinstance(node, Parallel):
            layouts = []
            for child in node.children:
                layout, src = self._lower(child, src)
                layouts.append(layout)
            return (tuple(layouts), None), src
        layouts, outputs = zip(*(self._lower(child, src) for child in node.children))
        fifo_slots = tuple(self._slot() for _ in outputs)
        self.ops.append((None, tuple(zip(outputs, fifo_slots)), node.combine))
        return (layouts, fifo_slots), len(self.ops)

    def run(self, x, state, training, constants):
        """(output, next state, emits) of one step, nested as the composite's."""
        if self.flat:
            states = list(state)
        else:
            states = [None] * self.num_slots
            _flatten(self.layout, state, states)
        regs = [[x.values, x.mask, x.masked, x, None]]
        emits = None if self.emits is not None else [EMPTY_EMITS] * self.num_slots
        for op in self.ops:
            leaf = op[0]
            if leaf is None:
                arrays, masks = [], []
                for src, slot in op[1]:
                    reg = regs[src]
                    values, mask = _zeroed(reg), reg[1]
                    if states[slot].time:
                        line = states[slot]
                        y, states[slot] = delay_step(Sequence._wrap(values, mask, True), line)
                        values, mask = y.values, y.mask
                    arrays.append(values)
                    masks.append(mask)
                regs.append([*_combine(arrays, masks, op[2]), False, None, None])
                continue
            _, slot, src, route, kernel, zeroes, attrs = op
            reg = regs[src]
            # a step set on the leaf itself (a wrapper) is looked up per call and honoured
            wrapped = "step" in attrs
            if route == _KERNEL and not wrapped:
                values, masked = (_zeroed(reg), True) if zeroes else (reg[0], reg[2])
                values, mask, masked, states[slot] = kernel(
                    values, reg[1], masked, states[slot], training, constants
                )
                regs.append([values, mask, masked, None, None])
                continue
            seq = reg[3]
            if seq is None:
                seq = reg[3] = Sequence._wrap(reg[0], reg[1], reg[2])
            if route == _EMITS:
                y, states[slot], emits[slot] = leaf.step_with_emits(
                    seq, states[slot], training=training, constants=constants
                )
            else:
                y, states[slot] = leaf.step(
                    seq, states[slot], training=training, constants=constants
                )
            regs.append([y.values, y.mask, y.masked, y, None])
        out = regs[self.out]
        y = out[3] if out[3] is not None else Sequence._wrap(out[0], out[1], out[2])
        step_emits = self.emits if emits is None else _unflatten(self.layout, emits, False)
        state = tuple(states) if self.flat else _unflatten(self.layout, states, True)
        return y, state, step_emits


def _zeroed(reg):
    """A register's values with its invalid steps zeroed, computed once."""
    if reg[4] is None:
        reg[4] = zero_invalid(reg[0], reg[1], reg[2])
    return reg[4]


class _Composite(Emitting):
    """Serial and Parallel: an emitting layer over a tuple of children,
    stepped through a :class:`_StepPlan` built on its first step."""

    @property
    def children(self):
        return self._children

    @property
    def is_stochastic(self):
        return any(c.is_stochastic for c in self._children)

    @cached_property
    def _plan(self):
        return _StepPlan(self)

    def step_with_emits(self, x, state, *, training, constants=None):
        self._check_block(x)
        return self._plan.run(x, state, training, constants)


class Serial(_Composite):
    """Applies children one after another; an empty Serial is the identity."""

    def __init__(self, layers, name=None):
        super().__init__(name)
        self._children = _unique_names(list(layers))

    @cached_property
    def output_ratio(self):
        ratio = UNIT_RATIO
        for child in self._children:
            ratio *= child.output_ratio
        return ratio

    @cached_property
    def block_size(self):
        block, ratio = 1, UNIT_RATIO
        for child in self._children:
            arriving = block * ratio
            if arriving.denominator != 1:
                raise ValueError(
                    f"{self.name}: {child.name!r} would receive {arriving} steps per block; "
                    "a block_size upstream is not a multiple of its ratio denominator"
                )
            block = block * math.lcm(int(arriving), child.block_size) // int(arriving)
            ratio *= child.output_ratio
        return block

    @cached_property
    def _forward_output_latency(self):
        """(output_latency, misalignment reason or None)."""
        latency = 0
        for child in self._children:
            converted = latency * child.output_ratio
            if converted.denominator != 1:
                return latency, (
                    f"accumulated latency {latency} ahead of {child.name!r} is not a "
                    f"multiple of {child.output_ratio.denominator}; insert a StepDelay of "
                    f"{-latency % child.output_ratio.denominator} to align"
                )
            latency = int(converted) + child.output_latency
        return latency, None

    @cached_property
    def output_latency(self):
        return self._forward_output_latency[0]

    @cached_property
    def input_latency(self):
        latency = 0
        for child in reversed(self._children):
            latency = child.input_latency + math.ceil(latency / child.output_ratio)
        return latency

    @cached_property
    def receptive_field_per_step(self):
        maps = [c.receptive_field_per_step for c in self._children]
        return serial_rf_map(maps, [c.output_ratio for c in self._children])

    @cached_property
    def supports_step(self):
        if not all(c.supports_step for c in self._children):
            return False
        return self._forward_output_latency[1] is None

    def output_time(self, input_time):
        time = input_time
        for child in self._children:
            time = child.output_time(time)
        return time

    def get_output_spec(self, input_spec, constants=None):
        spec = input_spec
        for child in self._children:
            spec = child.get_output_spec(spec, constants)
        return spec

    def layer_with_emits(self, x, *, training, constants=None):
        emits = []
        for child in self._children:
            x, e = child.layer_with_emits(x, training=training, constants=constants)
            emits.append(e)
        return x, tuple(emits)

    def _require_steppable(self):
        bad = [c.name for c in self._children if not c.supports_step]
        if bad:
            raise NotSteppableError(f"{self.name}: children {bad} cannot be stepped")
        reason = self._forward_output_latency[1]
        if reason is not None:
            raise NotSteppableError(f"{self.name}: {reason}")

    def get_initial_state(self, batch_size, input_spec, *, training, constants=None):
        self._require_steppable()
        states = []
        spec = input_spec
        for child in self._children:
            states.append(
                child.get_initial_state(batch_size, spec, training=training, constants=constants)
            )
            spec = child.get_output_spec(spec, constants)
        return tuple(states)


class Parallel(_Composite):
    """Feeds the same input to every child and combines their outputs."""

    def __init__(self, layers, combine="stack", name=None):
        super().__init__(name)
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
        self.combine = combine
        self._children = _unique_names(children)

    @cached_property
    def output_ratio(self):
        return self._children[0].output_ratio

    @cached_property
    def block_size(self):
        return math.lcm(*(c.block_size for c in self._children))

    @cached_property
    def output_latency(self):
        return max(c.output_latency for c in self._children)

    @cached_property
    def input_latency(self):
        return max(c.input_latency for c in self._children)

    @cached_property
    def receptive_field_per_step(self):
        maps = [c.receptive_field_per_step for c in self._children]
        return union_rf_maps(maps, [c.output_ratio for c in self._children])

    @cached_property
    def supports_step(self):
        return all(c.supports_step for c in self._children)

    def output_time(self, input_time):
        return self._children[0].output_time(input_time)

    def get_output_spec(self, input_spec, constants=None):
        specs = [c.get_output_spec(input_spec, constants) for c in self._children]
        return _combine_specs(specs, self.combine)

    def layer_with_emits(self, x, *, training, constants=None):
        pairs = [
            c.layer_with_emits(x, training=training, constants=constants)
            for c in self._children
        ]
        return _combine_outputs([p[0] for p in pairs], self.combine), tuple(p[1] for p in pairs)

    def get_initial_state(self, batch_size, input_spec, *, training, constants=None):
        if not self.supports_step:
            raise NotSteppableError(f"{self.name}: some children cannot be stepped")
        child_states = tuple(
            c.get_initial_state(batch_size, input_spec, training=training, constants=constants)
            for c in self._children
        )
        fifos = tuple(
            delay_line(
                batch_size,
                self.output_latency - c.output_latency,
                c.get_output_spec(input_spec, constants),
            )
            for c in self._children
        )
        return (child_states, fifos)


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
        self.forward, self.backward = _unique_names([forward, backward])
        self.combine = combine

    @property
    def children(self):
        return (self.forward, self.backward)

    @property
    def supports_step(self):
        return False

    @property
    def block_size(self):
        return math.lcm(self.forward.block_size, self.backward.block_size)

    @property
    def is_stochastic(self):
        return self.forward.is_stochastic or self.backward.is_stochastic

    @property
    def receptive_field_per_step(self):
        maps = [
            self.forward.receptive_field_per_step,
            reverse_rf_map(self.backward.receptive_field_per_step),
        ]
        return union_rf_maps(maps, [UNIT_RATIO, UNIT_RATIO])

    def get_output_spec(self, input_spec, constants=None):
        specs = [
            self.forward.get_output_spec(input_spec, constants),
            self.backward.get_output_spec(input_spec, constants),
        ]
        return _combine_specs(specs, self.combine)

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


class Blockwise(Emitting):
    """Re-clocks a steppable child to a larger block size.

    layer() is re-implemented by stepping the child block by block (bounding
    peak memory by the block size), flushing per the latency protocol, and
    trimming to the child's layer-wise extent. Its emits are the child's step
    emits from that run, untrimmed.
    """

    def __init__(self, child, block_size, name=None):
        super().__init__(name)
        if not child.supports_step:
            raise NotSteppableError(f"blockwise requires a steppable child, got {child.name}")
        if block_size <= 0 or block_size % child.block_size:
            raise ValueError(
                f"block_size {block_size} is not a positive multiple of "
                f"{child.name}'s block_size {child.block_size}"
            )
        self.child = child
        self._block_size = int(block_size)

    @property
    def children(self):
        return (self.child,)

    @property
    def output_ratio(self):
        return self.child.output_ratio

    @property
    def block_size(self):
        return self._block_size

    @property
    def input_latency(self):
        return self.child.input_latency

    @property
    def output_latency(self):
        return self.child.output_latency

    @property
    def receptive_field_per_step(self):
        return self.child.receptive_field_per_step

    @property
    def is_stochastic(self):
        return self.child.is_stochastic

    def output_time(self, input_time):
        return self.child.output_time(input_time)

    def get_output_spec(self, input_spec, constants=None):
        return self.child.get_output_spec(input_spec, constants)

    def layer_with_emits(self, x, *, training, constants=None):
        out, _, emits = _flushed(
            self.child, x, training=training, block=self._block_size, constants=constants
        )
        return out, emits

    def get_initial_state(self, batch_size, input_spec, *, training, constants=None):
        return self.child.get_initial_state(
            batch_size, input_spec, training=training, constants=constants
        )

    def step_with_emits(self, x, state, *, training, constants=None):
        self._check_block(x)
        return self.child.step_with_emits(x, state, training=training, constants=constants)
