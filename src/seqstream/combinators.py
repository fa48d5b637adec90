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
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import NotSteppableError, SpecMismatchError
from .layer import UNIT_RATIO, Emitting, SequenceLayer, renamed
from .receptive_field import (
    reverse_rf_map,
    rf_at,
    serial_rf_map,
    union_rf_maps,
)
from .sequence import ChannelSpec, Sequence
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


def _combine_outputs(outputs, mode: str) -> Sequence:
    time = {y.time for y in outputs}
    if len(time) != 1:
        raise SpecMismatchError(
            f"parallel branches produced unequal output lengths {sorted(time)}; "
            "equal lengths are required"
        )
    mask = outputs[0].mask
    for y in outputs[1:]:
        mask = np.logical_and(mask, y.mask)
    arrays = [np.asarray(y.values) for y in outputs]
    if mode == "stack":
        values = np.stack(arrays, axis=2)
    elif mode == "concat":
        values = np.concatenate(arrays, axis=-1)
    else:
        total = arrays[0]
        for a in arrays[1:]:
            total = total + a
        if mode == "mean":
            total = (total / np.float32(len(arrays))).astype(arrays[0].dtype)
        values = total
    if len({y.dtype for y in outputs}) != 1:
        # numpy promotes mixed branch dtypes; validating canonicalizes them
        return Sequence(values, mask)
    return Sequence._wrap(values, mask)


class _Composite(Emitting):
    """Serial and Parallel: an emitting layer over a tuple of children."""

    @property
    def children(self):
        return self._children

    @property
    def is_stochastic(self):
        return any(c.is_stochastic for c in self._children)


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

    def step_with_emits(self, x, state, *, training, constants=None):
        self._check_block(x)
        new_states, emits = [], []
        for child, child_state in zip(self._children, state):
            x, child_state, e = child.step_with_emits(
                x, child_state, training=training, constants=constants
            )
            new_states.append(child_state)
            emits.append(e)
        return x, tuple(new_states), tuple(emits)


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

    def step_with_emits(self, x, state, *, training, constants=None):
        self._check_block(x)
        child_states, fifos = state
        outputs, new_states, new_fifos, emits = [], [], [], []
        for child, child_state, fifo in zip(self._children, child_states, fifos):
            y, child_state, e = child.step_with_emits(
                x, child_state, training=training, constants=constants
            )
            y = y.mask_invalid()
            if fifo.time:
                y, fifo = delay_step(y, fifo)
            outputs.append(y)
            new_fifos.append(fifo)
            new_states.append(child_state)
            emits.append(e)
        combined = _combine_outputs(outputs, self.combine)
        return combined, (tuple(new_states), tuple(new_fifos)), tuple(emits)


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
