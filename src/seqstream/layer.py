"""The core layer contract.

Every layer processes sequences two ways and the two must agree:

* ``layer(x, training=...)`` consumes a whole sequence at once;
* ``get_initial_state(...)`` then repeated ``step(block, state, ...)`` calls
  consume the sequence in blocks whose time extent is a positive multiple of
  the layer's ``block_size``, threading all memory through the returned state.

State is an explicit value of plain data: the empty tuple, read-only arrays,
tuples, dicts, or an integer count of the steps consumed, as in ``Dropout``
and ``Lookahead``. It holds no Sequences: a fixed-length history of past
steps is a ``(values, mask)`` pair, or arrays in a dict, that
:func:`seqstream.sequence.shift_in` advances. A state's arrays are read-only
views, and what they show never changes: a later step may write the slots
of a buffer past every state's end, as attention's KV cache appends in
place (see :mod:`seqstream.attention`), but never a slot below one. So any
state may be stepped again, or twice, and gives what a deep copy of it
gives. One thread at a time steps a given state; none of the library's
drivers does otherwise. A composite's state is the flat
tuple of the states of the leaves its step plan steps, in slot order; a
nested Serial or Parallel contributes its own flat tuple as a contiguous run
(see :mod:`seqstream.combinators`). No layer keeps memory on itself.

A layer with lookahead outputs invalid placeholder steps until enough input
has arrived; callers flush it with ``input_latency`` invalid inputs and drop
the first ``output_latency`` outputs (see
:func:`seqstream.streaming.step_by_step`).

Metadata exposed per layer: exact rational ``output_ratio``, ``block_size``,
both latencies, a per-step receptive field map (see
:mod:`seqstream.receptive_field`), ``supports_step`` and ``is_stochastic``.
They are plain attributes, set once in ``__init__``: ``SequenceLayer``
holds the defaults as class attributes, and a layer assigns what differs,
a subclass overriding its parent's value by assigning it after
``super().__init__()``. A composite derives its own from its children's at
construction (see :mod:`seqstream.combinators`). :func:`check_metadata`
raises ``ValueError`` when they contradict each other.

Emits are auxiliary outputs (taps on intermediate activations) returned by
``layer_with_emits`` and ``step_with_emits`` as one flat map
``{layer path: Sequence}``. A path is the layer names from the called layer
down to the tap, joined by ``/``: the prefix
:func:`seqstream.params.collect_parameters` gives the tap's parameters
(``serial/tap``, ``residual/body/emit``). A layer without taps returns a new
empty map. ``dense.Emit``, an identity leaf, taps its output under its own
name; a composite (``Serial``, ``Parallel``/``Residual``, ``Blockwise``)
files its children's emits under its own name, and derives ``layer`` and
``step`` from its ``*_with_emits`` pair, so outputs and emits come from one
loop and cannot drift apart. Extents differ between the modes: a
layer-mode tap is the tap's input as ``layer()`` computes it, and a
step-mode tap is the raw stepped stream, leading placeholders and flush
steps included. So ``Serial([Lookahead(2), Emit()])`` over 6 steps taps 6
steps layer-wise and 8 steps stepped.

Every library leaf implements one array kernel,
``_step_arrays(values, mask, state, training, constants)``, which returns
``(values, mask, state)``. Values at invalid steps are unspecified, in and
out: a leaf whose kernel reads them sets ``_masks_step_input``, and every
caller of the kernel (``layer``, ``step`` and the step plan) then zeroes
them by :func:`seqstream.sequence.zero_invalid`'s rule first, at the cost
its docstring gives. No kernel or combine zeroes its own output, which no
caller may read. A stateful leaf also implements ``get_initial_state``,
unless its state is just a history of its last ``_history_len`` input
steps, which the base class starts as invalid zeros; a stateless one keeps
the empty state and returns it unchanged. Everything else derives from
that kernel here: ``step`` runs it on one block; ``layer`` runs it once
over the whole sequence from the initial state, flushed and trimmed by the
rule :func:`flush_extent` computes for the step drivers too. ``layer``
writes the kernel's input once: a history leaf's initial history, the
input (zeroed) and the flush steps in one buffer, whose history the kernel
joins without a copy (see :mod:`seqstream.sequence`). No library leaf
keeps a ``layer()`` of its own. A layer without a kernel (a composite, a
sabotage fixture) declares only its ``layer()`` (or ``layer_with_emits``).

``get_output_spec`` is, for every layer, the spec of what ``layer()``
returns for an empty sequence. So both modes and the declared spec share
their math, their checks and their typed errors: a leaf checks its input in
the kernel, and a combinator its branches in its combine. Only ``Serial``
folds its children's specs instead, which is what its ``layer()`` runs (a
``Blockwise`` over an empty stream asks for it), and ``Repeat`` adds its
spec-preserving check to that fold.

Composites run the kernels through a plan (see :mod:`seqstream.combinators`)
whose root makes the one block check for the whole tree.

``training`` is a required keyword argument on the execution methods; there
is deliberately no default.
"""

from __future__ import annotations

import abc
import copy
import functools
import types
from fractions import Fraction
from typing import Any, Mapping

import numpy as np

from .errors import BlockSizeError, NotSteppableError, SpecMismatchError
from .receptive_field import rf_overall, validate_rf_per_step

# perfbench/tracer.py counts receptive-field map builds by patching this name
from .receptive_field import compose_rf_maps  # noqa: F401
from .sequence import (
    ChannelSpec,
    Sequence,
    empty_history,
    lay_out,
    split_history,
    zero_invalid,
)

Constants = Mapping[str, Any]
State = Any
Emits = dict[str, Sequence]

EMPTY_STATE: State = ()
UNIT_RATIO = Fraction(1)


def check_metadata(layer: "SequenceLayer") -> None:
    """Raises ValueError unless ``layer``'s metadata is self-consistent: a
    positive ``block_size`` divisible by its ``output_ratio``'s denominator,
    non-negative latencies and a well-formed receptive field map."""
    block, ratio = layer.block_size, layer.output_ratio
    if block < 1:
        raise ValueError(f"block_size must be positive, got {block}")
    if block % ratio.denominator:
        raise ValueError(
            f"block_size {block} not divisible by ratio denominator {ratio.denominator}"
        )
    if layer.input_latency < 0 or layer.output_latency < 0:
        raise ValueError("latencies must be non-negative")
    validate_rf_per_step(layer.receptive_field_per_step)


def ceil_ratio(time: int, ratio: Fraction) -> int:
    return -((-time * ratio.numerator) // ratio.denominator)


def flush_extent(layer: "SequenceLayer", time: int) -> tuple[int, int, int]:
    """The latency protocol for ``time`` input steps: (invalid steps to
    append, outputs to drop, outputs to keep). The appended steps flush the
    ``input_latency`` buffered ones and fill the last ``block_size`` block;
    the first ``output_latency`` outputs are placeholders, and
    ``output_time(time)`` outputs follow them."""
    fill = -(time + layer.input_latency) % layer.block_size
    return layer.input_latency + fill, layer.output_latency, layer.output_time(time)


class SequenceLayer(abc.ABC):
    """Base class for all layers. Subclasses are immutable after construction."""

    #: named parameter tensors; layers with parameters replace it in __init__
    _params: Mapping[str, np.ndarray] = types.MappingProxyType({})
    #: the layers this one is built from; a composite sets them in __init__
    children: "tuple[SequenceLayer, ...]" = ()

    def __init__(self, name: str | None = None):
        self.name = name if name is not None else type(self).__name__.lower()

    # -- metadata: the defaults; a layer assigns what differs in __init__ ----

    #: exact ratio of output steps to input steps
    output_ratio: Fraction = UNIT_RATIO
    block_size: int = 1
    input_latency: int = 0
    output_latency: int = 0
    #: step class -> receptive field (see :mod:`seqstream.receptive_field`)
    receptive_field_per_step: Mapping[int, Any] = types.MappingProxyType({0: (0, 0)})
    supports_step: bool = True
    #: True when outputs depend on an RNG at training time
    is_stochastic: bool = False

    @property
    def receptive_field(self):
        return rf_overall(self.receptive_field_per_step, self.output_ratio)

    @property
    def parameters(self) -> dict[str, np.ndarray]:
        return dict(self._params)

    def output_time(self, input_time: int) -> int:
        """Time extent layer() produces for an input of the given extent."""
        return ceil_ratio(input_time, self.output_ratio)

    def get_output_spec(self, input_spec: ChannelSpec, constants: Constants | None = None) -> ChannelSpec:
        """The spec of what :meth:`layer` returns for an empty sequence
        ``[1, 0, *shape]``, so the declared spec runs the code both modes
        run. The empty sequence meets the first batch row of each constant.
        Layers are immutable, so the spec is remembered per input spec when
        there are no constants."""
        if constants is None and input_spec in self._output_specs:
            return self._output_specs[input_spec]
        if constants:
            constants = {
                k: Sequence._wrap(c.values[:1], c.mask[:1]) if isinstance(c, Sequence) else c
                for k, c in constants.items()
            }
        empty = np.zeros((1, 0) + input_spec.shape, input_spec.dtype)
        x = Sequence._wrap(empty, np.zeros((1, 0), bool))
        spec = self.layer(x, training=False, constants=constants).channel_spec
        if constants is None:
            self._output_specs[input_spec] = spec
        return spec

    @functools.cached_property
    def _output_specs(self) -> dict:
        """input spec -> output spec, filled by :meth:`get_output_spec`."""
        return {}

    # -- execution -----------------------------------------------------------

    def layer(self, x: Sequence, *, training: bool, constants: Constants | None = None) -> Sequence:
        """Processes a whole sequence: the step kernel run once over all of
        ``x``, flushed and trimmed as :func:`seqstream.streaming.step_by_step`
        does (see :func:`flush_extent`), on one
        :func:`~seqstream.sequence.lay_out` of the input. A history leaf's
        initial state is that buffer's first ``_history_len`` steps."""
        pad, drop, keep = flush_extent(self, x.time)
        history = self._history_len
        if type(self).get_initial_state is not SequenceLayer.get_initial_state:
            history = None  # the override gives the initial state in both modes
        values, mask = lay_out(x.values, x.mask, history or 0, pad, self._masks_step_input)
        if history is None:
            state = self.get_initial_state(
                x.batch_size, x.channel_spec, training=training, constants=constants
            )
        else:
            state, (values, mask) = split_history((values, mask), history)
        values, mask, _ = self._step_arrays(values, mask, state, training, constants)
        return Sequence._wrap(values[:, drop : drop + keep], mask[:, drop : drop + keep])

    #: steps of past input the step state keeps, for a leaf whose state is
    #: just that history, a ``(values, mask)`` pair that starts as invalid
    #: zeros; None for any other state. A subclass that overrides
    #: ``get_initial_state`` has its override give the state in ``layer()``
    #: too, which then joins the history on by a copy
    _history_len: int | None = None

    def get_initial_state(
        self,
        batch_size: int,
        input_spec: ChannelSpec,
        *,
        training: bool,
        constants: Constants | None = None,
    ) -> State:
        if not self.supports_step:
            raise NotSteppableError(f"{self.name} does not support stepping")
        if self._history_len is None:
            return EMPTY_STATE
        return empty_history(batch_size, self._history_len, input_spec)

    #: whether ``_step_arrays`` reads invalid input steps, which its callers
    #: then zero
    _masks_step_input = False

    def _step_arrays(self, values, mask, state, training, constants):
        """The step kernel over raw arrays (see the module docstring)."""
        raise NotImplementedError

    def step(
        self,
        x: Sequence,
        state: State,
        *,
        training: bool,
        constants: Constants | None = None,
    ) -> tuple[Sequence, State]:
        self._check_block(x)
        values = zero_invalid(x.values, x.mask) if self._masks_step_input else x.values
        values, mask, state = self._step_arrays(values, x.mask, state, training, constants)
        return Sequence._wrap(values, mask), state

    #: whether the layer's output is an emit under its own name, as an
    #: identity ``dense.Emit``'s is
    _is_tap = False

    def layer_with_emits(
        self, x: Sequence, *, training: bool, constants: Constants | None = None
    ) -> tuple[Sequence, Emits]:
        y = self.layer(x, training=training, constants=constants)
        return y, {self.name: y} if self._is_tap else {}

    def step_with_emits(
        self,
        x: Sequence,
        state: State,
        *,
        training: bool,
        constants: Constants | None = None,
    ) -> tuple[Sequence, State, Emits]:
        y, state = self.step(x, state, training=training, constants=constants)
        return y, state, {self.name: y} if self._is_tap else {}

    # -- validation helpers --------------------------------------------------

    def _check_block(self, x: Sequence) -> None:
        time = x.values.shape[1]
        if time == 0 or time % self.block_size:
            raise BlockSizeError(
                f"{self.name}: step input time {time} is not a positive multiple "
                f"of block_size {self.block_size}"
            )

    def _expect_channels(self, shape: tuple, expected: tuple) -> None:
        """Raises unless an input's channel ``shape`` is ``expected``: the
        kernel's channel check, so both modes and the spec give one message."""
        if shape != expected:
            raise SpecMismatchError(f"{self.name}: expected channel shape {expected}, got {shape}")

    def _channel_axis(self, axis: int, rank: int) -> int:
        """``axis`` of ``rank`` channel axes as a non-negative index: numpy's
        range, ``-rank <= axis < rank``, else SpecMismatchError."""
        if not -rank <= axis < rank:
            raise SpecMismatchError(f"{self.name}: axis {axis} out of range [{-rank}, {rank})")
        return axis % rank

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def renamed(layer: SequenceLayer, name: str) -> SequenceLayer:
    """``layer`` itself when it is already called ``name``, else a shallow copy
    under ``name``. Layers are immutable, so the copy shares parameters."""
    if layer.name == name:
        return layer
    twin = copy.copy(layer)
    twin.name = name
    return twin


def poison_value(dtype: np.dtype):
    """The loudest contamination marker representable in the dtype."""
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        return np.float32(np.nan)
    if dtype.kind in ("i", "u"):
        return np.int32(10**9)
    return True


def poison_invalid(x: Sequence) -> Sequence:
    """Replaces values at invalid positions with poison; mask unchanged."""
    fill = np.full((), poison_value(x.dtype), dtype=x.dtype)
    values = np.where(x.expanded_mask(), x.values, fill)
    return Sequence(values, x.mask)
