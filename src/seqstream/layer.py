"""The core layer contract.

Every layer processes sequences two ways and the two must agree:

* ``layer(x, training=...)`` consumes a whole sequence at once;
* ``get_initial_state(...)`` then repeated ``step(block, state, ...)`` calls
  consume the sequence in blocks whose time extent is a positive multiple of
  the layer's ``block_size``, threading all memory through the returned state.

State is an explicit tree (empty tuple, arrays, Sequences, tuples, dicts, or
an RngCounter); no layer keeps memory on itself. A layer with lookahead emits
invalid placeholder steps until enough input has arrived; callers flush it
with ``input_latency`` invalid inputs and drop the first ``output_latency``
outputs (see :func:`seqstream.streaming.step_by_step`).

Metadata exposed per layer: exact rational ``output_ratio``, ``block_size``,
both latencies, and a per-step receptive field map (see
:mod:`seqstream.receptive_field`).

Emits are auxiliary outputs (taps on intermediate activations) returned by
``layer_with_emits`` and ``step_with_emits``. A plain layer has none, and its
``*_with_emits`` methods wrap ``layer``/``step``. A layer that produces or
forwards emits - ``dense.Emit`` and the combinators ``Serial``,
``Parallel``/``Residual`` and ``Blockwise`` - is :class:`Emitting`: it
implements only the ``*_with_emits`` pair and derives ``layer``/``step`` from
it, so outputs and emits come from one loop and cannot drift apart.

``training`` is a required keyword argument on the execution methods; there
is deliberately no default.
"""

from __future__ import annotations

import abc
import copy
import dataclasses
import math
import types
from fractions import Fraction
from typing import Any, Mapping

import numpy as np

from .errors import BlockSizeError, NotSteppableError, SpecMismatchError
from .receptive_field import compose_rf_maps, rf_overall, validate_rf_per_step
from .sequence import ChannelSpec, Sequence

Constants = Mapping[str, Any]
State = Any
Emits = Any

EMPTY_STATE: State = ()
EMPTY_EMITS: Emits = ()
UNIT_RATIO = Fraction(1)


@dataclasses.dataclass(frozen=True)
class RngCounter:
    """Counter-based RNG state: a seed plus the number of timesteps consumed."""

    seed: int
    offset: int = 0

    def advanced(self, steps: int) -> "RngCounter":
        return RngCounter(self.seed, self.offset + steps)


@dataclasses.dataclass(frozen=True)
class LayerProperties:
    """Static metadata describing a layer's streaming behavior."""

    output_ratio: Fraction
    block_size: int
    input_latency: int
    output_latency: int
    receptive_field_per_step: dict
    supports_step: bool

    def __post_init__(self):
        if self.block_size < 1:
            raise ValueError(f"block_size must be positive, got {self.block_size}")
        if self.block_size % self.output_ratio.denominator:
            raise ValueError(
                f"block_size {self.block_size} not divisible by ratio denominator "
                f"{self.output_ratio.denominator}"
            )
        if self.input_latency < 0 or self.output_latency < 0:
            raise ValueError("latencies must be non-negative")
        validate_rf_per_step(self.receptive_field_per_step)

    @property
    def receptive_field(self):
        return rf_overall(self.receptive_field_per_step, self.output_ratio)


def ceil_ratio(time: int, ratio: Fraction) -> int:
    return -((-time * ratio.numerator) // ratio.denominator)


def compose_receptive_fields(first: LayerProperties, second: LayerProperties) -> dict:
    """Per-step receptive field of ``second`` applied after ``first``."""
    return compose_rf_maps(
        first.receptive_field_per_step,
        first.output_ratio,
        second.receptive_field_per_step,
        second.output_ratio,
    )


class SequenceLayer(abc.ABC):
    """Base class for all layers. Subclasses are immutable after construction."""

    #: named parameter tensors; layers with parameters replace it in __init__
    _params: Mapping[str, np.ndarray] = types.MappingProxyType({})

    def __init__(self, name: str | None = None):
        self.name = name if name is not None else type(self).__name__.lower()

    # -- metadata ----------------------------------------------------------

    @property
    def output_ratio(self) -> Fraction:
        return UNIT_RATIO

    @property
    def block_size(self) -> int:
        return 1

    @property
    def input_latency(self) -> int:
        return 0

    @property
    def output_latency(self) -> int:
        return 0

    @property
    def receptive_field_per_step(self) -> dict:
        return {0: (0, 0)}

    @property
    def receptive_field(self):
        return rf_overall(self.receptive_field_per_step, self.output_ratio)

    @property
    def supports_step(self) -> bool:
        return True

    @property
    def is_stochastic(self) -> bool:
        """True when outputs depend on an RNG at training time."""
        return False

    @property
    def properties(self) -> LayerProperties:
        return LayerProperties(
            output_ratio=self.output_ratio,
            block_size=self.block_size,
            input_latency=self.input_latency,
            output_latency=self.output_latency,
            receptive_field_per_step=self.receptive_field_per_step,
            supports_step=self.supports_step,
        )

    @property
    def parameters(self) -> dict[str, np.ndarray]:
        return dict(self._params)

    @property
    def children(self) -> "tuple[SequenceLayer, ...]":
        return ()

    def output_time(self, input_time: int) -> int:
        """Time extent layer() produces for an input of the given extent."""
        return ceil_ratio(input_time, self.output_ratio)

    def get_output_spec(self, input_spec: ChannelSpec, constants: Constants | None = None) -> ChannelSpec:
        return input_spec

    # -- execution -----------------------------------------------------------

    @abc.abstractmethod
    def layer(self, x: Sequence, *, training: bool, constants: Constants | None = None) -> Sequence:
        """Processes a whole sequence."""

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
        return EMPTY_STATE

    def step(
        self,
        x: Sequence,
        state: State,
        *,
        training: bool,
        constants: Constants | None = None,
    ) -> tuple[Sequence, State]:
        raise NotImplementedError

    def layer_with_emits(
        self, x: Sequence, *, training: bool, constants: Constants | None = None
    ) -> tuple[Sequence, Emits]:
        return self.layer(x, training=training, constants=constants), EMPTY_EMITS

    def step_with_emits(
        self,
        x: Sequence,
        state: State,
        *,
        training: bool,
        constants: Constants | None = None,
    ) -> tuple[Sequence, State, Emits]:
        y, state = self.step(x, state, training=training, constants=constants)
        return y, state, EMPTY_EMITS

    # -- validation helpers --------------------------------------------------

    def _check_block(self, x: Sequence) -> None:
        if x.time == 0 or x.time % self.block_size:
            raise BlockSizeError(
                f"{self.name}: step input time {x.time} is not a positive multiple "
                f"of block_size {self.block_size}"
            )

    def _check_channel_rank(self, x: Sequence, rank: int) -> None:
        if len(x.channel_shape) != rank:
            raise SpecMismatchError(
                f"{self.name} expects channel rank {rank}, got shape {x.channel_shape}"
            )

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


class Emitting(SequenceLayer):
    """A layer whose emits ride its one execution loop: subclasses implement
    ``layer_with_emits`` and ``step_with_emits``; ``layer`` and ``step`` return
    their outputs without the emits."""

    @abc.abstractmethod
    def layer_with_emits(self, x, *, training, constants=None):
        """Processes a whole sequence; returns (output, emits)."""

    def step_with_emits(self, x, state, *, training, constants=None):
        raise NotImplementedError

    def layer(self, x, *, training, constants=None):
        return self.layer_with_emits(x, training=training, constants=constants)[0]

    def step(self, x, state, *, training, constants=None):
        y, state, _ = self.step_with_emits(x, state, training=training, constants=constants)
        return y, state


class StatelessLayer(SequenceLayer):
    """Layer with no memory across steps; step() delegates to layer()."""

    def step(self, x, state, *, training, constants=None):
        self._check_block(x)
        return self.layer(x, training=training, constants=constants), state


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
