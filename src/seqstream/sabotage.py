"""Deliberately broken layers, one per contract check.

These exist to prove the harness catches what it claims to catch: each
fixture violates exactly one clause of the contract while looking plausible
otherwise. They are also registered in the pipeline registry under
``sabotage_*`` names so the CLI failure paths can be exercised end to end.
Never use them for anything else.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .dense import Identity
from .layer import SequenceLayer
from .sequence import Sequence
from .temporal import Conv1D


class StaleBufferConv(Conv1D):
    """step() never updates its context buffer (breaks layer_step_equal_1x)."""

    def step(self, x, state, *, training, constants=None):
        y, _ = super().step(x, state, training=training, constants=constants)
        return y, state


class FirstBlockOnly(SequenceLayer):
    """Correct at exactly block_size per step, garbage beyond it.

    Breaks layer_step_equal_2x while passing the 1x check.
    """

    block_size = 2

    def layer(self, x, *, training, constants=None):
        return x

    def get_initial_state(self, batch_size, input_spec, *, training, constants=None):
        return ()

    def step(self, x, state, *, training, constants=None):
        self._check_block(x)
        if x.time > self.block_size:
            zeros = np.zeros_like(np.asarray(x.values))
            return Sequence(zeros, x.mask), state
        return x, state


class WrongRatioIdentity(Identity):
    """Claims to halve the sequence but does not (breaks metadata_consistency)."""

    output_ratio = Fraction(1, 2)
    block_size = 2

    # its own identity in both modes: a kernel-derived layer() would trim
    # the output to the false ratio and hide the violation
    def layer(self, x, *, training, constants=None):
        return x

    def step(self, x, state, *, training, constants=None):
        self._check_block(x)
        return x, state


class UnderdeclaredRFConv(Conv1D):
    """kernel_size-3 causal conv declaring a 2-step receptive field.

    Breaks receptive_field_empirical: the probe finds dependence at -2.
    """

    def __init__(self, in_channels, filters, *, params=None, rng=None, name=None):
        super().__init__(
            in_channels, filters, 3, padding="causal", params=params, rng=rng, name=name
        )
        self.receptive_field_per_step = {0: (-1, 0)}


class BatchMixingDense(SequenceLayer):
    """Subtracts the batch mean per timestep (breaks batching_invariance)."""

    def layer(self, x, *, training, constants=None):
        centered = np.asarray(x.values) - np.asarray(x.values).mean(axis=0, keepdims=True)
        return Sequence(centered.astype(x.dtype), x.mask)

    def get_initial_state(self, batch_size, input_spec, *, training, constants=None):
        return ()

    def step(self, x, state, *, training, constants=None):
        self._check_block(x)
        return self.layer(x, training=training, constants=constants), state


class LeakyConv(Conv1D):
    """A Conv1D whose kernel reads invalid steps without having them zeroed,
    so poisoned padding contaminates valid outputs (breaks padding_invariance).

    Must look ahead (reverse_causal/same): a causal window never reaches the
    invalid tail from a valid anchor, which would hide the leak.
    """

    _masks_step_input = False


class ShapeShiftingEmits(Identity):
    """Taps its input under one path layer-wise and another step-wise
    (breaks emits_consistency)."""

    def layer_with_emits(self, x, *, training, constants=None):
        return x, {f"{self.name}/layer_tap": x}

    def step_with_emits(self, x, state, *, training, constants=None):
        y, state = self.step(x, state, training=training, constants=constants)
        return y, state, {f"{self.name}/step_tap": x}


class BlockSeededDropout(SequenceLayer):
    """Dropout whose draws restart at every step call (breaks rng_equivalence)."""

    is_stochastic = True

    def __init__(self, rate=0.5, seed=0, name=None):
        super().__init__(name)
        self.rate = float(rate)
        self.seed = int(seed)

    def _draw(self, shape):
        return np.random.default_rng(self.seed).uniform(size=shape) < (1 - self.rate)

    def layer(self, x, *, training, constants=None):
        if not training:
            return x
        keep = self._draw(x.shape)
        scale = np.float32(1 / (1 - self.rate))
        return Sequence(
            np.where(keep, np.asarray(x.values) * scale, np.float32(0)), x.mask
        )

    def get_initial_state(self, batch_size, input_spec, *, training, constants=None):
        return 0

    def step(self, x, state, *, training, constants=None):
        self._check_block(x)
        return self.layer(x, training=training, constants=constants), state + x.time


#: check name -> factory(in_channels, rng, params=None) for the fixture that
#: must trip it; ``params`` is an archive of the fixture's own parameters
FIXTURES = {
    "layer_step_equal_1x": lambda ch, rng, params=None: StaleBufferConv(
        ch, 3, 3, padding="causal", params=params, rng=rng, name="stale_buffer_conv"
    ),
    "layer_step_equal_2x": lambda ch, rng, params=None: FirstBlockOnly(name="first_block_only"),
    "metadata_consistency": lambda ch, rng, params=None: WrongRatioIdentity(name="wrong_ratio"),
    "receptive_field_empirical": lambda ch, rng, params=None: UnderdeclaredRFConv(
        ch, 3, params=params, rng=rng, name="underdeclared_rf"
    ),
    "batching_invariance": lambda ch, rng, params=None: BatchMixingDense(name="batch_mixing"),
    "padding_invariance": lambda ch, rng, params=None: LeakyConv(
        ch, 3, 3, padding="reverse_causal", params=params, rng=rng, name="leaky_conv"
    ),
    "emits_consistency": lambda ch, rng, params=None: ShapeShiftingEmits(
        name="shape_shifting_emits"
    ),
    "rng_equivalence": lambda ch, rng, params=None: BlockSeededDropout(
        seed=3, name="block_seeded_dropout"
    ),
}

#: check name -> pipeline registry type name of its fixture
TYPE_NAMES = {
    "layer_step_equal_1x": "sabotage_step_state",
    "layer_step_equal_2x": "sabotage_double_block",
    "metadata_consistency": "sabotage_metadata",
    "receptive_field_empirical": "sabotage_rf",
    "batching_invariance": "sabotage_batch_mixing",
    "padding_invariance": "sabotage_padding_leak",
    "emits_consistency": "sabotage_emits",
    "rng_equivalence": "sabotage_rng",
}
