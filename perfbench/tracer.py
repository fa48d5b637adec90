"""Per-node tracing of a seqstream layer tree, installed from outside the library.

The tracer wraps, for the life of a ``with tracer.installed(roots):`` block:

* the public execution methods of every node in each tree (as instance
  attributes, so the classes stay untouched);
* the step drivers ``step_by_step`` and ``stream_blocks`` under every module
  name the library calls them by;
* the metadata properties of the combinator classes (counted, not timed);
* ``Sequence.__init__`` (counted and timed) and ``tensor.tensor`` (counted);
* the receptive-field map builders (counted).

Everything is restored when the block exits. Spans nest on one stack: a
span's self time is its duration minus the spans opened directly inside it.
A call into the node that is already on top of the stack (a stateless
``step`` calling its own ``layer``) joins the open span instead of opening a
new one, so every second of a node lands in exactly one mode.

Counts and times go into the :class:`Stats` object passed to ``collect``, so
a caller can keep the phases of one run apart.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import time

from seqstream import combinators, layer as layer_mod, receptive_field, recurrent, sequence
from seqstream import streaming, temporal, tensor, verify

#: method name -> mode the span is filed under
NODE_METHODS = {
    "layer": "layer",
    "layer_with_emits": "layer",
    "step": "step",
    "step_with_emits": "step",
    "get_initial_state": "state",
}

#: module attributes through which the library reaches the step drivers
DRIVER_SITES = (
    (streaming, "step_by_step"),
    (streaming, "stream_blocks"),
    (verify, "step_by_step"),
    (verify, "stream_blocks"),
    (combinators, "stream_blocks"),
)

#: module attributes through which the library builds receptive-field maps
RF_MAP_SITES = (
    (receptive_field, "compose_rf_maps"),
    (receptive_field, "serial_rf_map"),
    (combinators, "serial_rf_map"),
    (layer_mod, "compose_rf_maps"),
)

COMBINATOR_CLASSES = (
    combinators.Serial,
    combinators.Parallel,
    combinators.Residual,
    combinators.Repeat,
    combinators.Bidirectional,
    combinators.Blockwise,
)

METADATA_PROPERTIES = (
    "block_size",
    "output_ratio",
    "input_latency",
    "output_latency",
    "supports_step",
    "receptive_field_per_step",
)


def category(node) -> str:
    """The per-layer metric prefix a node's time is filed under."""
    module = type(node).__module__.rsplit(".", 1)[-1]
    if isinstance(node, temporal.Conv1DTranspose):
        return "temporal.conv1d_transpose"
    if isinstance(node, temporal.Conv1D):
        return "temporal.conv1d"
    if isinstance(node, recurrent.LSTM):
        return "recurrent.lstm"
    return module


@dataclasses.dataclass
class NodeStats:
    cls: str
    category: str
    calls: collections.Counter = dataclasses.field(default_factory=collections.Counter)
    total_s: collections.Counter = dataclasses.field(default_factory=collections.Counter)
    self_s: collections.Counter = dataclasses.field(default_factory=collections.Counter)
    state_bytes: int = 0


@dataclasses.dataclass
class Stats:
    """What one phase of a run did, as seen through the wrappers."""

    nodes: dict = dataclasses.field(default_factory=dict)
    counts: collections.Counter = dataclasses.field(default_factory=collections.Counter)
    seconds: collections.Counter = dataclasses.field(default_factory=collections.Counter)

    def node_breakdown(self) -> dict:
        return {
            path: {
                "class": n.cls,
                "category": n.category,
                "calls": dict(n.calls),
                "self_s": dict(n.self_s),
                "total_s": dict(n.total_s),
            }
            for path, n in self.nodes.items()
        }


def walk(node, path=None):
    """Yields (path, node) for a tree, paths joined with '/'."""
    path = node.name if path is None else f"{path}/{node.name}"
    yield path, node
    for child in node.children:
        yield from walk(child, path)


def kv_cache_bytes(state) -> int:
    if isinstance(state, dict) and "k_cache" in state:
        return int(state["k_cache"].nbytes + state["v_cache"].nbytes)
    return 0


class Tracer:
    """Records spans and counts while ``installed``; see the module docstring."""

    def __init__(self):
        self._stack = []  # open spans: [key, start, child_seconds]
        self._stats = Stats()
        self._roots = set()
        self._node_info = {}  # path -> (class name, category)

    @contextlib.contextmanager
    def collect(self, stats: Stats):
        """Routes everything recorded inside the block into ``stats``."""
        previous, self._stats = self._stats, stats
        try:
            yield stats
        finally:
            self._stats = previous

    # -- spans -------------------------------------------------------------

    def _span(self, key, fn, args, kwargs, on_exit=None):
        if self._stack and self._stack[-1][0][0] == key[0]:
            return fn(*args, **kwargs)
        frame = [key, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            elapsed = time.perf_counter() - frame[1]
            if self._stack:
                self._stack[-1][2] += elapsed
            self._record(key, elapsed, elapsed - frame[2])
        if on_exit is not None:
            on_exit(result)
        return result

    def _record(self, key, total, own):
        kind, mode = key
        if kind == "driver":
            self._stats.seconds["driver_self"] += own
            return
        if kind in self._roots:
            self._stats.counts[f"root_{mode}_calls"] += 1
        node = self._node(kind)
        node.calls[mode] += 1
        node.total_s[mode] += total
        node.self_s[mode] += own

    def _node_wrapper(self, path, method, fn):
        mode = NODE_METHODS[method]
        is_root = path in self._roots

        def on_exit(result):
            if mode != "step":
                return
            y, state = result[0], result[1]
            if is_root:
                self._stats.counts["root_valid_steps"] += int(y.mask.sum())
                self._stats.counts["root_emitted_steps"] += int(y.mask.size)
            cache = kv_cache_bytes(state)
            if cache:
                node = self._node(path)
                node.state_bytes = max(node.state_bytes, cache)

        def wrapper(*args, **kwargs):
            return self._span((path, mode), fn, args, kwargs, on_exit)

        return wrapper

    def _node(self, path) -> NodeStats:
        if path not in self._stats.nodes:
            self._stats.nodes[path] = NodeStats(*self._node_info[path])
        return self._stats.nodes[path]

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, roots):
        """Wraps every node of every tree in ``roots`` plus the library hooks."""
        self._node_info.clear()
        undo = []

        def patch(owner, name, value):
            had_own = name in vars(owner)
            old = vars(owner).get(name)
            setattr(owner, name, value)
            undo.append((owner, name, had_own, old))

        try:
            for root in roots:
                for path, node in walk(root):
                    if path in self._node_info:
                        raise ValueError(f"duplicate node path {path!r}")
                    self._node_info[path] = (type(node).__name__, category(node))
                    if node is root:
                        self._roots.add(path)
                    for method in NODE_METHODS:
                        patch(node, method, self._node_wrapper(path, method, getattr(node, method)))
            for module, name in DRIVER_SITES:
                patch(module, name, self._driver_wrapper(getattr(module, name)))
            for module, name in RF_MAP_SITES:
                patch(module, name, self._counting(getattr(module, name), "rf_map_calls"))
            for cls in COMBINATOR_CLASSES:
                for prop in METADATA_PROPERTIES:
                    if isinstance(vars(cls).get(prop), property):
                        patch(cls, prop, self._counting_property(vars(cls)[prop]))
            patch(tensor, "tensor", self._counting(tensor.tensor, "tensor_calls"))
            patch(sequence.Sequence, "__init__", self._timed_init(sequence.Sequence.__init__))
            yield self
        finally:
            for owner, name, had_own, old in reversed(undo):
                if had_own:
                    setattr(owner, name, old)
                else:
                    delattr(owner, name)
            self._roots.clear()

    def _driver_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            return self._span(("driver", "driver"), fn, args, kwargs)

        return wrapper

    def _counting(self, fn, counter):
        def wrapper(*args, **kwargs):
            self._stats.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counting_property(self, prop):
        fget = prop.fget

        def counted(obj):
            self._stats.counts["combinator_metadata_calls"] += 1
            return fget(obj)

        return property(counted, doc=prop.__doc__)

    def _timed_init(self, init):
        def wrapper(obj, *args, **kwargs):
            start = time.perf_counter()
            try:
                init(obj, *args, **kwargs)
            finally:
                self._stats.counts["sequence_constructions"] += 1
                self._stats.seconds["sequence_init"] += time.perf_counter() - start

        return wrapper
