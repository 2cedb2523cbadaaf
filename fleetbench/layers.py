"""Per-layer probes for the traced benchmark run, installed from outside.

The program under test is not instrumented for this benchmark.  Instead a
:class:`LayerProbe` replaces the public entry points of each layer (listed in
:data:`ENTRY_POINTS`) with timing wrappers *on their classes or modules*, for
the duration of a ``with probe.installed():`` block.  Nothing is stored in
object state, so every instance stays picklable and snapshot artifacts keep
their bytes: a bound method pickles by name, and a wrapped module function
pickles by its original qualified name, which resolves to the same wrapper
while it is installed.

Each wrapper records a span: call count, inclusive time and self time (the
span's duration minus the time its child spans cover).  Time between
successive ``EventQueue.pop`` calls is attributed to the popped event's name
prefix (``mobility-tick``, ``lidar``, ``beacon``, ...) — the dispatch split,
which reaches periodic callbacks that have no public entry point.  A sample
of the spans is kept in a :class:`repro.telemetry.trace.Tracer` (never
activated, so the program's own trace hooks stay off) and saved at the end
as Chrome trace events.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``(layer, span key, module, class or None for a module function, attribute)``.
#: All public, except ``BeaconAgent._on_frame``: the receive callback the
#: mesh registers with the radio, without which beacon handling inside a
#: radio delivery would be charged to the radio.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[str], str], ...] = (
    ("simcore", "step", "repro.simcore.simulator", "Simulator", "step"),
    ("simcore", "schedule", "repro.simcore.simulator", "Simulator", "schedule"),
    ("simcore", "schedule", "repro.simcore.simulator", "Simulator", "schedule_batch"),
    ("simcore", "schedule", "repro.simcore.simulator", "Simulator", "schedule_at"),
    ("simcore", "schedule", "repro.simcore.simulator", "Simulator", "schedule_periodic"),
    ("simcore", "pop", "repro.simcore.event", "EventQueue", "pop"),
    ("radio", "transmit", "repro.radio.interfaces", "RadioEnvironment", "transmit"),
    ("radio", "link_quality", "repro.radio.interfaces", "RadioEnvironment", "link_quality"),
    ("radio", "nodes_in_range", "repro.radio.interfaces", "RadioEnvironment", "nodes_in_range"),
    ("radio", "deliver", "repro.radio.interfaces", "RadioInterface", "deliver"),
    ("mesh", "beacon_receive", "repro.mesh.discovery", "BeaconAgent", "_on_frame"),
    ("mesh", "observe", "repro.mesh.neighbor", "NeighborTable", "observe"),
    ("mesh", "active_names", "repro.mesh.neighbor", "NeighborTable", "active_names"),
    ("mesh", "membership_size", "repro.mesh.membership", "MeshMembership", "size"),
    ("mesh", "members", "repro.mesh.membership", "MeshMembership", "members"),
    ("mesh", "topology_snapshot", "repro.mesh.topology", "TopologyObserver", "take_snapshot"),
    ("mesh", "transport_send", "repro.mesh.transport", "ReliableTransport", "send"),
    ("geometry", "los", "repro.geometry.los", "VisibilityMap", "has_line_of_sight"),
    ("geometry", "los_batch", "repro.geometry.los", "VisibilityMap", "line_of_sight_batch"),
    ("geometry", "range_query", "repro.geometry.spatial_index", "SpatialGrid", "query_range"),
    ("data", "capture", "repro.data.sensors", "LidarSensor", "capture"),
    ("data", "pond_store", "repro.data.pond", "DataPond", "store"),
    ("perception", "local_build", "repro.perception.lookaround", None, "build_local_object_list"),
    ("perception", "local_build", "repro.perception.lookaround", None, "build_local_occupancy"),
    ("core", "submit", "repro.core.orchestrator", "Orchestrator", "submit"),
    ("core", "rank", "repro.core.candidate", "CandidateScorer", "rank"),
    ("compute", "node_submit", "repro.compute.node", "ComputeNode", "submit"),
    ("compute", "invoke", "repro.compute.faas", "FaaSRuntime", "invoke"),
    ("snapshot", "capture", "repro.snapshot.scenario", None, "snapshot_scenario"),
    ("snapshot", "restore", "repro.snapshot.scenario", None, "restore_scenario"),
    ("snapshot", "encode", "repro.snapshot.codec", "SnapshotCodec", "encode"),
    ("snapshot", "decode", "repro.snapshot.codec", "SnapshotCodec", "decode"),
    ("service", "step", "repro.service.session", "SimulationSession", "step"),
    ("service", "evict", "repro.service.registry", "SessionRegistry", "evict"),
    ("service", "restore", "repro.service.registry", "SessionRegistry", "restore"),
)

#: Layers whose entry points are probed, in report order.
LAYERS = (
    "simcore", "radio", "mesh", "geometry", "mobility", "data",
    "perception", "core", "compute", "snapshot", "service",
)

#: Event-name prefix -> layer whose callback code runs for that event.  Used
#: to charge callback time no wrapped span covers; ``deliver-*`` events run
#: the radio medium's delivery, and unlisted prefixes are charged to "other".
DISPATCH_LAYERS = {
    "mobility-tick": "mobility",
    "lidar": "data",
    "beacon": "mesh",
    "neighbor-expiry": "mesh",
    "topology": "mesh",
    "transfer-timeout": "mesh",
    "faas-start": "compute",
    "compute-finish": "compute",
    "workload-arrival": "core",
    "offer-timeout": "core",
    "ego-perception": "perception",
}


def dispatch_layer(prefix: str) -> str:
    """The layer an event prefix's uncovered callback time is charged to."""
    if prefix.startswith("deliver-"):
        return "radio"
    return DISPATCH_LAYERS.get(prefix, "other")


def dispatch_key(name: str) -> str:
    """The dispatch bucket of an event name: its prefix before ``:``."""
    head = name.split(":", 1)[0]
    if head.startswith("transfer-timeout-"):
        return "transfer-timeout"
    return head or "anonymous"


class LayerProbe:
    """Counts and times calls into each layer's public entry points.

    Create one per traced run; :meth:`installed` patches the entry points
    and restores the originals on exit, :meth:`reset` zeroes the
    accumulators (``run.py`` calls it where the measured window starts).

    A wrapper's own bookkeeping is charged to no span: the enclosing span
    counts the wrapper's whole duration as child time, while the wrapped
    span's self time stops at the wrapped call's return.  So the sum of the
    self times is roughly the traced wall time minus the probe's own cost.
    """

    #: Span keys whose individual call durations are kept (for percentiles).
    #: Evict and restore latencies are timed by ``run.py`` around its calls.
    KEEP_DURATIONS = ("service.step",)
    #: One Chrome trace span is kept per this many calls of an entry point.
    SAMPLE_EVERY = 64

    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer
        self._stack: List[float] = []
        #: span key -> [calls, inclusive seconds, self seconds]
        self._spans: Dict[str, List[float]] = {}
        self.durations: Dict[str, List[float]] = {key: [] for key in self.KEEP_DURATIONS}
        self.reset()

    def reset(self) -> None:
        """Zero every accumulator (call between top-level operations only)."""
        for acc in self._spans.values():
            acc[:] = [0, 0.0, 0.0]
        for samples in self.durations.values():
            samples.clear()
        self.dispatch: Dict[str, float] = defaultdict(float)
        self.dispatch_self: Dict[str, float] = defaultdict(float)
        self.dispatch_count: Counter = Counter()
        self.events_fired = 0
        self.pending_max = 0
        self.entries_returned = 0
        self.node_accepts = 0
        self.snapshot_sizes: List[int] = []
        self._dispatching: Optional[str] = None
        self._dispatch_start = 0.0
        self._dispatch_child = 0.0

    # ------------------------------------------------------------ wrappers

    def _wrap(self, layer: str, key: str, original: Callable) -> Callable:
        special = {"simcore.pop": self._wrap_pop, "simcore.step": self._wrap_step}
        span_key = f"{layer}.{key}"
        acc = self._spans.setdefault(span_key, [0, 0.0, 0.0])
        if span_key in special:
            return special[span_key](acc, original)
        clock = time.perf_counter
        stack = self._stack
        tracer = self.tracer
        sample = self.SAMPLE_EVERY
        durations = self.durations.get(span_key)
        after = {
            "mesh.active_names": self._after_active_names,
            "compute.node_submit": self._after_node_submit,
            "snapshot.capture": self._after_capture,
        }.get(span_key)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                child = stack.pop()
                acc[0] += 1
                acc[1] += end - start
                acc[2] += end - start - child
                if durations is not None:
                    durations.append(end - start)
                if (acc[0] - 1) % sample == 0:
                    tracer.span(key, layer, start)
                if stack:
                    stack[-1] += clock() - start
            if after is not None:
                after(result)
            return result

        return wrapper

    def _wrap_pop(self, acc: List[float], original: Callable) -> Callable:
        """``EventQueue.pop``: also closes the previous event's dispatch
        interval and opens the popped event's."""
        probe = self
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(original)
        def pop(queue):
            start = clock()
            if probe._dispatching is not None and stack:
                probe._close_interval(start, stack[-1])
            event = original(queue)
            end = clock()
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start
            key = dispatch_key(event.name)
            probe.dispatch_count[key] += 1
            pending = queue.active_count()
            if pending > probe.pending_max:
                probe.pending_max = pending
            if stack:
                probe._dispatching = key
                done = clock()
                stack[-1] += done - start
                probe._dispatch_start = done
                probe._dispatch_child = stack[-1]
            return event

        return pop

    def _wrap_step(self, acc: List[float], original: Callable) -> Callable:
        """``Simulator.step``: the event loop span that dispatch intervals
        subdivide."""
        probe = self
        clock = time.perf_counter
        stack = self._stack
        tracer = self.tracer

        @functools.wraps(original)
        def step(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                outcome = original(*args, **kwargs)
            finally:
                end = clock()
                if probe._dispatching is not None:
                    # The slice's last event ran until the loop returned.
                    probe._close_interval(end, stack[-1])
                    probe._dispatching = None
                child = stack.pop()
                acc[0] += 1
                acc[1] += end - start
                acc[2] += end - start - child
                tracer.span("step", "simcore", start)
                if stack:
                    stack[-1] += clock() - start
            probe.events_fired += outcome.events_fired
            return outcome

        return step

    def _close_interval(self, now: float, child: float) -> None:
        """Charge the time since the last pop returned to the event it popped.

        ``child`` is the enclosing ``Simulator.step`` span's child time so
        far; the part of the interval no wrapped span covers is the popped
        event's own callback code (plus loop overhead).
        """
        interval = now - self._dispatch_start
        self.dispatch[self._dispatching] += interval
        self.dispatch_self[self._dispatching] += interval - (child - self._dispatch_child)

    def _after_active_names(self, names: Any) -> None:
        self.entries_returned += len(names)

    def _after_node_submit(self, accepted: Any) -> None:
        self.node_accepts += bool(accepted)

    def _after_capture(self, blob: Any) -> None:
        self.snapshot_sizes.append(len(blob))

    @contextmanager
    def installed(self) -> Iterator["LayerProbe"]:
        """Patch every entry point for the block; restore them afterwards."""
        patched: List[Tuple[Any, str, Any]] = []
        try:
            for layer, key, module_name, owner_name, attr in ENTRY_POINTS:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None else getattr(module, owner_name)
                original = owner.__dict__[attr]
                if not callable(original):
                    raise TypeError(f"{module_name}.{owner_name}.{attr} is not a plain function")
                setattr(owner, attr, self._wrap(layer, key, original))
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    # -------------------------------------------------------------- derived

    def count(self, *keys: str) -> int:
        return sum(int(self._spans[key][0]) for key in keys)

    def total_s(self, *keys: str) -> float:
        return sum(self._spans[key][1] for key in keys)

    def self_s(self, *keys: str) -> float:
        return sum(self._spans[key][2] for key in keys)

    def dispatch_s(self, *prefixes: str) -> float:
        return sum(self.dispatch[prefix] for prefix in prefixes)

    def spans(self) -> Dict[str, Dict[str, float]]:
        """Every span key's calls, inclusive and self seconds."""
        return {
            key: {"calls": int(acc[0]), "total_s": acc[1], "self_s": acc[2]}
            for key, acc in sorted(self._spans.items())
        }

    def layer_self_split(self) -> Dict[str, float]:
        """Self time per layer.

        Each wrapped span's self time goes to its layer.  The event loop's
        own span (``Simulator.step``) is split further: callback time no
        wrapped span covers goes to the layer that scheduled the event
        (:func:`dispatch_layer`), and only the remainder stays in simcore.
        """
        split: Dict[str, float] = defaultdict(float)
        for span_key, acc in self._spans.items():
            split[span_key.split(".", 1)[0]] += acc[2]
        for prefix, seconds in self.dispatch_self.items():
            split[dispatch_layer(prefix)] += seconds
            split["simcore"] -= seconds
        return {layer: split.get(layer, 0.0) for layer in LAYERS + ("other",)}
