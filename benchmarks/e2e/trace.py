"""Span recording from outside the program: timing wrappers on the
layers' *public* callables.

``install()`` substitutes a wrapper for each callable in :data:`TARGETS`
(module functions and non-underscore methods, patched on the module or
class before the system is built) that records one span per call —
``(id, name, start, end, parent id)`` — into an in-memory
:class:`Recorder`.  A layer's *self time* is its spans' duration minus
the part their child spans cover.  Nothing under ``src/`` is edited;
tracing inside the program is a later issue.

Three shapes of callable need their own wrapper:

* plain functions/methods — one span per call;
* coroutine functions (the client SDK's ``publish``/``publish_many``) —
  one span per *resumption*, so time spent suspended (other tasks
  running) is never inside the span and the open-span stack stays a
  stack;
* generator functions (``CoveringIndex.covers_of``) — one span per
  ``next()``, for the same reason;
* the sim scheduler — ``SimulationEngine.schedule_at`` is wrapped so the
  *callback* it is handed runs inside a span named after the callback's
  label prefix (``serve:``/``dispatch:`` are the cluster's service loop,
  ``deliver:`` is the simulated network handing a message over).

Only callables hit up to ~10 times per event are wrapped; the wrapper's
own cost is calibrated (:meth:`Recorder.calibrate`) and subtracted, and
what is left of it shows as ``ledger.trace_overhead_pct``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[int, int, float, float, int]  # id, name index, start, end, parent id

#: (layer span name, module, dotted attribute).  The layer name is the
#: per-layer metric's stem: ``<name>_us`` is its self time per event.
TARGETS: List[Tuple[str, str, str]] = [
    ("net.client.send", "repro.net.client", "BrokerClient.publish"),
    ("net.client.send", "repro.net.client", "BrokerClient.publish_many"),
    # Frame constructors, not encode_frame/decode_payload themselves: every
    # hot frame is built by a constructor and split by FrameDecoder.feed, and
    # one span per frame per direction keeps the wrappers cheap on the
    # five-frames-per-event ack-paced path.
    ("net.wire.encode", "repro.net.wire", "ack_frame"),
    ("net.wire.encode", "repro.net.wire", "subscribe_many_frame"),
    ("net.wire.encode", "repro.net.wire", "publish_frame"),
    ("net.wire.encode", "repro.net.wire", "publish_many_frame"),
    ("net.wire.encode", "repro.net.wire", "event_frame"),
    ("net.wire.encode", "repro.net.wire", "forward_frame"),
    ("net.wire.encode", "repro.net.wire", "forward_batch_frame"),
    ("net.wire.decode", "repro.net.wire", "decode_event"),
    ("net.wire.decode", "repro.net.wire", "decode_subscription"),
    ("net.wire.decode", "repro.net.wire", "FrameDecoder.feed"),
    # repro.net.wire binds the codec at import (msgpack when installed,
    # msgpack_lite otherwise); these are the names its framing calls.
    ("net.msgpack_lite.pack", "repro.net.wire", "packb"),
    ("net.msgpack_lite.unpack", "repro.net.wire", "unpackb"),
    ("pubsub.matching.match", "repro.pubsub.matching", "MatchingEngine.match"),
    ("pubsub.matching.match", "repro.pubsub.matching", "MatchingEngine.match_batch"),
    ("pubsub.matching.match", "repro.pubsub.matching", "MatchingEngine.match_batch_cached"),
    ("pubsub.matching.probe", "repro.pubsub.matching", "MatchingEngine.matches_any"),
    ("pubsub.matching.probe", "repro.pubsub.matching", "MatchingEngine.matches_any_cached"),
    ("pubsub.matching.add", "repro.pubsub.matching", "MatchingEngine.add"),
    ("pubsub.matching.remove", "repro.pubsub.matching", "MatchingEngine.remove"),
    ("pubsub.broker.route", "repro.pubsub.broker", "Broker.interested_neighbours"),
    ("pubsub.subscriptions.covering", "repro.pubsub.subscriptions", "CoveringIndex.covers_of"),
    ("pubsub.subscriptions.covering", "repro.pubsub.subscriptions", "CoveringIndex.first_cover"),
    ("pubsub.subscriptions.covering", "repro.pubsub.subscriptions", "CoveringIndex.covered_by"),
    ("cluster.routing.subscribe", "repro.cluster.routing", "RoutingFabric.subscribe_at"),
    ("cluster.routing.subscribe", "repro.cluster.routing", "RoutingFabric.subscribe_many_at"),
    ("cluster.routing.unsubscribe", "repro.cluster.routing", "RoutingFabric.unsubscribe_at"),
    ("cluster.routing.unsubscribe", "repro.cluster.routing", "RoutingFabric.unsubscribe_many_at"),
    ("cluster.routing.next_hops", "repro.cluster.routing", "RoutingFabric.next_hops"),
    ("cluster.broker_cluster.publish", "repro.cluster.broker_cluster", "BrokerCluster.publish"),
    ("cluster.broker_cluster.publish", "repro.cluster.broker_cluster", "BrokerCluster.publish_many"),
    ("cluster.durable.dedup", "repro.cluster.durable", "DedupIndex.first_sighting"),
    ("sim.engine.dispatch", "repro.sim.engine", "SimulationEngine.run"),
    ("sim.network.send", "repro.sim.network", "SimulatedNetwork.send"),
    ("sim.metrics.observe", "repro.sim.metrics", "Histogram.observe"),
    ("sim.metrics.observe", "repro.sim.metrics", "Histogram.observe_many"),
]

#: Scheduled-callback label prefix -> layer span name.
CALLBACK_LAYERS = {
    "dispatch": "cluster.broker_cluster.serve",
    "serve": "cluster.broker_cluster.serve",
    "deliver": "sim.network.send",
}

class Recorder:
    """In-memory span store with an open-span stack (one thread)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        #: Completed spans; the list object is never replaced (wrappers
        #: hold its ``append``).
        self.spans: List[Span] = []
        self.stack: List[int] = [-1]
        #: Next span id, in a cell the wrappers share.
        self.ids = [0]
        #: Calibrated wrapper cost, seconds: inside the span's own clock
        #: reads, and outside them (charged to the parent / the residual).
        self.cost_inside = 0.0
        self.cost_outside = 0.0

    def name_index(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            index = self._index[name] = len(self.names)
            self.names.append(name)
        return index

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name: str, function: Callable) -> Callable:
        if inspect.iscoroutinefunction(function):
            return self._wrap_coroutine(name, function)
        if inspect.isgeneratorfunction(function):
            return self._wrap_generator(name, function)
        return self._wrap_plain(name, function)

    def _wrap_plain(self, name: str, function: Callable) -> Callable:
        nid = self.name_index(name)
        ids = self.ids
        push, pop = self.stack.append, self.stack.pop
        stack = self.stack
        record = self.spans.append
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = ids[0]
            ids[0] = sid + 1
            parent = stack[-1]
            push(sid)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                pop()
                record((sid, nid, start, end, parent))

        traced.__wrapped__ = function
        return traced

    def _segment(self, nid: int, step: Callable, *args):
        """Run one resumption of a coroutine/generator inside a span."""
        sid = self.ids[0]
        self.ids[0] = sid + 1
        stack = self.stack
        parent = stack[-1]
        stack.append(sid)
        start = time.perf_counter()
        try:
            return step(*args)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, nid, start, end, parent))

    def _wrap_coroutine(self, name: str, function: Callable) -> Callable:
        nid = self.name_index(name)
        segment = self._segment

        class _Traced:
            __slots__ = ("_inner",)

            def __init__(self, inner) -> None:
                self._inner = inner

            def __await__(self):
                inner = self._inner.__await__()
                send, throw = inner.send, inner.throw
                value = None
                error: Optional[BaseException] = None
                while True:
                    try:
                        if error is None:
                            yielded = segment(nid, send, value)
                        else:
                            yielded = segment(nid, throw, error)
                    except StopIteration as stop:
                        return stop.value
                    try:
                        value = yield yielded
                        error = None
                    except GeneratorExit:
                        inner.close()
                        raise
                    except BaseException as raised:  # forwarded to the coroutine
                        value = None
                        error = raised

        async def traced(*args, **kwargs):
            return await _Traced(function(*args, **kwargs))

        traced.__wrapped__ = function
        return traced

    def _wrap_generator(self, name: str, function: Callable) -> Callable:
        nid = self.name_index(name)
        segment = self._segment

        def traced(*args, **kwargs):
            iterator = function(*args, **kwargs)
            while True:
                try:
                    item = segment(nid, next, iterator)
                except StopIteration:
                    return
                yield item

        traced.__wrapped__ = function
        return traced

    def wrap_scheduler(self, schedule_at: Callable) -> Callable:
        """Wrap ``SimulationEngine.schedule_at`` so scheduled callbacks run
        inside a span of the layer their label names."""
        def traced_schedule_at(engine, when, callback, label=""):
            layer = CALLBACK_LAYERS.get(label.split(":", 1)[0])
            if layer is not None:
                callback = self._wrap_plain(layer, callback)
            return schedule_at(engine, when, callback, label)

        traced_schedule_at.__wrapped__ = schedule_at
        return traced_schedule_at

    # -- calibration and aggregation -----------------------------------------

    def calibrate(self, calls: int = 20000) -> None:
        """Measure the wrapper's own cost on a no-op called the way the
        program calls (a positional and a keyword argument), inside and
        outside the span's clock reads."""

        def noop(first, second=None):
            return first

        traced = self._wrap_plain("calibration", noop)
        clock = time.perf_counter
        best_raw = best_traced = float("inf")
        inside = 0.0
        for _ in range(5):
            start = clock()
            for _ in range(calls):
                noop(1, second=2)
            best_raw = min(best_raw, clock() - start)
            del self.spans[:]
            start = clock()
            for _ in range(calls):
                traced(1, second=2)
            elapsed = clock() - start
            if elapsed < best_traced:
                best_traced = elapsed
                inside = sum(span[3] - span[2] for span in self.spans) / calls
        del self.spans[:]
        per_call = max(0.0, (best_traced - best_raw) / calls)
        self.cost_inside = min(inside, per_call)
        self.cost_outside = per_call - self.cost_inside

    def drain(self) -> Tuple[Dict[str, float], Dict[str, int], List[Span]]:
        """Close the round: per-layer self seconds (wrapper cost removed)
        and span counts since the last drain, plus the raw spans."""
        spans = self.spans[:]
        del self.spans[:]
        self_seconds, counts = self_times(
            spans, self.names, self.cost_inside, self.cost_outside
        )
        return self_seconds, counts, spans


def self_times(
    spans: Iterable[Span],
    names: List[str],
    cost_inside: float = 0.0,
    cost_outside: float = 0.0,
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self time per span name: duration minus the part child spans cover.

    ``cost_inside`` is removed from every span, ``cost_outside`` from its
    parent once per child (the wrapper's prologue/epilogue runs in the
    parent's time)."""
    spans = list(spans)
    child_seconds: Dict[int, float] = {}
    for _sid, _nid, start, end, parent in spans:
        if parent >= 0:
            child_seconds[parent] = child_seconds.get(parent, 0.0) + (end - start) + cost_outside
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for sid, nid, start, end, _parent in spans:
        name = names[nid]
        own = (end - start) - child_seconds.get(sid, 0.0) - cost_inside
        totals[name] = totals.get(name, 0.0) + own
        counts[name] = counts.get(name, 0) + 1
    return totals, counts


class Installed:
    """Handle over the patched callables — :meth:`pause` restores the
    originals, :meth:`resume` substitutes the wrappers again — plus the
    counts taken at the same boundaries (frames, bytes, cache resets)."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        #: (owner, attribute, original, replacement), in patch order.
        self._patches: List[Tuple[object, str, object, object]] = []
        self.active = True
        self.cache_resets = 0
        self.frames = 0
        self.frame_bytes = 0

    def patch(self, owner: object, attribute: str, replacement: object) -> None:
        original = (
            owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        )
        self._patches.append((owner, attribute, original, replacement))
        setattr(owner, attribute, replacement)

    def pause(self) -> None:
        """Put every original back (the program runs untouched)."""
        if self.active:
            for owner, attribute, original, _replacement in reversed(self._patches):
                setattr(owner, attribute, original)
            self.active = False

    def resume(self) -> None:
        if not self.active:
            for owner, attribute, _original, replacement in self._patches:
                setattr(owner, attribute, replacement)
            self.active = True

    def count_resets(self, cls: type, method: str) -> None:
        """Sum the resets of every cache of type ``cls`` by watching its
        public ``resets`` counter across ``method`` (the only place it
        moves); the program keeps these caches on private attributes."""
        original = cls.__dict__[method]

        def counting(cache, *args, **kwargs):
            before = cache.resets
            result = original(cache, *args, **kwargs)
            self.cache_resets += cache.resets - before
            return result

        counting.__wrapped__ = original
        self.patch(cls, method, counting)

    def count_frames(self, wire_module) -> None:
        """Count frames and bytes at ``encode_frame`` (every frame any
        party in this process puts on a socket is built there)."""
        encode = wire_module.encode_frame

        def counting(msg_type, request_id, body):
            frame = encode(msg_type, request_id, body)
            self.frames += 1
            self.frame_bytes += len(frame)
            return frame

        counting.__wrapped__ = encode
        self.patch(wire_module, "encode_frame", counting)


def _resolve(module_name: str, dotted: str) -> Tuple[object, str]:
    owner: object = importlib.import_module(module_name)
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install() -> Installed:
    """Patch every target; call before the system under test is built."""
    installed = Installed()
    recorder = installed.recorder
    recorder.calibrate()
    for name, module_name, dotted in TARGETS:
        owner, attribute = _resolve(module_name, dotted)
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        installed.patch(owner, attribute, recorder.wrap(name, original))
    engine_module = importlib.import_module("repro.sim.engine")
    scheduler = engine_module.SimulationEngine
    installed.patch(
        scheduler, "schedule_at", recorder.wrap_scheduler(scheduler.__dict__["schedule_at"])
    )
    matching = importlib.import_module("repro.pubsub.matching")
    installed.count_resets(matching.BatchMatchCache, "tables_for")
    installed.count_resets(matching.RouteProbeCache, "table_for")
    installed.count_frames(importlib.import_module("repro.net.wire"))
    return installed


def write_spans(path: str, names: List[str], spans: List[Span], meta: Dict[str, object]) -> None:
    """Columnar JSON: ``names`` plus parallel id/name/start/end/parent lists."""
    payload = {
        "meta": meta,
        "names": names,
        "id": [span[0] for span in spans],
        "name": [span[1] for span in spans],
        "start": [span[2] for span in spans],
        "end": [span[3] for span in spans],
        "parent": [span[4] for span in spans],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
