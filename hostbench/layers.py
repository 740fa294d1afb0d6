"""Per-layer host timing taken from outside the program.

The traced run wraps each layer's callables from this file and leaves
``src/`` untouched: the wrappers are installed by assigning to class
and module attributes, and :meth:`Tracer.uninstall` puts the originals
back.  Functions that other modules import by name (``trace_from_walk``,
``validate_batch``, ``merge_tries`` ...) are replaced in every loaded
module that holds them, so install after the workload's imports.

Every wrapped call becomes one :class:`Span`.  Spans are kept in
memory and written out when the run ends (:func:`write_artifacts`):
JSON lines, a per-layer self-time table and a folded-stack file that
``flamegraph.pl`` or speedscope read directly.

A layer's self time is its span's duration minus the spans that ran
inside it.  ``ShardedLookupService.serve`` is a coroutine: its span
counts only the steps it spent running on the event loop (``busy``),
so time awaiting the shards is not frontend time.  The sub-batch's
wait in the shard's dispatch queue and its executor round trip are
recorded as *detached* spans: they run while the frontend coroutine is
suspended, so they are not subtracted from it.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from repro.units import s_to_ms, s_to_ns

#: callable → layer: the metric group a span's self time is charged to.
#: Keys are ``(module, qualified name)``; the module is imported by
#: :meth:`Tracer.prepare`, so every layer the workloads reach is listed
#: here even when a given workload never calls it.
LAYERS: dict[tuple[str, str], str] = {
    ("repro.serve.stages", "validate_batch"): "serve.validate",
    ("repro.virt.distributor", "Distributor.partition"): "virt.partition",
    ("repro.virt.distributor", "BatchPartition.gather"): "virt.partition",
    ("repro.virt.distributor", "BatchPartition.scatter"): "virt.partition",
    ("repro.iplookup.trie", "UnibitTrie.walk_batch"): "iplookup.walk",
    ("repro.iplookup.trie", "UnibitTrie._freeze"): "iplookup.freeze",
    ("repro.virt.merged", "MergedTrie.walk_batch"): "virt.merged_walk",
    ("repro.iplookup.pipeline", "trace_from_walk"): "iplookup.account",
    ("repro.serve.service", "LookupService.serve"): "serve.service",
    ("repro.serve.frontend", "ShardedLookupService.serve"): "serve.frontend",
    ("repro.serve.frontend", "_ShardHandle.roundtrip"): "serve.roundtrip",
    ("repro.virt.manager", "VirtualRouterManager.announce"): "virt.manager.update",
    ("repro.virt.manager", "VirtualRouterManager.withdraw"): "virt.manager.update",
    ("repro.iplookup.trie", "UnibitTrie.__init__"): "iplookup.build",
    ("repro.iplookup.trie", "UnibitTrie.stats"): "iplookup.stats",
    ("repro.iplookup.leafpush", "leaf_push"): "iplookup.stats",
    ("repro.virt.merged", "merge_tries"): "virt.merge",
    ("repro.iplookup.synth", "generate_table"): "iplookup.synth",
    ("repro.core.estimator", "base_trie_stats"): "core.estimator",
    ("repro.core.estimator", "ScenarioEstimator.evaluate"): "core.estimator",
    ("repro.experiments.engine", "ExperimentEngine.run_specs"): "experiments.engine",
}

#: the layer of the detached dispatch-queue wait spans
DISPATCH_WAIT = "serve.dispatch_wait"

#: every layer, in report order
LAYER_NAMES: tuple[str, ...] = tuple(dict.fromkeys([*LAYERS.values(), DISPATCH_WAIT]))


class Span:
    """One wrapped call (or one dispatch-queue wait)."""

    __slots__ = (
        "id", "name", "layer", "parent", "batch", "phase",
        "start", "end", "busy", "detached", "failed",
    )

    def __init__(self, span_id, name, layer, parent, batch, phase, detached=False):
        self.id = span_id
        self.name = name
        self.layer = layer
        self.parent = parent
        self.batch = batch
        self.phase = phase
        self.start = 0.0
        self.end = 0.0
        self.busy: float | None = None
        self.detached = detached
        self.failed = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def active(self) -> float:
        """Time the span's own thread spent in it (busy time for coroutines)."""
        return self.duration if self.busy is None else self.busy

    def as_json(self, t0: float) -> dict:
        record = {
            "id": self.id,
            "name": self.name,
            "layer": self.layer,
            "parent": self.parent,
            "batch": self.batch,
            "phase": self.phase,
            "start_s": self.start - t0,
            "end_s": self.end - t0,
        }
        if self.busy is not None:
            record["busy_s"] = self.busy
        if self.detached:
            record["detached"] = True
        if self.failed:
            record["failed"] = True
        return record


class Tracer:
    """Owns the spans, the wrapper sites and their install state.

    ``batch`` and ``phase`` are set by the workload loop and stamped on
    every span opened while they hold.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.batch: int | None = None
        self.phase = "steady"
        self.t0 = perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._sites: list[tuple[object, str, object, object]] = []
        self._instance_sites: list[tuple[object, str]] = []
        self._enqueued: dict[int, tuple[float, int | None]] = {}
        self.installed = False

    # -- span bookkeeping --------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str, batch=None) -> Span:
        """A span under the innermost open span of this thread, sharing
        its batch id (the workload's, or ``batch`` at top level)."""
        stack = self._stack()
        if stack:
            return Span(next(self._ids), name, layer, stack[-1].id, stack[-1].batch, self.phase)
        return Span(next(self._ids), name, layer, None,
                    self.batch if batch is None else batch, self.phase)

    def _wrap_sync(self, name: str, layer: str, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer._open(name, layer)
            stack = tracer._stack()
            stack.append(span)
            span.start = perf_counter()
            try:
                return original(*args, **kwargs)
            except Exception:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                tracer.spans.append(span)

        return traced

    def _wrap_freeze(self, name: str, layer: str, original):
        """``UnibitTrie._freeze`` returns its cached snapshot on every
        walk; only a call that really rebuilds it is a span."""
        traced = self._wrap_sync(name, layer, original)

        @functools.wraps(original)
        def freeze(trie):
            if trie._frozen is not None:
                return original(trie)
            return traced(trie)

        return freeze

    def _wrap_async(self, name: str, layer: str, original):
        tracer = self

        @functools.wraps(original)
        def traced(service, *args, **kwargs):
            # concurrent callers interleave, so the batch id is the
            # index the frontend is about to give this batch
            span = tracer._open(name, layer, batch=service.batches_served)
            return tracer._stepped(span, original(service, *args, **kwargs))

        return traced

    @types.coroutine
    def _stepped(self, span: Span, coro):
        """Drive ``coro`` step by step, charging only on-loop time."""
        span.busy = 0.0
        stack = self._stack()
        value, error = None, None
        span.start = perf_counter()
        try:
            while True:
                stack.append(span)
                step = perf_counter()
                try:
                    if error is None:
                        yielded = coro.send(value)
                    else:
                        yielded = coro.throw(error)
                except StopIteration as stop:
                    return stop.value
                except Exception:
                    span.failed = True
                    raise
                finally:
                    span.busy += perf_counter() - step
                    stack.pop()
                try:
                    value, error = (yield yielded), None
                except BaseException as exc:  # forwarded into the coroutine
                    value, error = None, exc
        finally:
            span.end = perf_counter()
            self.spans.append(span)

    def _wrap_roundtrip(self, name: str, layer: str, original):
        """The executor-hosted request/reply; closes the sub-batch's
        dispatch-queue wait, which started at ``put_nowait``."""
        tracer = self

        @functools.wraps(original)
        def traced(handle, message):
            begin = perf_counter()
            if message[0] != "serve":
                return original(handle, message)
            stamp = tracer._enqueued.pop(id(message[1]), None)
            parent, batch = None, message[1].batch_index
            if stamp is not None:
                enqueued, parent = stamp
                wait = Span(next(tracer._ids), "dispatch_queue", DISPATCH_WAIT,
                            parent, batch, tracer.phase, detached=True)
                wait.start, wait.end = enqueued, begin
                tracer.spans.append(wait)
            span = Span(next(tracer._ids), name, layer, parent, batch, tracer.phase,
                        detached=True)
            span.start = begin
            try:
                reply = original(handle, message)
            except Exception:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                tracer.spans.append(span)
            if reply[0] == "error":
                span.failed = True
            return reply

        return traced

    # -- install / uninstall -----------------------------------------------

    def prepare(self) -> None:
        """Resolve every wrapper site once (import the layer modules)."""
        import importlib

        self._sites = []
        for (module_name, qualname), layer in LAYERS.items():
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                wrapper = self._wrapper(qualname, layer, original)
                self._sites.append((owner, attr, original, wrapper))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(qualname, layer, original)
            # every loaded module that imported the function by name
            for holder in list(sys.modules.values()):
                namespace = getattr(holder, "__dict__", None)
                if namespace is not None and namespace.get(attr) is original:
                    self._sites.append((holder, attr, original, wrapper))

    def _wrapper(self, qualname: str, layer: str, original):
        if qualname == "UnibitTrie._freeze":
            return self._wrap_freeze(qualname, layer, original)
        if qualname == "_ShardHandle.roundtrip":
            return self._wrap_roundtrip(qualname, layer, original)
        if qualname == "ShardedLookupService.serve":
            return self._wrap_async(qualname, layer, original)
        return self._wrap_sync(qualname, layer, original)

    def install(self, sharded_service=None) -> None:
        """Swap the wrappers in; stamp dispatch-queue entries of
        ``sharded_service`` (a started ``ShardedLookupService``)."""
        if not self._sites:
            self.prepare()
        for owner, attr, _original, wrapper in self._sites:
            setattr(owner, attr, wrapper)
        if sharded_service is not None:
            for handle in sharded_service.shards:
                queue = handle.queue
                queue.put_nowait = self._stamping_put(queue.put_nowait)
                self._instance_sites.append((queue, "put_nowait"))
        self.installed = True

    def _stamping_put(self, put_nowait):
        tracer = self

        def put(item):
            (op, payload), _future = item
            if op == "serve":
                stack = tracer._stack()
                parent = stack[-1].id if stack else None
                tracer._enqueued[id(payload)] = (perf_counter(), parent)
            return put_nowait(item)

        return put

    def switch(self, on: bool, batch: int) -> None:
        """Install or uninstall when the state changes; stamp ``batch``."""
        if on != self.installed:
            self.install() if on else self.uninstall()
        self.batch = batch

    def uninstall(self) -> None:
        """Restore every original callable."""
        for owner, attr, original, _wrapper in self._sites:
            setattr(owner, attr, original)
        for instance, attr in self._instance_sites:
            instance.__dict__.pop(attr, None)
        self._instance_sites = []
        self.installed = False


# -- analysis ----------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → self time: its active time minus the non-detached
    spans that ran inside it on the same thread."""
    inner: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None and not span.detached:
            inner[span.parent] += span.duration
    return {span.id: span.active - inner.get(span.id, 0.0) for span in spans}


def layer_table(spans: list[Span], phase: str) -> dict[str, dict[str, float]]:
    """Per-layer totals over one phase: calls, self seconds, failures."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = {
        layer: {"calls": 0, "self_s": 0.0, "failures": 0} for layer in LAYER_NAMES
    }
    for span in spans:
        if span.phase != phase:
            continue
        row = table[span.layer]
        row["calls"] += 1
        row["self_s"] += selfs[span.id]
        row["failures"] += int(span.failed)
    return table


def root_seconds(spans: list[Span], phase: str) -> float:
    """Total active time of the top-level, non-detached spans."""
    return sum(
        s.active for s in spans if s.phase == phase and s.parent is None and not s.detached
    )


def folded_stacks(spans: list[Span]) -> list[str]:
    """``frame;frame;frame nanoseconds`` lines, weighted by self time.

    Detached spans (queue wait, shard round trip) are folded under the
    frontend stack that sent them, below a ``[detached]`` frame, so
    they never read as frontend CPU time.
    """
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    weights: dict[str, float] = defaultdict(float)
    for span in spans:
        frames = [span.name]
        parent = span.parent
        if span.detached:
            frames.append("[detached]")
        while parent is not None and parent in by_id:
            frames.append(by_id[parent].name)
            parent = by_id[parent].parent
        frames.append(span.phase)
        weights[";".join(reversed(frames))] += selfs[span.id]
    return [f"{stack} {round(s_to_ns(w))}" for stack, w in sorted(weights.items()) if w > 0]


def format_table(table: dict[str, dict[str, float]], per: float, unit: str) -> list[str]:
    """Self-time table, largest layer first, shares of the layers' sum."""
    total = sum(row["self_s"] for row in table.values()) or 1.0
    lines = [f"{'layer':28} {'calls/' + unit:>12} {'self ms/' + unit:>14} {'share':>7} {'failed':>7}"]
    for layer, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        if not row["calls"]:
            continue
        lines.append(
            f"{layer:28} {row['calls'] / per:12.3f} {s_to_ms(row['self_s']) / per:14.4f} "
            f"{row['self_s'] / total:7.1%} {int(row['failures']):7d}"
        )
    return lines


def write_artifacts(tracer: Tracer, out_dir: Path, table_lines: list[str]) -> None:
    """Spans as JSONL, the self-time table and the folded stacks."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "spans.jsonl", "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span.as_json(tracer.t0)) + "\n")
    (out_dir / "selftime.txt").write_text("\n".join(table_lines) + "\n", encoding="utf-8")
    (out_dir / "folded.txt").write_text(
        "\n".join(folded_stacks(tracer.spans)) + "\n", encoding="utf-8"
    )
