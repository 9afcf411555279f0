"""Outside-in tracer: spans and counts around the program's layer entry points.

Nothing in the program is edited.  :meth:`Tracer.install` replaces the
public entry points of each layer (and the transport seam's
``_transact``) with thin wrappers that record a span — name, start,
end, parent, per-event trace id — or bump a counter, and
:meth:`Tracer.uninstall` puts every original back.  Spans stay in
memory until the run ends; :meth:`Tracer.layer_metrics` derives self
times and the per-layer metrics from them and :meth:`Tracer.dump`
writes them out.

Parents are the innermost open span on the same thread, with two
cross-thread links that follow the closed loop's causality: a span
opening on an idle gateway admission thread is a child of the client
request in flight, and one opening on an idle routing-probe thread is
a child of the innermost span of the thread inside a service call.
Spans on shard mailbox and callback threads run after the caller has
moved on; they are roots and count toward their layer but not toward
any event's time.  Spans cover this process only; layers inside shard
worker processes show up as transport round trips.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from .measure import self_times

_clock = time.perf_counter

#: Span names of the benchmark's own issue loop (the event roots).
ROOTS = ("bench.event", "bench.drain")


class Tracer:
    def __init__(self) -> None:
        self.spans: List[tuple] = []  # (id, name, start, end, parent, trace)
        self.trace_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._tables: List[Dict[str, float]] = []
        self._register = threading.Lock()
        self._restore: List[Callable[[], None]] = []
        self._client_span: Optional[int] = None
        self._service_stack: Optional[list] = None
        self._calls: Dict[str, int] = defaultdict(int)
        self._self_s: Dict[str, float] = defaultdict(float)
        self._root_time: Dict[str, float] = defaultdict(float)
        self.last_spans: List[tuple] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def counts(self) -> Dict[str, float]:
        """This thread's counters (lock-free; merged by :meth:`total`)."""
        table = getattr(self._local, "counts", None)
        if table is None:
            table = self._local.counts = defaultdict(float)
            with self._register:
                self._tables.append(table)
        return table

    def total(self, key: str) -> float:
        return sum(table.get(key, 0.0) for table in list(self._tables))

    def open(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        else:
            thread = threading.current_thread().name
            parent = None
            if thread.startswith("repro-gateway_"):
                parent = self._client_span
            elif thread.startswith("repro-probe") and self._service_stack:
                parent = self._service_stack[-1][0]
        span = [next(self._ids), name, _clock(), 0.0, parent, self.trace_id]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = _clock()
        self._stack().pop()
        self.spans.append(tuple(span))

    @contextmanager
    def root(self, name: str, trace_id: int):
        """A root span around one event the closed loop issues."""
        self.trace_id = trace_id
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    # -- patching --------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, wrapper(original))
        self._restore.append(lambda: setattr(owner, attr, original))

    def _patch_function(self, module, attr: str, wrapper) -> None:
        """Replace a module function everywhere it was imported by name."""
        original = getattr(module, attr)
        wrapped = wrapper(original)
        for name, loaded in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and getattr(
                loaded, attr, None
            ) is original:
                setattr(loaded, attr, wrapped)
                self._restore.append(
                    functools.partial(setattr, loaded, attr, original)
                )

    def span(self, name: str, on_error: Optional[str] = None):
        tracer = self

        def wrapper(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = tracer.open(name)
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    if on_error:
                        tracer.counts()[on_error] += 1
                    raise
                finally:
                    tracer.close(span)

            return traced

        return wrapper

    def count(self, name: str):
        tracer = self

        def wrapper(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.counts()[name] += 1
                return fn(*args, **kwargs)

            return counted

        return wrapper

    def _service_span(self, name: str):
        """A service entry point: also marks the routing thread."""
        tracer = self

        def wrapper(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                outer = tracer._service_stack
                tracer._service_stack = tracer._stack()
                span = tracer.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(span)
                    tracer._service_stack = outer

            return traced

        return wrapper

    def _client_request(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open("core.gateway.request")
            tracer._client_span = span[0]
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._client_span = None
                tracer.close(span)

        return traced

    def _joins(self, fn):
        """Evaluator.solutions is a generator: time each resumption."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counts()["db.planner.evaluations"] += 1
            inner = fn(*args, **kwargs)

            def consume():
                try:
                    while True:
                        span = tracer.open("db.planner.join")
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer.close(span)
                        yield item
                finally:
                    inner.close()

            return consume()

        return traced

    def _wire_dumps(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(message):
            span = tracer.open("db.wire.encode")
            try:
                frame = fn(message)
            finally:
                tracer.close(span)
            counts = tracer.counts()
            counts["db.wire.bytes"] += len(frame)
            stack = tracer._stack()
            if stack and stack[-1][1] == "db.durability.wal_append":
                counts["db.durability.wal_bytes"] += len(frame) + 4
            if isinstance(message, dict) and "sync" in message:
                counts["db.wire.sync_bytes"] += len(frame)
            return frame

        return traced

    def _waited(self, key: str):
        """Time from a mailbox's ``post(job)`` to the job starting."""
        tracer = self

        def wrapper(fn):
            @functools.wraps(fn)
            def post(mailbox, job):
                posted = _clock()

                def timed():
                    counts = tracer.counts()
                    counts[key] += _clock() - posted
                    counts[key + ".jobs"] += 1
                    return job()

                return fn(mailbox, timed)

            return post

        return wrapper

    def install(self) -> None:
        """Wrap every layer's entry points (see the module docstring)."""
        from repro.core import coordination_graph, engine, executor, gateway
        from repro.core import procexec, query, scc_coordination, service, transport
        from repro.db import durability, evaluator, storage, wire
        from repro.logic import unify

        svc = service.ShardedCoordinationService
        for name in (
            "submit", "submit_nowait", "submit_many", "submit_many_nowait",
            "retract", "insert", "delete", "flush", "flush_drain", "drain",
        ):
            self._patch(svc, name, self._service_span("core.service"))
        self._patch(gateway.GatewayClient, "request", self._client_request)

        eng = engine.CoordinationEngine
        proxy = transport.ShardProxy
        for owner, layer in ((eng, "core.engine"), (proxy, "core.transport.proxy")):
            self._patch(owner, "admit", self.span(layer + ".admit"))
            self._patch(owner, "retract", self.span(layer + ".retract"))
            self._patch(owner, "flush", self.span(layer + ".evaluate"))
            self._patch(owner, "evaluate_admitted", self.span(layer + ".evaluate"))
            self._patch(owner, "evaluate_admitted_phased", self.span(layer + ".evaluate"))
            self._patch(owner, "incident_pending", self.span(layer + ".incident"))
        self._patch(
            procexec.ProcessShardExecutor,
            "_transact",
            self.span("core.transport.rtt", on_error="core.transport.errors"),
        )

        graph = coordination_graph.CoordinationGraph
        self._patch(graph, "probe", self.span("core.coordination_graph.probe"))
        self._patch(graph, "with_arrival", self.span("core.coordination_graph.probe"))
        for fn in ("scc_coordinate", "scc_coordinate_on_graph"):
            self._patch_function(
                scc_coordination, fn, self.span("core.scc_coordination.coordinate")
            )

        self._patch(query.EntangledQuery, "standardized", self.count("logic.standardize_calls"))
        for fn in ("unify_atoms", "unifiable", "unify_atom_lists"):
            self._patch_function(unify, fn, self.count("logic.unify_calls"))

        self._patch(evaluator.Evaluator, "solutions", self._joins)
        for name in ("insert", "insert_many", "delete"):
            self._patch(storage.Relation, name, self.span("db.storage.write"))

        self._patch(durability.WriteAheadLog, "append", self.span("db.durability.wal_append"))
        self._patch(durability.DurableStore, "checkpoint", self.span("db.durability.checkpoint"))
        self._patch_function(
            durability, "build_snapshot_payload", self.span("db.durability.snapshot_payload")
        )
        self._patch_function(wire, "dumps", self._wire_dumps)
        self._patch_function(wire, "loads", self.span("db.wire.decode"))

        self._patch(executor.ShardWorker, "post", self._waited("core.executor.mailbox_wait"))
        self._patch(
            executor.CallbackDispatcher, "post", self._waited("core.executor.dispatch_wait")
        )

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- derived metrics -------------------------------------------------
    def fold(self) -> None:
        """Add the spans recorded since the last fold to the per-name
        totals, and keep them as the spans :meth:`dump` writes.

        Folding after every pass keeps memory to one pass of spans.
        """
        spans, self.spans = self.spans, []
        own = self_times((sid, name, start, end, parent) for sid, name, start, end, parent, _ in spans)
        for sid, name, start, end, _, _ in spans:
            self._calls[name] += 1
            self._self_s[name] += own[sid]
            if name in ROOTS:
                self._root_time[name] += end - start
        self.last_spans = spans

    def layer_metrics(
        self,
        events: int,
        admitted: int,
        plan_hits: int,
        plan_misses: int,
        index_probes: int,
        migrations: int,
    ) -> Dict[str, float]:
        """The per-layer metrics of every folded pass.

        ``*_ms`` is mean self time per call in milliseconds; counts are
        per stream event unless named as another ratio.  The arguments
        are the traced passes' totals, the last three read from the
        program's own counters.
        """
        calls, self_s = self._calls, self._self_s

        def mean_ms(*names: str, per: Optional[float] = None) -> float:
            n = per if per is not None else sum(calls[x] for x in names)
            return 1000.0 * sum(self_s[x] for x in names) / n if n else 0.0

        def per_event(value: float) -> float:
            return value / events if events else 0.0

        def waited(key: str) -> float:
            jobs = self.total(key + ".jobs")
            return 1000.0 * self.total(key) / jobs if jobs else 0.0

        root_time = sum(self._root_time.values())
        probes = calls["core.engine.incident"] + calls["core.transport.proxy.incident"]
        lookups = plan_hits + plan_misses
        return {
            "core.gateway.self_ms": mean_ms("core.gateway.request"),
            "core.gateway.requests": per_event(calls["core.gateway.request"]),
            "core.service.self_ms": mean_ms("core.service"),
            "core.service.probes_per_admit": probes / admitted if admitted else 0.0,
            "core.service.migrations": per_event(migrations),
            "core.engine.admit_ms": mean_ms("core.engine.admit"),
            "core.engine.evaluate_ms": mean_ms("core.engine.evaluate"),
            "core.engine.evaluations": per_event(calls["core.engine.evaluate"]),
            "core.engine.retract_ms": mean_ms("core.engine.retract"),
            "core.coordination_graph.probe_ms": mean_ms("core.coordination_graph.probe"),
            "core.scc_coordination.coordinate_ms": mean_ms("core.scc_coordination.coordinate"),
            "logic.standardize_calls": (
                self.total("logic.standardize_calls") / admitted if admitted else 0.0
            ),
            "logic.unify_calls": per_event(self.total("logic.unify_calls")),
            "db.planner.join_ms": mean_ms(
                "db.planner.join", per=self.total("db.planner.evaluations")
            ),
            "db.planner.plan_cache_hit_rate": (
                plan_hits / lookups if lookups else 0.0
            ),
            "db.planner.index_probes": per_event(index_probes),
            "db.storage.write_ms": mean_ms("db.storage.write"),
            "db.durability.wal_append_ms": mean_ms("db.durability.wal_append"),
            "db.durability.wal_records": per_event(calls["db.durability.wal_append"]),
            "db.durability.wal_bytes_per_event": per_event(self.total("db.durability.wal_bytes")),
            "db.durability.checkpoints": per_event(calls["db.durability.checkpoint"]),
            "db.durability.checkpoint_ms": mean_ms(
                "db.durability.checkpoint",
                "db.durability.snapshot_payload",
                per=calls["db.durability.checkpoint"],
            ),
            "db.wire.encode_ms": mean_ms("db.wire.encode"),
            "db.wire.decode_ms": mean_ms("db.wire.decode"),
            "db.wire.bytes_per_event": per_event(self.total("db.wire.bytes")),
            "db.wire.sync_bytes": per_event(self.total("db.wire.sync_bytes")),
            "core.transport.round_trips_per_event": per_event(calls["core.transport.rtt"]),
            "core.transport.rtt_ms": mean_ms("core.transport.rtt"),
            "core.transport.errors": self.total("core.transport.errors"),
            "core.executor.mailbox_wait_ms": waited("core.executor.mailbox_wait"),
            "core.executor.dispatch_wait_ms": waited("core.executor.dispatch_wait"),
            "trace.unattributed_share": (
                sum(self_s[x] for x in ROOTS) / root_time if root_time else 0.0
            ),
        }

    def dump(self, path) -> None:
        """Write the last folded pass's spans, one tab-separated line
        each: id, name, start, end, parent (``-`` for roots), trace id."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tname\tstart\tend\tparent\ttrace\n")
            for sid, name, start, end, parent, trace in self.last_spans:
                parent = "-" if parent is None else parent
                out.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{trace}\n")
