"""The benchmark's three workloads and the closed loop that drives them.

Each workload is a catalog stream built from ``(scale, seed)`` plus a
stack of layers to send it through.  :func:`drive_stream` issues the
events one at a time, each when the previous call returns, and records
what a user of that stack would see: the call latency of every event,
and the time of every resolution callback.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from repro.core import (
    Gateway,
    GatewayClient,
    QueryState,
    ServiceConfig,
    ShardedCoordinationService,
)
from repro.db import DurabilityConfig
from repro.errors import PreconditionError
from repro.scenarios import get_scenario

from . import host
from .oracle import Outcome, OutcomeRecorder

_clock = time.perf_counter

#: The relation the keyword stream's search log writes to.
SEARCH_LOG = "SearchLog"


def keyword_stream(scale: int, seed: int):
    """The ``keyword`` catalog stream, with each search logged.

    After every search the stream writes one ``SearchLog(seeker,
    entity)`` row, as a search service records its queries.  No query
    reads the log, so the writes leave every answer and every cached
    component state as they were: they add the storage write path and
    nothing else.
    """
    db, events = get_scenario("keyword").build(scale, seed)
    db.create_relation(SEARCH_LOG, ["seeker", "entity"])
    logged: List[tuple] = []
    for event in events:
        logged.append(event)
        if event[0] == "submit":
            search = event[1]
            entity = search.body[0].terms[0].value
            logged.append(("insert", SEARCH_LOG, (search.name, entity)))
    return db, logged


def marketplace_stream(scale: int, seed: int):
    return get_scenario("marketplace").build(scale, seed)


# ---------------------------------------------------------------------------
# Clients: one closed-loop caller, in process or over the gateway
# ---------------------------------------------------------------------------
class ServiceClient:
    """Issues events by calling the service in this thread."""

    def __init__(self, service: ShardedCoordinationService) -> None:
        self.service = service

    def submit(self, query) -> bool:
        self.service.submit(query)
        return True

    def submit_many(self, queries) -> List[Tuple[str, bool]]:
        return [
            (h.query, h.state is not QueryState.REJECTED)
            for h in self.service.submit_many(list(queries))
        ]

    def retract(self, name: str) -> None:
        self.service.retract(name)

    def insert(self, relation: str, row) -> None:
        self.service.insert(relation, row)

    def delete(self, relation: str, row) -> None:
        self.service.delete(relation, row)

    def flush_drain(self):
        return self.service.flush_drain()


class WireClient:
    """Issues events as gateway requests over one loopback connection."""

    def __init__(self, client: GatewayClient) -> None:
        self.client = client

    def submit(self, query) -> bool:
        return self.client.submit(query)["state"] != QueryState.REJECTED.value

    def submit_many(self, queries) -> List[Tuple[str, bool]]:
        return [
            (a["name"], a["state"] != QueryState.REJECTED.value)
            for a in self.client.submit_many(queries)
        ]

    def retract(self, name: str) -> None:
        self.client.retract(name)

    def insert(self, relation: str, row) -> None:
        self.client.insert(relation, row)

    def delete(self, relation: str, row) -> None:
        self.client.delete(relation, row)

    def flush_drain(self):
        return self.client.flush_drain()


# ---------------------------------------------------------------------------
# Stacks: what set-up builds and tear-down removes
# ---------------------------------------------------------------------------
class Stack:
    """A running service plus the client that drives it."""

    def __init__(self, service, client, closers: List[Callable[[], None]]) -> None:
        self.service = service
        self.client = client
        self._closers = closers

    def close(self) -> None:
        for closer in reversed(self._closers):
            closer()


def serial_stack(db, scratch: Path) -> Stack:
    service = ShardedCoordinationService(db, ServiceConfig(shards=4))
    return Stack(service, ServiceClient(service), [service.close])


def durable_stack(db, scratch: Path) -> Stack:
    directory = tempfile.mkdtemp(prefix="durable-", dir=scratch)
    closers: List[Callable[[], None]] = [
        lambda: shutil.rmtree(directory, ignore_errors=True)
    ]
    try:
        durability = DurabilityConfig(dir=directory, fsync="never", snapshot_store="file")
        service = ShardedCoordinationService(
            db, ServiceConfig(shards=4, durability=durability)
        )
    except BaseException:
        closers[0]()
        raise
    closers.append(service.close)
    return Stack(service, ServiceClient(service), closers)


def gateway_stack(db, scratch: Path) -> Stack:
    service = ShardedCoordinationService(
        db, ServiceConfig(shards=2, workers=2, executor="process")
    )
    closers: List[Callable[[], None]] = [service.close]
    try:
        gateway = Gateway(service)
        closers.append(gateway.close)
        host, port = gateway.start()
        client = GatewayClient(host, port)
        closers.append(client.close)
        # Ready means every worker process answers through the edge.
        for shard in range(service.shard_count):
            client.probe(shard)
    except BaseException:
        Stack(service, None, closers).close()
        raise
    return Stack(service, WireClient(client), closers)


@dataclass(frozen=True)
class Workload:
    name: str
    stream: Callable[[int, int], tuple]
    scale: int
    stack: Callable[[object, Path], Stack]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("keyword-serial", keyword_stream, 256, serial_stack),
        Workload("marketplace-durable", marketplace_stream, 1000, durable_stack),
        Workload("marketplace-gateway", marketplace_stream, 400, gateway_stack),
    )
}


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------
@dataclass
class StreamRun:
    """Everything one pass of a stream through a stack recorded."""

    events: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    seconds: float = 0.0
    admit: List[float] = field(default_factory=list)
    write: List[float] = field(default_factory=list)
    submissions: List[tuple] = field(default_factory=list)
    flushes: List[tuple] = field(default_factory=list)
    resolutions: List[tuple] = field(default_factory=list)
    admitted: int = 0
    outcome: Optional[Outcome] = None
    #: Host ticks taken between events (seconds each).
    ticks: List[float] = field(default_factory=list)


def drive_stream(stack: Stack, events, tracer=None, trace_base: int = 0) -> StreamRun:
    """Issue ``events`` through ``stack`` in a closed loop.

    The timed window runs from the first issue until ``drain()``
    returns, less the time of the host ticks: one
    :func:`~coordbench.host.tick` runs between two events every
    :data:`~coordbench.host.TICK_PERIOD` seconds.  The program's own
    deterministic refusals (:class:`~repro.errors.PreconditionError`)
    are counted as rejections; any other exception is a failed event.
    With a ``tracer``, each event is a root span whose trace id is
    ``trace_base`` plus the event's index.
    """
    run = StreamRun()
    recorder = OutcomeRecorder()
    service, client = stack.service, stack.client

    def resolved(handle) -> None:
        run.resolutions.append(
            (_clock(), handle.query, handle.state.value, handle.satisfied_with)
        )
        recorder.record(handle)

    def scope(name: str, index: int):
        return tracer.root(name, trace_base + index) if tracer else nullcontext()

    service.on_resolved(resolved)
    rejected = retired = 0
    started = _clock()
    next_tick = started + host.TICK_PERIOD
    for index, event in enumerate(events):
        kind = event[0]
        with scope("bench.event", index):
            issued = _clock()
            try:
                if kind == "submit":
                    accepted = client.submit(event[1])
                    run.admit.append(_clock() - issued)
                    if accepted:
                        run.submissions.append((issued, (event[1].name,)))
                    else:
                        rejected += 1
                elif kind == "submit_many":
                    admissions = client.submit_many(event[1])
                    run.admit.append(_clock() - issued)
                    names = tuple(name for name, ok in admissions if ok)
                    run.submissions.append((issued, names))
                    rejected += len(admissions) - len(names)
                elif kind == "retract":
                    client.retract(event[1])
                elif kind in ("insert", "delete"):
                    getattr(client, kind)(event[1], event[2])
                    run.write.append(_clock() - issued)
                elif kind == "flush_drain":
                    sets = [
                        frozenset(r.chosen.members)
                        for r in client.flush_drain()
                        if r is not None and r.chosen is not None
                    ]
                    retired += len(sets)
                    run.flushes.append((issued, sets))
                else:
                    raise ValueError(f"unknown stream event {event!r}")
            except PreconditionError:
                rejected += 1
            except Exception as error:  # noqa: BLE001 - counted, reported, run fails
                run.failed += 1
                run.errors.append(f"{kind}: {error!r}")
        run.events += 1
        if _clock() >= next_tick:
            run.ticks.append(host.tick())
            next_tick = _clock() + host.TICK_PERIOD
    with scope("bench.drain", len(events)):
        service.drain()
    run.seconds = _clock() - started - sum(run.ticks)
    run.admitted = sum(len(names) for _, names in run.submissions)
    run.outcome = recorder.outcome(retired, rejected, service.pending())
    return run
