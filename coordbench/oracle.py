"""Stream outcomes and the single-engine oracle they must equal.

An :class:`Outcome` is what a run of one stream decided: how many
queries were satisfied, how many coordinating sets ``flush_drain``
retired, how many events the program refused, how many queries are
still pending, and a digest of every query's resolutions and of the
pending set.  The oracle replays the same stream into one
:class:`~repro.core.CoordinationEngine` outside the timed window; any
configuration of the service must reproduce its outcome exactly.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core import CoordinationEngine, QueryState
from repro.errors import PreconditionError


@dataclass(frozen=True)
class Outcome:
    resolved: int
    retired_sets: int
    rejected: int
    pending: int
    digest: str


class OutcomeRecorder:
    """Collects the resolutions one stream produced, as comparable data.

    ``record`` is a resolution callback; it runs on whichever thread
    the program resolves on, and only appends (atomic under the GIL).
    """

    def __init__(self) -> None:
        self.records: List[Tuple[str, str, Tuple[str, ...], Tuple]] = []

    def record(self, handle) -> None:
        if handle.state is QueryState.REJECTED:
            # Rejections are counted by the closed loop from the replies it
            # receives; whether a refused handle also fires a callback
            # is an executor detail.
            return
        chosen = handle.resolution.chosen if handle.resolution else None
        assignment = ()
        if chosen is not None:
            assignment = tuple(
                sorted(
                    (var.namespace, var.name, repr(value))
                    for var, value in chosen.assignment.items()
                )
            )
        self.records.append(
            (handle.query, handle.state.value, tuple(sorted(handle.satisfied_with)), assignment)
        )

    def outcome(self, retired_sets: int, rejected: int, pending: Sequence[str]) -> Outcome:
        # Resolutions of one name are ordered (it is never pending
        # twice); across names the callback order is an executor detail.
        per_name: Dict[str, list] = defaultdict(list)
        for name, *rest in self.records:
            per_name[name].append(tuple(rest))
        text = repr((sorted(per_name.items()), sorted(pending)))
        return Outcome(
            resolved=sum(1 for r in self.records if r[1] == "satisfied"),
            retired_sets=retired_sets,
            rejected=rejected,
            pending=len(pending),
            digest=hashlib.sha256(text.encode()).hexdigest(),
        )


def oracle_outcome(db, events) -> Outcome:
    """Replay ``events`` into a single engine over ``db``."""
    engine = CoordinationEngine(db)
    recorder = OutcomeRecorder()
    engine.on_resolved(recorder.record)
    retired = rejected = 0
    for event in events:
        kind = event[0]
        if kind == "submit":
            try:
                engine.submit(event[1])
            except PreconditionError:
                rejected += 1
        elif kind == "submit_many":
            handles = engine.submit_many(list(event[1]))
            rejected += sum(1 for h in handles if h.state is QueryState.REJECTED)
        elif kind == "retract":
            try:
                engine.retract(event[1])
            except PreconditionError:
                rejected += 1
        elif kind == "insert":
            db.insert(event[1], event[2])
        elif kind == "delete":
            db.delete(event[1], event[2])
        elif kind == "flush_drain":
            while engine.flush().chosen is not None:
                retired += 1
        else:
            raise ValueError(f"unknown stream event {event!r}")
    return recorder.outcome(retired, rejected, engine.pending())
