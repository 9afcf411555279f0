"""Pure arithmetic of the benchmark: percentiles, resolution latency
attribution and span self time.

Nothing here imports the program under test, so the unit tests can
check every formula on hand-built inputs.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
MIN_TAIL = 10


def percentile(samples: Sequence[float], p: float) -> Tuple[float, int]:
    """Nearest-rank ``p``-quantile of ``samples`` and the sample count.

    Refuses (``ValueError``) when fewer than :data:`MIN_TAIL` samples
    lie beyond the rank, so no reported percentile rests on a handful
    of values.
    """
    n = len(samples)
    if not 0.0 < p < 1.0:
        raise ValueError(f"percentile {p} outside (0, 1)")
    rank = max(1, math.ceil(p * n))
    beyond = n - rank
    if beyond < MIN_TAIL:
        raise ValueError(
            f"p{p * 100:g} of {n} samples leaves {beyond} beyond it "
            f"(need at least {MIN_TAIL})"
        )
    return sorted(samples)[rank - 1], n


# ---------------------------------------------------------------------------
# Resolution latency
# ---------------------------------------------------------------------------
#: ``(issue_time, accepted_names)`` of one submit/submit_many event.
Submission = Tuple[float, Sequence[str]]
#: ``(issue_time, retired_member_sets)`` of one flush_drain event.
Flush = Tuple[float, Sequence[FrozenSet[str]]]
#: ``(callback_time, name, state, satisfied_with)`` of one resolution.
Resolution = Tuple[float, str, str, Sequence[str]]


def resolution_latencies(
    submissions: Iterable[Submission],
    flushes: Iterable[Flush],
    resolutions: Iterable[Resolution],
) -> List[float]:
    """Trigger-to-callback latency of every satisfied query.

    The trigger of a coordinating set is the issue of the latest of
    its members' submissions, or, when a ``flush_drain`` retired the
    set, the issue of that flush.  A name is never pending twice, so
    the k-th non-rejected resolution of a name belongs to its k-th
    accepted submission.  ``resolutions`` must be in callback order.
    """
    issued: Dict[str, deque] = defaultdict(deque)
    for time, names in submissions:
        for name in names:
            issued[name].append(time)
    retired: Dict[FrozenSet[str], deque] = defaultdict(deque)
    for time, sets in sorted(flushes, key=lambda flush: flush[0]):
        for members in sets:
            retired[frozenset(members)].append(time)
    open_sets: Dict[FrozenSet[str], List[Tuple[float, float]]] = {}
    latencies: List[float] = []
    for time, name, state, satisfied_with in resolutions:
        if state == "rejected":
            continue
        if not issued[name]:
            raise ValueError(f"resolution of {name!r} matches no submission")
        own_issue = issued[name].popleft()
        if state != "satisfied":
            continue
        members = frozenset(satisfied_with)
        group = open_sets.setdefault(members, [])
        group.append((own_issue, time))
        if len(group) < len(members):
            continue
        del open_sets[members]
        trigger = max(issue for issue, _ in group)
        flushes_of_set = retired.get(members)
        if flushes_of_set and flushes_of_set[0] >= trigger:
            trigger = flushes_of_set.popleft()
        latencies.extend(done - trigger for _, done in group)
    if open_sets:
        raise ValueError(
            f"coordinating sets never fully resolved: {sorted(map(sorted, open_sets))}"
        )
    return latencies


# ---------------------------------------------------------------------------
# Span self time
# ---------------------------------------------------------------------------
#: ``(id, name, start, end, parent_id)`` — parent ``None`` for roots.
Span = Tuple[int, str, float, float, object]


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children may run on other threads and overlap one another; the
    union of their intervals, clipped to the parent, is subtracted once.
    """
    spans = list(spans)
    children: Mapping[object, List[Tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - covered(start, end, children.get(sid, ()))
        for sid, _, start, end, _ in spans
    }
