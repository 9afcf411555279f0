"""Unit tests of the benchmark's own pieces.

Run with ``python -m pytest coordbench`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from coordbench.measure import (  # noqa: E402
    MIN_TAIL,
    covered,
    percentile,
    resolution_latencies,
    self_times,
)


# -- percentiles -------------------------------------------------------------
def test_percentile_reports_value_and_sample_count():
    samples = [float(v) for v in range(1, 201)]
    assert percentile(samples, 0.95) == (190.0, 200)
    assert percentile(samples, 0.5) == (100.0, 200)


def test_percentile_refuses_a_thin_tail():
    # p95 of 199 samples leaves 9 beyond the rank.
    with pytest.raises(ValueError, match="need at least 10"):
        percentile([1.0] * 199, 0.95)
    # The median needs 20 samples for ten beyond it.
    percentile([1.0] * 20, 0.5)
    with pytest.raises(ValueError):
        percentile([1.0] * 19, 0.5)
    assert MIN_TAIL == 10


# -- resolution attribution --------------------------------------------------
def test_resolution_is_timed_from_the_latest_member_submit():
    # q1 and q2 wait; q3 arrives at t=5 and completes {q1, q2, q3}.
    submissions = [(1.0, ("q1",)), (2.0, ("q2",)), (5.0, ("q3",))]
    members = ("q1", "q2", "q3")
    resolutions = [
        (5.5, "q1", "satisfied", members),
        (5.6, "q2", "satisfied", members),
        (5.7, "q3", "satisfied", members),
    ]
    latencies = resolution_latencies(submissions, [], resolutions)
    assert latencies == pytest.approx([0.5, 0.6, 0.7])


def test_resolution_by_flush_is_timed_from_the_flush():
    submissions = [(1.0, ("q1",)), (2.0, ("q2",)), (3.0, ("q3",))]
    flushes = [(8.0, [frozenset({"q1", "q2"})])]
    resolutions = [
        (4.0, "q3", "retracted", ()),
        (8.25, "q1", "satisfied", ("q1", "q2")),
        (8.5, "q2", "satisfied", ("q1", "q2")),
    ]
    latencies = resolution_latencies(submissions, flushes, resolutions)
    assert latencies == pytest.approx([0.25, 0.5])


def test_a_reused_name_is_matched_to_its_own_submission():
    # q1 resolves with q2, is resubmitted, and resolves again with q3;
    # a rejected duplicate of q3 neither counts nor shifts the match.
    submissions = [
        (1.0, ("q1",)),
        (2.0, ("q2",)),
        (3.0, ("q1",)),
        (4.0, ("q3",)),
    ]
    resolutions = [
        (2.1, "q1", "satisfied", ("q1", "q2")),
        (2.2, "q2", "satisfied", ("q1", "q2")),
        (4.05, "q3", "rejected", ()),
        (4.1, "q3", "satisfied", ("q1", "q3")),
        (4.2, "q1", "satisfied", ("q1", "q3")),
    ]
    latencies = resolution_latencies(submissions, [], resolutions)
    assert latencies == pytest.approx([0.1, 0.2, 0.1, 0.2])


def test_a_set_that_never_completes_is_an_error():
    with pytest.raises(ValueError, match="never fully resolved"):
        resolution_latencies(
            [(1.0, ("q1",)), (1.0, ("q2",))], [], [(2.0, "q1", "satisfied", ("q1", "q2"))]
        )


# -- span self time ----------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "root", 0.0, 10.0, None),
        (2, "child", 1.0, 4.0, 1),
        (3, "child", 3.0, 6.0, 1),  # overlaps its sibling (another thread)
        (4, "grandchild", 2.0, 3.0, 2),
        (5, "late", 9.0, 12.0, 1),  # runs past its parent: clipped
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(3.0)


def test_covered_merges_nested_and_disjoint_intervals():
    assert covered(0.0, 10.0, [(1, 2), (1.5, 1.7), (5, 7), (6, 8)]) == pytest.approx(4.0)
    assert covered(0.0, 1.0, []) == 0.0


# -- the oracle check --------------------------------------------------------
def _small_keyword_pass(tmp_path):
    from coordbench.oracle import oracle_outcome
    from coordbench.workloads import WORKLOADS, drive_stream

    workload = WORKLOADS["keyword-serial"]
    oracle = oracle_outcome(*workload.stream(24, 5))
    db, events = workload.stream(24, 5)
    stack = workload.stack(db, tmp_path)
    try:
        result = drive_stream(stack, events)
    finally:
        stack.close()
    return oracle, result


def test_a_pass_matches_its_oracle(tmp_path):
    oracle, result = _small_keyword_pass(tmp_path)
    assert result.failed == 0
    assert result.outcome == oracle
    assert oracle.resolved > 0


def test_host_ticks_leave_the_outcome_and_the_timed_window_alone(tmp_path, monkeypatch):
    import time

    from coordbench import host

    from coordbench.oracle import oracle_outcome
    from coordbench.workloads import WORKLOADS, drive_stream

    monkeypatch.setattr(host, "TICK_PERIOD", 0.0)
    workload = WORKLOADS["keyword-serial"]
    oracle = oracle_outcome(*workload.stream(24, 5))
    db, events = workload.stream(24, 5)
    stack = workload.stack(db, tmp_path)
    try:
        started = time.perf_counter()
        result = drive_stream(stack, events)
        wall = time.perf_counter() - started
    finally:
        stack.close()
    assert result.outcome == oracle
    # One tick after every event, none of it inside the timed window.
    assert len(result.ticks) == result.events
    assert 0.0 < result.seconds <= wall - sum(result.ticks)


def test_a_perturbed_oracle_digest_fails_the_run(tmp_path, monkeypatch):
    import dataclasses

    from coordbench import oracle as oracle_module
    from coordbench import run as run_module
    from coordbench.workloads import Workload, WORKLOADS, keyword_stream

    honest = oracle_module.oracle_outcome

    def perturbed(db, events):
        outcome = honest(db, events)
        return dataclasses.replace(outcome, digest="0" * len(outcome.digest))

    monkeypatch.setattr(oracle_module, "oracle_outcome", perturbed)
    monkeypatch.setattr(run_module, "ROOT", tmp_path)
    small = Workload("keyword-small", keyword_stream, 24, WORKLOADS["keyword-serial"].stack)
    out = run_module.collect(small, seed=5, seconds=0.0, trace=False)
    assert out.attempted > 0
    assert out.failed == len(out.passes) == 1 + run_module.MIN_PASSES
    assert all("!= oracle" in error for error in out.errors)


# -- host normalisation ------------------------------------------------------
def test_end_to_end_scales_each_pass_by_its_host_speed():
    from coordbench.run import Collected, end_to_end

    # Three passes of the same work on a host at 1x, 2x slower and 2x
    # faster: the scaled timings agree, the raw ones do not.  The
    # warm-up pass, however slow, feeds no metric.
    passes = [
        dict(warmup=k == 1.0, traced=False, tick_s=k, scale=0.012 / k, setup=k,
             eps=1.0 / k, admit=[k] * 200, resolve=[k] * 200, write=[k] * 200)
        for k in (1.0, 0.012, 0.024, 0.006)
    ]
    metrics, notes = end_to_end(Collected(passes=passes))
    assert metrics["throughput_eps"]["value"] == pytest.approx(1.0 / 0.012)
    assert metrics["setup_s"]["value"] == pytest.approx(0.012)
    for name in ("admit", "resolve", "write"):
        for q in (50, 95):
            assert metrics[f"{name}_p{q}_ms"]["value"] == pytest.approx(12.0)
    assert notes["admit_p95_ms"].startswith("raw 12;")
