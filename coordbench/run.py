"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 coordbench/run.py --workload keyword-serial --seed 0 --seconds 40 --trace 0

Each run is its own process.  For about ``--seconds`` it drives
passes, each over a fresh stream built from ``--seed`` and the
pass's index and through a fresh service, after replaying the stream
into the single-engine oracle; it checks every pass against its
oracle and checks that no worker process, thread or socket outlives
the pass.  The first pass warms the process up and feeds no metric.
With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics.  The
last line of standard output is one JSON object; the lines above it
give each metric with its unit and sample count.  The exit code is 0
only when every event and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
from dataclasses import dataclass, field
from statistics import median
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_SEED = 0
#: Seed kept out of tuning; a claimed gain must also hold on it.
HELD_OUT_SEED = 7
#: Pass ``i`` of a run with seed ``s`` drives the stream of seed
#: ``s * STREAM_STRIDE + i``, so every pass sees another stream shape
#: and a run's medians span as many shapes as it has passes.
STREAM_STRIDE = 1000
#: Measured passes a run makes at least, after its warm-up pass.
MIN_PASSES = 3


def _sockets() -> int:
    try:
        fds = os.listdir("/proc/self/fd")
    except OSError:
        return 0
    count = 0
    for fd in fds:
        try:
            count += os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
        except OSError:
            pass
    return count


def _children() -> list:
    pids = []
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return pids
    for task in tasks:
        try:
            with open(f"/proc/self/task/{task}/children", encoding="ascii") as f:
                pids.extend(f.read().split())
        except OSError:
            pass
    return pids


def leftovers(threads, sockets: int, grace: float = 5.0) -> list:
    """What a pass left running: threads, worker processes, sockets."""
    import multiprocessing

    deadline = time.monotonic() + grace
    while True:
        found = [f"thread {t.name}" for t in threading.enumerate() if t not in threads]
        found += [f"process {p.pid}" for p in multiprocessing.active_children()]
        extra = _sockets() - sockets
        if extra > 0:
            found.append(f"{extra} socket(s)")
        if not found or time.monotonic() > deadline:
            return found
        time.sleep(0.05)


def stop_helpers() -> None:
    """Stop and reap the fork server and resource tracker that the
    process executor's start method leaves running."""
    from multiprocessing import forkserver, resource_tracker

    for module, helper in ((forkserver, "_forkserver"), (resource_tracker, "_resource_tracker")):
        instance = getattr(module, helper, None)
        if instance is not None and hasattr(instance, "_stop"):
            instance._stop()


@dataclass
class Collected:
    """Everything a run measured, before it is reduced to metrics."""

    passes: List[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    tracer: Optional[object] = None
    traced: dict = field(default_factory=dict)


def collect(workload, seed: int, seconds: float, trace: bool) -> Collected:
    """Drive passes for about ``seconds``; check each one."""
    from coordbench import host
    from coordbench.measure import resolution_latencies
    from coordbench.oracle import oracle_outcome
    from coordbench.tracer import Tracer
    from coordbench.workloads import drive_stream

    scratch = ROOT / ".coordbench"
    scratch.mkdir(exist_ok=True)

    out = Collected(tracer=Tracer() if trace else None)
    out.traced = dict(events=0, admitted=0, migrations=0, hits=0, misses=0, probes=0)
    threads, sockets = set(threading.enumerate()), _sockets()
    started = time.perf_counter()
    while True:
        index = len(out.passes)
        stream_seed = seed * STREAM_STRIDE + index
        oracle = oracle_outcome(*workload.stream(workload.scale, stream_seed))
        db, events = workload.stream(workload.scale, stream_seed)
        traced = trace and index % 2 == 1
        t0 = time.perf_counter()
        stack = workload.stack(db, scratch)
        setup = time.perf_counter() - t0
        before = db.stats.snapshot()
        try:
            if traced:
                out.tracer.install()
            try:
                result = drive_stream(stack, events, out.tracer if traced else None, index << 24)
            finally:
                if traced:
                    out.tracer.uninstall()
                    out.tracer.fold()
            moved = stack.service.migrations
        finally:
            stack.close()
        out.attempted += result.events
        out.failed += result.failed
        out.errors += result.errors
        if result.outcome != oracle:
            out.failed += 1
            out.errors.append(f"pass {index}: outcome {result.outcome} != oracle {oracle}")
        leaked = leftovers(threads, sockets)
        if leaked:
            out.failed += 1
            out.errors.append(f"pass {index} left running: {', '.join(leaked)}")
        tick_s = median(result.ticks) if result.ticks else host.REFERENCE_S
        out.passes.append(
            dict(
                warmup=index == 0,
                traced=traced,
                tick_s=tick_s,
                scale=host.REFERENCE_S / tick_s,
                setup=setup,
                eps=result.events / result.seconds,
                admit=result.admit,
                write=result.write,
                resolve=resolution_latencies(
                    result.submissions, result.flushes, result.resolutions
                ),
            )
        )
        if traced:
            delta = db.stats.delta(before)
            for key, value in (
                ("events", result.events),
                ("admitted", result.admitted),
                ("migrations", moved),
                ("hits", delta.plan_cache_hits),
                ("misses", delta.plan_cache_misses),
                ("probes", delta.index_probes),
            ):
                out.traced[key] += value
        # Stop before a pass of average length would overrun the time.
        elapsed = time.perf_counter() - started
        enough = len(out.passes) >= 1 + (2 if trace else 1) * MIN_PASSES
        if enough and elapsed * (len(out.passes) + 1) / len(out.passes) > seconds:
            break
    stop_helpers()
    orphans = _children()
    if orphans:
        out.failed += 1
        out.errors.append(f"child processes outlived the run: {orphans}")
    return out


def end_to_end(out: Collected) -> Tuple[dict, dict]:
    """Per-pass values, host-normalised, reduced to their median over
    the run's measured passes (neither the warm-up nor traced ones).

    Each timing of a pass is scaled by that pass's ``scale`` (see
    :mod:`coordbench.host`).  Latency percentiles are taken within each
    pass, so one pass slowed by the host moves one value of the median
    rather than the tail of a pooled sample.  The note of each metric
    gives its unscaled median and the smallest pass's sample count.
    """
    from coordbench import host
    from coordbench.measure import percentile

    passes = [p for p in out.passes if not (p["warmup"] or p["traced"])]
    metrics, notes = {}, {}

    def put(name, unit, values, n=1):
        """``values``: (scaled, raw) per pass."""
        metrics[name] = {"value": median(v for v, _ in values), "unit": unit}
        notes[name] = (
            f"raw {median(r for _, r in values):.6g}; "
            f"n={n} per pass x {len(passes)} passes"
        )

    put("setup_s", "s", [(p["setup"] * p["scale"], p["setup"]) for p in passes])
    put("throughput_eps", "1/s", [(p["eps"] / p["scale"], p["eps"]) for p in passes])
    for name in ("admit", "resolve", "write"):
        for q in (50, 95):
            values = [(percentile(p[name], q / 100), p["scale"]) for p in passes]
            put(
                f"{name}_p{q}_ms",
                "ms",
                [(1000.0 * v * scale, 1000.0 * v) for (v, _), scale in values],
                min(n for (_, n), _ in values),
            )
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    tick = median(p["tick_s"] for p in passes)
    scale = median(p["scale"] for p in passes)
    notes["host"] = (
        f"median tick {1000.0 * tick:.3g} ms (reference {1000.0 * host.REFERENCE_S:g} ms),"
        f" median scale {scale:.3g}"
    )
    return metrics, notes


def per_layer(out: Collected, name: str, seed: int) -> Tuple[dict, dict]:
    """Layer metrics from the traced passes; overhead against the rest."""
    t = out.traced
    layers = out.tracer.layer_metrics(
        t["events"], t["admitted"], t["hits"], t["misses"], t["probes"], t["migrations"]
    )
    plain = median(
        p["eps"] / p["scale"] for p in out.passes if not (p["warmup"] or p["traced"])
    )
    layers["trace.overhead"] = plain / median(
        p["eps"] / p["scale"] for p in out.passes if p["traced"]
    )
    out.tracer.dump(ROOT / ".coordbench" / f"spans-{name}-seed{seed}.tsv")
    metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
    return metrics, {"spans": f"{len(out.tracer.last_spans)} spans of the last traced pass written"}


LAYER_UNITS = {
    "core.gateway.self_ms": "ms",
    "core.gateway.requests": "1/event",
    "core.service.self_ms": "ms",
    "core.service.probes_per_admit": "1/query",
    "core.service.migrations": "1/event",
    "core.engine.admit_ms": "ms",
    "core.engine.evaluate_ms": "ms",
    "core.engine.evaluations": "1/event",
    "core.engine.retract_ms": "ms",
    "core.coordination_graph.probe_ms": "ms",
    "core.scc_coordination.coordinate_ms": "ms",
    "logic.standardize_calls": "1/query",
    "logic.unify_calls": "1/event",
    "db.planner.join_ms": "ms",
    "db.planner.plan_cache_hit_rate": "ratio",
    "db.planner.index_probes": "1/event",
    "db.storage.write_ms": "ms",
    "db.durability.wal_append_ms": "ms",
    "db.durability.wal_records": "1/event",
    "db.durability.wal_bytes_per_event": "B/event",
    "db.durability.checkpoints": "1/event",
    "db.durability.checkpoint_ms": "ms",
    "db.wire.encode_ms": "ms",
    "db.wire.decode_ms": "ms",
    "db.wire.bytes_per_event": "B/event",
    "db.wire.sync_bytes": "B/event",
    "core.transport.round_trips_per_event": "1/event",
    "core.transport.rtt_ms": "ms",
    "core.transport.errors": "count",
    "core.executor.mailbox_wait_ms": "ms",
    "core.executor.dispatch_wait_ms": "ms",
    "trace.unattributed_share": "ratio",
    "trace.overhead": "x",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out from tuning)",
    )
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
    except ImportError as error:
        print(f"cannot import the program under test: {error}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        print(f"the program under test is not this checkout's: {repro.__file__}", file=sys.stderr)
        return 2
    from coordbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (have: {', '.join(WORKLOADS)})")
    out = collect(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics, notes = per_layer(out, args.workload, args.seed)
    else:
        metrics, notes = end_to_end(out)
    print(f"workload {args.workload} seed {args.seed}: {len(out.passes)} passes")
    for name, metric in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{note}")
    for name in notes.keys() - metrics.keys():
        print(f"  {name}: {notes[name]}")
    for error in out.errors:
        print(f"  FAILED: {error}")
    correct = out.failed == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": out.attempted, "failed": out.failed,
             "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
