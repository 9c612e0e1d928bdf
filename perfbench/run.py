"""Pipeline benchmark of the pub-sub broker.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

One run builds the workload's broker from source (``src/``), warms it
up, drives it with one publisher stream in a closed loop and then at a
fixed offered rate (open loop), and checks every output against a
linear-scan oracle outside the timed window.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps each layer's public methods on
the built objects, records spans, and reports the per-layer metrics
(spans go to ``perfbench/out/``).  The last line of standard output is
one JSON object; the exit code is 0 only if every output matched.

``python3 perfbench/run.py --write-manifest`` regenerates
``BENCHMARK.json`` from :mod:`manifest`.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import manifest

ROOT = Path(__file__).resolve().parent.parent
#: Traced runs: share of ``--seconds`` in each closed-loop half (untraced,
#: traced); the open loop gets the rest.
TRACED_SHARE = 0.3


def _percentile(samples, q: float) -> float:
    import numpy as np

    return float(np.percentile(samples, q)) if samples else 0.0


def _peak_rss_mb() -> float:
    """Peak resident set so far.  Read once the broker is set up and
    warm, before the timed window: ``durable`` keeps every checkpoint in
    memory, so a later reading would grow with throughput."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _drop_one_match(workload, from_sequence: int) -> None:
    """Fault injection for the benchmark's tests: the first event at or
    after ``from_sequence`` with a match loses its last matched id."""
    from repro.core.matching import MatchResult

    engine = workload.broker.engine
    original = engine.match
    armed = [True]

    def match(event):
        result = original(event)
        if armed[0] and event.sequence >= from_sequence and (
            result.subscription_ids
        ):
            armed[0] = False
            kept = result.subscription_ids[:-1]
            return MatchResult(
                subscription_ids=kept,
                subscribers=tuple(engine.table.subscribers_of(kept)),
            )
        return result

    engine.match = match


def _warm_up(workload) -> int:
    for i in range(workload.warm_ops):
        op = workload.prepare(i)
        workload.observe(i, op, workload.run(op))
    return workload.warm_ops


def _service_figures(samples) -> dict:
    """Throughput and percentiles of closed-loop service times (s)."""
    return {
        "publish_eps": len(samples) / sum(samples),
        "publish_p50_us": _percentile(samples, 50) * 1e6,
        "publish_p99_us": _percentile(samples, 99) * 1e6,
    }


def _per_layer(summary, events, build, stats, counters, untraced,
               traced, opened) -> dict:
    """Fold spans and counters into the ``per_layer`` metrics."""
    from tracing import NameSummary

    def get(name, root="op.publish") -> NameSummary:
        return summary.get((root, name), NameSummary())

    def per_event_us(*names) -> float:
        return sum(get(n).self_ns for n in names) / events / 1e3

    def share(name) -> float:
        s = get(name)
        return sum(bool(t) for t in s.tags) / s.calls if s.calls else 0.0

    def per_call_us(name) -> float:
        s = get(name, "op.churn")
        return s.self_ns / s.calls / 1e3 if s.calls else 0.0

    multicast = get("network.multicast.multicast_cost")
    root = get("op.publish", "op.publish")
    traced_eps = len(traced.times["publish"]) / sum(traced.times["publish"])
    untraced_eps = (
        len(untraced.times["publish"]) / sum(untraced.times["publish"])
    )
    return {
        "spatial.match_us": per_event_us("spatial.match"),
        "spatial.entries_per_query": stats.entries_per_query,
        "spatial.nodes_per_query": stats.nodes_per_query,
        "spatial.useful_ratio": (
            sum(get("spatial.match").tags) / stats.entries_tested
            if stats.entries_tested else 0.0
        ),
        "spatial.build_s": build.index_s,
        "core.matching.self_us": per_event_us("core.matching.match"),
        "core.matching.matches_per_event": (
            sum(get("core.matching.match").tags) / events
        ),
        "clustering.groups.locate_us": per_event_us(
            "clustering.groups.locate", "clustering.groups.group"
        ),
        "clustering.groups.catchall_ratio": share("clustering.groups.locate"),
        "clustering.grid.build_s": build.grid_s,
        "clustering.kmeans.cluster_s": build.cluster_s,
        "core.distribution.decide_us": per_event_us(
            "core.distribution.decide"
        ),
        "core.distribution.multicast_ratio": share(
            "core.distribution.decide"
        ),
        "network.multicast.unicast_us": per_event_us(
            "network.multicast.unicast_cost"
        ),
        "network.multicast.multicast_us": per_event_us(
            "network.multicast.multicast_cost"
        ),
        "network.multicast.ideal_us": per_event_us(
            "network.multicast.ideal_cost"
        ),
        "network.multicast.tree_cache_hit_ratio": (
            multicast.leaf_calls / multicast.calls if multicast.calls else 0.0
        ),
        "network.routing.spt_calls_per_event": (
            get("network.routing.spt").calls / events
        ),
        "network.routing.spt_us": per_event_us("network.routing.spt"),
        "network.routing.build_s": build.routing_s,
        "core.broker.self_us": per_event_us("core.broker.publish"),
        "core.dynamic.subscribe_us": per_call_us("core.dynamic.subscribe"),
        "core.dynamic.unsubscribe_us": per_call_us(
            "core.dynamic.unsubscribe"
        ),
        "core.dynamic.rebuilds": counters.get("rebuilds", 0),
        "core.dynamic.pending_churn_max": counters.get(
            "pending_churn_max", 0
        ),
        "sessions.on_publish_us": per_event_us("sessions.on_publish"),
        "sessions.ack_us": per_event_us("sessions.ack"),
        "sessions.log_append_us": per_event_us("sessions.log_append"),
        "sessions.outstanding_max": max(
            get("sessions.on_publish").tags, default=0
        ),
        "durability.append_us": per_event_us("durability.append"),
        "durability.checkpoint_us": per_event_us("durability.checkpoint"),
        "durability.checkpoints_per_1k_events": (
            counters.get("checkpoints", 0) * 1000 / events
        ),
        "durability.snapshot_bytes": counters.get("snapshot_bytes", 0),
        "durability.wal_bytes_per_event": (
            counters.get("wal_bytes", 0) / events
        ),
        "replication.flush_us": per_event_us("replication.flush"),
        "replication.apply_us": per_event_us("replication.apply"),
        "replication.ops_shipped_per_event": (
            counters.get("ops_shipped", 0) / events
        ),
        "replication.catchups": counters.get("catchups", 0),
        "driver.open_late_max_us": max(opened.late, default=0.0) * 1e6,
        "driver.open_wait_p99_us": _percentile(opened.waits, 99) * 1e6,
        "trace.coverage": (
            1.0 - root.self_ns / root.total_ns if root.total_ns else 0.0
        ),
        "trace.overhead_pct": (untraced_eps / traced_eps - 1.0) * 100.0,
    }


def _measure(args, shape):
    """Run one workload; returns (metrics, attempted, failed, notes)."""
    import workloads
    from loops import Calibrator, closed_loop, open_loop
    from tracing import Tracer, summarize

    notes = {}
    calibrator = Calibrator()
    if args.trace:
        workload = workloads.make(args.workload, shape, args.seed)
        build = workload.setup_traced()
    else:
        setup_raw, setup_times = [], []
        for _ in range(shape.setups):
            workload = None
            gc.collect()
            workload = workloads.make(args.workload, shape, args.seed)
            before = calibrator.measure(passes=3)
            started = perf_counter()
            workload.setup()
            setup_raw.append(perf_counter() - started)
            after = calibrator.measure(passes=3)
            setup_times.append(setup_raw[-1] * calibrator.scale(before, after))
        notes["raw_setup_s"] = [round(t, 4) for t in setup_raw]
    workload.make_inputs()
    if args.drop_match is not None:
        _drop_one_match(workload, args.drop_match)
    start = _warm_up(workload)
    rss_mb = _peak_rss_mb()
    gc.collect()

    if args.trace:
        half = args.seconds * TRACED_SHARE
        untraced = closed_loop(workload, start, half, calibrator)
        tracer = Tracer()
        workload.install(tracer)
        traced = closed_loop(
            workload, untraced.next_index, half, calibrator, tracer
        )
        counters = workload.counters()
        stats = workload.query_stats()
        workload.uninstall()
        opened = open_loop(
            workload, traced.next_index, args.seconds - 2 * half, shape.rate
        )
        closed = traced
        notes.update(
            open_rate=shape.rate,
            open_samples=opened.publishes,
            open_p99_us=round(
                _percentile(opened.times["publish"], 99) * 1e6, 1
            ),
        )
    else:
        closed = closed_loop(workload, start, args.seconds, calibrator)
        metrics = {
            "setup_s": statistics.median(setup_times),
            **_service_figures(closed.times["publish"]),
            "peak_rss_mb": rss_mb,
        }
        notes.update(
            (f"raw_{name}", round(value, 3))
            for name, value in _service_figures(
                closed.raw["publish"]
            ).items()
        )
        notes["kernel_ms_median"] = round(
            statistics.median(closed.kernel) * 1e3, 3
        )

    failed, digest = workload.check()
    attempted = len(workload.digests) + (
        3 if args.workload == "durable" else 0
    )
    churn = closed.times["churn"]
    notes.update(
        publish_samples=closed.publishes,
        churn_samples=len(churn),
        churn_p50_us=round(_percentile(churn, 50) * 1e6, 1),
        churn_p95_us=round(_percentile(churn, 95) * 1e6, 1),
        failed_ratio=failed / attempted,
        oracle_digest=digest,
    )
    if args.trace:
        summary = summarize(tracer.spans)
        metrics = _per_layer(
            summary, traced.publishes, build, stats, counters, untraced,
            traced, opened,
        )
        spans_path = (
            ROOT / "perfbench" / "out"
            / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        )
        tracer.write(spans_path)
        notes["spans"] = str(spans_path.relative_to(ROOT))
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(manifest.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=manifest.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small tables, for the benchmark's tests")
    parser.add_argument("--drop-match", type=int, default=None,
                        metavar="SEQ",
                        help="fault injection for the benchmark's tests: "
                        "drop one matched id at or after event SEQ")
    parser.add_argument("--write-manifest", action="store_true",
                        help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_manifest:
        manifest.write_manifest(ROOT / "BENCHMARK.json")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    sizes = workloads.TINY if args.size == "tiny" else workloads.SHAPES
    metrics, attempted, failed, notes = _measure(args, sizes[args.workload])

    for key, value in notes.items():
        print(f"# {key}: {value}")
    out = {}
    for name, value in metrics.items():
        unit = manifest.UNITS[name]
        print(f"{name} = {value:.6g} {unit}")
        out[name] = {"value": float(value), "unit": unit}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
