"""The benchmark's declared workloads and metrics.

One table drives both ``BENCHMARK.json`` (``python3 perfbench/run.py
--write-manifest``) and the names and units ``run.py`` reports, so the
two cannot drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

#: name -> why it is a workload of its own.
WORKLOADS = {
    "paper": (
        "Section 5 testbed, 1,000 subscriptions, 11 groups: publish cost "
        "is split over matcher, cost model and locate"
    ),
    "scale": (
        "10,000 subscriptions: the S-tree query dominates publish and the "
        "event grid dominates set-up"
    ),
    "durable": (
        "journaled, replicated broker with 100 sessions and churn: "
        "checkpoint, shipping and apply dominate publish"
    ),
}

#: (name, unit, better, bound) -- the metrics a user of the broker sees.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("publish_eps", "1/s", "higher", 0.2),
    ("publish_p50_us", "us", "lower", 0.2),
    ("publish_p99_us", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

#: (name, unit, better) -- one layer each, from the traced run.
PER_LAYER = [
    ("spatial.match_us", "us", "lower"),
    ("spatial.entries_per_query", "count", "lower"),
    ("spatial.nodes_per_query", "count", "lower"),
    ("spatial.useful_ratio", "ratio", "higher"),
    ("spatial.build_s", "s", "lower"),
    ("core.matching.self_us", "us", "lower"),
    ("core.matching.matches_per_event", "count", "lower"),
    ("clustering.groups.locate_us", "us", "lower"),
    ("clustering.groups.catchall_ratio", "ratio", "lower"),
    ("clustering.grid.build_s", "s", "lower"),
    ("clustering.kmeans.cluster_s", "s", "lower"),
    ("core.distribution.decide_us", "us", "lower"),
    ("core.distribution.multicast_ratio", "ratio", "higher"),
    ("network.multicast.unicast_us", "us", "lower"),
    ("network.multicast.multicast_us", "us", "lower"),
    ("network.multicast.ideal_us", "us", "lower"),
    ("network.multicast.tree_cache_hit_ratio", "ratio", "higher"),
    ("network.routing.spt_calls_per_event", "count", "lower"),
    ("network.routing.spt_us", "us", "lower"),
    ("network.routing.build_s", "s", "lower"),
    ("core.broker.self_us", "us", "lower"),
    ("core.dynamic.subscribe_us", "us", "lower"),
    ("core.dynamic.unsubscribe_us", "us", "lower"),
    ("core.dynamic.rebuilds", "count", "lower"),
    ("core.dynamic.pending_churn_max", "count", "lower"),
    ("sessions.on_publish_us", "us", "lower"),
    ("sessions.ack_us", "us", "lower"),
    ("sessions.log_append_us", "us", "lower"),
    ("sessions.outstanding_max", "count", "lower"),
    ("durability.append_us", "us", "lower"),
    ("durability.checkpoint_us", "us", "lower"),
    ("durability.checkpoints_per_1k_events", "count", "lower"),
    ("durability.snapshot_bytes", "B", "lower"),
    ("durability.wal_bytes_per_event", "B", "lower"),
    ("replication.flush_us", "us", "lower"),
    ("replication.apply_us", "us", "lower"),
    ("replication.ops_shipped_per_event", "count", "lower"),
    ("replication.catchups", "count", "lower"),
    ("driver.open_late_max_us", "us", "lower"),
    ("driver.open_wait_p99_us", "us", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def write_manifest(path: Path) -> None:
    path.write_text(json.dumps(manifest(), indent=2) + "\n")
