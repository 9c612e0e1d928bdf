"""Command-line interface.

The subcommands cover the library's main workflows::

    repro generate  --seed 7 --subscriptions 1000 --out testbed.json
    repro run       --testbed testbed.json --algorithm forgy \\
                    --groups 11 --modes 9 --threshold 0.15
    repro tune      --testbed testbed.json --groups 11 --modes 9
    repro experiments [--small]
    repro chaos     --events 500 --loss 0.1 --crashes 2
    repro chaos     --overload --scenario burst --queue-capacity 32
    repro chaos     --crash-recovery --corrupt-wal torn-tail \\
                    --wal-out broker.wal
    repro chaos     --failover --failover-scenario partition --standbys 2
    repro chaos     --sharded --shards 4 --sharded-scenario shard-kill
    repro shard     plan --shards 4
    repro shard     stats --shards 8 --subscriptions 500
    repro wal       --path broker.wal
    repro stats     --events 200 --loss 0.1 \\
                    [--overload|--crash-recovery|--failover]
    repro trace     --event 3 --events 200
    repro lint      [--rule DET01] [--format json] [--baseline write] src

``repro chaos`` replays a workload through the packet simulator with
injected faults (lossy links, broker crash/restart windows) and
verifies the exactly-once delivery guarantee of the reliable
protocol — or, with ``--unreliable``, reports precisely what the raw
substrate loses.  With ``--overload`` the same replay runs behind the
full overload-protection stack (token-bucket admission, bounded
ingress queue with pluggable shedding, degraded group-flood mode,
per-subscriber circuit breakers) against a canned saturation
scenario: a burst storm, a slow or permanently-dead subscriber, or a
thundering-resubscribe herd.  With ``--crash-recovery`` the home
broker journals subscriptions, publish intents and delivery
completions to a write-ahead log; each crash window wipes its
volatile state (and, with ``--corrupt-wal``, damages the log), and
each restart recovers from snapshot + WAL replay — the ledger then
proves the guarantee held across the restarts.  With ``--failover``
the home broker becomes a replicated group: the primary ships its WAL
to ranked standbys, a permanent kill (or a partition manufacturing a
zombie primary) forces an epoch-fenced takeover, and the per-event
outcome ledger proves ``delivered + shed + expired == published``
with zero duplicate deliveries across the takeover.  With
``--sharded`` the broker scales *out*: publications route to the
shard owning their subset, subscriptions scatter onto every owning
shard, live migrations move subsets under traffic, and shard kills /
mid-migration crashes must preserve both the outcome ledger and
digest-exact match parity with a single unsharded broker.  ``repro
shard`` prints the subset→shard plan (greedy bin-pack over expected
load) and the scatter statistics without running chaos.  ``repro wal``
inspects a log file written with ``--wal-out``: record counts,
corruption status (exit 1 when the tail is damaged), and the last
few records.

``repro stats`` runs the same pipeline with live telemetry and prints
the operational picture: events/sec, match-latency percentiles, the
multicast/unicast split, retry/duplicate counters, and per-link
traffic.  ``repro trace`` replays the identical deterministic run and
dumps the span tree of one event (match → distribution-decision →
route → deliver → ack/retry) as JSONL.

``repro lint`` runs the AST-based invariant linter (`repro.statics`)
over the tree: determinism rules (no wall clock, no unseeded
randomness, no hash-order iteration), crash-safety rules (atomic
writes on durable paths, no swallowed excepts) and hygiene rules,
with ``# repro: noqa`` suppressions and a checked-in fingerprint
baseline.  ``--list-rules`` documents every rule; exit status 1 means
a non-baselined finding.

(Installed as the ``repro`` console script; also runnable as
``python -m repro.cli``.)
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional

from .analysis.report import format_table
from .clustering import (
    BatchKMeansClustering,
    ForgyKMeansClustering,
    MinimumSpanningTreeClustering,
    PairwiseGroupingClustering,
)
from .core import (
    PubSubBroker,
    SubscriptionTable,
    ThresholdPolicy,
    ThresholdTuner,
    oracle_tally,
)
from .io import load_testbed, save_testbed
from .network import TransitStubGenerator
from .overload import SHED_POLICIES
from .workload import (
    PublicationGenerator,
    StockSubscriptionGenerator,
    publication_distribution,
)

__all__ = ["main"]

ALGORITHMS = {
    "forgy": ForgyKMeansClustering,
    "kmeans": BatchKMeansClustering,
    "pairwise": PairwiseGroupingClustering,
    "mst": MinimumSpanningTreeClustering,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Content-based pub-sub simulation toolkit "
        "(Riabov et al., ICDCS 2003 reproduction).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a topology + subscription testbed"
    )
    generate.add_argument("--seed", type=int, default=2003)
    generate.add_argument("--subscriptions", type=int, default=1000)
    generate.add_argument("--out", required=True)

    def add_run_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--testbed", required=True)
        sub.add_argument(
            "--algorithm", choices=sorted(ALGORITHMS), default="forgy"
        )
        sub.add_argument("--groups", type=int, default=11)
        sub.add_argument("--modes", type=int, choices=(1, 4, 9), default=9)
        sub.add_argument("--events", type=int, default=1000)
        sub.add_argument("--seed", type=int, default=2003)

    run = commands.add_parser(
        "run", help="run one delivery campaign and print the tally"
    )
    add_run_options(run)
    run.add_argument("--threshold", type=float, default=0.15)

    tune = commands.add_parser(
        "tune", help="learn per-group thresholds and compare policies"
    )
    add_run_options(tune)

    experiments = commands.add_parser(
        "experiments", help="reproduce every paper table and figure"
    )
    experiments.add_argument("--small", action="store_true")
    experiments.add_argument(
        "--quiet",
        action="store_true",
        help="suppress campaign output (warnings still shown)",
    )

    chaos = commands.add_parser(
        "chaos",
        help="replay a workload under injected faults and verify "
        "the delivery guarantee",
    )
    chaos.add_argument("--seed", type=int, default=2003)
    chaos.add_argument("--events", type=int, default=500)
    chaos.add_argument("--subscriptions", type=int, default=300)
    chaos.add_argument("--groups", type=int, default=11)
    chaos.add_argument("--threshold", type=float, default=0.15)
    chaos.add_argument(
        "--loss",
        type=float,
        default=0.1,
        help="per-transmission drop probability on every link",
    )
    chaos.add_argument(
        "--duplicate",
        type=float,
        default=0.0,
        help="per-transmission duplication probability on every link",
    )
    chaos.add_argument(
        "--crashes",
        type=int,
        default=2,
        help="number of broker crash/restart windows",
    )
    chaos.add_argument(
        "--crash-length",
        type=float,
        default=150.0,
        help="duration of each crash window (simulation time units)",
    )
    chaos.add_argument(
        "--max-attempts",
        type=int,
        default=6,
        help="reliable-protocol retry budget per delivery",
    )
    chaos.add_argument(
        "--unreliable",
        action="store_true",
        help="disable acks/retries/dedup (demonstrates what gets lost)",
    )
    overload = chaos.add_argument_group(
        "overload protection (with --overload)"
    )
    overload.add_argument(
        "--overload",
        action="store_true",
        help="run the saturation harness: token-bucket admission, "
        "bounded ingress queue, degraded group-flood mode, and "
        "per-subscriber circuit breakers",
    )
    overload.add_argument(
        "--scenario",
        choices=("burst", "slow-subscriber", "dead-subscriber", "resubscribe"),
        default="burst",
        help="canned overload scenario (default: burst storm)",
    )
    overload.add_argument(
        "--queue-capacity",
        type=int,
        default=64,
        help="bounded ingress queue capacity",
    )
    overload.add_argument(
        "--shed-policy",
        choices=sorted(SHED_POLICIES),
        default="drop-newest",
        help="what the full queue sheds",
    )
    overload.add_argument(
        "--ttl",
        type=float,
        default=None,
        help="per-event lifetime (simulation time units; default: none)",
    )
    overload.add_argument(
        "--admission-rate",
        type=float,
        default=None,
        help="token-bucket refill rate, events/time unit "
        "(default: admission control off)",
    )
    overload.add_argument(
        "--admission-burst",
        type=float,
        default=32.0,
        help="token-bucket burst size",
    )
    overload.add_argument(
        "--service-time",
        type=float,
        default=0.5,
        help="simulated broker cost of serving one queued event",
    )
    durability = chaos.add_argument_group(
        "durable broker state (with --crash-recovery)"
    )
    durability.add_argument(
        "--crash-recovery",
        action="store_true",
        help="journal the home broker to a write-ahead log and "
        "recover from every crash window (snapshot load + WAL "
        "replay + in-flight redelivery)",
    )
    durability.add_argument(
        "--corrupt-wal",
        choices=("torn-tail", "bit-flip"),
        default=None,
        help="damage the WAL at every crash, so each restart must "
        "also truncate/repair the log",
    )
    durability.add_argument(
        "--checkpoint-every",
        type=int,
        default=64,
        help="take a snapshot + truncate the WAL prefix every N "
        "journaled deliveries",
    )
    durability.add_argument(
        "--wal-out",
        default=None,
        help="back the journal with this WAL file (inspect it "
        "afterwards with `repro wal`)",
    )
    replication = chaos.add_argument_group(
        "broker replication (with --failover)"
    )
    replication.add_argument(
        "--failover",
        action="store_true",
        help="replicate the home broker: ship its WAL to ranked "
        "standbys, kill or partition the primary mid-stream, and "
        "verify the epoch-fenced takeover against the outcome ledger",
    )
    replication.add_argument(
        "--failover-scenario",
        choices=("kill", "partition", "catchup"),
        default="kill",
        help="kill: permanent primary kill; partition: isolate a "
        "live primary (fenced zombie); catchup: lagging standby must "
        "take over from an anti-entropy snapshot (default: kill)",
    )
    replication.add_argument(
        "--standbys",
        type=int,
        default=2,
        help="number of ranked standby replicas",
    )
    sharding = chaos.add_argument_group(
        "partition-aligned sharding (with --sharded)"
    )
    sharding.add_argument(
        "--sharded",
        action="store_true",
        help="scale the broker out over K shards: routed publish, "
        "scattered subscriptions, live migrations, shard kills and "
        "mid-migration crashes, verified against the outcome ledger "
        "and per-event match parity with one unsharded broker",
    )
    sharding.add_argument(
        "--shards",
        type=int,
        default=4,
        help="number of shard brokers (homes: first K transit nodes)",
    )
    sharding.add_argument(
        "--migrations",
        type=int,
        default=2,
        help="live subset migrations in the clean scenario",
    )
    sharding.add_argument(
        "--sharded-scenario",
        choices=("clean", "shard-kill", "migration-crash"),
        default="clean",
        help="clean: loss + live migrations; shard-kill: the busiest "
        "shard's home is permanently killed; migration-crash: the "
        "migration source dies mid-copy and the journaled cutover "
        "must roll forward (default: clean)",
    )
    cluster = chaos.add_argument_group(
        "replicated shard cluster (with --cluster)"
    )
    cluster.add_argument(
        "--cluster",
        action="store_true",
        help="run the full stack: every shard replicated to ranked "
        "standbys under a cluster-wide membership detector, with "
        "shard kills, partitions, mid-copy migration crashes and "
        "standby WAL corruption answered by fenced takeovers, "
        "verified against the outcome ledger and unsharded digest "
        "parity",
    )
    cluster.add_argument(
        "--cluster-scenario",
        choices=("kill", "partition", "double-kill", "migrate-under-kill"),
        default="kill",
        help="kill: the busiest shard's home is permanently killed; "
        "partition: it is isolated (fenced zombie primary); "
        "double-kill: the two busiest homes die in sequence; "
        "migrate-under-kill: the migration source dies mid-copy "
        "(default: kill)",
    )
    sessions_group = chaos.add_argument_group(
        "durable subscriber sessions (with --sessions)"
    )
    sessions_group.add_argument(
        "--sessions",
        action="store_true",
        help="run the subscriber-side harness: durable sessions with "
        "journaled cursors, scripted crash/flap/slow-consumer/poison "
        "abuse, catch-up replay and dead-letter quarantine, verified "
        "against the per-(event, session) ledger",
    )
    sessions_group.add_argument(
        "--session-scenario",
        choices=("crash", "flap", "slow-consumer", "poison"),
        default="crash",
        help="crash: the victim subscriber's node crashes and the "
        "session resumes after the window; flap: three rapid "
        "detach/resume cycles; slow-consumer: the victim's outbound "
        "queue sheds under ttl-priority and replay must recover the "
        "sheds; poison: the victim nacks selected events forever, "
        "which must land in the dead-letter queue (default: crash)",
    )
    sessions_group.add_argument(
        "--lease",
        type=float,
        default=None,
        help="session lease: how long a detached session holds "
        "retention before being demoted to ephemeral "
        "(default: 0.35 x horizon)",
    )
    sessions_group.add_argument(
        "--replay-rate",
        type=float,
        default=2.0,
        help="catch-up replay token-bucket refill rate, "
        "events/time unit",
    )

    shard = commands.add_parser(
        "shard",
        help="plan and inspect the subset->shard assignment",
    )
    shard_commands = shard.add_subparsers(dest="shard_command", required=True)
    for verb, description in (
        ("plan", "greedy bin-pack of the partition onto K shards"),
        (
            "stats",
            "plan + scatter: per-shard subscription counts and load",
        ),
    ):
        sub = shard_commands.add_parser(verb, help=description)
        sub.add_argument("--seed", type=int, default=2003)
        sub.add_argument("--subscriptions", type=int, default=300)
        sub.add_argument("--groups", type=int, default=11)
        sub.add_argument("--shards", type=int, default=4)
        sub.add_argument(
            "--virtual-nodes",
            type=int,
            default=64,
            help="hash-ring points per shard for the catchall cells",
        )

    sessions = commands.add_parser(
        "sessions",
        help="inspect durable subscriber sessions: the per-session "
        "cursor table or the dead-letter queue",
    )
    session_commands = sessions.add_subparsers(
        dest="sessions_command", required=True
    )
    session_stats = session_commands.add_parser(
        "stats",
        help="run one session chaos scenario and print the "
        "per-session cursor table",
    )
    session_stats.add_argument("--seed", type=int, default=2003)
    session_stats.add_argument("--events", type=int, default=160)
    session_stats.add_argument(
        "--scenario",
        choices=("crash", "flap", "slow-consumer", "poison"),
        default="crash",
        help="which subscriber-abuse script to run (default: crash)",
    )
    session_dlq = session_commands.add_parser(
        "dlq",
        help="run the poison scenario and inspect (optionally "
        "re-drive) the dead-letter queue",
    )
    session_dlq.add_argument("--seed", type=int, default=2003)
    session_dlq.add_argument("--events", type=int, default=160)
    session_dlq.add_argument(
        "--redrive",
        action="store_true",
        help="re-attempt every quarantined delivery (the operator "
        "fixed the consumer) and show the before/after queue",
    )

    def add_telemetry_workload_options(sub: argparse.ArgumentParser) -> None:
        # Same knobs as `repro chaos` so `stats`/`trace` replay the
        # exact workload a chaos run saw (identical seeds → identical
        # simulated timeline).
        sub.add_argument("--seed", type=int, default=2003)
        sub.add_argument("--events", type=int, default=200)
        sub.add_argument("--subscriptions", type=int, default=300)
        sub.add_argument("--groups", type=int, default=11)
        sub.add_argument("--threshold", type=float, default=0.15)
        sub.add_argument("--loss", type=float, default=0.05)
        sub.add_argument("--crashes", type=int, default=1)
        sub.add_argument("--crash-length", type=float, default=50.0)
        sub.add_argument(
            "--overload",
            action="store_true",
            help="replay a burst storm through the overload-protected "
            "pipeline instead of the plain chaos run",
        )
        sub.add_argument(
            "--crash-recovery",
            action="store_true",
            help="journal the home broker to a write-ahead log and "
            "recover it from every crash window (durability "
            "counters appear in the report)",
        )
        sub.add_argument(
            "--failover",
            action="store_true",
            help="replicate the home broker and kill the primary "
            "mid-stream (replication counters appear in the report)",
        )
        sub.add_argument(
            "--cluster",
            action="store_true",
            help="run the replicated shard cluster (membership, "
            "per-shard failover and takeover counters appear in "
            "the report)",
        )
        sub.add_argument(
            "--cluster-scenario",
            choices=(
                "kill",
                "partition",
                "double-kill",
                "migrate-under-kill",
            ),
            default="kill",
            help="fault scenario for --cluster (default: kill)",
        )

    stats = commands.add_parser(
        "stats",
        help="run an instrumented workload and print pipeline metrics",
    )
    add_telemetry_workload_options(stats)
    stats.add_argument(
        "--top-links",
        type=int,
        default=5,
        help="how many busiest links to list",
    )
    stats.add_argument(
        "--metrics-out",
        default=None,
        help="also write all metrics in Prometheus text format",
    )
    stats.add_argument(
        "--trace-out",
        default=None,
        help="also write every span as JSONL",
    )

    trace = commands.add_parser(
        "trace",
        help="dump the span tree of one event as JSONL",
    )
    add_telemetry_workload_options(trace)
    trace.add_argument(
        "--event",
        type=int,
        required=True,
        help="event sequence number (= trace id) to dump",
    )
    trace.add_argument(
        "--pretty",
        action="store_true",
        help="print an indented tree instead of JSONL",
    )
    trace.add_argument(
        "--out",
        default=None,
        help="write the JSONL here instead of stdout",
    )

    wal = commands.add_parser(
        "wal",
        help="inspect and verify a write-ahead log file",
    )
    wal.add_argument("--path", required=True, help="WAL file to scan")
    wal.add_argument(
        "--tail",
        type=int,
        default=10,
        help="how many trailing records to print (0: none)",
    )

    lint = commands.add_parser(
        "lint",
        help="run the reprolint invariant rules (DET/ASSERT/ANN/ERR/IO/EXC)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="CODE",
        default=None,
        help="restrict to one rule code (repeatable), e.g. --rule DET02",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is what CI archives)",
    )
    lint.add_argument(
        "--baseline",
        choices=("apply", "write", "skip"),
        default="apply",
        help="apply the checked-in baseline (default), rewrite it from "
        "the current findings, or ignore it entirely",
    )
    lint.add_argument(
        "--baseline-file",
        default=None,
        metavar="PATH",
        help="baseline location (default: lint-baseline.json in the cwd)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue (code, invariant, rationale, fix)",
    )

    dot = commands.add_parser(
        "dot", help="export a testbed topology as Graphviz DOT"
    )
    dot.add_argument("--testbed", required=True)
    dot.add_argument("--out", required=True)
    dot.add_argument(
        "--backbone-only",
        action="store_true",
        help="draw transit nodes + collapsed stubs (readable at scale)",
    )
    return parser


def _prepare(args: argparse.Namespace):
    """Load a testbed and preprocess a broker per the CLI options."""
    topology, table = load_testbed(args.testbed)
    density = publication_distribution(args.modes)
    broker = PubSubBroker.preprocess(
        topology,
        table,
        ALGORITHMS[args.algorithm](),
        num_groups=args.groups,
        density=density,
    )
    points, publishers = PublicationGenerator(
        density, topology.all_stub_nodes(), seed=args.seed + args.modes
    ).generate(args.events)
    return broker, points, publishers


def _cmd_generate(args: argparse.Namespace) -> int:
    topology = TransitStubGenerator(seed=args.seed).generate()
    placed = StockSubscriptionGenerator(
        topology, seed=args.seed + 1
    ).generate(args.subscriptions)
    table = SubscriptionTable.from_placed(placed)
    save_testbed(args.out, topology, table)
    print(
        f"wrote {args.out}: {topology.num_nodes} nodes, "
        f"{topology.num_edges} edges, {len(table)} subscriptions"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    broker, points, publishers = _prepare(args)
    tally, _ = broker.with_policy(ThresholdPolicy(args.threshold)).run(
        points, publishers
    )
    print(
        format_table(
            ("metric", "value"),
            [
                ("events", tally.messages),
                ("multicasts", tally.multicasts_sent),
                ("unicasts", tally.unicasts_sent),
                (
                    "not sent",
                    tally.messages
                    - tally.multicasts_sent
                    - tally.unicasts_sent,
                ),
                ("deliveries", tally.deliveries),
                ("avg cost/message", round(tally.average_message_cost, 2)),
                (
                    "improvement over unicast",
                    f"{tally.improvement_percent:.2f}%",
                ),
            ],
        )
    )
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    broker, points, publishers = _prepare(args)
    report = ThresholdTuner(broker).tune(points, publishers)
    print("per-group thresholds learned from the workload:\n")
    print(
        format_table(
            ("group", "size", "events", "mc win rate", "t"),
            [
                (
                    row.group,
                    row.group_size,
                    row.events,
                    f"{row.multicast_win_rate:.2f}",
                    f"{row.best_threshold:.2f}",
                )
                for row in report.per_group
            ],
        )
    )
    rows = []
    for label, policy in [
        ("global t=0.15", ThresholdPolicy(0.15)),
        ("tuned per-group", report.policy),
    ]:
        tally, _ = broker.with_policy(policy).run(points, publishers)
        rows.append((label, f"{tally.improvement_percent:.2f}%"))
    oracle = oracle_tally(broker, points, publishers)
    rows.append(("oracle bound", f"{oracle.improvement_percent:.2f}%"))
    print()
    print(format_table(("policy", "improvement"), rows))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments.runner import main as runner_main

    argv = []
    if args.small:
        argv.append("--small")
    if args.quiet:
        argv.append("--quiet")
    return runner_main(argv)


class _PlanError(ValueError):
    """A chaos scenario the given flags cannot build (exit status 2)."""


@dataclass
class _ChaosResult:
    """One chaos mode's run: report, its framing lines, its verdict."""

    report: object
    header: List[str]
    footer: List[str]
    healthy: bool
    #: perf_counter() once the workload was built (stats' events/sec).
    started: float


def _chaos_workload(args: argparse.Namespace, dynamic: bool = False):
    """The seeded testbed, threshold policy and event stream of a run."""
    from .faults.verifier import build_chaos_testbed

    broker, density = build_chaos_testbed(
        seed=args.seed,
        subscriptions=args.subscriptions,
        num_groups=args.groups,
        dynamic=dynamic,
    )
    # Set in place: recovery and takeover rebuild a DynamicPubSubBroker's
    # engine through the broker object itself, so it must survive.
    broker.policy = ThresholdPolicy(args.threshold)
    points, publishers = PublicationGenerator(
        density, broker.topology.all_stub_nodes(), seed=args.seed + 9
    ).generate(args.events)
    return broker, points, publishers, perf_counter()


def _set_retry_budget(simulation, args: argparse.Namespace) -> None:
    from .faults import RetryConfig

    simulation.transport.config = RetryConfig.for_network(
        simulation.network, max_attempts=args.max_attempts
    )


def _missing_lines(report) -> List[str]:
    if not report.missing:
        return []
    lines = ["\nfirst missing deliveries (event, subscriber, reason):"]
    lines.extend(
        f"  event {sequence} -> node {subscriber}: {reason}"
        for sequence, subscriber, reason in report.missing[:10]
    )
    if len(report.missing) > 10:
        lines.append(f"  ... and {len(report.missing) - 10} more")
    return lines


def _digest_lines(title: str, label: str, digests: List[str]) -> List[str]:
    if not digests:
        return []
    return [f"\n{title} (determinism witnesses):"] + [
        f"  {label} {index}: {digest}" for index, digest in enumerate(digests)
    ]


def _plain_mode(args: argparse.Namespace, telemetry) -> _ChaosResult:
    from .faults import ChaosSimulation
    from .faults.verifier import build_chaos_plan

    broker, points, publishers, started = _chaos_workload(args)
    plan = build_chaos_plan(
        broker.topology,
        seed=args.seed,
        loss=args.loss,
        duplicate=args.duplicate,
        crashes=args.crashes,
        crash_length=args.crash_length,
        horizon=float(args.events),
    )
    simulation = ChaosSimulation(
        broker, plan, reliable=not args.unreliable, telemetry=telemetry
    )
    if not args.unreliable:
        _set_retry_budget(simulation, args)
    report = simulation.run(points, publishers)
    header = (
        f"chaos run: {broker.topology.num_nodes} nodes, "
        f"{len(points)} events, loss={args.loss}, "
        f"crashes={args.crashes}x{args.crash_length}"
    )
    # Fire-and-forget only shows what gets lost; it never fails.
    healthy = args.unreliable or report.exactly_once
    return _ChaosResult(
        report, [header], _missing_lines(report), healthy, started
    )


def _overload_mode(args: argparse.Namespace, telemetry) -> _ChaosResult:
    from .faults import OverloadChaosSimulation
    from .faults.verifier import (
        build_burst_storm_times,
        build_chaos_plan,
        build_resubscribe_storm,
        build_slow_subscriber_plan,
    )
    from .overload import OverloadConfig

    scenario = args.scenario
    broker, points, publishers, started = _chaos_workload(
        args, dynamic=scenario == "resubscribe"
    )
    arrival_times = build_burst_storm_times(args.events)
    horizon = max(arrival_times[-1] * 2.0, 500.0)
    if telemetry is not None:
        # The instrumented replay keeps the plain chaos plan's crash
        # windows, spread over one time unit per event.
        horizon = float(args.events)
    churn = []
    victim = None
    if scenario in ("slow-subscriber", "dead-subscriber"):
        plan, victim = build_slow_subscriber_plan(
            broker.topology,
            seed=args.seed,
            # A dead subscriber stays dead: the crash window must
            # outlive every retry the transport could schedule.
            horizon=1e9 if scenario == "dead-subscriber" else horizon,
            dead=scenario == "dead-subscriber",
        )
    else:
        plan = build_chaos_plan(
            broker.topology,
            seed=args.seed,
            loss=args.loss,
            duplicate=args.duplicate,
            crashes=args.crashes,
            crash_length=args.crash_length,
            horizon=horizon,
        )
        if scenario == "resubscribe":
            churn = build_resubscribe_storm(
                broker,
                at=arrival_times[len(arrival_times) // 2],
                count=min(50, args.subscriptions),
                seed=args.seed,
            )
    config = OverloadConfig(
        queue_capacity=args.queue_capacity,
        shed_policy=args.shed_policy,
        service_time=args.service_time,
        ttl=args.ttl,
        admission_rate=args.admission_rate,
        admission_burst=args.admission_burst,
    )
    simulation = OverloadChaosSimulation(
        broker,
        plan,
        config=config,
        reliable=not args.unreliable,
        telemetry=telemetry,
    )
    report = simulation.run(points, publishers, arrival_times, churn=churn)
    header = [
        f"overload run ({scenario}): {broker.topology.num_nodes} nodes, "
        f"{len(points)} events, queue={config.queue_capacity} "
        f"({config.shed_policy}), ttl={config.ttl}, "
        f"admission={config.admission_rate}"
    ]
    if victim is not None:
        header.append(f"victim subscriber: node {victim}")
    healthy = report.accounted and report.within_capacity
    return _ChaosResult(report, header, [], healthy, started)


def _crash_recovery_mode(args: argparse.Namespace, telemetry) -> _ChaosResult:
    import os

    from .durability import FileWAL
    from .faults import CrashRecoverySimulation, build_crash_recovery_plan

    broker, points, publishers, started = _chaos_workload(args, dynamic=True)
    try:
        plan, home = build_crash_recovery_plan(
            broker.topology,
            seed=args.seed,
            loss=args.loss,
            duplicate=args.duplicate,
            crashes=args.crashes,
            crash_length=args.crash_length,
            horizon=float(args.events),
            corrupt=args.corrupt_wal,
        )
    except ValueError as error:
        raise _PlanError(str(error)) from error
    wal = None
    if args.wal_out:
        # A fresh run wants a fresh log, not appends onto a stale one.
        if os.path.exists(args.wal_out):
            os.unlink(args.wal_out)
        wal = FileWAL(args.wal_out)
    simulation = CrashRecoverySimulation(
        broker,
        plan,
        home=home,
        wal=wal,
        checkpoint_every=args.checkpoint_every,
        telemetry=telemetry,
    )
    if wal is not None:
        wal.clock = lambda: simulation.simulator.now
    _set_retry_budget(simulation, args)
    report = simulation.run(points, publishers)
    corrupt = f", corrupting ({args.corrupt_wal})" if args.corrupt_wal else ""
    header = (
        f"crash-recovery run: {broker.topology.num_nodes} nodes, "
        f"{len(points)} events, home broker {home}, "
        f"{len(simulation.windows)} crash windows{corrupt}"
    )
    durability = report.durability
    footer = []
    if durability.corruptions:
        footer.append("\nwal corruptions applied:")
        footer.extend(f"  {entry}" for entry in durability.corruptions)
    footer += _digest_lines(
        "recovery state digests", "recovery", durability.recovery_digests
    )
    footer += _missing_lines(report)
    if args.wal_out:
        footer.append(
            f"\nwrote {args.wal_out} "
            f"(inspect with `repro wal --path {args.wal_out}`)"
        )
    healthy = report.exactly_once
    if args.corrupt_wal:
        # A damaged log may legitimately lose intents journaled in the
        # torn tail; the hard guarantees are that every crash window
        # produced a recovery and that nothing was delivered twice.
        healthy = (
            durability.recoveries == len(simulation.windows)
            and report.duplicate_deliveries == 0
        )
    return _ChaosResult(report, [header], footer, healthy, started)


def _failover_mode(args: argparse.Namespace, telemetry) -> _ChaosResult:
    from .faults import FailoverChaosSimulation, build_failover_plan
    from .replication import ShippingConfig

    broker, points, publishers, started = _chaos_workload(args, dynamic=True)
    inter_arrival = 2.0
    scenario = args.failover_scenario
    try:
        plan, primary, standbys = build_failover_plan(
            broker.topology,
            seed=args.seed,
            loss=args.loss,
            duplicate=args.duplicate,
            scenario=scenario,
            horizon=max(args.events * inter_arrival, 500.0),
            standby_count=args.standbys,
        )
    except ValueError as error:
        raise _PlanError(str(error)) from error
    # The catch-up scenario must overflow the shipping buffer while
    # the laggard is partitioned, so takeover exercises anti-entropy.
    shipping = (
        ShippingConfig(batch_ops=8, retain_ops=32, catchup_lag=24)
        if scenario == "catchup"
        else None
    )
    simulation = FailoverChaosSimulation(
        broker,
        plan,
        standbys,
        primary=primary,
        shipping=shipping,
        checkpoint_every=args.checkpoint_every,
        telemetry=telemetry,
    )
    _set_retry_budget(simulation, args)
    report = simulation.run(points, publishers, inter_arrival=inter_arrival)
    header = (
        f"failover run ({scenario}): {broker.topology.num_nodes} nodes, "
        f"{len(points)} events, primary {primary}, "
        f"standbys {standbys}"
    )
    footer = _digest_lines(
        "takeover state digests",
        "takeover",
        report.replication.takeover_digests,
    )
    # The replication guarantees: every event accounted exactly once,
    # nobody delivered twice across the takeover, at least one
    # takeover actually happened, and the fencing probe fired.  A
    # partitioned zombie must additionally have provoked stale-epoch
    # rejections (the split-brain evidence).
    healthy = (
        report.failover.accounted
        and report.duplicate_deliveries == 0
        and report.replication.failovers >= 1
        and report.replication.fenced_writes >= 1
    )
    if scenario == "partition":
        healthy = healthy and report.replication.stale_rejections >= 1
    return _ChaosResult(report, [header], footer, healthy, started)


def _digest_parity(broker, points, simulation, report):
    """Footer + verdict of the unsharded-reference digest comparison."""
    from .faults import unsharded_match_digest

    reference = unsharded_match_digest(
        broker, points, simulation.serviced_sequences
    )
    agreed = reference == report.sharded.match_digest
    footer = [
        f"\nunsharded reference digest: {reference}",
        f"digest agreement: {'yes' if agreed else 'NO'}",
    ]
    # Every event in exactly one outcome bucket, nobody delivered
    # twice, every miss explained by a physically-severed target, and
    # the sharded MatchResults digest-identical to one unsharded
    # broker's.
    healthy = (
        report.sharded.accounted
        and report.duplicate_deliveries == 0
        and report.sharded.unexplained_misses == 0
        and report.sharded.match_parity
        and agreed
    )
    return footer, healthy


def _sharded_mode(args: argparse.Namespace, telemetry) -> _ChaosResult:
    from .faults import ShardedChaosSimulation, build_sharded_plan
    from .sharding import ShardMap

    broker, points, publishers, started = _chaos_workload(args)
    scenario = args.sharded_scenario
    try:
        shard_map = ShardMap.plan(broker.partition, args.shards)
        plan, homes, planned = build_sharded_plan(
            broker.topology,
            shard_map,
            seed=args.seed,
            loss=args.loss,
            duplicate=args.duplicate,
            scenario=scenario,
            horizon=max(float(args.events), 300.0),
            migrations=args.migrations,
        )
    except ValueError as error:
        raise _PlanError(str(error)) from error
    simulation = ShardedChaosSimulation(
        broker,
        plan,
        num_shards=args.shards,
        shard_homes=homes,
        migrations=planned,
        telemetry=telemetry,
    )
    _set_retry_budget(simulation, args)
    report = simulation.run(points, publishers)
    header = (
        f"sharded run ({scenario}): {broker.topology.num_nodes} nodes, "
        f"{len(points)} events, {args.shards} shards at homes {homes}"
    )
    footer, healthy = _digest_parity(broker, points, simulation, report)
    sharded = report.sharded
    if scenario == "shard-kill":
        healthy = healthy and sharded.shard_kills >= 1
    if scenario == "migration-crash":
        healthy = (
            healthy
            and sharded.shard_kills >= 1
            and sharded.migrations_completed + sharded.migrations_aborted
            >= 1
        )
    if scenario == "clean":
        healthy = healthy and report.exactly_once
    return _ChaosResult(report, [header], footer, healthy, started)


def _cluster_mode(args: argparse.Namespace, telemetry) -> _ChaosResult:
    from .faults import FullStackChaosSimulation, build_cluster_plan
    from .sharding import ShardMap

    broker, points, publishers, started = _chaos_workload(args)
    scenario = args.cluster_scenario
    try:
        shard_map = ShardMap.plan(broker.partition, args.shards)
        plan, homes, standby_map, planned, corruptions = build_cluster_plan(
            broker.topology,
            shard_map,
            seed=args.seed,
            loss=args.loss,
            duplicate=args.duplicate,
            scenario=scenario,
            horizon=max(float(args.events), 300.0),
            standby_count=args.standbys,
        )
    except ValueError as error:
        raise _PlanError(str(error)) from error
    simulation = FullStackChaosSimulation(
        broker,
        plan,
        standby_map,
        num_shards=args.shards,
        shard_homes=homes,
        migrations=planned,
        corruptions=corruptions,
        telemetry=telemetry,
    )
    _set_retry_budget(simulation, args)
    report = simulation.run(points, publishers)
    header = (
        f"cluster run ({scenario}): {broker.topology.num_nodes} nodes, "
        f"{len(points)} events, {args.shards} replicated shards at "
        f"homes {homes}, standbys {standby_map}"
    )
    footer, healthy = _digest_parity(broker, points, simulation, report)
    # The scenario's takeovers must actually have happened instead of
    # falling back to ring exclusion.
    cluster = report.cluster
    healthy = healthy and cluster.takeovers >= 1
    if scenario == "kill":
        healthy = healthy and cluster.probe_rejections >= 1
    if scenario == "partition":
        healthy = healthy and cluster.stale_rejections >= 1
    if scenario == "double-kill":
        healthy = healthy and cluster.takeovers >= 2
    if scenario == "migrate-under-kill":
        healthy = (
            healthy
            and report.sharded.migrations_completed
            + report.sharded.migrations_aborted
            >= 1
        )
    return _ChaosResult(report, [header], footer, healthy, started)


def _sessions_mode(args: argparse.Namespace, telemetry) -> _ChaosResult:
    from .faults.sessions import build_session_chaos

    scenario = args.session_scenario
    overrides = {"replay_rate": args.replay_rate}
    if args.lease is not None:
        overrides["lease"] = args.lease
    try:
        simulation, points, publishers, arrival_times = build_session_chaos(
            scenario,
            seed=args.seed,
            events=args.events,
            subscriptions=args.subscriptions,
            loss=args.loss,
            telemetry=telemetry,
            **overrides,
        )
    except ValueError as error:
        raise _PlanError(str(error)) from error
    started = perf_counter()
    report = simulation.run(points, publishers, arrival_times)
    header = (
        f"session run ({scenario}): "
        f"{simulation.broker.topology.num_nodes} nodes, "
        f"{len(points)} events, {len(report.sessions)} durable "
        f"sessions (victim {simulation.victim.session_id}, "
        f"ghost {simulation.ghost.session_id})"
    )
    # The session guarantees: every matched obligation in exactly one
    # terminal bucket, no application-level duplicates, the ghost
    # demoted by lease — plus the scenario's machinery actually fired.
    healthy = report.at_least_once and report.lease_expirations >= 1
    footer = []
    if scenario in ("crash", "flap"):
        victim = simulation.victim.session_id
        settled = simulation.delivered_seqs[victim] | {
            entry.sequence
            for entry in simulation.dlq.entries()
            if entry.session_id == victim
        }
        parity = settled == simulation.matched_seqs[victim]
        footer.append(
            f"\nvictim catch-up parity: "
            f"{'yes' if parity else 'NO'} "
            f"({len(simulation.delivered_seqs[victim])} delivered of "
            f"{len(simulation.matched_seqs[victim])} matched)"
        )
        healthy = healthy and parity and report.replay_sends >= 1
    if scenario == "slow-consumer":
        healthy = healthy and report.shed_retained >= 1
    if scenario == "poison":
        healthy = healthy and report.dlq_by_reason.get("nack", 0) >= 1
    return _ChaosResult(report, [header], footer, healthy, started)


#: Mode flag (argparse dest) -> runner; no flag runs the plain chaos
#: replay.  ``repro chaos``, ``repro stats`` and ``repro trace`` all
#: select and build their run through this table.
_CHAOS_MODES = {
    "overload": _overload_mode,
    "crash_recovery": _crash_recovery_mode,
    "failover": _failover_mode,
    "sharded": _sharded_mode,
    "cluster": _cluster_mode,
    "sessions": _sessions_mode,
}


def _chaos_mode(args: argparse.Namespace):
    """The runner the mode flags select; two or more flags: exit 2."""
    chosen = [dest for dest in _CHAOS_MODES if getattr(args, dest)]
    if len(chosen) > 1:
        flags = " and ".join("--" + d.replace("_", "-") for d in chosen)
        print(f"error: {flags} are mutually exclusive", file=sys.stderr)
        raise SystemExit(2)
    return _CHAOS_MODES[chosen[0]] if chosen else _plain_mode


def _cmd_sessions(args: argparse.Namespace) -> int:
    from .faults.sessions import build_session_chaos

    scenario = (
        args.scenario if args.sessions_command == "stats" else "poison"
    )
    simulation, points, publishers, arrival_times = build_session_chaos(
        scenario, seed=args.seed, events=args.events
    )
    report = simulation.run(points, publishers, arrival_times)

    if args.sessions_command == "stats":
        print(
            f"session cursor table ({scenario}, {len(points)} events):"
        )
        print(
            format_table(
                (
                    "session",
                    "state",
                    "durability",
                    "cursor",
                    "matched",
                    "delivered",
                    "dead-lettered",
                    "expired",
                ),
                report.sessions,
            )
        )
        print()
        print(format_table(("metric", "value"), report.summary_rows()))
        return 0 if report.at_least_once else 1

    entries = simulation.dlq.entries()
    print(
        f"dead-letter queue after the poison scenario "
        f"({len(entries)} entries):"
    )
    print(
        format_table(
            ("event", "session", "reason code", "quarantined at", "reason"),
            [
                (
                    entry.sequence,
                    entry.session_id,
                    entry.reason_code,
                    f"{entry.quarantined_at:.1f}",
                    entry.reason,
                )
                for entry in entries
            ],
        )
    )
    if args.redrive:
        # The operator fixed the consumer: every re-driven delivery
        # now succeeds (the poison set is forgiven).
        simulation._poison.clear()
        redriven = simulation.dlq.redrive(lambda entry: True)
        print(
            f"\nredrive: {len(redriven)} delivered, "
            f"{len(simulation.dlq)} still quarantined"
        )
    return 0 if report.at_least_once and entries else 1


def _cmd_shard(args: argparse.Namespace) -> int:
    from .faults.verifier import build_chaos_testbed
    from .sharding import ShardMap, ShardRouter

    broker, _density = build_chaos_testbed(
        seed=args.seed,
        subscriptions=args.subscriptions,
        num_groups=args.groups,
    )
    try:
        shard_map = ShardMap.plan(
            broker.partition, args.shards, virtual_nodes=args.virtual_nodes
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.shard_command == "plan":
        rows = [
            (
                f"shard {shard}",
                f"subsets {shard_map.subsets_of(shard)} "
                f"load {shard_map.shard_loads()[shard]:.1f}",
            )
            for shard in range(shard_map.num_shards)
        ]
        rows.append(("imbalance (max/mean)", f"{shard_map.imbalance():.3f}"))
        print(
            f"shard plan: {len(broker.partition.groups)} subsets over "
            f"{args.shards} shards (catchall cells via hash ring, "
            f"{args.virtual_nodes} virtual nodes each)"
        )
        print(format_table(("shard", "assignment"), rows))
        return 0
    router = ShardRouter(broker, shard_map)
    rows = [
        (
            f"shard {stat['shard']}",
            f"subsets {stat['subsets']} "
            f"subscriptions {stat['subscriptions']} "
            f"load {stat['planned_load']:.1f}",
        )
        for stat in router.shard_stats()
    ]
    rows.append(("imbalance (max/mean)", f"{shard_map.imbalance():.3f}"))
    rows.append(
        (
            "scatter factor",
            f"{router.scattered / max(len(broker.table), 1):.2f} "
            f"shards/subscription",
        )
    )
    print(
        f"shard stats: {len(broker.table)} subscriptions scattered "
        f"into {router.scattered} shard-level registrations"
    )
    print(format_table(("shard", "assignment"), rows))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    try:
        result = _chaos_mode(args)(args, None)
    except _PlanError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for line in result.header:
        print(line)
    print(format_table(("metric", "value"), result.report.summary_rows()))
    for line in result.footer:
        print(line)
    return 0 if result.healthy else 1


def _run_instrumented(args: argparse.Namespace):
    """One fully-instrumented chaos run (stats/trace share it).

    Both verbs build the workload from the same seeds, so a given
    ``--seed/--events/...`` combination always produces the identical
    simulated timeline — ``repro trace --event N`` dumps exactly the
    event ``repro stats`` counted.  The chaos flags the two verbs do
    not define keep their ``repro chaos`` defaults.
    """
    from .telemetry import Telemetry

    chaos_args = _build_parser().parse_args(["chaos"])
    vars(chaos_args).update(vars(args))
    mode = _chaos_mode(chaos_args)
    telemetry = Telemetry(seed=args.seed)
    result = mode(chaos_args, telemetry)
    return result, telemetry, perf_counter() - result.started


def _cmd_stats(args: argparse.Namespace) -> int:
    from .telemetry.exporters import write_prometheus, write_spans_jsonl

    result, telemetry, wall = _run_instrumented(args)
    metrics = telemetry.metrics

    def counter(name: str, **labels) -> int:
        return int(metrics.value(name, **labels))

    latency = metrics.histogram("broker.match_latency_us")
    events = counter("broker.events")
    rows = [
        ("events", events),
        ("events/sec", f"{events / wall:.1f}" if wall > 0 else "inf"),
        ("match latency p50 (us)", f"{latency.p50:.1f}"),
        ("match latency p95 (us)", f"{latency.p95:.1f}"),
        ("match latency p99 (us)", f"{latency.p99:.1f}"),
        ("multicasts", counter("decision.method", method="multicast")),
        ("unicasts", counter("decision.method", method="unicast")),
        ("not sent", counter("decision.method", method="not_sent")),
        ("deliveries", counter("transport.delivered")),
        ("retries", counter("transport.retries")),
        ("reroutes", counter("transport.reroutes")),
        ("gave up", counter("transport.gave_up")),
        (
            "duplicates suppressed",
            counter("transport.duplicates_suppressed"),
        ),
        ("acks sent", counter("transport.acks_sent")),
        (
            "link retransmissions (ARQ)",
            counter("net.link.retransmissions"),
        ),
    ]
    print(
        f"instrumented run: {args.events} events, loss={args.loss}, "
        f"crashes={args.crashes}x{args.crash_length}, seed={args.seed}"
    )
    print(format_table(("metric", "value"), rows))

    # Broker health summary (live when the overload stack ran).
    overload_active = metrics.get("overload.queue_depth") is not None
    if overload_active:
        health_rows = [
            (
                "ingress queue depth (at last arrival)",
                int(metrics.value("overload.queue_depth")),
            ),
        ]
        family = metrics.get("overload.health_transitions")
        if family is not None:
            for labels, metric in sorted(family.children.items()):
                state = dict(labels).get("state", "?")
                health_rows.append(
                    (f"entered {state}", int(metric.value))
                )
        family = metrics.get("overload.shed")
        if family is not None:
            for labels, metric in sorted(family.children.items()):
                reason = dict(labels).get("reason", "?")
                health_rows.append((f"shed: {reason}", int(metric.value)))
        health_rows.extend(
            [
                ("expired in broker", counter("overload.expired")),
                ("late drops at receiver", counter("overload.late_drops")),
                (
                    "degraded (group flood)",
                    counter("broker.degraded_events"),
                ),
                (
                    "short-circuited (breaker open)",
                    counter("transport.short_circuited"),
                ),
            ]
        )
        print("\nbroker health (overload protection):")
        print(format_table(("signal", "value"), health_rows))
    else:
        print(
            "\nbroker health: overload protection inactive "
            "(re-run with --overload for the saturation pipeline)"
        )

    # Durability summary (live when the home broker journaled to a WAL).
    family = metrics.get("wal.appends")
    if family is not None:
        durability_rows = []
        total_appends = 0
        for labels, metric in sorted(family.children.items()):
            kind = dict(labels).get("kind", "?")
            durability_rows.append(
                (f"wal appends: {kind}", int(metric.value))
            )
            total_appends += int(metric.value)
        durability_rows[:0] = [("wal appends (total)", total_appends)]
        durability_rows.extend(
            [
                ("checkpoints", counter("wal.checkpoints")),
                ("recoveries", counter("recovery.runs")),
                ("records replayed", counter("recovery.replayed")),
                ("wal bytes truncated", counter("recovery.truncated")),
                ("in-flight found on recovery", counter("recovery.inflight")),
                ("in-flight wiped by crash", counter("transport.wiped")),
                ("events deferred while down", counter("broker.deferred")),
            ]
        )
        print("\nbroker durability (write-ahead log):")
        print(format_table(("signal", "value"), durability_rows))
    elif getattr(args, "crash_recovery", False) is False:
        print(
            "\nbroker durability: journaling inactive "
            "(re-run with --crash-recovery for the WAL pipeline)"
        )

    # Replication summary (live when the home broker was replicated).
    if metrics.get("replication.epoch") is not None:
        replication_rows = [
            ("failovers", counter("replication.failovers")),
            ("group epoch", int(metrics.value("replication.epoch"))),
            (
                "writes rejected by fencing",
                counter("replication.fenced_writes"),
            ),
        ]
        family = metrics.get("replication.lag_records")
        if family is not None:
            for labels, metric in sorted(family.children.items()):
                standby = dict(labels).get("standby", "?")
                replication_rows.append(
                    (f"shipping lag @ standby {standby}", int(metric.value))
                )
        family = metrics.get("failover.outcomes")
        if family is not None:
            for labels, metric in sorted(family.children.items()):
                outcome = dict(labels).get("outcome", "?")
                replication_rows.append(
                    (f"events {outcome}", int(metric.value))
                )
        duration = metrics.histogram("replication.failover_duration")
        if duration.count:
            replication_rows.append(
                ("failover duration p95", f"{duration.p95:.1f}")
            )
        print("\nbroker replication (WAL shipping + failover):")
        print(format_table(("signal", "value"), replication_rows))
    elif getattr(args, "failover", False) is False:
        print(
            "\nbroker replication: inactive "
            "(re-run with --failover for the replicated-group pipeline)"
        )

    # Cluster summary (live when the sharded cluster ran).
    if metrics.get("cluster.epoch") is not None:
        cluster_rows = [
            ("membership view epoch", int(metrics.value("cluster.epoch"))),
            ("shard takeovers", counter("cluster.takeovers")),
            (
                "ring exclusions (last resort)",
                counter("cluster.ring_exclusions"),
            ),
            (
                "ex-primaries fenced",
                counter("cluster.fenced"),
            ),
            (
                "writes rejected by fencing",
                counter("cluster.fenced_writes"),
            ),
            (
                "publishes rerouted after takeover",
                counter("cluster.failover_reroutes"),
            ),
        ]
        family = metrics.get("cluster.shard_epoch")
        if family is not None:
            for labels, metric in sorted(family.children.items()):
                shard = dict(labels).get("shard", "?")
                cluster_rows.append(
                    (f"shard {shard} epoch", int(metric.value))
                )
        family = metrics.get("cluster.shard_lag")
        if family is not None:
            for labels, metric in sorted(family.children.items()):
                pair = dict(labels)
                cluster_rows.append(
                    (
                        f"shard {pair.get('shard', '?')} lag @ standby "
                        f"{pair.get('standby', '?')}",
                        int(metric.value),
                    )
                )
        duration = metrics.histogram("cluster.takeover_duration")
        if duration.count:
            cluster_rows.append(
                ("takeover duration p95", f"{duration.p95:.1f}")
            )
        print("\nshard cluster (membership + per-shard failover):")
        print(format_table(("signal", "value"), cluster_rows))
    elif getattr(args, "cluster", False) is False:
        print(
            "\nshard cluster: inactive "
            "(re-run with --cluster for the replicated-shard pipeline)"
        )

    per_link = []
    family = metrics.get("net.link.bytes")
    if family is not None:
        for labels, metric in family.children.items():
            per_link.append((dict(labels)["link"], int(metric.value)))
    per_link.sort(key=lambda item: (-item[1], item[0]))
    total_bytes = sum(size for _, size in per_link)
    print(
        f"\nlink traffic: {total_bytes} bytes over "
        f"{len(per_link)} links; busiest {min(args.top_links, len(per_link))}:"
    )
    print(
        format_table(
            ("link", "bytes", "copies"),
            [
                (
                    link,
                    size,
                    int(metrics.value("net.link.transmissions", link=link)),
                )
                for link, size in per_link[: args.top_links]
            ],
        )
    )
    if args.metrics_out:
        write_prometheus(metrics, args.metrics_out)
        print(f"\nwrote {args.metrics_out} (Prometheus text format)")
    if args.trace_out:
        write_spans_jsonl(telemetry.tracer.spans, args.trace_out)
        print(f"wrote {args.trace_out} ({len(telemetry.tracer.spans)} spans)")
    return 0 if result.healthy else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from .telemetry.exporters import (
        format_span_tree,
        span_tree,
        spans_to_jsonl,
    )

    if args.event < 0 or args.event >= args.events:
        print(
            f"error: --event {args.event} outside workload "
            f"[0, {args.events})",
            file=sys.stderr,
        )
        return 2
    _, telemetry, _ = _run_instrumented(args)
    ordered = span_tree(telemetry.tracer.spans, args.event)
    if not ordered:
        print(
            f"no spans recorded for event {args.event} "
            "(event may have matched nobody)",
            file=sys.stderr,
        )
        return 1
    if args.pretty:
        print(format_span_tree(ordered))
        return 0
    payload = "\n".join(spans_to_jsonl(ordered)) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
        print(f"wrote {args.out} ({len(ordered)} spans)", file=sys.stderr)
    else:
        print(payload, end="")
    return 0


def _cmd_wal(args: argparse.Namespace) -> int:
    import json
    import os
    from collections import Counter as TallyCounter

    from .durability import FileWAL, RecordKind

    if not os.path.exists(args.path):
        print(f"error: {args.path}: no such file", file=sys.stderr)
        return 2
    try:
        wal = FileWAL(args.path)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    result = wal.scan()
    by_kind = TallyCounter(record.kind for record in result.records)
    rows = [
        ("base lsn", wal.base_lsn),
        ("end lsn", wal.end_lsn),
        ("records", len(result.records)),
    ]
    rows.extend(
        (f"  {kind.name.lower()}", by_kind[kind])
        for kind in RecordKind
        if by_kind[kind]
    )
    rows.append(
        ("status", "clean" if result.clean else "CORRUPT")
    )
    print(f"wal: {args.path}")
    print(format_table(("field", "value"), rows))
    if args.tail and result.records:
        tail = result.records[-args.tail :]
        print(f"\nlast {len(tail)} records:")

        def render(body: dict) -> str:
            text = json.dumps(body, sort_keys=True)
            return text if len(text) <= 64 else text[:61] + "..."

        print(
            format_table(
                ("lsn", "kind", "body"),
                [
                    (record.lsn, record.kind.name.lower(), render(record.body))
                    for record in tail
                ],
            )
        )
    if not result.clean:
        print(
            f"\n{result.corruption}\n"
            f"{wal.end_lsn - result.valid_end} trailing bytes are "
            f"unreadable; recovery would truncate at lsn "
            f"{result.valid_end}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .statics import (
        DEFAULT_BASELINE_NAME,
        Baseline,
        lint_paths,
        render_json,
        render_rule_table,
        render_text,
    )

    if args.list_rules:
        print(render_rule_table())
        return 0

    baseline_path = args.baseline_file or DEFAULT_BASELINE_NAME
    try:
        if args.baseline == "apply":
            baseline = Baseline.load(baseline_path)
        else:
            baseline = None
        result = lint_paths(args.paths, rules=args.rules, baseline=baseline)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.baseline == "write":
        Baseline.from_findings(result.findings).dump(baseline_path)
        print(
            f"wrote {baseline_path}: {len(result.findings)} "
            f"grandfathered finding(s) across {result.files} files"
        )
        return 0

    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return result.exit_code


def _cmd_dot(args: argparse.Namespace) -> int:
    from .network.visualize import write_dot

    topology, _ = load_testbed(args.testbed)
    path = write_dot(
        topology,
        args.out,
        include_stub_nodes=not args.backbone_only,
    )
    print(
        f"wrote {path} ({topology.num_nodes} nodes); render with e.g. "
        f"`dot -Kneato -Tsvg {path} -o topology.svg`"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "run": _cmd_run,
        "tune": _cmd_tune,
        "experiments": _cmd_experiments,
        "chaos": _cmd_chaos,
        "shard": _cmd_shard,
        "sessions": _cmd_sessions,
        "stats": _cmd_stats,
        "trace": _cmd_trace,
        "wal": _cmd_wal,
        "lint": _cmd_lint,
        "dot": _cmd_dot,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
