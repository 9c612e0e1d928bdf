"""The three workloads: how each builds its broker, its operations and
its oracle.

The testbed (topology and subscription table) is the paper's Section 5
testbed at ``ExperimentConfig``'s defaults; ``--seed`` drives
everything the publisher side sends: the publication stream, which
subscribers hold durable sessions, and the churn operations.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from repro.clustering.grid import EventGrid
from repro.clustering.groups import SpacePartition
from repro.clustering.kmeans import ForgyKMeansClustering
from repro.core.broker import PubSubBroker
from repro.core.distribution import DeliveryMethod, ThresholdPolicy
from repro.core.dynamic import DynamicPubSubBroker
from repro.core.event import Event
from repro.core.subscription import SubscriptionTable
from repro.experiments.config import ExperimentConfig
from repro.experiments.testbed import Testbed, build_testbed
from repro.network.multicast import DeliveryCostModel
from repro.network.topology import TransitStubGenerator
from repro.replication import ReplicatedBrokerGroup
from repro.sessions.log import RetainedEventLog
from repro.sessions.session import SessionManager
from repro.simulation import DiscreteEventSimulator
from repro.spatial.base import QueryStats
from repro.workload.publications import PublicationGenerator
from repro.workload.subscriptions import StockSubscriptionGenerator

from tracing import Tracer

MODES = 9          # the paper's 9-mode publication scenario
GROUPS = 11        # Forgy groups
THRESHOLD = 0.15   # ThresholdPolicy level
STANDBYS = 2
CHURN_EVERY = 5    # one subscribe/unsubscribe per four publishes
CHURN_POOL = 1000  # distinct rectangles the churn stream subscribes


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload."""

    subscriptions: int
    #: Distinct events the publisher cycles through.
    pool: int
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setups: int
    #: Open-loop offered rate, operations per second (about half the
    #: closed-loop capacity measured on the seed state).
    rate: float
    sessions: int = 0
    #: Untimed warm-up operations (static workloads warm up on one
    #: pass over the pool instead).
    warm_ops: int = 0


SHAPES = {
    "paper": Shape(subscriptions=1000, pool=5000, setups=3, rate=2500.0),
    "scale": Shape(subscriptions=10000, pool=4000, setups=1, rate=650.0),
    "durable": Shape(
        subscriptions=1000, pool=4000, setups=3, rate=14.0,
        sessions=100, warm_ops=25,
    ),
}

#: Small shapes for the benchmark's own tests.
TINY = {
    "paper": Shape(subscriptions=150, pool=100, setups=1, rate=500.0),
    "scale": Shape(subscriptions=300, pool=100, setups=1, rate=500.0),
    "durable": Shape(
        subscriptions=150, pool=400, setups=1, rate=50.0,
        sessions=10, warm_ops=10,
    ),
}


class Op:
    """One operation of the stream."""

    __slots__ = ("kind", "event", "action", "subscriber", "rectangle", "sid")

    def __init__(self, kind, event=None, action="", subscriber=0,
                 rectangle=None, sid=-1):
        self.kind = kind
        self.event = event
        self.action = action
        self.subscriber = subscriber
        self.rectangle = rectangle
        self.sid = sid


def payload(record) -> bytes:
    """What the oracle must agree on for one published event."""
    return repr(
        (
            tuple(sorted(record.match.subscription_ids)),
            record.method.value,
            record.decision.group,
            record.scheme_cost,
            record.unicast_cost,
            record.ideal_cost,
        )
    ).encode()


def op_digest(sequence: int, body: bytes) -> bytes:
    return hashlib.blake2b(
        b"%d|" % sequence + body, digest_size=16
    ).digest()


def matcher_of(engine):
    """The spatial index behind a (static or churn-capable) engine."""
    matcher = getattr(engine, "matcher", None)
    # DynamicMatchingEngine keeps its packed index privately and swaps
    # it on every rebuild.
    return matcher if matcher is not None else engine._base


@dataclass
class Build:
    """Set-up stage timings of one traced build, seconds."""

    routing_s: float = 0.0
    grid_s: float = 0.0
    cluster_s: float = 0.0
    index_s: float = 0.0


class _Base:
    """What the static and durable workloads share."""

    def __init__(self, shape: Shape, seed: int):
        self.shape = shape
        self.seed = seed
        self.config = ExperimentConfig(num_subscriptions=shape.subscriptions)
        self.testbed: Optional[Testbed] = None
        self.broker = None
        self.digests: List[bytes] = []
        self.tracer: Optional[Tracer] = None
        self._matchers: List = []

    # -- set-up ---------------------------------------------------------------

    def _traced_parts(self, build: Build):
        """The stages ``build_testbed`` + ``preprocess`` run, one by one."""
        config = self.config
        topology = TransitStubGenerator(seed=config.seed).generate()
        placed = StockSubscriptionGenerator(
            topology, seed=config.seed + 1
        ).generate(config.num_subscriptions)
        table = SubscriptionTable.from_placed(placed)
        started = perf_counter()
        cost_model = DeliveryCostModel(topology)
        build.routing_s = perf_counter() - started
        self.testbed = Testbed(config, topology, placed, table, cost_model)
        started = perf_counter()
        grid = EventGrid(
            table.rectangles(),
            [s.subscriber for s in table],
            density=self.testbed.density(MODES),
            cells_per_dim=config.cells_per_dim,
        )
        build.grid_s = perf_counter() - started
        started = perf_counter()
        result = ForgyKMeansClustering().cluster(
            grid, GROUPS, max_cells=config.max_cells
        )
        partition = SpacePartition(grid, result)
        build.cluster_s = perf_counter() - started
        return partition

    def make_inputs(self) -> None:
        """The seeded publication pool (needs the topology's stubs)."""
        points, publishers = PublicationGenerator(
            self.testbed.density(MODES),
            self.testbed.topology.all_stub_nodes(),
            seed=self.seed,
        ).generate(self.shape.pool)
        self.points = points
        self.publishers = [int(p) for p in publishers]

    def _event(self, sequence: int, k: int) -> Event:
        k %= self.shape.pool
        return Event.create(sequence, self.publishers[k], self.points[k])

    # -- tracing --------------------------------------------------------------

    def install(self, tracer: Tracer) -> None:
        """Wrap the publish path's layers on this workload's objects."""
        self.tracer = tracer
        broker = self.broker
        wrap = tracer.wrap
        wrap(broker, "publish", "core.broker.publish")
        wrap(broker.engine, "match", "core.matching.match",
             tag=lambda r: len(r.subscription_ids))
        self._wrap_matcher()
        wrap(broker.partition, "locate", "clustering.groups.locate",
             tag=lambda q: q == 0)
        wrap(broker.partition, "group", "clustering.groups.group")
        wrap(broker.policy, "decide", "core.distribution.decide",
             tag=lambda d: d.method is DeliveryMethod.MULTICAST)
        for method in ("unicast_cost", "multicast_cost", "ideal_cost"):
            wrap(broker.costs, method, "network.multicast." + method)
        wrap(broker.costs.routing, "shortest_path_tree_cost",
             "network.routing.spt")

    def _wrap_matcher(self) -> None:
        matcher = matcher_of(self.broker.engine)
        if not self.tracer.is_wrapped(matcher):
            self.tracer.wrap(matcher, "match", "spatial.match", tag=len)
            self._matchers.append((matcher, copy.copy(matcher.stats)))

    def uninstall(self) -> None:
        self.tracer.unwrap_all()
        self.tracer = None

    def query_stats(self) -> QueryStats:
        """Index work done while traced (summed over rebuilt indexes)."""
        total = QueryStats()
        for matcher, before in self._matchers:
            now = matcher.stats
            total.queries += now.queries - before.queries
            total.nodes_visited += now.nodes_visited - before.nodes_visited
            total.leaves_visited += (
                now.leaves_visited - before.leaves_visited
            )
            total.entries_tested += (
                now.entries_tested - before.entries_tested
            )
        return total

    def counters(self) -> Dict[str, float]:
        """Layer counters outside the span data (zero where unused)."""
        return {}


class StaticWorkload(_Base):
    """``paper`` and ``scale``: a static S-tree broker, no churn."""

    def setup(self) -> None:
        self.testbed = build_testbed(self.config)
        self.broker = self.testbed.make_broker(
            ForgyKMeansClustering(), GROUPS, MODES, THRESHOLD
        )

    def setup_traced(self) -> Build:
        build = Build()
        partition = self._traced_parts(build)
        started = perf_counter()
        self.broker = PubSubBroker(
            self.testbed.topology,
            self.testbed.table,
            partition,
            policy=ThresholdPolicy(THRESHOLD),
            matcher_backend=self.config.matcher_backend,
            cost_model=self.testbed.cost_model,
        )
        build.index_s = perf_counter() - started
        return build

    @property
    def warm_ops(self) -> int:
        return self.shape.pool

    def prepare(self, i: int) -> Op:
        return Op("publish", event=self._event(i, i))

    def run(self, op: Op):
        return self.broker.publish(op.event)

    def observe(self, i: int, op: Op, record) -> None:
        self.digests.append(op_digest(i, payload(record)))

    def check(self):
        """Compare every published event with a linear-scan broker.

        The oracle shares the partition (so ``q`` comes from the same
        ``locate``) but has its own matcher and cost model.  Returns
        ``(failed, digest)``, the digest covering the warm-up pass.
        """
        testbed = self.testbed
        oracle = PubSubBroker(
            testbed.topology,
            testbed.table,
            self.broker.partition,
            policy=ThresholdPolicy(THRESHOLD),
            matcher_backend="linear",
            cost_model=DeliveryCostModel(testbed.topology),
        )
        expected = [
            payload(oracle.publish(self._event(k, k)))
            for k in range(self.shape.pool)
        ]
        failed = sum(
            digest != op_digest(i, expected[i % self.shape.pool])
            for i, digest in enumerate(self.digests)
        )
        witness = hashlib.blake2b(digest_size=16)
        for k in range(self.warm_ops):
            witness.update(op_digest(k, expected[k]))
        return failed, witness.hexdigest()


class DurableWorkload(_Base):
    """``durable``: churn, a journal shipped to two standbys, sessions."""

    def setup(self) -> None:
        self.testbed = build_testbed(self.config)
        testbed = self.testbed
        self.broker = DynamicPubSubBroker.preprocess_dynamic(
            testbed.topology,
            testbed.table,
            ForgyKMeansClustering(),
            GROUPS,
            density=testbed.density(MODES),
            cells_per_dim=self.config.cells_per_dim,
            max_cells=self.config.max_cells,
            policy=ThresholdPolicy(THRESHOLD),
            matcher_backend=self.config.matcher_backend,
            cost_model=testbed.cost_model,
        )
        self._wire()

    def setup_traced(self) -> Build:
        build = Build()
        partition = self._traced_parts(build)
        testbed = self.testbed
        started = perf_counter()
        self.broker = DynamicPubSubBroker(
            testbed.topology,
            testbed.table,
            partition,
            ForgyKMeansClustering(),
            GROUPS,
            density=testbed.density(MODES),
            cells_per_dim=self.config.cells_per_dim,
            max_cells=self.config.max_cells,
            policy=ThresholdPolicy(THRESHOLD),
            matcher_backend=self.config.matcher_backend,
            cost_model=testbed.cost_model,
        )
        build.index_s = perf_counter() - started
        self._wire()
        return build

    def _wire(self) -> None:
        """Replication group, retained log and durable sessions."""
        topology = self.testbed.topology
        self.simulator = simulator = DiscreteEventSimulator()
        primary = topology.all_transit_nodes()[0]
        self.group = ReplicatedBrokerGroup(
            self.broker,
            primary,
            topology.replica_candidates(primary, STANDBYS),
            simulator,
        )
        self.journal = self.group.journal
        clock = lambda: simulator.now  # noqa: E731
        self.manager = SessionManager(
            RetainedEventLog(clock=clock), journal=self.journal, clock=clock
        )
        self.broker.attach_sessions(self.manager)
        by_node: Dict[int, List[int]] = {}
        for subscription in self.testbed.table:
            by_node.setdefault(subscription.subscriber, []).append(
                subscription.subscription_id
            )
        nodes = sorted(by_node)
        rng = np.random.default_rng(self.seed)
        chosen = rng.choice(
            len(nodes), size=min(self.shape.sessions, len(nodes)),
            replace=False,
        )
        self.session_of: Dict[int, str] = {}
        for position in sorted(int(c) for c in chosen):
            node = nodes[position]
            session_id = f"sess-{node}"
            self.manager.register(session_id, node, by_node[node])
            for sid in by_node[node]:
                self.session_of[sid] = session_id

    def make_inputs(self) -> None:
        super().make_inputs()
        self.churn_rects = StockSubscriptionGenerator(
            self.testbed.topology, seed=self.seed
        ).generate(CHURN_POOL)
        self.rng = np.random.default_rng(self.seed + 1)
        self.live = list(range(len(self.testbed.table)))
        self.next_sid = len(self.testbed.table)
        self.subscribes = 0
        self.publishes = 0
        self.ops: List[Op] = []
        self.pending_churn_max = 0
        self.rebuilds_before = self.broker.engine.rebuilds

    @property
    def warm_ops(self) -> int:
        return self.shape.warm_ops

    def prepare(self, i: int) -> Op:
        if i % CHURN_EVERY == CHURN_EVERY - 1:
            if self.rng.random() < 0.5:
                placed = self.churn_rects[self.subscribes % CHURN_POOL]
                self.subscribes += 1
                op = Op("churn", action="subscribe",
                        subscriber=placed.subscriber,
                        rectangle=placed.rectangle, sid=self.next_sid)
                self.live.append(self.next_sid)
                self.next_sid += 1
            else:
                pick = int(self.rng.integers(len(self.live)))
                op = Op("churn", action="unsubscribe", sid=self.live[pick])
                self.live[pick] = self.live[-1]
                self.live.pop()
        else:
            op = Op("publish", event=self._event(i, self.publishes))
            self.publishes += 1
        self.ops.append(op)
        return op

    def run(self, op: Op):
        """One client operation, with the journaling a durable
        deployment pays: the publish intent, one DELIVER per target and
        an ack from every session the event was charged to."""
        broker = self.broker
        if op.kind == "churn":
            if op.action == "subscribe":
                return broker.subscribe(op.subscriber, op.rectangle)
            return broker.unsubscribe(op.sid)
        event = op.event
        record = broker.publish(event)
        targets = [n for n in record.match.subscribers if n != event.publisher]
        journal = self.journal
        journal.log_publish(
            event.sequence,
            event.publisher,
            targets,
            method=record.method.value,
            group=record.decision.group,
        )
        for target in targets:
            journal.log_delivery(event.sequence, target)
        session_of = self.session_of
        charged = {
            session_of[s] for s in record.match.subscription_ids
            if s in session_of
        }
        for session_id in sorted(charged):
            self.manager.ack(session_id, event.sequence)
        return record

    def _body(self, op: Op, result) -> bytes:
        if op.kind == "publish":
            return payload(result)
        if op.action == "subscribe":
            return b"subscribe %d" % result.subscription_id
        return b"unsubscribe %d" % op.sid

    def observe(self, i: int, op: Op, result) -> None:
        self.digests.append(op_digest(i, self._body(op, result)))
        if op.kind == "churn":
            self.pending_churn_max = max(
                self.pending_churn_max, self.broker.engine.pending_churn
            )
            if self.tracer is not None:
                self._wrap_matcher()

    def install(self, tracer: Tracer) -> None:
        super().install(tracer)
        wrap = tracer.wrap
        wrap(self.broker, "subscribe", "core.dynamic.subscribe")
        wrap(self.broker, "unsubscribe", "core.dynamic.unsubscribe")
        wrap(self.manager, "on_publish", "sessions.on_publish",
             tag=lambda r: len(r[1]))
        wrap(self.manager, "ack", "sessions.ack")
        wrap(self.manager.log, "append", "sessions.log_append")
        for method in ("log_publish", "log_delivery", "log_subscribe",
                       "log_unsubscribe", "log_cursor", "log_session"):
            wrap(self.journal, method, "durability.append")
        wrap(self.journal, "checkpoint", "durability.checkpoint")
        wrap(self.group.shipper, "flush", "replication.flush")
        for replica in self.group.replicas.values():
            wrap(replica, "receive_batch", "replication.apply")
        self._mark = self._snapshot()

    def _snapshot(self) -> Dict[str, float]:
        stats = self.group.shipper.stats
        return {
            "checkpoints": self.journal.checkpoints,
            "wal_bytes": self.group.wals[self.group.primary].end_lsn,
            "ops_shipped": stats.ops_shipped,
            "catchups": stats.catchups,
        }

    def counters(self) -> Dict[str, float]:
        """Deltas over the traced window, plus run-wide churn counters."""
        now = self._snapshot()
        out = {key: now[key] - self._mark[key] for key in now}
        latest = self.group.stores[self.group.primary].latest()
        out["snapshot_bytes"] = len(
            json.dumps(latest.to_dict(), sort_keys=True,
                       separators=(",", ":"))
        ) if latest is not None else 0
        out["rebuilds"] = self.broker.engine.rebuilds - self.rebuilds_before
        out["pending_churn_max"] = self.pending_churn_max
        return out

    def check(self):
        """Replay the same operations on a linear-scan dynamic broker,
        then check replication, the journal and the sessions settled.

        Returns ``(failed, digest)``, the digest covering the warm-up
        operations.
        """
        group = self.group
        group.shipper.flush(self.simulator.now)
        primary_log = group.wals[group.primary].copy_out()
        failed = sum(
            group.wals[standby].copy_out() != primary_log
            for standby in group.replicas
        )
        failed += bool(self.journal.inflight_sequences)
        failed += any(
            session.outstanding for session in self.manager.sessions.values()
        )
        testbed = build_testbed(self.config)
        oracle = DynamicPubSubBroker.preprocess_dynamic(
            testbed.topology,
            testbed.table,
            ForgyKMeansClustering(),
            GROUPS,
            density=testbed.density(MODES),
            cells_per_dim=self.config.cells_per_dim,
            max_cells=self.config.max_cells,
            policy=ThresholdPolicy(THRESHOLD),
            matcher_backend="linear",
            cost_model=testbed.cost_model,
        )
        witness = hashlib.blake2b(digest_size=16)
        for i, op in enumerate(self.ops):
            if op.kind == "publish":
                result = oracle.publish(op.event)
            elif op.action == "subscribe":
                result = oracle.subscribe(op.subscriber, op.rectangle)
            else:
                result = oracle.unsubscribe(op.sid)
            expected = op_digest(i, self._body(op, result))
            failed += expected != self.digests[i]
            if op.action == "subscribe":
                failed += result.subscription_id != op.sid
            if i < self.warm_ops:
                witness.update(expected)
        return failed, witness.hexdigest()


def make(name: str, shape: Shape, seed: int) -> _Base:
    cls = DurableWorkload if name == "durable" else StaticWorkload
    return cls(shape, seed)
