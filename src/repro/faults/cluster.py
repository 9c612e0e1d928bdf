"""Full-stack chaos: replicated shards under combined failures.

:class:`FullStackChaosSimulation` is the capstone harness: it runs the
sharded workload of :class:`~repro.faults.sharded.
ShardedChaosSimulation` with every shard upgraded to a
:class:`~repro.cluster.shard.ReplicatedShard` (primary + ranked
standby set, log shipping, epoch fencing) and a cluster-wide
:class:`~repro.cluster.membership.Membership` detector deciding when a
shard home is gone.  Where PR 6's harness answered a shard kill with
cascade stranding — ring ``exclude()`` plus survivor rebalancing —
this one answers with a **fenced standby takeover**: replay the
shipped WAL via :func:`~repro.cluster.journal.recover_shard`, re-home
the sub-broker, reconcile its entry set against the authoritative
scatter, re-hand unacked in-flight deliveries, and stamp everything
with a cluster epoch so the deposed primary's writes bounce.  Ring
exclusion survives only as the last resort when a shard loses its
primary *and* every standby.

The adversary combines, in one run: permanent shard-home kills,
network partitions (the deposed primary keeps running and must be
fenced, not killed), mid-copy migration crashes, and torn-tail WAL
corruption on a standby that is later promoted.  The invariants are
unchanged and absolute: ``delivered + shed + expired == published``
with zero duplicates, zero *unexplained* misses (a miss is explained
only by physical disconnection from every live home), and per-event
:class:`~repro.core.matching.MatchResult` digests byte-identical to an
unsharded broker that never failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..cluster.membership import MemberState, Membership, MembershipConfig
from ..cluster.shard import ReplicatedShard
from ..overload.breaker import BreakerBoard, BreakerConfig
from ..replication.epoch import EpochDirectory
from ..replication.shipping import ShippingConfig, ShippingStats
from ..sharding.map import ShardMap
from ..telemetry.base import Telemetry
from .harness import SETTLE
from .plan import BrokerKill, FaultPlan, LinkOutage
from .sharded import (
    ROUTE_DELAY,
    PlannedMigration,
    ShardedChaosSimulation,
    ShardedReport,
)

__all__ = [
    "StandbyWALCorruption",
    "ClusterStats",
    "ClusterReport",
    "FullStackChaosSimulation",
    "build_cluster_plan",
]

#: The four combined-chaos scenarios the harness knows how to build.
CLUSTER_SCENARIOS = ("kill", "partition", "double-kill", "migrate-under-kill")


@dataclass(frozen=True)
class StandbyWALCorruption:
    """Tear ``nbytes`` off the tail of one shard's first live standby
    WAL at ``at`` — the standby must scrub, resync, and still be able
    to take over later."""

    at: float
    shard: int
    nbytes: int = 7


@dataclass
class ClusterStats:
    """What the membership + failover machinery did during one run."""

    #: Fenced standby takeovers completed.
    takeovers: int = 0
    #: Recovery digest per takeover (the determinism witness).
    takeover_digests: List[str] = field(default_factory=list)
    #: Silence-to-takeover latency per takeover (simulated time).
    takeover_durations: List[float] = field(default_factory=list)
    #: Times the last-resort ring-exclusion path ran (no standby left).
    ring_exclusions: int = 0
    #: Publications that arrived addressed to a deposed primary.
    failover_reroutes: int = 0
    #: Of those, rejected by a live-but-fenced old home's epoch check.
    stale_publish_rejections: int = 0
    #: Post-takeover write probes admitted at the new primary.
    probe_admissions: int = 0
    #: Post-takeover write probes fenced at the old primary.
    probe_rejections: int = 0
    #: Entries added/withdrawn reconciling recovery vs the scatter.
    entries_reconciled: int = 0
    #: (event, target) deliveries re-handed by a fresh primary.
    redelivered_after_takeover: int = 0
    #: Torn-tail corruptions injected on standby WALs.
    wal_corruptions: int = 0
    #: Standby WALs scrubbed (repair + stream invalidation + resync).
    wal_scrubs: int = 0
    #: Stale-epoch replication messages rejected (zombie fencing).
    stale_rejections: int = 0
    #: Writes rejected by per-node epoch fencing.
    fenced_writes: int = 0
    #: Replication heartbeats sent by believing-primaries.
    heartbeats: int = 0
    #: Final membership view epoch (one counter over all changes).
    cluster_epoch: int = 0
    members_alive: int = 0
    members_suspect: int = 0
    members_dead: int = 0
    suspicions: int = 0
    recoveries: int = 0
    confirmed_deaths: int = 0
    #: Heartbeats from nodes the view already confirmed dead.
    stale_heartbeats: int = 0


@dataclass
class ClusterReport(ShardedReport):
    """A sharded chaos report plus the cluster/replication ledger."""

    cluster: ClusterStats = field(default_factory=ClusterStats)
    shipping: ShippingStats = field(default_factory=ShippingStats)

    def summary_rows(self) -> List[Tuple[str, object]]:
        rows = super().summary_rows()
        c = self.cluster
        durations = (
            " ".join(f"{d:.1f}" for d in c.takeover_durations) or "-"
        )
        digests = (
            " ".join(d[:8] for d in c.takeover_digests) or "-"
        )
        rows.extend(
            [
                ("cluster epoch", c.cluster_epoch),
                (
                    "members alive/suspect/dead",
                    f"{c.members_alive}/{c.members_suspect}/{c.members_dead}",
                ),
                ("suspicions", c.suspicions),
                ("suspect recoveries", c.recoveries),
                ("confirmed deaths", c.confirmed_deaths),
                ("stale membership heartbeats", c.stale_heartbeats),
                ("takeovers", c.takeovers),
                ("takeover durations", durations),
                ("takeover digests", digests),
                ("ring-exclusion fallbacks", c.ring_exclusions),
                ("publishes addressed to deposed primary", c.failover_reroutes),
                ("stale publishes rejected", c.stale_publish_rejections),
                (
                    "write probes admitted/fenced",
                    f"{c.probe_admissions}/{c.probe_rejections}",
                ),
                ("entries reconciled at takeover", c.entries_reconciled),
                ("re-handed after takeover", c.redelivered_after_takeover),
                (
                    "standby WAL corruptions/scrubs",
                    f"{c.wal_corruptions}/{c.wal_scrubs}",
                ),
                ("stale replication messages rejected", c.stale_rejections),
                ("epoch-fenced writes", c.fenced_writes),
                ("replication heartbeats", c.heartbeats),
                ("shipped batches", self.shipping.batches),
                ("shipped ops", self.shipping.ops_shipped),
                ("shipping acks", self.shipping.acks),
                ("anti-entropy catch-ups", self.shipping.catchups),
                ("shipping backpressure skips", self.shipping.backpressure_skips),
            ]
        )
        return rows


class FullStackChaosSimulation(ShardedChaosSimulation):
    """Sharded chaos where every shard has a replicated standby set.

    ``standby_map`` maps shard id → ranked standby nodes (see
    :func:`build_cluster_plan`).  A cluster tick loop (cadence
    ``membership.heartbeat_interval``) feeds the membership detector
    from the fault injector's ground truth — a node is *heard* iff it
    is up and inside the majority network component, a deterministic
    stand-in for gossip — drives per-shard replication heartbeats and
    shipping flushes, and reacts to confirmed deaths: a dead standby
    just leaves the candidate list, a dead acting primary triggers
    :meth:`_fail_over`.
    """

    def __init__(
        self,
        broker,
        plan: FaultPlan,
        standby_map: Dict[int, Sequence[int]],
        num_shards: int = 4,
        shard_homes: Optional[Sequence[int]] = None,
        migrations: Sequence[PlannedMigration] = (),
        corruptions: Sequence[StandbyWALCorruption] = (),
        shipping: Optional[ShippingConfig] = None,
        checkpoint_every: int = 64,
        telemetry: Optional[Telemetry] = None,
    ):
        super().__init__(
            broker,
            plan,
            num_shards=num_shards,
            shard_homes=shard_homes,
            migrations=migrations,
            telemetry=telemetry,
        )
        missing = [k for k in range(num_shards) if not standby_map.get(k)]
        if missing:
            raise ValueError(
                f"FullStackChaosSimulation: every shard needs at least one "
                f"standby (got none for shards {missing})"
            )
        self.corruptions = tuple(corruptions)
        self.cstats = ClusterStats()
        #: One cluster-wide directory: takeovers chain old → new home.
        self.directory = EpochDirectory()
        self.transport.directory = self.directory
        self.shipping_breakers = BreakerBoard(
            BreakerConfig(failure_threshold=3, reset_timeout=120.0)
        )
        alive = lambda node, time: not self.injector.node_down(node, time)
        self.replicated: Dict[int, ReplicatedShard] = {}
        for k in range(num_shards):
            self.replicated[k] = ReplicatedShard(
                self.router.shards[k],
                self.homes[k],
                [int(s) for s in standby_map[k]],
                self.simulator,
                send=self._ship,
                shipping=shipping,
                alive=alive,
                checkpoint_every=checkpoint_every,
                breakers=self.shipping_breakers,
                telemetry=telemetry,
            )
            # Bootstrap: the scatter that populated the shard predates
            # the journal taps, so seed every standby with a snapshot.
            self.replicated[k].journal.checkpoint()
        nodes = sorted(
            {int(h) for h in self.homes.values()}
            | {int(s) for k in range(num_shards) for s in standby_map[k]}
        )
        self.membership = Membership(nodes, MembershipConfig(), now=0.0)

    # -- replication wire ----------------------------------------------------

    def _ship(self, source: int, target: int, payload: Dict) -> None:
        """Replication messages ride the same faulty packet network as
        publications — loss, outages and kills starve a zombie primary
        of exactly the acks that would have told it the truth."""
        self.network.send_unicast(
            source,
            target,
            lambda node, time, p=payload: self._deliver_replication(
                node, p, time
            ),
        )

    def _deliver_replication(
        self, node: int, payload: Dict, time: float
    ) -> None:
        shard = self.replicated.get(int(payload.get("shard", -1)))
        if shard is not None:
            shard.deliver(node, payload, time)

    # -- scheduling ----------------------------------------------------------

    def _arm(self, last_arrival: float) -> None:
        for kill in self.plan.broker_kills:
            self.simulator.schedule_at(
                float(kill.at),
                lambda n=int(kill.node): self._node_killed(n),
            )
        for planned in self.planned:
            self.simulator.schedule_at(
                float(planned.at),
                lambda p=planned: self._begin_planned(p),
            )
        for corruption in self.corruptions:
            self.simulator.schedule_at(
                float(corruption.at),
                lambda c=corruption: self._corrupt_standby(c),
            )
        end = last_arrival + SETTLE
        interval = self.membership.config.heartbeat_interval
        t = interval
        while t <= end:
            self.simulator.schedule_at(t, self._cluster_tick)
            t += interval

    # -- the cluster clock ---------------------------------------------------

    def _majority_component(self, state) -> Set[int]:
        """Surviving network component holding the most cluster members."""
        return self._majority(
            self._components(state=state), self.membership.nodes
        )

    def _cluster_tick(self) -> None:
        now = self.simulator.now
        state = self.injector.state_at(now)
        component = None if state.clear else self._majority_component(state)
        # Logical gossip: a member is heard iff it is up and can reach
        # the majority of the cluster.  A partitioned-away node goes
        # silent here while still running (and shipping) — exactly the
        # zombie the epoch fencing must catch later.
        for node in self.membership.nodes:
            up = not self.injector.node_down(node, now)
            if up and (component is None or node in component):
                self.membership.heard(node, now)
        for shard in self.replicated.values():
            shard.tick(now)
        for node, mstate in self.membership.tick(now):
            if mstate is MemberState.DEAD:
                self._member_dead(node, now)
        if self.telemetry.enabled:
            self.telemetry.gauge(
                "cluster.epoch", help="membership view epoch"
            ).set(self.membership.epoch)
            for k, shard in sorted(self.replicated.items()):
                for standby in shard.ranked:
                    if standby in shard.replicas:
                        self.telemetry.gauge(
                            "cluster.shard_lag",
                            help="ops a standby is behind its shard primary",
                            shard=k,
                            standby=standby,
                        ).set(shard.lag_of(standby))

    def _member_dead(self, node: int, now: float) -> None:
        """The view confirmed ``node`` dead; react per shard.

        Only a ground-truth kill marks the replica role DEAD — a node
        confirmed dead by silence may be a partitioned zombie that
        must keep believing it is primary until fencing corrects it.
        """
        killed = self.injector.node_killed(node, now)
        for k in sorted(self.replicated):
            shard = self.replicated[k]
            if node not in shard.members:
                continue
            if killed:
                shard.mark_dead(node)
            if shard.primary == int(node) and k not in self._dead:
                self._fail_over(k, now)

    # -- failover ------------------------------------------------------------

    def _fail_over(self, shard_id: int, now: float) -> None:
        shard = self.replicated[shard_id]
        state = self.injector.state_at(now)
        component = None if state.clear else self._majority_component(state)
        eligible = (
            None if component is None else (lambda node: node in component)
        )
        old = shard.primary
        with self.telemetry.span(
            "cluster.takeover", shard=shard_id, old_home=old
        ):
            epoch = self.membership.advance_epoch()
            result = shard.takeover(
                now, epoch, directory=self.directory, eligible=eligible
            )
            if result is None:
                # Primary and every standby are gone: the pre-cluster
                # stranding path (ring exclusion + rebalance) is all
                # that is left.
                self.cstats.ring_exclusions += 1
                if self.telemetry.enabled:
                    self.telemetry.counter(
                        "cluster.ring_exclusions",
                        help="shards abandoned to ring exclusion",
                    ).inc()
                self._kill_shard(shard_id)
                return
            self.homes[shard_id] = result.new_home
            self.home_to_shard = {
                home: s for s, home in self.homes.items()
            }
            duration = now - self.membership.last_heard(old)
            self.cstats.takeovers += 1
            self.cstats.takeover_digests.append(result.digest)
            self.cstats.takeover_durations.append(duration)
            # The shipped log can be a mutation or two behind the
            # authoritative scatter (async tail lost with the primary);
            # reconcile against the global table, journaling the fixes.
            added = 0
            for subscription in self.broker.table:
                if shard_id in self.router.shards_of_rectangle(
                    subscription.rectangle
                ):
                    if self.router.shards[shard_id].register(subscription):
                        added += 1
            stale = self.router.refresh_shard(shard_id)
            self.cstats.entries_reconciled += added + stale
            # Split-brain probes: the fresh primary admits writes at
            # the new epoch, the deposed one is fenced.
            if shard.write_allowed(result.new_home):
                self.cstats.probe_admissions += 1
            if not shard.write_allowed(old):
                self.cstats.probe_rejections += 1
            # Re-hand in-flight deliveries whose sender died with the
            # old home; receiver dedup keeps the wire exactly-once.
            for key in sorted(self._pending_of):
                pending = self._pending_of[key]
                if not pending or self._sender_shard.get(key) != shard_id:
                    continue
                self.transport.publish(
                    key, result.new_home, sorted(pending)
                )
                self.cstats.redelivered_after_takeover += len(pending)
                self.sstats.redelivered += len(pending)
            if self.telemetry.enabled:
                self.telemetry.histogram(
                    "cluster.takeover_duration",
                    help="silence-to-takeover latency",
                ).observe(duration)
                self.telemetry.event(
                    "takeover",
                    shard=shard_id,
                    old_home=old,
                    new_home=result.new_home,
                    epoch=result.epoch,
                )
        self._flush_deferred()

    # -- kills & corruption --------------------------------------------------

    def _node_killed(self, node: int) -> None:
        """Ground truth at the instant of a fail-stop kill.

        Membership still detects the death through hysteresis; here we
        only do what physics does: mark replica roles dead and wipe
        the node's volatile sender-side retry state.
        """
        node = int(node)
        if self.telemetry.enabled:
            self.telemetry.event("node-kill", node=node)
        for k in sorted(self.replicated):
            shard = self.replicated[k]
            if node in shard.members:
                shard.mark_dead(node)
        now = self.simulator.now
        wiped = self.transport.wipe_pending()
        self.sstats.wiped_inflight += sum(
            1
            for key, _target in wiped
            if self.homes.get(self._sender_shard.get(key, -1)) == node
        )
        # Re-arm in-flight deliveries whose owning shard's home is
        # still up; the dead home's keys wait for its takeover.
        for key in sorted(self._pending_of):
            pending = self._pending_of[key]
            if not pending:
                continue
            owner = self._sender_shard.get(key)
            if owner is None or owner in self._dead:
                continue
            home = self.homes[owner]
            if self.injector.node_down(home, now):
                continue
            self.transport.publish(key, home, sorted(pending))

    def _corrupt_standby(self, corruption: StandbyWALCorruption) -> None:
        """Tear the first live standby's WAL tail, then scrub it.

        The scrub (scan + repair + stream invalidation) models the
        standby noticing the damage on its own: its next batch draws a
        ``resync`` and an anti-entropy catch-up re-bases it, so it can
        still be promoted later.
        """
        rshard = self.replicated.get(int(corruption.shard))
        if rshard is None:
            return
        now = self.simulator.now
        for standby in rshard.ranked:
            replica = rshard.replicas.get(standby)
            if replica is None or self.injector.node_down(standby, now):
                continue
            wal = rshard.wals[standby]
            try:
                wal.tear_tail(int(corruption.nbytes))
            except ValueError:
                continue  # log too short to tear; try the next standby
            self.cstats.wal_corruptions += 1
            scan = wal.scan()
            if not scan.clean:
                wal.repair()
            replica.invalidate_stream()
            self.cstats.wal_scrubs += 1
            if self.telemetry.enabled:
                self.telemetry.event(
                    "wal-corruption",
                    shard=int(corruption.shard),
                    standby=standby,
                )
            return

    # -- routing under failover ----------------------------------------------

    def _unavailable(self, shard: int) -> bool:
        # A shard whose acting home is down-but-not-failed-over yet (the
        # membership detection window) defers instead of serving from a
        # dead node; the post-takeover flush drains it.
        return super()._unavailable(shard) or self._home_unserviceable(
            self.homes.get(shard), self.simulator.now
        )

    def _publish_event(self, sequence: int) -> None:
        q, shard = self.router.resolve(self._points[sequence])
        home = self.homes.get(shard)
        rshard = self.replicated.get(shard)
        cluster_epoch = rshard.epoch if rshard is not None else 0
        self.simulator.schedule_at(
            self.simulator.now + ROUTE_DELAY,
            lambda: self._arrive_cluster(
                sequence, q, shard, home, cluster_epoch
            ),
        )

    def _arrive_cluster(
        self,
        sequence: int,
        q: int,
        shard: int,
        home: Optional[int],
        cluster_epoch: int,
    ) -> None:
        rshard = self.replicated.get(shard)
        if (
            rshard is not None
            and shard not in self._dead
            and (
                self.homes.get(shard) != home
                or rshard.epoch != cluster_epoch
            )
        ):
            # The publication addressed a primary that was deposed
            # while it was in flight; re-resolution retries it against
            # the new one.  A live old home actively rejects it first
            # (its epoch check), which is what the probe counts.
            self.cstats.failover_reroutes += 1
            if home is not None and not rshard.write_allowed(home):
                self.cstats.stale_publish_rejections += 1
            if self.telemetry.enabled:
                self.telemetry.counter(
                    "cluster.failover_reroutes",
                    help="publishes re-resolved after a takeover",
                ).inc()
        self._arrive(sequence, q, shard)

    # -- durability taps -----------------------------------------------------

    def _record_intent(
        self,
        sequence: int,
        publisher: int,
        recipients: Sequence[int],
        method: str,
        group: int,
    ) -> None:
        record = self._records.get(sequence)
        if record is None:
            return
        shard = record[3]
        rshard = self.replicated.get(shard)
        if rshard is None or shard in self._dead:
            return
        if self.injector.node_down(
            self.homes.get(shard, -1), self.simulator.now
        ):
            return
        rshard.journal.log_publish(
            sequence, publisher, recipients, method=method, group=group
        )

    def _on_ack(self, target: int, key: int, time: float) -> None:
        super()._on_ack(target, key, time)
        shard = self._sender_shard.get(key)
        if shard is None or shard in self._dead:
            return
        rshard = self.replicated.get(shard)
        if rshard is None:
            return
        if self.injector.node_down(self.homes.get(shard, -1), time):
            return
        rshard.journal.log_delivery(key, target)

    # -- reporting -----------------------------------------------------------

    def run(
        self,
        points: np.ndarray,
        publishers: Sequence[int],
        inter_arrival: float = 1.0,
        arrival_times: Optional[Sequence[float]] = None,
    ) -> ClusterReport:
        base = super().run(points, publishers, inter_arrival, arrival_times)
        shipping = ShippingStats()
        for k in sorted(self.replicated):
            shard = self.replicated[k]
            s = shard.shipping_stats()
            shipping.batches += s.batches
            shipping.ops_shipped += s.ops_shipped
            shipping.acks += s.acks
            shipping.catchups += s.catchups
            shipping.backpressure_skips += s.backpressure_skips
            shipping.breaker_failures += s.breaker_failures
            shipping.trimmed_ops += s.trimmed_ops
            stats = shard.finalize_stats()
            self.cstats.heartbeats += stats.heartbeats_sent
            self.cstats.stale_rejections += stats.stale_rejections
            self.cstats.fenced_writes += stats.fenced_writes
        view = self.membership.view()
        self.cstats.cluster_epoch = self.membership.epoch
        self.cstats.members_alive = len(view.alive)
        self.cstats.members_suspect = len(view.suspect)
        self.cstats.members_dead = len(view.dead)
        self.cstats.suspicions = self.membership.suspicions
        self.cstats.recoveries = self.membership.recoveries
        self.cstats.confirmed_deaths = self.membership.confirmed_deaths
        self.cstats.stale_heartbeats = self.membership.stale_heartbeats
        if self.telemetry.enabled:
            self.telemetry.gauge(
                "cluster.epoch", help="membership view epoch"
            ).set(self.membership.epoch)
        return ClusterReport(
            **vars(base), cluster=self.cstats, shipping=shipping
        )

    def _severed(self) -> List[int]:
        """Ground-truth killed nodes as well as the dead shards' homes:
        with failover a killed node usually is not any shard's current
        home, yet a stub whose only gateway it was is physically
        unreachable from any live home — an explained loss, not a
        protocol bug."""
        now = self.simulator.now
        killed = [
            n
            for n in self.broker.topology.graph.nodes
            if self.injector.node_killed(n, now)
        ]
        return killed + super()._severed()


def build_cluster_plan(
    topology,
    shard_map: ShardMap,
    seed: int = 2003,
    loss: float = 0.05,
    duplicate: float = 0.0,
    delay: float = 0.0,
    scenario: str = "kill",
    horizon: float = 300.0,
    standby_count: int = 2,
    copy_time: float = 20.0,
) -> Tuple[
    FaultPlan,
    List[int],
    Dict[int, List[int]],
    List[PlannedMigration],
    Tuple[StandbyWALCorruption, ...],
]:
    """A combined-chaos plan + placement for one cluster scenario.

    Shard homes are the first K transit nodes; each shard's standbys
    are its home's topology-ranked replica candidates
    (:meth:`~repro.network.topology.Topology.replica_candidates`),
    preferring transit nodes that host no shard home.  Every scenario
    additionally tears the tail of the target shard's first standby
    WAL at 25% of the horizon — the promoted standby must have scrubbed
    and caught back up by the time it is needed.  ``scenario``:

    - ``"kill"`` — the busiest shard's home is permanently killed at
      40% of the horizon; its first standby takes over.
    - ``"partition"`` — every incident link of the busiest shard's
      home is dead during ``[0.35, 0.7)`` of the horizon; the cluster
      confirms it dead and fails over, and the *still-running* old
      primary must be fenced when the partition heals.
    - ``"double-kill"`` — the two busiest shards' homes are killed at
      40% and 55% of the horizon (two independent takeovers).
    - ``"migrate-under-kill"`` — the busiest shard's heaviest subset
      starts migrating at 35% of the horizon and the *source* home is
      killed halfway through the copy: the journaled cutover completes
      onto the destination while the standby takeover re-homes what
      remains.

    Returns ``(plan, homes, standby_map, planned_migrations,
    corruptions)``.
    """
    if scenario not in CLUSTER_SCENARIOS:
        raise ValueError(
            f"scenario must be one of {', '.join(CLUSTER_SCENARIOS)} "
            f"(got {scenario!r})"
        )
    if standby_count < 1:
        raise ValueError(
            f"standby_count must be >= 1 (got {standby_count})"
        )
    transit = sorted(int(n) for n in topology.all_transit_nodes())
    num_shards = shard_map.num_shards
    if num_shards > len(transit):
        raise ValueError(
            f"cannot place {num_shards} shards on a topology with "
            f"{len(transit)} transit nodes"
        )
    if len(transit) < 2:
        raise ValueError(
            "a replicated cluster needs at least two transit nodes "
            f"(got {len(transit)})"
        )
    homes = transit[:num_shards]
    home_set = set(homes)
    standby_map: Dict[int, List[int]] = {}
    for k, home in enumerate(homes):
        ranked = topology.replica_candidates(home, len(transit) - 1)
        preferred = [n for n in ranked if n not in home_set]
        fallback = [n for n in ranked if n in home_set]
        if preferred:
            # Rotate by shard id so co-ranked shards spread their
            # first-choice standby instead of all promoting onto the
            # same node after a correlated failure.
            shift = k % len(preferred)
            preferred = preferred[shift:] + preferred[:shift]
        standby_map[k] = (preferred + fallback)[:standby_count]
    loads = shard_map.shard_loads()
    busiest = max(range(num_shards), key=lambda s: (loads[s], -s))
    kills: Tuple[BrokerKill, ...] = ()
    outages: Tuple[LinkOutage, ...] = ()
    planned: List[PlannedMigration] = []
    if scenario == "kill":
        kills = (BrokerKill(node=homes[busiest], at=0.4 * horizon),)
    elif scenario == "partition":
        outages = tuple(
            LinkOutage(
                u=homes[busiest],
                v=int(n),
                start=0.35 * horizon,
                end=0.7 * horizon,
            )
            for n in sorted(topology.graph.neighbors(homes[busiest]))
        )
    elif scenario == "double-kill":
        ranked_shards = sorted(
            range(num_shards), key=lambda s: (-loads[s], s)
        )
        if len(ranked_shards) < 2:
            raise ValueError(
                "double-kill needs at least two shards "
                f"(got {num_shards})"
            )
        kills = (
            BrokerKill(node=homes[ranked_shards[0]], at=0.4 * horizon),
            BrokerKill(node=homes[ranked_shards[1]], at=0.55 * horizon),
        )
    else:  # migrate-under-kill
        subsets = shard_map.subsets_of(busiest)
        q = max(subsets, key=lambda s: (shard_map.load_of_subset(s), -s))
        others = [s for s in range(num_shards) if s != busiest]
        if not others:
            raise ValueError(
                "migrate-under-kill needs at least two shards "
                f"(got {num_shards})"
            )
        dest = min(others, key=lambda s: (loads[s], s))
        at = 0.35 * horizon
        planned = [
            PlannedMigration(at=at, q=q, dest=dest, copy_time=copy_time)
        ]
        kills = (
            BrokerKill(node=homes[busiest], at=at + copy_time / 2.0),
        )
    corruptions = (StandbyWALCorruption(at=0.25 * horizon, shard=busiest),)
    plan = FaultPlan(
        seed=seed,
        default_loss=loss,
        default_duplicate=duplicate,
        default_delay=delay,
        outages=outages,
        broker_kills=kills,
    )
    return plan, homes, standby_map, planned, corruptions
