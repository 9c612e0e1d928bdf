"""Sharded chaos: shard kills and mid-migration crashes, verified.

:class:`ShardedChaosSimulation` replays a workload through the full
scale-out stack: every publication resolves to its owning shard via
the :class:`~repro.sharding.router.ShardRouter` (with a routing hop of
``ROUTE_DELAY``, so a publication can be *in flight* when ownership
changes under it), gets matched by the shard's scattered subscription
slice, and rides the reliable transport from the shard's home node.

The adversary kills shard homes permanently and crashes migrations
between their journaled phases.  The defenses under test:

- **epoch fencing** — a publication stamped with a stale shard-map
  epoch that reaches the old owner after a cutover bounces and
  re-routes to the current owner;
- **rebalancing** — a dead shard's subsets migrate to the survivors
  (durability snapshot handoff + journaled cutover), its catchall
  cells redistribute by consistent-hash exclusion, and deferred
  publications flush to the new owners;
- **re-hand** — unacked in-flight deliveries whose sending shard died
  are re-published by the new owner; receiver dedup keeps the wire
  exactly-once.

Every published event lands in exactly one outcome bucket —
**delivered** (serviced by a live owner), **shed** (defer queue full),
or **expired** (TTL lapsed / never found an owner) — and
``delivered + shed + expired == published`` must hold with **zero
duplicate deliveries**.  On top of the ledger, the run proves
*determinism*: each serviced event's shard-local
:class:`~repro.core.matching.MatchResult` must equal the unsharded
broker's, pinned by a BLAKE2b digest over the per-event results
(compare against :func:`unsharded_match_digest`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.distribution import DeliveryMethod
from ..core.event import Event
from ..io import canonical_digest
from ..sharding.map import ShardMap
from ..sharding.rebalance import MigrationPhase, MigrationTicket, Rebalancer
from ..sharding.router import ShardRouter
from ..telemetry.base import Telemetry
from .harness import BalancedOutcomes
from .plan import BrokerKill, FaultPlan
from .verifier import ChaosReport, ChaosSimulation

__all__ = [
    "PlannedMigration",
    "ShardedStats",
    "ShardedReport",
    "ShardedChaosSimulation",
    "build_sharded_plan",
    "unsharded_match_digest",
]

#: Routing hop from publisher to shard: a publication is in flight this
#: long, so ownership can change under it.
ROUTE_DELAY = 0.5
#: Delay between a shard's death and the rebalance of its subsets.
REBALANCE_DELAY = 30.0


@dataclass(frozen=True)
class PlannedMigration:
    """One scheduled live migration: begin at ``at``, cut over after
    ``copy_time`` (the window mid-migration crashes aim for)."""

    at: float
    q: int
    dest: int
    copy_time: float = 20.0


@dataclass
class ShardedStats(BalancedOutcomes):
    """Per-event outcome accounting plus scale-out bookkeeping."""

    published: int = 0
    delivered_events: int = 0
    shed_events: int = 0
    expired_events: int = 0
    #: Events that spent time in the defer queue (any outcome).
    deferred_events: int = 0
    #: Stale-epoch publications bounced by a live old owner.
    fenced_publishes: int = 0
    #: Publications re-routed after arriving at a non-owner.
    rerouted: int = 0
    #: In-flight (event, target) deliveries wiped at a shard kill.
    wiped_inflight: int = 0
    #: (event, target) deliveries re-handed by a new owner.
    redelivered: int = 0
    #: Dead-shard rebalances executed.
    rebalances: int = 0
    shard_kills: int = 0
    #: Live shards evacuated because a kill partitioned them away.
    stranded_shards: int = 0
    migrations_completed: int = 0
    migrations_aborted: int = 0
    #: max/mean planned shard load at run end.
    imbalance: float = 0.0
    #: Missing deliveries whose target is physically unreachable — its
    #: only attachment to the network died with a shard home.  Killing
    #: a transit node disconnects its stub domains; no protocol can
    #: deliver to them, so these misses are *explained* losses.
    stranded_misses: int = 0
    #: Missing deliveries to targets still reachable from a live home —
    #: always a protocol bug; must be zero.
    unexplained_misses: int = 0
    #: Every serviced event matched exactly as the unsharded broker.
    match_parity: bool = True
    #: BLAKE2b digest over per-event MatchResults (determinism pin).
    match_digest: str = ""


@dataclass
class ShardedReport(ChaosReport):
    """A chaos report plus the sharding ledger of the run."""

    sharded: ShardedStats = field(default_factory=ShardedStats)
    num_shards: int = 0
    final_epoch: int = 0
    routed_per_shard: Dict[int, int] = field(default_factory=dict)

    def summary_rows(self) -> List[Tuple[str, object]]:
        rows = super().summary_rows()
        s = self.sharded
        rows.extend(
            [
                ("shards", self.num_shards),
                ("final map epoch", self.final_epoch),
                (
                    "routed per shard",
                    " ".join(
                        f"{k}:{self.routed_per_shard.get(k, 0)}"
                        for k in range(self.num_shards)
                    ),
                ),
                ("shard imbalance", f"{s.imbalance:.3f}"),
                ("events delivered", s.delivered_events),
                ("events shed", s.shed_events),
                ("events expired", s.expired_events),
                ("outcome ledger balanced", "yes" if s.accounted else "NO"),
                ("fenced stale publishes", s.fenced_publishes),
                ("rerouted publishes", s.rerouted),
                ("shard kills", s.shard_kills),
                ("shards stranded by partition", s.stranded_shards),
                ("rebalances", s.rebalances),
                ("migrations completed", s.migrations_completed),
                ("migrations aborted", s.migrations_aborted),
                ("in-flight wiped at kill", s.wiped_inflight),
                ("redelivered by new owner", s.redelivered),
                ("misses to stranded nodes", s.stranded_misses),
                ("unexplained misses", s.unexplained_misses),
                ("match parity vs unsharded", "yes" if s.match_parity else "NO"),
                ("match digest", s.match_digest),
            ]
        )
        return rows


def unsharded_match_digest(
    broker,
    points: np.ndarray,
    sequences: Sequence[int],
) -> str:
    """The digest a single unsharded broker produces for ``sequences``.

    Matches :attr:`ShardedStats.match_digest` exactly when every
    shard-local MatchResult equals the global one — the acceptance
    criterion for routing + scatter correctness.
    """
    points = np.asarray(points, dtype=np.float64)
    items: List[List[object]] = []
    for sequence in sorted(int(s) for s in sequences):
        event = Event.create(sequence, 0, points[sequence])
        match = broker.engine.match(event)
        q = broker.partition.locate(event.point)
        items.append(
            [
                sequence,
                sorted(int(i) for i in match.subscription_ids),
                [int(n) for n in match.subscribers],
                int(q),
            ]
        )
    return canonical_digest(items)


class ShardedChaosSimulation(ChaosSimulation):
    """A chaos run over K shard brokers with live rebalancing.

    Shard homes default to the first ``num_shards`` transit nodes (in
    node order); a :class:`~repro.faults.plan.BrokerKill` at a home
    kills its shard permanently.  ``migrations`` schedules live subset
    migrations (see :class:`PlannedMigration`); kills landing between
    a migration's begin and cutover exercise the journal's
    roll-forward/roll-back semantics.  Publications addressed to a
    dead shard wait in the harness's defer queue.
    """

    OUTCOME_METRIC = (
        "sharding.outcomes",
        "per-event outcomes under sharded chaos",
    )

    def __init__(
        self,
        broker,
        plan: FaultPlan,
        num_shards: int = 4,
        shard_homes: Optional[Sequence[int]] = None,
        migrations: Sequence[PlannedMigration] = (),
        telemetry: Optional[Telemetry] = None,
    ):
        super().__init__(broker, plan, reliable=True, telemetry=telemetry)
        transit = sorted(int(n) for n in broker.topology.all_transit_nodes())
        if shard_homes is None:
            if num_shards > len(transit):
                raise ValueError(
                    f"cannot place {num_shards} shards on a topology with "
                    f"{len(transit)} transit nodes"
                )
            shard_homes = transit[:num_shards]
        if len(shard_homes) != num_shards:
            raise ValueError("one home node per shard required")
        self.homes: Dict[int, int] = {
            k: int(shard_homes[k]) for k in range(num_shards)
        }
        self.home_to_shard = {home: k for k, home in self.homes.items()}
        self.map = ShardMap.plan(broker.partition, num_shards)
        self.router = ShardRouter(
            broker, self.map, homes=self.homes, telemetry=telemetry
        )
        self.rebalancer = Rebalancer(
            self.router,
            clock=lambda: self.simulator.now,
            telemetry=telemetry,
        )
        self.planned = tuple(migrations)
        self.sstats = ShardedStats()
        self.routed_per_shard: Dict[int, int] = {
            k: 0 for k in range(num_shards)
        }
        self._dead: Set[int] = set()
        #: sequence -> (global ids, subscribers, q, shard) at service.
        self._records: Dict[
            int, Tuple[Tuple[int, ...], Tuple[int, ...], int, int]
        ] = {}
        #: sequence -> (q, catchall cell or None) for owner recomputation.
        self._routing: Dict[int, Tuple[int, Optional[Tuple[int, ...]]]] = {}
        self._sender_shard: Dict[int, int] = {}
        self._pending_of: Dict[int, Set[int]] = {}
        self._orphans: Dict[int, Set[int]] = {}
        self.transport.on_ack = self._on_ack

    # -- bookkeeping ---------------------------------------------------------

    def _on_ack(self, target: int, key: int, time: float) -> None:
        pending = self._pending_of.get(key)
        if pending is not None:
            pending.discard(int(target))

    # -- hook overrides ------------------------------------------------------

    def _arm(self, last_arrival: float) -> None:
        for kill in self.plan.broker_kills:
            shard = self.home_to_shard.get(int(kill.node))
            if shard is not None:
                self.simulator.schedule_at(
                    float(kill.at), lambda s=shard: self._kill_shard(s)
                )
        for planned in self.planned:
            self.simulator.schedule_at(
                float(planned.at),
                lambda p=planned: self._begin_planned(p),
            )

    def _publish_event(self, sequence: int) -> None:
        # The router resolves immediately; the publication then spends
        # ROUTE_DELAY in flight, so a cutover can depose the addressed
        # shard before arrival.
        q, shard = self.router.resolve(self._points[sequence])
        self.simulator.schedule_at(
            self.simulator.now + ROUTE_DELAY,
            lambda: self._arrive(sequence, q, shard),
        )

    # -- arrival, fencing, service -------------------------------------------

    def _unavailable(self, shard: int) -> bool:
        """Whether the owning shard cannot serve right now."""
        return shard in self._dead

    def _arrive(self, sequence: int, q: int, shard: int) -> None:
        current_q, current = self.router.resolve(self._points[sequence])
        if current != shard:
            # Stale routing: ownership moved while the publication was
            # in flight.  A live old owner fences it (its epoch is
            # below the map's); either way it re-routes.
            if shard not in self._dead:
                self.sstats.fenced_publishes += 1
                if self.telemetry.enabled:
                    self.telemetry.counter(
                        "sharding.fenced",
                        help="stale-epoch publishes bounced by old owners",
                    ).inc()
            self.sstats.rerouted += 1
            self._arrive(sequence, current_q, current)
            return
        if self._unavailable(shard):
            self._defer(sequence)
            return
        self._finish(sequence, "delivered")
        self._serve(sequence, q, shard)

    def _serve_deferred(self, sequence: int) -> bool:
        q, shard = self.router.resolve(self._points[sequence])
        if self._unavailable(shard):
            return False
        self._finish(sequence, "delivered")
        self._serve(sequence, q, shard)
        return True

    def _serve(self, sequence: int, q: int, shard: int) -> None:
        point = self._points[sequence]
        event = Event.create(sequence, self._publishers[sequence], point)
        match = self.router.shards[shard].match(event)
        self._records[sequence] = (
            match.subscription_ids,
            match.subscribers,
            q,
            shard,
        )
        cell = self.router.catchall_cell(point) if q == 0 else None
        self._routing[sequence] = (q, cell)
        self.routed_per_shard[shard] += 1
        decision = self._decide(match, q)
        if decision.method is DeliveryMethod.NOT_SENT:
            self._counters["not_sent"] += 1
            return
        recipients = self._expect(
            sequence, event.publisher, match, decision, q
        )
        if not recipients:
            return
        self._sender_shard[sequence] = shard
        self._pending_of[sequence] = set(recipients)
        group = None
        if decision.method is not DeliveryMethod.UNICAST:
            group = self.broker.partition.group(q).members
        self._counters["unicast" if group is None else "multicast"] += 1
        self._route(
            sequence, self.homes[shard], recipients, group, set(recipients)
        )

    # -- kills, rebalance, re-hand -------------------------------------------

    def _kill_shard(self, shard: int) -> None:
        shard = int(shard)
        if shard in self._dead:
            return
        self._dead.add(shard)
        self.sstats.shard_kills += 1
        if self.telemetry.enabled:
            self.telemetry.event("shard-kill", shard=shard)
        # A kill can partition the network: a *live* shard whose home
        # ends up cut off from the majority component can no longer
        # reach most subscribers, so the failure detector declares it
        # stranded and it gets evacuated exactly like a dead one.
        newly = [shard] + self._cascade_stranded()
        # The dead homes' volatile sender-side retry state is gone;
        # wipe the transport, then re-arm entries whose owning shard is
        # still alive (their durable intent survives on a live home).
        wiped = self.transport.wipe_pending()
        self.sstats.wiped_inflight += sum(
            1
            for key, _target in wiped
            if self._sender_shard.get(key) in self._dead
        )
        for key in sorted(self._pending_of):
            pending = self._pending_of[key]
            if not pending:
                continue
            owner = self._sender_shard.get(key)
            if owner is None:
                continue
            if owner in self._dead:
                self._orphans[key] = set(pending)
            else:
                self.transport.publish(
                    key, self.homes[owner], sorted(pending)
                )
        for dead in newly:
            self.simulator.schedule_at(
                self.simulator.now + REBALANCE_DELAY,
                lambda s=dead: self._rebalance_away(s),
            )

    def _cascade_stranded(self) -> List[int]:
        """Live shards partitioned away from the majority component.

        The surviving graph (dead homes removed) splits into
        components; the one holding the most live shard homes (ties:
        larger, then lowest node) is the majority.  Live shards outside
        it are marked dead and returned for evacuation.
        """
        live = [
            s for s in range(self.map.num_shards) if s not in self._dead
        ]
        if not live:
            return []
        majority = self._majority(
            self._components(self.homes[s] for s in self._dead),
            [self.homes[s] for s in live],
        )
        if not majority:
            return []
        stranded = [s for s in live if self.homes[s] not in majority]
        for s in stranded:
            self._dead.add(s)
            self.sstats.stranded_shards += 1
            if self.telemetry.enabled:
                self.telemetry.event("shard-stranded", shard=s)
        return stranded

    def _rebalance_away(self, shard: int) -> None:
        live = [
            s for s in range(self.map.num_shards) if s not in self._dead
        ]
        if not live:
            return  # nothing to inherit; everything defers until expiry
        # Catchall cells redistribute by ring exclusion; the survivors
        # re-scatter so their matching stays exact for inherited cells.
        self.router.mark_down(shard)
        # Subsets leave through the journaled migration protocol.  The
        # handoff snapshot comes from the dead shard's durable
        # checkpoint (its in-memory copy stands in for it here).
        while True:
            pick = self.rebalancer.propose(shard, exclude=self._dead)
            if pick is None:
                break
            q, dest = pick
            self.rebalancer.migrate(q, dest)
        self.sstats.rebalances += 1
        self._rehand_orphans()
        self._flush_deferred()

    def _owner_now(self, sequence: int) -> Optional[int]:
        q, cell = self._routing[sequence]
        if q > 0:
            return self.map.owner_of_subset(q)
        try:
            return self.map.owner_of_cell(cell, exclude=self.router.down)
        except ValueError:
            return None

    def _rehand_orphans(self) -> None:
        remaining: Dict[int, Set[int]] = {}
        for key in sorted(self._orphans):
            pending = self._pending_of.get(key, set())
            if not pending:
                continue
            owner = self._owner_now(key)
            if owner is None or owner in self._dead:
                remaining[key] = set(pending)
                continue
            # Receivers that got the data before the kill dedup and
            # re-ack, so the exactly-once ledger holds across re-hand.
            self._sender_shard[key] = owner
            self.transport.publish(key, self.homes[owner], sorted(pending))
            self.sstats.redelivered += len(pending)
            if self.telemetry.enabled:
                self.telemetry.counter(
                    "sharding.redelivered",
                    help="in-flight deliveries re-handed by a new owner",
                ).inc(len(pending))
        self._orphans = remaining

    # -- planned migrations ---------------------------------------------------

    def _begin_planned(self, planned: PlannedMigration) -> None:
        try:
            source = self.map.owner_of_subset(planned.q)
        except ValueError:
            return
        if (
            source == planned.dest
            or source in self._dead
            or planned.dest in self._dead
        ):
            return
        ticket = self.rebalancer.begin(planned.q, planned.dest)
        self.simulator.schedule_at(
            self.simulator.now + planned.copy_time,
            lambda t=ticket: self._complete_planned(t),
        )

    def _complete_planned(self, ticket: MigrationTicket) -> None:
        if ticket.phase is not MigrationPhase.COPYING:
            return  # recovery or a rebalance already resolved it
        if (
            ticket.dest in self._dead
            or self.map.owner_of_subset(ticket.q) != ticket.source
        ):
            # Destination died mid-copy, or a dead-shard rebalance
            # already moved the subset: the copy rolls back.
            self.rebalancer.abort(ticket)
            return
        self.rebalancer.cutover(ticket)
        self.rebalancer.finish(ticket)
        self._flush_deferred()

    # -- reporting -----------------------------------------------------------

    def run(
        self,
        points: np.ndarray,
        publishers: Sequence[int],
        inter_arrival: float = 1.0,
        arrival_times: Optional[Sequence[float]] = None,
    ) -> ShardedReport:
        base = super().run(points, publishers, inter_arrival, arrival_times)
        self._expire_deferred()
        self.sstats.tally(base.events, self._outcome_counts())
        self.sstats.deferred_events = self.deferred_count
        self.sstats.migrations_completed = self.rebalancer.completed
        self.sstats.migrations_aborted = self.rebalancer.aborted
        self.sstats.imbalance = self.map.imbalance()
        # Classify delivery misses: a target disconnected from every
        # live home by a killed transit node is an *explained* loss
        # (its only link died — see ShardedStats.stranded_misses); a
        # miss to a still-reachable target is a protocol bug.
        reachable: Set[int] = set()
        if base.missing:
            reachable = self._reachable(
                self._components(self._severed()),
                (
                    self.homes[s]
                    for s in range(self.map.num_shards)
                    if s not in self._dead
                ),
            )
        for _sequence, target, _reason in base.missing:
            if int(target) in reachable:
                self.sstats.unexplained_misses += 1
            else:
                self.sstats.stranded_misses += 1
        if self.telemetry.enabled:
            self.telemetry.gauge(
                "sharding.imbalance",
                help="max/mean planned shard load",
            ).set(self.sstats.imbalance)
        # Determinism pin: each serviced event's shard-local match must
        # equal the unsharded broker's, digest-for-digest.
        points = self._points
        items: List[List[object]] = []
        parity = True
        for sequence in sorted(self._records):
            gids, subscribers, q, _shard = self._records[sequence]
            event = Event.create(sequence, 0, points[sequence])
            reference = self.broker.engine.match(event)
            if list(gids) != sorted(
                int(i) for i in reference.subscription_ids
            ) or tuple(subscribers) != tuple(reference.subscribers):
                parity = False
            items.append(
                [
                    int(sequence),
                    [int(i) for i in gids],
                    [int(n) for n in subscribers],
                    int(q),
                ]
            )
        self.sstats.match_parity = parity
        self.sstats.match_digest = canonical_digest(items)
        return ShardedReport(
            **vars(base),
            sharded=self.sstats,
            num_shards=self.map.num_shards,
            final_epoch=self.map.epoch,
            routed_per_shard=dict(self.routed_per_shard),
        )

    def _severed(self) -> List[int]:
        """Nodes whose death cuts targets off: the dead shards' homes."""
        return [self.homes[s] for s in self._dead]

    @property
    def serviced_sequences(self) -> List[int]:
        """Sequences that reached a shard's matcher (digest domain)."""
        return sorted(self._records)


def build_sharded_plan(
    topology,
    shard_map: ShardMap,
    seed: int = 2003,
    loss: float = 0.05,
    duplicate: float = 0.0,
    delay: float = 0.0,
    scenario: str = "clean",
    horizon: float = 500.0,
    migrations: int = 2,
    copy_time: float = 20.0,
) -> Tuple[FaultPlan, List[int], List[PlannedMigration]]:
    """A plan, shard placement, and migration schedule for one scenario.

    Shard homes are the first K transit nodes (node order — the same
    default the harness applies).  ``scenario``:

    - ``"clean"`` — link loss only, plus ``migrations`` live subset
      migrations spread over the horizon (heaviest subsets first, each
      to the initially least-loaded other shard).
    - ``"shard-kill"`` — the most-loaded shard's home is permanently
      killed at 40% of the horizon; the survivors must rebalance.
    - ``"migration-crash"`` — one migration begins at 35% of the
      horizon and its *source* home is killed halfway through the
      copy: the journaled cutover must roll forward onto the
      destination while the rest of the dead shard rebalances.

    Returns ``(plan, homes, planned_migrations)``.
    """
    if scenario not in ("clean", "shard-kill", "migration-crash"):
        raise ValueError(
            "scenario must be 'clean', 'shard-kill' or 'migration-crash' "
            f"(got {scenario!r})"
        )
    transit = sorted(int(n) for n in topology.all_transit_nodes())
    num_shards = shard_map.num_shards
    if num_shards > len(transit):
        raise ValueError(
            f"cannot place {num_shards} shards on a topology with "
            f"{len(transit)} transit nodes"
        )
    homes = transit[:num_shards]
    loads = shard_map.shard_loads()
    busiest = max(range(num_shards), key=lambda s: (loads[s], -s))
    kills: Tuple[BrokerKill, ...] = ()
    planned: List[PlannedMigration] = []
    if scenario == "clean":
        ranked = sorted(
            (
                q
                for shard in range(num_shards)
                for q in shard_map.subsets_of(shard)
            ),
            key=lambda q: (-shard_map.load_of_subset(q), q),
        )
        for q in ranked:
            if len(planned) >= migrations:
                break
            owner = shard_map.owner_of_subset(q)
            others = [s for s in range(num_shards) if s != owner]
            if not others:
                break
            dest = min(others, key=lambda s: (loads[s], s))
            at = horizon * (len(planned) + 1) / (migrations + 1)
            planned.append(
                PlannedMigration(at=at, q=q, dest=dest, copy_time=copy_time)
            )
    elif scenario == "shard-kill":
        kills = (BrokerKill(node=homes[busiest], at=0.4 * horizon),)
    else:  # migration-crash
        subsets = shard_map.subsets_of(busiest)
        q = max(subsets, key=lambda s: (shard_map.load_of_subset(s), -s))
        others = [s for s in range(num_shards) if s != busiest]
        dest = min(others, key=lambda s: (loads[s], s))
        at = 0.35 * horizon
        planned = [
            PlannedMigration(at=at, q=q, dest=dest, copy_time=copy_time)
        ]
        kills = (
            BrokerKill(node=homes[busiest], at=at + copy_time / 2.0),
        )
    plan = FaultPlan(
        seed=seed,
        default_loss=loss,
        default_duplicate=duplicate,
        default_delay=delay,
        broker_kills=kills,
    )
    return plan, homes, planned
