"""Failover under chaos: replication, verified end to end.

:class:`FailoverChaosSimulation` extends the chaos harness with a
*replicated* home broker service: the primary journals every mutation
and ships the WAL to ranked standbys via a
:class:`~repro.replication.group.ReplicatedBrokerGroup` riding the
same fault-injected packet network as the workload.  The adversary is
sharper than the crash-recovery harness's: a
:class:`~repro.faults.plan.BrokerKill` is *permanent* — the primary
never comes back, so the only road to availability is a standby
takeover — and partition windows can isolate a perfectly healthy
primary, manufacturing the zombie that epoch fencing exists for.

The event-outcome ledger closes the accounting loop.  Every published
event ends in exactly one bucket:

- **delivered** — a live primary serviced it (matched, routed, and the
  reliable protocol carried it to every interested subscriber);
- **shed** — it arrived while no primary was serviceable and the
  bounded defer queue was full;
- **expired** — it waited in the defer queue longer than its TTL (or
  the run ended with no primary ever taking over).

``delivered + shed + expired == published`` must hold, the delivery
ledger must show **zero duplicates** across every takeover (receiver
dedup + epoch fencing), and a post-takeover write probe at the
ex-primary must be rejected — the three acceptance criteria of the
replication design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..durability.recovery import RecoveredState
from ..overload.breaker import BreakerBoard, BreakerConfig
from ..replication.group import ReplicatedBrokerGroup, ReplicationStats
from ..replication.shipping import ShippingConfig, ShippingStats
from ..telemetry.base import Telemetry
from .harness import SETTLE, BalancedOutcomes
from .plan import FaultPlan, LinkOutage, BrokerKill
from .verifier import ChaosReport, ChaosSimulation

__all__ = [
    "FailoverStats",
    "FailoverReport",
    "FailoverChaosSimulation",
    "build_failover_plan",
]


@dataclass
class FailoverStats(BalancedOutcomes):
    """Per-event outcome accounting plus takeover bookkeeping."""

    published: int = 0
    delivered_events: int = 0
    shed_events: int = 0
    expired_events: int = 0
    #: Events that spent time in the defer queue (any outcome).
    deferred_events: int = 0
    #: In-flight (event, target) deliveries wiped at primary loss.
    wiped_inflight: int = 0
    #: (event, target) deliveries re-handed after a takeover.
    redelivered: int = 0
    #: Post-takeover write probes rejected at the ex-primary.
    probe_rejections: int = 0
    #: Post-takeover write probes admitted at the new primary.
    probe_admissions: int = 0


@dataclass
class FailoverReport(ChaosReport):
    """A chaos report plus the replication ledger of the run."""

    replication: ReplicationStats = field(default_factory=ReplicationStats)
    shipping: ShippingStats = field(default_factory=ShippingStats)
    failover: FailoverStats = field(default_factory=FailoverStats)

    def summary_rows(self) -> List[Tuple[str, object]]:
        rows = super().summary_rows()
        r, s, f = self.replication, self.shipping, self.failover
        rows.extend(
            [
                ("failovers", r.failovers),
                ("final epoch", r.final_epoch),
                ("stale-epoch rejections", r.stale_rejections),
                ("fenced writes rejected", r.fenced_writes),
                ("shipping batches", s.batches),
                ("ops shipped", s.ops_shipped),
                ("catch-up transfers", s.catchups),
                ("shipping backpressure skips", s.backpressure_skips),
                ("events delivered", f.delivered_events),
                ("events shed", f.shed_events),
                ("events expired", f.expired_events),
                ("outcome ledger balanced", "yes" if f.accounted else "NO"),
                ("in-flight wiped at failover", f.wiped_inflight),
                ("redelivered after takeover", f.redelivered),
            ]
        )
        return rows


class FailoverChaosSimulation(ChaosSimulation):
    """A chaos run whose home broker survives *permanent* loss.

    ``broker`` must be churn-capable (a :class:`~repro.core.dynamic.
    DynamicPubSubBroker`): takeover rebuilds its engine through the
    same dynamic machinery recovery uses.  ``primary`` defaults to the
    node of the plan's first :class:`~repro.faults.plan.BrokerKill`;
    ``standbys`` is the ranked candidate list (see
    :meth:`~repro.network.topology.Topology.replica_candidates`).
    Events arriving while no primary is serviceable wait in the
    harness's defer queue.
    """

    OUTCOME_METRIC = (
        "failover.outcomes",
        "per-event outcomes under failover chaos",
    )

    def __init__(
        self,
        broker,
        plan: FaultPlan,
        standbys: Sequence[int],
        primary: Optional[int] = None,
        shipping: Optional[ShippingConfig] = None,
        checkpoint_every: int = 64,
        telemetry: Optional[Telemetry] = None,
    ):
        if not hasattr(broker, "attach_journal"):
            raise TypeError(
                "FailoverChaosSimulation needs a churn-capable broker "
                "(DynamicPubSubBroker); got "
                f"{type(broker).__name__}"
            )
        super().__init__(broker, plan, reliable=True, telemetry=telemetry)
        if primary is None:
            if not plan.broker_kills:
                raise ValueError(
                    "no broker kills in the plan and no primary given; "
                    "nothing to fail over from"
                )
            primary = plan.broker_kills[0].node
        self.fstats = FailoverStats()
        self.shipping_breakers = BreakerBoard(
            BreakerConfig(failure_threshold=3, reset_timeout=120.0)
        )
        self.group = ReplicatedBrokerGroup(
            broker,
            int(primary),
            standbys,
            self.simulator,
            send=self._ship,
            shipping=shipping,
            alive=lambda node, time: not self.injector.node_down(node, time),
            checkpoint_every=checkpoint_every,
            breakers=self.shipping_breakers,
            telemetry=telemetry,
            on_takeover=self._taken_over,
        )
        # The reliable transport learns about takeovers through the
        # epoch directory: retries addressed to a deposed primary
        # migrate to its successor instead of burning their budget.
        self.transport.directory = self.group.directory
        # Delivery completions journal at whichever journal is current
        # — it swaps at takeover, so resolve it per ack, not at bind.
        self.transport.on_ack = lambda target, key, time: (
            self.group.journal.log_delivery(key, target)
        )
        # Bootstrap checkpoint: the preprocessed state becomes snapshot
        # 0 and ships to every standby eagerly, so takeover is possible
        # from the first tick onward.
        self.group.journal.checkpoint()

    # -- replication transport over the chaos network ------------------------

    def _ship(self, source: int, target: int, payload: Dict) -> None:
        """One replication message over the fault-injected network.

        The payload rides a closure (the packet network carries no
        bytes); injected loss, outages, kills and partitions apply to
        every hop, which is exactly how a zombie primary gets starved
        of the acks that would have told it the truth.
        """
        self.network.send_unicast(
            source,
            target,
            lambda node, time, p=payload: self.group.deliver(node, p, time),
        )

    # -- hook overrides ------------------------------------------------------

    def _arm(self, last_arrival: float) -> None:
        # Scheduled before the workload, so at equal times kills take
        # effect before an event arriving at the same instant.
        for kill in self.plan.broker_kills:
            self.simulator.schedule_at(
                float(kill.at), lambda k=kill: self._kill(k.node)
            )
        self.group.start(last_arrival + SETTLE)

    def _record_intent(
        self,
        sequence: int,
        publisher: int,
        recipients: Sequence[int],
        method: str,
        group: int,
    ) -> None:
        self.group.journal.log_publish(
            sequence, publisher, recipients, method=method, group=group
        )

    def _publish_event(self, sequence: int) -> None:
        if self._home_unserviceable(self.group.primary, self.simulator.now):
            self._defer(sequence)
            return
        self._finish(sequence, "delivered")
        super()._publish_event(sequence)

    def _serve_deferred(self, sequence: int) -> bool:
        self._finish(sequence, "delivered")
        ChaosSimulation._publish_event(self, sequence)
        return True

    # -- failover plumbing ---------------------------------------------------

    def _kill(self, node: int) -> None:
        node = int(node)
        self.group.mark_dead(node)
        if node == self.group.primary:
            # The service's volatile sender-side state dies with its
            # host; what survives is the journal — on the standbys.
            wiped = self.transport.wipe_pending()
            self.fstats.wiped_inflight += len(wiped)
        if self.telemetry.enabled:
            self.telemetry.event("broker-kill", node=node)

    def _taken_over(
        self, state: RecoveredState, old: int, new: int, now: float
    ) -> None:
        # Partition takeover: the deposed primary may still hold
        # sender-side retry state it has no authority to finish.
        wiped = self.transport.wipe_pending()
        self.fstats.wiped_inflight += len(wiped)
        # Unacked in-flight deliveries, reconstructed from the shipped
        # WAL, go back out with the new primary as the sender.
        # Receivers that got the data before the failover dedup and
        # re-ack, so the exactly-once ledger holds across the takeover.
        for entry in state.inflight.values():
            if entry.targets:
                self.transport.publish(
                    entry.sequence, new, list(entry.targets)
                )
                self.fstats.redelivered += len(entry.targets)
        # The split-brain probe: a write stamped with the new epoch
        # must be admitted by the new primary and rejected by the old
        # one, alive or not.
        if self.group.write_allowed(new):
            self.fstats.probe_admissions += 1
        if not self.group.write_allowed(old):
            self.fstats.probe_rejections += 1
        self._flush_deferred()

    # -- reporting -----------------------------------------------------------

    def run(
        self,
        points: np.ndarray,
        publishers: Sequence[int],
        inter_arrival: float = 1.0,
        arrival_times: Optional[Sequence[float]] = None,
    ) -> FailoverReport:
        base = super().run(points, publishers, inter_arrival, arrival_times)
        self._expire_deferred()
        self.fstats.tally(base.events, self._outcome_counts())
        self.fstats.deferred_events = self.deferred_count
        return FailoverReport(
            **vars(base),
            replication=self.group.finalize_stats(),
            shipping=self.group.shipping_stats(),
            failover=self.fstats,
        )


def build_failover_plan(
    topology,
    seed: int = 2003,
    loss: float = 0.05,
    duplicate: float = 0.0,
    delay: float = 0.0,
    scenario: str = "kill",
    horizon: float = 500.0,
    standby_count: int = 2,
) -> Tuple[FaultPlan, int, List[int]]:
    """A plan plus replica placement for one failover scenario.

    The primary is a transit node drawn deterministically from
    ``seed``; ``standby_count`` ranked standbys come from
    :meth:`~repro.network.topology.Topology.replica_candidates`.

    ``scenario``:

    - ``"kill"`` — the primary is permanently killed at 40% of the
      horizon; the clean takeover path.
    - ``"partition"`` — every link incident to the primary is dead
      during ``[0.35, 0.7) * horizon``.  The primary survives as a
      zombie: standbys take over behind its back, and when the
      partition heals its stale traffic gets it fenced.
    - ``"catchup"`` — the top-ranked standby is isolated during
      ``[0.2, 0.5) * horizon`` (falling behind the shipping stream),
      then the primary is killed at 60%.  Pair with a small
      ``ShippingConfig.retain_ops`` so the takeover must come from an
      anti-entropy snapshot catch-up, not the incremental stream.

    Returns ``(plan, primary, standbys)``.
    """
    if scenario not in ("kill", "partition", "catchup"):
        raise ValueError(
            "scenario must be 'kill', 'partition' or 'catchup' "
            f"(got {scenario!r})"
        )
    rng = np.random.default_rng(seed + 41)
    transit = topology.all_transit_nodes()
    primary = int(transit[int(rng.integers(len(transit)))])
    standbys = topology.replica_candidates(primary, standby_count)
    kills: Tuple[BrokerKill, ...] = ()
    outages: Tuple[LinkOutage, ...] = ()
    if scenario == "kill":
        kills = (BrokerKill(node=primary, at=0.4 * horizon),)
    elif scenario == "partition":
        outages = tuple(
            LinkOutage(
                u=primary,
                v=int(neighbor),
                start=0.35 * horizon,
                end=0.7 * horizon,
            )
            for neighbor in topology.graph.neighbors(primary)
        )
    else:  # catchup
        laggard = standbys[0]
        outages = tuple(
            LinkOutage(
                u=laggard,
                v=int(neighbor),
                start=0.2 * horizon,
                end=0.5 * horizon,
            )
            for neighbor in topology.graph.neighbors(laggard)
        )
        kills = (BrokerKill(node=primary, at=0.6 * horizon),)
    plan = FaultPlan(
        seed=seed,
        default_loss=loss,
        default_duplicate=duplicate,
        default_delay=delay,
        outages=outages,
        broker_kills=kills,
    )
    return plan, primary, standbys
