"""Crash recovery under chaos: the durability stack, verified end to end.

:class:`CrashRecoverySimulation` extends the chaos harness with one
*home* broker — the node running the matching/routing service — whose
durable state lives in a :class:`~repro.durability.wal.WriteAheadLog`
and a :class:`~repro.durability.snapshot.SnapshotStore` via a
:class:`~repro.durability.journal.BrokerJournal`.  The harness models
a logically centralized broker service: subscription churn, publish
intents and delivery completions are journaled service-side, and the
home node's :class:`~repro.faults.plan.BrokerCrash` windows crash the
*service*:

- at window **start** the service loses its volatile state — every
  in-flight delivery is wiped from the reliable transport (no
  give-ups fire; the sender simply ceased to exist) and any
  :class:`~repro.faults.plan.WalCorruption` riding on the crash
  damages the log, modelling a torn final write or media rot;
- while **down**, arriving events cannot be matched or routed; they
  are deferred at the edge (and the fault injector keeps dropping
  traffic through the dead node, as before);
- at window **end** the service restarts *from storage*:
  :func:`~repro.durability.recovery.recover` loads the newest valid
  snapshot, truncates the damaged WAL tail, replays the rest;
  :func:`~repro.durability.recovery.restore_broker` rebuilds the
  S-tree and the partition; unacked in-flight deliveries are re-handed
  to the transport (receiver dedup makes redelivery exactly-once);
  deferred events are then published.

The :class:`~repro.faults.harness.DeliveryLedger` closes the loop: a
clean (uncorrupted) run must come out **exactly-once** across every
crash/restart, and a corrupted run must recover deterministically —
truncating at the last CRC-valid record, never raising, never
delivering anything twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..durability.journal import BrokerJournal
from ..durability.recovery import recover, restore_broker
from ..durability.snapshot import MemorySnapshotStore, SnapshotStore
from ..durability.wal import MemoryWAL, WriteAheadLog
from ..telemetry.base import Telemetry
from .plan import BrokerCrash, FaultPlan, WalCorruption
from .verifier import ChaosReport, ChaosSimulation

__all__ = [
    "DurabilityStats",
    "CrashRecoveryReport",
    "CrashRecoverySimulation",
    "build_crash_recovery_plan",
]


@dataclass
class DurabilityStats:
    """What the durability stack did during one crash-recovery run."""

    recoveries: int = 0
    wal_appends: int = 0
    checkpoints: int = 0
    replayed_records: int = 0
    truncated_bytes: int = 0
    wiped_inflight: int = 0
    #: (event, target) deliveries re-handed to the transport on restart.
    redelivered: int = 0
    #: Events that arrived while the service was down.
    deferred_events: int = 0
    #: One entry per corruption the fault plan actually applied.
    corruptions: List[str] = field(default_factory=list)
    #: Per-recovery state digests — the determinism witnesses.
    recovery_digests: List[str] = field(default_factory=list)


@dataclass
class CrashRecoveryReport(ChaosReport):
    """A chaos report plus the durability ledger of the run."""

    durability: DurabilityStats = field(default_factory=DurabilityStats)

    def summary_rows(self) -> List[Tuple[str, object]]:
        rows = super().summary_rows()
        d = self.durability
        rows.extend(
            [
                ("recoveries", d.recoveries),
                ("wal appends", d.wal_appends),
                ("checkpoints", d.checkpoints),
                ("records replayed", d.replayed_records),
                ("wal bytes truncated", d.truncated_bytes),
                ("wal corruptions applied", len(d.corruptions)),
                ("in-flight wiped by crash", d.wiped_inflight),
                ("redelivered after recovery", d.redelivered),
                ("events deferred while down", d.deferred_events),
            ]
        )
        return rows


class CrashRecoverySimulation(ChaosSimulation):
    """A chaos run whose home broker survives crashes via the WAL.

    ``broker`` must be churn-capable (a :class:`~repro.core.dynamic.
    DynamicPubSubBroker`): recovery rebuilds its engine through the
    same dynamic machinery.  ``home`` defaults to the node of the
    plan's first crash window; every crash window on that node drives
    one crash/recover cycle (windows on other nodes behave as in the
    plain chaos harness — dead routers, no durability semantics).
    Events arriving while the service is down wait, unbounded and
    without a TTL, until it recovers.
    """

    defer_capacity = math.inf
    defer_ttl = math.inf

    def __init__(
        self,
        broker,
        plan: FaultPlan,
        home: Optional[int] = None,
        wal: Optional[WriteAheadLog] = None,
        snapshots: Optional[SnapshotStore] = None,
        checkpoint_every: int = 64,
        telemetry: Optional[Telemetry] = None,
    ):
        if not hasattr(broker, "attach_journal"):
            raise TypeError(
                "CrashRecoverySimulation needs a churn-capable broker "
                "(DynamicPubSubBroker); got "
                f"{type(broker).__name__}"
            )
        super().__init__(broker, plan, reliable=True, telemetry=telemetry)
        if home is None:
            if not plan.crashes:
                raise ValueError(
                    "no crash windows in the plan and no home broker "
                    "given; nothing to recover"
                )
            home = plan.crashes[0].node
        self.home = int(home)
        self.wal = wal if wal is not None else MemoryWAL(
            clock=lambda: self.simulator.now
        )
        self.snapshots = (
            snapshots if snapshots is not None else MemorySnapshotStore()
        )
        self.journal = BrokerJournal(
            broker,
            self.wal,
            self.snapshots,
            checkpoint_every=checkpoint_every,
            telemetry=telemetry,
        )
        broker.attach_journal(self.journal)
        self.transport.on_ack = self._delivery_acked
        self.windows: List[BrokerCrash] = sorted(
            (c for c in plan.crashes if int(c.node) == self.home),
            key=lambda c: c.start,
        )
        self.dstats = DurabilityStats()
        self._down = False
        # Bootstrap checkpoint: the preprocessed state (table, groups,
        # partition) becomes snapshot 0, so even a crash before any
        # journaled traffic recovers the full subscription set.
        self.journal.checkpoint()

    # -- hook overrides ------------------------------------------------------

    def _arm(self, last_arrival: float) -> None:
        # Scheduled before the workload, so at equal times the crash /
        # recovery callbacks run first (half-open windows: an event at
        # t == start finds the service down, one at t == end finds it
        # freshly recovered).
        for index, window in enumerate(self.windows):
            self.simulator.schedule_at(
                float(window.start), lambda i=index: self._crash(i)
            )
            self.simulator.schedule_at(
                float(window.end), lambda i=index: self._recover(i)
            )

    def _record_intent(
        self,
        sequence: int,
        publisher: int,
        recipients: Sequence[int],
        method: str,
        group: int,
    ) -> None:
        self.journal.log_publish(
            sequence, publisher, recipients, method=method, group=group
        )

    def _publish_event(self, sequence: int) -> None:
        if self._down:
            self._defer(sequence)
            if self.telemetry.enabled:
                self.telemetry.counter(
                    "broker.deferred",
                    help="events deferred while the home broker was down",
                ).inc()
            return
        super()._publish_event(sequence)

    def _serve_deferred(self, sequence: int) -> bool:
        self._publish_event(sequence)
        return True

    # -- durability plumbing -------------------------------------------------

    def _delivery_acked(self, target: int, key: int, time: float) -> None:
        # The sender-side ack is the durable completion: journal it so
        # recovery stops redelivering this (event, target).
        self.journal.log_delivery(key, target)

    def _crash(self, index: int) -> None:
        self._down = True
        wiped = self.transport.wipe_pending()
        self.dstats.wiped_inflight += len(wiped)
        for corruption in self.plan.wal_corruptions:
            if corruption.crash_index == index and corruption.apply(
                self.wal
            ):
                self.dstats.corruptions.append(
                    f"crash {index}: {corruption.kind}"
                )
        if self.telemetry.enabled:
            self.telemetry.event(
                "broker-crash", node=self.home, wiped=len(wiped)
            )

    def _recover(self, index: int) -> None:
        state = recover(self.wal, self.snapshots, telemetry=self.telemetry)
        restore_broker(self.broker, state)
        self.journal.rearm(state)
        self._down = False
        self.dstats.recoveries += 1
        self.dstats.replayed_records += state.replayed
        self.dstats.truncated_bytes += state.truncated_bytes
        self.dstats.recovery_digests.append(state.digest())
        # Unacked in-flight deliveries go back to the transport as
        # per-target unicasts.  Targets that received the data before
        # the crash (ack lost) dedup at the application layer and
        # re-ack, so the exactly-once ledger holds across the restart.
        for entry in state.inflight.values():
            if entry.targets:
                self.transport.publish(
                    entry.sequence, entry.publisher, list(entry.targets)
                )
                self.dstats.redelivered += len(entry.targets)
        self._flush_deferred()

    # -- reporting -----------------------------------------------------------

    def run(
        self,
        points: np.ndarray,
        publishers: Sequence[int],
        inter_arrival: float = 1.0,
        arrival_times: Optional[Sequence[float]] = None,
    ) -> CrashRecoveryReport:
        base = super().run(
            points, publishers, inter_arrival, arrival_times
        )
        self.dstats.deferred_events = self.deferred_count
        self.dstats.wal_appends = self.wal.appends
        self.dstats.checkpoints = self.journal.checkpoints
        return CrashRecoveryReport(**vars(base), durability=self.dstats)


def build_crash_recovery_plan(
    topology,
    seed: int = 2003,
    loss: float = 0.05,
    duplicate: float = 0.0,
    delay: float = 0.0,
    crashes: int = 2,
    crash_length: float = 100.0,
    horizon: float = 500.0,
    corrupt: Optional[str] = None,
    corrupt_tail_bytes: int = 5,
) -> Tuple[FaultPlan, int]:
    """A plan whose crash windows all hit one deterministic home broker.

    The home is a transit node drawn from ``seed``; ``crashes``
    windows of ``crash_length`` are spread evenly across ``horizon``.
    ``corrupt`` (``"torn-tail"`` or ``"bit-flip"``) attaches a
    :class:`~repro.faults.plan.WalCorruption` to every crash, so each
    restart must also repair the log.  Returns ``(plan, home)``.
    """
    if crashes < 1:
        raise ValueError(f"crashes must be >= 1 (got {crashes})")
    span = horizon / (crashes + 1)
    if crash_length >= span:
        raise ValueError(
            f"crash_length {crash_length} leaves no up-time between "
            f"windows spaced {span:.1f} apart; shorten the crashes or "
            "stretch the horizon"
        )
    rng = np.random.default_rng(seed + 41)
    transit = topology.all_transit_nodes()
    home = int(transit[int(rng.integers(len(transit)))])
    windows = tuple(
        BrokerCrash(
            node=home,
            start=float(span * (index + 1)),
            end=float(span * (index + 1) + crash_length),
        )
        for index in range(crashes)
    )
    corruptions: Tuple[WalCorruption, ...] = ()
    if corrupt is not None:
        corruptions = tuple(
            WalCorruption(
                crash_index=index,
                kind=corrupt,
                tail_bytes=corrupt_tail_bytes,
            )
            for index in range(crashes)
        )
    plan = FaultPlan(
        seed=seed,
        default_loss=loss,
        default_duplicate=duplicate,
        default_delay=delay,
        crashes=windows,
        wal_corruptions=corruptions,
    )
    return plan, home
