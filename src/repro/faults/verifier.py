"""Chaos-test harness and delivery-guarantee verifier.

:class:`ChaosSimulation` replays a pub-sub workload through the
packet-level simulator with a :class:`~repro.faults.plan.FaultPlan`
active, using the broker's real per-event decisions (unicast fan-out
vs multicast tree) and — unless disabled — the reliable ack/retry
protocol of :mod:`repro.faults.reliable`.

A :class:`~repro.faults.harness.DeliveryLedger` records the ground truth on both sides:
what *should* arrive (every matched subscriber of every sent event)
and what the application layer actually received.  The resulting
:class:`ChaosReport` then states the guarantee precisely:

- **exactly-once** holds when every expected (event, subscriber) pair
  was delivered to the application exactly one time;
- otherwise the report lists each missing delivery with a reason
  (retry budget exhausted / still unacknowledged at simulation end /
  lost with reliability disabled) and counts application-level
  duplicates.

Running the same plan with ``reliable=False`` shows what the raw
substrate does to the workload — the delta is the whole argument for
the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..clustering import ForgyKMeansClustering
from ..core.broker import PubSubBroker
from ..core.distribution import DeliveryMethod
from ..core.event import Event
from ..core.subscription import SubscriptionTable
from ..network.topology import TransitStubGenerator, TransitStubParams
from ..simulation.delivery import LatencyStats
from ..telemetry.base import Telemetry
from ..workload import (
    PublicationGenerator,
    StockSubscriptionGenerator,
    publication_distribution,
)
from .harness import ChaosHarness, DeliveryLedger
from .plan import BrokerCrash, FaultPlan, FaultStats, LinkFault
from .reliable import ReliabilityStats

__all__ = [
    "DeliveryLedger",
    "ChaosReport",
    "ChaosSimulation",
    "build_chaos_testbed",
    "build_chaos_plan",
    "build_burst_storm_times",
    "build_slow_subscriber_plan",
    "build_resubscribe_storm",
]


@dataclass
class ChaosReport:
    """Everything one chaos run proved (or disproved)."""

    events: int
    reliable: bool
    expected: int
    delivered: int
    duplicate_deliveries: int
    missing: List[Tuple[int, int, str]]
    latency: LatencyStats
    transmissions: int
    link_retransmissions: int
    queueing_delay: float
    multicasts: int
    unicasts: int
    not_sent: int
    finished_at: float
    fault_stats: FaultStats
    reliability: Optional[ReliabilityStats] = None

    @property
    def delivered_fraction(self) -> float:
        if self.expected == 0:
            return 1.0
        return self.delivered / self.expected

    @property
    def exactly_once(self) -> bool:
        """The delivery guarantee: everyone expected, nobody twice."""
        return not self.missing and self.duplicate_deliveries == 0

    def summary_rows(self) -> List[Tuple[str, object]]:
        """(metric, value) rows for the CLI report table."""
        rows: List[Tuple[str, object]] = [
            ("events", self.events),
            ("protocol", "reliable" if self.reliable else "fire-and-forget"),
            ("expected deliveries", self.expected),
            ("delivered", self.delivered),
            ("delivered fraction", f"{self.delivered_fraction:.4f}"),
            ("missing", len(self.missing)),
            ("app-level duplicates", self.duplicate_deliveries),
            ("exactly-once", "yes" if self.exactly_once else "NO"),
            ("link transmissions", self.transmissions),
            ("link retransmissions", self.link_retransmissions),
            ("faults: random drops", self.fault_stats.random_drops),
            ("faults: outage drops", self.fault_stats.outage_drops),
            (
                "faults: crash drops",
                self.fault_stats.sender_down_drops
                + self.fault_stats.receiver_down_drops,
            ),
            ("faults: duplicates injected", self.fault_stats.duplicates_injected),
        ]
        if self.reliability is not None:
            rows.extend(
                [
                    ("retries", self.reliability.retries),
                    ("reroutes", self.reliability.reroutes),
                    ("acks sent", self.reliability.acks_sent),
                    (
                        "duplicates suppressed",
                        self.reliability.duplicates_suppressed,
                    ),
                    ("gave up", self.reliability.gave_up),
                ]
            )
        rows.append(("p95 latency", f"{self.latency.p95:.2f}"))
        rows.append(("finished at", f"{self.finished_at:.2f}"))
        return rows


class ChaosSimulation(ChaosHarness):
    """Packet-level workload replay under an active fault plan."""

    def __init__(
        self,
        broker: PubSubBroker,
        plan: FaultPlan,
        reliable: bool = True,
        telemetry: Optional[Telemetry] = None,
    ):
        super().__init__(broker, plan, telemetry, reliable)
        self._counters = {"multicast": 0, "unicast": 0, "not_sent": 0}
        if reliable:
            self._start_transport()

    # -- subclass hooks ------------------------------------------------------

    def _arm(self, last_arrival: float) -> None:
        """Schedule harness-side callbacks before the workload.

        Called once per :meth:`run`, before any publish is scheduled —
        so at equal times, harness callbacks win the engine's FIFO tie
        (a crash at ``t`` takes effect before an event arriving at
        ``t``).  The base harness schedules nothing.
        """

    def _record_intent(
        self,
        sequence: int,
        publisher: int,
        recipients: Sequence[int],
        method: str,
        group: int,
    ) -> None:
        """Observe one publish intent (called right after ``expect``).

        The durability harness journals the intent here; the base
        harness does nothing.
        """

    def _expect(
        self, sequence: int, publisher: int, match, decision, q: int
    ) -> List[int]:
        """Who must receive a sent event: ledger expectation + intent."""
        recipients = [node for node in match.subscribers if node != publisher]
        self.ledger.expect(sequence, recipients, self.simulator.now)
        self._record_intent(
            sequence, publisher, recipients, decision.method.value, q
        )
        return recipients

    def _publish_event(self, sequence: int) -> None:
        """Match, decide and route one event (the per-event hot path).

        The span tree mirrors the lifecycle: `event` (root) →
        `match` / `distribution-decision` / `route`; the
        reliable transport hangs `deliver` (→ `retry` / `ack`)
        spans off `route`.  Synchronous spans close at publish
        time (simulated clock); deliver spans close at
        application arrival.
        """
        telemetry = self.telemetry
        instrumented = telemetry.enabled
        event = Event.create(
            sequence, self._publishers[sequence], self._points[sequence]
        )
        if instrumented:
            telemetry.counter("broker.events").inc()
            root = telemetry.start_span(
                "event", trace_id=sequence, publisher=event.publisher
            )
            match_span = telemetry.start_span("match", parent=root)
            match_started = perf_counter()
        match = self.broker.engine.match(event)
        q = self.broker.partition.locate(event.point)
        if instrumented:
            telemetry.histogram(
                "broker.match_latency_us",
                help="wall time of one match+locate, microseconds",
            ).observe((perf_counter() - match_started) * 1e6)
            match_span.set_attribute(
                "subscribers", match.num_subscribers
            ).finish()
            decision_span = telemetry.start_span(
                "distribution-decision", parent=root
            )
        decision = self._decide(match, q)
        if instrumented:
            decision_span.set_attribute(
                "method", decision.method.value
            ).set_attribute("group", q).finish()
        if decision.method is DeliveryMethod.NOT_SENT:
            self._counters["not_sent"] += 1
            if instrumented:
                root.set_attribute("method", "not_sent").finish()
            return
        recipients = self._expect(
            sequence, event.publisher, match, decision, q
        )
        if not recipients:
            if instrumented:
                root.set_attribute("method", "self_only").finish()
            return
        route_span = None
        if instrumented:
            route_span = telemetry.start_span(
                "route",
                parent=root,
                method=decision.method.value,
                targets=len(recipients),
            )
        group = None
        if decision.method is not DeliveryMethod.UNICAST:
            group = self.broker.partition.group(q).members
        method = "unicast" if group is None else "multicast"
        self._counters[method] += 1
        self._route(
            sequence,
            event.publisher,
            recipients,
            group,
            set(recipients),
            route_span,
        )
        if instrumented:
            if group is not None:
                route_span.set_attribute("group", q).set_attribute(
                    "group_size", len(group)
                )
            route_span.finish()
            root.set_attribute("method", method).finish()

    def run(
        self,
        points: np.ndarray,
        publishers: Sequence[int],
        inter_arrival: float = 1.0,
        arrival_times: Optional[Sequence[float]] = None,
    ) -> ChaosReport:
        """Publish the workload under faults and verify the guarantee."""
        arrival_times, last_arrival = self._load_workload(
            points, publishers, arrival_times, inter_arrival
        )
        self._arm(last_arrival)
        self._schedule_arrivals(arrival_times, self._publish_event)
        finished_at = self.simulator.run()
        return ChaosReport(
            events=len(arrival_times),
            reliable=self.reliable,
            expected=self.ledger.expected_total,
            delivered=self.ledger.delivered_distinct,
            duplicate_deliveries=self.ledger.duplicate_deliveries,
            missing=self._missing(),
            latency=LatencyStats.from_samples(self.ledger.latencies),
            transmissions=self.network.log.transmissions,
            link_retransmissions=self.network.log.retransmissions,
            queueing_delay=self.network.log.queueing_delay,
            multicasts=self._counters["multicast"],
            unicasts=self._counters["unicast"],
            not_sent=self._counters["not_sent"],
            finished_at=finished_at,
            fault_stats=self.injector.stats,
            reliability=(
                self.transport.stats if self.transport is not None else None
            ),
        )


# -- canned chaos scenario builders (used by the CLI and tests) -------------


def build_chaos_testbed(
    seed: int = 2003,
    subscriptions: int = 300,
    num_groups: int = 11,
    modes: int = 9,
    params: Optional[TransitStubParams] = None,
    dynamic: bool = False,
):
    """A ~100-node broker testbed sized for chaos experiments.

    Returns ``(broker, density)``; pair with
    :class:`~repro.workload.publications.PublicationGenerator` for the
    event stream.  ``dynamic=True`` builds a
    :class:`~repro.core.dynamic.DynamicPubSubBroker` instead (required
    by churn scenarios such as :func:`build_resubscribe_storm`).
    """
    params = params or TransitStubParams(
        transit_blocks=3,
        transit_nodes_per_block=3,
        stubs_per_transit_node=2,
        nodes_per_stub=5,
        size_spread=1,
    )
    topology = TransitStubGenerator(params, seed=seed).generate()
    placed = StockSubscriptionGenerator(topology, seed=seed + 1).generate(
        subscriptions
    )
    table = SubscriptionTable.from_placed(placed)
    density = publication_distribution(modes)
    if dynamic:
        from ..core.dynamic import DynamicPubSubBroker

        broker = DynamicPubSubBroker.preprocess_dynamic(
            topology,
            table,
            ForgyKMeansClustering(),
            num_groups=num_groups,
            density=density,
        )
    else:
        broker = PubSubBroker.preprocess(
            topology,
            table,
            ForgyKMeansClustering(),
            num_groups=num_groups,
            density=density,
        )
    return broker, density


def build_chaos_plan(
    topology,
    seed: int = 2003,
    loss: float = 0.1,
    duplicate: float = 0.0,
    delay: float = 0.0,
    crashes: int = 2,
    crash_length: float = 150.0,
    horizon: float = 500.0,
) -> FaultPlan:
    """Uniform link loss plus evenly-spaced broker crash/restart windows.

    Crash victims are transit nodes (the brokers/relays of the
    testbed), drawn deterministically from ``seed``; windows are spread
    across the publication horizon so multicasts are in flight when
    brokers die.
    """
    rng = np.random.default_rng(seed)
    transit = topology.all_transit_nodes()
    crash_windows = []
    if crashes > 0:
        if crashes > len(transit):
            raise ValueError(
                f"cannot crash {crashes} brokers on a topology with "
                f"{len(transit)} transit nodes"
            )
        victims = rng.choice(len(transit), size=crashes, replace=False)
        for index, victim in enumerate(victims):
            start = horizon * (index + 1) / (crashes + 1)
            crash_windows.append(
                BrokerCrash(
                    node=int(transit[int(victim)]),
                    start=float(start),
                    end=float(start + crash_length),
                )
            )
    return FaultPlan(
        seed=seed,
        default_loss=loss,
        default_duplicate=duplicate,
        default_delay=delay,
        crashes=tuple(crash_windows),
    )


# -- overload chaos scenarios ------------------------------------------------


def build_burst_storm_times(
    events: int,
    base_interval: float = 1.0,
    bursts: int = 3,
    burst_fraction: float = 0.5,
    burst_interval: float = 0.02,
) -> List[float]:
    """Arrival times for a bursty storm: calm baseline, violent spikes.

    A ``burst_fraction`` share of the events is concentrated into
    ``bursts`` near-instantaneous volleys (``burst_interval`` apart —
    far faster than any broker's service rate) spread evenly through
    an otherwise steady ``base_interval`` stream.  Deterministic: the
    times are a pure function of the arguments.
    """
    if events < 1:
        raise ValueError(f"events must be >= 1 (got {events})")
    if not 0.0 <= burst_fraction <= 1.0:
        raise ValueError(
            f"burst_fraction must lie in [0, 1] (got {burst_fraction})"
        )
    burst_events = int(events * burst_fraction)
    calm_events = events - burst_events
    times: List[float] = [i * base_interval for i in range(calm_events)]
    horizon = max(calm_events * base_interval, 1.0)
    if bursts > 0 and burst_events > 0:
        per_burst = burst_events // bursts
        extra = burst_events - per_burst * bursts
        for index in range(bursts):
            start = horizon * (index + 1) / (bursts + 1)
            count = per_burst + (1 if index < extra else 0)
            times.extend(
                start + k * burst_interval for k in range(count)
            )
    times.sort()
    return times[:events]


def build_slow_subscriber_plan(
    topology,
    seed: int = 2003,
    horizon: float = 500.0,
    slow_delay: float = 40.0,
    slow_loss: float = 0.5,
    dead: bool = False,
) -> Tuple[FaultPlan, int]:
    """A plan where one deterministic stub subscriber is slow — or dead.

    The victim (a stub node drawn from ``seed``) either answers over a
    high-delay, lossy access path (``dead=False``: the slow-subscriber
    scenario, which stalls `ReliableTransport` retries) or is crashed
    for the entire horizon (``dead=True``: the permanently-dead
    subscriber the circuit breakers must isolate).  Returns
    ``(plan, victim_node)``.
    """
    rng = np.random.default_rng(seed + 17)
    stubs = topology.all_stub_nodes()
    victim = int(stubs[int(rng.integers(len(stubs)))])
    if dead:
        plan = FaultPlan(
            seed=seed,
            crashes=(BrokerCrash(node=victim, start=0.0, end=horizon),),
        )
        return plan, victim
    faults = tuple(
        LinkFault(
            u=victim, v=int(neighbor), loss=slow_loss, delay=slow_delay
        )
        for neighbor in topology.graph.neighbors(victim)
    )
    return FaultPlan(seed=seed, link_faults=faults), victim


def build_resubscribe_storm(
    broker,
    at: float,
    count: int = 50,
    spacing: float = 0.05,
    seed: int = 2003,
) -> List[Tuple[float, object]]:
    """A thundering-resubscribe schedule for a dynamic broker.

    At time ``at`` a herd of subscribers unsubscribes and immediately
    resubscribes with the same rectangles (the classic reconnect storm
    after a broker restart) — ``count`` churn pairs, ``spacing`` time
    units apart, forcing overflow-index growth and possibly a full
    repack mid-storm.  Returns ``(time, action)`` pairs for
    :meth:`~repro.faults.overload.OverloadChaosSimulation.run`'s
    ``churn`` argument.  Requires a broker with ``subscribe`` /
    ``unsubscribe`` (a :class:`~repro.core.dynamic.DynamicPubSubBroker`).
    """
    rng = np.random.default_rng(seed + 29)
    total = len(broker.table)
    if count > total:
        raise ValueError(
            f"cannot churn {count} subscriptions; table holds {total}"
        )
    victims = sorted(
        int(v) for v in rng.choice(total, size=count, replace=False)
    )
    schedule: List[Tuple[float, object]] = []
    for index, subscription_id in enumerate(victims):
        subscription = broker.table[subscription_id]
        subscriber = subscription.subscriber
        rectangle = subscription.rectangle

        def churn(sid=subscription_id, node=subscriber, rect=rectangle):
            broker.unsubscribe(sid)
            broker.subscribe(node, rect)

        schedule.append((at + index * spacing, churn))
    return schedule
