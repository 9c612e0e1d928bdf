"""The chaos-harness core: what every ``repro.faults`` harness shares.

Each harness replays a workload through the packet simulator with a
:class:`~repro.faults.plan.FaultPlan` active and proves one delivery
guarantee.  :class:`ChaosHarness` owns, once, the machinery they all
stand on:

- **set-up** — the discrete-event simulator, the fault injector,
  simulated-clock telemetry, the fault-injected
  :class:`~repro.simulation.packet_network.PacketNetwork`, the
  :class:`~repro.faults.reliable.ReliableTransport` and the workload
  shape check;
- the **outcome ledger** — :meth:`~ChaosHarness._finish` assigns every
  event (or obligation) exactly one terminal bucket and raises on a
  second assignment, so ``sum(buckets) == published`` is checkable;
- the **defer queue** — events that find no serviceable home wait in a
  bounded FIFO and are shed when it is full, served when a home
  returns, or expired once older than the TTL;
- the paper's **route step** — unicast fan-out, or one multicast tree
  over the group ``S_q`` (through the rendezvous point in sparse
  mode), over the reliable or the fire-and-forget transport;
- the **home checks** — dead-or-cut-off, majority network component,
  and reachability from live homes.

Harness-specific spans and telemetry metric names stay with the
harnesses, so instrumented output is identical whichever harness
runs.  The timing and queue bounds below are the same for every
harness (no caller needs another value).
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import networkx as nx
import numpy as np

from ..core.distribution import DistributionDecision, record_decision
from ..simulation.engine import DiscreteEventSimulator
from ..simulation.packet_network import PacketNetwork
from ..telemetry.base import Telemetry, or_null
from .plan import FaultInjector, FaultPlan, FaultState
from .reliable import ReliableTransport, RetryConfig

__all__ = [
    "TRANSMISSION_TIME",
    "PROPAGATION_SCALE",
    "HOP_RETRIES",
    "DEFER_CAPACITY",
    "DEFER_TTL",
    "SETTLE",
    "DeliveryLedger",
    "BalancedOutcomes",
    "ChaosHarness",
]

#: Per-hop transmission time of the packet network (time units).
TRANSMISSION_TIME = 0.25
#: Multiplier from topology edge weight to propagation delay.
PROPAGATION_SCALE = 1.0
#: Link-layer ARQ retransmissions per hop (reliable runs; 0 otherwise).
HOP_RETRIES = 4
#: Events the defer queue holds before it sheds new arrivals.
DEFER_CAPACITY = 256
#: How long a deferred event may wait for a home before it expires.
DEFER_TTL = 250.0
#: Simulated time the replication clocks (heartbeats, shipping,
#: membership) keep ticking after the last arrival, so takeovers
#: triggered late in the run still complete.
SETTLE = 250.0


class DeliveryLedger:
    """Ground-truth bookkeeping: expected vs observed app deliveries."""

    def __init__(self) -> None:
        self._expected: Dict[int, Set[int]] = {}
        self._counts: Dict[Tuple[int, int], int] = {}
        self._latencies: List[float] = []
        self._published_at: Dict[int, float] = {}
        self.fail_reasons: Dict[Tuple[int, int], str] = {}

    def expect(
        self, sequence: int, subscribers: Sequence[int], published_at: float
    ) -> None:
        self._expected[sequence] = {int(s) for s in subscribers}
        self._published_at[sequence] = published_at

    def expects(self, sequence: int, subscriber: int) -> bool:
        """Whether ``subscriber`` is owed event ``sequence``."""
        return int(subscriber) in self._expected.get(sequence, ())

    def record(self, sequence: int, subscriber: int, time: float) -> None:
        """One application-level delivery (post-dedup if reliable)."""
        key = (sequence, int(subscriber))
        count = self._counts.get(key, 0) + 1
        self._counts[key] = count
        if count == 1:
            self._latencies.append(time - self._published_at[sequence])

    @property
    def expected_total(self) -> int:
        return sum(len(s) for s in self._expected.values())

    @property
    def delivered_distinct(self) -> int:
        return sum(
            1
            for (sequence, subscriber), count in self._counts.items()
            if count >= 1 and subscriber in self._expected.get(sequence, ())
        )

    @property
    def duplicate_deliveries(self) -> int:
        """Application-level deliveries beyond the first per pair."""
        return sum(count - 1 for count in self._counts.values() if count > 1)

    @property
    def latencies(self) -> List[float]:
        return self._latencies

    def missing(self, default_reason: str) -> List[Tuple[int, int, str]]:
        """Every expected (event, subscriber) that never arrived, with why."""
        out: List[Tuple[int, int, str]] = []
        for sequence in sorted(self._expected):
            for subscriber in sorted(self._expected[sequence]):
                if self._counts.get((sequence, subscriber), 0) == 0:
                    reason = self.fail_reasons.get(
                        (sequence, subscriber), default_reason
                    )
                    out.append((sequence, subscriber, reason))
        return out


class BalancedOutcomes:
    """The conservation law of a per-event outcome ledger."""

    published: int
    delivered_events: int
    shed_events: int
    expired_events: int

    @property
    def accounted(self) -> bool:
        """Every event in exactly one bucket."""
        return (
            self.delivered_events + self.shed_events + self.expired_events
            == self.published
        )

    def tally(self, published: int, counts: Dict[str, int]) -> None:
        """Fill the buckets from :meth:`ChaosHarness._outcome_counts`."""
        self.published = published
        self.delivered_events = counts["delivered"]
        self.shed_events = counts["shed"]
        self.expired_events = counts["expired"]


class ChaosHarness:
    """Set-up, outcome ledger, defer queue and route step of a harness.

    ``reliable=False`` drops link-layer ARQ; a harness that wants the
    end-to-end ack/retry protocol calls :meth:`_start_transport`.
    """

    #: Terminal buckets of the outcome ledger.
    OUTCOMES: Tuple[str, ...] = ("delivered", "shed", "expired")
    #: ``(name, help)`` of the counter each finished outcome bumps.
    OUTCOME_METRIC: Optional[Tuple[str, str]] = None
    defer_capacity: float = DEFER_CAPACITY
    defer_ttl: float = DEFER_TTL

    def __init__(
        self,
        broker,
        plan: FaultPlan,
        telemetry: Optional[Telemetry] = None,
        reliable: bool = True,
    ):
        self.broker = broker
        self.plan = plan
        self.reliable = reliable
        self.simulator = DiscreteEventSimulator()
        self.injector = FaultInjector(plan)
        # Telemetry runs on simulated time: span timestamps come from
        # the engine clock, so instrumented chaos runs stay
        # deterministic (and NullTelemetry keeps this a no-op).
        self.telemetry = or_null(telemetry)
        self.telemetry.bind_clock(lambda: self.simulator.now)
        # Reliable mode layers link-level ARQ (masks random loss)
        # under the end-to-end ack/retry protocol (recovers from
        # outages and crashes); fire-and-forget mode gets neither.
        self.network = PacketNetwork(
            broker.topology,
            self.simulator,
            transmission_time=TRANSMISSION_TIME,
            propagation_scale=PROPAGATION_SCALE,
            injector=self.injector,
            hop_retries=HOP_RETRIES if reliable else 0,
            telemetry=self.telemetry,
        )
        self.ledger = DeliveryLedger()
        self.transport: Optional[ReliableTransport] = None
        #: key -> terminal bucket, assigned exactly once by _finish.
        self.outcomes: Dict[Hashable, str] = {}
        #: Events that ever waited in the defer queue.
        self.deferred_count = 0
        self._deferred: List[Tuple[float, int]] = []
        self._points = np.empty((0, 0))
        self._publishers: List[int] = []

    def _start_transport(
        self, config: Optional[RetryConfig] = None, **hooks
    ) -> None:
        """The reliable ack/retry protocol, delivering to the harness."""
        self.transport = ReliableTransport(
            self.network,
            config=config or RetryConfig.for_network(self.network),
            seed=self.plan.seed + 1,
            detector=self.injector,
            on_deliver=self._on_deliver,
            on_give_up=self._on_give_up,
            telemetry=self.telemetry,
            **hooks,
        )

    # -- workload ------------------------------------------------------------

    def _load_workload(
        self,
        points: np.ndarray,
        publishers: Sequence[int],
        arrival_times: Optional[Sequence[float]],
        inter_arrival: float = 1.0,
    ) -> Tuple[Sequence[float], float]:
        """Check and keep the workload: ``(arrival_times, last arrival)``."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] != len(publishers):
            raise ValueError(
                "points must be (m, N) with one publisher per row"
            )
        if arrival_times is None:
            arrival_times = [i * inter_arrival for i in range(len(points))]
        if len(arrival_times) != len(points):
            raise ValueError("one arrival time per event required")
        self._points = points
        self._publishers = [int(p) for p in publishers]
        last = float(arrival_times[-1]) if len(arrival_times) else 0.0
        return arrival_times, last

    def _schedule_arrivals(
        self,
        arrival_times: Sequence[float],
        arrive: Callable[[int], None],
    ) -> None:
        for sequence, time in enumerate(arrival_times):
            self.simulator.schedule_at(
                float(time), lambda s=sequence: arrive(s)
            )

    # -- delivery callbacks --------------------------------------------------

    def _on_deliver(self, target: int, key: int, time: float) -> None:
        """Application arrival.

        Group members outside the expected set filter the message out
        at the application layer.
        """
        if self.ledger.expects(key, target):
            self.ledger.record(key, target, time)

    def _on_give_up(self, target: int, key: int, reason) -> None:
        self.ledger.fail_reasons[(key, target)] = reason

    def _missing(self) -> List[Tuple[int, int, str]]:
        """Every expected delivery that never arrived, with why."""
        return self.ledger.missing(
            "unacknowledged at simulation end"
            if self.reliable
            else "lost (no retransmission)"
        )

    # -- outcome ledger ------------------------------------------------------

    def _finish(self, key: Hashable, outcome: str) -> None:
        """Assign one event its terminal bucket, exactly once."""
        if key in self.outcomes:
            raise RuntimeError(
                f"event {key} accounted twice: "
                f"{self.outcomes[key]} then {outcome}"
            )
        if outcome not in self.OUTCOMES:
            raise ValueError(f"unknown outcome {outcome!r}")
        self.outcomes[key] = outcome
        if self.OUTCOME_METRIC is not None and self.telemetry.enabled:
            name, help_text = self.OUTCOME_METRIC
            self.telemetry.counter(
                name, help=help_text, outcome=outcome
            ).inc()

    def _outcome_counts(self) -> Dict[str, int]:
        counts = dict.fromkeys(self.OUTCOMES, 0)
        for outcome in self.outcomes.values():
            counts[outcome] += 1
        return counts

    # -- defer queue ---------------------------------------------------------

    def _defer(self, sequence: int) -> None:
        """Park an event until a home can serve it; shed it when full."""
        if len(self._deferred) >= self.defer_capacity:
            self._finish(sequence, "shed")
            return
        self._deferred.append((self.simulator.now, sequence))
        self.deferred_count += 1

    def _serve_deferred(self, sequence: int) -> bool:
        """Serve one parked event now; ``False`` keeps it parked."""
        raise NotImplementedError

    def _flush_deferred(self) -> None:
        """Expire, serve or keep every parked event, oldest first."""
        now = self.simulator.now
        waiting, self._deferred = self._deferred, []
        for at, sequence in waiting:
            if now - at > self.defer_ttl:
                self._finish(sequence, "expired")
            elif not self._serve_deferred(sequence):
                self._deferred.append((at, sequence))

    def _expire_deferred(self) -> None:
        """Run end: events still parked never found a home."""
        waiting, self._deferred = self._deferred, []
        for _at, sequence in waiting:
            self._finish(sequence, "expired")

    # -- the paper's per-event step ------------------------------------------

    def _decide(self, match, q: int) -> DistributionDecision:
        """The threshold rule for one matched event located in ``S_q``."""
        group_size = self.broker.partition.group(q).size if q > 0 else 0
        decision = self.broker.policy.decide(
            interested=match.num_subscribers,
            group_size=group_size,
            group=q,
        )
        record_decision(self.telemetry, decision)
        return decision

    def _route(
        self,
        sequence: int,
        sender: int,
        targets: List[int],
        group: Optional[Sequence[int]] = None,
        interested: Optional[AbstractSet[int]] = None,
        span=None,
    ) -> None:
        """Send one event: unicast to ``targets``, or one tree over ``group``.

        With the reliable transport, ``targets`` are tracked until
        acked; ``interested`` keeps the other group members out of the
        protocol (``None`` lets every member in).  Fire-and-forget
        arrivals all reach :meth:`_on_deliver`, which filters.
        """
        transport = self.transport
        if group is None:
            if transport is not None:
                transport.publish(sequence, sender, targets, parent_span=span)
                return
            for node in targets:
                self.network.send_unicast(
                    sender,
                    node,
                    lambda n, t, s=sequence: self._on_deliver(n, s, t),
                )
            return
        via = None
        if self.broker.costs.multicast_mode == "sparse":
            via = self.broker.costs.rendezvous_point(group)
        if transport is None:
            self.network.send_multicast(
                sender,
                group,
                lambda n, t, s=sequence: self._on_deliver(n, s, t),
                via=via,
            )
            return

        def first_pass(receive: Callable[[int, float], None]) -> None:
            self.network.send_multicast(
                sender,
                group,
                receive
                if interested is None
                else (
                    lambda node, time: (
                        receive(node, time) if node in interested else None
                    )
                ),
                via=via,
            )

        transport.publish(
            sequence, sender, targets, first_pass, parent_span=span
        )

    # -- homes and the network -----------------------------------------------

    def _home_unserviceable(self, home: Optional[int], now: float) -> bool:
        """No home, or it is down or cut off on every incident link."""
        if home is None or self.injector.node_down(home, now):
            return True
        state = self.injector.state_at(now)
        if state.clear:
            return False
        neighbors = list(self.broker.topology.graph.neighbors(home))
        return bool(neighbors) and all(
            state.link_dead(home, n) for n in neighbors
        )

    def _components(
        self, dead: Iterable[int] = (), state: Optional[FaultState] = None
    ) -> List[Set[int]]:
        """Connected components of the network without ``dead`` nodes
        (and, given a fault state, without its dead nodes and links)."""
        graph = self.broker.topology.graph.copy()
        graph.remove_nodes_from(list(dead))
        if state is not None:
            graph.remove_nodes_from(
                [n for n in list(graph.nodes) if state.node_dead(n)]
            )
            graph.remove_edges_from(
                [(u, v) for u, v in list(graph.edges) if state.link_dead(u, v)]
            )
        return [set(c) for c in nx.connected_components(graph)]

    @staticmethod
    def _majority(
        components: List[Set[int]], anchors: Sequence[int]
    ) -> Set[int]:
        """The component holding the most ``anchors`` (ties: larger,
        then lowest node); empty when nothing survived."""
        if not components:
            return set()
        return max(
            components,
            key=lambda c: (sum(1 for n in anchors if n in c), len(c), -min(c)),
        )

    @staticmethod
    def _reachable(
        components: List[Set[int]], homes: Iterable[int]
    ) -> Set[int]:
        """Every node sharing a component with one of ``homes``."""
        anchors = set(homes)
        reachable: Set[int] = set()
        for component in components:
            if anchors & component:
                reachable |= component
        return reachable
