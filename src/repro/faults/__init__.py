"""Fault injection, reliable delivery, and chaos verification.

The paper's model (and the seed reproduction) assumes a perfectly
reliable substrate.  This package supplies the other half of the
story:

- :mod:`repro.faults.plan` — a deterministic, seedable fault injector:
  per-link loss/duplication/delay, link outage windows, broker
  crash/restart windows and permanent kills, pluggable into the packet
  simulator and queryable as a failure detector;
- :mod:`repro.faults.reliable` — per-message acks, exponential-backoff
  retries with deterministic jitter, bounded retry budgets, and
  per-subscriber dedup, turning at-least-once retransmission into
  exactly-once application delivery;
- :mod:`repro.faults.harness` — the chaos-harness core every harness
  below runs on, owning each shared piece once: set-up (simulator,
  injector, simulated-clock telemetry, packet network, reliable
  transport, workload check), the per-event outcome ledger
  (``_finish`` raises when an event is accounted twice), the bounded
  TTL defer queue for events with no serviceable home, the paper's
  route step (unicast fan-out or one multicast tree over ``S_q``), and
  the home-reachability checks.

The harnesses differ only in the layer they put under test and the
guarantee they prove (``repro chaos --<mode>``):

- :mod:`repro.faults.verifier` — exactly-once delivery under loss and
  crashes (``repro chaos``);
- :mod:`repro.faults.overload` — the :mod:`repro.overload` protection
  stack under saturation (``--overload``);
- :mod:`repro.faults.crash_recovery` — a journaled home broker
  recovering from snapshot + WAL replay (``--crash-recovery``);
- :mod:`repro.faults.failover` — a :mod:`repro.replication` group
  surviving permanent primary loss through fenced takeovers
  (``--failover``);
- :mod:`repro.faults.sharded` — K :mod:`repro.sharding` shards with
  live migrations and shard kills, matching digest-identically to one
  unsharded broker (``--sharded``);
- :mod:`repro.faults.cluster` — every shard a :mod:`repro.cluster`
  replicated group under one membership detector (``--cluster``);
- :mod:`repro.faults.sessions` — durable subscriber sessions
  (:mod:`repro.sessions`) under crash / flap / slow-consumer / poison
  abuse, with a per-(event, session) ledger (``--sessions``).
"""

from .cluster import (
    ClusterReport,
    ClusterStats,
    FullStackChaosSimulation,
    StandbyWALCorruption,
    build_cluster_plan,
)

from .crash_recovery import (
    CrashRecoveryReport,
    CrashRecoverySimulation,
    DurabilityStats,
    build_crash_recovery_plan,
)
from .failover import (
    FailoverChaosSimulation,
    FailoverReport,
    FailoverStats,
    build_failover_plan,
)
from .overload import OverloadChaosSimulation, OverloadReport
from .plan import (
    BrokerCrash,
    BrokerKill,
    FaultInjector,
    FaultPlan,
    FaultState,
    FaultStats,
    LinkFault,
    LinkOutage,
    TransmissionFate,
    WalCorruption,
)
from .reliable import (
    FailureReason,
    ReliabilityStats,
    ReliableTransport,
    RetryConfig,
)
from .sessions import (
    SESSION_SCENARIOS,
    SessionChaosSimulation,
    SessionReport,
    build_session_chaos,
    select_session_nodes,
)
from .sharded import (
    PlannedMigration,
    ShardedChaosSimulation,
    ShardedReport,
    ShardedStats,
    build_sharded_plan,
    unsharded_match_digest,
)
from .verifier import (
    ChaosReport,
    ChaosSimulation,
    DeliveryLedger,
    build_burst_storm_times,
    build_chaos_plan,
    build_chaos_testbed,
    build_resubscribe_storm,
    build_slow_subscriber_plan,
)

__all__ = [
    "ClusterReport",
    "ClusterStats",
    "FullStackChaosSimulation",
    "StandbyWALCorruption",
    "build_cluster_plan",
    "CrashRecoveryReport",
    "CrashRecoverySimulation",
    "DurabilityStats",
    "build_crash_recovery_plan",
    "FailoverChaosSimulation",
    "FailoverReport",
    "FailoverStats",
    "build_failover_plan",
    "OverloadChaosSimulation",
    "OverloadReport",
    "BrokerCrash",
    "BrokerKill",
    "WalCorruption",
    "FaultInjector",
    "FaultPlan",
    "FaultState",
    "FaultStats",
    "LinkFault",
    "LinkOutage",
    "TransmissionFate",
    "FailureReason",
    "ReliabilityStats",
    "ReliableTransport",
    "RetryConfig",
    "SESSION_SCENARIOS",
    "SessionChaosSimulation",
    "SessionReport",
    "build_session_chaos",
    "select_session_nodes",
    "PlannedMigration",
    "ShardedChaosSimulation",
    "ShardedReport",
    "ShardedStats",
    "build_sharded_plan",
    "unsharded_match_digest",
    "ChaosReport",
    "ChaosSimulation",
    "DeliveryLedger",
    "build_burst_storm_times",
    "build_chaos_plan",
    "build_chaos_testbed",
    "build_resubscribe_storm",
    "build_slow_subscriber_plan",
]
