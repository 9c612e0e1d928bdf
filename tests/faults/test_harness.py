"""Contracts every chaos harness shares through the harness core."""

import numpy as np
import pytest

from repro.faults import (
    ChaosSimulation,
    CrashRecoverySimulation,
    FailoverChaosSimulation,
    FaultPlan,
    FullStackChaosSimulation,
    OverloadChaosSimulation,
    SessionChaosSimulation,
    ShardedChaosSimulation,
    build_cluster_plan,
    build_crash_recovery_plan,
    build_failover_plan,
    build_sharded_plan,
    select_session_nodes,
)
from repro.faults.verifier import build_chaos_testbed
from repro.sharding import ShardMap

SEED = 7


def _testbed(dynamic=False):
    broker, _ = build_chaos_testbed(
        seed=SEED, subscriptions=60, num_groups=5, dynamic=dynamic
    )
    return broker


def _chaos():
    return ChaosSimulation(_testbed(), FaultPlan(seed=SEED))


def _crash_recovery():
    broker = _testbed(dynamic=True)
    plan, home = build_crash_recovery_plan(
        broker.topology, seed=SEED, crash_length=20.0, horizon=100.0
    )
    return CrashRecoverySimulation(broker, plan, home=home)


def _failover():
    broker = _testbed(dynamic=True)
    plan, primary, standbys = build_failover_plan(broker.topology, seed=SEED)
    return FailoverChaosSimulation(broker, plan, standbys, primary=primary)


def _sharded():
    broker = _testbed()
    plan, homes, planned = build_sharded_plan(
        broker.topology, ShardMap.plan(broker.partition, 2), seed=SEED
    )
    return ShardedChaosSimulation(
        broker, plan, num_shards=2, shard_homes=homes, migrations=planned
    )


def _cluster():
    broker = _testbed()
    plan, homes, standby_map, planned, corruptions = build_cluster_plan(
        broker.topology, ShardMap.plan(broker.partition, 2), seed=SEED
    )
    return FullStackChaosSimulation(
        broker,
        plan,
        standby_map,
        num_shards=2,
        shard_homes=homes,
        migrations=planned,
        corruptions=corruptions,
    )


def _overload():
    return OverloadChaosSimulation(_testbed(), FaultPlan(seed=SEED))


def _sessions():
    broker = _testbed()
    nodes = select_session_nodes(broker, 3)
    return SessionChaosSimulation(
        broker, FaultPlan(seed=SEED), session_nodes=nodes
    )


#: harness -> (builder, "the report's ledger closes").
HARNESSES = {
    "chaos": (_chaos, lambda report: report.exactly_once),
    "crash-recovery": (_crash_recovery, lambda report: report.exactly_once),
    "failover": (_failover, lambda report: report.failover.accounted),
    "sharded": (_sharded, lambda report: report.sharded.accounted),
    "cluster": (_cluster, lambda report: report.sharded.accounted),
    "overload": (_overload, lambda report: report.accounted),
    "sessions": (_sessions, lambda report: report.accounted),
}


@pytest.mark.parametrize("name", sorted(HARNESSES))
def test_empty_workload_reports_an_accounted_run(name):
    build, accounted = HARNESSES[name]
    simulation = build()
    dims = len(simulation.broker.table[0].rectangle.lows)
    report = simulation.run(np.empty((0, dims)), [], arrival_times=[])
    assert accounted(report)


@pytest.mark.parametrize(
    "name, key, first, second",
    [
        ("failover", 0, "delivered", "shed"),
        ("sharded", 0, "delivered", "shed"),
        ("cluster", 0, "delivered", "expired"),
        ("overload", 0, "shed", "delivered"),
        ("sessions", (0, "sess-1"), "delivered", "deadlettered"),
    ],
    ids=["failover", "sharded", "cluster", "overload", "sessions"],
)
def test_double_accounting_is_loud(name, key, first, second):
    build, _ = HARNESSES[name]
    simulation = build()
    simulation._finish(key, first)
    with pytest.raises(RuntimeError, match="accounted twice"):
        simulation._finish(key, second)
