"""Failover chaos scenarios: the replication guarantees, end to end."""

import pytest

from repro.faults import (
    BrokerKill,
    FailoverChaosSimulation,
    build_failover_plan,
)
from repro.faults.verifier import build_chaos_testbed
from repro.replication import ShippingConfig
from repro.workload import PublicationGenerator

EVENTS = 120
INTER_ARRIVAL = 2.0


def _run(scenario, seed=2003, shipping=None, **kwargs):
    broker, density = build_chaos_testbed(
        seed=seed, subscriptions=200, dynamic=True
    )
    plan, primary, standbys = build_failover_plan(
        broker.topology,
        seed=seed,
        scenario=scenario,
        horizon=EVENTS * INTER_ARRIVAL,
    )
    points, publishers = PublicationGenerator(
        density, broker.topology.all_stub_nodes(), seed=seed + 9
    ).generate(EVENTS)
    simulation = FailoverChaosSimulation(
        broker, plan, standbys, primary=primary, shipping=shipping, **kwargs
    )
    return simulation, simulation.run(
        points, publishers, inter_arrival=INTER_ARRIVAL
    )


@pytest.fixture(scope="module")
def kill_run():
    return _run("kill")


class TestKillScenario:
    def test_takeover_happens(self, kill_run):
        _, report = kill_run
        assert report.replication.failovers == 1
        assert report.replication.final_epoch == 1
        assert len(report.replication.takeover_digests) == 1

    def test_outcome_ledger_balances(self, kill_run):
        _, report = kill_run
        f = report.failover
        assert f.published == EVENTS
        assert (
            f.delivered_events + f.shed_events + f.expired_events == EVENTS
        )
        assert f.accounted

    def test_no_duplicate_deliveries_across_the_takeover(self, kill_run):
        _, report = kill_run
        assert report.duplicate_deliveries == 0

    def test_fencing_probe_fired(self, kill_run):
        _, report = kill_run
        f = report.failover
        assert f.probe_rejections == 1
        assert f.probe_admissions == 1
        assert report.replication.fenced_writes >= 1

    def test_killed_primary_rejects_writes_forever(self, kill_run):
        simulation, _ = kill_run
        old = simulation.plan.broker_kills[0].node
        assert not simulation.group.write_allowed(old)
        assert simulation.group.write_allowed(simulation.group.primary)

    def test_inflight_rehanded_to_the_new_primary(self, kill_run):
        _, report = kill_run
        assert report.failover.wiped_inflight > 0
        assert report.failover.redelivered > 0

    def test_transport_redirects_point_at_the_successor(self, kill_run):
        simulation, _ = kill_run
        old = simulation.plan.broker_kills[0].node
        assert simulation.transport.directory is simulation.group.directory
        assert (
            simulation.transport.directory.resolve(old)
            == simulation.group.primary
        )


class TestPartitionScenario:
    def test_zombie_primary_is_fenced_not_resurrected(self):
        _, report = _run("partition")
        assert report.replication.failovers == 1
        # The healed zombie's stale traffic bounced off higher epochs.
        assert report.replication.stale_rejections >= 1
        assert report.replication.fenced_writes >= 1
        assert report.failover.accounted
        assert report.duplicate_deliveries == 0


class TestCatchupScenario:
    def test_lagging_standby_takes_over_via_anti_entropy(self):
        _, report = _run(
            "catchup",
            shipping=ShippingConfig(batch_ops=8, retain_ops=32,
                                    catchup_lag=24),
        )
        assert report.replication.failovers == 1
        assert report.shipping.catchups >= 1
        assert report.failover.accounted
        assert report.duplicate_deliveries == 0


class TestHarnessContracts:
    def test_requires_a_churn_capable_broker(self):
        broker, _ = build_chaos_testbed(seed=7, subscriptions=50)
        plan, primary, standbys = build_failover_plan(
            broker.topology, seed=7
        )
        with pytest.raises(TypeError, match="churn-capable"):
            FailoverChaosSimulation(broker, plan, standbys, primary=primary)

    def test_needs_a_primary_or_a_kill(self):
        broker, _ = build_chaos_testbed(seed=7, subscriptions=50,
                                        dynamic=True)
        _, _, standbys = build_failover_plan(broker.topology, seed=7)
        from repro.faults import FaultPlan

        with pytest.raises(ValueError, match="primary"):
            FailoverChaosSimulation(broker, FaultPlan(), standbys)

    def test_plan_builder_validates_scenario(self):
        broker, _ = build_chaos_testbed(seed=7, subscriptions=50)
        with pytest.raises(ValueError, match="scenario"):
            build_failover_plan(broker.topology, scenario="meteor")

    def test_broker_kill_validation(self):
        with pytest.raises(ValueError):
            BrokerKill(node=3, at=-1.0)
        kill = BrokerKill(node=3, at=10.0)
        assert not kill.active(9.999)
        assert kill.active(10.0)
