"""Replica-crash storms: failover, rejoin, and the cache-accounting
invariant across crash-then-restart of the prefix service itself."""

import pytest

from repro.faults.chaos import run_replica_storm

#: Small storm used by most tests here (half the pinned E18 duration, so
#: the suite stays fast while every replica still dies once).
QUICK = dict(seed=11, duration=3.0, n_replicas=3, n_prefixes=16,
             n_clients=2, lease_ttl=0.8)


class TestReplicaStorm:
    def test_every_read_survives_owner_failover(self):
        # run_replica_storm raises InvariantViolation on any failed read
        # with >= 2 replicas; the assertions re-state the contract locally.
        report = run_replica_storm(**QUICK)
        assert report.reads > 0
        assert report.reads_failed == 0
        assert report.reads_wrong == 0
        assert report.reads_ok == report.reads

    def test_every_crash_promotes_and_every_restart_rejoins(self):
        report = run_replica_storm(**QUICK)
        assert report.promotions == QUICK["n_replicas"]
        assert report.rejoins == QUICK["n_replicas"]
        # v1 at boot, +1 per drop, +1 per rejoin.
        assert report.map_version == 1 + 2 * QUICK["n_replicas"]

    def test_no_resolution_served_from_an_expired_lease(self):
        # The pinned E18 storm: long enough that leases actually lapse
        # under the crash windows and refusals happen.
        report = run_replica_storm()
        for entry in report.replicas:
            assert entry["expired_served"] == 0
        # Refusals did happen (leases lapsed under the crash windows), so
        # the zero above is load-bearing, not vacuous.
        assert sum(entry["lease_refusals"] for entry in report.replicas) > 0

    def test_cache_accounting_holds_per_resolver(self):
        # Satellite 4's invariant, asserted explicitly per client resolver:
        # every fallback is matched by at least one invalidation, including
        # across crash-then-restart of the prefix servers themselves.
        report = run_replica_storm(**QUICK)
        assert len(report.resolvers) == QUICK["n_clients"]
        for entry in report.resolvers:
            stats = entry["stats"]
            assert stats["invalidations"] >= stats["fallbacks"]

    def test_storm_without_crashes_never_falls_over(self):
        report = run_replica_storm(**dict(QUICK, crash=False))
        assert report.reads_failed == 0
        assert report.promotions == 0
        assert report.rejoins == 0
        assert report.map_version == 1

    def test_storm_is_deterministic(self):
        first = run_replica_storm(**QUICK)
        second = run_replica_storm(**QUICK)
        assert first.to_dict() == second.to_dict()


class TestSingleReplicaRestart:
    def test_crash_then_restart_of_the_prefix_server_itself(self):
        # n_replicas=1: the whole name service dies and comes back (the
        # paper's "recreated after a crash with a different process
        # identifier").  Reads stall during the outage but every one is
        # retried to completion: the resolver re-finds the reborn server
        # via the GetPid broadcast, so nothing fails permanently.
        report = run_replica_storm(**dict(QUICK, n_replicas=1, n_clients=1))
        assert report.reads_failed == 0
        assert report.reads_ok == report.reads
        # One crash (no survivor to promote), one rejoin: v1 -> v3.
        assert report.promotions == 0
        assert report.rejoins == 1
        assert report.map_version == 3
        for entry in report.resolvers:
            stats = entry["stats"]
            assert stats["invalidations"] >= stats["fallbacks"]
        for entry in report.replicas:
            assert entry["expired_served"] == 0


class TestStormCli:
    def test_storm_flag_runs_the_storm_and_reports_json(self, capsys):
        import json

        from repro.faults.chaos import main

        assert main(["--storm", "--seed", "11", "--duration", "3",
                     "--storm-prefixes", "16"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_replicas"] == 3 and report["reads_failed"] == 0
        assert report["promotions"] == report["rejoins"] == 3
