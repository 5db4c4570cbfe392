"""Coherence auditor unit + protocol tests (repro.obs.audit).

The probe's bookkeeping and the classifier's taxonomy are pinned directly
on hand-built documents (every branch of the fresh/stale/incoherent/
expired/unverifiable lattice, ownership drift, map drift); the two walkers
are then exercised on a live sharded fleet -- ``audit_direct`` by memory
reads, ``audit_via_obs`` through the full ``[obs]`` forwarding chain --
and must agree.  E19 pins the costs; correctness lives here.
"""

import json

import pytest

from repro.core.context import ContextPair, WellKnownContext
from repro.core.shard import ShardCluster
from repro.kernel.domain import Domain
from repro.kernel.ipc import Delay
from repro.obs import audit
from repro.obs.audit import (
    CoherenceProbe,
    audit_direct,
    audit_via_obs,
    classify_fleet,
    collect_documents,
    enable_coherence,
    host_coherence_document,
    percentile,
)
from repro.runtime import files
from repro.runtime.session import Session
from repro.servers import VFileServer, start_server
from tests.helpers import run_on

PAYLOAD = b"audit-payload"


def sharded_system(n_replicas=3, n_prefixes=4, lease_ttl=0.5, seed=3,
                   armed=True):
    """vax1 file server + an ns* shard cluster, coherence probe armed."""
    domain = Domain(seed=seed)
    if armed:
        enable_coherence(domain)
    fs_host = domain.create_host("vax1")
    fileserver = VFileServer(user="mann")
    node = fileserver.store.make_path("data/f0.dat", directory=False)
    node.data[:] = PAYLOAD
    fs_handle = start_server(fs_host, fileserver)
    pair = ContextPair(fs_handle.pid, int(WellKnownContext.DEFAULT))
    cluster = ShardCluster(domain, domain.create_hosts(n_replicas,
                                                       prefix="ns"),
                           lease_ttl=lease_ttl)
    for index in range(n_prefixes):
        cluster.seed_binding(f"p{index}", pair)
    return domain, cluster, pair, fs_host, fs_handle


def session_for(domain, pair, server_pid, cache=None):
    return Session(current=pair, prefix_server=server_pid,
                   latency=domain.latency, cache=cache)


# ----------------------------------------------------------------- the probe


class TestCoherenceProbe:
    def test_notice_lag_is_apply_minus_send(self):
        probe = CoherenceProbe()
        probe.notice_sent(b"p0", 101, t=1.0)
        probe.notice_sent(b"p0", 102, t=1.0)
        probe.notice_applied(b"p0", 101, "ns2", t=1.005)
        assert probe.in_flight() == 1
        probe.notice_applied(b"p0", 102, "ns3", t=1.020)
        assert probe.in_flight() == 0
        assert probe.lags == [pytest.approx(0.005), pytest.approx(0.020)]
        digest = probe.summary()
        assert digest["notices_sent"] == 2
        assert digest["notices_applied"] == 2
        assert digest["invalidation_lag_ms"]["samples"] == 2
        assert digest["invalidation_lag_ms"]["max"] == pytest.approx(20.0)

    def test_per_peer_fifo_two_notices_one_prefix(self):
        # Two mutations of one prefix in flight to the same peer: lags must
        # pair FIFO, not collapse onto the latest send.
        probe = CoherenceProbe()
        probe.notice_sent(b"p0", 101, t=1.0)
        probe.notice_sent(b"p0", 101, t=2.0)
        probe.notice_applied(b"p0", 101, "ns2", t=2.5)
        probe.notice_applied(b"p0", 101, "ns2", t=2.6)
        assert probe.lags == [pytest.approx(1.5), pytest.approx(0.6)]

    def test_apply_without_send_counts_unmatched(self):
        probe = CoherenceProbe()
        probe.notice_applied(b"p0", 101, "ns2", t=1.0)
        assert probe.notices_unmatched == 1
        assert probe.lags == []

    def test_drain_tick_pops_all_five_series_keys(self):
        probe = CoherenceProbe()
        probe.lease_event("ns1", "grant")
        probe.negcache_hit("ns1")
        probe.shard_lookup("ns1", 0)
        probe.stale_hit("ns1", 0.25)
        bucket = probe.drain_tick("ns1")
        assert bucket == {
            "coherence.invalidation_lag": 0.0,
            "coherence.staleness_at_hit": pytest.approx(250.0),
            "coherence.lease_churn": 1.0,
            "coherence.negcache_hits": 1.0,
            "coherence.shard_hotness": 1.0,
        }
        # A quiet tick is dense zeros, never missing keys.
        quiet = probe.drain_tick("ns1")
        assert set(quiet) == set(bucket)
        assert all(value == 0.0 for value in quiet.values())

    def test_hooks_mirror_into_the_registry(self):
        domain = Domain(seed=1)
        probe = enable_coherence(domain)
        assert enable_coherence(domain) is probe      # idempotent
        probe.lease_event("ns1", "grant")
        probe.lease_event("ns1", "grant")
        probe.negcache_hit("c1")
        probe.notice_sent(b"p", 9, t=0.0)
        probe.notice_applied(b"p", 9, "ns2", t=0.1)
        registry = domain.metrics
        assert registry.counter_value("coherence.lease_events",
                                      kind="grant") == 2
        assert registry.counter_value("coherence.negcache_hits",
                                      host="c1") == 1
        assert registry.counter_value("coherence.notices", phase="sent") == 1
        assert registry.counter_value("coherence.notices",
                                      phase="applied") == 1

    def test_percentile_is_nearest_rank(self):
        assert percentile([], 0.99) == 0.0
        values = [float(n) for n in range(1, 101)]
        assert percentile(values, 0.50) == 51.0   # round(0.5 * 99) == 50
        assert percentile(values, 0.99) == 99.0   # round(0.99 * 99) == 98
        assert percentile(values, 1.00) == 100.0
        assert percentile([3.0, 1.0, 2.0], 0.0) == 1.0  # sorts first


# --------------------------------------------------------------- provenance


class TestProvenanceEpochs:
    def test_seeded_bindings_carry_setup_stamps(self):
        __, cluster, __, __, __ = sharded_system(n_prefixes=3)
        for server in cluster.servers.values():
            for prefix in (b"p0", b"p1", b"p2"):
                binding = server.table.bindings[prefix]
                # Setup-time installs: distinct nonzero epochs, source 0.
                assert binding.epoch > 0
                assert binding.source == 0
            epochs = {server.table.bindings[p].epoch
                      for p in (b"p0", b"p1", b"p2")}
            assert len(epochs) == 3

    def test_mutation_stamps_owner_pid_and_bumps_epoch(self):
        domain, cluster, pair, __, __ = sharded_system(n_prefixes=2)
        owner = cluster.servers[cluster.map.owner_of(b"p0")]
        seeded = owner.table.bindings[b"p0"]
        before = (seeded.epoch, seeded.source)
        session = session_for(domain, pair, cluster.primary_pid())

        def client(session):
            yield from session.add_prefix("p0", pair, replace=True)
            yield from session.add_prefix("p0", pair, replace=True)

        run_on(domain, domain.create_host("mutator"), client(session))
        stamped = owner.table.bindings[b"p0"]
        # A runtime mutation's stamp names the authoring server: new
        # identity, source == the owner's pid.  Epochs are only monotonic
        # *per source* (the second rebind outranks the first); against the
        # setup-time stamp only inequality holds.
        assert (stamped.epoch, stamped.source) != before
        assert stamped.source == int(owner.pid.value)
        assert stamped.epoch == 2                 # two mutations, one owner
        # The SYNC fan-out copied the owner's stamp to every replica: one
        # authoritative mutation, one fleet-wide identity.
        for server in cluster.servers.values():
            binding = server.table.bindings[b"p0"]
            assert (binding.epoch, binding.source) == \
                (stamped.epoch, stamped.source)


# ---------------------------------------------------------------- documents


class TestHostCoherenceDocument:
    def test_host_without_name_state_is_a_disabled_stub(self):
        domain = Domain(seed=1)
        host = domain.create_host("plain")
        document = host_coherence_document(host)
        assert document == {"kind": "coherence", "host": "plain",
                            "t": domain.now, "enabled": False,
                            "replica": None, "resolver": None}

    def test_replica_host_exports_stamped_entries(self):
        domain, cluster, __, __, __ = sharded_system(n_prefixes=2)
        host = cluster.servers[0].host
        document = host_coherence_document(host)
        assert document["enabled"] is True
        replica = document["replica"]
        assert replica["replica_id"] == 0
        assert replica["map_version"] == cluster.map.version
        assert replica["lease_ttl"] == cluster.lease_ttl
        entries = {entry["prefix"]: entry for entry in replica["entries"]}
        assert set(entries) == {"p0", "p1"}
        for entry in entries.values():
            assert set(entry) >= {"prefix", "epoch", "source", "is_owner",
                                  "lease_expiry", "lease_fresh"}
            assert entry["epoch"] > 0

    def test_resolver_host_exports_bindings_and_negatives(self):
        domain, cluster, pair, __, __ = sharded_system(n_prefixes=2)
        client_host = domain.create_host("client")
        resolver = cluster.resolver(host=client_host, negative_ttl=5.0)
        session = session_for(domain, pair, cluster.primary_pid(),
                              cache=resolver)

        def client(session):
            yield from files.read_file(session, "[p0]data/f0.dat")
            try:
                yield from files.read_file(session, "[p1]data/missing.dat")
            except Exception:
                pass

        run_on(domain, client_host, client(session))
        document = host_coherence_document(client_host)
        assert document["enabled"] is True and document["replica"] is None
        resolver_doc = document["resolver"]
        assert resolver_doc["map_version"] == resolver.map.version
        bound = {entry["prefix"] for entry in resolver_doc["bindings"]}
        assert "p0" in bound
        assert [entry["name"] for entry in resolver_doc["negative"]] == \
            ["[p1]data/missing.dat"]

    def test_collect_documents_skips_crashed_hosts(self):
        domain, cluster, __, __, __ = sharded_system(n_replicas=3)
        cluster.servers[1].host.crash()
        names = [doc["host"] for doc in collect_documents(domain)]
        assert "ns2" not in names
        assert names == ["vax1", "ns1", "ns3"]  # host-id order, live only


# ----------------------------------------------------------- classification


def replica_doc(host, replica_id, map_version, entries, lease_ttl=0.5):
    return {"kind": "coherence", "host": host, "t": 1.0, "enabled": True,
            "resolver": None,
            "replica": {"replica_id": replica_id,
                        "map_version": map_version,
                        "lease_ttl": lease_ttl, "entries": entries}}


def replica_entry(prefix, epoch, source, is_owner=False, lease_fresh=True):
    return {"prefix": prefix, "epoch": epoch, "source": source,
            "is_owner": is_owner, "lease_expiry": 2.0,
            "lease_fresh": lease_fresh}


def resolver_doc(host, map_version, bindings=(), negative=()):
    return {"kind": "coherence", "host": host, "t": 1.0, "enabled": True,
            "replica": None,
            "resolver": {"map_version": map_version, "binding_ttl": 1.0,
                         "negative_ttl": 0.25,
                         "bindings": list(bindings),
                         "negative": list(negative)}}


def resolver_binding(prefix, epoch, source, expired=False, age=0.1):
    return {"prefix": prefix, "server_pid": 100, "context_id": 1,
            "installed_at": 0.9, "age": age, "epoch": epoch,
            "source": source, "expired": expired}


class TestClassifyFleet:
    OWNER = replica_doc("ns1", 0, 3, [replica_entry("data", 7, 41,
                                                    is_owner=True)])

    def classify(self, *documents):
        return classify_fleet(list(documents), t=1.0)

    def test_agreeing_replica_is_fresh(self):
        report = self.classify(
            self.OWNER, replica_doc("ns2", 1, 3, [replica_entry("data",
                                                                7, 41)]))
        assert report["ok"] is True
        assert report["tiers"]["replica"] == {
            "fresh": 2, "stale": 0, "incoherent": 0, "unverifiable": 0,
            "entries": 2}

    def test_disagreement_under_fresh_lease_is_incoherent(self):
        report = self.classify(
            self.OWNER,
            replica_doc("ns2", 1, 3, [replica_entry("data", 5, 41,
                                                    lease_fresh=True)]))
        assert report["ok"] is False
        assert report["tiers"]["replica"]["incoherent"] == 1
        [finding] = report["findings"]["incoherent"]
        assert finding["host"] == "ns2" and finding["prefix"] == "data"
        assert finding["owner"] == {"host": "ns1", "epoch": 7, "source": 41}

    def test_disagreement_with_expired_lease_is_only_stale(self):
        # The refusal path gates an expired lease: held wrongness a client
        # can never be served classifies stale, not incoherent.
        report = self.classify(
            self.OWNER,
            replica_doc("ns2", 1, 3, [replica_entry("data", 5, 41,
                                                    lease_fresh=False)]))
        assert report["ok"] is True
        assert report["tiers"]["replica"]["stale"] == 1
        assert report["findings"]["incoherent"] == []

    def test_unstamped_entry_audits_unverifiable(self):
        report = self.classify(
            self.OWNER, replica_doc("ns2", 1, 3, [replica_entry("data",
                                                                0, 0)]))
        assert report["tiers"]["replica"]["unverifiable"] == 1
        assert report["ok"] is True

    def test_resolver_tier_is_never_incoherent(self):
        report = self.classify(
            self.OWNER,
            resolver_doc("client", 3, bindings=[
                resolver_binding("data", 7, 41),            # fresh
                resolver_binding("data", 5, 41),            # stale
                resolver_binding("data", 5, 41, expired=True),
            ]))
        assert report["tiers"]["resolver"] == {
            "fresh": 1, "stale": 1, "expired": 1, "unverifiable": 0,
            "entries": 3}
        # Within-TTL staleness is the resolver's contract: ok stays True.
        assert report["ok"] is True
        [finding] = [f for f in report["findings"]["stale"]
                     if f["tier"] == "resolver"]
        assert finding["host"] == "client"

    def test_negative_entry_for_a_bound_prefix_is_stale(self):
        report = self.classify(
            self.OWNER,
            resolver_doc("client", 3, negative=[
                {"name": "[data]now/bound.dat", "installed_at": 0.9,
                 "age": 0.1, "expired": False},
                {"name": "[data]old.dat", "installed_at": 0.1,
                 "age": 0.9, "expired": True},
                {"name": "[nowhere]x.dat", "installed_at": 0.9,
                 "age": 0.1, "expired": False},
            ]))
        assert report["tiers"]["negative"] == {
            "fresh": 1, "stale": 1, "expired": 1, "entries": 3}
        [finding] = [f for f in report["findings"]["stale"]
                     if f["tier"] == "negative"]
        assert finding["name"] == "[data]now/bound.dat"

    def test_ownership_drift_higher_map_version_wins(self):
        report = self.classify(
            self.OWNER,                                      # claims at v3
            replica_doc("ns2", 1, 4, [replica_entry("data", 9, 52,
                                                    is_owner=True)]),
            replica_doc("ns3", 2, 4, [replica_entry("data", 9, 52)]))
        [drift] = report["findings"]["ownership_drift"]
        assert drift["prefix"] == "data"
        assert [claim["host"] for claim in drift["claims"]] == ["ns1", "ns2"]
        # ns2's v4 claim became the authority: ns3's copy agrees with it.
        assert report["tiers"]["replica"]["fresh"] == 3
        assert report["ok"] is True

    def test_map_drift_lists_every_laggard_tier(self):
        report = self.classify(
            self.OWNER,                                      # replica at v3
            resolver_doc("client", 2))                       # resolver at v2
        assert report["map_versions"]["fleet_max"] == 3
        [drift] = report["findings"]["map_drift"]
        assert drift == {"host": "client", "tier": "resolver",
                         "version": 2, "fleet_max": 3}


# ------------------------------------------------------------- the walkers


class TestWalkers:
    def test_audit_direct_on_a_quiesced_fleet_is_coherent(self):
        domain, cluster, pair, __, __ = sharded_system(n_replicas=3,
                                                       n_prefixes=4)
        session = session_for(domain, pair, cluster.primary_pid())

        def client(session):
            yield from session.add_prefix("p0", pair, replace=True)
            yield from session.delete_prefix("p3")
            yield Delay(2.0)                     # past every lease

        run_on(domain, domain.create_host("mutator"), client(session))
        report = audit_direct(domain)
        assert report["ok"] is True
        assert report["via"] == "direct"
        assert report["findings"]["incoherent"] == []
        # 3 replicas x 3 surviving prefixes, and p3 is gone everywhere.
        assert report["tiers"]["replica"]["entries"] == 9
        assert report["probe"]["notices_sent"] > 0

    def test_audit_direct_costs_zero_simulated_time(self):
        domain, __, __, __, __ = sharded_system()
        t = domain.now
        audit_direct(domain)
        assert domain.now == t

    def test_obs_walk_matches_the_direct_classification(self):
        from repro.runtime.workstation import (
            setup_workstation,
            standard_prefixes,
        )
        from repro.servers.statserver import enable_obs_namespace

        domain, cluster, pair, fs_host, fs_handle = sharded_system(
            n_replicas=3, n_prefixes=4)
        watcher = setup_workstation(domain, "watch")
        standard_prefixes(watcher, fs_handle)
        enable_obs_namespace(domain, fs_host)
        cluster.resolver(host=watcher.host)
        direct = audit_direct(domain)
        walked = audit_via_obs(watcher)
        assert walked["via"] == "obs"
        assert walked["unreachable"] == []
        assert walked["ok"] is True
        assert walked["tiers"]["replica"] == direct["tiers"]["replica"]
        # Walk order differs (name-sorted vs host-id), coverage must not.
        assert set(walked["hosts"]) == set(direct["hosts"])
        # The walk is charged traffic: simulated time moved.
        assert walked["t"] > direct["t"]


# ------------------------------------------------------------------ the CLI


class TestCli:
    ARGS = ["--duration", "2", "--prefixes", "8", "--seed", "11"]

    def test_json_mode_emits_the_audit_document(self, capsys):
        code = audit.main(["--json", "--no-crash", *self.ARGS])
        document = json.loads(capsys.readouterr().out)
        assert code == 0
        assert document["kind"] == "coherence-audit"
        assert document["ok"] is True
        assert document["via"] == "obs"
        assert document["probe"]["shard_lookups"] > 0

    def test_text_mode_renders_tables_and_verdict(self, capsys):
        code = audit.main(["--no-crash", *self.ARGS])
        out = capsys.readouterr().out
        assert code == 0
        assert "coherence audit @" in out
        assert "verdict: COHERENT" in out

    def test_watch_mode_sweeps_during_the_run(self, capsys):
        code = audit.main(["--json", "--no-crash", "--watch", "0.5",
                           *self.ARGS])
        document = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(document["sweeps"]) >= 2
        assert all(sweep["t"] > 0 for sweep in document["sweeps"])

    def test_render_reports_incoherence_and_exit_code_shape(self, capsys):
        # render() on a hand-built failing report names the entry; main's
        # exit-2 contract is pinned against the same document shape.
        report = classify_fleet([
            replica_doc("ns1", 0, 3, [replica_entry("data", 7, 41,
                                                    is_owner=True)]),
            replica_doc("ns2", 1, 3, [replica_entry("data", 5, 41)]),
        ], t=1.0)
        audit.render(report)
        out = capsys.readouterr().out
        assert "INCOHERENT replica ns2 [data]" in out
        assert "verdict: INCOHERENT (1 entries)" in out
        assert report["ok"] is False
