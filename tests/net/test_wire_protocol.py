"""Every frame the discrete-event runs send is one the UDP wire can carry.

A small replica storm (failover, lease refusal, SHARD_PULL rejoins), a shard
fleet whose bindings are rebound, deleted and re-added (the owner's
SHARD_SYNC and SHARD_INVALIDATE notices) and the lossy chaos world run with
every transmitted packet passed through
:func:`~repro.net.wire.encode_packet` and
:func:`~repro.net.wire.decode_packet` and compared field by field: the DES
carries Python objects, so a field the codec cannot encode would otherwise
show only over real sockets.
"""

import pytest

from repro.core.context import ContextPair, WellKnownContext
from repro.core.shard import ShardCluster
from repro.faults.chaos import run_chaos, run_replica_storm
from repro.kernel.domain import Domain
from repro.kernel.messages import RequestCode
from repro.net.ethernet import Ethernet
from repro.net.wire import WireError, decode_packet, encode_packet
from repro.runtime import files
from repro.runtime.session import Session
from repro.servers import VFileServer, start_server
from tests.helpers import run_on


def parts(packet) -> tuple:
    """A packet's wire-visible parts, with the codec's empty forms folded."""
    message = packet.message
    return (packet.kind, packet.src_pid, packet.dst_pid, packet.txn_id,
            dict(packet.info or {}),
            None if message is None else (
                message.code, dict(message.fields), message.segment or b"",
                message.segment_buffer))


@pytest.fixture
def transmitted(monkeypatch):
    """Every packet any DES Ethernet transmits while the test runs."""
    packets = []
    transmit = Ethernet.transmit

    def recording(self, frame):
        packets.append(frame.payload)
        return transmit(self, frame)

    monkeypatch.setattr(Ethernet, "transmit", recording)
    return packets


def unencodable(packets) -> list:
    problems = []
    for packet in packets:
        try:
            decoded = decode_packet(encode_packet(packet))
        except WireError as err:
            problems.append((packet.kind, str(err)))
            continue
        if parts(decoded) != parts(packet):
            problems.append((packet.kind, parts(packet), parts(decoded)))
    return problems


def test_every_replica_storm_frame_round_trips(transmitted):
    report = run_replica_storm(duration=6.0)
    assert report.rejoins and report.reads_ok
    pulls = [packet for packet in transmitted if packet.message is not None
             and "epochs" in packet.message.fields]
    assert pulls                   # the rejoins' SHARD_PULL replies ran
    assert unencodable(transmitted) == []


def test_every_chaos_frame_round_trips(transmitted):
    report = run_chaos(duration=2.0)
    assert report.reads_ok and report.metrics["net.drops"]
    assert len(transmitted) > 100
    assert unencodable(transmitted) == []


def test_every_shard_mutation_frame_round_trips(transmitted):
    domain = Domain(seed=3)
    fileserver = VFileServer(user="mann")
    fileserver.store.make_path("data/f0.dat", directory=False).data[:] = b"x"
    pair = ContextPair(start_server(domain.create_host("vax1"), fileserver).pid,
                       int(WellKnownContext.DEFAULT))
    cluster = ShardCluster(domain, domain.create_hosts(3, prefix="ns"),
                           lease_ttl=0.5)
    for index in range(4):
        cluster.seed_binding(f"p{index}", pair)

    def reader(session):
        for index in range(4):
            yield from files.read_file(session, f"[p{index}]data/f0.dat")

    for number in range(2):
        host = domain.create_host(f"reader{number}")
        session = Session(current=pair, prefix_server=cluster.primary_pid(),
                          latency=domain.latency,
                          cache=cluster.resolver(host=host))
        host.spawn(reader(session), f"reader{number}")

    def mutator(session):
        yield from session.add_prefix("p1", pair, replace=True)
        yield from session.delete_prefix("p2")
        yield from session.add_prefix("p2", pair)
        yield from reader(session)

    run_on(domain, domain.create_host("mutator"), mutator(
        Session(current=pair, prefix_server=cluster.primary_pid(),
                latency=domain.latency)))
    notices = {packet.message.code for packet in transmitted
               if packet.message is not None}
    assert {RequestCode.SHARD_SYNC, RequestCode.SHARD_INVALIDATE} <= notices
    assert unencodable(transmitted) == []
