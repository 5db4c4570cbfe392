"""Every frame the discrete-event runs send is one the UDP wire can carry.

A small replica storm (failover, lease refusal, SHARD_PULL rejoins) and the
lossy chaos world run with every transmitted packet passed through
:func:`~repro.net.wire.encode_packet` and
:func:`~repro.net.wire.decode_packet` and compared field by field: the DES
carries Python objects, so a field the codec cannot encode would otherwise
show only over real sockets.
"""

import pytest

from repro.faults.chaos import run_chaos, run_replica_storm
from repro.net.ethernet import Ethernet
from repro.net.wire import WireError, decode_packet, encode_packet


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
