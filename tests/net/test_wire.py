"""Tests for the binary wire encoding, including property-based roundtrips."""

import pytest
from hypothesis import given, strategies as st

from repro.kernel.messages import Message, Packet, PacketKind, ReplyCode
from repro.kernel.pids import Pid
from repro.net import wire
from repro.net.wire import HEADER, WireError, decode_packet, encode_packet


def roundtrip(packet: Packet) -> Packet:
    return decode_packet(encode_packet(packet))


class TestRoundtrips:
    def test_minimal_control_packet(self):
        packet = Packet(PacketKind.PROBE, src_pid=Pid.make(1, 2),
                        dst_pid=Pid.make(3, 4), txn_id=99)
        decoded = roundtrip(packet)
        assert decoded.kind is PacketKind.PROBE
        assert decoded.src_pid == packet.src_pid
        assert decoded.dst_pid == packet.dst_pid
        assert decoded.txn_id == 99
        assert decoded.message is None

    def test_request_with_fields_and_segment(self):
        message = Message.request(0x0301, mode="r", block=7, ratio=0.5,
                                  flag=True, nothing=None,
                                  segment=b"users/mann/naming.mss",
                                  segment_buffer=256)
        packet = Packet(PacketKind.REQUEST, src_pid=Pid.make(1, 1),
                        dst_pid=Pid.make(2, 2), txn_id=5, message=message)
        decoded = roundtrip(packet)
        assert decoded.message is not None
        assert decoded.message.code == 0x0301
        assert decoded.message.fields == message.fields
        assert decoded.message.segment == message.segment
        assert decoded.message.segment_buffer == 256

    def test_pid_valued_info_fields(self):
        packet = Packet(PacketKind.REQUEST, src_pid=Pid.make(1, 1),
                        dst_pid=Pid.make(2, 2), txn_id=5,
                        message=Message.request(1),
                        info={"forwarder": Pid.make(9, 9)})
        decoded = roundtrip(packet)
        assert decoded.info["forwarder"] == Pid.make(9, 9)

    def test_none_dst_pid(self):
        packet = Packet(PacketKind.GETPID_QUERY, src_pid=Pid.make(1, 1),
                        dst_pid=None, txn_id=0, info={"service": 3,
                                                      "waiter": 1,
                                                      "origin": 1})
        assert roundtrip(packet).dst_pid is None

    def test_bytes_field(self):
        message = Message.request(1, new_name=b"raw-bytes")
        packet = Packet(PacketKind.REQUEST, src_pid=Pid(1), dst_pid=Pid(2),
                        txn_id=1, message=message)
        assert roundtrip(packet).message.fields["new_name"] == b"raw-bytes"

    def test_subclass_values_encode_as_their_base_type(self):
        class Name(str):
            pass

        message = Message.request(1, status=ReplyCode.BAD_ARGS, name=Name("x"),
                                  pid=Pid.make(2, 3))
        packet = Packet(PacketKind.REQUEST, src_pid=Pid(1), dst_pid=Pid(2),
                        txn_id=1, message=message)
        fields = roundtrip(packet).message.fields
        assert fields == {"status": int(ReplyCode.BAD_ARGS), "name": "x",
                          "pid": Pid.make(2, 3)}
        assert type(fields["status"]) is int and type(fields["name"]) is str

    @given(
        fields=st.dictionaries(
            st.text(min_size=1, max_size=12,
                    alphabet=st.characters(min_codepoint=97, max_codepoint=122)),
            st.one_of(
                st.integers(min_value=-(2**62), max_value=2**62),
                st.booleans(),
                st.text(max_size=40),
                st.binary(max_size=40),
                st.none(),
            ),
            max_size=8,
        ),
        segment=st.one_of(st.none(), st.binary(max_size=300)),
        txn=st.integers(min_value=0, max_value=2**63 - 1),
    )
    def test_arbitrary_message_roundtrip_property(self, fields, segment, txn):
        message = Message(code=0x0305, fields=fields, segment=segment)
        packet = Packet(PacketKind.REQUEST, src_pid=Pid.make(4, 5),
                        dst_pid=Pid.make(6, 7), txn_id=txn, message=message)
        decoded = roundtrip(packet)
        assert decoded.message.fields == fields
        assert (decoded.message.segment or None) == (
            bytes(segment) if segment else None)
        assert decoded.txn_id == txn


class TestErrors:
    def test_bad_magic_rejected(self):
        packet = Packet(PacketKind.PROBE, src_pid=Pid(1), dst_pid=Pid(2),
                        txn_id=1)
        data = bytearray(encode_packet(packet))
        data[0] = ord("X")
        with pytest.raises(WireError, match="magic"):
            decode_packet(bytes(data))

    def test_short_packet_rejected(self):
        with pytest.raises(WireError, match="short"):
            decode_packet(b"VK")

    def test_trailing_garbage_rejected(self):
        packet = Packet(PacketKind.PROBE, src_pid=Pid(1), dst_pid=Pid(2),
                        txn_id=1)
        with pytest.raises(WireError, match="trailing"):
            decode_packet(encode_packet(packet) + b"junk")

    def test_unencodable_field_rejected(self):
        message = Message.request(1, body=object())
        packet = Packet(PacketKind.REQUEST, src_pid=Pid(1), dst_pid=Pid(2),
                        txn_id=1, message=message)
        with pytest.raises(WireError, match="not wire-encodable"):
            encode_packet(packet)

    def test_float_fields_roundtrip_exactly(self):
        message = Message.request(1, when=2.56e-3)
        packet = Packet(PacketKind.REQUEST, src_pid=Pid(1), dst_pid=Pid(2),
                        txn_id=1, message=message)
        assert roundtrip(packet).message.fields["when"] == 2.56e-3


#: Valid encodings the fuzzer mutates: every value tag, a segment, info
#: fields, and a message-less control packet.
_SEED_PACKETS = [
    encode_packet(Packet(
        PacketKind.REQUEST, src_pid=Pid.make(1, 2), dst_pid=Pid.make(3, 4),
        txn_id=9, info={"forwarder": Pid.make(9, 9)},
        message=Message.request(0x0301, mode="r", block=7, ratio=0.5,
                                flag=True, nothing=None, raw=b"\x00\xff",
                                segment=b"users/mann/naming.mss",
                                segment_buffer=256))),
    encode_packet(Packet(
        PacketKind.GETPID_QUERY, src_pid=Pid.make(1, 1), dst_pid=None,
        txn_id=0, info={"service": 3, "waiter": 1, "origin": 1})),
]

_MUTATIONS = st.lists(
    st.tuples(st.integers(min_value=0), st.integers(0, 255)), max_size=4)


class TestDecodeFuzz:
    """Whatever arrives on the socket, ``decode_packet`` returns a Packet
    or raises WireError -- never struct.error, UnicodeDecodeError,
    IndexError or a bare ValueError."""

    @staticmethod
    def decodes_or_rejects(data: bytes) -> None:
        try:
            assert isinstance(decode_packet(data), Packet)
        except WireError:
            pass

    @given(data=st.binary(max_size=96))
    def test_arbitrary_bytes(self, data):
        self.decodes_or_rejects(data)

    @given(tail=st.binary(max_size=64))
    def test_arbitrary_bytes_behind_a_valid_header(self, tail):
        # Random bytes almost never get past the magic; these always do.
        self.decodes_or_rejects(_SEED_PACKETS[0][:HEADER.size] + tail)

    @given(seed=st.sampled_from(_SEED_PACKETS), cut=st.integers(min_value=0),
           flips=_MUTATIONS)
    def test_truncated_and_byte_flipped_valid_packets(self, seed, cut, flips):
        data = bytearray(seed)
        for position, byte in flips:
            data[position % len(data)] = byte
        self.decodes_or_rejects(bytes(data[: len(data) - cut % len(data)]))

    def test_request_kind_without_a_message_is_a_wire_error(self):
        data = bytearray(_SEED_PACKETS[1])
        data[2] = list(PacketKind).index(PacketKind.REQUEST)
        with pytest.raises(WireError, match="malformed"):
            decode_packet(bytes(data))

    @pytest.mark.parametrize("part", [8, 10], ids=["fields", "segment"])
    def test_message_less_header_claiming_message_parts_is_a_wire_error(
            self, part):
        probe = encode_packet(Packet(PacketKind.PROBE, src_pid=Pid(1),
                                     dst_pid=Pid(2), txn_id=1))
        header = list(HEADER.unpack_from(probe))
        header[part] = 1
        with pytest.raises(WireError, match="message-less"):
            decode_packet(HEADER.pack(*header) + b"\x00" * 8)


def test_decoded_pids_share_a_bounded_table():
    for value in range(1, 100_001):
        packet = decode_packet(encode_packet(Packet(
            PacketKind.PROBE, src_pid=Pid(value), dst_pid=Pid(value + 1),
            txn_id=value)))
        assert packet.src_pid == Pid(value)
    assert len(wire._PIDS) <= wire.PID_TABLE_LIMIT
    again = decode_packet(encode_packet(packet))
    assert again.src_pid is packet.src_pid
