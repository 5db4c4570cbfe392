"""Binary wire encoding for kernel packets.

Used by the asyncio/UDP transport (and by tests that pin the format).  Every
packet starts with one fixed header, packed and unpacked in one call, and
then carries its variable parts:

    magic "VK" | kind u8 | flags u8 | src_pid u32 | dst_pid u32 | txn u64
    | code u16 | segment_buffer u16 | fields u8 | info u8 | segment u32
    | [fields] | [info fields] | segment bytes

The header holds the message's fixed words -- request code, segment buffer
and the lengths of everything that follows -- so a message-less packet is
the header alone.  Field maps (present only when non-empty) encode per
field a key (u8 length + utf8) and a type-tagged value (i64, f64, bool,
str, bytes, pid, none).  A real V kernel packed the 32-byte short message as
raw words; we carry field names for debuggability and document the
divergence -- the *simulated* cost model always charges the paper's 32
bytes, independent of this encoding.
"""

from __future__ import annotations

import struct

from repro.kernel.messages import Message, Packet, PacketKind
from repro.kernel.pids import Pid

MAGIC = b"VK"

_KINDS = list(PacketKind)
_KIND_INDEX = {kind: index for index, kind in enumerate(_KINDS)}

#: magic, kind, flags, src, dst, txn, code, segment_buffer, field count,
#: info count, segment length.
HEADER = struct.Struct(">2sBBIIQHHBBI")
_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

_FLAG_HAS_MESSAGE = 0x01

#: Decoded pids are shared through this table (a ``Pid`` is immutable); it
#: is emptied whenever it reaches this many entries.
PID_TABLE_LIMIT = 4096
_PIDS: dict[int, Pid] = {}


class WireError(ValueError):
    """Malformed or unencodable packet."""


def _pid(value: int) -> Pid:
    pid = _PIDS.get(value)
    if pid is None:
        if len(_PIDS) >= PID_TABLE_LIMIT:
            _PIDS.clear()
        pid = _PIDS[value] = Pid(value)
    return pid


# ---------------------------------------------------------------- field maps


def _encode_int(out: bytearray, value) -> None:
    if not -(1 << 63) <= value < (1 << 63):
        raise WireError(f"integer field out of i64 range: {value}")
    out += b"i" + _I64.pack(value)


def _encode_str(out: bytearray, value) -> None:
    raw = value.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise WireError("string field too long")
    out += b"s" + _U16.pack(len(raw)) + raw


def _encode_bytes(out: bytearray, value) -> None:
    if len(value) > 0xFFFF:
        raise WireError("bytes field too long")
    out += b"b" + _U16.pack(len(value)) + bytes(value)


def _encode_float(out: bytearray, value) -> None:
    out += b"f" + _F64.pack(value)


#: Encoders by exact type; a subclass (an IntEnum value, a str or bytes
#: subclass) takes the encoder of its nearest listed base.
_VALUE_ENCODERS = {
    type(None): lambda out, value: out.extend(b"N"),
    bool: lambda out, value: out.extend(b"B\x01" if value else b"B\x00"),
    Pid: lambda out, value: out.extend(b"P" + _U32.pack(value.value)),
    int: _encode_int,
    float: _encode_float,
    str: _encode_str,
    bytes: _encode_bytes,
    bytearray: _encode_bytes,
}


def _encode_value(out: bytearray, value) -> None:
    encoder = _VALUE_ENCODERS.get(type(value))
    if encoder is None:
        encoder = next((_VALUE_ENCODERS[base] for base in type(value).__mro__
                        if base in _VALUE_ENCODERS), None)
        if encoder is None:
            raise WireError(
                f"field value of type {type(value).__name__} is not "
                "wire-encodable (only the discrete-event backend can carry "
                "rich Python values)")
    encoder(out, value)


#: Length-prefixed UTF-8 of every field name seen so far.  Field names are
#: program identifiers ("service", "waiter", ...), so the memo stays tiny
#: while saving an encode + pack per field on every packet.
_KEY_CACHE: dict[str, bytes] = {}


def _encode_key(key: str) -> bytes:
    raw = key.encode("utf-8")
    if len(raw) > 0xFF:
        raise WireError(f"field name too long: {key!r}")
    encoded = _U8.pack(len(raw)) + raw
    _KEY_CACHE[key] = encoded
    return encoded


def _encode_fields(out: bytearray, fields: dict) -> None:
    key_cache = _KEY_CACHE
    for key in sorted(fields):
        encoded = key_cache.get(key)
        out += encoded if encoded is not None else _encode_key(key)
        _encode_value(out, fields[key])


def _decode_fields(data: bytes, offset: int, count: int) -> tuple[dict, int]:
    fields = {}
    for __ in range(count):
        end = offset + 1 + data[offset]
        key = data[offset + 1 : end].decode()
        tag = data[end]
        offset = end + 1
        if tag == 0x69:                                 # b"i"
            fields[key] = _I64.unpack_from(data, offset)[0]
            offset += 8
        elif tag == 0x73 or tag == 0x62:                # b"s", b"b"
            end = offset + 2 + _U16.unpack_from(data, offset)[0]
            if end > len(data):
                raise WireError("truncated field")
            raw = data[offset + 2 : end]
            fields[key] = raw.decode() if tag == 0x73 else raw
            offset = end
        elif tag == 0x50:                               # b"P"
            fields[key] = _pid(_U32.unpack_from(data, offset)[0])
            offset += 4
        elif tag == 0x4E:                               # b"N"
            fields[key] = None
        elif tag == 0x42:                               # b"B"
            fields[key] = bool(data[offset])
            offset += 1
        elif tag == 0x66:                               # b"f"
            fields[key] = _F64.unpack_from(data, offset)[0]
            offset += 8
        else:
            raise WireError(f"unknown value tag {bytes((tag,))!r}")
    return fields, offset


# ------------------------------------------------------------------- packets


def encode_packet(packet: Packet) -> bytes:
    message = packet.message
    info = packet.info
    out = bytearray(HEADER.size)
    if message is None:
        flags = code = seg_buffer = nfields = 0
        segment = b""
    else:
        flags, code = _FLAG_HAS_MESSAGE, message.code
        seg_buffer, fields = message.segment_buffer, message.fields
        nfields = len(fields)
        if fields:
            _encode_fields(out, fields)
        segment = message.segment or b""
    if info:
        _encode_fields(out, info)
    try:
        HEADER.pack_into(
            out, 0, MAGIC, _KIND_INDEX[packet.kind], flags,
            packet.src_pid.value,
            packet.dst_pid.value if packet.dst_pid is not None else 0,
            packet.txn_id, code, seg_buffer, nfields, len(info), len(segment))
    except struct.error as err:
        raise WireError(f"unencodable packet: {err}") from err
    out += segment
    return bytes(out)


def decode_packet(data: bytes) -> Packet:
    """Decode one datagram; malformed input raises :class:`WireError` only."""
    if len(data) < HEADER.size:
        raise WireError("short packet")
    (magic, kind_index, flags, src, dst, txn, code, seg_buffer, nfields,
     ninfo, seg_len) = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if kind_index >= len(_KINDS):
        raise WireError(f"unknown packet kind {kind_index}")
    if flags != _FLAG_HAS_MESSAGE and (flags or code or seg_buffer or nfields
                                       or seg_len):
        raise WireError("message-less packet claims message parts")
    try:
        fields, offset = (_decode_fields(data, HEADER.size, nfields)
                          if nfields else ({}, HEADER.size))
        info, offset = (_decode_fields(data, offset, ninfo) if ninfo
                        else (None, offset))
        if offset + seg_len != len(data):
            if offset + seg_len < len(data):
                raise WireError(
                    f"{len(data) - offset - seg_len} trailing bytes")
            raise WireError("truncated packet")
        message = None
        if flags:
            message = Message(code, fields,
                              data[offset:] if seg_len else None, seg_buffer)
        return Packet(_KINDS[kind_index], _pid(src),
                      _pid(dst) if dst else None, txn, message, info)
    except WireError:
        raise
    except (struct.error, ValueError, IndexError) as err:
        # Truncation and corruption surface from the field decoders
        # (ValueError: bad UTF-8, or a request kind that lost its message).
        raise WireError(f"malformed packet: {err}") from err
