"""Binary wire encoding for kernel packets.

Used by the asyncio/UDP transport (and by tests that pin the format).  The
layout is a practical tagged serialization:

    magic "VK" | kind u8 | src_pid u32 | dst_pid u32 | txn u64
    | flags u8 | [message: code u16 | fields | segment u32+bytes
    | segment_buffer u16] | info fields

Field maps encode as count u8 then per-field: key (u8 length + utf8) and a
type-tagged value (i64, f64, bool, str, bytes, pid, none).  A real V kernel
packed the 32-byte short message as raw words; we carry field names for
debuggability and document the divergence -- the *simulated* cost model
always charges the paper's 32 bytes, independent of this encoding.
"""

from __future__ import annotations

import struct

from repro.kernel.messages import Message, Packet, PacketKind
from repro.kernel.pids import Pid

MAGIC = b"VK"

_KINDS = list(PacketKind)
_KIND_INDEX = {kind: index for index, kind in enumerate(_KINDS)}

_HEADER = struct.Struct(">2sBIIQB")
_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

_FLAG_HAS_MESSAGE = 0x01


class WireError(ValueError):
    """Malformed or unencodable packet."""


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


#: Exact-type dispatch for the common field types; the isinstance chain in
#: ``_encode_value`` remains the fallback for subclasses (IntEnum values,
#: str/bytes subclasses), so the accepted inputs -- and the bytes produced --
#: are unchanged.
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
    if encoder is not None:
        encoder(out, value)
    elif isinstance(value, bool):
        out += b"B\x01" if value else b"B\x00"
    elif isinstance(value, Pid):
        out += b"P" + _U32.pack(value.value)
    elif isinstance(value, int):
        _encode_int(out, value)
    elif isinstance(value, float):
        _encode_float(out, value)
    elif isinstance(value, str):
        _encode_str(out, value)
    elif isinstance(value, (bytes, bytearray)):
        _encode_bytes(out, value)
    else:
        raise WireError(
            f"field value of type {type(value).__name__} is not wire-encodable "
            "(only the discrete-event backend can carry rich Python values)")


def _decode_value(data: bytes, offset: int):
    tag = data[offset : offset + 1]
    offset += 1
    if tag == b"N":
        return None, offset
    if tag == b"B":
        return bool(data[offset]), offset + 1
    if tag == b"P":
        (raw,) = _U32.unpack_from(data, offset)
        return Pid(raw), offset + 4
    if tag == b"i":
        (raw,) = _I64.unpack_from(data, offset)
        return raw, offset + 8
    if tag == b"f":
        (raw,) = _F64.unpack_from(data, offset)
        return raw, offset + 8
    if tag == b"s":
        (length,) = _U16.unpack_from(data, offset)
        offset += 2
        return data[offset : offset + length].decode("utf-8"), offset + length
    if tag == b"b":
        (length,) = _U16.unpack_from(data, offset)
        offset += 2
        return bytes(data[offset : offset + length]), offset + length
    raise WireError(f"unknown value tag {tag!r}")


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
    if not fields:
        out += b"\x00"
        return
    if len(fields) > 0xFF:
        raise WireError("too many fields")
    key_cache = _KEY_CACHE
    out += _U8.pack(len(fields))
    for key in sorted(fields):
        encoded = key_cache.get(key)
        out += encoded if encoded is not None else _encode_key(key)
        _encode_value(out, fields[key])


def _decode_fields(data: bytes, offset: int) -> tuple[dict, int]:
    count = data[offset]
    offset += 1
    if not count:
        return {}, offset
    fields = {}
    for __ in range(count):
        (klen,) = _U8.unpack_from(data, offset)
        offset += 1
        key = data[offset : offset + klen].decode("utf-8")
        offset += klen
        fields[key], offset = _decode_value(data, offset)
    return fields, offset


# ------------------------------------------------------------------- packets


def encode_packet(packet: Packet) -> bytes:
    flags = _FLAG_HAS_MESSAGE if packet.message is not None else 0
    out = bytearray(_HEADER.pack(
        MAGIC, _KIND_INDEX[packet.kind], packet.src_pid.value,
        packet.dst_pid.value if packet.dst_pid is not None else 0,
        packet.txn_id, flags))
    if packet.message is not None:
        message = packet.message
        out += _U16.pack(message.code)
        _encode_fields(out, message.fields)
        segment = message.segment or b""
        if len(segment) > 0xFFFFFFFF:
            raise WireError("segment too long")
        out += _U32.pack(len(segment)) + segment
        out += _U16.pack(message.segment_buffer)
    _encode_fields(out, packet.info)
    return bytes(out)


def decode_packet(data: bytes) -> Packet:
    """Decode one datagram; malformed input raises :class:`WireError` only."""
    try:
        return _decode_packet(data)
    except WireError:
        raise
    except (struct.error, ValueError, IndexError) as err:
        # Truncation and corruption surface from the primitive decoders
        # (ValueError: bad UTF-8, or a request kind that lost its message).
        raise WireError(f"malformed packet: {err}") from err


def _decode_packet(data: bytes) -> Packet:
    if len(data) < _HEADER.size:
        raise WireError("short packet")
    magic, kind_index, src, dst, txn, flags = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if kind_index >= len(_KINDS):
        raise WireError(f"unknown packet kind {kind_index}")
    offset = _HEADER.size
    message = None
    if flags & _FLAG_HAS_MESSAGE:
        (code,) = _U16.unpack_from(data, offset)
        offset += 2
        fields, offset = _decode_fields(data, offset)
        (seg_len,) = _U32.unpack_from(data, offset)
        offset += 4
        segment = bytes(data[offset : offset + seg_len]) if seg_len else None
        offset += seg_len
        (seg_buffer,) = _U16.unpack_from(data, offset)
        offset += 2
        message = Message(code=code, fields=fields, segment=segment,
                          segment_buffer=seg_buffer)
    info, offset = _decode_fields(data, offset)
    if offset != len(data):
        raise WireError(f"{len(data) - offset} trailing bytes")
    return Packet(kind=_KINDS[kind_index], src_pid=Pid(src),
                  dst_pid=Pid(dst) if dst else None, txn_id=txn,
                  message=message, info=info)
