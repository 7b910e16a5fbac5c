"""Wire protocol shared by every runtime transport.

One message shape serves both transports: each :class:`Message` travels
as a binary frame behind a 4-byte big-endian length prefix, whether a
socket or the in-memory network's virtual pipe carries the bytes.
Keeping the schema tiny (a kind tag, a sender, a correlation id, a
payload dict) means the protocol layer — origin, proxies, load
generator — never knows which transport carried a message.

One codec serialises that schema, :data:`BINARY_CODEC`: a
``struct``-packed header (magic, version, kind, payload format, field
lengths, body bytes) followed by a packed payload.  The hot ``request``
and ``response`` payloads use fixed packed layouts whose id lists (the
request's cache digest, the response's rider ids) travel as one
separator-joined blob; everything else — including an id list that
contains the separator — falls back to a tagged value encoding that
covers exactly the JSON value domain (``None``, ``bool``, ``int``,
``float``, ``str``, ``list``, string-keyed ``dict``).  Decoding reads
straight out of a ``memoryview`` — no intermediate copies, no text
parse.  Bytes that are not a binary frame of the current version are a
protocol violation, like any other malformed frame.

Message kinds
-------------

``request``      client → proxy/origin: fetch one document.
``response``     the demand document plus any speculated rider documents.
``push``         dissemination daemon → proxy: replace/extend holdings.
``ack``          proxy → daemon: push applied.
``stats``        ops → origin: report counters.
``stats-reply``  origin → ops: the counter snapshot.
``error``        any node → requester: the request failed; the payload's
                 ``error_kind`` says whether the *protocol* was violated
                 or the *transport* failed, so callers can re-raise the
                 right exception class.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any

from ..errors import RuntimeProtocolError

#: Default cap on one frame's encoded size (TCP transport).  ``TcpServer``,
#: ``dial`` and ``tcp_call`` accept an override as ``max_frame_bytes``.
MAX_FRAME_BYTES = 8 * 1024 * 1024
#: Length-prefix width in bytes (big-endian unsigned).
HEADER_BYTES = 4

#: Every message kind the protocol defines.
KINDS = frozenset(
    {"request", "response", "push", "ack", "stats", "stats-reply", "error"}
)


@dataclass(frozen=True)
class Message:
    """One protocol message.

    Attributes:
        kind: One of :data:`KINDS`.
        sender: Endpoint name of the node that produced the message.
        request_id: Correlation id; replies echo their request's id.
        payload: Kind-specific fields (JSON value domain).
        body_bytes: Nominal body size used by the simulated network's
            latency model, which reads it back from the frame with
            :func:`nominal_bytes`; for a response it is the *document*
            bytes the response represents, not its encoded length.
    """

    kind: str
    sender: str
    request_id: str = ""
    payload: dict[str, Any] = field(default_factory=dict)
    body_bytes: int = 0


# --------------------------------------------------------------------------
# Binary codec
#
# Frame layout (all integers big-endian):
#
#   magic      2 bytes   0xAB 0x52; a frame without it is rejected
#   version    1 byte    wire format version (currently 2; a frame of any
#                        other version is rejected, not translated)
#   kind       1 byte    index into _KIND_CODES
#   format     1 byte    payload encoding: 0 generic tagged, 1 packed
#   sender     u16 len   + UTF-8 bytes
#   request_id u16 len   + UTF-8 bytes
#   body_bytes i64
#   payload    format-dependent: the tagged-value encoding of
#              _write_value (format 0), or for format 1 one of
#
#   request    f64 timestamp, u16 doc/client/demand lengths, u32 digest
#              count, u32 digest blob length; then the doc id, client and
#              demand key bytes and the digest blob
#   response   i64 size, u16 doc/served_by lengths, u32 rider count, u32
#              rider blob length, u8 flags; then u16 path_hops if
#              flagged, the doc id and served_by bytes,
#              count x i64 rider sizes and the rider-id blob
#
# An id blob is the ids joined by one NUL ("\0".join(ids), UTF-8), so both
# directions are a single C-level pass (join / split).  An empty list is
# count 0 with an empty blob; decode rejects any other count/blob
# disagreement.  A list whose ids contain the separator cannot travel this
# way and sends the whole payload down the generic encoding.

_MAGIC = b"\xabR"
_MAGIC_BYTE = b"\xab"
_WIRE_VERSION = 2
_FORMAT_GENERIC = 0
_FORMAT_PACKED = 1

#: Stable kind numbering for the one-byte kind field.
_KIND_CODES: tuple[str, ...] = tuple(sorted(KINDS))
_KIND_INDEX = {kind: index for index, kind in enumerate(_KIND_CODES)}

_HEADER = struct.Struct("!2sBBBHHq")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")
_REQ_HEAD = struct.Struct("!dHHHII")
_RESP_HEAD = struct.Struct("!qHHIIB")
#: The one bit of the response head's trailing flags byte: ``path_hops``
#: follows the head.  Bit 0 is retired; every other bit is rejected.
_HAS_HOPS = 2

#: Joins the ids of a packed digest / rider list into one blob.
_ID_SEPARATOR = "\0"

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


def _pack_ids(ids: list[Any]) -> bytes | None:
    """An id list as one separator-joined UTF-8 blob, or ``None`` when
    it cannot travel that way (a non-string entry, an id containing the
    separator, an oversize list) and the payload must go generic."""
    if not ids:
        return b""
    try:
        joined = _ID_SEPARATOR.join(ids)
    except TypeError:
        return None
    if joined.count(_ID_SEPARATOR) != len(ids) - 1:
        return None
    blob = joined.encode("utf-8")
    if len(ids) > 0xFFFFFFFF or len(blob) > 0xFFFFFFFF:
        return None
    return blob


def _unpack_ids(
    view: memoryview, offset: int, count: int, blob_len: int
) -> list[str]:
    """Inverse of :func:`_pack_ids` over ``view[offset:offset + blob_len]``.

    Raises:
        RuntimeProtocolError: When the blob does not hold exactly
            ``count`` ids.
    """
    if count == 0 and blob_len == 0:
        return []
    ids = str(view[offset : offset + blob_len], "utf-8").split(_ID_SEPARATOR)
    if len(ids) != count:
        raise RuntimeProtocolError(
            f"id blob holds {len(ids)} entries, header announced {count}"
        )
    return ids


def _pack_request(payload: dict[str, Any]) -> bytes | None:
    """Pack a canonical ``make_request`` payload, or ``None`` if the
    payload deviates from that shape (extra keys, unexpected types,
    oversize fields) and must take the generic encoding instead."""
    try:
        doc_id = payload["doc_id"]
        client = payload["client"]
        timestamp = payload["timestamp"]
        digest = payload["digest"]
    except (KeyError, TypeError):
        return None
    demand = payload.get("req")
    if len(payload) != 4 + (demand is not None):
        return None
    if type(doc_id) is not str or type(client) is not str:
        return None
    if type(timestamp) is not float or type(digest) is not list:
        return None
    if demand is None:
        demand_raw = b""
    elif type(demand) is str and demand:
        demand_raw = demand.encode("utf-8")
    else:
        return None
    doc_raw = doc_id.encode("utf-8")
    client_raw = client.encode("utf-8")
    if max(len(doc_raw), len(client_raw), len(demand_raw)) > 0xFFFF:
        return None
    packed_ids = _pack_ids(digest)
    if packed_ids is None:
        return None
    return b"".join(
        (
            _REQ_HEAD.pack(
                timestamp,
                len(doc_raw),
                len(client_raw),
                len(demand_raw),
                len(digest),
                len(packed_ids),
            ),
            doc_raw,
            client_raw,
            demand_raw,
            packed_ids,
        )
    )


def _unpack_request(view: memoryview, offset: int) -> tuple[dict[str, Any], int]:
    """Inverse of :func:`_pack_request`; returns payload + next offset."""
    timestamp, doc_len, client_len, demand_len, count, blob_len = (
        _REQ_HEAD.unpack_from(view, offset)
    )
    offset += _REQ_HEAD.size
    doc_id = str(view[offset : offset + doc_len], "utf-8")
    offset += doc_len
    client = str(view[offset : offset + client_len], "utf-8")
    offset += client_len
    demand = str(view[offset : offset + demand_len], "utf-8")
    offset += demand_len
    digest = _unpack_ids(view, offset, count, blob_len)
    offset += blob_len
    payload: dict[str, Any] = {
        "doc_id": doc_id,
        "client": client,
        "timestamp": timestamp,
        "digest": digest,
    }
    if demand_len:
        payload["req"] = demand
    return payload, offset


def _pack_response(payload: dict[str, Any]) -> bytes | None:
    """Pack a canonical ``make_response`` payload (optionally stamped
    with a cache node's ``path_hops``, a flagged optional field), or
    ``None`` when it must take the generic encoding."""
    try:
        doc_id = payload["doc_id"]
        size = payload["size"]
        served_by = payload["served_by"]
        speculated = payload["speculated"]
    except (KeyError, TypeError):
        return None
    hops = payload.get("path_hops")
    if len(payload) != 4 + (hops is not None):
        return None
    if type(doc_id) is not str or type(served_by) is not str:
        return None
    if type(size) is not int or not _I64_MIN <= size <= _I64_MAX:
        return None
    if type(speculated) is not list:
        return None
    if hops is not None and (type(hops) is not int or not 0 <= hops <= 0xFFFF):
        return None
    doc_raw = doc_id.encode("utf-8")
    served_raw = served_by.encode("utf-8")
    if max(len(doc_raw), len(served_raw)) > 0xFFFF:
        return None
    rider_ids: list[str] = []
    rider_sizes: list[int] = []
    for pair in speculated:
        if type(pair) is not list or len(pair) != 2:
            return None
        rider_id, rider_size = pair
        if type(rider_id) is not str or type(rider_size) is not int:
            return None
        rider_ids.append(rider_id)
        rider_sizes.append(rider_size)
    count = len(rider_ids)
    blob = _pack_ids(rider_ids)
    if blob is None:
        return None
    try:
        sizes_raw = struct.pack(f"!{count}q", *rider_sizes)
    except struct.error:  # a rider size beyond i64
        return None
    flags, hops_raw = (0, b"") if hops is None else (_HAS_HOPS, _U16.pack(hops))
    head = _RESP_HEAD.pack(size, len(doc_raw), len(served_raw), count, len(blob), flags)
    return b"".join((head, hops_raw, doc_raw, served_raw, sizes_raw, blob))


def _unpack_response(view: memoryview, offset: int) -> tuple[dict[str, Any], int]:
    """Inverse of :func:`_pack_response`; returns payload + next offset."""
    size, doc_len, served_len, count, blob_len, flags = (
        _RESP_HEAD.unpack_from(view, offset)
    )
    offset += _RESP_HEAD.size
    if flags & ~_HAS_HOPS:
        raise RuntimeProtocolError(f"unknown response flags {flags:#04x}")
    if flags & _HAS_HOPS:
        (hops,) = _U16.unpack_from(view, offset)
        offset += 2
    doc_id = str(view[offset : offset + doc_len], "utf-8")
    offset += doc_len
    served_by = str(view[offset : offset + served_len], "utf-8")
    offset += served_len
    sizes = struct.unpack_from(f"!{count}q", view, offset)
    offset += 8 * count
    rider_ids = _unpack_ids(view, offset, count, blob_len)
    offset += blob_len
    speculated = [list(pair) for pair in zip(rider_ids, sizes)]
    payload: dict[str, Any] = {
        "doc_id": doc_id,
        "size": size,
        "served_by": served_by,
        "speculated": speculated,
    }
    if flags & _HAS_HOPS:
        payload["path_hops"] = hops
    return payload, offset


def _write_value(chunks: list[bytes], value: Any) -> None:
    """Append the tagged encoding of one JSON-domain value.

    The tag set mirrors the JSON value domain exactly — tuples encode
    like lists (and decode as lists) and dict keys must be strings.

    Raises:
        RuntimeProtocolError: On a value outside the JSON domain.
    """
    kind = type(value)
    if kind is str:
        raw = value.encode("utf-8")
        chunks.append(b"s" + _U32.pack(len(raw)))
        chunks.append(raw)
    elif kind is int:
        if _I64_MIN <= value <= _I64_MAX:
            chunks.append(b"i" + _I64.pack(value))
        else:
            raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
            chunks.append(b"I" + _U32.pack(len(raw)))
            chunks.append(raw)
    elif kind is float:
        chunks.append(b"d" + _F64.pack(value))
    elif kind is bool:
        chunks.append(b"T" if value else b"F")
    elif value is None:
        chunks.append(b"N")
    elif kind is list or kind is tuple:
        chunks.append(b"l" + _U32.pack(len(value)))
        for item in value:
            _write_value(chunks, item)
    elif kind is dict:
        chunks.append(b"m" + _U32.pack(len(value)))
        for key in sorted(value):
            if type(key) is not str:
                raise RuntimeProtocolError(
                    f"binary codec requires string payload keys, got {key!r}"
                )
            raw = key.encode("utf-8")
            chunks.append(_U32.pack(len(raw)))
            chunks.append(raw)
            _write_value(chunks, value[key])
    else:
        raise RuntimeProtocolError(
            f"payload value of type {kind.__name__} is not wire-encodable"
        )


def _read_value(view: memoryview, offset: int) -> tuple[Any, int]:
    """Inverse of :func:`_write_value`; returns value + next offset.

    Raises:
        RuntimeProtocolError: On an unknown tag byte.
    """
    tag = view[offset]
    offset += 1
    if tag == 0x73:  # "s"
        (length,) = _U32.unpack_from(view, offset)
        offset += 4
        return str(view[offset : offset + length], "utf-8"), offset + length
    if tag == 0x69:  # "i"
        (value,) = _I64.unpack_from(view, offset)
        return value, offset + 8
    if tag == 0x49:  # "I"
        (length,) = _U32.unpack_from(view, offset)
        offset += 4
        big = int.from_bytes(view[offset : offset + length], "big", signed=True)
        return big, offset + length
    if tag == 0x64:  # "d"
        (value,) = _F64.unpack_from(view, offset)
        return value, offset + 8
    if tag == 0x54:  # "T"
        return True, offset
    if tag == 0x46:  # "F"
        return False, offset
    if tag == 0x4E:  # "N"
        return None, offset
    if tag == 0x6C:  # "l"
        (count,) = _U32.unpack_from(view, offset)
        offset += 4
        items: list[Any] = []
        for _ in range(count):
            item, offset = _read_value(view, offset)
            items.append(item)
        return items, offset
    if tag == 0x6D:  # "m"
        (count,) = _U32.unpack_from(view, offset)
        offset += 4
        mapping: dict[str, Any] = {}
        for _ in range(count):
            (length,) = _U32.unpack_from(view, offset)
            offset += 4
            key = str(view[offset : offset + length], "utf-8")
            offset += length
            mapping[key], offset = _read_value(view, offset)
        return mapping, offset
    raise RuntimeProtocolError(f"unknown binary value tag {tag:#04x}")


class BinaryCodec:
    """Struct-packed wire codec: the one transport format.

    The header is one ``struct`` pack; the hot ``request``/``response``
    payload shapes get fixed packed layouts and everything else takes a
    tagged value encoding covering exactly the JSON value domain, so
    ``decode(encode(message)) == message`` for every message in it.
    Decoding is zero-copy: fields are unpacked straight out of a
    ``memoryview`` of the frame.
    """

    def encode(self, message: Message) -> bytes:
        """Serialise ``message`` to binary frame bytes.

        Raises:
            RuntimeProtocolError: On an unknown kind, an out-of-range
                header field, or a payload value outside the wire
                value domain.
        """
        kind_code = _KIND_INDEX.get(message.kind)
        if kind_code is None:
            raise RuntimeProtocolError(f"unknown message kind {message.kind!r}")
        payload = message.payload
        packed: bytes | None = None
        if message.kind == "request":
            packed = _pack_request(payload)
        elif message.kind == "response":
            packed = _pack_response(payload)
        if packed is None:
            if type(payload) is not dict:
                raise RuntimeProtocolError("message payload must be an object")
            chunks: list[bytes] = []
            _write_value(chunks, payload)
            payload_format = _FORMAT_GENERIC
            body = b"".join(chunks)
        else:
            payload_format = _FORMAT_PACKED
            body = packed
        sender_raw = message.sender.encode("utf-8")
        request_raw = message.request_id.encode("utf-8")
        try:
            header = _HEADER.pack(
                _MAGIC,
                _WIRE_VERSION,
                kind_code,
                payload_format,
                len(sender_raw),
                len(request_raw),
                message.body_bytes,
            )
        except struct.error as err:
            raise RuntimeProtocolError(f"unencodable message header: {err}") from err
        return b"".join((header, sender_raw, request_raw, body))

    def decode(self, raw: bytes) -> Message:
        """Parse binary frame bytes back into a message.

        Raises:
            RuntimeProtocolError: On a bad magic/version, a truncated
                or overlong frame, or a malformed payload.
        """
        view = memoryview(raw)
        try:
            (
                magic,
                version,
                kind_code,
                payload_format,
                sender_len,
                request_len,
                body_bytes,
            ) = _HEADER.unpack_from(view, 0)
            if magic != _MAGIC:
                raise RuntimeProtocolError("bad binary frame magic")
            if version != _WIRE_VERSION:
                raise RuntimeProtocolError(
                    f"unsupported wire version {version}"
                )
            if kind_code >= len(_KIND_CODES):
                raise RuntimeProtocolError(f"unknown kind code {kind_code}")
            offset = _HEADER.size
            sender = str(view[offset : offset + sender_len], "utf-8")
            offset += sender_len
            request_id = str(view[offset : offset + request_len], "utf-8")
            offset += request_len
            kind = _KIND_CODES[kind_code]
            payload: Any
            if payload_format == _FORMAT_PACKED and kind == "request":
                payload, offset = _unpack_request(view, offset)
            elif payload_format == _FORMAT_PACKED and kind == "response":
                payload, offset = _unpack_response(view, offset)
            elif payload_format == _FORMAT_GENERIC:
                payload, offset = _read_value(view, offset)
            else:
                raise RuntimeProtocolError(
                    f"payload format {payload_format} is invalid for kind {kind!r}"
                )
        except (struct.error, UnicodeDecodeError, IndexError) as err:
            raise RuntimeProtocolError(f"undecodable binary frame: {err}") from err
        if offset != len(view):
            raise RuntimeProtocolError(
                f"binary frame has {len(view) - offset} trailing bytes"
            )
        if not isinstance(payload, dict):
            raise RuntimeProtocolError("message payload must be an object")
        return Message(
            kind=kind,
            sender=sender,
            request_id=request_id,
            payload=payload,
            body_bytes=body_bytes,
        )


#: The one codec instance (the codec is stateless).
BINARY_CODEC = BinaryCodec()


def frame(message: Message, *, max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Length-prefix a message for stream transports.

    Raises:
        RuntimeProtocolError: If the encoded body exceeds
            ``max_frame_bytes``.
    """
    body = BINARY_CODEC.encode(message)
    if len(body) > max_frame_bytes:
        raise RuntimeProtocolError(
            f"frame of {len(body)} bytes exceeds the {max_frame_bytes}-byte cap"
        )
    return len(body).to_bytes(HEADER_BYTES, "big") + body


#: Where a binary frame keeps ``body_bytes``: the last field of its header.
_BODY_BYTES_AT = HEADER_BYTES + _HEADER.size - _I64.size


def nominal_bytes(framed: bytes) -> int:
    """The ``body_bytes`` one :func:`frame` output declares, read in place
    from its header; 0 for bytes that are not one well-formed frame,
    which only a hostile peer writes."""
    try:
        if framed[HEADER_BYTES : HEADER_BYTES + 1] == _MAGIC_BYTE:
            return _I64.unpack_from(framed, _BODY_BYTES_AT)[0]
    except struct.error:
        pass
    return 0


def make_request(
    sender: str,
    request_id: str,
    doc_id: str,
    timestamp: float,
    *,
    digest: tuple[str, ...] = (),
    demand: str = "",
) -> Message:
    """A client's demand request, optionally piggybacking its cache digest.

    ``demand`` is the *stable* demand key: retries of one logical
    request carry fresh ``request_id`` correlation ids but the same
    demand key, which lets servers classify re-served requests as
    duplicate service instead of fresh load (at-least-once accounting).
    """
    payload: dict[str, Any] = {
        "doc_id": doc_id,
        "client": sender,
        "timestamp": timestamp,
        "digest": list(digest),
    }
    if demand:
        payload["req"] = demand
    return Message(
        kind="request",
        sender=sender,
        request_id=request_id,
        payload=payload,
        body_bytes=64 + 8 * len(digest),
    )


def make_response(
    sender: str,
    request_id: str,
    doc_id: str,
    size: int,
    served_by: str,
    *,
    speculated: list[tuple[str, int]] | None = None,
) -> Message:
    """The demand document plus speculated (doc_id, size) riders."""
    riders = speculated or []
    rider_bytes = 0
    for _, rider_size in riders:
        rider_bytes += rider_size
    return Message(
        kind="response",
        sender=sender,
        request_id=request_id,
        payload={
            "doc_id": doc_id,
            "size": size,
            "served_by": served_by,
            "speculated": [list(pair) for pair in riders],
        },
        body_bytes=size + rider_bytes,
    )


def make_error(
    sender: str, request_id: str, error_kind: str, reason: str
) -> Message:
    """A failure reply; ``error_kind`` is ``"protocol"`` or ``"transport"``."""
    return Message(
        kind="error",
        sender=sender,
        request_id=request_id,
        payload={"error_kind": error_kind, "reason": reason},
        body_bytes=64,
    )


def raise_if_error(message: Message) -> Message:
    """Re-raise an ``error`` reply as the exception class it encodes.

    Returns the message unchanged when it is not an error, so callers
    can write ``reply = raise_if_error(await ...)``.

    Raises:
        TransportError: When the peer reported a transport failure.
        RuntimeProtocolError: When the peer reported a protocol
            violation.
    """
    if message.kind != "error":
        return message
    reason = str(message.payload.get("reason", "unspecified error"))
    if message.payload.get("error_kind") == "transport":
        from ..errors import TransportError

        raise TransportError(f"{message.sender}: {reason}")
    raise RuntimeProtocolError(f"{message.sender}: {reason}")
