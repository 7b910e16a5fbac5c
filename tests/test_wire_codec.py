"""Binary wire codec: round trips, the packed layout, hostile peers.

Over the whole JSON value domain, encoding a message and decoding the
result must reconstruct the identical
:class:`~repro.runtime.messages.Message`: the message is the oracle.
Equality here is exact ``==`` — the codec carries floats as IEEE
doubles and ints as ints, so no tolerance is ever needed.  Bytes that
are not a binary frame (a canonical-JSON request, say) are hostile
input like any other malformed frame.
"""

from __future__ import annotations

import asyncio
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RuntimeProtocolError, TransportError
from repro.runtime import InMemoryNetwork, Message, TcpServer, run_virtual
from repro.runtime.messages import (
    BINARY_CODEC,
    HEADER_BYTES,
    KINDS,
    MAX_FRAME_BYTES,
    frame,
    make_error,
    make_request,
    make_response,
)
from repro.runtime.transport import _FrameProtocol, dial

#: Offset of the payload-format byte in a binary frame header
#: (magic 2, version 1, kind 1, then format).
_FORMAT_BYTE = 4

# The full JSON value domain, including non-ASCII text, big integers
# (beyond i64, forcing the codec's arbitrary-precision path), and
# finite floats.  NaN/inf are excluded: the value domain is JSON's.
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=24)
)
_json_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
#: Ids that may ride in a packed id blob: any text without the blob's
#: separator (an id containing it sends the payload down the generic
#: encoding; see TestPackedIdLists).
_packable_ids = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\0"), max_size=20
)
_messages = st.builds(
    Message,
    kind=st.sampled_from(sorted(KINDS)),
    sender=st.text(max_size=16),
    request_id=st.text(max_size=16),
    payload=st.dictionaries(st.text(max_size=12), _json_values, max_size=5),
    body_bytes=st.integers(min_value=0, max_value=2**62),
)


class TestCodecEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(message=_messages)
    def test_roundtrip_equivalence(self, message):
        assert BINARY_CODEC.decode(BINARY_CODEC.encode(message)) == message

    @settings(max_examples=100, deadline=None)
    @given(
        doc_id=st.text(min_size=1, max_size=32),
        client=st.text(min_size=1, max_size=24),
        timestamp=st.floats(
            min_value=0, max_value=1e12, allow_nan=False, allow_infinity=False
        ),
        digest=st.lists(st.text(max_size=20), max_size=12),
        demand=st.text(max_size=16),
    )
    def test_request_packed_path(self, doc_id, client, timestamp, digest, demand):
        message = make_request(
            client,
            f"{client}#1",
            doc_id,
            timestamp,
            digest=tuple(digest),
            demand=demand,
        )
        assert BINARY_CODEC.decode(BINARY_CODEC.encode(message)) == message

    @settings(max_examples=100, deadline=None)
    @given(
        doc_id=st.text(min_size=1, max_size=32),
        size=st.integers(min_value=0, max_value=2**40),
        riders=st.lists(
            st.tuples(
                st.text(max_size=20), st.integers(min_value=0, max_value=2**40)
            ),
            max_size=8,
        ),
    )
    def test_response_packed_path(self, doc_id, size, riders):
        message = make_response(
            "origin", "c#1", doc_id, size, "origin", speculated=riders
        )
        assert BINARY_CODEC.decode(BINARY_CODEC.encode(message)) == message

    @pytest.mark.parametrize("with_hops", [False, True])
    @settings(max_examples=50, deadline=None)
    @given(
        doc_id=st.text(min_size=1, max_size=32),
        size=st.integers(min_value=0, max_value=2**40),
        riders=st.lists(
            st.tuples(_packable_ids, st.integers(min_value=0, max_value=2**40)),
            max_size=4,
        ),
        hops=st.integers(min_value=0, max_value=0xFFFF),
    )
    def test_optional_response_fields_stay_packed(
        self, with_hops, doc_id, size, riders, hops
    ):
        # path_hops (cache nodes) is a flagged optional field of the
        # packed layout: stamping it must not push a reply onto the
        # generic encoding.
        message = make_response(
            "region-1", "c#1", doc_id, size, "origin", speculated=riders
        )
        if with_hops:
            message.payload["path_hops"] = hops
        raw = BINARY_CODEC.encode(message)
        assert raw[_FORMAT_BYTE] == 1  # packed
        assert BINARY_CODEC.decode(raw) == message

    @pytest.mark.parametrize(
        "extra",
        [
            {"path_hops": -1},
            {"path_hops": 0x10000},
            {"path_hops": 2.0},
            {"path_hops": True},
            {"path_hops": "2"},
            {"via": "region-1"},
            {"path_hops": 2, "via": "region-1"},
        ],
    )
    def test_unpackable_response_fields_fall_back_intact(self, extra):
        # Out-of-range, mistyped or unknown extra fields must take the
        # generic encoding whole — never be truncated into the layout.
        message = make_response("region-1", "c#1", "/a", 10, "origin")
        message.payload.update(extra)
        raw = BINARY_CODEC.encode(message)
        assert raw[_FORMAT_BYTE] == 0  # generic tagged encoding
        assert BINARY_CODEC.decode(raw) == message

    def test_non_ascii_and_empty_fields(self):
        cases = [
            make_request(
                "клиент-1", "клиент-1#9", "/日本語/ü.html", 12.5,
                digest=("/ö.html", "", "/🌐.html"),
            ),
            Message(kind="stats", sender="", request_id="", payload={}),
            make_error("origin", "c#1", "protocol", "naïve—reason"),
        ]
        for message in cases:
            assert BINARY_CODEC.decode(BINARY_CODEC.encode(message)) == message

    def test_huge_counter_payload(self):
        message = Message(
            kind="stats-reply",
            sender="origin",
            request_id="c#1",
            payload={"served": 2**80, "debt": -(2**80), "load": 0.125},
        )
        decoded = BINARY_CODEC.decode(BINARY_CODEC.encode(message))
        assert decoded == message
        assert decoded.payload["served"] == 2**80

    def test_ineligible_payload_falls_back_to_generic(self):
        # An int timestamp is outside the packed request layout; the
        # codec must still round-trip it via the generic encoding.
        message = Message(
            kind="request",
            sender="c",
            request_id="c#1",
            payload={"doc_id": "/a", "client": "c", "timestamp": 3,
                     "digest": []},
            body_bytes=64,
        )
        assert BINARY_CODEC.decode(BINARY_CODEC.encode(message)) == message

    def test_binary_frames_are_smaller_on_live_shapes(self):
        message = make_request(
            "client-7", "client-7#42", "/docs/a.html", 1234.5,
            digest=tuple(f"/docs/{i}.html" for i in range(12)),
        )
        assert len(BINARY_CODEC.encode(message)) < len(_json_body(message))


def _json_body(message: Message) -> bytes:
    """``message`` as canonical JSON: the text form a peer might send
    instead of a binary frame."""
    return json.dumps(
        {
            "kind": message.kind,
            "sender": message.sender,
            "request_id": message.request_id,
            "payload": message.payload,
            "body_bytes": message.body_bytes,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")


def _header(
    kind: str, sender: bytes, request_id: bytes, body_bytes: int, version: int
) -> bytes:
    """A hand-built binary frame header announcing a packed payload."""
    return (
        struct.pack(
            "!2sBBBHHq",
            b"\xabR",
            version,
            sorted(KINDS).index(kind),
            1,
            len(sender),
            len(request_id),
            body_bytes,
        )
        + sender
        + request_id
    )


def _request_frame(count: int, blob: bytes, *, version: int = 2) -> bytes:
    """``make_request("c", "c#1", "/a", 0.0, digest=...)`` built by hand,
    with the digest's announced ``count`` and id ``blob`` set freely."""
    return b"".join(
        (
            _header("request", b"c", b"c#1", 64 + 8 * count, version),
            struct.pack("!dHHHII", 0.0, 2, 1, 0, count, len(blob)),
            b"/a",
            b"c",
            blob,
        )
    )


def _response_frame(
    sizes: list[int], blob: bytes, *, version: int = 2, flags: int = 0
) -> bytes:
    """``make_response("o", "c#1", "/a", 10, "o", speculated=...)`` built
    by hand: ``len(sizes)`` is the announced rider count."""
    return b"".join(
        (
            _header("response", b"o", b"c#1", 10 + sum(sizes), version),
            struct.pack("!qHHIIB", 10, 2, 1, len(sizes), len(blob), flags),
            b"/a",
            b"o",
            struct.pack(f"!{len(sizes)}q", *sizes),
            blob,
        )
    )


#: Frames the codec must refuse: id blobs that disagree with their
#: count, the v1 header, a response flag bit other than ``path_hops``
#: (bit 0 is retired), and a request in canonical JSON instead of the
#: binary format.
_MALFORMED_FRAMES = [
    pytest.param(_request_frame(3, b"/b\0/c"), id="request-count-above-blob"),
    pytest.param(_request_frame(1, b"/b\0/c"), id="request-count-below-blob"),
    pytest.param(_request_frame(0, b"/b"), id="request-blob-without-count"),
    pytest.param(_request_frame(2, b""), id="request-count-without-blob"),
    pytest.param(
        _response_frame([4, 6, 8], b"/b\0/c"), id="response-count-above-blob"
    ),
    pytest.param(
        _response_frame([4], b"/b\0/c"), id="response-count-below-blob"
    ),
    pytest.param(_response_frame([], b"/b"), id="response-blob-without-count"),
    pytest.param(
        _request_frame(2, b"/b\0/c", version=1), id="request-v1-header"
    ),
    pytest.param(
        _response_frame([4, 6], b"/b\0/c", version=1), id="response-v1-header"
    ),
    pytest.param(
        _response_frame([4, 6], b"/b\0/c", flags=1), id="response-flag-bit-0"
    ),
    pytest.param(
        _json_body(make_request("c", "c#1", "/a", 0.0)), id="request-json-body"
    ),
]


class TestPackedIdLists:
    """The v2 packed layout: id lists as one separator-joined blob."""

    def test_hand_built_frames_are_the_wire_format(self):
        # Pins the layout (and anchors the hostile frames below to it):
        # the encoder emits exactly these bytes.
        request = make_request("c", "c#1", "/a", 0.0, digest=("/b", "", "/ü"))
        blob = "/b\0\0/ü".encode("utf-8")
        assert BINARY_CODEC.encode(request) == _request_frame(3, blob)
        assert BINARY_CODEC.decode(_request_frame(3, blob)) == request
        response = make_response(
            "o", "c#1", "/a", 10, "o", speculated=[("/b", 4), ("/c", 6)]
        )
        assert BINARY_CODEC.encode(response) == _response_frame([4, 6], b"/b\0/c")
        assert BINARY_CODEC.decode(_response_frame([4, 6], b"/b\0/c")) == response
        empty = make_request("c", "c#1", "/a", 0.0)
        assert BINARY_CODEC.encode(empty) == _request_frame(0, b"")
        assert BINARY_CODEC.decode(_request_frame(1, b"")).payload["digest"] == [""]

    @pytest.mark.parametrize("ids", [("\0",), ("/a", "/b\0c"), ("", "\0", "")])
    def test_id_containing_the_separator_goes_generic(self, ids):
        request = make_request("c", "c#1", "/a", 0.0, digest=ids)
        response = make_response(
            "o", "c#1", "/a", 10, "o", speculated=[(rider, 7) for rider in ids]
        )
        for message in (request, response):
            raw = BINARY_CODEC.encode(message)
            assert raw[_FORMAT_BYTE] == 0  # generic tagged encoding
            assert BINARY_CODEC.decode(raw) == message

    @settings(max_examples=100, deadline=None)
    @given(ids=st.lists(_packable_ids, max_size=12))
    def test_separator_free_ids_stay_packed(self, ids):
        request = make_request("c", "c#1", "/a", 0.0, digest=tuple(ids))
        response = make_response(
            "o", "c#1", "/a", 10, "o", speculated=[(rider, 7) for rider in ids]
        )
        for message in (request, response):
            raw = BINARY_CODEC.encode(message)
            assert raw[_FORMAT_BYTE] == 1  # packed
            assert BINARY_CODEC.decode(raw) == message

    @pytest.mark.parametrize("raw", _MALFORMED_FRAMES)
    def test_malformed_id_blob_or_old_version_is_a_protocol_error(self, raw):
        # pytest.raises lets any other exception class through as a failure.
        with pytest.raises(RuntimeProtocolError):
            BINARY_CODEC.decode(raw)


class _Cutter(_FrameProtocol):
    """A frame protocol on no carrier, recording what it cuts."""

    def __init__(self):
        super().__init__(MAX_FRAME_BYTES)
        self.messages = []
        self.violations = []

    def _message(self, message):
        self.messages.append(message)

    def _violated(self, err):
        self.violations.append(err)


def _feed(stream, cuts):
    """A fresh cutter fed ``stream`` in the chunks ``cuts`` split it into."""
    cutter = _Cutter()
    bounds = sorted(set(cuts))
    for start, end in zip([0, *bounds], [*bounds, len(stream)]):
        cutter.data_received(stream[start:end])
    return cutter


class TestFrameCutting:
    """A carrier may split the byte stream anywhere: the frames cut out
    of it must not depend on where."""

    @settings(max_examples=100, deadline=None)
    @given(
        messages=st.lists(_messages, max_size=6),
        data=st.data(),
    )
    def test_any_split_yields_the_same_messages_in_order(self, messages, data):
        stream = b"".join(frame(message) for message in messages)
        cutter = _feed(stream, data.draw(st.lists(st.integers(0, len(stream)))))
        assert cutter.messages == messages
        assert cutter.violations == [] and not cutter._buffer

    @settings(max_examples=100, deadline=None)
    @given(
        messages=st.lists(_messages, max_size=6),
        malformed=st.sampled_from([param.values[0] for param in _MALFORMED_FRAMES]),
        data=st.data(),
    )
    def test_a_malformed_frame_is_one_violation_and_ends_the_cutting(
        self, messages, malformed, data
    ):
        at = data.draw(st.integers(0, len(messages)))
        framed = [frame(message) for message in messages]
        framed.insert(at, len(malformed).to_bytes(HEADER_BYTES, "big") + malformed)
        stream = b"".join(framed)
        cutter = _feed(stream, data.draw(st.lists(st.integers(0, len(stream)))))
        assert cutter.messages == messages[:at]  # nothing cut after it
        assert len(cutter.violations) == 1 and cutter.dead


class TestCodecSelection:
    def test_decode_rejects_truncated_binary(self):
        raw = BINARY_CODEC.encode(make_request("c", "c#1", "/a", 0.0))
        for cut in (1, 3, len(raw) // 2, len(raw) - 1):
            with pytest.raises(RuntimeProtocolError):
                BINARY_CODEC.decode(raw[:cut])
        with pytest.raises(RuntimeProtocolError):
            BINARY_CODEC.decode(raw + b"\x00")

    def test_frame_respects_custom_limit(self):
        message = make_request("c", "c#1", "/a", 0.0)
        framed = frame(message, max_frame_bytes=MAX_FRAME_BYTES)
        assert len(framed) > HEADER_BYTES
        with pytest.raises(RuntimeProtocolError, match="frame"):
            frame(message, max_frame_bytes=8)


class TestInMemoryCodec:
    def test_codec_errors_surface_at_sender(self):
        async def scenario():
            network = InMemoryNetwork(seed=0)
            network.endpoint("rx")
            sender = network.endpoint("tx")
            poisoned = Message(
                kind="stats",
                sender="tx",
                request_id="tx#1",
                payload={"bad": {1: "non-string key"}},
            )
            with pytest.raises(RuntimeProtocolError, match="string payload keys"):
                await sender.call("rx", poisoned)
            return network.stats()

        stats = run_virtual(scenario())
        assert stats["frames_sent"] == stats["frames_inflight"] == 0


async def _echo_handler(message):
    return make_response(
        "server", message.request_id, message.payload["doc_id"], 10, "server"
    )


class TestHostilePeer:
    def _serve(self, coro_factory, **server_kwargs):
        async def scenario():
            server = TcpServer(_echo_handler, **server_kwargs)
            await server.start()
            try:
                return await coro_factory(server)
            finally:
                await server.close()

        return asyncio.run(scenario())

    async def _raw_exchange(self, port, body, *, expect_close=False):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(len(body).to_bytes(HEADER_BYTES, "big") + body)
            await writer.drain()
            header = await reader.readexactly(HEADER_BYTES)
            reply = await reader.readexactly(int.from_bytes(header, "big"))
            # After a protocol error the server hangs up; after a good
            # exchange it keeps the connection open for more frames.
            trailer = await reader.read(1) if expect_close else None
            return reply, trailer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def test_oversize_frame_from_hostile_peer(self):
        async def probe(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                # Declare a body far beyond the server's limit; the
                # server must refuse before reading it and hang up.
                writer.write((64 * 1024).to_bytes(HEADER_BYTES, "big"))
                await writer.drain()
                header = await reader.readexactly(HEADER_BYTES)
                reply = await reader.readexactly(int.from_bytes(header, "big"))
                trailer = await reader.read(1)
                return reply, trailer, server.protocol_errors
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

        reply, trailer, errors = self._serve(probe, max_frame_bytes=1024)
        decoded = BINARY_CODEC.decode(reply)
        assert decoded.kind == "error"
        assert decoded.payload["error_kind"] == "protocol"
        assert trailer == b""  # connection closed after the error reply
        assert errors == 1

    def test_undecodable_body_from_hostile_peer(self):
        async def probe(server):
            reply, trailer = await self._raw_exchange(
                server.port, b"\xabR\xff garbage frame", expect_close=True
            )
            return reply, trailer, server.protocol_errors

        reply, trailer, errors = self._serve(probe)
        decoded = BINARY_CODEC.decode(reply)
        assert decoded.kind == "error"
        assert decoded.payload["error_kind"] == "protocol"
        assert trailer == b""
        assert errors == 1

    @pytest.mark.parametrize("raw", _MALFORMED_FRAMES)
    def test_malformed_frame_is_refused_at_both_ends_without_hanging(self, raw):
        request = make_request("probe", "probe#1", "/a", 0.0)

        async def probe(server):
            # Server end: one protocol-error reply, then it hangs up.
            reply, trailer = await asyncio.wait_for(
                self._raw_exchange(server.port, raw, expect_close=True), 5.0
            )

            # Client end: a raw peer answers a real request with ``raw``.
            async def poison(reader, writer):
                await reader.readexactly(HEADER_BYTES)
                writer.write(len(raw).to_bytes(HEADER_BYTES, "big") + raw)
                await writer.drain()
                await reader.read()  # until the client hangs up
                writer.close()

            peer = await asyncio.start_server(poison, "127.0.0.1", 0)
            link = await dial("127.0.0.1", peer.sockets[0].getsockname()[1])
            try:
                with pytest.raises(RuntimeProtocolError):
                    await asyncio.wait_for(link.call(request, timeout=5.0), 5.0)
                with pytest.raises(TransportError, match="is closed"):
                    await link.call(request)
                leftover = dict(link._pending)
            finally:
                await link.close()
                peer.close()
                await peer.wait_closed()
            return reply, trailer, server.protocol_errors, leftover

        reply, trailer, errors, leftover = self._serve(probe)
        assert BINARY_CODEC.decode(reply).payload["error_kind"] == "protocol"
        assert trailer == b""
        assert errors == 1
        assert leftover == {}
