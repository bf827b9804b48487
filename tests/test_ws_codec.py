"""The WebSocket codec and the HTTP head parser under arbitrary input.

Both parse bytes a client controls.  Whatever arrives — random bytes,
or a valid frame stream split at arbitrary points — the frame decoder
returns a frame, asks for more bytes (``None``) or raises the typed
:class:`~repro.server.ws.WebSocketError`; the head parser returns a
request or raises :class:`ValueError`.  Nothing else may escape, and a
valid stream decodes to the same frames however it is split.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server import ws
from repro.server.app import _parse_head
from repro.server.ws import (
    OP_BINARY,
    OP_CLOSE,
    OP_CONT,
    OP_PING,
    OP_PONG,
    OP_TEXT,
    FrameDecoder,
    WebSocketError,
    accept_token,
    encode_frame,
)

#: One frame as the encoder takes it: (opcode, fin, payload, masked).
FRAMES = st.tuples(
    st.sampled_from([OP_CONT, OP_TEXT, OP_BINARY, OP_CLOSE, OP_PING, OP_PONG]),
    st.booleans(),
    st.binary(max_size=300),
    st.booleans(),
)

#: Cut points into a byte stream (taken modulo its length + 1).
CUTS = st.lists(st.integers(min_value=0, max_value=1 << 20), max_size=12)


def _chunks(stream: bytes, cuts: list[int]) -> list[bytes]:
    points = sorted({cut % (len(stream) + 1) for cut in cuts})
    edges = [0, *points, len(stream)]
    return [stream[a:b] for a, b in zip(edges, edges[1:])]


def _decode_frames(chunks: list[bytes]) -> list[tuple[int, bool, bytes]]:
    decoder = FrameDecoder()
    frames = []
    for chunk in chunks:
        decoder.feed(chunk)
        while (frame := decoder.next_frame()) is not None:
            frames.append(frame)
    return frames


def test_accept_token_matches_the_rfc_example():
    """RFC 6455 §1.3's worked example of the handshake key transform."""
    assert (
        accept_token("dGhlIHNhbXBsZSBub25jZQ==")
        == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
    )


@settings(max_examples=300, deadline=None)
@given(frames=st.lists(FRAMES, max_size=8), cuts=CUTS)
def test_split_stream_decodes_to_the_same_frames(frames, cuts):
    stream = b"".join(
        encode_frame(opcode, payload, mask=masked, fin=fin)
        for opcode, fin, payload, masked in frames
    )
    expected = [(opcode, fin, payload) for opcode, fin, payload, _ in frames]
    assert _decode_frames(_chunks(stream, cuts)) == expected


@pytest.mark.parametrize("size", [125, 126, 65535, 65536, 70000])
def test_every_length_encoding_round_trips(size):
    """7-, 16- and 64-bit payload lengths, masked, fed byte by byte
    across the header."""
    payload = bytes(range(256)) * (size // 256) + bytes(size % 256)
    stream = encode_frame(OP_BINARY, payload, mask=True)
    chunks = [stream[i:i + 1] for i in range(16)] + [stream[16:]]
    assert _decode_frames(chunks) == [(OP_BINARY, True, payload)]


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=2048), cuts=CUTS)
def test_random_bytes_give_frames_more_bytes_or_a_typed_error(data, cuts):
    decoder = FrameDecoder()
    try:
        for chunk in _chunks(data, cuts):
            decoder.feed(chunk)
            while decoder.next_message() is not None:
                pass
    except WebSocketError as err:
        assert err.close_code in (1000, 1009)


@settings(max_examples=200, deadline=None)
@given(
    text=st.text(max_size=400),
    parts=st.integers(min_value=1, max_value=6),
    pings=st.lists(st.binary(max_size=20), max_size=3),
    cuts=CUTS,
)
def test_fragmented_messages_reassemble_around_control_frames(
    text, parts, pings, cuts
):
    """A text message cut into continuation frames, with pings between
    the fragments, comes back whole after the pings."""
    body = text.encode("utf-8")
    step = -(-len(body) // parts) or 1
    pieces = [body[i:i + step] for i in range(0, len(body), step)] or [b""]
    stream = b""
    for index, piece in enumerate(pieces):
        opcode = OP_TEXT if index == 0 else OP_CONT
        stream += encode_frame(
            opcode, piece, mask=True, fin=index == len(pieces) - 1
        )
        if index < min(len(pings), len(pieces) - 1):
            stream += encode_frame(OP_PING, pings[index], mask=True)
    decoder = FrameDecoder()
    messages = []
    for chunk in _chunks(stream, cuts):
        decoder.feed(chunk)
        while (message := decoder.next_message()) is not None:
            messages.append(message)
    sent_pings = pings[: len(pieces) - 1]
    assert messages == [(OP_PING, p) for p in sent_pings] + [(OP_TEXT, text)]


def test_reassembled_message_is_capped(monkeypatch):
    """Each fragment fits under MAX_FRAME, their sum does not."""
    monkeypatch.setattr(ws, "MAX_FRAME", 100)
    decoder = FrameDecoder()
    decoder.feed(encode_frame(OP_TEXT, b"a" * 60, mask=True, fin=False))
    decoder.feed(encode_frame(OP_CONT, b"a" * 60, mask=True))
    with pytest.raises(WebSocketError, match="MAX_FRAME") as info:
        decoder.next_message()
    assert info.value.close_code == 1009


def test_oversized_frame_is_refused_from_its_header():
    decoder = FrameDecoder()
    decoder.feed(bytes([0x81, 127]) + struct.pack(">Q", ws.MAX_FRAME + 1))
    with pytest.raises(WebSocketError) as info:
        decoder.next_frame()
    assert info.value.close_code == 1009


@pytest.mark.parametrize(
    "frames, match",
    [
        ([(OP_CONT, b"x", True)], "continuation without a start"),
        ([(OP_TEXT, b"x", False), (OP_TEXT, b"y", True)], "inside a fragment"),
        ([(0x3, b"", True)], "unsupported opcode"),
        ([(OP_TEXT, b"\xff\xfe", True)], "invalid UTF-8"),
    ],
)
def test_protocol_violations_are_typed(frames, match):
    decoder = FrameDecoder()
    for opcode, payload, fin in frames:
        decoder.feed(encode_frame(opcode, payload, mask=True, fin=fin))
    with pytest.raises(WebSocketError, match=match):
        while decoder.next_message() is not None:
            pass


# ----------------------------------------------------------------------
# The HTTP request-head parser
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(head=st.binary(max_size=512))
def test_parse_head_returns_a_request_or_raises_value_error(head):
    try:
        method, target, headers = _parse_head(head)
    except ValueError:
        return
    assert isinstance(method, str) and isinstance(target, str)
    assert all(name == name.lower() for name in headers)


#: Request-line tokens and header names: printable, no blank, no colon.
TOKENS = st.text(
    alphabet=st.characters(
        min_codepoint=33, max_codepoint=126, blacklist_characters=":"
    ),
    min_size=1,
    max_size=20,
)
VALUES = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=40
).map(str.strip)


@settings(max_examples=200, deadline=None)
@given(
    method=TOKENS,
    target=TOKENS,
    headers=st.dictionaries(TOKENS, VALUES, max_size=8),
)
def test_parse_head_round_trips_well_formed_heads(method, target, headers):
    lines = [f"{method} {target} HTTP/1.1"]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    assert _parse_head(head) == (
        method,
        target,
        {name.lower(): value for name, value in headers.items()},
    )


def test_parse_head_refuses_an_oversized_head():
    head = b"GET / HTTP/1.1\r\nX: " + b"a" * (64 * 1024) + b"\r\n\r\n"
    with pytest.raises(ValueError, match="too large"):
        _parse_head(head)
