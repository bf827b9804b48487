"""Minimal RFC 6455 WebSocket codec, independent of any transport.

The container ships no third-party WebSocket stack, and the server's
needs are narrow — text frames, ping/pong, clean close — so this module
implements exactly that subset of RFC 6455 as pure functions over
bytes:

* the opening-handshake key transform (:func:`accept_token`), computed
  with CPython's built-in ``_sha1`` so the server never maps OpenSSL's
  ``libcrypto`` (``hashlib`` is the fallback on interpreters without
  it, as :mod:`random` does for ``_sha512``);
* frame encoding with 7/16/64-bit payload lengths and client-side
  masking (:func:`encode_frame`), and the bare header
  (:func:`frame_header`) a server writes ahead of an unmasked payload;
* :class:`FrameDecoder`, one incremental decoder — feed it whatever
  bytes the socket delivered, pull complete frames or reassembled
  messages out, or learn that more bytes are needed.

The server's ``selectors`` loop (:mod:`repro.server.app`) and the
asyncio client (:mod:`repro.server.client`) both drive the same
decoder.  Protocol violations raise :class:`WebSocketError` (a
:class:`~repro.errors.ReproError`) carrying the close code to answer
with, never garbage frames.
"""

from __future__ import annotations

import base64
import os
import struct

try:
    from _sha1 import sha1
except ImportError:  # pragma: no cover - CPython builds _sha1 by default
    from hashlib import sha1

from repro.errors import ReproError

__all__ = [
    "GUID",
    "MAX_FRAME",
    "OP_BINARY",
    "OP_CLOSE",
    "OP_CONT",
    "OP_PING",
    "OP_PONG",
    "OP_TEXT",
    "FrameDecoder",
    "WebSocketError",
    "accept_token",
    "encode_frame",
    "frame_header",
]

#: The fixed handshake GUID of RFC 6455 §1.3.
GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

#: Refuse frames, and messages reassembled from fragments, above this
#: payload size (a sanity bound, not a spec limit — the biggest
#: legitimate payload is one full-detail view).
MAX_FRAME = 64 * 1024 * 1024

#: Close code of an oversized frame or message (RFC 6455 §7.4.1).
CLOSE_TOO_BIG = 1009


class WebSocketError(ReproError):
    """A WebSocket protocol violation or unexpected stream end.

    *close_code* is the status the server closes the connection with.
    """

    def __init__(self, message: str, close_code: int = 1000) -> None:
        super().__init__(message)
        self.close_code = close_code


def accept_token(key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a client *key* (§4.2.2)."""
    digest = sha1((key + GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def _apply_mask(payload: bytes, mask: bytes) -> bytes:
    """XOR *payload* with the repeating 4-byte *mask*.

    One big-integer XOR: linear time, no per-byte Python loop.
    """
    if not payload:
        return payload
    n = len(payload)
    key = (mask * (-(-n // 4)))[:n]
    return (
        int.from_bytes(payload, "big") ^ int.from_bytes(key, "big")
    ).to_bytes(n, "big")


def frame_header(
    opcode: int, length: int, mask: bool = False, fin: bool = True
) -> bytearray:
    """The header of a frame with a *length*-byte payload, up to the
    masking key a masked frame adds.

    An unmasked frame is this header followed by the payload, so a
    sender can write the two without joining them.
    """
    head = bytearray()
    head.append((0x80 if fin else 0) | (opcode & 0x0F))
    mask_bit = 0x80 if mask else 0
    if length < 126:
        head.append(mask_bit | length)
    elif length < 1 << 16:
        head.append(mask_bit | 126)
        head.extend(struct.pack(">H", length))
    else:
        head.append(mask_bit | 127)
        head.extend(struct.pack(">Q", length))
    return head


def encode_frame(
    opcode: int, payload: bytes, mask: bool, fin: bool = True
) -> bytes:
    """One wire frame: header + (masked) payload.

    Clients MUST mask (``mask=True``), servers MUST NOT — the caller
    picks per its role.
    """
    head = frame_header(opcode, len(payload), mask, fin)
    if mask:
        key = os.urandom(4)
        head.extend(key)
        payload = _apply_mask(payload, key)
    return bytes(head) + payload


class FrameDecoder:
    """Incremental frame decoder and message reassembler.

    :meth:`feed` appends received bytes in chunks of any size;
    :meth:`next_frame` and :meth:`next_message` return ``None`` while
    the buffered bytes end mid-frame, so a stream decodes to the same
    frames however the transport splits it.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        #: payloads of the data message being reassembled, or ``None``
        self._parts: list[bytes] | None = None
        self._size = 0

    def feed(self, data: bytes) -> None:
        """Append bytes read from the transport."""
        self._buf += data

    def next_frame(self) -> tuple[int, bool, bytes] | None:
        """The next complete frame ``(opcode, fin, unmasked payload)``,
        or ``None`` until more bytes arrive.

        Raises :class:`WebSocketError` (close code 1009) for a frame
        over :data:`MAX_FRAME`, as soon as its header is in.
        """
        buf = self._buf
        if len(buf) < 2:
            return None
        fin = bool(buf[0] & 0x80)
        opcode = buf[0] & 0x0F
        masked = bool(buf[1] & 0x80)
        length = buf[1] & 0x7F
        offset = 2
        if length == 126:
            if len(buf) < 4:
                return None
            (length,) = struct.unpack_from(">H", buf, 2)
            offset = 4
        elif length == 127:
            if len(buf) < 10:
                return None
            (length,) = struct.unpack_from(">Q", buf, 2)
            offset = 10
        if length > MAX_FRAME:
            raise WebSocketError(
                f"frame of {length} bytes exceeds MAX_FRAME", CLOSE_TOO_BIG
            )
        end = offset + (4 if masked else 0) + length
        if len(buf) < end:
            return None
        payload = bytes(buf[end - length:end])
        if masked:
            payload = _apply_mask(payload, bytes(buf[offset:offset + 4]))
        del buf[:end]
        return opcode, fin, payload

    def next_message(self) -> tuple[int, str | bytes] | None:
        """The next complete message, or ``None`` until more bytes arrive.

        A text or binary message comes back as ``(OP_TEXT, str)``, its
        fragments reassembled and decoded as UTF-8; a control frame,
        which may arrive between fragments, as ``(opcode, payload)``
        with opcode :data:`OP_PING`, :data:`OP_PONG` or
        :data:`OP_CLOSE`.  A reassembled message over :data:`MAX_FRAME`
        raises :class:`WebSocketError` with close code 1009.
        """
        while True:
            frame = self.next_frame()
            if frame is None:
                return None
            opcode, fin, payload = frame
            if opcode in (OP_PING, OP_PONG, OP_CLOSE):
                return opcode, payload
            if opcode in (OP_TEXT, OP_BINARY):
                if self._parts is not None:
                    raise WebSocketError("new message inside a fragment")
                self._parts, self._size = [], 0
            elif opcode != OP_CONT:
                raise WebSocketError(f"unsupported opcode {opcode:#x}")
            elif self._parts is None:
                raise WebSocketError("continuation without a start frame")
            self._size += len(payload)
            if self._size > MAX_FRAME:
                raise WebSocketError(
                    f"message of {self._size}+ bytes exceeds MAX_FRAME",
                    CLOSE_TOO_BIG,
                )
            self._parts.append(payload)
            if fin:
                data = b"".join(self._parts)
                self._parts = None
                try:
                    return OP_TEXT, data.decode("utf-8")
                except UnicodeDecodeError as err:
                    raise WebSocketError(
                        f"invalid UTF-8 payload: {err}"
                    ) from None
