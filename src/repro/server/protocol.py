"""Wire protocol for the cache-node service: binary GET frames, JSON control.

One connection carries two frame kinds, discriminated by their first byte:

* **GET data path** — fixed-layout binary frames (``BIN_MAGIC`` first).
  Per-request overhead has to stay negligible next to the SSD (Eq. 6), so
  a replayed request is 16 bytes and its reply 9, packed and parsed with
  one ``struct`` call (or one vectorised pass per socket read).
* **Control verbs** — a 4-byte big-endian length followed by a UTF-8 JSON
  object.  They are rare, their payloads are open-ended (a STATS snapshot,
  a span dump), and they stay debuggable with ``nc``/``xxd``.  The length
  always starts with byte ``0x00`` (``MAX_MESSAGE_BYTES`` is far below
  2^24), which is what makes the first byte a discriminator.

Both kinds pipeline (many frames in flight per connection) and interleave
freely.

GET frames
----------
::

    magic  u8   BIN_MAGIC (0xB2)
    op     u8   BIN_GET / BIN_GET_OK / BIN_GET_ERR
    length u16  payload bytes (big-endian)
    payload     op-specific struct

``BIN_GET`` (client → server) carries ``index/oid/size`` as three ``u32``:
``index`` is the trace position (the server sequences requests by it),
``oid`` is validated against the server's trace (``BIN_NO_OID`` skips the
check).  ``BIN_GET_OK`` echoes the ``u32`` index — the correlation key for
pipelined, out-of-order replies — plus one flags byte (hit / admitted /
denied); ``BIN_GET_ERR`` echoes the index followed by UTF-8 error text.
Every ``BIN_GET`` is answered by exactly one of the two.

Control verbs (client → server, JSON)
-------------------------------------
``STATS``   metrics snapshot (:mod:`repro.server.metrics`).
``RELOAD``  force an immediate classifier retrain + atomic model swap.
``RESET``   clear cache/statistics state and rewind the replay cursor.
``TRACE``   drain sampled decision-trace events (``{"op": "TRACE",
            "limit": n, "clear": bool}`` — both fields optional); errors
            if the node was started without tracing.
``SPANS``   drain the span tracer's ring buffer (``{"op": "SPANS",
            "limit": n, "clear": bool}``); errors if the node was
            started without span tracing (``repro serve --spans``).
``PING``    liveness check.

Every JSON response carries ``"ok"`` (bool) and echoes ``"op"``.  Errors
are in-band: ``{"ok": false, "op": ..., "error": "..."}`` — which is also
what any other op gets, a JSON ``GET`` included: GETs have no JSON form.

:class:`FrameDecoder` is the incremental parser both the server and the
load generator use: chunks read off the socket are fed into one reused
buffer and parsed into as many complete frames as are available, so the
steady state costs one ``struct.unpack_from`` per binary frame instead of
two ``readexactly`` round trips through the stream machinery.
"""

from __future__ import annotations

import asyncio
import json
import struct

import numpy as np

__all__ = [
    "MAX_MESSAGE_BYTES",
    "OPS",
    "BIN_MAGIC",
    "BIN_GET",
    "BIN_GET_OK",
    "BIN_GET_ERR",
    "BIN_NO_OID",
    "GET_FRAME_DTYPE",
    "ProtocolError",
    "FrameDecoder",
    "encode_message",
    "decode_message",
    "read_message",
    "write_message",
    "error_response",
    "pack_get_request",
    "pack_get_response",
    "pack_get_error",
]

_HEADER = struct.Struct(">I")

#: Upper bound on one frame — a STATS snapshot is a few KB; anything near
#: this limit indicates a corrupt or hostile frame, not a real message.
MAX_MESSAGE_BYTES = 4 * 2**20

#: The JSON control verbs (GETs are binary frames, below).
OPS = ("STATS", "RELOAD", "RESET", "TRACE", "SPANS", "PING")

#: First byte of every binary frame.  JSON frames always start 0x00 (their
#: big-endian length is capped well below 2^24), so one byte discriminates.
BIN_MAGIC = 0xB2

BIN_GET = 0x01      # client → server: index u32, oid u32, size u32
BIN_GET_OK = 0x02   # server → client: index u32, flags u8
BIN_GET_ERR = 0x03  # server → client: index u32, UTF-8 error text

#: ``oid`` sentinel in a BIN_GET meaning "skip catalog validation".
BIN_NO_OID = 0xFFFFFFFF

# Response flag bits (BIN_GET_OK).
FLAG_HIT = 0x01
FLAG_ADMITTED = 0x02
FLAG_DENIED = 0x04

_BIN_HEADER = struct.Struct(">BBH")
_BIN_GET_BODY = struct.Struct(">III")
_BIN_GET_OK_BODY = struct.Struct(">IB")
_BIN_INDEX = struct.Struct(">I")
# Whole-frame structs so the hot path packs header+payload in one call.
_FRAME_GET = struct.Struct(">BBHIII")
_FRAME_GET_OK = struct.Struct(">BBHIB")

#: One BIN_GET frame as a numpy record, field for field
#: :func:`pack_get_request`'s bytes: the decoder validates a homogeneous run
#: of them with three vectorised column compares (then tuples it in one C
#: pass via ``iter_unpack``), and the load generator packs a connection's
#: whole request stream with one ``tobytes``.
GET_FRAME_DTYPE = np.dtype(
    [
        ("magic", "u1"),
        ("op", "u1"),
        ("length", ">u2"),
        ("index", ">u4"),
        ("oid", ">u4"),
        ("size", ">u4"),
    ]
)
# BIN_GET_OK's twin, for the client's run parser.
_RUN_GET_OK_DTYPE = np.dtype(
    [
        ("magic", "u1"),
        ("op", "u1"),
        ("length", ">u2"),
        ("index", ">u4"),
        ("flags", "u1"),
    ]
)
#: Engage the vectorised run parser only when a read carried at least this
#: many complete frames of one kind — below it the per-frame loop wins.
_RUN_MIN_FRAMES = 16


class ProtocolError(ValueError):
    """A frame that violates the wire format (length, JSON, or shape).

    ``frames`` carries any frames that were completely parsed from the
    same buffer *before* the violation, so a server can still serve them
    before closing the connection.
    """

    def __init__(self, message: str, *, frames=()):
        super().__init__(message)
        self.frames = list(frames)


def encode_message(message: dict) -> bytes:
    """Serialise one message to its framed wire form."""
    if not isinstance(message, dict):
        raise ProtocolError("message must be a dict")
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message of {len(payload)} bytes exceeds limit")
    return _HEADER.pack(len(payload)) + payload


def decode_message(payload: bytes) -> dict:
    """Parse one frame *body* (header already stripped)."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad JSON frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame must decode to a JSON object")
    return message


async def read_message(reader: asyncio.StreamReader) -> dict | None:
    """Read one framed message; ``None`` on clean EOF at a frame boundary.

    EOF in the *middle* of a frame raises :class:`ProtocolError` — the peer
    died mid-send and the connection state is unrecoverable.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("EOF inside frame header") from exc
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds limit")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("EOF inside frame body") from exc
    return decode_message(payload)


async def write_message(writer: asyncio.StreamWriter, message: dict) -> None:
    """Frame and send one message, honouring transport backpressure."""
    writer.write(encode_message(message))
    await writer.drain()


def error_response(op: str, error: str, **extra) -> dict:
    return {"ok": False, "op": op, "error": error, **extra}


# --------------------------------------------------------------------------
# GET frames
# --------------------------------------------------------------------------


def pack_get_request(index: int, oid: int | None, size: int) -> bytes:
    """One framed BIN_GET; ``oid=None`` skips server-side oid validation."""
    return _FRAME_GET.pack(
        BIN_MAGIC,
        BIN_GET,
        _BIN_GET_BODY.size,
        index,
        BIN_NO_OID if oid is None else oid,
        size,
    )


def pack_get_response(index: int, hit: bool, admitted: bool, denied: bool) -> bytes:
    """One framed BIN_GET_OK echoing ``index`` (pipelining correlation)."""
    flags = 0
    if hit:
        flags |= FLAG_HIT
    if admitted:
        flags |= FLAG_ADMITTED
    if denied:
        flags |= FLAG_DENIED
    return _FRAME_GET_OK.pack(BIN_MAGIC, BIN_GET_OK, _BIN_GET_OK_BODY.size, index, flags)


def pack_get_error(index: int, error: str) -> bytes:
    """One framed BIN_GET_ERR carrying UTF-8 error text after the index."""
    text = error.encode("utf-8")[: 0xFFFF - _BIN_INDEX.size]
    length = _BIN_INDEX.size + len(text)
    return (
        _BIN_HEADER.pack(BIN_MAGIC, BIN_GET_ERR, length)
        + _BIN_INDEX.pack(index)
        + text
    )


def _parse_get_run(buf, pos: int, avail: int, frames: list) -> int:
    """Bulk-parse a homogeneous run of BIN_GET frames; returns bytes consumed.

    Treats ``buf[pos:]`` as consecutive 16-byte frames, keeps the longest
    prefix whose magic/op/length columns all match a well-formed BIN_GET
    (vectorised compares), and tuples that prefix in one ``iter_unpack``
    pass.  Returns 0 when the run is too short to beat the per-frame loop;
    the first non-matching frame is left for the caller, which re-parses
    it down the exact per-frame error path.
    """
    size = _FRAME_GET.size
    n = avail // size
    raw = bytes(memoryview(buf)[pos : pos + n * size])
    run = np.frombuffer(raw, dtype=GET_FRAME_DTYPE)
    ok = (
        (run["magic"] == BIN_MAGIC)
        & (run["op"] == BIN_GET)
        & (run["length"] == _BIN_GET_BODY.size)
    )
    k = n if ok.all() else int(ok.argmin())
    if k < _RUN_MIN_FRAMES:
        return 0
    nbytes = k * size
    frames += [
        (BIN_GET, index, None if oid == BIN_NO_OID else oid, size_)
        for _, _, _, index, oid, size_ in _FRAME_GET.iter_unpack(
            raw if k == n else raw[:nbytes]
        )
    ]
    return nbytes


def _parse_get_ok_run(buf, pos: int, avail: int, frames: list) -> int:
    """BIN_GET_OK twin of :func:`_parse_get_run` (9-byte response frames)."""
    size = _FRAME_GET_OK.size
    n = avail // size
    raw = bytes(memoryview(buf)[pos : pos + n * size])
    run = np.frombuffer(raw, dtype=_RUN_GET_OK_DTYPE)
    ok = (
        (run["magic"] == BIN_MAGIC)
        & (run["op"] == BIN_GET_OK)
        & (run["length"] == _BIN_GET_OK_BODY.size)
    )
    k = n if ok.all() else int(ok.argmin())
    if k < _RUN_MIN_FRAMES:
        return 0
    nbytes = k * size
    frames += [
        (BIN_GET_OK, index, flags)
        for _, _, _, index, flags in _FRAME_GET_OK.iter_unpack(
            raw if k == n else raw[:nbytes]
        )
    ]
    return nbytes


class FrameDecoder:
    """Incremental parser for a mixed JSON/binary frame stream.

    ``feed(data)`` appends one socket chunk to the reused internal buffer
    and returns every complete frame it now holds, in order:

    * a JSON frame decodes to its ``dict``;
    * a binary frame decodes to a tuple whose first element is the op —
      ``(BIN_GET, index, oid, size)`` (``oid`` is ``None`` when the client
      sent ``BIN_NO_OID``), ``(BIN_GET_OK, index, flags)``, or
      ``(BIN_GET_ERR, index, message)``.

    A malformed stream raises :class:`ProtocolError` with any frames parsed
    ahead of the violation attached as ``exc.frames``; the decoder is dead
    afterwards (the connection must be closed — framing is unrecoverable).
    ``pending`` is the buffered byte count: nonzero at EOF means the peer
    died mid-frame.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    @property
    def pending(self) -> int:
        return len(self._buf)

    def feed(self, data) -> list:
        buf = self._buf
        buf += data
        frames: list = []
        append = frames.append
        unpack_get = _BIN_GET_BODY.unpack_from
        unpack_ok = _BIN_GET_OK_BODY.unpack_from
        pos = 0
        end = len(buf)
        while True:
            avail = end - pos
            if avail < 1:
                break
            first = buf[pos]
            if first == BIN_MAGIC:
                if avail < _BIN_HEADER.size:
                    break
                op = buf[pos + 1]
                # A backlogged read carries thousands of identical
                # fixed-size frames; hand homogeneous runs to the
                # vectorised parser (numpy validation + one iter_unpack
                # pass) and fall through for the remainder.
                if op == BIN_GET:
                    if avail >= _RUN_MIN_FRAMES * _FRAME_GET.size:
                        parsed = _parse_get_run(buf, pos, avail, frames)
                        if parsed:
                            pos += parsed
                            continue
                elif op == BIN_GET_OK:
                    if avail >= _RUN_MIN_FRAMES * _FRAME_GET_OK.size:
                        parsed = _parse_get_ok_run(buf, pos, avail, frames)
                        if parsed:
                            pos += parsed
                            continue
                # Header fields read by byte arithmetic — one Struct call
                # per frame (the body) instead of two.
                length = (buf[pos + 2] << 8) | buf[pos + 3]
                if avail < _BIN_HEADER.size + length:
                    break
                start = pos + _BIN_HEADER.size
                pos = start + length
                if op == BIN_GET:
                    if length != _BIN_GET_BODY.size:
                        raise ProtocolError(
                            f"BIN_GET payload must be {_BIN_GET_BODY.size} "
                            f"bytes, got {length}",
                            frames=frames,
                        )
                    index, oid, size = unpack_get(buf, start)
                    append(
                        (BIN_GET, index, None if oid == BIN_NO_OID else oid, size)
                    )
                elif op == BIN_GET_OK:
                    if length != _BIN_GET_OK_BODY.size:
                        raise ProtocolError(
                            f"BIN_GET_OK payload must be {_BIN_GET_OK_BODY.size} "
                            f"bytes, got {length}",
                            frames=frames,
                        )
                    index, flags = unpack_ok(buf, start)
                    append((BIN_GET_OK, index, flags))
                elif op == BIN_GET_ERR:
                    if length < _BIN_INDEX.size:
                        raise ProtocolError(
                            "BIN_GET_ERR payload too short", frames=frames
                        )
                    (index,) = _BIN_INDEX.unpack_from(buf, start)
                    message = bytes(
                        buf[start + _BIN_INDEX.size : pos]
                    ).decode("utf-8", "replace")
                    frames.append((BIN_GET_ERR, index, message))
                else:
                    raise ProtocolError(
                        f"unknown binary op 0x{op:02x}", frames=frames
                    )
            elif first == 0:
                if avail < _HEADER.size:
                    break
                length = (buf[pos + 1] << 16) | (buf[pos + 2] << 8) | buf[pos + 3]
                if length > MAX_MESSAGE_BYTES:
                    raise ProtocolError(
                        f"frame of {length} bytes exceeds limit", frames=frames
                    )
                if avail < _HEADER.size + length:
                    break
                start = pos + _HEADER.size
                pos = start + length
                try:
                    frames.append(decode_message(bytes(buf[start:pos])))
                except ProtocolError as exc:
                    raise ProtocolError(str(exc), frames=frames) from exc
            else:
                raise ProtocolError(
                    f"bad frame discriminator byte 0x{first:02x}", frames=frames
                )
        if pos:
            del buf[:pos]
        return frames
