"""Wire format: binary frames of residue bytes, on the wire and in transcripts.

Every protocol message is one frame. Its integers are big-endian:

    length    u32       the bytes that follow, 1 .. 1 MiB
    type      u8        3 query, 4 answer (TYPE_CODES); 1 and 2 are retired
    id_len    u8        the session id's length
    id        id_len    the session id, nonempty lowercase hex ASCII
    tags      6 x u32   origin party, origin database, dest party, dest
                        database, partition, target; 0 is a null partition
                        or target, so real ones are positive
    values    the rest  the residues, one per byte, as the message holds them

So a frame is 4 + 2 + len(id) + 24 + len(values) bytes. decode_msg rejects
a bad length (zero, above 1 MiB, or not the bytes that follow), an unknown
type code, a head cut short, an empty or non-lowercase-hex id and a tag
above 999,999,999; encode_msg refuses a message that decode_msg would not
return. So every frame decode_msg accepts is the one frame encode_msg writes
for its message.

A message's values are field residues held as bytes, one byte per residue:
L <= 251 (field.select_field_size), so every residue fits, and a frame
carries them unchanged. Message is a named tuple, so a message costs about
what a tuple of its fields does to build. A session has two phases, the
leader's queries and the databases' answers, so a message's phase is its
type.

A transcript file holds each message as the base64 text of this same frame
(session.SessionTranscript.serialize), so the frame rule above is also the
transcript's rule for a valid message.

Field values cross the wire as leader-set positions and residues only; no
message ever names a universe element.
"""

from __future__ import annotations

import functools
import struct
from typing import Callable, List, NamedTuple, Optional, Tuple

from .errors import ProtocolViolationError

MAX_FRAME_BYTES = 1 << 20
HEADER = struct.Struct(">I")
SESSION_ID_CHARS = 16
MAX_TAG = 999_999_999  # the widest tag a frame carries: nine decimal digits

# The codes 1 and 2 carried the randomness shares of an online phase that
# sessions no longer run; decode_msg refuses them as unknown.
TYPE_CODES = {"query": 3, "answer": 4}

# A frame's head: the length, type code and id length, then the id, then
# the six tags.
_START = struct.Struct(">IBB")
_TAGS = struct.Struct(">6I")
_HEAD_BYTES = _START.size - HEADER.size + _TAGS.size  # the head after the length, bar the id
_TYPE_OF_CODE = {code: msg_type for msg_type, code in TYPE_CODES.items()}
_HEX = b"0123456789abcdef"


class Message(NamedTuple):
    """One protocol message, transport-neutral; values holds one residue per byte.

    A named tuple: immutable, hashable, equal field by field, and cheap to
    build on the per-frame path.
    """

    type: str
    session_id: str
    origin: Tuple[int, int]
    dest: Tuple[int, int]
    partition: Optional[int]
    target: Optional[int]
    values: bytes

    @property
    def phase(self) -> str:
        return self.type

    def sort_key(self) -> tuple:
        return (
            self.origin,
            self.dest,
            self.partition if self.partition is not None else 0,
            self.target if self.target is not None else 0,
        )


def max_query_frame_bytes(universe_size: int) -> int:
    """Payload bytes of every query frame of a session over a universe of this size.

    The type code and id length, a SESSION_ID_CHARS-char id, the six tags,
    then one byte per value: 2 + SESSION_ID_CHARS + 24 + K.
    """
    return _HEAD_BYTES + SESSION_ID_CHARS + universe_size


def encode_msg(msg: Message) -> bytes:
    """The one length-prefixed frame of a message.

    A message decode_msg would not return (an unknown type, an id that is
    empty, too long or not lowercase hex, a tag that is negative, zero where
    it may be null or above MAX_TAG, a field of the wrong type) or a frame
    above 1 MiB is a protocol violation, even when this process built the
    message. The type and id are checked once per pair, in _frame_head's
    bounded cache; the tags and length are checked on every frame.
    """
    try:
        msg_type, session_id, (o0, o1), (d0, d1), partition, target, values = msg
        pack, base, code, sid = _frame_head(msg_type, session_id)
        length = base + len(values)
        if length > MAX_FRAME_BYTES:
            raise ProtocolViolationError(f"frame of {length} bytes exceeds 1 MiB limit")
        p, t = partition or 0, target or 0
        if partition == 0 or target == 0 or max(o0, o1, d0, d1, p, t) > MAX_TAG:
            raise ProtocolViolationError(f"message cannot be framed: {msg[:6]!r}")
        return pack(length, code, len(sid), sid, o0, o1, d0, d1, p, t) + values
    except (AttributeError, TypeError, ValueError, struct.error) as exc:
        # A field of the wrong type: a float or str tag, a non-str or
        # unhashable type or id, values not bytes; or a negative tag.
        raise ProtocolViolationError(f"message cannot be framed: {exc}") from exc


@functools.lru_cache(maxsize=256)
def _frame_head(msg_type: str, session_id: str) -> Tuple[Callable, int, int, bytes]:
    """How to frame messages of this type and session id: the pack of their
    head (length to tags), the head's length after the length field, the
    type code and the id bytes. A protocol violation if no frame carries them."""
    code = TYPE_CODES.get(msg_type)
    sid = session_id.encode("ascii", "replace")
    if code is None or not 0 < len(sid) < 256 or sid.translate(None, _HEX):
        raise ProtocolViolationError(f"message cannot be framed: {(msg_type, session_id)!r}")
    head = struct.Struct(f">IBB{len(sid)}s6I")
    return head.pack, head.size - HEADER.size, code, sid


def decode_msg(frame: bytes) -> Message:
    """The message of one full frame; any other bytes are a protocol violation."""
    if len(frame) < HEADER.size:
        raise ProtocolViolationError(f"truncated frame header: {len(frame)} bytes")
    (length,) = HEADER.unpack_from(frame)
    if length == 0:
        raise ProtocolViolationError("zero-length frame")
    if length > MAX_FRAME_BYTES:
        raise ProtocolViolationError(f"declared frame length {length} exceeds 1 MiB limit")
    if len(frame) - HEADER.size != length:
        raise ProtocolViolationError(
            f"frame length mismatch: declared {length}, got {len(frame) - HEADER.size}"
        )
    if length < 2:
        raise ProtocolViolationError(f"truncated message head: {length} bytes")
    msg_type = _TYPE_OF_CODE.get(frame[4])
    if msg_type is None:
        raise ProtocolViolationError(f"unknown message type code {frame[4]}")
    tags_start = _START.size + frame[5]
    values_start = tags_start + _TAGS.size
    if len(frame) < values_start:
        raise ProtocolViolationError(f"truncated message head: {length} bytes")
    session_id = frame[_START.size : tags_start]
    if not session_id or session_id.translate(None, _HEX):
        raise ProtocolViolationError("session id must be nonempty lowercase hex")
    tags = _TAGS.unpack_from(frame, tags_start)
    if max(tags) > MAX_TAG:
        raise ProtocolViolationError(f"tag above {MAX_TAG}: {tags}")
    o0, o1, d0, d1, partition, target = tags
    return Message(
        msg_type,
        session_id.decode("ascii"),
        (o0, o1),
        (d0, d1),
        partition or None,
        target or None,
        frame[values_start:],
    )


def split_frames(buffer: bytearray) -> List[bytes]:
    """Remove every whole frame from the front of buffer and return them.

    A trailing partial frame stays in buffer for the next read.
    """
    frames: List[bytes] = []
    start = 0
    while len(buffer) - start >= HEADER.size:
        (length,) = HEADER.unpack_from(buffer, start)
        if length == 0:
            raise ProtocolViolationError("zero-length frame")
        if length > MAX_FRAME_BYTES:
            raise ProtocolViolationError(f"declared frame length {length} exceeds 1 MiB limit")
        end = start + HEADER.size + length
        if len(buffer) < end:
            break
        frames.append(bytes(buffer[start:end]))
        start = end
    del buffer[:start]
    return frames
