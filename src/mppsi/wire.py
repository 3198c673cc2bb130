"""Wire format: length-prefixed frames around small JSON text payloads.

Every protocol message is one frame: a 4-byte big-endian unsigned length
followed by that many bytes of UTF-8 JSON. The JSON object carries exactly
the fields {type, session_id, phase, origin, dest, partition, target,
values}; unknown fields are rejected on decode. Frames above 1 MiB (or
empty) are invalid. render_body is the one renderer of a message: it writes
ASCII bytes, and frame payloads and transcript entries are the same bytes.

A message's values are field residues held as bytes, one byte per residue:
L <= 251 (field.select_field_size), so every residue fits. On the wire they
are a JSON list of plain decimal integers. Message is a named tuple, so a
message costs about what a tuple of its fields does to build.

There is one body grammar: exactly what render_body writes. decode_body
reads it and decode_msg calls it after the frame's length checks. The head
is read by one anchored pattern, which admits only sorted keys, no spaces,
naturals of at most 9 digits with no leading zero, null or positive tags, a
nonempty lowercase hex session id (all protocol.make_session_id writes) and
a known type with its phase. One-digit values (every frame of a session with
L <= 10) are read by one bytes pass over 'd,...,d'; wider ones by one lookup
per comma-separated decimal in a table of 0..255, so a leading zero, a sign,
a space, an empty item or a value past 255 is a protocol violation. Any
other byte form of a message, even valid JSON of the same fields (spaces,
reordered or duplicate keys, escaped or uppercase ids), is rejected, so a
decoded message renders back to the bytes it was read from.

Field values cross the wire as leader-set positions and residues only; no
message ever names a universe element.
"""

from __future__ import annotations

import re
import struct
from json.encoder import encode_basestring_ascii as _quote
from typing import List, NamedTuple, Optional, Tuple

from .errors import ProtocolViolationError

MAX_FRAME_BYTES = 1 << 20
HEADER = struct.Struct(">I")
SESSION_ID_CHARS = 16

PHASE_BY_TYPE = {
    "t_share": "randomness",
    "c_share": "randomness",
    "query": "query",
    "answer": "answer",
}

class Message(NamedTuple):
    """One protocol message, transport-neutral; values holds one residue per byte.

    A named tuple: immutable, hashable, equal field by field, and cheap to
    build on the per-frame path.
    """

    type: str
    session_id: str
    phase: str
    origin: Tuple[int, int]
    dest: Tuple[int, int]
    partition: Optional[int]
    target: Optional[int]
    values: bytes

    def to_dict(self) -> dict:
        return {
            "type": self.type,
            "session_id": self.session_id,
            "phase": self.phase,
            "origin": list(self.origin),
            "dest": list(self.dest),
            "partition": self.partition,
            "target": self.target,
            "values": list(self.values),
        }

    def sort_key(self) -> tuple:
        return (
            self.origin,
            self.dest,
            self.partition if self.partition is not None else 0,
            self.target if self.target is not None else 0,
        )


# Maps residues 0..9 to their digit; every other byte value to NUL.
_DIGITS = b"0123456789" + bytes(246)
# The inverse on digits: b"0".."9" to residues 0..9.
_RESIDUES = bytes.maketrans(b"0123456789", bytes(range(10)))
# render_body's head up to the values: sorted keys, no spaces, naturals of at
# most 9 digits with no leading zero, positive or null tags, a lowercase hex
# session id and word-like type and phase.
_NATURAL = rb"(0|[1-9][0-9]{0,8})"
_TAG = rb"(null|[1-9][0-9]{0,8})"
_CANONICAL_HEAD = re.compile(
    rb'\{"dest":\[' + _NATURAL + rb"," + _NATURAL + rb'\],"origin":\[' + _NATURAL + rb","
    + _NATURAL + rb'\],"partition":' + _TAG + rb',"phase":"([a-z_]+)","session_id":"([0-9a-f]+)",'
    rb'"target":' + _TAG + rb',"type":"([a-z_]+)","values":\['
)
# (type, phase) as the head spells them, for every type with its own phase.
_KINDS = {(t.encode("ascii"), p.encode("ascii")): (t, p) for t, p in PHASE_BY_TYPE.items()}


# Each residue 0..255 as its decimal digits, and the inverse table.
_DECIMAL = tuple(str(value).encode("ascii") for value in range(256))
_RESIDUE_OF = {text: value for value, text in enumerate(_DECIMAL)}


def render_values(values: bytes) -> bytes:
    """The comma-separated decimal values, as json.dumps writes them.

    Written straight from the residue bytes: nothing for no values, one
    table entry for one value (every answer and share carries one), one
    translate interleaved with commas when every value is one digit, and
    the joined decimals of each value otherwise. The result is bytes-like
    (a bytearray on the one-digit path); error messages decode it.
    """
    if not values:
        return b""
    if len(values) == 1:
        return _DECIMAL[values[0]]
    digits = values.translate(_DIGITS)
    if b"\0" in digits:
        return b",".join(map(_DECIMAL.__getitem__, values))
    text = bytearray(b"," * (2 * len(digits) - 1))
    text[::2] = digits
    return text


def render_body(msg: Message) -> bytes:
    """The JSON of a message as ASCII bytes: a frame's payload and a transcript entry.

    Equal to json.dumps(msg.to_dict(), sort_keys=True, separators=(",", ":"))
    encoded, written directly: the head up to the values rendered once, with
    the keys in sorted order and strings ASCII-escaped, then render_values
    of the residue bytes, joined into one bytes object.
    """
    msg_type, session_id, phase, (o0, o1), (d0, d1), partition, target, values = msg
    head = (
        f'{{"dest":[{d0},{d1}],"origin":[{o0},{o1}],'
        f'"partition":{"null" if partition is None else partition},'
        f'"phase":{_quote(phase)},"session_id":{_quote(session_id)},'
        f'"target":{"null" if target is None else target},'
        f'"type":{_quote(msg_type)},"values":['
    )
    return b"".join((head.encode("ascii"), render_values(values), b"]}"))


def max_query_frame_bytes(
    universe_size: int, modulus: int, num_parties: int, max_databases: int
) -> int:
    """Payload bytes of the widest query frame a session of this shape sends.

    Every value is L - 1 and every tag takes its widest value: party ids up
    to M, databases up to the largest N_i, and partition and target up to K
    (both are at most the leader's set size R <= K).
    """
    widest = Message(
        type="query",
        session_id="f" * SESSION_ID_CHARS,
        phase="query",
        origin=(num_parties, 0),
        dest=(num_parties, max_databases),
        partition=universe_size,
        target=universe_size,
        values=b"",
    )
    value_chars = len(str(modulus - 1))
    return len(render_body(widest)) + universe_size * (value_chars + 1) - 1


def encode_msg(msg: Message) -> bytes:
    """Serialize to one length-prefixed frame."""
    body = render_body(msg)
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolViolationError(f"frame of {len(body)} bytes exceeds 1 MiB limit")
    return HEADER.pack(len(body)) + body


def decode_msg(frame: bytes) -> Message:
    """Parse one full frame back into a Message."""
    if len(frame) < HEADER.size:
        raise ProtocolViolationError(f"truncated frame header: {len(frame)} bytes")
    (length,) = HEADER.unpack(frame[: HEADER.size])
    if length == 0:
        raise ProtocolViolationError("zero-length frame")
    if length > MAX_FRAME_BYTES:
        raise ProtocolViolationError(f"declared frame length {length} exceeds 1 MiB limit")
    body = frame[HEADER.size :]
    if len(body) != length:
        raise ProtocolViolationError(
            f"frame length mismatch: declared {length}, got {len(body)}"
        )
    return decode_body(body)


def decode_body(body: bytes) -> Message:
    """The message whose render_body is body; any other bytes are a protocol violation.

    The head is read by one anchored match. One-digit values are read by one
    translate; wider ones by splitting at the commas and looking each
    decimal up in the table of the 256 residues.
    """
    head = _CANONICAL_HEAD.match(body)
    if head is None or not body.endswith(b"]}"):
        raise ProtocolViolationError("payload is not a message body as render_body writes it")
    d0, d1, o0, o1, partition, phase, session_id, target, msg_type = head.groups()
    kind = _KINDS.get((msg_type, phase))
    if kind is None:
        raise ProtocolViolationError(f"unknown message type {msg_type!r} with phase {phase!r}")
    text = body[head.end() : -2]
    digits = text[::2]
    # Every even byte a digit, so the len // 2 commas fill every odd one.
    if len(text) % 2 and digits.isdigit() and text.count(b",") == len(text) // 2:
        values = digits.translate(_RESIDUES)
    elif not text:
        values = b""
    else:
        try:
            values = bytes(map(_RESIDUE_OF.__getitem__, text.split(b",")))
        except KeyError:
            raise ProtocolViolationError("values must be a list of integers in 0..255") from None
    return Message(
        kind[0],
        session_id.decode("ascii"),
        kind[1],
        (int(o0), int(o1)),
        (int(d0), int(d1)),
        None if partition == b"null" else int(partition),
        None if target == b"null" else int(target),
        values,
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
