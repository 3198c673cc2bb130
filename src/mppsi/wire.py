"""Wire format: length-prefixed frames around small JSON text payloads.

Every protocol message is one frame: a 4-byte big-endian unsigned length
followed by that many bytes of UTF-8 JSON. The JSON object carries exactly
the fields {type, session_id, phase, origin, dest, partition, target,
values}; unknown fields are rejected on decode. Frames above 1 MiB (or
empty) are invalid. render_body is the one renderer of a message: frame
payloads and transcript entries are the same text.

A message's values are field residues held as bytes, one byte per residue:
L <= 251 (field.select_field_size), so every residue fits. On the wire they
are a JSON list of plain decimal integers. decode_msg mirrors render_body's
one-digit case: when a payload ends in ',"values":[d,...,d]}' with every d
one ASCII digit (every frame of a session with L <= 10), json parses only
the head before that member and the values are read in one bytes pass. Any
other payload is parsed whole by json, and a value outside 0..255 is a
protocol violation. Either way the same frames are accepted and equal
messages returned.

Field values cross the wire as leader-set positions and residues only; no
message ever names a universe element.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import List, Optional, Tuple

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

_FIELDS = ("type", "session_id", "phase", "origin", "dest", "partition", "target", "values")


@dataclass(frozen=True)
class Message:
    """One protocol message, transport-neutral; values holds one residue per byte."""

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


def _check_endpoint(raw, name: str) -> Tuple[int, int]:
    if (
        not isinstance(raw, list)
        or len(raw) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in raw)
    ):
        raise ProtocolViolationError(f"bad {name} endpoint: {raw!r}")
    return (raw[0], raw[1])


def message_from_dict(data: dict) -> Message:
    return _checked_message(data, None)


def _checked_message(data: dict, residues: Optional[bytes]) -> Message:
    """message_from_dict, given the values when they are proven residues 0..9.

    With residues None the values are data["values"], checked here to be a
    list of integers in 0..255.
    """
    if not isinstance(data, dict):
        raise ProtocolViolationError(f"message payload must be an object, got {type(data).__name__}")
    keys = set(data) if residues is None else set(data) | {"values"}
    unknown = keys - set(_FIELDS)
    if unknown:
        raise ProtocolViolationError(f"unknown message fields: {sorted(unknown)}")
    missing = set(_FIELDS) - keys
    if missing:
        raise ProtocolViolationError(f"missing message fields: {sorted(missing)}")
    msg_type = data["type"]
    if msg_type not in PHASE_BY_TYPE:
        raise ProtocolViolationError(f"unknown message type: {msg_type!r}")
    if data["phase"] != PHASE_BY_TYPE[msg_type]:
        raise ProtocolViolationError(
            f"type {msg_type!r} must carry phase {PHASE_BY_TYPE[msg_type]!r}, got {data['phase']!r}"
        )
    if not isinstance(data["session_id"], str) or not data["session_id"]:
        raise ProtocolViolationError("session_id must be a nonempty string")
    for name in ("partition", "target"):
        value = data[name]
        if value is not None and (
            not isinstance(value, int) or isinstance(value, bool) or value < 1
        ):
            raise ProtocolViolationError(f"{name} must be a positive integer or null")
    if residues is None:
        values = data["values"]
        if not isinstance(values, list) or not set(map(type, values)) <= {int}:
            raise ProtocolViolationError("values must be a list of integers in 0..255")
        try:
            residues = bytes(values)
        except ValueError:  # a value outside 0..255
            raise ProtocolViolationError("values must be a list of integers in 0..255") from None
    return Message(
        type=msg_type,
        session_id=data["session_id"],
        phase=data["phase"],
        origin=_check_endpoint(data["origin"], "origin"),
        dest=_check_endpoint(data["dest"], "dest"),
        partition=data["partition"],
        target=data["target"],
        values=residues,
    )


# Maps residues 0..9 to their digit; every other byte value to NUL.
_DIGITS = b"0123456789" + bytes(246)
# The inverse on digits: b"0".."9" to residues 0..9.
_RESIDUES = bytes.maketrans(b"0123456789", bytes(range(10)))
_VALUES_MEMBER = b',"values":['


def values_text(values: bytes) -> str:
    """The comma-separated decimal values, as json.dumps writes them and as
    error messages show them."""
    digits = values.translate(_DIGITS)
    if b"\0" in digits:
        return ",".join(map(str, values))
    text = bytearray(b"," * (2 * len(digits) - 1))
    text[::2] = digits
    return text.decode("ascii")


def _tag_text(tag: Optional[int]) -> str:
    return "null" if tag is None else str(tag)


def render_body(msg: Message) -> str:
    """The JSON text of a message: a frame's payload and a transcript entry.

    Equal to json.dumps(msg.to_dict(), sort_keys=True, separators=(",", ":")),
    written directly: the keys in sorted order, strings ASCII-escaped, and
    the values rendered in one pass.
    """
    return (
        f'{{"dest":[{msg.dest[0]},{msg.dest[1]}],'
        f'"origin":[{msg.origin[0]},{msg.origin[1]}],'
        f'"partition":{_tag_text(msg.partition)},'
        f'"phase":{_quote(msg.phase)},'
        f'"session_id":{_quote(msg.session_id)},'
        f'"target":{_tag_text(msg.target)},'
        f'"type":{_quote(msg.type)},'
        f'"values":[{values_text(msg.values)}]}}'
    )


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
    body = render_body(msg).encode("ascii")
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
    # One-digit values (render_body's fast case) are read in one bytes
    # pass; every other payload is parsed whole.
    start = body.rfind(_VALUES_MEMBER)
    digits = body[start + len(_VALUES_MEMBER) : -2]
    if (
        start < 0
        or not body.endswith(b"]}")
        or len(digits) % 2 == 0
        or not digits[::2].isdigit()
        or digits[1::2].count(b",") != len(digits) // 2
    ):
        return message_from_dict(_parse_json(body))
    # The head ends in "}", so it parses, if at all, to an object. The whole
    # payload parses to that object with these values as "values" (the last
    # member wins), unless the object has no member for the comma to follow;
    # such a head lacks every field and is rejected below all the same.
    data = _parse_json(body[:start] + b"}")
    return _checked_message(data, digits[::2].translate(_RESIDUES))


def _parse_json(payload: bytes):
    # ValueError covers bad UTF-8, bad JSON and integers past the digit limit.
    try:
        return json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ProtocolViolationError(f"undecodable frame payload: {exc}") from exc


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
