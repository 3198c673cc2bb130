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

decode_msg has two paths. A payload that is exactly what render_body writes
for one-digit values (every frame of a session with L <= 10 and a lowercase
hex session id) is read by one anchored pattern over the head, which admits
only sorted keys, integers of at most 9 digits with no leading zero, null
or positive tags, a lowercase hex session id and a known type with its
phase, and by one bytes pass over ',"values":[d,...,d]}'. Any other payload
is parsed whole by json and checked field by field, and a value outside
0..255 is a protocol violation. Either way the same frames are accepted and
equal messages returned.

Field values cross the wire as leader-set positions and residues only; no
message ever names a universe element.
"""

from __future__ import annotations

import json
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


def _check_endpoint(raw, name: str) -> Tuple[int, int]:
    if (
        not isinstance(raw, list)
        or len(raw) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in raw)
    ):
        raise ProtocolViolationError(f"bad {name} endpoint: {raw!r}")
    return (raw[0], raw[1])


def message_from_dict(data: dict) -> Message:
    """The message a parsed JSON payload (or transcript entry) describes.

    Every field is checked: exactly the known fields, a known type with its
    phase, a nonempty session id, [party, database] endpoints of naturals,
    positive or null tags, and values a list of integers in 0..255.
    """
    if not isinstance(data, dict):
        raise ProtocolViolationError(f"message payload must be an object, got {type(data).__name__}")
    keys = set(data)
    unknown = keys - set(Message._fields)
    if unknown:
        raise ProtocolViolationError(f"unknown message fields: {sorted(unknown)}")
    missing = set(Message._fields) - keys
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


# Each residue 0..255 as its decimal digits.
_DECIMAL = tuple(str(value).encode("ascii") for value in range(256))


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
    # render_body's head with one-digit values is read by one match and one
    # bytes pass; every other payload is parsed whole.
    head = _CANONICAL_HEAD.match(body)
    if head is not None and body.endswith(b"]}"):
        d0, d1, o0, o1, partition, phase, session_id, target, msg_type = head.groups()
        kind = _KINDS.get((msg_type, phase))
        digits = body[head.end() : -2]
        values = digits[::2]
        # Every even byte a digit, so the len // 2 commas fill every odd one.
        if (
            kind is not None
            and len(digits) % 2
            and values.isdigit()
            and digits.count(b",") == len(digits) // 2
        ):
            return Message(
                kind[0],
                session_id.decode("ascii"),
                kind[1],
                (int(o0), int(o1)),
                (int(d0), int(d1)),
                None if partition == b"null" else int(partition),
                None if target == b"null" else int(target),
                values.translate(_RESIDUES),
            )
    return message_from_dict(_parse_json(body))


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
