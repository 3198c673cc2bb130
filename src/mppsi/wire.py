"""Wire format: length-prefixed frames around small JSON text payloads.

Every protocol message is one frame: a 4-byte big-endian unsigned length
followed by that many bytes of UTF-8 JSON. The JSON object carries exactly
the fields {type, session_id, phase, origin, dest, partition, target,
values}; unknown fields are rejected on decode. Values are plain decimal
field residues. Frames above 1 MiB (or empty) are invalid.

Field values cross the wire as leader-set positions and residues only; no
message ever names a universe element.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
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
    """One protocol message, transport-neutral."""

    type: str
    session_id: str
    phase: str
    origin: Tuple[int, int]
    dest: Tuple[int, int]
    partition: Optional[int]
    target: Optional[int]
    values: Tuple[int, ...]

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
    if not isinstance(data, dict):
        raise ProtocolViolationError(f"message payload must be an object, got {type(data).__name__}")
    unknown = set(data) - set(_FIELDS)
    if unknown:
        raise ProtocolViolationError(f"unknown message fields: {sorted(unknown)}")
    missing = set(_FIELDS) - set(data)
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
    if not isinstance(values, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in values
    ):
        raise ProtocolViolationError("values must be a list of non-negative integers")
    return Message(
        type=msg_type,
        session_id=data["session_id"],
        phase=data["phase"],
        origin=_check_endpoint(data["origin"], "origin"),
        dest=_check_endpoint(data["dest"], "dest"),
        partition=data["partition"],
        target=data["target"],
        values=tuple(values),
    )


def _body(msg: Message) -> bytes:
    return json.dumps(msg.to_dict(), sort_keys=True, separators=(",", ":")).encode("utf-8")


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
        values=(),
    )
    value_chars = len(str(modulus - 1))
    return len(_body(widest)) + universe_size * (value_chars + 1) - 1


def encode_msg(msg: Message) -> bytes:
    """Serialize to one length-prefixed frame."""
    body = _body(msg)
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
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolViolationError(f"undecodable frame payload: {exc}") from exc
    return message_from_dict(data)


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
