"""Session lifecycle: the leader's driver, transcripts, the in-memory transport.

The clients' common randomness is dealt before the session (deal, through
randomness.build_bundle), so a session runs two phases in order: one query
round from the leader and one answer round back. Every message has the
leader at one end; no client database sends to another. The transcript
records every message (its phase is its type) plus the cost table and the
decoded result; with the in-memory transport it is a pure function of
(config, seed) and serializes to byte-identical files across repeats.

run_leader is the leader's side of every session, set up by config.prepared
as the dealing is. A transport is only the exchange function it hands the
queries to, which returns the answers, queries in and answers out:
run_memory_session answers from the dealt database states in memory, and
net.run_networked_session frames the messages to TCP endpoints that each
hold one of those states and nothing else. A session runs only the
faithful scheme: the negative-control mutations are the audit checks'.

Every transcript entry is the wire.Message a database state or the leader
produced, the same object a frame carries. The leader generates its queries
in transcript order (Message.sort_key), and every database answers its run
in its queries' order, which leader.decode reads them in, so
transcript_from_run keeps both as they are. A transcript file is
one line of sorted-key JSON whose "messages" list holds each message as the
base64 text of its binary frame (wire.encode_msg), so the file and the wire
share one encoding and one rule for a valid message. The file stays a JSON
object so its head (cost table, leader) and tail (result, session id) stay
readable with json alone.
"""

from __future__ import annotations

import json
from base64 import b64decode
from binascii import b2a_base64
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

from .config import SessionConfig
from .database import DatabaseState
from .errors import ConfigError, ProtocolViolationError
from .field import select_field_size
from .leader import (
    CostTable,
    IntersectionResult,
    decode,
    generate_queries,
    make_partition_plan,
    make_plan_shape,
)
from .protocol import collect_answers
from .randomness import build_bundle
from .wire import Message, decode_msg, encode_msg


@dataclass(frozen=True)
class SessionTranscript:
    """Everything observable about one finished session."""

    session_id: str
    leader_id: int
    cost_table: CostTable
    messages: Tuple[Message, ...]
    result: IntersectionResult

    @property
    def download_cost_actual(self) -> int:
        return self.result.download_cost_actual

    def messages_in_phase(self, phase: str) -> Tuple[Message, ...]:
        return tuple(m for m in self.messages if m.phase == phase)

    def report(self) -> dict:
        """What a user checks of the session, read from the transcript alone.

        The session id, the leader, the cost table (party id as text, cost or
        None, in party order), the decoded set, the actual download cost and
        the message count per phase; a loaded transcript reports the same.
        """
        return {
            "session_id": self.session_id,
            "leader": self.leader_id,
            "cost_table": {str(p): c for p, c in sorted(self.cost_table.costs.items())},
            "decoded": sorted(self.result.decoded),
            "download_cost_actual": self.download_cost_actual,
            "messages": {phase: len(self.messages_in_phase(phase)) for phase in _PHASES},
        }

    def serialize(self) -> bytes:
        """The transcript as one line of sorted-key JSON.

        Its keys in sorted order are cost_table, leader, messages, result and
        session_id, so the text is a head object, each message as the quoted
        base64 text of its frame (wire.encode_msg, then binascii.b2a_base64
        without a newline, as base64.b64encode writes it), and a tail object.
        """
        head = _compact_json(
            {
                "cost_table": {str(pid): cost for pid, cost in self.cost_table.costs.items()},
                "leader": self.leader_id,
            }
        )
        tail = _compact_json(
            {
                "result": {
                    "decoded": sorted(self.result.decoded),
                    "indicators": {
                        str(elem): value for elem, value in self.result.indicators.items()
                    },
                    "download_cost_actual": self.result.download_cost_actual,
                },
                "session_id": self.session_id,
            }
        )
        start = f'{head[:-1]},"messages":['.encode("ascii")
        end = f"],{tail[1:]}\n".encode("ascii")
        entries = [b2a_base64(encode_msg(msg), newline=False) for msg in self.messages]
        if not entries:
            return start + end
        # One join: copying a transcript-sized result twice costs more than
        # the base64 of every frame.
        entries[0] = start + b'"' + entries[0]
        entries[-1] += b'"' + end
        return b'","'.join(entries)


def _compact_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


_PHASES = ("query", "answer")


def load_transcript(data: bytes) -> SessionTranscript:
    """The transcript that serialize wrote as data; any other bytes are a protocol violation.

    The file is read with json, and each message from its entry, the base64
    text of one frame, by wire.decode_msg: an entry that is not strict base64
    of a frame decode_msg accepts is rejected, and so is a file that does not
    re-serialize to exactly its own bytes, so a loaded transcript is
    byte-stable. So is one whose leader, costs (or nulls) and result are not
    all integers, whose leader has no cost, or whose messages carry another
    session id. So is one whose messages are out of transcript order: phases
    other than query, then answer, or queries or answers not in strictly
    increasing Message.sort_key order (so none repeats). So is one with a
    message value outside [0, L), with L the field of the cost table's
    parties. So, last, is a result that contradicts itself or its
    messages: an indicator outside [0, L); a decoded set other than the
    elements whose indicator is zero; a download cost other than the number
    of answers.
    """
    try:
        file = json.loads(data)
        messages = tuple(
            decode_msg(b64decode(entry, validate=True)) for entry in file["messages"]
        )
        transcript = SessionTranscript(
            session_id=file["session_id"],
            leader_id=file["leader"],
            cost_table=CostTable({int(pid): cost for pid, cost in file["cost_table"].items()}),
            messages=messages,
            result=IntersectionResult(
                decoded=frozenset(file["result"]["decoded"]),
                indicators={int(e): v for e, v in file["result"]["indicators"].items()},
                download_cost_actual=file["result"]["download_cost_actual"],
            ),
        )
        stable = transcript.serialize() == data
    except (ValueError, LookupError, TypeError, AttributeError, RecursionError) as exc:
        raise ProtocolViolationError(f"malformed transcript file: {exc}") from exc
    if not stable:
        raise ProtocolViolationError("transcript file does not re-serialize to its own bytes")
    result, costs = transcript.result, transcript.cost_table.costs
    # json reads true as a bool and NaN as a float; both re-serialize to themselves.
    numbers = (transcript.leader_id, result.download_cost_actual, *result.decoded,
               *result.indicators.values(), *(c for c in costs.values() if c is not None))
    if not all(type(n) is int for n in numbers) or transcript.leader_id not in costs:
        raise ProtocolViolationError("head or tail not integers, or the leader has no cost")
    if any(m.session_id != transcript.session_id for m in messages):
        raise ProtocolViolationError("a message carries a session id other than the transcript's")
    phases = [m.phase for m in messages]
    if phases != sorted(phases, key=_PHASES.index):
        raise ProtocolViolationError("messages out of phase order: query, answer")
    for phase in _PHASES:
        keys = [m.sort_key() for m in messages if m.phase == phase]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ProtocolViolationError(f"{phase} messages out of sort_key order, or repeated")
    try:
        modulus = select_field_size(len(costs)).modulus
    except ConfigError as exc:
        raise ProtocolViolationError(f"no field for a cost table of {len(costs)} parties") from exc
    residues = bytes(range(modulus))
    if any(m.values.translate(None, residues) for m in messages):
        raise ProtocolViolationError(f"a message carries a value outside [0, {modulus})")
    if not all(0 <= value < modulus for value in result.indicators.values()):
        raise ProtocolViolationError(f"an indicator lies outside [0, {modulus})")
    if result.decoded != {elem for elem, value in result.indicators.items() if value == 0}:
        raise ProtocolViolationError("decoded is not the set of elements whose indicator is zero")
    answers = phases.count("answer")
    if result.download_cost_actual != answers:
        raise ProtocolViolationError(
            f"download cost {result.download_cost_actual}, but {answers} answers"
        )
    return transcript


def deal(config: SessionConfig) -> Dict[Tuple[int, int], DatabaseState]:
    """The config's session dealt from its seed: the state of every client
    database the leader queries, by address, built from the public
    parameters, its record and its party's set. An empty leader set needs
    no randomness: none."""
    public, _, session_id = config.prepared
    if not public.set_sizes[public.leader - 1]:
        return {}
    supports = {
        p.party_id: sorted(element - 1 for element in p.data_set)
        for p in config.parties if p.party_id != public.leader
    }
    return {
        address: DatabaseState(public, record, supports[address[0]])
        for address, record in build_bundle(public, config.seed, session_id).items()
    }


# Given the queries in transcript order, an exchange delivers them and
# returns the answers as they came, which must be the queries' order.
Exchange = Callable[[Sequence[Message]], Sequence[Message]]


def transcript_from_run(
    leader_id: int,
    costs: CostTable,
    session_id: str,
    queries: Sequence[Message],
    answers: Sequence[Message],
    result: IntersectionResult,
) -> SessionTranscript:
    """The run's transcript: its queries and answers, each already in transcript order."""
    return SessionTranscript(
        session_id=session_id,
        leader_id=leader_id,
        cost_table=costs,
        messages=(*queries, *answers),
        result=result,
    )


def run_leader(config: SessionConfig, exchange: Exchange) -> SessionTranscript:
    """Run the leader's side of one session, its traffic carried by exchange.

    config.prepared gives the public parameters, the cost table and the session id, and
    the leader's set is the one set it reads. An empty leader set short-circuits:
    the intersection is necessarily empty, so nothing is drawn and exchange is never called.
    """
    public, costs, session_id = config.prepared
    leader = next(p for p in config.parties if p.party_id == public.leader)
    if not leader.data_set:
        empty = IntersectionResult(decoded=frozenset(), indicators={}, download_cost_actual=0)
        return SessionTranscript(session_id, leader.party_id, costs, (), empty)
    plan = make_partition_plan(make_plan_shape(public), leader.sorted_elements())
    queries = generate_queries(plan, public.field, config.universe, config.seed, session_id)
    answers = exchange(queries)
    for msg in answers:
        if msg.session_id != session_id:
            raise ProtocolViolationError(
                f"answer for session {msg.session_id}, running {session_id}"
            )
    result = decode(plan, answers, public.field)
    return transcript_from_run(leader.party_id, costs, session_id, queries, answers, result)


def run_memory_session(config: SessionConfig) -> SessionTranscript:
    """Run one session entirely in process, deterministically, on the states dealt for it."""
    states = deal(config)
    return run_leader(config, lambda queries: collect_answers(queries, states))


def run_session(config: SessionConfig) -> SessionTranscript:
    """Run a session on the transport named by the config."""
    if config.transport == "memory":
        return run_memory_session(config)
    if config.transport == "net":
        from .net import run_networked_session

        return run_networked_session(config)
    raise ConfigError(f"unknown transport {config.transport!r}")
