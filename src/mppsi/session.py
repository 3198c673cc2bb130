"""Session lifecycle: the leader's driver, transcripts, the in-memory transport.

A session runs three phases in order: randomness sharing among client
databases, one query round from the leader, and one answer round back. The
transcript records every message with its phase tag plus the cost table and
the decoded result; with the in-memory transport it is a pure function of
(config, seed) and serializes to byte-identical files across repeats.

run_leader is the leader's side of every session. A transport is only the
exchange function it hands the queries to, which returns the shares and the
answers: run_memory_session routes database states in memory, and
net.run_networked_session frames the messages to TCP endpoints.

Every transcript entry is the wire.Message a database state or the leader
produced, the same object a frame carries; transcript_from_run only puts a
run's messages in transcript order (shares in randomness.share_order, then
queries and answers by Message.sort_key). A transcript file writes each one
as its JSON body (wire.render_body), not as the binary frame it travels in.

The leader never appears as origin or destination of a randomness-phase
message; those flow only between client databases. Audits rely on the phase
tags to reconstruct each party's legitimate view.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from .config import SessionConfig
from .errors import ConfigError, ProtocolViolationError
from .field import select_field_size
from .leader import (
    CostTable,
    IntersectionResult,
    PartitionPlan,
    QueryPlan,
    decode,
    generate_queries,
    make_partition_plan,
)
from .protocol import SessionSetup, collect_answers, make_session_id, prepare_session
from .randomness import FAITHFUL, RandomnessPolicy, build_bundle
from .wire import Message, encode_msg, render_body


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

    def serialize(self) -> bytes:
        """The transcript as one line of sorted-key JSON.

        Its keys in sorted order are cost_table, leader, messages, result and
        session_id, so the text is a head object, the messages' JSON bodies
        (wire.render_body), and a tail object. Each body is rendered
        once, as bytes, and everything is joined once: a call allocates one
        transcript-sized result.
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
        # One join of the head, the bodies with commas between, and the tail.
        parts = [f'{head[:-1]},"messages":['.encode("ascii")]
        for body in map(render_body, self.messages):
            parts += (body, b",")
        if self.messages:
            parts.pop()  # the comma after the last body
        parts.append(f"],{tail[1:]}\n".encode("ascii"))
        return b"".join(parts)


def _compact_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _message_of(body: dict) -> Message:
    """The message of a transcript body's eight fields, if a frame can carry it."""
    try:
        # iter: bytes(n) of a number n would be n zero bytes.
        values = bytes(iter(body["values"]))
    except ValueError:
        raise ProtocolViolationError("values must be a list of integers in 0..255") from None
    origin, dest = tuple(body["origin"]), tuple(body["dest"])
    msg = Message(**{**body, "origin": origin, "dest": dest, "values": values})
    # The head only: values are bytes already, and may be longer than a frame.
    encode_msg(msg._replace(values=b""))
    return msg


def load_transcript(data: bytes) -> SessionTranscript:
    """The transcript that serialize wrote as data; any other bytes are a protocol violation.

    The file is read with json, and each message from its body's eight
    fields. A message whose head encode_msg cannot frame is rejected (its
    values may be longer than a frame), and so is a file that does not
    re-serialize to exactly its own bytes, so a loaded transcript is
    byte-stable and every spelling but render_body's is refused. So is one
    whose leader, costs (or nulls) and result are not all integers, whose
    leader has no cost, or whose messages carry another session id. So is a
    result that contradicts itself or its messages: an indicator outside
    [0, L), with L the field of the cost table's parties; a decoded set other
    than the elements whose indicator is zero; a download cost other than the
    number of answers.
    """
    try:
        file = json.loads(data)
        messages = tuple(map(_message_of, file["messages"]))
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
    try:
        modulus = select_field_size(len(costs)).modulus
    except ConfigError as exc:
        raise ProtocolViolationError(f"no field for a cost table of {len(costs)} parties") from exc
    if not all(0 <= value < modulus for value in result.indicators.values()):
        raise ProtocolViolationError(f"an indicator lies outside [0, {modulus})")
    if result.decoded != {elem for elem, value in result.indicators.items() if value == 0}:
        raise ProtocolViolationError("decoded is not the set of elements whose indicator is zero")
    answers = sum(m.phase == "answer" for m in messages)
    if result.download_cost_actual != answers:
        raise ProtocolViolationError(
            f"download cost {result.download_cost_actual}, but {answers} answers"
        )
    return transcript


# Given the setup, the plan, the queries and the session id, an exchange
# delivers the queries and returns the shares, in share_order, and the answers.
Exchange = Callable[
    [SessionSetup, PartitionPlan, QueryPlan, str], Tuple[Sequence[Message], Sequence[Message]]
]


def transcript_from_run(
    setup: SessionSetup,
    session_id: str,
    shares: Sequence[Message],
    query_plan: QueryPlan,
    answers: Sequence[Message],
    result: IntersectionResult,
) -> SessionTranscript:
    """The run's messages in transcript order, with its setup and result."""
    queries = [q for sent in query_plan.queries.values() for q in sent]
    messages = (
        *shares,
        *sorted(queries, key=Message.sort_key),
        *sorted(answers, key=Message.sort_key),
    )
    return SessionTranscript(
        session_id=session_id,
        leader_id=setup.leader.party_id,
        cost_table=setup.costs,
        messages=messages,
        result=result,
    )


def run_leader(
    config: SessionConfig,
    exchange: Exchange,
    *,
    _prepared: Optional[Tuple[SessionSetup, str]] = None,
) -> SessionTranscript:
    """Run the leader's side of one session, its traffic carried by exchange.

    An empty leader set short-circuits: the intersection is necessarily
    empty, so nothing is drawn and exchange is never called.
    """
    # _prepared: the config's setup and session id, when the transport has
    # them already (net's endpoints built from this config carry both).
    if _prepared is None:
        _prepared = (
            prepare_session(config.parties, config.universe, config.leader_override),
            make_session_id(config),
        )
    setup, session_id = _prepared
    if not setup.leader.data_set:
        empty = IntersectionResult(decoded=frozenset(), indicators={}, download_cost_actual=0)
        return SessionTranscript(session_id, setup.leader.party_id, setup.costs, (), empty)
    plan = make_partition_plan(setup.leader, setup.clients)
    query_plan = generate_queries(plan, setup.field, config.universe, config.seed, session_id)
    shares, answers = exchange(setup, plan, query_plan, session_id)
    for msg in answers:
        if msg.session_id != session_id:
            raise ProtocolViolationError(
                f"answer for session {msg.session_id}, running {session_id}"
            )
    result = decode(plan, answers, setup.field)
    return transcript_from_run(setup, session_id, shares, query_plan, answers, result)


def run_memory_session(
    config: SessionConfig, policy: RandomnessPolicy = FAITHFUL
) -> SessionTranscript:
    """Run one session entirely in process, deterministically."""

    def exchange(setup, plan, query_plan, session_id):
        bundles, shares = build_bundle(
            plan, setup.clients, setup.field, config.seed, session_id, policy
        )
        answers = collect_answers(
            query_plan, setup.clients, config.universe, bundles, setup.field
        )
        return shares, answers

    return run_leader(config, exchange)


def run_session(config: SessionConfig) -> SessionTranscript:
    """Run a session on the transport named by the config."""
    if config.transport == "memory":
        return run_memory_session(config)
    if config.transport == "net":
        from .net import run_networked_session

        return run_networked_session(config)
    raise ConfigError(f"unknown transport {config.transport!r}")
