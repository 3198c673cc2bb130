"""Session lifecycle: the leader's driver, transcripts, the in-memory transport.

A session runs three phases in order: randomness sharing among client
databases, one query round from the leader, and one answer round back. The
transcript records every message (its phase follows from its type) plus the
cost table and the decoded result; with the in-memory transport it is a pure
function of (config, seed) and serializes to byte-identical files across
repeats.

run_leader is the leader's side of every session, set up by config.prepared
as net's endpoints are. A transport is only the exchange function it hands
the queries to, which returns the shares and the answers: run_memory_session
routes database states in memory, and net.run_networked_session frames the
messages to TCP endpoints.

Every transcript entry is the wire.Message a database state or the leader
produced, the same object a frame carries; transcript_from_run only puts a
run's messages in transcript order (shares in randomness.share_order, then
queries and answers by Message.sort_key). A transcript file is one line of
sorted-key JSON whose "messages" list holds each message as the base64 text
of its binary frame (wire.encode_msg), so the file and the wire share one
encoding and one rule for a valid message. The file stays a JSON object so
its head (cost table, leader) and tail (result, session id) stay readable
with json alone.

The leader never appears as origin or destination of a randomness-phase
message; those flow only between client databases. Audits rely on each
message's phase to reconstruct each party's legitimate view.
"""

from __future__ import annotations

import json
from base64 import b64decode, b64encode
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

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
from .protocol import SessionSetup, collect_answers
from .randomness import FAITHFUL, RandomnessPolicy, build_bundle, share_order
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

    def serialize(self) -> bytes:
        """The transcript as one line of sorted-key JSON.

        Its keys in sorted order are cost_table, leader, messages, result and
        session_id, so the text is a head object, each message as the quoted
        base64 text of its frame (wire.encode_msg), and a tail object.
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
        entries = list(map(b64encode, map(encode_msg, self.messages)))
        if not entries:
            return start + end
        # One join: copying a transcript-sized result twice costs more than
        # the base64 of every frame.
        entries[0] = start + b'"' + entries[0]
        entries[-1] += b'"' + end
        return b'","'.join(entries)


def _compact_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


_PHASES = ("randomness", "query", "answer")


def load_transcript(data: bytes) -> SessionTranscript:
    """The transcript that serialize wrote as data; any other bytes are a protocol violation.

    The file is read with json, and each message from its entry, the base64
    text of one frame, by wire.decode_msg: an entry that is not strict base64
    of a frame decode_msg accepts is rejected, and so is a file that does not
    re-serialize to exactly its own bytes, so a loaded transcript is
    byte-stable. So is one whose leader, costs (or nulls) and result are not
    all integers, whose leader has no cost, or whose messages carry another
    session id. So is one whose messages are out of transcript order: phases
    other than randomness, then query, then answer, shares not in strictly
    increasing randomness.share_order, or queries or answers not in strictly
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
        raise ProtocolViolationError("messages out of phase order: randomness, query, answer")
    orders = {"randomness": share_order, "query": Message.sort_key, "answer": Message.sort_key}
    for phase, order in orders.items():
        keys = [order(m) for m in messages if m.phase == phase]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ProtocolViolationError(
                f"{phase} messages out of {order.__name__} order, or repeated"
            )
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


# Given the setup, the plan, the queries and the session id, an exchange
# delivers the queries and returns the shares it saw, in share_order (none
# when they passed only between databases it does not run), and the answers.
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


def run_leader(config: SessionConfig, exchange: Exchange) -> SessionTranscript:
    """Run the leader's side of one session, its traffic carried by exchange.

    config.prepared gives the setup and session id. An empty leader set short-circuits:
    the intersection is necessarily empty, so nothing is drawn and exchange is never called.
    """
    setup, session_id = config.prepared
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
        states, shares = build_bundle(
            plan, setup.clients, setup.field, config.seed, session_id, policy
        )
        return shares, collect_answers(query_plan, states, config.universe)

    return run_leader(config, exchange)


def run_session(config: SessionConfig) -> SessionTranscript:
    """Run a session on the transport named by the config."""
    if config.transport == "memory":
        return run_memory_session(config)
    if config.transport == "net":
        from .net import run_networked_session

        return run_networked_session(config)
    raise ConfigError(f"unknown transport {config.transport!r}")
