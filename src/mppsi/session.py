"""Session lifecycle and the deterministic in-memory transport.

A session runs three phases in order: randomness sharing among client
databases, one query round from the leader, and one answer round back. The
transcript records every message with its phase tag plus the cost table and
the decoded result; with the in-memory transport it is a pure function of
(config, seed) and serializes to byte-identical files across repeats.

The leader never appears as origin or destination of a randomness-phase
message; those flow only between client databases. Audits rely on the phase
tags to reconstruct each party's legitimate view.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import List, Tuple

from .config import SessionConfig
from .errors import ConfigError
from .leader import CostTable, IntersectionResult
from .protocol import ProtocolRun, run_protocol
from .randomness import FAITHFUL, RandomnessPolicy, ShareMessage
from .wire import SESSION_ID_CHARS, Message, message_from_dict, render_body


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
        session_id, so the text is a head object, the message bodies exactly
        as they travel in frames, and a tail object.
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
        bodies = ",".join(map(render_body, self.messages))
        return f'{head[:-1]},"messages":[{bodies}],{tail[1:]}\n'.encode("ascii")


def _compact_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def load_transcript(data: bytes) -> SessionTranscript:
    raw = json.loads(data.decode("utf-8"))
    messages = tuple(message_from_dict(m) for m in raw["messages"])
    table = CostTable({int(pid): cost for pid, cost in raw["cost_table"].items()})
    result = IntersectionResult(
        decoded=frozenset(raw["result"]["decoded"]),
        indicators={
            int(elem): value for elem, value in raw["result"]["indicators"].items()
        },
        download_cost_actual=raw["result"]["download_cost_actual"],
    )
    return SessionTranscript(
        session_id=raw["session_id"],
        leader_id=raw["leader"],
        cost_table=table,
        messages=messages,
        result=result,
    )


def session_id_for(config: SessionConfig) -> str:
    """Deterministic session id from the transport-independent config core."""
    core = {
        "universe_size": config.universe_size,
        "parties": [
            {"id": p.party_id, "databases": p.num_databases, "set": sorted(p.data_set)}
            for p in config.parties
        ],
        "leader": config.leader_override,
        "seed": config.seed,
    }
    digest = hashlib.sha256(_compact_json(core).encode("utf-8"))
    return digest.hexdigest()[:SESSION_ID_CHARS]


def share_to_wire(share: ShareMessage, session_id: str) -> Message:
    """The wire form of one randomness-phase message."""
    return Message(
        type=share.kind,
        session_id=session_id,
        phase="randomness",
        origin=share.origin,
        dest=share.dest,
        partition=None,
        target=share.position,
        values=share.values,
    )


def share_from_wire(msg: Message) -> ShareMessage:
    """The randomness-phase message a t_share or c_share frame carries."""
    return ShareMessage(msg.type, msg.origin, msg.dest, msg.target, msg.values)


def queries_to_wire(leader_id: int, specs, session_id: str) -> List[Message]:
    msgs = [
        Message(
            type="query",
            session_id=session_id,
            phase="query",
            origin=(leader_id, 0),
            dest=(spec.client_id, spec.database),
            partition=spec.partition,
            target=spec.target_pos,
            values=spec.vector,
        )
        for spec in specs
    ]
    msgs.sort(key=Message.sort_key)
    return msgs


def answers_to_wire(leader_id: int, answers, session_id: str) -> List[Message]:
    msgs = [
        Message(
            type="answer",
            session_id=session_id,
            phase="answer",
            origin=(answer.client_id, answer.database),
            dest=(leader_id, 0),
            partition=answer.partition,
            target=answer.target_pos,
            values=(answer.value,),
        )
        for answer in answers
    ]
    msgs.sort(key=Message.sort_key)
    return msgs


def transcript_from_run(config: SessionConfig, run: ProtocolRun) -> SessionTranscript:
    session_id = session_id_for(config)
    messages: List[Message] = []
    if run.plan is not None:
        leader_id = run.plan.leader_id
        messages.extend(share_to_wire(share, session_id) for share in run.share_messages)
        messages.extend(queries_to_wire(leader_id, run.query_plan.all_queries(), session_id))
        messages.extend(answers_to_wire(leader_id, run.answers, session_id))
    return SessionTranscript(
        session_id=session_id,
        leader_id=run.setup.leader.party_id,
        cost_table=run.setup.costs,
        messages=tuple(messages),
        result=run.result,
    )


def run_memory_session(
    config: SessionConfig, policy: RandomnessPolicy = FAITHFUL
) -> SessionTranscript:
    """Run one session entirely in process, deterministically."""
    run = run_protocol(
        profiles=config.parties,
        universe=config.universe,
        seed=config.seed,
        leader_override=config.leader_override,
        policy=policy,
    )
    return transcript_from_run(config, run)


def run_session(config: SessionConfig) -> SessionTranscript:
    """Run a session on the transport named by the config."""
    if config.transport == "memory":
        return run_memory_session(config)
    if config.transport == "net":
        from .net import run_networked_session

        return run_networked_session(config)
    raise ConfigError(f"unknown transport {config.transport!r}")
