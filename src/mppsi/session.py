"""Session lifecycle and the deterministic in-memory transport.

A session runs three phases in order: randomness sharing among client
databases, one query round from the leader, and one answer round back. The
transcript records every message with its phase tag plus the cost table and
the decoded result; with the in-memory transport it is a pure function of
(config, seed) and serializes to byte-identical files across repeats.

Every transcript entry is the wire.Message a database state or the leader
produced, the same object a frame carries; transcript_from_run only puts a
run's messages in transcript order (shares in randomness.share_order, then
queries and answers by Message.sort_key).

The leader never appears as origin or destination of a randomness-phase
message; those flow only between client databases. Audits rely on the phase
tags to reconstruct each party's legitimate view.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Tuple

from .config import SessionConfig
from .errors import ConfigError
from .leader import CostTable, IntersectionResult
from .protocol import ProtocolRun, make_session_id, run_protocol
from .randomness import FAITHFUL, RandomnessPolicy
from .wire import Message, message_from_dict, render_body


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
    """The session id of a config: run_protocol's, whatever the transport."""
    return make_session_id(
        config.parties, config.universe_size, config.leader_override, config.seed
    )


def transcript_from_run(run: ProtocolRun) -> SessionTranscript:
    """The run's messages in transcript order, with its setup and result."""
    queries = [q for sent in run.query_plan.queries.values() for q in sent]
    messages = (
        *run.share_messages,
        *sorted(queries, key=Message.sort_key),
        *sorted(run.answers, key=Message.sort_key),
    )
    return SessionTranscript(
        session_id=run.session_id,
        leader_id=run.setup.leader.party_id,
        cost_table=run.setup.costs,
        messages=messages,
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
    return transcript_from_run(run)


def run_session(config: SessionConfig) -> SessionTranscript:
    """Run a session on the transport named by the config."""
    if config.transport == "memory":
        return run_memory_session(config)
    if config.transport == "net":
        from .net import run_networked_session

        return run_networked_session(config)
    raise ConfigError(f"unknown transport {config.transport!r}")
