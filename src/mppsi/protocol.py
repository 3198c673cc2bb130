"""Transport-free pieces of a session: election, session id, in-memory answers.

prepare_session elects (or accepts) the leader and checks feasibility;
the leader's driver, session.run_leader, the dealing, session.deal, and
the audit module all elect through it. make_session_id is the one
session-id function, of the config alone, so every transport derives the
same id, and each database reads it from its dealt record. prepare runs
both for a config, once per config object: the config's cached
SessionConfig.prepared calls it, and the leader's driver, the dealing and
the CLI read that. collect_answers is the in-memory answer round: every
database answers its run of the queries, in transcript order, from its own
database.DatabaseState alone, through client.answer_all, the function a
TCP endpoint answers with too.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .client import answer_all
from .config import SessionConfig
from .database import DatabaseState
from .errors import InfeasibleError
from .field import PrimeField, select_field_size
from .leader import CostTable, cost_table
from .model import PartyProfile, Universe, validate_profiles
from .wire import SESSION_ID_CHARS, Message


@dataclass(frozen=True)
class SessionSetup:
    """Everything fixed before any value is drawn."""

    field: PrimeField
    leader: PartyProfile
    clients: Tuple[PartyProfile, ...]
    costs: CostTable


def prepare_session(
    profiles: Sequence[PartyProfile],
    universe: Universe,
    leader_override: Optional[int] = None,
) -> SessionSetup:
    """Elect (or accept) the leader and check feasibility."""
    validate_profiles(profiles, universe)
    if len(profiles) < 2:
        raise InfeasibleError(f"need at least 2 parties, got {len(profiles)}")
    table = cost_table(profiles)
    if leader_override is not None:
        if leader_override not in table.costs:
            raise InfeasibleError(f"leader override names unknown party {leader_override}")
        if table.costs[leader_override] is None:
            raise InfeasibleError(
                f"party {leader_override} cannot lead: some counterpart has one database"
            )
        leader_id = leader_override
    else:
        leader_id = table.best()
    by_id = {p.party_id: p for p in profiles}
    leader = by_id[leader_id]
    clients = tuple(sorted(
        (p for p in profiles if p.party_id != leader_id), key=lambda p: p.party_id
    ))
    return SessionSetup(
        field=select_field_size(len(profiles)),
        leader=leader,
        clients=clients,
        costs=table,
    )


def make_session_id(config: SessionConfig) -> str:
    """The session id of a config: a digest of its transport-independent core."""
    core = {
        "universe_size": config.universe_size,
        "parties": [
            {"id": p.party_id, "databases": p.num_databases, "set": sorted(p.data_set)}
            for p in config.parties
        ],
        "leader": config.leader_override,
        "seed": config.seed,
    }
    text = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:SESSION_ID_CHARS]


def prepare(config: SessionConfig) -> Tuple[SessionSetup, str]:
    """The config's setup and session id."""
    setup = prepare_session(config.parties, config.universe, config.leader_override)
    return setup, make_session_id(config)


def collect_answers(
    queries: Sequence[Message],
    states: Dict[Tuple[int, int], DatabaseState],
) -> List[Message]:
    """Every database answers exactly its consecutive run of the queries, from its own state."""
    answers: List[Message] = []
    for address, delivered in itertools.groupby(queries, key=lambda query: query.dest):
        answers += answer_all(states[address], list(delivered))
    return answers
