"""Transport-free protocol engine.

Runs a complete session as pure function calls: leader election (or
override), partition planning, randomness setup, query generation, answer
collection, and decoding. Its traffic is wire.Message values from the
moment a database state or the leader makes them: the in-memory transport
orders them into a transcript, and the networked transport frames the same
messages. The audit module elects through prepare_session.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .client import answer_all
from .errors import InfeasibleError
from .field import PrimeField, select_field_size
from .leader import (
    CostTable,
    IntersectionResult,
    PartitionPlan,
    QueryPlan,
    cost_table,
    decode,
    generate_queries,
    make_partition_plan,
)
from .model import PartyProfile, Universe, validate_profiles
from .randomness import FAITHFUL, RandomnessBundle, RandomnessPolicy, build_bundle
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


def make_session_id(
    profiles: Sequence[PartyProfile],
    universe_size: int,
    leader_override: Optional[int],
    seed: int,
) -> str:
    """Deterministic session id from the transport-independent session core."""
    core = {
        "universe_size": universe_size,
        "parties": [
            {"id": p.party_id, "databases": p.num_databases, "set": sorted(p.data_set)}
            for p in profiles
        ],
        "leader": leader_override,
        "seed": seed,
    }
    text = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:SESSION_ID_CHARS]


def collect_answers(
    query_plan: QueryPlan,
    clients: Sequence[PartyProfile],
    universe: Universe,
    bundles: Dict[Tuple[int, int], RandomnessBundle],
    field: PrimeField,
) -> List[Message]:
    """Every database answers exactly the queries delivered to it, from its own bundle."""
    by_id = {client.party_id: client for client in clients}
    answers: List[Message] = []
    for (client_id, database), delivered in query_plan.queries.items():
        bundle = bundles[client_id, database]
        answers.extend(
            answer_all(by_id[client_id], database, delivered, universe, bundle, field)
        )
    return answers


@dataclass(frozen=True)
class ProtocolRun:
    """One full run: plan, drawn values, traffic, and decoded result."""

    setup: SessionSetup
    session_id: str
    plan: Optional[PartitionPlan]
    query_plan: QueryPlan
    share_messages: Tuple[Message, ...]
    answers: Tuple[Message, ...]
    result: IntersectionResult


def run_protocol(
    profiles: Sequence[PartyProfile],
    universe: Universe,
    seed: int,
    leader_override: Optional[int] = None,
    policy: RandomnessPolicy = FAITHFUL,
) -> ProtocolRun:
    """Run a complete session in memory, without any transport dressing.

    An empty leader set short-circuits: the intersection is necessarily
    empty, so nothing is drawn and nothing is exchanged.
    """
    setup = prepare_session(profiles, universe, leader_override)
    session_id = make_session_id(profiles, universe.size, leader_override, seed)
    if not setup.leader.data_set:
        empty = IntersectionResult(
            decoded=frozenset(), indicators={}, download_cost_actual=0
        )
        return ProtocolRun(
            setup=setup,
            session_id=session_id,
            plan=None,
            query_plan=QueryPlan(h_vectors=(), queries={}),
            share_messages=(),
            answers=(),
            result=empty,
        )
    plan = make_partition_plan(setup.leader, setup.clients)
    bundles, share_messages = build_bundle(
        plan, setup.clients, setup.field, seed, session_id, policy
    )
    query_plan = generate_queries(plan, setup.field, universe, seed, session_id)
    answers = collect_answers(query_plan, setup.clients, universe, bundles, setup.field)
    result = decode(plan, answers, setup.field)
    return ProtocolRun(
        setup=setup,
        session_id=session_id,
        plan=plan,
        query_plan=query_plan,
        share_messages=tuple(share_messages),
        answers=tuple(answers),
        result=result,
    )
