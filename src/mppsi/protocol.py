"""Transport-free pieces of a session: election, session id, in-memory answers.

prepare_session elects (or accepts) the leader of a session's public
parameters and checks feasibility; it reads no set and no seed. The
config's cached SessionConfig.prepared runs it once per config object,
with make_session_id, the one session-id function, of the config alone, so
every transport derives the same id; the leader's driver, session.run_leader,
the dealing, session.deal, and the CLI read that, and each database reads
the id from its dealt record. collect_answers is the in-memory answer
round: every database answers its run of the queries, in transcript order,
from its own database.DatabaseState alone, through client.answer_all, the
function a TCP endpoint answers with too.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from .client import answer_all
from .database import DatabaseState
from .errors import InfeasibleError
from .field import select_field_size
from .leader import CostTable, cost_table
from .model import PublicParameters
from .wire import SESSION_ID_CHARS, Message


def prepare_session(public: PublicParameters) -> Tuple[PublicParameters, CostTable]:
    """Elect (or accept) the leader and check feasibility: the public
    parameters with the leader in place, and every candidate's cost."""
    if len(public.databases) < 2:
        raise InfeasibleError(f"need at least 2 parties, got {len(public.databases)}")
    table = cost_table(public)
    leader_id = table.best() if public.leader is None else public.leader
    if leader_id not in table.costs:
        raise InfeasibleError(f"leader override names unknown party {leader_id}")
    if table.costs[leader_id] is None:
        raise InfeasibleError(f"party {leader_id} cannot lead: some counterpart has one database")
    select_field_size(len(public.databases))  # a residue per byte: at most MAX_PARTIES parties
    return replace(public, leader=leader_id), table


def make_session_id(config) -> str:
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


def collect_answers(
    queries: Sequence[Message],
    states: Dict[Tuple[int, int], DatabaseState],
) -> List[Message]:
    """Every database answers exactly its consecutive run of the queries, from its own state."""
    answers: List[Message] = []
    for address, delivered in itertools.groupby(queries, key=lambda query: query.dest):
        answers += answer_all(states[address], list(delivered))
    return answers
