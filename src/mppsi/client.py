"""Per-database answer generation at client parties.

A database answers every query it received with a single residue: the
inner product of its incidence vector with the query vector, plus its local
and individual randomness slots for that query's partition, all multiplied
by the global multiplier. The incidence vector is binary, so the inner
product is the sum of the query's entries at the coordinates of the party's
own set, O(|P_i|) per answer rather than O(K). The answer echoes the query's (partition, target
position) tags so the leader can decode in any arrival order.

A database uses nothing beyond its own copy of the party's set, its own
randomness slots, and the queries delivered to it; the function signatures
here admit nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from .errors import ConfigError, ProtocolViolationError
from .field import PrimeField
from .leader import QuerySpec
from .model import PartyProfile, Universe
from .randomness import RandomnessBundle


@dataclass(frozen=True)
class AnswerMsg:
    """One answer value, tagged for keyed (order-independent) decoding."""

    client_id: int
    database: int
    partition: int
    target_pos: Optional[int]
    value: int


def answer_value(ip: int, s: int, t: int, c: int, modulus: int) -> int:
    """The answer formula on raw residues: c * (ip + s + t) mod L."""
    return (c * (ip + s + t)) % modulus


def answer_all(
    profile: PartyProfile,
    database: int,
    queries: Sequence[QuerySpec],
    universe: Universe,
    bundle: RandomnessBundle,
    field: PrimeField,
) -> List[AnswerMsg]:
    """Answer every query delivered to one database, echoing its tags."""
    if bundle.c is None:
        raise ProtocolViolationError("global multiplier not installed")
    if bundle.c == 0:
        raise ValueError("global multiplier must be nonzero")
    support = sorted(elem - 1 for elem in profile.data_set)
    if support and support[-1] >= universe.size:
        raise ConfigError(
            f"party {profile.party_id}: element {support[-1] + 1} outside "
            f"universe of size {universe.size}"
        )
    answers: List[AnswerMsg] = []
    for query in queries:
        if query.client_id != profile.party_id or query.database != database:
            raise ProtocolViolationError(
                f"query addressed to ({query.client_id},{query.database}) "
                f"delivered to ({profile.party_id},{database})"
            )
        s_slot = bundle.local_slot(profile.party_id, query.partition)
        if query.target_pos is None:
            if database != 1:
                raise ProtocolViolationError(
                    f"bare base query delivered to database {database}"
                )
            t_slot = 0
        else:
            t_slot = bundle.individual_slot(profile.party_id, database, query.partition)
        q = query.vector
        if len(q) != universe.size:
            raise ValueError(f"length mismatch: {len(q)} vs {universe.size}")
        answers.append(
            AnswerMsg(
                client_id=profile.party_id,
                database=database,
                partition=query.partition,
                target_pos=query.target_pos,
                value=answer_value(
                    sum(q[j] for j in support), s_slot, t_slot, bundle.c, field.modulus
                ),
            )
        )
    return answers
