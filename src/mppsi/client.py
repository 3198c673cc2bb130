"""Per-database answer generation at client parties.

A database answers every query it received with a single residue: the
inner product of its incidence vector with the query vector, plus its local
and individual randomness slots for that query's partition, all multiplied
by the global multiplier. The incidence vector is binary, so the inner
product is the sum of the query's entries at the coordinates of the party's
own set, O(|P_i|) per answer rather than O(K), picked in one C-level call by
support_sum; the auditor computes its inner products with the same function.
Queries arrive and answers leave as wire.Message values. An answer echoes
its query: origin and destination swapped, the same session, and the same
(partition, target position) tags, so the leader can decode in any arrival
order.

A database uses nothing beyond its own copy of the party's set, its own
randomness slots, and the queries delivered to it; the function signatures
here admit nothing else.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, List, Sequence

from .errors import ConfigError, ProtocolViolationError
from .field import PrimeField
from .model import PartyProfile, Universe
from .randomness import RandomnessBundle
from .wire import Message


def answer_value(ip: int, s: int, t: int, c: int, modulus: int) -> int:
    """The answer formula on raw residues: c * (ip + s + t) mod L."""
    return (c * (ip + s + t)) % modulus


def support_sum(support: Sequence[int]) -> Callable[[Sequence[int]], int]:
    """The function summing a vector's entries at the 0-based support indices.

    itemgetter picks every entry in one call, but it needs at least one
    index, and with one index it returns that entry rather than a tuple.
    """
    if not support:
        return lambda vector: 0
    if len(support) == 1:
        return itemgetter(support[0])
    pick = itemgetter(*support)
    return lambda vector: sum(pick(vector))


def answer_all(
    profile: PartyProfile,
    database: int,
    queries: Sequence[Message],
    universe: Universe,
    bundle: RandomnessBundle,
    field: PrimeField,
) -> List[Message]:
    """Answer every query delivered to one database, echoing it."""
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
    inner_product = support_sum(support)
    address = (profile.party_id, database)
    answers: List[Message] = []
    for query in queries:
        if query.dest != address:
            raise ProtocolViolationError(f"query addressed to {query.dest} delivered to {address}")
        s_slot = bundle.local_slot(query.partition)
        if query.target is None:
            if database != 1:
                raise ProtocolViolationError(
                    f"bare base query delivered to database {database}"
                )
            t_slot = 0
        else:
            t_slot = bundle.individual_slot(query.partition)
        q = query.values
        if len(q) != universe.size:
            raise ValueError(f"length mismatch: {len(q)} vs {universe.size}")
        value = answer_value(inner_product(q), s_slot, t_slot, bundle.c, field.modulus)
        # Fields in order (type, session_id, origin, dest, partition, target,
        # values): keywords cost about twice as much per message.
        answers.append(
            Message(
                "answer", query.session_id, address, query.origin,
                query.partition, query.target, bytes((value,)),
            )
        )
    return answers
