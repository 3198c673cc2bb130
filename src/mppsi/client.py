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

answer_all is the one answer function of both transports:
protocol.collect_answers calls it in memory, and each TCP endpoint's serve
loop calls it on the queries it reads. A database uses nothing beyond its
database.DatabaseState (its own copy of the party's set, its own dealt
randomness and the public parameters dealt with it, K among them) and the
queries delivered to it; answer_all admits nothing else.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, List, Sequence

from .database import DatabaseState
from .errors import ProtocolViolationError
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


def answer_all(state: DatabaseState, queries: Sequence[Message]) -> List[Message]:
    """Answer every query delivered to one database from its state, echoing it.

    A query must be addressed to the database and carry K values, K the
    state's universe size; its partition must have a local value at this
    database, and a targeted query (one with a target position) must carry
    the (partition, target) tags of a position this database holds; only
    database 1 answers a bare base query. Anything else is a protocol
    violation.
    """
    c, modulus = state.c, state.field.modulus
    address = state.address
    # The state has checked its set against the universe.
    inner_product = support_sum(state.support)
    local, individual, tags = state.local, state.individual, state.tags
    universe_size = state.universe_size
    answers: List[Message] = []
    for query in queries:
        if query.dest != address:
            raise ProtocolViolationError(f"query addressed to {query.dest} delivered to {address}")
        partition = query.partition
        if partition not in range(1, len(local) + 1):  # None too: a query without one
            raise ProtocolViolationError(f"no local randomness slot for partition {partition}")
        s_slot = local[partition - 1]
        if query.target is None:
            if address[1] != 1:
                raise ProtocolViolationError(
                    f"bare base query delivered to database {address[1]}"
                )
            t_slot = 0
        elif (partition, query.target) in tags:
            t_slot = individual[partition]
        else:
            raise ProtocolViolationError(
                f"no individual randomness for partition {partition}, position "
                f"{query.target} at database {address}"
            )
        q = query.values
        if len(q) != universe_size:
            raise ProtocolViolationError(
                f"query vector length {len(q)} != universe {universe_size}"
            )
        value = answer_value(inner_product(q), s_slot, t_slot, c, modulus)
        # Fields in order (type, session_id, origin, dest, partition, target,
        # values): keywords cost about twice as much per message.
        answers.append(
            Message(
                "answer", query.session_id, address, query.origin,
                query.partition, query.target, bytes((value,)),
            )
        )
    return answers
