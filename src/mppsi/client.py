"""Per-database answer generation at client parties.

A database answers every query it received with a single residue: the
inner product of its incidence vector with the query vector, plus its dealt
slot for the query's (partition, target) tags (local plus individual
randomness), all multiplied by the global multiplier. The incidence vector
is binary, so the inner product is the sum of the query's entries at the
coordinates of the party's own set, O(|P_i|) per answer rather than O(K),
picked in one C-level call by support_sum; the auditor computes its inner
products with the same function. An answer echoes its query: origin and
destination swapped, the same session, and the same tags. A database
answers its run in its queries' order, the one order the leader decodes
answers in (leader.decode_values).

answer_all is the one answer function and the one check of a query on both
transports: protocol.collect_answers calls it in memory, and each TCP
endpoint's serve loop on the queries it reads, having checked only their
framing and that their values lie below L. A database uses nothing beyond
its database.DatabaseState (its party's set, its dealt slots and the public
parameters dealt with it, K among them) and the queries delivered to it.
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

    A message is answered if and only if it is a query of the state's
    session, from the leader, addressed to this database, tagged with the
    (partition, target) of one of its slots, and carrying K values; anything
    else is a protocol violation. A dealt slot masks one answer, so answering
    spends it: it leaves state.slots, and a second query for it holds no
    slot, on either transport. A slot answered stays spent even if a later
    query of the same batch is refused.
    """
    c, modulus = state.c, state.field.modulus
    address, session_id, slots = state.address, state.session_id, state.slots
    leader, universe = (state.leader, 0), state.universe_size
    # The state has checked its set against the universe.
    inner_product = support_sum(state.support)
    answers: List[Message] = []
    for query in queries:
        if query.type != "query":
            raise ProtocolViolationError(f"unexpected {query.type!r} frame")
        if query.session_id != session_id:
            raise ProtocolViolationError(
                f"frame for session {query.session_id}, serving {session_id}"
            )
        # An answer goes back to its query's origin: only the leader's.
        if query.origin != leader:
            raise ProtocolViolationError(f"query from {query.origin}, not from the leader {leader}")
        if query.dest != address:
            raise ProtocolViolationError(
                "frame for {} delivered to ({},{})".format(query.dest, *address)
            )
        q = query.values
        if len(q) != universe:
            raise ProtocolViolationError(f"query vector length {len(q)} != universe {universe}")
        # Spent last, so a query refused by any other check spends nothing.
        slot = slots.pop((query.partition, query.target), None)
        if slot is None:
            raise ProtocolViolationError(
                f"database {address} holds no slot for (partition, target) "
                f"{(query.partition, query.target)}"
            )
        value = answer_value(inner_product(q), slot, 0, c, modulus)
        # Fields in order (type, session_id, origin, dest, partition, target,
        # values): keywords cost about twice as much per message.
        answers.append(
            Message(
                "answer", query.session_id, address, query.origin,
                query.partition, query.target, bytes((value,)),
            )
        )
    return answers
