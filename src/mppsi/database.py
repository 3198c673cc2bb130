"""One client database's protocol state, with no I/O.

A DatabaseState is built from what one client database is entitled to: the
session's model.PublicParameters, from which it derives the plan shape, its
party's own set and its own DatabaseRecord, the common randomness dealt to
it before the session (randomness.build_bundle). A record holds exactly
what the database adds to its answers and nothing of any other database's:
its client's local vector, its individual values at the partitions of its
own positions, and the multiplier, with its session id and address. So a
state is ready to answer once built, from one slot per query it answers,
each spent by its answer, and never draws, sends or receives randomness.
Its constructor refuses a record that is no dealing for it: one for a
database the leader does not query, a set outside 1..K, a local vector of
another length, individual values at partitions other than those of its own
positions, or a value that is no residue below L (the multiplier must also
be nonzero). That the set is its party's, no one but the party can check.
It runs only the faithful scheme: the negative-control mutations are the
audit checks'. Both transports answer from these states through
client.answer_all, the one check of a query: protocol.collect_answers in
memory, and each net.DatabaseEndpoint behind its serve loop.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from .errors import ConfigError
from .leader import make_plan_shape
from .model import PublicParameters


class DatabaseRecord(NamedTuple):
    """One client database's dealt randomness for one session, all residues in [0, L).

    session_id and address are the session and the database it serves; the
    rest is its dealing. local[partition - 1] is its client's local value
    for that partition; individual[partition] is the value it adds to its
    targeted answer for that partition, only at the partitions of its own
    positions (none at database 1, which gets no targeted query); c is the
    nonzero global multiplier.
    """

    session_id: str
    address: Tuple[int, int]
    local: bytes
    individual: Dict[int, int]
    c: int


class DatabaseState:
    """The answering state of one client database: its party's set and its record.

    leader, universe_size and field are the public parameters'. support
    holds the 0-based indices of its set's elements in a query of K
    values, sorted: sorted(element - 1 for element in data_set),
    which the dealing sorts once for all of a party's databases. slots maps
    the (partition, target position) tags of each query it answers in the
    session to s + t, its local value plus its individual value: database 1
    answers a bare query per partition (target None, t = 0), any other a
    targeted query per position it holds. client.answer_all removes each
    slot it answers, so slots holds the ones not yet spent. Of its record
    it keeps only the slots, c, the session id and the address, so a spent
    slot's s + t is gone from it.
    """

    def __init__(self, public: PublicParameters, record: DatabaseRecord, support: List[int]):
        shape, field = make_plan_shape(public), public.field
        party_id, database = record.address
        if not 1 <= database <= shape.used_databases.get(party_id, 0):
            raise ConfigError(f"record for database {record.address}, which gets no query")
        if support and not 0 <= support[0] <= support[-1] < public.universe_size:
            raise ConfigError(f"party {party_id}'s set is not within 1..{public.universe_size}")
        modulus = field.modulus
        if len(record.local) != shape.eta[party_id]:
            raise ConfigError(
                f"record's local vector has {len(record.local)} slots, "
                f"expected {shape.eta[party_id]}"
            )
        if max(record.local, default=0) >= modulus:
            raise ConfigError(f"record's local vector holds a value outside [0, {modulus})")
        positions = shape.positions_of_database(party_id, database)
        own = list(range(1, len(positions) + 1))  # the i-th position lies in partition i
        if sorted(record.individual) != own:
            raise ConfigError(
                f"record's individual values at partitions {sorted(record.individual)}, "
                f"expected {own}"
            )
        if any(not 0 <= value < modulus for value in record.individual.values()):
            raise ConfigError(
                f"record's individual values {record.individual} are not all in [0, {modulus})"
            )
        if not 0 < record.c < modulus:
            raise ConfigError(f"record's multiplier {record.c} is not in [1, {modulus})")
        targets = [None] * len(record.local) if database == 1 else positions
        self.slots = {
            (partition, target): record.local[partition - 1] + record.individual.get(partition, 0)
            for partition, target in enumerate(targets, 1)
        }
        self.session_id = record.session_id
        self.support = support
        self.address = record.address
        self.leader = public.leader
        self.universe_size = public.universe_size
        self.field = field
        self.c = record.c
