"""One client database's protocol state, with no I/O.

A DatabaseState is built from what one client database is entitled to: the
public plan shape, its party's own set and its own DatabaseRecord, the
common randomness dealt to it before the session
(randomness.build_bundle). A record holds exactly what the database adds to
its answers and nothing of any other database: its client's local vector,
its individual values at the partitions of its own positions, and the
multiplier. It also carries the public parameters the database serves
under: the session id, its address, the leader and K. So one record
describes a database completely, a state is ready to answer once built,
and it never draws, sends or receives randomness. Its constructor refuses a
record that is no dealing for it: one for another party or a database it
does not have, one naming a client as the leader, a set outside 1..K, a
local vector of another length, individual values at partitions other
than those of its own positions, or a value that is no residue below L
(the multiplier must also be nonzero). It runs only the faithful scheme: the
negative-control mutations are the audit checks'. It never touches a
socket or a clock; client.answer_all answers a batch of queries from it.
Both transports answer from these states: protocol.collect_answers in
memory, and each net.DatabaseEndpoint behind its serve loop.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from .errors import ConfigError
from .field import PrimeField
from .leader import PlanShape
from .model import PartyProfile


class DatabaseRecord(NamedTuple):
    """One client database's dealt randomness for one session, all residues in [0, L).

    session_id, address, leader (the leader's party id) and universe_size
    (K) are the public parameters the database serves under; the rest is
    its dealing. local[partition - 1] is its client's local value for that
    partition; individual[partition] is the value it adds to its targeted
    answer for that partition, only at the partitions of its own positions
    (none at database 1, which gets no targeted query); c is the nonzero
    global multiplier.
    """

    session_id: str
    address: Tuple[int, int]
    leader: int
    universe_size: int
    local: bytes
    individual: Dict[int, int]
    c: int


class DatabaseState:
    """The answering state of one client database: its party's set and its record.

    support holds the 0-based indices of its set's elements in a query of K
    values, sorted: sorted(element - 1 for element in profile.data_set),
    which the dealing sorts once for all of a party's databases. tags holds
    the (partition, target position) pair of each targeted query it answers.
    """

    def __init__(
        self, shape: PlanShape, profile: PartyProfile, field: PrimeField, record: DatabaseRecord,
        support: List[int],
    ):
        party_id, database = record.address
        if party_id != profile.party_id or not 1 <= database <= profile.num_databases:
            raise ConfigError(
                f"record for database {record.address}, not one of party "
                f"{profile.party_id}'s {profile.num_databases}"
            )
        if party_id not in shape.client_ids:
            raise ConfigError(f"record for database {record.address} of a party that is no client")
        if record.leader in shape.client_ids:
            raise ConfigError(f"record names client {record.leader} as the leader")
        if support and not 0 <= support[0] <= support[-1] < record.universe_size:
            raise ConfigError(f"party {party_id}'s set is not within 1..{record.universe_size}")
        modulus = field.modulus
        if len(record.local) != shape.eta[party_id]:
            raise ConfigError(
                f"record's local vector has {len(record.local)} slots, "
                f"expected {shape.eta[party_id]}"
            )
        if max(record.local, default=0) >= modulus:
            raise ConfigError(f"record's local vector holds a value outside [0, {modulus})")
        tags = frozenset(enumerate(shape.positions_of_database(party_id, database), 1))
        own = sorted({partition for partition, _ in tags})
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
        self.session_id = record.session_id
        self.shape = shape
        self.profile = profile
        self.support = support
        self.address = record.address
        self.leader = record.leader
        self.universe_size = record.universe_size
        self.field = field
        self.tags = tags
        self.local = record.local
        self.individual = record.individual
        self.c = record.c
