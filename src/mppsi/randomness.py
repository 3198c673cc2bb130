"""The dealing of the clients' common randomness, before the session.

In the paper's model the clients already hold their common randomness when
the leader's queries arrive, and no client database talks to another. A
trusted set-up party, which sees the randomness but no set, deals it;
here the runner deals it from the config's seed. build_bundle is that
dealing: from a session's model.PublicParameters, the seed and the session
id, reading no set, it gives every client database the leader queries a
database.DatabaseRecord holding exactly what it adds to its answers, with
the session id and its address; session.deal builds each
database.DatabaseState from its record:

* its client's local vector (one slot per partition), the same at every
  database of that client: one labeled vector draw, "s/<client>";
* its individual value per targeted answer, at the partitions of its own
  positions, so none at database 1, which gets no targeted query. Every
  client except the last draws freely, one labeled vector per database
  holding a position, "t/<client>/<database>", indexed by partition; the
  last client's value for a leader-set position is the completion of the
  free values, so that each position's values across clients sum to
  L - (M - 1);
* the single global nonzero multiplier, labeled "c", the same at every
  database.

A record names leader-set positions only through its partitions: clients
only ever learn the public set size. completion is the one place the
correlating client's value is computed; the auditor calls it too.

Sessions run only the faithful scheme. A RandomnessPolicy names the scheme
mutations that the audit module's negative controls run; completion takes
one, FAITHFUL by default, and nothing on the session path passes another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .database import DatabaseRecord
from .leader import make_plan_shape
from .model import PublicParameters
from .seeding import draw_nonzero, draw_vector


@dataclass(frozen=True)
class RandomnessPolicy:
    """Scheme mutations for negative-control audits. Defaults are faithful."""

    zero_local: bool = False
    zero_individual: bool = False
    correlation_offset: int = 0
    fixed_global: Optional[int] = None


FAITHFUL = RandomnessPolicy()


def correlating_client(client_ids: Sequence[int]) -> int:
    """The client that completes the correlation: highest client id."""
    return max(client_ids)


def free_clients(client_ids: Sequence[int]) -> List[int]:
    corr = correlating_client(client_ids)
    return sorted(i for i in client_ids if i != corr)


def completion(
    free_values: Iterable[int], modulus: int, num_clients: int, policy: RandomnessPolicy = FAITHFUL
) -> int:
    """The correlating client's individual value for one leader-set position.

    Given the free clients' values for that position, it makes the position's
    values sum to L - num_clients, that is L - (M - 1), shifted by the
    policy's correlation offset; zero under zero_individual.
    """
    if policy.zero_individual:
        return 0
    return (modulus - num_clients + policy.correlation_offset - sum(free_values)) % modulus


def build_bundle(
    public: PublicParameters, seed: int, session_id: str
) -> Dict[Tuple[int, int], DatabaseRecord]:
    """Deal one session's common randomness from the seed: the record of
    every client database the leader queries, by its (client, database)
    address. The public parameters are a prepared session's, with the
    leader in place, and its leader set is nonempty."""
    shape = make_plan_shape(public)
    modulus, num_clients = public.field.modulus, len(shape.client_ids)
    correlator = correlating_client(shape.client_ids)
    c = draw_nonzero(seed, modulus, "c")
    individual: Dict[Tuple[int, int], Dict[int, int]] = {}  # address -> partition -> value
    free_values: Dict[int, List[int]] = {}  # position -> the free clients' values
    # Free clients first: the correlating client's values complete theirs.
    for party_id in sorted(shape.client_ids, key=lambda party_id: party_id == correlator):
        for database in range(1, shape.used_databases[party_id] + 1):
            held = individual[party_id, database] = {}
            positions = shape.positions_of_database(party_id, database)
            if party_id == correlator:
                for partition, position in enumerate(positions, 1):
                    free = free_values.get(position, ())
                    held[partition] = completion(free, modulus, num_clients)
            elif positions:
                draws = draw_vector(seed, modulus, shape.eta[party_id], "t", party_id, database)
                for partition, position in enumerate(positions, 1):
                    held[partition] = draws[partition - 1]
                    free_values.setdefault(position, []).append(held[partition])
    records = {}
    for party_id in shape.client_ids:
        local = draw_vector(seed, modulus, shape.eta[party_id], "s", party_id)
        for database in range(1, shape.used_databases[party_id] + 1):
            address = (party_id, database)
            records[address] = DatabaseRecord(session_id, address, local, individual[address], c)
    return records
