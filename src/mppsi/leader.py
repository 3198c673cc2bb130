"""Leader-side logic: election by download cost, partitioning, queries, decoding.

The elected leader splits its own (ordered) set, per client, into consecutive
chunks sized to the client's database count. Each chunk is served by one
random base vector: database 1 of the client receives the bare vector, and
each element of the chunk is targeted at one further database by adding 1 to
the vector at that element's position. Decoding subtracts the database-1
answer from each targeted answer and sums the differences per element across
clients; an element is in the intersection exactly when that sum is zero.
Each plan fixes one canonical answer order (answer_keys), and decode_vector,
the one decode kernel, reads answer values laid out in that order.

Targets are referred to by their position k = 1..R in the leader's ordered
set wherever a value crosses a party boundary; clients never see which
universe element a position stands for. The chunk geometry (PlanShape)
depends only on the public set size and database counts, so client
databases can derive it themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InfeasibleError, ProtocolViolationError
from .field import PrimeField
from .model import PartyProfile, Universe
from .seeding import draw_vector


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def per_client_cost(leader_set_size: int, client_databases: int) -> int:
    """Answers downloaded from one client: ceil(R * N / (N - 1))."""
    if client_databases < 2:
        raise InfeasibleError(
            f"client with {client_databases} database(s) cannot run the protocol"
        )
    return ceil_div(leader_set_size * client_databases, client_databases - 1)


@dataclass(frozen=True)
class CostTable:
    """Download cost of every candidate leader; None marks an infeasible one."""

    costs: Dict[int, Optional[int]]

    def best(self) -> int:
        feasible = [(cost, pid) for pid, cost in self.costs.items() if cost is not None]
        if not feasible:
            raise InfeasibleError(
                "no feasible leader: every candidate faces a single-database party"
            )
        cost, pid = min(feasible)
        return pid

    def as_dict(self) -> Dict[int, Optional[int]]:
        return dict(self.costs)


def download_cost(leader: PartyProfile, clients: Sequence[PartyProfile]) -> int:
    """Total answers the leader downloads across all clients."""
    size = len(leader.data_set)
    return sum(per_client_cost(size, c.num_databases) for c in clients)


def cost_table(profiles: Sequence[PartyProfile]) -> CostTable:
    costs: Dict[int, Optional[int]] = {}
    for candidate in profiles:
        others = [p for p in profiles if p.party_id != candidate.party_id]
        try:
            costs[candidate.party_id] = download_cost(candidate, others)
        except InfeasibleError:
            costs[candidate.party_id] = None
    return CostTable(costs)


def elect_leader(profiles: Sequence[PartyProfile]) -> Tuple[int, CostTable]:
    """Pick the candidate with minimal download cost; ties go to the lowest id."""
    if len(profiles) < 2:
        raise InfeasibleError(f"need at least 2 parties, got {len(profiles)}")
    table = cost_table(profiles)
    return table.best(), table


@dataclass(frozen=True)
class PlanShape:
    """Chunk geometry per client, derived from public quantities only.

    chunk[i] is the full partition size for client i (one less than the
    number of databases actually used); eta[i] is the number of partitions,
    the last of which may be shorter. Position p of partition L is answered
    by database p + 1; database 1 answers the bare base vector of every
    partition. Clients with more databases than needed leave the rest idle;
    databases[i] counts them all.
    """

    set_size: int
    client_ids: Tuple[int, ...]
    chunk: Dict[int, int]
    eta: Dict[int, int]
    used_databases: Dict[int, int]
    databases: Dict[int, int]

    def position_location(self, client_id: int, position: int) -> Tuple[int, int]:
        """Map leader-set position k (1-based) to (partition, database)."""
        if not 1 <= position <= self.set_size:
            raise ValueError(f"position {position} out of range 1..{self.set_size}")
        size = self.chunk[client_id]
        partition = 1 + (position - 1) // size
        database = 2 + (position - 1) % size
        return partition, database

    def positions_of_database(self, client_id: int, database: int) -> List[int]:
        """Leader-set positions whose targeted query goes to this database."""
        if database < 2:
            return []
        size = self.chunk[client_id]
        offset = database - 2
        if offset >= size or database > self.used_databases[client_id]:
            return []
        return list(range(offset + 1, self.set_size + 1, size))


def make_plan_shape(set_size: int, clients: Sequence[PartyProfile]) -> PlanShape:
    """Geometry for a leader set of the given (public) size."""
    if set_size < 1:
        raise ValueError("plan shape needs a nonempty leader set")
    chunk: Dict[int, int] = {}
    eta: Dict[int, int] = {}
    used: Dict[int, int] = {}
    for client in clients:
        if client.num_databases < 2:
            raise InfeasibleError(
                f"party {client.party_id} has a single database; protocol infeasible"
            )
        usable = min(client.num_databases, set_size + 1)
        chunk[client.party_id] = usable - 1
        eta[client.party_id] = ceil_div(set_size, usable - 1)
        used[client.party_id] = usable
    return PlanShape(
        set_size=set_size,
        client_ids=tuple(sorted(c.party_id for c in clients)),
        chunk=chunk,
        eta=eta,
        used_databases=used,
        databases={c.party_id: c.num_databases for c in clients},
    )


@dataclass(frozen=True)
class PartitionPlan:
    """The shape plus the leader-private element identities."""

    leader_id: int
    leader_elements: Tuple[int, ...]
    shape: PlanShape
    partitions: Dict[int, List[List[int]]]

    def __post_init__(self) -> None:
        # The canonical answer order: per client, its database-1 answers by
        # partition, then its targeted answers by position. Decode rows refer
        # to answers by their index in that order.
        keys: List[Tuple[int, int, Optional[int]]] = []
        pairs: List[List[Tuple[int, int]]] = [[] for _ in self.leader_elements]
        for client_id in self.shape.client_ids:
            first_base = len(keys)
            keys += [(client_id, ell, None) for ell in range(1, self.shape.eta[client_id] + 1)]
            for position, row in enumerate(pairs, start=1):
                partition, _ = self.shape.position_location(client_id, position)
                row.append((first_base + partition - 1, len(keys)))
                keys.append((client_id, partition, position))
        rows = tuple(zip(self.leader_elements, map(tuple, pairs)))
        object.__setattr__(self, "_answer_keys", tuple(keys))
        object.__setattr__(self, "_decode_rows", rows)

    @property
    def answer_keys(self) -> Tuple[Tuple[int, int, Optional[int]], ...]:
        return self._answer_keys

    @property
    def decode_rows(self) -> tuple:
        """(element, ((base index, target index) per client)) per position."""
        return self._decode_rows

    @property
    def set_size(self) -> int:
        return self.shape.set_size

    @property
    def client_ids(self) -> Tuple[int, ...]:
        return self.shape.client_ids

    @property
    def chunk(self) -> Dict[int, int]:
        return self.shape.chunk

    @property
    def eta(self) -> Dict[int, int]:
        return self.shape.eta

    @property
    def used_databases(self) -> Dict[int, int]:
        return self.shape.used_databases

    def position_location(self, client_id: int, position: int) -> Tuple[int, int]:
        return self.shape.position_location(client_id, position)

    def positions_of_database(self, client_id: int, database: int) -> List[int]:
        return self.shape.positions_of_database(client_id, database)


def make_partition_plan(
    leader: PartyProfile, clients: Sequence[PartyProfile]
) -> PartitionPlan:
    """Chunk the leader's ascending set into runs of N_i - 1 per client."""
    elements = leader.sorted_elements()
    if not elements:
        raise ValueError("partition plan needs a nonempty leader set")
    shape = make_plan_shape(len(elements), clients)
    partitions = {
        client_id: [
            list(elements[start : start + shape.chunk[client_id]])
            for start in range(0, len(elements), shape.chunk[client_id])
        ]
        for client_id in shape.client_ids
    }
    return PartitionPlan(
        leader_id=leader.party_id,
        leader_elements=elements,
        shape=shape,
        partitions=partitions,
    )


@dataclass(frozen=True)
class QuerySpec:
    """One query vector for one database of one client.

    target_pos is the leader-set position served by the +1 bump, or None for
    the bare base vector sent to database 1. target_element is leader-side
    bookkeeping only and never leaves the leader.
    """

    client_id: int
    database: int
    partition: int
    target_pos: Optional[int]
    target_element: Optional[int]
    vector: Tuple[int, ...]


@dataclass(frozen=True)
class QueryPlan:
    """The drawn base vectors and every query derived from them."""

    h_vectors: Tuple[Tuple[int, ...], ...]
    queries: Dict[int, List[QuerySpec]]

    def queries_for(self, client_id: int, database: int) -> List[QuerySpec]:
        return [q for q in self.queries.get(client_id, []) if q.database == database]

    def all_queries(self) -> List[QuerySpec]:
        return [q for specs in self.queries.values() for q in specs]


def generate_queries(
    plan: PartitionPlan, field: PrimeField, universe: Universe, seed: int
) -> QueryPlan:
    """Draw the base vectors and lay out every per-database query.

    Clients with fewer partitions share the leading base vectors, so the same
    vector may serve several clients. Database 1 of a client receives one
    bare base vector per partition; each element of a partition is targeted
    at one further database by bumping its coordinate by one.
    """
    kappa = max(plan.eta.values())
    modulus = field.modulus
    h_vectors = tuple(
        tuple(draw_vector(seed, modulus, universe.size, "h", ell))
        for ell in range(1, kappa + 1)
    )
    queries: Dict[int, List[QuerySpec]] = {}
    for client_id in plan.client_ids:
        specs: List[QuerySpec] = []
        for ell in range(1, plan.eta[client_id] + 1):
            specs.append(
                QuerySpec(
                    client_id=client_id,
                    database=1,
                    partition=ell,
                    target_pos=None,
                    target_element=None,
                    vector=h_vectors[ell - 1],
                )
            )
        for position, element in enumerate(plan.leader_elements, start=1):
            partition, database = plan.position_location(client_id, position)
            base = h_vectors[partition - 1]
            bumped = list(base)
            bumped[element - 1] = (bumped[element - 1] + 1) % modulus
            specs.append(
                QuerySpec(
                    client_id=client_id,
                    database=database,
                    partition=partition,
                    target_pos=position,
                    target_element=element,
                    vector=tuple(bumped),
                )
            )
        queries[client_id] = specs
    return QueryPlan(h_vectors=h_vectors, queries=queries)


@dataclass(frozen=True)
class IntersectionResult:
    """Decoded intersection plus the per-element indicator values."""

    decoded: frozenset
    indicators: Dict[int, int]
    download_cost_actual: int


def decode_vector(
    plan: PartitionPlan, values: Sequence[int], modulus: int
) -> Tuple[frozenset, Dict[int, int]]:
    """The decode kernel on answer values laid out in plan.answer_keys order.

    Returns the decoded element set and the indicator value per leader-set
    element: the sum over clients of targeted minus database-1 answer.
    """
    indicators: Dict[int, int] = {}
    decoded = []
    for element, pairs in plan.decode_rows:
        total = 0
        for base, target in pairs:
            total += values[target] - values[base]
        value = total % modulus
        indicators[element] = value
        if value == 0:
            decoded.append(element)
    return frozenset(decoded), indicators


def decode_values(
    plan: PartitionPlan,
    answer_values: Dict[Tuple[int, int, Optional[int]], int],
    modulus: int,
) -> Tuple[frozenset, Dict[int, int]]:
    """Core decoding on raw values keyed by (client, partition, target_pos).

    Returns what decode_vector returns for the same values. Raises on missing
    or unexpected answers.
    """
    expected = frozenset(plan.answer_keys)
    if answer_values.keys() != expected:
        got = set(answer_values)
        raise ProtocolViolationError(
            f"answer set mismatch: missing {sorted(expected - got, key=str)}, "
            f"unexpected {sorted(got - expected, key=str)}"
        )
    return decode_vector(plan, [answer_values[key] for key in plan.answer_keys], modulus)


def decode(
    plan: PartitionPlan,
    answers: Sequence,
    field: PrimeField,
) -> IntersectionResult:
    """Decode collected answers into the intersection.

    Answers are keyed by their echoed (client, partition, target_pos) tags,
    so arrival order is irrelevant. Duplicate, missing, or unknown tags are
    protocol violations.
    """
    values: Dict[Tuple[int, int, Optional[int]], int] = {}
    for answer in answers:
        key = (answer.client_id, answer.partition, answer.target_pos)
        if key in values:
            raise ProtocolViolationError(f"duplicate answer for {key}")
        values[key] = answer.value
    decoded, indicators = decode_values(plan, values, field.modulus)
    return IntersectionResult(
        decoded=decoded,
        indicators=indicators,
        download_cost_actual=len(values),
    )
