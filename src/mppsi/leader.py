"""Leader-side logic: election by download cost, partitioning, queries, decoding.

The elected leader splits its own (ordered) set, per client, into consecutive
chunks sized to the client's database count. Each chunk is served by one
random base vector: database 1 of the client receives the bare vector, and
each element of the chunk is targeted at one further database by adding 1 to
the vector at that element's position. lay_out_queries is the one builder
of query vectors: generate_queries draws the base vectors for it, and the
auditor calls it on the base vectors it enumerates. Decoding subtracts the
database-1 answer from each targeted answer and sums the differences per
element across clients; an element is in the intersection exactly when that
sum is zero. A plan fixes one order, the transcript's (Message.sort_key):
query i goes to answer_origins[i] with answer_keys[i]'s tags, and answer i
comes back from there. decode_indicators, the one decode kernel, reads any
number of answer vectors in that order, joined end to end: a session's
decode passes one, the auditor's reliability walk a batch of its
enumeration (audit.DECODE_BATCH). Queries and answers are wire.Message
values; decode is the one check of an answer message's type, destination,
value, tags and origin.

Targets are referred to by their position k = 1..R in the leader's ordered
set wherever a value crosses a party boundary; clients never see which
universe element a position stands for. The chunk geometry (PlanShape)
depends only on the public set size and database counts, so client
databases can derive it themselves.
"""

from __future__ import annotations

import functools
import itertools
import struct
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InfeasibleError, ProtocolViolationError
from .field import PrimeField
from .model import PartyProfile, Universe
from .seeding import draw_vector
from .wire import Message


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


@dataclass(frozen=True)
class PlanShape:
    """Chunk geometry per client, derived from public quantities only.

    chunk[i] is the full partition size for client i (one less than the
    number of databases actually used); eta[i] is the number of partitions,
    the last of which may be shorter. Position p of partition L is answered
    by database p + 1; database 1 answers the bare base vector of every
    partition. Clients with more databases than needed leave the rest idle.
    """

    set_size: int
    client_ids: Tuple[int, ...]
    chunk: Dict[int, int]
    eta: Dict[int, int]
    used_databases: Dict[int, int]

    def position_location(self, client_id: int, position: int) -> Tuple[int, int]:
        """Map leader-set position k (1-based) to (partition, database)."""
        if not 1 <= position <= self.set_size:
            raise ValueError(f"position {position} out of range 1..{self.set_size}")
        size = self.chunk[client_id]
        partition = 1 + (position - 1) // size
        database = 2 + (position - 1) % size
        return partition, database

    def positions_of_database(self, client_id: int, database: int) -> List[int]:
        """Leader-set positions whose targeted query goes to this database,
        ascending: the i-th lies in partition i."""
        if database < 2:
            return []
        size = self.chunk[client_id]
        offset = database - 2
        if offset >= size:
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
    )


@dataclass(frozen=True)
class PartitionPlan:
    """The shape plus the leader-private element identities."""

    leader_id: int
    leader_elements: Tuple[int, ...]
    shape: PlanShape
    answer_keys: Tuple[Tuple[int, int, Optional[int]], ...]
    answer_origins: Tuple[Tuple[int, int], ...]
    # Indices into one answer vector followed by its negation: per client,
    # each element's targeted answer; then per client, the negation of the
    # database-1 answer it is measured against.
    decode_blocks: Tuple[Tuple[int, ...], ...]


def make_partition_plan(
    leader: PartyProfile, clients: Sequence[PartyProfile]
) -> PartitionPlan:
    """Chunk the leader's ascending set into runs of N_i - 1 per client."""
    elements = leader.sorted_elements()
    if not elements:
        raise ValueError("partition plan needs a nonempty leader set")
    shape = make_plan_shape(len(elements), clients)
    # The answer order, Message.sort_key's: per client and database, by
    # partition and target; database 1 answers the bare base query of each
    # partition. Decode blocks refer to answers by their index in that order.
    keys: List[Tuple[int, int, Optional[int]]] = []
    origins: List[Tuple[int, int]] = []
    negated = sum(eta + len(elements) for eta in shape.eta.values())
    targets: List[Tuple[int, ...]] = []
    bases: List[Tuple[int, ...]] = []
    for client_id in shape.client_ids:
        first, eta = len(keys), shape.eta[client_id]
        keys += [(client_id, ell, None) for ell in range(1, eta + 1)]
        origins += [(client_id, 1)] * eta
        slots, base_slots = [0] * len(elements), [0] * len(elements)
        for database in range(2, shape.used_databases[client_id] + 1):
            for partition, k in enumerate(shape.positions_of_database(client_id, database), 1):
                slots[k - 1], base_slots[k - 1] = len(keys), negated + first + partition - 1
                keys.append((client_id, partition, k))
                origins.append((client_id, database))
        targets.append(tuple(slots))
        bases.append(tuple(base_slots))
    return PartitionPlan(
        leader_id=leader.party_id,
        leader_elements=elements,
        shape=shape,
        answer_keys=tuple(keys),
        answer_origins=tuple(origins),
        decode_blocks=(*targets, *bases),
    )


def generate_queries(
    plan: PartitionPlan, field: PrimeField, universe: Universe, seed: int, session_id: str
) -> Tuple[Message, ...]:
    """Draw one base vector per partition index and lay the queries out on them."""
    h_vectors = tuple(
        draw_vector(seed, field.modulus, universe.size, "h", ell)
        for ell in range(1, max(plan.shape.eta.values()) + 1)
    )
    return lay_out_queries(plan, h_vectors, field.modulus, session_id)


def lay_out_queries(
    plan: PartitionPlan, h_vectors: Tuple[bytes, ...], modulus: int, session_id: str
) -> Tuple[Message, ...]:
    """Every query, built from one given base vector per partition, in plan order.

    Clients with fewer partitions share the leading base vectors. Database 1
    of a client gets each bare base vector of its partitions, and each element
    is targeted at one further database by bumping its coordinate by one.
    Each targeted vector is built once per (partition, target), so clients
    whose partitions coincide share it as they share the bare ones: the
    queries hold max_i eta_i bare vectors plus one per distinct targeted
    (partition, target), whatever number of clients they go to.
    """
    leader = (plan.leader_id, 0)
    queries: List[Message] = []
    bumped: Dict[Tuple[int, int], bytes] = {}  # (partition, target) -> its targeted vector
    for (_, partition, target), dest in zip(plan.answer_keys, plan.answer_origins):
        vector = h_vectors[partition - 1]
        if target is not None:
            key = (partition, target)
            if key not in bumped:
                at = plan.leader_elements[target - 1] - 1
                bumped[key] = vector[:at] + bytes(((vector[at] + 1) % modulus,)) + vector[at + 1:]
            vector = bumped[key]
        # Fields in order (type, session_id, origin, dest, partition, target,
        # values): keywords cost about twice as much per message.
        queries.append(Message("query", session_id, leader, dest, partition, target, vector))
    return tuple(queries)


@dataclass(frozen=True)
class IntersectionResult:
    """Decoded intersection plus the per-element indicator values."""

    decoded: frozenset
    indicators: Dict[int, int]
    download_cost_actual: int


# bytes.translate table: 1 where a residue is zero, else 0.
IS_ZERO = bytes([1]) + bytes(255)


@functools.lru_cache(maxsize=None)
def _lanes(clients: int, modulus: int) -> Tuple[str, bytes, bytes]:
    """The struct code of a lane wide enough for the sum of 2 * clients
    residues, and the bytes.translate tables of -v mod L and v mod L."""
    most = 2 * clients * (modulus - 1)
    lane = next(code for code in "BHI" if most < 256 ** struct.calcsize(code))
    return (
        lane,
        bytes(-value % modulus for value in range(256)),
        bytes(value % modulus for value in range(256)),
    )


def decode_indicators(plan: PartitionPlan, answers: bytes, modulus: int) -> bytes:
    """The decode kernel: indicator residues of n >= 1 answer vectors.

    answers is the vectors joined end to end, each in plan.answer_keys
    order, one residue per byte. Returns n * R residues, each vector's in
    plan.leader_elements order: per element, the sum over clients of its
    targeted minus its database-1 answer, mod L, which is zero exactly when
    the element is in the intersection. Each index of a decode block is one
    strided slice, which takes that answer (or its negation) from every
    vector. The blocks are added as ints holding a lane per indicator, one
    byte while 2(M - 1)(L - 1) < 256 and wider otherwise, so no lane
    carries; each lane is reduced mod L once, and the element-major lanes
    are laid out vector by vector.
    """
    size, elements = len(plan.answer_keys), len(plan.leader_elements)
    count, rest = divmod(len(answers), size)
    if count < 1 or rest:
        raise ValueError(f"{len(answers)} answers are not whole vectors of {size}")
    lane, negate, residues = _lanes(len(plan.decode_blocks) // 2, modulus)
    width = struct.calcsize(lane)
    negated = answers.translate(negate)
    # answers[i::size] is answer i of every vector.
    blocks = [
        b"".join([
            answers[index::size] if index < size else negated[index - size::size]
            for index in indices
        ])
        for indices in plan.decode_blocks
    ]
    total = 0
    for gathered in blocks:
        if width > 1:
            spread = bytearray(width * len(gathered))
            spread[0 if sys.byteorder == "little" else width - 1::width] = gathered
            gathered = spread
        total += int.from_bytes(gathered, sys.byteorder)
    lanes = total.to_bytes(width * count * elements, sys.byteorder)
    if width == 1:
        reduced = lanes.translate(residues)
    else:
        reduced = bytes(map(modulus.__rmod__, memoryview(lanes).cast(lane)))
    if count == 1:  # one vector's lanes are already in element order
        return reduced
    indicators = bytearray(count * elements)
    for element in range(elements):
        indicators[element::elements] = reduced[element * count:(element + 1) * count]
    return bytes(indicators)


def decode_values(plan: PartitionPlan, answers: Sequence[Message], modulus: int) -> bytes:
    """decode_indicators of one answer vector: answer messages in
    Message.sort_key order, each value a residue below L. Raises unless
    answer i carries plan.answer_keys[i]'s tags from plan.answer_origins[i].
    """
    keys = tuple((answer.origin[0], answer.partition, answer.target) for answer in answers)
    origins = tuple(answer.origin for answer in answers)
    if keys != plan.answer_keys or origins != plan.answer_origins:
        raise _answer_mismatch(plan, keys, origins)
    return decode_indicators(plan, b"".join([answer.values for answer in answers]), modulus)


def _answer_mismatch(plan: PartitionPlan, keys: tuple, origins: tuple) -> ProtocolViolationError:
    """How sorted answers with these tags and origins differ from the plan's."""
    got = set()
    for key in keys:
        if key in got:
            return ProtocolViolationError(f"duplicate answer for {key}")
        got.add(key)
    expected = set(plan.answer_keys)
    if got != expected:
        return ProtocolViolationError(
            f"answer set mismatch: missing {sorted(expected - got, key=str)}, "
            f"unexpected {sorted(got - expected, key=str)}"
        )
    for key, origin in zip(keys, origins):
        client_id, _, target = key
        planned = (client_id, plan.shape.position_location(client_id, target)[1] if target else 1)
        if origin != planned:
            return ProtocolViolationError(f"answer {key} from {origin}, not from {planned}")
    return ProtocolViolationError("answers out of Message.sort_key order")


def decode(
    plan: PartitionPlan,
    answers: List[Message],
    field: PrimeField,
) -> IntersectionResult:
    """Decode collected answer messages into the intersection.

    Every message must be an answer to the leader carrying one residue below
    L. The answers list is sorted in place into Message.sort_key order, the
    transcript's, so arrival order is irrelevant and the caller keeps the
    sorted list; then answer i must carry the tags of query i and come from
    the database it went to. Duplicate, missing, or unknown tags, and an
    answer from another database, are protocol violations.
    """
    leader = (plan.leader_id, 0)
    modulus = field.modulus
    for answer in answers:
        if answer.type != "answer" or answer.dest != leader:
            raise ProtocolViolationError(
                f"{answer.type!r} from {answer.origin} to {answer.dest}, not an answer to {leader}"
            )
        if len(answer.values) != 1 or not 0 <= answer.values[0] < modulus:
            raise ProtocolViolationError(
                f"answer from {answer.origin} must carry one residue below {modulus}, "
                f"got {list(answer.values)}"
            )
    answers.sort(key=Message.sort_key)
    indicators = decode_values(plan, answers, modulus)
    return IntersectionResult(
        decoded=frozenset(itertools.compress(plan.leader_elements, indicators.translate(IS_ZERO))),
        indicators=dict(zip(plan.leader_elements, indicators)),
        download_cost_actual=len(answers),
    )
