"""Exhaustive verification of the protocol's exact claims at desk scale.

Every check here enumerates a finite probability space outright and works in
exact rationals or integer counts; zero means zero. The checks are:

* reliability: decoding equals direct set intersection for every enumerated
  randomness realization (and every base-vector realization when that space
  is small enough to enumerate; base vectors are otherwise sampled, which
  loses nothing because the identity holds realization by realization).
  The randomness stream comes in levels: one local tuple s with its
  t-blocks. A t-block is a run of groups, each an individual tuple t, that
  share the multipliers c they run under: the t rows (t and its correlated
  completion, in answer order) of about DECODE_BATCH / |c| groups held as
  one int (an exhaustive stream: one level per s, its blocks every t with
  the whole c range; a sampled one: one level per sample, one t and one c).
  The stream's producer builds the blocks with _t_blocks and decides
  whether to keep them: an exhaustive stream keeps each, as a level first
  reads it, where a later level reads them again, and makes them lazily,
  one at a time, where none does (zero_local). Per level and block, one
  multiply-add and one to_bytes give ip + s + t for every group of the
  block; per multiplier, one bytes.translate scales the block. Each batch
  of about DECODE_BATCH vectors, running across levels, is decoded in one
  call of leader.decode_indicators, the kernel behind the transports'
  decode. Its vectors are in block order (multiplier, then group), and the
  pass path compares its zero pattern with the intersection's, which does
  not depend on that order. Only a batch that differs is read back in the
  stream's order (group, then multiplier), so case numbers and failure
  text are those of a walk one realization at a time;
* database-1 masking: a client's database-1 answer tuple is exactly uniform
  as its local vector sweeps its range, the rest drawn per context;
* subtraction masking: for every client except the correlating one, each
  per-element subtraction statistic is exactly uniform as its free
  individual value sweeps the field;
* indicator masking: for an element outside the intersection, the indicator
  is exactly uniform over the nonzero residues as the global multiplier
  sweeps, with an identical table for every deficient column sum;
* mutual information: exact independence tests on enumerated joint
  distributions, for the leader-set secret against a single database's view
  and for the non-intersection incidence columns against the leader's view.

Every query here is one leader.lay_out_queries builds, as in a session, in
the plan's answer order: query_inner_products sums each client's support
over them, and the delivered query tuples are their values. Base vectors are
bytes; they become int tuples only in reliability failure text and delivered
query outcomes.

Reliability, the masking and the mutual-information checks enumerate one
realization stream: base vectors from _all_h (or _drawn_h), levels of
(s, t-blocks), and answer vectors from _answer_batches. Reliability and the
MI checks take their levels from _raw_realizations under the caller's
policy. A masking check draws each context once; its core, _masking_tables,
makes a multiplier group's sweep one stream, a level per run of one local
tuple, and builds the blocks of each distinct t run once. The
masking and MI checks read the batches back a realization at a time, in stream
order, through answers_for_realization; reliability decodes whole batches and
reads back only one that fails. So every check answers through _answer_batches
and decodes through decode_indicators, and the correlated completion is
randomness.completion, the client databases' own.

Each check has scheme mutations (RandomnessPolicy knobs, unmasked queries)
that make it fail, demonstrating the checks have power.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .client import support_sum
from .errors import BoundExceededError
from .field import PrimeField
from .leader import IS_ZERO, PartitionPlan, decode_indicators, lay_out_queries, make_partition_plan
from .model import PartyProfile, Universe, brute_force_intersection
from .protocol import SessionSetup, prepare_session
from .randomness import FAITHFUL, RandomnessPolicy, completion, correlating_client, free_clients
from .seeding import draw_vector, labeled_rng
from .session import SessionTranscript
from .wire import Message

DEFAULT_BOUND = 10_000_000
DEFAULT_H_ENUM_LIMIT = 729

# One base vector per partition index. A t-block: consecutive groups, each
# an individual tuple t, that share the multipliers c they run under, as
# (group count, their t tuples joined, a byte per value, the multipliers,
# their t rows as one int, one row after another). One level of the
# randomness stream: a local tuple s with its t-blocks.
HVectors = Tuple[bytes, ...]
TBlock = Tuple[int, bytes, Sequence[int], int]
Level = Tuple[Tuple[int, ...], Iterable[TBlock]]


@dataclass(frozen=True)
class DistributionTable:
    """Exact distribution: distinct outcomes, each with an exact probability
    in (0, 1], summing to 1 (checked in integers, over one denominator)."""

    probs: Tuple[Tuple[object, Fraction], ...]

    def __post_init__(self) -> None:
        if len(dict(self.probs)) != len(self.probs):
            raise ValueError("repeated outcome")
        try:  # an exact rational has an integer numerator and denominator
            ratios = [(p.numerator, p.denominator) for _, p in self.probs]
        except AttributeError:
            raise ValueError("probabilities must be exact rationals") from None
        if not all(0 < n <= d for n, d in ratios):
            raise ValueError("probabilities must lie in (0, 1]")
        common = math.lcm(*(d for _, d in ratios))
        total = sum(n * (common // d) for n, d in ratios)
        if total != common:
            raise ValueError(f"probabilities sum to {Fraction(total, common)}, not 1")

    @classmethod
    def from_counts(cls, counts: Dict) -> "DistributionTable":
        total = sum(counts.values())
        shares = {n: Fraction(n, total) for n in set(counts.values())}
        return cls(tuple(sorted(
            ((outcome, shares[n]) for outcome, n in counts.items()),
            key=lambda item: repr(item[0]),
        )))

    def as_dict(self) -> Dict:
        return dict(self.probs)


@dataclass(frozen=True)
class AuditInstance:
    """A fixed protocol instance to audit."""

    profiles: Tuple[PartyProfile, ...]
    universe: Universe
    leader_override: Optional[int] = None

    def setup(self) -> SessionSetup:
        return prepare_session(self.profiles, self.universe, self.leader_override)

    def true_intersection(self) -> FrozenSet[int]:
        return brute_force_intersection(self.profiles)


# ---------------------------------------------------------------------------
# Compiled instance: answer/decode kernel over raw value tuples
# ---------------------------------------------------------------------------


@dataclass
class CompiledInstance:
    """Index maps that let the production kernels run over raw value tuples.

    s_slots and t_slots follow plan.answer_keys, the order decode_indicators reads.
    Inner products per query are constants of the base-vector realization, so
    they are computed once per realization, as a list in that order, by each
    client's support_sums function, built once per instance. Every
    check builds its answer vectors from them level by level
    (_answer_batches) and reads them by index in that order.
    """

    setup: SessionSetup
    plan: PartitionPlan
    universe: Universe
    s_index: Dict[Tuple[int, int], int]
    t_index: Dict[Tuple[int, int], int]
    n_s: int
    n_t: int
    # Per answer, its index into s, and its index into t + completion + (0,):
    # free values, then the correlating client's value per position, then
    # the zero every database-1 answer adds.
    s_slots: Tuple[int, ...]
    t_slots: Tuple[int, ...]
    # Per local slot, an int with a 1 in the byte of each answer it masks.
    s_masks: Tuple[int, ...]
    corr_free_indices: Dict[int, List[int]]
    # client id -> the sum of a query's entries over that client's set
    support_sums: Dict[int, Callable[[bytes], int]]

    @property
    def field(self) -> PrimeField:
        return self.setup.field

    def space_size(self) -> int:
        """Joint outcomes of (local vectors, free individual values, multiplier)."""
        modulus = self.field.modulus
        return modulus ** (self.n_s + self.n_t) * (modulus - 1)


def compile_instance(instance: AuditInstance) -> CompiledInstance:
    setup = instance.setup()
    plan = make_partition_plan(setup.leader, setup.clients)
    shape = plan.shape
    s_index: Dict[Tuple[int, int], int] = {}
    for client_id in shape.client_ids:
        for ell in range(1, shape.eta[client_id] + 1):
            s_index[(client_id, ell)] = len(s_index)
    free = free_clients(shape.client_ids)
    corr = correlating_client(shape.client_ids)
    t_index: Dict[Tuple[int, int], int] = {}
    for client_id in free:
        for position in range(1, shape.set_size + 1):
            t_index[(client_id, position)] = len(t_index)
    size = len(plan.answer_keys)
    s_slots, t_slots, s_masks = [], [], [0] * len(s_index)
    for index, (client_id, partition, position) in enumerate(plan.answer_keys):
        s_slots.append(s_index[(client_id, partition)])
        s_masks[s_slots[-1]] |= 1 << 8 * (size - 1 - index)
        if position is None:
            t_slots.append(-1)
        elif client_id == corr:
            t_slots.append(len(t_index) + position - 1)
        else:
            t_slots.append(t_index[(client_id, position)])
    corr_free = {
        position: [t_index[(client_id, position)] for client_id in free]
        for position in range(1, shape.set_size + 1)
    }
    return CompiledInstance(
        setup=setup,
        plan=plan,
        universe=instance.universe,
        s_index=s_index,
        t_index=t_index,
        n_s=len(s_index),
        n_t=len(t_index),
        s_slots=tuple(s_slots),
        t_slots=tuple(t_slots),
        s_masks=tuple(s_masks),
        corr_free_indices=corr_free,
        support_sums={
            client.party_id: support_sum(sorted(elem - 1 for elem in client.data_set))
            for client in setup.clients
        },
    )


def _lay_out(compiled: CompiledInstance, h_vectors: HVectors) -> Tuple[Message, ...]:
    """The leader's queries on these base vectors, as a session lays them out;
    they are never sent, so they carry no session id."""
    return lay_out_queries(compiled.plan, h_vectors, compiled.field.modulus, "")


def _inner_products(compiled: CompiledInstance, sent: Sequence[Message]) -> List[int]:
    """Inner product of each laid-out query with its client's incidence
    vector, in plan.answer_keys order, the queries' own."""
    modulus, sums = compiled.field.modulus, compiled.support_sums
    return [sums[query.dest[0]](query.values) % modulus for query in sent]


def query_inner_products(compiled: CompiledInstance, h_vectors: HVectors) -> List[int]:
    """Inner product of each query the leader lays out on these base vectors
    with its client's incidence vector, in plan.answer_keys order."""
    return _inner_products(compiled, _lay_out(compiled, h_vectors))


def individual_values(
    compiled: CompiledInstance, t_values: Sequence[int], policy: RandomnessPolicy
) -> Tuple[int, ...]:
    """t + completion + (0,), the values t_slots index.

    The correlating client's value per position is randomness.completion of
    the free values at that position.
    """
    modulus = compiled.field.modulus
    num_clients = len(compiled.plan.shape.client_ids)
    completed = [
        completion([t_values[i] for i in slots], modulus, num_clients, policy)
        for slots in compiled.corr_free_indices.values()
    ]
    return (*t_values, *completed, 0)


@functools.lru_cache(maxsize=None)
def _scale_tables(modulus: int) -> Tuple[bytes, ...]:
    """Per multiplier c in [0, L), the bytes.translate table taking each
    byte v to c * v mod L."""
    return tuple(bytes(c * v % modulus for v in range(256)) for c in range(modulus))


def answers_for_realization(
    compiled: CompiledInstance, ips: Sequence[int], levels: Iterable[Level]
) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...], int, bytes]]:
    """Each realization (s, t, c) of the levels with its answers, in stream
    order: the batches of _answer_batches read back, answers as bytes in
    plan.answer_keys order, one residue per byte."""
    size = len(compiled.s_slots)
    for batch in _answer_batches(compiled, ips, levels):
        vectors = _joined(batch)
        for s_values, t_values, c_value, index in _in_stream_order(batch):
            yield s_values, t_values, c_value, vectors[index * size:(index + 1) * size]


# Answer vectors per decode_indicators call of the reliability walk: enough
# that the call's fixed cost is spread thin (the audit-exhaustive walk takes
# as long at 1,024 as at 4,096), and a fixed count, so a batch's memory
# depends on the vector length alone, not on the policy or bound.
DECODE_BATCH = 1024

# A piece: a t-block under one level's s, as (s, the block, per multiplier
# the block's answer vectors joined).
Piece = Tuple[Tuple[int, ...], TBlock, List[bytes]]


def _t_blocks(
    compiled: CompiledInstance,
    groups: Iterable[Tuple[Tuple[int, ...], Sequence[int]]],
    policy: RandomnessPolicy,
) -> Iterator[TBlock]:
    """The t-blocks of groups, each a t tuple with its multipliers c, in
    order and made lazily: each run of groups under the same c, cut every
    ceil(DECODE_BATCH / |c|) groups. A group's row is its t values and
    their completion (individual_values) gathered into answer order, a
    byte per answer."""
    t_slots = compiled.t_slots
    rows, ts, run_c, limit = [], [], None, 0
    for t_values, c_values in groups:
        if rows and (len(rows) == limit or (c_values is not run_c and c_values != run_c)):
            yield len(rows), b"".join(ts), run_c, int.from_bytes(b"".join(rows), "big")
            rows, ts = [], []
        if not rows:
            run_c, limit = c_values, -(-DECODE_BATCH // len(c_values))
        t_all = individual_values(compiled, t_values, policy)
        rows.append(bytes([t_all[i] for i in t_slots]))
        ts.append(bytes(t_values))
    if rows:
        yield len(rows), b"".join(ts), run_c, int.from_bytes(b"".join(rows), "big")


def _answer_batches(
    compiled: CompiledInstance, ips: Sequence[int], levels: Iterable[Level]
) -> Iterator[List[Piece]]:
    """The answers of every realization of the levels, a t-block at a time,
    in batches of pieces that run across levels.

    Each answer is c * (ip + s + t) mod L. Per level, the row ip + s is
    made once. Per t-block, that row times a repeater (an int with a 1 in
    the last byte of every row) plus the block's t rows is ip + s + t for
    every group of the block: one multiply-add and one to_bytes. Per
    multiplier c, one bytes.translate through c's table scales the whole
    block. Rows hold a byte per answer. Where three residues sum below 256
    (3(L - 1) < 256, every prime L up to 83), the sums stay unreduced,
    ip + s is ip plus each local value times its answer mask (s_masks),
    and c's table reduces them; a wider field adds answer by answer,
    mod L.

    A piece's vectors are in decode order, multiplier by multiplier and
    then group by group; _in_stream_order maps them back to the stream's
    order, group by group and then multiplier by multiplier. A batch closes
    before a piece that would take it past DECODE_BATCH vectors, so it
    holds at most DECODE_BATCH, or one piece of fewer than DECODE_BATCH +
    L. The walk builds no t row: the levels carry their blocks, and their
    producer decides which are kept. c must be a residue in [0, L).
    """
    modulus = compiled.field.modulus
    size = len(compiled.s_slots)
    tables = _scale_tables(modulus)
    narrow = 3 * (modulus - 1) < 256
    ip_row = int.from_bytes(bytes(ips), "big")
    repeaters = {1: 1}  # by row count
    batch: List[Piece] = []
    vectors = 0
    for s_values, blocks in levels:
        if narrow:
            with_s = ip_row + sum(map(operator.mul, s_values, compiled.s_masks))
        else:
            with_s = bytes(
                [(ip + s_values[i]) % modulus for ip, i in zip(ips, compiled.s_slots)]
            )
        for t_block in blocks:
            rows, _, c_values, t_rows = t_block
            if narrow:
                repeater = repeaters.get(rows)
                if repeater is None:
                    repeater = repeaters[rows] = int.from_bytes(
                        (bytes(size - 1) + b"\x01") * rows, "big"
                    )
                block = (with_s * repeater + t_rows).to_bytes(rows * size, "big")
            else:
                block = bytes([
                    (a + b) % modulus
                    for a, b in zip(with_s * rows, t_rows.to_bytes(rows * size, "big"))
                ])
            count = rows * len(c_values)
            if batch and vectors + count > DECODE_BATCH:
                yield batch
                batch, vectors = [], 0
            batch.append((s_values, t_block, [block.translate(tables[c]) for c in c_values]))
            vectors += count
    if batch:
        yield batch


def _joined(batch: List[Piece]) -> bytes:
    """A batch's answer vectors joined end to end, in decode order."""
    return b"".join([scaled for piece in batch for scaled in piece[-1]])


def _in_stream_order(
    batch: List[Piece],
) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...], int, int]]:
    """Each realization (s, t, c) of a batch in stream order, with the
    index of its answer vector in the batch's decode order."""
    offset = 0
    for s_values, (rows, ts, c_values, _), _ in batch:
        n_t = len(ts) // rows
        for row in range(rows):
            t_values = tuple(ts[row * n_t:(row + 1) * n_t])
            for k, c_value in enumerate(c_values):
                yield s_values, t_values, c_value, offset + k * rows + row
        offset += rows * len(c_values)


# ---------------------------------------------------------------------------
# The realization stream
# ---------------------------------------------------------------------------


def _policy_ranges(
    policy: RandomnessPolicy, modulus: int
) -> Tuple[List[int], List[int], List[int]]:
    """The values the policy lets a local, an individual and the global slot take."""
    return (
        [0] if policy.zero_local else list(range(modulus)),
        [0] if policy.zero_individual else list(range(modulus)),
        list(range(1, modulus)) if policy.fixed_global is None
        else [policy.fixed_global % modulus],
    )


def _h_space(compiled: CompiledInstance) -> int:
    kappa = max(compiled.plan.shape.eta.values())
    return compiled.field.modulus ** (compiled.universe.size * kappa)


def _all_h(compiled: CompiledInstance) -> Iterator[HVectors]:
    """Every base-vector tuple, one vector per partition index."""
    kappa = max(compiled.plan.shape.eta.values())
    vectors = list(map(bytes, itertools.product(
        range(compiled.field.modulus), repeat=compiled.universe.size
    )))
    return itertools.product(vectors, repeat=kappa)


def _drawn_h(compiled: CompiledInstance, seed: int, label: str, index: int) -> HVectors:
    """The seeded base-vector tuple of one sampled context."""
    modulus, size = compiled.field.modulus, compiled.universe.size
    return tuple(
        draw_vector(seed, modulus, size, label, index, ell)
        for ell in range(1, max(compiled.plan.shape.eta.values()) + 1)
    )


def _h_realizations(
    compiled: CompiledInstance, seed: int, samples: int, enum_limit: int
) -> Tuple[List[HVectors], bool]:
    """All base-vector tuples when the space is small, else seeded samples:
    at least one, or a walk would pass having checked nothing."""
    if _h_space(compiled) <= enum_limit:
        return list(_all_h(compiled)), True
    if samples < 1:
        raise ValueError(f"sampled base vectors need at least one sample, got {samples}")
    return [_drawn_h(compiled, seed, "audit-h", index) for index in range(samples)], False


def _raw_realizations(
    compiled: CompiledInstance,
    policy: RandomnessPolicy,
    bound: int,
    sample_beyond_bound: int,
    seed: int,
) -> Tuple[Callable[[], Iterator[Level]], int, bool]:
    """Levels of raw (s, t-blocks) values: exhaustive within the bound, else
    seeded samples.

    The first item gives one base-vector set's levels per call. An
    exhaustive call yields one level per s tuple, in itertools.product
    order, whose blocks hold every t tuple, in itertools.product order,
    with the whole c range. With more than one level each block is built
    when a level first reads it and kept, and every level of every call
    reads the kept blocks and builds on where they end: an early stop
    builds only what was read. A single level (zero_local) gets blocks
    made lazily on each call, held one at a time. A sampled call yields
    one level per sample with one t and one c, drawn in the order s, t, c;
    the samples continue one seeded stream from call to call, so each set
    gets draws of its own. Nothing is built before a level is read.
    """
    s_range, t_range, c_range = _policy_ranges(policy, compiled.field.modulus)
    space = len(s_range) ** compiled.n_s * len(t_range) ** compiled.n_t * len(c_range)
    if space <= bound:
        one_level = len(s_range) ** compiled.n_s == 1

        def every_t() -> Iterator[TBlock]:
            return _t_blocks(compiled, zip(
                itertools.product(t_range, repeat=compiled.n_t), itertools.repeat(tuple(c_range))
            ), policy)

        # Never read itself, kept holds every block that a copy of it has
        # read, and a copy reads the kept blocks before building more. A
        # level calls __copy__ directly: copy.copy's dispatch, once per
        # level, cost about 3% of an audit-exhaustive op.
        (kept,) = itertools.tee(every_t(), 1)

        def exhaustive() -> Iterator[Level]:
            for s_values in itertools.product(s_range, repeat=compiled.n_s):
                yield s_values, every_t() if one_level else kept.__copy__()

        return exhaustive, space, True
    if sample_beyond_bound <= 0:
        raise BoundExceededError(
            f"randomness space has {space} outcomes, above the bound {bound}"
        )
    rng = labeled_rng(seed, "audit-bundle-sample")

    def sampled() -> Iterator[Level]:
        for _ in range(sample_beyond_bound):
            s_values = tuple(rng.choice(s_range) for _ in range(compiled.n_s))
            t_values = tuple(rng.choice(t_range) for _ in range(compiled.n_t))
            yield s_values, list(_t_blocks(compiled, [(t_values, (rng.choice(c_range),))], policy))

    return sampled, space, False


def _with_leader(
    clients: Sequence[PartyProfile], leader: PartyProfile, universe: Universe
) -> CompiledInstance:
    """The compiled instance of these clients with this party as the leader."""
    profiles = tuple(sorted([*clients, leader], key=lambda p: p.party_id))
    return compile_instance(AuditInstance(profiles, universe, leader.party_id))


# ---------------------------------------------------------------------------
# Reliability
# ---------------------------------------------------------------------------


@dataclass
class ReliabilityReport:
    passed: bool
    cases: int
    space: int
    exhaustive_randomness: bool
    exhaustive_h: bool
    failures: List[str] = dc_field(default_factory=list)


MAX_FAILURES = 5  # check_reliability stops at this many failures


def check_reliability(
    instance: AuditInstance,
    bound: int = DEFAULT_BOUND,
    h_samples: int = 2,
    h_enum_limit: int = DEFAULT_H_ENUM_LIMIT,
    sample_beyond_bound: int = 0,
    policy: RandomnessPolicy = FAITHFUL,
    seed: int = 0,
) -> ReliabilityReport:
    """Decode must equal direct intersection for every enumerated realization."""
    compiled = compile_instance(instance)
    expected = instance.true_intersection()
    plan = compiled.plan
    modulus = compiled.field.modulus
    h_list, h_exhaustive = _h_realizations(compiled, seed, h_samples, h_enum_limit)
    draws, space, exhaustive = _raw_realizations(
        compiled, policy, bound, sample_beyond_bound, seed
    )

    elements = plan.leader_elements
    lanes, size = len(elements), len(plan.answer_keys)
    # 1 per element in the intersection: what every realization must decode.
    zero_pattern = bytes(element in expected for element in elements)

    cases = 0
    failures: List[str] = []
    for h_vectors in h_list:
        ips = query_inner_products(compiled, h_vectors)
        for batch in _answer_batches(compiled, ips, draws()):
            vectors = _joined(batch)
            count = len(vectors) // size
            zeros = decode_indicators(plan, vectors, modulus).translate(IS_ZERO)
            if zeros == zero_pattern * count:  # the pass path: order does not matter
                cases += count
                continue
            # Some realization of the batch failed: read it in stream order.
            for s_values, t_values, c_value, index in _in_stream_order(batch):
                cases += 1
                row = zeros[index * lanes:(index + 1) * lanes]
                if row != zero_pattern:
                    failures.append(
                        f"h={tuple(map(tuple, h_vectors))} s={s_values} t={t_values} "
                        f"c={c_value}: decoded {list(itertools.compress(elements, row))}, "
                        f"true {sorted(expected)}"
                    )
                    if len(failures) == MAX_FAILURES:
                        return ReliabilityReport(
                            False, cases, space, exhaustive, h_exhaustive, failures
                        )
    return ReliabilityReport(not failures, cases, space, exhaustive, h_exhaustive, failures)


# ---------------------------------------------------------------------------
# Masking lemma checks
# ---------------------------------------------------------------------------


@dataclass
class UniformityReport:
    passed: bool
    tables: Dict[object, DistributionTable]
    detail: str = ""


def _draw_contexts(
    compiled: CompiledInstance, policy: RandomnessPolicy, seed: int, contexts: int, label: str
) -> List[tuple]:
    """A masking check's contexts, drawn once per check under label: base
    vectors (_drawn_h), then the local and individual values the lemma holds,
    drawn unless the policy zeroes their tier, so a completion wrong only at
    some t meets the sweeps. They depend on the seed, label, context and
    sizes alone, so every client, position and column-sum variant shares them."""
    if contexts < 1:
        raise ValueError(f"a masking check needs at least one context, got {contexts}")
    modulus = compiled.field.modulus
    tiers = (("s", compiled.n_s, policy.zero_local), ("t", compiled.n_t, policy.zero_individual))
    return [(_drawn_h(compiled, seed, f"{label}-h", ctx), *(
        tuple(bytes(n) if zeroed else draw_vector(seed, modulus, n, f"{label}-{tier}", ctx))
        for tier, n, zeroed in tiers
    )) for ctx in range(contexts)]


def _with_ips(compiled: CompiledInstance, drawn: Sequence[tuple]) -> List[tuple]:
    """The drawn contexts with the base vectors' inner products on this instance."""
    return [(query_inner_products(compiled, h_vectors), s, t) for h_vectors, s, t in drawn]


def _masking_tables(
    compiled: CompiledInstance,
    policy: RandomnessPolicy,
    drawn: Sequence[tuple],
    sweep: Callable[[tuple, tuple], Iterable[Tuple[tuple, tuple]]],
    c_groups: Sequence[Sequence[int]],
    statistic: Callable[[bytes], object],
) -> Iterator[Tuple[int, Sequence[int], DistributionTable]]:
    """The masking lemmas' core: per context of drawn (_with_ips), one table
    per multiplier group. sweep maps a context's held values to the (s, t)
    pairs the lemma varies. A group's sweep is one stream: a level per run of
    consecutive pairs sharing s, its blocks the run's t tuples under the
    group's multipliers. The blocks of each distinct run of t tuples are
    built once per group, and every level of that run carries them. The
    table counts statistic over what answers_for_realization reads back, in
    the pairs' order."""
    for ctx, (ips, s_fixed, t_fixed) in enumerate(drawn):
        runs = [
            (s, tuple(t for _, t in run))
            for s, run in itertools.groupby(sweep(s_fixed, t_fixed), operator.itemgetter(0))
        ]
        for group in c_groups:
            blocks = {
                ts: list(_t_blocks(compiled, [(t, group) for t in ts], policy))
                for ts in dict.fromkeys(ts for _, ts in runs)
            }
            levels = [(s, blocks[ts]) for s, ts in runs]
            counts = Counter(
                statistic(answers)
                for *_, answers in answers_for_realization(compiled, ips, levels)
            )
            yield ctx, group, DistributionTable.from_counts(counts)


def _uniformity_report(results: List[tuple]) -> UniformityReport:
    """Fold each table's (key, table, failure or None) into one report: it
    passes when no table fails, and its detail is the first failure."""
    failures = [failure for _, _, failure in results if failure]
    tables = {key: table for key, table, _ in results}
    return UniformityReport(not failures, tables, failures[0] if failures else "")


def check_db1_uniformity(
    instance: AuditInstance,
    policy: RandomnessPolicy = FAITHFUL,
    seed: int = 0,
    contexts: int = 2,
) -> UniformityReport:
    """Database-1 answer tuples must be uniform as the local vector sweeps.

    The conditional is taken per client against every fixed combination of
    base vectors (sampled contexts), individual values, and multiplier value.
    """
    compiled = compile_instance(instance)
    modulus, plan = compiled.field.modulus, compiled.plan
    s_range, _, c_range = _policy_ranges(policy, modulus)
    drawn = _with_ips(compiled, _draw_contexts(compiled, policy, seed, contexts, "db1"))
    results = []
    for client_id in plan.shape.client_ids:
        eta = plan.shape.eta[client_id]
        # A client's local slots are consecutive in s_index.
        first = compiled.s_index[(client_id, 1)]
        db1 = [plan.answer_keys.index((client_id, ell, None)) for ell in range(1, eta + 1)]
        uniform = DistributionTable.from_counts(
            dict.fromkeys(itertools.product(range(modulus), repeat=eta), 1)
        )
        for ctx, (c_value,), table in _masking_tables(
            compiled, policy, drawn,
            lambda s, t: [
                (s[:first] + sweep + s[first + eta:], t)
                for sweep in itertools.product(s_range, repeat=eta)
            ],
            [[c] for c in c_range],
            lambda answers: tuple(answers[i] for i in db1),
        ):
            results.append(((client_id, ctx, c_value), table, None if table == uniform else (
                f"client {client_id}: database-1 answers not uniform "
                f"(context {ctx}, multiplier {c_value})"
            )))
    return _uniformity_report(results)


def check_z_uniformity(
    instance: AuditInstance,
    policy: RandomnessPolicy = FAITHFUL,
    seed: int = 0,
    contexts: int = 2,
) -> UniformityReport:
    """Per-element subtraction statistics of non-correlating clients must be
    uniform as their free individual value sweeps; vacuous with two parties."""
    compiled = compile_instance(instance)
    drawn = _with_ips(compiled, _draw_contexts(compiled, policy, seed, contexts, "z"))
    modulus, plan = compiled.field.modulus, compiled.plan
    free = free_clients(plan.shape.client_ids)
    if not free:
        return UniformityReport(True, {}, "no non-correlating clients; vacuous")
    _, t_range, c_range = _policy_ranges(policy, modulus)
    uniform = DistributionTable.from_counts(dict.fromkeys(range(modulus), 1))
    results = []
    for client_id in free:
        for position in range(1, plan.shape.set_size + 1):
            slot = compiled.t_index[(client_id, position)]
            partition, _ = plan.shape.position_location(client_id, position)
            target = plan.answer_keys.index((client_id, partition, position))
            base = plan.answer_keys.index((client_id, partition, None))
            for ctx, (c_value,), table in _masking_tables(
                compiled, policy, drawn,
                lambda s, t: [(s, t[:slot] + (value,) + t[slot + 1:]) for value in t_range],
                [[c] for c in c_range],
                lambda answers: (answers[target] - answers[base]) % modulus,
            ):
                key = (client_id, position, ctx, c_value)
                results.append((key, table, None if table == uniform else (
                    f"client {client_id}, position {position}: subtraction "
                    f"statistic not uniform (context {ctx}, multiplier {c_value})"
                )))
    return _uniformity_report(results)


def check_indicator_privacy(
    instance: AuditInstance,
    policy: RandomnessPolicy = FAITHFUL,
    seed: int = 0,
    contexts: int = 2,
) -> UniformityReport:
    """Indicators vanish on intersection elements and are uniform otherwise.

    For every leader-set element outside the intersection and every deficient
    column sum, the indicator's distribution over the multiplier must be the
    same exact uniform table over the nonzero residues.
    """
    compiled = compile_instance(instance)
    setup, plan = compiled.setup, compiled.plan
    client_ids = plan.shape.client_ids
    modulus = compiled.field.modulus
    truth = instance.true_intersection()
    _, _, c_range = _policy_ranges(policy, modulus)
    held = _draw_contexts(compiled, policy, seed, contexts, "ind")
    uniform = DistributionTable.from_counts(dict.fromkeys(c_range, 1))
    results = []

    def indicator_tables(clients, element) -> Iterator[Tuple[int, object, DistributionTable]]:
        """The element's indicator table per context, as the multiplier sweeps."""
        comp = _with_leader(clients, setup.leader, instance.universe)
        lane = comp.plan.leader_elements.index(element)
        return _masking_tables(
            comp, policy, _with_ips(comp, held), lambda s, t: [(s, t)], [c_range],
            lambda answers: decode_indicators(comp.plan, answers, modulus)[lane],
        )

    for element in plan.leader_elements:
        if element in truth:
            for ctx, _, table in indicator_tables(setup.clients, element):
                zero = table.as_dict() == {0: Fraction(1)}
                results.append(((element, "intersection", ctx), table, None if zero else (
                    f"element {element}: indicator not always zero"
                )))
            continue
        # Sweep every deficient column sum by rewriting which clients hold
        # the element; the indicator table must not depend on the sum.
        reference: Optional[DistributionTable] = None
        for sigma in range(len(client_ids)):
            holders = client_ids[:sigma]
            variant = [
                replace(client, data_set=client.data_set | {element})
                if client.party_id in holders
                else replace(client, data_set=client.data_set - {element})
                for client in setup.clients
            ]
            for ctx, _, table in indicator_tables(variant, element):
                if reference is None:
                    reference = table
                failure = None
                if policy.fixed_global is None and table != uniform:
                    failure = (
                        f"element {element}, column sum {sigma}: indicator not "
                        f"uniform over nonzero residues"
                    )
                elif table != reference:
                    failure = (
                        f"element {element}: indicator table differs across "
                        f"deficient column sums"
                    )
                results.append(((element, sigma, ctx), table, failure))
    return _uniformity_report(results)


def delivered_query_distribution(
    clients: Sequence[PartyProfile],
    leader: PartyProfile,
    universe: Universe,
    client_id: int,
    database: int,
    bound: int = DEFAULT_BOUND,
) -> DistributionTable:
    """Exact distribution of the query tuple one database receives.

    Enumerates every base-vector realization. The table must be uniform over
    all tuples of the right arity and identical for any two leader sets of
    equal cardinality; anything else would let the database tell leader sets
    apart.
    """
    compiled = _with_leader(clients, leader, universe)
    _joint_space_guard(_h_space(compiled), bound)
    address = (client_id, database)
    return DistributionTable.from_counts(Counter(
        tuple(tuple(query.values) for query in _lay_out(compiled, h) if query.dest == address)
        for h in _all_h(compiled)
    ))


# ---------------------------------------------------------------------------
# Mutual information
# ---------------------------------------------------------------------------


@dataclass
class MIResult:
    """Exact independence verdict plus a floating-point size estimate."""

    is_zero: bool
    bits: float
    joint_outcomes: int
    secret_outcomes: int
    view_outcomes: int


def _mi_result(joint: Counter) -> MIResult:
    """Mutual information of equally likely realizations counted by (secret, view).

    Independence (zero information) is decided exactly in integers: every
    count times the total equals the product of its two marginal counts.
    The bits figure is a float report, nonzero only when independence fails.
    """
    secrets, views = Counter(), Counter()
    for (secret, view), n in joint.items():
        secrets[secret] += n
        views[view] += n
    total = sum(joint.values())
    is_zero = all(n * total == secrets[s] * views[v] for (s, v), n in joint.items())
    bits = 0.0 if is_zero else sum(
        n / total * math.log2(n * total / (secrets[s] * views[v]))
        for (s, v), n in joint.items()
    )
    return MIResult(is_zero, bits, len(joint), len(secrets), len(views))


def _joint_space_guard(size: int, bound: int) -> None:
    if size > bound:
        raise BoundExceededError(
            f"joint enumeration would cover {size} outcomes, above the bound {bound}"
        )


def leader_privacy_mi(
    clients: Sequence[PartyProfile],
    leader_id: int,
    leader_databases: int,
    candidate_sets: Sequence[FrozenSet[int]],
    universe: Universe,
    client_id: int,
    database: int,
    bound: int = DEFAULT_BOUND,
    mask_queries: bool = True,
) -> MIResult:
    """Exact information one database's view carries about the leader's set.

    The view is everything resident at the database: the delivered query
    tuple, its answer tuple, its party's set, and its randomness slots. The
    candidate leader sets (equal cardinality, uniform prior) are the secret.
    Setting mask_queries=False sends unmasked unit-vector queries instead of
    the scheme's, a mutation that must leak.
    """
    if len({len(s) for s in candidate_sets}) != 1:
        raise ValueError("candidate leader sets must share one public cardinality")
    if len(set(candidate_sets)) != len(candidate_sets):
        raise ValueError("candidate leader sets must be distinct")
    own_set = tuple(sorted(next(p for p in clients if p.party_id == client_id).data_set))
    address = (client_id, database)
    joint: Counter = Counter()
    for candidate in candidate_sets:
        compiled = _with_leader(
            clients, PartyProfile(leader_id, leader_databases, candidate), universe
        )
        _joint_space_guard(
            len(candidate_sets) * _h_space(compiled) * compiled.space_size(), bound
        )
        draws, _, _ = _raw_realizations(compiled, FAITHFUL, bound, 0, 0)
        plan = compiled.plan
        delivered = [i for i, origin in enumerate(plan.answer_origins) if origin == address]
        own_t_slots = [compiled.t_slots[i] for i in delivered if plan.answer_keys[i][2]]
        own_s_slots = [i for (cid, _), i in compiled.s_index.items() if cid == client_id]
        secret = tuple(sorted(candidate))
        # Unmasked, every base-vector tuple is replaced by zeros, so one
        # stands for all: each view's count scales by the same factor.
        h_list = _all_h(compiled) if mask_queries else [
            (bytes(universe.size),) * max(plan.shape.eta.values())
        ]
        for h_vectors in h_list:
            sent = _lay_out(compiled, h_vectors)
            queries = tuple(sent[i].values for i in delivered)
            ips = _inner_products(compiled, sent)
            for s_values, t_values, c_value, answers in answers_for_realization(
                compiled, ips, draws()
            ):
                t_all = individual_values(compiled, t_values, FAITHFUL)
                view = (
                    queries,
                    tuple(answers[i] for i in delivered),
                    own_set,
                    tuple(s_values[i] for i in own_s_slots),
                    tuple(t_all[i] for i in own_t_slots),
                    c_value,
                )
                joint[secret, view] += 1
    return _mi_result(joint)


@dataclass
class ClientPrivacyReport:
    """Conditional independence of the leader view and the hidden columns.

    The secret is the tuple of client incidence columns outside the realized
    intersection. Conditioning is per intersection outcome: the prior over
    client sets is restricted to the event that the intersection equals that
    outcome, which is exactly what the decoded result already tells the
    leader.
    """

    is_zero: bool
    per_intersection: Dict[FrozenSet[int], MIResult]
    bits_max: float


def client_privacy_mi(
    leader: PartyProfile,
    client_shapes: Sequence[Tuple[int, int]],
    universe: Universe,
    bound: int = DEFAULT_BOUND,
    policy: RandomnessPolicy = FAITHFUL,
) -> ClientPrivacyReport:
    """Exact information the leader's view carries about hidden columns.

    client_shapes lists (party_id, databases) for every client; each client's
    set ranges uniformly over all subsets of the universe. The randomness
    ranges over what the policy leaves free.
    """
    elements = range(1, universe.size + 1)
    subsets = [
        frozenset(elem for elem, keep in zip(elements, bits) if keep)
        for bits in itertools.product((0, 1), repeat=universe.size)
    ]

    def compiled_for(sets: Sequence[FrozenSet[int]]) -> CompiledInstance:
        clients = [PartyProfile(cid, dbs, s) for (cid, dbs), s in zip(client_shapes, sets)]
        return _with_leader(clients, leader, universe)

    # One geometry serves every client-set combination: the plan, and so
    # the randomness slots, depend only on the leader set and database
    # counts.
    compiled = compiled_for([frozenset()] * len(client_shapes))
    combos = len(subsets) ** len(client_shapes)
    draws, space, _ = _raw_realizations(compiled, policy, bound, 0, 0)
    _joint_space_guard(combos * _h_space(compiled) * space, bound)
    leader_set = tuple(sorted(leader.data_set))

    # Conditioning is per intersection outcome; every realization of a
    # cell is equally likely, so counting them is all that is needed.
    joints: Dict[FrozenSet[int], Counter] = {}
    for combo in itertools.product(subsets, repeat=len(client_shapes)):
        intersection = frozenset(leader.data_set).intersection(*combo)
        secret = tuple(
            (elem, tuple(int(elem in s) for s in combo))
            for elem in elements
            if elem not in intersection
        )
        comp = compiled_for(combo)
        joint = joints.setdefault(intersection, Counter())
        for h_vectors in _all_h(comp):
            ips = query_inner_products(comp, h_vectors)
            for *_, answers in answers_for_realization(comp, ips, draws()):
                # The query tuple is a fixed bijection of the base vectors
                # here (the leader set is the conditioning instance's own),
                # so the base vectors stand in for the delivered queries in
                # the view.
                joint[secret, (leader_set, h_vectors, tuple(answers))] += 1
    per = {intersection: _mi_result(joint) for intersection, joint in joints.items()}
    return ClientPrivacyReport(
        all(result.is_zero for result in per.values()),
        per,
        max([0.0] + [result.bits for result in per.values()]),
    )


# ---------------------------------------------------------------------------
# Transcript views
# ---------------------------------------------------------------------------


def _canonical(messages: Iterable) -> tuple:
    """Messages as one order-free value: the messages sorted."""
    return (tuple(sorted(messages, key=str)),)


def leader_view(transcript: SessionTranscript) -> tuple:
    """What the leader legitimately holds: every message, as each has the leader at one end."""
    return _canonical(transcript.messages)


def database_view(transcript: SessionTranscript, party_id: int, database: int) -> tuple:
    """Traffic visible at one database: frames it sent or received."""
    dest = (party_id, database)
    return _canonical(m for m in transcript.messages if m.dest == dest or m.origin == dest)
