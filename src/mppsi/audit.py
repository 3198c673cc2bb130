"""Exhaustive verification of the protocol's exact claims at desk scale.

Every check here enumerates a finite probability space outright and works in
exact rationals or integer counts; zero means zero. The checks are:

* reliability: decoding equals direct set intersection for every enumerated
  randomness realization (and every base-vector realization when that space
  is small enough to enumerate; base vectors are otherwise sampled, which
  loses nothing because the identity holds realization by realization).
  The randomness stream comes in levels: one local tuple s with its groups,
  each an individual tuple t with the multipliers c it runs under (an
  exhaustive stream: one level per s, every t, the whole c range; a sampled
  one: one level per sample, one t and one c). The walk runs each level's
  work once per level (inner products per base-vector set, + s per level,
  + t per group) and per realization only builds the answer vector, one
  bytes.translate by c's table. It decodes the vectors in batches of about
  DECODE_BATCH, running across levels, each joined and decoded in one call
  of leader.decode_indicators, the kernel behind the transports' decode,
  and reads a batch again realization by realization only when its zero
  pattern is not the intersection's. The t row is computed once per
  distinct t tuple of a base-vector set and kept until the set is walked
  (see _answer_batches for how many that is), in each process of a split
  walk. An exhaustive walk of SPLIT_MIN_REALIZATIONS or more, in a
  one-thread process, cuts its base-vector sets into contiguous parts, one
  per CPU in os.sched_getaffinity and at most one per set, and walks every
  part but the first in a forked child. The parts merge in order, so the
  report is the one-process walk's. A sampled stream is one RNG running on
  from set to set, so it stays in one process;
* database-1 masking: the tuple of database-1 answers of a client is exactly
  uniform as that client's local vector sweeps its range, for any fixed rest;
* subtraction masking: for every client except the correlating one, each
  per-element subtraction statistic is exactly uniform as its free
  individual value sweeps the field;
* indicator masking: for an element outside the intersection, the indicator
  is exactly uniform over the nonzero residues as the global multiplier
  sweeps, with an identical table for every deficient column sum;
* mutual information: exact independence tests on enumerated joint
  distributions, for the leader-set secret against a single database's view
  and for the non-intersection incidence columns against the leader's view.

Every query here is one leader.lay_out_queries builds, as in a session:
query_inner_products sums each client's support over them, and the
delivered query tuples are their values. Base vectors are bytes; they become
int tuples only in reliability failure text and delivered query outcomes.

Reliability, the mutual-information checks and delivered_query_distribution
enumerate one realization stream: base vectors from _all_h (or _drawn_h),
levels of (s, t, c) from _raw_realizations under the caller's policy, answer
vectors from _answer_batches, which realization_answers gives one
realization at a time. The masking checks share one core,
_masking_tables: it draws each context's base vectors and fixed slots,
sweeps the lemma's slots over the policy's ranges, and counts a statistic
of the answers from answers_for_realization, one realization run through
the same walk. So every check answers through _answer_batches and decodes
through decode_indicators, and the correlated completion is
randomness.completion, the one the client databases run.

Each check has scheme mutations (RandomnessPolicy knobs, unmasked queries)
that make it fail, demonstrating the checks have power.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
from collections import Counter
from contextlib import closing
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .client import support_sum
from .errors import AuditPartError, BoundExceededError
from .field import PrimeField
from .leader import (
    IS_ZERO, PartitionPlan, QueryPlan, decode_indicators, lay_out_queries, make_partition_plan
)
from .model import PartyProfile, Universe, brute_force_intersection
from .protocol import SessionSetup, prepare_session
from .randomness import FAITHFUL, RandomnessPolicy, completion, correlating_client, free_clients
from .seeding import draw_vector, labeled_rng
from .session import SessionTranscript

DEFAULT_BOUND = 10_000_000
DEFAULT_H_ENUM_LIMIT = 729

# One base vector per partition index, and one level of the randomness
# stream: a local tuple s with its groups, each an individual tuple t and
# the multipliers c it runs under.
HVectors = Tuple[bytes, ...]
Level = Tuple[Tuple[int, ...], Iterable[Tuple[Tuple[int, ...], Sequence[int]]]]


@dataclass(frozen=True)
class DistributionTable:
    """Exact distribution: outcome -> probability as a Fraction summing to 1."""

    probs: Tuple[Tuple[object, Fraction], ...]

    def __post_init__(self) -> None:
        total = sum((p for _, p in self.probs), Fraction(0))
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")

    @classmethod
    def from_counts(cls, counts: Dict) -> "DistributionTable":
        total = sum(counts.values())
        return cls(
            tuple(sorted(
                ((outcome, Fraction(n, total)) for outcome, n in counts.items()),
                key=lambda item: repr(item[0]),
            ))
        )

    @classmethod
    def uniform_over(cls, outcomes: Sequence) -> "DistributionTable":
        return cls.from_counts(dict.fromkeys(outcomes, 1))

    def as_dict(self) -> Dict:
        return dict(self.probs)

    def is_uniform_over(self, outcomes: Sequence) -> bool:
        return self == DistributionTable.uniform_over(outcomes)


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
    s_slots, t_slots = [], []
    for client_id, partition, position in plan.answer_keys:
        s_slots.append(s_index[(client_id, partition)])
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
        corr_free_indices=corr_free,
        support_sums={
            client.party_id: support_sum(sorted(elem - 1 for elem in client.data_set))
            for client in setup.clients
        },
    )


def _lay_out(compiled: CompiledInstance, h_vectors: HVectors) -> QueryPlan:
    """The leader's queries on these base vectors, as a session lays them out;
    they are never sent, so they carry no session id."""
    return lay_out_queries(compiled.plan, h_vectors, compiled.field.modulus, "")


def _inner_products(compiled: CompiledInstance, sent: QueryPlan) -> List[int]:
    """Inner product of each laid-out query with its client's incidence
    vector, in plan.answer_keys order."""
    modulus = compiled.field.modulus
    sums = compiled.support_sums
    ips: Dict[Tuple[int, int, Optional[int]], int] = {}
    for (client_id, _), queries in sent.queries.items():
        for query in queries:
            ips[client_id, query.partition, query.target] = sums[client_id](query.values) % modulus
    return [ips[key] for key in compiled.plan.answer_keys]


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


def answers_for_realization(
    compiled: CompiledInstance,
    ips: Sequence[int],
    s_values: Tuple[int, ...],
    t_values: Tuple[int, ...],
    c_value: int,
    policy: RandomnessPolicy = FAITHFUL,
) -> bytes:
    """All answer values for one randomness realization, as bytes in
    plan.answer_keys order: that one realization run through
    realization_answers."""
    level = (s_values, [(t_values, (c_value,))])
    return next(realization_answers(compiled, ips, [level], policy))[3]


@functools.lru_cache(maxsize=None)
def _scale_tables(modulus: int) -> Tuple[bytes, ...]:
    """Per multiplier c in [0, L), the bytes.translate table taking each
    byte v to c * v mod L."""
    return tuple(bytes(c * v % modulus for v in range(256)) for c in range(modulus))


def realization_answers(
    compiled: CompiledInstance,
    ips: Sequence[int],
    levels: Iterable[Level],
    policy: RandomnessPolicy = FAITHFUL,
) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...], int, bytes]]:
    """Each realization of the levels, in order, with its answers in
    plan.answer_keys order as bytes, one residue per byte: _answer_batches
    one realization at a time."""
    for groups, vectors in _answer_batches(compiled, ips, levels, policy):
        realizations = ((s, t, c) for s, t, c_values in groups for c in c_values)
        for (s_values, t_values, c_value), answers in zip(realizations, vectors):
            yield s_values, t_values, c_value, answers


# Answer vectors per decode_indicators call of the reliability walk: enough
# that the call's fixed cost is spread thin (the audit-exhaustive walk takes
# as long at 1,024 as at 4,096), and a fixed count, so a batch's memory
# depends on the vector length alone, not on the policy or bound.
DECODE_BATCH = 1024

# A batch's groups, each (s, t, its multipliers c), and the answers of every
# realization of them, in order.
Batch = Tuple[List[Tuple[Tuple[int, ...], Tuple[int, ...], Sequence[int]]], List[bytes]]


def _answer_batches(
    compiled: CompiledInstance,
    ips: Sequence[int],
    levels: Iterable[Level],
    policy: RandomnessPolicy,
) -> Iterator[Batch]:
    """The answers of every realization of the levels, in order, in batches
    that run across levels: a batch closes at the first group that brings it
    to DECODE_BATCH vectors, so it holds fewer than DECODE_BATCH + L, and
    the last batch holds what is left.

    Each answer is c * (ip + s + t) mod L, computed level by level: ip + s
    once per level, ip + s + t once per group, and per multiplier c one
    bytes.translate of that vector through c's table. Both addends are held
    as one int with a byte per answer, residues below L. Where two residues
    sum below 256 (2(L - 1) < 256, so every prime L up to 127), one int
    addition adds every answer with no byte carry, and c's table reduces the
    unreduced sums; a wider field adds answer by answer, mod L.
    The t row (the correlated completion, gathered into answer order)
    depends on t and the policy alone, so it is computed once per distinct
    t tuple of this call and kept until the call ends: at most one per
    sample for a sampled stream, and |t_range|^n_t rows for an exhaustive
    one. Under DEFAULT_BOUND that is at most 3^12 = 531,441 rows where s
    is drawn: the 9,565,938 realizations of one base-vector set of three
    parties with 13 databases each and a leader set of 12 (n_s = 2,
    n_t = 12, F_3) peak at 147 MB RSS, from 21 MB before the walk. Where
    s is zeroed it can be 3^14 rows. c must be a residue in [0, L).
    """
    modulus = compiled.field.modulus
    s_slots, t_slots = compiled.s_slots, compiled.t_slots
    size = len(s_slots)
    tables = _scale_tables(modulus)
    narrow = 2 * (modulus - 1) < 256
    t_rows: Dict[Tuple[int, ...], int] = {}
    groups: List[Tuple[Tuple[int, ...], Tuple[int, ...], Sequence[int]]] = []
    vectors: List[bytes] = []
    for s_values, t_groups in levels:
        with_s = int.from_bytes(
            bytes([(ip + s_values[i]) % modulus for ip, i in zip(ips, s_slots)]), "big"
        )
        for t_values, c_values in t_groups:
            row = t_rows.get(t_values)
            if row is None:
                t_all = individual_values(compiled, t_values, policy)
                row = t_rows[t_values] = int.from_bytes(
                    bytes([t_all[i] for i in t_slots]), "big"
                )
            if narrow:
                with_t = (with_s + row).to_bytes(size, "big")
            else:
                with_t = bytes(
                    (a + b) % modulus
                    for a, b in zip(with_s.to_bytes(size, "big"), row.to_bytes(size, "big"))
                )
            groups.append((s_values, t_values, c_values))
            for c in c_values:
                vectors.append(with_t.translate(tables[c]))
            if len(vectors) >= DECODE_BATCH:
                yield groups, vectors
                groups, vectors = [], []
    if vectors:
        yield groups, vectors


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


def _fixed_draw(
    seed: int, modulus: int, length: int, label: str, ctx: int, zeroed: bool
) -> Tuple[int, ...]:
    """Seeded values for slots a masking check holds fixed: zeros where the
    policy zeroes their tier, else a labeled draw from F_L."""
    return tuple(bytes(length) if zeroed else draw_vector(seed, modulus, length, label, ctx))


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
    """Levels of raw (s, t, c) values: exhaustive within the bound, else
    seeded samples.

    The first item gives one base-vector set's levels per call. An
    exhaustive call yields one level per s tuple, in itertools.product
    order, whose groups are every t tuple (made lazily, in the same order)
    with the whole c range. A sampled call yields one level per sample with
    one group and one c, drawn in the order s, t, c; the samples continue
    one seeded stream from call to call, so each set gets draws of its own.
    """
    s_range, t_range, c_range = _policy_ranges(policy, compiled.field.modulus)
    space = (
        len(s_range) ** compiled.n_s * len(t_range) ** compiled.n_t * len(c_range)
    )
    if space <= bound:
        c_values = tuple(c_range)

        def exhaustive() -> Iterator[Level]:
            for s_values in itertools.product(s_range, repeat=compiled.n_s):
                t_tuples = itertools.product(t_range, repeat=compiled.n_t)
                yield s_values, zip(t_tuples, itertools.repeat(c_values))

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
            yield s_values, [(t_values, (rng.choice(c_range),))]

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
# An exhaustive walk of fewer realizations stays in one process. On a shared
# 2-vCPU Xeon host, forking and reaping a part takes about 3.8 ms. Walks of
# 6,561 to 62,500 realizations take 20-33 ms in one process there, and a
# split saves 2-12 ms of them with the other CPU idle, while with both CPUs
# busy it has lost 7-9 ms in some runs and saved time in others. The 78,732
# of the audit-exhaustive benchmark take about 60 ms, of which a split saves
# about 19 ms with the other CPU idle.
SPLIT_MIN_REALIZATIONS = 70_000

PartResult = Tuple[int, List[Tuple[int, str]]]  # cases, [(case number, detail)]


def _walk_parts(h_list: List[HVectors], exhaustive: bool, space: int) -> List[List[HVectors]]:
    """h_list whole, or cut into contiguous parts, one per CPU this process
    may run on and at most one per set, for a large exhaustive walk in a
    one-thread process: a fork copies only its caller's thread, so a lock
    another thread holds would stay held in the child."""
    large = exhaustive and len(h_list) * space >= SPLIT_MIN_REALIZATIONS
    forkable = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    if not (large and forkable and threading.active_count() == 1):
        return [h_list]
    count = min(len(os.sched_getaffinity(0)), len(h_list))
    return [h_list[i * len(h_list) // count:(i + 1) * len(h_list) // count] for i in range(count)]


def _in_parts(
    walk: Callable[[List[HVectors]], PartResult], parts: List[List[HVectors]]
) -> Iterator[PartResult]:
    """walk(part) of each part, in order: the first walked here, each other
    in a child made by os.fork, which pickles its result (or the exception
    its walk raised) through a pipe and ends with os._exit. Closing the
    generator, at the end, an early stop, an exception or an interrupt,
    kills and reaps every child."""
    pids: List[int] = []
    reads: List[int] = []
    try:
        for part in parts[1:]:
            import pickle  # Only a split loads these two, so processes that never
            import signal  # split keep their memory footprint.
            read_fd, write_fd = os.pipe()
            reads.append(read_fd)
            try:
                pid = os.fork()
                if pid == 0:
                    try:
                        try:
                            data = pickle.dumps((True, walk(part)))
                        except BaseException as exc:  # every outcome goes back
                            data = pickle.dumps((False, exc))
                        with open(write_fd, "wb", closefd=False) as pipe:
                            pipe.write(data)
                    finally:
                        os._exit(0)
                pids.append(pid)
            finally:
                os.close(write_fd)
        yield walk(parts[0])
        for number, read_fd in enumerate(reads, 2):
            try:
                with open(read_fd, "rb", closefd=False) as pipe:
                    ok, value = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError) as exc:
                message = f"part {number} of {len(parts)} of the reliability walk sent no result"
                raise AuditPartError(message) from exc
            if not ok:
                raise value
            yield value
    finally:
        for read_fd in reads:
            os.close(read_fd)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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
    # 1 per element in the intersection: what every realization must decode.
    zero_pattern = bytes(element in expected for element in elements)

    def walk(h_part: List[HVectors]) -> PartResult:
        cases = 0
        failures: List[Tuple[int, str]] = []
        for h_vectors in h_part:
            ips = query_inner_products(compiled, h_vectors)
            for groups, vectors in _answer_batches(compiled, ips, draws(), policy):
                zeros = decode_indicators(plan, b"".join(vectors), modulus).translate(IS_ZERO)
                if zeros == zero_pattern * len(vectors):
                    cases += len(vectors)
                    continue
                # Some realization of the batch failed: read it one at a time.
                realizations = ((s, t, c) for s, t, c_values in groups for c in c_values)
                for start, (s_values, t_values, c_value) in zip(
                    range(0, len(zeros), len(elements)), realizations
                ):
                    cases += 1
                    row = zeros[start:start + len(elements)]
                    if row != zero_pattern:
                        failures.append((cases, (
                            f"h={tuple(map(tuple, h_vectors))} s={s_values} t={t_values} "
                            f"c={c_value}: decoded {list(itertools.compress(elements, row))}, "
                            f"true {sorted(expected)}"
                        )))
                        if len(failures) == MAX_FAILURES:
                            return cases, failures
        return cases, failures

    parts = _walk_parts(h_list, exhaustive, space)
    cases = 0
    failures: List[str] = []
    with closing(_in_parts(walk, parts)) as results:
        for part_cases, part_failures in results:
            for case, detail in part_failures:
                failures.append(detail)
                if len(failures) == MAX_FAILURES:
                    return ReliabilityReport(
                        False, cases + case, space, exhaustive, h_exhaustive, failures
                    )
            cases += part_cases
    return ReliabilityReport(not failures, cases, space, exhaustive, h_exhaustive, failures)


# ---------------------------------------------------------------------------
# Masking lemma checks
# ---------------------------------------------------------------------------


@dataclass
class UniformityReport:
    passed: bool
    tables: Dict[object, DistributionTable]
    detail: str = ""


def _masking_tables(
    compiled: CompiledInstance,
    policy: RandomnessPolicy,
    seed: int,
    contexts: int,
    label: str,
    sweep: Callable[[tuple, tuple], Iterable[Tuple[tuple, tuple]]],
    c_groups: Sequence[Sequence[int]],
    statistic: Callable[[bytes], object],
) -> Iterator[Tuple[int, Sequence[int], DistributionTable]]:
    """The masking lemmas' core: per context, one table per multiplier group.

    Each context is drawn once: its base vectors by _drawn_h, and the local
    and individual values the lemma holds fixed by _fixed_draw, under label.
    sweep maps those fixed values to the (s, t) pairs the lemma varies. A
    group's table counts statistic over the answers, through
    answers_for_realization, of every (s, t) pair with every c in the group.
    """
    modulus = compiled.field.modulus
    for ctx in range(contexts):
        ips = query_inner_products(compiled, _drawn_h(compiled, seed, f"{label}-h", ctx))
        s_fixed = _fixed_draw(seed, modulus, compiled.n_s, f"{label}-s", ctx, policy.zero_local)
        t_fixed = _fixed_draw(
            seed, modulus, compiled.n_t, f"{label}-t", ctx, policy.zero_individual
        )
        pairs = list(sweep(s_fixed, t_fixed))
        for group in c_groups:
            counts = Counter(
                statistic(answers_for_realization(compiled, ips, s, t, c, policy))
                for s, t in pairs
                for c in group
            )
            yield ctx, group, DistributionTable.from_counts(counts)


def _require_contexts(contexts: int) -> None:
    """A masking check of no context would pass having checked nothing."""
    if contexts < 1:
        raise ValueError(f"a masking check needs at least one context, got {contexts}")


def _uniformity_report(results: Iterable[tuple]) -> UniformityReport:
    """Fold each table's (key, table, failure or None) into one report: it
    passes when no table fails, and its detail is the first failure."""
    tables: Dict[object, DistributionTable] = {}
    detail: Optional[str] = None
    for key, table, failure in results:
        tables[key] = table
        detail = detail or failure
    return UniformityReport(detail is None, tables, detail or "")


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
    _require_contexts(contexts)
    compiled = compile_instance(instance)
    modulus = compiled.field.modulus
    plan = compiled.plan
    s_range, _, c_range = _policy_ranges(policy, modulus)
    results = []
    for client_id in plan.shape.client_ids:
        eta = plan.shape.eta[client_id]
        # A client's local slots are consecutive in s_index.
        first = compiled.s_index[(client_id, 1)]
        db1 = [plan.answer_keys.index((client_id, ell, None)) for ell in range(1, eta + 1)]
        expected_outcomes = list(itertools.product(range(modulus), repeat=eta))
        for ctx, (c_value,), table in _masking_tables(
            compiled, policy, seed, contexts, "db1",
            lambda s, t: [
                (s[:first] + sweep + s[first + eta:], t)
                for sweep in itertools.product(s_range, repeat=eta)
            ],
            [[c] for c in c_range],
            lambda answers: tuple(answers[i] for i in db1),
        ):
            uniform = table.is_uniform_over(expected_outcomes)
            results.append(((client_id, ctx, c_value), table, None if uniform else (
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
    _require_contexts(contexts)
    compiled = compile_instance(instance)
    modulus = compiled.field.modulus
    plan = compiled.plan
    free = free_clients(plan.shape.client_ids)
    if not free:
        return UniformityReport(True, {}, "no non-correlating clients; vacuous")
    _, t_range, c_range = _policy_ranges(policy, modulus)
    expected = list(range(modulus))
    results = []
    for client_id in free:
        for position in range(1, plan.shape.set_size + 1):
            slot = compiled.t_index[(client_id, position)]
            partition, _ = plan.shape.position_location(client_id, position)
            target = plan.answer_keys.index((client_id, partition, position))
            base = plan.answer_keys.index((client_id, partition, None))
            for ctx, (c_value,), table in _masking_tables(
                compiled, policy, seed, contexts, "z",
                lambda s, t: [(s, t[:slot] + (value,) + t[slot + 1:]) for value in t_range],
                [[c] for c in c_range],
                lambda answers: (answers[target] - answers[base]) % modulus,
            ):
                uniform = table.is_uniform_over(expected)
                results.append(((client_id, position, ctx, c_value), table, None if uniform else (
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
    _require_contexts(contexts)
    compiled = compile_instance(instance)
    setup, plan = compiled.setup, compiled.plan
    client_ids = plan.shape.client_ids
    modulus = compiled.field.modulus
    truth = instance.true_intersection()
    _, _, c_range = _policy_ranges(policy, modulus)
    nonzero = list(range(1, modulus))
    results = []

    def indicator_tables(clients, element) -> Iterator[Tuple[int, object, DistributionTable]]:
        """The element's indicator table per context, as the multiplier sweeps."""
        comp = _with_leader(clients, setup.leader, instance.universe)
        lane = comp.plan.leader_elements.index(element)
        return _masking_tables(
            comp, policy, seed, contexts, "ind", lambda s, t: [(s, t)], [c_range],
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
                if policy.fixed_global is None and not table.is_uniform_over(nonzero):
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
        tuple(tuple(query.values) for query in _lay_out(compiled, h).queries.get(address, []))
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
    joint: Counter = Counter()
    for candidate in candidate_sets:
        compiled = _with_leader(
            clients, PartyProfile(leader_id, leader_databases, candidate), universe
        )
        _joint_space_guard(
            len(candidate_sets) * _h_space(compiled) * compiled.space_size(), bound
        )
        draws, _, _ = _raw_realizations(compiled, FAITHFUL, bound, 0, 0)
        index = {key: i for i, key in enumerate(compiled.plan.answer_keys)}
        own_s_slots = [i for (cid, _), i in compiled.s_index.items() if cid == client_id]
        secret = tuple(sorted(candidate))
        # Unmasked, every base-vector tuple is replaced by zeros, so one
        # stands for all: each view's count scales by the same factor.
        h_list = _all_h(compiled) if mask_queries else [
            (bytes(universe.size),) * max(compiled.plan.shape.eta.values())
        ]
        for h_vectors in h_list:
            sent = _lay_out(compiled, h_vectors)
            received = sent.queries.get((client_id, database), [])
            delivered = [index[client_id, q.partition, q.target] for q in received]
            own_t_slots = [compiled.t_slots[i] for i, q in zip(delivered, received) if q.target]
            queries = tuple(query.values for query in received)
            ips = _inner_products(compiled, sent)
            for s_values, t_values, c_value, answers in realization_answers(
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
            for *_, answers in realization_answers(comp, ips, draws(), policy):
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
    """What the leader legitimately holds: query and answer traffic only.

    Randomness-phase messages are excluded by phase; the leader is never
    their origin or destination in a conforming transcript.
    """
    return _canonical(m for m in transcript.messages if m.phase in ("query", "answer"))


def database_view(transcript: SessionTranscript, party_id: int, database: int) -> tuple:
    """Traffic visible at one database: frames it sent or received."""
    dest = (party_id, database)
    return _canonical(m for m in transcript.messages if m.dest == dest or m.origin == dest)
