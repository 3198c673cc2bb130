"""Exhaustive verification of the protocol's exact claims at desk scale.

Every check here enumerates a finite probability space outright and works in
exact rationals; zero means zero. The checks are:

* reliability: decoding equals direct set intersection for every enumerated
  randomness realization (and every base-vector realization when that space
  is small enough to enumerate; base vectors are otherwise sampled, which
  loses nothing because the identity holds realization by realization);
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

Each check has scheme mutations (RandomnessPolicy knobs, unmasked queries)
that make it fail, demonstrating the checks have power.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .client import answer_value, support_sum
from .errors import BoundExceededError
from .field import PrimeField
from .leader import PartitionPlan, decode_values, generate_queries, make_partition_plan
from .model import PartyProfile, Universe, brute_force_intersection
from .protocol import SessionSetup, prepare_session
from .randomness import FAITHFUL, RandomnessPolicy, correlating_client, free_clients
from .seeding import draw_vector, labeled_rng
from .session import SessionTranscript

DEFAULT_BOUND = 10_000_000
DEFAULT_H_ENUM_LIMIT = 729


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
        n = len(outcomes)
        return cls(tuple(sorted(
            ((o, Fraction(1, n)) for o in outcomes), key=lambda item: repr(item[0])
        )))

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

    def plan(self) -> PartitionPlan:
        setup = self.setup()
        return make_partition_plan(setup.leader, setup.clients)

    def true_intersection(self) -> FrozenSet[int]:
        return brute_force_intersection(self.profiles)


# ---------------------------------------------------------------------------
# Randomness-space enumeration
# ---------------------------------------------------------------------------


def randomness_space_size(plan: PartitionPlan, field: PrimeField) -> int:
    """Joint outcomes of (local vectors, free individual values, multiplier)."""
    modulus = field.modulus
    n_s = sum(plan.eta[i] for i in plan.client_ids)
    n_t = len(free_clients(plan.client_ids)) * plan.set_size
    return modulus ** (n_s + n_t) * (modulus - 1)


# ---------------------------------------------------------------------------
# Compiled instance: answer/decode kernel over raw value tuples
# ---------------------------------------------------------------------------


@dataclass
class CompiledInstance:
    """Index maps that let the production kernels run over raw value tuples.

    Inner products per query are constants of the base-vector realization, so
    they are computed once per realization; each answer then goes through
    answer_value and each decode through decode_values, the same functions
    the transports use.
    """

    setup: SessionSetup
    plan: PartitionPlan
    universe: Universe
    s_index: Dict[Tuple[int, int], int]
    t_index: Dict[Tuple[int, int], int]
    n_s: int
    n_t: int
    # (key, client, partition, target_pos, s_idx, t_ref); t_ref is None for
    # database-1 answers, ("free", idx) or ("corr", position) otherwise.
    answer_layout: List[Tuple[Tuple[int, int, Optional[int]], int, int, Optional[int], int, Optional[Tuple[str, int]]]]
    corr_free_indices: Dict[int, List[int]]

    @property
    def field(self) -> PrimeField:
        return self.setup.field

    def space_size(self) -> int:
        modulus = self.field.modulus
        return modulus ** (self.n_s + self.n_t) * (modulus - 1)


def compile_instance(instance: AuditInstance) -> CompiledInstance:
    setup = instance.setup()
    plan = make_partition_plan(setup.leader, setup.clients)
    s_index: Dict[Tuple[int, int], int] = {}
    for client_id in plan.client_ids:
        for ell in range(1, plan.eta[client_id] + 1):
            s_index[(client_id, ell)] = len(s_index)
    free = free_clients(plan.client_ids)
    corr = correlating_client(plan.client_ids)
    t_index: Dict[Tuple[int, int], int] = {}
    for client_id in free:
        for position in range(1, plan.set_size + 1):
            t_index[(client_id, position)] = len(t_index)
    layout = []
    for client_id in plan.client_ids:
        for ell in range(1, plan.eta[client_id] + 1):
            layout.append(
                ((client_id, ell, None), client_id, ell, None, s_index[(client_id, ell)], None)
            )
        for position in range(1, plan.set_size + 1):
            partition, _ = plan.position_location(client_id, position)
            if client_id == corr:
                t_ref: Optional[Tuple[str, int]] = ("corr", position)
            else:
                t_ref = ("free", t_index[(client_id, position)])
            layout.append(
                (
                    (client_id, partition, position),
                    client_id,
                    partition,
                    position,
                    s_index[(client_id, partition)],
                    t_ref,
                )
            )
    corr_free = {
        position: [t_index[(client_id, position)] for client_id in free]
        for position in range(1, plan.set_size + 1)
    }
    return CompiledInstance(
        setup=setup,
        plan=plan,
        universe=instance.universe,
        s_index=s_index,
        t_index=t_index,
        n_s=len(s_index),
        n_t=len(t_index),
        answer_layout=layout,
        corr_free_indices=corr_free,
    )


def query_inner_products(
    compiled: CompiledInstance, h_vectors: Sequence[Sequence[int]]
) -> Dict[Tuple[int, int, Optional[int]], int]:
    """Inner product of each query with its client's incidence vector."""
    modulus = compiled.field.modulus
    plan = compiled.plan
    sets = {p.party_id: p.data_set for p in compiled.setup.clients}
    sums = {
        client_id: support_sum(sorted(elem - 1 for elem in data_set))
        for client_id, data_set in sets.items()
    }
    ips: Dict[Tuple[int, int, Optional[int]], int] = {}
    for key, client_id, partition, target_pos, _, _ in compiled.answer_layout:
        total = sums[client_id](h_vectors[partition - 1])
        if target_pos is not None:
            element = plan.leader_elements[target_pos - 1]
            if element in sets[client_id]:
                total += 1
        ips[key] = total % modulus
    return ips


def answers_for_realization(
    compiled: CompiledInstance,
    ips: Dict[Tuple[int, int, Optional[int]], int],
    s_values: Sequence[int],
    t_values: Sequence[int],
    c_value: int,
    policy: RandomnessPolicy = FAITHFUL,
) -> Dict[Tuple[int, int, Optional[int]], int]:
    """All answer values for one randomness realization, via answer_value."""
    modulus = compiled.field.modulus
    num_parties = len(compiled.plan.client_ids) + 1
    if policy.zero_individual:
        corr_t = {k: 0 for k in compiled.corr_free_indices}
    else:
        target = (modulus - (num_parties - 1) + policy.correlation_offset) % modulus
        corr_t = {
            position: (target - sum(t_values[i] for i in indices)) % modulus
            for position, indices in compiled.corr_free_indices.items()
        }
    out: Dict[Tuple[int, int, Optional[int]], int] = {}
    for key, _, _, _, s_idx, t_ref in compiled.answer_layout:
        if t_ref is None:
            t_val = 0
        elif t_ref[0] == "free":
            t_val = t_values[t_ref[1]]
        else:
            t_val = corr_t[t_ref[1]]
        out[key] = answer_value(ips[key], s_values[s_idx], t_val, c_value, modulus)
    return out


def _h_space(compiled: CompiledInstance) -> int:
    kappa = max(compiled.plan.eta.values())
    return compiled.field.modulus ** (compiled.universe.size * kappa)


def _h_realizations(
    compiled: CompiledInstance, seed: int, samples: int, enum_limit: int
) -> Tuple[List[Tuple[Tuple[int, ...], ...]], bool]:
    """All base-vector tuples when the space is small, else seeded samples."""
    kappa = max(compiled.plan.eta.values())
    modulus = compiled.field.modulus
    size = compiled.universe.size
    if _h_space(compiled) <= enum_limit:
        vectors = list(itertools.product(range(modulus), repeat=size))
        return [tuple(combo) for combo in itertools.product(vectors, repeat=kappa)], True
    out = []
    for index in range(samples):
        out.append(
            tuple(
                tuple(draw_vector(seed, modulus, size, "audit-h", index, ell))
                for ell in range(1, kappa + 1)
            )
        )
    return out, False


def _raw_realizations(
    compiled: CompiledInstance,
    policy: RandomnessPolicy,
    bound: int,
    sample_beyond_bound: int,
    seed: int,
) -> Tuple[Iterator[Tuple[Tuple[int, ...], Tuple[int, ...], int]], int, bool]:
    """Raw (s, t, c) tuples: exhaustive within the bound, else seeded samples."""
    modulus = compiled.field.modulus
    s_range = [0] if policy.zero_local else list(range(modulus))
    t_range = [0] if policy.zero_individual else list(range(modulus))
    if policy.fixed_global is not None:
        c_range = [policy.fixed_global % modulus]
    else:
        c_range = list(range(1, modulus))
    space = (
        len(s_range) ** compiled.n_s * len(t_range) ** compiled.n_t * len(c_range)
    )
    if space <= bound:
        def exhaustive() -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...], int]]:
            for s_values in itertools.product(s_range, repeat=compiled.n_s):
                for t_values in itertools.product(t_range, repeat=compiled.n_t):
                    for c_value in c_range:
                        yield s_values, t_values, c_value

        return exhaustive(), space, True
    if sample_beyond_bound <= 0:
        raise BoundExceededError(
            f"randomness space has {space} outcomes, above the bound {bound}"
        )

    def sampled() -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...], int]]:
        rng = labeled_rng(seed, "audit-bundle-sample")
        for _ in range(sample_beyond_bound):
            s_values = tuple(rng.choice(s_range) for _ in range(compiled.n_s))
            t_values = tuple(rng.choice(t_range) for _ in range(compiled.n_t))
            yield s_values, t_values, rng.choice(c_range)

    return sampled(), space, False


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
    cases = 0
    failures: List[str] = []
    exhaustive = True
    space = 0
    for h_vectors in h_list:
        ips = query_inner_products(compiled, h_vectors)
        tuples, space, exhaustive = _raw_realizations(
            compiled, policy, bound, sample_beyond_bound, seed
        )
        for s_values, t_values, c_value in tuples:
            answers = answers_for_realization(
                compiled, ips, s_values, t_values, c_value, policy
            )
            decoded, _ = decode_values(plan, answers, modulus)
            cases += 1
            if decoded != expected:
                failures.append(
                    f"h={h_vectors} s={s_values} t={t_values} c={c_value}: "
                    f"decoded {sorted(decoded)}, true {sorted(expected)}"
                )
                if len(failures) >= 5:
                    return ReliabilityReport(
                        False, cases, space, exhaustive, h_exhaustive, failures
                    )
    return ReliabilityReport(
        not failures, cases, space, exhaustive, h_exhaustive, failures
    )


# ---------------------------------------------------------------------------
# Masking lemma checks
# ---------------------------------------------------------------------------


@dataclass
class UniformityReport:
    passed: bool
    tables: Dict[object, DistributionTable]
    detail: str = ""


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
    modulus = compiled.field.modulus
    plan = compiled.plan
    s_range = [0] if policy.zero_local else list(range(modulus))
    tables: Dict[object, DistributionTable] = {}
    passed = True
    detail = ""
    for client_id in plan.client_ids:
        eta = plan.eta[client_id]
        slots = [compiled.s_index[(client_id, ell)] for ell in range(1, eta + 1)]
        expected_outcomes = list(itertools.product(range(modulus), repeat=eta))
        for ctx in range(contexts):
            h_vectors = tuple(
                tuple(draw_vector(seed, modulus, compiled.universe.size, "db1-h", ctx, ell))
                for ell in range(1, max(plan.eta.values()) + 1)
            )
            ips = query_inner_products(compiled, h_vectors)
            t_fixed = tuple(
                draw_vector(seed, modulus, compiled.n_t, "db1-t", ctx)
            ) if compiled.n_t else ()
            for c_value in range(1, modulus):
                counts: Dict[Tuple[int, ...], int] = {}
                for sweep in itertools.product(s_range, repeat=eta):
                    s_values = [0] * compiled.n_s
                    for idx, value in zip(slots, sweep):
                        s_values[idx] = value
                    answers = answers_for_realization(
                        compiled, ips, s_values, t_fixed, c_value, policy
                    )
                    outcome = tuple(
                        answers[(client_id, ell, None)] for ell in range(1, eta + 1)
                    )
                    counts[outcome] = counts.get(outcome, 0) + 1
                table = DistributionTable.from_counts(counts)
                key = (client_id, ctx, c_value)
                tables[key] = table
                if not table.is_uniform_over(expected_outcomes):
                    passed = False
                    detail = detail or (
                        f"client {client_id}: database-1 answers not uniform "
                        f"(context {ctx}, multiplier {c_value})"
                    )
    return UniformityReport(passed, tables, detail)


def check_z_uniformity(
    instance: AuditInstance,
    policy: RandomnessPolicy = FAITHFUL,
    seed: int = 0,
    contexts: int = 2,
) -> UniformityReport:
    """Per-element subtraction statistics of non-correlating clients must be
    uniform as their free individual value sweeps; vacuous with two parties."""
    compiled = compile_instance(instance)
    modulus = compiled.field.modulus
    plan = compiled.plan
    free = free_clients(plan.client_ids)
    tables: Dict[object, DistributionTable] = {}
    if not free:
        return UniformityReport(True, tables, "no non-correlating clients; vacuous")
    t_range = [0] if policy.zero_individual else list(range(modulus))
    expected = list(range(modulus))
    passed = True
    detail = ""
    for client_id in free:
        for position in range(1, plan.set_size + 1):
            sweep_idx = compiled.t_index[(client_id, position)]
            partition, _ = plan.position_location(client_id, position)
            for ctx in range(contexts):
                h_vectors = tuple(
                    tuple(draw_vector(seed, modulus, compiled.universe.size, "z-h", ctx, ell))
                    for ell in range(1, max(plan.eta.values()) + 1)
                )
                ips = query_inner_products(compiled, h_vectors)
                s_fixed = tuple(draw_vector(seed, modulus, compiled.n_s, "z-s", ctx))
                t_fixed = list(
                    draw_vector(seed, modulus, compiled.n_t, "z-t", ctx)
                )
                for c_value in range(1, modulus):
                    counts: Dict[int, int] = {}
                    for value in t_range:
                        t_values = list(t_fixed)
                        t_values[sweep_idx] = value
                        answers = answers_for_realization(
                            compiled, ips, s_fixed, t_values, c_value, policy
                        )
                        z = (
                            answers[(client_id, partition, position)]
                            - answers[(client_id, partition, None)]
                        ) % modulus
                        counts[z] = counts.get(z, 0) + 1
                    table = DistributionTable.from_counts(counts)
                    tables[(client_id, position, ctx, c_value)] = table
                    if not table.is_uniform_over(expected):
                        passed = False
                        detail = detail or (
                            f"client {client_id}, position {position}: subtraction "
                            f"statistic not uniform (context {ctx}, multiplier {c_value})"
                        )
    return UniformityReport(passed, tables, detail)


@dataclass
class IndicatorReport:
    passed: bool
    tables: Dict[object, DistributionTable]
    detail: str = ""


def check_indicator_privacy(
    instance: AuditInstance,
    policy: RandomnessPolicy = FAITHFUL,
    seed: int = 0,
    contexts: int = 2,
) -> IndicatorReport:
    """Indicators vanish on intersection elements and are uniform otherwise.

    For every leader-set element outside the intersection and every deficient
    column sum, the indicator's distribution over the multiplier must be the
    same exact uniform table over the nonzero residues.
    """
    compiled = compile_instance(instance)
    setup = compiled.setup
    plan = compiled.plan
    modulus = compiled.field.modulus
    num_clients = len(plan.client_ids)
    truth = instance.true_intersection()
    if policy.fixed_global is not None:
        c_range = [policy.fixed_global % modulus]
    else:
        c_range = list(range(1, modulus))
    nonzero = list(range(1, modulus))
    tables: Dict[object, DistributionTable] = {}
    passed = True
    detail = ""

    def indicator_table(profiles_variant, element, ctx) -> DistributionTable:
        variant = AuditInstance(
            profiles=profiles_variant,
            universe=instance.universe,
            leader_override=plan.leader_id,
        )
        comp = compile_instance(variant)
        h_vectors = tuple(
            tuple(draw_vector(seed, modulus, comp.universe.size, "ind-h", ctx, ell))
            for ell in range(1, max(comp.plan.eta.values()) + 1)
        )
        ips = query_inner_products(comp, h_vectors)
        s_fixed = tuple(draw_vector(seed, modulus, comp.n_s, "ind-s", ctx))
        t_fixed = tuple(draw_vector(seed, modulus, comp.n_t, "ind-t", ctx))
        counts: Dict[int, int] = {}
        for c_value in c_range:
            answers = answers_for_realization(comp, ips, s_fixed, t_fixed, c_value, policy)
            _, indicators = decode_values(comp.plan, answers, modulus)
            value = indicators[element]
            counts[value] = counts.get(value, 0) + 1
        return DistributionTable.from_counts(counts)

    by_id = {p.party_id: p for p in instance.profiles}
    for position, element in enumerate(plan.leader_elements, start=1):
        if element in truth:
            for ctx in range(contexts):
                table = indicator_table(instance.profiles, element, ctx)
                tables[(element, "intersection", ctx)] = table
                if table.as_dict() != {0: Fraction(1)}:
                    passed = False
                    detail = detail or f"element {element}: indicator not always zero"
            continue
        # Sweep every deficient column sum by rewriting which clients hold
        # the element; the indicator table must not depend on the sum.
        reference: Optional[DistributionTable] = None
        for sigma in range(num_clients):
            holders = plan.client_ids[:sigma]
            variant = []
            for profile in instance.profiles:
                if profile.party_id == plan.leader_id:
                    variant.append(profile)
                    continue
                elements = set(profile.data_set)
                if profile.party_id in holders:
                    elements.add(element)
                else:
                    elements.discard(element)
                variant.append(
                    PartyProfile(profile.party_id, profile.num_databases, frozenset(elements))
                )
            for ctx in range(contexts):
                table = indicator_table(tuple(variant), element, ctx)
                tables[(element, sigma, ctx)] = table
                if policy.fixed_global is None and not table.is_uniform_over(nonzero):
                    passed = False
                    detail = detail or (
                        f"element {element}, column sum {sigma}: indicator not "
                        f"uniform over nonzero residues"
                    )
                if reference is None:
                    reference = table
                elif table != reference:
                    passed = False
                    detail = detail or (
                        f"element {element}: indicator table differs across "
                        f"deficient column sums"
                    )
    return IndicatorReport(passed, tables, detail)


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
    profiles = tuple(sorted(list(clients) + [leader], key=lambda p: p.party_id))
    instance = AuditInstance(profiles, universe, leader_override=leader.party_id)
    compiled = compile_instance(instance)
    plan = compiled.plan
    modulus = compiled.field.modulus
    kappa = max(plan.eta.values())
    h_space = modulus ** (universe.size * kappa)
    _joint_space_guard(h_space, bound)
    slots: List[Tuple[int, Optional[int]]] = []
    if database == 1:
        slots = [(ell, None) for ell in range(1, plan.eta[client_id] + 1)]
    else:
        for position in plan.positions_of_database(client_id, database):
            partition, _ = plan.position_location(client_id, position)
            slots.append((partition, plan.leader_elements[position - 1]))
        slots.sort()
    counts: Dict[Tuple, int] = {}
    vectors = list(itertools.product(range(modulus), repeat=universe.size))
    for h_combo in itertools.product(vectors, repeat=kappa):
        outcome = []
        for partition, element in slots:
            vec = list(h_combo[partition - 1])
            if element is not None:
                vec[element - 1] = (vec[element - 1] + 1) % modulus
            outcome.append(tuple(vec))
        outcome_t = tuple(outcome)
        counts[outcome_t] = counts.get(outcome_t, 0) + 1
    return DistributionTable.from_counts(counts)


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

    @classmethod
    def from_joint(cls, joint: Dict[Tuple[object, object], Fraction]) -> "MIResult":
        secret_marginal: Dict[object, Fraction] = {}
        view_marginal: Dict[object, Fraction] = {}
        for (secret, view), p in joint.items():
            secret_marginal[secret] = secret_marginal.get(secret, Fraction(0)) + p
            view_marginal[view] = view_marginal.get(view, Fraction(0)) + p
        total = sum(joint.values(), Fraction(0))
        if total != 1:
            raise ValueError(f"joint distribution sums to {total}, not 1")
        is_zero = True
        bits = 0.0
        for (secret, view), p in joint.items():
            if p == 0:
                continue
            product = secret_marginal[secret] * view_marginal[view]
            if p != product:
                is_zero = False
            bits += float(p) * math.log2(float(p / product))
        if is_zero:
            bits = 0.0
        return cls(
            is_zero=is_zero,
            bits=bits,
            joint_outcomes=len(joint),
            secret_outcomes=len(secret_marginal),
            view_outcomes=len(view_marginal),
        )


def mutual_information(joint: Dict[Tuple[object, object], Fraction]) -> MIResult:
    """Exact mutual information of an enumerated joint distribution.

    Independence (zero information) is decided exactly on the rationals;
    the bits figure is a float report, nonzero only when independence fails.
    """
    return MIResult.from_joint(joint)


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
    sizes = {len(s) for s in candidate_sets}
    if len(sizes) != 1:
        raise ValueError("candidate leader sets must share one public cardinality")
    if len(set(candidate_sets)) != len(candidate_sets):
        raise ValueError("candidate leader sets must be distinct")
    joint: Dict[Tuple[object, object], Fraction] = {}
    prior = Fraction(1, len(candidate_sets))
    for candidate in candidate_sets:
        profiles = tuple(sorted(
            list(clients) + [PartyProfile(leader_id, leader_databases, candidate)],
            key=lambda p: p.party_id,
        ))
        instance = AuditInstance(profiles, universe, leader_override=leader_id)
        compiled = compile_instance(instance)
        modulus = compiled.field.modulus
        plan = compiled.plan
        kappa = max(plan.eta.values())
        h_space = modulus ** (universe.size * kappa)
        bundle_space = compiled.space_size()
        _joint_space_guard(len(candidate_sets) * h_space * bundle_space, bound)
        weight = prior * Fraction(1, h_space) * Fraction(1, bundle_space)
        own_profile = next(p for p in clients if p.party_id == client_id)
        delivered = [
            (key, partition, target_pos)
            for key, cid, partition, target_pos, _, _ in compiled.answer_layout
            if cid == client_id
            and (
                (target_pos is None and database == 1)
                or (
                    target_pos is not None
                    and plan.position_location(client_id, target_pos)[1] == database
                )
            )
        ]
        s_slots = [
            compiled.s_index[(client_id, ell)]
            for ell in range(1, plan.eta[client_id] + 1)
        ]
        vectors = list(itertools.product(range(modulus), repeat=universe.size))
        for h_combo in itertools.product(vectors, repeat=kappa):
            if mask_queries:
                h_vectors = h_combo
            else:
                h_vectors = tuple((0,) * universe.size for _ in range(kappa))
            ips = query_inner_products(compiled, h_vectors)
            query_view = []
            for key, partition, target_pos in delivered:
                vec = list(h_vectors[partition - 1])
                if target_pos is not None:
                    element = plan.leader_elements[target_pos - 1]
                    vec[element - 1] = (vec[element - 1] + 1) % modulus
                query_view.append((partition, target_pos, tuple(vec)))
            query_view_t = tuple(query_view)
            for s_values in itertools.product(range(modulus), repeat=compiled.n_s):
                for t_values in itertools.product(range(modulus), repeat=compiled.n_t):
                    for c_value in range(1, modulus):
                        answers = answers_for_realization(
                            compiled, ips, s_values, t_values, c_value
                        )
                        answer_view = tuple(answers[key] for key, _, _ in delivered)
                        if database == 1 or client_id != correlating_client(plan.client_ids):
                            own_t = tuple(
                                t_values[compiled.t_index[(client_id, pos)]]
                                for pos in plan.positions_of_database(client_id, database)
                            ) if database >= 2 else ()
                        else:
                            target = (modulus - len(plan.client_ids)) % modulus
                            own_t = tuple(
                                (
                                    target
                                    - sum(
                                        t_values[i]
                                        for i in compiled.corr_free_indices[pos]
                                    )
                                ) % modulus
                                for pos in plan.positions_of_database(client_id, database)
                            )
                        own_s = tuple(s_values[i] for i in s_slots)
                        view = (
                            query_view_t,
                            answer_view,
                            tuple(sorted(own_profile.data_set)),
                            own_s,
                            own_t,
                            c_value,
                        )
                        key2 = (tuple(sorted(candidate)), view)
                        joint[key2] = joint.get(key2, Fraction(0)) + weight
    return mutual_information(joint)


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
    set ranges uniformly over all subsets of the universe.
    """
    client_ids = [cid for cid, _ in client_shapes]
    subsets = [
        frozenset(
            elem
            for elem, keep in zip(range(1, universe.size + 1), combo)
            if keep
        )
        for combo in itertools.product((0, 1), repeat=universe.size)
    ]
    # One compiled geometry serves every client-set combination: the plan
    # depends only on the leader set and database counts.
    profiles_probe = tuple(sorted(
        [PartyProfile(cid, dbs, frozenset()) for cid, dbs in client_shapes]
        + [leader],
        key=lambda p: p.party_id,
    ))
    instance = AuditInstance(profiles_probe, universe, leader_override=leader.party_id)
    compiled = compile_instance(instance)
    modulus = compiled.field.modulus
    plan = compiled.plan
    kappa = max(plan.eta.values())
    h_space = modulus ** (universe.size * kappa)
    bundle_space = compiled.space_size()
    combos = len(subsets) ** len(client_ids)
    _joint_space_guard(combos * h_space * bundle_space, bound)

    # Conditioning is per intersection outcome, and the weights within each
    # cell are renormalized at the end, so a uniform weight per enumerated
    # realization is all that is needed.
    joints: Dict[FrozenSet[int], Dict[Tuple[object, object], Fraction]] = {}
    vectors = list(itertools.product(range(modulus), repeat=universe.size))
    layout_keys = [key for key, *_ in compiled.answer_layout]
    c_values = (
        [policy.fixed_global % modulus]
        if policy.fixed_global is not None
        else list(range(1, modulus))
    )
    for combo in itertools.product(subsets, repeat=len(client_ids)):
        sets_by_id = dict(zip(client_ids, combo))
        intersection = frozenset(leader.data_set)
        for s in combo:
            intersection &= s
        outside = [
            elem for elem in range(1, universe.size + 1) if elem not in intersection
        ]
        secret = tuple(
            (elem, tuple(1 if elem in sets_by_id[cid] else 0 for cid in client_ids))
            for elem in outside
        )
        profiles = tuple(sorted(
            [
                PartyProfile(cid, dbs, sets_by_id[cid])
                for (cid, dbs) in client_shapes
            ]
            + [leader],
            key=lambda p: p.party_id,
        ))
        variant = AuditInstance(profiles, universe, leader_override=leader.party_id)
        comp = compile_instance(variant)
        joint = joints.setdefault(intersection, {})
        for h_combo in itertools.product(vectors, repeat=kappa):
            ips = query_inner_products(comp, h_combo)
            for s_values in itertools.product(range(modulus), repeat=comp.n_s):
                for t_values in itertools.product(range(modulus), repeat=comp.n_t):
                    for c_value in c_values:
                        answers = answers_for_realization(
                            comp, ips, s_values, t_values, c_value, policy
                        )
                        # The query tuple is a fixed bijection of the base
                        # vectors here (the leader set is the conditioning
                        # instance's own), so the base vectors stand in for
                        # the delivered queries in the view.
                        view = (
                            tuple(sorted(leader.data_set)),
                            h_combo,
                            tuple(answers[key] for key in layout_keys),
                        )
                        key2 = (secret, view)
                        joint[key2] = joint.get(key2, Fraction(0)) + Fraction(1)
    per: Dict[FrozenSet[int], MIResult] = {}
    bits_max = 0.0
    all_zero = True
    for intersection, joint in joints.items():
        total = sum(joint.values(), Fraction(0))
        normalized = {key: p / total for key, p in joint.items()}
        result = mutual_information(normalized)
        per[intersection] = result
        bits_max = max(bits_max, result.bits)
        all_zero = all_zero and result.is_zero
    return ClientPrivacyReport(all_zero, per, bits_max)


# ---------------------------------------------------------------------------
# Transcript views
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ViewSpec:
    """Which variables constitute a party's legitimate view.

    kind "leader": the query and answer traffic plus the leader's own set
    (its private input). kind "database": the frames one database sent or
    received plus its party's set and its own randomness slots. Everything
    observable is drawn from transcript fields, scoped by phase tags.
    """

    kind: str  # "leader" | "database"
    client_id: Optional[int] = None
    database: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("leader", "database"):
            raise ValueError(f"unknown view kind {self.kind!r}")
        if self.kind == "database" and (self.client_id is None or self.database is None):
            raise ValueError("database views need client_id and database")

    def extract(self, transcript: SessionTranscript) -> tuple:
        if self.kind == "leader":
            return leader_view(transcript)
        return database_view(transcript, self.client_id, self.database)


def leader_view(transcript: SessionTranscript) -> tuple:
    """What the leader legitimately holds: query and answer traffic only.

    Randomness-phase messages are excluded by phase tag; the leader is never
    their origin or destination in a conforming transcript.
    """
    msgs = [
        m.to_dict()
        for m in transcript.messages
        if m.phase in ("query", "answer")
    ]
    return (
        tuple(sorted((tuple(sorted(d.items(), key=str)) for d in msgs), key=str)),
    )


def database_view(transcript: SessionTranscript, party_id: int, database: int) -> tuple:
    """Traffic visible at one database: frames it sent or received."""
    dest = (party_id, database)
    msgs = [
        m.to_dict()
        for m in transcript.messages
        if m.dest == dest or m.origin == dest
    ]
    return (
        tuple(sorted((tuple(sorted(d.items(), key=str)) for d in msgs), key=str)),
    )
