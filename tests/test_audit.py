"""Exact enumeration audits: reliability, masking lemmas, mutual information."""

import itertools
import operator
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from mppsi import audit
from mppsi.audit import (
    DEFAULT_BOUND,
    DEFAULT_H_ENUM_LIMIT,
    AuditInstance,
    DistributionTable,
    ReliabilityReport,
    _h_realizations,
    _raw_realizations,
    check_db1_uniformity,
    check_indicator_privacy,
    check_reliability,
    check_z_uniformity,
    client_privacy_mi,
    compile_instance,
    database_view,
    individual_values,
    leader_privacy_mi,
    answers_for_realization,
    leader_view,
    query_inner_products,
)
from mppsi.client import answer_value
from mppsi.errors import BoundExceededError
from mppsi.leader import decode_indicators, generate_queries
from mppsi.model import PartyProfile, Universe, brute_force_intersection
from mppsi.protocol import make_session_id
from mppsi.randomness import FAITHFUL, RandomnessPolicy
from mppsi.seeding import labeled_rng
from mppsi.session import deal, load_transcript, run_memory_session
from mppsi.config import SessionConfig

from test_leader import queries_to, reference_indicators


def profile(pid, elems, dbs):
    return PartyProfile(pid, dbs, frozenset(elems))


def flatten(levels):
    """The (s, t, c) realizations of a stream of levels, in walk order: per
    level, its t-blocks' groups, one row of t values after another, each
    under every multiplier of its block."""
    return [
        (s, tuple(ts[row * len(ts) // rows:(row + 1) * len(ts) // rows]), c)
        for s, blocks in levels
        for rows, ts, c_values, _ in blocks
        for row in range(rows)
        for c in c_values
    ]


def levels_of(compiled, levels, policy):
    """Hand-built levels of (s, groups), each group a t tuple with its
    multipliers, as the stream carries them: (s, its t-blocks)."""
    return [(s, list(audit._t_blocks(compiled, groups, policy))) for s, groups in levels]


def uniform(outcomes):
    """The uniform table over the distinct outcomes, the masking checks' reference."""
    return DistributionTable.from_counts(dict.fromkeys(outcomes, 1))


def row_builds(monkeypatch):
    """The t tuples individual_values is called with from now on, in order:
    one call per t row the auditor builds."""
    calls = []
    real = audit.individual_values

    def counting(compiled, t_values, policy):
        calls.append(t_values)
        return real(compiled, t_values, policy)

    monkeypatch.setattr(audit, "individual_values", counting)
    return calls


HOMOGENEOUS = AuditInstance(
    profiles=(
        profile(1, {1, 2}, 3),
        profile(2, {1, 3}, 3),
        profile(3, {1, 4}, 3),
    ),
    universe=Universe(4),
    leader_override=3,
)

HETEROGENEOUS = AuditInstance(
    profiles=(
        profile(1, {1, 2, 3, 4}, 2),
        profile(2, {1, 2, 4}, 3),
        profile(3, {1, 3, 4}, 5),
        profile(4, {1, 4, 5}, 4),
    ),
    universe=Universe(5),
    leader_override=4,
)

TWO_PARTY = AuditInstance(
    profiles=(profile(1, {1}, 2), profile(2, {1}, 2)),
    universe=Universe(1),
    leader_override=2,
)

# L = 5 with n_s = 3 and n_t = 2: two free clients, so each t tuple's
# completion sums two terms, and 12,500 exhaustive realizations per
# base-vector set.
FOUR_PARTY = AuditInstance(
    profiles=(
        profile(1, {1}, 2),
        profile(2, {1}, 2),
        profile(3, set(), 2),
        profile(4, {1}, 2),
    ),
    universe=Universe(1),
    leader_override=1,
)

# The benchmark's shape: three parties of two databases, K = 6, R = 3.
M3_N2_K6_R3 = tuple(
    AuditInstance(
        profiles=tuple(profile(i + 1, sets[i], 2) for i in range(3)),
        universe=Universe(6),
        leader_override=1,
    )
    for sets in (
        ({1, 2, 3}, {1, 2, 4, 5}, {1, 3, 6}),
        ({2, 4, 6}, {2, 4, 5}, {1, 2, 4, 6}),
        ({1, 5, 6}, {2, 3}, {1, 2, 3, 4, 5}),
    )
)


POLICIES = (
    FAITHFUL,
    RandomnessPolicy(zero_local=True),
    RandomnessPolicy(zero_individual=True),
    RandomnessPolicy(correlation_offset=1),
    RandomnessPolicy(fixed_global=1),
)


class TestEnumeration:
    def test_homogeneous_space_size(self):
        compiled = compile_instance(HOMOGENEOUS)
        # Slot-count oracle: two local slots, two free individual slots, one
        # nonzero multiplier choice out of two.
        modulus = compiled.field.modulus
        expected = modulus**2 * modulus**2 * (modulus - 1)
        assert expected == 162
        assert compiled.space_size() == expected
        draws, space, exhaustive = _raw_realizations(
            compiled, FAITHFUL, DEFAULT_BOUND, 0, 0
        )
        realizations = flatten(draws())
        assert exhaustive and space == expected
        # Every realization exactly once: the uniform weights sum to one.
        assert len(realizations) == len(set(realizations)) == expected

    def test_two_party_space_size(self):
        compiled = compile_instance(TWO_PARTY)
        assert compiled.field.modulus == 2
        assert compiled.space_size() == 2
        draws, space, _ = _raw_realizations(compiled, FAITHFUL, DEFAULT_BOUND, 0, 0)
        realizations = flatten(draws())
        assert space == len(realizations) == 2
        assert all(c == 1 for _, _, c in realizations)

    def test_bound_exceeded(self):
        with pytest.raises(BoundExceededError):
            _raw_realizations(compile_instance(HOMOGENEOUS), FAITHFUL, 10, 0, 0)

    @pytest.mark.parametrize(
        "instance",
        [HOMOGENEOUS, TWO_PARTY, FOUR_PARTY],
        ids=["homogeneous", "two-party", "four-party"],
    )
    @pytest.mark.parametrize(
        "policy", [FAITHFUL, RandomnessPolicy(zero_local=True)], ids=["faithful", "zero_local"]
    )
    def test_exhaustive_levels_flatten_to_product_order(self, instance, policy):
        compiled = compile_instance(instance)
        s_range, t_range, c_range = audit._policy_ranges(policy, compiled.field.modulus)
        draws, _, _ = _raw_realizations(compiled, policy, DEFAULT_BOUND, 0, 0)
        assert flatten(draws()) == list(itertools.product(
            itertools.product(s_range, repeat=compiled.n_s),
            itertools.product(t_range, repeat=compiled.n_t),
            c_range,
        ))

    def test_sampled_levels_flatten_to_the_seeded_draw_sequence(self):
        # One level per sample, with one t and one c, drawn s, then t, then
        # c from one seeded RNG that runs on from call to call.
        compiled = compile_instance(HETEROGENEOUS)
        draws, _, exhaustive = _raw_realizations(compiled, FAITHFUL, 10**4, 7, 3)
        assert not exhaustive
        rng = labeled_rng(3, "audit-bundle-sample")
        modulus = compiled.field.modulus
        values, nonzero = list(range(modulus)), list(range(1, modulus))
        for _ in range(2):
            levels = list(draws())
            assert [len(blocks) for _, blocks in levels] == [1] * 7
            assert [(rows, len(c_values)) for _, [(rows, _, c_values, _)] in levels] == [(1, 1)] * 7
            expected = []
            for _ in range(7):
                s = tuple(rng.choice(values) for _ in range(compiled.n_s))
                t = tuple(rng.choice(values) for _ in range(compiled.n_t))
                expected.append((s, t, rng.choice(nonzero)))
            assert flatten(levels) == expected

    def test_distribution_table_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DistributionTable(((0, Fraction(1, 2)),))


class TestDistributionTable:
    def test_a_short_sum_names_it(self):
        with pytest.raises(ValueError, match="probabilities sum to 5/6, not 1"):
            DistributionTable(((0, Fraction(1, 2)), (1, Fraction(1, 3))))

    def test_a_repeated_outcome_is_refused(self):
        # As a dict it would be {0: 1/2}: half the mass gone.
        with pytest.raises(ValueError, match="repeated outcome"):
            DistributionTable(((0, Fraction(1, 2)), (0, Fraction(1, 2))))

    def test_a_probability_outside_zero_one_is_refused(self):
        # The two sum to 1, but neither is a probability.
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\]"):
            DistributionTable(((0, Fraction(3, 2)), (1, Fraction(-1, 2))))

    def test_an_inexact_probability_is_refused(self):
        with pytest.raises(ValueError, match="exact rationals"):
            DistributionTable(((0, 1.0),))

    def test_uniform_over_no_outcomes_is_an_error(self):
        # A masking check's reference table over no outcomes sums to 0.
        with pytest.raises(ValueError, match="probabilities sum to 0, not 1"):
            uniform([])

    def test_equal_counts_share_one_fraction(self):
        table = DistributionTable.from_counts({"a": 2, "b": 1, "c": 2, "d": 3})
        probs = table.as_dict()
        assert probs["a"] is probs["c"] == Fraction(1, 4)


def fail_at_cases(monkeypatch, instance, bad_cases):
    """Decode wrongly at these case numbers (1-based, in walk order)
    of an instance whose base vectors are enumerated: the first indicator
    lane of each such realization flips between zero and nonzero. A batch
    decodes its vectors in its own order, so each one's case number is read
    from the batch being decoded."""
    compiled = compile_instance(instance)
    h_list, exhaustive_h = _h_realizations(compiled, 0, 2, DEFAULT_H_ENUM_LIMIT)
    assert exhaustive_h
    per_set = compiled.space_size()
    lanes = len(compiled.plan.leader_elements)
    at = {}
    real_ips, real_batches = audit.query_inner_products, audit._answer_batches
    real_decode = audit.decode_indicators

    def query_inner_products(compiled, h_vectors):
        at["case"] = h_list.index(h_vectors) * per_set
        return real_ips(compiled, h_vectors)

    def answer_batches(*args):
        for batch in real_batches(*args):
            at["batch"] = batch
            yield batch

    def decode_indicators(plan, answers, modulus):
        indicators = bytearray(real_decode(plan, answers, modulus))
        for *_, index in audit._in_stream_order(at["batch"]):
            at["case"] += 1
            if at["case"] in bad_cases:
                start = index * lanes
                indicators[start] = 0 if indicators[start] else 1
        return bytes(indicators)

    monkeypatch.setattr(audit, "query_inner_products", query_inner_products)
    monkeypatch.setattr(audit, "_answer_batches", answer_batches)
    monkeypatch.setattr(audit, "decode_indicators", decode_indicators)


class TestReliability:
    def test_homogeneous_exhaustive(self):
        report = check_reliability(HOMOGENEOUS, h_samples=2)
        assert report.passed
        assert report.space == 162
        assert report.exhaustive_randomness
        assert report.cases >= 162 * 2

    def test_heterogeneous_with_sampling(self):
        report = check_reliability(
            HETEROGENEOUS, bound=10**6, h_samples=2, sample_beyond_bound=400
        )
        assert report.passed
        assert not report.exhaustive_randomness
        assert report.cases == 800

    def test_two_party(self):
        report = check_reliability(TWO_PARTY)
        assert report.passed and report.exhaustive_h

    @pytest.mark.parametrize(
        "instance, sets, space",
        [(HOMOGENEOUS, 81, 162), (TWO_PARTY, 2, 2), (FOUR_PARTY, 5, 12_500)],
        ids=["homogeneous", "two-party", "four-party"],
    )
    def test_exhaustive_walk_checks_every_realization(self, instance, sets, space):
        compiled = compile_instance(instance)
        h_list, _ = _h_realizations(compiled, 0, 2, DEFAULT_H_ENUM_LIMIT)
        assert (len(h_list), compiled.space_size()) == (sets, space)
        report = check_reliability(instance)
        assert report.passed and report.exhaustive_h and report.exhaustive_randomness
        assert (report.space, report.cases) == (space, sets * space)

    def test_benchmark_shape(self):
        # Sampled base-vector sets, each with 39,366 enumerated realizations.
        report = check_reliability(M3_N2_K6_R3[0], h_samples=3)
        assert report.passed and report.exhaustive_randomness and not report.exhaustive_h
        assert report.cases == 3 * 39_366

    # The failure strings and counts below pin the enumeration order (s, then
    # t, then c, innermost last, under each base-vector set) and the stop
    # after five failures.

    def test_broken_correlation_fails(self):
        report = check_reliability(
            HOMOGENEOUS, policy=RandomnessPolicy(correlation_offset=1)
        )
        assert (report.passed, report.cases, report.space) == (False, 5, 162)
        assert report.exhaustive_randomness and report.exhaustive_h
        assert report.failures == [
            f"h=((0, 0, 0, 0),) s=(0, 0) t=(0, {t}) c={c}: decoded [], true [1]"
            for t, c in ((0, 1), (0, 2), (1, 1), (1, 2), (2, 1))
        ]

    @pytest.mark.parametrize("batch", [1, 7, audit.DECODE_BATCH])
    def test_failures_across_multipliers_come_in_stream_order(self, batch, monkeypatch):
        # Element 4 of the leader's {1, 4} is outside the intersection. Only
        # c = L - 1 = 2 maps every answer to 0, so only it decodes 4: the
        # second realization of each group fails. A block's vectors are
        # decoded multiplier by multiplier, yet the failures are read back
        # in stream order (t, then c).
        real = audit._scale_tables(3)
        monkeypatch.setattr(audit, "_scale_tables", lambda modulus: (*real[:2], bytes(256)))
        monkeypatch.setattr(audit, "DECODE_BATCH", batch)
        report = check_reliability(HOMOGENEOUS)
        assert (report.passed, report.cases) == (False, 10)
        failing = [((0, 0), t, 2) for t in ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1))]
        compiled = compile_instance(HOMOGENEOUS)
        draws, _, _ = _raw_realizations(compiled, FAITHFUL, DEFAULT_BOUND, 0, 0)
        stream = flatten(draws())
        assert [stream.index(realization) + 1 for realization in failing] == [2, 4, 6, 8, 10]
        assert report.failures == [
            f"h=((0, 0, 0, 0),) s={s} t={t} c={c}: decoded [1, 4], true [1]"
            for s, t, c in failing
        ]

    @pytest.mark.parametrize(
        "first, offsets",
        [
            (1, (2, 3, 4, 5, 6, 7)),
            (40 * 162 + 1, (-2, -1, 0, 1, 2, 5)),
            (80 * 162 + 1, (10, 11, 13, 14, 16, 17)),
        ],
        ids=["early", "across a set boundary", "late"],
    )
    @pytest.mark.parametrize("batch", [1, 7, audit.DECODE_BATCH])
    def test_fifth_failure_stops_the_walk(self, batch, first, offsets, monkeypatch):
        # HOMOGENEOUS enumerates 81 base-vector sets of 162 realizations.
        # Case 5 of bad is the stop, and each failure names its own
        # realization, on either side of a set boundary, whether batches
        # end inside levels or span them.
        bad = sorted(first + offset for offset in offsets)
        fail_at_cases(monkeypatch, HOMOGENEOUS, set(bad))
        monkeypatch.setattr(audit, "DECODE_BATCH", batch)
        report = check_reliability(HOMOGENEOUS)
        assert (report.passed, report.cases) == (False, bad[4])
        compiled = compile_instance(HOMOGENEOUS)
        h_list, _ = _h_realizations(compiled, 0, 2, DEFAULT_H_ENUM_LIMIT)
        draws, _, _ = _raw_realizations(compiled, FAITHFUL, DEFAULT_BOUND, 0, 0)
        stream = flatten(draws())
        assert [failure.split(": decoded")[0] for failure in report.failures] == [
            f"h={tuple(map(tuple, h_list[(case - 1) // 162]))} s={s} t={t} c={c}"
            for case in bad[:5]
            for s, t, c in [stream[(case - 1) % 162]]
        ]

    def test_broken_correlation_two_party_reports_every_failure(self):
        report = check_reliability(
            TWO_PARTY, policy=RandomnessPolicy(correlation_offset=1)
        )
        assert (report.passed, report.cases, report.space) == (False, 4, 2)
        assert report.failures == [
            f"h=(({h},),) s=({s},) t=() c=1: decoded [], true [1]"
            for h in (0, 1)
            for s in (0, 1)
        ]

    def test_broken_correlation_sampled_failures_span_base_vectors(self):
        report = check_reliability(
            HETEROGENEOUS,
            bound=10**6,
            h_samples=2,
            sample_beyond_bound=3,
            policy=RandomnessPolicy(correlation_offset=1),
        )
        assert (report.passed, report.cases, report.space) == (False, 5, 5**12 * 4)
        assert not report.exhaustive_randomness and not report.exhaustive_h
        h1 = "((0, 3, 3, 0, 2), (1, 0, 2, 1, 1), (2, 0, 4, 4, 3))"
        h2 = "((0, 1, 4, 4, 1), (1, 0, 1, 3, 3), (3, 2, 3, 1, 4))"
        # One seeded stream serves both base-vector sets, so each set is
        # paired with draws of its own.
        draws_h1 = [
            "s=(0, 3, 1, 2, 0, 3) t=(4, 4, 3, 0, 4, 2) c=3",
            "s=(3, 2, 4, 2, 0, 2) t=(3, 4, 1, 4, 2, 4) c=3",
            "s=(2, 0, 3, 2, 3, 4) t=(3, 2, 4, 4, 3, 3) c=3",
        ]
        draws_h2 = [
            "s=(4, 1, 3, 1, 3, 4) t=(4, 2, 0, 2, 2, 1) c=4",
            "s=(3, 2, 1, 0, 1, 2) t=(2, 4, 3, 3, 1, 2) c=4",
        ]
        assert not set(draws_h1) & set(draws_h2)
        assert report.failures == [
            f"h={h} {draw}: decoded [], true [1, 4]"
            for h, draws in ((h1, draws_h1), (h2, draws_h2))
            for draw in draws
        ]

    def test_zeroed_individual_randomness_fails(self):
        report = check_reliability(
            HOMOGENEOUS, policy=RandomnessPolicy(zero_individual=True)
        )
        assert not report.passed

    def test_bound_exceeded_without_sampling(self):
        with pytest.raises(BoundExceededError):
            check_reliability(HETEROGENEOUS, bound=10**4)

    def test_sampled_base_vectors_need_a_sample(self):
        # M3_N2_K6_R3 samples its base vectors; with no sample the walk
        # would pass having checked no case.
        with pytest.raises(ValueError, match="at least one sample"):
            check_reliability(M3_N2_K6_R3[0], h_samples=0)

    @pytest.mark.parametrize(
        "policy",
        POLICIES,
        ids=["faithful", "zero_local", "zero_individual", "offset", "fixed_global"],
    )
    @pytest.mark.parametrize(
        "instance",
        [HOMOGENEOUS, TWO_PARTY, FOUR_PARTY],
        ids=["homogeneous", "two-party", "four-party"],
    )
    def test_enumerated_base_vectors_ignore_the_sample_count(self, instance, policy):
        # Passing and failing walks alike: every sample count walks every
        # base-vector set, in the same order, to the same stop.
        default = check_reliability(instance, policy=policy)
        assert default.exhaustive_h
        for h_samples in (0, 2, 3, 5):
            assert check_reliability(instance, policy=policy, h_samples=h_samples) == default

    @pytest.mark.parametrize(
        "instance, kwargs",
        [
            (HOMOGENEOUS, {}),
            (HOMOGENEOUS, {"policy": RandomnessPolicy(correlation_offset=1)}),
            (HETEROGENEOUS, {"bound": 10**4, "sample_beyond_bound": 400}),
            (M3_N2_K6_R3[0], {}),
        ],
        ids=["homogeneous", "homogeneous-offset", "heterogeneous-sampled", "benchmark walk"],
    )
    def test_one_decode_per_case(self, instance, kwargs, monkeypatch):
        # Every realization is decoded exactly once: each kernel call decodes
        # one batch, of fewer than DECODE_BATCH + L vectors, and a failing
        # walk stops inside its last one.
        counts = []
        real = audit.decode_indicators

        def counting(plan, answers, modulus):
            counts.append(len(answers) // len(plan.answer_keys))
            return real(plan, answers, modulus)

        monkeypatch.setattr(audit, "decode_indicators", counting)
        report = check_reliability(instance, **kwargs)
        assert report.cases > 0
        assert max(counts) < audit.DECODE_BATCH + compile_instance(instance).field.modulus
        if report.passed:
            assert sum(counts) == report.cases
        else:
            assert sum(counts) - counts[-1] < report.cases <= sum(counts)

    @pytest.mark.parametrize("batch", [1, 7, 100])
    @pytest.mark.parametrize(
        "instance, policy",
        [
            (HOMOGENEOUS, FAITHFUL),
            (HOMOGENEOUS, RandomnessPolicy(correlation_offset=1)),
            (HOMOGENEOUS, "top"),
            (FOUR_PARTY, RandomnessPolicy(zero_local=True)),
            (FOUR_PARTY, "top"),
        ],
        ids=["homogeneous", "homogeneous-offset", "homogeneous-top", "four-party-zero-local",
             "four-party-top"],
    )
    def test_batch_size_leaves_the_report_unchanged(self, instance, policy, batch, monkeypatch):
        # "top" is break_correlation_at_top, whose failures fall inside
        # levels. A batch closes at the group that fills it, whether or not
        # its level is done, so a level is cut across batches of at most
        # batch + L - 1 vectors.
        if policy == "top":
            break_correlation_at_top(monkeypatch)
            policy = FAITHFUL
        default = check_reliability(instance, policy=policy)
        counts = []
        real = audit.decode_indicators

        def counting(plan, answers, modulus):
            counts.append(len(answers) // len(plan.answer_keys))
            return real(plan, answers, modulus)

        monkeypatch.setattr(audit, "decode_indicators", counting)
        monkeypatch.setattr(audit, "DECODE_BATCH", batch)
        assert check_reliability(instance, policy=policy) == default
        assert max(counts) < batch + compile_instance(instance).field.modulus


def break_correlation_at_top(monkeypatch):
    """Make the auditor's completion one off wherever a position's first free
    value is L - 1. The correlation then breaks for some t tuples of a level
    and holds for the others, so a walk's first failure falls inside a
    level, where every POLICIES failure falls at a level's first
    realization."""
    real = audit.completion

    def completion(free_values, modulus, num_clients, policy):
        free_values = list(free_values)
        off = bool(free_values) and free_values[0] == modulus - 1
        return (real(free_values, modulus, num_clients, policy) + off) % modulus

    monkeypatch.setattr(audit, "completion", completion)


def reference_answers(compiled, ips, s_values, t_values, c_value, policy=FAITHFUL):
    """All answer values of one realization, keyed by answer key: answer_value
    applied to each answer on its own, with no level shared between answers.
    ips holds one inner product per answer, in plan.answer_keys order."""
    modulus = compiled.field.modulus
    t_all = individual_values(compiled, t_values, policy)
    return {
        key: answer_value(ip, s_values[s_idx], t_all[t_idx], c_value, modulus)
        for ip, key, s_idx, t_idx in zip(
            ips, compiled.plan.answer_keys, compiled.s_slots, compiled.t_slots
        )
    }


def oracle_reliability(
    instance, policy, bound=DEFAULT_BOUND, h_samples=2, sample_beyond_bound=0
):
    """check_reliability realization by realization through the oracle path.

    Every realization is answered by reference_answers and decoded by the
    keyed reference_indicators, and answers_for_realization's vector and the
    kernel's indicators of it must equal those, also past the report's stop
    after five failures.
    """
    compiled = compile_instance(instance)
    plan, modulus = compiled.plan, compiled.field.modulus
    expected = instance.true_intersection()
    h_list, h_exhaustive = _h_realizations(compiled, 0, h_samples, 729)
    draws, space, exhaustive = _raw_realizations(
        compiled, policy, bound, sample_beyond_bound, 0
    )
    report, cases, failures = None, 0, []
    for h_vectors in h_list:
        ips = query_inner_products(compiled, h_vectors)
        levels = [(s, list(blocks)) for s, blocks in draws()]
        tuples = flatten(levels)
        walked = list(answers_for_realization(compiled, ips, levels))
        assert [walk[:3] for walk in walked] == tuples
        for (s, t, c), (*_, vector) in zip(tuples, walked):
            answers = reference_answers(compiled, ips, s, t, c, policy)
            assert list(vector) == [answers[key] for key in plan.answer_keys]
            indicators = reference_indicators(plan, answers, modulus)
            assert decode_indicators(plan, vector, modulus) == bytes(indicators.values())
            decoded = frozenset(element for element, value in indicators.items() if value == 0)
            if report is not None:
                continue
            cases += 1
            if decoded != expected:
                failures.append(
                    f"h={tuple(map(tuple, h_vectors))} s={s} t={t} c={c}: "
                    f"decoded {sorted(decoded)}, true {sorted(expected)}"
                )
                if len(failures) == 5:
                    report = ReliabilityReport(
                        False, cases, space, exhaustive, h_exhaustive, list(failures)
                    )
    return report or ReliabilityReport(
        not failures, cases, space, exhaustive, h_exhaustive, failures
    )


class TestWalkAgreesWithOracle:
    # Every policy samples the heterogeneous instance's randomness; each
    # M3_N2_K6_R3 instance is walked over one base-vector set, which keeps
    # the whole class at 483,145 realizations.
    @pytest.mark.parametrize(
        "policy",
        POLICIES,
        ids=["faithful", "zero_local", "zero_individual", "offset", "fixed_global"],
    )
    @pytest.mark.parametrize(
        "instance, kwargs",
        [
            (HOMOGENEOUS, {}),
            (TWO_PARTY, {}),
            (FOUR_PARTY, {}),
            (HETEROGENEOUS, {"bound": 10**4, "sample_beyond_bound": 400}),
        ]
        + [(instance, {"h_samples": 1}) for instance in M3_N2_K6_R3],
        ids=[
            "homogeneous", "two-party", "four-party", "heterogeneous-sampled",
            "m3-a", "m3-b", "m3-c",
        ],
    )
    def test_answers_decodes_and_report(self, instance, kwargs, policy):
        oracle = oracle_reliability(instance, policy, **kwargs)
        assert oracle.exhaustive_randomness == (instance is not HETEROGENEOUS)
        assert check_reliability(instance, policy=policy, **kwargs) == oracle

    @pytest.mark.parametrize(
        "instance", [HOMOGENEOUS, FOUR_PARTY], ids=["homogeneous", "four-party"]
    )
    def test_zero_multiplier_fails_as_the_oracle_does(self, instance):
        # fixed_global = L leaves c = 0 as the only multiplier: every answer
        # and indicator is 0, so every leader element decodes.
        modulus = compile_instance(instance).field.modulus
        policy = RandomnessPolicy(fixed_global=modulus)
        assert audit._policy_ranges(policy, modulus)[2] == [0]
        oracle = oracle_reliability(instance, policy)
        assert not oracle.passed and len(oracle.failures) == 5
        assert check_reliability(instance, policy=policy) == oracle

    @pytest.mark.parametrize(
        "instance", [HOMOGENEOUS, FOUR_PARTY], ids=["homogeneous", "four-party"]
    )
    def test_failures_inside_levels_as_the_oracle_does(self, instance, monkeypatch):
        # Realizations pass before the first failure, so a walk that checked
        # only a level's or a batch's first realization would miss them.
        break_correlation_at_top(monkeypatch)
        oracle = oracle_reliability(instance, FAITHFUL)
        assert not oracle.passed and len(oracle.failures) == 5 < oracle.cases
        assert check_reliability(instance) == oracle

    def test_wide_field_reduces_sums_before_scaling(self):
        # 131 parties give F_131, where ip + s + t does not fit a byte
        # unreduced.
        instance = AuditInstance(
            tuple(profile(pid, {1}, 2) for pid in range(1, 132)), Universe(1), 1
        )
        compiled = compile_instance(instance)
        assert compiled.field.modulus == 131
        ips = query_inner_products(compiled, (bytes([130]),))
        draws, _, _ = _raw_realizations(compiled, FAITHFUL, 10, 3, 0)
        for s, t, c, vector in answers_for_realization(compiled, ips, draws()):
            answers = reference_answers(compiled, ips, s, t, c)
            assert list(vector) == [answers[key] for key in compiled.plan.answer_keys]
        assert check_reliability(instance, bound=10, sample_beyond_bound=3, h_samples=1).passed

    @pytest.mark.parametrize("parties", [83, 89, 127])
    def test_largest_sums_on_each_side_of_unreduced_rows(self, parties):
        # Rows stay unreduced while 3(L - 1) < 256, up to F_83. In F_89 and
        # F_127 three residues can pass 255, so the walk adds answer by
        # answer. With h = L - 2 a targeted answer's inner product is L - 1,
        # and s = t = L - 1 make it 3(L - 1). The level's two groups run
        # under different multipliers, so each is a t-block of its own.
        instance = AuditInstance(
            tuple(profile(pid, {1}, 2) for pid in range(1, parties + 1)), Universe(1), 1
        )
        compiled = compile_instance(instance)
        top = compiled.field.modulus - 1
        assert top + 1 == parties
        ips = query_inner_products(compiled, (bytes([top - 1]),))
        assert top in ips
        levels = levels_of(compiled, [(
            (top,) * compiled.n_s,
            [((top,) * compiled.n_t, (1, top)), ((0,) * compiled.n_t, (2,))],
        )], FAITHFUL)
        walked = list(answers_for_realization(compiled, ips, levels))
        assert [walk[:3] for walk in walked] == flatten(levels)
        for s, t, c, vector in walked:
            answers = reference_answers(compiled, ips, s, t, c)
            assert list(vector) == [answers[key] for key in compiled.plan.answer_keys]

    def test_t_rows_belong_to_one_walk(self):
        # Both streams see the same t tuples over the same compiled instance;
        # blocks kept from the faithful stream would give the shifted one
        # the faithful completion.
        compiled = compile_instance(FOUR_PARTY)
        ips = query_inner_products(compiled, (bytes([2]),))
        for policy in (FAITHFUL, RandomnessPolicy(correlation_offset=1)):
            draws, _, _ = _raw_realizations(compiled, policy, DEFAULT_BOUND, 0, 0)
            for s, t, c, vector in answers_for_realization(compiled, ips, draws()):
                answers = reference_answers(compiled, ips, s, t, c, policy)
                assert list(vector) == [answers[key] for key in compiled.plan.answer_keys]

    def test_t_level_computed_once_per_t_tuple(self, monkeypatch):
        calls = row_builds(monkeypatch)
        compiled = compile_instance(HOMOGENEOUS)
        ips = query_inner_products(compiled, (bytes(4),))
        draws, _, _ = _raw_realizations(compiled, FAITHFUL, DEFAULT_BOUND, 0, 0)
        walked = sum(1 for _ in answers_for_realization(compiled, ips, draws()))
        assert walked == 162
        assert sorted(calls) == sorted(itertools.product(range(3), repeat=2))

    @pytest.mark.parametrize(
        "instance, policy, sets",
        [
            (HOMOGENEOUS, FAITHFUL, 1),
            (FOUR_PARTY, FAITHFUL, 1),
            (FOUR_PARTY, RandomnessPolicy(zero_local=True), 5),
        ],
        ids=["homogeneous", "four-party", "four-party-zero-local"],
    )
    def test_t_rows_built_once_per_check(self, instance, policy, sets, monkeypatch):
        # Every level of every base-vector set reads the same t tuples, so
        # a check builds each row once. Under zero_local a set is one level
        # and no later level reads its rows again, so none is kept: each of
        # FOUR_PARTY's five sets builds them afresh.
        calls = row_builds(monkeypatch)
        compiled = compile_instance(instance)
        report = check_reliability(instance, policy=policy)
        assert report.passed and report.exhaustive_h
        t_tuples = list(itertools.product(range(compiled.field.modulus), repeat=compiled.n_t))
        assert sorted(calls) == sorted(t_tuples * sets)

    def test_every_level_of_every_call_reads_one_kept_list(self, monkeypatch):
        # Every level of two calls is drawn before any is read, and the last
        # level drawn is read first: each must still read every block, and
        # the blocks the levels read are one list, built once.
        calls = row_builds(monkeypatch)
        monkeypatch.setattr(audit, "DECODE_BATCH", 16)
        compiled = compile_instance(FOUR_PARTY)
        draws, _, _ = _raw_realizations(compiled, FAITHFUL, DEFAULT_BOUND, 0, 0)
        first, second = list(draws()), list(draws())
        assert len(first) == len(second) == 5 ** compiled.n_s and calls == []
        read = [list(blocks) for _, blocks in reversed(first + second)]
        kept = read[0]
        assert len(kept) == 7 and sum(rows for rows, *_ in kept) == 25
        for blocks in read:
            assert len(blocks) == len(kept) and all(map(operator.is_, blocks, kept))
        assert calls == list(itertools.product(range(5), repeat=compiled.n_t))

    def test_an_early_stopping_walk_builds_only_the_rows_it_read(self, monkeypatch):
        # The shifted correlation fails at once, so the walk stops inside
        # its first batch of 16 vectors, one block of 4 groups under 4
        # multipliers. It has built that block's rows and the next block's,
        # which closed the batch, out of the stream's 25.
        calls = row_builds(monkeypatch)
        monkeypatch.setattr(audit, "DECODE_BATCH", 16)
        report = check_reliability(FOUR_PARTY, policy=RandomnessPolicy(correlation_offset=1))
        assert not report.passed and report.cases == len(report.failures) == 5
        assert len(calls) == 8 < 25

    def test_a_single_level_builds_its_blocks_on_each_call(self, monkeypatch):
        # Under zero_local no later level reads a set's blocks again, so
        # each call makes them afresh, lazily: none is built until walked.
        calls = row_builds(monkeypatch)
        compiled = compile_instance(FOUR_PARTY)
        draws, _, _ = _raw_realizations(
            compiled, RandomnessPolicy(zero_local=True), DEFAULT_BOUND, 0, 0
        )
        t_tuples = list(itertools.product(range(5), repeat=compiled.n_t))
        for walk in (1, 2):
            ((_, blocks),) = draws()
            assert iter(blocks) is blocks and len(calls) == 25 * (walk - 1)
            assert sum(rows for rows, *_ in blocks) == 25
            assert calls == t_tuples * walk

    @pytest.mark.parametrize(
        "policy", [FAITHFUL, RandomnessPolicy(zero_local=True)], ids=["faithful", "zero_local"]
    )
    def test_no_row_is_built_before_a_level_is_drawn(self, policy, monkeypatch):
        calls = row_builds(monkeypatch)
        compiled = compile_instance(FOUR_PARTY)
        draws, _, _ = _raw_realizations(compiled, policy, DEFAULT_BOUND, 0, 0)
        levels = draws()
        assert calls == []
        _, blocks = next(levels)
        list(blocks)
        built = len(calls)
        assert built == 25
        # A faithful stream's second walk reads the kept blocks.
        if not policy.zero_local:
            assert sum(1 for _ in draws()) == 5 ** compiled.n_s and len(calls) == built

    def test_masking_tables_build_each_t_run_once_per_group(self, monkeypatch):
        # Levels 0-2 and 4-5 share one run of t tuples, level 3 has another.
        # Each distinct run's rows are built once per multiplier group,
        # and small batches cut the blocks without changing a table.
        calls = row_builds(monkeypatch)
        monkeypatch.setattr(audit, "DECODE_BATCH", 16)
        compiled = compile_instance(FOUR_PARTY)
        policy = RandomnessPolicy(correlation_offset=1)
        drawn = [(query_inner_products(compiled, (bytes([2]),)), None, None)]
        shared = list(itertools.product(range(5), repeat=compiled.n_t))
        other = [(4, 0), (0, 4)]
        s_tuples = list(itertools.product(range(5), repeat=compiled.n_s))[:6]

        def sweep(s_fixed, t_fixed):
            return [(s, t) for k, s in enumerate(s_tuples) for t in (other if k == 3 else shared)]

        c_groups = [[1, 3], [2]]
        tables = list(audit._masking_tables(compiled, policy, drawn, sweep, c_groups, bytes))
        assert len(calls) == (25 + 2) * len(c_groups)
        assert tables == list(
            oracle_masking_tables(compiled, policy, drawn, sweep, c_groups, bytes)
        )

    @pytest.mark.parametrize(
        "check", [check_db1_uniformity, check_z_uniformity, check_indicator_privacy]
    )
    def test_masking_checks_answer_through_the_walk(self, check, monkeypatch):
        # Every masking table's sweep is answered by the walk's kernel.
        calls = []
        real = audit._answer_batches

        def counting(compiled, ips, levels):
            calls.append(compiled)
            return real(compiled, ips, levels)

        monkeypatch.setattr(audit, "_answer_batches", counting)
        assert check(HOMOGENEOUS).passed
        assert calls


@st.composite
def session_configs(draw):
    """M 2-5 parties of 2-4 databases over a universe of 1-12 elements, with
    random sets (empty ones too) and an optional leader override."""
    m = draw(st.integers(2, 5))
    k = draw(st.integers(1, 12))
    parties = tuple(
        PartyProfile(pid, draw(st.integers(2, 4)), frozenset(draw(st.sets(st.integers(1, k)))))
        for pid in range(1, m + 1)
    )
    leader = draw(st.none() | st.integers(1, m))
    return SessionConfig(k, parties, draw(st.integers(0, 2**32 - 1)), leader)


def session_realization(config):
    """The audit's compiled instance, and the session's own base vectors
    and dealt (s, t, c) laid out in the instance's slot order."""
    compiled = compile_instance(
        AuditInstance(config.parties, config.universe, config.leader_override)
    )
    setup, plan, shape = compiled.setup, compiled.plan, compiled.plan.shape
    session_id = make_session_id(config)
    queries = generate_queries(plan, setup.field, config.universe, config.seed, session_id)
    # The client with the most partitions gets every base vector, bare, at database 1.
    widest = max(shape.client_ids, key=shape.eta.__getitem__)
    h = tuple(query.values for query in queries_to(queries, (widest, 1)))
    states = deal(config)
    s = tuple(states[client, 1].local[ell - 1] for client, ell in compiled.s_index)
    t = []
    for client, position in compiled.t_index:
        partition, database = shape.position_location(client, position)
        t.append(states[client, database].individual[partition])
    return compiled, h, (s, tuple(t), states[shape.client_ids[0], 1].c)


@pytest.mark.pins
class TestRunnerAgreesWithAuditor:
    """The auditor's answer walk, fed one memory session's own draws, gives
    that session's answers: the lemmas are proved over the code that runs.
    Sessions run only the faithful scheme; the walk's mutations are checked
    against a reference by TestWalkAgreesWithOracle."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(session_configs())
    def test_session_answers_equal_the_audited_realization(self, config):
        transcript = run_memory_session(config)
        if transcript.messages:  # an empty leader set draws nothing
            compiled, h, realization = session_realization(config)
            ips = query_inner_products(compiled, h)
            s, t, c = realization
            levels = levels_of(compiled, [(s, [(t, (c,))])], FAITHFUL)
            ((*_, walked),) = answers_for_realization(compiled, ips, levels)
            sent = {
                (m.origin[0], m.partition, m.target): m.values[0]
                for m in transcript.messages_in_phase("answer")
            }
            assert list(walked) == [sent[key] for key in compiled.plan.answer_keys]
        assert transcript.result.decoded == brute_force_intersection(config.parties)
        assert transcript.download_cost_actual == transcript.cost_table.costs[
            transcript.leader_id
        ]
        assert load_transcript(transcript.serialize()) == transcript


class TestDb1Uniformity:
    def test_homogeneous_exact_thirds(self):
        report = check_db1_uniformity(HOMOGENEOUS)
        assert report.passed
        table = next(iter(report.tables.values()))
        assert all(p == Fraction(1, 3) for _, p in table.probs)

    def test_binary_field_exact_halves(self):
        report = check_db1_uniformity(TWO_PARTY)
        assert report.passed
        table = next(iter(report.tables.values()))
        assert all(p == Fraction(1, 2) for _, p in table.probs)

    def test_zeroed_local_randomness_fails(self):
        report = check_db1_uniformity(
            HOMOGENEOUS, policy=RandomnessPolicy(zero_local=True)
        )
        assert not report.passed

    def test_fixed_multiplier_sweeps_only_its_value(self):
        report = check_db1_uniformity(
            HOMOGENEOUS, policy=RandomnessPolicy(fixed_global=2)
        )
        assert report.passed
        assert {c_value for _, _, c_value in report.tables} == {2}


class TestZUniformity:
    def test_homogeneous_uniform(self):
        report = check_z_uniformity(HOMOGENEOUS)
        assert report.passed
        keys = {(client, position) for client, position, _, _ in report.tables}
        assert keys == {(1, 1), (1, 2)}
        for table in report.tables.values():
            assert all(p == Fraction(1, 3) for _, p in table.probs)

    def test_two_party_vacuous(self):
        report = check_z_uniformity(TWO_PARTY)
        assert report.passed
        assert report.tables == {}

    def test_zeroed_individual_randomness_fails(self):
        report = check_z_uniformity(
            HOMOGENEOUS, policy=RandomnessPolicy(zero_individual=True)
        )
        assert not report.passed


def oracle_masking_tables(compiled, policy, drawn, sweep, c_groups, statistic):
    """_masking_tables one realization at a time: per context and multiplier
    group, a Counter of statistic over reference_answers of every (s, t, c)
    of the sweep, in a table."""
    keys = compiled.plan.answer_keys
    for ctx, (ips, s_fixed, t_fixed) in enumerate(drawn):
        pairs = list(sweep(s_fixed, t_fixed))
        for group in c_groups:
            counts = Counter()
            for s, t in pairs:
                for c in group:
                    answers = reference_answers(compiled, ips, s, t, c, policy)
                    counts[statistic(bytes(answers[key] for key in keys))] += 1
            yield ctx, group, DistributionTable.from_counts(counts)


def masking_realizations(config):
    """How many realizations the masking checks sweep per context, or None
    when the leader's set is empty and there is nothing to audit."""
    instance = AuditInstance(config.parties, config.universe, config.leader_override)
    if not instance.setup().leader.data_set:
        return None
    compiled = compile_instance(instance)
    modulus, shape = compiled.field.modulus, compiled.plan.shape
    db1 = sum(modulus ** eta for eta in shape.eta.values())
    z = compiled.n_t * modulus
    indicator = shape.set_size * len(shape.client_ids)
    return (db1 + z + indicator) * (modulus - 1)


class TestMaskingStreamAgreesWithOracle:
    """Each masking table, read from the merged levels of its sweep, equals
    the table counted one realization at a time from reference_answers."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(session_configs())
    def test_every_table_counts_its_sweep(self, config):
        size = masking_realizations(config)
        assume(size is not None and size <= 500)
        instance = AuditInstance(config.parties, config.universe, config.leader_override)
        real = audit._masking_tables
        compared = []

        def checked(compiled, policy, drawn, sweep, c_groups, statistic):
            tables = list(real(compiled, policy, drawn, sweep, c_groups, statistic))
            oracle = oracle_masking_tables(compiled, policy, drawn, sweep, c_groups, statistic)
            assert tables == list(oracle)
            compared.append(len(tables))
            return iter(tables)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(audit, "_masking_tables", checked)
            for policy in POLICIES:
                for check in (check_db1_uniformity, check_z_uniformity, check_indicator_privacy):
                    check(instance, policy=policy)
        assert sum(compared) > 0


@pytest.mark.parametrize(
    "check", [check_db1_uniformity, check_z_uniformity, check_indicator_privacy]
)
@pytest.mark.parametrize("instance", [HOMOGENEOUS, TWO_PARTY], ids=["homogeneous", "two-party"])
def test_masking_check_needs_a_context(check, instance):
    # With no context a masking check would pass with no table.
    with pytest.raises(ValueError, match="at least one context"):
        check(instance, contexts=0)


@pytest.mark.parametrize(
    "check", [check_db1_uniformity, check_z_uniformity, check_indicator_privacy]
)
@pytest.mark.parametrize(
    "policy",
    [FAITHFUL, RandomnessPolicy(correlation_offset=1)],
    ids=["faithful", "correlation_offset"],
)
def test_masking_check_reads_back_once_per_table(check, policy, monkeypatch):
    # Each table's sweep is one stream of levels, read back in one call,
    # not one call per realization.
    calls = []
    read_back = audit.answers_for_realization

    def counting(*args, **kwargs):
        calls.append(args)
        return read_back(*args, **kwargs)

    monkeypatch.setattr(audit, "answers_for_realization", counting)
    report = check(HOMOGENEOUS, policy=policy)
    assert len(calls) == len(report.tables)


@pytest.mark.parametrize(
    "check", [check_db1_uniformity, check_z_uniformity, check_indicator_privacy]
)
@pytest.mark.parametrize(
    "instance", [HOMOGENEOUS, FOUR_PARTY, HETEROGENEOUS],
    ids=["homogeneous", "four-party", "heterogeneous"],
)
@pytest.mark.parametrize("contexts", [1, 3])
def test_masking_check_draws_each_context_once(check, instance, contexts, monkeypatch):
    # A context's draws depend on the seed, label, context and sizes alone:
    # kappa base vectors, the held local values and the held individual
    # values, once per check, however many clients, positions or column-sum
    # variants it has. Each compiled instance lays out a context's base
    # vectors once.
    draws, laid_out = [], []
    real_draw, real_ips = audit.draw_vector, audit.query_inner_products

    def counting_draw(*args):
        draws.append(args)
        return real_draw(*args)

    def counting_ips(compiled, h_vectors):
        laid_out.append(compiled)  # held, so no two instances share an id
        return real_ips(compiled, h_vectors)

    monkeypatch.setattr(audit, "draw_vector", counting_draw)
    monkeypatch.setattr(audit, "query_inner_products", counting_ips)
    report = check(instance, contexts=contexts)
    assert report.passed and len(report.tables) > contexts
    kappa = max(compile_instance(instance).plan.shape.eta.values())
    assert len(draws) == contexts * (kappa + 2)
    assert set(Counter(map(id, laid_out)).values()) == {contexts}
    if check is not check_indicator_privacy:
        assert len(laid_out) == contexts


class TestIndicatorPrivacy:
    def test_homogeneous_element_four(self):
        report = check_indicator_privacy(HOMOGENEOUS)
        assert report.passed
        table = report.tables[(4, 0, 0)]
        assert table.as_dict() == {1: Fraction(1, 2), 2: Fraction(1, 2)}

    def test_intersection_element_always_zero(self):
        report = check_indicator_privacy(HOMOGENEOUS)
        table = report.tables[(1, "intersection", 0)]
        assert table.as_dict() == {0: Fraction(1)}

    def test_heterogeneous_element_five(self):
        report = check_indicator_privacy(HETEROGENEOUS)
        assert report.passed
        table = report.tables[(5, 0, 0)]
        assert table.as_dict() == {
            1: Fraction(1, 4),
            2: Fraction(1, 4),
            3: Fraction(1, 4),
            4: Fraction(1, 4),
        }

    def test_tables_identical_across_deficient_sums(self):
        report = check_indicator_privacy(HETEROGENEOUS)
        tables = [report.tables[(5, sigma, 0)] for sigma in range(3)]
        assert all(t == tables[0] for t in tables)

    def test_constant_multiplier_fails(self):
        report = check_indicator_privacy(
            HOMOGENEOUS, policy=RandomnessPolicy(fixed_global=1)
        )
        assert not report.passed

    def test_zeroed_individual_randomness_breaks_intersection_indicator(self):
        # With every individual value zeroed, no completion cancels the
        # intersection element's column sum, so its indicator is nonzero.
        report = check_indicator_privacy(
            HOMOGENEOUS, policy=RandomnessPolicy(zero_individual=True)
        )
        assert not report.passed
        assert report.detail == "element 1: indicator not always zero"

    def test_completion_wrong_for_some_t_fails(self, monkeypatch):
        # The drawn individual values a sweep holds fixed reach a t tuple
        # whose completion is wrong; values held at zero would not.
        break_correlation_at_top(monkeypatch)
        report = check_indicator_privacy(HETEROGENEOUS)
        assert not report.passed
        assert report.detail == (
            "element 5, column sum 2: indicator not uniform over nonzero residues"
        )

    def test_each_context_draws_its_own_held_t_values(self, monkeypatch):
        # At seed 5 only context 1's held t values meet the broken
        # completion, so a check that gave every context context 0's draw
        # would pass.
        break_correlation_at_top(monkeypatch)
        report = check_indicator_privacy(HETEROGENEOUS, seed=5)
        assert not report.passed
        assert report.detail == (
            "element 5, column sum 2: indicator not uniform over nonzero residues"
        )
        assert report.tables[(5, 2, 0)] == uniform([1, 2, 3, 4])
        assert report.tables[(5, 2, 1)] != uniform([1, 2, 3, 4])


class TestQueryTupleDistribution:
    CLIENTS = [profile(1, {1, 3}, 2), profile(2, {2}, 2)]

    def _table(self, leader_set, client_id, database):
        from mppsi.audit import delivered_query_distribution

        return delivered_query_distribution(
            clients=self.CLIENTS,
            leader=profile(3, leader_set, 2),
            universe=Universe(3),
            client_id=client_id,
            database=database,
        )

    def test_uniform_and_identical_across_leader_sets_single_element(self):
        for client_id in (1, 2):
            for database in (1, 2):
                one = self._table({1}, client_id, database)
                other = self._table({2}, client_id, database)
                assert one == other
                assert all(p == Fraction(1, 27) for _, p in one.probs)
                assert len(one.probs) == 27

    def test_uniform_and_identical_for_two_element_sets(self):
        # Two partitions per client: the delivered tuple has two vectors and
        # is uniform over all 27 * 27 combinations.
        for database in (1, 2):
            one = self._table({1, 3}, 1, database)
            other = self._table({2, 3}, 1, database)
            assert one == other
            assert len(one.probs) == 729
            assert all(p == Fraction(1, 729) for _, p in one.probs)

    def test_one_base_vector_for_every_partition_is_not_uniform(self, monkeypatch):
        # Negative control for the shared layout: serving both partitions
        # from base vector 1 fixes the difference of database 2's two
        # targeted queries, which names the leader's elements.
        real = audit.lay_out_queries

        def reuse_first(plan, h_vectors, modulus, session_id):
            return real(plan, (h_vectors[0],) * len(h_vectors), modulus, session_id)

        monkeypatch.setattr(audit, "lay_out_queries", reuse_first)
        for database in (1, 2):
            table = self._table({1, 3}, 1, database)
            assert len(table.probs) == 27
            assert table != uniform(itertools.product(
                itertools.product(range(3), repeat=3), repeat=2
            ))


class TestLeaderPrivacy:
    CLIENTS = [profile(1, {1, 3}, 2), profile(2, {2}, 2)]

    def test_zero_information_at_every_database(self):
        for client_id in (1, 2):
            for database in (1, 2):
                result = leader_privacy_mi(
                    clients=self.CLIENTS,
                    leader_id=3,
                    leader_databases=2,
                    candidate_sets=[frozenset({1}), frozenset({2})],
                    universe=Universe(3),
                    client_id=client_id,
                    database=database,
                )
                assert result.is_zero
                assert result.bits == 0.0

    def test_unmasked_queries_leak(self):
        result = leader_privacy_mi(
            clients=self.CLIENTS,
            leader_id=3,
            leader_databases=2,
            candidate_sets=[frozenset({1}), frozenset({2})],
            universe=Universe(3),
            client_id=1,
            database=2,
            mask_queries=False,
        )
        assert not result.is_zero
        assert result.bits > 0

    def test_candidates_must_share_cardinality(self):
        with pytest.raises(ValueError):
            leader_privacy_mi(
                clients=self.CLIENTS,
                leader_id=3,
                leader_databases=2,
                candidate_sets=[frozenset({1}), frozenset({1, 2})],
                universe=Universe(3),
                client_id=1,
                database=1,
            )


class TestClientPrivacy:
    def test_single_element_leader_set_is_exactly_private(self):
        # Homogeneous fixture cut down to a two-element universe: the leader
        # holds one element and every conditional view is independent of the
        # hidden columns.
        report = client_privacy_mi(
            leader=profile(3, {1}, 3),
            client_shapes=[(1, 3), (2, 3)],
            universe=Universe(2),
        )
        assert report.is_zero
        assert report.bits_max == 0.0

    def test_constant_multiplier_leaks(self):
        report = client_privacy_mi(
            leader=profile(3, {1}, 3),
            client_shapes=[(1, 3), (2, 3)],
            universe=Universe(2),
            policy=RandomnessPolicy(fixed_global=1),
        )
        assert not report.is_zero
        assert report.bits_max > 0

    # Each zeroed tier is zero over the whole enumeration: no local vector
    # hides the database-1 answers, and no individual value masks the
    # targeted ones.

    def test_zeroed_local_randomness_leaks(self):
        report = client_privacy_mi(
            leader=profile(3, {1}, 3),
            client_shapes=[(1, 3), (2, 3)],
            universe=Universe(2),
            policy=RandomnessPolicy(zero_local=True),
        )
        assert not report.is_zero
        assert abs(report.bits_max - 2.2697856487090378) < 1e-12

    def test_bound_counts_the_policy_space(self):
        # 16 client-set pairs times zero_local's 54 base-vector and
        # randomness outcomes is 864; the faithful space would give 7776.
        shape = dict(
            leader=profile(1, {1}, 3),
            client_shapes=[(2, 3), (3, 3)],
            universe=Universe(2),
            policy=RandomnessPolicy(zero_local=True),
        )
        report = client_privacy_mi(bound=864, **shape)
        assert abs(report.bits_max - 2.2697856487090378) < 1e-12
        with pytest.raises(BoundExceededError, match="cover 864 outcomes"):
            client_privacy_mi(bound=863, **shape)

    @pytest.mark.parametrize(
        "policy, bound",
        [(FAITHFUL, 7775), (RandomnessPolicy(zero_local=True), 863)],
        ids=["faithful", "zero_local"],
    )
    def test_over_its_bound_builds_no_row(self, policy, bound, monkeypatch):
        # The joint guard raises after the randomness stream is made, and
        # before any level of it is drawn.
        calls = row_builds(monkeypatch)
        with pytest.raises(BoundExceededError, match=f"cover {bound + 1} outcomes"):
            client_privacy_mi(
                leader=profile(1, {1}, 3),
                client_shapes=[(2, 3), (3, 3)],
                universe=Universe(2),
                bound=bound,
                policy=policy,
            )
        assert calls == []

    def test_zeroed_individual_randomness_leaks(self):
        report = client_privacy_mi(
            leader=profile(3, {1}, 3),
            client_shapes=[(1, 3), (2, 3)],
            universe=Universe(2),
            policy=RandomnessPolicy(zero_individual=True),
        )
        assert not report.is_zero
        assert abs(report.bits_max - 1.5849625007211898) < 1e-12

    def test_shared_multiplier_correlates_multiple_indicators(self):
        # Characterization: with two leader elements outside the
        # intersection, indicator ratios are multiplier-free, so their joint
        # distribution reveals whether the two hidden column sums coincide.
        # The per-element audits above still pass; the leakage lives only in
        # the joint view. Known exact size: 2 - H(5/18, 5/18, 4/18, 4/18)
        # which is 0.9911 bits, on the empty-intersection condition.
        report = client_privacy_mi(
            leader=profile(3, {1, 2}, 3),
            client_shapes=[(1, 3), (2, 3)],
            universe=Universe(2),
        )
        assert not report.is_zero
        empty = report.per_intersection[frozenset()]
        assert not empty.is_zero
        assert abs(empty.bits - 0.9910760598382401) < 1e-12
        for outcome, result in report.per_intersection.items():
            if outcome:
                assert result.is_zero


class TestSampledGrid:
    """Every audit check, run across a seeded sample of the small-suite grid.

    The exhaustive grid ships with the acceptance suite (reliability); here a
    spread of instances exercises the masking and information checks too.
    Client-side information checks are sampled from single-element leader
    sets, where exact independence is the scheme's guarantee; see the
    multi-element characterization above.
    """

    @staticmethod
    def _grid_sample(rng, count, max_k=4):
        import itertools as it

        picked = []
        while len(picked) < count:
            m = rng.choice((2, 3))
            k = rng.randint(1, max_k)
            subsets = [
                frozenset(c)
                for r in range(k + 1)
                for c in it.combinations(range(1, k + 1), r)
            ]
            sets = tuple(rng.choice(subsets) for _ in range(m))
            dbs = tuple(rng.choice((2, 3)) for _ in range(m))
            profiles = tuple(
                profile(i + 1, sets[i], dbs[i]) for i in range(m)
            )
            from mppsi.leader import cost_table

            leader = next(p for p in profiles if p.party_id == cost_table(profiles).best())
            if leader.data_set:
                picked.append((profiles, k, leader))
        return picked

    def test_masking_checks_hold_across_sampled_instances(self):
        import random

        rng = random.Random(99)
        for profiles, k, _ in self._grid_sample(rng, 25):
            instance = AuditInstance(profiles, Universe(k))
            assert check_reliability(
                instance, bound=486, h_samples=1, h_enum_limit=3,
                sample_beyond_bound=8, seed=1,
            ).passed
            assert check_db1_uniformity(instance, contexts=1).passed
            assert check_z_uniformity(instance, contexts=1).passed
            assert check_indicator_privacy(instance, contexts=1).passed

    def test_information_checks_hold_across_sampled_instances(self):
        import random

        rng = random.Random(7)
        done_leader = 0
        done_client = 0
        for profiles, k, leader in self._grid_sample(rng, 60, max_k=2):
            clients = [p for p in profiles if p.party_id != leader.party_id]
            size = len(leader.data_set)
            if done_leader < 4 and size <= 2 and k <= 2:
                candidates = [
                    frozenset(c)
                    for c in __import__("itertools").combinations(range(1, k + 1), size)
                ]
                if len(candidates) >= 2:
                    result = leader_privacy_mi(
                        clients=clients,
                        leader_id=leader.party_id,
                        leader_databases=leader.num_databases,
                        candidate_sets=candidates[:2],
                        universe=Universe(k),
                        client_id=clients[0].party_id,
                        database=2,
                    )
                    assert result.is_zero
                    done_leader += 1
            if done_client < 4 and size == 1 and k <= 2:
                report = client_privacy_mi(
                    leader=leader,
                    client_shapes=[(c.party_id, c.num_databases) for c in clients],
                    universe=Universe(k),
                )
                assert report.is_zero
                done_client += 1
            if done_leader >= 4 and done_client >= 4:
                break
        assert done_leader >= 2 and done_client >= 2


class TestTranscriptViews:
    def test_leader_view_holds_every_message_each_with_the_leader_at_one_end(self):
        config = SessionConfig(
            universe_size=4,
            parties=HOMOGENEOUS.profiles,
            seed=3,
            leader_override=3,
        )
        transcript = run_memory_session(config)
        (view_msgs,) = leader_view(transcript)
        assert transcript.messages and list(view_msgs) == sorted(transcript.messages, key=str)
        leader = (transcript.leader_id, 0)
        for m in view_msgs:
            assert (m.origin == leader) != (m.dest == leader)

    def test_database_view_contains_only_own_traffic(self):
        config = SessionConfig(
            universe_size=4,
            parties=HOMOGENEOUS.profiles,
            seed=3,
            leader_override=3,
        )
        transcript = run_memory_session(config)
        (view_msgs,) = database_view(transcript, 1, 2)
        own = [m for m in transcript.messages if (1, 2) in (m.dest, m.origin)]
        assert own and list(view_msgs) == sorted(own, key=str)
