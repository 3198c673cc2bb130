"""Pinned audit verdicts: refactors of the auditor must leave them unchanged.

The reliability reports are pinned field by field, with a digest of their
failure strings (which carry the enumeration order and, for a sampled
stream, the seeded draws), the masking checks' reports by a digest of their
verdict, detail and every table, the delivered query-tuple distributions by a digest of
their tables, and the mutual-information results field by field (bits to
1e-12, since the summation order of a float sum is not part of the result).
"""

import hashlib

import pytest

from mppsi.audit import (
    check_db1_uniformity,
    check_reliability,
    check_indicator_privacy,
    check_z_uniformity,
    client_privacy_mi,
    delivered_query_distribution,
    leader_privacy_mi,
)
from mppsi.model import Universe
from mppsi.randomness import FAITHFUL, RandomnessPolicy

from test_audit import (
    FOUR_PARTY, HETEROGENEOUS, HOMOGENEOUS, POLICIES, TWO_PARTY, break_correlation_at_top, profile
)

INSTANCES = {
    "homogeneous": HOMOGENEOUS,
    "heterogeneous": HETEROGENEOUS,
    "two-party": TWO_PARTY,
}
POLICY_NAMES = ("faithful", "zero_local", "zero_individual", "offset", "fixed_global")
CHECKS = {
    "db1": check_db1_uniformity,
    "z": check_z_uniformity,
    "indicator": check_indicator_privacy,
}

# Reliability instances, with the check_reliability arguments each runs
# under; the heterogeneous one samples its randomness.
RELIABILITY_INSTANCES = {
    "homogeneous": (HOMOGENEOUS, {}),
    "two-party": (TWO_PARTY, {}),
    "four-party": (FOUR_PARTY, {}),
    "heterogeneous-sampled": (HETEROGENEOUS, {"bound": 10**4, "sample_beyond_bound": 400}),
}

# (instance, policy) -> (passed, cases, space, exhaustive_randomness,
# exhaustive_h, digest of the failure strings).
RELIABILITY = {
    ("homogeneous", "faithful"): (True, 13122, 162, True, True, "4f53cda18c2baa0c"),
    ("homogeneous", "zero_local"): (True, 1458, 18, True, True, "4f53cda18c2baa0c"),
    ("homogeneous", "zero_individual"): (False, 5, 18, True, True, "ba3a889e6eba6c56"),
    ("homogeneous", "offset"): (False, 5, 162, True, True, "19666cb3f9cb2c97"),
    ("homogeneous", "fixed_global"): (True, 6561, 81, True, True, "4f53cda18c2baa0c"),
    ("two-party", "faithful"): (True, 4, 2, True, True, "4f53cda18c2baa0c"),
    ("two-party", "zero_local"): (True, 2, 1, True, True, "4f53cda18c2baa0c"),
    ("two-party", "zero_individual"): (False, 4, 2, True, True, "6c9ee78e48507c56"),
    ("two-party", "offset"): (False, 4, 2, True, True, "6c9ee78e48507c56"),
    ("two-party", "fixed_global"): (True, 4, 2, True, True, "4f53cda18c2baa0c"),
    ("four-party", "faithful"): (True, 62500, 12500, True, True, "4f53cda18c2baa0c"),
    ("four-party", "zero_local"): (True, 500, 100, True, True, "4f53cda18c2baa0c"),
    ("four-party", "zero_individual"): (True, 2500, 500, True, True, "4f53cda18c2baa0c"),
    ("four-party", "offset"): (False, 5, 12500, True, True, "8a65162cd23ea96a"),
    ("four-party", "fixed_global"): (True, 15625, 3125, True, True, "4f53cda18c2baa0c"),
    ("heterogeneous-sampled", "faithful"): (True, 800, 976562500, False, False, "4f53cda18c2baa0c"),
    ("heterogeneous-sampled", "zero_local"): (True, 800, 62500, False, False, "4f53cda18c2baa0c"),
    ("heterogeneous-sampled", "zero_individual"): (False, 5, 62500, False, False, "37f667a2d094d118"),
    ("heterogeneous-sampled", "offset"): (False, 5, 976562500, False, False, "d2b628179915d563"),
    ("heterogeneous-sampled", "fixed_global"): (True, 800, 244140625, False, False, "4f53cda18c2baa0c"),
}

# instance -> the report's fields as in RELIABILITY, with the auditor's
# completion broken for some t tuples only (break_correlation_at_top), so
# that the exhaustive walks fail inside a level, after realizations that
# pass. Taken from the walk that decoded one realization at a time.
RELIABILITY_INSIDE_LEVELS = {
    "homogeneous": (False, 17, 162, True, True, "c75c4f59c4231521"),
    "two-party": (True, 4, 2, True, True, "4f53cda18c2baa0c"),
    "four-party": (False, 85, 12500, True, True, "4c49081fb7a49fe5"),
    "heterogeneous-sampled": (False, 7, 976562500, False, False, "d96185b310abfbc9"),
}

# (check, instance, policy) -> digest of (passed, detail, sorted tables).
MASKING = {
    ("db1", "homogeneous", "faithful"): "0a3b07c8f022bed5",
    ("db1", "homogeneous", "zero_local"): "fd2896fbdc63afc1",
    ("db1", "homogeneous", "zero_individual"): "0a3b07c8f022bed5",
    ("db1", "homogeneous", "offset"): "0a3b07c8f022bed5",
    ("db1", "homogeneous", "fixed_global"): "f0c84394e8eca02c",
    ("db1", "heterogeneous", "faithful"): "79f833dbf87f52f3",
    ("db1", "heterogeneous", "zero_local"): "3e9713515a7863df",
    ("db1", "heterogeneous", "zero_individual"): "79f833dbf87f52f3",
    ("db1", "heterogeneous", "offset"): "79f833dbf87f52f3",
    ("db1", "heterogeneous", "fixed_global"): "7a1f053ecec883e1",
    ("db1", "two-party", "faithful"): "82c4c43f57f4bfcb",
    ("db1", "two-party", "zero_local"): "f4e571042cc4285f",
    ("db1", "two-party", "zero_individual"): "82c4c43f57f4bfcb",
    ("db1", "two-party", "offset"): "82c4c43f57f4bfcb",
    ("db1", "two-party", "fixed_global"): "82c4c43f57f4bfcb",
    ("z", "homogeneous", "faithful"): "c569c3bd6c294929",
    ("z", "homogeneous", "zero_local"): "c569c3bd6c294929",
    ("z", "homogeneous", "zero_individual"): "29e700630b153352",
    ("z", "homogeneous", "offset"): "c569c3bd6c294929",
    ("z", "homogeneous", "fixed_global"): "ec9cc970f3aecda6",
    ("z", "heterogeneous", "faithful"): "d329f62b46569ad6",
    ("z", "heterogeneous", "zero_local"): "d329f62b46569ad6",
    ("z", "heterogeneous", "zero_individual"): "0d1c14e92b903f5b",
    ("z", "heterogeneous", "offset"): "d329f62b46569ad6",
    ("z", "heterogeneous", "fixed_global"): "89b3ba3d3d4dfa96",
    ("z", "two-party", "faithful"): "97b851435763ef82",
    ("z", "two-party", "zero_local"): "97b851435763ef82",
    ("z", "two-party", "zero_individual"): "97b851435763ef82",
    ("z", "two-party", "offset"): "97b851435763ef82",
    ("z", "two-party", "fixed_global"): "97b851435763ef82",
    ("indicator", "homogeneous", "faithful"): "2cb6776c378209b3",
    ("indicator", "homogeneous", "zero_local"): "2cb6776c378209b3",
    ("indicator", "homogeneous", "zero_individual"): "9d941e52eedb5140",
    ("indicator", "homogeneous", "offset"): "36b84abce941b89e",
    ("indicator", "homogeneous", "fixed_global"): "62c47cf00893499c",
    ("indicator", "heterogeneous", "faithful"): "85319cff2101e05e",
    ("indicator", "heterogeneous", "zero_local"): "85319cff2101e05e",
    ("indicator", "heterogeneous", "zero_individual"): "989a86334992f772",
    ("indicator", "heterogeneous", "offset"): "c0ed206830387729",
    ("indicator", "heterogeneous", "fixed_global"): "dcadd698b8051b04",
    ("indicator", "two-party", "faithful"): "29eafa2529b78bb4",
    ("indicator", "two-party", "zero_local"): "29eafa2529b78bb4",
    ("indicator", "two-party", "zero_individual"): "5c3de80c090bea36",
    ("indicator", "two-party", "offset"): "5c3de80c090bea36",
    ("indicator", "two-party", "fixed_global"): "29eafa2529b78bb4",
}

# Leader-set cardinality -> digest of the delivered query-tuple table, which
# is the same at every client database and for every leader set of that size.
QUERY_TABLES = {1: "b6024403a54ff2dd", 2: "6dd0279991ce6f90"}

# (mask_queries, client, database) -> MIResult fields.
LEADER_MI = {
    (True, 1, 1): (True, 0.0, 324, 2, 162),
    (True, 1, 2): (True, 0.0, 972, 2, 486),
    (True, 2, 1): (True, 0.0, 324, 2, 162),
    (True, 2, 2): (True, 0.0, 972, 2, 486),
    (False, 1, 1): (True, 0.0, 12, 2, 6),
    (False, 1, 2): (False, 1.0, 36, 2, 36),
    (False, 2, 1): (True, 0.0, 12, 2, 6),
    (False, 2, 2): (False, 1.0, 36, 2, 36),
}

CLIENT_POLICIES = {
    "faithful": FAITHFUL,
    "offset": RandomnessPolicy(correlation_offset=1),
    "fixed_global": RandomnessPolicy(fixed_global=1),
}

# (leader set, policy) -> intersection outcome -> MIResult fields.
CLIENT_MI = {
    ((1,), "faithful"): {
        (): (True, 0.0, 5832, 12, 486),
        (1,): (True, 0.0, 972, 4, 243),
    },
    ((1,), "offset"): {
        (): (False, 0.9182958340545112, 3888, 12, 729),
        (1,): (True, 0.0, 1944, 4, 486),
    },
    ((1,), "fixed_global"): {
        (): (False, 0.9182958340544868, 2916, 12, 486),
        (1,): (True, 0.0, 972, 4, 243),
    },
    ((1, 2), "faithful"): {
        (): (False, 0.9910760598382401, 13122, 9, 2916),
        (1,): (True, 0.0, 4374, 3, 1458),
        (2,): (True, 0.0, 4374, 3, 1458),
        (1, 2): (True, 0.0, 729, 1, 729),
    },
    ((1, 2), "offset"): {
        (): (False, 1.8365916681088372, 10206, 9, 5103),
        (1,): (False, 0.9182958340543725, 4374, 3, 2916),
        (2,): (False, 0.9182958340543725, 4374, 3, 2916),
        (1, 2): (True, 0.0, 1458, 1, 1458),
    },
    ((1, 2), "fixed_global"): {
        (): (False, 1.836591668108831, 6561, 9, 2916),
        (1,): (False, 0.9182958340545488, 2187, 3, 1458),
        (2,): (False, 0.9182958340545488, 2187, 3, 1458),
        (1, 2): (True, 0.0, 729, 1, 729),
    },
}


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def report_digest(report) -> str:
    tables = sorted((repr(key), table.probs) for key, table in report.tables.items())
    return digest((report.passed, report.detail, tables))


def assert_mi(result, pinned):
    is_zero, bits, *outcomes = pinned
    assert result.is_zero == is_zero
    assert abs(result.bits - bits) < 1e-12
    assert [
        result.joint_outcomes, result.secret_outcomes, result.view_outcomes
    ] == outcomes


@pytest.mark.parametrize("policy_name, policy", list(zip(POLICY_NAMES, POLICIES)))
@pytest.mark.parametrize("instance_name", list(RELIABILITY_INSTANCES))
def test_reliability_reports(instance_name, policy_name, policy):
    instance, kwargs = RELIABILITY_INSTANCES[instance_name]
    report = check_reliability(instance, policy=policy, **kwargs)
    assert (
        report.passed, report.cases, report.space, report.exhaustive_randomness,
        report.exhaustive_h, digest(report.failures),
    ) == RELIABILITY[(instance_name, policy_name)]


@pytest.mark.parametrize("instance_name", list(RELIABILITY_INSTANCES))
def test_reliability_reports_with_failures_inside_levels(instance_name, monkeypatch):
    instance, kwargs = RELIABILITY_INSTANCES[instance_name]
    break_correlation_at_top(monkeypatch)
    report = check_reliability(instance, **kwargs)
    assert (
        report.passed, report.cases, report.space, report.exhaustive_randomness,
        report.exhaustive_h, digest(report.failures),
    ) == RELIABILITY_INSIDE_LEVELS[instance_name]


@pytest.mark.parametrize("policy_name, policy", list(zip(POLICY_NAMES, POLICIES)))
@pytest.mark.parametrize("instance_name", list(INSTANCES))
@pytest.mark.parametrize("check_name", list(CHECKS))
def test_masking_reports(check_name, instance_name, policy_name, policy):
    report = CHECKS[check_name](INSTANCES[instance_name], policy=policy)
    assert report_digest(report) == MASKING[(check_name, instance_name, policy_name)]


CLIENTS = [profile(1, {1, 3}, 2), profile(2, {2}, 2)]


@pytest.mark.parametrize("leader_set", [{1}, {2}, {1, 3}, {2, 3}])
def test_delivered_query_tables(leader_set):
    for client_id in (1, 2):
        for database in (1, 2):
            table = delivered_query_distribution(
                clients=CLIENTS,
                leader=profile(3, leader_set, 2),
                universe=Universe(3),
                client_id=client_id,
                database=database,
            )
            assert digest(table.probs) == QUERY_TABLES[len(leader_set)]


@pytest.mark.parametrize(
    "key",
    list(LEADER_MI),
    ids=[f"{'masked' if m else 'unmasked'}-{c}-{d}" for m, c, d in LEADER_MI],
)
def test_leader_privacy_mi(key):
    mask_queries, client_id, database = key
    result = leader_privacy_mi(
        clients=CLIENTS,
        leader_id=3,
        leader_databases=2,
        candidate_sets=[frozenset({1}), frozenset({2})],
        universe=Universe(3),
        client_id=client_id,
        database=database,
        mask_queries=mask_queries,
    )
    assert_mi(result, LEADER_MI[key])


@pytest.mark.parametrize(
    "key",
    list(CLIENT_MI),
    ids=[f"leader{''.join(map(str, s))}-{p}" for s, p in CLIENT_MI],
)
def test_client_privacy_mi(key):
    leader_set, policy_name = key
    report = client_privacy_mi(
        leader=profile(3, leader_set, 3),
        client_shapes=[(1, 3), (2, 3)],
        universe=Universe(2),
        policy=CLIENT_POLICIES[policy_name],
    )
    pinned = CLIENT_MI[key]
    assert {tuple(sorted(k)) for k in report.per_intersection} == set(pinned)
    for outcome, result in report.per_intersection.items():
        assert_mi(result, pinned[tuple(sorted(outcome))])
    assert report.is_zero == all(fields[0] for fields in pinned.values())
    assert abs(report.bits_max - max(fields[1] for fields in pinned.values())) < 1e-12
