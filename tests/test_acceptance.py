"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -rA` to see the per-criterion
lines for passing tests as well.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from mppsi.audit import (
    AuditInstance,
    check_db1_uniformity,
    check_indicator_privacy,
    check_reliability,
    check_z_uniformity,
    client_privacy_mi,
    leader_privacy_mi,
)
from mppsi.config import SessionConfig
from mppsi.demo import DEMOS, run_demo
from mppsi.leader import cost_table
from mppsi.model import PartyProfile, Universe, brute_force_intersection
from mppsi.net import run_networked_session
from mppsi.randomness import RandomnessPolicy
from mppsi.session import run_memory_session


class Criterion:
    """Times a criterion body and prints one pass/fail line."""

    def __init__(self, number: int, title: str, limit_seconds: float):
        self.number = number
        self.title = title
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"criterion {self.number}: {status} "
            f"({elapsed:.2f}s, limit {self.limit:.0f}s) - {self.title}"
        )
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit:.0f}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def oracle_download_cost(leader_size: int, client_dbs) -> int:
    return sum(math.ceil(leader_size * n / (n - 1)) for n in client_dbs)


def oracle_best_leader(profiles):
    best = None
    for candidate in profiles:
        others = [p for p in profiles if p.party_id != candidate.party_id]
        if any(p.num_databases < 2 for p in others):
            continue
        cost = oracle_download_cost(
            len(candidate.data_set), [p.num_databases for p in others]
        )
        key = (cost, candidate.party_id)
        if best is None or key < best:
            best = key
    assert best is not None
    return best


def test_criterion_1_golden_homogeneous():
    with Criterion(1, "demo sec4 decodes {1} at cost 6", 1.0):
        report = run_demo("sec4")
        assert report["decoded"] == [1]
        assert report["download_cost_actual"] == 6
        assert report["passed"]


def test_criterion_2_golden_scarce_databases():
    with Criterion(2, "demo sec7_1 decodes {1} at cost 8", 1.0):
        report = run_demo("sec7_1")
        assert report["decoded"] == [1]
        assert report["download_cost_actual"] == 8
        assert report["passed"]


def test_criterion_3_golden_heterogeneous():
    with Criterion(3, "demo sec7_2 decodes {1,4} at cost 15; table shows 14", 1.0):
        report = run_demo("sec7_2")
        assert report["decoded"] == [1, 4]
        assert report["download_cost_actual"] == 15
        # The forced leader costs 15 while the table documents that party 2
        # would have cost 14.
        assert report["cost_table"]["2"] == 14
        assert report["leader"] == 4
        assert report["passed"]


def test_criterion_4_cost_bound_consistency():
    with Criterion(4, "cost formula and argmin on 1000 random instances", 10.0):
        rng = random.Random(20240)
        for _ in range(1000):
            m = rng.randint(2, 5)
            k = rng.randint(1, 8)
            profiles = tuple(
                PartyProfile(
                    i,
                    rng.randint(2, 6),
                    frozenset(e for e in range(1, k + 1) if rng.random() < 0.5),
                )
                for i in range(1, m + 1)
            )
            config = SessionConfig(
                universe_size=k, parties=profiles, seed=rng.randrange(2**63)
            )
            transcript = run_memory_session(config)
            expected_cost, expected_leader = oracle_best_leader(profiles)
            assert transcript.leader_id == expected_leader
            assert transcript.download_cost_actual == expected_cost
            table = cost_table(profiles)
            assert transcript.cost_table.costs == table.costs


def test_criterion_5_reliability_exhaustive_suite():
    with Criterion(
        5,
        "decode equals brute force on the exhaustive small suite",
        60.0,
    ):
        instances = 0
        cases = 0
        exhaustive = 0
        for m in (2, 3):
            for k in (1, 2, 3, 4):
                subsets = [
                    frozenset(combo)
                    for r in range(k + 1)
                    for combo in itertools.combinations(range(1, k + 1), r)
                ]
                for sets in itertools.product(subsets, repeat=m):
                    for dbs in itertools.product((2, 3), repeat=m):
                        instances += 1
                        profiles = tuple(
                            PartyProfile(i + 1, dbs[i], sets[i]) for i in range(m)
                        )
                        table = cost_table(profiles)
                        leader = next(
                            p for p in profiles if p.party_id == table.best()
                        )
                        if not leader.data_set:
                            # Empty leader set: the protocol short-circuits
                            # to the (empty) intersection without traffic.
                            transcript = run_memory_session(
                                SessionConfig(
                                    universe_size=k, parties=profiles, seed=instances
                                )
                            )
                            assert transcript.result.decoded == (
                                brute_force_intersection(profiles)
                            )
                            cases += 1
                            continue
                        report = check_reliability(
                            AuditInstance(profiles, Universe(k)),
                            bound=486,
                            h_samples=1,
                            h_enum_limit=3,
                            sample_beyond_bound=12,
                            seed=instances,
                        )
                        assert report.passed, report.failures[:3]
                        cases += report.cases
                        exhaustive += report.exhaustive_randomness
        assert instances == 38800
        assert cases > 3_900_000
        assert exhaustive > 28_000
        print(
            f"  reliability suite: {instances} instances, {cases} realizations, "
            f"{exhaustive} with fully enumerated randomness"
        )


HOMOGENEOUS = AuditInstance(
    profiles=(
        PartyProfile(1, 3, frozenset({1, 2})),
        PartyProfile(2, 3, frozenset({1, 3})),
        PartyProfile(3, 3, frozenset({1, 4})),
    ),
    universe=Universe(4),
    leader_override=3,
)


def test_criterion_6_masking_lemma_audits():
    with Criterion(6, "exact uniformity audits of the three masks", 30.0):
        db1 = check_db1_uniformity(HOMOGENEOUS)
        assert db1.passed
        for table in db1.tables.values():
            assert all(p == Fraction(1, 3) for _, p in table.probs)

        z = check_z_uniformity(HOMOGENEOUS)
        assert z.passed
        assert z.tables
        for table in z.tables.values():
            assert all(p == Fraction(1, 3) for _, p in table.probs)

        ind = check_indicator_privacy(HOMOGENEOUS)
        assert ind.passed
        deficient_tables = [
            table for key, table in ind.tables.items() if key[1] != "intersection"
        ]
        assert deficient_tables
        for table in deficient_tables:
            assert table.as_dict() == {1: Fraction(1, 2), 2: Fraction(1, 2)}
        assert ind.tables[(1, "intersection", 0)].as_dict() == {0: Fraction(1)}


def test_criterion_7_mutual_information_audits():
    with Criterion(7, "exact zero mutual information plus negative controls", 300.0):
        clients = [
            PartyProfile(1, 2, frozenset({1, 3})),
            PartyProfile(2, 2, frozenset({2})),
        ]
        for client_id in (1, 2):
            for database in (1, 2):
                result = leader_privacy_mi(
                    clients=clients,
                    leader_id=3,
                    leader_databases=2,
                    candidate_sets=[frozenset({1}), frozenset({2})],
                    universe=Universe(3),
                    client_id=client_id,
                    database=database,
                )
                assert result.is_zero and result.bits == 0.0

        report = client_privacy_mi(
            leader=PartyProfile(3, 3, frozenset({1})),
            client_shapes=[(1, 3), (2, 3)],
            universe=Universe(2),
        )
        assert report.is_zero and report.bits_max == 0.0

        # Negative control: disabling the global multiplier leaks strictly
        # positive information to the leader.
        leak = client_privacy_mi(
            leader=PartyProfile(3, 3, frozenset({1})),
            client_shapes=[(1, 3), (2, 3)],
            universe=Universe(2),
            policy=RandomnessPolicy(fixed_global=1),
        )
        assert not leak.is_zero and leak.bits_max > 0

        # Negative control: breaking the individual-value correlation breaks
        # reliability outright.
        broken = check_reliability(
            HOMOGENEOUS, policy=RandomnessPolicy(correlation_offset=1)
        )
        assert not broken.passed


def test_criterion_8_transport_equivalence():
    with Criterion(8, "memory and loopback transports agree on 100 configs", 60.0):
        rng = random.Random(808)
        for index in range(100):
            m = rng.randint(2, 4)
            k = rng.randint(1, 5)
            profiles = tuple(
                PartyProfile(
                    i,
                    rng.randint(2, 4),
                    frozenset(e for e in range(1, k + 1) if rng.random() < 0.5),
                )
                for i in range(1, m + 1)
            )
            config = SessionConfig(
                universe_size=k, parties=profiles, seed=rng.randrange(2**63)
            )
            mem = run_memory_session(config)
            net = run_networked_session(config)
            mem_msgs = sorted(mem.messages, key=str)
            net_msgs = sorted(net.messages, key=str)
            assert mem_msgs == net_msgs, f"config {index} transcripts diverge"
            assert mem.result.decoded == net.result.decoded
            assert (
                mem.result.download_cost_actual == net.result.download_cost_actual
            )
            assert mem.result.indicators == net.result.indicators


def test_criterion_9_determinism(tmp_path):
    with Criterion(9, "byte-identical transcript files across 10 repeats", 10.0):
        config = DEMOS["sec7_2"].config
        blobs = []
        for repeat in range(10):
            path = tmp_path / f"transcript_{repeat}.json"
            transcript = run_memory_session(config)
            path.write_bytes(transcript.serialize())
            blobs.append(path.read_bytes())
        assert all(blob == blobs[0] for blob in blobs)
