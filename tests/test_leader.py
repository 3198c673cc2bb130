"""Leader logic: cost table, election, partition plans, queries, decoding."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from mppsi.errors import InfeasibleError, ProtocolViolationError
from mppsi.field import PrimeField, select_field_size
from mppsi.leader import (
    cost_table,
    decode,
    decode_values,
    decode_vector,
    download_cost,
    elect_leader,
    generate_queries,
    make_partition_plan,
)
from mppsi.model import PartyProfile, Universe, brute_force_intersection
from mppsi.protocol import run_protocol


def profile(pid, elems, dbs):
    return PartyProfile(pid, dbs, frozenset(elems))


def oracle_cost(set_size, counterpart_dbs):
    """Independent evaluation of the per-candidate cost formula."""
    return sum(math.ceil(set_size * n / (n - 1)) for n in counterpart_dbs)


HOMOGENEOUS = [profile(1, {1, 2}, 3), profile(2, {1, 3}, 3), profile(3, {1, 4}, 3)]
HETEROGENEOUS = [
    profile(1, {1, 2, 3, 4}, 2),
    profile(2, {1, 2, 4}, 3),
    profile(3, {1, 3, 4}, 5),
    profile(4, {1, 4, 5}, 4),
]


class TestCostsAndElection:
    def test_homogeneous_tie_breaks_to_lowest_id(self):
        expected = oracle_cost(2, [3, 3])
        assert expected == 6
        leader, table = elect_leader(HOMOGENEOUS)
        assert table.costs == {1: 6, 2: 6, 3: 6}
        assert leader == 1

    def test_heterogeneous_table_and_argmin(self):
        sizes = {p.party_id: len(p.data_set) for p in HETEROGENEOUS}
        dbs = {p.party_id: p.num_databases for p in HETEROGENEOUS}
        expected = {
            t: oracle_cost(sizes[t], [dbs[i] for i in dbs if i != t]) for t in dbs
        }
        assert expected == {1: 17, 2: 14, 3: 15, 4: 15}
        leader, table = elect_leader(HETEROGENEOUS)
        assert table.costs == expected
        assert leader == 2

    def test_candidate_facing_single_database_is_infeasible(self):
        parties = [profile(1, {1}, 1), profile(2, {2}, 1)]
        with pytest.raises(InfeasibleError):
            elect_leader(parties)

    def test_nonempty_candidate_with_single_database_counterpart(self):
        parties = [profile(1, {1}, 1), profile(2, {1, 2}, 5)]
        table = cost_table(parties)
        assert table.costs[2] is None  # blocked by party 1's lone database
        assert table.costs[1] is not None
        assert table.best() == 1

    def test_zero_cost_only_for_empty_set(self):
        parties = [profile(1, set(), 2), profile(2, {1}, 2)]
        table = cost_table(parties)
        assert table.costs[1] == 0
        assert table.costs[2] > 0


class TestDownloadCost:
    def test_homogeneous(self):
        assert download_cost(HOMOGENEOUS[2], HOMOGENEOUS[:2]) == 6

    def test_two_databases_per_client(self):
        clients = [profile(1, {1, 2}, 2), profile(2, {1, 3}, 2)]
        assert download_cost(profile(3, {1, 4}, 2), clients) == 8

    def test_heterogeneous(self):
        assert download_cost(HETEROGENEOUS[3], HETEROGENEOUS[:3]) == 15

    def test_single_database_client_rejected(self):
        with pytest.raises(InfeasibleError):
            download_cost(profile(2, {1}, 3), [profile(1, {1}, 1)])


class TestPartitionPlan:
    def test_heterogeneous_partitions(self):
        leader = HETEROGENEOUS[3]
        clients = HETEROGENEOUS[:3]
        plan = make_partition_plan(leader, clients)
        assert plan.leader_elements == (1, 4, 5)
        assert plan.partitions[1] == [[1], [4], [5]]
        assert plan.eta[1] == 3
        assert plan.partitions[2] == [[1, 4], [5]]
        assert plan.eta[2] == 2
        # Five databases exceed the set size + 1; only four are used.
        assert plan.used_databases[3] == 4
        assert plan.partitions[3] == [[1, 4, 5]]
        assert plan.eta[3] == 1

    def test_whole_set_in_one_partition(self):
        leader = profile(2, {2, 3, 5}, 2)
        clients = [profile(1, {1}, 4)]
        plan = make_partition_plan(leader, clients)
        assert plan.eta[1] == 1
        assert plan.partitions[1] == [[2, 3, 5]]

    def test_partitions_are_disjoint_cover(self):
        rng = random.Random(11)
        for _ in range(50):
            k = rng.randint(1, 8)
            leader_set = frozenset(rng.sample(range(1, k + 1), rng.randint(1, k)))
            clients = [
                profile(i, set(), rng.randint(2, 6)) for i in range(1, rng.randint(2, 4))
            ]
            leader = profile(len(clients) + 1, leader_set, 2)
            plan = make_partition_plan(leader, clients)
            for client in clients:
                parts = plan.partitions[client.party_id]
                chunk = plan.chunk[client.party_id]
                flattened = [e for part in parts for e in part]
                assert flattened == sorted(leader_set)
                assert all(len(part) == chunk for part in parts[:-1])
                assert 1 <= len(parts[-1]) <= chunk

    def test_position_location_matches_partitions(self):
        plan = make_partition_plan(HETEROGENEOUS[3], HETEROGENEOUS[:3])
        for client_id in plan.client_ids:
            for position, element in enumerate(plan.leader_elements, start=1):
                ell, db = plan.position_location(client_id, position)
                part = plan.partitions[client_id][ell - 1]
                assert part[db - 2] == element

    def test_infeasible_client(self):
        with pytest.raises(InfeasibleError):
            make_partition_plan(profile(2, {1}, 3), [profile(1, {1}, 1)])


class TestQueryGeneration:
    def test_single_partition_layout(self):
        leader, clients = HOMOGENEOUS[2], HOMOGENEOUS[:2]
        plan = make_partition_plan(leader, clients)
        field = select_field_size(3)
        qp = generate_queries(plan, field, Universe(4), seed=5)
        h = qp.h_vectors[0]
        for client_id in (1, 2):
            base = qp.queries_for(client_id, 1)
            assert len(base) == 1 and base[0].vector == h
            bump1 = qp.queries_for(client_id, 2)[0]
            bump4 = qp.queries_for(client_id, 3)[0]
            assert bump1.target_element == 1
            assert bump4.target_element == 4
            assert bump1.vector[0] == (h[0] + 1) % field.modulus
            assert bump1.vector[1:] == h[1:]
            assert bump4.vector[3] == (h[3] + 1) % field.modulus
            assert bump4.vector[:3] == h[:3]

    def test_two_base_vectors_when_databases_are_scarce(self):
        leader = profile(3, {1, 4}, 2)
        clients = [profile(1, {1, 2}, 2), profile(2, {1, 3}, 2)]
        plan = make_partition_plan(leader, clients)
        field = select_field_size(3)
        qp = generate_queries(plan, field, Universe(4), seed=5)
        assert len(qp.h_vectors) == 2
        for client_id in (1, 2):
            base = qp.queries_for(client_id, 1)
            assert [q.partition for q in base] == [1, 2]
            assert base[0].vector == qp.h_vectors[0]
            assert base[1].vector == qp.h_vectors[1]
            targeted = qp.queries_for(client_id, 2)
            assert [(q.partition, q.target_element) for q in targeted] == [(1, 1), (2, 4)]

    def test_short_final_partition_skips_databases(self):
        # Client with three databases and a three-element leader set: the
        # second partition holds one element, so its third database gets no
        # query for it.
        leader = profile(2, {1, 4, 5}, 2)
        clients = [profile(1, {1}, 3)]
        plan = make_partition_plan(leader, clients)
        field = select_field_size(2)
        qp = generate_queries(plan, field, Universe(5), seed=5)
        db2 = qp.queries_for(1, 2)
        db3 = qp.queries_for(1, 3)
        assert [(q.partition, q.target_element) for q in db2] == [(1, 1), (2, 5)]
        assert [(q.partition, q.target_element) for q in db3] == [(1, 4)]

    def test_query_shape_invariant(self):
        rng = random.Random(23)
        for _ in range(40):
            k = rng.randint(1, 6)
            m = rng.randint(2, 4)
            leader_set = frozenset(rng.sample(range(1, k + 1), rng.randint(1, k)))
            profiles = [profile(i, set(), rng.randint(2, 5)) for i in range(1, m)]
            leader = profile(m, leader_set, 2)
            plan = make_partition_plan(leader, profiles)
            field = select_field_size(m)
            qp = generate_queries(plan, field, Universe(k), seed=rng.randint(0, 999))
            for spec in qp.all_queries():
                base = qp.h_vectors[spec.partition - 1]
                diffs = [
                    (i, (v - b) % field.modulus)
                    for i, (v, b) in enumerate(zip(spec.vector, base))
                    if v != b
                ]
                if spec.target_pos is None:
                    assert diffs == []
                else:
                    assert len(diffs) == 1
                    index, delta = diffs[0]
                    assert delta == 1
                    assert index + 1 == plan.leader_elements[spec.target_pos - 1]

    def test_count_invariant_matches_cost_formula(self):
        rng = random.Random(29)
        for _ in range(40):
            k = rng.randint(1, 6)
            m = rng.randint(2, 4)
            leader_set = frozenset(rng.sample(range(1, k + 1), rng.randint(1, k)))
            clients = [profile(i, set(), rng.randint(2, 5)) for i in range(1, m)]
            leader = profile(m, leader_set, 2)
            plan = make_partition_plan(leader, clients)
            field = select_field_size(m)
            qp = generate_queries(plan, field, Universe(k), seed=1)
            for client in clients:
                specs = qp.queries[client.party_id]
                assert len(specs) == plan.eta[client.party_id] + plan.set_size
            assert len(qp.all_queries()) == download_cost(leader, clients)


class TestDecode:
    def test_homogeneous_example(self):
        run = run_protocol(HOMOGENEOUS, Universe(4), seed=3, leader_override=3)
        assert run.result.decoded == {1}
        assert run.result.indicators[4] != 0
        assert run.result.download_cost_actual == 6

    def test_all_parties_share_everything(self):
        profiles = [profile(i, {1, 2, 3}, 3) for i in range(1, 4)]
        run = run_protocol(profiles, Universe(3), seed=9)
        assert run.result.decoded == {1, 2, 3}
        assert all(v == 0 for v in run.result.indicators.values())

    def test_order_invariance(self):
        run = run_protocol(HOMOGENEOUS, Universe(4), seed=3, leader_override=3)
        field = run.setup.field
        shuffled = list(run.answers)
        random.Random(0).shuffle(shuffled)
        again = decode(run.plan, shuffled, field)
        assert again.decoded == run.result.decoded
        assert again.indicators == run.result.indicators

    def test_missing_answer_rejected(self):
        run = run_protocol(HOMOGENEOUS, Universe(4), seed=3, leader_override=3)
        with pytest.raises(ProtocolViolationError):
            decode(run.plan, run.answers[:-1], run.setup.field)

    def test_duplicate_answer_rejected(self):
        run = run_protocol(HOMOGENEOUS, Universe(4), seed=3, leader_override=3)
        with pytest.raises(ProtocolViolationError):
            decode(run.plan, list(run.answers) + [run.answers[0]], run.setup.field)

    def test_missing_base_and_targeted_answers_rejected(self):
        # The missing keys (1, 1, None) and (1, 1, 1) differ only where None
        # meets an int; the error message must still list them.
        run = run_protocol(HOMOGENEOUS, Universe(4), seed=3, leader_override=3)
        kept = [a for a in run.answers if (a.client_id, a.partition) != (1, 1)]
        with pytest.raises(ProtocolViolationError, match=r"\(1, 1, None\)"):
            decode(run.plan, kept, run.setup.field)

    def test_foreign_answer_key_rejected(self):
        run = run_protocol(HOMOGENEOUS, Universe(4), seed=3, leader_override=3)
        values = {(a.client_id, a.partition, a.target_pos): a.value for a in run.answers}
        client_id, partition, _ = key = next(k for k in values if k[2] is not None)
        values[(client_id, partition, 99)] = values.pop(key)
        assert len(values) == len(run.plan.answer_keys)
        with pytest.raises(ProtocolViolationError, match="unexpected"):
            decode_values(run.plan, values, run.setup.field.modulus)

    @given(st.data())
    def test_kernel_on_canonical_order_equals_keyed_decode(self, data):
        k = data.draw(st.integers(min_value=1, max_value=8))
        leader = profile(1, data.draw(st.sets(st.integers(1, k), min_size=1)), 2)
        clients = [
            profile(i, data.draw(st.sets(st.integers(1, k))), data.draw(st.integers(2, 5)))
            for i in range(2, data.draw(st.integers(2, 5)) + 1)
        ]
        plan = make_partition_plan(leader, clients)
        modulus = data.draw(st.sampled_from((2, 3, 5, 7, 257)))
        values = {
            key: data.draw(st.integers(0, modulus - 1)) for key in plan.answer_keys
        }
        vector = [values[key] for key in plan.answer_keys]
        assert decode_vector(plan, vector, modulus) == decode_values(plan, values, modulus)

    def test_decode_matches_brute_force_on_random_instances(self):
        rng = random.Random(31)
        for _ in range(60):
            k = rng.randint(1, 6)
            m = rng.randint(2, 4)
            profiles = [
                profile(
                    i,
                    frozenset(
                        e for e in range(1, k + 1) if rng.random() < 0.5
                    ),
                    rng.randint(2, 5),
                )
                for i in range(1, m + 1)
            ]
            run = run_protocol(profiles, Universe(k), seed=rng.randint(0, 10**6))
            assert run.result.decoded == brute_force_intersection(profiles)
