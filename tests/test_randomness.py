"""Randomness tiers: local vectors, correlated individual values, multiplier."""

import pytest

from mppsi.field import select_field_size
from mppsi.leader import generate_queries, make_partition_plan
from mppsi.model import PartyProfile, Universe
from mppsi.randomness import (
    RandomnessPolicy,
    build_bundle,
    correlating_client,
    free_clients,
    gen_global,
    gen_local,
)


def profile(pid, elems, dbs):
    return PartyProfile(pid, dbs, frozenset(elems))


def fixture(num_clients=2, dbs=3, leader_set=(1, 4)):
    clients = [profile(i, {i}, dbs) for i in range(1, num_clients + 1)]
    leader = profile(num_clients + 1, leader_set, dbs)
    plan = make_partition_plan(leader, clients)
    field = select_field_size(num_clients + 1)
    return plan, clients, field


def t_at(bundle, plan, client_id, position):
    """The individual value a client's databases hold for a leader-set position."""
    partition, database = plan.position_location(client_id, position)
    return bundle.individual[(client_id, database)][partition]


class TestLocal:
    def test_seeded_runs_repeat(self):
        field = select_field_size(3)
        assert gen_local(1, 2, field, seed=9) == gen_local(1, 2, field, seed=9)

    def test_vector_length(self):
        field = select_field_size(4)
        assert len(gen_local(1, 3, field, seed=0)) == 3

    def test_values_cover_field_across_seeds(self):
        field = select_field_size(3)
        seen = {gen_local(1, 1, field, seed=s)[0] for s in range(60)}
        assert seen == {0, 1, 2}

    def test_zero_slots_rejected(self):
        with pytest.raises(ValueError):
            gen_local(1, 0, select_field_size(3), seed=0)


class TestGlobal:
    def test_never_zero(self):
        field = select_field_size(3)
        values = {gen_global(field, seed=s) for s in range(60)}
        assert values == {1, 2}

    def test_binary_field_forces_one(self):
        field = select_field_size(2)
        assert all(gen_global(field, seed=s) == 1 for s in range(10))

    def test_larger_field_covers_all_nonzero(self):
        field = select_field_size(4)
        values = {gen_global(field, seed=s) for s in range(200)}
        assert values == {1, 2, 3, 4}


class TestBundle:
    def test_database_one_carries_zeros(self):
        plan, clients, field = fixture()
        bundle, _ = build_bundle(plan, clients, field, seed=4)
        for client in clients:
            slots = bundle.individual[(client.party_id, 1)]
            assert all(v == 0 for v in slots.values())

    def test_correlation_sum_every_position_every_seed(self):
        for num_clients in (1, 2, 3):
            plan, clients, field = fixture(num_clients=num_clients, dbs=3)
            num_parties = num_clients + 1
            expected = (field.modulus - (num_parties - 1)) % field.modulus
            for seed in range(25):
                bundle, _ = build_bundle(plan, clients, field, seed=seed)
                for position in range(1, plan.set_size + 1):
                    total = sum(
                        t_at(bundle, plan, cid, position) for cid in plan.client_ids
                    ) % field.modulus
                    assert total == expected

    def test_two_party_reduction(self):
        # A single client computes its values directly: the empty sum leaves
        # the full target L - 1.
        plan, clients, field = fixture(num_clients=1, dbs=3)
        bundle, shares = build_bundle(plan, clients, field, seed=0)
        assert field.modulus == 2
        for position in range(1, plan.set_size + 1):
            assert t_at(bundle, plan, 1, position) == field.modulus - 1
        assert all(s.kind == "c_share" for s in shares)

    def test_same_seed_reproduces_bundle(self):
        plan, clients, field = fixture()
        first, _ = build_bundle(plan, clients, field, seed=77)
        second, _ = build_bundle(plan, clients, field, seed=77)
        assert first.local == second.local
        assert first.individual == second.individual
        assert first.c == second.c

    def test_distinct_seeds_differ_somewhere(self):
        plan, clients, field = fixture()
        bundles = [build_bundle(plan, clients, field, seed=s)[0] for s in range(8)]
        locals_seen = {tuple(tuple(b.local[i]) for i in sorted(b.local)) for b in bundles}
        assert len(locals_seen) > 1

    def test_leader_never_appears_in_share_traffic(self):
        plan, clients, field = fixture()
        _, shares = build_bundle(plan, clients, field, seed=4)
        leader_id = plan.leader_id
        for share in shares:
            assert share.origin[0] != leader_id
            assert share.dest[0] != leader_id

    def test_share_positions_inside_leader_set_range(self):
        plan, clients, field = fixture()
        _, shares = build_bundle(plan, clients, field, seed=4)
        for share in shares:
            if share.kind == "t_share":
                assert 1 <= share.position <= plan.set_size

    def test_element_alignment_against_query_plan(self):
        # The value a database holds for a position must be the one used by
        # the unique targeted query that serves that position.
        plan, clients, field = fixture(num_clients=3, dbs=4, leader_set=(1, 3, 4))
        bundle, _ = build_bundle(plan, clients, field, seed=13)
        qp = generate_queries(plan, field, Universe(4), seed=13)
        for client in clients:
            specs = [
                q for q in qp.queries[client.party_id] if q.target_pos is not None
            ]
            assert len(specs) == plan.set_size
            seen = set()
            for spec in specs:
                assert spec.target_pos not in seen
                seen.add(spec.target_pos)
                assert plan.position_location(client.party_id, spec.target_pos) == (
                    spec.partition,
                    spec.database,
                )
                slot = bundle.individual[(client.party_id, spec.database)][spec.partition]
                assert slot == t_at(bundle, plan, client.party_id, spec.target_pos)

    def test_free_clients_and_correlator_split(self):
        assert correlating_client((1, 2, 3)) == 3
        assert free_clients((1, 2, 3)) == [1, 2]
        assert free_clients((1,)) == []

    def test_global_share_origin_is_lowest_client_first_database(self):
        plan, clients, field = fixture()
        _, shares = build_bundle(plan, clients, field, seed=4)
        c_shares = [s for s in shares if s.kind == "c_share"]
        assert all(s.origin == (1, 1) for s in c_shares)
        dests = {s.dest for s in c_shares}
        expected = {
            (c.party_id, db)
            for c in clients
            for db in range(1, c.num_databases + 1)
        } - {(1, 1)}
        assert dests == expected


class TestPolicies:
    def test_zero_local(self):
        plan, clients, field = fixture()
        bundle, _ = build_bundle(
            plan, clients, field, seed=4, policy=RandomnessPolicy(zero_local=True)
        )
        assert all(v == 0 for vec in bundle.local.values() for v in vec)

    def test_zero_individual_breaks_correlation(self):
        plan, clients, field = fixture()
        bundle, _ = build_bundle(
            plan, clients, field, seed=4, policy=RandomnessPolicy(zero_individual=True)
        )
        assert all(
            t_at(bundle, plan, cid, position) == 0
            for cid in plan.client_ids
            for position in range(1, plan.set_size + 1)
        )

    def test_correlation_offset_shifts_sums(self):
        plan, clients, field = fixture()
        bundle, _ = build_bundle(
            plan, clients, field, seed=4, policy=RandomnessPolicy(correlation_offset=1)
        )
        num_parties = len(clients) + 1
        broken = (field.modulus - (num_parties - 1) + 1) % field.modulus
        for position in range(1, plan.set_size + 1):
            total = sum(
                t_at(bundle, plan, cid, position) for cid in plan.client_ids
            ) % field.modulus
            assert total == broken

    def test_fixed_global(self):
        plan, clients, field = fixture()
        bundle, _ = build_bundle(
            plan, clients, field, seed=4, policy=RandomnessPolicy(fixed_global=1)
        )
        assert bundle.c == 1

    def test_fixed_global_zero_rejected(self):
        with pytest.raises(ValueError):
            gen_global(select_field_size(3), seed=0, policy=RandomnessPolicy(fixed_global=0))
