"""The dealing of the randomness tiers: local vectors, correlated individual values, multiplier."""

from collections import Counter

import pytest

from mppsi import seeding
from mppsi.audit import AuditInstance, _raw_realizations, compile_instance, individual_values
from mppsi.field import select_field_size
from mppsi.leader import generate_queries, make_partition_plan
from mppsi.model import PartyProfile, Universe
from mppsi.net import run_networked_session
from mppsi.protocol import prepare_session
from mppsi.randomness import (
    FAITHFUL,
    RandomnessPolicy,
    build_bundle,
    completion,
    correlating_client,
    free_clients,
)
from mppsi.session import run_memory_session
from test_golden import wide_config
from test_leader import queries_to


SESSION = "randomness-tests"
UNIVERSE_SIZE = 5  # every fixture set lies in 1..5


def profile(pid, elems, dbs):
    return PartyProfile(pid, dbs, frozenset(elems))


def fixture(num_clients=2, dbs=3, leader_set=(1, 4)):
    clients = [profile(i, {i}, dbs) for i in range(1, num_clients + 1)]
    leader = profile(num_clients + 1, leader_set, dbs)
    plan = make_partition_plan(leader, clients)
    field = select_field_size(num_clients + 1)
    return plan, clients, field


def dealt(plan, clients, field, seed):
    """The database states build_bundle deals for plan's session from seed."""
    return build_bundle(plan.shape, clients, field, seed, SESSION, plan.leader_id, UNIVERSE_SIZE)


def t_at(states, plan, client_id, position):
    """The individual value a client's databases hold for a leader-set position."""
    partition, database = plan.shape.position_location(client_id, position)
    return states[client_id, database].individual[partition]


def held(states):
    """What each database state holds: its (local, individual, c) by address."""
    return {address: (s.local, s.individual, s.c) for address, s in states.items()}


def bundle(seed, **sizes):
    """The database states of a seeded bundle over fixture(**sizes)."""
    plan, clients, field = fixture(**sizes)
    return dealt(plan, clients, field, seed)


class TestLocal:
    def test_seeded_runs_repeat(self):
        first, second = bundle(seed=9), bundle(seed=9)
        assert [s.local for s in first.values()] == [s.local for s in second.values()]

    def test_vector_length(self):
        sizes = {"num_clients": 3, "leader_set": (1, 2, 3, 4, 5)}
        plan, _, _ = fixture(**sizes)
        for (client_id, _), state in bundle(seed=0, **sizes).items():
            assert len(state.local) == plan.shape.eta[client_id] == 3

    def test_every_database_of_a_client_draws_the_same_vector(self):
        states = bundle(seed=3, num_clients=3)
        for (client_id, _), state in states.items():
            assert state.local == states[client_id, 1].local

    def test_values_cover_field_across_seeds(self):
        seen = {bundle(seed=s)[1, 1].local[0] for s in range(60)}
        assert seen == {0, 1, 2}


class TestSlotCoverage:
    SEEDS = range(60)

    def states(self, seed):
        # Three clients over F_5; each client's databases 2 and 3 hold two
        # positions each, in partitions 1 and 2.
        plan, clients, field = fixture(num_clients=3, dbs=3, leader_set=(1, 2, 3, 4))
        return dealt(plan, clients, field, seed), field

    def test_free_database_values_cover_the_field(self):
        seen = set()
        for seed in self.SEEDS:
            states, field = self.states(seed)
            assert sorted(states[1, 2].individual) == [1, 2]
            seen.update(states[1, 2].individual.values())
        assert seen == set(range(field.modulus))

    def test_databases_of_one_client_draw_their_own_vectors(self):
        pairs = [
            (states[2, 2].individual, states[2, 3].individual)
            for states, _ in map(self.states, self.SEEDS)
        ]
        assert any(second != third for second, third in pairs)


@pytest.mark.parametrize("transport", ("memory", "tcp"))
def test_one_labeled_stream_per_draw_of_the_dealing(transport, monkeypatch):
    # A session is dealt each tier as whole labeled vectors, once for every
    # database on either transport: a local vector per client ("s"), an
    # individual vector per free-client database holding a position ("t")
    # and the multiplier ("c"); the leader draws one base vector per
    # partition index ("h").
    config = wide_config()
    setup = prepare_session(config.parties, config.universe)
    shape = make_partition_plan(setup.leader, setup.clients).shape
    tiers = Counter()
    labeled_rng = seeding.labeled_rng

    def counting_rng(seed, *label):
        tiers[label[0]] += 1
        return labeled_rng(seed, *label)

    monkeypatch.setattr(seeding, "labeled_rng", counting_rng)
    run = run_memory_session if transport == "memory" else run_networked_session
    run(config)
    assert dict(tiers) == {"s": 3, "t": 6, "c": 1, "h": max(shape.eta.values())}


class TestGlobal:
    def test_never_zero(self):
        values = {bundle(seed=s)[1, 1].c for s in range(60)}
        assert values == {1, 2}

    def test_binary_field_forces_one(self):
        assert all(bundle(seed=s, num_clients=1)[1, 1].c == 1 for s in range(10))

    def test_larger_field_covers_all_nonzero(self):
        values = {bundle(seed=s, num_clients=3)[1, 1].c for s in range(200)}
        assert values == {1, 2, 3, 4}

    def test_every_database_is_dealt_one_nonzero_multiplier(self):
        # Three clients of three databases each: nine records, one c.
        for seed in range(30):
            states = bundle(seed=seed, num_clients=3)
            assert len(states) == 9
            (c,) = {state.c for state in states.values()}
            assert 0 < c < 5


class TestBundle:
    def test_database_one_holds_no_individual_values(self):
        # Database 1 gets only bare base queries, so it holds no t values;
        # every other database holds one per partition of its positions.
        plan, clients, field = fixture(num_clients=3)
        states = dealt(plan, clients, field, 4)
        for (client_id, database), state in states.items():
            positions = plan.shape.positions_of_database(client_id, database)
            partitions = {plan.shape.position_location(client_id, k)[0] for k in positions}
            assert set(state.individual) == partitions
            assert bool(partitions) == (database != 1)

    def test_correlation_sum_every_position_every_seed(self):
        for num_clients in (1, 2, 3):
            plan, clients, field = fixture(num_clients=num_clients, dbs=3)
            num_parties = num_clients + 1
            expected = (field.modulus - (num_parties - 1)) % field.modulus
            for seed in range(25):
                states = dealt(plan, clients, field, seed)
                for position in range(1, plan.shape.set_size + 1):
                    total = sum(
                        t_at(states, plan, cid, position) for cid in plan.shape.client_ids
                    ) % field.modulus
                    assert total == expected

    def test_two_party_reduction(self):
        # A single client computes its values directly: the empty sum leaves
        # the full target L - 1.
        plan, clients, field = fixture(num_clients=1, dbs=3)
        states = dealt(plan, clients, field, 0)
        assert field.modulus == 2
        for position in range(1, plan.shape.set_size + 1):
            assert t_at(states, plan, 1, position) == field.modulus - 1

    def test_same_seed_reproduces_bundle(self):
        plan, clients, field = fixture()
        first = dealt(plan, clients, field, 77)
        second = dealt(plan, clients, field, 77)
        assert held(first) == held(second)

    def test_distinct_seeds_differ_somewhere(self):
        plan, clients, field = fixture()
        runs = [dealt(plan, clients, field, s) for s in range(8)]
        locals_seen = {tuple(tuple(s.local) for _, s in sorted(run.items())) for run in runs}
        assert len(locals_seen) > 1

    def test_element_alignment_against_query_plan(self):
        # The value a database holds for a position must be the one used by
        # the unique targeted query that serves that position.
        plan, clients, field = fixture(num_clients=3, dbs=4, leader_set=(1, 3, 4))
        states = dealt(plan, clients, field, 13)
        sent = generate_queries(plan, field, Universe(4), seed=13, session_id=SESSION)
        for client in clients:
            specs = [
                q
                for database in range(1, client.num_databases + 1)
                for q in queries_to(sent, (client.party_id, database))
                if q.target is not None
            ]
            assert len(specs) == plan.shape.set_size
            seen = set()
            for spec in specs:
                assert spec.target not in seen
                seen.add(spec.target)
                database = spec.dest[1]
                assert plan.shape.position_location(client.party_id, spec.target) == (
                    spec.partition,
                    database,
                )
                slot = states[client.party_id, database].individual[spec.partition]
                assert slot == t_at(states, plan, client.party_id, spec.target)

    def test_the_leader_is_dealt_nothing(self):
        # Every database of every client gets a record, idle ones too; the
        # leader's databases get none.
        plan, clients, field = fixture(num_clients=3, dbs=4, leader_set=(1, 4))
        states = dealt(plan, clients, field, 5)
        assert sorted(states) == [(cid, db) for cid in (1, 2, 3) for db in (1, 2, 3, 4)]
        assert not states[1, 4].individual

    def test_every_record_names_its_session_and_address(self):
        for address, state in bundle(seed=6, num_clients=3).items():
            assert (state.session_id, state.address) == (SESSION, address)

    def test_dealt_values_are_their_labeled_draws(self):
        # The auditor replays these labels: "s/<client>", "t/<client>/<database>"
        # for a free client's database, and "c".
        plan, clients, field = fixture(num_clients=3)
        shape, modulus = plan.shape, field.modulus
        for seed in range(10):
            states = dealt(plan, clients, field, seed)
            for (cid, db), state in states.items():
                eta = shape.eta[cid]
                assert state.local == seeding.draw_vector(seed, modulus, eta, "s", cid)
                assert state.c == seeding.draw_nonzero(seed, modulus, "c")
                if cid != correlating_client(shape.client_ids):
                    draws = seeding.draw_vector(seed, modulus, eta, "t", cid, db)
                    for partition, value in state.individual.items():
                        assert value == draws[partition - 1]

    def test_the_correlating_client_draws_no_individual_stream(self, monkeypatch):
        # Its values are completions of the free clients', never draws.
        plan, clients, field = fixture(num_clients=3)
        labels = []
        labeled_rng = seeding.labeled_rng

        def recording_rng(seed, *label):
            labels.append(label)
            return labeled_rng(seed, *label)

        monkeypatch.setattr(seeding, "labeled_rng", recording_rng)
        dealt(plan, clients, field, 8)
        drawn = sorted(label[1:] for label in labels if label[0] == "t")
        assert drawn == [(cid, db) for cid in (1, 2) for db in (2, 3)]

    def test_dealing_does_not_depend_on_the_order_of_the_clients(self):
        plan, clients, field = fixture(num_clients=3)
        for seed in range(10):
            forward = dealt(plan, clients, field, seed)
            backward = dealt(plan, clients[::-1], field, seed)
            assert held(forward) == held(backward)

    def test_completion_closes_each_position_sum(self):
        # L = 5 and three clients: free values 1 and 3 are completed to sum 5 - 3.
        assert completion([1, 3], 5, 3, FAITHFUL) == 3
        assert completion([1, 3], 5, 3, RandomnessPolicy(correlation_offset=1)) == 4
        assert completion([1, 3], 5, 3, RandomnessPolicy(zero_individual=True)) == 0
        assert completion([], 2, 1, FAITHFUL) == 1

    def test_free_clients_and_correlator_split(self):
        assert correlating_client((1, 2, 3)) == 3
        assert free_clients((1, 2, 3)) == [1, 2]
        assert free_clients((1,)) == []


def audited(policy, samples=30):
    """The auditor's compiled instance of fixture() and (s, t, c) draws
    sampled from its realization stream under policy. Sessions run only
    the faithful scheme; the stream is where a policy's mutation acts."""
    _, clients, _ = fixture()
    leader = profile(len(clients) + 1, (1, 4), 3)
    compiled = compile_instance(AuditInstance((*clients, leader), Universe(4), leader.party_id))
    draws, _, exhaustive = _raw_realizations(compiled, policy, 0, samples, seed=4)
    assert not exhaustive
    return compiled, [(s, tuple(ts), c) for s, [(_, ts, (c,), _)] in draws()]


def position_sums(compiled, t_values, policy):
    """Per leader-set position, the sum of every client's individual value."""
    modulus = compiled.field.modulus
    completed = individual_values(compiled, t_values, policy)[len(t_values):-1]
    return [
        (sum(t_values[i] for i in slots) + value) % modulus
        for slots, value in zip(compiled.corr_free_indices.values(), completed, strict=True)
    ]


class TestPolicies:
    def test_zero_local(self):
        _, draws = audited(RandomnessPolicy(zero_local=True))
        assert all(v == 0 for s, _, _ in draws for v in s)
        _, faithful = audited(FAITHFUL)
        assert any(v for s, _, _ in faithful for v in s)

    def test_zero_individual_breaks_correlation(self):
        policy = RandomnessPolicy(zero_individual=True)
        compiled, draws = audited(policy)
        assert all(not any(individual_values(compiled, t, policy)) for _, t, _ in draws)

    def test_correlation_offset_shifts_sums(self):
        policy = RandomnessPolicy(correlation_offset=1)
        compiled, draws = audited(policy)
        modulus = compiled.field.modulus
        num_parties = len(compiled.plan.shape.client_ids) + 1
        faithful = (modulus - (num_parties - 1)) % modulus
        broken = (faithful + 1) % modulus
        for _, t, _ in draws:
            assert position_sums(compiled, t, policy) == [broken] * compiled.plan.shape.set_size
            assert position_sums(compiled, t, FAITHFUL) == [faithful] * compiled.plan.shape.set_size

    def test_fixed_global(self):
        _, draws = audited(RandomnessPolicy(fixed_global=1))
        assert {c for _, _, c in draws} == {1}
        _, faithful = audited(FAITHFUL)
        assert {c for _, _, c in faithful} == {1, 2}
