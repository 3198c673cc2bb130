"""Per-database answer generation."""

import itertools

import pytest

from mppsi.client import answer_all, answer_value
from mppsi.errors import ProtocolViolationError
from mppsi.field import PrimeField, select_field_size
from mppsi.leader import QuerySpec, generate_queries, make_partition_plan
from mppsi.model import PartyProfile, Universe
from mppsi.randomness import RandomnessBundle, build_bundle


def modular_answer(x, q, s, t, c, modulus):
    """Independent oracle for the full answer expression."""
    return (c * (sum(a * b for a, b in zip(x, q)) + s + t)) % modulus


def answer(x, q, s, t, c, modulus):
    """One targeted answer through answer_all, for a binary incidence vector x."""
    profile = PartyProfile(1, 2, frozenset(j + 1 for j, bit in enumerate(x) if bit))
    bundle = RandomnessBundle(local={1: [s]}, individual={(1, 2): {1: t}}, c=c)
    spec = QuerySpec(
        client_id=1,
        database=2,
        partition=1,
        target_pos=1,
        target_element=None,
        vector=tuple(q),
    )
    (msg,) = answer_all(profile, 2, [spec], Universe(len(x)), bundle, PrimeField(modulus))
    return msg.value


class TestAnswer:
    def test_all_zero_inputs(self):
        assert answer((0, 0, 0, 0), (2, 1, 0, 1), 0, 0, 1, 3) == 0

    def test_hand_example(self):
        x, q = (1, 1, 0, 0), (2, 1, 0, 0)
        expected = modular_answer(x, q, 1, 2, 2, 3)
        assert expected == 0
        assert answer(x, q, 1, 2, 2, 3) == expected

    def test_bumped_query_example(self):
        x, q = (1, 1, 0, 0), ((2 + 1) % 3, 1, 0, 0)
        expected = modular_answer(x, q, 1, 1, 1, 3)
        assert answer(x, q, 1, 1, 1, 3) == expected

    def test_matches_oracle_exhaustively(self):
        for x in itertools.product((0, 1), repeat=2):
            for q in itertools.product(range(3), repeat=2):
                for s in range(3):
                    for t in range(3):
                        for c in range(1, 3):
                            got = answer(x, q, s, t, c, 3)
                            assert got == modular_answer(x, q, s, t, c, 3)
                            assert got == answer_value(
                                sum(a * b for a, b in zip(x, q)) % 3, s, t, c, 3
                            )

    def test_length_mismatch(self):
        profile = PartyProfile(1, 2, frozenset({1}))
        bundle = RandomnessBundle(local={1: [0]}, individual={(1, 1): {1: 0}}, c=1)
        spec = QuerySpec(1, 1, 1, None, None, (1, 2))
        with pytest.raises(ValueError):
            answer_all(profile, 1, [spec], Universe(1), bundle, PrimeField(3))

    def test_zero_multiplier_rejected(self):
        with pytest.raises(ValueError):
            answer((1,), (1,), 0, 0, 0, 3)

    def test_linearity_of_query_difference(self):
        # Subtracting two answers with shared randomness isolates the inner
        # product against the query difference; decoding relies on this.
        for x in itertools.product((0, 1), repeat=2):
            for q1 in itertools.product(range(3), repeat=2):
                for q2 in itertools.product(range(3), repeat=2):
                    for c in range(1, 3):
                        a1 = answer(x, q1, 1, 2, c, 3)
                        a2 = answer(x, q2, 1, 2, c, 3)
                        expected = (
                            c * sum(xv * (a - b) for xv, a, b in zip(x, q1, q2))
                        ) % 3
                        assert (a1 - a2) % 3 == expected


def _session_pieces(leader_set=(1, 4), client_dbs=(3, 3), universe=4):
    clients = [
        PartyProfile(i + 1, dbs, frozenset({i + 1}))
        for i, dbs in enumerate(client_dbs)
    ]
    leader = PartyProfile(len(clients) + 1, 3, frozenset(leader_set))
    plan = make_partition_plan(leader, clients)
    field = select_field_size(len(clients) + 1)
    bundle, _ = build_bundle(plan, clients, field, seed=21)
    qp = generate_queries(plan, field, Universe(universe), seed=21)
    return clients, plan, field, bundle, qp


class TestAnswerAll:
    def test_database_one_answer_formula(self):
        clients, plan, field, bundle, qp = _session_pieces()
        client = clients[0]
        queries = qp.queries_for(client.party_id, 1)
        msgs = answer_all(client, 1, queries, Universe(4), bundle, field)
        assert len(msgs) == 1
        x = [1 if e in client.data_set else 0 for e in range(1, 5)]
        q = queries[0].vector
        s = bundle.local[client.party_id][0]
        expected = modular_answer(x, q, s, 0, bundle.c, field.modulus)
        assert msgs[0].value == expected
        assert msgs[0].target_pos is None

    def test_one_answer_per_query_with_tags_echoed(self):
        clients, plan, field, bundle, qp = _session_pieces(client_dbs=(2, 2))
        client = clients[0]
        queries = qp.queries_for(client.party_id, 1)
        assert len(queries) == 2  # one base vector per partition
        msgs = answer_all(client, 1, queries, Universe(4), bundle, field)
        assert [(m.partition, m.target_pos) for m in msgs] == [
            (q.partition, q.target_pos) for q in queries
        ]

    def test_no_queries_no_answers(self):
        clients, plan, field, bundle, qp = _session_pieces()
        assert answer_all(clients[0], 1, [], Universe(4), bundle, field) == []

    def test_determinism_is_exact(self):
        clients, plan, field, bundle, qp = _session_pieces()
        client = clients[1]
        queries = qp.queries_for(client.party_id, 2)
        first = answer_all(client, 2, queries, Universe(4), bundle, field)
        second = answer_all(client, 2, queries, Universe(4), bundle, field)
        assert first == second

    def test_unknown_partition_tag_rejected(self):
        clients, plan, field, bundle, qp = _session_pieces()
        client = clients[0]
        rogue = QuerySpec(
            client_id=client.party_id,
            database=1,
            partition=99,
            target_pos=None,
            target_element=None,
            vector=(0, 0, 0, 0),
        )
        with pytest.raises(ProtocolViolationError):
            answer_all(client, 1, [rogue], Universe(4), bundle, field)

    def test_misaddressed_query_rejected(self):
        clients, plan, field, bundle, qp = _session_pieces()
        queries = qp.queries_for(1, 2)
        with pytest.raises(ProtocolViolationError):
            answer_all(clients[1], 2, queries, Universe(4), bundle, field)

    def test_base_query_at_non_first_database_rejected(self):
        clients, plan, field, bundle, qp = _session_pieces()
        base = qp.queries_for(1, 1)[0]
        moved = QuerySpec(
            client_id=1,
            database=2,
            partition=base.partition,
            target_pos=None,
            target_element=None,
            vector=base.vector,
        )
        with pytest.raises(ProtocolViolationError):
            answer_all(clients[0], 2, [moved], Universe(4), bundle, field)
