"""Per-database answer generation."""

import itertools
import random
import re

import pytest

from mppsi.client import answer_all, answer_value, support_sum
from mppsi.database import DatabaseRecord, DatabaseState
from mppsi.errors import ProtocolViolationError
from mppsi.field import PrimeField, select_field_size
from mppsi.leader import generate_queries
from mppsi.model import PartyProfile, PublicParameters, Universe
from mppsi.randomness import build_bundle
from mppsi.wire import Message

from test_leader import plan_of, queries_to

SESSION = "client-tests"


def query(dest, partition, target, vector):
    """A query message from the leader, party 2, to dest."""
    return Message(
        type="query",
        session_id=SESSION,
        origin=(2, 0),
        dest=dest,
        partition=partition,
        target=target,
        values=bytes(vector),
    )


def modular_answer(x, q, s, t, c, modulus):
    """Independent oracle for the full answer expression."""
    return (c * (sum(a * b for a, b in zip(x, q)) + s + t)) % modulus


def state_holding(profile, database, s, t, c, modulus, universe_size):
    """The state of one of party 1's databases, dealt s, t and c, over 1..universe_size.

    Party 1 holds profile's set in a session of L = modulus parties, so of
    the field F_L, whose leader, party 2, holds one element: the state has
    one partition, and database 2 one position in it.
    """
    public = PublicParameters(
        universe_size, (profile.num_databases,) + (2,) * (modulus - 1),
        (len(profile.data_set),) + (1,) * (modulus - 1), 2, {},
    )
    individual = {1: t} if database == 2 else {}
    record = DatabaseRecord(SESSION, (1, database), bytes((s,)), individual, c)
    state = DatabaseState(public, record, sorted(element - 1 for element in profile.data_set))
    assert state.field == PrimeField(modulus)
    return state


def answer(x, q, s, t, c, modulus):
    """One targeted answer through answer_all, for a binary incidence vector x."""
    profile = PartyProfile(1, 2, frozenset(j + 1 for j, bit in enumerate(x) if bit))
    state = state_holding(profile, 2, s, t, c, modulus, len(x))
    (msg,) = answer_all(state, [query((1, 2), 1, 1, q)])
    (value,) = msg.values
    return value


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
        state = state_holding(PartyProfile(1, 2, frozenset({1})), 1, 0, 0, 1, 3, 1)
        spec = query((1, 1), 1, None, (1, 2))
        with pytest.raises(ProtocolViolationError, match="length 2 != universe 1"):
            answer_all(state, [spec])

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


class TestSparseSum:
    # Empty and single-element sets are the two sizes where itemgetter
    # either refuses its arguments or returns an entry instead of a tuple.
    @pytest.mark.parametrize("set_size", [0, 1, 2, 9])
    def test_answer_matches_dense_oracle(self, set_size):
        size, modulus = 9, 7
        rng = random.Random(f"sparse-sum/{set_size}")
        for _ in range(30):
            members = set(rng.sample(range(size), set_size))
            x = [1 if j in members else 0 for j in range(size)]
            q = [rng.randrange(modulus) for _ in range(size)]
            s, t, c = rng.randrange(modulus), rng.randrange(modulus), rng.randrange(1, modulus)
            assert answer(x, q, s, t, c, modulus) == modular_answer(x, q, s, t, c, modulus)

    @pytest.mark.parametrize("support", [[], [4], [0, 4], list(range(6))])
    def test_support_sum_is_the_dense_inner_product(self, support):
        q = (3, 1, 4, 1, 5, 9)
        x = [1 if j in support else 0 for j in range(len(q))]
        assert support_sum(support)(q) == sum(a * b for a, b in zip(x, q))
        assert support_sum(support)(list(q)) == support_sum(support)(q)


def _public(leader_set=(1, 4), client_dbs=(3, 3), universe=4):
    """A test session's clients (client i holds {i}), leader and public parameters."""
    clients = [
        PartyProfile(i + 1, dbs, frozenset({i + 1}))
        for i, dbs in enumerate(client_dbs)
    ]
    leader = PartyProfile(len(clients) + 1, 3, frozenset(leader_set))
    public = PublicParameters.of([*clients, leader], Universe(universe), leader.party_id)
    return clients, leader, public


def _session_pieces(leader_set=(1, 4), client_dbs=(3, 3), universe=4):
    clients, leader, public = _public(leader_set, client_dbs, universe)
    plan = plan_of(leader, clients)
    field = select_field_size(len(clients) + 1)
    supports = {client.party_id: sorted(e - 1 for e in client.data_set) for client in clients}
    states = {
        address: DatabaseState(public, record, supports[address[0]])
        for address, record in build_bundle(public, 21, SESSION).items()
    }
    sent = generate_queries(plan, field, Universe(universe), seed=21, session_id=SESSION)
    return clients, plan, field, states, sent


class TestAnswerAll:
    def test_database_one_answer_formula(self):
        clients, plan, field, states, sent = _session_pieces()
        client = clients[0]
        queries = queries_to(sent, (client.party_id, 1))
        state = states[client.party_id, 1]
        msgs = answer_all(state, queries)
        assert len(msgs) == 1
        x = [1 if e in client.data_set else 0 for e in range(1, 5)]
        q = queries[0].values
        s = build_bundle(_public()[2], 21, SESSION)[client.party_id, 1].local[0]
        expected = modular_answer(x, q, s, 0, state.c, field.modulus)
        assert msgs[0].values == bytes((expected,))
        assert msgs[0].target is None

    def test_answer_echoes_its_query(self):
        clients, plan, field, states, sent = _session_pieces()
        queries = queries_to(sent, (clients[1].party_id, 2))
        msgs = answer_all(states[clients[1].party_id, 2], queries)
        assert [
            (m.type, m.phase, m.session_id, m.origin, m.dest, m.partition, m.target)
            for m in msgs
        ] == [
            ("answer", "answer", q.session_id, q.dest, q.origin, q.partition, q.target)
            for q in queries
        ]

    def test_one_answer_per_query_with_tags_echoed(self):
        clients, plan, field, states, sent = _session_pieces(client_dbs=(2, 2))
        queries = queries_to(sent, (clients[0].party_id, 1))
        assert len(queries) == 2  # one base vector per partition
        msgs = answer_all(states[clients[0].party_id, 1], queries)
        assert [(m.partition, m.target) for m in msgs] == [
            (q.partition, q.target) for q in queries
        ]

    def test_no_queries_no_answers(self):
        clients, plan, field, states, sent = _session_pieces()
        assert answer_all(states[1, 1], []) == []

    def test_determinism_is_exact(self):
        # Answering spends a state's slots, so each answer comes from its
        # own state, the two dealt alike.
        answers = []
        for _ in range(2):
            clients, plan, field, states, sent = _session_pieces()
            address = (clients[1].party_id, 2)
            answers.append(answer_all(states[address], queries_to(sent, address)))
        assert answers[0] == answers[1]

    def test_unknown_partition_tag_rejected(self):
        clients, plan, field, states, sent = _session_pieces()
        leader = sent[0].origin
        for partition in (0, 99, None):
            rogue = query((1, 1), partition, None, (0, 0, 0, 0))._replace(origin=leader)
            with pytest.raises(
                ProtocolViolationError,
                match=re.escape(f"database (1, 1) holds no slot for (partition, target) "
                                f"({partition}, None)"),
            ):
                answer_all(states[1, 1], [rogue])

    def test_misaddressed_query_rejected(self):
        clients, plan, field, states, sent = _session_pieces()
        queries = queries_to(sent, (1, 2))
        with pytest.raises(ProtocolViolationError, match=r"frame for \(1, 2\) delivered to \(2,2\)"):
            answer_all(states[2, 2], queries)

    def test_base_query_at_non_first_database_rejected(self):
        clients, plan, field, states, sent = _session_pieces()
        base = queries_to(sent, (1, 1))[0]
        moved = base._replace(dest=(1, 2))
        with pytest.raises(ProtocolViolationError, match=r"\(1, 2\) holds no slot .* \(1, None\)"):
            answer_all(states[1, 2], [moved])

    def test_targeted_query_at_database_one_rejected(self):
        # Database 1 holds no individual values: a targeted query moved to
        # it has no t to add, so it is refused rather than answered with 0.
        clients, plan, field, states, sent = _session_pieces()
        assert build_bundle(_public()[2], 21, SESSION)[1, 1].individual == {}
        assert list(states[1, 1].slots) == [(1, None)]
        targeted = queries_to(sent, (1, 2))[0]
        moved = targeted._replace(dest=(1, 1))
        with pytest.raises(ProtocolViolationError, match=r"\(1, 1\) holds no slot .* \(1, 1\)"):
            answer_all(states[1, 1], [moved])
        assert answer_all(states[1, 2], [targeted])

    def test_query_retagged_to_a_position_held_elsewhere_rejected(self):
        # Partition 1's positions 1 and 2 are held by databases 2 and 3. The
        # query to database 2 re-tagged to position 2 is refused rather than
        # answered with database 2's individual value under position 2's tag.
        clients, plan, field, states, sent = _session_pieces()
        (targeted,) = queries_to(sent, (1, 2))
        assert (targeted.partition, targeted.target) == (1, 1)
        assert plan.shape.position_location(1, 2) == (1, 3)
        assert list(states[1, 2].slots) == [(1, 1)]
        with pytest.raises(ProtocolViolationError, match=r"\(1, 2\) holds no slot .* \(1, 2\)"):
            answer_all(states[1, 2], [targeted._replace(target=2)])
        (answer,) = answer_all(states[1, 2], [targeted])
        # The refused query spent nothing; the answer spent the one slot.
        assert answer.target == 1 and states[1, 2].slots == {}
