"""Leader logic: cost table, election, partition plans, queries, decoding."""

import math
import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from mppsi.config import SessionConfig
from mppsi.demo import DEMOS
from mppsi.errors import InfeasibleError, ProtocolViolationError
from mppsi.field import PrimeField, select_field_size
from mppsi import leader as leader_module
from mppsi.leader import (
    cost_table,
    decode,
    decode_indicators,
    download_cost,
    generate_queries,
    make_partition_plan,
    make_plan_shape,
)
from mppsi.model import PartyProfile, PublicParameters, Universe, brute_force_intersection
from mppsi.protocol import prepare_session
from mppsi.seeding import draw_vector
from mppsi.session import run_memory_session
from test_golden import wide_config

SESSION = "leader-tests"


def profile(pid, elems, dbs):
    return PartyProfile(pid, dbs, frozenset(elems))


def public_of(profiles, k=None, leader=None):
    """The public parameters of these parties over a universe of k (by
    default their largest element), with this leader in place."""
    k = k or max(max(p.data_set, default=1) for p in profiles)
    return PublicParameters.of(profiles, Universe(k), leader)


def plan_of(leader, clients):
    """The partition plan of this leader's set against these clients."""
    shape = make_plan_shape(public_of([leader, *clients], leader=leader.party_id))
    return make_partition_plan(shape, leader.sorted_elements())


def session_plan(config):
    """The partition plan and field of the config's session, as its leader makes them."""
    public = config.prepared[0]
    leader = next(p for p in config.parties if p.party_id == public.leader)
    return make_partition_plan(make_plan_shape(public), leader.sorted_elements()), public.field


def memory_run(profiles, k, seed, leader=None):
    """A memory session's transcript, with its leader's plan and field."""
    config = SessionConfig(
        universe_size=k, parties=tuple(profiles), seed=seed, leader_override=leader
    )
    return (run_memory_session(config), *session_plan(config))


def answers_of(transcript):
    return list(transcript.messages_in_phase("answer"))


def queries_to(queries, dest):
    """The queries addressed to database dest, in the order sent."""
    return [query for query in queries if query.dest == dest]


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
        public, table = prepare_session(public_of(HOMOGENEOUS, 4))
        assert table.costs == {1: 6, 2: 6, 3: 6}
        assert public.leader == 1

    def test_heterogeneous_table_and_argmin(self):
        sizes = {p.party_id: len(p.data_set) for p in HETEROGENEOUS}
        dbs = {p.party_id: p.num_databases for p in HETEROGENEOUS}
        expected = {
            t: oracle_cost(sizes[t], [dbs[i] for i in dbs if i != t]) for t in dbs
        }
        assert expected == {1: 17, 2: 14, 3: 15, 4: 15}
        public, table = prepare_session(public_of(HETEROGENEOUS, 5))
        assert table.costs == expected
        assert public.leader == 2

    def test_candidate_facing_single_database_is_infeasible(self):
        parties = [profile(1, {1}, 1), profile(2, {2}, 1)]
        with pytest.raises(InfeasibleError):
            prepare_session(public_of(parties, 2))

    def test_leader_override_naming_no_party_is_infeasible(self):
        with pytest.raises(InfeasibleError, match="leader override names unknown party 9"):
            prepare_session(public_of(HOMOGENEOUS, 4, leader=9))

    def test_nonempty_candidate_with_single_database_counterpart(self):
        parties = [profile(1, {1}, 1), profile(2, {1, 2}, 5)]
        table = cost_table(public_of(parties))
        assert table.costs[2] is None  # blocked by party 1's lone database
        assert table.costs[1] is not None
        assert table.best() == 1

    def test_zero_cost_only_for_empty_set(self):
        parties = [profile(1, set(), 2), profile(2, {1}, 2)]
        table = cost_table(public_of(parties))
        assert table.costs[1] == 0
        assert table.costs[2] > 0


class TestDownloadCost:
    def test_homogeneous(self):
        assert download_cost(2, [3, 3]) == 6

    def test_two_databases_per_client(self):
        assert download_cost(2, [2, 2]) == 8

    def test_heterogeneous(self):
        assert download_cost(3, [2, 3, 5]) == 15

    def test_single_database_client_rejected(self):
        with pytest.raises(InfeasibleError):
            download_cost(1, [1])


def chunks(plan, client_id):
    """The client's chunks of the leader's elements, by partition, as
    shape.position_location places each position."""
    parts = {}
    for position, element in enumerate(plan.leader_elements, start=1):
        partition, _ = plan.shape.position_location(client_id, position)
        parts.setdefault(partition, []).append(element)
    return [parts[ell] for ell in sorted(parts)]


class TestPartitionPlan:
    def test_heterogeneous_partitions(self):
        leader = HETEROGENEOUS[3]
        clients = HETEROGENEOUS[:3]
        plan = plan_of(leader, clients)
        assert plan.leader_elements == (1, 4, 5)
        assert chunks(plan, 1) == [[1], [4], [5]]
        assert plan.shape.eta[1] == 3
        assert chunks(plan, 2) == [[1, 4], [5]]
        assert plan.shape.eta[2] == 2
        # Five databases exceed the set size + 1; only four are used.
        assert plan.shape.used_databases[3] == 4
        assert chunks(plan, 3) == [[1, 4, 5]]
        assert plan.shape.eta[3] == 1

    def test_whole_set_in_one_partition(self):
        leader = profile(2, {2, 3, 5}, 2)
        clients = [profile(1, {1}, 4)]
        plan = plan_of(leader, clients)
        assert plan.shape.eta[1] == 1
        assert chunks(plan, 1) == [[2, 3, 5]]

    def test_partitions_are_disjoint_cover(self):
        rng = random.Random(11)
        for _ in range(50):
            k = rng.randint(1, 8)
            leader_set = frozenset(rng.sample(range(1, k + 1), rng.randint(1, k)))
            clients = [
                profile(i, set(), rng.randint(2, 6)) for i in range(1, rng.randint(2, 4))
            ]
            leader = profile(len(clients) + 1, leader_set, 2)
            plan = plan_of(leader, clients)
            for client in clients:
                parts = chunks(plan, client.party_id)
                chunk = plan.shape.used_databases[client.party_id] - 1
                flattened = [e for part in parts for e in part]
                assert flattened == sorted(leader_set)
                assert all(len(part) == chunk for part in parts[:-1])
                assert 1 <= len(parts[-1]) <= chunk

    def test_position_location_matches_partitions(self):
        plan = plan_of(HETEROGENEOUS[3], HETEROGENEOUS[:3])
        for client_id in plan.shape.client_ids:
            for position, element in enumerate(plan.leader_elements, start=1):
                ell, db = plan.shape.position_location(client_id, position)
                part = chunks(plan, client_id)[ell - 1]
                assert part[db - 2] == element

    def test_infeasible_client(self):
        with pytest.raises(InfeasibleError):
            plan_of(profile(2, {1}, 3), [profile(1, {1}, 1)])


class TestQueryGeneration:
    def test_single_partition_layout(self):
        leader, clients = HOMOGENEOUS[2], HOMOGENEOUS[:2]
        plan = plan_of(leader, clients)
        field = select_field_size(3)
        sent = generate_queries(plan, field, Universe(4), seed=5, session_id=SESSION)
        h = draw_vector(5, field.modulus, 4, "h", 1)
        for client_id in (1, 2):
            base = queries_to(sent, (client_id, 1))
            assert len(base) == 1 and base[0].values == h
            (bump1,) = queries_to(sent, (client_id, 2))
            (bump4,) = queries_to(sent, (client_id, 3))
            assert plan.leader_elements[bump1.target - 1] == 1
            assert plan.leader_elements[bump4.target - 1] == 4
            assert bump1.values[0] == (h[0] + 1) % field.modulus
            assert bump1.values[1:] == h[1:]
            assert bump4.values[3] == (h[3] + 1) % field.modulus
            assert bump4.values[:3] == h[:3]

    def test_queries_are_messages_from_the_leader(self):
        plan = plan_of(HETEROGENEOUS[3], HETEROGENEOUS[:3])
        queries = generate_queries(
            plan, select_field_size(4), Universe(5), seed=5, session_id=SESSION
        )
        dests = {
            (client.party_id, database)
            for client in HETEROGENEOUS[:3]
            for database in range(1, plan.shape.used_databases[client.party_id] + 1)
        }
        assert {q.dest for q in queries} == dests
        for dest in dests:
            sent = queries_to(queries, dest)
            assert sent
            for q in sent:
                assert (q.type, q.phase, q.session_id) == ("query", "query", SESSION)
                assert (q.origin, q.dest) == ((4, 0), dest)

    def test_two_base_vectors_when_databases_are_scarce(self):
        leader = profile(3, {1, 4}, 2)
        clients = [profile(1, {1, 2}, 2), profile(2, {1, 3}, 2)]
        plan = plan_of(leader, clients)
        field = select_field_size(3)
        sent = generate_queries(plan, field, Universe(4), seed=5, session_id=SESSION)
        assert {q.partition for q in sent} == {1, 2}
        h = [draw_vector(5, field.modulus, 4, "h", ell) for ell in (1, 2)]
        for client_id in (1, 2):
            base = queries_to(sent, (client_id, 1))
            assert [q.partition for q in base] == [1, 2]
            assert base[0].values == h[0]
            assert base[1].values == h[1]
            targeted = queries_to(sent, (client_id, 2))
            assert [
                (q.partition, plan.leader_elements[q.target - 1]) for q in targeted
            ] == [(1, 1), (2, 4)]

    def test_short_final_partition_skips_databases(self):
        # Client with three databases and a three-element leader set: the
        # second partition holds one element, so its third database gets no
        # query for it.
        leader = profile(2, {1, 4, 5}, 2)
        clients = [profile(1, {1}, 3)]
        plan = plan_of(leader, clients)
        field = select_field_size(2)
        sent = generate_queries(plan, field, Universe(5), seed=5, session_id=SESSION)
        elements = plan.leader_elements
        db2 = queries_to(sent, (1, 2))
        db3 = queries_to(sent, (1, 3))
        assert [(q.partition, elements[q.target - 1]) for q in db2] == [(1, 1), (2, 5)]
        assert [(q.partition, elements[q.target - 1]) for q in db3] == [(1, 4)]

    def test_query_shape_invariant(self):
        rng = random.Random(23)
        for _ in range(40):
            k = rng.randint(1, 6)
            m = rng.randint(2, 4)
            leader_set = frozenset(rng.sample(range(1, k + 1), rng.randint(1, k)))
            profiles = [profile(i, set(), rng.randint(2, 5)) for i in range(1, m)]
            leader = profile(m, leader_set, 2)
            plan = plan_of(leader, profiles)
            field = select_field_size(m)
            seed = rng.randint(0, 999)
            queries = generate_queries(plan, field, Universe(k), seed=seed, session_id=SESSION)
            for spec in queries:
                base = draw_vector(seed, field.modulus, k, "h", spec.partition)
                diffs = [
                    (i, (v - b) % field.modulus)
                    for i, (v, b) in enumerate(zip(spec.values, base))
                    if v != b
                ]
                if spec.target is None:
                    assert diffs == []
                else:
                    assert len(diffs) == 1
                    index, delta = diffs[0]
                    assert delta == 1
                    assert index + 1 == plan.leader_elements[spec.target - 1]

    def test_count_invariant_matches_cost_formula(self):
        rng = random.Random(29)
        for _ in range(40):
            k = rng.randint(1, 6)
            m = rng.randint(2, 4)
            leader_set = frozenset(rng.sample(range(1, k + 1), rng.randint(1, k)))
            clients = [profile(i, set(), rng.randint(2, 5)) for i in range(1, m)]
            leader = profile(m, leader_set, 2)
            plan = plan_of(leader, clients)
            field = select_field_size(m)
            queries = generate_queries(plan, field, Universe(k), seed=1, session_id=SESSION)
            for client in clients:
                specs = [
                    q
                    for database in range(1, client.num_databases + 1)
                    for q in queries_to(queries, (client.party_id, database))
                ]
                assert len(specs) == plan.shape.eta[client.party_id] + plan.shape.set_size
            databases = [client.num_databases for client in clients]
            assert len(queries) == download_cost(len(leader_set), databases)


def session_queries(config):
    """The queries of the config's session, with its plan, as the leader generates them."""
    plan, field = session_plan(config)
    return generate_queries(plan, field, config.universe, config.seed, config.prepared[2])


@pytest.mark.pins
class TestSharedVectors:
    """Queries with equal (partition, target) tags share one values object."""

    @pytest.mark.parametrize("name", ["wide", "sec7_2"])
    def test_one_values_object_per_partition_and_target(self, name):
        queries = session_queries(wide_config() if name == "wide" else DEMOS[name].config)
        held = {}
        for query in queries:
            assert held.setdefault((query.partition, query.target), query.values) is query.values
        assert len({id(query.values) for query in queries}) == len(held)

    def test_the_wide_queries_hold_a_third_of_their_vectors(self):
        # M = 4, N = 4, R = 100: three clients of 34 partitions each.
        queries = session_queries(wide_config())
        bare = {id(query.values) for query in queries if query.target is None}
        targeted = {id(query.values) for query in queries if query.target is not None}
        assert (len(queries), len(bare), len(targeted)) == (402, 34, 100)

    def test_peak_memory_of_the_wide_queries_is_one_vector_per_distinct_query(self):
        universe = 20_000
        config = replace(wide_config(), universe_size=universe)
        config.prepared
        tracemalloc.start()
        try:
            queries = session_queries(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert {len(query.values) for query in queries} == {universe}
        assert peak < 1.1 * 134 * universe


# Each turns a run's answers (to leader 3, L = 3) into a list decode rejects,
# with what the error names: the first answer out of its planned place, as
# (type, origin, dest, partition, target) and its values, or the count. The
# answers are, per client, database 1's bare one, then the targeted ones
# of databases 2 and 3: client 1's are a[0] to a[2].
BAD_ANSWERS = {
    "wrong type": (
        lambda a, L: [a[0]._replace(type="query")] + a[1:],
        r"answer 0 .* is \('query', \(1, 1\), \(3, 0\), 1, None\) .* "
        r"expects \('answer', \(1, 1\), \(3, 0\), 1, None\)",
    ),
    "two values": (
        lambda a, L: [a[0]._replace(values=a[0].values * 2)] + a[1:],
        r"answer 0 .* carrying \[\d, \d\]; .* carrying one residue below 3",
    ),
    "value equal to L": (
        lambda a, L: [a[0]._replace(values=bytes((L,)))] + a[1:],
        r"answer 0 .* carrying \[3\]; .* carrying one residue below 3",
    ),
    "dest other than the leader": (
        lambda a, L: [a[0]._replace(dest=(3, 1))] + a[1:],
        r"answer 0 .* is \('answer', \(1, 1\), \(3, 1\), 1, None\) .* "
        r"expects \('answer', \(1, 1\), \(3, 0\), 1, None\)",
    ),
    "duplicate tag": (lambda a, L: a + a[:1], "7 answers; the plan expects 6"),
    "duplicate in place of the next": (
        lambda a, L: [a[0], a[1], a[1], *a[3:]],
        r"answer 2 .* is \('answer', \(1, 2\), \(3, 0\), 1, 1\) .* "
        r"expects \('answer', \(1, 3\), \(3, 0\), 1, 2\)",
    ),
    "missing tag": (lambda a, L: a[:-1], "5 answers; the plan expects 6"),
    # a[1] is the answer (1, 1, 1), whose query went to database (1, 2).
    "origin a database of the client never asked for it": (
        lambda a, L: [a[0], a[1]._replace(origin=(1, 3)), *a[2:]],
        r"answer 1 .* is \('answer', \(1, 3\), \(3, 0\), 1, 1\) .* "
        r"expects \('answer', \(1, 2\), \(3, 0\), 1, 1\)",
    ),
    "targeted answer from database 1": (
        lambda a, L: [a[0], a[1]._replace(origin=(1, 1)), *a[2:]],
        r"answer 1 .* is \('answer', \(1, 1\), \(3, 0\), 1, 1\) .* "
        r"expects \('answer', \(1, 2\), \(3, 0\), 1, 1\)",
    ),
}


class TestDecode:
    def test_homogeneous_example(self):
        result = memory_run(HOMOGENEOUS, 4, seed=3, leader=3)[0].result
        assert result.decoded == {1}
        assert result.indicators[4] != 0
        assert result.download_cost_actual == 6

    def test_all_parties_share_everything(self):
        profiles = [profile(i, {1, 2, 3}, 3) for i in range(1, 4)]
        result = memory_run(profiles, 3, seed=9)[0].result
        assert result.decoded == {1, 2, 3}
        assert all(v == 0 for v in result.indicators.values())

    @pytest.mark.pins
    def test_answers_in_plan_order_decode_and_stay_as_they_are(self):
        transcript, plan, field = memory_run(HOMOGENEOUS, 4, seed=3, leader=3)
        answers = transcript.messages_in_phase("answer")
        again = decode(plan, answers, field)
        assert (again.decoded, again.indicators) == (
            transcript.result.decoded, transcript.result.indicators
        )
        listed = list(answers)
        decode(plan, listed, field)
        assert tuple(listed) == answers

    @pytest.mark.pins
    def test_a_permuted_answer_list_is_refused_at_its_first_misplaced_answer(self):
        transcript, plan, field = memory_run(HOMOGENEOUS, 4, seed=3, leader=3)
        answers = answers_of(transcript)
        shuffled = list(answers)
        random.Random(0).shuffle(shuffled)
        first = next(i for i, (a, b) in enumerate(zip(shuffled, answers)) if a != b)
        (_, partition, target), origin = plan.answer_keys[first], plan.answer_origins[first]
        expected = ("answer", origin, (3, 0), partition, target)
        with pytest.raises(ProtocolViolationError) as refused:
            decode(plan, shuffled, field)
        assert str(refused.value).startswith(f"answer {first} ")
        assert f"the plan expects {expected}" in str(refused.value)
        assert shuffled != answers  # decode does not put them in order either

    @pytest.mark.pins
    @pytest.mark.parametrize("bad", sorted(BAD_ANSWERS))
    def test_bad_answer_messages_rejected(self, bad):
        transcript, plan, field = memory_run(HOMOGENEOUS, 4, seed=3, leader=3)
        mutate, named = BAD_ANSWERS[bad]
        answers = mutate(answers_of(transcript), field.modulus)
        with pytest.raises(ProtocolViolationError, match=named):
            decode(plan, answers, field)

    @pytest.mark.pins
    def test_missing_answers_are_named_where_they_leave_a_gap(self):
        # Client 1's three answers are missing, so client 2's first stands
        # where client 1's database-1 answer belongs.
        transcript, plan, field = memory_run(HOMOGENEOUS, 4, seed=3, leader=3)
        kept = [a for a in answers_of(transcript) if (a.origin[0], a.partition) != (1, 1)]
        with pytest.raises(
            ProtocolViolationError,
            match=r"answer 0 .* is \('answer', \(2, 1\), \(3, 0\), 1, None\) .* "
            r"expects \('answer', \(1, 1\), \(3, 0\), 1, None\)",
        ):
            decode(plan, kept, field)

    @pytest.mark.pins
    def test_foreign_answer_key_rejected(self):
        transcript, plan, field = memory_run(HOMOGENEOUS, 4, seed=3, leader=3)
        answers = answers_of(transcript)
        index = next(i for i, a in enumerate(answers) if a.target is not None)
        answers[index] = answers[index]._replace(target=99)
        assert len(answers) == len(plan.answer_keys)
        with pytest.raises(
            ProtocolViolationError,
            match=rf"answer {index} .* is \('answer', \(1, 2\), \(3, 0\), 1, 99\) .* "
            r"expects \('answer', \(1, 2\), \(3, 0\), 1, 1\)",
        ):
            decode(plan, answers, field)

    @pytest.mark.pins
    def test_answer_key_beside_every_planned_one_rejected(self):
        transcript, plan, field = memory_run(HOMOGENEOUS, 4, seed=3, leader=3)
        answers = answers_of(transcript)
        beside = next(a for a in answers if (a.origin[0], a.partition) == (1, 1))
        answers.append(beside._replace(target=99, values=bytes(1)))
        with pytest.raises(ProtocolViolationError, match="7 answers; the plan expects 6"):
            decode(plan, answers, field)

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
            config = SessionConfig(
                universe_size=k, parties=tuple(profiles), seed=rng.randint(0, 10**6)
            )
            transcript = run_memory_session(config)
            assert transcript.result.decoded == brute_force_intersection(profiles)


def reference_indicators(plan, values, modulus):
    """Each leader element's indicator from answer values keyed by (client,
    partition, target position), one element and one client at a time:
    per client, the targeted answer minus its partition's database-1
    answer, summed over clients, mod L. It reads no index table of the
    plan, only its shape."""
    indicators = {}
    for position, element in enumerate(plan.leader_elements, start=1):
        total = 0
        for client_id in plan.shape.client_ids:
            partition, _ = plan.shape.position_location(client_id, position)
            total += values[client_id, partition, position] - values[client_id, partition, None]
        indicators[element] = total % modulus
    return indicators


def reference_decode(plan, vectors, modulus):
    """decode_indicators' result for these vectors, each in answer_keys
    order, by reference_indicators."""
    return b"".join(
        bytes(reference_indicators(plan, dict(zip(plan.answer_keys, vector)), modulus).values())
        for vector in vectors
    )


def extreme_vector(plan, modulus):
    """Every targeted answer L - 1 and every database-1 answer 1: the
    largest lane sum the kernel can meet, 2(M - 1)(L - 1)."""
    return bytes(modulus - 1 if target else 1 for _, _, target in plan.answer_keys)


class TestDecodeKernel:
    """decode_indicators over n joined vectors is the n single decodes joined,
    and equals the keyed per-element reference, in every lane width."""

    @given(st.data())
    def test_joined_vectors_decode_as_single_ones(self, data):
        size = data.draw(st.integers(1, 8))
        elements = data.draw(st.sets(st.integers(1, 12), min_size=size, max_size=size))
        leader = profile(1, elements, 2)
        clients = [
            profile(pid, (), data.draw(st.integers(2, 4)))
            for pid in range(2, data.draw(st.integers(2, 6)) + 1)
        ]
        plan = plan_of(leader, clients)
        modulus = data.draw(st.sampled_from((2, 3, 5, 7, 11, 127, 131, 251)))
        answers = len(plan.answer_keys)
        vector = st.lists(st.integers(0, modulus - 1), min_size=answers, max_size=answers)
        vectors = [bytes(data.draw(vector)) for _ in range(data.draw(st.integers(1, 5)))]
        if data.draw(st.booleans()):
            vectors.append(extreme_vector(plan, modulus))
        joined = decode_indicators(plan, b"".join(vectors), modulus)
        assert joined == b"".join(decode_indicators(plan, vector, modulus) for vector in vectors)
        assert joined == reference_decode(plan, vectors, modulus)

    @pytest.mark.parametrize(
        "parties, leader_set, lane",
        [(3, {1, 3, 4}, "B"), (131, {1}, "H"), (131, {1, 3, 4}, "H"), (251, {1, 3, 4}, "I")],
        ids=["F_3", "F_131-one-element", "F_131", "F_251"],
    )
    def test_every_lane_width(self, parties, leader_set, lane):
        # 131 parties holding {1}, the leader too, is the F_131 instance of
        # test_audit.py::test_wide_field_reduces_sums_before_scaling; 251
        # parties give the largest field and the largest lane sum.
        modulus = select_field_size(parties).modulus
        clients = [profile(pid, {1}, 2) for pid in range(2, parties + 1)]
        plan = plan_of(profile(1, leader_set, 2), clients)
        size = len(plan.answer_keys)
        assert leader_module._lanes(len(plan.decode_blocks) // 2, modulus)[0] == lane
        rng = random.Random(parties)
        vectors = [bytes(rng.randrange(modulus) for _ in range(size)) for _ in range(3)]
        vectors.insert(1, extreme_vector(plan, modulus))
        joined = decode_indicators(plan, b"".join(vectors), modulus)
        assert joined == reference_decode(plan, vectors, modulus)
        assert joined == b"".join(decode_indicators(plan, vector, modulus) for vector in vectors)

    @pytest.mark.parametrize("length", [0, 5, 15])
    def test_partial_vectors_rejected(self, length):
        plan = plan_of(profile(1, {1, 2}, 2), [profile(2, (), 3), profile(3, (), 2)])
        assert len(plan.answer_keys) == 7
        with pytest.raises(ValueError, match="not whole vectors of 7"):
            decode_indicators(plan, bytes(length), 3)
