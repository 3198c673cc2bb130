"""Session lifecycle on the in-memory transport: phases, topology, determinism."""

import json
import random
import re
from dataclasses import replace

import pytest

from mppsi.config import SessionConfig
from mppsi.demo import DEMOS
from mppsi.errors import ConfigError, InfeasibleError, ProtocolViolationError
from mppsi.field import MAX_PARTIES
from mppsi.leader import CostTable, download_cost
from mppsi.model import PartyProfile, brute_force_intersection
from mppsi.protocol import make_session_id
from mppsi.session import load_transcript, run_memory_session, run_session


def config_of(parties, universe, seed=3, leader=None):
    return SessionConfig(
        universe_size=universe,
        parties=tuple(PartyProfile(pid, dbs, frozenset(elems)) for pid, dbs, elems in parties),
        seed=seed,
        leader_override=leader,
    )


def swap(entries, index):
    """entries with the one at index and the next exchanged."""
    entries[index], entries[index + 1] = entries[index + 1], entries[index]
    return entries


def random_config(rng, max_m=4, max_k=6, max_n=5):
    m = rng.randint(2, max_m)
    k = rng.randint(1, max_k)
    parties = [
        (
            i,
            rng.randint(2, max_n),
            [e for e in range(1, k + 1) if rng.random() < 0.5],
        )
        for i in range(1, m + 1)
    ]
    return config_of(parties, k, seed=rng.randrange(2**32))


class TestGoldenFixtures:
    @pytest.mark.parametrize(
        "name,decoded,cost",
        [("sec4", {1}, 6), ("sec7_1", {1}, 8), ("sec7_2", {1, 4}, 15)],
    )
    def test_fixture(self, name, decoded, cost):
        transcript = run_memory_session(DEMOS[name].config)
        assert transcript.result.decoded == frozenset(decoded)
        assert transcript.download_cost_actual == cost

    def test_heterogeneous_cost_table_shows_cheaper_candidate(self):
        transcript = run_memory_session(DEMOS["sec7_2"].config)
        assert transcript.leader_id == 4
        assert transcript.cost_table.costs[2] == 14
        assert transcript.cost_table.costs[4] == 15


class TestTranscriptShape:
    def test_phases_in_order(self):
        transcript = run_memory_session(DEMOS["sec7_2"].config)
        order = {"randomness": 0, "query": 1, "answer": 2}
        ranks = [order[m.phase] for m in transcript.messages]
        assert ranks == sorted(ranks)

    def test_download_cost_is_answer_count(self):
        transcript = run_memory_session(DEMOS["sec7_2"].config)
        assert transcript.download_cost_actual == len(
            transcript.messages_in_phase("answer")
        )

    def test_leader_untouched_by_randomness_phase(self):
        transcript = run_memory_session(DEMOS["sec7_2"].config)
        leader = transcript.leader_id
        for msg in transcript.messages_in_phase("randomness"):
            assert msg.origin[0] != leader
            assert msg.dest[0] != leader

    def test_no_client_to_client_traffic_after_randomness(self):
        transcript = run_memory_session(DEMOS["sec7_2"].config)
        leader = transcript.leader_id
        for msg in transcript.messages_in_phase("query"):
            assert msg.origin == (leader, 0)
            assert msg.dest[0] != leader
        for msg in transcript.messages_in_phase("answer"):
            assert msg.dest == (leader, 0)
            assert msg.origin[0] != leader

    def test_single_round_per_database(self):
        transcript = run_memory_session(DEMOS["sec7_2"].config)
        positions = {}
        for index, msg in enumerate(transcript.messages):
            if msg.phase == "query":
                positions.setdefault(msg.dest, []).append(("q", index))
            elif msg.phase == "answer":
                positions.setdefault(msg.origin, []).append(("a", index))
        for db, events in positions.items():
            kinds = [kind for kind, _ in sorted(events, key=lambda e: e[1])]
            n_queries = kinds.count("q")
            assert kinds == ["q"] * n_queries + ["a"] * (len(kinds) - n_queries), (
                f"answer preceded a query at {db}"
            )
            assert kinds.count("q") == kinds.count("a")

    def test_queries_never_name_elements(self):
        # Wire tags carry only partition and position; a target never exceeds
        # the leader-set size even when universe elements would.
        transcript = run_memory_session(DEMOS["sec7_2"].config)
        set_size = 3
        for msg in transcript.messages_in_phase("query"):
            assert msg.target is None or 1 <= msg.target <= set_size

    def test_costs_match_formula_on_random_configs(self):
        rng = random.Random(5)
        for _ in range(60):
            config = random_config(rng)
            transcript = run_memory_session(config)
            by_id = {p.party_id: p for p in config.parties}
            leader = by_id[transcript.leader_id]
            clients = [p for p in config.parties if p.party_id != leader.party_id]
            assert transcript.download_cost_actual == download_cost(leader, clients)
            assert transcript.result.decoded == brute_force_intersection(config.parties)


class TestDeterminism:
    def test_transcript_file_round_trip(self):
        original = run_memory_session(DEMOS["sec7_2"].config)
        loaded = load_transcript(original.serialize())
        assert loaded.session_id == original.session_id
        assert loaded.leader_id == original.leader_id
        assert loaded.cost_table.costs == original.cost_table.costs
        assert loaded.messages == original.messages
        assert loaded.result == original.result
        assert loaded.serialize() == original.serialize()

    def test_transcript_value_past_one_byte_is_a_protocol_violation(self):
        # A frame carries each value in one byte, so no file spells 256, and
        # a transcript holding such a value is not written at all.
        transcript = run_memory_session(DEMOS["sec7_2"].config)
        first, *rest = transcript.messages
        edited = replace(transcript, messages=(first._replace(values=[256]), *rest))
        with pytest.raises(ProtocolViolationError, match="cannot be framed"):
            edited.serialize()

    # Each moves or repeats one message of sec7_2's transcript (shares, then
    # queries, then answers), with what the loader names.
    @pytest.mark.parametrize(
        "move, error",
        [
            (lambda entries, first: swap(entries, first["answer"]), "answer .* sort_key order"),
            (lambda entries, first: swap(entries, first["query"]), "query .* sort_key order"),
            (
                lambda entries, first: swap(entries, first["randomness"]),
                "randomness .* share_order order",
            ),
            (
                lambda entries, first: entries + [entries.pop(first["query"])],
                "out of phase order",
            ),
            (
                lambda entries, first: entries + [entries.pop(first["randomness"])],
                "out of phase order",
            ),
            (
                lambda entries, first: entries[: first["answer"]] + entries[first["answer"] - 1 :],
                "query .* sort_key order, or repeated",
            ),
            (lambda entries, first: entries + entries[-1:], "answer .* sort_key order, or repeated"),
            (
                lambda entries, first: entries[:1] + entries,
                "randomness .* share_order order, or repeated",
            ),
        ],
        ids=[
            "two-answers-swapped",
            "two-queries-swapped",
            "two-shares-swapped",
            "query-after-the-answers",
            "share-after-the-answers",
            "last-query-repeated",
            "last-answer-repeated",
            "first-share-repeated",
        ],
    )
    def test_messages_out_of_transcript_order_are_a_protocol_violation(self, move, error):
        transcript = run_memory_session(DEMOS["sec7_2"].config)
        data = transcript.serialize()
        head, rest = data.split(b'"messages":[', 1)
        entries, tail = rest.split(b"]", 1)
        first = {}
        for index, msg in enumerate(transcript.messages):
            first.setdefault(msg.phase, index)
        moved = move(entries.split(b","), first)
        edited = head + b'"messages":[' + b",".join(moved) + b"]" + tail
        assert edited != data
        with pytest.raises(ProtocolViolationError, match=error):
            load_transcript(edited)

    def test_a_t_share_swapped_with_a_c_share_is_a_protocol_violation(self):
        # sec4's first share is a t share and its seventh the last c share:
        # swapped, every phase stays in place.
        transcript = run_memory_session(DEMOS["sec4"].config)
        shares = list(transcript.messages_in_phase("randomness"))
        assert [m.type for m in shares[::6]] == ["t_share", "c_share"]
        shares[0], shares[6] = shares[6], shares[0]
        rest = transcript.messages[len(shares):]
        edited = replace(transcript, messages=(*shares, *rest)).serialize()
        with pytest.raises(ProtocolViolationError, match="randomness .* share_order order"):
            load_transcript(edited)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda data: data[:-3] + b"\xff" + data[-3:],
            lambda data: data[: len(data) // 2],
            lambda data: data.replace(b'"messages"', b'"messagez"'),
            lambda data: b"[]",
            lambda data: json.dumps(json.loads(data), indent=2).encode("ascii"),
            lambda data: data.replace(b'"leader":', b'"leader": ', 1),
            lambda data: data.replace(b'"leader"', b'"leadex"'),
            lambda data: re.sub(rb'"cost_table":\{[^}]*\}', b'"cost_table":0', data),
            lambda data: data.replace(b'"decoded":[1,', b'"decoded":[[1],'),
            lambda data: data.replace(b'"leader":', b'"leader":' + b"[" * 100_000),
            lambda data: re.sub(rb'"messages":\[[^\]]*\]', b'"messages":"AAAA"', data),
            lambda data: re.sub(rb'"messages":\[[^\]]*\]', b'"messages":{}', data),
            lambda data: data.replace(b'","', b'", "', 1),
            lambda data: data.replace(b'"messages":["', b'"messages":[0,"', 1),
            lambda data: data.replace(b'"messages":["A', b'"messages":["\\u0041', 1),
        ],
        ids=[
            "bad-utf8",
            "cut-off",
            "messages-renamed",
            "empty-list",
            "pretty-printed",
            "space-in-head",
            "leader-renamed",
            "cost-table-not-an-object",
            "unhashable-decoded",
            "deep-head",
            "messages-a-string",
            "messages-an-object",
            "space-between-entries",
            "number-entry",
            "escaped-letter-in-an-entry",
        ],
    )
    def test_malformed_transcript_is_a_protocol_violation(self, edit):
        data = run_memory_session(DEMOS["sec7_2"].config).serialize()
        edited = edit(data)
        assert edited != data
        with pytest.raises(ProtocolViolationError):
            load_transcript(edited)

    def test_transcript_of_another_session_id_is_a_protocol_violation(self):
        transcript = run_memory_session(DEMOS["sec4"].config)
        data = transcript.serialize()
        own = f'"session_id":"{transcript.session_id}"}}\n'.encode("ascii")
        assert data.endswith(own)
        edited = data[: -len(own)] + b'"session_id":"0000000000000000"}\n'
        with pytest.raises(ProtocolViolationError, match="other than the transcript's"):
            load_transcript(edited)

    @pytest.mark.parametrize(
        "old, new",
        [
            (b'"leader":3,', b'"leader":"x",'),
            (b'"leader":3,', b'"leader":9,'),
            (b'"leader":3,', b'"leader":true,'),
            (b'"cost_table":{"1":6,', b'"cost_table":{"1":6.5,'),
            (b'"download_cost_actual":6', b'"download_cost_actual":NaN'),
            (b'"decoded":[1]', b'"decoded":[true]'),
            (b'"indicators":{"1":0', b'"indicators":{"1":false'),
        ],
        ids=[
            "leader-string", "leader-without-cost", "leader-bool", "cost-float",
            "download-cost-nan", "decoded-bool", "indicator-bool",
        ],
    )
    def test_non_integer_head_or_tail_is_a_protocol_violation(self, old, new):
        data = run_memory_session(DEMOS["sec4"].config).serialize()
        assert data.count(old) == 1
        with pytest.raises(ProtocolViolationError, match="not integers|has no cost"):
            load_transcript(data.replace(old, new))

    @pytest.mark.parametrize(
        "parties", [(3,), tuple(range(1, MAX_PARTIES + 2))], ids=["one-party", "past-max-parties"]
    )
    def test_cost_table_without_a_field_is_a_protocol_violation(self, parties):
        transcript = run_memory_session(DEMOS["sec4"].config)
        edited = replace(transcript, cost_table=CostTable(dict.fromkeys(parties, 6)))
        error = f"no field for a cost table of {len(parties)} parties"
        with pytest.raises(ProtocolViolationError, match=error):
            load_transcript(edited.serialize())

    # sec4's result: L = 3, decoded [1], indicators {1: 0, 4: 1}, six answers.
    @pytest.mark.parametrize("decoded", [b"[]", b"[4]", b"[1,4]", b"[9]"])
    def test_decoded_set_other_than_the_zero_indicators_is_a_protocol_violation(self, decoded):
        data = run_memory_session(DEMOS["sec4"].config).serialize()
        assert data.count(b'"decoded":[1]') == 1
        with pytest.raises(ProtocolViolationError, match="indicator is zero"):
            load_transcript(data.replace(b'"decoded":[1]', b'"decoded":' + decoded))

    @pytest.mark.parametrize("value", [b"-1", b"3", b"-7"])
    def test_indicator_outside_the_field_is_a_protocol_violation(self, value):
        data = run_memory_session(DEMOS["sec4"].config).serialize()
        assert data.count(b'"4":1}') == 1
        with pytest.raises(ProtocolViolationError, match=r"outside \[0, 3\)"):
            load_transcript(data.replace(b'"4":1}', b'"4":' + value + b"}"))

    # sec4: L = 3. Each edit sets one value of the first message of its
    # type to a byte that frames but is no residue.
    @pytest.mark.parametrize("kind, value", [("query", 250), ("t_share", 200)])
    def test_message_value_outside_the_field_is_a_protocol_violation(self, kind, value):
        transcript = run_memory_session(DEMOS["sec4"].config)
        messages = list(transcript.messages)
        index = next(i for i, m in enumerate(messages) if m.type == kind)
        values = bytearray(messages[index].values)
        values[0] = value
        messages[index] = messages[index]._replace(values=bytes(values))
        edited = replace(transcript, messages=tuple(messages)).serialize()
        with pytest.raises(ProtocolViolationError, match=r"message .* outside \[0, 3\)"):
            load_transcript(edited)

    @pytest.mark.parametrize("cost", [b"0", b"5", b"7"])
    def test_download_cost_other_than_the_answers_is_a_protocol_violation(self, cost):
        data = run_memory_session(DEMOS["sec4"].config).serialize()
        old = b'"download_cost_actual":6'
        assert data.count(old) == 1
        with pytest.raises(ProtocolViolationError, match="but 6 answers"):
            load_transcript(data.replace(old, b'"download_cost_actual":' + cost))

    def test_repeat_runs_serialize_identically(self):
        config = DEMOS["sec7_2"].config
        blobs = {run_memory_session(config).serialize() for _ in range(5)}
        assert len(blobs) == 1

    def test_different_seed_changes_messages_not_result(self):
        from dataclasses import replace

        config = DEMOS["sec4"].config
        one = run_memory_session(config)
        two = run_memory_session(replace(config, seed=8))
        assert one.serialize() != two.serialize()
        assert one.result.decoded == two.result.decoded

    def test_session_id_ignores_transport(self):
        from dataclasses import replace

        config = DEMOS["sec4"].config
        assert make_session_id(config) == make_session_id(replace(config, transport="net"))


class TestEdgeCases:
    def test_largest_field_session(self):
        # 251 parties: L = 251, the largest prime whose residues fit in a byte.
        parties = [(1, 2, {1, 2})] + [
            (pid, 2, {1, 2} if pid % 7 else {1}) for pid in range(2, 252)
        ]
        config = config_of(parties, universe=3, seed=5, leader=1)
        transcript = run_memory_session(config)
        assert transcript.result.decoded == brute_force_intersection(config.parties) == {1}
        assert max(v for m in transcript.messages for v in m.values) == 250
        assert load_transcript(transcript.serialize()).messages == transcript.messages

    def test_empty_leader_set_short_circuits(self):
        config = config_of(
            [(1, 3, [1, 2]), (2, 3, [2, 3]), (3, 3, [])], 4, leader=3
        )
        transcript = run_memory_session(config)
        assert transcript.result.decoded == frozenset()
        assert transcript.download_cost_actual == 0
        assert transcript.messages == ()

    def test_empty_client_set_still_answers(self):
        config = config_of([(1, 3, []), (2, 3, [1, 2])], 4, leader=2)
        transcript = run_memory_session(config)
        assert transcript.result.decoded == frozenset()
        # One client, three databases, two leader elements: ceil(2*3/2) = 3.
        assert transcript.download_cost_actual == 3

    def test_single_database_client_infeasible(self):
        config = config_of([(1, 1, [1]), (2, 3, [1])], 2, leader=2)
        with pytest.raises(InfeasibleError):
            run_memory_session(config)

    def test_leader_override_must_be_feasible(self):
        config = config_of([(1, 1, [1]), (2, 3, [1]), (3, 3, [1])], 2, leader=2)
        with pytest.raises(InfeasibleError):
            run_memory_session(config)

    def test_unknown_transport_is_a_config_error(self):
        # parse_config admits only the known transports; replace does not check.
        config = replace(DEMOS["sec4"].config, transport="carrier-pigeon")
        with pytest.raises(ConfigError, match="unknown transport 'carrier-pigeon'"):
            run_session(config)

    def test_election_avoids_blocked_candidates(self):
        # Party 1 has one database, so only party 1 itself can lead.
        config = config_of([(1, 1, [1]), (2, 3, [1]), (3, 3, [1])], 2)
        transcript = run_memory_session(config)
        assert transcript.leader_id == 1
        assert transcript.result.decoded == {1}
