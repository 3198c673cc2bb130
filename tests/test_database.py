"""One client database's state: built ready from the public parameters, its
own dealt record and its party's set, and no other."""

from dataclasses import replace

import pytest

from mppsi.client import answer_all
from mppsi.database import DatabaseRecord, DatabaseState
from mppsi.demo import DEMOS
from mppsi.errors import ConfigError
from mppsi.leader import make_plan_shape
from mppsi.protocol import prepare_session
from mppsi.randomness import build_bundle
from mppsi.session import deal, run_memory_session
from mppsi.wire import encode_msg
from test_golden import GOLDEN_CONFIGS


CONFIG = DEMOS["sec4"].config


def pieces(config):
    """A config's plan shape, its parties' profiles by party id, and its dealt states."""
    shape = make_plan_shape(config.prepared[0])
    return shape, {party.party_id: party for party in config.parties}, deal(config)


def records_of(config):
    """The records of the config's dealing, which deal builds its states from."""
    public, _, session_id = config.prepared
    return build_bundle(public, config.seed, session_id)


def test_a_record_holds_nothing_of_another_database():
    # A record holds its session id, address and multiplier, its client's
    # local vector and its individual values at its own positions' partitions.
    # A state keeps of it only those three and the slots it answers from,
    # and besides them only the public parameters' leader, K and field and
    # its own party's set: a spent slot's s + t is kept nowhere.
    assert DatabaseRecord._fields == ("session_id", "address", "local", "individual", "c")
    shape, profiles, states = pieces(CONFIG)
    public, records = CONFIG.prepared[0], records_of(CONFIG)
    addresses = [(party, db) for party in (1, 2) for db in (1, 2, 3)]
    assert sorted(states) == sorted(records) == addresses
    for (party, database), state in states.items():
        record = records[party, database]
        assert (state.session_id, state.address, state.c) == (
            record.session_id, (party, database), record.c
        )
        assert (state.leader, state.universe_size) == (public.leader, CONFIG.universe_size)
        assert state.field == public.field
        assert state.support == sorted(element - 1 for element in profiles[party].data_set)
        positions = shape.positions_of_database(party, database)
        own = {shape.position_location(party, position)[0] for position in positions}
        assert set(record.individual) == own
        assert bool(own) == (database != 1)
        assert len(record.local) == shape.eta[party]
        assert set(vars(state)) == {
            "session_id", "address", "c", "leader", "universe_size", "field", "support", "slots"
        }


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_a_state_holds_one_slot_per_query_it_answers(name):
    # Database 1 answers each partition's bare query with s; database d > 1
    # answers the targeted query of each position it holds with s + t.
    config = DEMOS[name].config
    shape, _, states = pieces(config)
    records = records_of(config)
    expected = {}
    for query in run_memory_session(config).messages_in_phase("query"):
        record = records[query.dest]
        s = record.local[query.partition - 1]
        t = 0 if query.target is None else record.individual[query.partition]
        expected.setdefault(query.dest, {})[query.partition, query.target] = s + t
    assert {address: state.slots for address, state in states.items() if state.slots} == expected


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_every_dealt_record_builds_its_state_again(name):
    config = DEMOS[name].config
    states = deal(config)
    for address, record in records_of(config).items():
        again = DatabaseState(config.prepared[0], record, states[address].support)
        assert vars(again) == vars(states[address])


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_a_state_from_three_things_answers_as_the_dealt_one(name):
    # Each queried database's state built from only the public parameters
    # (prepared afresh from the config's public part), its record and its
    # own party's set answers the memory session's queries byte for byte
    # as the state deal(config) builds, and as the transcript holds.
    config = GOLDEN_CONFIGS[name]()
    public, _ = prepare_session(config.public)
    session_id = config.prepared[2]
    records = build_bundle(public, config.seed, session_id)
    dealt = deal(config)
    assert sorted(records) == sorted(dealt)
    transcript = run_memory_session(config)
    answered = {}
    for answer in transcript.messages_in_phase("answer"):
        answered.setdefault(answer.origin, []).append(encode_msg(answer))
    for address, record in records.items():
        own = next(p for p in config.parties if p.party_id == address[0])
        state = DatabaseState(public, record, sorted(e - 1 for e in own.data_set))
        queries = [q for q in transcript.messages_in_phase("query") if q.dest == address]
        frames = [encode_msg(a) for a in answer_all(state, queries)]
        assert frames == [encode_msg(a) for a in answer_all(dealt[address], queries)]
        assert frames == answered[address]


# sec7_2: L = 5, the leader is party 4, and client 2 has three databases
# and two partitions. Its database (2, 3) holds one position, in partition
# 1; (2, 2) holds the partition-2 one; client 3's database 5 is idle. Each
# entry: the database whose dealt record is edited, the edit, an edit of
# the public parameters the state is built under (None: none) and what the
# error names.
BAD_RECORDS = {
    "local one slot short": (
        (2, 3), lambda r: r._replace(local=r.local[:1]), None, "has 1 slots, expected 2"
    ),
    "local one slot long": (
        (2, 3), lambda r: r._replace(local=r.local + b"\x00"), None, "has 3 slots, expected 2"
    ),
    "local value equal to L": (
        (2, 3), lambda r: r._replace(local=b"\x05\x00"), None, r"value outside \[0, 5\)"
    ),
    "individual at a partition held elsewhere": (
        (2, 3),
        lambda r: r._replace(individual={1: 0, 2: 2}),
        None,
        r"partitions \[1, 2\], expected \[1\]",
    ),
    "individual missing its partition": (
        (2, 3), lambda r: r._replace(individual={}), None, r"partitions \[\], expected \[1\]"
    ),
    "individual at database 1": (
        (2, 1), lambda r: r._replace(individual={1: 1}), None, r"partitions \[1\], expected \[\]"
    ),
    "an idle database's record": (
        (3, 4), lambda r: r._replace(address=(3, 5)), None,
        r"\(3, 5\), which gets no query",
    ),
    "individual value equal to L": (
        (2, 3), lambda r: r._replace(individual={1: 5}), None, r"not all in \[0, 5\)"
    ),
    "negative individual value": (
        (2, 3), lambda r: r._replace(individual={1: -1}), None, r"not all in \[0, 5\)"
    ),
    "zero multiplier": (
        (2, 3), lambda r: r._replace(c=0), None, r"multiplier 0 is not in \[1, 5\)"
    ),
    "multiplier equal to L": (
        (2, 3), lambda r: r._replace(c=5), None, r"multiplier 5 is not in \[1, 5\)"
    ),
    "negative multiplier": (
        (2, 3), lambda r: r._replace(c=-1), None, r"multiplier -1 is not in \[1, 5\)"
    ),
    "database past the client's last": (
        (2, 3), lambda r: r._replace(address=(2, 4)), None,
        r"\(2, 4\), which gets no query",
    ),
    "database zero": (
        (2, 3), lambda r: r._replace(address=(2, 0)), None,
        r"\(2, 0\), which gets no query",
    ),
    "a set past K": (
        (2, 3), lambda r: r, lambda p: replace(p, universe_size=3),
        r"party 2's set is not within 1\.\.3",
    ),
    "the leader's database": (
        (2, 3), lambda r: r._replace(address=(4, 1)), None, r"\(4, 1\), which gets no query"
    ),
}


@pytest.mark.parametrize("bad", sorted(BAD_RECORDS))
def test_a_record_that_is_no_dealing_for_its_state_is_refused(bad):
    address, edit, edit_public, error = BAD_RECORDS[bad]
    config = DEMOS["sec7_2"].config
    public = config.prepared[0]
    state = deal(config)[address]
    with pytest.raises(ConfigError, match=error):
        DatabaseState(
            public if edit_public is None else edit_public(public),
            edit(records_of(config)[address]), state.support,
        )
