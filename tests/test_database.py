"""One client database's state: built ready from its own dealt record, and no other."""

import pytest

from mppsi.database import DatabaseRecord, DatabaseState
from mppsi.demo import DEMOS
from mppsi.errors import ConfigError
from mppsi.leader import make_plan_shape
from mppsi.session import deal, run_memory_session


CONFIG = DEMOS["sec4"].config


def pieces(config):
    """A config's plan shape, its clients' profiles by party id, and its dealt states."""
    setup, _ = config.prepared
    shape = make_plan_shape(len(setup.leader.data_set), setup.clients)
    return shape, {client.party_id: client for client in setup.clients}, deal(config)


def test_a_record_holds_nothing_of_another_database():
    # A state holds its record's fields (the session's public parameters
    # among them) and, besides them, only the field, its own party's set and
    # the slots it answers from.
    assert DatabaseRecord._fields == (
        "session_id", "address", "leader", "universe_size", "local", "individual", "c"
    )
    shape, profiles, states = pieces(CONFIG)
    setup, _ = CONFIG.prepared
    assert sorted(states) == [(party, db) for party in (1, 2) for db in (1, 2, 3)]
    for (party, database), state in states.items():
        assert state.address == (party, database)
        assert (state.leader, state.universe_size) == (setup.leader.party_id, CONFIG.universe_size)
        assert state.support == sorted(element - 1 for element in profiles[party].data_set)
        positions = shape.positions_of_database(party, database)
        own = {shape.position_location(party, position)[0] for position in positions}
        assert set(state.individual) == own
        assert bool(own) == (database != 1)
        assert len(state.local) == shape.eta[party]
        assert set(vars(state)) == {*DatabaseRecord._fields, "support", "field", "slots"}


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_a_state_holds_one_slot_per_query_it_answers(name):
    # Database 1 answers each partition's bare query with s; database d > 1
    # answers the targeted query of each position it holds with s + t.
    config = DEMOS[name].config
    shape, _, states = pieces(config)
    expected = {}
    for query in run_memory_session(config).messages_in_phase("query"):
        state = states[query.dest]
        s = state.local[query.partition - 1]
        t = 0 if query.target is None else state.individual[query.partition]
        expected.setdefault(query.dest, {})[query.partition, query.target] = s + t
    assert {address: state.slots for address, state in states.items() if state.slots} == expected


def record_of(state):
    """The record a state was built from."""
    return DatabaseRecord(*(getattr(state, name) for name in DatabaseRecord._fields))


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_every_dealt_record_builds_its_state_again(name):
    shape, profiles, states = pieces(DEMOS[name].config)
    for (party, _), state in states.items():
        again = DatabaseState(shape, profiles[party], state.field, record_of(state), state.support)
        assert vars(again) == vars(state)


# sec7_2: L = 5, the leader is party 4, and client 2 has three databases
# and two partitions. Its database (2, 3) holds one position, in partition
# 1; (2, 2) holds the partition-2 one; client 3's database 5 is idle. Each
# entry: the database whose dealt record is edited, the edit, the party
# whose profile builds the state (None: the record's own) and what the
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
    "individual at an idle database": (
        (3, 5), lambda r: r._replace(individual={1: 1}), None, r"partitions \[1\], expected \[\]"
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
    "another party's record": ((2, 3), lambda r: r, 1, r"\(2, 3\), not one of party 1's 2"),
    "database past the client's last": (
        (2, 3), lambda r: r._replace(address=(2, 4)), None, r"\(2, 4\), not one of party 2's 3"
    ),
    "database zero": (
        (2, 3), lambda r: r._replace(address=(2, 0)), None, r"\(2, 0\), not one of party 2's 3"
    ),
    "a client named as the leader": (
        (2, 3), lambda r: r._replace(leader=3), None, "names client 3 as the leader"
    ),
    "a set past K": (
        (2, 3), lambda r: r._replace(universe_size=3), None, r"party 2's set is not within 1\.\.3"
    ),
    "the leader's database": (
        (2, 3), lambda r: r._replace(address=(4, 1)), None, r"\(4, 1\) of a party that is no client"
    ),
}


@pytest.mark.parametrize("bad", sorted(BAD_RECORDS))
def test_a_record_that_is_no_dealing_for_its_state_is_refused(bad):
    address, edit, party, error = BAD_RECORDS[bad]
    config = DEMOS["sec7_2"].config
    setup, _ = config.prepared
    shape, _, states = pieces(config)
    state = states[address]
    record = edit(record_of(state))
    profiles = {profile.party_id: profile for profile in (*setup.clients, setup.leader)}
    profile = profiles[record.address[0] if party is None else party]
    with pytest.raises(ConfigError, match=error):
        support = sorted(element - 1 for element in profile.data_set)
        DatabaseState(shape, profile, state.field, record, support)
