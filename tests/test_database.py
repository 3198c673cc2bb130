"""One client database's state: built ready from its own dealt record, and no other."""

import pytest

from mppsi.database import DatabaseRecord, DatabaseState
from mppsi.demo import DEMOS
from mppsi.errors import ConfigError
from mppsi.leader import make_plan_shape
from mppsi.session import deal


CONFIG = DEMOS["sec4"].config


def sec4_pieces():
    """sec4's setup, plan shape and dealt states."""
    setup, _ = CONFIG.prepared
    shape = make_plan_shape(len(setup.leader.data_set), setup.clients)
    return setup, shape, deal(CONFIG)


def test_a_record_holds_nothing_of_another_database():
    # A state holds its record's fields (the session's public parameters
    # among them) and, besides them, only public data and its own party's
    # set.
    assert DatabaseRecord._fields == (
        "session_id", "address", "leader", "universe_size", "local", "individual", "c"
    )
    setup, shape, states = sec4_pieces()
    profiles = {client.party_id: client for client in setup.clients}
    assert sorted(states) == [(party, db) for party in (1, 2) for db in (1, 2, 3)]
    for (party, database), state in states.items():
        assert state.address == (party, database)
        assert (state.leader, state.universe_size) == (setup.leader.party_id, CONFIG.universe_size)
        assert state.profile is profiles[party]
        assert state.support == sorted(element - 1 for element in profiles[party].data_set)
        positions = shape.positions_of_database(party, database)
        own = {shape.position_location(party, position)[0] for position in positions}
        assert set(state.individual) == own
        assert bool(own) == (database != 1)
        assert len(state.local) == shape.eta[party]
        assert set(vars(state)) == {
            *DatabaseRecord._fields, "shape", "profile", "support", "field", "tags"
        }


def record_of(state):
    """The record a state was built from."""
    return DatabaseRecord(*(getattr(state, name) for name in DatabaseRecord._fields))


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_every_dealt_record_builds_its_state_again(name):
    for state in deal(DEMOS[name].config).values():
        again = DatabaseState(
            state.shape, state.profile, state.field, record_of(state), state.support
        )
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
    state = deal(config)[address]
    record = edit(record_of(state))
    profiles = {profile.party_id: profile for profile in (*setup.clients, setup.leader)}
    profile = profiles[record.address[0] if party is None else party]
    with pytest.raises(ConfigError, match=error):
        support = sorted(element - 1 for element in profile.data_set)
        DatabaseState(state.shape, profile, state.field, record, support)
