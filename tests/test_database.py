"""One client database's state: the shares it takes, and the ones it refuses."""

import pytest

from mppsi.database import DatabaseState
from mppsi.demo import DEMOS
from mppsi.errors import ProtocolViolationError
from mppsi.leader import make_partition_plan, make_plan_shape
from mppsi.protocol import make_session_id, prepare_session
from mppsi.randomness import build_bundle, share_order
from mppsi.wire import Message


CONFIG = DEMOS["sec4"].config


def sec4_setup():
    return prepare_session(CONFIG.parties, CONFIG.universe, CONFIG.leader_override)


def sec4_states():
    """Every client database's state in sec4, built as each endpoint builds its own."""
    setup = sec4_setup()
    shape = make_plan_shape(len(setup.leader.data_set), setup.clients)
    session_id = make_session_id(CONFIG)
    return {
        (client.party_id, db): DatabaseState(
            shape, client, db, setup.field, CONFIG.seed, session_id
        )
        for client in setup.clients
        for db in range(1, client.num_databases + 1)
    }


def honest_shares(states):
    return sorted((s for state in states.values() for s in state.shares()), key=share_order)


def held(states):
    """What each database state holds: its (local, individual, c) by address."""
    return {address: (s.local, s.individual, s.c) for address, s in states.items()}


def share(kind, origin, dest, target, values):
    return Message(kind, make_session_id(CONFIG), origin, dest, None, target, values)


# sec4: clients 1 and 2, each with three databases; client 2 completes the
# correlation, and its database (2, 2) takes position 1's share from (1, 2).
# L = 3 and the multiplier comes from (1, 1). Each entry: the honest shares
# delivered first (by type and dest), the share refused, and what the error
# names.
BAD_SHARES = {
    "no value": ((), ("c_share", (1, 1), (1, 2), None, b""), r"below 3, got \[\]"),
    "two values": ((), ("c_share", (1, 1), (1, 2), None, b"\x01\x01"), r"got \[1, 1\]"),
    "zero multiplier": ((), ("c_share", (1, 1), (1, 2), None, b"\x00"), "must be nonzero"),
    "multiplier from elsewhere": (
        (), ("c_share", (9, 9), (1, 2), None, b"\x01"), r"from \(9, 9\), expected \(1, 1\)"
    ),
    "multiplier from a client database": (
        (), ("c_share", (2, 1), (1, 2), None, b"\x01"), r"from \(2, 1\), expected \(1, 1\)"
    ),
    "multiplier to its sender": ((), ("c_share", (1, 1), (1, 1), None, b"\x01"), "already"),
    "second multiplier": (
        (("c_share", (1, 2)),), ("c_share", (1, 1), (1, 2), None, b"\x01"), "already"
    ),
    "t share from the other database": (
        (), ("t_share", (1, 3), (2, 2), 1, b"\x01"), r"position 1 from \(1, 3\)"
    ),
    "t share from the correlating client": (
        (), ("t_share", (2, 3), (2, 2), 1, b"\x01"), r"position 1 from \(2, 3\)"
    ),
    "t share from the leader": (
        (), ("t_share", (3, 2), (2, 2), 1, b"\x01"), r"position 1 from \(3, 2\)"
    ),
    "t share value equal to L": ((), ("t_share", (1, 2), (2, 2), 1, b"\x03"), r"got \[3\]"),
    "t share without a value": ((), ("t_share", (1, 2), (2, 2), 1, b""), r"got \[\]"),
    "t share for a position held elsewhere": (
        (), ("t_share", (1, 3), (2, 2), 2, b"\x01"), r"position 2 not owned by database \(2, 2\)"
    ),
    "second t share": (
        (("t_share", (2, 2)),), ("t_share", (1, 2), (2, 2), 1, b"\x01"), "duplicate share"
    ),
    "query": ((), ("query", (1, 2), (2, 2), 1, b"\x01"), "unexpected message type 'query'"),
}


class TestReceive:
    @pytest.mark.parametrize("bad", sorted(BAD_SHARES))
    def test_rejected_share_names_its_fault_and_installs_nothing(self, bad):
        first, fields, error = BAD_SHARES[bad]
        states = sec4_states()
        for sent in honest_shares(states):
            if (sent.type, sent.dest) in first:
                states[sent.dest].receive(sent)
        victim = states[fields[2]]
        before = (victim.c, dict(victim.individual), victim.ready)
        with pytest.raises(ProtocolViolationError, match=error):
            victim.receive(share(*fields))
        assert (victim.c, victim.individual, victim.ready) == before

    def test_honest_shares_make_every_database_ready_with_the_routers_bundles(self):
        states = sec4_states()
        assert not all(state.ready for state in states.values())
        for sent in honest_shares(states):
            states[sent.dest].receive(sent)
        assert all(state.ready for state in states.values())
        setup = sec4_setup()
        plan = make_partition_plan(setup.leader, setup.clients)
        routed, shares = build_bundle(
            plan, setup.clients, setup.field, CONFIG.seed, make_session_id(CONFIG)
        )
        assert shares == honest_shares(sec4_states())
        assert held(states) == held(routed)
