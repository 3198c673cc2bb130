"""Networked transport: loopback endpoints, equivalence with the simulator."""

import random
import re
import socket
import threading
import time
from dataclasses import replace

import pytest

from mppsi.config import SessionConfig
from mppsi.demo import DEMOS
from mppsi.database import DatabaseState
from mppsi.errors import ConfigError, ProtocolViolationError, TransportError
from mppsi.leader import make_partition_plan
from mppsi.model import PartyProfile, brute_force_intersection
from mppsi.net import DatabaseEndpoint, run_networked_session, spawn_endpoints
from mppsi.protocol import make_session_id, prepare_session
from mppsi.randomness import RandomnessPolicy, build_bundle, share_order
from mppsi.session import load_transcript, run_memory_session
from mppsi.wire import HEADER, Message, encode_msg


def message_multiset(transcript):
    return sorted(transcript.messages, key=str)


class TestEquivalence:
    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_fixture_transcripts_identical(self, name):
        config = DEMOS[name].config
        mem = run_memory_session(config)
        net = run_networked_session(config)
        assert message_multiset(mem) == message_multiset(net)
        assert mem.result.decoded == net.result.decoded
        assert mem.serialize() == net.serialize()

    def test_random_configs_agree(self):
        rng = random.Random(17)
        for _ in range(5):
            m = rng.randint(2, 4)
            k = rng.randint(1, 5)
            parties = tuple(
                PartyProfile(
                    i,
                    rng.randint(2, 4),
                    frozenset(e for e in range(1, k + 1) if rng.random() < 0.5),
                )
                for i in range(1, m + 1)
            )
            config = SessionConfig(universe_size=k, parties=parties, seed=rng.randrange(2**32))
            mem = run_memory_session(config)
            net = run_networked_session(config)
            assert message_multiset(mem) == message_multiset(net)
            assert mem.result.decoded == net.result.decoded

    def test_concurrent_sessions_under_frequent_thread_switches(self):
        import sys
        import threading

        configs = [
            replace(DEMOS[name].config, seed=seed) for name in sorted(DEMOS) for seed in (1, 2)
        ]
        results = {}

        def run(index, config):
            results[index] = run_networked_session(config).serialize()

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=run, args=(i, config), daemon=True)
                for i, config in enumerate(configs)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        for i, config in enumerate(configs):
            assert results[i] == run_memory_session(config).serialize()

    def test_empty_leader_set_needs_no_network(self):
        config = SessionConfig(
            universe_size=3,
            parties=(
                PartyProfile(1, 2, frozenset({1})),
                PartyProfile(2, 2, frozenset()),
            ),
            seed=1,
            leader_override=2,
        )
        net = run_networked_session(config)
        assert net.messages == ()
        assert net.result.decoded == frozenset()

    def test_spawning_runner_elects_and_derives_the_session_id_once(self, monkeypatch):
        # session.run_leader and the endpoints read config.prepared, which
        # runs protocol.prepare once per config object: once when the runner
        # spawns its endpoints, once when it is given endpoints spawned from
        # the same config. Each half builds its own config, as a config
        # prepared before holds its setup and counts no call.
        import mppsi.protocol

        calls = {"prepare_session": 0, "make_session_id": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(
                mppsi.protocol, name, counting(name, getattr(mppsi.protocol, name))
            )
        config = replace(DEMOS["sec4"].config)
        data = run_networked_session(config).serialize()
        assert calls == {"prepare_session": 1, "make_session_id": 1}
        calls.update(prepare_session=0, make_session_id=0)
        config = replace(DEMOS["sec4"].config)
        endpoints = spawn_endpoints(config)
        try:
            given = run_networked_session(config, endpoints).serialize()
        finally:
            for ep in endpoints:
                ep.stop()
        assert calls == {"prepare_session": 1, "make_session_id": 1}
        monkeypatch.undo()
        expected = run_memory_session(config).serialize()
        assert data == expected
        assert given == expected

    def test_endpoints_of_an_equal_config_object_serve_the_session(self):
        # The endpoints prepare their own copy of the config, the runner the
        # original: both derive the same setup and session id.
        config = DEMOS["sec7_2"].config
        endpoints = spawn_endpoints(replace(config))
        try:
            data = run_networked_session(config, endpoints).serialize()
        finally:
            for ep in endpoints:
                ep.stop()
        assert endpoints[0].config is not config
        assert data == run_memory_session(config).serialize()

    def test_endpoints_of_another_config_do_not_lend_their_setup(self):
        # Endpoints spawned from one seed, a session run with another: the
        # runner derives its own session id, and the endpoints close on the
        # queries of a session they do not serve.
        config = DEMOS["sec4"].config
        endpoints = spawn_endpoints(config)
        try:
            with pytest.raises(TransportError, match="not answered"):
                run_networked_session(replace(config, seed=config.seed + 1), endpoints)
        finally:
            for ep in endpoints:
                ep.stop()

    def test_round_waits_for_a_share_whose_receiver_closes_after_the_last_answer(
        self, monkeypatch
    ):
        # A share connection is done only once its receiver closes it. One
        # receiver here holds that close until the leader has its last
        # answer, so the round must wait past that answer.
        import mppsi.net

        config = DEMOS["sec7_2"].config
        expected = run_memory_session(config).messages_in_phase("randomness")
        receiver = expected[0].dest
        held = []  # the receiver's closes, held until the last answer
        released = []  # how many closes were held at the last answer

        read_frames = DatabaseEndpoint._read_frames

        def holding(self, sock, conn):
            try:
                read_frames(self, sock, conn)
            except TransportError:
                if (self.party_id, self.database) != receiver or released:
                    raise
                self._loop.selector.unregister(sock)
                held.append(sock)

        read_replies = mppsi.net._ServeLoop._read_replies

        def releasing(self, key):
            read_replies(self, key)
            owner = key.data[0]
            if isinstance(owner, mppsi.net._Round) and not owner.open and not released:
                released.append(len(held))
                for sock in held:
                    sock.close()

        monkeypatch.setattr(DatabaseEndpoint, "_read_frames", holding)
        monkeypatch.setattr(mppsi.net._ServeLoop, "_read_replies", releasing)
        transcript = run_networked_session(config)
        assert released and released[0] > 0
        assert transcript.messages_in_phase("randomness") == expected


class TestEndpointBehaviour:
    @pytest.mark.parametrize("name", ["sec4", "sec7_1", "sec7_2"])
    def test_endpoints_install_the_memory_bundles(self, name):
        config = DEMOS[name].config
        setup = prepare_session(config.parties, config.universe, config.leader_override)
        plan = make_partition_plan(setup.leader, setup.clients)
        expected, _ = build_bundle(
            plan, setup.clients, setup.field, config.seed, make_session_id(config)
        )
        endpoints = spawn_endpoints(config)
        try:
            run_networked_session(config, endpoints=endpoints)
            installed = {
                (ep.party_id, ep.database): (ep.state.local, ep.state.individual, ep.state.c)
                for ep in endpoints
            }
            assert installed == {
                address: (state.local, state.individual, state.c)
                for address, state in expected.items()
            }
        finally:
            for ep in endpoints:
                ep.stop()

    def test_two_sessions_on_one_set_of_endpoints_receive_each_share_once(self, monkeypatch):
        # The endpoints send their shares in the first session only; each
        # transcript still has them all, from the endpoints' states.
        config = DEMOS["sec4"].config
        expected = run_memory_session(config)
        received = []
        receive = DatabaseState.receive

        def counting(self, share):
            received.append(share)
            receive(self, share)

        monkeypatch.setattr(DatabaseState, "receive", counting)
        endpoints = spawn_endpoints(config)
        try:
            transcripts = [run_networked_session(config, endpoints) for _ in range(2)]
        finally:
            for ep in endpoints:
                ep.stop()
        assert [t.serialize() for t in transcripts] == [expected.serialize()] * 2
        shares = expected.messages_in_phase("randomness")
        assert len(shares) == len(received) == 7
        assert sorted(received, key=share_order) == list(shares)
        assert all(ep.errors == [] for ep in endpoints)

    def test_cross_session_frames_are_rejected(self):
        config = DEMOS["sec4"].config
        endpoints = spawn_endpoints(config)
        try:
            target = endpoints[0]
            alien = replace(config, seed=config.seed + 1)
            msg_session = make_session_id(alien)
            rogue = Message(
                type="query",
                session_id=msg_session,
                origin=(3, 0),
                dest=(target.party_id, target.database),
                partition=1,
                target=None,
                values=bytes(4),
            )
            with socket.create_connection(target.address, timeout=5) as conn:
                conn.settimeout(5)
                conn.sendall(encode_msg(rogue))
                # The endpoint answers by closing the connection.
                assert conn.recv(1) == b""
        finally:
            for ep in endpoints:
                ep.stop()

    def test_unreachable_endpoint_is_a_transport_error(self):
        config = DEMOS["sec4"].config
        # Reserve a port and close it so nothing is listening there.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        addressed = replace(
            config,
            transport="net",
            addresses={
                (party.party_id, db): ("127.0.0.1", port)
                for party in config.parties
                if party.party_id != 3
                for db in range(1, party.num_databases + 1)
            },
        )
        import mppsi.net as net_mod

        old_retry = net_mod.CONNECT_RETRY_SECONDS
        net_mod.CONNECT_RETRY_SECONDS = 0.2
        try:
            with pytest.raises(TransportError):
                run_networked_session(addressed)
        finally:
            net_mod.CONNECT_RETRY_SECONDS = old_retry

    def test_stop_wakes_accept_loops_at_once(self):
        before = set(threading.enumerate())
        endpoints = spawn_endpoints(DEMOS["sec4"].config)
        assert len(endpoints) == 6
        start = time.perf_counter()
        for endpoint in endpoints:
            endpoint.stop()
        assert time.perf_counter() - start < 0.1
        assert set(threading.enumerate()) <= before

    def test_query_without_randomness_is_dropped_in_bounded_time(self, monkeypatch):
        import mppsi.net as net_mod

        monkeypatch.setattr(net_mod, "READY_TIMEOUT_SECONDS", 0.2)
        config = DEMOS["sec4"].config
        # No begin_sharing: the endpoints never receive their randomness.
        endpoints = spawn_endpoints(config)
        try:
            target = next(ep for ep in endpoints if not ep.state.ready)
            query = Message(
                type="query",
                session_id=make_session_id(config),
                origin=(3, 0),
                dest=(target.party_id, target.database),
                partition=1,
                target=None,
                values=bytes(config.universe_size),
            )
            with socket.create_connection(target.address, timeout=5) as conn:
                conn.settimeout(5)
                start = time.monotonic()
                conn.sendall(encode_msg(query))
                assert conn.recv(1) == b""
                assert 0.15 < time.monotonic() - start < 2.0
        finally:
            for ep in endpoints:
                ep.stop()

    def test_spawned_endpoints_and_session_start_one_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def record(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", record)
        config = DEMOS["sec7_2"].config
        endpoints = spawn_endpoints(config)
        try:
            transcript = run_networked_session(config, endpoints=endpoints)
            assert started == [endpoints[0]._loop.thread]
            assert all(ep._loop is endpoints[0]._loop for ep in endpoints)
        finally:
            for ep in endpoints:
                ep.stop()
        # Every query has its answer.
        asked = [(m.dest, m.partition, m.target) for m in transcript.messages_in_phase("query")]
        answered = [
            (m.origin, m.partition, m.target) for m in transcript.messages_in_phase("answer")
        ]
        assert asked == answered
        assert not any(thread.is_alive() for thread in started)

    def test_query_value_equal_to_modulus_closes_the_connection(self):
        config = DEMOS["sec4"].config
        endpoints = spawn_endpoints(config)
        try:
            # No randomness arrives, so a valid query waits on its connection.
            target = next(ep for ep in endpoints if not ep.state.ready)
            modulus = target.field.modulus

            def query(first_value):
                return Message(
                    type="query",
                    session_id=make_session_id(config),
                    origin=(3, 0),
                    dest=(target.party_id, target.database),
                    partition=1,
                    target=None,
                    values=bytes((first_value,)) + bytes(config.universe_size - 1),
                )

            with socket.create_connection(target.address, timeout=5) as conn:
                conn.settimeout(0.3)
                conn.sendall(encode_msg(query(modulus - 1)))
                with pytest.raises(socket.timeout):
                    conn.recv(1)
                conn.settimeout(5)
                conn.sendall(encode_msg(query(modulus)))
                assert conn.recv(1) == b""
        finally:
            for ep in endpoints:
                ep.stop()

    def test_malformed_frame_closes_only_its_connection(self):
        config = DEMOS["sec4"].config
        endpoints = spawn_endpoints(config)
        try:
            # No randomness arrives yet, so a valid query waits on its connection.
            target = next(ep for ep in endpoints if not ep.state.ready)
            query = Message(
                type="query",
                session_id=make_session_id(config),
                origin=(3, 0),
                dest=(target.party_id, target.database),
                partition=1,
                target=None,
                values=bytes(config.universe_size),
            )
            # The same query's frame with its session id's length running
            # past the end of the frame.
            malformed = bytearray(encode_msg(query))
            assert malformed[HEADER.size + 1] == len(query.session_id)
            malformed[HEADER.size + 1] = 255
            with socket.create_connection(target.address, timeout=5) as waiting:
                waiting.sendall(encode_msg(query))
                with socket.create_connection(target.address, timeout=5) as bad:
                    bad.settimeout(5)
                    bad.sendall(malformed)
                    assert bad.recv(1) == b""
                waiting.settimeout(0.3)
                with pytest.raises(socket.timeout):
                    waiting.recv(1)
            # The loop serves on.
            over_tcp = run_networked_session(config, endpoints=endpoints)
            assert over_tcp.serialize() == run_memory_session(config).serialize()
        finally:
            for ep in endpoints:
                ep.stop()

    def test_shares_reach_every_addressed_destination(self):
        config = DEMOS["sec4"].config
        endpoints = spawn_endpoints(config)
        try:
            sender = next(ep for ep in endpoints if (ep.party_id, ep.database) == ep.state.c_origin)
            addresses = {(ep.party_id, ep.database): ep.address for ep in endpoints}
            others = sorted(key for key in addresses if key != sender.state.c_origin)
            missing = others[0]
            del addresses[missing]
            sender.begin_sharing(addresses)
            # Set once every share connection is done: closed by its
            # receiver after reading every frame, or failed.
            assert sender._shared.wait(timeout=10)
            received = {
                (ep.party_id, ep.database)
                for ep in endpoints
                if ep is not sender and ep.state.c is not None
            }
            assert received == set(others[1:])
            assert [str(missing) in str(error) for error in sender.errors] == [True]
        finally:
            for ep in endpoints:
                ep.stop()

    def test_refused_share_connection_is_retried_until_its_receiver_listens(self):
        config = DEMOS["sec4"].config
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        sender = DatabaseEndpoint(config, 1, 1)
        late = DatabaseEndpoint(config, 2, 3, port=port)
        others = [DatabaseEndpoint(config, *key) for key in [(1, 2), (1, 3), (2, 1), (2, 2)]]
        for endpoint in [sender] + others:
            endpoint.start()
        try:
            addresses = {(ep.party_id, ep.database): ep.address for ep in others}
            addresses[(2, 3)] = ("127.0.0.1", port)
            sender.begin_sharing(addresses)
            time.sleep(0.3)
            late.start()
            assert sender._shared.wait(timeout=5)
            assert sender.errors == []
            assert late.state.c == sender.state.c
        finally:
            for endpoint in [sender, late] + others:
                endpoint.stop()

    @pytest.mark.parametrize("key", [(1, 1), (1, 2)])
    def test_sharing_before_start_is_a_transport_error(self, key):
        endpoint = DatabaseEndpoint(DEMOS["sec4"].config, *key)
        assert endpoint.state.shares()
        with pytest.raises(TransportError, match="endpoint not started"):
            endpoint.begin_sharing({})

    def test_leader_party_cannot_serve_endpoints(self):
        from mppsi.errors import ConfigError

        config = DEMOS["sec4"].config
        with pytest.raises(ConfigError):
            DatabaseEndpoint(config, 3, 1)


POLICIES = {
    "zero_local": RandomnessPolicy(zero_local=True),
    "zero_individual": RandomnessPolicy(zero_individual=True),
    "correlation_offset=1": RandomnessPolicy(correlation_offset=1),
    "fixed_global=1": RandomnessPolicy(fixed_global=1),
}


class TestExternalAddresses:
    """The runner given only addresses: the shares stay with the endpoints.

    Its process builds no database state, and its transcript is the memory
    transcript without the randomness section.
    """

    @pytest.mark.parametrize("name", ["sec4", "sec7_2"])
    def test_session_with_endpoints_known_only_by_address(self, name):
        # As serve-db runs them: one endpoint per client database, each on a
        # loop of its own, sharing at start-up with the full address map.
        # The runner is given only the addresses.
        demo = DEMOS[name]
        config = demo.config
        endpoints = [DatabaseEndpoint(config, *key) for key in client_databases(config)]
        try:
            for ep in endpoints:
                ep.start()
            addresses = {(ep.party_id, ep.database): ep.address for ep in endpoints}
            for ep in endpoints:
                ep.begin_sharing(addresses)
            transcript = run_by_address(config, addresses)
        finally:
            for ep in endpoints:
                ep.stop()
        assert transcript.result.decoded == demo.expected_decoded
        assert_memory_transcript_without_shares(transcript, config)

    def test_refused_query_connection_is_retried_until_its_database_listens(self):
        config = DEMOS["sec4"].config
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        *keys, late_key = client_databases(config)
        early = [DatabaseEndpoint(config, *key) for key in keys]
        late = DatabaseEndpoint(config, *late_key, port=port)
        for endpoint in early:
            endpoint.start()
        addresses = {(ep.party_id, ep.database): ep.address for ep in early}
        addresses[late_key] = ("127.0.0.1", port)
        for endpoint in early:
            endpoint.begin_sharing(addresses)

        def start_late():
            late.start()
            late.begin_sharing(addresses)

        transcript = run_while_late(config, early + [late], addresses, start_late)
        assert any(m.origin == late_key for m in transcript.messages_in_phase("answer"))
        assert_memory_transcript_without_shares(transcript, config)

    def test_queries_wait_at_their_databases_for_the_randomness(self):
        config = DEMOS["sec4"].config
        endpoints = [DatabaseEndpoint(config, *key) for key in client_databases(config)]
        for endpoint in endpoints:
            endpoint.start()
        addresses = {(ep.party_id, ep.database): ep.address for ep in endpoints}

        def share_late():
            for endpoint in endpoints:
                endpoint.begin_sharing(addresses)

        transcript = run_while_late(config, endpoints, addresses, share_late)
        assert_memory_transcript_without_shares(transcript, config)

    def test_addresses_must_cover_every_client_database(self):
        config = DEMOS["sec4"].config
        keys = client_databases(config)
        # Nothing listens there: the runner fails before it connects.
        addresses = {key: ("127.0.0.1", 9) for key in keys[:-1]}
        with pytest.raises(ConfigError, match=re.escape("database (2,3)")):
            run_by_address(config, addresses)


def client_databases(config):
    setup = prepare_session(config.parties, config.universe, config.leader_override)
    return [
        (client.party_id, db)
        for client in setup.clients
        for db in range(1, client.num_databases + 1)
    ]


def run_by_address(config, addresses):
    """Run a session on endpoints known only by address; it builds no database state."""
    built = []
    init = DatabaseState.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DatabaseState, "__init__", counting)
        transcript = run_networked_session(replace(config, transport="net", addresses=addresses))
    assert built == []
    return transcript


def assert_memory_transcript_without_shares(transcript, config):
    memory = run_memory_session(config)
    assert memory.messages_in_phase("randomness")
    queries_and_answers = memory.messages_in_phase("query") + memory.messages_in_phase("answer")
    data = transcript.serialize()
    assert data == replace(memory, messages=queries_and_answers).serialize()
    assert load_transcript(data) == transcript


def run_while_late(config, endpoints, addresses, late):
    """Run a session on endpoints known only by address; late runs 0.3 s in."""

    def run_late():
        time.sleep(0.3)
        late()

    starter = threading.Thread(target=run_late)
    starter.start()
    try:
        return run_by_address(config, addresses)
    finally:
        starter.join()
        for endpoint in endpoints:
            endpoint.stop()


class TestPoliciesOverTcp:
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_transcript_equals_the_memory_transcript(self, name, policy_name):
        config = DEMOS[name].config
        policy = POLICIES[policy_name]
        over_tcp = run_networked_session(config, policy=policy)
        assert over_tcp.serialize() == run_memory_session(config, policy).serialize()
        if policy.correlation_offset:
            assert over_tcp.result.decoded != brute_force_intersection(config.parties)


def share(config, kind, origin, dest, target, values):
    return Message(
        type=kind,
        session_id=make_session_id(config),
        origin=origin,
        dest=dest,
        partition=None,
        target=target,
        values=values,
    )


def send_and_expect_close(endpoint, msg):
    with socket.create_connection(endpoint.address, timeout=5) as conn:
        conn.settimeout(5)
        conn.sendall(encode_msg(msg))
        assert conn.recv(1) == b""


# sec4: clients 1 and 2, each with three databases; client 2 completes the
# correlation, and its database (2, 2) takes position 1's share from (1, 2).
# L = 3 and the multiplier comes from (1, 1).
BAD_SHARES = {
    "no value": ("c_share", (1, 1), (1, 2), None, b""),
    "two values": ("c_share", (1, 1), (1, 2), None, b"\x01\x01"),
    "multiplier from elsewhere": ("c_share", (9, 9), (1, 2), None, b"\x01"),
    "multiplier from a client database": ("c_share", (2, 1), (1, 2), None, b"\x01"),
    "t share from the other database": ("t_share", (1, 3), (2, 2), 1, b"\x01"),
    "t share from the correlating client": ("t_share", (2, 3), (2, 2), 1, b"\x01"),
    "t share from the leader": ("t_share", (3, 2), (2, 2), 1, b"\x01"),
    "t share value equal to L": ("t_share", (1, 2), (2, 2), 1, b"\x03"),
    "t share without a value": ("t_share", (1, 2), (2, 2), 1, b""),
    "t share for a position held elsewhere": ("t_share", (1, 3), (2, 2), 2, b"\x01"),
}


class TestSharesFromTheWire:
    @pytest.mark.parametrize("bad", sorted(BAD_SHARES))
    def test_rejected_share_closes_its_connection_and_installs_nothing(self, bad):
        config = DEMOS["sec4"].config
        kind, origin, dest, target, values = BAD_SHARES[bad]
        endpoints = spawn_endpoints(config)
        try:
            victim = next(ep for ep in endpoints if (ep.party_id, ep.database) == dest)
            before = (victim.state.c, dict(victim.state.individual))
            send_and_expect_close(victim, share(config, kind, origin, dest, target, values))
            assert (victim.state.c, victim.state.individual) == before
            # The loop serves on, and the victim still takes the honest shares.
            start = time.monotonic()
            over_tcp = run_networked_session(config, endpoints=endpoints)
            assert time.monotonic() - start < 1.0
            assert over_tcp.serialize() == run_memory_session(config).serialize()
        finally:
            for ep in endpoints:
                ep.stop()

    def test_query_without_a_partition_closes_only_its_connection(self):
        config = DEMOS["sec4"].config
        endpoints = spawn_endpoints(config)
        try:
            # (1, 1) draws the multiplier and needs no share, so it answers at once.
            target = next(ep for ep in endpoints if (ep.party_id, ep.database) == (1, 1))
            query = Message(
                type="query",
                session_id=make_session_id(config),
                origin=(3, 0),
                dest=(1, 1),
                partition=None,
                target=None,
                values=bytes(config.universe_size),
            )
            send_and_expect_close(target, query)
            over_tcp = run_networked_session(config, endpoints=endpoints)
            assert over_tcp.serialize() == run_memory_session(config).serialize()
        finally:
            for ep in endpoints:
                ep.stop()

    def test_targeted_query_to_database_one_closes_only_its_connection(self):
        # Database 1 holds no individual values, so a targeted query moved to
        # it is refused rather than answered with t = 0.
        config = DEMOS["sec4"].config
        memory = run_memory_session(config)
        targeted = next(m for m in memory.messages_in_phase("query") if m.dest == (1, 2))
        endpoints = spawn_endpoints(config)
        try:
            # (1, 1) draws the multiplier and needs no share, so it is ready at
            # once: the close comes from the refusal, not from a wait.
            first = next(ep for ep in endpoints if (ep.party_id, ep.database) == (1, 1))
            send_and_expect_close(first, targeted._replace(dest=(1, 1)))
            over_tcp = run_networked_session(config, endpoints=endpoints)
            assert over_tcp.serialize() == memory.serialize()
        finally:
            for ep in endpoints:
                ep.stop()

    def test_query_not_from_the_leader_closes_only_its_connection(self):
        config = DEMOS["sec4"].config
        endpoints = spawn_endpoints(config)
        try:
            # (1, 1) needs no share, so a leader's query would be answered at once.
            target = next(ep for ep in endpoints if (ep.party_id, ep.database) == (1, 1))
            query = Message(
                type="query",
                session_id=make_session_id(config),
                origin=(2, 1),
                dest=(1, 1),
                partition=1,
                target=None,
                values=bytes(config.universe_size),
            )
            send_and_expect_close(target, query)
            over_tcp = run_networked_session(config, endpoints=endpoints)
            assert over_tcp.result.decoded == brute_force_intersection(config.parties)
            assert over_tcp.serialize() == run_memory_session(config).serialize()
        finally:
            for ep in endpoints:
                ep.stop()

    def test_deeply_nested_frame_closes_only_its_connection(self):
        config = DEMOS["sec4"].config
        endpoints = spawn_endpoints(config)
        try:
            body = b"[" * 100_000
            with socket.create_connection(endpoints[0].address, timeout=5) as conn:
                conn.settimeout(5)
                conn.sendall(len(body).to_bytes(4, "big") + body)
                assert conn.recv(1) == b""
            over_tcp = run_networked_session(config, endpoints=endpoints)
            assert over_tcp.serialize() == run_memory_session(config).serialize()
        finally:
            for ep in endpoints:
                ep.stop()

    def test_multiplier_is_taken_only_once(self):
        config = DEMOS["sec4"].config
        real_c = next(
            m.values for m in run_memory_session(config).messages_in_phase("randomness")
            if m.type == "c_share"
        )
        endpoints = spawn_endpoints(config)
        try:
            victim = next(ep for ep in endpoints if (ep.party_id, ep.database) == (1, 2))
            first = share(config, "c_share", (1, 1), (1, 2), None, real_c)
            with socket.create_connection(victim.address, timeout=5) as conn:
                conn.sendall(encode_msg(first))
                conn.shutdown(socket.SHUT_WR)
                conn.settimeout(5)
                assert conn.recv(1) == b""
            assert victim.state.c == real_c[0]
            other = 3 - real_c[0]  # the other nonzero residue mod 3
            second = share(config, "c_share", (1, 1), (1, 2), None, bytes((other,)))
            send_and_expect_close(victim, second)
            assert victim.state.c == real_c[0]
        finally:
            for ep in endpoints:
                ep.stop()

    def test_a_peer_that_never_reads_stalls_no_one(self):
        config = DEMOS["sec4"].config
        own = [
            m for m in run_memory_session(config).messages_in_phase("query") if m.dest == (1, 1)
        ]
        flood = b"".join(map(encode_msg, own)) * 1000
        endpoints = spawn_endpoints(config)
        try:
            target = next(ep for ep in endpoints if (ep.party_id, ep.database) == (1, 1))
            with socket.create_connection(target.address, timeout=10) as peer:
                written = 0
                while written < 7_000_000:
                    peer.sendall(flood)
                    written += len(flood)
                start = time.monotonic()
                over_tcp = run_networked_session(config, endpoints=endpoints)
                assert time.monotonic() - start < 1.0
            assert over_tcp.serialize() == run_memory_session(config).serialize()
        finally:
            for ep in endpoints:
                ep.stop()


def closing_causes(monkeypatch):
    """The errors the serve loops close connections for, in order, from now on.

    A peer that closes its end is left out: that is how a connection to an
    endpoint ends.
    """
    import mppsi.net

    causes = []
    close = mppsi.net._ServeLoop._close

    def recording(self, key, cause=None):
        if cause is not None and str(cause) != "peer closed the connection":
            causes.append(cause)
        close(self, key, cause)

    monkeypatch.setattr(mppsi.net._ServeLoop, "_close", recording)
    return causes


def closes_alone(endpoint, msg, causes):
    """Send msg to endpoint beside an idle connection; the error its connection closed on.

    Only msg's connection closes: the idle one stays open.
    """
    with socket.create_connection(endpoint.address, timeout=5) as idle:
        send_and_expect_close(endpoint, msg)
        (cause,) = causes
        idle.settimeout(0.3)
        with pytest.raises(socket.timeout):
            idle.recv(1)
    causes.clear()
    return cause


def leader_query(config, dest, length):
    return Message(
        type="query",
        session_id=make_session_id(config),
        origin=(3, 0),
        dest=dest,
        partition=1,
        target=None,
        values=bytes(length),
    )


class TestEndpointRejections:
    def test_unknown_party_is_a_config_error(self):
        with pytest.raises(ConfigError, match="unknown party 9"):
            DatabaseEndpoint(DEMOS["sec4"].config, 9, 1)

    @pytest.mark.parametrize("database", [0, 4])
    def test_unknown_database_is_a_config_error(self, database):
        with pytest.raises(ConfigError, match=f"party 1 has no database {database}"):
            DatabaseEndpoint(DEMOS["sec4"].config, 1, database)

    def test_address_before_start_is_a_transport_error(self):
        endpoint = DatabaseEndpoint(DEMOS["sec4"].config, 1, 1)
        with pytest.raises(TransportError, match="endpoint not started"):
            endpoint.address

    # sec4: the leader is party 3; (1, 1) draws the multiplier and needs no
    # share, so it answers a query at once.
    REJECTED_FRAMES = {
        "addressed to another database": (
            lambda config: leader_query(config, (1, 2), config.universe_size),
            r"frame for \(1, 2\) delivered to \(1,1\)",
        ),
        "an answer": (
            lambda config: leader_query(config, (1, 1), config.universe_size)._replace(
                type="answer", origin=(1, 2), values=b"\x00"
            ),
            "unexpected 'answer' frame",
        ),
        "a query of the wrong length": (
            lambda config: leader_query(config, (1, 1), config.universe_size + 1),
            "query vector length 5 != universe 4",
        ),
    }

    @pytest.mark.parametrize("rejected", sorted(REJECTED_FRAMES))
    def test_rejected_frame_closes_only_its_connection(self, rejected, monkeypatch):
        config = DEMOS["sec4"].config
        make, match = self.REJECTED_FRAMES[rejected]
        endpoints = spawn_endpoints(config)
        try:
            target = next(ep for ep in endpoints if (ep.party_id, ep.database) == (1, 1))
            causes = closing_causes(monkeypatch)
            cause = closes_alone(target, make(config), causes)
            assert type(cause) is ProtocolViolationError
            assert re.search(match, str(cause))
            # The loop serves on.
            over_tcp = run_networked_session(config, endpoints=endpoints)
            assert over_tcp.serialize() == run_memory_session(config).serialize()
        finally:
            for ep in endpoints:
                ep.stop()

    def test_any_frame_for_an_empty_leader_set_closes_only_its_connection(self, monkeypatch):
        config = SessionConfig(
            universe_size=3,
            parties=(PartyProfile(1, 2, frozenset({1})), PartyProfile(2, 2, frozenset())),
            seed=1,
            leader_override=2,
        )
        endpoints = spawn_endpoints(config)
        try:
            assert [ep.state for ep in endpoints] == [None, None]
            causes = closing_causes(monkeypatch)
            # Twice: the loop serves on.
            for _ in range(2):
                query = leader_query(config, (1, 1), config.universe_size)._replace(origin=(2, 0))
                cause = closes_alone(endpoints[0], query, causes)
                assert type(cause) is ProtocolViolationError
                assert "'query' frame for an empty leader set" in str(cause)
        finally:
            for ep in endpoints:
                ep.stop()

    def test_a_peer_writing_on_a_share_connection_fails_only_that_share(self, monkeypatch):
        config = DEMOS["sec4"].config
        endpoints = spawn_endpoints(config)
        writer = socket.create_server(("127.0.0.1", 0))

        def write_back():
            conn, _ = writer.accept()
            with conn:
                conn.sendall(b"\x00")
                conn.settimeout(5)
                while conn.recv(1 << 16):
                    pass

        thread = threading.Thread(target=write_back, daemon=True)
        thread.start()
        try:
            causes = closing_causes(monkeypatch)
            sender = next(ep for ep in endpoints if (ep.party_id, ep.database) == ep.state.c_origin)
            addresses = {(ep.party_id, ep.database): ep.address for ep in endpoints}
            others = sorted(key for key in addresses if key != sender.state.c_origin)
            addresses[others[0]] = writer.getsockname()[:2]
            sender.begin_sharing(addresses)
            assert sender._shared.wait(timeout=10)
            written = [c for c in causes if type(c) is ProtocolViolationError]
            assert [str(c) for c in written] == [f"{others[0]} wrote on a share connection"]
            (error,) = sender.errors
            assert "wrote on a share connection" in str(error)
            received = {
                (ep.party_id, ep.database)
                for ep in endpoints
                if ep is not sender and ep.state.c is not None
            }
            assert received == set(others[1:])
        finally:
            writer.close()
            thread.join(timeout=5)
            for ep in endpoints:
                ep.stop()
        assert not thread.is_alive()


class RogueDatabase:
    """A listener that answers the leader's first query read with one frame."""

    def __init__(self, reply: Message):
        self.reply = reply
        self.server = socket.create_server(("127.0.0.1", 0))
        self.address = self.server.getsockname()[:2]
        self.done = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        self.server.settimeout(5)
        conn, _ = self.server.accept()
        with conn:
            conn.settimeout(5)
            conn.recv(1 << 16)
            conn.sendall(encode_msg(self.reply))
            self.done.wait(5)

    def close(self):
        self.done.set()
        self.thread.join(timeout=5)
        self.server.close()
        assert not self.thread.is_alive()


class TestLeaderChecksAnswers:
    @pytest.mark.parametrize("forged", ["origin", "dest"])
    def test_answer_must_come_from_its_connection_to_the_leader(self, forged):
        config = DEMOS["sec4"].config
        queried = sorted({m.dest for m in run_memory_session(config).messages_in_phase("query")})
        victim, other = queried[0], queried[1]
        leader = run_memory_session(config).leader_id
        reply = Message(
            type="answer",
            session_id=make_session_id(config),
            origin=other if forged == "origin" else victim,
            dest=(leader, 0) if forged == "origin" else (leader, 1),
            partition=1,
            target=None,
            values=b"\x00",
        )
        endpoints = spawn_endpoints(config)
        rogue = RogueDatabase(reply)
        try:
            addresses = {(ep.party_id, ep.database): ep.address for ep in endpoints}
            addresses[victim] = rogue.address
            addressed = replace(config, transport="net", addresses=addresses)
            start = time.monotonic()
            with pytest.raises(ProtocolViolationError, match=str(victim)):
                run_networked_session(addressed)
            assert time.monotonic() - start < 5.0
        finally:
            rogue.close()
            for ep in endpoints:
                ep.stop()

    def test_answer_must_carry_the_running_session_id(self):
        # Every other database answers truly, so the round completes and
        # only the session id of the rogue's one answer is wrong.
        config = DEMOS["sec4"].config
        victim = (1, 1)
        (answer,) = [
            m for m in run_memory_session(config).messages_in_phase("answer")
            if m.origin == victim
        ]
        endpoints = spawn_endpoints(config)
        rogue = RogueDatabase(answer._replace(session_id="0" * 16))
        try:
            addresses = {(ep.party_id, ep.database): ep.address for ep in endpoints}
            for ep in endpoints:
                ep.begin_sharing(addresses)
            addresses[victim] = rogue.address
            addressed = replace(config, transport="net", addresses=addresses)
            with pytest.raises(ProtocolViolationError, match="answer for session 0000000000000000"):
                run_networked_session(addressed)
        finally:
            rogue.close()
            for ep in endpoints:
                ep.stop()


class TestEndpointErrorsReachTheRunner:
    def test_unsent_shares_fail_the_session_with_their_cause_at_once(self):
        config = DEMOS["sec4"].config
        endpoints = spawn_endpoints(config)
        sender = next(ep for ep in endpoints if (ep.party_id, ep.database) == ep.state.c_origin)
        share = sender.begin_sharing
        # The c sender alone lacks the address of (1, 2), which therefore
        # never gets its multiplier and never answers.
        sender.begin_sharing = lambda addresses: share(
            {dest: address for dest, address in addresses.items() if dest != (1, 2)}
        )
        try:
            start = time.monotonic()
            with pytest.raises(TransportError) as raised:
                run_networked_session(config, endpoints=endpoints)
            assert time.monotonic() - start < 2.0
        finally:
            for ep in endpoints:
                ep.stop()
        assert "no address for database endpoint (1, 2)" in str(raised.value)
        assert str(sender.state.c_origin) in str(raised.value)
        assert raised.value.__cause__ is sender.errors[0]

    def test_a_round_failing_otherwise_names_the_endpoint_errors(self):
        import mppsi.net as net_mod

        endpoint = DatabaseEndpoint(DEMOS["sec4"].config, 1, 1)
        endpoint.errors.append(TransportError("shares from (1, 1) to (2, 3) not sent: refused"))
        with pytest.raises(TransportError) as raised:
            net_mod._query_round({}, {(2, 1): (b"", 1)}, (3, 0), [endpoint])
        message = str(raised.value)
        assert "no address for database endpoint (2, 1)" in message
        assert "shares from (1, 1) to (2, 3) not sent: refused" in message
