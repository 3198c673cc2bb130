"""Networked transport: loopback endpoints, equivalence with the simulator."""

import dataclasses
import json
import random
import re
import socket
import threading
import time
import tracemalloc
from dataclasses import replace

import pytest

from mppsi.config import SessionConfig, load_config
from mppsi.demo import DEMOS
from mppsi.database import DatabaseState
from mppsi.errors import ConfigError, ProtocolViolationError, TransportError
from mppsi.model import PartyProfile, brute_force_intersection
from mppsi.net import ERRORS_KEPT, DatabaseEndpoint, run_networked_session, spawn_endpoints
from mppsi.protocol import make_session_id, prepare_session
from mppsi.session import deal, load_transcript, run_memory_session
from mppsi.wire import HEADER, Message, decode_msg, encode_msg
from test_golden import CONFIGS, eleven_config, wide_config


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
        # The endpoints are dealt from their own copy of the config, the
        # runner prepares the original: both derive the same setup and
        # session id.
        config = DEMOS["sec7_2"].config
        endpoints = spawn_endpoints(replace(config))
        try:
            data = run_networked_session(config, endpoints).serialize()
        finally:
            for ep in endpoints:
                ep.stop()
        assert data == run_memory_session(config).serialize()


class TestEndpointBehaviour:
    @pytest.mark.parametrize("name", ["sec4", "sec7_1", "sec7_2"])
    def test_endpoints_hold_the_memory_sessions_dealing(self, name):
        config = DEMOS[name].config
        expected = deal(config)
        endpoints = spawn_endpoints(config)
        try:
            run_networked_session(config, endpoints=endpoints)
            held = {ep.state.address: vars(ep.state) for ep in endpoints}
            assert held == {address: vars(state) for address, state in expected.items()}
        finally:
            for ep in endpoints:
                ep.stop()

    def test_two_sessions_on_one_set_of_endpoints(self):
        config = DEMOS["sec4"].config
        expected = run_memory_session(config).serialize()
        endpoints = spawn_endpoints(config)
        try:
            transcripts = [run_networked_session(config, endpoints) for _ in range(2)]
        finally:
            for ep in endpoints:
                ep.stop()
        assert [t.serialize() for t in transcripts] == [expected] * 2

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
                dest=target.state.address,
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

    def test_a_database_that_never_answers_times_out(self, monkeypatch):
        import mppsi.net as net_mod

        config = DEMOS["sec4"].config
        before = set(threading.enumerate())
        endpoints = spawn_endpoints(config)
        # Its connections complete in the backlog; nothing reads or answers them.
        silent = socket.create_server(("127.0.0.1", 0))
        try:
            addresses = {ep.state.address: ep.address for ep in endpoints}
            addresses[1, 2] = silent.getsockname()[:2]
            monkeypatch.setattr(net_mod, "SOCKET_TIMEOUT_SECONDS", 0.3)
            start = time.monotonic()
            with pytest.raises(TransportError) as failed:
                run_networked_session(replace(config, transport="net", addresses=addresses))
            assert time.monotonic() - start < 1.0
            assert str(failed.value) == "queries to (1, 2) not answered: timed out"
        finally:
            silent.close()
            for ep in endpoints:
                ep.stop()
        assert set(threading.enumerate()) <= before

    def test_spawned_endpoints_and_session_start_one_thread(self, monkeypatch):
        started = record_thread_starts(monkeypatch)
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
            target = next(ep for ep in endpoints if ep.state.address == (1, 1))
            modulus = target.state.field.modulus

            def query(first_value):
                return Message(
                    type="query",
                    session_id=make_session_id(config),
                    origin=(3, 0),
                    dest=target.state.address,
                    partition=1,
                    target=None,
                    values=bytes((first_value,)) + bytes(config.universe_size - 1),
                )

            with socket.create_connection(target.address, timeout=5) as conn:
                conn.settimeout(5)
                conn.sendall(encode_msg(query(modulus - 1)))
                assert_one_answer(conn, query(modulus - 1))
                conn.sendall(encode_msg(query(modulus)))
                assert conn.recv(1) == b""
        finally:
            for ep in endpoints:
                ep.stop()

    def test_malformed_frame_closes_only_its_connection(self):
        config = DEMOS["sec4"].config
        endpoints = spawn_endpoints(config)
        try:
            target = next(ep for ep in endpoints if ep.state.address == (1, 1))
            query = Message(
                type="query",
                session_id=make_session_id(config),
                origin=(3, 0),
                dest=target.state.address,
                partition=1,
                target=None,
                values=bytes(config.universe_size),
            )
            # The same query's frame with its session id's length running
            # past the end of the frame.
            malformed = bytearray(encode_msg(query))
            assert malformed[HEADER.size + 1] == len(query.session_id)
            malformed[HEADER.size + 1] = 255
            with socket.create_connection(target.address, timeout=5) as good:
                good.settimeout(5)
                with socket.create_connection(target.address, timeout=5) as bad:
                    bad.settimeout(5)
                    bad.sendall(malformed)
                    assert bad.recv(1) == b""
                good.sendall(encode_msg(query))
                assert_one_answer(good, query)
            # The loop serves on.
            over_tcp = run_networked_session(config, endpoints=endpoints)
            assert over_tcp.serialize() == run_memory_session(config).serialize()
        finally:
            for ep in endpoints:
                ep.stop()


class TestExternalAddresses:
    """The runner given only addresses: its process builds no database state,
    and its transcript is the memory transcript."""

    @pytest.mark.parametrize("name", ["sec4", "sec7_2"])
    def test_session_with_endpoints_known_only_by_address(self, name, monkeypatch):
        # As serve-db runs them: one endpoint per client database, each on a
        # loop of its own and on its own record of the config's dealing. The
        # runner is given only the addresses.
        demo = DEMOS[name]
        config = demo.config
        endpoints = dealt_endpoints(config, client_databases(config))
        try:
            for ep in endpoints:
                ep.start()
            addresses = {ep.state.address: ep.address for ep in endpoints}
            # The round runs in this thread.
            started = record_thread_starts(monkeypatch)
            transcript = run_by_address(config, addresses)
            assert started == []
        finally:
            for ep in endpoints:
                ep.stop()
        assert transcript.result.decoded == frozenset(demo.expected["decoded"])
        assert_memory_transcript(transcript, config)

    def test_refused_query_connection_is_retried_until_its_database_listens(self):
        config = DEMOS["sec4"].config
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        *keys, late_key = client_databases(config)
        early = dealt_endpoints(config, keys)
        late = DatabaseEndpoint(deal(config)[late_key], port=port)
        for endpoint in early:
            endpoint.start()
        addresses = {ep.state.address: ep.address for ep in early}
        addresses[late_key] = ("127.0.0.1", port)
        transcript = run_while_late(config, early + [late], addresses, late.start)
        assert any(m.origin == late_key for m in transcript.messages_in_phase("answer"))
        assert_memory_transcript(transcript, config)

    def test_addresses_must_cover_every_client_database(self):
        config = DEMOS["sec4"].config
        keys = client_databases(config)
        # Nothing listens there: the runner fails before it connects.
        addresses = {key: ("127.0.0.1", 9) for key in keys[:-1]}
        with pytest.raises(ConfigError, match=re.escape("database (2,3)")):
            run_by_address(config, addresses)


def record_thread_starts(monkeypatch):
    """The threads started from now on, in order; each still starts."""
    started = []
    start = threading.Thread.start

    def record(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    return started


def client_databases(config):
    setup = prepare_session(config.parties, config.universe, config.leader_override)
    return [
        (client.party_id, db)
        for client in setup.clients
        for db in range(1, client.num_databases + 1)
    ]


def dealt_endpoints(config, keys):
    """Unstarted endpoints of these databases, each on its state of the config's dealing."""
    states = deal(config)
    return [DatabaseEndpoint(states[key]) for key in keys]


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


def assert_memory_transcript(transcript, config):
    data = transcript.serialize()
    assert data == run_memory_session(config).serialize()
    assert load_transcript(data) == transcript


def assert_one_answer(conn, query):
    """Read the one answer frame to query off conn: its echo, one residue."""
    expected = len(encode_msg(query._replace(type="answer", values=b"\0")))
    frame = b""
    while len(frame) < expected:
        chunk = conn.recv(expected - len(frame))
        assert chunk
        frame += chunk
    answer = decode_msg(frame)
    assert (answer.type, answer.origin, answer.dest) == ("answer", query.dest, query.origin)
    assert (answer.partition, answer.target, len(answer.values)) == (
        query.partition, query.target, 1
    )


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


class TestSeedsOverTcp:
    """Other seeds change every query, answer and dealt value; each demo
    under each gives the memory transcript and the intersection."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_transcript_equals_the_memory_transcript(self, name, seed):
        config = replace(DEMOS[name].config, seed=seed)
        assert config.seed != DEMOS[name].config.seed
        over_tcp = run_networked_session(config)
        assert over_tcp.serialize() == run_memory_session(config).serialize()
        assert over_tcp.result.decoded == brute_force_intersection(config.parties)


def send_and_expect_close(endpoint, msg):
    with socket.create_connection(endpoint.address, timeout=5) as conn:
        conn.settimeout(5)
        conn.sendall(encode_msg(msg))
        assert conn.recv(1) == b""


class TestQueriesFromTheWire:
    @pytest.mark.parametrize("code", [1, 2])
    def test_a_frame_of_a_retired_share_type_closes_only_its_connection(self, code):
        # Type codes 1 and 2 carried randomness shares between client
        # databases; an endpoint now takes a leader's query and nothing else.
        config = DEMOS["sec4"].config
        query = next(
            m for m in run_memory_session(config).messages_in_phase("query") if m.dest == (2, 2)
        )
        frame = bytearray(encode_msg(query))
        frame[HEADER.size] = code
        endpoints = spawn_endpoints(config)
        try:
            victim = next(ep for ep in endpoints if ep.state.address == (2, 2))
            with socket.create_connection(victim.address, timeout=5) as conn:
                conn.settimeout(5)
                conn.sendall(frame)
                assert conn.recv(1) == b""
            over_tcp = run_networked_session(config, endpoints=endpoints)
            assert over_tcp.serialize() == run_memory_session(config).serialize()
        finally:
            for ep in endpoints:
                ep.stop()

    def test_query_without_a_partition_closes_only_its_connection(self):
        config = DEMOS["sec4"].config
        endpoints = spawn_endpoints(config)
        try:
            target = next(ep for ep in endpoints if ep.state.address == (1, 1))
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
            first = next(ep for ep in endpoints if ep.state.address == (1, 1))
            send_and_expect_close(first, targeted._replace(dest=(1, 1)))
            over_tcp = run_networked_session(config, endpoints=endpoints)
            assert over_tcp.serialize() == memory.serialize()
        finally:
            for ep in endpoints:
                ep.stop()

    def test_query_retagged_to_a_position_held_elsewhere_closes_only_its_connection(self):
        # sec7_2: database (2, 2) holds position 1 of partition 1 and (2, 3)
        # position 2. The query to (2, 2) re-tagged to position 2 is refused
        # rather than answered from (2, 2)'s value under (2, 3)'s tag.
        config = DEMOS["sec7_2"].config
        memory = run_memory_session(config)
        query = next(
            m for m in memory.messages_in_phase("query") if (m.dest, m.target) == ((2, 2), 1)
        )
        endpoints = spawn_endpoints(config)
        try:
            victim = next(ep for ep in endpoints if ep.state.address == (2, 2))
            send_and_expect_close(victim, query._replace(target=2))
            over_tcp = run_networked_session(config, endpoints=endpoints)
            assert over_tcp.serialize() == memory.serialize()
        finally:
            for ep in endpoints:
                ep.stop()

    def test_query_not_from_the_leader_closes_only_its_connection(self):
        config = DEMOS["sec4"].config
        endpoints = spawn_endpoints(config)
        try:
            target = next(ep for ep in endpoints if ep.state.address == (1, 1))
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

    def test_a_peer_that_never_reads_stalls_no_one(self):
        config = DEMOS["sec4"].config
        own = [
            m for m in run_memory_session(config).messages_in_phase("query") if m.dest == (1, 1)
        ]
        flood = b"".join(map(encode_msg, own)) * 1000
        endpoints = spawn_endpoints(config)
        try:
            target = next(ep for ep in endpoints if ep.state.address == (1, 1))
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


def closes_alone(endpoint, msg):
    """Send msg to endpoint beside an idle connection; the error its connection closed on.

    Only msg's connection closes, and the endpoint keeps its cause: the idle
    one stays open.
    """
    with socket.create_connection(endpoint.address, timeout=5) as idle:
        send_and_expect_close(endpoint, msg)
        (cause,) = endpoint.errors
        idle.settimeout(0.3)
        with pytest.raises(socket.timeout):
            idle.recv(1)
    endpoint.errors.clear()
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
    def test_address_before_start_is_a_transport_error(self):
        config = DEMOS["sec4"].config
        endpoint = DatabaseEndpoint(deal(config)[1, 1])
        with pytest.raises(TransportError, match="endpoint not started"):
            endpoint.address

    # sec4: the leader is party 3.
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
        "a query one value short": (
            lambda config: leader_query(config, (1, 1), config.universe_size - 1),
            "query vector length 3 != universe 4",
        ),
        # Each client has one partition.
        "a query for a partition past the last": (
            lambda config: leader_query(config, (1, 1), config.universe_size)._replace(
                partition=2
            ),
            "no local randomness slot for partition 2",
        ),
        "a query of another session": (
            lambda config: leader_query(config, (1, 1), config.universe_size)._replace(
                session_id="0" * 16
            ),
            "frame for session 0{16}, serving [0-9a-f]{16}",
        ),
    }

    @pytest.mark.parametrize("rejected", sorted(REJECTED_FRAMES))
    def test_rejected_frame_closes_only_its_connection(self, rejected):
        config = DEMOS["sec4"].config
        make, match = self.REJECTED_FRAMES[rejected]
        endpoints = spawn_endpoints(config)
        try:
            target = next(ep for ep in endpoints if ep.state.address == (1, 1))
            cause = closes_alone(target, make(config))
            assert type(cause) is ProtocolViolationError
            assert re.search(match, str(cause))
            # The loop serves on.
            over_tcp = run_networked_session(config, endpoints=endpoints)
            assert over_tcp.serialize() == run_memory_session(config).serialize()
        finally:
            for ep in endpoints:
                ep.stop()

    def test_a_peers_eof_closes_its_connection_without_a_cause(self):
        config = DEMOS["sec4"].config
        query, *_ = [
            m for m in run_memory_session(config).messages_in_phase("query") if m.dest == (1, 1)
        ]
        endpoints = spawn_endpoints(config)
        try:
            target = next(ep for ep in endpoints if ep.state.address == (1, 1))
            with socket.create_connection(target.address, timeout=5) as conn:
                conn.settimeout(5)
                conn.sendall(encode_msg(query))
                assert_one_answer(conn, query)
                conn.shutdown(socket.SHUT_WR)
                # The endpoint closes its end at our EOF.
                assert conn.recv(1) == b""
            assert not target.errors
        finally:
            for ep in endpoints:
                ep.stop()

    def test_endless_faulted_connections_leave_a_bounded_record(self):
        # Anyone who reaches the port can fault connections without end, each
        # on a large frame: the endpoint keeps the last ERRORS_KEPT causes and
        # none of the data their connections read.
        config = DEMOS["sec4"].config
        length = 60_000
        frame = encode_msg(leader_query(config, (1, 1), length)._replace(session_id="0" * 16))
        endpoint = DatabaseEndpoint(deal(config)[1, 1])
        endpoint.start()
        # The first connection imports what connecting needs.
        send_and_expect_close(endpoint, leader_query(config, (1, 2), 1))
        tracemalloc.start()
        try:
            for _ in range(4 * ERRORS_KEPT):
                with socket.create_connection(endpoint.address, timeout=5) as conn:
                    conn.settimeout(5)
                    conn.sendall(frame)
                    assert conn.recv(1) == b""
            # Its loop thread ends, and with it what the last connection read.
            endpoint.stop()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            endpoint.stop()
        assert len(endpoint.errors) == ERRORS_KEPT
        for cause in endpoint.errors:
            assert type(cause) is ProtocolViolationError
            assert re.fullmatch("frame for session 0{16}, serving [0-9a-f]{16}", str(cause))
            assert (cause.__traceback__, cause.__context__, cause.__cause__) == (None,) * 3
        # What is left is the causes alone, well under one frame.
        assert held < length // 2

    def test_an_empty_leader_set_spawns_no_endpoint_and_no_thread(self, monkeypatch):
        # An empty leader set deals no state, so there is nothing to serve:
        # a serve loop started without endpoints would block until woken.
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        config = SessionConfig(
            universe_size=3,
            parties=(PartyProfile(1, 2, frozenset({1})), PartyProfile(2, 2, frozenset())),
            seed=1,
            leader_override=2,
        )
        assert deal(config) == {}
        assert spawn_endpoints(config) == []
        assert started == []


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
            addresses = {ep.state.address: ep.address for ep in endpoints}
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
            addresses = {ep.state.address: ep.address for ep in endpoints}
            addresses[victim] = rogue.address
            addressed = replace(config, transport="net", addresses=addresses)
            with pytest.raises(ProtocolViolationError, match="answer for session 0000000000000000"):
                run_networked_session(addressed)
        finally:
            rogue.close()
            for ep in endpoints:
                ep.stop()


class TestDealtStates:
    """An endpoint serves the session its state was dealt for, and no other."""

    def test_endpoints_dealt_under_another_seed_refuse_the_leaders_frames(self):
        config = DEMOS["sec4"].config
        reseeded = replace(config, seed=config.seed + 1)
        session, other = make_session_id(config), make_session_id(reseeded)
        queried = {query.dest for query in run_memory_session(config).messages_in_phase("query")}
        before = set(threading.enumerate())
        endpoints = spawn_endpoints(reseeded)
        try:
            start = time.monotonic()
            with pytest.raises(TransportError, match="closed before answering"):
                run_networked_session(config, endpoints)
            assert time.monotonic() - start < 1.0
        finally:
            for ep in endpoints:
                ep.stop()
        # Each queried endpoint closes the leader's connection on its first
        # frame, for a refusal that names both sessions, and keeps it.
        assert {ep.state.address for ep in endpoints} >= queried
        for ep in endpoints:
            refusals = [str(error) for error in ep.errors]
            if ep.state.address in queried:
                assert refusals == [f"frame for session {session}, serving {other}"]
                assert isinstance(ep.errors[0], ProtocolViolationError)
            else:
                assert refusals == []
        assert set(threading.enumerate()) <= before

    def test_an_honest_session_leaves_no_endpoint_error(self):
        config = DEMOS["sec4"].config
        endpoints = spawn_endpoints(config)
        try:
            data = run_networked_session(config, endpoints).serialize()
        finally:
            for ep in endpoints:
                ep.stop()
        assert data == run_memory_session(config).serialize()
        assert [list(ep.errors) for ep in endpoints] == [[]] * len(endpoints)

    @pytest.mark.parametrize("name", ["sec4", "wide"])
    def test_the_query_round_returns_the_answers_in_transcript_order(self, monkeypatch, name):
        # The round delivers what the in-memory transport does, in the order
        # decode sorts into.
        import mppsi.net

        config = wide_config() if name == "wide" else DEMOS[name].config
        rounds = []
        query_round = mppsi.net._query_round

        def recording(*args):
            rounds.append(query_round(*args))
            return rounds[-1]

        monkeypatch.setattr(mppsi.net, "_query_round", recording)
        transcript = run_networked_session(config)
        (answers,) = rounds
        assert answers == sorted(answers, key=Message.sort_key)
        assert tuple(answers) == transcript.messages_in_phase("answer")

    def test_the_round_fails_at_once_for_a_database_without_an_address(self):
        import mppsi.net as net_mod

        start = time.monotonic()
        with pytest.raises(TransportError, match=r"no address for database endpoint \(2, 1\)"):
            net_mod._query_round({}, {(2, 1): (b"", 1)}, (3, 0))
        assert time.monotonic() - start < 1.0


class TestOnlyTheLeaderTalksToDatabases:
    """The paper's model: the clients are not allowed to talk to each other."""

    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_no_message_runs_between_two_client_databases(self, name, transport, monkeypatch):
        import mppsi.net

        opened = []  # where every connection the leader opens goes
        connect = mppsi.net._connect

        def recording(dest, address, deadline):
            opened.append(dest)
            return connect(dest, address, deadline)

        monkeypatch.setattr(mppsi.net, "_connect", recording)
        config = DEMOS[name].config
        run = run_memory_session if transport == "memory" else run_networked_session
        transcript = run(config)
        leader = (transcript.leader_id, 0)
        clients = set(client_databases(config))
        assert transcript.messages
        for m in transcript.messages:
            assert not (m.origin in clients and m.dest in clients)
            assert {m.origin, m.dest} <= clients | {leader}
            assert (m.origin == leader) != (m.dest == leader)
        queried = sorted({m.dest for m in transcript.messages_in_phase("query")})
        assert sorted(opened) == (queried if transport == "tcp" else [])


# A seed no residue, party id, element or count of these configs can equal.
SENTINEL_SEED = 0x5EED_5EED_5EED_5EED


def golden_configs():
    """Every demo and golden config, under SENTINEL_SEED."""
    configs = {name: DEMOS[name].config for name in sorted(DEMOS)}
    configs["audit-small"] = load_config(str(CONFIGS / "audit-small.json"))
    configs["wide"] = wide_config()
    configs["eleven"] = eleven_config()
    return {name: replace(config, seed=SENTINEL_SEED) for name, config in configs.items()}


def held_values(obj):
    """Every value of obj's attributes, with containers and dataclasses opened."""
    stack = list(vars(obj).values())
    while stack:
        value = stack.pop()
        yield value
        if isinstance(value, dict):
            stack += [*value, *value.values()]
        elif isinstance(value, (list, tuple, set, frozenset)):
            stack += value
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            stack += [getattr(value, f.name) for f in dataclasses.fields(value)]


def assert_holds_only_its_state(endpoint):
    """Neither the endpoint nor its state holds a config, the seed, or
    another party's profile."""
    party = endpoint.state.address[0]
    for value in [*held_values(endpoint), *held_values(endpoint.state)]:
        assert not isinstance(value, SessionConfig)
        assert not (isinstance(value, int) and value == SENTINEL_SEED)
        assert not isinstance(value, PartyProfile) or value.party_id == party


def config_file(config, path):
    """Write config as a config file and return its path."""
    path.write_text(json.dumps({
        "universe_size": config.universe_size,
        "parties": [
            {"id": p.party_id, "databases": p.num_databases, "set": sorted(p.data_set)}
            for p in config.parties
        ],
        "leader": config.leader_override,
        "seed": config.seed,
    }))
    return str(path)


class TestEndpointHoldsOnlyItsState:
    """In the paper's model a database holds its party's set and its dealt
    randomness: no config, no seed, no other party's set."""

    @pytest.mark.parametrize("name", sorted(golden_configs()))
    def test_spawned_endpoints(self, name):
        config = golden_configs()[name]
        endpoints = spawn_endpoints(config)
        try:
            assert endpoints
            for endpoint in endpoints:
                assert_holds_only_its_state(endpoint)
        finally:
            for ep in endpoints:
                ep.stop()

    @pytest.mark.parametrize("name", sorted(golden_configs()))
    def test_the_endpoint_serve_db_builds(self, name, tmp_path, monkeypatch, capsys):
        import mppsi.net
        from mppsi.cli import main

        built = []

        class Recording(mppsi.net.DatabaseEndpoint):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        def interrupt(seconds):
            raise KeyboardInterrupt

        monkeypatch.setattr(mppsi.net, "DatabaseEndpoint", Recording)
        # serve-db serves until interrupted; end it at once.
        monkeypatch.setattr("time.sleep", interrupt)
        config = golden_configs()[name]
        path = config_file(config, tmp_path / "session.json")
        keys = client_databases(config)
        for party, db in keys:
            serve = ["serve-db", "--config", path, "--party", str(party), "--db", str(db)]
            assert main([*serve, "--port", "0"]) == 0
        assert [endpoint.state.address for endpoint in built] == keys
        for endpoint in built:
            assert_holds_only_its_state(endpoint)
