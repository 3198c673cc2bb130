"""Networked transport: loopback endpoints, equivalence with the simulator."""

import random
import socket
import threading
import time
from dataclasses import replace

import pytest

from mppsi.config import SessionConfig
from mppsi.demo import DEMOS
from mppsi.errors import ProtocolViolationError, TransportError
from mppsi.leader import make_partition_plan
from mppsi.model import PartyProfile, brute_force_intersection
from mppsi.net import DatabaseEndpoint, run_networked_session, spawn_endpoints
from mppsi.protocol import make_session_id, prepare_session
from mppsi.randomness import RandomnessPolicy, build_bundle
from mppsi.session import run_memory_session
from mppsi.wire import HEADER, Message, encode_msg, render_body


def message_multiset(transcript):
    return sorted(
        tuple(sorted(m.to_dict().items(), key=str)) for m in transcript.messages
    )


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
        # session.run_leader elects and derives the session id; the
        # endpoints the runner spawns reuse both.
        import mppsi.net
        import mppsi.session

        calls = {"prepare_session": 0, "make_session_id": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        for module in (mppsi.net, mppsi.session):
            for name in calls:
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        config = DEMOS["sec4"].config
        data = run_networked_session(config).serialize()
        assert calls == {"prepare_session": 1, "make_session_id": 1}
        monkeypatch.undo()
        assert data == run_memory_session(config).serialize()


class TestEndpointBehaviour:
    def test_endpoint_logs_match_the_memory_randomness_section(self):
        config = DEMOS["sec7_2"].config
        expected = [
            (m.type, m.origin, m.dest, m.target, m.values)
            for m in run_memory_session(config).messages_in_phase("randomness")
        ]
        endpoints = spawn_endpoints(config)
        try:
            run_networked_session(config, endpoints=endpoints)
            # The runner returns once every share is sent, and a share
            # connection is done only when its receiver has read it all.
            sent = []
            received = []
            for ep in endpoints:
                sent += [
                    (m.type, m.origin, m.dest, m.target, m.values)
                    for m in ep.sent_log
                    if m.phase == "randomness"
                ]
                received += [
                    (m.type, m.origin, m.dest, m.target, m.values)
                    for m in ep.received_log
                    if m.phase == "randomness"
                ]
            assert sorted(sent) == sorted(expected)
            assert sorted(received) == sorted(expected)
        finally:
            for ep in endpoints:
                ep.stop()

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
            installed = {(ep.party_id, ep.database): ep.state.bundle for ep in endpoints}
            assert installed == expected
        finally:
            for ep in endpoints:
                ep.stop()

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
                phase="query",
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
                phase="query",
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
            run_networked_session(config, endpoints=endpoints)
            assert started == [endpoints[0]._loop.thread]
            assert all(ep._loop is endpoints[0]._loop for ep in endpoints)
        finally:
            for ep in endpoints:
                ep.stop()
        for ep in endpoints:
            asked = [m for m in ep.received_log if m.type == "query"]
            answered = [m for m in ep.sent_log if m.type == "answer"]
            assert len(asked) == len(answered)
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
                    phase="query",
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

    def test_query_value_past_one_byte_closes_only_its_connection(self):
        config = DEMOS["sec4"].config
        endpoints = spawn_endpoints(config)
        try:
            # No randomness arrives yet, so a valid query waits on its connection.
            target = next(ep for ep in endpoints if not ep.state.ready)
            query = Message(
                type="query",
                session_id=make_session_id(config),
                phase="query",
                origin=(3, 0),
                dest=(target.party_id, target.database),
                partition=1,
                target=None,
                values=bytes(config.universe_size),
            )
            # The same query with its first value 256, which no message can hold.
            zeros = ",".join("0" * config.universe_size)
            body = render_body(query).replace(f"[{zeros}]", f"[256{zeros[1:]}]").encode("ascii")
            assert b"[256,0," in body
            with socket.create_connection(target.address, timeout=5) as waiting:
                waiting.sendall(encode_msg(query))
                with socket.create_connection(target.address, timeout=5) as bad:
                    bad.settimeout(5)
                    bad.sendall(HEADER.pack(len(body)) + body)
                    assert bad.recv(1) == b""
                waiting.settimeout(0.3)
                with pytest.raises(socket.timeout):
                    waiting.recv(1)
            assert target.received_log == [query]
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
                if any(m.type == "c_share" for m in ep.received_log)
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
            assert [m.type for m in late.received_log] == ["c_share"]
        finally:
            for endpoint in [sender, late] + others:
                endpoint.stop()

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
    @pytest.mark.parametrize("name", ["sec4", "sec7_2"])
    def test_session_with_endpoints_known_only_by_address(self, name):
        # As serve-db runs them: one endpoint per client database, each on a
        # loop of its own, sharing at start-up with the full address map.
        # The runner is given only the addresses.
        demo = DEMOS[name]
        config = demo.config
        setup = prepare_session(config.parties, config.universe, config.leader_override)
        endpoints = [
            DatabaseEndpoint(config, client.party_id, db)
            for client in setup.clients
            for db in range(1, client.num_databases + 1)
        ]
        try:
            for ep in endpoints:
                ep.start()
            addresses = {(ep.party_id, ep.database): ep.address for ep in endpoints}
            for ep in endpoints:
                ep.begin_sharing(addresses)
            addressed = replace(config, transport="net", addresses=addresses)
            transcript = run_networked_session(addressed)
        finally:
            for ep in endpoints:
                ep.stop()
        assert transcript.result.decoded == demo.expected_decoded
        assert transcript.serialize() == run_memory_session(config).serialize()


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
        phase="randomness",
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
            before = (victim.state.bundle.c, dict(victim.state.bundle.individual))
            send_and_expect_close(victim, share(config, kind, origin, dest, target, values))
            assert (victim.state.bundle.c, victim.state.bundle.individual) == before
            assert victim.received_log == []
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
                phase="query",
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

    def test_query_not_from_the_leader_closes_only_its_connection(self):
        config = DEMOS["sec4"].config
        endpoints = spawn_endpoints(config)
        try:
            # (1, 1) needs no share, so a leader's query would be answered at once.
            target = next(ep for ep in endpoints if (ep.party_id, ep.database) == (1, 1))
            query = Message(
                type="query",
                session_id=make_session_id(config),
                phase="query",
                origin=(2, 1),
                dest=(1, 1),
                partition=1,
                target=None,
                values=bytes(config.universe_size),
            )
            send_and_expect_close(target, query)
            assert target.sent_log == [] and target.received_log == []
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
            assert victim.state.bundle.c == real_c[0]
            other = 3 - real_c[0]  # the other nonzero residue mod 3
            second = share(config, "c_share", (1, 1), (1, 2), None, bytes((other,)))
            send_and_expect_close(victim, second)
            assert victim.state.bundle.c == real_c[0]
            assert victim.received_log == [first]
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
            phase="answer",
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
        exchange = net_mod._Exchange((2, 1), memoryview(b""), 1)
        with pytest.raises(TransportError) as raised:
            net_mod._query_round({}, {(2, 1): exchange}, (3, 0), [endpoint])
        message = str(raised.value)
        assert "no address for database endpoint (2, 1)" in message
        assert "shares from (1, 1) to (2, 3) not sent: refused" in message
