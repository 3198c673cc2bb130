"""Networked transport: loopback endpoints, equivalence with the simulator."""

import random
import time
import socket
from dataclasses import replace

import pytest

from mppsi.config import SessionConfig
from mppsi.demo import DEMOS
from mppsi.errors import TransportError
from mppsi.model import PartyProfile
from mppsi.net import DatabaseEndpoint, run_networked_session, spawn_endpoints
from mppsi.session import run_memory_session, session_id_for
from mppsi.wire import Message, encode_msg


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


class TestEndpointBehaviour:
    def test_endpoint_logs_match_reconstructed_randomness_traffic(self):
        config = DEMOS["sec7_2"].config
        endpoints = spawn_endpoints(config)
        try:
            transcript = run_networked_session(config, endpoints=endpoints)
            expected = {
                (m.type, m.origin, m.dest, m.target, m.values)
                for m in transcript.messages_in_phase("randomness")
            }
            # Shares to idle databases are fire-and-forget; give their logs
            # a moment to settle before comparing.
            deadline = time.monotonic() + 5.0
            while True:
                sent = set()
                received = set()
                for ep in endpoints:
                    for m in ep.sent_log:
                        if m.phase == "randomness":
                            sent.add((m.type, m.origin, m.dest, m.target, m.values))
                    for m in ep.received_log:
                        if m.phase == "randomness":
                            received.add((m.type, m.origin, m.dest, m.target, m.values))
                if (sent == expected and received == expected) or time.monotonic() > deadline:
                    break
                time.sleep(0.02)
            assert sent == expected
            assert received == expected
        finally:
            for ep in endpoints:
                ep.stop()

    def test_cross_session_frames_are_rejected(self):
        config = DEMOS["sec4"].config
        endpoints = spawn_endpoints(config)
        try:
            target = endpoints[0]
            alien = replace(config, seed=config.seed + 1)
            msg_session = session_id_for(alien)
            rogue = Message(
                type="query",
                session_id=msg_session,
                phase="query",
                origin=(3, 0),
                dest=(target.party_id, target.database),
                partition=1,
                target=None,
                values=(0, 0, 0, 0),
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
        endpoints = spawn_endpoints(DEMOS["sec4"].config)
        assert len(endpoints) == 6
        start = time.perf_counter()
        for endpoint in endpoints:
            endpoint.stop()
        assert time.perf_counter() - start < 0.1
        assert not any(t.is_alive() for ep in endpoints for t in ep._threads)

    def test_query_without_randomness_is_dropped_in_bounded_time(self, monkeypatch):
        import mppsi.net as net_mod

        monkeypatch.setattr(net_mod, "READY_TIMEOUT_SECONDS", 0.2)
        config = DEMOS["sec4"].config
        # No begin_sharing: the endpoints never receive their randomness.
        endpoints = spawn_endpoints(config)
        try:
            target = next(ep for ep in endpoints if ep.database >= 2 and ep._c is None)
            query = Message(
                type="query",
                session_id=session_id_for(config),
                phase="query",
                origin=(3, 0),
                dest=(target.party_id, target.database),
                partition=1,
                target=None,
                values=(0,) * config.universe_size,
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

    def test_spawned_endpoints_share_one_serve_thread(self):
        config = DEMOS["sec7_2"].config
        endpoints = spawn_endpoints(config)
        try:
            run_networked_session(config, endpoints=endpoints)
        finally:
            for ep in endpoints:
                ep.stop()
        loops = {ep._threads[0] for ep in endpoints}
        assert len(loops) == 1
        for ep in endpoints:
            asked = [m for m in ep.received_log if m.type == "query"]
            answered = [m for m in ep.sent_log if m.type == "answer"]
            assert len(asked) == len(answered)
            # The shared loop, plus at most one sender for randomness shares.
            assert len(ep._threads) <= 2
        assert not any(t.is_alive() for ep in endpoints for t in ep._threads)

    def test_leader_party_cannot_serve_endpoints(self):
        from mppsi.errors import ConfigError

        config = DEMOS["sec4"].config
        with pytest.raises(ConfigError):
            DatabaseEndpoint(config, 3, 1)
