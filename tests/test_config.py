"""Config schema parsing and validation diagnostics."""

import json
from dataclasses import replace

import pytest

from mppsi.config import parse_config
from mppsi.demo import DEMOS
from mppsi.errors import ConfigError, InfeasibleError
from mppsi.protocol import make_session_id, prepare_session

FIXTURE = {
    "universe_size": 4,
    "parties": [
        {"id": 1, "databases": 3, "set": [1, 2]},
        {"id": 2, "databases": 3, "set": [1, 3]},
        {"id": 3, "databases": 3, "set": [1, 4]},
    ],
    "leader": 3,
    "seed": 7,
}


def as_json(data) -> bytes:
    return json.dumps(data).encode("utf-8")


def variant(**overrides):
    data = json.loads(json.dumps(FIXTURE))
    data.update(overrides)
    return data


class TestParse:
    def test_fixture_round_trip(self):
        config = parse_config(as_json(FIXTURE))
        assert config.universe_size == 4
        assert len(config.parties) == 3
        assert config.leader_override == 3
        assert config.seed == 7
        assert config.transport == "memory"

    def test_accepts_str_input(self):
        assert parse_config(json.dumps(FIXTURE)).seed == 7

    def test_zero_databases(self):
        data = variant()
        data["parties"][0]["databases"] = 0
        with pytest.raises(ConfigError, match="databases"):
            parse_config(as_json(data))

    def test_element_outside_universe(self):
        data = variant()
        data["parties"][0]["set"] = [7]
        with pytest.raises(ConfigError, match=r"parties\[0\]\.set"):
            parse_config(as_json(data))

    def test_duplicate_elements(self):
        data = variant()
        data["parties"][1]["set"] = [1, 1, 3]
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(as_json(data))

    def test_duplicate_party_ids(self):
        data = variant()
        data["parties"][1]["id"] = 1
        with pytest.raises(ConfigError):
            parse_config(as_json(data))

    def test_gap_in_party_ids(self):
        data = variant()
        data["parties"][2]["id"] = 5
        with pytest.raises(ConfigError, match="contiguous"):
            parse_config(as_json(data))

    def test_unknown_leader(self):
        with pytest.raises(ConfigError, match="leader"):
            parse_config(as_json(variant(leader=9)))

    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(as_json(variant(color="blue")))

    def test_unknown_party_field(self):
        data = variant()
        data["parties"][0]["alias"] = "x"
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(as_json(data))

    def test_seed_range(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(as_json(variant(seed=2**64)))
        with pytest.raises(ConfigError, match="seed"):
            parse_config(as_json(variant(seed=-1)))

    def test_bad_transport(self):
        with pytest.raises(ConfigError, match="transport"):
            parse_config(as_json(variant(transport="carrier-pigeon")))

    def test_json_error_carries_position(self):
        with pytest.raises(ConfigError, match=r"line 2"):
            parse_config(b'{\n  "universe_size": ,\n}')

    def test_non_utf8_rejected(self):
        with pytest.raises(ConfigError, match="UTF-8"):
            parse_config(b"\xff\xfe{}")

    def test_addresses_parse(self):
        data = variant(addresses={"1:1": "127.0.0.1:9000"})
        config = parse_config(as_json(data))
        assert config.addresses == {(1, 1): ("127.0.0.1", 9000)}

    def test_bad_address_key(self):
        with pytest.raises(ConfigError, match="party:db"):
            parse_config(as_json(variant(addresses={"one": "127.0.0.1:9000"})))

    def test_empty_address_host(self):
        # An empty host would have an endpoint bind every interface.
        with pytest.raises(ConfigError, match="empty host"):
            parse_config(as_json(variant(addresses={"1:1": ":9101"})))

    def test_bad_address_port(self):
        with pytest.raises(ConfigError, match="port"):
            parse_config(as_json(variant(addresses={"1:1": "127.0.0.1:notaport"})))

    def test_two_keys_for_one_database(self):
        # Both read as (1, 1); neither entry may silently replace the other.
        addresses = {"1:1": "127.0.0.1:9101", "01:1": "127.0.0.1:9102"}
        with pytest.raises(ConfigError, match=r"names database \(1, 1\) again"):
            parse_config(as_json(variant(addresses=addresses)))

    def test_seed_written_twice(self):
        text = as_json(FIXTURE).replace(b'"seed": 7', b'"seed": 1, "seed": 7')
        assert text.count(b'"seed"') == 2
        with pytest.raises(ConfigError, match="'seed' is written twice"):
            parse_config(text)

    def test_address_key_written_twice(self):
        # json.loads alone would keep the second address and drop the first.
        text = as_json(variant(addresses={"1:1": "127.0.0.1:9101"})).replace(
            b'"1:1": "127.0.0.1:9101"', b'"1:1": "127.0.0.1:9101", "1:1": "127.0.0.1:9102"'
        )
        with pytest.raises(ConfigError, match="'1:1' is written twice"):
            parse_config(text)

    @pytest.mark.parametrize("key", ["-1:1", " 1:1", "1:+1", "1_0:1", "\u0661:1", "1:1:1", "1"])
    def test_address_key_not_plain_decimal(self, key):
        with pytest.raises(ConfigError, match="party:db"):
            parse_config(as_json(variant(addresses={key: "127.0.0.1:9101"})))

    @pytest.mark.parametrize("key", ["9:9", "4:1", "1:0", "1:4"])
    def test_address_key_naming_no_configured_database(self, key):
        with pytest.raises(ConfigError, match="names no configured database"):
            parse_config(as_json(variant(addresses={key: "127.0.0.1:9101"})))

    @pytest.mark.parametrize("port", ["1_0", " 10", "+10", "\u0661\u0660", ""])
    def test_address_port_not_plain_decimal(self, port):
        with pytest.raises(ConfigError, match="bad port"):
            parse_config(as_json(variant(addresses={"1:1": f"127.0.0.1:{port}"})))

    def test_hosts_and_ports_may_be_shared(self):
        # One address for every database parses: the runner finds no one there.
        addresses = {f"{p}:{d}": "127.0.0.1:9101" for p in (1, 2) for d in (1, 2, 3)}
        config = parse_config(as_json(variant(addresses=addresses)))
        assert set(config.addresses.values()) == {("127.0.0.1", 9101)}


class TestFrameLimit:
    """Configs whose widest query frame exceeds the 1 MiB frame limit fail at load.

    Every message is a frame, in a transcript file as on the wire, so the
    bound holds on both transports.
    """

    def config(self, universe_size, num_parties=3, transport="net"):
        return variant(
            universe_size=universe_size,
            transport=transport,
            leader=None,
            parties=[
                {"id": pid, "databases": 3, "set": [1, 2]}
                for pid in range(1, num_parties + 1)
            ],
        )

    # A query frame is 2 + 16 + 24 + K bytes after its length, whatever the
    # field and the party and database ids.
    @pytest.mark.parametrize("num_parties,limit", [(3, 1_048_534), (11, 1_048_534)])
    def test_boundary(self, num_parties, limit):
        assert parse_config(as_json(self.config(limit, num_parties))).universe_size == limit
        with pytest.raises(ConfigError, match="frame limit"):
            parse_config(as_json(self.config(limit + 1, num_parties)))

    def test_memory_configs_share_the_bound(self):
        limit = 1_048_534
        config = parse_config(as_json(self.config(limit, transport="memory")))
        assert config.universe_size == limit
        with pytest.raises(ConfigError, match="frame limit"):
            parse_config(as_json(self.config(limit + 1, transport="memory")))


class TestPrepared:
    """SessionConfig.prepared: protocol.prepare_session of the config's public
    parameters and protocol.make_session_id of the config, cached on the
    config object."""

    def test_cached_on_the_object(self):
        config = parse_config(as_json(FIXTURE))
        assert config.prepared is config.prepared
        assert config.prepared == (*prepare_session(config.public), make_session_id(config))

    def test_cache_is_not_part_of_the_value(self):
        config = parse_config(as_json(FIXTURE))
        config.prepared
        copy = replace(config)
        assert "prepared" not in vars(copy)
        assert config == copy
        assert repr(config) == repr(copy)

    def test_each_config_gets_its_own_session_id(self):
        config = parse_config(as_json(FIXTURE))
        other = replace(config, seed=8)
        assert other.prepared[2] == make_session_id(other) != config.prepared[2]

    def test_infeasible_config_raises_on_every_access(self):
        parties = json.loads(json.dumps(FIXTURE["parties"]))
        parties[0]["databases"] = 1
        config = parse_config(as_json(variant(parties=parties)))
        for _ in range(2):
            with pytest.raises(InfeasibleError, match="party 3 cannot lead"):
                config.prepared


class TestHash:
    """A config hashes by every field but its addresses, which equality still compares."""

    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_every_demo_config_hashes(self, name):
        config = DEMOS[name].config
        assert hash(config) == hash(replace(config))

    def test_a_config_with_addresses_hashes(self):
        config = parse_config(as_json(variant(addresses={"1:1": "127.0.0.1:9000"})))
        unaddressed = replace(config, addresses={})
        assert hash(config) == hash(unaddressed)
        assert config != unaddressed

    def test_equal_configs_are_one_set_member(self):
        config = DEMOS["sec4"].config
        assert len({config, replace(config)}) == 1
        assert len({config, replace(config), replace(config, seed=8)}) == 2
