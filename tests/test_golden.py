"""Golden transcript digests: refactors must leave transcript bytes unchanged."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from mppsi.config import SessionConfig, load_config
from mppsi.demo import DEMOS
from mppsi.model import PartyProfile
from mppsi.net import run_networked_session
from mppsi.session import load_transcript, run_memory_session
from mppsi.wire import decode_msg, encode_msg

pytestmark = pytest.mark.pins

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    "sec4": "b4630e830a014a8b4094aef608f88e837347ea779e90f372501de5a1b36ee5e2",
    "sec7_1": "9a222352abac74c6e579d2f0ede0cce93b342c403fe5fa170eb6f3f8fd3f09a9",
    "sec7_2": "ce7bcb9b6a744ca074da34fe789b660a658b65e1a9c6999c793a68a20439c65d",
}
AUDIT_SMALL = "24e254eda57497ec318479a79b1ec5a3244488a385830149387df1af4244de54"
WIDE = "046cbe6166c4169805fdbc379bd6d86ac282111cced683ef4d2f2983489fbf0d"
ELEVEN = "3bb722acea72686f02c83b20a38bd767f5b022b0f7b6c324e5319f96e40e1a9b"
# sha256 of each golden session's messages as binary frames, joined.
FRAMES = {
    "audit-small": "0ece57798b0c00448df2ea027804032103b0e553cfe99e3eef93eb085710466d",
    "eleven": "8d470224f971c61cf70eec716932ef3039c16e605049a758b4c75770780d8e1e",
    "sec4": "aba1c9aa21988d86cca1da6c9113dac4e36d8cd238a0dfb92748db77c4ba5f1d",
    "sec7_1": "72fbb067cac7f29cee184efb5e36b7fe269879eb4cf151f9c254fcfdabb18646",
    "sec7_2": "60bfdca66aa5ce69675c65a29177739bb3a63413db1c694d4bd59791eacb2dcc",
    "wide": "161c0a3e45d4355c8f8969a77395b6e59864fcb51ebe744a99d6e2dc512cf996",
}
# sha256 of each golden session's frames of one message type, joined, and of
# its result as the transcript's compact JSON writes it. The query and answer
# entries have held since the share types left the wire.
BY_TYPE = {
    "audit-small": {
        "query": "c8414ca1e2fc7ce966d1cc7380a3648fadb399eb691c3da17062eb2e96917a50",
        "answer": "a9f527274261b92de7f93b2d6e6dff79b021587c077c54d81a0bfe4bdde58d27",
        "result": "426586d7e597176f2229e982fdb997e0acb99e1a69e388bb1e93ffb1a48f0725",
    },
    "eleven": {
        "query": "78296a174fdce0710dc54dea5daa5cedee7e0884d75e8532ed3d4b5555017460",
        "answer": "0d820fdf506f61599f99ae325a568f36391175722ac6d37958f163190806f82d",
        "result": "caebbd40e7c56bdce6d292d9d516a847b370537e1a9c81a52b7fdbb41c9499e1",
    },
    "sec4": {
        "query": "59bf56998e296a9b7619071bdd6e9c7b9fcccc62faa57ef9fa513627dd78dca7",
        "answer": "74a8339b7a30373609e9cbb792b65c3e10cbda7f1a9c12841f2f693aad90a509",
        "result": "e7df01d2a6867c05f609360570c51c3c169ee2e3bc1c772e941f0eacca1d910f",
    },
    "sec7_1": {
        "query": "259079c23b26f544074f3c0b853181972f935758e6cbc40884edd5738d5998b4",
        "answer": "aa5ed15abcfc9225ee6fbed9ff40b630414691a2765ff8d84572039112c9e567",
        "result": "2cb4f3e3810121edd7e78c8af514042e63947f254167343343df15f5995741a7",
    },
    "sec7_2": {
        "query": "17948cb6a7fc2e7a3eef111a144ed0c3e0f51bd0b92e9fe046f642f368322d08",
        "answer": "76a80e6bb8f8a4b162e680e4af1884317dc3dc362eb1d6ab2736d515a11f3431",
        "result": "e87a8981f9bca87fde72ea997710585a7f6e33e03a6b4ee882c3ee065e641459",
    },
    "wide": {
        "query": "4c6565b96ef9ef972c7fd5b86b860138ded96ff75cd3395c946ffb8d249cfb57",
        "answer": "38b3c9fcf1a5f56c82102649484407b99ca11d92829109b98e5b23a00e327015",
        "result": "e14db85bf60ca7da7159d6921e7e516e42ecbd621e462e1d74abdd26e83774ec",
    },
}


def digest(transcript) -> str:
    return hashlib.sha256(transcript.serialize()).hexdigest()


def wide_config() -> SessionConfig:
    """M=4, N=4, K=1000, R=100, with every set drawn from a fixed stream."""
    rng = random.Random("golden/wide")
    universe = 1000
    leader_set = rng.sample(range(1, universe + 1), 100)
    parties = [PartyProfile(1, 4, frozenset(leader_set))]
    for pid in (2, 3, 4):
        own = set(rng.sample(leader_set, 60))
        own.update(rng.sample(range(1, universe + 1), 190))
        parties.append(PartyProfile(pid, 4, frozenset(own)))
    return SessionConfig(
        universe_size=universe, parties=tuple(parties), seed=rng.getrandbits(64)
    )


def eleven_config() -> SessionConfig:
    """M=8 parties, so the field is F_11 and values take two digits."""
    rng = random.Random("golden/eleven")
    universe = 60
    leader_set = rng.sample(range(1, universe + 1), 12)
    parties = [PartyProfile(1, 2, frozenset(leader_set))]
    for pid in range(2, 9):
        own = set(rng.sample(leader_set, 8))
        own.update(rng.sample(range(1, universe + 1), 20))
        parties.append(PartyProfile(pid, 2 + pid % 2, frozenset(own)))
    return SessionConfig(
        universe_size=universe, parties=tuple(parties), seed=rng.getrandbits(64)
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_digest(name):
    assert digest(run_memory_session(DEMOS[name].config)) == GOLDEN[name]


def test_audit_small_config_digest():
    config = load_config(str(CONFIGS / "audit-small.json"))
    assert digest(run_memory_session(config)) == AUDIT_SMALL


def test_wide_session_digest_covers_bump_wrap():
    transcript = run_memory_session(wide_config())
    modulus = 5
    base = {
        (m.dest, m.partition): m.values
        for m in transcript.messages_in_phase("query")
        if m.target is None
    }
    wrapped = 0
    for msg in transcript.messages_in_phase("query"):
        if msg.target is None:
            continue
        h = base[((msg.dest[0], 1), msg.partition)]
        diff = [j for j, (a, b) in enumerate(zip(h, msg.values)) if a != b]
        assert len(diff) == 1
        (j,) = diff
        assert msg.values[j] == (h[j] + 1) % modulus
        wrapped += h[j] == modulus - 1
    assert wrapped > 0
    assert digest(transcript) == WIDE


def test_eleven_field_session_digest_covers_two_digit_values():
    transcript = run_memory_session(eleven_config())
    values = [v for m in transcript.messages for v in m.values]
    assert max(values) == 10
    assert any(v == 10 for m in transcript.messages_in_phase("query") for v in m.values)
    assert digest(transcript) == ELEVEN


GOLDEN_CONFIGS = {
    **{name: lambda name=name: DEMOS[name].config for name in GOLDEN},
    "audit-small": lambda: load_config(str(CONFIGS / "audit-small.json")),
    "wide": wide_config,
    "eleven": eleven_config,
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_every_message_carries_bytes(name):
    config = GOLDEN_CONFIGS[name]()
    memory = run_memory_session(config)
    over_tcp = run_networked_session(config)
    assert over_tcp.serialize() == memory.serialize()
    assert load_transcript(memory.serialize()) == memory
    for transcript in (memory, over_tcp, load_transcript(memory.serialize())):
        assert transcript.messages
        assert {type(m.values) for m in transcript.messages} == {bytes}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_frames_never_reach_json(name, monkeypatch):
    # Binary frames never reach json.loads, on either transport, at any value
    # width: "eleven"'s two-digit values (L = 11) as well as every other
    # session's one-digit ones.
    config = GOLDEN_CONFIGS[name]()
    memory = run_memory_session(config)
    two_digit = sum(max(m.values, default=0) > 9 for m in memory.messages)
    assert (two_digit > 0) == (name == "eleven")
    loads = json.loads
    calls = []

    def recording_loads(text, *args, **kwargs):
        calls.append(len(text))
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", recording_loads)
    assert [decode_msg(encode_msg(m)) for m in memory.messages] == list(memory.messages)
    over_tcp = run_networked_session(config)
    assert calls == []
    assert over_tcp.serialize() == memory.serialize()


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_frames_are_pinned_and_sized_by_the_formula(name):
    config = GOLDEN_CONFIGS[name]()
    memory = run_memory_session(config)
    frames = b"".join(map(encode_msg, memory.messages))
    assert hashlib.sha256(frames).hexdigest() == FRAMES[name]
    over_tcp = run_networked_session(config)
    for transcript in (memory, over_tcp):
        for m in transcript.messages:
            # length, type code and id length, id, six tags, residue bytes
            assert len(encode_msg(m)) == 4 + 2 + len(m.session_id) + 24 + len(m.values)


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_each_message_type_and_the_result_are_pinned(name):
    transcript = run_memory_session(GOLDEN_CONFIGS[name]())
    got = {
        kind: hashlib.sha256(
            b"".join(encode_msg(m) for m in transcript.messages if m.type == kind)
        ).hexdigest()
        for kind in ("query", "answer")
    }
    result = transcript.result
    result_json = json.dumps(
        {
            "decoded": sorted(result.decoded),
            "indicators": {str(elem): value for elem, value in result.indicators.items()},
            "download_cost_actual": result.download_cost_actual,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    got["result"] = hashlib.sha256(result_json.encode("ascii")).hexdigest()
    assert got == BY_TYPE[name]
