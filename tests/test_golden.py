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
    "sec4": "a875f732319547acc3f64cd3548a1a522139f3946733360421120481976fa0a5",
    "sec7_1": "dd67809da3df54a8915b10076b892c1f3101fc8225574d1adedc33ef897d3bf5",
    "sec7_2": "523936eec8eb8cb88f583354cb240e621beed803d22d149726d400b50d456f27",
}
AUDIT_SMALL = "0e6869f1e79e8ef200f98592705d77cbbe529d7a611afe5b27eda57922b3d1b8"
WIDE = "7704bbdcd05037a1f7976ecef0c6473f9ce4339f8c1de0d38ed0ae0058f27fbf"
ELEVEN = "8c22e4fc8f9aa5ce948ca8dc8d53a477e4263728b35339ebfd57156096da6d30"
# sha256 of each golden session's messages as binary frames, joined.
FRAMES = {
    "audit-small": "8b98079fbee39c822a793db622d808332315254c07f4f111b39a34cfd41b882a",
    "eleven": "7c0c7efa98c711295fe957a60a1ba8b23604d95d8883ae52f3a26b77d1c53e7c",
    "sec4": "12f7a20e0cc9915db20d6fe191206f52861e7b323708f881aa9c370fee217a9c",
    "sec7_1": "123d18ba2e20f50b85fe8d8362248631637b06f6f38598e490844442f27478ae",
    "sec7_2": "f518575c3f59696eedd80e9e5e1aebf5bbc19295a1f7657dd4d2fe96c7627e58",
    "wide": "b80531f0fedc7d9384d939ba881a08bafe7896526e0d5c05feff07368df77b8c",
}
# sha256 of each golden session's frames of one message type, joined, and of
# its result as the transcript's compact JSON writes it. A change to one
# randomness tier moves only the types that carry it.
BY_TYPE = {
    "audit-small": {
        "t_share": "8e6263dce2890ce861b432218586319f48f519d622593158e04edb514a1044ff",
        "c_share": "273b7ff5e8c00109fc1675d0bc7230e002105f15b3b048d594500912208151fd",
        "query": "c8414ca1e2fc7ce966d1cc7380a3648fadb399eb691c3da17062eb2e96917a50",
        "answer": "a9f527274261b92de7f93b2d6e6dff79b021587c077c54d81a0bfe4bdde58d27",
        "result": "426586d7e597176f2229e982fdb997e0acb99e1a69e388bb1e93ffb1a48f0725",
    },
    "eleven": {
        "t_share": "a88315782274edb34d636274cfa4bb9516ce33006804524a7fa88d12c8ed389f",
        "c_share": "68b4fafcf8abfede8b75b84370d1fb8f33da07df1b4db35019ef63ad4f231fc8",
        "query": "78296a174fdce0710dc54dea5daa5cedee7e0884d75e8532ed3d4b5555017460",
        "answer": "0d820fdf506f61599f99ae325a568f36391175722ac6d37958f163190806f82d",
        "result": "caebbd40e7c56bdce6d292d9d516a847b370537e1a9c81a52b7fdbb41c9499e1",
    },
    "sec4": {
        "t_share": "1dd91fc1414663b21c1de54200971467d63097b42e5476434f583393ce979e0d",
        "c_share": "ef9ccd74f024b5b35bc1877a151efe2ca8c7d6e30cc422086fbdb887f3cb34cc",
        "query": "59bf56998e296a9b7619071bdd6e9c7b9fcccc62faa57ef9fa513627dd78dca7",
        "answer": "74a8339b7a30373609e9cbb792b65c3e10cbda7f1a9c12841f2f693aad90a509",
        "result": "e7df01d2a6867c05f609360570c51c3c169ee2e3bc1c772e941f0eacca1d910f",
    },
    "sec7_1": {
        "t_share": "1f044fd0a9f96e103d65640bfc5ed9201518cba1d16f0d5a6f7f23b05bd51435",
        "c_share": "082d71a51add0694bd31002ba34efc2dd4e5a7867b871ce1eedaa518182464ea",
        "query": "259079c23b26f544074f3c0b853181972f935758e6cbc40884edd5738d5998b4",
        "answer": "aa5ed15abcfc9225ee6fbed9ff40b630414691a2765ff8d84572039112c9e567",
        "result": "2cb4f3e3810121edd7e78c8af514042e63947f254167343343df15f5995741a7",
    },
    "sec7_2": {
        "t_share": "f883241029716d397b2c14657d76b3c8c3d5071f2e6537860c0618b33f2425fd",
        "c_share": "c1557276912a43c768468ec8b059a3061db2dfbd732466b9f5c7fd29bf3e1334",
        "query": "17948cb6a7fc2e7a3eef111a144ed0c3e0f51bd0b92e9fe046f642f368322d08",
        "answer": "76a80e6bb8f8a4b162e680e4af1884317dc3dc362eb1d6ab2736d515a11f3431",
        "result": "e87a8981f9bca87fde72ea997710585a7f6e33e03a6b4ee882c3ee065e641459",
    },
    "wide": {
        "t_share": "7ce1d94b7bde9d20a27599d0b22ac104b0c777a733e247a6e852d16630e4cf64",
        "c_share": "ac3dee8946570c5bcbd4ed15b9e00d5801f9f33770f2342fa534e31b72c11ff7",
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
        for kind in ("t_share", "c_share", "query", "answer")
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
