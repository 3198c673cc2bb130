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

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    "sec4": "162712321ae84a2ba13f93dc9989e746ac34cfb4350b786bda8fcef62e7d8cbf",
    "sec7_1": "29a5ca9f2ccda9c4a1c909b0d4f658d6116b3e262fb2146176700f965caa3dcd",
    "sec7_2": "3f4ff84d1b6429f9f4aa46d8406c258a649e74597a9b65166e1a1490e35c1b7e",
}
AUDIT_SMALL = "7047ac7fb628c2c121a24d4d28c1a917f6fca5946a8b97a9dae4f92b157ad39d"
WIDE = "27343008bb205470866889c49a4af92ff33aba26e868bd2165bc774445ed3a81"
ELEVEN = "b80c977668ba8e45848d5c9e1de371dfcd0ab3dee94ea6c5d8ce417e280595c6"
# sha256 of each golden session's messages as binary frames, joined.
FRAMES = {
    "audit-small": "1e24afa8bf8de89e1ea08f7e048d0c5c456c3d50f683da623b84260e67ead946",
    "eleven": "0d5115ba0666a2a1c414605f05b1bdd039febce2b2c06c52c14a55f19a442fdc",
    "sec4": "655a8e29d079088125e8751af3e5d2b08af2e290a845f9a091959562764ac93c",
    "sec7_1": "3c33953269c11c03e0cf30760030ff0eb15c838db8addd8d7754ecfd039facc3",
    "sec7_2": "ec0aedc4c2a9aa5971b2d5aa9b7030b2dcf5cc323abd9303733de33c15757604",
    "wide": "84be71c3c7088810433c6df581998eb1a2cac6bce7d98f7db595e1d8197a8171",
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
