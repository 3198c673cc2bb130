"""Golden transcript digests: refactors must leave transcript bytes unchanged."""

import hashlib
import random
from pathlib import Path

import pytest

from mppsi.config import SessionConfig, load_config
from mppsi.demo import DEMOS
from mppsi.model import PartyProfile
from mppsi.session import run_memory_session

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    "sec4": "162712321ae84a2ba13f93dc9989e746ac34cfb4350b786bda8fcef62e7d8cbf",
    "sec7_1": "29a5ca9f2ccda9c4a1c909b0d4f658d6116b3e262fb2146176700f965caa3dcd",
    "sec7_2": "3f4ff84d1b6429f9f4aa46d8406c258a649e74597a9b65166e1a1490e35c1b7e",
}
AUDIT_SMALL = "7047ac7fb628c2c121a24d4d28c1a917f6fca5946a8b97a9dae4f92b157ad39d"
WIDE = "27343008bb205470866889c49a4af92ff33aba26e868bd2165bc774445ed3a81"


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
