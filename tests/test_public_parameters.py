"""A session's public parameters: K, each party's database count and set
size, the leader and the addresses. Everything the election, the plan
shape and the dealing compute is a function of them and the seed alone."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from mppsi.leader import make_plan_shape
from mppsi.protocol import prepare_session
from mppsi.randomness import build_bundle
from test_golden import GOLDEN_CONFIGS


def public_outcomes(config):
    """The config's public parameters, its election, plan shape and dealt
    records, each record without its session id."""
    public, costs = prepare_session(config.public)
    records = build_bundle(public, config.seed, config.prepared[2])
    return (
        config.public, public.leader, costs, make_plan_shape(public),
        {address: record._replace(session_id=None) for address, record in records.items()},
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
@settings(derandomize=True, deadline=None, max_examples=10)
@given(data=st.data())
def test_another_set_of_the_same_size_changes_nothing_public(name, data):
    config = GOLDEN_CONFIGS[name]()
    index = data.draw(st.integers(0, len(config.parties) - 1))
    party = config.parties[index]
    size, universe = len(party.data_set), config.universe_size
    other = data.draw(st.sets(st.integers(1, universe), min_size=size, max_size=size))
    parties = list(config.parties)
    parties[index] = replace(party, data_set=frozenset(other))
    changed = replace(config, parties=tuple(parties))
    assert public_outcomes(changed) == public_outcomes(config)
    # Until the session id is drawn apart from the sets, it digests them.
    assert (changed.prepared[2] == config.prepared[2]) == (other == party.data_set)
