"""Universe, party profiles, brute-force intersection."""

import pytest
from hypothesis import given, strategies as st

from mppsi.errors import ConfigError
from mppsi.model import PartyProfile, Universe, brute_force_intersection, validate_profiles


def profile(pid, elems, dbs=2):
    return PartyProfile(pid, dbs, frozenset(elems))


class TestBruteForce:
    def test_three_parties_single_common(self):
        profiles = [profile(1, {1, 2}), profile(2, {1, 3}), profile(3, {1, 4})]
        assert brute_force_intersection(profiles) == {1}

    def test_identical_sets(self):
        profiles = [profile(1, {2, 3}), profile(2, {2, 3})]
        assert brute_force_intersection(profiles) == {2, 3}

    def test_four_parties(self):
        profiles = [
            profile(1, {1, 2, 3, 4}),
            profile(2, {1, 2, 4}),
            profile(3, {1, 3, 4}),
            profile(4, {1, 4, 5}),
        ]
        assert brute_force_intersection(profiles) == {1, 4}

    def test_needs_a_profile(self):
        with pytest.raises(ValueError):
            brute_force_intersection([])

    @given(
        st.lists(
            st.sets(st.integers(min_value=1, max_value=6)),
            min_size=1,
            max_size=4,
        ),
        st.randoms(use_true_random=False),
    )
    def test_order_invariant_and_idempotent(self, sets, rng):
        profiles = [profile(i + 1, s) for i, s in enumerate(sets)]
        expected = brute_force_intersection(profiles)
        shuffled = list(profiles)
        rng.shuffle(shuffled)
        assert brute_force_intersection(shuffled) == expected
        assert brute_force_intersection(profiles + profiles) == expected


class TestProfiles:
    def test_database_count_validated(self):
        with pytest.raises(ConfigError):
            PartyProfile(1, 0, frozenset())

    def test_ids_must_be_contiguous(self):
        with pytest.raises(ConfigError):
            validate_profiles([profile(1, set()), profile(3, set())], Universe(4))

    def test_element_past_the_universe(self):
        with pytest.raises(ConfigError, match=r"^party 2: element 5 outside universe of size 4$"):
            validate_profiles([profile(1, {1}), profile(2, {2, 5})], Universe(4))

    def test_sorted_elements(self):
        assert profile(1, {4, 1, 3}).sorted_elements() == (1, 3, 4)
