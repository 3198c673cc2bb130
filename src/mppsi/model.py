"""Universe and party data sets.

Elements are the integers 1..K. The protocol operates on a party's binary
incidence vector over the universe, a sufficient statistic for the set once
the universe is fixed; it is never built, since a binary inner product is
the sum of the query's entries over the set (client.support_sum).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterable, Sequence

from .errors import ConfigError


@dataclass(frozen=True)
class Universe:
    """The common alphabet {1, ..., size} all data sets draw from."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ConfigError(f"universe size must be >= 1, got {self.size}")


@dataclass(frozen=True)
class PartyProfile:
    """One party: its id, how many replicated databases it runs, and its set.

    Set cardinalities are treated as public; the set contents are private to
    the party (replicated identically across its databases).
    """

    party_id: int
    num_databases: int
    data_set: frozenset = dc_field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.party_id < 1:
            raise ConfigError(f"party id must be >= 1, got {self.party_id}")
        if self.num_databases < 1:
            raise ConfigError(
                f"party {self.party_id}: database count must be >= 1, got {self.num_databases}"
            )
        object.__setattr__(self, "data_set", frozenset(self.data_set))
        for elem in self.data_set:
            if not isinstance(elem, int) or elem < 1:
                raise ConfigError(f"party {self.party_id}: bad element {elem!r}")

    def sorted_elements(self) -> tuple:
        return tuple(sorted(self.data_set))


def _check_fits(profile: PartyProfile, universe: Universe) -> None:
    for elem in profile.data_set:
        if elem > universe.size:
            raise ConfigError(
                f"party {profile.party_id}: element {elem} outside universe of size {universe.size}"
            )


def brute_force_intersection(profiles: Sequence[PartyProfile]) -> frozenset:
    """Directly intersect the parties' sets; the test oracle for decoding."""
    if not profiles:
        raise ValueError("need at least one profile")
    result = set(profiles[0].data_set)
    for profile in profiles[1:]:
        result &= profile.data_set
    return frozenset(result)


def validate_profiles(profiles: Iterable[PartyProfile], universe: Universe) -> None:
    """Check ids are unique and contiguous from 1 and sets fit the universe."""
    ids = sorted(p.party_id for p in profiles)
    if ids != list(range(1, len(ids) + 1)):
        raise ConfigError(f"party ids must be 1..{len(ids)} without gaps, got {ids}")
    for profile in profiles:
        _check_fits(profile, universe)
