"""Universe, party data sets, and incidence vectors.

Elements are the integers 1..K. A party's set is represented both as a
sorted tuple of element ids and as a binary incidence vector over the
universe; the protocol operates on the incidence vector, which is a
sufficient statistic for the set once the universe is fixed.
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


@dataclass(frozen=True)
class IncidenceVector:
    """Length-K binary vector with bit j-1 set iff element j is in the set."""

    bits: tuple

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("incidence bits must be 0 or 1")

    def __len__(self) -> int:
        return len(self.bits)

    def to_set(self) -> frozenset:
        return frozenset(j + 1 for j, b in enumerate(self.bits) if b == 1)


def to_incidence(profile: PartyProfile, universe: Universe) -> IncidenceVector:
    """Binary incidence vector of a party's set over the universe."""
    for elem in profile.data_set:
        if elem > universe.size:
            raise ConfigError(
                f"party {profile.party_id}: element {elem} outside universe of size {universe.size}"
            )
    bits = [0] * universe.size
    for elem in profile.data_set:
        bits[elem - 1] = 1
    return IncidenceVector(tuple(bits))


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
        to_incidence(profile, universe)
