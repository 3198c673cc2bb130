"""Universe, party data sets, and a session's public parameters.

Elements are the integers 1..K. The protocol operates on a party's binary
incidence vector over the universe, a sufficient statistic for the set once
the universe is fixed; it is never built, since a binary inner product is
the sum of the query's entries over the set (client.support_sum). A set is
private; PublicParameters holds what is public, which is all the election,
the field, the plan shape and the dealing read.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .errors import ConfigError
from .field import PrimeField, select_field_size


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


def brute_force_intersection(profiles: Sequence[PartyProfile]) -> frozenset:
    """Directly intersect the parties' sets; the test oracle for decoding."""
    if not profiles:
        raise ValueError("need at least one profile")
    result = set(profiles[0].data_set)
    for profile in profiles[1:]:
        result &= profile.data_set
    return frozenset(result)


@dataclass(frozen=True)
class PublicParameters:
    """What every party of a session may know: K (universe_size), party i's
    N_i and |P_i| at databases[i - 1] and set_sizes[i - 1], the leader (the
    override or None, until protocol.prepare_session elects one) and the
    endpoint addresses. No set and no seed.
    """

    universe_size: int
    databases: Tuple[int, ...]
    set_sizes: Tuple[int, ...]
    leader: Optional[int]
    addresses: Dict[Tuple[int, int], Tuple[str, int]] = dc_field(hash=False)

    @classmethod
    def of(
        cls, profiles: Iterable[PartyProfile], universe: Universe,
        leader: Optional[int] = None, addresses: Optional[Dict] = None,
    ) -> PublicParameters:
        """The public part of parties 1..M without gaps, each set within 1..K."""
        profiles = sorted(profiles, key=lambda p: p.party_id)
        ids = [p.party_id for p in profiles]
        if ids != list(range(1, len(ids) + 1)):
            raise ConfigError(f"party ids must be 1..{len(ids)} without gaps, got {ids}")
        for p in profiles:
            if max(p.data_set, default=0) > universe.size:
                raise ConfigError(
                    f"party {p.party_id}: element {max(p.data_set)} outside universe "
                    f"of size {universe.size}"
                )
        return cls(
            universe.size, tuple(p.num_databases for p in profiles),
            tuple(len(p.data_set) for p in profiles), leader, dict(addresses or {}),
        )

    @property
    def field(self) -> PrimeField:
        return select_field_size(len(self.databases))
