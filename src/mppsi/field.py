"""The protocol's prime field.

All protocol values (query entries, randomness, answers, decoded indicators)
are plain int residues in [0, L) of a prime field F_L; code that combines
them reduces mod L itself. The protocol only ever needs tiny moduli (the
smallest prime not below the number of parties), so primality is settled by
trial division.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for the tiny moduli used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_L of integers modulo a prime L."""

    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 2 or not is_prime(self.modulus):
            raise ValueError(f"modulus must be a prime >= 2, got {self.modulus}")

    def __repr__(self) -> str:
        return f"F_{self.modulus}"


def select_field_size(num_parties: int) -> PrimeField:
    """Smallest prime L with L >= num_parties, as the protocol field.

    Raises ConfigError when fewer than two parties are given: with a single
    party there is nothing to intersect and no field agreement to make.
    """
    if num_parties < 2:
        raise ConfigError(f"need at least 2 parties, got {num_parties}")
    candidate = num_parties
    while not is_prime(candidate):
        candidate += 1
    return PrimeField(candidate)

