"""The protocol field: field selection, and residue arithmetic in the answer kernel."""

import itertools

import pytest

from mppsi.client import answer_all, answer_value
from mppsi.errors import ConfigError, ProtocolViolationError
from mppsi.field import PrimeField, is_prime, select_field_size
from mppsi.model import PartyProfile
from mppsi.wire import Message

from test_client import state_holding


def modular_dot(xs, qs, modulus):
    """Independent oracle: dense big-integer evaluation reduced once at the end."""
    return sum(x * q for x, q in zip(xs, qs)) % modulus


def sparse_dot(x, q, modulus, universe=None):
    """<x, q> mod L through answer_all, whose s = t = 0 and c = 1 leave it bare."""
    profile = PartyProfile(1, 2, frozenset(j + 1 for j, bit in enumerate(x) if bit))
    size = len(x) if universe is None else universe
    state = state_holding(profile, 1, 0, 0, 1, modulus, size)
    spec = Message("query", state.session_id, (2, 0), (1, 1), 1, None, bytes(q))
    (msg,) = answer_all(state, [spec])
    (value,) = msg.values
    return value


def add(a, b, modulus):
    """(a + b) mod L as the answer formula computes it (c = 1, t = 0)."""
    return answer_value(a, b, 0, 1, modulus)


def mul(a, b, modulus):
    """(a * b) mod L as the answer formula computes it (multiplier a, s = t = 0)."""
    return answer_value(b, 0, 0, a, modulus)


class TestFieldSelection:
    @pytest.mark.parametrize("parties,expected", [(3, 3), (4, 5), (2, 2), (6, 7), (251, 251)])
    def test_smallest_prime_not_below_party_count(self, parties, expected):
        assert select_field_size(parties).modulus == expected

    def test_rejects_single_party(self):
        with pytest.raises(ConfigError):
            select_field_size(1)

    def test_rejects_a_field_past_one_byte(self):
        # 252 parties would need F_257, whose residues do not fit in a byte.
        with pytest.raises(ConfigError, match="at most 251 parties"):
            select_field_size(252)

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            PrimeField(9)

    def test_trial_division(self):
        primes = [n for n in range(2, 60) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


class TestOperations:
    def test_add_wraps(self):
        assert add(2, 2, 3) == 1

    def test_additive_identity(self):
        for x in range(5):
            assert add(0, x, 5) == x

    def test_additive_inverse_example(self):
        assert add(1, 2, 3) == 0

    def test_mul_wraps(self):
        assert mul(2, 3, 5) == 1

    def test_multiplicative_identity(self):
        for x in range(5):
            assert mul(1, x, 5) == x

    def test_mul_mod_three(self):
        assert mul(2, 2, 3) == 1


class TestInnerProduct:
    def test_hand_example_mod_three(self):
        x, q = (1, 1, 0, 0), (2, 1, 0, 0)
        assert modular_dot(x, q, 3) == 0
        assert sparse_dot(x, q, 3) == 0

    def test_zero_vector(self):
        assert sparse_dot((0, 0, 0, 0), (1, 2, 3, 4), 5) == 0

    def test_hand_example_mod_five(self):
        x, q = (1, 0, 1, 1, 0), (1, 1, 1, 1, 1)
        assert modular_dot(x, q, 5) == 3
        assert sparse_dot(x, q, 5) == 3

    def test_matches_oracle_exhaustively(self):
        for modulus in (2, 3, 5):
            for size in (1, 2, 3):
                for x in itertools.product((0, 1), repeat=size):
                    for q in itertools.product(range(modulus), repeat=size):
                        assert sparse_dot(x, q, modulus) == modular_dot(x, q, modulus)

    def test_length_mismatch(self):
        with pytest.raises(ProtocolViolationError):
            sparse_dot((1,), (1, 2), 3, universe=1)


@pytest.mark.parametrize("modulus", [2, 3, 5, 7])
class TestFieldAxioms:
    def test_commutativity(self, modulus):
        residues = range(PrimeField(modulus).modulus)
        for a in residues:
            for b in residues:
                assert add(a, b, modulus) == add(b, a, modulus)
                assert mul(a, b, modulus) == mul(b, a, modulus)

    def test_associativity(self, modulus):
        residues = range(PrimeField(modulus).modulus)
        for a in residues:
            for b in residues:
                for c in residues:
                    assert add(add(a, b, modulus), c, modulus) == add(a, add(b, c, modulus), modulus)
                    assert mul(mul(a, b, modulus), c, modulus) == mul(a, mul(b, c, modulus), modulus)

    def test_distributivity(self, modulus):
        # Subtracting two answers under one multiplier cancels their shared
        # randomness only because the multiplier distributes over the sum.
        residues = range(PrimeField(modulus).modulus)
        for a in residues:
            for b in residues:
                for c in residues:
                    assert answer_value(b, c, 0, a, modulus) == add(
                        mul(a, b, modulus), mul(a, c, modulus), modulus
                    )

    def test_inverses(self, modulus):
        residues = range(PrimeField(modulus).modulus)
        for a in residues:
            assert add(a, (-a) % modulus, modulus) == 0
        for a in range(1, modulus):
            inverses = [b for b in range(1, modulus) if mul(a, b, modulus) == 1]
            assert len(inverses) == 1

    def test_scaling_by_nonzero_permutes_nonzeros(self, modulus):
        # The masking argument for the intersection indicator rests on this.
        nonzero = set(range(1, PrimeField(modulus).modulus))
        for a in nonzero:
            assert {mul(c, a, modulus) for c in nonzero} == nonzero
