"""Labeled draws: the batched vector rule, and the nonzero single-value draw."""

import pytest

from mppsi.seeding import draw_nonzero, draw_vector, labeled_rng

MODULI = (2, 3, 5, 7, 11, 13, 251, 256, 257, 263)
# The moduli a vector can be drawn for: one value per byte.
VECTOR_MODULI = tuple(m for m in MODULI if m < 256)
LENGTHS = (0, 1, 2, 3, 1000, 5000)
SEEDS = (0, 7, 2**64 - 1)
LABELS = (("h",), ("h", 3), ("audit-h", 2, 1))


def rule_reference(seed, modulus, length, *label):
    """The draw rule one word at a time: the top k = L.bit_length() bits of
    each 32-bit word of the labeled stream, with values >= L rejected."""
    rng = labeled_rng(seed, *label)
    shift = 32 - modulus.bit_length()
    out = []
    while len(out) < length:
        value = rng.getrandbits(32) >> shift
        if value < modulus:
            out.append(value)
    return bytes(out)


@pytest.mark.parametrize("modulus", VECTOR_MODULI)
def test_vector_follows_the_rule_and_randrange(modulus):
    for length in LENGTHS:
        for seed in SEEDS:
            for label in LABELS:
                got = draw_vector(seed, modulus, length, *label)
                assert type(got) is bytes
                assert got == rule_reference(seed, modulus, length, *label)
                rng = labeled_rng(seed, *label)
                assert got == bytes(rng.randrange(modulus) for _ in range(length))


def test_binary_field_keeps_two_bits_per_word():
    # k = L.bit_length() = 2 at L = 2; (L - 1).bit_length() = 1 would keep
    # every word's top bit instead and give a different vector. The two
    # widths differ only at powers of two, and 2 is the only prime one.
    rng = labeled_rng(7, "h", 1)
    one_bit = bytes(rng.getrandbits(32) >> 31 for _ in range(200))
    assert draw_vector(7, 2, 200, "h", 1) != one_bit
    assert draw_vector(7, 2, 200, "h", 1) == rule_reference(7, 2, 200, "h", 1)


@pytest.mark.parametrize("modulus", (251,))
def test_vector_values_cover_the_field(modulus):
    values = draw_vector(3, modulus, 20000, "cover")
    assert set(values) == set(range(modulus))


def test_distinct_labels_give_distinct_vectors():
    assert draw_vector(1, 5, 100, "h", 1) != draw_vector(1, 5, 100, "h", 2)
    assert draw_vector(1, 5, 100, "h", 1) == draw_vector(1, 5, 100, "h", 1)


def test_vector_prefixes_agree():
    # Drawing more coordinates extends the vector; it never reshuffles it.
    long = draw_vector(11, 7, 3000, "h", 4)
    for length in (1, 17, 999):
        assert draw_vector(11, 7, length, "h", 4) == long[:length]


@pytest.mark.parametrize("modulus", (0, -3, 2**32))
def test_vector_rejects_a_modulus_without_32_bit_words(modulus):
    with pytest.raises(ValueError):
        draw_vector(1, modulus, 4, "h")


@pytest.mark.parametrize("modulus", (256, 257, 263))
def test_vector_rejects_a_modulus_past_one_byte(modulus):
    # A vector holds one value per byte.
    with pytest.raises(ValueError, match=r"\[1, 256\)"):
        draw_vector(1, modulus, 4, "h")


@pytest.mark.parametrize("modulus", MODULI)
def test_single_values_stay_in_range(modulus):
    nonzero = [draw_nonzero(seed, modulus, "c", seed) for seed in range(300)]
    assert min(nonzero) >= 1 and max(nonzero) < modulus
    if modulus <= 13:
        assert set(nonzero) == set(range(1, modulus))


def test_nonzero_draw_needs_two_residues():
    with pytest.raises(ValueError):
        draw_nonzero(1, 1, "c")
