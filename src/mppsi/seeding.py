"""Deterministic labeled randomness derivation.

Every random draw in a session is produced by a generator seeded from the
session seed plus a textual label naming the stream: "h/<partition>" for a
base vector, "s/<client>" for a client's local vector, "t/<client>/<database>"
for a free-client database's individual values and "c" for the global
multiplier. Each stream gives one whole vector (draw_vector) or the one
nonzero multiplier (draw_nonzero). Distinct labels give independent
streams, and the same (seed, label) pair always reproduces the same values,
so the leader and the dealing of the clients' randomness
(randomness.build_bundle) each derive their draws without coordination.
"""

from __future__ import annotations

import functools
import random


def labeled_rng(seed: int, *label) -> random.Random:
    """Generator for one labeled draw stream of a session."""
    tag = "/".join(str(part) for part in label)
    # String seeds hash through sha512 inside random.Random, so the stream
    # is stable across processes and platforms.
    return random.Random(f"{seed}|{tag}")


def draw_nonzero(seed: int, modulus: int, *label) -> int:
    """One uniform value in [1, modulus-1] for the given label."""
    if modulus < 2:
        raise ValueError("no nonzero elements in a field of size < 2")
    return labeled_rng(seed, *label).randrange(1, modulus)


def draw_vector(seed: int, modulus: int, length: int, *label) -> bytes:
    """A vector of iid uniform values in [0, modulus-1] for the given label.

    The values are those of ``randrange(modulus)`` called once per
    coordinate, drawn by its rule in batches: with k = modulus.bit_length(),
    each successive 32-bit word of the labeled stream gives its top k bits,
    and a value >= modulus is rejected. A vector has a stream of its own, so
    words drawn past the last kept value change nothing else. The vector is
    bytes, one value per byte, so the modulus is below 256: every field
    select_field_size gives is.
    """
    if not 1 <= modulus < 256:
        raise ValueError(f"vector draws need a modulus in [1, 256), not {modulus}")
    rng = labeled_rng(seed, *label)
    bits = modulus.bit_length()
    table, rejected = _byte_tables(modulus)
    out = b""
    while len(out) < length:
        # The expected number of words still needed, plus a few; the
        # first word generated is the least significant of the batch, and
        # its top byte is the batch's byte 3.
        words = ((length - len(out)) << bits) // modulus + 16
        data = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        out += data[3::4].translate(table, rejected)
    return out[:length]


@functools.lru_cache(maxsize=None)
def _byte_tables(modulus: int) -> tuple:
    """The value each top byte of a word gives, and the top bytes whose
    value is rejected."""
    shift = 8 - modulus.bit_length()
    table = bytes(byte >> shift if byte >> shift < modulus else 0 for byte in range(256))
    rejected = bytes(byte for byte in range(256) if byte >> shift >= modulus)
    return table, rejected
