"""Gray maps, Lee and Hamming weights, mixed weight and minimum distance.

The level-i Gray map sends Z/2^i into binary words of length q = 2^(i-1)
by a sliding window of ones: reading positions p = 1..q from the right,
position p is set iff p <= u <= p + q - 1.  That closed form realises the
unit-vector recurrence (consecutive images differ in exactly one place)
and turns Lee weight into Hamming weight on the nose.  Level 1 embeds
bits verbatim.

Scans weigh packed words (codespace.Packing) with packed_weigher: at one
byte a field, one add moves every level into its own range of a single
256-entry Lee table, so a word's bytes are translated and summed at once.
"""

from __future__ import annotations

import functools
from collections import Counter

from .codespace import Codeword


def lee_weight(u, k):
    """min(u, 2^k - u) for a residue mod 2^k."""
    u %= 1 << k
    return min(u, (1 << k) - u)


def hamming_weight(bits):
    return sum(1 for b in bits if b != 0)


def gray_map(u, level):
    """Binary image of a residue mod 2^level; length 2^(level-1)."""
    q = 1 << (level - 1)
    if not 0 <= u < 2 * q:
        raise ValueError(f"value {u} out of range for level {level}")
    # leftmost output bit is position q, rightmost is position 1
    return tuple(1 if p <= u <= p + q - 1 else 0 for p in range(q, 0, -1))


def gray_image(v: Codeword):
    """Blockwise Gray image; length sum of 2^(i-1) * alpha_i."""
    bits = []
    for i, block in enumerate(v.components, start=1):
        for c in block:
            bits.extend(gray_map(c, i))
    return tuple(bits)


def mixed_weight(v: Codeword):
    """Hamming weight on the Z2 block plus Lee weights on higher blocks."""
    return sum(map(lee_weight, v.flat(), v.profile.packing.levels))  # Lee mod 2 is Hamming


@functools.cache
def _lee_table():
    """One table for every level at one byte a field: byte 2^i - 2 + u holds
    the Lee weight of u mod 2^i, i = 1..7 (the ranges tile 0..253)."""
    table = bytearray(256)
    for i in range(1, 8):
        for u in range(1 << i):
            table[(1 << i) - 2 + u] = lee_weight(u, i)
    return bytes(table)


def packed_weigher(packing):
    """The mixed weight of a packed word, read from its bytes.

    At one byte a field (n <= 7) one add puts field u of level i at
    2^i - 2 + u, which stays below 255 and so carries into no other
    field, and the shared _lee_table translates every byte at once
    (Hamming weight at i = 1); wider fields (n >= 8) are decoded.
    """
    if packing.field_bytes > 1:
        return lambda w: sum(map(lee_weight, packing.unpack(w), packing.levels))
    table, nbytes = _lee_table(), packing.nbytes
    offset = packing.pack([(1 << i) - 2 for i in packing.levels])
    return lambda w: sum((w + offset).to_bytes(nbytes, "big").translate(table))


def mixed_distance(u: Codeword, v: Codeword):
    return mixed_weight(u - v)


def min_distance(codewords):
    """Minimum nonzero mixed weight over an enumerated additive code.

    For an additive code the pairwise minimum equals the minimum weight of
    a nonzero codeword.  Returns None when no nonzero codeword exists.
    """
    best = None
    for v in codewords:
        if v.is_zero():
            continue
        w = mixed_weight(v)
        if best is None or w < best:
            best = w
    return best


def weight_distribution(codewords):
    """Counter mapping mixed weight -> number of codewords of that weight."""
    dist = Counter()
    for v in codewords:
        dist[mixed_weight(v)] += 1
    return dist


def merge_distributions(parts):
    """Associative merge for partitioned scans."""
    total = Counter()
    for part in parts:
        total.update(part)
    return total
