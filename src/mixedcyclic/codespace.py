"""The ambient module: mixed-alphabet vectors, the cyclic shift, and the
polynomial picture.

A codeword over the profile (alpha_1, ..., alpha_n) has n blocks, block i
holding alpha_i residues mod 2^i.  Blocks are always ordered Z2 first
through Z2^n last, and the canonical text form writes blocks separated by
"|" with comma-separated coordinates ("1,0|0,1,2").  Under the coordinate
<-> coefficient bijection the simultaneous right rotation of all blocks is
exactly multiplication by x, which is what makes shift-closed subgroups
into polynomial modules.

Packing.text writes one packed word's text; Packing.render writes a list
of them, one a line, in a few byte-table translations, not one format a word.
"""

from __future__ import annotations

import functools
import math
import os
from itertools import repeat

from .modring import Poly


class ProfileMismatch(ValueError):
    """Codewords over different profiles cannot be combined."""


class BudgetExceeded(RuntimeError):
    """A scan or enumeration would exceed the caller-supplied budget."""


class AlphabetProfile:
    """Shape (n; alpha_1..alpha_n) of the ambient module.

    The standing assumption gcd(i, alpha_i) = 1 is checked at construction;
    pass allow_nonstandard=True to keep a violating profile, which is then
    tagged nonstandard so reports can propagate the warning.  Profiles are
    equal when their alphas are.
    """

    def __init__(self, alphas, allow_nonstandard=False):
        alphas = tuple(int(a) for a in alphas)
        if not alphas or any(a < 1 for a in alphas):
            raise ValueError("profile needs n >= 1 positive block lengths")
        bad = [i for i, a in enumerate(alphas, start=1) if math.gcd(i, a) != 1]
        if bad and not allow_nonstandard:
            raise ValueError(
                f"gcd(i, alpha_i) != 1 at level(s) {bad}; "
                "pass allow_nonstandard=True to keep this profile"
            )
        self.alphas, self.nonstandard = alphas, bool(bad)

    def __eq__(self, other):
        return other.__class__ is AlphabetProfile and self.alphas == other.alphas

    def __hash__(self):
        return hash(self.alphas)

    def __repr__(self):
        return f"AlphabetProfile({self.alphas!r})"

    @property
    def n(self):
        return len(self.alphas)

    def alpha(self, i):
        """Block length at level i (1-based)."""
        return self.alphas[i - 1]

    def levels(self):
        return range(1, self.n + 1)

    def shift_order(self):
        return math.lcm(*self.alphas)

    def space_size_exponent(self):
        """log2 of the ambient module size, sum of i*alpha_i."""
        return sum(i * a for i, a in enumerate(self.alphas, start=1))

    @functools.cached_property
    def packing(self):
        """The packed-int layout of words over this profile, one per alphas (_packing)."""
        return _packing(self)


class Packing:
    """Words as ints for the hot scans: coordinate p of flat() fills field p
    (the first most significant, so int order is flat() order).  A field of
    field_bytes bytes has room for n+1 bits, so a sum of two words never
    carries across fields and one & mask reduces every field mod 2^i."""

    def __init__(self, profile):
        self.profile = profile
        self.field_bytes = -(-(profile.n + 1) // 8)
        self.levels = [i for i, a in enumerate(profile.alphas, start=1) for _ in range(a)]
        self.scales = [profile.n - i for i in self.levels]  # block i embeds by 2^(n-i)
        self.nbytes = self.field_bytes * len(self.levels)
        self.shifts = [8 * self.field_bytes * p for p in range(len(self.levels) - 1, -1, -1)]
        self.lows = [(1 << i) - 1 for i in self.levels]
        self.mask = sum(m << e for m, e in zip(self.lows, self.shifts))
        self.top = sum(1 << (i + e) for i, e in zip(self.levels, self.shifts))  # 2^i a field
        cuts = [sum(profile.alphas[:b]) for b in range(profile.n + 1)]
        self.blocks = list(zip(cuts, cuts[1:]))  # flat() slice of each block
        self.template = "|".join(",".join(["%d"] * a) for a in profile.alphas)
        # per block: the mask of its last field and the distance to its top field
        self.wraps = [(((1 << i) - 1) << self.shifts[hi - 1], 8 * self.field_bytes * (a - 1))
                      for (_, hi), i, a in zip(self.blocks, profile.levels(), profile.alphas)]
        self.keep = self.mask ^ sum(m << d for m, d in self.wraps)

    def pack(self, flat):
        """The word whose fields hold flat; each entry must fit its field."""
        return sum(c << e for c, e in zip(flat, self.shifts))

    def unpack(self, w):
        """The coordinates of w in flat() order (its bytes, at one byte a field)."""
        raw, step = w.to_bytes(self.nbytes, "big"), self.field_bytes
        return raw if step == 1 else [int.from_bytes(raw[p:p + step], "big")
                                      for p in range(0, self.nbytes, step)]

    def text(self, w):
        return self.template % tuple(self.unpack(w))  # Codeword.to_text

    def render(self, words):
        """The texts of the packed words, one a line: "\n".join(map(self.text, words)).
        With one-byte fields (n <= 7) each field byte becomes four: its three
        digits (a leading zero as byte 0, deleted at the end) and its separator."""
        if self.field_bytes > 1:
            return "\n".join(map(self.text, words))
        raw = b"".join(map(int.to_bytes, words, repeat(self.nbytes), repeat("big")))
        out = bytearray(4 * len(raw))
        out[0::4], out[1::4], out[2::4] = (raw.translate(t) for t in _digit_tables())
        out[3::4] = (self.template.replace("%d", "") + "\n").encode() * len(words)
        return out.translate(None, b"\0")[:-1].decode()

    def codeword(self, w):
        """w as a Codeword, wrapped as it is: w must be reduced (w & mask == w)."""
        v = Codeword.__new__(Codeword)
        v.profile, v.w = self.profile, w
        return v

    def shift(self, w):
        """The packed cyclic_shift: every field moves down one place, and each
        block's last field moves to the block's top."""
        out = (w >> 8 * self.field_bytes) & self.keep
        for m, d in self.wraps:
            out |= (w & m) << d
        return out

    def embed(self, w):
        """w over Z/2^n, block i times 2^(n-i): the pairing becomes the dot product mod 2^n."""
        return [c << e for c, e in zip(self.unpack(w), self.scales)]

    def unembed(self, row):
        """Inverse of embed, for a row in its image with entries reduced mod 2^n."""
        return self.pack([a >> e for a, e in zip(row, self.scales)])


_packing = functools.cache(Packing)  # profiles hash by alphas: equal ones share the tables


@functools.cache
def _digit_tables():
    """Byte -> its hundreds, tens and ones digit, as three translate tables;
    the leading zeros of a value map to byte 0."""
    cells = [b"%3d" % v for v in range(256)]
    return [bytes(c[j] for c in cells).replace(b" ", b"\0") for j in range(3)]


class Codeword:
    """One element of the ambient module: block i is alpha_i residues mod 2^i,
    held as the profile and w, the word packed by profile.packing.
    Codeword(profile, components) checks the block shape and reduces every
    block once; sums, negation, shifts and Packing.codeword work on w alone."""

    __slots__ = ("profile", "w")

    def __init__(self, profile, components):
        self.profile, self.w = profile, components
        self.__post_init__()

    def __post_init__(self):
        """Check the blocks held in w, reduce block i mod 2^i and pack them into w."""
        profile, flat = self.profile, []
        if len(self.w) != profile.n:
            raise ValueError("component count must equal n")
        for i, block in enumerate(self.w, start=1):
            block = [c & ((1 << i) - 1) for c in block]
            if len(block) != profile.alpha(i):
                raise ValueError(f"block {i} must have length {profile.alpha(i)}")
            flat += block
        self.w = profile.packing.pack(flat)

    @classmethod
    def zero(cls, profile):
        return profile.packing.codeword(0)

    @property
    def components(self):
        """The blocks, as a tuple of residue tuples."""
        packing = self.profile.packing
        flat = packing.unpack(self.w)
        return tuple(tuple(flat[lo:hi]) for lo, hi in packing.blocks)

    def block(self, i):
        return self.components[i - 1]

    def is_zero(self):
        return not self.w

    def _packing(self, other):
        if other.profile is not self.profile and other.profile != self.profile:
            raise ProfileMismatch("profiles differ")
        return self.profile.packing

    def __add__(self, other):
        packing = self._packing(other)
        return packing.codeword((self.w + other.w) & packing.mask)

    def __neg__(self):
        packing = self.profile.packing  # top - w: a field holds 2^i, so nothing borrows
        return packing.codeword((packing.top - self.w) & packing.mask)

    def __sub__(self, other):
        packing = self._packing(other)
        return packing.codeword((self.w + packing.top - other.w) & packing.mask)

    def __eq__(self, other):
        return other.__class__ is Codeword and self.w == other.w and self.profile == other.profile

    def __hash__(self):
        return hash((self.profile.alphas, self.w))

    def __repr__(self):
        return f"Codeword({self.profile!r}, {self.components!r})"

    def flat(self):
        """All coordinates in block order, as one tuple (the dedup key)."""
        return tuple(self.profile.packing.unpack(self.w))

    def to_text(self):
        return self.profile.packing.text(self.w)

    @classmethod
    def from_text(cls, profile, text):
        return cls(profile, [[int(c) for c in part.split(",")] if part else []
                             for part in text.split("|")])


class PolyTuple:
    """The polynomial picture: block i read as a polynomial of degree < alpha_i."""

    def __init__(self, profile, polys):
        for i, p in enumerate(polys, start=1):
            if p.k != i:
                raise ValueError(f"component {i} must live over Z/2^{i}")
            d = p.degree()
            if d is not None and d >= profile.alpha(i):
                raise ValueError(f"component {i} degree exceeds alpha_{i} - 1")
        if len(polys) != profile.n:
            raise ValueError("component count must equal n")
        self.profile, self.polys = profile, polys

    def poly(self, i):
        return self.polys[i - 1]


def to_polys(v: Codeword) -> PolyTuple:
    """Coordinate j of block i becomes the x^j coefficient of component i."""
    return PolyTuple(v.profile, tuple(Poly(b, i) for i, b in enumerate(v.components, start=1)))


def from_polys(u: PolyTuple) -> Codeword:
    """The x^j coefficient of component i becomes coordinate j of block i, a byte
    plane (Poly.planes) at a time: each component is reduced, of degree < alpha_i."""
    packing = u.profile.packing
    step, out = packing.field_bytes, bytearray(packing.nbytes)
    for p, (lo, hi) in zip(u.polys, packing.blocks):
        for b, plane in enumerate(p.planes(hi - lo, step)):
            out[(lo + 1) * step - 1 - b:hi * step:step] = plane
    return packing.codeword(int.from_bytes(out, "big"))


def cyclic_shift(v: Codeword) -> Codeword:
    """Rotate every block right by one position, simultaneously."""
    packing = v.profile.packing
    return packing.codeword(packing.shift(v.w))


def scalar_action(d: Poly, u: PolyTuple) -> PolyTuple:
    """Act by a scalar polynomial: component i gets (d mod 2^i) * u_i.

    The scalar may be written at any level; its coefficients are read
    modulo 2^i per component, and each product is folded by x^alpha_i = 1.
    """
    out = []
    for i, p in enumerate(u.polys, start=1):
        di = d.at_level(i)
        out.append((di * p).reduce_cyclic(u.profile.alpha(i)))
    return PolyTuple(u.profile, tuple(out))


def from_flat(profile, flat):
    """The codeword whose coordinates, in block order, are flat (inverse of
    flat()), each reduced mod 2^i in block i."""
    packing = profile.packing
    if len(flat) != len(packing.levels):
        raise ValueError(f"need {len(packing.levels)} coordinates, got {len(flat)}")
    return packing.codeword(packing.pack([c & m for c, m in zip(flat, packing.lows)]))


def all_codewords(profile):
    """Iterate the whole ambient module in canonical lexicographic order."""
    return iter_space_range(profile, 0, 1 << profile.space_size_exponent())


def partition_range(total, workers):
    """Split range(total) into contiguous (start, stop) chunks, in order.

    One chunk per worker, with the worker count clamped to
    1..min(total, os.cpu_count()); the OS is asked only for workers > 1.
    A scan that maps each chunk and concatenates the parts in chunk order
    reproduces the sequential scan, whatever the worker count.
    """
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1)
    workers = max(1, min(workers, total))
    step = max(1, -(-total // workers))
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def iter_space_range(profile, start, stop):
    """Positions [start, stop) of the canonical ambient-module order.

    The order treats the first coordinate as most significant (the whole
    range is all_codewords), so contiguous index ranges are coordinate-prefix
    partitions and concatenating them preserves the canonical order.  Each
    coordinate of level i takes i bits of the position, so the walk is a
    packed word counting up: with the spare bits of every field set, +1
    carries from field to field.
    """
    packing = profile.packing
    w, rem = 0, start
    for i, e in zip(reversed(packing.levels), reversed(packing.shifts)):
        w, rem = w | (rem & ((1 << i) - 1)) << e, rem >> i
    spare = ((1 << 8 * packing.nbytes) - 1) ^ packing.mask
    for _ in range(start, min(stop, 1 << profile.space_size_exponent())):
        yield packing.codeword(w)
        w = ((w | spare) + 1) & packing.mask
