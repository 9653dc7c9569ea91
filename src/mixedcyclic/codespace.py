"""The ambient module: mixed-alphabet vectors, the cyclic shift, and the
polynomial picture.

A codeword over the profile (alpha_1, ..., alpha_n) has n blocks, block i
holding alpha_i residues mod 2^i.  Blocks are always ordered Z2 first
through Z2^n last, and the canonical text form writes blocks separated by
"|" with comma-separated coordinates ("1,0|0,1,2").  Under the coordinate
<-> coefficient bijection the simultaneous right rotation of all blocks is
exactly multiplication by x, which is what makes shift-closed subgroups
into polynomial modules.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

from .modring import Poly


class ProfileMismatch(ValueError):
    """Codewords over different profiles cannot be combined."""


class BudgetExceeded(RuntimeError):
    """A scan or enumeration would exceed the caller-supplied budget."""


@dataclass(frozen=True)
class AlphabetProfile:
    """Shape (n; alpha_1..alpha_n) of the ambient module.

    The standing assumption gcd(i, alpha_i) = 1 is checked at construction;
    pass allow_nonstandard=True to keep a violating profile, which is then
    tagged nonstandard so reports can propagate the warning.
    """

    alphas: tuple
    nonstandard: bool = field(default=False, compare=False)

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
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "nonstandard", bool(bad))

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
        """The packed-int layout of words over this profile, built once."""
        return Packing(self)


class Packing:
    """Words as ints for the hot scans: coordinate p of flat() fills field p
    (the first most significant, so int order is flat() order).  A field of
    field_bytes bytes has room for n+1 bits, so a sum of two words never
    carries across fields and one & mask reduces every field mod 2^i."""

    def __init__(self, profile):
        self.profile = profile
        self.field_bytes = -(-(profile.n + 1) // 8)
        self.levels = [i for i, a in enumerate(profile.alphas, start=1) for _ in range(a)]
        self.nbytes = self.field_bytes * len(self.levels)
        self.shifts = [8 * self.field_bytes * p for p in range(len(self.levels) - 1, -1, -1)]
        self.mask = sum(((1 << i) - 1) << e for i, e in zip(self.levels, self.shifts))
        self.template = "|".join(",".join(["%d"] * a) for a in profile.alphas)
        # per block: the mask of its last field and the distance to its top field
        ends = [sum(profile.alphas[:b + 1]) - 1 for b in range(profile.n)]
        self.wraps = [(((1 << i) - 1) << self.shifts[p], 8 * self.field_bytes * (a - 1))
                      for p, i, a in zip(ends, profile.levels(), profile.alphas)]
        self.keep = self.mask ^ sum(m << d for m, d in self.wraps)

    def pack(self, flat):
        return sum(c << e for c, e in zip(flat, self.shifts))

    def unpack(self, w):
        """The coordinates of w in flat() order (its bytes, at one byte a field)."""
        raw, step = w.to_bytes(self.nbytes, "big"), self.field_bytes
        return raw if step == 1 else [int.from_bytes(raw[p:p + step], "big")
                                      for p in range(0, self.nbytes, step)]

    def text(self, w):
        return self.template % tuple(self.unpack(w))  # Codeword.to_text

    def codeword(self, w):
        return from_flat(self.profile, self.unpack(w))

    def shift(self, w):
        """The packed cyclic_shift: every field moves down one place, and each
        block's last field moves to the block's top."""
        out = (w >> 8 * self.field_bytes) & self.keep
        for m, d in self.wraps:
            out |= (w & m) << d
        return out

    def multiples(self, w, count):
        """[0, w, 2w, ..., (count-1)w], by repeated addition."""
        table = [0]
        for _ in range(count - 1):
            table.append((table[-1] + w) & self.mask)
        return table


@dataclass(frozen=True)
class Codeword:
    """One element of the ambient module: block i is alpha_i residues mod 2^i."""

    profile: AlphabetProfile
    components: tuple

    def __post_init__(self):
        if len(self.components) != self.profile.n:
            raise ValueError("component count must equal n")
        comps = []
        for i, block in enumerate(self.components, start=1):
            mod = 1 << i
            block = tuple(c % mod for c in block)
            if len(block) != self.profile.alpha(i):
                raise ValueError(f"block {i} must have length {self.profile.alpha(i)}")
            comps.append(block)
        object.__setattr__(self, "components", tuple(comps))

    @classmethod
    def zero(cls, profile):
        return cls(profile, tuple((0,) * a for a in profile.alphas))

    def block(self, i):
        return self.components[i - 1]

    def is_zero(self):
        return all(all(c == 0 for c in b) for b in self.components)

    def __add__(self, other):
        if self.profile != other.profile:
            raise ProfileMismatch("profiles differ")
        return Codeword(
            self.profile,
            tuple(
                tuple(a + b for a, b in zip(x, y))
                for x, y in zip(self.components, other.components)
            ),
        )

    def __neg__(self):
        return Codeword(self.profile, tuple(tuple(-c for c in b) for b in self.components))

    def __sub__(self, other):
        return self + (-other)

    def flat(self):
        """All coordinates in block order, as one tuple (the dedup key)."""
        return tuple(c for b in self.components for c in b)

    def to_text(self):
        return "|".join(",".join(str(c) for c in b) for b in self.components)

    @classmethod
    def from_text(cls, profile, text):
        blocks = [tuple(int(c) for c in part.split(",")) if part else () for part in text.split("|")]
        return cls(profile, tuple(blocks))


@dataclass(frozen=True)
class PolyTuple:
    """The polynomial picture: block i read as a polynomial of degree < alpha_i."""

    profile: AlphabetProfile
    polys: tuple

    def __post_init__(self):
        for i, p in enumerate(self.polys, start=1):
            if p.k != i:
                raise ValueError(f"component {i} must live over Z/2^{i}")
            d = p.degree()
            if d is not None and d >= self.profile.alpha(i):
                raise ValueError(f"component {i} degree exceeds alpha_{i} - 1")
        if len(self.polys) != self.profile.n:
            raise ValueError("component count must equal n")

    def poly(self, i):
        return self.polys[i - 1]


def to_polys(v: Codeword) -> PolyTuple:
    """Coordinate j of block i becomes the x^j coefficient of component i."""
    return PolyTuple(v.profile, tuple(Poly(b, i) for i, b in enumerate(v.components, start=1)))


def from_polys(u: PolyTuple) -> Codeword:
    comps = []
    for i, p in enumerate(u.polys, start=1):
        a = u.profile.alpha(i)
        comps.append(tuple(p.coeff(e) for e in range(a)))
    return Codeword(u.profile, tuple(comps))


def cyclic_shift(v: Codeword) -> Codeword:
    """Rotate every block right by one position, simultaneously."""
    return Codeword(v.profile, tuple(b[-1:] + b[:-1] for b in v.components))


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
    """The codeword whose coordinates, in block order, are flat (inverse of flat())."""
    comps = []
    pos = 0
    for a in profile.alphas:
        comps.append(tuple(flat[pos : pos + a]))
        pos += a
    return Codeword(profile, tuple(comps))


def all_codewords(profile):
    """Iterate the whole ambient module in canonical lexicographic order."""
    return iter_space_range(profile, 0, 1 << profile.space_size_exponent())


def partition_range(total, workers):
    """Split range(total) into contiguous (start, stop) chunks, in order.

    One chunk per worker, with the worker count clamped to
    1..min(total, os.cpu_count()).  A scan that maps each chunk and
    concatenates the parts in chunk order reproduces the sequential
    scan, whatever the worker count.
    """
    workers = max(1, min(workers, total, os.cpu_count() or 1))
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
