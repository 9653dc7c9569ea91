"""Exact polynomial arithmetic over Z/2^k and in Z/2^k[x] modulo x^alpha - 1.

Coefficients are plain Python ints kept reduced into [0, 2^k); the modulus
exponent k travels with the polynomial.  Z/2^k is a chain ring, not a
domain: "f divides g" is decided by divides_witness, which owns the
division policy (plain division, then a linear system for the quotient);
quotients are not unique in general and any witness is acceptable.

Degrees are formal: the leading coefficient may be a zero divisor
(2x^2 + 3 over Z/4 has degree 2).  The zero polynomial has degree None,
never -1, so callers must guard before doing arithmetic on degrees.

A Poly is its level k and one int w: coefficient e fills field e of w,
counted from the least significant bits (Kronecker substitution, Harvey,
JSC 2009, on packed fields as in Howell), so trailing zeros are never
stored.  The width rule: a field is 2k + 8 bits rounded up to a multiple
of 32 (32 for every k <= 12, so a family's level changes are masks),
which leaves S = width - 2k >= 8 spare bits.  Nothing carries across
fields: a product of lengths L1 <= L2 puts less than L1 * (2^k - 1)^2 in
a field, below 2^width while L1 <= 2^S (a longer factor is split into
pieces of 2^S fields); a sum, a difference, a negation (2^k - c) and
every added piece of the fold by x^alpha = 1 leave less than 2^(k+1),
and one & mask reduces every field.  The masks of a level are built on
its first use and grown with its longest polynomial; a short operand
never pays for them (an & costs the shorter side, _Layout.neg its own
fields).  A long polynomial costs time linear in its length outside the
product: a list of more than _WINDOW coefficients packs through bytes,
each fold pass halves the length, and a long quotient is cleared
_WINDOW fields at a time.  Howell rows take 2k + 1 bits a field, rounded up
to whole bytes so rows move by byte slices: a field stays below 2^(2k+1).
"""

from __future__ import annotations

import itertools
import struct


class ModulusMismatch(ValueError):
    """Operands live over different moduli 2^k."""


class _Layout:
    """The fields of level k: their width, and masks of low (2^k - 1), ones
    and top (2^k) per field over self.bits bits, which cover every Poly of
    level k."""

    def __init__(self, k):
        if k < 1:
            raise ValueError("modulus exponent k must be >= 1")
        self.k, self.width, self.low, self.bits = k, -(-(2 * k + 8) // 32) * 32, (1 << k) - 1, 0
        self.spare = self.width - 2 * k
        self.typecode = {32: "I", 64: "Q"}.get(self.width)  # a field as one struct item
        self.fit(1)
        _LAYOUTS[k] = self

    def fit(self, bits):
        """Grow the masks past bits > self.bits bits, at least doubling them."""
        self.bits = max(-(-bits // self.width), 2 * self.bits // self.width, 8) * self.width
        self.ones = ((1 << self.bits) - 1) // ((1 << self.width) - 1)
        self.mask, self.top = self.ones * self.low, self.ones << self.k

    def neg(self, w):
        """-w field by field: 2^k - c under the fields of w alone, so it costs
        O(len w) however far the masks grew."""
        top = self.top >> self.bits - -(-w.bit_length() // self.width) * self.width
        return (top - w) & self.mask

    def pack(self, coeffs):
        """The int whose field e holds coeffs[e] mod 2^k: shifted in one by
        one into a short int, joined as bytes for a long list (O(len))."""
        if len(coeffs) > _WINDOW:
            step = self.width // 8
            return int.from_bytes(b"".join((c & self.low).to_bytes(step, "little")
                                           for c in coeffs), "little")
        w, shift, width, low = 0, 0, self.width, self.low
        for c in coeffs:
            w |= (c & low) << shift
            shift += width
        return w

    def unpack(self, w):
        """The coefficients held in w, field by field."""
        step = self.width // 8
        raw = w.to_bytes(-(-w.bit_length() // self.width) * step, "little")
        if self.typecode:
            return struct.unpack(f"<{len(raw) // step}{self.typecode}", raw)
        return tuple(int.from_bytes(raw[p:p + step], "little") for p in range(0, len(raw), step))


_LAYOUTS = {}


def _layout(k):
    return _LAYOUTS.get(k) or _Layout(k)


def _poly(w, k):
    """The Poly of level k over w, whose fields are reduced already."""
    p = object.__new__(Poly)
    p.w, p.k = w, k
    return p


class Poly:
    """Polynomial over Z/2^k: its level k and its coefficients packed in w."""

    __slots__ = ("w", "k")

    def __init__(self, coeffs, k):
        lay = _layout(k)
        w = lay.pack(coeffs)
        if w.bit_length() > lay.bits:
            lay.fit(w.bit_length())
        self.w, self.k = w, k

    @classmethod
    def packed(cls, w, k):
        """The Poly whose coefficient e is field e of w mod 2^k; w >= 0."""
        lay = _layout(k)
        if w.bit_length() > lay.bits:
            lay.fit(w.bit_length())
        return _poly(w & lay.mask, k)

    def __eq__(self, other):
        return other.__class__ is Poly and self.w == other.w and self.k == other.k

    def __hash__(self):
        return hash((self.w, self.k))

    def __repr__(self):
        return f"Poly({self.coeffs!r}, {self.k!r})"

    @property
    def coeffs(self):
        """The coefficients, ascending powers, no trailing zeros."""
        return _LAYOUTS[self.k].unpack(self.w)

    def planes(self, length, nbytes):
        """Byte b of the first length coefficients, a plane each b < min(nbytes, field bytes)."""
        step = _LAYOUTS[self.k].width // 8
        raw = self.w.to_bytes(length * step, "little")
        return [raw[b::step] for b in range(min(nbytes, step))]

    @classmethod
    def zero(cls, k):
        return cls.packed(0, k)

    @classmethod
    def one(cls, k):
        return cls.packed(1, k)

    @classmethod
    def x_to_alpha_minus_1(cls, alpha, k):
        """The polynomial x^alpha - 1, the modulus of the cyclic quotient."""
        return cls.packed(1 << _layout(k).width * alpha | (1 << k) - 1, k)

    def degree(self):
        """Formal degree; None for the zero polynomial."""
        return (self.w.bit_length() - 1) // _LAYOUTS[self.k].width if self.w else None

    def is_zero(self):
        return not self.w

    def leading(self):
        return self.w >> self.degree() * _LAYOUTS[self.k].width if self.w else 0

    def has_unit_lead(self):
        """True when the leading coefficient is odd (a unit of Z/2^k)."""
        return self.leading() & 1 == 1

    def is_unit(self):
        """True for a unit of Z/2^k[x]: an odd constant term, the other coefficients even."""
        return self.w & _LAYOUTS[self.k].ones == 1

    def at_level(self, k):
        """Reinterpret the coefficients modulo 2^k (lift or reduce)."""
        if k == self.k:
            return self
        if _layout(k).width != _LAYOUTS[self.k].width:
            return Poly(self.coeffs, k)
        return Poly.packed(self.w, k)

    def reduce_cyclic(self, alpha):
        """Image in Z/2^k[x] / (x^alpha - 1): fold exponents mod alpha.

        Each pass adds the top half of the pieces of alpha fields to the
        bottom half, so the passes halve the length and cost O(len) in all."""
        lay, w = _LAYOUTS[self.k], self.w
        span = lay.width * alpha
        if w.bit_length() <= span:
            return self
        while w.bit_length() > span:
            cut = span * (-(-w.bit_length() // span) // 2)
            w = ((w & (1 << cut) - 1) + (w >> cut)) & lay.mask
        return _poly(w, self.k)

    def _check(self, other):
        if self.k != other.k:
            raise ModulusMismatch(f"k={self.k} vs k={other.k}")

    def __add__(self, other):
        self._check(other)
        return _poly((self.w + other.w) & _LAYOUTS[self.k].mask, self.k)

    def __neg__(self):
        return _poly(_LAYOUTS[self.k].neg(self.w), self.k)

    def __sub__(self, other):
        self._check(other)
        lay = _LAYOUTS[self.k]
        return _poly((self.w + lay.neg(other.w)) & lay.mask, self.k)

    def __mul__(self, other):
        self._check(other)
        lay = _LAYOUTS[self.k]
        a, b = (self.w, other.w) if self.w > other.w else (other.w, self.w)
        if a.bit_length() + b.bit_length() > lay.bits:
            lay.fit(a.bit_length() + b.bit_length())
        span = lay.width << lay.spare  # 2^S fields, the longest exact factor
        if b.bit_length() <= span:
            return _poly(a * b & lay.mask, self.k)
        out, shift, piece = 0, 0, (1 << span) - 1
        while b:
            out = (out + ((a * (b & piece) & lay.mask) << shift)) & lay.mask
            b, shift = b >> span, shift + span
        return _poly(out, self.k)

    def scale(self, c):
        lay = _LAYOUTS[self.k]
        return _poly(self.w * (c & lay.low) & lay.mask, self.k)

    def __str__(self):
        return " + ".join(
            str(c) if e == 0 else ("" if c == 1 else str(c)) + ("x" if e == 1 else f"x^{e}")
            for e, c in enumerate(self.coeffs) if c) or "0"


def poly_mul(p: Poly, q: Poly, alpha: int | None = None) -> Poly:
    """Product in Z/2^k[x], reduced via x^alpha = 1 when alpha is given."""
    r = p * q
    return r.reduce_cyclic(alpha) if alpha is not None else r


_WINDOW = 64  # quotient fields beyond which poly_divmod_unit_lead divides g in windows


def poly_divmod_unit_lead(g: Poly, f: Poly) -> tuple[Poly, Poly]:
    """Division algorithm for divisors with an odd leading coefficient.

    Returns (q, r) with g = q*f + r and r = 0 or deg r < deg f.  The
    quotient and remainder are unique because a unit-leading polynomial
    is not a zero divisor.  A quotient of up to _WINDOW fields is cleared
    from g in place; a longer one a window at a time, from the top: the
    remainder so far (below deg f) over the next _WINDOW fields of g, so
    a long g costs O(len g * (deg f + _WINDOW)), not O(len(g)^2).
    """
    if g.k != f.k:
        raise ModulusMismatch(f"k={g.k} vs k={f.k}")
    lay, fw, gw = _LAYOUTS[f.k], f.w, g.w
    if not fw:
        raise ZeroDivisionError("division by the zero polynomial")
    width, top = lay.width, (fw.bit_length() - 1) // lay.width * lay.width  # top: below f's lead
    if not fw >> top & 1:
        raise ValueError("leading coefficient is not a unit; division undefined")
    inv_lead, neg = pow(fw >> top, -1, 1 << f.k), lay.neg(fw)
    size = max(gw.bit_length() + width - 1 - top, 0) // width * width  # bits of the quotient
    step = width * _WINDOW
    if size <= step:
        q, rem = _clear(gw, size, lay, top, inv_lead, neg)
        return _poly(q, f.k), _poly(rem, f.k)
    raw, rem, q = gw.to_bytes(-(-gw.bit_length() // 8), "little"), gw >> size, []
    for end in range(size, 0, -step):
        lo = max(end - step, 0)
        part, rem = _clear(rem << end - lo | int.from_bytes(raw[lo // 8:end // 8], "little"),
                           end - lo, lay, top, inv_lead, neg)
        q.append(part.to_bytes((end - lo) // 8, "big"))
    return _poly(int.from_bytes(b"".join(q), "big"), f.k), _poly(rem, f.k)


def _clear(w, bits, lay, top, inv_lead, neg):
    """Divide w by f: clear the bits // width fields of w from bit top (f's
    lead field) up, top first, and return the quotient and the masked
    remainder (neg is 2^k - f, inv_lead the inverse of f's lead).  Each
    quotient coefficient t adds t * (2^k - f) under the field it clears: a
    field takes at most deg f + 1 such adds, each below 2^(2k), so w is
    masked once at the end unless deg f + 2 > 2^S."""
    width, low, mask, q = lay.width, lay.low, lay.mask, 0
    every_step = top // width + 2 > 1 << lay.spare
    for shift in range(bits - width, -1, -width):
        t = (w >> shift + top & low) * inv_lead & low  # quotient field shift // width
        if t:
            q |= t << shift
            w += t * neg << shift
            if every_step:
                w &= mask
    return q, w & mask


class LinearSystem:
    """A*x = b over Z/2^k; rows of equal length, entries reduced."""

    def __init__(self, matrix, rhs, k):
        mod = 1 << k
        rows = tuple(tuple(c % mod for c in row) for row in matrix)
        if len({len(r) for r in rows} | ({0} if not rows else set())) > 1:
            raise ValueError("ragged matrix")
        if len(rows) != len(rhs):
            raise ValueError("rhs length does not match row count")
        self.matrix, self.rhs, self.k = rows, tuple(b % mod for b in rhs), k


def solve_linear_mod2k(sys: LinearSystem):
    """One solution of A*x = b over Z/2^k, or None.

    b is reduced against the image pivots of transpose_echelon(A), the
    Howell form of [A^T | I]: b lies in the image iff it reduces to zero,
    and the multipliers that clear it, applied to the pivots' tails, give
    x.  The witness is deterministic, but Z/2^k has zero divisors, so it
    is one solution among several: not always the least one, nor the one
    a full-pivoting Gauss-Jordan elimination would return.
    """
    k, r = sys.k, len(sys.matrix)
    ncols = len(sys.matrix[0]) if r else 0
    pairs = transpose_echelon(list(map(Howell(ncols, k).pack, sys.matrix)), ncols, k)
    image = [row for col, _, row in pairs if col < r]
    # the heads are a Howell form already, so inserted last first each one is its own pivot
    heads = Howell(r, k)
    for row in reversed(image):
        heads.insert(heads.pack(row[:r]))
    coeffs = heads.reduce(heads.pack(sys.rhs))
    if coeffs is None:
        return None
    return [sum(q * row[r + j] for q, row in zip(coeffs, image)) % (1 << k) for j in range(ncols)]


class Howell:
    """Strong echelon (Howell) form over Z/2^k of a row span, built one row at a time.

    A row is one int, column 0 in the most significant field; a field is 2k+1
    bits rounded up to whole bytes, so rows move as bytes.  Each pivot keeps
    (2^k - p) mod 2^k per field, so clearing q < 2^k times it from a row is
    one multiply, one add and one & mask: a field stays below 2^k + (2^k - 1)^2
    < 2^(2k+1), and nothing carries across fields (the packed rows of M4RI).
    Pivots read out as (col, v, row) in column order, each leading with exactly
    2^v; they span 2^sum(k - v) words (Storjohann-Mulders 1998).
    """

    def __init__(self, ncols, k):
        self.ncols, self.k, self.low, self.width = ncols, k, (1 << k) - 1, -(-(2 * k + 1) // 8) * 8
        self.shifts = list(range(self.width * (ncols - 1), -1, -self.width))
        self.ones = ((1 << self.width * ncols) - 1) // ((1 << self.width) - 1)  # 1 a field
        self.mask, self.top = self.low * self.ones, self.ones << k  # top: 2^k in every field
        self.pivots = {}  # col -> (v, row, (2^k - row) mod 2^k)

    def pack(self, entries):
        row = 0
        for c in entries:
            row = (row << self.width) | (c & self.low)
        return row

    def insert(self, row):
        """Add the packed row to the span; True when the span grew.

        A row that takes a column (free, or held by a pivot of larger
        valuation) becomes its pivot, normalised to lead with 2^v; its
        saturation 2^(k-v)*row, then any pivot it displaced, go in next."""
        k, width, mask = self.k, self.width, self.mask
        grew, todo = False, [row]
        while todo:
            row = todo.pop()
            while row:
                col = self.ncols - 1 - (row.bit_length() - 1) // width
                e = (row >> self.shifts[col]) & self.low
                v = (e & -e).bit_length() - 1
                pivot = self.pivots.get(col)
                if pivot is not None and v >= pivot[0]:
                    row = (row + (e >> pivot[0]) * pivot[2]) & mask
                    continue
                row = row * pow(e >> v, -1, 1 << k) & mask
                self.pivots[col] = (v, row, (self.top - row) & mask)
                if pivot is not None:
                    todo.append(pivot[1])
                grew = True
                row = (row << (k - v)) & mask
        return grew

    def reduce(self, row):
        """Multipliers c < 2^(k - v) writing the packed row over the pivots, in
        column order, or None when the row is not in the span."""
        coeffs = []
        for col in sorted(self.pivots):
            v, _, neg = self.pivots[col]
            c = (row >> self.shifts[col]) & self.low
            if c & ((1 << v) - 1):
                return None
            coeffs.append(c >> v)
            row = (row + (c >> v) * neg) & self.mask
        return None if row else coeffs

    def __len__(self):
        return len(self.pivots)

    def __iter__(self):
        for col in sorted(self.pivots):
            v, row, _ = self.pivots[col]
            yield col, v, tuple((row >> e) & self.low for e in self.shifts)

    def rows(self, start=0):
        """(v, packed row) of each pivot from column start on (zero before it), in order."""
        return [(v, row) for col, (v, row, _) in sorted(self.pivots.items()) if col >= start]

    def fill(self, c, lo, hi):
        """The row with c < 2^k in columns lo to hi - 1 and zero elsewhere."""
        return c * self.ones & (1 << self.shifts[lo] + self.width) - (1 << self.shifts[hi - 1])

    def spread(self, w, nbytes, back=False):
        """The row whose fields hold the low bytes of w's fields of nbytes bytes
        (column 0 the most significant); back, the row w's fields as such fields."""
        old, new = (self.width // 8, nbytes) if back else (nbytes, self.width // 8)
        if old == new:
            return w
        raw = w.to_bytes(-(-w.bit_length() // (8 * old)) * old, "big")
        out, keep = bytearray(len(raw) // old * new), min(old, new)
        for b in range(keep):  # a strided slice per byte kept
            out[new - keep + b::new] = raw[old - keep + b::old]
        return int.from_bytes(out, "big")


def echelon_mod2k(rows, ncols, k):
    """Howell form over Z/2^k of the packed rows of Howell(ncols, k), inserted in order."""
    basis = Howell(ncols, k)
    for row in rows:
        basis.insert(row)
    return basis


def transpose_echelon(rows, ncols, k):
    """Howell form of [A^T | I] for the len(rows) x ncols matrix A over Z/2^k,
    its rows packed in Howell(ncols, k)'s layout.

    Row j is (column j of A, e_j), so the rows span the pairs (A x, x).
    With r = len(rows), the pivots in the first r columns lead the image:
    their heads reduce any A x to zero, and their tails are the x that
    reach each head.  The pivots past column r have zero heads, and their
    tails span the kernel of A.  Built as bytes: one strided slice per row
    and byte of a field moves A's fields, and one more writes I.
    """
    m, pairs = len(rows), Howell(len(rows) + ncols, k)
    step, line = pairs.width // 8, pairs.width // 8 * pairs.ncols  # line: bytes of a row
    grid = bytearray(ncols * line)
    for r, row in enumerate(rows):
        raw = row.to_bytes(ncols * step, "big")
        for b in range(step):
            grid[r * step + b::line] = raw[b::step]
    grid[(m + 1) * step - 1::line + step] = b"\1" * ncols
    for j in range(ncols):
        pairs.insert(int.from_bytes(grid[j * line:(j + 1) * line], "big"))
    return pairs


def divides_witness(f: Poly, g: Poly, alpha: int | None = None):
    """A quotient q with q*f = g in the declared ring, or None.

    With alpha, the ring is Z/2^k[x]/(x^alpha - 1); without, Z/2^k[x].
    This is the package's one division policy, in order: plain division
    for a unit-leading f when g != 0 and deg g >= deg f (an exact quotient
    is unique); the fold by x^alpha = 1; a g that is zero in the ring
    returns zero; a zero f, or a unit-leading f in the plain ring, returns
    None; otherwise q is solved for as a linear system, with deg q <= deg g
    in the plain ring and deg q < alpha in the quotient.  The plain-ring
    bound can miss a quotient: (1 + 2x)^2 = 1 over Z/4, yet
    divides_witness(1 + 2x, 1) is None.
    """
    if f.k != g.k:
        raise ModulusMismatch(f"k={f.k} vs k={g.k}")
    k, width = f.k, _LAYOUTS[f.k].width
    top = (f.w.bit_length() - 1) // width * width  # the bits below f's lead, if f != 0
    if f.w and f.w >> top & 1 and g.w.bit_length() > top:  # unit lead, g != 0, deg g >= deg f
        q, r = poly_divmod_unit_lead(g, f)
        if not r.w:
            return q
    if alpha is not None:
        f, g = f.reduce_cyclic(alpha), g.reduce_cyclic(alpha)
    if not g.w:
        return _poly(0, k)
    if not f.w or (alpha is None and f.has_unit_lead()):
        return None
    # the matrix of q -> q*f: column i is x^i*f, its coefficient j in row
    # (i + j) % size; only the quotient ring wraps
    ncols = g.degree() + 1 if alpha is None else alpha
    size = ncols + f.degree() if alpha is None else alpha
    matrix = [[0] * ncols for _ in range(size)]
    for i in range(ncols):
        for j, c in enumerate(f.coeffs):
            matrix[(i + j) % size][i] = c
    rhs = g.coeffs
    sol = solve_linear_mod2k(
        LinearSystem(tuple(map(tuple, matrix)), rhs + (0,) * (size - len(rhs)), k))
    return Poly(sol, k) if sol is not None else None


def all_polys(k, max_deg):
    """Every polynomial over Z/2^k with degree <= max_deg (testing helper)."""
    mod = 1 << k
    for coeffs in itertools.product(range(mod), repeat=max_deg + 1):
        yield Poly(coeffs, k)
