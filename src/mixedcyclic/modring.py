"""Exact polynomial arithmetic over Z/2^k and in Z/2^k[x] modulo x^alpha - 1.

Coefficients are plain Python ints kept reduced into [0, 2^k); the modulus
exponent k travels with the polynomial.  Z/2^k is a chain ring, not a
domain: "f divides g" is decided by divides_witness, which owns the
division policy (plain division, then a linear system for the quotient);
quotients are not unique in general and any witness is acceptable.

Degrees are formal: the leading coefficient may be a zero divisor
(2x^2 + 3 over Z/4 has degree 2).  The zero polynomial has degree None,
never -1, so callers must guard before doing arithmetic on degrees.
"""

from __future__ import annotations

import itertools


class ModulusMismatch(ValueError):
    """Operands live over different moduli 2^k."""


def _strip(coeffs):
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class Poly:
    """Polynomial over Z/2^k, ascending powers, no trailing zeros."""

    __slots__ = ("coeffs", "k")

    def __init__(self, coeffs, k):
        if k < 1:
            raise ValueError("modulus exponent k must be >= 1")
        self.coeffs, self.k = _strip([c & ((1 << k) - 1) for c in coeffs]), k

    def __eq__(self, other):
        return other.__class__ is Poly and self.coeffs == other.coeffs and self.k == other.k

    def __hash__(self):
        return hash((self.coeffs, self.k))

    def __repr__(self):
        return f"Poly({self.coeffs!r}, {self.k!r})"

    @classmethod
    def zero(cls, k):
        return cls((), k)

    @classmethod
    def one(cls, k):
        return cls((1,), k)

    @classmethod
    def x_to_alpha_minus_1(cls, alpha, k):
        """The polynomial x^alpha - 1, the modulus of the cyclic quotient."""
        return cls((-1,) + (0,) * (alpha - 1) + (1,), k)

    def degree(self):
        """Formal degree; None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self):
        return not self.coeffs

    def coeff(self, e):
        return self.coeffs[e] if e < len(self.coeffs) else 0

    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def has_unit_lead(self):
        """True when the leading coefficient is odd (a unit of Z/2^k)."""
        return bool(self.coeffs) and self.coeffs[-1] % 2 == 1

    def at_level(self, k):
        """Reinterpret the coefficients modulo 2^k (lift or reduce)."""
        if k == self.k:
            return self
        return Poly(self.coeffs, k)

    def reduce_cyclic(self, alpha):
        """Image in Z/2^k[x] / (x^alpha - 1): fold exponents mod alpha."""
        if len(self.coeffs) <= alpha:
            return self
        out = [0] * alpha
        for e, c in enumerate(self.coeffs):
            out[e % alpha] += c
        return Poly(out, self.k)

    def _check(self, other):
        if self.k != other.k:
            raise ModulusMismatch(f"k={self.k} vs k={other.k}")

    def __add__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(e) + other.coeff(e) for e in range(n)], self.k)

    def __neg__(self):
        return Poly([-c for c in self.coeffs], self.k)

    def __sub__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(e) - other.coeff(e) for e in range(n)], self.k)

    def __mul__(self, other):
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.k)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out, self.k)

    def scale(self, c):
        return Poly([c * a for a in self.coeffs], self.k)

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if e == 0:
                terms.append(str(c))
            else:
                xe = "x" if e == 1 else f"x^{e}"
                terms.append(xe if c == 1 else f"{c}{xe}")
        return " + ".join(terms)


def poly_mul(p: Poly, q: Poly, alpha: int | None = None) -> Poly:
    """Product in Z/2^k[x], reduced via x^alpha = 1 when alpha is given."""
    r = p * q
    return r.reduce_cyclic(alpha) if alpha is not None else r


def poly_divmod_unit_lead(g: Poly, f: Poly) -> tuple[Poly, Poly]:
    """Division algorithm for divisors with an odd leading coefficient.

    Returns (q, r) with g = q*f + r and r = 0 or deg r < deg f.  The
    quotient and remainder are unique because a unit-leading polynomial
    is not a zero divisor.
    """
    if g.k != f.k:
        raise ModulusMismatch(f"k={g.k} vs k={f.k}")
    if f.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if not f.has_unit_lead():
        raise ValueError("leading coefficient is not a unit; division undefined")
    mod = 1 << f.k
    inv_lead = pow(f.leading(), -1, mod)
    df = f.degree()
    rem = list(g.coeffs)
    q = [0] * max(len(rem) - df, 0)
    for e in range(len(rem) - 1, df - 1, -1):
        c = rem[e] % mod
        if c == 0:
            continue
        t = (c * inv_lead) % mod
        q[e - df] = t
        for j, fc in enumerate(f.coeffs):
            rem[e - df + j] = (rem[e - df + j] - t * fc) % mod
    return Poly(q, g.k), Poly(rem, g.k)


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
    image = [row for col, _, row in transpose_echelon(sys.matrix, ncols, k) if col < r]
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

    A row is one int: column 0 fills the most significant field, and each
    field is 2k+1 bits wide.  Each pivot keeps (2^k - p) mod 2^k per field,
    so clearing q < 2^k times it from a row is one multiply, one add and
    one & mask: a field stays below 2^k + (2^k - 1)^2 < 2^(2k+1), and
    nothing carries across fields (the packed rows of M4RI).  Pivots read
    out as (col, v, row) in column order, each leading with exactly 2^v;
    they span 2^sum(k - v) words (Storjohann-Mulders 1998).
    """

    def __init__(self, ncols, k):
        self.ncols, self.k, self.width, self.low = ncols, k, 2 * k + 1, (1 << k) - 1
        self.shifts = [self.width * c for c in range(ncols - 1, -1, -1)]
        ones = sum(1 << e for e in self.shifts)
        self.mask, self.top = self.low * ones, ones << k  # top: 2^k in every field
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


def echelon_mod2k(rows, k):
    """Howell form over Z/2^k of the Z-span of rows (equal-length lists), inserted in order."""
    basis = Howell(len(rows[0]) if rows else 0, k)
    for row in rows:
        basis.insert(basis.pack(row))
    return basis


def transpose_echelon(matrix, ncols, k):
    """Howell form of [A^T | I] for the len(matrix) x ncols matrix A over Z/2^k.

    Row j is (column j of A, e_j), so the rows span the pairs (A x, x).
    With r = len(matrix), the pivots in the first r columns lead the
    image: their heads reduce any A x to zero, and their tails are the x
    that reach each head.  The pivots past column r have zero heads, and
    their tails span the kernel of A.
    """
    return echelon_mod2k([[row[j] for row in matrix] + [int(j == c) for c in range(ncols)]
                          for j in range(ncols)], k)


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
    k = f.k
    if f.has_unit_lead() and not g.is_zero() and g.degree() >= f.degree():
        q, r = poly_divmod_unit_lead(g, f)
        if r.is_zero():
            return q
    if alpha is not None:
        f, g = f.reduce_cyclic(alpha), g.reduce_cyclic(alpha)
    if g.is_zero():
        return Poly.zero(k)
    if f.is_zero() or (alpha is None and f.has_unit_lead()):
        return None
    # the matrix of q -> q*f: column i is x^i*f, its coefficient j in row
    # (i + j) % size; only the quotient ring wraps
    ncols = g.degree() + 1 if alpha is None else alpha
    size = ncols + f.degree() if alpha is None else alpha
    matrix = [[0] * ncols for _ in range(size)]
    for i in range(ncols):
        for j, c in enumerate(f.coeffs):
            matrix[(i + j) % size][i] = c
    sol = solve_linear_mod2k(
        LinearSystem(tuple(map(tuple, matrix)), tuple(g.coeff(e) for e in range(size)), k)
    )
    return Poly(sol, k) if sol is not None else None


def all_polys(k, max_deg):
    """Every polynomial over Z/2^k with degree <= max_deg (testing helper)."""
    mod = 1 << k
    for coeffs in itertools.product(range(mod), repeat=max_deg + 1):
        yield Poly(coeffs, k)
