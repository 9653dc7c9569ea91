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
from dataclasses import dataclass


class ModulusMismatch(ValueError):
    """Operands live over different moduli 2^k."""


def _strip(coeffs):
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


@dataclass(frozen=True)
class Poly:
    """Polynomial over Z/2^k, ascending powers, no trailing zeros."""

    coeffs: tuple
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("modulus exponent k must be >= 1")
        mod = 1 << self.k
        object.__setattr__(self, "coeffs", _strip([c % mod for c in self.coeffs]))

    @classmethod
    def zero(cls, k):
        return cls((), k)

    @classmethod
    def one(cls, k):
        return cls((1,), k)

    @classmethod
    def x_pow(cls, e, k, scale=1):
        return cls((0,) * e + (scale,), k)

    @classmethod
    def x_to_alpha_minus_1(cls, alpha, k):
        """The polynomial x^alpha - 1, the modulus of the cyclic quotient."""
        return cls((-1,) + (0,) * (alpha - 1) + (1,), k)

    @property
    def modulus(self):
        return 1 << self.k

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


@dataclass(frozen=True)
class LinearSystem:
    """A*x = b over Z/2^k; rows of equal length, entries reduced."""

    matrix: tuple
    rhs: tuple
    k: int

    def __post_init__(self):
        mod = 1 << self.k
        rows = tuple(tuple(c % mod for c in row) for row in self.matrix)
        if len({len(r) for r in rows} | ({0} if not rows else set())) > 1:
            raise ValueError("ragged matrix")
        if len(rows) != len(self.rhs):
            raise ValueError("rhs length does not match row count")
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "rhs", tuple(b % mod for b in self.rhs))


def _val2(c, k):
    """2-adic valuation inside Z/2^k; k for the zero residue."""
    if c == 0:
        return k
    v = 0
    while c % 2 == 0:
        c //= 2
        v += 1
    return v


def solve_linear_mod2k(sys: LinearSystem):
    """One solution of A*x = b over Z/2^k, or None.

    Gaussian elimination with full pivoting on minimal 2-adic valuation:
    the pivot entry 2^v * u (u odd) is normalised to 2^v, every remaining
    entry then has valuation >= v, and back-substitution solves each pivot
    equation iff its residual right-hand side has valuation >= v.  Free
    variables take 0 and each pivot takes its least admissible value, so
    the returned witness is deterministic.
    """
    k = sys.k
    mod = 1 << k
    a = [list(row) for row in sys.matrix]
    b = list(sys.rhs)
    nrows = len(a)
    ncols = len(a[0]) if a else 0

    pivots = []  # (row, col, valuation), in elimination order
    used_cols = set()
    r = 0
    while r < nrows:
        best = None
        for i in range(r, nrows):
            for j in range(ncols):
                if j in used_cols or a[i][j] == 0:
                    continue
                v = _val2(a[i][j], k)
                if best is None or v < best[0]:
                    best = (v, i, j)
        if best is None:
            break
        v, i, j = best
        a[r], a[i] = a[i], a[r]
        b[r], b[i] = b[i], b[r]
        unit = a[r][j] >> v
        inv = pow(unit, -1, mod)
        a[r] = [(c * inv) % mod for c in a[r]]
        b[r] = (b[r] * inv) % mod
        for i in range(nrows):
            if i == r or a[i][j] == 0:
                continue
            t = a[i][j] >> v  # exact: every remaining entry has valuation >= v
            a[i] = [(c - t * p) % mod for c, p in zip(a[i], a[r])]
            b[i] = (b[i] - t * b[r]) % mod
        pivots.append((r, j, v))
        used_cols.add(j)
        r += 1

    for i in range(r, nrows):
        if b[i] % mod != 0:
            return None

    x = [0] * ncols
    for row, col, v in reversed(pivots):
        residual = b[row]
        for j in range(ncols):
            if j != col and a[row][j]:
                residual -= a[row][j] * x[j]
        residual %= mod
        if residual % (1 << v) != 0:
            return None
        x[col] = (residual >> v) % (1 << (k - v)) if v < k else 0
    return x


def divides_witness(f: Poly, g: Poly, alpha: int | None = None):
    """A quotient q with q*f = g in the declared ring, or None.

    With alpha, the ring is Z/2^k[x]/(x^alpha - 1); without, Z/2^k[x].
    This is the package's one division policy: a zero g returns zero
    (sparing a zero bracket the alpha x alpha solve); a unit-leading f
    with deg g >= deg f gets plain division, whose quotient is returned
    when exact (it is then unique); without alpha a unit-leading f stops
    there, and otherwise q is solved for as a linear system, with
    deg q <= deg g in the plain ring and deg q < alpha in the quotient.
    """
    if f.k != g.k:
        raise ModulusMismatch(f"k={f.k} vs k={g.k}")
    k = f.k
    if g.is_zero():
        return Poly.zero(k)
    if f.has_unit_lead():
        if g.degree() >= f.degree():
            q, r = poly_divmod_unit_lead(g, f)
            if r.is_zero():
                return q
        if alpha is None:
            return None
    if alpha is None:
        if f.is_zero():
            return None
        deg_q = g.degree()
        rows = deg_q + f.degree() + 1
        matrix = [
            [f.coeff(e - i) if 0 <= e - i else 0 for i in range(deg_q + 1)]
            for e in range(rows)
        ]
        sol = solve_linear_mod2k(LinearSystem(tuple(map(tuple, matrix)), tuple(g.coeff(e) for e in range(rows)), k))
        return Poly(sol, k) if sol is not None else None

    fr = f.reduce_cyclic(alpha)
    gr = g.reduce_cyclic(alpha)
    if fr.is_zero():
        return Poly.zero(k) if gr.is_zero() else None
    matrix = [[0] * alpha for _ in range(alpha)]
    for i in range(alpha):
        for j in range(alpha):
            matrix[(i + j) % alpha][i] += fr.coeff(j)
    sol = solve_linear_mod2k(
        LinearSystem(tuple(map(tuple, matrix)), tuple(gr.coeff(e) for e in range(alpha)), k)
    )
    return Poly(sol, k) if sol is not None else None


def all_polys(k, max_deg):
    """Every polynomial over Z/2^k with degree <= max_deg (testing helper)."""
    mod = 1 << k
    for coeffs in itertools.product(range(mod), repeat=max_deg + 1):
        yield Poly(coeffs, k)
