"""Independent reference arithmetic for checking benchmark answers.

Nothing here imports the package under test.  A code over the profile
(alpha_1..alpha_n) is handled as the Z-span of the shifts of its
generator words, embedded into (Z/2^n)^N by scaling block i by 2^(n-i).
That embedding is an injective group homomorphism, so the embedded span
has the same size as the code.  Its strong echelon form over Z/2^n (the
Howell form, reduced with minimal 2-adic valuation pivots as in
Storjohann and Mulders, "Fast algorithms for linear algebra modulo N",
ESA 1998) gives:

- the exact size: |C| = 2^sum(n - v) over the pivot valuations v;
- membership: a vector is in C iff it reduces to zero, which is the same
  as "adding it leaves |C| unchanged" (both are provided);
- the whole code, as every combination sum c_r b_r with c_r < 2^(n - v_r).

The module also has small integer-polynomial helpers used to build the
workloads, and a GF(2) divisibility test that certifies families built
to fail condition (i).
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------- polynomials
# Integer polynomials are coefficient lists, lowest power first.

def poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_trim(out)


def poly_exact_div(g, f):
    """Quotient of g by a monic f over Z; raises if the division is not exact."""
    g = list(g)
    df = len(f) - 1
    if f[-1] != 1:
        raise ValueError("divisor must be monic")
    q = [0] * max(len(g) - df, 0)
    for e in range(len(g) - 1, df - 1, -1):
        c = g[e]
        if c:
            q[e - df] = c
            for j, fc in enumerate(f):
                g[e - df + j] -= c * fc
    if any(g):
        raise ValueError("division is not exact")
    return poly_trim(q)


def divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


def cyclotomic(d, _cache={}):
    """Phi_d over Z; x^alpha - 1 is the product of Phi_d for d | alpha."""
    if d not in _cache:
        p = [-1] + [0] * (d - 1) + [1]
        for e in divisors(d)[:-1]:
            p = poly_exact_div(p, cyclotomic(e))
        _cache[d] = p
    return _cache[d]


def cyclic_mulmod(p, q, alpha, k):
    """p*q in Z/2^k[x]/(x^alpha - 1), as a length-alpha list."""
    out = [0] * alpha
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[(i + j) % alpha] += a * b
    mod = 1 << k
    return [c % mod for c in out]


def cyclic_reduce(p, alpha, k):
    out = [0] * alpha
    for e, c in enumerate(p):
        out[e % alpha] += c
    mod = 1 << k
    return [c % mod for c in out]


# ---------------------------------------------------------------- GF(2)
# Binary polynomials are ints: bit e is the x^e coefficient.

def gf2_from(p):
    bits = 0
    for e, c in enumerate(p):
        if c % 2:
            bits |= 1 << e
    return bits


def gf2_mod(a, b):
    db = b.bit_length() - 1
    while a and a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def gf2_gcd(a, b):
    while b:
        a, b = b, gf2_mod(a, b)
    return a


def gf2_cyclic_divides(f, g, alpha):
    """Whether f divides g in GF(2)[x]/(x^alpha - 1).

    The ideal generated by f is generated by gcd(f, x^alpha - 1), so the
    test is whether that gcd divides g modulo x^alpha - 1.
    """
    modulus = (1 << alpha) | 1
    g = gf2_mod(g, modulus)
    return gf2_mod(g, gf2_gcd(f, modulus)) == 0 if g else True


def certifies_condition_i_failure(a_layers, alphas):
    """True when some link a_{ij} | a_{i,j-1} fails already over GF(2).

    Divisibility mod 2^i, in the plain ring or modulo x^alpha - 1,
    implies divisibility mod 2 modulo x^alpha - 1, so a failing GF(2)
    test proves that no witness exists at level i.
    """
    for i, layer in enumerate(a_layers, start=1):
        alpha = alphas[i - 1]
        for j in range(1, i):
            if not gf2_cyclic_divides(gf2_from(layer[j]), gf2_from(layer[j - 1]), alpha):
                return True
    return False


# ---------------------------------------------------------------- words

def generator_words(doc):
    """The n generator words of a code document, as flat coordinate lists."""
    n, alphas = doc["n"], doc["alphas"]
    words = []
    for i in range(1, n + 1):
        blocks = []
        for c in range(1, n + 1):
            if c < i:
                p = doc["l"][i - 2][c - 1]
            elif c == i:
                p = [0] * (max(len(a) for a in doc["a"][i - 1]))
                for j, layer in enumerate(doc["a"][i - 1]):
                    for e, coeff in enumerate(layer):
                        p[e] += coeff << j
            else:
                p = []
            blocks.extend(cyclic_reduce(p, alphas[c - 1], c))
        words.append(blocks)
    return words


class Ambient:
    """Coordinate layout of a profile: moduli, embedding scales, shift map."""

    def __init__(self, alphas):
        self.alphas = list(alphas)
        self.n = len(alphas)
        self.modulus = 1 << self.n
        self.moduli = np.array([1 << i for i, a in enumerate(alphas, 1) for _ in range(a)],
                               dtype=np.int64)
        self.scales = self.modulus // self.moduli
        self.exponent = sum(i * a for i, a in enumerate(alphas, 1))
        shift = []
        start = 0
        for a in alphas:
            shift.extend(start + (p - 1) % a for p in range(a))
            start += a
        self.shift_src = np.array(shift, dtype=np.int64)  # rotated[p] = word[shift_src[p]]
        self.order = math.lcm(*alphas)

    def shift(self, words):
        """Rotate every block right by one position, simultaneously."""
        return words[..., self.shift_src]

    def orbit(self, words):
        """All distinct shifts of the given words."""
        cur = np.asarray(words, dtype=np.int64).reshape(-1, len(self.moduli))
        out = [cur]
        for _ in range(self.order - 1):
            cur = self.shift(cur)
            out.append(cur)
        return np.unique(np.concatenate(out), axis=0)

    def embed(self, words):
        return (np.asarray(words, dtype=np.int64) % self.moduli) * self.scales

    def unembed(self, embedded):
        return embedded // self.scales

    def inner(self, u, v):
        """Weighted pairing sum_i 2^(n-i) <u_i, v_i> mod 2^n, all pairs."""
        return (np.asarray(u) * self.scales) @ np.asarray(v).T % self.modulus

    def mixed_weights(self, words):
        """Hamming weight on the Z2 block plus Lee weights on higher blocks."""
        w = np.asarray(words, dtype=np.int64) % self.moduli
        lee = np.minimum(w, self.moduli - w)
        return lee.sum(axis=1)


def _valuation(x):
    """2-adic valuation of nonzero int64 entries."""
    low = x & -x
    return np.log2(low).astype(np.int64)


class Echelon:
    """Strong echelon form of the Z-span of some words of one profile."""

    def __init__(self, ambient: Ambient, words):
        self.ambient = ambient
        m = ambient.modulus
        pool = ambient.embed(words).reshape(-1, len(ambient.moduli)) % m
        pool = pool[pool.any(axis=1)]
        basis = []
        for col in range(pool.shape[1]):
            if not len(pool):
                break
            entries = pool[:, col]
            nz = np.nonzero(entries)[0]
            if not len(nz):
                continue
            vals = _valuation(entries[nz])
            r = nz[np.argmin(vals)]
            v = int(vals.min())
            unit = int(pool[r, col]) >> v
            pivot = pool[r] * pow(unit, -1, m) % m
            pool = (pool - (entries >> v)[:, None] * pivot) % m
            if v:
                pool = np.vstack([pool, (pivot << (ambient.n - v)) % m])
            pool = pool[pool.any(axis=1)]
            basis.append((col, v, pivot))
        self.basis = basis
        self.exponent = sum(ambient.n - v for _, v, _ in basis)

    def contains(self, words):
        """Boolean array: which words reduce to zero against the basis."""
        m = self.ambient.modulus
        x = self.ambient.embed(words).reshape(-1, len(self.ambient.moduli)) % m
        ok = np.ones(len(x), dtype=bool)
        for col, v, row in self.basis:
            e = x[:, col]
            ok &= e % (1 << v) == 0
            x = (x - (e >> v)[:, None] * row) % m
        return ok & ~x.any(axis=1)

    def all_words(self):
        """Every codeword, in original block coordinates (|C| x N array)."""
        m = self.ambient.modulus
        acc = np.zeros((1, len(self.ambient.moduli)), dtype=np.int64)
        for _, v, row in self.basis:
            order = 1 << (self.ambient.n - v)
            steps = (np.arange(order, dtype=np.int64)[:, None] * row) % m
            acc = ((acc[None, :, :] + steps[:, None, :]) % m).reshape(-1, acc.shape[1])
        return self.ambient.unembed(acc)


class CodeReference:
    """Exact facts about the code a document presents."""

    def __init__(self, doc):
        self.doc = doc
        self.ambient = Ambient(doc["alphas"])
        self.orbit = self.ambient.orbit(generator_words(doc))
        self.echelon = Echelon(self.ambient, self.orbit)
        self.exponent = self.echelon.exponent
        self.dual_exponent = self.ambient.exponent - self.exponent

    def contains(self, words):
        return self.echelon.contains(words)

    def contains_by_count(self, word):
        """Membership as "adding the word leaves |C| unchanged"."""
        grown = Echelon(self.ambient, np.vstack([self.orbit, np.asarray(word)[None, :]]))
        return grown.exponent == self.exponent

    def span_exponent(self, words):
        """log2 of the size of the Z-span of the given words."""
        return Echelon(self.ambient, words).exponent if len(words) else 0

    def weight_distribution(self):
        weights = self.ambient.mixed_weights(self.echelon.all_words())
        counts = np.bincount(weights)
        return {int(w): int(c) for w, c in enumerate(counts) if c}

    def random_members(self, rng, count):
        """Random integer combinations of the orbit."""
        coeffs = np.array([[rng.randrange(self.ambient.modulus) for _ in range(len(self.orbit))]
                           for _ in range(count)], dtype=np.int64)
        return (coeffs @ self.orbit) % self.ambient.moduli

    def random_non_members(self, rng, count, tries=200):
        out = []
        for _ in range(tries):
            if len(out) == count:
                break
            w = np.array([rng.randrange(int(q)) for q in self.ambient.moduli], dtype=np.int64)
            if not self.contains(w[None, :])[0]:
                out.append(w)
        return np.array(out, dtype=np.int64).reshape(-1, len(self.ambient.moduli))


def word_text(word, alphas):
    parts = []
    pos = 0
    for a in alphas:
        parts.append(",".join(str(int(c)) for c in word[pos:pos + a]))
        pos += a
    return "|".join(parts)


def parse_word(text, alphas):
    blocks = text.split("|")
    if len(blocks) != len(alphas):
        raise ValueError(f"expected {len(alphas)} blocks in {text!r}")
    flat = []
    for block, a in zip(blocks, alphas):
        coords = [int(c) for c in block.split(",")] if block else []
        if len(coords) != a:
            raise ValueError(f"block of length {len(coords)}, expected {a}")
        flat.extend(coords)
    return flat
