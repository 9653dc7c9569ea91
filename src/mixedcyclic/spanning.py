"""Minimal spanning sets, counting, enumeration, membership, matrices.

For a validated generator family the spanning set splits into labelled
blocks: block (i, 0) holds the shifts x^k * (generator i), k < deg h_{i0},
and block (i, j), j >= 1, the shifts x^k * (h_{i,j-1} * generator i),
k < deg m_{ij}, under the module action.  The level-i entry of such a row
keeps only the layers 2^p a_{ip} with p >= j: a_{i,j-1} divides the lower
ones by the condition (i) chain, and h_{i,j-1} a_{i,j-1} = x^alpha_i - 1.

Block sizes follow the formal degrees recorded in Cofactors.  Every
codeword is a combination with block coefficients drawn from Z/2^i for
j = 0 and Z/2^(i-j) for j >= 1; the code size is 2^t with

    t = sum_i ( i*deg h_{i0} + sum_{j>=1} (i-j)*deg m_{ij} ).

Enumeration walks the coefficient tuples lexicographically with the
lowest (i, j, k) position varying fastest, so streams are reproducible
and an index range addresses a contiguous slice (the partition contract
used for threaded scans).  walk, the one enumeration of a span, adds packed
words (codespace.Packing) over any rows and radices in Four-Russians chunks,
a table of the lowest digits' sums plus the sum of the others that each
chunk's index picks; the dual in duality lists C-perp's basis through it
too.  Codewords are built only at the API edge.

Membership is exact: these rows can miss part of C (unit layers, even
leads), so it reduces the packed, embedded word against the Howell form of
C that Code builds from the generators (no cofactors), one shift at a time
until a shift adds nothing.  The family keeps one Code (StructuredGenerators
.code); count reads its exponent, and Code.dual lists C-perp from it.
"""

from __future__ import annotations

import itertools
import math

from .codespace import BudgetExceeded, Codeword, ProfileMismatch, from_polys, scalar_action
from .generators import Cofactors, StructuredGenerators
from .modring import Howell, echelon_mod2k, transpose_echelon

_TABLE_LIMIT = 1 << 12  # positions in one chunk table of walk


class SpanningSet:
    """Ordered labelled rows; label (i, j, k) means x^k times base (i, j)."""

    def __init__(self, profile, rows, counts, radices, family, warnings=()):
        self.profile, self.family, self.warnings = profile, family, warnings
        self.rows = rows  # of (label, Codeword)
        self.counts = counts  # (i, j) -> row count
        self.radices = radices  # per row: its coefficient modulus 2^i or 2^(i-j)

    def row_codewords(self):
        return [r for _, r in self.rows]

    def labels(self):
        return [lab for lab, _ in self.rows]


def _base_row(g: StructuredGenerators, c: Cofactors, i, j):
    if j == 0:
        return g.generator_codeword(i)
    return from_polys(scalar_action(c.h[(i, j - 1)], g.generator_tuple(i)))


def build_spanning_set(g: StructuredGenerators, c: Cofactors) -> SpanningSet:
    """Assemble all blocks; zero rows and duplicates are kept but flagged."""
    rows, counts, radices, packing = [], {}, [], g.profile.packing
    warnings, seen = list(c.warnings), {}  # seen: packed row -> its labels
    for i in g.profile.levels():
        for j in range(i):
            count = c.h_rows[(i, 0)] if j == 0 else c.m_rows[(i, j)]
            counts[(i, j)] = count
            if count == 0:
                continue
            w = _base_row(g, c, i, j).w
            radices += [1 << (i if j == 0 else i - j)] * count
            for k in range(count):
                rows.append(((i, j, k), packing.codeword(w)))
                seen.setdefault(w, []).append((i, j, k))
                if not w:
                    warnings.append({"code": "zero_row", "level": i, "index": j, "shift": k})
                w = packing.shift(w)
    for _, labs in sorted(seen.items()):  # int order is flat() order
        if len(labs) > 1:
            warnings.append({"code": "duplicate_rows", "labels": labs})
    return SpanningSet(g.profile, tuple(rows), counts, tuple(radices), g, tuple(warnings))


def codeword_count_exponent(c: Cofactors) -> int:
    """t with |C| = 2^t, from the formal-degree count formula."""
    t = 0
    for (i, j), rows in c.h_rows.items():
        if j == 0:
            t += i * rows
    for (i, j), rows in c.m_rows.items():
        t += (i - j) * rows
    return t


def span_size(s: SpanningSet) -> int:
    return math.prod(s.radices)


def codeword_at_index(s: SpanningSet, index: int) -> Codeword:
    """Random access into the enumeration order (digit 0 varies fastest)."""
    if not 0 <= index < span_size(s):
        raise IndexError(f"enumeration index {index} outside [0, {span_size(s)})")
    return next(iter_codeword_range(s, index, index + 1))


def iter_codeword_range(s: SpanningSet, start: int, stop: int):
    """Positions [start, stop) of the enumeration, as Codewords: the API
    edge of iter_packed_range, decoding each packed word."""
    return map(s.profile.packing.codeword, iter_packed_range(s, start, stop))


def iter_packed_range(s: SpanningSet, start: int, stop: int):
    """Enumeration positions [start, stop) in order, as packed words: the
    walk of the spanning rows with their radices."""
    return walk(s.profile.packing, [row.w for _, row in s.rows], s.radices, start, stop)


def walk(packing, rows, radices, start, stop):
    """Positions [start, stop) of the span of the packed rows, position k
    being sum_t d_t * rows[t] for the digits d_t < radices[t] of k (digit 0
    fastest); the range is clamped to the stream's positions [0, prod(radices)).

    A Four-Russians walk (the table of M4RI): the lowest digits, as many as
    span at most min(_TABLE_LIMIT, stop - start) positions, become a table of
    all their sums d*row_t, one comprehension a digit; each chunk adds to the
    whole table the sum of the other digits' multiples that its own index
    gives, one comprehension a chunk.  The chunks are chained, so consumers
    pull words at C speed; an empty range yields nothing.
    """
    mask = packing.mask
    start, stop = max(start, 0), min(stop, math.prod(radices))
    multiples = []  # [0, w, 2w, ..., (radix-1)w] a row, by repeated addition
    for w, radix in zip(rows, radices):
        table = [0]
        for _ in range(radix - 1):
            table.append((table[-1] + w) & mask)
        multiples.append(table)
    table, low = [0], 0
    while low < len(radices) and len(table) * radices[low] <= min(_TABLE_LIMIT, stop - start):
        table = [(x + m) & mask for m in multiples[low] for x in table]
        low += 1
    return itertools.chain.from_iterable(
        _table_chunks(table, radices[low:], multiples[low:], mask, start, stop))


def _table_chunks(table, radices, multiples, mask, start, stop):
    """The chunks of walk, from the one holding start to the one holding
    stop - 1: chunk c is table plus the sum that c's mixed-radix digits pick
    from the high rows' multiples, masked after every add (a field has room
    for n + 1 bits: a sum of two words, not always of three)."""
    size = len(table)
    (first, lo), (last, hi) = divmod(start, size), divmod(stop - 1, size)
    for c in range(first, last + 1):
        offset, q = 0, c
        for radix, m in zip(radices, multiples):
            q, d = divmod(q, radix)
            offset = (offset + m[d]) & mask
        part = table[lo if c == first else 0:hi + 1 if c == last else size]
        yield [(offset + x) & mask for x in part] if offset else part


def enumerate_codewords(s: SpanningSet, budget=1 << 16):
    """All coefficient combinations in canonical order (may repeat words)."""
    total = span_size(s)
    if total > budget:
        raise BudgetExceeded(f"would enumerate {total} combinations, budget {budget}")
    return iter_codeword_range(s, 0, total)


def distinct_codewords(s: SpanningSet, budget=1 << 16):
    """The enumerated set keyed canonically, plus the raw stream length."""
    seen = {}
    total = 0
    for w in enumerate_codewords(s, budget):
        total += 1
        seen.setdefault(w.flat(), w)
    return seen, total


class Code:
    """The cyclic code packed words generate: basis, its Howell form over Z/2^n in
    Packing.embed form, and |C| = 2^exponent, read off the pivot valuations.  row
    byte-spreads a word into Howell fields, then shifts block i up by n - i."""

    def __init__(self, words, profile):
        """Each word's orbit goes in one shift at a time and stops at the first
        x^k w the span already holds.  That is exact: the module M of the
        earlier words is shift-closed, so if x^k w lies in M + span(w, ...,
        x^(k-1) w), that sum is shift-closed too and holds every later shift.
        The orbit needs no bound, since x^lcm(alpha) w = w."""
        packing, n = profile.packing, profile.n
        self.profile, self.packing, self.basis = profile, packing, Howell(sum(profile.alphas), n)
        # per block: 2^i - 1 in each of its fields, and 2^(n - i)
        self.blocks = [(self.basis.fill((1 << i) - 1, lo, hi), n - i)
                       for i, (lo, hi) in enumerate(packing.blocks, start=1)]
        for w in words:
            while self.basis.insert(self.row(w)):
                w = packing.shift(w)
        self.exponent = sum(n - v for v, _ in self.basis.rows())

    def row(self, w):
        """basis.pack(packing.embed(w)) of the packed word w."""
        return self._embed(self.basis.spread(w, self.packing.field_bytes))

    def word(self, row):
        """packing.unembed of a Howell row in the embedding's image."""
        return self.basis.spread(sum((row >> e) & m for m, e in self.blocks),
                                 self.packing.field_bytes, back=True)

    def _embed(self, row):
        """Field entries of block i read mod 2^i and scaled by 2^(n - i)."""
        return sum((row & m) << e for m, e in self.blocks)

    def reduce(self, w):
        """Multipliers c_r < 2^(n - v_r) writing the packed word w over the
        pivots, in column order, or None when w is not in C."""
        return self.basis.reduce(self.row(w))

    def dual(self, budget):
        """Sorted packed words of C-perp and its cyclic flag; over budget words, BudgetExceeded."""
        n, code, packing = self.profile.n, self.basis, self.packing
        # A's kernel, the tails of [A^T | I] past A's rows, read mod 2^i in block i, spans C-perp
        pairs = transpose_echelon([row for _, row in code.rows()], code.ncols, n)
        basis = echelon_mod2k([self._embed(r) for _, r in pairs.rows(len(code))], code.ncols, n)
        pivots = [(v, self.word(row)) for v, row in basis.rows()]
        exponent = sum(n - v for v, _ in pivots)
        if exponent + self.exponent != self.profile.space_size_exponent():
            raise AssertionError("|C| * |C-perp| != |ambient|")
        if 1 << exponent > budget:
            raise BudgetExceeded(f"dual has 2^{exponent} words, budget {budget}")
        # the shift is additive: C-perp is shift-closed iff every shifted basis row is in it
        cyclic = all(basis.reduce(self.row(packing.shift(w))) is not None for _, w in pivots)
        # multipliers c < 2^(n - v): every word once
        words = walk(packing, [w for _, w in pivots], [1 << (n - v) for v, _ in pivots],
                     0, 1 << exponent)
        return sorted(words), cyclic  # int order is flat() order


class Decomposition:
    """Multipliers over C's basis (s.family.code): coeffs[r] < 2^(n - v_r) for pivot r."""

    def __init__(self, coeffs):
        self.coeffs = coeffs

    def evaluate(self, s: SpanningSet) -> Codeword:
        terms = [[c * p for p in row] for c, (_, _, row) in zip(self.coeffs, s.family.code.basis)]
        packing, mod = s.profile.packing, 1 << s.profile.n
        return packing.codeword(packing.unembed([sum(col) % mod for col in zip(*terms)]))


def membership_test(v: Codeword, s: SpanningSet) -> Decomposition | None:
    """Multipliers writing v over C's basis (s.family.code), or None when v is not in C.

    Exact: the embedded v is in C iff it reduces to zero against the basis.
    A word over another profile raises ProfileMismatch."""
    if v.profile != s.profile:
        raise ProfileMismatch(f"word profile {v.profile.alphas} vs code {s.profile.alphas}")
    coeffs = s.family.code.reduce(v.w)
    return None if coeffs is None else Decomposition(tuple(coeffs))


def generator_matrix(s: SpanningSet):
    """Rows as flat residue tuples, blocks ordered Z2 first."""
    return [row.flat() for _, row in s.rows]


def matrix_to_csv(s: SpanningSet) -> str:
    return s.profile.packing.render([row.w for _, row in s.rows])


def matrix_to_json_payload(s: SpanningSet):
    return {
        "alphas": list(s.profile.alphas),
        "labels": [list(lab) for lab in s.labels()],
        "rows": [list(row.flat()) for _, row in s.rows],
    }


def parse_matrix_csv(profile, text):
    """Codeword rows of a reference matrix; blank and # lines are skipped.

    A malformed row raises ValueError naming its line in the file.
    """
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append(Codeword.from_text(profile, line))
        except ValueError as err:
            raise ValueError(f"reference matrix line {lineno}: {err}") from err
    return rows


def diff_against_reference(s: SpanningSet, reference_rows):
    """Structured comparison of the built matrix against a reference.

    Reference rows are matched greedily, in order, against the first
    unconsumed produced row with identical content.  Reference rows with
    no counterpart are flagged, and flagged as duplicates when an earlier
    reference row already consumed that content; produced rows with no
    counterpart are listed too (zero rows called out separately).
    """
    produced = [(lab, row.flat()) for lab, row in s.rows]
    consumed = [False] * len(produced)
    matched_ref_content = {}
    matches = []
    unmatched_reference = []
    duplicate_reference = []
    for r, ref in enumerate(reference_rows, start=1):
        content = ref.flat()
        hit = None
        for idx, (lab, flat) in enumerate(produced):
            if not consumed[idx] and flat == content:
                hit = idx
                break
        if hit is not None:
            consumed[hit] = True
            matches.append({"reference_row": r, "label": list(produced[hit][0])})
            matched_ref_content.setdefault(content, r)
        elif content in matched_ref_content:
            duplicate_reference.append(
                {"reference_row": r, "duplicate_of": matched_ref_content[content]})
        else:
            unmatched_reference.append({"reference_row": r})
    unmatched_produced = [
        {"label": list(lab), "zero_row": all(x == 0 for x in flat)}
        for (lab, flat), used in zip(produced, consumed) if not used
    ]
    return {
        "matches": matches,
        "duplicate_reference_rows": duplicate_reference,
        "unmatched_reference_rows": unmatched_reference,
        "unmatched_produced_rows": unmatched_produced,
    }
