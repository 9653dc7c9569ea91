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
used for threaded scans).  The walk runs on packed words (codespace.Packing),
one add and one mask a step; Codewords are built only at the API edge.

Membership is exact: these rows can miss part of C (unit layers, even
leads), so it reduces the word against a strong echelon basis of C that
code_echelon builds from the generators' packed shifts (no cofactors),
put into Z/2^n by Packing.embed; the dual in duality starts from it too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .codespace import (BudgetExceeded, Codeword, ProfileMismatch, cyclic_shift, from_polys,
                        scalar_action)
from .generators import Cofactors, StructuredGenerators
from .modring import echelon_mod2k, echelon_reduce


@dataclass(frozen=True)
class SpanningSet:
    """Ordered labelled rows; label (i, j, k) means x^k times base (i, j)."""

    profile: object
    rows: tuple  # of (label, Codeword)
    counts: dict  # (i, j) -> row count
    coeff_bits: dict  # (i, j) -> coefficient modulus exponent
    family: StructuredGenerators
    warnings: tuple = field(default_factory=tuple)

    @functools.cached_property
    def echelon(self):
        """Echelon basis of C, built once per spanning set."""
        return code_echelon(self.family.generator_codewords(), self.profile)

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
    rows = []
    counts = {}
    coeff_bits = {}
    warnings = list(c.warnings)
    for i in g.profile.levels():
        for j in range(i):
            count = c.h_rows[(i, 0)] if j == 0 else c.m_rows[(i, j)]
            counts[(i, j)] = count
            coeff_bits[(i, j)] = i if j == 0 else i - j
            if count == 0:
                continue
            base = _base_row(g, c, i, j)
            w = base
            for k in range(count):
                rows.append(((i, j, k), w))
                if w.is_zero():
                    warnings.append({"code": "zero_row", "level": i, "index": j, "shift": k})
                w = cyclic_shift(w)
    seen = {}
    for lab, w in rows:
        seen.setdefault(w.flat(), []).append(lab)
    for flat, labs in sorted(seen.items()):
        if len(labs) > 1:
            warnings.append({"code": "duplicate_rows", "labels": labs})
    return SpanningSet(g.profile, tuple(rows), counts, coeff_bits, g, tuple(warnings))


def codeword_count_exponent(c: Cofactors) -> int:
    """t with |C| = 2^t, from the formal-degree count formula."""
    t = 0
    for (i, j), rows in c.h_rows.items():
        if j == 0:
            t += i * rows
    for (i, j), rows in c.m_rows.items():
        t += (i - j) * rows
    return t


def _digit_radices(s: SpanningSet):
    return [1 << s.coeff_bits[lab[:2]] for lab, _ in s.rows]


def span_size(s: SpanningSet) -> int:
    total = 1
    for r in _digit_radices(s):
        total *= r
    return total


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
    """Yield enumeration positions [start, stop) in order, as packed words;
    the range ends at the end of the stream.

    An odometer over the coefficient digits with a partial-sum stack and
    a table multiples[t][d] = d*row_t built by repeated addition, so each
    step costs one big-int addition and one & mask, and no row is scaled.
    """
    packing = s.profile.packing
    mask = packing.mask
    radices = _digit_radices(s)
    ndig = len(radices)
    multiples = [packing.multiples(packing.pack(row.flat()), radix)
                 for radix, (_, row) in zip(radices, s.rows)]
    digits = []
    rem = start
    for r in radices:
        digits.append(rem % r)
        rem //= r
    # sums[t] = contribution of digits t.. end; sums[ndig] = 0
    sums = [0] * (ndig + 1)
    for t in range(ndig - 1, -1, -1):
        sums[t] = (sums[t + 1] + multiples[t][digits[t]]) & mask
    for _ in range(start, min(stop, span_size(s))):
        yield sums[0]
        t = 0
        while t < ndig and digits[t] == radices[t] - 1:
            digits[t] = 0
            t += 1
        if t == ndig:
            return
        digits[t] += 1
        sums[t] = (sums[t + 1] + multiples[t][digits[t]]) & mask
        sums[:t] = [sums[t]] * t  # the digits below t are back at zero


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


def code_echelon(words, profile):
    """Echelon basis over Z/2^n of the code the words generate, in Packing.embed form.

    Built from x^k * w, k < min(lcm alpha, sum alpha): the shift has order
    lcm alpha and is killed by prod (x^alpha_i - 1), monic of degree
    sum alpha, so every later shift is a Z-combination of these."""
    packing = profile.packing
    shifts = min(profile.shift_order(), sum(profile.alphas))
    rows = []
    for w in words:
        w = packing.pack(w.flat())
        for _ in range(shifts):
            rows.append(packing.embed(w))
            w = packing.shift(w)
    return echelon_mod2k(rows, profile.n)


@dataclass(frozen=True)
class Decomposition:
    """Multipliers over s.echelon: coeffs[r] < 2^(n - v_r) for pivot r."""

    coeffs: tuple

    def evaluate(self, s: SpanningSet) -> Codeword:
        terms = [[c * p for p in row] for c, (_, _, row) in zip(self.coeffs, s.echelon)]
        packing, mod = s.profile.packing, 1 << s.profile.n
        return packing.codeword(packing.unembed([sum(col) % mod for col in zip(*terms)]))


def membership_test(v: Codeword, s: SpanningSet) -> Decomposition | None:
    """Multipliers writing v over s.echelon, or None when v is not in C.

    Exact: the embedded v is in C iff it reduces to zero against the basis.
    A word over another profile raises ProfileMismatch."""
    if v.profile != s.profile:
        raise ProfileMismatch(f"word profile {v.profile.alphas} vs code {s.profile.alphas}")
    packing = s.profile.packing
    coeffs = echelon_reduce(packing.embed(packing.pack(v.flat())), s.echelon, s.profile.n)
    return None if coeffs is None else Decomposition(tuple(coeffs))


def generator_matrix(s: SpanningSet):
    """Rows as flat residue tuples, blocks ordered Z2 first."""
    return [row.flat() for _, row in s.rows]


def matrix_to_csv(s: SpanningSet) -> str:
    return "\n".join(row.to_text() for _, row in s.rows)


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
