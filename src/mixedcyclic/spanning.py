"""Minimal spanning sets, counting, enumeration, membership, matrices.

For a validated generator family the spanning set splits into labelled
blocks: block (i, 0) holds the shifts x^k * (generator i) for
k < deg h_{i0}, and block (i, j), j >= 1, holds the shifts of the
h_{i,j-1}-scaled generator whose level-i entry keeps only the layers
2^p a_{ip} with p >= j:

    x^k * (l_{i1} h_{i,j-1}, ..., l_{i,i-1} h_{i,j-1},
           sum_{p=j}^{i-1} 2^p a_{ip} h_{i,j-1}, 0, ..., 0),  k < deg m_{ij}.

Block sizes follow the formal degrees recorded in Cofactors.  Every
codeword is a combination with block coefficients drawn from Z/2^i for
j = 0 and Z/2^(i-j) for j >= 1; the code size is 2^t with

    t = sum_i ( i*deg h_{i0} + sum_{j>=1} (i-j)*deg m_{ij} ).

Enumeration walks the coefficient tuples lexicographically with the
lowest (i, j, k) position varying fastest, so streams are reproducible
and an index range addresses a contiguous slice (the partition contract
used for threaded scans).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .codespace import BudgetExceeded, Codeword, cyclic_shift, from_polys
from .generators import Cofactors, StructuredGenerators
from .modring import LinearSystem, Poly, solve_linear_mod2k


@dataclass(frozen=True)
class SpanningSet:
    """Ordered labelled rows; label (i, j, k) means x^k times base (i, j)."""

    profile: object
    rows: tuple  # of (label, Codeword)
    counts: dict  # (i, j) -> row count
    coeff_bits: dict  # (i, j) -> coefficient modulus exponent
    warnings: tuple = field(default_factory=tuple)

    def row_codewords(self):
        return [r for _, r in self.rows]

    def labels(self):
        return [lab for lab, _ in self.rows]


def _base_row(g: StructuredGenerators, c: Cofactors, i, j):
    from .codespace import PolyTuple

    profile = g.profile
    if j == 0:
        return g.generator_codeword(i)
    h = c.h[(i, j - 1)]
    polys = []
    for comp in range(1, profile.n + 1):
        if comp > i:
            polys.append(Poly.zero(comp))
            continue
        if comp < i:
            p = g.l(i, comp).at_level(comp)
        else:
            p = Poly.zero(i)
            for layer in range(j, i):
                p = p + g.a(i, layer).scale(1 << layer)
        polys.append((p * h.at_level(comp)).reduce_cyclic(profile.alpha(comp)))
    return from_polys(PolyTuple(profile, tuple(polys)))


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
    return SpanningSet(g.profile, tuple(rows), counts, coeff_bits, tuple(warnings))


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
    acc = Codeword.zero(s.profile)
    for radix, (_, row) in zip(_digit_radices(s), s.rows):
        index, digit = divmod(index, radix)
        if digit:
            acc = acc + row.int_scale(digit)
    return acc


def iter_codeword_range(s: SpanningSet, start: int, stop: int):
    """Yield enumeration positions [start, stop) in order.

    An odometer over the coefficient digits with a partial-sum stack, so
    each step costs one row addition instead of a full recombination.
    """
    radices = _digit_radices(s)
    rows = [row for _, row in s.rows]
    ndig = len(radices)
    zero = Codeword.zero(s.profile)
    if not ndig:
        if start <= 0 < stop:
            yield zero
        return
    digits = []
    rem = start
    for r in radices:
        digits.append(rem % r)
        rem //= r
    # sums[t] = contribution of digits t.. end; sums[ndig] = 0
    sums = [zero] * (ndig + 1)
    for t in range(ndig - 1, -1, -1):
        sums[t] = sums[t + 1] + rows[t].int_scale(digits[t]) if digits[t] else sums[t + 1]
    for _ in range(start, stop):
        yield sums[0]
        t = 0
        while t < ndig and digits[t] == radices[t] - 1:
            digits[t] = 0
            t += 1
        if t == ndig:
            return
        digits[t] += 1
        sums[t] = sums[t + 1] + rows[t].int_scale(digits[t])
        for u in range(t - 1, -1, -1):
            sums[u] = sums[u + 1]


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


@dataclass(frozen=True)
class Decomposition:
    """Block coefficients e_{ij} with their degree and modulus bounds."""

    e: dict  # (i, j) -> Poly over Z/2^i (j = 0) or Z/2^(i-j)

    def evaluate(self, s: SpanningSet) -> Codeword:
        acc = Codeword.zero(s.profile)
        for lab, row in s.rows:
            i, j, k = lab
            coeff = self.e[(i, j)].coeff(k)
            if coeff:
                acc = acc + row.int_scale(coeff)
        return acc


def membership_test(v: Codeword, s: SpanningSet) -> Decomposition | None:
    """Solve for block coefficients, one component level at a time.

    Level c only involves blocks (c, j): higher blocks were already fixed
    and subtracted, lower blocks vanish above their level.  Each level is
    one linear system mod 2^c; the block coefficients are then reduced
    into their declared domains (which leaves component c untouched,
    since block (c, j) rows carry a factor 2^j there) and the full
    contribution is subtracted before descending.
    """
    profile = s.profile
    residual = v
    e = {}
    for c in range(profile.n, 0, -1):
        level_rows = [(lab, row) for lab, row in s.rows if lab[0] == c]
        cols = len(level_rows)
        alpha = profile.alpha(c)
        matrix = tuple(
            tuple(row.block(c)[pos] for _, row in level_rows) for pos in range(alpha)
        )
        rhs = tuple(residual.block(c))
        if cols == 0:
            if any(x % (1 << c) for x in rhs):
                return None
            for j in range(c):
                e[(c, j)] = Poly.zero(c if j == 0 else c - j)
            continue
        sol = solve_linear_mod2k(LinearSystem(matrix, rhs, c))
        if sol is None:
            return None
        coeffs = {}
        for (lab, _), val in zip(level_rows, sol):
            i, j, k = lab
            bits = s.coeff_bits[(i, j)]
            coeffs.setdefault(j, {})[k] = val % (1 << bits)
        for j in range(c):
            bits = s.coeff_bits.get((c, j), c if j == 0 else c - j)
            got = coeffs.get(j, {})
            length = s.counts.get((c, j), 0)
            e[(c, j)] = Poly(tuple(got.get(k, 0) for k in range(length)), bits)
        for (lab, row) in level_rows:
            i, j, k = lab
            val = e[(i, j)].coeff(k)
            if val:
                residual = residual - row.int_scale(val)
    assert residual.is_zero()
    return Decomposition(e)


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
