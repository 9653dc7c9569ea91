"""Structured generator families, their divisibility conditions, and cofactors.

A code over the profile (alpha_1..alpha_n) is presented by one generator
tuple per level:

    level i: (l_{i1}, ..., l_{i,i-1}, a_i, 0, ..., 0),
    a_i = sum_j 2^j a_{ij} mod 2^i,

with the a-layers forming a divisibility chain into x^alpha_i - 1 and the
mixing polynomials l tied to lower levels by degree bounds and two
compatibility conditions.  The validator checks, with witnesses:

    (i)   a_{i,i-1} | ... | a_{i0} | x^alpha_i - 1   mod 2^i
    (ii)  deg l_{i+1,1} < deg a_1  and  deg l_{i+1,i} < deg a_{i0}
    (iii) a_i | h_{i+1,i} * l_{i+1,i}                mod 2^i
    (iv)  a_{i-1} | d_i*l_{i,i-1} - h_{i+1,i}*l_{i+1,i-1}  mod 2^(i-1)

where h_{ij} is the cofactor with a_{ij}*h_{ij} = x^alpha_i - 1, and d_i
is the witness produced by (iii).

validate_generators is the one pass that computes witnesses.  Its report
carries, next to the condition entries, the Cofactors (h, m, d and the
spanning-set row counts) that the spanning set and the count formula are
built from; derive_cofactors is the same pass for callers that only want
the cofactors, and raises NotADivisor where one is missing.

Every witness comes from modring.divides_witness, which owns the division
policy; see _derive_h for the one plain-ring case.

Non-monic layers are supported and never normalised; layers that are
units of the polynomial ring (odd constant term, all higher coefficients
even) are flagged, because for them the spanning-set row counts implied
by the formal degrees diverge from the witness degrees.
"""

from __future__ import annotations

import functools

from .codespace import PolyTuple, from_polys
from .modring import Poly, divides_witness


class NotADivisor(ArithmeticError):
    """A required cofactor does not exist; identifies the failing spot."""

    def __init__(self, level, index, role, detail=""):
        self.level = level
        self.index = index
        self.role = role
        msg = f"not a divisor: {role} at (i={level}, j={index})"
        super().__init__(msg + (f": {detail}" if detail else ""))


class MixingSolveError(ArithmeticError):
    """No mixing certificate at (j, i) despite a passing validation."""

    def __init__(self, j, i):
        self.j = j
        self.i = i
        super().__init__(f"no solution for mixing certificate at (j={j}, i={i})")


class StructuredGenerators:
    """The triangular generator data (a-layers and mixing polynomials).

    a_layers[i-1] holds (a_{i0}, ..., a_{i,i-1}) over Z/2^i.  l_mix[i-2]
    holds (l_{i1}, ..., l_{i,i-1}) written at level i; each l_{ij} is read
    modulo 2^j when it lands in component j.  A zero a-layer is rejected:
    an absent layer is expressed as x^alpha_i - 1, which is zero in the
    quotient but keeps a cofactor.  This is the one check of a family's
    shape; each ValueError starts with the code document's field path
    (a_{ij} is a[i-1][j], l_{ij} is l[i-2][j-1]).
    """

    def __init__(self, profile, a_layers, l_mix):
        self.profile, self.a_layers, self.l_mix = profile, a_layers, l_mix
        n = profile.n
        if len(a_layers) != n:
            raise ValueError(f"a: must hold one layer list per level (n={n})")
        for i, layer in enumerate(a_layers, start=1):
            if len(layer) != i:
                raise ValueError(f"a[{i - 1}]: level {i} needs exactly {i} layer arrays")
            for j, p in enumerate(layer):
                if p.k != i:
                    raise ValueError(f"a[{i - 1}][{j}]: must live over Z/2^{i}")
                if p.is_zero():
                    raise ValueError(
                        f"a[{i - 1}][{j}]: zero layer; write x^alpha - 1 for an absent layer")
                if p.degree() > profile.alpha(i):
                    raise ValueError(f"a[{i - 1}][{j}]: degree {p.degree()} too large "
                                     f"(limit {profile.alpha(i)})")
        if len(l_mix) != n - 1:
            raise ValueError(f"l: must hold one mixing list per level 2..{n}" if n > 1
                             else "l: must be absent or empty when n = 1")
        for i, mix in enumerate(l_mix, start=2):
            if len(mix) != i - 1:
                raise ValueError(f"l[{i - 2}]: level {i} needs exactly {i - 1} mixing arrays")
            for j, p in enumerate(mix, start=1):
                if p.k != i:
                    raise ValueError(f"l[{i - 2}][{j - 1}]: must be written at level {i}")
                if p.degree() is not None and p.degree() >= profile.alpha(j):
                    raise ValueError(f"l[{i - 2}][{j - 1}]: degree {p.degree()} too large "
                                     f"(limit {profile.alpha(j) - 1})")

    def a(self, i, j):
        return self.a_layers[i - 1][j]

    def l(self, i, j):
        """Mixing polynomial of generator i sitting in component j (j < i)."""
        return self.l_mix[i - 2][j - 1]

    def a_total(self, i):
        """a_i = sum_j 2^j a_{ij}, reduced mod 2^i."""
        return self._a_totals[i - 1]

    def generator_tuple(self, i):
        """Generator i as a polynomial tuple of the ambient module."""
        return self._generators[i - 1]

    def generator_codeword(self, i):
        return from_polys(self.generator_tuple(i))

    def generator_codewords(self):
        return [self.generator_codeword(i) for i in self.profile.levels()]

    # built on first use, once per family: __init__ runs inside load_code_spec
    @functools.cached_property
    def _a_totals(self):
        return tuple(sum((self.a(i, j).scale(1 << j) for j in range(i)), Poly.zero(i))
                     for i in self.profile.levels())

    @functools.cached_property
    def _generators(self):
        prof = self.profile  # generator i: (l_{i1}, ..., l_{i,i-1}, a_i, 0, ..., 0)
        return tuple(PolyTuple(prof, tuple(
            [self.l(i, c).at_level(c).reduce_cyclic(prof.alpha(c)) for c in range(1, i)]
            + [self.a_total(i).reduce_cyclic(prof.alpha(i))]
            + [Poly.zero(c) for c in range(i + 1, prof.n + 1)])) for i in prof.levels())

    def unit_layers(self):
        """(i, j) of positive-degree layers that are units of Z/2^i[x].

        For these (odd constant term, even higher coefficients, degree
        >= 1) the witness cofactor degrees diverge from the formal
        degrees, so reports flag them.  Odd constants are units too, but
        their cofactors behave like ordinary exact divisions.
        """
        out = []
        for i in self.profile.levels():
            for j in range(i):
                p = self.a(i, j)
                if (p.degree() > 0 and p.coeff(0) % 2 == 1
                        and all(c % 2 == 0 for c in p.coeffs[1:])):
                    out.append((i, j))
        return out


def _derive_h(a: Poly, alpha: int):
    """Cofactor h with a*h = x^alpha - 1, or None.

    Plain-ring division for unit-leading a: the right-hand side is the
    quotient ring's zero, so the quotient-ring fallback would accept
    everything.  Quotient-ring witness otherwise.
    """
    target = Poly.x_to_alpha_minus_1(alpha, a.k)
    return divides_witness(a, target, alpha=None if a.has_unit_lead() else alpha)


class Cofactors:
    """Witness cofactors plus the formal row-count degrees.

    h[(i, j)] satisfies a_{ij}*h = x^alpha_i - 1 (in the plain ring for
    unit-leading layers, in the cyclic quotient otherwise); m[(i, j)]
    satisfies a_{ij}*m = a_{i,j-1}; d[i] witnesses condition (iii).

    h_rows/m_rows carry the spanning-set block sizes, taken from formal
    degree differences (alpha_i - deg a_{i0}, deg a_{i,j-1} - deg a_{ij});
    for unit-leading layers these equal the witness degrees.  Negative
    differences are clamped to empty blocks and recorded as warnings.
    Cofactors are equal when all six fields are.
    """

    def __init__(self, h, m, d, h_rows, m_rows, warnings=()):
        self.h, self.m, self.d = h, m, d
        self.h_rows, self.m_rows, self.warnings = h_rows, m_rows, warnings

    def __eq__(self, other):
        return other.__class__ is Cofactors and vars(self) == vars(other)


class ConditionEntry:
    def __init__(self, condition, level, index, passed, note):
        self.condition = condition  # "i" | "ii" | "iii" | "iv"
        self.level, self.index, self.passed, self.note = level, index, passed, note

    def line(self):
        where = f"i={self.level}" + ("" if self.index is None else f" j={self.index}")
        verdict = "PASS" if self.passed else "FAIL"
        return f"condition ({self.condition}) {where}: {verdict} [{self.note}]"


class ValidationReport:
    def __init__(self, entries, profile_nonstandard, warnings, notes=(), cofactors=None,
                 cofactor_gap=None):
        self.entries, self.profile_nonstandard = entries, profile_nonstandard
        self.warnings, self.notes = warnings, notes
        self.cofactors = cofactors  # None iff cofactor_gap is set
        self.cofactor_gap = cofactor_gap  # (level, index, role) of the first missing cofactor

    @property
    def passed(self):
        return all(e.passed for e in self.entries)

    def require_cofactors(self):
        """The cofactors, or NotADivisor at the first gap.

        Gaps are ordered level by level (the h_{ij}, then the m_{ij}),
        then the d_i.  A failed condition (ii) or (iv) leaves no gap.
        """
        if self.cofactor_gap is not None:
            raise NotADivisor(*self.cofactor_gap)
        return self.cofactors

    def failing_conditions(self):
        return sorted({e.condition for e in self.entries if not e.passed})

    def to_lines(self):
        lines = [e.line() for e in self.entries]
        for note in self.notes:
            lines.append(f"note: {note}")
        for w in self.warnings:
            lines.append(f"warning: {w['code']} " +
                         " ".join(f"{k}={v}" for k, v in w.items() if k != "code"))
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return lines

    def to_payload(self):
        return {
            "entries": [
                {"condition": e.condition, "level": e.level, "index": e.index,
                 "passed": e.passed, "note": e.note}
                for e in self.entries
            ],
            "notes": list(self.notes),
            "overall": self.passed,
            "profile_nonstandard": self.profile_nonstandard,
            "warnings": [dict(w) for w in self.warnings],
        }


def _entry(condition, level, index, note, name, witness):
    """A condition entry that passes iff its witness exists, and quotes it."""
    if witness is not None:
        note += f": {name} = {witness}"
    return ConditionEntry(condition, level, index, witness is not None, note)


def validate_generators(g: StructuredGenerators, extend_iv=False) -> ValidationReport:
    """Check conditions (i)-(iv) with witnesses; failures become entries.

    The same pass derives every cofactor and returns them as
    report.cofactors.  The conditions never consult h_{ij} for
    0 < j < i-1, so a family can pass while one of those is missing; the
    report then carries the first gap instead (see require_cofactors).
    """
    profile = g.profile
    entries, notes, warnings, cofactor_warnings, gaps = [], [], [], [], []
    h, m, d, h_rows, m_rows = {}, {}, {}, {}, {}

    # (i): per level, the annihilator cofactors h_{ij} (h_{i0} closes the
    # chain) and each link a_{ij} | a_{i,j-1} with its witness m_{ij}
    for i in profile.levels():
        alpha = profile.alpha(i)
        for j in range(i):
            a = g.a(i, j)
            h_rows[(i, j)] = alpha - a.degree()
            w = _derive_h(a, alpha)
            if w is None:
                gaps.append((i, j, "a | x^alpha - 1"))
            else:
                h[(i, j)] = w
        entries.append(_entry("i", i, 0, f"a[{i}][0] | x^{alpha}-1", "h", h.get((i, 0))))
        for j in range(1, i):
            a, target = g.a(i, j), g.a(i, j - 1)
            w = divides_witness(a, target, alpha)
            if w is None:
                gaps.append((i, j, "a_{ij} | a_{i,j-1}"))
            else:
                m[(i, j)] = w
            entries.append(_entry("i", i, j, f"a[{i}][{j}] | a[{i}][{j - 1}]", "m", w))
            diff = target.degree() - a.degree()
            if diff < 0:
                cofactor_warnings.append(
                    {"code": "clamped_block", "level": i, "index": j,
                     "detail": f"formal degree difference {diff} clamped to 0"})
            m_rows[(i, j)] = max(diff, 0)

    # (ii): deg l_{i+1,j} < deg a_{j0} for the first and last mixing
    # polynomial, j = 1 and j = i (one check at i = 1, where they coincide)
    for i in range(1, profile.n):
        for j in sorted({1, i}):
            dl, da = g.l(i + 1, j).degree(), g.a(j, 0).degree()
            entries.append(ConditionEntry("ii", i, j, dl is None or dl < da,
                                          f"deg l[{i + 1}][{j}] < deg a[{j}][0] ({dl} vs {da})"))

    # (iii): a_i divides h_{i+1,i} * l_{i+1,i}; the witness is d_i
    for i in range(1, profile.n):
        hi = h.get((i + 1, i))
        if hi is None:
            entries.append(ConditionEntry(
                "iii", i, None, False, f"h[{i + 1}][{i}] unavailable (condition (i) failed)"))
            continue
        rhs = hi.at_level(i) * g.l(i + 1, i).at_level(i)
        w = divides_witness(g.a_total(i), rhs, profile.alpha(i))
        if w is None:
            gaps.append((i, None, "a_i | h_{i+1,i} * l_{i+1,i}"))
        else:
            d[i] = w
        entries.append(_entry("iii", i, None, f"a_{i} | h[{i + 1}][{i}]*l[{i + 1}][{i}]", "d", w))

    # (iv): adjacent compatibility through d_i, for i = 2..n-1 as printed
    for i in range(2, profile.n):
        hi = h.get((i + 1, i))
        if i not in d or hi is None:
            entries.append(ConditionEntry(
                "iv", i, None, False, f"d_{i} unavailable (condition (iii) failed)"))
            continue
        k = i - 1
        bracket = (d[i].at_level(k) * g.l(i, i - 1).at_level(k)
                   - hi.at_level(k) * g.l(i + 1, i - 1).at_level(k))
        w = divides_witness(g.a_total(k), bracket, profile.alpha(k))
        entries.append(_entry(
            "iv", i, None,
            f"a_{k} | d_{i}*l[{i}][{i - 1}] - h[{i + 1}][{i}]*l[{i + 1}][{i - 1}]", "witness", w))
    if extend_iv:
        notes.append(
            f"condition (iv) extension to i={profile.n} is vacuous: "
            "it would reference generator data one level above n"
        )

    if profile.nonstandard:
        warnings.append({"code": "nonstandard_profile",
                         "detail": "gcd(i, alpha_i) = 1 fails at some level"})
    for (i, j) in g.unit_layers():
        unit = {"code": "unit_layer", "level": i, "index": j,
                "detail": "layer is a unit polynomial; row counts follow formal degrees"}
        warnings.append(unit)
        cofactor_warnings.append(dict(unit))

    entries.sort(key=lambda e: (e.condition, e.level, -1 if e.index is None else e.index))
    cofactors = None if gaps else Cofactors(h, m, d, h_rows, m_rows, tuple(cofactor_warnings))
    return ValidationReport(tuple(entries), profile.nonstandard, tuple(warnings), tuple(notes),
                            cofactors, gaps[0] if gaps else None)


def derive_cofactors(g: StructuredGenerators) -> Cofactors:
    """All cofactors for a generator family; raises NotADivisor on a gap.

    The validation pass with the report dropped: for callers that need
    the witnesses but not the condition verdicts.
    """
    return validate_generators(g).require_cofactors()


def mixing_certificates(g: StructuredGenerators, c: Cofactors, i: int):
    """The family f_{ji} (j = i-1..1) tying generator i's mixing row to
    lower generators:

        l_{ij} * h_{i,i-1} = a_j * f_{ji} + sum_{k=j+1}^{i-1} l_{kj} * f_{ki}

    Built descending: f_{i-1,i} is d_{i-1}, then each lower f is solved
    from the remaining right-hand side.  A missing solution is surfaced
    as MixingSolveError, never patched.
    """
    if not 2 <= i <= g.profile.n:
        raise ValueError("level must satisfy 2 <= i <= n")
    h_top = c.h[(i, i - 1)]
    f = {i - 1: c.d[i - 1]}
    for j in range(i - 2, 0, -1):
        rhs = g.l(i, j).at_level(j) * h_top.at_level(j)
        for k in range(j + 1, i):
            rhs = rhs - g.l(k, j).at_level(j) * f[k].at_level(j)
        w = divides_witness(g.a_total(j), rhs, g.profile.alpha(j))
        if w is None:
            raise MixingSolveError(j, i)
        f[j] = w
    return f


def mixing_identity_holds(g: StructuredGenerators, c: Cofactors, i: int, f: dict):
    """Re-multiply the mixing identity in each component's quotient ring."""
    h_top = c.h[(i, i - 1)]
    for j in range(1, i):
        alpha = g.profile.alpha(j)
        lhs = (g.l(i, j).at_level(j) * h_top.at_level(j)).reduce_cyclic(alpha)
        rhs = g.a_total(j) * f[j].at_level(j)
        for k in range(j + 1, i):
            rhs = rhs + g.l(k, j).at_level(j) * f[k].at_level(j)
        if lhs != rhs.reduce_cyclic(alpha):
            return False
    return True
