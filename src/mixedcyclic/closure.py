"""Independent brute-force reference: module closure of generator tuples.

The closure of a seed set is the smallest subset of the ambient module
containing 0 and the seeds and closed under addition and the cyclic
shift.  That set is exactly the polynomial submodule the seeds generate:
multiplication by x is the shift, and every scalar is an integer
combination of shifts, so {+, shift} generate the whole scalar action.
The shifts of the seeds (their orbits) form a shift-closed set, so the
group they generate under addition is that submodule.

Everything else in the package is certified against this oracle at desk
scale, so it borrows no shortcut from the code under test (no cofactors,
spanning sets or echelon bases).  It builds the group by cosets (Dimino's
closure, specialised to an abelian group): with H the group so far, an
orbit word g outside H adds H + g, H + 2g, ... until a coset falls back
into the set.  The set is then a union of H-cosets, and two cosets are
equal or disjoint, so one lookup (of the coset's first word) decides
whether the whole coset is new; the first coset that is not new is H
itself, and H + <g> is complete.  Each orbit word that enlarges the group
costs about |C| additions, where adding every orbit word to every member
would cost |C| times the orbit.  A final sweep checks every member's
shift.  It shares only the word layout of the scans, codespace.Packing:
a sum is one int add and one & mask, and the shift is Packing.shift.
Sharing that is sound because the layout is pinned against plain tuple
arithmetic on its own (the tests check the closure against saturations
that add blocks mod 2^i and rotate tuples).

Budget: a coset that would take the set past the budget is not added,
and the closure returns the set so far (a union of whole cosets, at most
max(budget, 1) words, since {0} is always in) with saturated=False.  So
saturated holds exactly when |C| <= max(budget, 1).
"""

from __future__ import annotations

import functools

from .codespace import Codeword, ProfileMismatch


class ClosureResult:
    def __init__(self, words, profile, saturated):
        self.words = words  # frozenset of packed words (profile.packing)
        self.profile, self.saturated = profile, saturated

    def __len__(self):
        return len(self.words)

    @functools.cached_property
    def elements(self):
        """The members as flat residue tuples."""
        return frozenset(tuple(self.profile.packing.unpack(w)) for w in self.words)

    def __contains__(self, v):
        if not isinstance(v, Codeword):
            return tuple(v) in self.elements
        if v.profile != self.profile:
            raise ProfileMismatch("word and closure have different profiles")
        return v.w in self.words

    def codewords(self):
        """Members as Codewords in canonical lexicographic order (int order
        of packed words is flat() order)."""
        for w in sorted(self.words):
            yield self.profile.packing.codeword(w)


def module_closure(seeds, budget=1 << 20) -> ClosureResult:
    """Saturate {0} + seeds under addition and the simultaneous shift, one
    orbit word's cosets at a time, then check every member's shift."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed codeword")
    profile = seeds[0].profile
    if any(s.profile != profile for s in seeds):
        raise ProfileMismatch("seeds have different profiles")
    packing = profile.packing

    orbit = {}  # insertion-ordered set; a seed's shift cycle ends where it meets the set
    for s in seeds:
        w = s.w
        while w not in orbit:
            orbit[w] = None
            w = packing.shift(w)

    mask = packing.mask
    elements = {0}
    for g in orbit:
        if g in elements:
            continue
        coset = list(elements)  # H, the group so far
        while True:
            coset = [(x + g) & mask for x in coset]
            if coset[0] in elements:  # H + kg is H: every coset of g is in
                break
            if len(elements) + len(coset) > budget:
                return ClosureResult(frozenset(elements), profile, False)
            elements.update(coset)

    if not elements.issuperset(map(packing.shift, elements)):
        raise AssertionError("the closure is not closed under the shift")
    return ClosureResult(frozenset(elements), profile, True)
