"""Independent brute-force reference: module closure of generator tuples.

The closure of a seed set is the smallest subset of the ambient module
containing 0 and the seeds and closed under addition and the cyclic
shift.  That set is exactly the polynomial submodule the seeds generate:
multiplication by x is the shift, and every scalar is an integer
combination of shifts, so {+, shift} generate the whole scalar action.
Everything else in the package is certified against this oracle at desk
scale, so it deliberately stays naive: breadth-first saturation with no
shortcuts borrowed from the code under test (no cofactors, spanning
sets or echelon bases).  It shares only the word layout of the scans,
codespace.Packing: a sum is one int add and one & mask, and the shift
is Packing.shift.  Sharing that is sound because the layout is pinned
against plain tuple arithmetic on its own (the tests check the closure
against a saturation that adds blocks mod 2^i and rotates tuples).
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
    """Saturate {0} + seeds under addition and the simultaneous shift.

    Each frontier element is combined with every shift of every seed
    (the seed orbits generate the group, and the orbit set is shift-closed,
    so the result is closed under both operations) and then verified by a
    final sweep.  Exceeding the budget returns the partial set with
    saturated=False.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed codeword")
    profile = seeds[0].profile
    if any(s.profile != profile for s in seeds):
        raise ProfileMismatch("seeds have different profiles")
    packing = profile.packing

    orbit = {}  # insertion-ordered set
    for s in seeds:
        w = s.w
        for _ in range(profile.shift_order()):
            orbit[w] = None
            w = packing.shift(w)

    mask = packing.mask
    elements = {0}
    frontier = [0]
    saturated = True
    while frontier and saturated:
        next_frontier = []
        for b in frontier:
            for g in orbit:
                c = (b + g) & mask
                if c not in elements:
                    if len(elements) >= budget:
                        saturated = False
                        break
                    elements.add(c)
                    next_frontier.append(c)
            if not saturated:
                break
        frontier = next_frontier

    if saturated:
        for b in elements:
            assert packing.shift(b) in elements
    return ClosureResult(frozenset(elements), profile, saturated)
