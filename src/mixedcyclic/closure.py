"""Independent brute-force reference: module closure of generator tuples.

The closure of a seed set is the smallest subset of the ambient module
containing 0 and the seeds and closed under addition and the cyclic
shift.  That set is exactly the polynomial submodule the seeds generate:
multiplication by x is the shift, and every scalar is an integer
combination of shifts, so {+, shift} generate the whole scalar action.
Everything else in the package is certified against this oracle at desk
scale, so it deliberately stays naive: breadth-first saturation with the
flat residue tuple as dedup key and no shortcuts borrowed from the code
under test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codespace import Codeword, cyclic_shift, from_flat


@dataclass(frozen=True)
class ClosureResult:
    elements: frozenset  # of flat residue tuples
    profile: object
    generator_count: int
    saturated: bool

    def __len__(self):
        return len(self.elements)

    def __contains__(self, v):
        return (v.flat() if isinstance(v, Codeword) else tuple(v)) in self.elements

    def codewords(self):
        """Members as Codewords in canonical lexicographic order."""
        for flat in sorted(self.elements):
            yield from_flat(self.profile, flat)


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
    zero = Codeword.zero(profile)

    orbit = []
    seen_orbit = set()
    for s in seeds:
        w = s
        for _ in range(profile.shift_order()):
            key = w.flat()
            if key not in seen_orbit:
                seen_orbit.add(key)
                orbit.append(w)
            w = cyclic_shift(w)

    elements = {zero.flat(): zero}
    frontier = [zero]
    saturated = True
    while frontier:
        next_frontier = []
        for b in frontier:
            for g in orbit:
                c = b + g
                key = c.flat()
                if key not in elements:
                    if len(elements) >= budget:
                        saturated = False
                        frontier = []
                        next_frontier = []
                        break
                    elements[key] = c
                    next_frontier.append(c)
            else:
                continue
            break
        frontier = next_frontier

    if saturated:
        for b in list(elements.values()):
            assert cyclic_shift(b).flat() in elements
    return ClosureResult(frozenset(elements), profile, len(seeds), saturated)
