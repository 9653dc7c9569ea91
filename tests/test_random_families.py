"""Seeded fuzz: random valid generator families certified end to end.

Families are built from divisor chains of x^alpha - 1 that hold over any
Z/2^k (1, x-1, 1+x+...+x^(alpha-1), and x^alpha - 1 itself), each layer
scaled by a random odd constant so non-monic unit-leading layers get
exercised.  Mixing polynomials are added only in shapes known to satisfy
the compatibility conditions (n = 2, equal lengths, constant top layer).
Every accepted family is certified: enumeration matches the brute-force
closure, the count law holds, and membership round-trips.
"""

import random

from mixedcyclic.closure import module_closure
from mixedcyclic.codespace import AlphabetProfile, PolyTuple, cyclic_shift, from_polys
from mixedcyclic.generators import (
    StructuredGenerators,
    derive_cofactors,
    validate_generators,
)
from mixedcyclic.modring import Poly
from mixedcyclic.spanning import (
    build_spanning_set,
    codeword_count_exponent,
    distinct_codewords,
    membership_test,
)


def _pool(alpha, k):
    one = Poly.one(k)
    xm1 = Poly((-1, 1), k)
    ones = Poly((1,) * alpha, k)
    full = Poly.x_to_alpha_minus_1(alpha, k)
    chains = [[one, xm1, full], [one, ones, full], [one, full, full]]
    if alpha == 1:
        chains = [[one, full, full]]
    return chains


def _random_chain(rng, alpha, k, length):
    """(a_{i,length-1}, ..., a_{i0}): ascending under divisibility."""
    chain = rng.choice(_pool(alpha, k))
    picks = sorted(rng.choices(range(len(chain)), k=length))
    layers = [chain[p] for p in picks]
    scaled = []
    for p in layers:
        unit = rng.choice([u for u in range(1, 1 << k, 2)])
        scaled.append(p.scale(unit))
    return list(reversed(scaled))  # a_{i0} (the largest layer) comes first


def _random_family(rng):
    n = rng.choice([1, 1, 2, 2, 2, 3])
    if n == 3:
        alphas = rng.choice([(1, 1, 1), (3, 1, 1), (1, 3, 1), (3, 3, 1)])
    elif n == 2:
        a = rng.choice([3, 5])
        alphas = (a, a)
    else:
        alphas = (rng.choice([3, 5, 7]),)
    profile = AlphabetProfile(alphas)
    a_layers = []
    for i in profile.levels():
        chain = _random_chain(rng, profile.alpha(i), i, i)
        a_layers.append(tuple(chain))
    l_mix = []
    for i in range(2, n + 1):
        l_mix.append(tuple(Poly.zero(i) for _ in range(i - 1)))
    l_mix = tuple(l_mix)

    if n == 2 and rng.random() < 0.6:
        # constant unit top layer makes any degree-bounded mixing valid
        unit = rng.choice([1, 3])
        a_layers[1] = (a_layers[1][0], Poly((unit,), 2))
        deg_cap = a_layers[0][0].degree()
        if deg_cap and deg_cap > 0:
            coeffs = tuple(rng.randrange(4) for _ in range(deg_cap))
            l_mix = ((Poly(coeffs, 2),),)
    return StructuredGenerators(profile, tuple(a_layers), l_mix)


def _chain_order_ok(g):
    # _random_chain must produce a_{i0} as the largest element
    for i in g.profile.levels():
        degs = [g.a(i, j).degree() for j in range(i)]
        assert degs == sorted(degs, reverse=True), degs


def test_random_families_certify_against_closure():
    rng = random.Random(20240817)
    accepted = 0
    certified = 0
    for _ in range(60):
        g = _random_family(rng)
        _chain_order_ok(g)
        report = validate_generators(g)
        assert report.passed, report.to_lines()
        accepted += 1
        c = derive_cofactors(g)
        t = codeword_count_exponent(c)
        if t > 12:
            continue
        s = build_spanning_set(g, c)
        distinct, stream = distinct_codewords(s, budget=1 << 13)
        assert stream == 1 << t
        assert len(distinct) == 1 << t, (g.profile.alphas, t, len(distinct))
        oracle = module_closure(g.generator_codewords(), budget=1 << 14)
        assert oracle.saturated
        assert set(distinct) == set(oracle.elements), g.profile.alphas
        # spot-check membership and shift closure on a few words
        words = list(distinct.values())
        for w in rng.sample(words, min(5, len(words))):
            dec = membership_test(w, s)
            assert dec is not None and dec.evaluate(s) == w
            assert cyclic_shift(w).flat() in distinct
        certified += 1
    assert accepted == 60
    assert certified >= 30


def test_random_families_echelon_exponent_equals_closure_size():
    rng = random.Random(20240817)
    for _ in range(60):
        g = _random_family(rng)
        s = build_spanning_set(g, derive_cofactors(g))
        oracle = module_closure(g.generator_codewords(), budget=1 << 16)
        assert oracle.saturated
        exponent = sum(g.profile.n - v for _, v, _ in s.family.code.basis)
        assert len(oracle) == 1 << exponent, g.profile.alphas


def test_random_families_validation_pass_carries_the_cofactors():
    rng = random.Random(20240817)
    for _ in range(60):
        g = _random_family(rng)
        report = validate_generators(g)
        assert report.cofactors is not None, report.cofactor_gap
        assert report.cofactors == derive_cofactors(g)


def _base_row_with_low_layers_dropped(g, c, i, j):
    """Row (i, j, 0), j >= 1, written out by hand: h_{i,j-1} times
    generator i, with the layers 2^p a_{ip}, p < j, left out of entry i."""
    h = c.h[(i, j - 1)]
    polys = []
    for comp in g.profile.levels():
        if comp > i:
            p = Poly.zero(comp)
        elif comp < i:
            p = g.l(i, comp).at_level(comp)
        else:
            p = Poly.zero(i)
            for layer in range(j, i):
                p = p + g.a(i, layer).scale(1 << layer)
        polys.append((p * h.at_level(comp)).reduce_cyclic(g.profile.alpha(comp)))
    return from_polys(PolyTuple(g.profile, tuple(polys)))


def test_base_rows_are_h_times_generator_without_the_low_layers(
        binary7, toy2, example855, tower111):
    rng = random.Random(20240817)
    families = [binary7, toy2, example855, tower111] + [_random_family(rng) for _ in range(60)]
    checked = 0
    for g in families:
        c = derive_cofactors(g)
        for (i, j, k), row in build_spanning_set(g, c).rows:
            if j >= 1 and k == 0:
                assert row == _base_row_with_low_layers_dropped(g, c, i, j), (g, i, j)
                checked += 1
    assert checked >= 30
