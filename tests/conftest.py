"""Shared desk-scale code instances used across the suite."""

import os
import pathlib
import random
import subprocess
import sys

import pytest

from mixedcyclic.codespace import AlphabetProfile, Codeword
from mixedcyclic.generators import StructuredGenerators
from mixedcyclic.modring import Poly

DEMO_CODES = pathlib.Path(__file__).resolve().parents[1] / "demos" / "codes"


def make_generators(alphas, a_lists, l_lists, allow_nonstandard=False):
    """Build StructuredGenerators from plain coefficient lists.

    a_lists[i-1] = [a_{i0}, ..., a_{i,i-1}] ascending powers over Z/2^i;
    l_lists[i-2] = [l_{i1}, ..., l_{i,i-1}] written at level i.
    """
    profile = AlphabetProfile(alphas, allow_nonstandard=allow_nonstandard)
    a_layers = tuple(
        tuple(Poly(tuple(coeffs), i) for coeffs in layer)
        for i, layer in enumerate(a_lists, start=1)
    )
    l_mix = tuple(
        tuple(Poly(tuple(coeffs), i) for coeffs in mix)
        for i, mix in enumerate(l_lists, start=2)
    )
    return StructuredGenerators(profile, a_layers, l_mix)


@pytest.fixture
def binary7():
    """n=1: the even-weight-generating binary cyclic code <1+x> of length 7."""
    return make_generators([7], [[[1, 1]]], [])


@pytest.fixture
def toy2():
    """n=2 on lengths (3,3): a_1 = 1+x, a_2 = (x^2+x+1) + 2*1, l_21 = 1."""
    return make_generators([3, 3], [[[1, 1]], [[1, 1, 1], [1]]], [[[1]]])


@pytest.fixture
def example855():
    """The published three-level example on lengths (8, 5, 5)."""
    return make_generators(
        [8, 5, 5],
        [[[1, 0, 1]], [[3, 0, 2], [3]], [[3, 2], [3], [3, 0, 2]]],
        [[[1, 1]], [[1, 1], [0, 3]]],
    )


@pytest.fixture
def tower111():
    """n=3 on lengths (1,1,1): components collapse to residues; code {0,2} x {0,2,4,6}."""
    return make_generators(
        [1, 1, 1],
        [[[1, 1]], [[3, 1], [1]], [[7, 1], [1], [1]]],
        [[[0]], [[0], [0]]],
    )


UNIT_LAYER_A2 = [[3, 0, 2], [3]]  # a_20 = 2x^2 + 3, a unit of Z4[x]
EVEN_LEAD_A2 = [[1, 3, 3, 2], [1]]  # a_20 = (1 + x + x^2)(1 + 2x) mod 4


def family_33(a_2):
    return make_generators([3, 3], [[[1, 1]], a_2], [[[1]]])


def label_radix(label):
    """The multiplier range of row (i, j, k) by the paper's rule: Z/2^i for
    j = 0, Z/2^(i-j) otherwise."""
    i, j, _ = label
    return 1 << (i if j == 0 else i - j)


def codeword_path(s, index):
    """Position index of the enumeration of s, summed over plain tuples: digit t
    of index (radix label_radix of row t, digit 0 fastest) times row t, with
    coordinate p reduced mod 2^(its level) by hand; only the result becomes a
    Codeword."""
    levels = [i for i, a in enumerate(s.profile.alphas, start=1) for _ in range(a)]
    acc = [0] * len(levels)
    for label, row in s.rows:
        index, d = divmod(index, label_radix(label))
        acc = [a + d * c for a, c in zip(acc, row.flat())]
    return Codeword(s.profile, _blocks(s.profile, [a % (1 << i) for a, i in zip(acc, levels)]))


def codeword_closure(seeds, budget=1 << 20):
    """(flat tuples, saturated) of the breadth-first saturation of {0} + seeds
    under addition and the shift, over plain tuples of blocks (block i added
    mod 2^i, every block rotated right one place): each frontier word plus
    every distinct shift of every seed, in that order, stopping at the first
    new word past budget."""
    profile = seeds[0].profile
    orbit = list(dict.fromkeys(w for s in seeds for w in _orbit(s.components, profile)))
    zero = tuple((0,) * a for a in profile.alphas)
    elements, frontier = {_flat(zero)}, [zero]
    while frontier:
        next_frontier = []
        for b in frontier:
            for g in orbit:
                c = _add_blocks(b, g)
                if _flat(c) not in elements:
                    if len(elements) >= budget:
                        return frozenset(elements), False
                    elements.add(_flat(c))
                    next_frontier.append(c)
        frontier = next_frontier
    return frozenset(elements), True


def coset_closure(seeds, budget=1 << 20):
    """(flat tuples, saturated) of the closure of {0} + seeds built by cosets,
    over plain tuples of blocks: for each distinct shift g of each seed, in
    that order, with H the group so far, the cosets H + g, H + 2g, ... are
    added whole until one is already in, stopping before the first coset that
    would take the set past budget.  Each coset is checked to be wholly new or
    wholly in, which is what lets the closure under test look up one word."""
    profile = seeds[0].profile
    orbit = list(dict.fromkeys(w for s in seeds for w in _orbit(s.components, profile)))
    zero = tuple((0,) * a for a in profile.alphas)
    group = {_flat(zero): zero}
    for g in orbit:
        coset = list(group.values())
        while True:
            coset = [_add_blocks(b, g) for b in coset]
            new = [c for c in coset if _flat(c) not in group]
            if not new:
                break
            assert len(new) == len(coset), "a coset that is partly in the group"
            if len(group) + len(new) > budget:
                return frozenset(group), False
            group.update((_flat(c), c) for c in new)
    return frozenset(group), True


def _add_blocks(u, v):
    """u + v over tuples of blocks, block i added mod 2^i."""
    return tuple(tuple((x + y) % (1 << i) for x, y in zip(a, b))
                 for i, (a, b) in enumerate(zip(u, v), start=1))


def run_optimized(probe):
    """The stdout of probe run by python -O, where assert statements are
    stripped, with this checkout's package on the path."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-O", "-c", probe], capture_output=True, text=True,
                          env=env, check=True).stdout


def _flat(blocks):
    return tuple(c for b in blocks for c in b)


def _blocks(profile, flat):
    """flat cut into blocks of the profile's lengths."""
    cuts = [sum(profile.alphas[:i]) for i in range(profile.n + 1)]
    return tuple(tuple(flat[lo:hi]) for lo, hi in zip(cuts, cuts[1:]))


def pool_echelon(rows, k):
    """Howell basis of the Z-span of rows over Z/2^k by whole-pool elimination,
    as (col, v, row) pivots in column order: per column, a row of least
    valuation v (the first such row of the pool) is normalised to lead with
    2^v and clears the column from every other row, and 2^(k-v) times it goes
    back into the pool.  The reference the packed Howell engine is checked
    against."""
    mod = 1 << k
    pool = [r for r in ([c % mod for c in row] for row in rows) if any(r)]
    basis = []
    for col in range(len(pool[0]) if pool else 0):
        lead = [((r[col] & -r[col]).bit_length() - 1, t) for t, r in enumerate(pool) if r[col]]
        if not lead:
            continue
        v, t = min(lead)
        inv = pow(pool[t][col] >> v, -1, mod)
        pivot = [c * inv % mod for c in pool.pop(t)]
        rest = [[(a - (r[col] >> v) * p) % mod for a, p in zip(r, pivot)] if r[col] else r
                for r in pool] + [[(c << (k - v)) % mod for c in pivot]]
        pool = [r for r in rest if any(r)]
        basis.append((col, v, tuple(pivot)))
    return basis


def pool_reduce(x, basis, k):
    """Multipliers c_r < 2^(k - v_r) writing x over a list of (col, v, row)
    pivots in column order, or None when x does not reduce to zero."""
    mod = 1 << k
    x = [c % mod for c in x]
    coeffs = []
    for col, v, row in basis:
        if x[col] % (1 << v):
            return None
        q = x[col] >> v
        coeffs.append(q)
        if q:
            x = [(a - q * p) % mod for a, p in zip(x, row)]
    return None if any(x) else coeffs


def same_module(basis, reference, k):
    """Whether a Howell engine and a pool_echelon basis span one module over
    Z/2^k: equal sum(k - v), and each reduces the other's rows to zero."""
    return (sum(k - v for _, v, _ in basis) == sum(k - v for _, v, _ in reference)
            and all(basis.reduce(basis.pack(row)) is not None for _, _, row in reference)
            and all(pool_reduce(row, reference, k) is not None for _, _, row in basis))


def written_out_rows(g):
    """Every shift x^k g_i, k < lcm alpha, taken by rotating tuples of blocks
    and embedded into Z/2^n by hand: block i times 2^(n-i)."""
    prof, rows = g.profile, []
    for gen in g.generator_codewords():
        for blocks in _orbit(gen.components, prof):
            rows.append([c << (prof.n - i) for i, b in enumerate(blocks, start=1) for c in b])
    return rows


def _orbit(blocks, profile):
    """blocks and its rotations, every block turned right one place a step,
    one per shift up to the shift order."""
    for _ in range(profile.shift_order()):
        yield blocks
        blocks = tuple(b[-1:] + b[:-1] for b in blocks)


def _absent(i, alpha):
    """x^alpha - 1 over Z/2^i, written as an absent layer."""
    return [(1 << i) - 1] + [0] * (alpha - 1) + [1]


def kernel_families():
    """(name, spanning set) pairs whose whole enumeration is at most 2^10
    words, for checking the packed kernel against the Codeword path: the
    small demo codes, unit-layer and even-lead layers, seeded random
    families (n = 1..3, non-monic layers), an n = 4 family, and an n = 8
    family, whose fields take two bytes and whose level-8 sums carry past
    the low byte."""
    from test_random_families import _random_family

    from mixedcyclic.cli import load_code_spec
    from mixedcyclic.generators import derive_cofactors
    from mixedcyclic.spanning import build_spanning_set, span_size

    fams = [(name, load_code_spec((DEMO_CODES / f"{name}.json").read_text()))
            for name in ("binary_n1", "toy_n2", "tower_111")]
    fams += [
        ("unit_layer", family_33(UNIT_LAYER_A2)),
        ("even_lead", family_33(EVEN_LEAD_A2)),
        ("n4", make_generators(
            [3, 3, 1, 3],
            [[[1, 1]], [_absent(2, 3), [1, 1, 1]], [[7, 1], [7, 1], [1]],
             [_absent(4, 3), _absent(4, 3), [1, 1, 1], [3]]],
            [[[0]], [[0], [0]], [[0], [0], [0]]])),
        ("n8", make_generators(
            [1] * 8,
            [[_absent(i, 1)] * i for i in range(1, 7)]
            + [[_absent(7, 1)] * 4 + [[1]] * 3, [_absent(8, 1)] * 5 + [[1]] * 3],
            [[[0]] * (i - 1) for i in range(2, 9)])),
    ]
    rng = random.Random(20240817)
    fams += [(f"random{k}", _random_family(rng)) for k in range(30)]
    out = []
    for name, g in fams:
        s = build_spanning_set(g, derive_cofactors(g))
        if span_size(s) <= 1 << 10:
            out.append((name, s))
    return out
