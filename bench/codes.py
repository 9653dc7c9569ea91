"""Seeded code families for the three workloads.

Every family is a code document in the CLI's JSON format.  Layers are
built from cyclotomic factors Phi_d (d | alpha) of x^alpha - 1: a product
of them divides x^alpha - 1 over Z and hence over every Z/2^k, so nested
products give divisor chains a_{i,i-1} | ... | a_{i0} | x^alpha - 1.
Each layer is then scaled by a random odd constant (a non-monic layer
with a unit leading coefficient), as in the repository's random-family
test.  Mixing polynomials are added only in the shape that test proves
valid: l_{21} of degree below deg a_{10}, with alpha_1 = alpha_2 and a
constant top layer a_{21}.  With l = 0 every condition (ii)-(iv) holds.

The derive workload adds three stated kinds on top:

- ``unit``: a suffix of the layers at one level replaced by unit
  polynomials 1 + 2f (odd constant, even higher coefficients);
- ``evenlead``: one layer multiplied by the unit 1 + 2x^e, which keeps
  its ideal but gives it an even leading coefficient;
- ``fail_i``: a chain link a_{i1} | a_{i0} broken so that it fails
  already over GF(2) (``reference.certifies_condition_i_failure``).

The seed picks the polynomials, units and words; the slot lists below
fix the profiles, sizes and kinds.
"""

from __future__ import annotations

import functools
import itertools
import random

from reference import certifies_condition_i_failure, cyclotomic, divisors, poly_mul

PAPER_855 = {
    "n": 3,
    "alphas": [8, 5, 5],
    "a": [[[1, 0, 1]], [[3, 0, 2], [3]], [[3, 2], [3], [3, 0, 2]]],
    "l": [[[1, 1]], [[1, 1], [0, 3]]],
}

# Slots fix (profile, log2|C|) per code, so the work per pass barely
# changes from seed to seed.  Each pass of scan and certify asks at least
# 100 questions, none much over 20 ms, and takes about one second: the
# host's speed drifts, and short queries in many passes let each query's
# fastest pass land in a quiet stretch of the run.  The counts put the
# median and the 90th percentile inside a block of equal-sized codes, not
# on the edge between two sizes.

SCAN_PROFILES = [(5, 5), (7, 7), (3, 3, 1, 3), (9, 7), (7, 3), (5, 5, 1), (3, 3, 1, 1),
                 (7, 5, 5), (5, 5, 5), (13, 5), (5, 3), (3, 3, 1), (9, 3)]
SCAN_SIZES = [(7, 22), (8, 16), (9, 14)]  # (log2|C|, codes)

# certify: dual on ambient spaces of 2^9 and 2^10, oracle-check on |C| <= 2^8
DUAL_PROFILES = [
    (9, 24, [(3, 3), (9,), (7, 1), (4, 1, 1)]),
    (10, 22, [(1, 1, 1, 1), (5, 1, 1), (8, 1), (10,)]),
]  # (log2 ambient, codes, profiles)
ORACLE_PROFILES = [(5, 5), (7, 7), (3, 3, 1, 3), (5, 5, 5), (9, 7), (7, 5, 5), (13, 5),
                   (3, 3, 1), (7, 3), (5, 3), (9, 3)]
ORACLE_SIZES = [(5, 19), (6, 18), (7, 16), (8, 6)]


def _ambient(alphas):
    return sum(i * a for i, a in enumerate(alphas, start=1))


def _size_slots(sizes, profiles):
    """For each size, alternate profiles whose dual is smaller and larger than the code."""
    slots = []
    for t, count in sizes:
        fits = [p for p in profiles if t in exponents(p)]
        small = [p for p in fits if _ambient(p) < 2 * t] or fits
        large = [p for p in fits if _ambient(p) > 2 * t] or fits
        for k in range(count):
            pool = small if k % 2 == 0 else large
            slots.append((pool[(k // 2) % len(pool)], t))
    return slots


def _dual_slots():
    """Codes near half the ambient exponent, alternately just above and below it."""
    slots = []
    for ambient, count, profiles in DUAL_PROFILES:
        for k in range(count):
            alphas = profiles[k % len(profiles)]
            below = [t for t in exponents(alphas) if 2 * t < ambient]
            above = [t for t in exponents(alphas) if 2 * t > ambient]
            slots.append((alphas, max(below) if k % 2 else min(above)))
    return slots


# derive: (kind, profile); n from 1 to 4, alphas up to 31.  One unit-layer
# and one even-lead family per pass: on most seeds both get a wrong count
# and a spanning set that misses part of the code, so they add failures.
_DERIVE_SCALED = [
    (7,), (15,), (31,), (21,), (17,), (9,), (23,), (9, 9), (21, 7), (31, 31),
    (15, 15), (5, 5), (7, 7), (15, 5), (8, 5, 5), (15, 5, 5), (7, 7, 7),
    (7, 5, 5), (31, 31, 31), (5, 5, 5, 5), (9, 9, 5, 9), (3, 3, 1, 3),
    (7, 7, 7, 7), (9, 3, 1, 3),
]
DERIVE_SLOTS = (
    [("scaled", p) for p in _DERIVE_SCALED * 2]
    + [("unit", (7, 5, 5)), ("evenlead", (21, 7))]
    + [("fail_i", p) for p in [(9, 9), (8, 5, 5), (7, 7, 7, 7)]]
)


@functools.lru_cache(maxsize=None)
def _layer_options(alpha, level):
    """Every divisor chain at one level, as (factor sets S_0..S_{level-1}, t_i).

    S_j is the set of d with Phi_d in a_{ij}; the chain needs
    S_{level-1} <= ... <= S_0.  t_i is the level's share of log2|C|.
    """
    ds = divisors(alpha)
    deg = {d: len(cyclotomic(d)) - 1 for d in ds}
    out = []
    for drops in itertools.product(range(level + 1), repeat=len(ds)):
        sets = tuple(tuple(d for d, dr in zip(ds, drops) if dr > j) for j in range(level))
        degs = [sum(deg[d] for d in s) for s in sets]
        t = level * (alpha - degs[0])
        t += sum((level - j) * (degs[j - 1] - degs[j]) for j in range(1, level))
        out.append((sets, t))
    return out


@functools.lru_cache(maxsize=None)
def exponents(alphas):
    """Every log2|C| the divisor chains reach on a profile."""
    options = [_layer_options(a, i) for i, a in enumerate(alphas, start=1)]
    return frozenset(sum(t for _, t in combo) for combo in itertools.product(*options))


def _product(factors):
    p = [1]
    for d in factors:
        p = poly_mul(p, cyclotomic(d))
    return p


def _at_level(p, level):
    mod = 1 << level
    p = [c % mod for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def _scaled(rng, p, level):
    unit = rng.randrange(1, 1 << level, 2)
    return _at_level([unit * c for c in p], level)


def _build(rng, alphas, chains, mixing=True):
    """Document from per-level factor chains; optional valid l_{21} mixing."""
    n = len(alphas)
    a = [[_scaled(rng, _product(s), i) for s in chains[i - 1]] for i in range(1, n + 1)]
    l_mix = [[[0] for _ in range(i - 1)] for i in range(2, n + 1)]
    deg_a10 = len(a[0][0]) - 1
    if (mixing and n >= 2 and alphas[0] == alphas[1] and not chains[1][1]
            and deg_a10 > 0 and rng.random() < 0.6):
        l_mix[0][0] = [rng.randrange(4) for _ in range(deg_a10)]
    doc = {"n": n, "alphas": list(alphas), "a": a}
    if n > 1:
        doc["l"] = l_mix
    return doc


def _chains_for_exponent(rng, alphas, target):
    options = [_layer_options(a, i) for i, a in enumerate(alphas, start=1)]
    combos = [c for c in itertools.product(*options) if sum(t for _, t in c) == target]
    if not combos:
        raise ValueError(f"no divisor chains on {alphas} give log2|C| = {target}")
    return [sets for sets, _ in rng.choice(combos)]


def _random_chains(rng, alphas):
    ambient = sum(i * a for i, a in enumerate(alphas, start=1))
    while True:
        picks = [rng.choice(_layer_options(a, i)) for i, a in enumerate(alphas, start=1)]
        t = sum(t for _, t in picks)
        if 0 < t < ambient:
            return [sets for sets, _ in picks]


def _family(name, kind, doc):
    return {"name": name, "kind": kind, "doc": doc}


def scan_families(seed):
    rng = random.Random(f"scan:{seed}")
    fams = [_family(f"scan{k:02d}", "scaled", _build(rng, alphas, _chains_for_exponent(rng, alphas, t)))
            for k, (alphas, t) in enumerate(_size_slots(SCAN_SIZES, SCAN_PROFILES))]
    return fams + [_family("paper855", "paper", PAPER_855)]


def certify_families(seed):
    rng = random.Random(f"certify:{seed}")
    fams = []
    for k, (alphas, t) in enumerate(_dual_slots()):
        fams.append(_family(f"dual{k:02d}", "scaled",
                            _build(rng, alphas, _chains_for_exponent(rng, alphas, t))))
    for k, (alphas, t) in enumerate(_size_slots(ORACLE_SIZES, ORACLE_PROFILES)):
        fams.append(_family(f"oracle{k:02d}", "scaled",
                            _build(rng, alphas, _chains_for_exponent(rng, alphas, t))))
    return fams + [_family("paper855", "paper", PAPER_855)]


def _unit_poly(rng, alpha, level):
    """1 + 2f with deg f >= 1: a unit of Z/2^level[x] of positive degree."""
    deg = rng.randrange(1, max(alpha, 2))
    half = 1 << (level - 1)
    f = [rng.randrange(half) for _ in range(deg - 1)] + [rng.randrange(1, half)]
    return _at_level([rng.randrange(1, 1 << level, 2)] + [2 * c for c in f], level)


def _with_unit_layers(rng, doc):
    level = rng.randrange(2, doc["n"] + 1)
    alpha = doc["alphas"][level - 1]
    start = rng.randrange(level)
    for j in range(start, level):
        doc["a"][level - 1][j] = _unit_poly(rng, alpha, level)
    return doc


def _even_lead_spots(doc):
    return [(i, j) for i in range(2, doc["n"] + 1) for j in range(i)
            if 0 < len(doc["a"][i - 1][j]) - 1 < doc["alphas"][i - 1]]


def _with_even_lead(rng, doc):
    i, j = rng.choice(_even_lead_spots(doc))
    p = doc["a"][i - 1][j]
    e = rng.randrange(1, doc["alphas"][i - 1] - (len(p) - 1) + 1)
    doc["a"][i - 1][j] = _at_level(poly_mul(p, [1] + [0] * (e - 1) + [2]), i)
    return doc


def _failing_condition_i(rng, alphas):
    """A family whose link a_{i1} | a_{i0} fails over GF(2) at some level."""
    while True:
        chains = [list(sets) for sets in _random_chains(rng, alphas)]
        level = rng.randrange(2, len(alphas) + 1)
        missing = [d for d in divisors(alphas[level - 1]) if d not in chains[level - 1][0]]
        if not missing:
            continue
        chains[level - 1][1] = (rng.choice(missing),)
        doc = _build(rng, alphas, chains, mixing=False)
        if certifies_condition_i_failure(doc["a"], alphas):
            return doc


def derive_families(seed):
    rng = random.Random(f"derive:{seed}")
    fams = []
    for k, (kind, alphas) in enumerate(DERIVE_SLOTS):
        if kind == "fail_i":
            doc = _failing_condition_i(rng, alphas)
        else:
            doc = _build(rng, alphas, _random_chains(rng, alphas))
            while kind == "evenlead" and not _even_lead_spots(doc):
                doc = _build(rng, alphas, _random_chains(rng, alphas))
            if kind == "unit":
                doc = _with_unit_layers(rng, doc)
            elif kind == "evenlead":
                doc = _with_even_lead(rng, doc)
        fams.append(_family(f"{kind}{k:02d}", kind, doc))
    return fams + [_family("paper855", "paper", PAPER_855)]


FAMILIES = {"scan": scan_families, "certify": certify_families, "derive": derive_families}
