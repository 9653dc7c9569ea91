"""Weighted inner product, orthogonality, and duals.

The pairing weights block i by 2^(n-i) so that every block contributes
mod 2^n:  u.v = sum_i 2^(n-i) <u_i, v_i> mod 2^n.  Scaling block i by
2^(n-i) (Packing.embed, the one home of the embedding) maps C into
(Z/2^n)^N, where the pairing is the plain dot product, so the dual is
solved, not searched: spanning.Code.dual takes the kernel mod 2^n of C's
Howell form (a Howell form of [A^T | I]), reduces it mod 2^i in block i
and embeds it again on packed words, and lists the span of that basis by
spanning.walk as packed words.  dual_code is its Codeword edge.
brute_force_dual is the cross-check: it scans the whole ambient module
at desk scale and tests each vector against a spanning family (each
generator with all of its shifts), which suffices because the pairing
is biadditive and every code element is an integer combination of
generator shifts.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from .codespace import (
    BudgetExceeded,
    Codeword,
    ProfileMismatch,
    cyclic_shift,
    iter_space_range,
    partition_range,
)
from .spanning import Code


def inner_product(u: Codeword, v: Codeword):
    """Weighted dot product, reduced mod 2^n."""
    if u.profile != v.profile:
        raise ProfileMismatch("profiles differ")
    packing = u.profile.packing  # embedded, block i carries its 2^(n-i)
    return sum(a * b for a, b in zip(packing.embed(u.w), packing.unpack(v.w))) % (1 << u.profile.n)


def shift_adjoint_check(u: Codeword, v: Codeword):
    """Whether T^(k-1)(v) . u == v . T(u), with k the joint shift order."""
    w = v
    for _ in range(v.profile.shift_order() - 1):
        w = cyclic_shift(w)
    return inner_product(w, u) == inner_product(v, cyclic_shift(u))


class DualResult:
    def __init__(self, dual_codewords, cyclic_flag):
        self.dual_codewords = dual_codewords  # canonical lexicographic order
        self.cyclic_flag = cyclic_flag

    def __eq__(self, other):
        return other.__class__ is DualResult and vars(self) == vars(other)

    @property
    def dual_count(self):
        return len(self.dual_codewords)


def spanning_family(generators):
    """Generators and all their shifts: enough to test orthogonality to C."""
    family = {}  # by packed word, in first-seen order
    for g in generators:
        w = g
        for _ in range(g.profile.shift_order()):
            family.setdefault(w.w, w)
            w = cyclic_shift(w)
    return list(family.values())


def brute_force_dual(generators, profile, budget=1 << 20, threads=1):
    """Scan the ambient module for the dual of the code the generators span.

    The scan splits into coordinate-prefix ranges filtered independently
    (threads caps the workers) and merged in range order, so the result
    is canonical regardless of the worker count.
    """
    total = 1 << profile.space_size_exponent()
    if total > budget:
        raise BudgetExceeded(
            f"ambient module has 2^{profile.space_size_exponent()} elements, budget {budget}"
        )
    family = spanning_family(generators)

    def scan(rng):
        return [
            v for v in iter_space_range(profile, *rng)
            if all(inner_product(u, v) == 0 for u in family)
        ]

    chunks = partition_range(total, threads)
    if len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(scan, chunks))
    else:
        parts = [scan(rng) for rng in chunks]
    dual = [v for part in parts for v in part]
    keys = {v.w for v in dual}
    return DualResult(tuple(dual), all(cyclic_shift(v).w in keys for v in dual))


def dual_code(generators, profile, budget=1 << 20):
    """The dual of the code the generators span, solved over Z/2^n.

    Raises BudgetExceeded when the dual has more than budget words;
    otherwise lists each word once, in canonical lexicographic order.
    """
    words, cyclic = Code([v.w for v in generators], profile).dual(budget)
    return DualResult(tuple(map(profile.packing.codeword, words)), cyclic)
