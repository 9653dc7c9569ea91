"""Weighted inner product, orthogonality, and duals.

The pairing weights block i by 2^(n-i) so that every block contributes
mod 2^n:  u.v = sum_i 2^(n-i) <u_i, v_i> mod 2^n.  Scaling block i by
2^(n-i) (Packing.embed, the one home of the embedding) maps C into
(Z/2^n)^N, where the pairing is the plain dot product, so the dual is
solved, not searched: dual_code takes the kernel mod 2^n of the code's
echelon basis (a Howell form of [A^T | I]), reduces it mod 2^i in block i
and embeds it again on packed words, and builds a Codeword only for each
dual word it lists.
brute_force_dual is the cross-check: it scans the whole ambient module
at desk scale and tests each vector against a spanning family (each
generator with all of its shifts), which suffices because the pairing
is biadditive and every code element is an integer combination of
generator shifts.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .codespace import (
    BudgetExceeded,
    Codeword,
    ProfileMismatch,
    cyclic_shift,
    iter_space_range,
    partition_range,
)
from .modring import echelon_mod2k, echelon_reduce, transpose_echelon
from .spanning import code_echelon


def inner_product(u: Codeword, v: Codeword):
    """Weighted dot product, reduced mod 2^n."""
    if u.profile != v.profile:
        raise ProfileMismatch("profiles differ")
    n = u.profile.n
    total = 0
    for i in range(1, n + 1):
        s = sum(a * b for a, b in zip(u.block(i), v.block(i)))
        total += (1 << (n - i)) * s
    return total % (1 << n)


def shift_adjoint_check(u: Codeword, v: Codeword):
    """Whether T^(k-1)(v) . u == v . T(u), with k the joint shift order."""
    w = v
    for _ in range(v.profile.shift_order() - 1):
        w = cyclic_shift(w)
    return inner_product(w, u) == inner_product(v, cyclic_shift(u))


@dataclass(frozen=True)
class DualResult:
    dual_codewords: tuple  # canonical lexicographic order
    cyclic_flag: bool

    @property
    def dual_count(self):
        return len(self.dual_codewords)


def spanning_family(generators):
    """Generators and all their shifts: enough to test orthogonality to C."""
    family = []
    seen = set()
    for g in generators:
        w = g
        for _ in range(g.profile.shift_order()):
            if w.flat() not in seen:
                seen.add(w.flat())
                family.append(w)
            w = cyclic_shift(w)
    return family


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
    keys = {v.flat() for v in dual}
    return DualResult(tuple(dual), all(cyclic_shift(v).flat() in keys for v in dual))


def dual_code(generators, profile, budget=1 << 20):
    """The dual of the code the generators span, solved over Z/2^n.

    Raises BudgetExceeded when the dual has more than budget words;
    otherwise lists each word once, in canonical lexicographic order.
    """
    n, size, packing = profile.n, sum(profile.alphas), profile.packing
    code = code_echelon(generators, profile)
    m = len(code)
    # the kernel of A mod 2^n, read mod 2^i in block i and embedded again, spans the embedded dual
    kernel = [packing.embed(packing.pack(row[m:]) & packing.mask)
              for col, _, row in transpose_echelon([row for _, _, row in code], size, n) if col >= m]
    basis = echelon_mod2k(kernel, n)
    exponent = sum(n - v for _, v, _ in basis)
    assert exponent + sum(n - v for _, v, _ in code) == profile.space_size_exponent(), \
        "|C| * |C-perp| != |ambient|"
    if 1 << exponent > budget:
        raise BudgetExceeded(f"dual has 2^{exponent} words, budget {budget}")
    rows = [packing.unembed(row) for _, _, row in basis]
    # the shift is additive: C-perp is shift-closed iff every shifted basis row is in it
    cyclic = all(echelon_reduce(packing.embed(packing.shift(w)), basis, n) is not None for w in rows)
    words = [0]
    for w, (_, v, _) in zip(rows, basis):  # multipliers c < 2^(n - v): every word once
        multiples = packing.multiples(w, 1 << (n - v))
        words = [(u + d) & packing.mask for u in words for d in multiples]
    return DualResult(tuple(map(packing.codeword, sorted(words))), cyclic)  # int order is flat() order
