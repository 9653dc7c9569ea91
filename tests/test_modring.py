"""Ring arithmetic, division, witness search, and the mod-2^k solver."""

import itertools
import random

import pytest

from mixedcyclic.modring import (
    LinearSystem,
    ModulusMismatch,
    Poly,
    all_polys,
    divides_witness,
    poly_divmod_unit_lead,
    poly_mul,
    solve_linear_mod2k,
)


def P(coeffs, k):
    return Poly(tuple(coeffs), k)


def schoolbook_mul(p, q):
    # independent oracle: dict-based convolution
    out = {}
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] = out.get(i + j, 0) + a * b
    size = max(out) + 1 if out else 0
    return P([out.get(e, 0) for e in range(size)], p.k)


def test_add_examples():
    assert P([1, 1], 1) + P([1, 1], 1) == Poly.zero(1)
    assert P([3, 0, 2], 2) + P([1, 0, 2], 2) == Poly.zero(2)
    assert P([1, 1], 2) + P([0, 1, 1], 2) == P([1, 2, 1], 2)


def test_add_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        P([1], 1) + P([1], 2)


def test_mul_examples():
    assert P([1, 1], 1) * P([1, 1], 1) == P([1, 0, 1], 1)
    lhs = P([1, 0, 1], 1) * P([1, 0, 1, 0, 1, 0, 1], 1)
    assert lhs == P([1, 0, 0, 0, 0, 0, 0, 0, 1], 1)
    assert lhs == schoolbook_mul(P([1, 0, 1], 1), P([1, 0, 1, 0, 1, 0, 1], 1))
    assert poly_mul(P([0, 1], 1), P([1, 0, 1], 1), alpha=3) == P([1, 1], 1)


def test_mul_matches_schoolbook_randomised():
    rng = random.Random(7)
    for _ in range(200):
        k = rng.randint(1, 3)
        p = P([rng.randrange(1 << k) for _ in range(rng.randint(0, 5))], k)
        q = P([rng.randrange(1 << k) for _ in range(rng.randint(0, 5))], k)
        assert p * q == schoolbook_mul(p, q)


def test_ring_axioms():
    # additive inverses exhaustively for deg <= 3, k <= 3
    for k in (1, 2, 3):
        for p in all_polys(k, 3):
            assert p + (-p) == Poly.zero(k)
    # pairwise laws exhaustively on a small slice
    polys = list(all_polys(2, 1))
    for p, q in itertools.product(polys, repeat=2):
        assert p + q == q + p
        assert p * q == q * p
    # triple laws on randomized deg <= 3, k <= 3 inputs
    rng = random.Random(3)
    for _ in range(400):
        k = rng.randint(1, 3)
        pick = lambda: P([rng.randrange(1 << k) for _ in range(4)], k)
        p, q, r = pick(), pick(), pick()
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_degree_and_canonical_zero():
    assert Poly.zero(2).degree() is None
    assert Poly.zero(2).coeffs == ()
    assert P([3, 0, 2], 2).degree() == 2  # non-unit leading coefficient
    assert P([1, 2, 0, 0], 2).degree() == 1  # trailing zeros stripped
    assert P([0, 4], 2) == Poly.zero(2)  # coefficients reduce mod 4
    assert P([-1], 2) == P([3], 2)  # negative inputs reduce too
    assert Poly.x_to_alpha_minus_1(3, 2) == P([3, 0, 0, 1], 2)


def test_divmod_examples():
    g = P([1, 0, 0, 0, 0, 0, 0, 0, 1], 1)
    f = P([1, 0, 1], 1)
    q, r = poly_divmod_unit_lead(g, f)
    assert r.is_zero()
    assert q == P([1, 0, 1, 0, 1, 0, 1], 1)
    assert q * f == g

    q, r = poly_divmod_unit_lead(P([1, 1, 1], 1), P([1, 1], 1))
    assert q == P([0, 1], 1) and r == P([1], 1)

    g = P([3, 1, 2], 2)
    q, r = poly_divmod_unit_lead(g, Poly.one(2))
    assert q == g and r.is_zero()


def test_divmod_reproduces_dividend_exhaustive():
    for k in (1, 2):
        for f in all_polys(k, 2):
            if f.is_zero() or not f.has_unit_lead():
                continue
            for g in all_polys(k, 3):
                q, r = poly_divmod_unit_lead(g, f)
                assert q * f + r == g
                assert r.is_zero() or r.degree() < f.degree()


def test_divmod_refusals():
    with pytest.raises(ZeroDivisionError):
        poly_divmod_unit_lead(P([1], 2), Poly.zero(2))
    with pytest.raises(ValueError):
        poly_divmod_unit_lead(P([1], 2), P([1, 2], 2))  # leading coeff 2


def test_divides_witness_examples():
    q = divides_witness(P([1, 0, 1], 1), P([1, 0, 0, 0, 0, 0, 0, 0, 1], 1))
    assert q == P([1, 0, 1, 0, 1, 0, 1], 1)

    q = divides_witness(P([3], 2), P([3, 0, 2], 2))
    assert q is not None and q * P([3], 2) == P([3, 0, 2], 2)
    assert q == P([1, 0, 2], 2)

    assert divides_witness(P([1, 1], 1), P([1, 1, 1], 1)) is None


def test_divides_witness_soundness_randomised():
    rng = random.Random(11)
    for _ in range(300):
        k = rng.randint(1, 3)
        alpha = rng.randint(1, 4)
        f = P([rng.randrange(1 << k) for _ in range(rng.randint(1, alpha))], k)
        g = P([rng.randrange(1 << k) for _ in range(rng.randint(1, alpha))], k)
        q = divides_witness(f, g, alpha=alpha)
        if q is not None:
            assert poly_mul(q, f, alpha=alpha) == g.reduce_cyclic(alpha)


def test_divides_witness_completeness_desk_scale():
    # exhaustive comparison against brute-force quotient search, k <= 2, alpha <= 4
    for k in (1, 2):
        for alpha in (2, 3, 4):
            polys = list({p.coeffs: p for p in all_polys(k, alpha - 1)}.values())
            for f in polys:
                reachable = {poly_mul(q, f, alpha=alpha).coeffs for q in polys}
                for g in polys:
                    witness = divides_witness(f, g, alpha=alpha)
                    assert (witness is not None) == (g.coeffs in reachable), (f, g)
                    if witness is not None:
                        assert poly_mul(witness, f, alpha=alpha) == g


def test_solver_examples():
    sys = LinearSystem(((2,),), (2,), 2)
    x = solve_linear_mod2k(sys)
    assert x is not None and (2 * x[0]) % 4 == 2
    assert x == [1]  # least admissible value

    assert solve_linear_mod2k(LinearSystem(((2,),), (1,), 2)) is None

    sys = LinearSystem(((1, 0), (0, 1)), (3, 5), 3)
    assert solve_linear_mod2k(sys) == [3, 5]


def test_solver_needs_column_freedom():
    # 2x + y = 1 mod 4 is solvable only through the odd column
    sys = LinearSystem(((2, 1),), (1,), 2)
    x = solve_linear_mod2k(sys)
    assert x is not None and (2 * x[0] + x[1]) % 4 == 1


def test_solver_agreement_with_exhaustive_3x3():
    rng = random.Random(5)
    for k in (1, 2, 3):
        mod = 1 << k
        for _ in range(40):
            a = [[rng.randrange(mod) for _ in range(3)] for _ in range(3)]
            b = [rng.randrange(mod) for _ in range(3)]
            sol = solve_linear_mod2k(LinearSystem(tuple(map(tuple, a)), tuple(b), k))
            brute = None
            for x in itertools.product(range(mod), repeat=3):
                if all(
                    sum(a[r][c] * x[c] for c in range(3)) % mod == b[r]
                    for r in range(3)
                ):
                    brute = x
                    break
            assert (sol is not None) == (brute is not None)
            if sol is not None:
                assert all(
                    sum(a[r][c] * sol[c] for c in range(3)) % mod == b[r]
                    for r in range(3)
                )


def test_solver_rejects_ragged_input():
    with pytest.raises(ValueError):
        LinearSystem(((1, 2), (1,)), (0, 0), 2)
    with pytest.raises(ValueError):
        LinearSystem(((1, 2),), (0, 0), 2)


def test_divides_witness_zero_rhs_skips_the_solver(monkeypatch):
    import mixedcyclic.modring as modring

    def refuse(_system):
        raise AssertionError("solver called for a zero right-hand side")

    monkeypatch.setattr(modring, "solve_linear_mod2k", refuse)
    for f in (P([2, 1, 2], 2), P([0, 2], 2), P([3, 0, 1], 2), Poly.zero(2)):
        for alpha in (None, 3):
            assert divides_witness(f, Poly.zero(2), alpha) == Poly.zero(2)


def test_divides_witness_returns_the_plain_quotient_for_unit_lead():
    rng = random.Random(5)
    for _ in range(200):
        k = rng.randint(1, 3)
        alpha = rng.randint(2, 5)
        f = P([rng.randrange(1 << k) for _ in range(rng.randint(0, alpha - 1))]
              + [rng.randrange(1, 1 << k, 2)], k)
        g = f * P([rng.randrange(1 << k) for _ in range(rng.randint(1, alpha))], k)
        q, r = poly_divmod_unit_lead(g, f)
        assert r.is_zero()
        for ring in (None, alpha):
            assert divides_witness(f, g, ring) == q, (f, g, ring)
