"""Ring arithmetic, division, witness search, and the mod-2^k solver."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcyclic.modring import (
    LinearSystem,
    ModulusMismatch,
    Poly,
    all_polys,
    divides_witness,
    echelon_mod2k,
    poly_divmod_unit_lead,
    poly_mul,
    solve_linear_mod2k,
)

from conftest import kernel_families, pool_echelon, pool_reduce, same_module, written_out_rows
from test_random_families import _random_family


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


def test_divides_witness_plain_ring_solve_exhaustive():
    # no alpha and f not unit-leading (so the linear solve decides), k <= 2,
    # deg f <= 2, deg g <= 3, against a brute-force search over q with
    # deg q <= deg g; over Z/2 every nonzero f is unit-leading
    pairs = divisible = 0
    for k in (1, 2):
        for f in all_polys(k, 2):
            if f.is_zero() or f.has_unit_lead():
                continue
            least_deg_q = {}  # f*q -> the least deg q reaching it
            for q in all_polys(k, 3):
                if not q.is_zero():
                    prod = (f * q).coeffs
                    least_deg_q[prod] = min(least_deg_q.get(prod, 4), q.degree())
            for g in all_polys(k, 3):
                if g.is_zero():
                    continue
                pairs += 1
                witness = divides_witness(f, g)
                reachable = least_deg_q.get(g.coeffs, 4) <= g.degree()
                assert (witness is not None) == reachable, (f, g)
                if witness is not None:
                    divisible += 1
                    assert witness * f == g and witness.degree() <= g.degree(), (f, g)
    assert (pairs, divisible) == (5355, 887)


def test_divides_witness_plain_ring_bounds_the_quotient_degree():
    # (1 + 2x)^2 = 1 over Z/4, but the solve looks for q with deg q <= deg g = 0
    f = P([1, 2], 2)
    assert f * f == Poly.one(2)
    assert divides_witness(f, Poly.one(2)) is None


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
    # the solver stacks A by columns, so non-square and empty shapes are
    # where it can go wrong
    rng = random.Random(5)
    for rows, cols in ((3, 3), (1, 3), (3, 1), (2, 4), (4, 2), (0, 0), (2, 0)):
        for k in (1, 2, 3):
            mod = 1 << k
            for _ in range(40):
                a = [[rng.randrange(mod) for _ in range(cols)] for _ in range(rows)]
                b = [rng.randrange(mod) for _ in range(rows)]
                sol = solve_linear_mod2k(LinearSystem(tuple(map(tuple, a)), tuple(b), k))
                brute = None
                for x in itertools.product(range(mod), repeat=cols):
                    if all(
                        sum(a[r][c] * x[c] for c in range(cols)) % mod == b[r]
                        for r in range(rows)
                    ):
                        brute = x
                        break
                assert (sol is not None) == (brute is not None), (a, b, k)
                if sol is not None:
                    assert len(sol) == cols
                    assert all(
                        sum(a[r][c] * sol[c] for c in range(cols)) % mod == b[r]
                        for r in range(rows)
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


def _engine_cases():
    """(rows, k): the written-out embedded orbits of the 60 seeded families and
    of kernel_families(), random matrices, and the field-width edge, where
    entries and multipliers reach 2^k - 1 at k = 8 and k = 16."""
    rng = random.Random(20240817)  # the 60 families of test_random_families
    families = [_random_family(rng) for _ in range(60)] + [s.family for _, s in kernel_families()]
    cases = [(written_out_rows(g), g.profile.n) for g in families]
    rng = random.Random(13)
    for k in (1, 2, 3, 5, 8):
        for _ in range(20):
            ncols = rng.randint(1, 7)
            cases.append(([[rng.randrange(1 << k) for _ in range(ncols)]
                           for _ in range(rng.randint(0, 9))], k))
    for k in (8, 16):
        top = (1 << k) - 1
        cases.append(([[top] * 5, [1, top, top, 2, top], [top, 1, top, top, 0]], k))
        for _ in range(20):
            cases.append(([[rng.choice((0, 1, top, top - 1, 1 << (k - 1), rng.randrange(top)))
                            for _ in range(6)] for _ in range(rng.randint(1, 8))], k))
    return cases


def test_howell_engine_spans_the_pool_eliminator_module():
    for rows, k in _engine_cases():
        assert same_module(echelon_mod2k(rows, k), pool_echelon(rows, k), k), (rows, k)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_howell_engine_properties(data):
    k = data.draw(st.integers(1, 5), label="k")
    ncols = data.draw(st.integers(1, 6), label="ncols")
    entry = st.integers(0, (1 << k) - 1)
    rows = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=8),
                     label="rows")
    basis = echelon_mod2k(rows, k)
    pivots = list(basis)
    assert len(basis) == len(pivots)
    assert [col for col, _, _ in pivots] == sorted({col for col, _, _ in pivots})
    for row in rows:
        coeffs = basis.reduce(basis.pack(row))
        assert coeffs is not None and len(coeffs) == len(pivots)
        assert all(0 <= c < 1 << (k - v) for c, (_, v, _) in zip(coeffs, pivots))
        assert [sum(c * p[x] for c, (_, _, p) in zip(coeffs, pivots)) % (1 << k)
                for x in range(ncols)] == row
    for t, (col, v, row) in enumerate(pivots):
        assert row[:col] == (0,) * col and row[col] == 1 << v
        # the Howell property: the saturation lies in the span of the later pivots
        assert pool_reduce([(c << (k - v)) % (1 << k) for c in row], pivots[t + 1:], k) is not None
    assert sum(k - v for _, v, _ in pivots) == sum(k - v for _, v, _ in pool_echelon(rows, k))
