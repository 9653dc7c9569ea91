"""Inner product, shift-adjointness, and duals: solved, and scanned as the cross-check."""

import itertools
import random

import pytest

from mixedcyclic.cli import load_code_spec
from mixedcyclic.closure import module_closure
from mixedcyclic.codespace import (
    AlphabetProfile,
    BudgetExceeded,
    Codeword,
    all_codewords,
    cyclic_shift,
)
from mixedcyclic.duality import (
    brute_force_dual,
    dual_code,
    inner_product,
    shift_adjoint_check,
    spanning_family,
)
from mixedcyclic.spanning import Code

from test_random_families import _random_family
from conftest import DEMO_CODES, EVEN_LEAD_A2, UNIT_LAYER_A2, family_33, run_optimized


def test_inner_product_examples():
    prof1 = AlphabetProfile((3,))
    u = Codeword(prof1, ((1, 1, 0),))
    v = Codeword(prof1, ((1, 0, 1),))
    assert inner_product(u, v) == 1

    prof = AlphabetProfile((1, 1))
    u = Codeword(prof, ((1,), (2,)))
    v = Codeword(prof, ((1,), (3,)))
    assert inner_product(u, v) == (2 * 1 + 2 * 3) % 4 == 0

    assert inner_product(u, Codeword.zero(prof)) == 0


def test_inner_product_biadditive():
    prof = AlphabetProfile((2, 3))
    words = list(all_codewords(prof))
    rng = random.Random(21)
    for _ in range(200):
        u, v, w = rng.choice(words), rng.choice(words), rng.choice(words)
        lhs = inner_product(u + v, w)
        rhs = (inner_product(u, w) + inner_product(v, w)) % (1 << prof.n)
        assert lhs == rhs


def test_shift_adjoint_examples():
    prof = AlphabetProfile((2, 3))
    zero = Codeword.zero(prof)
    assert shift_adjoint_check(zero, zero)
    words = list(all_codewords(prof))
    rng = random.Random(2)
    for _ in range(100):
        u, v = rng.choice(words), rng.choice(words)
        assert shift_adjoint_check(u, v)


def test_shift_adjoint_exhaustive_profile_11():
    prof = AlphabetProfile((1, 1))
    for u, v in itertools.product(all_codewords(prof), repeat=2):
        assert shift_adjoint_check(u, v)


def test_dual_of_zero_and_full():
    prof = AlphabetProfile((1, 1))
    zero = Codeword.zero(prof)
    res = brute_force_dual([zero], prof, budget=1 << 10)
    assert res.dual_count == 1 << prof.space_size_exponent()

    gens = [Codeword(prof, ((1,), (0,))), Codeword(prof, ((0,), (1,)))]
    res = brute_force_dual(gens, prof, budget=1 << 10)
    assert res.dual_count == 1
    assert res.dual_codewords[0].is_zero()
    assert res.cyclic_flag


def test_solved_dual_of_zero_lists_every_word_across_walk_tables():
    # 2^15 words: the walk of the dual's basis runs through several chunk tables
    prof = AlphabetProfile((5, 5))
    res = dual_code([Codeword.zero(prof)], prof, budget=1 << 16)
    ranges = [range(1 << i) for i, a in enumerate(prof.alphas, start=1) for _ in range(a)]
    assert [w.flat() for w in res.dual_codewords] == list(itertools.product(*ranges))
    assert res.cyclic_flag


def test_dual_orthogonal_to_whole_code_and_cyclic():
    prof = AlphabetProfile((3, 3))
    seed = Codeword(prof, ((1, 1, 0), (1, 1, 3)))
    code = list(module_closure([seed]).codewords())
    res = brute_force_dual([seed], prof, budget=1 << 10)
    for w in res.dual_codewords:
        for u in code:
            assert inner_product(u, w) == 0
    assert res.cyclic_flag
    # a full re-check against every codeword agrees with the spanning-family scan
    full = tuple(w for w in res.dual_codewords
                 if all(inner_product(u, w) == 0 for u in code))
    assert full == res.dual_codewords


def test_toy_code_dual_measurements():
    # recorded values for the 64-word code on (3,3): its dual has 8 words,
    # and for this instance |C| * |dual| happens to equal the space size
    from mixedcyclic.generators import StructuredGenerators
    from mixedcyclic.modring import Poly

    prof = AlphabetProfile((3, 3))
    gens = StructuredGenerators(
        prof,
        ((Poly((1, 1), 1),), (Poly((1, 1, 1), 2), Poly((1,), 2))),
        ((Poly((1,), 2),),),
    )
    code = module_closure(gens.generator_codewords())
    assert len(code) == 64
    res = brute_force_dual(gens.generator_codewords(), prof, budget=1 << 10)
    assert res.dual_count == 8
    assert len(code) * res.dual_count == 1 << prof.space_size_exponent()


def test_double_dual_contains_code():
    prof = AlphabetProfile((3, 3))
    seed = Codeword(prof, ((1, 1, 0), (1, 1, 3)))
    code = module_closure([seed])
    dual = brute_force_dual([seed], prof, budget=1 << 10)
    double = brute_force_dual(list(dual.dual_codewords), prof, budget=1 << 10)
    double_keys = {w.flat() for w in double.dual_codewords}
    assert set(code.elements) <= double_keys


def test_dual_scan_is_thread_count_invariant():
    prof = AlphabetProfile((3, 3))
    seed = Codeword(prof, ((1, 1, 0), (1, 1, 3)))
    base = brute_force_dual([seed], prof, budget=1 << 10)
    for threads in (2, 3, 5):
        res = brute_force_dual([seed], prof, budget=1 << 10, threads=threads)
        assert res.dual_codewords == base.dual_codewords
        assert res.cyclic_flag == base.cyclic_flag


def test_budget_guard():
    prof = AlphabetProfile((8, 5, 5))
    with pytest.raises(BudgetExceeded):
        brute_force_dual([Codeword.zero(prof)], prof, budget=1 << 20)


def test_spanning_family_covers_generator_orbit():
    prof = AlphabetProfile((2, 3))
    g = Codeword(prof, ((1, 0), (1, 2, 0)))
    fam = spanning_family([g])
    w = g
    for _ in range(prof.shift_order()):
        assert any(w == f for f in fam)
        w = cyclic_shift(w)


DESK_DOCUMENTS = ["demos/codes/binary_n1.json", "demos/codes/toy_n2.json",
                  "demos/codes/tower_111.json", "tests/data/missing_h31.json"]


def _desk_families():
    families = []
    for path in DESK_DOCUMENTS:
        with open(path) as fh:
            families.append(load_code_spec(fh.read()))
    return families + [family_33(UNIT_LAYER_A2), family_33(EVEN_LEAD_A2)]


def _seeded_families(max_exponent):
    rng = random.Random(20240817)
    families = [_random_family(rng) for _ in range(60)]
    return [g for g in families if g.profile.space_size_exponent() <= max_exponent]


def test_solved_dual_equals_the_scan_on_desk_codes():
    # the demo codes whose ambient space a scan can cover, the family that
    # passes without h_31, and the (3,3) unit-layer and even-lead families
    for g in _desk_families():
        words = g.generator_codewords()
        assert dual_code(words, g.profile) == brute_force_dual(words, g.profile), g.profile


def test_solved_dual_equals_the_scan_on_seeded_families():
    families = _seeded_families(12)
    assert len(families) == 46
    for g in families:
        words = g.generator_codewords()
        solved = dual_code(words, g.profile)
        assert solved == brute_force_dual(words, g.profile, budget=1 << 12), g.profile
        assert solved.cyclic_flag


def test_dual_of_the_dual_is_the_closure():
    for g in _desk_families() + _seeded_families(12):
        oracle = module_closure(g.generator_codewords(), budget=1 << 12)
        assert oracle.saturated
        double = dual_code(dual_code(g.generator_codewords(), g.profile).dual_codewords, g.profile)
        assert double.dual_count == len(oracle), g.profile
        assert all(w.flat() in oracle.elements for w in double.dual_codewords)


def test_dual_of_the_dual_is_the_code_on_every_desk_code():
    # C-perp-perp = C without the closure: equal exponents, and each Howell
    # basis reduces the other's rows to zero
    for g in _desk_families() + _seeded_families(12):
        code, ambient = g.code, 1 << g.profile.space_size_exponent()
        perp = Code(code.dual(ambient)[0], g.profile)
        double = Code(perp.dual(ambient)[0], g.profile)
        assert double.exponent == code.exponent, g.profile
        for a, b in ((code, double), (double, code)):
            assert all(a.basis.reduce(a.basis.pack(row)) is not None for _, _, row in b.basis)


def test_dual_size_check_raises_under_python_O():
    # an explicit raise, not an assert statement: python -O keeps the check
    doc = DEMO_CODES / "toy_n2.json"
    probe = f"""
import pathlib, sys
from mixedcyclic.cli import load_code_spec
code = load_code_spec(pathlib.Path({str(doc)!r}).read_text()).code
print(sys.flags.optimize, len(code.dual(1 << 16)[0]))
code.exponent += 1
try:
    code.dual(1 << 16)
except AssertionError as e:
    print("AssertionError:", e)
"""
    assert run_optimized(probe) == "1 8\nAssertionError: |C| * |C-perp| != |ambient|\n"


def test_solved_dual_of_the_paper_example(example855):
    words = example855.generator_codewords()
    res = dual_code(words, example855.profile)
    assert res.dual_count == 4 and res.cyclic_flag
    family = spanning_family(words)
    assert all(inner_product(u, w) == 0 for w in res.dual_codewords for u in family)
    prof = example855.profile
    code_exponent = sum(prof.n - v for _, v, _ in Code([w.w for w in words], prof).basis)
    assert (code_exponent, prof.space_size_exponent()) == (31, 33)


def test_solved_dual_budget_bounds_the_dual_not_the_ambient_space(toy2):
    words = toy2.generator_codewords()
    with pytest.raises(BudgetExceeded, match=r"2\^3 words, budget 4"):
        dual_code(words, toy2.profile, budget=4)
    assert dual_code(words, toy2.profile, budget=8).dual_count == 8
