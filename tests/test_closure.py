"""Brute-force module closure: hand-checked sets, idempotence, budgets, and
agreement with Codeword-level saturations (breadth-first, and by cosets)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcyclic.closure import module_closure
from mixedcyclic.codespace import AlphabetProfile, Codeword, ProfileMismatch, cyclic_shift

from conftest import codeword_closure, coset_closure, kernel_families, run_optimized


def test_zero_seed():
    prof = AlphabetProfile((3,))
    res = module_closure([Codeword.zero(prof)])
    assert len(res) == 1 and res.saturated


def test_even_weight_code_alpha3():
    prof = AlphabetProfile((3,))
    seed = Codeword(prof, ((1, 1, 0),))
    res = module_closure([seed])
    expected = {(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)}
    assert {w for w in res.elements} == expected
    assert res.saturated


def test_level1_slice_of_three_level_example():
    # closure of 1 + x^2 on the length-8 binary block alone
    prof = AlphabetProfile((8,))
    seed = Codeword(prof, ((1, 0, 1, 0, 0, 0, 0, 0),))
    res = module_closure([seed])
    assert len(res) == 64


def test_closure_is_pairwise_closed_and_idempotent():
    prof = AlphabetProfile((3, 3))
    seed = Codeword(prof, ((1, 1, 0), (1, 1, 3)))
    res = module_closure([seed])
    words = list(res.codewords())
    for u, v in itertools.product(words, repeat=2):
        assert (u + v).flat() in res.elements
    for u in words:
        assert cyclic_shift(u).flat() in res.elements
    again = module_closure(words)
    assert again.elements == res.elements


def test_order_independence():
    prof = AlphabetProfile((3, 3))
    a = Codeword(prof, ((1, 1, 0), (0, 0, 0)))
    b = Codeword(prof, ((0, 0, 0), (1, 1, 3)))
    assert module_closure([a, b]).elements == module_closure([b, a]).elements


def test_budget_abort_is_flagged():
    prof = AlphabetProfile((8,))
    seed = Codeword(prof, ((1, 0, 1, 0, 0, 0, 0, 0),))
    res = module_closure([seed], budget=10)
    assert not res.saturated
    assert len(res) <= 10 + 1


def test_contains_rejects_a_word_over_another_profile():
    prof = AlphabetProfile((3, 3))
    res = module_closure([Codeword.from_text(prof, "1,1,0|1,1,3")])
    assert Codeword.from_text(prof, "0,1,1|3,1,1") in res
    assert Codeword.from_text(prof, "1,0,0|0,0,0") not in res
    # a flat tuple is read in the closure's own profile, as 0,0,0|1,1,1; a
    # Codeword carries its profile, and the (6,) word is not in this module
    assert (0, 0, 0, 1, 1, 1) in res
    with pytest.raises(ProfileMismatch):
        Codeword.from_text(AlphabetProfile((6,)), "0,0,0,1,1,1") in res


def test_seeds_over_different_profiles_raise():
    a = Codeword.from_text(AlphabetProfile((3, 3)), "1,1,0|1,1,3")
    b = Codeword.from_text(AlphabetProfile((3,)), "1,1,0")
    for seeds in ([a, b], [b, a], [a, a, b]):
        with pytest.raises(ProfileMismatch):
            module_closure(seeds)


def _generator_seeds():
    return [(name, list(s.family.generator_codewords())) for name, s in kernel_families()]


@pytest.mark.parametrize("seeds", [pytest.param(seeds, id=name) for name, seeds in _generator_seeds()])
def test_closure_matches_the_codeword_saturation(seeds):
    res = module_closure(seeds)
    assert (res.elements, res.saturated) == codeword_closure(seeds)
    assert [w.flat() for w in res.codewords()] == sorted(res.elements)


@pytest.mark.parametrize("budget", [0, 1, 2, 7, 33])
def test_budget_stopped_closure_matches_the_codeword_saturation(budget):
    # the same orbit order and whole cosets keep the same partial set
    for name, seeds in _generator_seeds():
        res = module_closure(seeds, budget=budget)
        expected, saturated = coset_closure(seeds, budget=budget)
        assert (res.elements, res.saturated) == (expected, saturated), name
        if len(module_closure(seeds)) > max(budget, 1):
            assert not res.saturated and len(res) <= max(budget, 1), name


@st.composite
def seed_lists(draw):
    """A profile with n from 1 to 8 (two-byte fields at n = 8) and 1 to 4
    seeds over it: zero seeds, repeats of an earlier seed, and words whose
    blocks repeat a pattern of a length dividing alpha_i (short shift
    periods).  Level i holds multiples of 2^(i - t_i), a shift-closed
    subgroup of at most 2^8 words, so the plain-tuple references stay fast;
    at level 8 the multiples of 64 carry past a field's low byte."""
    n = draw(st.integers(1, 8), label="n")
    alphas = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n), label="alphas")
    tops, room = [0] * n, 8
    for i in draw(st.permutations(range(1, n + 1)), label="order"):  # who gets the room first
        tops[i - 1] = draw(st.integers(min(1, room // alphas[i - 1]), min(i, room // alphas[i - 1])))
        room -= tops[i - 1] * alphas[i - 1]
    profile = AlphabetProfile(alphas, allow_nonstandard=True)
    seeds = []
    for _ in range(draw(st.integers(1, 4), label="seeds")):
        kind = draw(st.sampled_from(["zero", "repeat", "word", "word"]))
        if kind == "zero":
            seeds.append(Codeword.zero(profile))
        elif kind == "repeat" and seeds:
            seeds.append(draw(st.sampled_from(seeds)))
        else:
            blocks = []
            for i, (a, t) in enumerate(zip(alphas, tops), start=1):
                period = draw(st.sampled_from([d for d in range(1, a + 1) if a % d == 0]))
                pattern = draw(st.lists(st.integers(0, (1 << t) - 1), min_size=period,
                                        max_size=period))
                blocks.append([c << (i - t) for c in pattern] * (a // period))
            seeds.append(Codeword(profile, blocks))
    return seeds


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed_lists(), st.data())
def test_closure_matches_the_tuple_saturations_on_random_seeds(seeds, data):
    full = module_closure(seeds)
    assert (full.elements, full.saturated) == codeword_closure(seeds)
    size = len(full)
    budget = data.draw(st.sampled_from([0, 1, size // 2, size - 1, size, size + 1])
                       | st.integers(0, 2 * size), label="budget")
    part = module_closure(seeds, budget=budget)
    assert part.saturated == (size <= max(budget, 1))
    assert part.words <= full.words and len(part) <= max(budget, 1)
    assert (part.elements, part.saturated) == coset_closure(seeds, budget=budget)


def test_shift_sweep_raises_under_python_O():
    # an explicit raise, not an assert statement: python -O keeps the check
    probe = """
import sys
from mixedcyclic.closure import module_closure
from mixedcyclic.codespace import AlphabetProfile, Codeword, Packing
seed = Codeword.from_text(AlphabetProfile((3, 3)), "1,1,0|1,1,3")
print(sys.flags.optimize, module_closure([seed]).saturated)
shift = Packing.shift
Packing.shift = lambda self, w: shift(self, w) ^ 1
try:
    module_closure([seed])
except AssertionError as e:
    print("AssertionError:", e)
"""
    assert run_optimized(probe) == ("1 True\n"
                                    "AssertionError: the closure is not closed under the shift\n")
