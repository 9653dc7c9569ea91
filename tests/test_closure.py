"""Brute-force module closure: hand-checked sets, idempotence, budgets, and
agreement with a Codeword-level saturation."""

import itertools

import pytest

from mixedcyclic.closure import module_closure
from mixedcyclic.codespace import AlphabetProfile, Codeword, ProfileMismatch, cyclic_shift

from conftest import codeword_closure, kernel_families


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
    # the same breadth-first order keeps the same partial set
    for name, seeds in _generator_seeds():
        res = module_closure(seeds, budget=budget)
        expected, saturated = codeword_closure(seeds, budget=budget)
        assert (res.elements, res.saturated) == (expected, saturated), name
        if len(module_closure(seeds)) > max(budget, 1):
            assert not res.saturated and len(res) <= max(budget, 1), name
