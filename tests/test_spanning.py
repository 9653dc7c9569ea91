"""Spanning sets: block sizes, counting, enumeration, membership, matrices."""

import itertools
import random

import pytest

import mixedcyclic.spanning as spanning
from mixedcyclic.closure import module_closure
from mixedcyclic.codespace import (AlphabetProfile, BudgetExceeded, Codeword, ProfileMismatch,
                                   all_codewords, cyclic_shift, partition_range)
from mixedcyclic.generators import derive_cofactors
from mixedcyclic.modring import echelon_mod2k
from mixedcyclic.spanning import (
    build_spanning_set,
    codeword_at_index,
    codeword_count_exponent,
    diff_against_reference,
    distinct_codewords,
    enumerate_codewords,
    generator_matrix,
    iter_codeword_range,
    iter_packed_range,
    matrix_to_csv,
    membership_test,
    parse_matrix_csv,
    span_size,
)

from conftest import (EVEN_LEAD_A2, UNIT_LAYER_A2, codeword_path, family_33, kernel_families,
                      make_generators)
from test_random_families import _random_family


def spanning_for(g):
    c = derive_cofactors(g)
    return c, build_spanning_set(g, c)


def test_binary7_block(binary7):
    c, s = spanning_for(binary7)
    assert s.counts[(1, 0)] == 6
    assert [lab for lab, _ in s.rows] == [(1, 0, k) for k in range(6)]
    base = Codeword(binary7.profile, ((1, 1, 0, 0, 0, 0, 0),))
    w = base
    for (_, _, k), row in s.rows:
        assert row == w
        w = cyclic_shift(w)
    assert codeword_count_exponent(c) == 6


def test_degenerate_levels_produce_empty_blocks():
    g = make_generators(
        [3, 3],
        [[[1, 0, 0, 1]], [[3, 0, 0, 1], [3, 0, 0, 1]]],
        [[[0]]],
    )
    c, s = spanning_for(g)
    assert all(count == 0 for count in s.counts.values())
    assert s.rows == ()
    assert codeword_count_exponent(c) == 0
    distinct, total = distinct_codewords(s)
    assert total == 1 and len(distinct) == 1


def test_toy2_blocks_and_count(toy2):
    c, s = spanning_for(toy2)
    assert s.counts == {(1, 0): 2, (2, 0): 1, (2, 1): 2}
    assert codeword_count_exponent(c) == 6
    rows = {lab: row.to_text() for lab, row in s.rows}
    assert rows[(1, 0, 0)] == "1,1,0|0,0,0"
    assert rows[(1, 0, 1)] == "0,1,1|0,0,0"
    assert rows[(2, 0, 0)] == "1,0,0|3,1,1"
    # h_20 = x + 3: mixing part (x+3) mod 2 = 1+x, level part 2*(x+3) = 2x+2
    assert rows[(2, 1, 0)] == "1,1,0|2,2,0"
    assert rows[(2, 1, 1)] == "0,1,1|0,2,2"


def test_enumeration_matches_closure(binary7, toy2, tower111):
    for g in (binary7, toy2, tower111):
        c, s = spanning_for(g)
        t = codeword_count_exponent(c)
        distinct, total = distinct_codewords(s)
        assert total == 1 << t
        assert len(distinct) == 1 << t
        oracle = module_closure(g.generator_codewords())
        assert oracle.saturated
        assert set(distinct) == set(oracle.elements)


def test_enumerated_set_closed_under_add_and_shift(toy2):
    _, s = spanning_for(toy2)
    distinct, _ = distinct_codewords(s)
    words = list(distinct.values())
    keys = set(distinct)
    for u, v in itertools.product(words, repeat=2):
        assert (u + v).flat() in keys
    for u in words:
        assert cyclic_shift(u).flat() in keys


def test_enumeration_order_is_reproducible_and_indexable(toy2):
    _, s = spanning_for(toy2)
    stream = [w.to_text() for w in enumerate_codewords(s)]
    again = [w.to_text() for w in enumerate_codewords(s)]
    assert stream == again
    assert stream[0] == "0,0,0|0,0,0"
    for idx in (0, 1, 5, 17, 63):
        assert codeword_at_index(s, idx).to_text() == stream[idx]
    # partitioned iteration concatenates to the same stream
    n = span_size(s)
    parts = []
    for lo, hi in ((0, 13), (13, 40), (40, n)):
        parts.extend(w.to_text() for w in iter_codeword_range(s, lo, hi))
    assert parts == stream


def test_packed_stream_decodes_to_the_codeword_path():
    for name, s in kernel_families():
        packing, total = s.profile.packing, span_size(s)
        stream = list(iter_packed_range(s, 0, total))
        words = [codeword_path(s, k) for k in range(total)]
        assert [packing.codeword(w) for w in stream] == words, name
        assert list(iter_codeword_range(s, 0, total)) == words, name
        assert [packing.text(w) for w in stream] == [w.to_text() for w in words], name
        assert [packing.pack(w.flat()) for w in words] == stream, name


def test_packed_stream_resumes_at_any_offset(example855):
    rng = random.Random(20240817)
    # the (8,5,5) stream has 2^24 positions: only slices of it are walked
    for name, s in kernel_families() + [("example855", spanning_for(example855)[1])]:
        total = span_size(s)
        # starts at and past the end yield nothing, not wrapped-around words
        for start in {0, total - 1, total, total + 5, *rng.sample(range(total), min(6, total))}:
            expected = [codeword_path(s, k) for k in range(start, min(start + 9, total))]
            assert list(iter_codeword_range(s, start, start + 9)) == expected, (name, start)


def test_partition_chunks_concatenate_to_the_whole_packed_stream():
    for name, s in kernel_families():
        total = span_size(s)
        whole = list(iter_packed_range(s, 0, total))
        uneven = [(0, total // 3), (total // 3, total - 1), (total - 1, total)]
        for chunks in (partition_range(total, 2), partition_range(total, 3), uneven):
            assert [w for lo, hi in chunks for w in iter_packed_range(s, lo, hi)] == whole, name


def test_enumeration_budget(toy2):
    _, s = spanning_for(toy2)
    with pytest.raises(BudgetExceeded):
        list(enumerate_codewords(s, budget=32))


def test_membership_of_rows_and_zero(toy2):
    _, s = spanning_for(toy2)
    zero = Codeword.zero(toy2.profile)
    dec = membership_test(zero, s)
    assert dec is not None and dec.coeffs == (0,) * len(s.echelon)
    for _, row in s.rows:
        dec = membership_test(row, s)
        assert dec is not None
        assert dec.evaluate(s) == row


def test_count_law_mismatch_for_unit_layer_instance():
    # a_20 = 2x^2+3 is a unit of Z4[x]: its quotient-ring cofactor is zero,
    # the spanning set undercounts, and the mismatch must be surfaced
    g = make_generators([3, 3], [[[1, 1]], [[3, 0, 2], [3]]], [[[1]]])
    c, s = spanning_for(g)
    t = codeword_count_exponent(c)
    distinct, _ = distinct_codewords(s)
    assert len(distinct) != 1 << t
    oracle = module_closure(g.generator_codewords())
    assert set(distinct) < set(oracle.elements)
    assert any(w["code"] == "unit_layer" for w in s.warnings)


def test_membership_agrees_with_closure(toy2):
    from mixedcyclic.codespace import all_codewords

    _, s = spanning_for(toy2)
    oracle = module_closure(toy2.generator_codewords())
    hits = 0
    for v in all_codewords(toy2.profile):
        dec = membership_test(v, s)
        if dec is not None:
            hits += 1
            assert dec.evaluate(s) == v
            assert v.flat() in oracle.elements
        else:
            assert v.flat() not in oracle.elements
    assert hits == len(oracle)


def test_membership_rejects_odd_weight_binary_block(toy2):
    _, s = spanning_for(toy2)
    v = Codeword(toy2.profile, ((1, 0, 0), (0, 0, 0)))
    assert membership_test(v, s) is None


def test_decomposition_respects_degree_and_modulus_bounds(toy2):
    _, s = spanning_for(toy2)
    n = toy2.profile.n
    for w in enumerate_codewords(s):
        dec = membership_test(w, s)
        assert dec is not None
        assert len(dec.coeffs) == len(s.echelon)
        for coeff, (_, v, _) in zip(dec.coeffs, s.echelon):
            assert 0 <= coeff < 1 << (n - v)


def echelon_exponent(s):
    return sum(s.profile.n - v for _, v, _ in s.echelon)


@pytest.mark.parametrize("a_2", [UNIT_LAYER_A2, EVEN_LEAD_A2], ids=["unit_layer", "even_lead"])
def test_membership_matches_closure_where_the_rows_fall_short(a_2):
    g = family_33(a_2)
    _, s = spanning_for(g)
    oracle = module_closure(g.generator_codewords())
    wrong = []
    for v in all_codewords(g.profile):
        dec = membership_test(v, s)
        if (dec is not None) != (v.flat() in oracle.elements):
            wrong.append(v.to_text())
        elif dec is not None:
            assert dec.evaluate(s) == v
    assert wrong == []


def test_echelon_exponent_equals_closure_size(binary7, toy2, example855, tower111):
    # (2, 3): lcm 6 exceeds sum alpha = 5, so the basis leaves out shift 5
    pair23 = make_generators([2, 3], [[[1, 1]], [[1, 1, 1], [1]]], [[[1]]])
    for g in (binary7, toy2, tower111, family_33(UNIT_LAYER_A2), family_33(EVEN_LEAD_A2), pair23):
        _, s = spanning_for(g)
        oracle = module_closure(g.generator_codewords())
        assert oracle.saturated
        assert len(oracle) == 1 << echelon_exponent(s), g.profile.alphas
    # 2^31 words are beyond the closure oracle; 31 is the exponent the
    # independent Howell-form reference (bench/reference.py) finds
    assert echelon_exponent(spanning_for(example855)[1]) == 31


@pytest.mark.parametrize("alphas", [(3, 3, 1), (5, 5), (3,)])
def test_membership_rejects_a_word_over_another_profile(toy2, alphas):
    _, s = spanning_for(toy2)
    with pytest.raises(ProfileMismatch):
        membership_test(Codeword.zero(AlphabetProfile(alphas)), s)


def test_words_tested_on_one_set_share_one_echelon_build(toy2, monkeypatch):
    builds = []
    real = spanning.echelon_mod2k
    monkeypatch.setattr(spanning, "echelon_mod2k", lambda rows, k: builds.append(k) or real(rows, k))
    _, s = spanning_for(toy2)
    oracle = module_closure(toy2.generator_codewords())
    for w in itertools.islice(all_codewords(toy2.profile), 4):
        assert (membership_test(w, s) is not None) == (w in oracle)
    assert builds == [2]


def test_generator_matrix_and_csv_roundtrip(toy2):
    _, s = spanning_for(toy2)
    rows = generator_matrix(s)
    assert rows[0] == (1, 1, 0, 0, 0, 0)
    csv = matrix_to_csv(s)
    parsed = parse_matrix_csv(toy2.profile, csv)
    assert [w.flat() for w in parsed] == rows


def test_every_matrix_row_is_a_member_and_rows_close_the_code(toy2):
    _, s = spanning_for(toy2)
    closure_of_rows = module_closure(s.row_codewords())
    distinct, _ = distinct_codewords(s)
    assert set(closure_of_rows.elements) == set(distinct)


def test_example855_blocks(example855):
    c, s = spanning_for(example855)
    assert s.counts[(1, 0)] == 6
    assert s.counts[(2, 0)] == 3
    assert s.counts[(3, 0)] == 4
    # the quotient-witness cofactors zero out the off-diagonal blocks
    assert s.counts[(2, 1)] == 2 and s.counts[(3, 1)] == 1 and s.counts[(3, 2)] == 0
    zero_flags = [w for w in s.warnings if w["code"] == "zero_row"]
    assert {(w["level"], w["index"]) for w in zero_flags} == {(2, 1), (3, 1)}


def test_example855_matrix_diff(example855):
    _, s = spanning_for(example855)
    with open("tests/data/reference_matrix_855.csv") as fh:
        ref = parse_matrix_csv(example855.profile, fh.read())
    assert len(ref) == 14
    diff = diff_against_reference(s, ref)
    matched = {d["reference_row"] for d in diff["matches"]}
    assert matched == {1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13}
    assert diff["duplicate_reference_rows"] == [
        {"reference_row": 6, "duplicate_of": 5}
    ]
    assert diff["unmatched_reference_rows"] == [{"reference_row": 14}]
    produced_left = diff["unmatched_produced_rows"]
    assert {tuple(d["label"]) for d in produced_left} == {
        (1, 0, 5), (2, 1, 0), (2, 1, 1), (3, 1, 0)
    }
    assert all(d["zero_row"] for d in produced_left if d["label"][1] != 0)


def test_codeword_at_index_rejects_positions_outside_the_stream(toy2):
    _, s = spanning_for(toy2)
    assert span_size(s) == 64
    assert codeword_at_index(s, 63) == list(enumerate_codewords(s))[63]
    for idx in (64, 69, -1):
        with pytest.raises(IndexError):
            codeword_at_index(s, idx)


def test_enumeration_scales_each_row_once(binary7, toy2, tower111, monkeypatch):
    for g in (binary7, toy2, tower111):
        _, s = spanning_for(g)
        built = 0
        original = Codeword.__post_init__

        def counted(self):
            nonlocal built
            built += 1
            original(self)

        with monkeypatch.context() as mp:
            mp.setattr(Codeword, "__post_init__", counted)
            total = sum(1 for _ in enumerate_codewords(s))
        assert total == span_size(s)
        radices = [1 << s.coeff_bits[(i, j)] for (i, j, _), _ in s.rows]
        assert built <= total + sum(r - 1 for r in radices), (built, total)


def _written_out_echelon(g):
    """echelon_mod2k of the shifts x^k g_i, k < min(lcm alpha, sum alpha), taken
    by Codeword arithmetic and embedded by hand: block i times 2^(n-i)."""
    prof, rows = g.profile, []
    for w in g.generator_codewords():
        for _ in range(min(prof.shift_order(), sum(prof.alphas))):
            rows.append([c << (prof.n - i) for i, b in enumerate(w.components, start=1) for c in b])
            w = cyclic_shift(w)
    return echelon_mod2k(rows, prof.n)


def test_echelon_is_the_written_out_embedding(binary7, toy2, example855, tower111):
    rng = random.Random(20240817)  # the 60 families of test_random_families
    for g in [binary7, toy2, example855, tower111] + [_random_family(rng) for _ in range(60)]:
        assert spanning_for(g)[1].echelon == _written_out_echelon(g), g.profile.alphas
    assert spanning_for(toy2)[1].echelon == [
        (0, 1, (2, 2, 0, 0, 0, 0)), (1, 1, (0, 2, 2, 0, 0, 0)), (2, 1, (0, 0, 2, 3, 1, 1)),
        (3, 1, (0, 0, 0, 2, 2, 0)), (4, 1, (0, 0, 0, 0, 2, 2)), (5, 1, (0, 0, 0, 0, 0, 2))]
    assert spanning_for(tower111)[1].echelon == [(1, 2, (0, 4, 0)), (2, 1, (0, 0, 2))]
