"""Spanning sets: block sizes, counting, enumeration, membership, matrices."""

import itertools

import pytest

from mixedcyclic.closure import module_closure
from mixedcyclic.codespace import BudgetExceeded, Codeword, cyclic_shift
from mixedcyclic.generators import derive_cofactors
from mixedcyclic.spanning import (
    build_spanning_set,
    codeword_at_index,
    codeword_count_exponent,
    diff_against_reference,
    distinct_codewords,
    enumerate_codewords,
    generator_matrix,
    matrix_to_csv,
    membership_test,
    parse_matrix_csv,
    span_size,
)

from conftest import make_generators


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
    from mixedcyclic.spanning import iter_codeword_range

    parts = []
    for lo, hi in ((0, 13), (13, 40), (40, n)):
        parts.extend(w.to_text() for w in iter_codeword_range(s, lo, hi))
    assert parts == stream


def test_enumeration_budget(toy2):
    _, s = spanning_for(toy2)
    with pytest.raises(BudgetExceeded):
        list(enumerate_codewords(s, budget=32))


def test_membership_of_rows_and_zero(toy2):
    from mixedcyclic.modring import Poly

    _, s = spanning_for(toy2)
    zero = Codeword.zero(toy2.profile)
    dec = membership_test(zero, s)
    assert dec is not None and all(p.is_zero() for p in dec.e.values())
    for (i, j, k), row in s.rows:
        dec = membership_test(row, s)
        assert dec is not None
        assert dec.evaluate(s) == row
        # the toy parametrization is injective, so the decomposition is the
        # single unit coefficient at the row's own label
        assert dec.e[(i, j)] == Poly.x_pow(k, s.coeff_bits[(i, j)])
        assert all(p.is_zero() for key, p in dec.e.items() if key != (i, j))


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
    c, s = spanning_for(toy2)
    for w in enumerate_codewords(s):
        dec = membership_test(w, s)
        assert dec is not None
        for (i, j), p in dec.e.items():
            limit = s.counts[(i, j)]
            assert p.degree() is None or p.degree() <= limit - 1
            assert p.k == s.coeff_bits[(i, j)]
        break


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
