"""Spanning sets: block sizes, counting, enumeration, membership, matrices."""

import argparse
import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixedcyclic.cli as cli
import mixedcyclic.spanning as spanning
from mixedcyclic.closure import module_closure
from mixedcyclic.codespace import (AlphabetProfile, BudgetExceeded, Codeword, Packing,
                                   ProfileMismatch, all_codewords, cyclic_shift, partition_range)
from mixedcyclic.generators import derive_cofactors
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

from conftest import (DEMO_CODES, EVEN_LEAD_A2, UNIT_LAYER_A2, codeword_path, family_33,
                      kernel_families, label_radix, make_generators, pool_echelon,
                      same_module, written_out_rows)
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
        # starts at and past the end yield nothing, not wrapped-around words;
        # starts before 0 begin at position 0
        for start in {0, total - 1, total, total + 5, -1, -3, -total,
                      *rng.sample(range(total), min(6, total))}:
            expected = [codeword_path(s, k) for k in range(max(start, 0), min(start + 9, total))]
            assert list(iter_codeword_range(s, start, start + 9)) == expected, (name, start)


def test_partition_chunks_concatenate_to_the_whole_packed_stream():
    for name, s in kernel_families():
        total = span_size(s)
        whole = list(iter_packed_range(s, 0, total))
        uneven = [(0, total // 3), (total // 3, total - 1), (total - 1, total)]
        for chunks in (partition_range(total, 2), partition_range(total, 3), uneven):
            assert [w for lo, hi in chunks for w in iter_packed_range(s, lo, hi)] == whole, name


@functools.cache
def _spanning_855():
    """The (8,5,5) spanning set: its stream of 2^28 positions walks a full
    table of 4,096 positions per chunk, unlike every kernel family."""
    gens = cli.load_code_spec((DEMO_CODES / "three_level_855.json").read_text())
    return spanning_for(gens)[1]


def test_walk_across_each_power_of_two_is_the_codeword_path():
    s = _spanning_855()
    total = span_size(s)
    slices = [(max(0, (1 << j) - 3), (1 << j) + 6) for j in range(21)] + [(total - 9, total)]
    for start, stop in slices:
        expected = [codeword_path(s, k) for k in range(start, stop)]
        assert list(iter_codeword_range(s, start, stop)) == expected, (start, stop)


def test_walk_across_full_table_boundaries_is_the_codeword_path():
    # a slice longer than one table walks full tables and crosses their
    # boundaries (multiples of _TABLE_LIMIT here) as well as 2^j
    s, limit = _spanning_855(), spanning._TABLE_LIMIT
    for j in range(21):
        start = max(0, (1 << j) - 3)
        stop = start + limit + 9
        words = list(iter_packed_range(s, start, stop))
        assert len(words) == stop - start
        marks = [start + 2, stop - 3, 1 << j, *range(-(-start // limit) * limit, stop, limit)]
        for k in sorted({k for m in marks for k in range(m - 2, m + 3) if start <= k < stop}):
            assert words[k - start] == codeword_path(s, k).w, (j, k)
        assert words == [w for lo in range(start, stop, 9)
                         for w in iter_packed_range(s, lo, min(lo + 9, stop))], j


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_chained_stream_is_the_concatenation_of_partition_chunks(data):
    s, limit = _spanning_855(), spanning._TABLE_LIMIT
    total = span_size(s)
    start = data.draw(st.one_of(st.integers(0, total),
                                st.integers(0, total // limit).map(lambda q: q * limit)))
    stop = data.draw(st.integers(start, start + 3 * limit))
    cuts = sorted(data.draw(st.lists(st.integers(start, stop), max_size=5)))
    bounds = [start, *cuts, stop]
    whole = list(iter_packed_range(s, start, stop))
    assert len(whole) == max(0, min(stop, total) - start)
    assert whole == [w for lo, hi in zip(bounds, bounds[1:]) for w in iter_packed_range(s, lo, hi)]


def _walk_reference(levels, rows, radices, k):
    """Position k of the span over plain ints: the digits of k (digit 0
    fastest) times the coordinate rows, summed and reduced mod 2^level."""
    acc = [0] * len(levels)
    for row, radix in zip(rows, radices):
        k, d = divmod(k, radix)
        acc = [a + d * c for a, c in zip(acc, row)]
    return [a % (1 << i) for a, i in zip(acc, levels)]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_walk_is_the_digit_sum_over_any_rows_and_radices(data):
    # rows and radices no spanning set produces: zero and arbitrary reduced
    # words, radices 1..2^n, no rows at all, two-byte fields at n = 8
    n = data.draw(st.one_of(st.just(8), st.integers(1, 7)))
    alphas = data.draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    packing = AlphabetProfile(alphas, allow_nonstandard=True).packing
    levels = [i for i, a in enumerate(alphas, start=1) for _ in range(a)]
    word = st.one_of(st.just([0] * len(levels)),
                     st.tuples(*[st.integers(0, (1 << i) - 1) for i in levels]).map(list))
    rows = data.draw(st.lists(word, max_size=5))
    radices = data.draw(st.lists(st.sampled_from([1 << e for e in range(n + 1)]),
                                 min_size=len(rows), max_size=len(rows)))
    total, limit = math.prod(radices), spanning._TABLE_LIMIT
    start = data.draw(st.integers(-3, total))
    stop = start + data.draw(st.one_of(st.integers(0, 16), st.integers(0, 3 * limit),
                                       st.integers(limit, 3 * limit)))
    words = spanning.walk(packing, [packing.pack(r) for r in rows], radices, start, stop)
    assert [list(packing.unpack(w)) for w in words] == [
        _walk_reference(levels, rows, radices, k) for k in range(max(start, 0), min(stop, total))]


def test_walk_sums_many_high_digits_at_one_byte_a_field():
    # a 9-position slice keeps all 8 radix-128 digits above the table, so
    # each chunk sums 8 multiples into fields of n + 1 = 8 bits: three
    # words already carry into the next field unless every add is masked
    packing, rng = AlphabetProfile((1, 1, 1, 1, 1, 1, 3)).packing, random.Random(7)
    levels = packing.levels
    rows = [[rng.randrange(1 << i) for i in levels] for _ in range(8)]
    radices = [128] * 8
    total = math.prod(radices)
    starts = [0, total - 9, *(rng.randrange(total - 9) for _ in range(23))]
    for start in starts:
        words = spanning.walk(packing, [packing.pack(r) for r in rows], radices, start, start + 9)
        assert [list(packing.unpack(w)) for w in words] == [
            _walk_reference(levels, rows, radices, k) for k in range(start, start + 9)], start


def test_enumeration_budget(toy2):
    _, s = spanning_for(toy2)
    with pytest.raises(BudgetExceeded):
        list(enumerate_codewords(s, budget=32))


def test_membership_of_rows_and_zero(toy2):
    _, s = spanning_for(toy2)
    zero = Codeword.zero(toy2.profile)
    dec = membership_test(zero, s)
    assert dec is not None and dec.coeffs == (0,) * len(s.family.code.basis)
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
        assert len(dec.coeffs) == len(s.family.code.basis)
        for coeff, (_, v, _) in zip(dec.coeffs, s.family.code.basis):
            assert 0 <= coeff < 1 << (n - v)


def echelon_exponent(s):
    # Code.exponent, checked against the pivots as they read out
    assert s.family.code.exponent == sum(s.profile.n - v for _, v, _ in s.family.code.basis)
    return s.family.code.exponent


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
    # (2, 3): the orbit, of length lcm 6, is longer than sum alpha = 5
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
    real = spanning.Code
    monkeypatch.setattr(spanning, "Code",
                        lambda words, profile: builds.append(profile.n) or real(words, profile))
    _, s = spanning_for(toy2)
    oracle = module_closure(toy2.generator_codewords())
    for w in itertools.islice(all_codewords(toy2.profile), 4):
        assert (membership_test(w, s) is not None) == (w in oracle)
    assert builds == [2]


def test_count_member_and_dual_on_one_family_build_one_howell_form(monkeypatch):
    # count's exponent, membership and dual's kernel all read the family's one Code
    builds = []
    real = spanning.Howell
    monkeypatch.setattr(spanning, "Howell", lambda *a: builds.append(a) or real(*a))
    with open("demos/codes/three_level_855.json") as fh:
        gens = cli.load_code_spec(fh.read())
    report = cli.validate_generators(gens)
    args = argparse.Namespace(budget_space=1 << 20)
    assert cli._cmd_count(gens, report, args)[1] == ["t=31, |C|=2147483648"]
    s = build_spanning_set(gens, report.require_cofactors())
    assert all(membership_test(row, s) is not None for _, row in s.rows)
    assert cli._cmd_dual(gens, report, args)[1][:2] == ["dual_count=4", "cyclic=true"]
    assert builds == [(18, 3)]


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
        radices = [label_radix(label) for label, _ in s.rows]
        assert built <= total + sum(r - 1 for r in radices), (built, total)


def _count_wraps(monkeypatch, call):
    """(calls of Packing.codeword, call()): every Codeword a scan hands out,
    validated or not, is wrapped there."""
    wrapped, original = 0, Packing.codeword

    def counted(self, w):
        nonlocal wrapped
        wrapped += 1
        return original(self, w)

    with monkeypatch.context() as mp:
        mp.setattr(Packing, "codeword", counted)
        result = call()
    return wrapped, result


def test_enumeration_wraps_one_codeword_per_word(binary7, toy2, tower111, monkeypatch):
    for g in (binary7, toy2, tower111):
        _, s = spanning_for(g)
        wrapped, total = _count_wraps(monkeypatch, lambda: sum(1 for _ in enumerate_codewords(s)))
        assert total == span_size(s)
        radices = [label_radix(label) for label, _ in s.rows]
        assert wrapped <= total + sum(r - 1 for r in radices), (wrapped, total)


@pytest.mark.parametrize("argv", [["mindist", "demos/codes/toy_n2.json", "--distribution"],
                                  ["enum", "demos/codes/toy_n2.json"]])
def test_cli_scans_wrap_fewer_codewords_than_words(argv, monkeypatch, capsys):
    # the scan walks, weighs and prints packed words: fewer Codewords than
    # the 64 words of the stream
    wrapped, code = _count_wraps(monkeypatch, lambda: cli.main(argv))
    assert code == 0 and capsys.readouterr().out
    assert wrapped < 64, wrapped


def test_code_build_wraps_no_codeword(monkeypatch):
    with open("demos/codes/three_level_855.json") as fh:
        gens = cli.load_code_spec(fh.read())
    words = [v.w for v in gens.generator_codewords()]
    wrapped, code = _count_wraps(monkeypatch, lambda: spanning.Code(words, gens.profile))
    assert wrapped == 0
    assert sum(3 - v for _, v, _ in code.basis) == 31  # |C| = 2^31


def test_cli_dual_wraps_no_codeword_for_a_dual_word(monkeypatch, capsys):
    # dual renders C-perp's packed words: of its 2^15 words none becomes a
    # Codeword; the only wraps are the 7 generator words (from_polys)
    argv = ["dual", "tests/data/tower_n7.json"]
    wrapped, code = _count_wraps(monkeypatch, lambda: cli.main(argv))
    assert code == 0 and capsys.readouterr().out.startswith("dual_count=32768\ncyclic=true\n")
    assert wrapped <= 7, wrapped


@st.composite
def packed_words_over_n(draw):
    """A profile with n from 1 to 9 (Howell fields of one, two and three bytes)
    and packed words over it, with raw entries below 2^n for kernel tails."""
    n = draw(st.integers(1, 9), label="n")
    alphas = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n), label="alphas")
    packing = AlphabetProfile(alphas, allow_nonstandard=True).packing
    words = draw(st.lists(st.tuples(*(st.integers(0, (1 << i) - 1) for i in packing.levels)),
                          max_size=4), label="words")
    raw = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=len(packing.levels),
                        max_size=len(packing.levels)), label="raw")
    return packing, [packing.pack(w) for w in words], raw


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(packed_words_over_n())
def test_byte_spread_is_the_embedding(case):
    packing, words, raw = case
    code = spanning.Code([], packing.profile)
    # Howell.fill: 2^i - 1 in block i's fields, written out entry by entry
    size = len(packing.levels)
    assert [m for m, _ in code.blocks] == [
        code.basis.pack([0] * lo + [(1 << i) - 1] * (hi - lo) + [0] * (size - hi))
        for i, (lo, hi) in enumerate(packing.blocks, start=1)]
    for w in words:
        row = code.basis.pack(packing.embed(w))
        assert code.row(w) == row
        assert code.word(row) == packing.unembed(packing.embed(w)) == w
    # a kernel tail: entries below 2^n, read mod 2^i in block i and embedded
    assert code._embed(code.basis.pack(raw)) == \
        code.basis.pack(packing.embed(packing.pack(raw) & packing.mask))


def test_echelon_is_the_written_out_embedding(binary7, toy2, example855, tower111):
    rng = random.Random(20240817)  # the 60 families of test_random_families
    for g in [binary7, toy2, example855, tower111] + [_random_family(rng) for _ in range(60)]:
        reference = pool_echelon(written_out_rows(g), g.profile.n)
        assert same_module(spanning_for(g)[1].family.code.basis, reference, g.profile.n), \
            g.profile.alphas
    assert list(spanning_for(toy2)[1].family.code.basis) == [
        (0, 1, (2, 2, 0, 0, 0, 0)), (1, 1, (0, 2, 2, 0, 0, 0)), (2, 1, (0, 0, 2, 3, 1, 1)),
        (3, 1, (0, 0, 0, 2, 2, 2)), (4, 1, (0, 0, 0, 0, 2, 0)), (5, 1, (0, 0, 0, 0, 0, 2))]
    assert list(spanning_for(tower111)[1].family.code.basis) == [(1, 2, (0, 4, 0)),
                                                                 (2, 1, (0, 0, 2))]


def test_855_echelon_stops_each_orbit_at_the_first_shift_that_adds_nothing(example855,
                                                                           monkeypatch):
    shifts = []
    real = Packing.shift
    monkeypatch.setattr(Packing, "shift", lambda self, w: shifts.append(w) or real(self, w))
    basis = example855.code.basis
    assert sum(3 - v for _, v, _ in basis) == 31
    # each orbit stops at its first shift already in the span; taking min(lcm, sum alpha) = 18
    # shifts of each of the 3 generators would be 54
    assert len(shifts) == 16
