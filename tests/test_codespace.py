"""Ambient module: profiles, codewords, shift, scalar action, bijection."""

import math
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcyclic.codespace import (
    AlphabetProfile,
    Codeword,
    PolyTuple,
    ProfileMismatch,
    all_codewords,
    cyclic_shift,
    from_flat,
    from_polys,
    iter_space_range,
    partition_range,
    scalar_action,
    to_polys,
)
from mixedcyclic.modring import Poly


def test_profile_standard_assumption():
    AlphabetProfile((2, 3))  # gcd(1,2)=gcd(2,3)=1
    with pytest.raises(ValueError):
        AlphabetProfile((2, 4))  # gcd(2,4)=2
    p = AlphabetProfile((2, 4), allow_nonstandard=True)
    assert p.nonstandard
    assert not AlphabetProfile((8, 5, 5)).nonstandard  # gcd(1,8)=1


def test_codeword_construction_and_text():
    prof = AlphabetProfile((2, 3))
    v = Codeword(prof, ((1, 0), (0, 1, 2)))
    assert v.to_text() == "1,0|0,1,2"
    assert Codeword.from_text(prof, "1,0|0,1,2") == v
    assert v.block(2) == (0, 1, 2)
    with pytest.raises(ValueError):
        Codeword(prof, ((1, 0, 0), (0, 1, 2)))
    # from_flat takes exactly sum(alpha_i) coordinates
    assert from_flat(prof, (1, 0, 0, 1, 2)) == v
    for flat in ((1, 0, 0, 1), (1, 0, 0, 1, 2, 0)):
        with pytest.raises(ValueError):
            from_flat(prof, flat)


@pytest.mark.parametrize("alphas, field_bytes", [((2, 3), 1), ((1, 3, 1), 1), ((1,) * 7, 1),
                                                 ((1,) * 8, 2), ((1,) * 16, 3)])
def test_packing_layout(alphas, field_bytes):
    # a field holds n+1 bits, so n = 8 takes two bytes and n = 16 three
    prof = AlphabetProfile(alphas)
    packing = prof.packing
    assert packing is prof.packing
    assert packing.field_bytes == field_bytes
    rng = random.Random(20240817)
    words = [from_flat(prof, [rng.randrange(1 << i) for i in packing.levels]) for _ in range(200)]
    packed = [packing.pack(w.flat()) for w in words]
    assert [packing.codeword(p) for p in packed] == words
    assert [packing.text(p) for p in packed] == [w.to_text() for w in words]
    # int order is the canonical (flat) order, and one add and mask is Codeword addition
    assert sorted(packed) == [packing.pack(f) for f in sorted(w.flat() for w in words)]
    for (u, pu), (v, pv) in zip(zip(words, packed), zip(words[1:], packed[1:])):
        assert packing.codeword((pu + pv) & packing.mask) == u + v


@pytest.mark.parametrize("alphas, field_bytes", [((3, 3), 1), ((2, 3, 1, 1, 1, 1, 1, 3, 2), 2),
                                                 ((5,) + (1,) * 14 + (4,), 3)])
def test_packed_shift_is_cyclic_shift(alphas, field_bytes):
    # blocks longer than 1 at 1, 2 and 3 bytes a field, so a wrong rotation
    # across a multi-byte field shows
    prof = AlphabetProfile(alphas, allow_nonstandard=True)
    packing = prof.packing
    assert packing.field_bytes == field_bytes
    rng = random.Random(20261018)
    for _ in range(200):
        v = from_flat(prof, [rng.randrange(1 << i) for i in packing.levels])
        w = packing.pack(v.flat())
        for _ in range(3):
            v, w = cyclic_shift(v), packing.shift(w)
            assert packing.codeword(w) == v
    top = packing.pack([(1 << i) - 1 for i in packing.levels])
    assert packing.shift(top) == top


def test_shift_example():
    prof = AlphabetProfile((2, 3))
    v = Codeword(prof, ((1, 0), (0, 1, 2)))
    assert cyclic_shift(v) == Codeword(prof, ((0, 1), (2, 0, 1)))
    z = Codeword.zero(prof)
    assert cyclic_shift(z) == z


def test_shift_order():
    prof = AlphabetProfile((2, 3))
    assert prof.shift_order() == 6
    v = Codeword(prof, ((1, 0), (0, 1, 2)))
    w = v
    for _ in range(6):
        w = cyclic_shift(w)
    assert w == v


def test_add_examples():
    prof1 = AlphabetProfile((1,))
    v = Codeword(prof1, ((1,),))
    assert (v + v).is_zero()
    prof = AlphabetProfile((1, 1))
    a = Codeword(prof, ((1,), (3,)))
    b = Codeword(prof, ((1,), (2,)))
    assert a + b == Codeword(prof, ((0,), (1,)))
    assert a + Codeword.zero(prof) == a
    with pytest.raises(ProfileMismatch):
        a + v


def test_poly_bijection():
    prof = AlphabetProfile((3,))
    v = Codeword(prof, ((1, 0, 1),))
    u = to_polys(v)
    assert u.poly(1) == Poly((1, 0, 1), 1)
    assert from_polys(u) == v

    rng = random.Random(1)
    prof = AlphabetProfile((2, 3))
    for _ in range(50):
        v = Codeword(prof, (
            tuple(rng.randrange(2) for _ in range(2)),
            tuple(rng.randrange(4) for _ in range(3)),
        ))
        assert from_polys(to_polys(v)) == v


def test_scalar_action_identity_and_two():
    prof = AlphabetProfile((1, 1))
    u = to_polys(Codeword(prof, ((1,), (1,))))
    one = Poly((1,), 2)
    assert from_polys(scalar_action(one, u)) == from_polys(u)
    two = Poly((2,), 2)
    assert from_polys(scalar_action(two, u)) == Codeword(prof, ((0,), (2,)))


def test_multiplication_by_x_is_the_shift_exhaustive():
    prof = AlphabetProfile((2, 3))  # full space 2^2 * 4^3 = 256
    x = Poly((0, 1), prof.n)
    for v in all_codewords(prof):
        assert from_polys(scalar_action(x, to_polys(v))) == cyclic_shift(v)


def test_shift_is_additive():
    # exhaustive on a tiny profile, randomized on a larger one
    tiny = AlphabetProfile((2, 1))
    words = list(all_codewords(tiny))
    for u in words:
        for v in words:
            assert cyclic_shift(u + v) == cyclic_shift(u) + cyclic_shift(v)
    prof = AlphabetProfile((2, 3))
    rng = random.Random(9)
    words = list(all_codewords(prof))
    for _ in range(200):
        u, v = rng.choice(words), rng.choice(words)
        assert cyclic_shift(u + v) == cyclic_shift(u) + cyclic_shift(v)


def test_scalar_action_is_a_module_action():
    prof = AlphabetProfile((2, 3))
    rng = random.Random(13)
    words = list(all_codewords(prof))
    for _ in range(100):
        u = to_polys(rng.choice(words))
        d = Poly(tuple(rng.randrange(4) for _ in range(3)), 2)
        e = Poly(tuple(rng.randrange(4) for _ in range(3)), 2)
        lhs = scalar_action(d * e, u)
        rhs = scalar_action(d, scalar_action(e, u))
        assert from_polys(lhs) == from_polys(rhs)
        lhs = scalar_action(d + e, u)
        rhs = from_polys(scalar_action(d, u)) + from_polys(scalar_action(e, u))
        assert from_polys(lhs) == rhs


def test_space_size_exponent():
    assert AlphabetProfile((2, 3)).space_size_exponent() == 8
    assert AlphabetProfile((8, 5, 5)).space_size_exponent() == 8 + 10 + 15


@pytest.mark.parametrize("alphas", [(2, 3), (1, 3, 1), (1,) * 8])
def test_space_range_counts_in_mixed_radix_from_any_offset(alphas):
    # position idx is idx written in radices 2^i, the last coordinate lowest;
    # (1,)*8 has two-byte fields and 2^36 positions, so only slices are walked
    prof = AlphabetProfile(alphas)
    levels = [i for i, a in enumerate(alphas, start=1) for _ in range(a)]
    total = 1 << prof.space_size_exponent()
    rng = random.Random(20240817)
    for start in [0, total - 3, total, *rng.sample(range(total), 5)]:
        expected = []
        for idx in range(start, min(start + 5, total)):
            flat = []
            for i in reversed(levels):
                idx, c = divmod(idx, 1 << i)
                flat.append(c)
            expected.append(tuple(reversed(flat)))
        assert [w.flat() for w in iter_space_range(prof, start, start + 5)] == expected, start


def test_partition_range_chunks_are_contiguous_and_ordered(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert partition_range(10, 3) == [(0, 4), (4, 8), (8, 10)]
    assert partition_range(10, 1) == [(0, 10)]
    assert partition_range(3, 4) == [(0, 1), (1, 2), (2, 3)]
    assert partition_range(0, 2) == []


def test_partition_range_clamps_workers_to_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # a huge request still yields one chunk per core, so a scan built on
    # it never asks the pool for more threads than that
    chunks = partition_range(1 << 16, 1_000_000)
    assert chunks == [(0, 1 << 15), (1 << 15, 1 << 16)]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert partition_range(1 << 16, 8) == [(0, 1 << 16)]


def test_partition_range_asks_the_cpu_count_only_for_more_than_one_worker(monkeypatch):
    def refuse():
        raise AssertionError("os.cpu_count() called for one worker")

    monkeypatch.setattr(os, "cpu_count", refuse)
    assert [partition_range(total, 1) for total in (0, 1, 5)] == [[], [(0, 1)], [(0, 5)]]
    # the chunks stay those of clamping to min(workers, total, cpu_count) in one step
    for cpus in (None, 1, 2, 3, 8):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        for total in range(20):
            for workers in range(1, 12):
                step = max(1, -(-total // max(1, min(workers, total, cpus or 1))))
                expected = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
                assert partition_range(total, workers) == expected, (cpus, total, workers)


def test_packing_embed_scales_block_i_by_2_to_the_n_minus_i():
    # the rows of the kernel families (one byte a field, two for the n = 8 family)
    # and random words of a random n = 16 profile (three bytes a field)
    from conftest import kernel_families

    words = [w for _, s in kernel_families() for w in s.row_codewords()]
    rng = random.Random(20261019)
    prof = AlphabetProfile([rng.choice([a for a in (1, 2, 3) if math.gcd(i, a) == 1])
                            for i in range(1, 17)])
    words += [from_flat(prof, [rng.randrange(1 << i) for i in prof.packing.levels])
              for _ in range(200)]
    assert {w.profile.packing.field_bytes for w in words} == {1, 2, 3}
    for v in words:
        packing, n = v.profile.packing, v.profile.n
        w = packing.pack(v.flat())
        scaled = [c * 2 ** (n - i) for i, block in enumerate(v.components, start=1) for c in block]
        assert packing.embed(w) == scaled, v.to_text()
        assert packing.unembed(packing.embed(w)) == w, v.to_text()


@st.composite
def poly_tuples(draw):
    """A PolyTuple over a profile with n from 1 to 13: Poly fields of 32 bits
    up to level 12 and of 64 at level 13, word fields of two bytes from n = 8."""
    n = draw(st.integers(1, 13), label="n")
    alphas = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n), label="alphas")
    polys = tuple(Poly(draw(st.lists(st.integers(0, (1 << i) - 1), max_size=a)), i)
                  for i, a in enumerate(alphas, start=1))
    return PolyTuple(AlphabetProfile(alphas, allow_nonstandard=True), polys)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(poly_tuples())
def test_from_polys_byte_planes_are_the_coefficient_path(u):
    packing = u.profile.packing
    flat = [c for p, a in zip(u.polys, u.profile.alphas) for c in (p.coeffs + (0,) * a)[:a]]
    assert from_polys(u).w == packing.pack(flat)


def test_from_polys_at_the_poly_and_word_field_boundaries():
    # levels 12 and 13 hold 32- and 64-bit Poly fields; n = 8 and 13 two-byte word fields;
    # at n = 32 a word field (5 bytes) is wider than the 4-byte Poly fields of levels 1-12
    rng = random.Random(27)
    for n in (7, 8, 12, 13, 32):
        prof = AlphabetProfile([3] * n, allow_nonstandard=True)
        for _ in range(20):
            u = PolyTuple(prof, tuple(Poly([rng.randrange(1 << i) for _ in range(3)], i)
                                      for i in prof.levels()))
            assert from_polys(u).components == tuple(
                tuple(p.coeffs + (0,) * (3 - len(p.coeffs))) for p in u.polys)
