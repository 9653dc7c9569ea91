"""The packed Codeword against plain tuples of blocks, and the package's import cost."""

import os
import pathlib
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

import mixedcyclic
from mixedcyclic.codespace import AlphabetProfile, Codeword, cyclic_shift, from_flat


def _reduce(blocks):
    """Block i reduced mod 2^i, as a tuple of tuples."""
    return tuple(tuple(c % (1 << i) for c in b) for i, b in enumerate(blocks, start=1))


def _combine(op, u, v):
    return _reduce([[op(a, b) for a, b in zip(x, y)] for x, y in zip(u, v)])


def _rotate(blocks):
    return tuple(b[-1:] + b[:-1] for b in blocks)


def _text(blocks):
    return "|".join(",".join(map(str, b)) for b in blocks)


@st.composite
def profiles_and_words(draw, count):
    """A profile with n from 1 to 9 (two-byte fields from n = 8) and count raw
    words over it, whose entries run past both ends of each level's range."""
    n = draw(st.integers(1, 9), label="n")
    alphas = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n), label="alphas")
    words = [[draw(st.lists(st.integers(-3 << i, 3 << i), min_size=a, max_size=a))
              for i, a in enumerate(alphas, start=1)] for _ in range(count)]
    return AlphabetProfile(alphas, allow_nonstandard=True), words


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(profiles_and_words(2))
def test_packed_codeword_matches_tuple_arithmetic(case):
    prof, (x, y) = case
    u, v = Codeword(prof, x), Codeword(prof, y)
    ru, rv = _reduce(x), _reduce(y)
    flat = [c for b in x for c in b]
    assert u.components == ru and from_flat(prof, flat).components == ru
    assert (u + v).components == _combine(int.__add__, ru, rv)
    assert (u - v).components == _combine(int.__sub__, ru, rv)
    assert (-u).components == _reduce([[-c for c in b] for b in ru])
    assert (u + -u).is_zero() and (u - u).is_zero() and (-Codeword.zero(prof)).is_zero()
    assert cyclic_shift(u).components == _rotate(ru)
    assert u.is_zero() == (not any(map(any, ru)))
    assert [u.block(i) for i in prof.levels()] == list(ru)
    # round trips through flat(), components and the text form
    assert u.flat() == tuple(c for b in ru for c in b)
    assert u.to_text() == _text(ru)
    assert Codeword.from_text(prof, u.to_text()) == u
    assert from_flat(prof, u.flat()) == u and Codeword(prof, u.components) == u
    assert (u == v) == (ru == rv)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(profiles_and_words(1))
def test_equality_and_hash_ignore_the_nonstandard_tag(case):
    prof, (x,) = case
    other = AlphabetProfile(prof.alphas, allow_nonstandard=True)
    other.nonstandard = not prof.nonstandard
    u, v = Codeword(prof, x), Codeword(other, x)
    assert other == prof and u == v and hash(u) == hash(v)
    assert len({u, v}) == 1
    assert (u + v).components == _combine(int.__add__, _reduce(x), _reduce(x))


@st.composite
def packed_words(draw):
    """A profile with n from 1 to 8 and up to eight packed words over it, maybe
    none: at n = 7 a field reaches 127, and n = 8 takes two-byte fields."""
    n = draw(st.integers(1, 8), label="n")
    alphas = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n), label="alphas")
    packing = AlphabetProfile(alphas, allow_nonstandard=True).packing
    word = st.tuples(*(st.integers(0, (1 << i) - 1) for i in packing.levels))
    return packing, [packing.pack(f) for f in draw(st.lists(word, max_size=8), label="words")]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(packed_words())
def test_render_joins_the_text_of_each_word(case):
    packing, words = case
    assert packing.render(words) == "\n".join(map(packing.text, words))


def test_importing_the_package_leaves_out_dataclasses_and_inspect():
    # concurrent.futures stays imported on purpose: cli and duality bind
    # ThreadPoolExecutor, and bench/tracer.py patches those bindings
    # (POOL_SITES), so the pools and that patch go together (ROADMAP item 4)
    probe = ("import sys, mixedcyclic, mixedcyclic.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(mixedcyclic.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
