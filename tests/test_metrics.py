"""Gray maps, weights, distances: published table values and isometry."""

import itertools
import random

import pytest

from mixedcyclic.codespace import AlphabetProfile, Codeword, all_codewords, from_flat
from mixedcyclic.metrics import (
    gray_image,
    gray_map,
    hamming_weight,
    lee_weight,
    min_distance,
    mixed_distance,
    mixed_weight,
    packed_weigher,
    weight_distribution,
)
from mixedcyclic.spanning import span_size

from conftest import codeword_path, kernel_families

# the eight level-3 images, from the defining recurrence
GRAY_LEVEL3 = {
    0: (0, 0, 0, 0),
    1: (0, 0, 0, 1),
    2: (0, 0, 1, 1),
    3: (0, 1, 1, 1),
    4: (1, 1, 1, 1),
    5: (1, 1, 1, 0),
    6: (1, 1, 0, 0),
    7: (1, 0, 0, 0),
}


def test_gray_level3_table():
    for u, bits in GRAY_LEVEL3.items():
        assert gray_map(u, 3) == bits


def test_gray_level1_is_identity_and_level2():
    assert gray_map(0, 1) == (0,)
    assert gray_map(1, 1) == (1,)
    assert gray_map(2, 2) == (1, 1)
    assert [gray_map(u, 2) for u in range(4)] == [(0, 0), (0, 1), (1, 1), (1, 0)]


def test_gray_out_of_range():
    with pytest.raises(ValueError):
        gray_map(8, 3)
    with pytest.raises(ValueError):
        gray_map(-1, 2)


def test_gray_recurrence_consecutive_images_differ_in_one_bit():
    for level in range(1, 6):
        q = 1 << (level - 1)
        for u in range(2 * q - 1):
            a, b = gray_map(u, level), gray_map(u + 1, level)
            diff = [i for i in range(q) if a[i] != b[i]]
            assert len(diff) == 1
            # the flipped position is the (q - u mod q)-th from the left, 1-based
            assert diff[0] == q - 1 - (u % q)


def test_weight_isometry_exhaustive():
    for level in range(1, 6):
        for u in range(1 << level):
            assert lee_weight(u, level) == hamming_weight(gray_map(u, level))


def test_distance_transport_exhaustive():
    for level in range(1, 5):
        mod = 1 << level
        for a, b in itertools.product(range(mod), repeat=2):
            d_lee = min((a - b) % mod, (b - a) % mod)
            d_ham = sum(
                x != y for x, y in zip(gray_map(a, level), gray_map(b, level))
            )
            assert d_lee == d_ham


def test_gray_image_examples():
    prof = AlphabetProfile((1, 1))
    assert gray_image(Codeword.zero(prof)) == (0, 0, 0)
    v = Codeword(prof, ((1,), (3,)))
    assert gray_image(v) == (1, 1, 0)
    big = AlphabetProfile((8, 5, 5))
    assert len(gray_image(Codeword.zero(big))) == 8 + 2 * 5 + 4 * 5


def test_gray_image_injective_on_tiny_profile():
    prof = AlphabetProfile((1, 1))
    images = {gray_image(v) for v in all_codewords(prof)}
    assert len(images) == 1 << prof.space_size_exponent()


def test_mixed_weight_examples():
    prof = AlphabetProfile((1, 1))
    assert mixed_weight(Codeword.zero(prof)) == 0
    v = Codeword(prof, ((1,), (3,)))
    assert mixed_weight(v) == 2
    prof3 = AlphabetProfile((1, 1, 1))
    w = Codeword(prof3, ((0,), (0,), (5,)))
    assert mixed_weight(w) == 3
    assert hamming_weight(gray_map(5, 3)) == 3


def test_mixed_weight_equals_gray_hamming_weight():
    prof = AlphabetProfile((2, 3))
    for v in all_codewords(prof):
        assert mixed_weight(v) == hamming_weight(gray_image(v))


def test_packed_weight_is_mixed_weight_on_the_kernel_families():
    for name, s in kernel_families():
        packing = s.profile.packing
        weigh = packed_weigher(packing)
        for k in range(span_size(s)):
            w = codeword_path(s, k)
            assert weigh(packing.pack(w.flat())) == mixed_weight(w), (name, w.to_text())


@pytest.mark.parametrize("alphas", [(2, 3), (3, 3, 1, 3), (1, 1, 1, 1, 3), (1,) * 7, (1,) * 8,
                                    (1,) * 16])
def test_packed_weight_is_mixed_weight_on_every_residue(alphas):
    # up to level 7 every field is offset into the one Lee table; levels 8
    # and up do not fit a byte: their fields are decoded, not looked up
    prof = AlphabetProfile(alphas)
    packing = prof.packing
    weigh = packed_weigher(packing)
    rng = random.Random(20240817)
    flats = [[rng.randrange(1 << i) for i in packing.levels] for _ in range(300)]
    for p, i in enumerate(packing.levels):
        for u in range(min(1 << i, 512)):
            flats.append([u if q == p else 0 for q in range(len(packing.levels))])
    for flat in flats:
        assert weigh(packing.pack(flat)) == mixed_weight(from_flat(prof, flat)), flat


def test_lee_tables_are_built_once_per_level(monkeypatch):
    import mixedcyclic.metrics as metrics

    packed_weigher(AlphabetProfile((3, 3, 1, 3)).packing)  # levels 1-4
    real, calls = metrics.lee_weight, []
    monkeypatch.setattr(metrics, "lee_weight", lambda u, k: calls.append(k) or real(u, k))
    prof = AlphabetProfile((7, 7))
    weigh = packed_weigher(prof.packing)
    assert calls == []
    v = Codeword(prof, ((1, 0, 0, 0, 0, 0, 1), (3, 2, 0, 0, 0, 0, 0)))
    assert weigh(v.w) == mixed_weight(v) == 5


def test_distance_examples():
    prof = AlphabetProfile((1, 1))
    u = Codeword(prof, ((0,), (0,)))
    v = Codeword(prof, ((1,), (3,)))
    assert mixed_distance(v, v) == 0
    assert mixed_distance(u, v) == 2
    for a, b in itertools.product(all_codewords(prof), repeat=2):
        assert mixed_distance(a, b) == mixed_distance(b, a)


def test_min_distance_zero_code_is_undefined():
    prof = AlphabetProfile((3,))
    assert min_distance([Codeword.zero(prof)]) is None


def test_min_distance_matches_pairwise_definition():
    # additive shortcut vs direct pairwise minimum on a small closed code
    from mixedcyclic.closure import module_closure

    prof = AlphabetProfile((3, 3))
    seed = Codeword(prof, ((1, 1, 0), (1, 1, 3)))
    code = list(module_closure([seed]).codewords())
    by_weight = min_distance(code)
    pairwise = min(
        mixed_distance(a, b)
        for a, b in itertools.combinations(code, 2)
        if a != b
    )
    assert by_weight == pairwise


def test_weight_distribution_sums_to_code_size():
    from mixedcyclic.closure import module_closure

    prof = AlphabetProfile((3, 3))
    seed = Codeword(prof, ((1, 1, 0), (1, 1, 3)))
    code = list(module_closure([seed]).codewords())
    dist = weight_distribution(code)
    assert sum(dist.values()) == len(code)
    assert dist[0] == 1


def test_distribution_merge_is_partition_invariant():
    from mixedcyclic.closure import module_closure
    from mixedcyclic.metrics import merge_distributions

    prof = AlphabetProfile((3, 3))
    seed = Codeword(prof, ((1, 1, 0), (1, 1, 3)))
    code = list(module_closure([seed]).codewords())
    whole = weight_distribution(code)
    parts = [weight_distribution(code[:10]), weight_distribution(code[10:40]),
             weight_distribution(code[40:])]
    assert merge_distributions(parts) == whole
