"""Generator families: cofactor derivation, condition checks, mixing family."""

import pytest

from mixedcyclic.codespace import scalar_action
from mixedcyclic.generators import (
    NotADivisor,
    derive_cofactors,
    mixing_certificates,
    mixing_identity_holds,
    validate_generators,
)
from mixedcyclic.modring import Poly, poly_mul

from conftest import make_generators


def test_constructor_rejects_zero_layer():
    with pytest.raises(ValueError, match="zero"):
        make_generators([3], [[[0]]], [])


def test_constructor_rejects_oversized_l():
    with pytest.raises(ValueError):
        # l_21 must sit in component 1 of length 3
        make_generators([3, 3], [[[1, 1]], [[1, 1, 1], [1]]], [[[1, 0, 0, 1]]])


def test_cofactor_h_examples(binary7, example855):
    c = derive_cofactors(example855)
    assert c.h[(1, 0)] == Poly((1, 0, 1, 0, 1, 0, 1), 1)
    assert c.h_rows[(1, 0)] == 6
    # layer a = 1 gives h = x^alpha - 1 with a full block
    g1 = make_generators([5], [[[1]]], [])
    c1 = derive_cofactors(g1)
    assert c1.h[(1, 0)] == Poly((1, 0, 0, 0, 0, 1), 1)
    assert c1.h_rows[(1, 0)] == 5


def test_cofactor_m_trivial_when_layers_equal():
    g = make_generators([3, 3], [[[1, 1]], [[1, 1, 1], [1, 1, 1]]], [[[0]]])
    c = derive_cofactors(g)
    assert c.m[(2, 1)] == Poly((1,), 2)


def test_cofactors_multiply_back(toy2, example855, tower111):
    for g in (toy2, example855, tower111):
        c = derive_cofactors(g)
        for (i, j), h in c.h.items():
            alpha = g.profile.alpha(i)
            target = Poly.x_to_alpha_minus_1(alpha, i)
            prod = poly_mul(g.a(i, j), h, alpha=alpha)
            assert prod == target.reduce_cyclic(alpha), (i, j)
        for (i, j), m in c.m.items():
            alpha = g.profile.alpha(i)
            prod = poly_mul(g.a(i, j), m, alpha=alpha)
            assert prod == g.a(i, j - 1).reduce_cyclic(alpha), (i, j)
        for i, d in c.d.items():
            alpha = g.profile.alpha(i)
            rhs = c.h[(i + 1, i)].at_level(i) * g.l(i + 1, i).at_level(i)
            lhs = poly_mul(g.a_total(i), d, alpha=alpha)
            assert lhs == rhs.reduce_cyclic(alpha), i


def test_toy2_cofactor_values(toy2):
    c = derive_cofactors(toy2)
    assert c.h[(1, 0)] == Poly((1, 1, 1), 1)
    assert c.h[(2, 0)] == Poly((3, 1), 2)
    assert c.h[(2, 1)] == Poly((3, 0, 0, 1), 2)
    assert c.m[(2, 1)] == Poly((1, 1, 1), 2)
    assert c.d[1] == Poly((1, 1, 1), 1)
    assert c.h_rows[(2, 0)] == 1 and c.m_rows[(2, 1)] == 2


def test_example855_quotient_witness_cofactors(example855):
    # non-unit-leading layers at (2,0), (3,0), (3,2) are ring units, so the
    # cyclic-quotient witness for a*h = x^alpha-1 collapses to zero
    c = derive_cofactors(example855)
    assert c.h[(2, 0)].is_zero()
    assert c.h[(3, 0)].is_zero()
    assert c.h[(3, 2)].is_zero()
    assert c.h[(2, 1)] == Poly((1, 0, 0, 0, 0, 3), 2)
    assert c.h_rows[(2, 0)] == 3 and c.h_rows[(3, 0)] == 4
    # the degree-reversed chain at level 3 clamps the (3,2) block
    assert c.m_rows[(3, 2)] == 0
    assert any(w["code"] == "clamped_block" for w in c.warnings)
    assert any(w["code"] == "unit_layer" for w in c.warnings)


def test_derive_cofactors_raises_on_broken_chain():
    g = make_generators([8], [[[1, 1, 1]]], [])
    with pytest.raises(NotADivisor) as err:
        derive_cofactors(g)
    assert err.value.level == 1 and err.value.index == 0


def test_validator_accepts_reference_instances(binary7, toy2, example855, tower111):
    for g in (binary7, toy2, example855, tower111):
        report = validate_generators(g)
        assert report.passed, report.to_lines()


def test_validator_report_lines(toy2):
    lines = validate_generators(toy2).to_lines()
    assert lines[-1] == "overall: PASS"
    assert any(line.startswith("condition (i)") for line in lines)


def test_validator_rejects_broken_chain():
    g = make_generators(
        [8, 5, 5],
        [[[1, 1, 1]], [[3, 0, 2], [3]], [[3, 2], [3], [3, 0, 2]]],
        [[[1, 1]], [[1, 1], [0, 3]]],
    )
    report = validate_generators(g)
    assert not report.passed
    assert report.failing_conditions() == ["i"]
    failing = [e for e in report.entries if not e.passed]
    assert all(e.condition == "i" and e.level == 1 and e.index == 0 for e in failing)


def test_validator_rejects_oversized_l_degree():
    g = make_generators(
        [8, 5, 5],
        [[[1, 0, 1]], [[3, 0, 2], [3]], [[3, 2], [3], [3, 0, 2]]],
        [[[1, 0, 1]], [[1, 1], [0, 3]]],  # l_21 = 1 + x^2, degree = deg a_10
    )
    report = validate_generators(g)
    assert not report.passed
    assert report.failing_conditions() == ["ii"]


def test_validator_rejects_broken_level_compatibility():
    g = make_generators(
        [8, 5, 5],
        [[[1, 0, 1]], [[3, 0, 2], [3]], [[3, 2], [3], [3, 0, 2]]],
        [[[0, 1]], [[1, 1], [0, 3]]],  # l_21 = x: h_21*l_21 has a lone 1+x factor
    )
    report = validate_generators(g)
    assert not report.passed
    assert report.failing_conditions() == ["iii"]
    failing = [e for e in report.entries if not e.passed]
    assert failing[0].level == 1


def test_validator_passes_degenerate_zero_code():
    # a_i = x^alpha_i - 1 everywhere, all l = 0: the zero code
    g = make_generators(
        [3, 3],
        [[[1, 0, 0, 1]], [[3, 0, 0, 1], [3, 0, 0, 1]]],
        [[[0]]],
    )
    report = validate_generators(g)
    assert report.passed


def test_validator_extend_iv_is_noted(example855):
    report = validate_generators(example855, extend_iv=True)
    assert report.passed
    assert any("vacuous" in note for note in report.notes)


def test_nonstandard_profile_flag_propagates():
    # gcd(2, 4) = 2 violates the standing assumption at level 2
    g = make_generators([3, 4], [[[1, 1]], [[3, 0, 0, 0, 1], [3, 0, 0, 0, 1]]],
                        [[[0]]], allow_nonstandard=True)
    report = validate_generators(g)
    assert report.profile_nonstandard
    assert any(w["code"] == "nonstandard_profile" for w in report.warnings)


def test_scaled_generator_vanishes_at_its_level(binary7, toy2, example855, tower111):
    # h_{i,i-1} * (generator i) must be zero in component i
    for g in (binary7, toy2, example855, tower111):
        c = derive_cofactors(g)
        for i in g.profile.levels():
            h = c.h[(i, i - 1)]
            scaled = scalar_action(h.at_level(g.profile.n), g.generator_tuple(i))
            assert scaled.poly(i).is_zero(), (i, g.profile.alphas)


def test_mixing_certificates_toy(toy2):
    c = derive_cofactors(toy2)
    f = mixing_certificates(toy2, c, 2)
    assert f[1] == Poly((1, 1, 1), 1)
    # multiply-back, plain: l_21 * h_21 = a_1 * f_12 over Z/2
    lhs = toy2.l(2, 1).at_level(1) * c.h[(2, 1)].at_level(1)
    assert lhs == toy2.a_total(1) * f[1]
    assert mixing_identity_holds(toy2, c, 2, f)


def test_mixing_certificates_example855(example855):
    c = derive_cofactors(example855)
    for i in (2, 3):
        f = mixing_certificates(example855, c, i)
        assert set(f) == set(range(1, i))
        assert mixing_identity_holds(example855, c, i, f)


def test_mixing_certificates_zero_mixing(tower111):
    c = derive_cofactors(tower111)
    for i in (2, 3):
        f = mixing_certificates(tower111, c, i)
        assert all(p.is_zero() for p in f.values())
        assert mixing_identity_holds(tower111, c, i, f)


def test_validation_pass_carries_the_cofactors(binary7, toy2, example855, tower111):
    for g in (binary7, toy2, example855, tower111):
        report = validate_generators(g)
        assert report.cofactors is not None and report.cofactor_gap is None
        assert report.cofactors == derive_cofactors(g)
        assert report.require_cofactors() is report.cofactors


def test_validation_pass_records_the_first_cofactor_gap():
    # h_31 is never consulted by conditions (i)-(iv): the family passes,
    # but its cofactors do not exist
    g = make_generators([1, 1, 4],
                        [[[1, 1]], [[3, 1], [1]], [[0, 4, 2], [2, 1], [1]]],
                        [[[0]], [[0], [0]]])
    report = validate_generators(g)
    assert report.passed
    assert report.cofactors is None
    assert report.cofactor_gap == (3, 1, "a | x^alpha - 1")
    with pytest.raises(NotADivisor) as err:
        derive_cofactors(g)
    assert (err.value.level, err.value.index, err.value.role) == report.cofactor_gap
    assert str(err.value) == "not a divisor: a | x^alpha - 1 at (i=3, j=1)"


def test_failed_chain_is_a_gap_in_the_same_pass():
    g = make_generators([8], [[[1, 1, 1]]], [])
    report = validate_generators(g)
    assert not report.passed and report.cofactors is None
    with pytest.raises(NotADivisor) as err:
        report.require_cofactors()
    assert (err.value.level, err.value.index) == (1, 0)


def test_each_level_is_built_once_per_family(example855, monkeypatch):
    # a_total is the only caller of Poly.scale, once per layer a_{ij}: validation,
    # the spanning set and its echelon basis all ask for a_i or generator i, and
    # each a_i is still built once; an equal family builds its own
    from mixedcyclic.generators import StructuredGenerators
    from mixedcyclic.spanning import build_spanning_set

    real = Poly.scale
    scaled = []
    monkeypatch.setattr(Poly, "scale", lambda p, c: scaled.append((p.k, c)) or real(p, c))
    g = example855
    report = validate_generators(g)
    s = build_spanning_set(g, report.require_cofactors())
    assert s.echelon
    assert g.generator_codewords() == [g.generator_codeword(i) for i in (1, 2, 3)]
    layers = sorted((i, 1 << j) for i in (1, 2, 3) for j in range(i))
    assert sorted(scaled) == layers
    assert g.generator_tuple(3) is g.generator_tuple(3)
    assert g.generator_codewords() is not g.generator_codewords()  # a fresh list each call
    twin = StructuredGenerators(g.profile, g.a_layers, g.l_mix)
    assert twin.a_total(3) == g.a_total(3)
    assert sorted(scaled) == sorted(layers * 2)


@pytest.mark.parametrize("doc, line", [
    ("h21_unavailable", "condition (iii) i=1: FAIL [h[2][1] unavailable (condition (i) failed)]"),
    ("d2_unavailable", "condition (iv) i=2: FAIL [d_2 unavailable (condition (iii) failed)]"),
])
def test_missing_witness_is_an_unavailable_entry(doc, line):
    # (iii) needs h_{i+1,i} from condition (i), and (iv) needs d_i from (iii)
    from mixedcyclic.cli import load_code_spec

    with open(f"tests/data/{doc}.json") as fh:
        report = validate_generators(load_code_spec(fh.read()))
    lines = report.to_lines()
    assert line in lines
    assert lines[-1] == "overall: FAIL"
    assert report.cofactors is None
