"""The benchmark's reference checker against the package's closure oracle.

    python3 -m pytest bench/test_reference.py -q

The reference never calls the package; these tests are the one place
where the two meet.  On desk-scale codes of every kind the benchmark
generates, the reference code must equal ``closure.module_closure``
word for word, and the answer checks must accept right answers and
reject wrong ones.
"""

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import check  # noqa: E402
import codes  # noqa: E402
from reference import CodeReference, certifies_condition_i_failure, word_text  # noqa: E402
from mixedcyclic.cli import load_code_spec  # noqa: E402
from mixedcyclic.closure import module_closure  # noqa: E402
from mixedcyclic.generators import validate_generators  # noqa: E402
from mixedcyclic.metrics import weight_distribution  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
DESK_PROFILES = [(7,), (3, 3), (5, 3), (5, 5), (3, 3, 1), (1, 1, 1, 1), (3, 1, 1, 1)]
DESK_LIMIT = 12  # log2 of the largest code handed to the closure oracle


def _desk_families(seed=2024):
    """Scaled, unit-layer and even-lead families on small profiles, plus the demos."""
    rng = random.Random(seed)
    fams = []
    for alphas in DESK_PROFILES:
        for kind in ("scaled", "unit", "evenlead"):
            if kind != "scaled" and len(alphas) == 1:
                continue
            doc = codes._build(rng, alphas, codes._random_chains(rng, alphas))
            if kind == "unit":
                doc = codes._with_unit_layers(rng, doc)
            elif kind == "evenlead":
                if not codes._even_lead_spots(doc):
                    continue
                doc = codes._with_even_lead(rng, doc)
            fams.append((f"{kind}{alphas}", doc))
    for path in sorted((ROOT / "demos" / "codes").glob("*.json")):
        fams.append((path.stem, json.loads(path.read_text())))
    return [(name, doc) for name, doc in fams if CodeReference(doc).exponent <= DESK_LIMIT]


DESK = _desk_families()


def _closure(doc):
    oracle = module_closure(load_code_spec(json.dumps(doc)).generator_codewords(), budget=1 << 14)
    assert oracle.saturated
    return oracle


def test_desk_seed_covers_every_kind():
    kinds = {name.split("(")[0] for name, _ in DESK}
    assert {"scaled", "unit", "evenlead"} <= kinds
    assert len(DESK) >= 15


@pytest.mark.parametrize("name,doc", DESK, ids=[name for name, _ in DESK])
def test_reference_code_equals_module_closure(name, doc):
    ref = CodeReference(doc)
    oracle = _closure(doc)
    words = {tuple(int(c) for c in w) for w in ref.echelon.all_words()}
    assert len(words) == 1 << ref.exponent == len(oracle)
    assert words == set(oracle.elements)
    assert ref.weight_distribution() == dict(weight_distribution(oracle.codewords()))


@pytest.mark.parametrize("name,doc", DESK, ids=[name for name, _ in DESK])
def test_membership_agrees_with_closure(name, doc):
    ref = CodeReference(doc)
    oracle = _closure(doc)
    rng = random.Random(name)
    words = np.vstack([ref.random_members(rng, 3), ref.random_non_members(rng, 3)])
    for w in words:
        truth = tuple(int(c) for c in w) in oracle.elements
        assert ref.contains(w[None, :])[0] == truth
        assert ref.contains_by_count(w) == truth


def test_dual_check_accepts_the_dual_and_rejects_a_damaged_one():
    doc = json.loads((ROOT / "demos" / "codes" / "toy_n2.json").read_text())
    ref = CodeReference(doc)
    ambient = np.array(list(np.ndindex(*ref.ambient.moduli)), dtype=np.int64)
    dual = ambient[~ref.ambient.inner(ambient, ref.orbit).any(axis=1)]
    texts = [word_text(w, doc["alphas"]) for w in dual]

    def answer(lines):
        return {"code": 0, "stdout": "\n".join(lines) + "\n", "stderr": ""}

    assert check.check_dual(answer([f"dual_count={len(texts)}", "cyclic=true", *texts]), ref) is None
    short = texts[:-1]
    assert check.check_dual(answer([f"dual_count={len(short)}", "cyclic=true", *short]), ref)


def test_count_check_flags_the_paper_example():
    fam = {"kind": "paper", "doc": codes.PAPER_855}
    ref = CodeReference(codes.PAPER_855)
    assert ref.exponent == 31 and ref.dual_exponent == 2
    wrong = {"code": 0, "stdout": "t=28, |C|=268435456\n", "stderr": ""}
    right = {"code": 0, "stdout": f"t=31, |C|={1 << 31}\n", "stderr": ""}
    assert check.check_count(wrong, fam, ref)
    assert check.check_count(right, fam, ref) is None


def test_condition_i_failures_are_certified_and_real():
    for seed in range(3):
        for fam in codes.derive_families(seed):
            doc = fam["doc"]
            certified = certifies_condition_i_failure(doc["a"], doc["alphas"])
            assert certified == (fam["kind"] == "fail_i")
            if certified:
                assert not validate_generators(load_code_spec(json.dumps(doc))).passed


def test_workloads_follow_the_seed():
    for build in codes.FAMILIES.values():
        assert build(5) == build(5)
        assert build(5) != build(6)
