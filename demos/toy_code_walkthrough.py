#!/usr/bin/env python3
"""End-to-end walkthrough on a 64-word code over Z2^3 x Z4^3.

Loads the toy document, validates the generator conditions, derives
cofactors and the spanning set, enumerates the code, and certifies
everything against the brute-force module closure.  Finishes with
membership, minimum distance, and the dual.
"""

from pathlib import Path

from mixedcyclic import (
    Codeword,
    brute_force_dual,
    build_spanning_set,
    codeword_count_exponent,
    enumerate_codewords,
    membership_test,
    min_distance,
    module_closure,
    validate_generators,
    weight_distribution,
)
from mixedcyclic.cli import load_code_spec
from mixedcyclic.spanning import distinct_codewords


def main():
    doc = Path(__file__).parent / "codes" / "toy_n2.json"
    gens = load_code_spec(doc.read_text())
    print(f"profile: blocks Z2^{gens.profile.alpha(1)} | Z4^{gens.profile.alpha(2)}")
    print("generators:")
    for i in gens.profile.levels():
        print(f"  level {i}: {gens.generator_codeword(i).to_text()}")

    report = validate_generators(gens)
    print("\nvalidation:")
    for line in report.to_lines():
        print("  " + line)

    c = report.require_cofactors()  # the cofactors come from the same pass
    s = build_spanning_set(gens, c)
    print("\nspanning set:")
    for (i, j, k), row in s.rows:
        print(f"  S[{i}][{j}] shift {k}: {row.to_text()}")
    t = codeword_count_exponent(c)
    print(f"code size from the count formula: 2^{t} = {1 << t}")

    distinct, stream = distinct_codewords(s)
    oracle = module_closure(gens.generator_codewords())
    print(f"enumeration: {stream} coefficient tuples, {len(distinct)} distinct words")
    print(f"closure oracle: {len(oracle)} words; sets equal: "
          f"{set(distinct) == set(oracle.elements)}")

    print("\nmembership:")
    inside = next(iter(enumerate_codewords(s)))
    probe = Codeword(gens.profile, ((1, 0, 0), (0, 0, 0)))
    print(f"  {inside.to_text()} -> {membership_test(inside, s) is not None}")
    print(f"  {probe.to_text()} -> {membership_test(probe, s) is not None} "
          "(odd weight on the binary block)")

    code = list(distinct.values())
    print(f"\nminimum distance (exhaustive over {len(code)} words): "
          f"{min_distance(code)}")
    dist = weight_distribution(code)
    print("weight distribution: "
          + ", ".join(f"{w}:{dist[w]}" for w in sorted(dist)))

    dual = brute_force_dual(gens.generator_codewords(), gens.profile, budget=1 << 12)
    print(f"\ndual: {dual.dual_count} words, closed under the shift: "
          f"{dual.cyclic_flag}")
    print(f"|C| * |dual| = {len(code) * dual.dual_count}, ambient space = "
          f"{1 << gens.profile.space_size_exponent()}")


if __name__ == "__main__":
    main()
