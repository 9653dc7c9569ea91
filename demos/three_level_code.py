#!/usr/bin/env python3
"""The published three-level code over Z2^8 x Z4^5 x Z8^5.

Validates the generator family (note the unit-polynomial layer warnings:
several layers here are units of their rings, so row counts follow the
formal degrees), prints the generator matrix, and diffs it against the
published 14-row matrix, which contains one duplicated row and one row
the construction does not produce.
"""

from pathlib import Path

from mixedcyclic import (
    build_spanning_set,
    codeword_count_exponent,
    diff_against_reference,
    mixing_certificates,
    validate_generators,
)
from mixedcyclic.cli import load_code_spec
from mixedcyclic.generators import mixing_identity_holds
from mixedcyclic.spanning import matrix_to_csv, parse_matrix_csv


def main():
    here = Path(__file__).parent
    gens = load_code_spec((here / "codes" / "three_level_855.json").read_text())

    report = validate_generators(gens)
    print("validation:")
    for line in report.to_lines():
        print("  " + line)

    c = report.require_cofactors()  # the cofactors come from the same pass
    s = build_spanning_set(gens, c)
    print("\nspanning blocks (level, layer) -> rows:")
    for (i, j), count in sorted(s.counts.items()):
        print(f"  S[{i}][{j}]: {count}")
    t = codeword_count_exponent(c)
    print(f"count formula exponent: t = {t}")

    print("\ngenerator matrix (blocks Z2^8 | Z4^5 | Z8^5):")
    print(matrix_to_csv(s))

    ref_path = here.parent / "tests" / "data" / "reference_matrix_855.csv"
    ref = parse_matrix_csv(gens.profile, ref_path.read_text())
    diff = diff_against_reference(s, ref)
    print(f"\ndiff against the published matrix ({len(ref)} rows):")
    print(f"  matched rows: {[d['reference_row'] for d in diff['matches']]}")
    for d in diff["duplicate_reference_rows"]:
        print(f"  reference row {d['reference_row']} duplicates row "
              f"{d['duplicate_of']}")
    for d in diff["unmatched_reference_rows"]:
        print(f"  reference row {d['reference_row']} has no counterpart here")
    for d in diff["unmatched_produced_rows"]:
        kind = "zero row" if d["zero_row"] else "row"
        print(f"  produced {kind} {tuple(d['label'])} is not printed in the reference")

    print("\nmixing certificates:")
    for i in (2, 3):
        f = mixing_certificates(gens, c, i)
        ok = mixing_identity_holds(gens, c, i, f)
        shown = ", ".join(f"f[{j}][{i}] = {p}" for j, p in sorted(f.items()))
        print(f"  level {i}: {shown}; identity holds: {ok}")


if __name__ == "__main__":
    main()
