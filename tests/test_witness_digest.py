"""Pin every witness of the benchmark's families in one digest.

For each family that bench/codes.py builds for the scan, certify and
derive workloads at seeds 101-110 (2,130 families), the digest covers the
validate_generators(extend_iv=True) lines and payload, the cofactor gap,
the cofactors h, m, d, h_rows and m_rows, and the cofactor warnings.  A
change to the polynomial arithmetic or the division policy that moves any
witness moves the digest.

The families come from bench/codes.py, so a change to its generators
moves the digest too: such a change must regenerate DIGEST on purpose,
after checking that the package's own witnesses did not move with it.
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import codes  # noqa: E402
from mixedcyclic.cli import load_code_spec  # noqa: E402
from mixedcyclic.generators import validate_generators  # noqa: E402

WORKLOADS = ("scan", "certify", "derive")  # named, so a new workload does not move the digest
SEEDS = range(101, 111)
DIGEST = "344eb70c8351e2682fc307425e518062df25daa9bec820ec39a6e36fd43a4413"


def _polys(table):
    return [[list(key) if isinstance(key, tuple) else key, list(p.coeffs)]
            for key, p in sorted(table.items())]


def witness_record(doc):
    """Everything validation derives for one code document, as plain JSON."""
    report = validate_generators(load_code_spec(json.dumps(doc)), extend_iv=True)
    record = {"lines": report.to_lines(), "payload": report.to_payload(),
              "gap": report.cofactor_gap}
    c = report.cofactors
    if c is not None:
        record.update(h=_polys(c.h), m=_polys(c.m), d=_polys(c.d),
                      h_rows=sorted(map(list, c.h_rows.items())),
                      m_rows=sorted(map(list, c.m_rows.items())),
                      warnings=list(c.warnings))
    return record


def witness_digest(seeds, workloads=WORKLOADS):
    """(sha256 over every family's record, family count)."""
    sha, count = hashlib.sha256(), 0
    for workload in workloads:
        for seed in seeds:
            for fam in codes.FAMILIES[workload](seed):
                line = json.dumps([workload, seed, fam["name"], witness_record(fam["doc"])],
                                  sort_keys=True)
                sha.update(line.encode() + b"\n")
                count += 1
    return sha.hexdigest(), count


def test_witnesses_of_the_benchmark_families_are_pinned():
    assert witness_digest(SEEDS) == (DIGEST, 2130)
