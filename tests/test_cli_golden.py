"""Golden CLI outputs: exit code and stdout of every command, byte for byte.

tests/data/cli_golden.json records, for each invocation in CASES, the
exit code and stdout of ``main``: every file command on the four demo
codes, on two test families (one that fails condition (i), one that
passes without h_31) and on two seed-101 derive families of
``bench/codes.py`` (``unit48`` with unit layers, ``fail_i50`` with a
broken chain link), whose validation solves linear systems with a
nonzero right-hand side, in text and ``--json`` form, plus the command
options (``matrix --format json`` and ``--diff``, ``mindist
--distribution``, ``validate --extend-iv``) and ``gray``.  It guards
refactors of the CLI, which must leave every byte of it unchanged.

The file records what the code prints, not what is true.  The ``count``
entries hold the exact t of C's Howell form (t=31 on (8,5,5) and t=23 on
``unit48``, where the paper's formula gives 28 and 20; ``--json`` carries
both as ``exponent`` and ``formula_exponent``).  The ``span`` and
``matrix`` entries of those two codes still list rows that span less than
the code (ROADMAP item 2): a fix there must update them on purpose.

Regenerate with ``PYTHONPATH=src python tests/test_cli_golden.py`` from
the repository root, and review the diff.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from mixedcyclic.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"
DOCS = ["demos/codes/binary_n1.json", "demos/codes/toy_n2.json",
        "demos/codes/tower_111.json", "demos/codes/three_level_855.json",
        "tests/data/fails_condition_i.json", "tests/data/missing_h31.json",
        "tests/data/unit48.json", "tests/data/fail_i50.json"]
FILE_COMMANDS = ["validate", "cofactors", "span", "matrix", "enum", "count",
                 "mindist", "dual", "oracle-check"]
OPTIONS = [["validate", "--extend-iv"], ["matrix", "--format", "json"],
           ["mindist", "--distribution"]]


def _cases():
    plain = [[cmd, doc] for doc in DOCS for cmd in FILE_COMMANDS]
    plain += [[opt[0], doc, *opt[1:]] for doc in DOCS for opt in OPTIONS]
    plain.append(["matrix", "demos/codes/three_level_855.json",
                  "--diff", "tests/data/reference_matrix_855.csv"])
    plain += [["gray", "--level", str(level), "--value", str(value)]
              for level in (1, 2, 3) for value in range(1 << level)]
    return [argv + extra for argv in plain for extra in ([], ["--json"])]


CASES = _cases()


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def recorded():
    return {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_case(recorded):
    assert sorted(recorded) == sorted(tuple(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv, recorded):
    assert run(argv) == recorded[tuple(argv)]


if __name__ == "__main__":
    entries = [run(argv) for argv in CASES]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} cases to {GOLDEN}", file=sys.stderr)
