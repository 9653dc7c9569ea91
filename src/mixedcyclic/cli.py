"""Batch command-line interface.

One command per invocation:

    validate | cofactors | span | matrix | enum | count | mindist
    | gray | dual | oracle-check

Code documents are JSON with ascending-power coefficient arrays:

    {"n": 3, "alphas": [8, 5, 5],
     "a": [[[1,0,1]], [[3,0,2],[3]], [[3,2],[3],[3,0,2]]],
     "l": [[[1,1]], [[1,1],[0,3]]]}

Out-of-range coefficients are schema errors, never silently reduced.
Every command but gray checks the generator conditions (i)-(iv) first,
once; a family that fails them gets its validation report printed, and
exit code 1, whatever the command.  Stdout is deterministic for
identical invocations (wall time goes to stderr); exit codes are 0 on
success, 1 on validation failure, 2 on budget or schema errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

from .closure import module_closure
from .codespace import AlphabetProfile, BudgetExceeded, partition_range
from .generators import StructuredGenerators, validate_generators
from .metrics import gray_map, merge_distributions, packed_weigher
from .modring import Poly
from .spanning import (
    build_spanning_set,
    codeword_count_exponent,
    diff_against_reference,
    iter_packed_range,
    matrix_to_csv,
    matrix_to_json_payload,
    parse_matrix_csv,
)

DEFAULT_ENUM_BUDGET = 1 << 16
DEFAULT_SPACE_BUDGET = 1 << 20


class SchemaError(ValueError):
    """Malformed code document; the message carries the offending path."""


class RunReport:
    def __init__(self, command, source, payload, warnings=(), wall_time=0.0):
        self.command, self.source, self.payload = command, source, payload
        self.warnings, self.wall_time = list(warnings), wall_time

    def to_json(self):
        import hashlib  # only here: no run without --json pays the import
        doc = {
            "command": self.command,
            "digest": hashlib.sha256(self.source.encode()).hexdigest(),  # of the document
            "payload": self.payload,
            "warnings": self.warnings,
        }
        return json.dumps(doc, sort_keys=True, indent=2)


def _expect(cond, path, msg):
    if not cond:
        raise SchemaError(f"{path}: {msg}")


def _coeff_array(raw, path, level, ranged):
    _expect(isinstance(raw, list), path, "expected a coefficient array")
    mod = 1 << level
    for pos, v in enumerate(raw):
        if type(v) is not int:
            raise SchemaError(f"{path}[{pos}]: coefficient must be an integer")
        if ranged and not 0 <= v < mod:
            raise SchemaError(
                f"{path}[{pos}]: coefficient {v} out of range [0, {mod}) for level {level}")
    return Poly(raw, level)


def _level(raw, path, level, ranged):
    """A level's arrays, read mod 2^level (l_{ij} is written at level i); ranged
    when the list holds every level, so a dropped level reports its count."""
    _expect(isinstance(raw, list), path, "expected a list of coefficient arrays")
    return tuple(_coeff_array(arr, f"{path}[{j}]", level, ranged) for j, arr in enumerate(raw))


def load_code_spec(text: str) -> StructuredGenerators:
    """Parse a code document; errors identify the field.  StructuredGenerators
    checks the family's shape: layer counts, zero layers, degree bounds."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"not valid JSON: {err}") from err
    _expect(isinstance(doc, dict), "$", "document must be a JSON object")
    allowed = {"n", "alphas", "a", "l", "allow_nonstandard_profile"}
    for key in doc:
        _expect(key in allowed, key, "unknown field")

    n = doc.get("n")
    # type() rather than isinstance(): JSON true loads as bool, a subclass of int
    _expect(type(n) is int and n >= 1, "n", "must be an integer >= 1")
    alphas = doc.get("alphas")
    _expect(isinstance(alphas, list) and len(alphas) == n, "alphas",
            f"must be a list of {n} lengths")
    for i, a in enumerate(alphas):
        _expect(type(a) is int and a >= 1, f"alphas[{i}]", "must be an integer >= 1")
    allow = doc.get("allow_nonstandard_profile", False)
    _expect(isinstance(allow, bool), "allow_nonstandard_profile", "must be a boolean")
    try:
        profile = AlphabetProfile(alphas, allow_nonstandard=allow)
    except ValueError as err:
        raise SchemaError(f"alphas: {err}") from err

    a_doc, l_doc = doc.get("a"), doc.get("l", [])
    _expect(isinstance(a_doc, list), "a", "expected a list of levels")
    a_layers = tuple(_level(arrays, f"a[{i - 1}]", i, len(a_doc) == n)
                     for i, arrays in enumerate(a_doc, start=1))
    _expect(isinstance(l_doc, list), "l", "expected a list of levels")
    l_mix = tuple(_level(arrays, f"l[{i - 2}]", i, len(l_doc) == n - 1)
                  for i, arrays in enumerate(l_doc, start=2))
    try:
        return StructuredGenerators(profile, a_layers, l_mix)
    except ValueError as err:
        raise SchemaError(str(err)) from err


def _enumerable(gens, report, args):
    """The spanning set and t, its stream being 2^t long, within --budget-enum."""
    c = report.require_cofactors()
    t = codeword_count_exponent(c)
    if 1 << t > args.budget_enum:
        raise BudgetExceeded(f"2^{t} combinations, budget {args.budget_enum}")
    return build_spanning_set(gens, c), t


def _scan_code(gens, report, args, work):
    """Map work over contiguous ranges of the packed enumeration, one per
    worker; the parts come back in range order."""
    s, t = _enumerable(gens, report, args)

    def run(rng):
        return work(iter_packed_range(s, *rng))

    chunks = partition_range(1 << t, args.threads)
    if len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(run, chunks))
    else:
        parts = [run(rng) for rng in chunks]
    return s, t, parts


# Each handler gets the family and its passing validation report and
# returns (payload, output lines, warnings).

def _cmd_validate(gens, report, args):
    return report.to_payload(), report.to_lines(), report.warnings


def _cmd_cofactors(gens, report, args):
    c = report.require_cofactors()
    lines = []
    payload = {"h": [], "m": [], "d": []}
    for name, table, rows in (("h", c.h, c.h_rows), ("m", c.m, c.m_rows)):
        for (i, j), p in sorted(table.items()):
            lines.append(f"{name}[{i}][{j}] = {p} (rows {rows[(i, j)]})")
            payload[name].append({"level": i, "index": j, "poly": list(p.coeffs),
                                  "rows": rows[(i, j)]})
    for i, p in sorted(c.d.items()):
        lines.append(f"d[{i}] = {p}")
        payload["d"].append({"level": i, "poly": list(p.coeffs)})
    return payload, lines, c.warnings


def _cmd_span(gens, report, args):
    s = build_spanning_set(gens, report.require_cofactors())
    rows = list(zip(s.labels(), matrix_to_csv(s).splitlines()))
    lines = [f"rows={len(rows)}"]
    lines.extend(f"{i},{j},{k}: {text}" for (i, j, k), text in rows)
    payload = {
        "counts": [
            {"level": i, "index": j, "rows": cnt}
            for (i, j), cnt in sorted(s.counts.items())
        ],
        "rows": [{"label": list(label), "codeword": text} for label, text in rows],
    }
    return payload, lines, s.warnings


def _cmd_matrix(gens, report, args):
    s = build_spanning_set(gens, report.require_cofactors())
    payload = matrix_to_json_payload(s)
    if args.format == "json" and not args.diff:
        return payload, [json.dumps(payload, sort_keys=True, indent=2)], s.warnings
    lines = [matrix_to_csv(s)] if s.rows else []
    if args.diff:
        with open(args.diff) as fh:
            ref = parse_matrix_csv(gens.profile, fh.read())
        diff = diff_against_reference(s, ref)
        payload = {"matrix": payload, "diff": diff}
        lines.append(f"# diff against {args.diff}")
        for d in diff["duplicate_reference_rows"]:
            lines.append(
                f"# duplicate reference row {d['reference_row']} "
                f"(same as row {d['duplicate_of']})")
        for d in diff["unmatched_reference_rows"]:
            lines.append(f"# unexplained reference row {d['reference_row']}")
        for d in diff["unmatched_produced_rows"]:
            lab = ",".join(str(x) for x in d["label"])
            kind = "zero row" if d["zero_row"] else "row"
            lines.append(f"# produced {kind} {lab} absent from reference")
    return payload, lines, s.warnings


def _cmd_enum(gens, report, args):
    s, t, parts = _scan_code(gens, report, args, list)
    words = [w for part in parts for w in part]
    distinct = len(set(words))
    lines = [gens.profile.packing.render(words)]
    warnings = list(s.warnings)
    if distinct != 1 << t:
        warnings.append({
            "code": "minimality_violation",
            "detail": f"distinct {distinct} != 2^{t}"})
    lines.append(f"# distinct={distinct} stream={1 << t}")
    payload = {"distinct": distinct, "stream": 1 << t, "exponent": t}
    return payload, lines, warnings


def _cmd_count(gens, report, args):
    c = report.require_cofactors()  # t is exact (C's Howell form); the formula t goes beside it
    t, formula = gens.code.exponent, codeword_count_exponent(c)
    mismatch = [] if t == formula else [{"code": "count_formula_mismatch",
                                         "detail": f"exact t={t} != formula t={formula}"}]
    return ({"exponent": t, "count": 1 << t, "formula_exponent": formula},
            [f"t={t}, |C|={1 << t}"], [*c.warnings, *mismatch])


def _cmd_mindist(gens, report, args):
    weigh = packed_weigher(gens.profile.packing)
    s, t, parts = _scan_code(gens, report, args, lambda words: Counter(map(weigh, words)))
    dist = merge_distributions(parts)
    best = min((wt for wt in dist if wt), default=None)
    lines = ["d=undefined (no nonzero codeword)" if best is None else f"d={best}"]
    if args.distribution:
        lines.append("weight,count")
        for wt in sorted(dist):
            lines.append(f"{wt},{dist[wt]}")
    payload = {"min_distance": best,
               "distribution": {str(wt): dist[wt] for wt in sorted(dist)},
               "stream": 1 << t}
    return payload, lines, s.warnings


def _cmd_dual(gens, report, args):
    words, cyclic = gens.code.dual(args.budget_space)
    words = gens.profile.packing.render(words).splitlines()
    lines = [f"dual_count={len(words)}", f"cyclic={'true' if cyclic else 'false'}", *words]
    payload = {"dual_count": len(words), "cyclic": cyclic, "dual": words}
    return payload, lines, []


def _cmd_oracle_check(gens, report, args):
    # both sides are packed-int walks compared as int sets; run sequentially,
    # since threads only slow a pure-Python scan down
    s, t = _enumerable(gens, report, args)
    enumerated = set(iter_packed_range(s, 0, 1 << t))
    oracle = module_closure(gens.generator_codewords(), budget=args.budget_enum)
    if not oracle.saturated:
        raise BudgetExceeded("module closure exceeded the enumeration budget")
    equal = enumerated == oracle.words
    lines = [f"equal={'true' if equal else 'false'}",
             f"enumerated={len(enumerated)}",
             f"closure={len(oracle)}"]
    payload = {"equal": equal, "enumerated": len(enumerated), "closure": len(oracle)}
    warnings = [] if equal else [{"code": "oracle_mismatch",
                                  "detail": "enumeration differs from module closure"}]
    return payload, lines, warnings


def _cmd_gray(args):
    if args.level > DEFAULT_SPACE_BUDGET.bit_length():  # 2^(level-1) > budget, without building it
        raise BudgetExceeded(f"gray --level {args.level}: the image would have 2^{args.level - 1} "
                             f"bits, over the budget of {DEFAULT_SPACE_BUDGET} bits")
    bits = gray_map(args.value, args.level)
    text = "".join(str(b) for b in bits)
    return {"level": args.level, "value": args.value, "bits": text}, [text], []


def dispatch(command, args) -> tuple[RunReport, list, int]:
    """Run one command; returns (report, output lines, exit code).

    Every command but gray validates the family once, here.  A family
    that fails prints its validation report and exits 1, whatever the
    command; otherwise the command's handler runs on the passed report.
    """
    start = time.perf_counter()
    code = 0
    if command == "gray":
        source = f"gray:{args.level}:{args.value}"
        payload, lines, warnings = _cmd_gray(args)
    else:
        with open(args.document) as fh:
            source = fh.read()
        gens = load_code_spec(source)
        report = validate_generators(gens, extend_iv=getattr(args, "extend_iv", False))
        if report.passed:
            payload, lines, warnings = args.handler(gens, report, args)
        else:
            code = 1
            payload, lines, warnings = _cmd_validate(gens, report, args)
            if args.handler is not _cmd_validate:  # the other commands nest the report
                payload = {"validation": payload}
    return (RunReport(command, source, payload, [dict(w) for w in warnings],
                      time.perf_counter() - start), lines, code)


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@functools.cache
def build_parser():
    """The command-line parser, built on first use and shared afterwards."""
    parser = argparse.ArgumentParser(
        prog="mixedcyclic",
        description="additive cyclic codes over Z2 x Z4 x ... x Z2^n")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(command=name, handler=handler)
        p.add_argument("document", help="JSON code document")
        p.add_argument("--json", action="store_true",
                       help="emit the full run report as JSON")
        p.add_argument("--threads", type=_positive_int, default=1,
                       help="worker cap for partitioned scans (at most the CPU count is used)")
        p.add_argument("--budget-enum", type=int, default=DEFAULT_ENUM_BUDGET,
                       help="max enumerated codewords")
        p.add_argument("--budget-space", type=int, default=DEFAULT_SPACE_BUDGET,
                       help="max dual words that dual lists")
        return p

    p = command("validate", _cmd_validate, help="check the generator conditions")
    p.add_argument("--extend-iv", action="store_true",
                   help="note the (vacuous) extension of condition (iv) to i=n")
    for name, handler in (("cofactors", _cmd_cofactors), ("span", _cmd_span),
                          ("count", _cmd_count), ("dual", _cmd_dual),
                          ("oracle-check", _cmd_oracle_check)):
        command(name, handler)
    p = command("matrix", _cmd_matrix, help="emit the generator matrix")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--diff", metavar="REFERENCE.csv",
                   help="structured diff against a reference matrix")
    command("enum", _cmd_enum, help="stream all codewords")
    p = command("mindist", _cmd_mindist, help="exhaustive minimum distance")
    p.add_argument("--distribution", action="store_true",
                   help="also print the weight distribution CSV")
    p = sub.add_parser("gray", help="Gray image of one residue")
    p.set_defaults(command="gray")
    p.add_argument("--level", type=_positive_int, required=True)
    p.add_argument("--value", type=int, required=True)
    p.add_argument("--json", action="store_true")
    parser.commands = sub.choices  # command name -> its parser, for main
    return parser


def main(argv=None):
    # parse with argv[0]'s own parser; no command, or arguments it does not
    # know, go through the whole parser, which prints usage and errors
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    args, extra = command.parse_known_args(argv[1:]) if command else (None, True)
    if extra:
        args = parser.parse_args(argv)
    try:
        report, lines, code = dispatch(args.command, args)
    except (SchemaError, BudgetExceeded, OSError, ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.json:
        print(report.to_json())
    elif lines:
        print("\n".join(lines))
    print(f"# wall_time={report.wall_time:.6f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
