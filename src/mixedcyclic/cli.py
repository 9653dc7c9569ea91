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
import hashlib
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .closure import module_closure
from .codespace import AlphabetProfile, BudgetExceeded, partition_range
from .duality import brute_force_dual
from .generators import StructuredGenerators, validate_generators
from .metrics import gray_map, merge_distributions, weight_distribution
from .modring import Poly
from .spanning import (
    build_spanning_set,
    codeword_count_exponent,
    diff_against_reference,
    iter_codeword_range,
    matrix_to_csv,
    matrix_to_json_payload,
    parse_matrix_csv,
)

DEFAULT_ENUM_BUDGET = 1 << 16
DEFAULT_SPACE_BUDGET = 1 << 20


class SchemaError(ValueError):
    """Malformed code document; the message carries the offending path."""


@dataclass
class RunReport:
    command: str
    digest: str
    payload: dict
    warnings: list = field(default_factory=list)
    wall_time: float = 0.0

    def to_json(self):
        doc = {
            "command": self.command,
            "digest": self.digest,
            "payload": self.payload,
            "warnings": self.warnings,
        }
        return json.dumps(doc, sort_keys=True, indent=2)


def _expect(cond, path, msg):
    if not cond:
        raise SchemaError(f"{path}: {msg}")


def _coeff_array(raw, path, level, max_len):
    _expect(isinstance(raw, list), path, "expected a coefficient array")
    mod = 1 << level
    for pos, v in enumerate(raw):
        _expect(type(v) is int, f"{path}[{pos}]", "coefficient must be an integer")
        _expect(0 <= v < mod, f"{path}[{pos}]",
                f"coefficient {v} out of range [0, {mod}) for level {level}")
    p = Poly(tuple(raw), level)  # drops trailing zeros, so len(coeffs) = degree + 1
    _expect(len(p.coeffs) <= max_len, path,
            f"degree {p.degree()} too large (limit {max_len - 1})")
    return p


def load_code_spec(text: str) -> StructuredGenerators:
    """Parse and validate a code document; errors identify the field."""
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

    a_doc = doc.get("a")
    _expect(isinstance(a_doc, list) and len(a_doc) == n, "a",
            f"must hold one layer list per level (n={n})")
    a_layers = []
    for i, layer in enumerate(a_doc, start=1):
        _expect(isinstance(layer, list) and len(layer) == i, f"a[{i - 1}]",
                f"level {i} needs exactly {i} layer arrays")
        polys = []
        for j, arr in enumerate(layer):
            p = _coeff_array(arr, f"a[{i - 1}][{j}]", i, max_len=alphas[i - 1] + 1)
            _expect(not p.is_zero(), f"a[{i - 1}][{j}]",
                    "zero layer; write x^alpha - 1 for an absent layer")
            polys.append(p)
        a_layers.append(tuple(polys))

    l_doc = doc.get("l", [])
    if n == 1:
        _expect(l_doc in ([],), "l", "must be absent or empty when n = 1")
    else:
        _expect(isinstance(l_doc, list) and len(l_doc) == n - 1, "l",
                f"must hold one mixing list per level 2..{n}")
    l_mix = []
    for i, mix in enumerate(l_doc, start=2):
        _expect(isinstance(mix, list) and len(mix) == i - 1, f"l[{i - 2}]",
                f"level {i} needs exactly {i - 1} mixing arrays")
        polys = []
        for j, arr in enumerate(mix, start=1):
            p = _coeff_array(arr, f"l[{i - 2}][{j - 1}]", i, max_len=alphas[j - 1])
            polys.append(p)
        l_mix.append(tuple(polys))

    try:
        return StructuredGenerators(profile, tuple(a_layers), tuple(l_mix))
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
    """Map work over contiguous ranges of the enumeration, one per worker;
    the parts come back in range order."""
    s, t = _enumerable(gens, report, args)

    def run(rng):
        return work(iter_codeword_range(s, *rng))

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
    lines = [f"rows={len(s.rows)}"]
    for (i, j, k), row in s.rows:
        lines.append(f"{i},{j},{k}: {row.to_text()}")
    payload = {
        "counts": [
            {"level": i, "index": j, "rows": cnt}
            for (i, j), cnt in sorted(s.counts.items())
        ],
        "rows": [
            {"label": [i, j, k], "codeword": row.to_text()}
            for (i, j, k), row in s.rows
        ],
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
    s, t, parts = _scan_code(
        gens, report, args, lambda words: [w.to_text() for w in words])
    lines = [line for part in parts for line in part]
    distinct = len(set(lines))
    warnings = list(s.warnings)
    if distinct != 1 << t:
        warnings.append({
            "code": "minimality_violation",
            "detail": f"distinct {distinct} != 2^{t}"})
    lines.append(f"# distinct={distinct} stream={1 << t}")
    payload = {"distinct": distinct, "stream": 1 << t, "exponent": t}
    return payload, lines, warnings


def _cmd_count(gens, report, args):
    c = report.require_cofactors()
    t = codeword_count_exponent(c)
    return {"exponent": t, "count": 1 << t}, [f"t={t}, |C|={1 << t}"], c.warnings


def _cmd_mindist(gens, report, args):
    s, t, parts = _scan_code(gens, report, args, weight_distribution)
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
    res = brute_force_dual(gens.generator_codewords(), gens.profile,
                           budget=args.budget_space, threads=args.threads)
    lines = [f"dual_count={res.dual_count}",
             f"cyclic={'true' if res.cyclic_flag else 'false'}"]
    lines.extend(w.to_text() for w in res.dual_codewords)
    payload = {"dual_count": res.dual_count, "cyclic": res.cyclic_flag,
               "dual": [w.to_text() for w in res.dual_codewords]}
    return payload, lines, []


def _cmd_oracle_check(gens, report, args):
    # sequential: threads only slow this scan down, the closure dominates
    s, t = _enumerable(gens, report, args)
    enumerated = {w.flat() for w in iter_codeword_range(s, 0, 1 << t)}
    oracle = module_closure(gens.generator_codewords(), budget=args.budget_enum)
    if not oracle.saturated:
        raise BudgetExceeded("module closure exceeded the enumeration budget")
    equal = enumerated == set(oracle.elements)
    lines = [f"equal={'true' if equal else 'false'}",
             f"enumerated={len(enumerated)}",
             f"closure={len(oracle)}"]
    payload = {"equal": equal, "enumerated": len(enumerated), "closure": len(oracle)}
    warnings = [] if equal else [{"code": "oracle_mismatch",
                                  "detail": "enumeration differs from module closure"}]
    return payload, lines, warnings


def _cmd_gray(args):
    if 1 << (args.level - 1) > DEFAULT_SPACE_BUDGET:
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
        digest = hashlib.sha256(f"gray:{args.level}:{args.value}".encode()).hexdigest()
        payload, lines, warnings = _cmd_gray(args)
    else:
        with open(args.document) as fh:
            text = fh.read()
        digest = hashlib.sha256(text.encode()).hexdigest()
        gens = load_code_spec(text)
        report = validate_generators(gens, extend_iv=getattr(args, "extend_iv", False))
        if report.passed:
            payload, lines, warnings = args.handler(gens, report, args)
        else:
            code = 1
            payload, lines, warnings = _cmd_validate(gens, report, args)
            if args.handler is not _cmd_validate:  # the other commands nest the report
                payload = {"validation": payload}
    return (RunReport(command, digest, payload, [dict(w) for w in warnings],
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
        p.set_defaults(handler=handler)
        p.add_argument("document", help="JSON code document")
        p.add_argument("--json", action="store_true",
                       help="emit the full run report as JSON")
        p.add_argument("--threads", type=_positive_int, default=1,
                       help="worker cap for partitioned scans (at most the CPU count is used)")
        p.add_argument("--budget-enum", type=int, default=DEFAULT_ENUM_BUDGET,
                       help="max enumerated codewords")
        p.add_argument("--budget-space", type=int, default=DEFAULT_SPACE_BUDGET,
                       help="max ambient-space scan size")
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
    p.add_argument("--level", type=_positive_int, required=True)
    p.add_argument("--value", type=int, required=True)
    p.add_argument("--json", action="store_true")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        report, lines, code = dispatch(args.command, args)
    except (SchemaError, BudgetExceeded, OSError, ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.json:
        print(report.to_json())
    else:
        for line in lines:
            print(line)
    print(f"# wall_time={report.wall_time:.6f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
