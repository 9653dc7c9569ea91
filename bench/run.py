"""The mixedcyclic benchmark: one command, every metric, every answer checked.

    python3 bench/run.py --workload scan|certify|derive --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src``.  The workload's code documents and words come from the seed
(``codes.py``).  A user here is a coding theorist asking questions about
codes, so the benchmark asks a fixed list of questions, closed loop with
a single client: each query starts when the previous one returns.  The
list runs in whole passes until the time is spent.

Processes: this process builds the workload and computes the reference
answers (``reference.py``, which never calls the package), then starts
``worker.py`` several times for set-up alone and once for the queries.
Only the query worker's memory is reported, so the reference work does
not count towards ``peak_rss_mb``.  Every distinct answer is checked
(``check.py``); a wrong answer, an error or an unexpected exit code is a
failed query.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half traced (``tracer.py``) and prints the per-layer
metrics, counted per pass, with the tracing overhead.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
``correct`` is true when every answer was checked.  ``attempted`` is the
length of the query list and ``failed`` the queries of it answered wrongly
in any pass; they are never excused.  The run exits nonzero, without
a result, when a check cannot run.

Work files (documents, answers, spans) go to ``.bench_work/<workload>``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check
from codes import FAMILIES
from reference import CodeReference, word_text

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE_MATRIX = "tests/data/reference_matrix_855.csv"

BUDGET_ENUM = 1 << 16
BUDGET_SPACE = 1 << 16
SETUP_RUNS = 11  # set-up processes per run; setup_s is their median
WORKER_TIMEOUT_S = 150
COMMANDS = ("validate", "count", "span", "matrix", "enum", "mindist", "dual", "oracle-check")

END_TO_END = [
    ("setup_s", "s"), ("queries_per_s", "1/s"), ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"), ("peak_rss_mb", "MB"),
]
PER_LAYER = [
    ("spanning.iter_codeword_range.words", "count"),
    ("spanning.iter_codeword_range.busy_s", "s"),
    ("spanning.iter_codeword_range.words_per_s", "1/s"),
    ("spanning.distinct_ratio", "1"),
    ("codespace.Codeword.constructed", "count"),
    ("codespace.Codeword.__add__.calls", "count"),
    ("codespace.iter_space_range.vectors", "count"),
    ("metrics.mixed_weight.calls", "count"),
    ("metrics.mixed_weight.busy_s", "s"),
    ("duality.brute_force_dual.busy_s", "s"),
    ("duality.inner_product.calls", "count"),
    ("duality.kept_ratio", "1"),
    ("closure.module_closure.busy_s", "s"),
    ("closure.module_closure.elements", "count"),
    ("generators.validate_generators.calls", "count"),
    ("generators.validate_generators.busy_s", "s"),
    ("generators.derive_cofactors.calls", "count"),
    ("generators.derive_cofactors.busy_s", "s"),
    ("modring.divides_witness.calls", "count"),
    ("modring.divides_witness.busy_s", "s"),
    ("modring.divides_witness.found_ratio", "1"),
    ("modring.solve_linear_mod2k.calls", "count"),
    ("modring.solve_linear_mod2k.busy_s", "s"),
    ("modring.solve_linear_mod2k.solved_ratio", "1"),
    ("modring.poly_divmod_unit_lead.calls", "count"),
    ("modring.Poly.__mul__.calls", "count"),
    ("spanning.build_spanning_set.busy_s", "s"),
    ("spanning.build_spanning_set.rows", "count"),
    ("spanning.build_spanning_set.useful_row_ratio", "1"),
    ("spanning.membership_test.calls", "count"),
    ("spanning.membership_test.busy_s", "s"),
    ("spanning.membership_test.member_ratio", "1"),
    ("cli.load_code_spec.busy_s", "s"),
    *[(f"{layer}.self_s", "s") for layer in (
        "cli", "generators", "modring", "codespace", "spanning", "metrics", "duality", "closure")],
    *[(f"cli.cmd.{cmd}.p50_ms", "ms") for cmd in COMMANDS],
    ("trace.overhead_frac", "1"),
]


class BenchError(RuntimeError):
    """The benchmark cannot run or cannot check an answer."""


# ---------------------------------------------------------------- workload

def layer_kinds(doc):
    """Which optimisation-relevant properties a document has."""
    kinds = set()
    for i, layer in enumerate(doc["a"], start=1):
        for p in layer:
            if p[-1] != 1:
                kinds.add("non-monic")
            if len(p) > 1 and p[0] % 2 and all(c % 2 == 0 for c in p[1:]):
                kinds.add("unit")
            if i > 1 and p[-1] % 2 == 0:
                kinds.add("even-lead")
    return sorted(kinds)


def _cli(command, doc_path, threads, *extra):
    return [command, str(doc_path), "--threads", str(threads), "--budget-enum", str(BUDGET_ENUM),
            "--budget-space", str(BUDGET_SPACE), *extra]


def build_queries(workload, families, refs, doc_paths, seed):
    """The fixed query list: (query, family index, expected data)."""
    queries = []

    def add(kind, fam, argv=None, words=None, truth=None, diff=None):
        q = {"id": f"{families[fam]['name']}.{kind}", "kind": kind, "doc": fam}
        if argv is not None:
            q["argv"] = argv
        if words is not None:
            q["words"] = words
        queries.append((q, {"truth": truth, "diff": diff}))

    for k, (fam, ref) in enumerate(zip(families, refs)):
        path, kind = doc_paths[k], fam["kind"]
        if workload == "scan":
            add("mindist", k, _cli("mindist", path, 1, "--distribution"))
            if kind != "paper":
                add("enum", k, _cli("enum", path, 1))
        elif workload == "certify":
            threads = min(2, os.cpu_count() or 1)
            if fam["name"].startswith("oracle"):
                add("oracle-check", k, _cli("oracle-check", path, threads))
            else:
                add("dual", k, _cli("dual", path, threads))
        elif kind == "paper":
            add("count", k, _cli("count", path, 1))
            add("matrix", k, _cli("matrix", path, 1, "--diff", REFERENCE_MATRIX),
                diff=REFERENCE_MATRIX)
        else:
            for command in ("validate", "count") if kind == "fail_i" else COMMANDS[:4]:
                add(command, k, _cli(command, path, 1))
            if kind != "fail_i":
                pick = random.Random(f"words:{seed}:{k}")
                words = np.vstack([ref.random_members(pick, 2), ref.random_non_members(pick, 2)])
                truth = "".join("1" if ref.contains_by_count(w) else "0" for w in words)
                if truth != "".join("1" if v else "0" for v in ref.contains(words)):
                    raise BenchError(f"reference membership tests disagree on {fam['name']}")
                add("member", k, words=[word_text(w, fam["doc"]["alphas"]) for w in words],
                    truth=truth)
    return queries


def verdict(q, expected, family, ref, answer):
    kind = q["kind"]
    if kind == "mindist":
        return check.check_mindist(answer, ref)
    if kind == "enum":
        return check.check_enum(answer, ref)
    if kind == "dual":
        return check.check_dual(answer, ref)
    if kind == "oracle-check":
        return check.check_oracle(answer, ref)
    if kind == "validate":
        return check.check_validate(answer, family)
    if kind == "count":
        return check.check_count(answer, family, ref)
    if kind == "span":
        return check.check_span(answer, ref)
    if kind == "matrix":
        if expected["diff"]:
            text = (ROOT / expected["diff"]).read_text()
            return check.check_matrix(answer, ref, expected["diff"], text)
        return check.check_matrix(answer, ref)
    if kind == "member":
        return check.check_member(answer, expected["truth"])
    raise BenchError(f"no check for query kind {kind!r}")


# ---------------------------------------------------------------- processes

def run_worker(plan, work, name):
    plan_path, result_path = work / f"{name}.plan.json", work / f"{name}.result.json"
    plan_path.write_text(json.dumps(plan))
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(plan_path),
                               str(result_path)], cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{name} worker exceeded {WORKER_TIMEOUT_S} s") from err
    if proc.returncode != 0:
        raise BenchError(f"{name} worker failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text())


# ---------------------------------------------------------------- metrics

def percentile(values, q):
    """Nearest-rank percentile; inf values (failed queries) sort last."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def best_latencies(runs, verdicts):
    """Each query's fastest pass, and the queries that failed in any pass.

    The machine is shared, and a slow stretch can last longer than a
    pass, so every pass of a query is a sample of one fixed amount of
    work and the fastest is the least disturbed.
    """
    failed = {qid for qid, _, _, digest in runs if verdicts[(qid, digest)]}
    return _best(runs), failed


def _best(runs):
    """Each query's fastest latency, whether it was answered right or not."""
    best = {}
    for qid, _, elapsed, _ in runs:
        best[qid] = min(best.get(qid, math.inf), elapsed)
    return best


def layer_metrics(result, kinds_by_id):
    runs, passes = result["traced"]
    plain_runs = result["untraced"][0]
    t = result["trace"]
    calls, busy, own, counts = t["calls"], t["busy"], t["self"], t["counts"]

    def per(x):
        return x / passes

    def ratio(a, b):
        return a / b if b else 0.0

    words = counts.get("spanning.iter_codeword_range.items", 0)
    vectors = counts.get("codespace.iter_space_range.items", 0)
    out = {
        "spanning.iter_codeword_range.words": per(words),
        "spanning.iter_codeword_range.busy_s": per(busy.get("spanning.iter_codeword_range", 0.0)),
        "spanning.iter_codeword_range.words_per_s":
            ratio(words, busy.get("spanning.iter_codeword_range", 0.0)),
        "spanning.distinct_ratio": ratio(counts.get("spanning.distinct_words", 0), words),
        "codespace.Codeword.constructed": per(calls.get("codespace.Codeword.__post_init__", 0)),
        "codespace.iter_space_range.vectors": per(vectors),
        "duality.kept_ratio": ratio(counts.get("duality.brute_force_dual.kept", 0), vectors),
        "closure.module_closure.elements": per(counts.get("closure.module_closure.elements", 0)),
        "spanning.build_spanning_set.rows": per(counts.get("spanning.build_spanning_set.rows", 0)),
        "spanning.build_spanning_set.useful_row_ratio":
            ratio(counts.get("spanning.build_spanning_set.useful", 0),
                  counts.get("spanning.build_spanning_set.rows", 0)),
        "trace.overhead_frac": sum(_best(runs).values()) / sum(_best(plain_runs).values()) - 1,
    }
    for name, counter, metric in (("modring.divides_witness", "found", "found_ratio"),
                                  ("modring.solve_linear_mod2k", "solved", "solved_ratio"),
                                  ("spanning.membership_test", "members", "member_ratio")):
        out[f"{name}.{metric}"] = ratio(counts.get(f"{name}.{counter}", 0), calls.get(name, 0))
    best = _best(plain_runs)
    for metric, _ in PER_LAYER:
        if metric in out:
            continue
        if metric.startswith("cli.cmd."):
            cmd = metric[len("cli.cmd."):-len(".p50_ms")]
            times = [t for qid, t in best.items() if kinds_by_id[qid] == cmd]
            out[metric] = 1000 * percentile(times, 0.5) if times else 0.0
        elif metric.endswith(".self_s"):
            out[metric] = per(own.get(metric[:-len(".self_s")], 0.0))
        elif metric.endswith(".busy_s"):
            out[metric] = per(busy.get(metric[:-len(".busy_s")], 0.0))
        elif metric.endswith(".calls"):
            out[metric] = per(calls.get(metric[:-len(".calls")], 0))
        else:
            raise BenchError(f"no rule for per-layer metric {metric}")
    return {metric: out[metric] for metric, _ in PER_LAYER}


# ---------------------------------------------------------------- main

def prepare(workload, seed, work):
    """Families, their references and the query list; documents go to ``work/docs``."""
    families = FAMILIES[workload](seed)
    refs = [CodeReference(f["doc"]) for f in families]
    doc_paths = []
    for fam in families:
        path = work / "docs" / f"{fam['name']}.json"
        path.write_text(json.dumps(fam["doc"]))
        doc_paths.append(path.relative_to(ROOT))
    return families, refs, doc_paths, build_queries(workload, families, refs, doc_paths, seed)


def describe(workload, seed, families, refs, queries):
    print(f"# workload {workload} seed {seed}: {len(families)} codes, {len(queries)} queries per pass")
    for fam, ref in zip(families, refs):
        print(f"#   {fam['name']:<12} profile={tuple(fam['doc']['alphas'])} log2|C|={ref.exponent} "
              f"log2|C_dual|={ref.dual_exponent} kind={fam['kind']} layers={layer_kinds(fam['doc'])}")
    props = {
        "|C_dual| < |C|": lambda f, r: r.dual_exponent < r.exponent,
        "unit layers": lambda f, r: "unit" in layer_kinds(f["doc"]),
        "non-monic layers": lambda f, r: "non-monic" in layer_kinds(f["doc"]),
        "n >= 3": lambda f, r: f["doc"]["n"] >= 3,
    }
    for label, test in props.items():
        hits = sum(test(families[q["doc"]], refs[q["doc"]]) for q, _ in queries)
        print(f"# share of queries with {label}: {hits}/{len(queries)} = {hits / len(queries):.3f}")


def check_answers(answers, queries, families, refs):
    """Verdict (None or a reason) for every distinct answer the worker stored."""
    by_id = {q["id"]: (q, expected) for q, expected in queries}
    verdicts = {}
    for path in sorted(answers.glob("*.json")):
        qid, digest = path.name[:-len(".json")].rsplit(".", 1)
        q, expected = by_id[qid]
        try:
            verdicts[(qid, digest)] = verdict(q, expected, families[q["doc"]], refs[q["doc"]],
                                              json.loads(path.read_text()))
        except (ValueError, KeyError, IndexError) as err:
            verdicts[(qid, digest)] = f"malformed answer ({type(err).__name__}: {err})"
    return verdicts


def run(workload, seed, seconds, trace):
    if not (SRC / "mixedcyclic" / "__init__.py").is_file():
        raise BenchError(f"package source not found under {SRC}")
    work = ROOT / ".bench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "docs").mkdir(parents=True)
    (work / "answers").mkdir()
    families, refs, doc_paths, queries = prepare(workload, seed, work)
    describe(workload, seed, families, refs, queries)

    plan = {"src": str(SRC), "docs": [str(p) for p in doc_paths], "outdir": str(work / "answers"),
            "queries": [q for q, _ in queries], "seconds": seconds, "trace": trace}
    setups = [run_worker({**plan, "mode": "setup"}, work, f"setup{r}")["setup_s"]
              for r in range(SETUP_RUNS - 1)]
    result = run_worker({**plan, "mode": "queries"}, work, "queries")
    setups.append(result["setup_s"])

    verdicts = check_answers(work / "answers", queries, families, refs)
    runs = result["untraced"][0] + (result["traced"][0] if trace else [])
    missing = {(r[0], r[3]) for r in runs} - verdicts.keys()
    if missing:
        raise BenchError(f"{len(missing)} answers were not checked")
    reasons = {}
    for qid, _, _, digest in runs:
        if verdicts[(qid, digest)]:
            reasons.setdefault(qid, set()).add(verdicts[(qid, digest)])
    for qid in sorted(reasons):
        print(f"# FAILED {qid}: {'; '.join(sorted(reasons[qid]))}")
    # a query of the list fails when any of its passes answered wrongly, so the
    # counts depend on the seed alone, not on how many passes fit in the time
    attempted, failed = len(queries), len(reasons)
    print(f"# failed_frac = {failed / attempted:.4f} ({failed} of {attempted} queries attempted; "
          f"{sum(1 for r in runs if verdicts[(r[0], r[3])])} of {len(runs)} answers wrong)")

    timed, passes = result["untraced"]
    best, failed_ids = best_latencies(timed, verdicts)
    latencies = [math.inf if qid in failed_ids else t for qid, t in best.items()]
    print(f"# untraced: {passes} passes; latency samples: {len(latencies)}, "
          "one per query (its fastest pass)")
    if trace:
        metrics = layer_metrics(result, {q["id"]: q["kind"] for q, _ in queries})
        units = dict(PER_LAYER)
        print(f"# traced: {result['traced'][1]} passes, {result['trace']['spans']} spans "
              f"in {(work / 'answers' / 'spans.jsonl').relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "queries_per_s": (len(best) - len(failed_ids)) / sum(best.values()),
            "query_p50_ms": 1000 * percentile(latencies, 0.5),
            "query_p90_ms": 1000 * percentile(latencies, 0.9),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = dict(END_TO_END)
        beyond = sum(x > metrics["query_p90_ms"] / 1000 for x in latencies)
        print(f"# query_p90_ms has {beyond} of {len(latencies)} samples beyond it")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if any(not math.isfinite(v) for v in metrics.values()):
        raise BenchError("a metric is not finite: too many failed queries")
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(FAMILIES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        doc = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    print(f"# run took {time.perf_counter() - start:.1f} s", file=sys.stderr)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
