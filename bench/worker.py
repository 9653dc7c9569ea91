"""Query process of the benchmark: the only process that imports the package.

Usage: python3 worker.py PLAN.json RESULT.json

``setup`` plans import ``mixedcyclic`` and run ``cli.load_code_spec`` on
every code document once, timing both.  ``queries`` plans do the same and
then run the query list in passes, closed loop with a single client,
until the plan's seconds are spent.  Each query runs ``cli.main(argv)``
in-process with stdout and stderr captured, or builds the spanning set
and calls ``spanning.membership_test`` on the plan's words.  The timed
span of a query covers only that call.  Outside it the worker hashes
the answer and stores each distinct answer once, for the parent process
to check; the worker itself computes no reference values.

With ``trace`` set, the first half of the time runs untraced and the
second half traced, so the parent can report the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time


def _import_package(src):
    sys.path.insert(0, src)
    import mixedcyclic
    import mixedcyclic.cli  # noqa: F401  (the package does not import its CLI)
    return mixedcyclic


def _load_specs(cli, paths):
    specs = []
    for path in paths:
        with open(path) as fh:
            specs.append(cli.load_code_spec(fh.read()))
    return specs


def _run_cli(pkg, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pkg.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the answer is checked, so any crash is a failed query
        code = f"exception {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def _run_membership(pkg, gens, words):
    start = time.perf_counter()
    try:
        s = pkg.spanning.build_spanning_set(gens, pkg.generators.derive_cofactors(gens))
        verdicts = [pkg.spanning.membership_test(pkg.codespace.Codeword.from_text(gens.profile, w), s)
                    is not None for w in words]
        code, out = 0, "".join("1" if v else "0" for v in verdicts) + "\n"
    except Exception as exc:
        code, out = f"exception {type(exc).__name__}: {exc}", ""
    elapsed = time.perf_counter() - start
    return elapsed, code, out, ""


class AnswerStore:
    """Keeps each distinct (exit code, stdout) of a query once, on disk."""

    def __init__(self, outdir):
        self.outdir = outdir
        self.seen = set()

    def record(self, qid, code, out, err):
        digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:20]
        if (qid, digest) not in self.seen:
            self.seen.add((qid, digest))
            with open(os.path.join(self.outdir, f"{qid}.{digest}.json"), "w") as fh:
                json.dump({"code": code, "stdout": out, "stderr": err}, fh)
        return digest


def _run_passes(pkg, plan, specs, store, seconds, tracer=None):
    runs = []
    passes = 0
    begin = time.perf_counter()
    # whole passes only, and none that would end past the time limit
    while passes == 0 or (time.perf_counter() - begin) * (passes + 1) / passes <= seconds:
        for q in plan["queries"]:
            gc.collect()  # every query starts from the same collector state
            if tracer:
                tracer.begin_query(f"{passes}:{q['id']}")
            if q["kind"] == "member":
                elapsed, code, out, err = _run_membership(pkg, specs[q["doc"]], q["words"])
            else:
                elapsed, code, out, err = _run_cli(pkg, q["argv"])
            if tracer:
                tracer.end_query()
            runs.append([q["id"], passes, elapsed, store.record(q["id"], code, out, err)])
        passes += 1
    return runs, passes


def main(plan_path, result_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    start = time.perf_counter()
    pkg = _import_package(plan["src"])
    specs = _load_specs(pkg.cli, plan["docs"])
    result = {"setup_s": time.perf_counter() - start}
    gc.freeze()  # the collections between queries then scan only what the queries left
    if plan["mode"] == "queries":
        store = AnswerStore(plan["outdir"])
        seconds = plan["seconds"]
        if plan["trace"]:
            from tracer import Tracer

            result["untraced"] = _run_passes(pkg, plan, specs, store, seconds / 2)
            tracer = Tracer(pkg)
            tracer.install()
            try:
                result["traced"] = _run_passes(pkg, plan, specs, store, seconds / 2, tracer)
            finally:
                tracer.uninstall()
            result["trace"] = tracer.summary()
            tracer.write_spans(os.path.join(plan["outdir"], "spans.jsonl"))
        else:
            result["untraced"] = _run_passes(pkg, plan, specs, store, seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
