"""The traced benchmark run (bench/tracer.py) patches package functions by name.

Its install step raises KeyError when a traced name or a module-level
ThreadPoolExecutor binding disappears, so a refactor that renames one
would break `bench/run.py --trace 1`; this guard catches it in the suite.
"""

import importlib.util
import json
import pathlib

import pytest

import mixedcyclic
import mixedcyclic.cli  # noqa: F401  (the tracer patches the CLI module too)

DOCS = "demos/codes"


def _load_bench(name):
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load_bench("tracer")


def test_tracer_installs_and_uninstalls(capsys):
    tracer = _load_tracer().Tracer(mixedcyclic)
    tracer.install()
    try:
        patched = list(tracer.patches)
        assert mixedcyclic.cli.main(["count", f"{DOCS}/toy_n2.json"]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == "t=6, |C|=64\n"
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, attr
    # the command validated once and derived no cofactors on the side
    assert tracer.calls["generators.validate_generators"] == 1
    assert tracer.calls["generators.derive_cofactors"] == 0


def test_tracer_counts_the_member_path():
    # the bench's member query: derive_cofactors, build_spanning_set, then
    # one membership_test per word
    worker = _load_bench("worker")
    with open(f"{DOCS}/toy_n2.json") as fh:
        gens = mixedcyclic.cli.load_code_spec(fh.read())
    words = ["0,0,0|0,0,0", "1,1,0|0,0,0", "1,0,0|0,0,0", "1,0,0|3,1,1"]
    tracer = _load_tracer().Tracer(mixedcyclic)
    tracer.install()
    try:
        patched = list(tracer.patches)
        _, code, out, _ = worker._run_membership(mixedcyclic, gens, words)
    finally:
        tracer.uninstall()
    assert (code, out) == (0, "1101\n")
    assert tracer.calls["generators.derive_cofactors"] == 1
    assert tracer.calls["spanning.build_spanning_set"] == 1
    assert tracer.calls["spanning.membership_test"] == 4
    assert tracer.counts["spanning.membership_test.members"] == 3
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, attr


def _golden_stdout(argv):
    golden = pathlib.Path(__file__).parent / "data" / "cli_golden.json"
    return next(e for e in json.loads(golden.read_text()) if e["argv"] == argv)["stdout"]


@pytest.mark.parametrize("argv", [["mindist", f"{DOCS}/toy_n2.json", "--distribution"],
                                  ["enum", f"{DOCS}/toy_n2.json"],
                                  ["oracle-check", f"{DOCS}/toy_n2.json"]])
def test_tracer_sees_no_codeword_per_scanned_word(argv, capsys):
    # the scan walks, weighs and prints packed words, and the closure sums
    # them: no Codeword addition, and fewer Codewords are built than the 64
    # words of the stream (and of the closure)
    tracer = _load_tracer().Tracer(mixedcyclic)
    tracer.install()
    try:
        patched = list(tracer.patches)
        assert mixedcyclic.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == _golden_stdout(argv)
    closures = argv[0] == "oracle-check"
    assert tracer.calls["closure.module_closure"] == closures
    assert tracer.counts["closure.module_closure.elements"] == 64 * closures
    assert tracer.calls["codespace.Codeword.__add__"] == 0
    assert tracer.calls["codespace.Codeword.__post_init__"] < 64
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, attr


def test_tracer_shows_dual_solves_without_scanning(capsys):
    # dual lists C-perp from a kernel basis: no ambient scan, no inner products
    argv = ["dual", f"{DOCS}/toy_n2.json"]
    tracer = _load_tracer().Tracer(mixedcyclic)
    tracer.install()
    try:
        patched = list(tracer.patches)
        assert mixedcyclic.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == _golden_stdout(argv)
    for name in ("duality.brute_force_dual", "codespace.iter_space_range",
                 "duality.inner_product"):
        assert tracer.calls[name] == 0, name
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, attr



def _traced(call):
    """(tracer, call()) with the tracer installed around the call, and every patch undone."""
    tracer = _load_tracer().Tracer(mixedcyclic)
    tracer.install()
    try:
        patched = list(tracer.patches)
        result = call()
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, attr
    return tracer, result


def test_tracer_sees_the_855_dual_build_no_codeword_per_shift(capsys):
    # the echelon build, the kernel and the shift-closure test stay on packed
    # words: the (8,5,5) dual builds its n = 3 generators and its |C-perp| = 4
    # words, and the Code build alone builds none
    argv = ["dual", f"{DOCS}/three_level_855.json"]
    dual, code = _traced(lambda: mixedcyclic.cli.main(argv))
    assert code == 0
    assert capsys.readouterr().out == _golden_stdout(argv)
    assert dual.calls["codespace.Codeword.__post_init__"] <= 3 + 4
    with open(argv[1]) as fh:
        gens = mixedcyclic.cli.load_code_spec(fh.read())
    words = [v.w for v in gens.generator_codewords()]
    echelon, code = _traced(lambda: mixedcyclic.spanning.Code(words, gens.profile))
    assert echelon.calls["codespace.Codeword.__post_init__"] == 0
    assert sum(3 - v for _, v, _ in code.basis) == 31  # |C| = 2^31
