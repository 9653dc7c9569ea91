"""The traced benchmark run (bench/tracer.py) patches package functions by name.

Its install step raises KeyError when a traced name or a module-level
ThreadPoolExecutor binding disappears, so a refactor that renames one
would break `bench/run.py --trace 1`; this guard catches it in the suite.
"""

import importlib.util
import pathlib

import mixedcyclic
import mixedcyclic.cli  # noqa: F401  (the tracer patches the CLI module too)

DOCS = "demos/codes"


def _load_tracer():
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
