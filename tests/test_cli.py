"""CLI: document loading, command outputs, exit codes, determinism."""

import argparse
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest

from mixedcyclic.cli import SchemaError, build_parser, dispatch, load_code_spec, main
from mixedcyclic.closure import module_closure
from mixedcyclic.duality import dual_code
from mixedcyclic.generators import derive_cofactors, validate_generators
from mixedcyclic.metrics import weight_distribution
from mixedcyclic.modring import Poly
from mixedcyclic.spanning import build_spanning_set, iter_packed_range

DOCS = "demos/codes"


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "mixedcyclic.cli", *argv],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def parse_and_dispatch(*argv):
    args = build_parser().parse_args(list(argv))
    return dispatch(args.command, args)


def test_load_example_document():
    with open(f"{DOCS}/three_level_855.json") as fh:
        gens = load_code_spec(fh.read())
    assert gens.profile.alphas == (8, 5, 5)
    assert gens.a(2, 0) == Poly((3, 0, 2), 2)
    assert gens.l(3, 2) == Poly((0, 3), 3)


def test_load_binary_document():
    with open(f"{DOCS}/binary_n1.json") as fh:
        gens = load_code_spec(fh.read())
    assert gens.profile.alphas == (7,)


def test_schema_errors_identify_fields():
    with pytest.raises(SchemaError, match="alphas"):
        load_code_spec('{"n": 2, "alphas": [3], "a": [[[1]]], "l": []}')
    with pytest.raises(SchemaError, match=r"a\[0\]\[0\]\[0\]"):
        load_code_spec('{"n": 1, "alphas": [3], "a": [[[2]]]}')
    with pytest.raises(SchemaError, match="zero layer"):
        load_code_spec('{"n": 1, "alphas": [3], "a": [[[0, 0]]]}')
    with pytest.raises(SchemaError, match="unknown field"):
        load_code_spec('{"n": 1, "alphas": [3], "a": [[[1, 1]]], "extra": 1}')
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_code_spec("{")


_A2 = '"a": [[[1, 1]], [[1, 1, 1], [1]]]'


@pytest.mark.parametrize("doc, path", [
    # one fault each, on top of a valid n=2 (or n=1) document
    ('{"n": 2, "alphas": [3, 3], "a": [[[1, 1]], [[1, 1, 1]]], "l": [[[1]]]}', "a[1]"),
    ('{"n": 2, "alphas": [3, 3], "a": [[[1, 1]]], "l": [[[1]]]}', "a"),
    ('{"n": 1, "alphas": [3], "a": [[[0]]]}', "a[0][0]"),
    ('{"n": 2, "alphas": [3, 3], "a": [[[1, 1]], [[1, 1, 1], [0, 0]]], "l": [[[1]]]}',
     "a[1][1]"),
    ('{"n": 1, "alphas": [3], "a": [[[1, 0, 0, 0, 1]]]}', "a[0][0]"),
    ('{"n": 2, "alphas": [3, 3], "a": [[[1, 1]], [[1, 0, 0, 0, 1], [1]]], "l": [[[1]]]}',
     "a[1][0]"),
    ('{"n": 1, "alphas": [3], "a": [[[1, 1]]], "l": [[[1]]]}', "l"),
    ('{"n": 2, "alphas": [3, 3], ' + _A2 + '}', "l"),
    ('{"n": 2, "alphas": [3, 3], ' + _A2 + ', "l": [[[1]], [[1]]]}', "l"),
    ('{"n": 2, "alphas": [3, 3], ' + _A2 + ', "l": [[[1], [1]]]}', "l[0]"),
    ('{"n": 2, "alphas": [3, 3], ' + _A2 + ', "l": [[[1, 0, 0, 1]]]}', "l[0][0]"),
])
def test_family_shape_errors_name_the_field(doc, path):
    with pytest.raises(SchemaError, match="^" + re.escape(path) + ": "):
        load_code_spec(doc)


_A855 = '"a": [[[1, 0, 1]], [[3, 0, 2], [3]], [[3, 2], [3], [3, 0, 2]]]'


@pytest.mark.parametrize("doc, message", [
    # a[1] dropped: the old a[2], legal mod 8, now sits at level 2 with a 7
    ('{"n":3,"alphas":[8,5,5],"a":[[[1,0,1]],[[7,2],[3],[3,0,2]]],"l":[[[1,1]],[[1,1],[0,3]]]}',
     "a: must hold one layer list per level (n=3)"),
    # l[0] dropped: the old l[1], with a 5 legal mod 8, now sits at level 2
    ('{"n": 3, "alphas": [8, 5, 5], ' + _A855 + ', "l": [[[5, 1], [0, 3]]]}',
     "l: must hold one mixing list per level 2..3"),
], ids=["a", "l"])
def test_a_dropped_level_is_reported_by_the_count_not_the_shifted_ranges(doc, message):
    with pytest.raises(SchemaError, match="^" + re.escape(message) + "$"):
        load_code_spec(doc)


def test_out_of_range_coefficient_is_an_error_not_a_reduction():
    # 3 is a legal residue mod 4 but not mod 2
    with pytest.raises(SchemaError, match="out of range"):
        load_code_spec('{"n": 1, "alphas": [3], "a": [[[3, 1]]]}')


def test_validate_command(tmp_path):
    report, lines, code = parse_and_dispatch("validate", f"{DOCS}/three_level_855.json")
    assert code == 0
    assert lines[-1] == "overall: PASS"
    assert any(w["code"] == "unit_layer" for w in report.warnings)


def test_validate_failure_exit_code(tmp_path):
    doc = tmp_path / "broken.json"
    doc.write_text(json.dumps({
        "n": 1, "alphas": [8], "a": [[[1, 1, 1]]],
    }))
    report, lines, code = parse_and_dispatch("validate", str(doc))
    assert code == 1
    assert lines[-1] == "overall: FAIL"


def test_count_command():
    _, lines, code = parse_and_dispatch("count", f"{DOCS}/toy_n2.json")
    assert code == 0
    assert lines == ["t=6, |C|=64"]


def test_count_runs_on_the_standard_library_alone():
    # -S leaves site-packages off sys.path, so an import of an installed package
    # (numpy comes with the test extra) fails here
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys; from mixedcyclic.cli import main; "
         f"sys.exit(main(['count', '{DOCS}/toy_n2.json']))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert (proc.returncode, proc.stdout) == (0, "t=6, |C|=64\n"), proc.stderr


def test_gray_command():
    report, lines, code = parse_and_dispatch("gray", "--level", "3", "--value", "5")
    assert code == 0
    assert lines == ["1110"]


def test_enum_command_stream_and_summary():
    # the words come as one rendered text, the summary as the last entry
    _, lines, code = parse_and_dispatch("enum", f"{DOCS}/toy_n2.json")
    assert code == 0
    text = "\n".join(lines).split("\n")
    assert text[0] == "0,0,0|0,0,0"
    assert text[-1] == "# distinct=64 stream=64"
    assert len(text) == 65


def test_mindist_command_with_distribution():
    _, lines, code = parse_and_dispatch(
        "mindist", f"{DOCS}/toy_n2.json", "--distribution")
    assert code == 0
    assert lines[0] == "d=2"
    assert lines[1] == "weight,count"
    assert lines[2] == "0,1"


def test_dual_command():
    report, lines, code = parse_and_dispatch("dual", f"{DOCS}/tower_111.json")
    assert code == 0
    assert lines[0] == "dual_count=8"
    assert lines[1] == "cyclic=true"


def test_oracle_check_command():
    for doc in ("binary_n1.json", "toy_n2.json", "tower_111.json"):
        report, lines, code = parse_and_dispatch("oracle-check", f"{DOCS}/{doc}")
        assert code == 0, doc
        assert lines[0] == "equal=true"


def test_matrix_diff_command():
    report, lines, code = parse_and_dispatch(
        "matrix", f"{DOCS}/three_level_855.json",
        "--diff", "tests/data/reference_matrix_855.csv")
    assert code == 0
    assert any("duplicate reference row 6" in line for line in lines)
    assert any("unexplained reference row 14" in line for line in lines)
    diff = report.payload["diff"]
    assert len(diff["matches"]) == 12


def test_budget_exceeded_exit_code(tmp_path):
    rc, out, err = run_cli("enum", f"{DOCS}/toy_n2.json", "--budget-enum", "32")
    assert rc == 2
    assert "error:" in err


def test_schema_error_exit_code(tmp_path):
    doc = tmp_path / "bad.json"
    doc.write_text('{"n": 1, "alphas": [3], "a": [[[3, 1]]]}')
    rc, out, err = run_cli("validate", str(doc))
    assert rc == 2
    assert "out of range" in err


def test_missing_file_exit_code():
    rc, out, err = run_cli("count", "no_such_file.json")
    assert rc == 2


def test_cofactors_command():
    report, lines, code = parse_and_dispatch("cofactors", f"{DOCS}/toy_n2.json")
    assert code == 0
    assert "h[1][0] = 1 + x + x^2 (rows 2)" in lines
    assert "d[1] = 1 + x + x^2" in lines
    assert report.payload["m"] == [
        {"level": 2, "index": 1, "poly": [1, 1, 1], "rows": 2}
    ]


def test_matrix_json_format():
    report, lines, code = parse_and_dispatch(
        "matrix", f"{DOCS}/toy_n2.json", "--format", "json")
    assert code == 0
    doc = json.loads("\n".join(lines))
    assert doc["alphas"] == [3, 3]
    assert doc["rows"][0] == [1, 1, 0, 0, 0, 0]
    assert doc["labels"][0] == [1, 0, 0]


def test_enum_reports_minimality_violation(tmp_path):
    doc = tmp_path / "unit_layer.json"
    doc.write_text(json.dumps({
        "n": 2, "alphas": [3, 3],
        "a": [[[1, 1]], [[3, 0, 2], [3]]],
        "l": [[[1]]],
    }))
    report, lines, code = parse_and_dispatch("enum", str(doc))
    assert code == 0
    assert any(w["code"] == "minimality_violation" for w in report.warnings)
    report, lines, code = parse_and_dispatch("oracle-check", str(doc))
    assert code == 0
    assert lines[0] == "equal=false"
    assert any(w["code"] == "oracle_mismatch" for w in report.warnings)


def test_mindist_of_zero_code_is_undefined(tmp_path):
    doc = tmp_path / "zero.json"
    doc.write_text(json.dumps({
        "n": 1, "alphas": [3], "a": [[[1, 0, 0, 1]]],
    }))
    _, lines, code = parse_and_dispatch("mindist", str(doc))
    assert code == 0
    assert lines[0] == "d=undefined (no nonzero codeword)"


def test_stdout_determinism_across_runs_and_threads():
    for command, extra in (("span", ()), ("enum", ()), ("mindist", ("--distribution",))):
        outputs = []
        for threads in ("1", "2", "3"):
            rc, out, err = run_cli(
                command, f"{DOCS}/toy_n2.json", "--threads", threads, *extra)
            assert rc == 0
            outputs.append(out)
        rc, again, _ = run_cli(command, f"{DOCS}/toy_n2.json", "--threads", "1", *extra)
        assert rc == 0
        assert all(o == outputs[0] for o in outputs)
        assert again == outputs[0]
        assert "wall_time" not in outputs[0]  # timing goes to stderr only


def test_json_report_mode():
    rc, out, err = run_cli("count", f"{DOCS}/toy_n2.json", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "count"
    assert doc["payload"] == {"count": 64, "exponent": 6, "formula_exponent": 6}
    assert "wall_time" not in doc


def test_json_report_on_validation_failure(tmp_path):
    doc = tmp_path / "broken.json"
    doc.write_text(json.dumps({"n": 1, "alphas": [8], "a": [[[1, 1, 1]]]}))
    rc, out, err = run_cli("count", str(doc), "--json")
    assert rc == 1
    payload = json.loads(out)["payload"]
    assert payload["validation"]["overall"] is False
    failing = [e for e in payload["validation"]["entries"] if not e["passed"]]
    assert failing and all(e["condition"] == "i" for e in failing)


def test_schema_rejects_booleans_for_n_and_alphas(tmp_path, capsys):
    # JSON true loads as a Python bool, which is an int
    with pytest.raises(SchemaError, match="^n: "):
        load_code_spec('{"n": true, "alphas": [true], "a": [[[1, 1]]]}')
    with pytest.raises(SchemaError, match=r"^alphas\[0\]: "):
        load_code_spec('{"n": 1, "alphas": [true], "a": [[[1, 1]]]}')
    doc = tmp_path / "bool.json"
    doc.write_text('{"n": true, "alphas": [true], "a": [[[1, 1]]]}')
    assert main(["validate", str(doc)]) == 2
    assert "error: n: must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_threads_below_one_is_a_parse_error(value, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["enum", f"{DOCS}/toy_n2.json", "--threads", value])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


WITNESS_FUNCTIONS = ("poly_divmod_unit_lead", "divides_witness", "solve_linear_mod2k")


def witness_calls(monkeypatch, *argv):
    """Witness-function calls made by one command, counted at every binding."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as mp:
        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("mixedcyclic"):
                for name in WITNESS_FUNCTIONS:
                    if name in vars(module):
                        mp.setattr(module, name, counted(name, vars(module)[name]))
        _, _, code = parse_and_dispatch(*argv)
    assert code == 0
    return calls


def test_count_derives_the_witnesses_once(monkeypatch):
    doc = f"{DOCS}/three_level_855.json"
    validate = witness_calls(monkeypatch, "validate", doc)
    assert all(validate[name] for name in WITNESS_FUNCTIONS), validate
    count = witness_calls(monkeypatch, "count", doc)
    for name in WITNESS_FUNCTIONS:
        assert count[name] <= validate[name], (name, count, validate)


def test_witness_notes_are_formatted_only_when_read(monkeypatch):
    # a passing family: only validate prints the witnesses, so only it formats them
    doc = f"{DOCS}/three_level_855.json"
    calls = []
    real = Poly.__str__
    monkeypatch.setattr(Poly, "__str__", lambda p: calls.append(p) or real(p))
    for command in ("count", "span", "matrix"):
        _, _, code = parse_and_dispatch(command, doc)
        assert code == 0 and calls == [], command
    with open(doc) as fh:
        derive_cofactors(load_code_spec(fh.read()))
    assert calls == []
    report, lines, code = parse_and_dispatch("validate", doc)
    assert code == 0 and calls and all(real(p) in "\n".join(lines) for p in calls)


def test_family_that_passes_without_all_cofactors(tmp_path, capsys):
    # h_31 does not exist, but no condition consults it
    doc = tmp_path / "gap.json"
    doc.write_text(json.dumps({
        "n": 3, "alphas": [1, 1, 4],
        "a": [[[1, 1]], [[3, 1], [1]], [[0, 4, 2], [2, 1], [1]]],
        "l": [[[0]], [[0], [0]]],
    }))
    for command in ("validate", "dual"):
        assert main([command, str(doc)]) == 0, command
    capsys.readouterr()
    for command in ("count", "span", "cofactors"):
        assert main([command, str(doc)]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: not a divisor: a | x^alpha - 1 at (i=3, j=1)" in captured.err


FILE_COMMANDS = ("validate", "cofactors", "span", "matrix", "enum", "count",
                 "mindist", "dual", "oracle-check")


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_each_command_validates_once(command, monkeypatch, capsys):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return validate_generators(*args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("mixedcyclic") and "validate_generators" in vars(module):
            monkeypatch.setattr(module, "validate_generators", counted)
    assert main([command, f"{DOCS}/toy_n2.json"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_failed_validation_prints_the_report_for_every_command(command, capsys):
    doc = "tests/data/fails_condition_i.json"
    assert main(["validate", doc]) == 1
    report = capsys.readouterr().out
    assert report.endswith("overall: FAIL\n")
    assert main([command, doc]) == 1
    assert capsys.readouterr().out == report


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    progs = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser.cache_clear()
    assert main(["count", f"{DOCS}/toy_n2.json"]) == 0
    assert progs.count("mixedcyclic") == 1  # the subcommand parsers are named "mixedcyclic <cmd>"
    built = len(progs)
    assert main(["count", f"{DOCS}/toy_n2.json"]) == 0
    assert progs[built:] == []  # no parser is built on the second call


@pytest.mark.parametrize("command", FILE_COMMANDS + ("gray",))
def test_main_parses_like_the_whole_parser(command, capsys):
    # main parses with the command's own parser; help, usage and every error
    # message must come out as the whole parser prints them
    doc = f"{DOCS}/toy_n2.json"
    cases = [[command, "--help"], [command], [command, "--threads", "0", doc],
             [command, doc, "--threads", "0"], [command, doc, "--bogus"],
             [command, doc, "extra"], [command, "--level", "2", "--value", "3", "--bogus"],
             [], ["--help"], ["no-such-command", doc]]
    for argv in cases:
        results = []
        for parse in (main, build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(list(argv))
            results.append((exc.value.code, *capsys.readouterr()))
        assert results[0] == results[1], argv


@pytest.mark.parametrize("level", ["0", "-1"])
def test_gray_level_below_one_is_a_parse_error(level, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gray", "--level", level, "--value", "1"])
    assert exc.value.code == 2
    assert "argument --level: must be >= 1" in capsys.readouterr().err


def test_malformed_reference_row_names_its_line(tmp_path, capsys):
    # a valid row, a blank line, a comment, then a row with one block too many
    ref = tmp_path / "ref.csv"
    ref.write_text("1,0,1,0,0,0,0,0|0,0,0,0,0|0,0,0,0,0\n\n# note\n"
                   "1,0,1,0,0,0,0,0|0,0,0,0,0|0,0,0,0,0|1\n")
    assert main(["matrix", f"{DOCS}/three_level_855.json", "--diff", str(ref)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: reference matrix line 4: component count must equal n\n"


@pytest.mark.parametrize("level", ["22", "40"])
def test_gray_level_whose_image_exceeds_the_budget_is_refused(level, capsys):
    assert main(["gray", "--level", level, "--value", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: gray --level {level}: " in captured.err


def test_gray_budget_check_builds_no_image_sized_int(capsys):
    tracemalloc.start()
    try:
        code = main(["gray", "--level", "100000000", "--value", "0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == (
        "error: gray --level 100000000: the image would have 2^99999999 bits, "
        "over the budget of 1048576 bits\n")
    assert peak < 4 << 20
    # the budget edge: 2^20 bits fit (level 22 is refused above)
    assert main(["gray", "--level", "21", "--value", "1"]) == 0
    assert len(capsys.readouterr().out) == (1 << 20) + 1


@pytest.mark.parametrize("argv, flag", [
    (["gray", "--level", "x", "--value", "1"], "--level"),
    (["enum", f"{DOCS}/toy_n2.json", "--threads", "x"], "--threads"),
])
def test_non_integer_count_flag_names_the_flag(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected an integer >= 1, got 'x'" in err
    assert "_positive_int" not in err


def _golden_stdout(argv):
    with open("tests/data/cli_golden.json") as fh:
        return next(e["stdout"] for e in json.load(fh) if e["argv"] == argv)


def test_budget_space_bounds_the_words_dual_lists(capsys):
    # toy_n2 has 2^3 dual words in an ambient space of 2^9
    doc = f"{DOCS}/toy_n2.json"
    assert main(["dual", doc, "--budget-space", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: dual has 2^3 words, budget 4\n" in captured.err
    assert main(["dual", doc, "--budget-space", "8"]) == 0
    assert capsys.readouterr().out == _golden_stdout(["dual", doc])


# 2^14 words on (7,7,5) with a mixing polynomial: the walk builds tables of
# 2,048 positions, so a scan crosses seven table boundaries
MIDSIZE = "tests/data/midsize_775.json"
MIDSIZE_DISTRIBUTION = ("d=2\nweight,count\n0,1\n2,7\n4,49\n5,168\n6,343\n7,981\n8,1715\n"
                        "9,2163\n10,2765\n11,2765\n12,2163\n13,1715\n14,981\n15,343\n16,168\n"
                        "17,49\n19,7\n21,1\n")


def _stdout(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_midsize_scans_are_pinned_and_the_same_at_every_thread_count(capsys):
    for threads in ("1", "2", "3"):
        enum = _stdout(capsys, "enum", MIDSIZE, "--threads", threads)
        assert enum.splitlines()[-1] == "# distinct=16384 stream=16384"
        assert hashlib.sha256(enum.encode()).hexdigest() == (
            "7792509864df1dd2675b566c6cbb960176853e51e9f91e2991b112d9145de454"), threads
        mindist = _stdout(capsys, "mindist", MIDSIZE, "--distribution", "--threads", threads)
        assert mindist == MIDSIZE_DISTRIBUTION, threads


def test_midsize_walk_and_distribution_agree_with_the_closure(capsys):
    assert _stdout(capsys, "oracle-check", MIDSIZE).splitlines()[0] == "equal=true"
    with open(MIDSIZE) as fh:
        gens = load_code_spec(fh.read())
    closure = module_closure(gens.generator_codewords(), budget=1 << 16)
    assert closure.saturated and len(closure) == 1 << 14
    dist = weight_distribution(map(gens.profile.packing.codeword, closure.words))
    rows = MIDSIZE_DISTRIBUTION.splitlines()[2:]
    assert dist == Counter({int(wt): int(count) for wt, count in (r.split(",") for r in rows)})


def test_bulk_rendering_matches_per_word_text_at_n7(capsys):
    # the golden file stops at n = 3; here fields reach 120, so every output
    # below mixes one-, two- and three-digit values
    doc = "tests/data/tower_n7.json"
    with open(doc) as fh:
        gens = load_code_spec(fh.read())
    s = build_spanning_set(gens, validate_generators(gens).require_cofactors())
    codeword = gens.profile.packing.codeword
    expected = {
        "enum": [codeword(w).to_text() for w in iter_packed_range(s, 0, 1 << 15)],
        "dual": [v.to_text() for v in dual_code(gens.generator_codewords(), gens.profile)
                 .dual_codewords],
        "span": [f"{i},{j},{k}: {row.to_text()}" for (i, j, k), row in s.rows],
        "matrix": [row.to_text() for _, row in s.rows],
    }
    for command, texts in expected.items():
        out = _stdout(capsys, command, doc)
        assert re.search(r"\b\d\d\b", out) and re.search(r"\b\d\d\d\b", out), command
        lines = out.splitlines()
        body = {"enum": lines[:-1], "dual": lines[2:], "span": lines[1:], "matrix": lines}
        assert body[command] == texts, command
