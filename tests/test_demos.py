"""Smoke tests of the narrative demos: each runs to the end and prints its key line."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("script, key_line", [
    ("gray_map_tour.py", "  lee_weight(u) == hamming_weight(gray(u)) held 62 times"),
    ("three_level_code.py", "  level 2: f[1][2] = 1 + x + x^2 + x^3 + x^4; identity holds: True"),
    ("toy_code_walkthrough.py", "enumeration: 64 coefficient tuples, 64 distinct words"),
])
def test_demo_runs_and_prints_its_key_line(script, key_line, capsys):
    try:
        runpy.run_path(str(DEMOS / script), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0), exc.code
    assert key_line in capsys.readouterr().out.splitlines()


def test_readme_library_tour_runs(monkeypatch, capsys):
    # the fenced python block under "## Library tour", run as written from the repo root
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"^## Library tour\n+```python\n(.*?)^```", readme, re.S | re.M).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(tour, "README.md", "exec"), {})
    assert capsys.readouterr().out == "2\n"
