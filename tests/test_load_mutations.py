"""Seeded single mutations of the code documents: each loads, or is a schema
error that names its field and exits 2."""

import copy
import json
import pathlib
import random
import re

from mixedcyclic.cli import SchemaError, load_code_spec, main
from mixedcyclic.generators import validate_generators

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCUMENTS = sorted(p for p in [*ROOT.glob("demos/codes/*.json"), *ROOT.glob("tests/data/*.json")]
                   if isinstance(json.loads(p.read_text()), dict))
VALUES = (-1, 0, 1, 2, 3, 5, 8, 33, 1.5, "1", None, True, [], {})
UNKNOWN = "colour"
# a field path ($ is the document, [j] an index) or the unknown key, then ": ";
# or a JSON syntax error
LEADS = re.compile(r"(\$|n|alphas|a|l|allow_nonstandard_profile)(\[\d+\])*: |"
                   + UNKNOWN + ": |not valid JSON")
MUTATIONS = 4000  # draws; each distinct mutant is checked once


def _nodes(doc):
    """(container, key) of every value below the document root."""
    todo, out = [doc], []
    while todo:
        node = todo.pop()
        keys = node if isinstance(node, dict) else range(len(node))
        for key in keys:
            out.append((node, key))
            if isinstance(node[key], (dict, list)):
                todo.append(node[key])
    return out


def mutate(text, rng):
    """The document in text with one change: a value set from VALUES, a value deleted,
    a list entry duplicated, an empty list inserted, a value wrapped in a list,
    or an unknown key added to the document."""
    doc = json.loads(text)
    node, key = rng.choice(_nodes(doc))
    ops = ["set", "delete", "wrap", "unknown"]
    ops += ["duplicate"] if isinstance(node, list) else []
    ops += ["insert"] if isinstance(node[key], list) else []
    op = rng.choice(ops)
    if op == "set":
        node[key] = copy.deepcopy(rng.choice(VALUES))
    elif op == "delete":
        del node[key]
    elif op == "wrap":
        node[key] = [node[key]]
    elif op == "unknown":
        doc[UNKNOWN] = 1
    elif op == "duplicate":
        node.insert(key, copy.deepcopy(node[key]))
    else:
        node[key].insert(rng.randint(0, len(node[key])), [])
    return doc


def test_every_single_mutation_loads_or_names_its_field(tmp_path, capsys):
    rng = random.Random(20261020)
    texts = [p.read_text() for p in DOCUMENTS]
    path = tmp_path / "mutant.json"
    mutants = sorted({json.dumps(mutate(rng.choice(texts), rng)) for _ in range(MUTATIONS)})
    failed = 0
    for text in mutants:
        try:
            gens = load_code_spec(text)
        except SchemaError as err:
            assert LEADS.match(str(err)), (text, str(err))
            failed += 1
            path.write_text(text)
            assert main(["validate", str(path)]) == 2, text
            assert capsys.readouterr() == ("", f"error: {err}\n")
        else:
            validate_generators(gens)  # a document that loads validates without raising
    assert 0 < failed < len(mutants)  # both outcomes occur
