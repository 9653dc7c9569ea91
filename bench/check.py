"""Answer checks: each query's captured answer against the reference.

A check returns None when the answer is right and a one-line reason when
it is wrong.  A wrong answer, an error, a budget stop or an unexpected
exit code are all failures; nothing is excused, including the paper's
(8,5,5) example.
"""

from __future__ import annotations

import re

import numpy as np

from reference import cyclic_mulmod, cyclic_reduce, parse_word

EXACT_DISTRIBUTION_LIMIT = 20  # enumerate the reference code up to 2^20 words


def _lines(answer):
    return answer["stdout"].splitlines()


def _expect_code(answer, code):
    if answer["code"] != code:
        err = answer["stderr"].strip().splitlines()
        return f"exit {answer['code']}, expected {code}" + (f" ({err[0]})" if err else "")
    return None


def _words(texts, alphas):
    return np.array([parse_word(t, alphas) for t in texts], dtype=np.int64).reshape(
        -1, sum(alphas))


def _poly(text, level):
    """Parse the package's polynomial text ("3 + 2x + x^2") into coefficients."""
    coeffs = {}
    if text.strip() != "0":
        for term in text.split(" + "):
            m = re.fullmatch(r"(\d*)(x(?:\^(\d+))?)?", term.strip())
            if not m or not (m.group(1) or m.group(2)):
                raise ValueError(f"bad term {term!r}")
            c = int(m.group(1)) if m.group(1) else 1
            e = (int(m.group(3)) if m.group(3) else 1) if m.group(2) else 0
            coeffs[e] = coeffs.get(e, 0) + c
    top = max(coeffs, default=-1)
    return [coeffs.get(e, 0) % (1 << level) for e in range(top + 1)]


def check_mindist(answer, ref):
    bad = _expect_code(answer, 0)
    if bad:
        return bad
    lines = _lines(answer)
    if len(lines) < 2 or lines[1] != "weight,count":
        return "missing distribution"
    dist = {}
    for line in lines[2:]:
        w, c = line.split(",")
        dist[int(w)] = int(c)
    if sum(dist.values()) != 1 << ref.exponent:
        return f"distribution sums to {sum(dist.values())}, |C| = 2^{ref.exponent}"
    if dist.get(0) != 1:
        return f"{dist.get(0, 0)} words of weight 0"
    if ref.exponent <= EXACT_DISTRIBUTION_LIMIT and dist != ref.weight_distribution():
        return "weight distribution differs from the reference"
    nonzero = [w for w in dist if w]
    expected = f"d={min(nonzero)}" if nonzero else "d=undefined (no nonzero codeword)"
    return None if lines[0] == expected else f"{lines[0]!r}, expected {expected!r}"


def check_enum(answer, ref):
    bad = _expect_code(answer, 0)
    if bad:
        return bad
    lines = _lines(answer)
    m = re.fullmatch(r"# distinct=(\d+) stream=(\d+)", lines[-1] if lines else "")
    if not m:
        return "missing summary line"
    words = _words(lines[:-1], ref.ambient.alphas)
    if int(m.group(2)) != len(words):
        return f"stream={m.group(2)} but {len(words)} words printed"
    if not ref.contains(words).all():
        return "printed a word outside the code"
    distinct = len(np.unique(words, axis=0))
    if distinct != 1 << ref.exponent or int(m.group(1)) != distinct:
        return f"{distinct} distinct words (summary {m.group(1)}), |C| = 2^{ref.exponent}"
    return None


def check_dual(answer, ref):
    bad = _expect_code(answer, 0)
    if bad:
        return bad
    lines = _lines(answer)
    if len(lines) < 2 or not lines[0].startswith("dual_count="):
        return "missing dual_count"
    words = _words(lines[2:], ref.ambient.alphas)
    count = int(lines[0].split("=")[1])
    if count != len(words) or len(np.unique(words, axis=0)) != count:
        return f"dual_count={count} but {len(np.unique(words, axis=0))} distinct words"
    if count << ref.exponent != 1 << ref.ambient.exponent:
        return f"|C|*|dual| = 2^{ref.exponent}*{count} != |ambient|"
    if ref.ambient.inner(words, ref.orbit).any():
        return "a dual word is not orthogonal to the code"
    keys = {w.tobytes() for w in words}
    if any(w.tobytes() not in keys for w in ref.ambient.shift(words)):
        return "dual is not closed under the shift"
    return None if lines[1] == "cyclic=true" else f"{lines[1]!r}, expected 'cyclic=true'"


def check_oracle(answer, ref):
    bad = _expect_code(answer, 0)
    if bad:
        return bad
    got = dict(line.split("=") for line in _lines(answer))
    size = 1 << ref.exponent
    if int(got["closure"]) != size:
        return f"closure={got['closure']}, |C| = {size}"
    equal = int(got["enumerated"]) == size
    if got["equal"] != ("true" if equal else "false"):
        return f"equal={got['equal']} with enumerated={got['enumerated']}, |C| = {size}"
    return None


def check_validate(answer, family):
    lines = _lines(answer)
    if family["kind"] == "fail_i":
        bad = _expect_code(answer, 1)
        if bad:
            return bad
        if not any(ln.startswith("condition (i) ") and ": FAIL" in ln for ln in lines):
            return "no failing condition (i) entry"
        return None if lines[-1] == "overall: FAIL" else "overall verdict is not FAIL"
    bad = _expect_code(answer, 0)
    if bad:
        return bad
    if lines[-1] != "overall: PASS":
        return "overall verdict is not PASS"
    doc = family["doc"]
    for line in lines:
        m = re.fullmatch(r"condition \(i\) i=(\d+) j=(\d+): PASS \[.*: ([mh]) = (.*)\]", line)
        if not m:
            continue
        i, j, role, text = int(m.group(1)), int(m.group(2)), m.group(3), m.group(4)
        alpha = doc["alphas"][i - 1]
        w = _poly(text, i)
        if role == "m":
            lhs, rhs = (cyclic_mulmod(w, doc["a"][i - 1][j], alpha, i),
                        cyclic_reduce(doc["a"][i - 1][j - 1], alpha, i))
        else:
            lhs, rhs = cyclic_mulmod(w, doc["a"][i - 1][0], alpha, i), [0] * alpha
        if lhs != rhs:
            return f"witness {role} at i={i} j={j} does not satisfy its equation"
    return None


def check_count(answer, family, ref):
    if family["kind"] == "fail_i":
        bad = _expect_code(answer, 1)
        return bad or (None if _lines(answer)[-1] == "overall: FAIL" else "expected a validation failure")
    bad = _expect_code(answer, 0)
    if bad:
        return bad
    expected = f"t={ref.exponent}, |C|={1 << ref.exponent}"
    line = _lines(answer)[0]
    return None if line == expected else f"{line!r}, expected {expected!r}"


def _rows_span_code(words, ref, what):
    if not ref.contains(words).all():
        return f"a {what} row is outside the code"
    got = ref.span_exponent(words)
    return None if got == ref.exponent else f"{what} rows span 2^{got} words, |C| = 2^{ref.exponent}"


def check_span(answer, ref):
    bad = _expect_code(answer, 0)
    if bad:
        return bad
    lines = _lines(answer)
    rows = [ln.split(": ")[1] for ln in lines[1:]]
    if lines[0] != f"rows={len(rows)}":
        return f"{lines[0]!r} with {len(rows)} rows printed"
    return _rows_span_code(_words(rows, ref.ambient.alphas), ref, "spanning")


def expected_diff_lines(words, reference_text, alphas, path):
    """Diff comments for the reference rows, and the kinds of unmatched produced rows.

    Matching is greedy in reference order against the first unused
    produced row with equal content, as the CLI documents it.
    """
    ref_rows = [tuple(parse_word(ln.strip(), alphas)) for ln in reference_text.splitlines()
                if ln.strip() and not ln.strip().startswith("#")]
    produced = [tuple(int(c) for c in w) for w in words]
    used = [False] * len(produced)
    first_match = {}
    duplicates, unexplained = [], []
    for r, row in enumerate(ref_rows, start=1):
        hit = next((k for k, p in enumerate(produced) if not used[k] and p == row), None)
        if hit is not None:
            used[hit] = True
            first_match.setdefault(row, r)
        elif row in first_match:
            duplicates.append(f"# duplicate reference row {r} (same as row {first_match[row]})")
        else:
            unexplained.append(f"# unexplained reference row {r}")
    kinds = ["row" if any(p) else "zero row" for p, u in zip(produced, used) if not u]
    return [f"# diff against {path}", *duplicates, *unexplained], kinds


def check_matrix(answer, ref, diff_path=None, diff_text=None):
    bad = _expect_code(answer, 0)
    if bad:
        return bad
    lines = _lines(answer)
    rows = [ln for ln in lines if not ln.startswith("#")]
    words = _words(rows, ref.ambient.alphas)
    if diff_path is None:
        return _rows_span_code(words, ref, "matrix")
    if not ref.contains(words).all():
        return "a matrix row is outside the code"
    head, kinds = expected_diff_lines(words, diff_text, ref.ambient.alphas, diff_path)
    comments = [ln for ln in lines if ln.startswith("#")]
    if comments[:len(head)] != head:
        return "diff of reference rows differs from the independent diff"
    produced = comments[len(head):]
    if len(produced) != len(kinds):
        return f"{len(produced)} unmatched produced rows listed, expected {len(kinds)}"
    for line, kind in zip(produced, kinds):
        if not (line.startswith(f"# produced {kind} ") and line.endswith(" absent from reference")):
            return f"{line!r} should name a {kind}"
    return None


def check_member(answer, truth):
    bad = _expect_code(answer, 0)
    if bad:
        return bad
    got = answer["stdout"].strip()
    return None if got == truth else f"verdicts {got}, expected {truth}"
