"""Problem JSON: the column-memoized parser and renderer against the plain ones."""

import io
import json
import random
import sys

import pytest

from gicode import cli, gic
from gicode.construct import gic_from_matroid
from gicode.gf import FieldMatrix
from gicode.gic import GICProblem, Receiver
from gicode.instances import BUNDLED, load
from gicode.matroid import Matroid


def reference_parse(d):
    """The parser before columns were memoized: one `from_columns` per matrix."""
    q, m, n = d["q"], d["m"], d["n"]
    receivers = (
        Receiver(FieldMatrix.from_columns(q, r["K"], rows=m * n), FieldMatrix.from_columns(q, r["D"], rows=m * n))
        for r in d["receivers"]
    )
    return GICProblem(q, m, n, receivers)


def canonical(problem):
    """The renderer before columns were memoized: json.dumps of the plain problem object."""
    d = {
        "q": problem.q,
        "m": problem.m,
        "n": problem.n,
        "receivers": [{"K": r.knowledge.to_columns(), "D": r.demand.to_columns()} for r in problem.receivers],
    }
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


def random_problem(rng, q, n):
    """A few receivers over GF(q), with knowledge matrices drawn from a small pool so that some repeat."""
    m = rng.randint(1, 3)
    mn = m * n

    def matrix(cols):
        return FieldMatrix.from_columns(q, [[rng.randrange(q) for _ in range(mn)] for _ in range(cols)], rows=mn)

    pool = [matrix(rng.randint(0, 2)) for _ in range(3)]
    return GICProblem(q, m, n, [Receiver(rng.choice(pool), matrix(rng.randint(1, 2))) for _ in range(6)])


def problems():
    out = [load(name)["problem"] for name in sorted(BUNDLED)]
    pg32 = FieldMatrix(2, [[v >> i & 1 for v in range(1, 16)] for i in range(4)])
    out.append(gic_from_matroid(Matroid.from_matrix(pg32))[0])
    rng = random.Random(22)
    out += [random_problem(rng, q, n) for q in (3, 5) for n in (1, 2, 3) for _ in range(3)]
    e1 = FieldMatrix.identity(3, 2).take_columns([0])
    out.append(GICProblem(3, 2, 1, [Receiver(FieldMatrix.zeros(3, 2, 0), e1)]))  # "K": []
    return out


PROBLEMS = problems()


def test_parser_matches_the_reference_on_every_problem():
    assert any(r.knowledge.cols == 0 for p in PROBLEMS for r in p.receivers)
    for problem in PROBLEMS:
        d = problem.to_json_dict()
        parsed = GICProblem.from_json_dict(d)
        assert parsed == reference_parse(d) == problem
        matrices = [mat for r in parsed.receivers for mat in (r.knowledge, r.demand)]
        assert len({id(mat) for mat in matrices}) == len(set(matrices))


def test_entries_outside_0_to_q_are_reduced_as_before():
    for q, shift in ((3, 3), (3, 252), (5, 250), (3, -3), (5, -5), (3, 300), (5, 1000)):
        problem = random_problem(random.Random(q * shift), q, 2)
        d = problem.to_json_dict()
        for r in d["receivers"]:
            r["D"] = [[x + shift for x in col] for col in r["D"]]
        assert GICProblem.from_json_dict(d) == reference_parse(d) == problem, (q, shift)


BASE = {"q": 3, "m": 2, "n": 1, "receivers": [{"K": [[1, 2]], "D": [[0, 1]]}]}

MALFORMED = {
    "K is an int": ("K", 5),
    "K holds an int": ("K", [5]),
    "K holds the int m·n": ("K", [2]),  # bytes(2) is a column of two zeros
    "float entry, short column": ("K", [[1.0]]),
    "float entry": ("K", [[1.0, 0]]),
    "string column, short": ("K", ["1"]),
    "string column": ("K", ["12"]),
    "object column": ("K", [{"1": 0}]),
    "null entry": ("D", [[1, None]]),
    "no demand": ("D", []),
    "short column": ("D", [[1]]),
    "column over 255 entries": ("D", [[1] * 256]),
}


def _malformed(key, value):
    d = json.loads(json.dumps(BASE))
    d["receivers"][0][key] = value
    return d


def _error(parse, d):
    with pytest.raises(Exception) as info:
        parse(d)
    return info.type, str(info.value)


@pytest.mark.parametrize("key, value", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_matrices_are_refused_as_before(monkeypatch, capsys, key, value):
    # Same refusal as the reference, prefixed with the receiver and key at fault.
    d = _malformed(key, value)
    error = _error(GICProblem.from_json_dict, d)
    kind, message = _error(reference_parse, d)
    assert error == (kind, f"receiver 0 {key!r}: {message}")
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"problem": d})))
    assert cli.main(["mu"]) == 2
    assert capsys.readouterr() == ("", f"gicode: {error[1]}\n")


def test_booleans_are_read_as_before():
    # Refusing them would need a scan of every entry.
    d = _malformed("K", [[True, False]])
    assert GICProblem.from_json_dict(d) == reference_parse(d)


def test_renderer_matches_json_dumps():
    for problem in PROBLEMS:
        assert problem.to_json_text() == canonical(problem)


def test_renderer_unpacks_each_distinct_column_once(monkeypatch):
    # canonical unpacks through gf's own _unpack, so only the renderer is counted.
    calls = []
    unpack = gic._unpack
    monkeypatch.setattr(gic, "_unpack", lambda v, q, n: calls.append(v) or unpack(v, q, n))
    for problem in PROBLEMS:
        calls.clear()
        assert problem.to_json_text() == canonical(problem)
        distinct = {v for r in problem.receivers for mat in (r.knowledge, r.demand) for v in mat.packed}
        assert sorted(calls) == sorted(distinct)
