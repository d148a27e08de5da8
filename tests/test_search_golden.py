"""Golden digests of the representability searches and the solver.

Each case's canonical output is the sorted, compact JSON of the witness
(``null`` for a certified negative) or the type and text of the exception
raised.  Only its sha256 is stored, in ``data/search_golden.json``, so any
change to a witness, a verdict, a count, ``candidates_tested`` or the point
where a budget runs out shows up as a mismatch.  The digests pin the
canonical search order; regenerate them only for an intended change of that
order:

    PYTHONPATH=src python tests/test_search_golden.py
"""

import hashlib
import itertools
import json
import pathlib

import numpy as np

from gicode import matroid as matroid_mod
from gicode import polymatroid as polymatroid_mod
from gicode.construct import gic_from_matroid
from gicode.gf import FieldMatrix
from gicode.instances import EG3_RANK, EG4_RANK, load
from gicode.matroid import Matroid
from gicode.polymatroid import DiscretePolymatroid, SubspaceRepresentation
from gicode.solver import SearchConfig, solve_perfect_scalar_binary
from small_structures import rank_tables

GOLDEN = pathlib.Path(__file__).with_name("data") / "search_golden.json"

BUDGETS = (None, 1, 2, 3, 5, 8, 13, 21, 34, 55)
SOLVE_BUDGETS = (None, 1, 3, 10)

FANO_ROWS = [[v >> i & 1 for v in range(1, 8)] for i in range(3)]  # PG(2, 2) over GF(2)
NON_FANO_ROWS = [[1, 0, 0, 1, 1, 0, 1], [0, 1, 0, 1, 0, 1, 1], [0, 0, 1, 0, 1, 1, 1]]  # over GF(3)


def _canonical(thunk) -> str:
    try:
        out = thunk()
    except Exception as exc:  # the failure text is part of the contract
        return f"{type(exc).__name__}: {exc}"
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


def _rep_json(rep):
    return None if rep is None else rep.to_json_dict()


def _small_matroids():
    for m in range(4):
        bounds = [bin(mask).count("1") + 1 for mask in range(1, 1 << m)]
        for values in itertools.product(*(range(b) for b in bounds)):
            try:
                yield f"m{m}:{''.join(map(str, values))}", Matroid(m, (0,) + values)
            except ValueError:
                continue


def _seeded_matroids():
    rng = np.random.default_rng(2024)
    for i in range(60):
        q = (2, 3, 5)[i % 3]
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 8))
        mat = FieldMatrix(q, rng.integers(0, q, size=(rows, cols)))
        yield f"seeded{i}", Matroid.from_matrix(mat)


def _small_polymatroids():
    for values in itertools.product(range(3), range(3), range(5)):
        try:
            yield f"r2:{''.join(map(str, values))}", DiscretePolymatroid(2, (0,) + values)
        except ValueError:
            continue
    bounds = [2, 2, 3, 2, 3, 3, 4]
    for values in itertools.product(*(range(b) for b in bounds)):
        try:
            yield f"r3:{''.join(map(str, values))}", DiscretePolymatroid(3, (0,) + values)
        except ValueError:
            continue


def _named_polymatroids():
    yield "eg3", DiscretePolymatroid(3, EG3_RANK)
    yield "eg4", DiscretePolymatroid(3, EG4_RANK)
    yield "u24", DiscretePolymatroid.from_matroid(Matroid.uniform(2, 4))
    rng = np.random.default_rng(2025)
    for i in range(30):
        q = (2, 3)[i % 2]
        r = int(rng.integers(1, 5))
        rows = int(rng.integers(1, 4))
        blocks = [
            FieldMatrix(q, rng.integers(0, q, size=(rows, int(rng.integers(0, 3)))))
            for _ in range(r)
        ]
        yield f"arrangement{i}", DiscretePolymatroid.from_subspaces(SubspaceRepresentation(q, blocks))


def _solve_problems():
    for k, m in ((1, 1), (1, 2), (2, 2)):
        yield f"U{k}{m}", gic_from_matroid(Matroid.uniform(k, m))[0]


def _named_solve_cases():
    """(problem name, problem, report, budgets) for the bundled instances and Fano/non-Fano.

    Fano's first witness is counter 497 355, so budgets 497 355 and 497 356
    are the last that misses it and the first that finds it.
    """
    problems = {name: load(name)["problem"] for name in ("u23", "u24", "eg4")}
    problems["fano"] = gic_from_matroid(Matroid.from_matrix(FieldMatrix(2, FANO_ROWS)))[0]
    problems["non-fano"] = gic_from_matroid(Matroid.from_matrix(FieldMatrix(3, NON_FANO_ROWS)))[0]
    for name, problem in problems.items():
        yield name, problem, "first", (None, 1000)
    yield "fano", problems["fano"], "first", (497355, 497356)
    for name in ("u23", "u24", "eg4"):
        yield name, problems[name], "count", (None, 1000)
    yield "fano", problems["fano"], "count", (None,)


def cases():
    """(case id, thunk returning a JSON-able output) for every golden case."""

    def rep_case(find, obj, q, budget):
        kwargs = {} if budget is None else {"budget": budget}
        return lambda: _rep_json(find(obj, q, **kwargs))

    groups = [
        ("matroid", matroid_mod.find_representation, _small_matroids(), (2, 3, 5), BUDGETS),
        ("matroid", matroid_mod.find_representation, _seeded_matroids(), (2, 3, 5), BUDGETS),
        ("polymatroid", polymatroid_mod.find_representation, _small_polymatroids(), (2, 3), BUDGETS),
        ("polymatroid", polymatroid_mod.find_representation, _named_polymatroids(), (2, 3), BUDGETS),
    ]
    for kind, find, objects, fields, budgets in groups:
        for name, obj in objects:
            for q in fields:
                for budget in budgets:
                    case = f"{kind}|{name}|q{q}|budget={budget}"
                    yield case, rep_case(find, obj, q, budget)

    def solve_case(problem, normalize, report, budget):
        config = SearchConfig(normalize, **({} if budget is None else {"budget": budget}), report=report)

        def run():
            out = solve_perfect_scalar_binary(problem, config)
            doc = out.to_json_dict()
            if out.witnesses is not None:
                doc["witnesses"] = [w.to_json_dict() for w in out.witnesses]
            return doc

        return run

    for name, problem in _solve_problems():
        for normalize in (True, False):
            for report in ("first", "count", "all"):
                for budget in SOLVE_BUDGETS:
                    case = f"solve|{name}|normalize={normalize}|{report}|budget={budget}"
                    yield case, solve_case(problem, normalize, report, budget)
    for name, problem, report, budgets in _named_solve_cases():
        for budget in budgets:
            yield f"solve|{name}|{report}|budget={budget}", solve_case(problem, True, report, budget)


# One digest over every labelled matroid of positive rank on at most 4
# elements and every polymatroid of positive rank from rank_tables(r <= 3, 2),
# each searched at q = 2, 3 and 5 and at each of TABLE_BUDGETS: 6 480 outcomes.
# Like the golden file it pins the canonical search order; regenerate it
# (print small_tables_digest()) only for an intended change of that order.
TABLE_BUDGETS = (1, 2, 3, 5, 8, 13, 40, 150, 1000, 1 << 22)
SMALL_TABLES_DIGEST = "99d3ea582248cb9f52d40abbac07264f434fabce1d930728b1eda18a98c0adca"


def small_tables_digest() -> str:
    kinds = [
        (matroid_mod.find_representation, Matroid, range(1, 5), 1),
        (polymatroid_mod.find_representation, DiscretePolymatroid, range(1, 4), 2),
    ]
    h = hashlib.sha256()
    for find, cls, sizes, step in kinds:
        for size in sizes:
            for table in rank_tables(size, step):
                if not table[-1]:
                    continue
                obj = cls(size, table)
                for q in (2, 3, 5):
                    for budget in TABLE_BUDGETS:
                        out = _canonical(lambda: _rep_json(find(obj, q, budget)))
                        h.update(f"{obj!r}|{table}|q{q}|budget={budget}|{out}\n".encode())
    return h.hexdigest()


def test_every_small_table_keeps_its_search_outcomes():
    assert small_tables_digest() == SMALL_TABLES_DIGEST


def digest(thunk) -> str:
    return hashlib.sha256(_canonical(thunk).encode()).hexdigest()


def test_every_search_output_matches_its_golden_digest():
    golden = json.loads(GOLDEN.read_text())
    got = {case: digest(thunk) for case, thunk in cases()}
    assert set(got) == set(golden)
    wrong = sorted(case for case in got if got[case] != golden[case])
    assert not wrong, f"{len(wrong)} digests differ, first: {wrong[:5]}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({case: digest(t) for case, t in cases()}, indent=1, sort_keys=True) + "\n")
