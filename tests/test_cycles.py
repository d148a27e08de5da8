"""No entry point leaves cyclic garbage.

A call whose objects form no reference cycle is freed by reference counting
as soon as its result is dropped; a cycle keeps what it reaches, such as a
2^m-entry rank table or a q^rows column list, alive until the cyclic
collector runs.  With the collector off, each call below must leave
`gc.collect()` nothing to free.
"""

import gc

from gicode.construct import code_from_matroid_rep, gic_from_matroid, gic_from_polymatroid
from gicode.gf import FieldMatrix
from gicode.gic import canonical_representation, check_c1_c2, mu, verify_code
from gicode.instances import EG3_RANK
from gicode.matroid import Matroid, SearchBudgetExceeded, find_representation
from gicode.polymatroid import DiscretePolymatroid, SubspaceRepresentation
from gicode.polymatroid import find_representation as find_dpm_representation
from gicode.solver import FOUND, NONE_EXISTS, solve_perfect_scalar_binary

PG32_ROWS = [[v >> i & 1 for v in range(1, 16)] for i in range(4)]
FANO_ROWS = [[v >> i & 1 for v in range(1, 8)] for i in range(3)]


def _exceeds_budget(search, *args) -> bool:
    try:
        search(*args, budget=1)
    except SearchBudgetExceeded:  # not bound to a name: a bound exception would hold its frame
        return True
    return False


def test_no_entry_point_leaves_cyclic_garbage():
    rep = FieldMatrix(2, PG32_ROWS)
    pg32 = Matroid.from_matrix(rep)
    problem = gic_from_matroid(pg32)[0]
    code = code_from_matroid_rep(rep, problem)
    fano = Matroid.from_matrix(FieldMatrix(2, FANO_ROWS))
    u23, u24 = Matroid.uniform(2, 3), Matroid.uniform(2, 4)
    eg3 = DiscretePolymatroid(3, EG3_RANK)
    d24 = DiscretePolymatroid.from_matroid(u24)
    blocks = SubspaceRepresentation(2, [rep.take_columns([0, 1]), rep.take_columns([2]), rep.take_columns([3, 4])])
    calls = {
        "Matroid.from_matrix": lambda: Matroid.from_matrix(rep) == pg32,
        "bases": lambda: len(pg32.bases()) == 840,
        "circuits": lambda: bool(pg32.circuits()),
        "from_subspaces": lambda: DiscretePolymatroid.from_subspaces(blocks).rank == 3,
        "matroid.find_representation found": lambda: find_representation(fano, 2) is not None,
        "matroid.find_representation none": lambda: find_representation(u24, 2) is None,
        "matroid.find_representation budget": lambda: _exceeds_budget(find_representation, u24, 3),
        "polymatroid.find_representation found": lambda: find_dpm_representation(eg3, 2) is not None,
        "polymatroid.find_representation none": lambda: find_dpm_representation(d24, 2) is None,
        "polymatroid.find_representation budget": lambda: _exceeds_budget(find_dpm_representation, d24, 3),
        "gic_from_matroid": lambda: len(gic_from_matroid(pg32)[0].receivers) == 4740,
        "gic_from_polymatroid": lambda: bool(gic_from_polymatroid(eg3, 2)[0].receivers),
        "verify_code": lambda: verify_code(problem, code).all_ok,
        "mu": lambda: mu(problem) == code.length,
        "check_c1_c2": lambda: check_c1_c2(canonical_representation(problem, code), problem).all_ok,
        "solve found": lambda: solve_perfect_scalar_binary(gic_from_matroid(u23)[0]).verdict == FOUND,
        "solve none": lambda: solve_perfect_scalar_binary(gic_from_matroid(u24)[0]).verdict == NONE_EXISTS,
    }
    gc.collect()
    gc.disable()
    try:
        results, left = {}, {}
        for name, call in calls.items():
            results[name] = call()
            left[name] = gc.collect()
    finally:
        gc.enable()
    assert all(results.values()), results
    assert left == dict.fromkeys(calls, 0)
