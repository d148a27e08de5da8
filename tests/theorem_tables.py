"""The paper's matroid theorem, checked on every labelled matroid of one size.

I_M, the problem built from a matroid M, has a perfect scalar binary code
iff M is binary-representable.  For each labelled matroid of rank 1-5 on
m elements this script asks both routes: the exhaustive solver on I_M
(budget 2^80, so it always decides) and `find_representation(M, 2)`.  They
agree when the solver finds a code exactly when the search finds a
representation, and the solver's witness extracts through
`matroid_rep_from_code` to M's rank table.  pytest does not collect this
file; `tests/test_solver.py` runs the same check on every m <= 5.

    PYTHONPATH=src python tests/theorem_tables.py [m]    # m = 6 by default

It prints the number of tables, how many have a perfect code, how many have
none, how many disagree, and the time taken, and exits 1 when any disagree.
"""

import sys
from time import perf_counter

from small_structures import rank_tables

from gicode.construct import gic_from_matroid, matroid_rep_from_code
from gicode.matroid import Matroid, find_representation
from gicode.solver import FOUND, SearchConfig, solve_perfect_scalar_binary


def matroids(m: int):
    """Every labelled matroid of rank 1-5 on m elements, the search's range."""
    return [Matroid(m, table) for table in rank_tables(m, 1) if 1 <= table[-1] <= 5]


def routes(matroid: Matroid) -> tuple[bool, bool]:
    """(the solver found a perfect code for I_M, both routes agree on it)."""
    problem, _ = gic_from_matroid(matroid)
    out = solve_perfect_scalar_binary(problem, SearchConfig(budget=1 << 80))
    found = out.verdict == FOUND
    agree = found == (find_representation(matroid, 2) is not None)
    if found:
        agree = agree and Matroid.from_matrix(matroid_rep_from_code(problem, out.witness)) == matroid
    return found, agree


def main(argv) -> int:
    m = int(argv[1]) if len(argv) > 1 else 6
    start = perf_counter()
    tables = matroids(m)
    outcomes = [routes(matroid) for matroid in tables]
    found = sum(f for f, _ in outcomes)
    disagree = sum(not agree for _, agree in outcomes)
    print(
        f"m = {m}: {len(tables)} tables, {found} found, {len(tables) - found} none, "
        f"{disagree} disagree, {perf_counter() - start:.1f} s"
    )
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
