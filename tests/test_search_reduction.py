"""The reduced representability search against the unreduced one.

`_unreduced_search` is the search loop as it was before the reductions: it
places every one of the q^rows columns at every free slot and checks each
subset's rank from scratch.  The reduced search must return the same
witness or None, or raise the same exception text, at every budget,
because it charges each skipped multiple c·v what v's subtree spent, and
each column off its slot's fixed support the one assignment it spent.
"""

import itertools

import numpy as np
import pytest

from gicode.gf import FieldMatrix, packed_rank
from gicode import matroid as matroid_module
from gicode.matroid import (
    Matroid,
    SearchBudgetExceeded,
    _search_representation,
    find_representation,
    subset_ranks,
)
from gicode.polymatroid import DiscretePolymatroid, SubspaceRepresentation

BUDGETS = (1 << 22, 1, 2, 5, 17, 64)


def _unreduced_search(table, widths, pinned, q, rows, budget):
    """Reference: every column number 0 .. q^rows - 1 at every free slot, depth first.

    Returns the search's result and the number of assignments it spent.
    """
    n = len(widths)
    table = list(table)
    vectors = [0]
    for unit in FieldMatrix.identity(q, rows).packed:
        vectors = [v + d * unit for d in range(q) for v in vectors]
    starts = list(itertools.accumulate(widths, initial=0))
    flat = [0] * starts[-1]
    for pos, slot in enumerate(starts[i] + s for i in range(n) for s in range(pinned[i])):
        flat[slot] = vectors[q**pos]

    def rank(slots) -> int:
        return packed_rank([flat[s] for s in slots], q)

    def slots_of(elems, counts) -> list[int]:
        return [starts[i] + s for i in elems for s in range(counts[i])]

    counts = list(pinned)
    free, checks = [], []
    for e in range(n):
        for _ in range(pinned[e], widths[e]):
            free.append(starts[e] + counts[e])
            counts[e] += 1
            others = [i for i in range(n) if counts[i] and i != e]
            checks.append([])
            for size in range(len(others) + 1):
                for sub in itertools.combinations(others, size):
                    elems = (e, *sub)
                    target = table[sum(1 << i for i in elems)]
                    low = target if all(counts[i] == widths[i] for i in elems) else 0
                    checks[-1].append((slots_of(elems, counts), low, target))

    def leaf_ok() -> bool:
        return subset_ranks([flat[starts[i] : starts[i + 1]] for i in range(n)], q) == table

    spent = 0

    def search(idx: int) -> bool:
        nonlocal spent
        if idx == len(free):
            return leaf_ok()
        slot = free[idx]
        for value in vectors:
            spent += 1
            if spent > budget:
                raise SearchBudgetExceeded(f"budget of {budget} column assignments exhausted")
            flat[slot] = value
            if all(low <= rank(slots) <= high for slots, low, high in checks[idx]) and search(idx + 1):
                return True
        return False

    if not search(0):
        return None, spent
    return [flat[starts[i] : starts[i + 1]] for i in range(n)], spent


def _outcome(thunk):
    try:
        return thunk()
    except SearchBudgetExceeded as exc:
        return f"SearchBudgetExceeded: {exc}"


def _matroid_args(matroid, q):
    """The arguments matroid.find_representation hands to the search, recorded from
    a call: (table, widths, pinned, q, rows) and the fixed supports of the free slots."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matroid_module, "_search_representation", lambda *args: calls.append(args))
        find_representation(matroid, q)
    ((*args, _budget, supports),) = calls
    return tuple(args), supports


def _polymatroid_args(dpm, q):
    """The arguments polymatroid.find_representation hands to the search."""
    return dpm._table, dpm.caps(), dpm.basis_vectors()[0], q, dpm.rank


def _seeded_matroids(seed, count):
    """Vector matroids of random matrices over GF(2), GF(3) and GF(5), rank 1 to 3."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        source = int(rng.choice([2, 3, 5]))
        rows, cols = int(rng.integers(1, 4)), int(rng.integers(2, 7))
        matroid = Matroid.from_matrix(FieldMatrix(source, rng.integers(0, source, size=(rows, cols))))
        if matroid.rank:
            out.append(matroid)
    return out


def _seeded_arrangements(seed, count, q):
    """Rank tables of random subspace arrangements over GF(q), blocks up to 2 wide."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        r, rows = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        blocks = [FieldMatrix(q, rng.integers(0, q, size=(rows, int(rng.integers(1, 3))))) for _ in range(r)]
        dpm = DiscretePolymatroid.from_subspaces(SubspaceRepresentation(q, blocks))
        if dpm.rank:
            out.append(dpm)
    return out


def _compare_at_every_budget(args, supports=None) -> set[str]:
    """Assert equal outcomes at every budget; return the kinds of outcome seen.

    Besides BUDGETS, the unreduced search's own spend and one less are
    tried, so a skipped multiple or an off-support column charged too
    little or too much shows.  Only the reduced search gets `supports`.
    """
    kinds = set()
    total = _unreduced_search(*args, 1 << 22)[1]
    for budget in (*BUDGETS, total - 1, total):
        expected = _outcome(lambda: _unreduced_search(*args, budget)[0])
        assert _outcome(lambda: _search_representation(*args, budget, supports)) == expected, (args, budget)
        kinds.add("none" if expected is None else "budget" if isinstance(expected, str) else "witness")
    return kinds


@pytest.mark.parametrize("q", [2, 3, 5])
def test_matroid_search_matches_unreduced(q):
    kinds = set()
    for matroid in _seeded_matroids(600 + q, 25):
        kinds |= _compare_at_every_budget(*_matroid_args(matroid, q))
    # A certified None over GF(5) costs the unreduced loop seconds (U(2,7): 11 s),
    # so the q = 5 negatives are pinned by their exact spend in test_matroid.py.
    assert kinds == ({"witness", "budget"} if q == 5 else {"witness", "budget", "none"})


@pytest.mark.parametrize("q", [3, 5])
def test_polymatroid_search_matches_unreduced(q):
    kinds, widths = set(), set()
    for dpm in _seeded_arrangements(700 + q, 20, q):
        kinds |= _compare_at_every_budget(_polymatroid_args(dpm, q))
        widths.update(dpm.caps())
    assert kinds == {"witness", "budget"} and 2 in widths
