"""Certified exhaustive search for perfect scalar linear index codes over GF(2).

Candidates are the matrices of length l = mu(problem); their free entries
are driven by a little-endian integer counter (entry (row i, col j) of the
enumerated block is bit i*l + j), so the first witness found is the
canonical smallest.  When the problem structurally contains the full
plain-demand / full-side-information receiver family, the forced block of
any solution is invertible and the search space is quotiented by pinning
that block to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import FieldMatrix, bits_insert, bits_reduce
from .gic import GICProblem, IndexCode, mu
from .matroid import SearchBudgetExceeded

FOUND = "found"
NONE_EXISTS = "none_exists"
BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class SearchConfig:
    normalize_y_block: bool = True
    budget: int = 1 << 22
    report: str = "first"  # first | all | count

    def __post_init__(self):
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.report not in ("first", "all", "count"):
            raise ValueError("report must be first, all or count")


@dataclass(frozen=True)
class SolveOutcome:
    verdict: str
    candidates_tested: int
    witness: IndexCode | None = None
    witnesses: tuple[IndexCode, ...] | None = None
    count: int | None = None

    def to_json_dict(self) -> dict:
        d = {"verdict": self.verdict, "candidates_tested": self.candidates_tested}
        if self.witness is not None:
            d["code"] = self.witness.to_json_dict()
        if self.count is not None:
            d["count"] = self.count
        return d


def _unit_row(col: FieldMatrix) -> int | None:
    """Row index if the column is a unit vector, else None."""
    rows = [i for i in range(col.rows) if col.entry(i, 0)]
    return rows[0] if len(rows) == 1 and col.entry(rows[0], 0) == 1 else None


def detect_normalization(problem: GICProblem, length: int):
    """Rows whose block is forced invertible, or None.

    Conservative structural scan: look for a set W of plainly-known
    messages such that every message outside W is demanded plainly by some
    receiver knowing exactly W, and the outside count equals the code
    length.  Any solution then has an invertible block on the outside
    rows (the R3-style argument), licensing the identity pin.
    """
    if problem.n != 1:
        return None
    t = problem.m
    demanded: dict[frozenset, set] = {}
    for r in problem.receivers:
        if r.demand.cols != 1:
            continue
        z = _unit_row(r.demand)
        if z is None:
            continue
        supports = [_unit_row(r.knowledge.column(c)) for c in range(r.knowledge.cols)]
        if any(s is None for s in supports):
            continue
        w = frozenset(supports)
        if z in w:
            continue
        demanded.setdefault(w, set()).add(z)
    for w in sorted(demanded, key=lambda s: (len(s), sorted(s))):
        outside = set(range(t)) - w
        if len(outside) == length and demanded[w] >= outside:
            return sorted(outside), sorted(w)
    return None


class _Search:
    """Candidate codes whose first len(y_rows) columns are pinned, as packed bitsets.

    A pinned column is (free x-part, unit y-part), an unpinned one its free
    x-part alone.  Pinning every column quotients the space by the identity
    block; pinning none (x_rows = every message) is the full search.  A
    receiver decodes iff (d_x - F d_y) lies in the span of the columns
    (K_x - F K_y) and of the unpinned code columns, F being the free block.
    """

    def __init__(self, problem: GICProblem, length: int, y_rows, x_rows):
        self.t = problem.m
        self.length = length
        self.y_rows = list(y_rows)
        self.x_rows = list(x_rows)
        self.bits = len(x_rows) * length
        y_pos = {row: j for j, row in enumerate(self.y_rows)}
        x_pos = {row: i for i, row in enumerate(self.x_rows)}

        def split(col: FieldMatrix):
            xv = 0
            yv: list[int] = []
            for i in range(col.rows):
                if col.entry(i, 0):
                    if i in x_pos:
                        xv |= 1 << x_pos[i]
                    else:
                        yv.append(y_pos[i])
            return xv, tuple(yv)

        # An unpinned code column j is the free column f[j] alone, so it
        # joins every receiver's knowledge as the pair (0, (j,)).
        unpinned = [(0, (j,)) for j in range(len(self.y_rows), length)]
        data = []
        for r in problem.receivers:
            kcols = [split(r.knowledge.column(c)) for c in range(r.knowledge.cols)] + unpinned
            dcols = [split(r.demand.column(c)) for c in range(r.demand.cols)]
            data.append((r.knowledge.cols, kcols, dcols))
        data.sort(key=lambda item: item[0])  # cheap failures prune first
        self.receivers = [(kcols, dcols) for _, kcols, dcols in data]

    def free_columns(self, counter: int) -> list[int]:
        nx, l = len(self.x_rows), self.length
        return [
            sum(((counter >> (i * l + j)) & 1) << i for i in range(nx))
            for j in range(l)
        ]

    def passes(self, counter: int) -> bool:
        f = self.free_columns(counter)
        for kcols, dcols in self.receivers:
            pivots: dict[int, int] = {}
            for kx, ky in kcols:
                v = kx
                for j in ky:
                    v ^= f[j]
                bits_insert(v, pivots)
            for dx, dy in dcols:
                v = dx
                for j in dy:
                    v ^= f[j]
                if bits_reduce(v, pivots):
                    return False
        return True

    def build(self, counter: int) -> IndexCode:
        f = self.free_columns(counter)
        a = np.zeros((self.t, self.length), dtype=np.int64)
        for j, row in enumerate(self.y_rows):
            a[row, j] = 1
        for j in range(self.length):
            for i, row in enumerate(self.x_rows):
                a[row, j] = f[j] >> i & 1
        return IndexCode(FieldMatrix(2, a))


def _prepare(problem: GICProblem, config: SearchConfig) -> _Search:
    if problem.q != 2 or problem.n != 1:
        raise ValueError("the exhaustive solver handles q = 2, n = 1 only")
    length = problem.n * mu(problem)
    found = detect_normalization(problem, length) if config.normalize_y_block else None
    y_rows, x_rows = found or ([], range(problem.mn))
    return _Search(problem, length, y_rows, x_rows)


def solve_perfect_scalar_binary(problem: GICProblem, config: SearchConfig | None = None) -> SolveOutcome:
    """Exhaust candidates of the perfect length l = mu(problem).

    Returns the canonical first witness, a certified NONE_EXISTS after the
    whole (possibly normalized) space is exhausted, or BUDGET_EXCEEDED.
    """
    config = config or SearchConfig()
    search = _prepare(problem, config)
    space = 1 << search.bits
    limit = min(space, config.budget)

    if config.report in ("count", "all"):
        if space > config.budget:
            raise SearchBudgetExceeded(f"space of {space} candidates exceeds budget")
        hits = [c for c in range(space) if search.passes(c)]
        verdict = FOUND if hits else NONE_EXISTS
        witness = search.build(hits[0]) if hits else None
        if config.report == "count":
            return SolveOutcome(verdict, space, witness, count=len(hits))
        return SolveOutcome(verdict, space, witness, witnesses=tuple(search.build(c) for c in hits))

    best = next((c for c in range(limit) if search.passes(c)), None)
    if best is not None:
        return SolveOutcome(FOUND, candidates_tested=best + 1, witness=search.build(best))
    if limit == space:
        return SolveOutcome(NONE_EXISTS, candidates_tested=space)
    return SolveOutcome(BUDGET_EXCEEDED, candidates_tested=limit)


def count_solutions(problem: GICProblem, config: SearchConfig | None = None) -> int:
    """Number of passing matrices in the (normalized) candidate space."""
    config = config or SearchConfig()
    base = SearchConfig(config.normalize_y_block, config.budget, "count")
    outcome = solve_perfect_scalar_binary(problem, base)
    return outcome.count or 0
