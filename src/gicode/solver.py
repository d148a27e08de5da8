"""Certified exhaustive search for perfect scalar linear index codes over GF(2).

Candidates are the matrices of length l = mu(problem), searched as their
free block.  The block's entries are ordered by a little-endian integer
counter (entry (row i, col j) is bit i*l + j), so row i of the block is the
l-bit digit i of the counter; the counter serves only the budget and
`candidates_tested`.  When the problem structurally contains the full
plain-demand / full-side-information receiver family, the forced block of
any solution is invertible and the search space is quotiented by pinning
that block to the identity.

The search assigns the block's rows depth first, from the last row to the
first, each row's value in ascending order, which visits counters in
increasing order: the first witness found is the canonical smallest.  Once
rows k.. are set, every receiver's decoding condition projected onto those
rows must already hold (the projection of a span is the span of the
projections), so a failing prefix is cut with all its completions; at
k = 0 the condition is the full one.  The conditions are not checked node
by node: one elimination per expanded node gives its sibling mask, the
verdicts of all 2^l children at once (of 2^WINDOW_BITS consecutive ones
when l is larger), and the search visits only the children whose bit is
set.  Receivers that share a knowledge matrix are
checked against one span.  `candidates_tested` still counts counters, not
search nodes: the first witness's counter + 1, the space size, or the
budget, which in first mode caps the counter index.
"""

from __future__ import annotations

from bisect import bisect_left

from .gf import _LANE, FieldMatrix
from .gic import GICProblem, IndexCode, mu
from .matroid import SearchBudgetExceeded, _check_budget

FOUND = "found"
NONE_EXISTS = "none_exists"
BUDGET_EXCEEDED = "budget_exceeded"
# A sibling mask covers at most 2^WINDOW_BITS children, so its tables stay
# small however long the code is.
WINDOW_BITS = 12


class SearchConfig:
    __slots__ = ("normalize_y_block", "budget", "report")

    def __init__(self, normalize_y_block: bool = True, budget: int = 1 << 22, report: str = "first"):
        _check_budget(budget)
        if report not in ("first", "all", "count"):
            raise ValueError("report must be first, all or count")
        self.normalize_y_block = normalize_y_block
        self.budget = budget
        self.report = report


class SolveOutcome:
    __slots__ = ("verdict", "candidates_tested", "witness", "witnesses", "count")

    def __init__(
        self,
        verdict: str,
        candidates_tested: int,
        witness: IndexCode | None = None,
        witnesses: tuple[IndexCode, ...] | None = None,
        count: int | None = None,
    ):
        self.verdict = verdict
        self.candidates_tested = candidates_tested
        self.witness = witness
        self.witnesses = witnesses
        self.count = count

    def to_json_dict(self) -> dict:
        d = {"verdict": self.verdict, "candidates_tested": self.candidates_tested}
        if self.witness is not None:
            d["code"] = self.witness.to_json_dict()
        if self.count is not None:
            d["count"] = self.count
        return d


def detect_normalization(problem: GICProblem, length: int):
    """Rows whose block is forced invertible, or None.

    Conservative structural scan: look for a set W of plainly-known
    messages such that every message outside W is demanded plainly by some
    receiver knowing exactly W, and the outside count equals the code
    length.  Any solution then has an invertible block on the outside
    rows (the R3-style argument), licensing the identity pin.  It reads
    the problem's grouping by knowledge matrix, so each knowledge matrix's
    unit supports are found once for all the receivers that share it, and
    only for a matrix with at least t - length columns, the size of W.
    A unit column's row is read from the position of its one set bit, and
    the rows demanded with a W lie outside it, so they are all t - |W| =
    `length` outside rows once there are that many: the scan keeps no table
    over the t messages.  It returns (the outside rows, W), each ascending,
    which together partition the rows.
    """
    if problem.n != 1:
        return None
    t, lane = problem.m, _LANE[problem.q]

    def unit_row(v: int):
        """The row of a unit column, whose one set bit is at the bottom of that row's lane, else None."""
        row, offset = divmod(v.bit_length() - 1, lane)
        return row if v and not v & v - 1 and not offset else None

    demanded: dict[frozenset, set] = {}
    for knowledge, members in problem._groups.items():
        if len(knowledge) < t - length:  # too few columns to name a W of size t - length
            continue
        w = frozenset(map(unit_row, knowledge))
        if None in w or len(w) != t - length:
            continue
        for _, demand in members:
            z = unit_row(demand[0]) if len(demand) == 1 else None
            if z is not None and z not in w:
                demanded.setdefault(w, set()).add(z)
    for w in sorted(demanded, key=sorted):
        if len(demanded[w]) == length:
            return sorted(demanded[w]), sorted(w)
    return None


class _Search:
    """Candidate codes whose first len(y_rows) columns are pinned, as packed bitsets.

    A candidate is its free block F, one packed column f[j] per code
    column with bit i set for row x_rows[i].  A pinned column is (free
    x-part, unit y-part), an unpinned one its free x-part alone.  Pinning
    every column quotients the space by the identity block; pinning none
    (x_rows = every message) is the full search.  A receiver decodes iff
    (d_x - F d_y) lies in the span of the columns (K_x - F K_y) and of the
    unpinned code columns, so receivers that share a knowledge matrix share
    that span and are checked as one group.

    x_rows and y_rows must be ascending and partition the rows.  Then a
    row's x index is the row minus the pinned rows below it, and a pinned
    row's y index is their count, both found by bisecting y_rows: the set-up
    holds nothing per message, and x_rows is kept as it is passed (the full
    search's `range` stays a range).
    """

    def __init__(self, problem: GICProblem, length: int, y_rows, x_rows):
        self.t = problem.m
        self.length = length
        self.y_rows = y_rows = list(y_rows)
        self.x_rows = x_rows
        self.bits = (self.t - len(y_rows)) * length  # len() of a range past 2^63 overflows
        splits: dict[int, tuple[int, tuple[int, ...]]] = {}  # groups share many columns

        def split(col: int):
            out = splits.get(col)
            if out is None:
                xv, ky, rest = 0, [], col
                while rest:
                    low = rest & -rest
                    rest ^= low
                    row = low.bit_length() - 1
                    below = bisect_left(y_rows, row)  # the pinned rows below this one
                    if y_rows[below : below + 1] == [row]:
                        ky.append(below)
                    else:
                        xv |= 1 << row - below
                out = splits[col] = xv, tuple(ky)
            return out

        # An unpinned code column j is the free column f[j] alone, so it
        # joins every group's knowledge as the pair (0, (j,)).
        unpinned = [(0, (j,)) for j in range(len(y_rows), length)]
        groups = sorted(problem._groups.items(), key=lambda g: len(g[0]))  # cheap failures prune first
        self.groups = [
            ([split(c) for c in k] + unpinned, [split(c) for _, d in members for c in d])
            for k, members in groups
        ]

        # Children are decided in windows of 2^w consecutive values.  lanes[j]
        # has bit u set iff u has bit j set.  Each pass doubles the values
        # covered: u + span has u's bits and one more.
        self.window = min(length, WINDOW_BITS)
        lanes, span = [], 1
        for _ in range(self.window):
            lanes = [lane | lane << span for lane in lanes] + [((1 << span) - 1) << span]
            span *= 2
        self._lanes = lanes

    def _siblings(self, f: list[int], k: int, window: int) -> int:
        """The sibling mask of a passing node with rows k.. set, over one window:
        bit u is set iff the child with value window * 2^w + u in row k - 1
        passes every group's condition projected onto rows k - 1.. of the
        free block.

        The children differ only in row k - 1.  There a vector's bit is its
        x-part's bit XOR the value's bits at its y-indices, so over the
        window's values it is a truth table: a constant XOR some of
        `_lanes`, value bits w.. being constant inside a window.  Each
        vector is packed as its projection onto rows k.. above its table and
        eliminated on the projection alone (every pivot key is 2^w or more).
        A knowledge vector that reduces to projection 0 ORs its table into
        `kernel`.  The node passes, so each demand reduces to projection 0
        too, leaving a table h.  The kernel vectors span the part of the
        span that is 0 on rows k.., and in the one row k - 1 they span {0}
        or GF(2): child u decodes the demand iff h(u) = 0 or kernel(u) = 1.
        """
        row, size = k - 1, 1 << self.window
        full = ok = (1 << size) - 1
        lanes = self._lanes + [full if window >> i & 1 else 0 for i in range(self.length - self.window)]
        # Column j packed: its projection onto rows k.. above its table.
        g = [fj >> k << size | lane for fj, lane in zip(f, lanes)]

        def pack(x: int, ys) -> int:
            x >>= row
            v = x >> 1 << size | (full if x & 1 else 0)
            for j in ys:
                v ^= g[j]
            return v

        for kcols, dcols in self.groups:
            pivots: dict[int, int] = {}
            kernel = 0
            for kx, ky in kcols:
                v = pack(kx, ky)
                top = v.bit_length() - 1
                while top >= size:
                    pivot = pivots.get(top)
                    if pivot is None:
                        pivots[top] = v
                        break
                    v ^= pivot
                    top = v.bit_length() - 1
                else:
                    kernel |= v
            for dx, dy in dcols:
                v = pack(dx, dy)
                top = v.bit_length() - 1
                while top >= size:  # the node passes, so the projection reduces to 0
                    v ^= pivots[top]
                    top = v.bit_length() - 1
                ok &= kernel | full ^ v
            if not ok:
                break
        return ok

    def passing(self, limit: int):
        """Yield (counter, F) for every passing candidate whose counter is below limit, ascending.

        A node has rows k.. of the free block set and the rows below zero,
        so its counter `prefix` is the smallest in its subtree, and later
        nodes have larger counters: the search stops at the first node
        whose prefix reaches the limit.  Only passing nodes are visited:
        the root passes, its projections being empty, and each expanded
        node's `_siblings` masks decide its children a window at a time.
        A window is decided only once its first child's prefix is below
        the limit.  Skipping a failing child without reading its prefix
        changes no yield: if that prefix reached the limit, so does every
        later one.
        """
        l, w = self.length, self.window

        def children(f: list[int], k: int, prefix: int):
            row = k - 1
            for window in range(1 << l - w):
                base = window << w
                if prefix | base << row * l >= limit:
                    return
                ok = self._siblings(f, k, window)
                while ok:
                    low = ok & -ok
                    ok ^= low
                    value = base | low.bit_length() - 1
                    child = [fj | (value >> j & 1) << row for j, fj in enumerate(f)]
                    yield child, row, prefix | value << row * l

        # One iterator of pending siblings per depth: the search is as deep
        # as the free block has rows, which can exceed the recursion limit.
        # At l = 0 the one candidate, the empty code, decodes every receiver
        # (l = mu: each demand lies in its knowledge span), so the root is a leaf.
        stack = [iter([([0] * l, len(self.x_rows) if l else 0, 0)])]
        while stack:
            node = next(stack[-1], None)
            if node is None:
                stack.pop()
                continue
            f, k, prefix = node
            if prefix >= limit:
                return
            if k:
                stack.append(children(f, k, prefix))
            else:
                yield prefix, f

    def build(self, f: list[int]) -> IndexCode:
        cols = [sum(1 << row for i, row in enumerate(self.x_rows) if fj >> i & 1) for fj in f]
        for j, row in enumerate(self.y_rows):
            cols[j] |= 1 << row
        return IndexCode(FieldMatrix.from_packed(2, self.t, cols))


def solve_perfect_scalar_binary(problem: GICProblem, config: SearchConfig | None = None) -> SolveOutcome:
    """Exhaust candidates of the perfect length l = mu(problem).

    Returns the canonical first witness, a certified NONE_EXISTS after the
    whole (possibly normalized) space is exhausted, or BUDGET_EXCEEDED.
    """
    config = config or SearchConfig()
    if problem.q != 2 or problem.n != 1:
        raise ValueError("the exhaustive solver handles q = 2, n = 1 only")
    length = mu(problem)  # n = 1
    pinned = detect_normalization(problem, length) if config.normalize_y_block else None
    y_rows, x_rows = pinned or ([], range(problem.m))
    search = _Search(problem, length, y_rows, x_rows)
    space = 1 << search.bits

    if config.report == "first":
        limit = min(space, config.budget)
        hit = next(search.passing(limit), None)
        if hit:
            return SolveOutcome(FOUND, candidates_tested=hit[0] + 1, witness=search.build(hit[1]))
        return SolveOutcome(NONE_EXISTS if limit == space else BUDGET_EXCEEDED, candidates_tested=limit)

    if space > config.budget:
        raise SearchBudgetExceeded(f"space of {space} candidates exceeds budget")
    count, witnesses = 0, []
    for _, f in search.passing(space):
        if not count or config.report == "all":
            witnesses.append(search.build(f))
        count += 1
    verdict = FOUND if count else NONE_EXISTS
    witness = witnesses[0] if witnesses else None
    if config.report == "count":
        return SolveOutcome(verdict, space, witness, count=count)
    return SolveOutcome(verdict, space, witness, witnesses=tuple(witnesses))


def count_solutions(problem: GICProblem, config: SearchConfig | None = None) -> int:
    """Number of passing matrices in the (normalized) candidate space."""
    config = config or SearchConfig()
    base = SearchConfig(config.normalize_y_block, config.budget, "count")
    outcome = solve_perfect_scalar_binary(problem, base)
    return outcome.count or 0
