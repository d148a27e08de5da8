"""Matroids stored as explicit rank tables, with a representability search.

Ground elements are 0-based; subsets are bitmasks (bit i = element i) into
a tuple of 2^m integer ranks, which `rank_table()` returns.  `subset_ranks`
computes the table of a list of vector groups by a depth-first walk that
tries the last group first and descends only while each group raises the
rank short of full: a full-rank subtree is filled, and a subtree below a
group that adds nothing is copied from the one without it.

No walk in this module is a nested function that calls itself: `_walk`
keeps an explicit stack, and `subset_ranks` and the representability
search recurse through module-level functions that take their state as
arguments.  A call thus leaves no reference cycle, and its rank tables and
column lists are freed by reference counting when it returns, not by the
cyclic collector.

A Matroid instance is always a genuine matroid, but only a table handed in
is checked at run time: `Matroid(m, table)` and JSON with "rank" go through
`validate_rank_table`.  The tables gicode computes are rank functions by
construction and skip it: the span ranks of `from_matrix` (and of the
polymatroid module's `from_subspaces`) are those of a vector matroid (of a
family of subspaces), `uniform`'s min(|X|, k) is U_{k,m}'s, and the
polymatroid module's `from_matroid` and `scale` keep or multiply by n >= 1
a table that already holds the axioms.  These reach the instance through
`_RankTable._of`, which checks only the ground-size limit; the test suite
validates their tables on random inputs instead.

`Matroid` shares its rank-table class body, `_RankTable`, with the
polymatroid module's `DiscretePolymatroid`; the two differ in the
ground-size limit, the cardinality bound and the key naming the ground
size.  The basis-pinned, prefix-pruned representability search is shared
with the polymatroid module too: a matroid is searched as a discrete
polymatroid whose blocks are all one column wide.
"""

from __future__ import annotations

import itertools

from .gf import FieldMatrix, _json_fields, packed_rank, span_insert

MAX_GROUND = 16


def _check_column_count(cols: int) -> None:
    if cols > MAX_GROUND:
        raise ValueError(f"too many columns for a ground set (max {MAX_GROUND})")


class SearchBudgetExceeded(Exception):
    """Representability search ran out of budget before reaching a verdict."""


def _check_budget(budget) -> None:
    """A search budget is an int of at least 1; not isinstance, since True is an int too."""
    if type(budget) is not int or budget < 1:
        raise ValueError(f"budget must be positive and an int, got {budget!r}")


def _lanes(values, width: int) -> int:
    """One integer holding each value in its own `width`-byte lane, the first lowest."""
    if width == 1:
        return int.from_bytes(bytes(values), "little")
    return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")


def _lane_masks(m: int, bits: int) -> tuple[int, int, int, tuple[int, ...]]:
    """Lane width, the guard bit in every lane, the subset sizes, and without[i]:
    the guard bit in the lanes of the subsets that miss i."""
    size = 1 << m
    # A lane holds a sum of two values (ranks or subset sizes) and the guard bit.
    width = (bits + 9) // 8
    guard = (1 << bits + 1).to_bytes(width, "little")
    zero = bytes(width)
    everywhere = int.from_bytes(guard * size, "little")
    sizes, ones, span = 0, 1, 8 * width  # the lanes of the subsets of the elements so far
    for _ in range(m):  # the subsets that contain the next element are those that miss it, each one larger
        sizes, ones, span = sizes | (sizes + ones) << span, ones | ones << span, 2 * span
    without = tuple(int.from_bytes((guard * 2**i + zero * 2**i) * (size >> i + 1), "little") for i in range(m))
    return width, everywhere, sizes, without


def validate_rank_table(table, m: int, *, cardinality_bound: bool):
    """Check monotone + submodular + rank(empty)=0 (and rank(X) <= |X| if asked).

    `table` is a sequence of ints.  Uses the single-element local forms,
    which are equivalent to the all-pairs axioms for integer-valued set
    functions, and checks each form for every subset at once: lane s of
    one integer holds the value at subset s, a shift by 2^i lanes lines s
    up with s | {i}, and a guard bit above each lane survives subtracting
    one lane from another exactly where the first is not smaller.  Both
    forms read the gain of i, rank(s | {i}) - rank(s): monotone is a gain
    >= 0, submodular a gain at s >= that at s | {j}.  Only top lanes, past
    which a shift brings zeros, can overflow; their subsets contain j and
    are masked.  `_lane_masks` builds the masks anew for each table.
    """
    size = 1 << m
    if len(table) != size:
        raise ValueError(f"rank table must have {size} entries")
    if table[0] != 0:
        raise ValueError("rank of empty set must be 0")
    if min(table) < 0:
        raise ValueError("ranks must be non-negative")
    top = max(table)
    if cardinality_bound and top > m:  # R1 fails: no rank may exceed m; build no lanes that wide
        raise ValueError("rank exceeds subset cardinality (R1)")
    width, everywhere, sizes, without = _lane_masks(m, max(top, m).bit_length())
    ranks = _lanes(table, width)
    if cardinality_bound and (sizes + everywhere - ranks) & everywhere != everywhere:
        raise ValueError("rank exceeds subset cardinality (R1)")
    shift = 8 * width
    for i in range(m):
        # The guard plus the gain of i at s, in lane s when s misses i.
        gain = (ranks >> shift * (1 << i)) + everywhere - ranks
        if gain & without[i] != without[i]:
            raise ValueError("rank table is not monotone")
        lifted = gain + everywhere
        for j in range(i + 1, m):
            where = without[i] & without[j]
            if (lifted - (gain >> shift * (1 << j))) & where != where:
                raise ValueError("rank table is not submodular")


def _integer_table(rank_table) -> tuple[int, ...]:
    try:
        table = tuple(rank_table)
    except TypeError:
        raise ValueError("ranks must be integers") from None
    if not set(map(type, table)) <= {int}:  # not operator.index: it takes True as 1
        raise ValueError("ranks must be integers")
    return table


def subset_ranks(groups, q: int) -> list[int]:
    """Rank of the union of every subset of `groups` (lists of packed vectors).

    Entry `mask` covers the groups whose bit is set.  A depth-first walk
    over subsets extends its parent's basis by one group per node and
    undoes the extension on the way back.  A node tries the groups after
    its own in descending order, so when it tries group e, every superset
    of the node that adds only groups after e is already in the table.
    The same supersets of `child`, the node plus e, are
    `table[child :: 2 ** (e + 1)]`, and in two cases the walk writes them
    in one slice without descending.  If the basis reaches the rank of
    all the groups, they all have that rank.  If group e adds nothing, it
    lies in the node's span, so each has the rank of the same set without
    e (the closure rule: e in cl(S) gives r(S + e + T) = r(S + T)).  The
    walk thus descends only through subsets in which every group raised
    the rank and which are still below full rank: for a matrix, the
    independent sets of the matroid short of its bases.
    """
    table = [0] * (1 << len(groups))
    _extend(groups, q, packed_rank([v for group in groups for v in group], q), table, {}, 0, 0)
    return table


def _extend(groups, q: int, total: int, table: list, pivots: dict, mask: int, start: int) -> None:
    """`subset_ranks`'s walk below the node `mask`, whose basis is `pivots`."""
    m = len(groups)
    for e in reversed(range(start, m)):
        added = []
        for v in groups[e]:
            key = span_insert(v, pivots, q)
            if key >= 0:
                added.append(key)
        child = mask | 1 << e
        if len(pivots) == total:
            table[child :: 1 << e + 1] = [total] * (1 << m - e - 1)
        elif not added:
            table[child :: 1 << e + 1] = table[mask :: 1 << e + 1]
        else:
            table[child] = len(pivots)
            _extend(groups, q, total, table, pivots, child, e + 1)
        for key in added:
            del pivots[key]


class _RankTable:
    """A set function on {0, ..., n-1} given by its full table of integer ranks.

    Each subclass sets `_max_ground`, its ground-size limit;
    `_cardinality_bound`, whether rank(X) <= |X| is checked; `_size_key`,
    the key that names the ground size in its JSON form and repr; and
    `_name`, what a malformed JSON form is called in its error.  Tables
    compare equal only within one class.
    """

    __slots__ = ("ground_size", "_table")

    def __init__(self, ground_size: int, rank_table):
        self._check_ground_size(ground_size)
        table = _integer_table(rank_table)
        validate_rank_table(table, ground_size, cardinality_bound=self._cardinality_bound)
        self.ground_size = ground_size
        self._table = table

    @classmethod
    def _check_ground_size(cls, ground_size) -> None:
        if type(ground_size) is not int:  # not isinstance: True is an int too
            raise ValueError(f"{cls._size_key} must be an integer, got {ground_size!r}")
        if not 0 <= ground_size <= cls._max_ground:
            raise ValueError(f"ground set size must be in [0, {cls._max_ground}]")

    @classmethod
    def _of(cls, ground_size: int, table):
        """An instance of a table of ints that gicode computed and that is a
        rank function by construction (see the module docstring): only the
        ground-size limit is checked."""
        cls._check_ground_size(ground_size)
        self = object.__new__(cls)
        self.ground_size = ground_size
        self._table = tuple(table)
        return self

    @property
    def rank(self) -> int:
        return self._table[-1]

    def rank_of(self, subset) -> int:
        return self._table[_as_mask(subset, self.ground_size)]

    def rank_table(self) -> tuple[int, ...]:
        """The rank of every subset, indexed by bitmask."""
        return self._table

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.ground_size == other.ground_size
            and self._table == other._table
        )

    def __hash__(self) -> int:
        return hash((self.ground_size, self._table))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._size_key}={self.ground_size}, rank={self.rank})"

    def to_json_dict(self) -> dict:
        return {self._size_key: self.ground_size, "rank": list(self._table)}

    @classmethod
    def from_json_dict(cls, d: dict):
        return cls(*_json_fields(d, cls._name, cls._size_key, "rank"))


class Matroid(_RankTable):
    """Matroid on ground set {0, ..., m-1} given by its full rank table."""

    __slots__ = ()
    _max_ground, _cardinality_bound, _size_key, _name = MAX_GROUND, True, "m", "matroid"

    @classmethod
    def from_matrix(cls, mat: FieldMatrix) -> "Matroid":
        """Vector matroid: rank of a subset is the rank of those columns."""
        _check_column_count(mat.cols)
        return cls._of(mat.cols, subset_ranks([[v] for v in mat.packed], mat.q))

    @classmethod
    def uniform(cls, k: int, m: int) -> "Matroid":
        """U_{k,m}: every subset of at most k elements is independent."""
        for name, size in (("k", k), ("m", m)):
            if type(size) is not int:  # not isinstance: True is an int too
                raise ValueError(f"{name} must be an integer, got {size!r}")
        if not 0 <= k <= m <= MAX_GROUND:
            raise ValueError("need 0 <= k <= m <= 16")
        return cls._of(m, [min(mask.bit_count(), k) for mask in range(1 << m)])

    def bases(self) -> list[tuple[int, ...]]:
        """All maximal independent sets, in ascending bitmask order."""
        return [tuple(_mask_elements(mask)) for mask in self._walk()[0]]

    def circuits(self) -> list[tuple[int, ...]]:
        """All minimal dependent sets, in ascending bitmask order."""
        return [tuple(_mask_elements(mask)) for mask in self._walk()[1]]

    def _walk(self) -> tuple[list[int], list[int]]:
        """The basis masks and the circuit masks, each in ascending order.

        One depth-first walk visits each independent set I once, adding
        elements in ascending order.  A dependent I + e, e > max I, is a
        circuit iff every I + e - b, b in I, is independent, so a circuit C
        is met once, from C - max C.  I tries only the e that I - max I could
        add (sets above a dependent one are dependent, and no circuits), so
        b = max I needs no test either.
        """
        k, table = self.rank, self._table
        bases, circuits = [], []
        # Pending sets, the next one last: (mask, size, older: the bits of mask
        # below its highest, top, free: the e to try).
        stack = [(0, 0, [], 0, [1 << e for e in range(self.ground_size)])]
        while stack:
            mask, size, older, top, free = stack.pop()
            if size == k:
                bases.append(mask)
            grown = []
            for bit in free:
                if table[mask | bit] > size:
                    grown.append(bit)
                    continue
                for b in older:
                    if table[mask ^ b | bit] != size:
                        break
                else:
                    circuits.append(mask | bit)
            below = older + [top] if top else older
            for i in reversed(range(len(grown))):
                stack.append((mask | grown[i], size + 1, below, grown[i], grown[i + 1 :]))
        return sorted(bases), sorted(circuits)

    @classmethod
    def from_json_dict(cls, d: dict) -> "Matroid":
        _json_fields(d, "matroid")
        if "uniform" in d:
            size = d["uniform"]
            if type(size) is not list or len(size) != 2:
                raise ValueError("'uniform' must be [k, m]")
            return cls.uniform(*size)
        if "matrix" in d:
            matrix = d["matrix"]
            # A matrix with no rows declares its column count: check it before that many columns are built.
            if type(matrix) is dict and not matrix.get("rows") and type(matrix.get("cols")) is int:
                _check_column_count(matrix["cols"])
            return cls.from_matrix(FieldMatrix.from_json_dict(matrix))
        return super().from_json_dict(d)


def _as_mask(subset, m: int) -> int:
    """A subset of range(m), given as a bitmask or as its elements, as a bitmask."""
    if type(subset) is int and not subset >> m:  # not isinstance: True is an int too
        return subset
    if isinstance(subset, int):
        raise ValueError(f"{subset!r} is not the bitmask of a subset of range({m})")
    mask = 0
    for e in subset:
        if type(e) is not int or not 0 <= e < m:
            raise ValueError(f"subset element {e!r} is not an int in [0, {m})")
        mask |= 1 << e
    return mask


def _mask_elements(mask: int) -> list[int]:
    out = []  # the elements of mask, ascending
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def find_representation(
    matroid: Matroid, q: int = 2, budget: int = 1 << 22
) -> FieldMatrix | None:
    """Search for a k x m matrix over GF(q) whose vector matroid equals `matroid`.

    Returns the first success in canonical order, or None once the whole
    canonicalized space is exhausted (a certified not-representable verdict).
    The columns of the greedy basis B, which keeps each element in turn
    that raises the rank, are pinned to the identity, which is lossless up
    to the left GL action, and the remaining columns are filled in by the
    shared search below.  With weight 2^e on element e, the greedy basis
    is the one of least weight (Oxley §1.8): the basis of smallest mask,
    found in m table reads instead of a scan of all 2^m subsets.  The
    search places only columns whose highest nonzero entry is 1 (lossless
    up to column scaling), yet `budget` still counts every assignment of
    the unreduced order.

    The matroid fixes each free column's support: with B = I, entry i of
    column j is nonzero exactly when (B - b_i) + j is a basis, i.e. when
    b_i lies on j's fundamental circuit.  Any other support fails the
    search's full-rank check on that set at j's own depth, so the search is
    handed these masks and charges each other column one assignment without
    placing it.
    """
    _check_budget(budget)
    m, k = matroid.ground_size, matroid.rank
    if m > 8 or k > 5:
        raise ValueError("representability search is limited to m <= 8, rank <= 5")

    if k == 0:
        # Every element is a loop; the empty-row matrix represents it.
        return FieldMatrix.zeros(q, 0, m)

    table = matroid._table
    spanned = 0
    for e in range(m):  # greedy: keep each element that raises the rank
        if table[spanned | 1 << e] > table[spanned]:
            spanned |= 1 << e
    basis = _mask_elements(spanned)
    pinned = [int(e in basis) for e in range(m)]
    supports = [
        sum(1 << i for i, b in enumerate(basis) if table[spanned ^ 1 << b | 1 << j] == k)
        for j in range(m)
        if not pinned[j]
    ]
    found = _search_representation(table, [1] * m, pinned, q, k, budget, supports)
    return None if found is None else FieldMatrix.from_packed(q, k, [v for (v,) in found])


def _search_representation(table, widths, pinned, q: int, rows: int, budget: int, supports=None):
    """Basis-pinned, prefix-pruned search for column blocks realizing `table`.

    Element i gets a block of widths[i] columns in GF(q)^rows, whose first
    pinned[i] columns are successive identity columns in element order.  A
    column is numbered by the integer whose base-q digits are its entries
    (row 0 lowest); the unpinned slots, in block order, each run through
    the numbers 0 .. q^rows - 1 depth first, and every such assignment
    counts against `budget`.  After a column is placed in element e, each
    subset of the started elements that contains e must have rank at most
    its table value, and exactly that value once all its blocks are full;
    subsets with an unstarted element follow by monotonicity and
    submodularity.  Returns the packed columns per element for the first
    leaf in that order, or None once the space is exhausted.

    `pinned` must be a basis vector of the polymatroid of `table`
    (pinned(S) <= table[S], summing to `rows`), and widths[i] >=
    table[{i}].  A leaf then reproduces the whole table with no further
    check.  A subset with an unpinned slot was checked at the last such
    slot among its elements, all its blocks full by then.  A subset of
    fully pinned blocks has rank pinned(S), the sum of table[{i}] over it,
    which is at least table[S] by submodularity and at most by membership.

    The checks for one placed column are one depth-first walk: e's placed
    columns go into a keyed basis, each node adds one more started
    element's placed columns, compares the basis size with that subset's
    bounds and undoes the addition on the way back, and the walk stops at
    the first violation.  A node whose basis reaches `rows` has no
    descendants to visit: every superset has rank `rows`, which its table
    value, at least this node's and at most `rows`, then equals.  Nor has
    a node S + f whose columns add nothing to its parent S's basis (S is
    empty at the root): f's columns lie in the span of S's, so each
    descendant S + f + T has the rank of S + T (the closure rule), and its
    check follows from that of S + T, made in S's later subtrees or, for
    S empty, before this column was placed.  If S + f + T is not full, its
    bound is at least S + T's.  If it is, so are S + f and S, whose checks
    give table[S + f] = r(S) = table[S], and then table[S + f + T] =
    table[S + T] by submodularity and monotonicity.  For a matroid, whose
    started blocks are all full, this is the case of a child that adds
    nothing while it and its parent meet their table values.  Whether all
    checks pass does not depend on their order, so neither does what is
    spent.  The walk adds the newest elements first: the pinned identity
    columns, mostly in the lowest elements, seldom break a bound, so a
    failing column is usually caught within a few nodes.

    Only the zero column and the columns whose highest nonzero digit is 1
    are placed.  Scaling a column changes no span, so a multiple c·v passes
    exactly the checks v passes, in the whole subtree below it.  Hence the
    first leaf uses no other column (scaling one to top digit 1 gives an
    earlier leaf), and c·v, which comes after v, spends what v's subtree
    spent; that spend is charged to `budget` unplaced, so every result and
    budget failure is that of the unreduced order.

    `supports`, if given, holds for each unpinned slot in order the mask
    of rows where its column must be nonzero.  A column with another
    support must fail a check at its own depth, which spends one
    assignment; that one is charged, in order, without placing it.
    """
    n = len(widths)
    # vectors[v]: the column numbered v, built digit by digit from unit
    # columns; digits[v]: the mask of rows where it is nonzero.
    vectors, digits = [0], [0]
    for p, unit in enumerate(FieldMatrix.identity(q, rows).packed):
        vectors = [v + d * unit for d in range(q) for v in vectors]
        digits = [s | (d > 0) << p for d in range(q) for s in digits]
    # Runs of placed columns, each with the number of skipped multiples of
    # every column in it: the columns with top digit 1 in row p are the
    # numbers q^p .. 2q^p - 1, and their multiples by 2 .. q-1 fill the
    # numbers up to q^(p+1), right after them.  Over GF(2) the runs hold
    # every column and skip nothing.
    runs = [(range(1), 0)] + [(range(q**p, 2 * q**p), q - 2) for p in range(rows)]
    starts = list(itertools.accumulate(widths, initial=0))
    flat = [0] * starts[-1]
    for pos, slot in enumerate(starts[i] + s for i in range(n) for s in range(pinned[i])):
        flat[slot] = vectors[q**pos]

    def choices(support) -> list:
        """Per run: (column, assignments charged when it is placed) pairs,
        the assignments left after the last of them, and the multiples."""
        out = []
        for numbers, copies in runs:
            placed, charge = [], 0
            for v in numbers:
                charge += 1
                if support is None or digits[v] == support:
                    placed.append((vectors[v], charge))
                    charge = 0
            out.append((placed, charge, copies))
        return out

    # Which slots are placed and which blocks are started or full depend on
    # the depth alone, so each depth lists up front its slot, e's placed
    # slots, the other started elements (newest first), and the runs it
    # tries.
    counts = list(pinned)
    levels, by_support = [], {}
    for e in range(n):
        for _ in range(pinned[e], widths[e]):
            counts[e] += 1
            placed = [range(starts[i], starts[i] + counts[i]) for i in range(n)]
            full = [counts[i] == widths[i] for i in range(n)]
            others = [(1 << i, placed[i], full[i]) for i in reversed(range(n)) if counts[i] and i != e]
            support = None if supports is None else supports[len(levels)]
            if support not in by_support:
                by_support[support] = choices(support)
            levels.append((placed[e][-1], placed[e], full[e], 1 << e, others, by_support[support]))

    if _place(levels, 0, flat, table, q, rows, budget, 0) is not None:
        return None
    return [flat[starts[i] : starts[i + 1]] for i in range(n)]


def _grows(flat, table, q: int, rows: int, pivots, slots, mask: int, full: bool, others, first: int) -> bool:
    """`_search_representation`'s check walk: add the columns in `slots` to the
    basis and check subset `mask`, then each child that adds one of
    others[first:]; undo the addition."""
    added = []
    for s in slots:
        key = span_insert(flat[s], pivots, q)
        if key >= 0:
            added.append(key)
    r, high = len(pivots), table[mask]
    ok = r <= high and (r == high or not full)
    if ok and added and r < rows:
        for t in range(first, len(others)):
            bit, more, filled = others[t]
            if not _grows(flat, table, q, rows, pivots, more, mask | bit, full and filled, others, t + 1):
                ok = False
                break
    for key in added:
        del pivots[key]
    return ok


def _place(levels, idx: int, flat, table, q: int, rows: int, budget: int, spent: int):
    """`_search_representation`'s search from depth `idx`, with `spent` assignments
    spent: None once a leaf is reached, else the assignments spent when the
    subtree is exhausted."""
    if idx == len(levels):
        return None
    slot, own, full, bit, others, tries = levels[idx]
    for placed, rest, copies in tries:
        start = spent
        for value, charge in placed:
            spent += charge
            if spent > budget:
                raise SearchBudgetExceeded(f"budget of {budget} column assignments exhausted")
            flat[slot] = value
            if _grows(flat, table, q, rows, {}, own, bit, full, others, 0):
                spent = _place(levels, idx + 1, flat, table, q, rows, budget, spent)
                if spent is None:
                    return None
        # A skipped multiple c·v prunes exactly like v, whose subtree held
        # no witness, so it spends what v's subtree spent.
        spent += rest
        spent += copies * (spent - start)
        if spent > budget:
            raise SearchBudgetExceeded(f"budget of {budget} column assignments exhausted")
    return spent
