"""Matroids stored as explicit rank tables, with a representability search.

Ground elements are 0-based; subsets are bitmasks (bit i = element i) into
a table of 2^m ranks.  The rank axioms are validated on every construction
path, so a Matroid instance is always a genuine matroid.  The basis-pinned,
prefix-pruned representability search is shared with the polymatroid
module: a matroid is searched as a discrete polymatroid whose blocks are
all one column wide.
"""

from __future__ import annotations

import itertools

import numpy as np

from .gf import FieldMatrix, _rref_inplace, bits_rank, bits_subset_ranks, column_bits

MAX_GROUND = 16


class SearchBudgetExceeded(Exception):
    """Representability search ran out of budget before reaching a verdict."""


def validate_rank_table(table: np.ndarray, m: int, *, cardinality_bound: bool):
    """Check monotone + submodular + rank(empty)=0 (and rank(X) <= |X| if asked).

    Uses the single-element local forms, which are equivalent to the
    all-pairs axioms for integer-valued set functions.
    """
    size = 1 << m
    if table.shape != (size,):
        raise ValueError(f"rank table must have {size} entries")
    if table[0] != 0:
        raise ValueError("rank of empty set must be 0")
    if np.any(table < 0):
        raise ValueError("ranks must be non-negative")
    masks = np.arange(size)
    if cardinality_bound:
        if np.any(table > np.bitwise_count(masks)):
            raise ValueError("rank exceeds subset cardinality (R1)")
    for i in range(m):
        bi = 1 << i
        base = masks[(masks & bi) == 0]
        if np.any(table[base | bi] < table[base]):
            raise ValueError("rank table is not monotone")
        for j in range(i + 1, m):
            bj = 1 << j
            sub = base[(base & bj) == 0]
            if np.any(table[sub | bi] + table[sub | bj] < table[sub | bi | bj] + table[sub]):
                raise ValueError("rank table is not submodular")


def _integer_table(rank_table) -> np.ndarray:
    raw = np.asarray(rank_table)
    if raw.size and raw.dtype.kind not in "iu":
        raise ValueError("ranks must be integers")
    return np.array(raw, dtype=np.int64)


class Matroid:
    """Matroid on ground set {0, ..., m-1} given by its full rank table."""

    __slots__ = ("ground_size", "_table")

    def __init__(self, ground_size: int, rank_table):
        if not 0 <= ground_size <= MAX_GROUND:
            raise ValueError(f"ground set size must be in [0, {MAX_GROUND}]")
        table = _integer_table(rank_table)
        validate_rank_table(table, ground_size, cardinality_bound=True)
        table.setflags(write=False)
        self.ground_size = ground_size
        self._table = table

    @classmethod
    def from_matrix(cls, mat: FieldMatrix) -> "Matroid":
        """Vector matroid: rank of a subset is the rank of those columns."""
        m = mat.cols
        if m > MAX_GROUND:
            raise ValueError(f"too many columns for a ground set (max {MAX_GROUND})")
        if mat.q == 2:
            return cls(m, bits_subset_ranks([[v] for v in column_bits(mat)]))
        table = np.zeros(1 << m, dtype=np.int64)
        for mask in range(1, 1 << m):
            table[mask] = mat.take_columns(_mask_elements(mask, m)).rank()
        return cls(m, table)

    @classmethod
    def uniform(cls, k: int, m: int) -> "Matroid":
        """U_{k,m}: every subset of at most k elements is independent."""
        if not 0 <= k <= m <= MAX_GROUND:
            raise ValueError("need 0 <= k <= m <= 16")
        table = [min(bin(mask).count("1"), k) for mask in range(1 << m)]
        return cls(m, table)

    @property
    def rank(self) -> int:
        return int(self._table[-1])

    def rank_of(self, subset) -> int:
        return int(self._table[_as_mask(subset, self.ground_size)])

    def rank_table(self) -> np.ndarray:
        return self._table

    def is_independent(self, subset) -> bool:
        mask = _as_mask(subset, self.ground_size)
        return int(self._table[mask]) == bin(mask).count("1")

    def bases(self) -> list[tuple[int, ...]]:
        """All maximal independent sets, in ascending bitmask order."""
        m, k = self.ground_size, self.rank
        out = []
        for mask in range(1 << m):
            if bin(mask).count("1") == k and self._table[mask] == k:
                out.append(_mask_elements(mask, m))
        return out

    def circuits(self) -> list[tuple[int, ...]]:
        """All minimal dependent sets, in ascending bitmask order."""
        m = self.ground_size
        out = []
        for mask in range(1, 1 << m):
            size = bin(mask).count("1")
            if self._table[mask] != size - 1:
                continue
            elems = _mask_elements(mask, m)
            if all(self._table[mask & ~(1 << e)] == size - 1 for e in elems):
                out.append(elems)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matroid)
            and self.ground_size == other.ground_size
            and bool(np.array_equal(self._table, other._table))
        )

    def __hash__(self) -> int:
        return hash((self.ground_size, self._table.tobytes()))

    def __repr__(self) -> str:
        return f"Matroid(m={self.ground_size}, rank={self.rank})"

    def to_json_dict(self) -> dict:
        return {"m": self.ground_size, "rank": [int(v) for v in self._table]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Matroid":
        if "uniform" in d:
            k, m = d["uniform"]
            return cls.uniform(k, m)
        if "matrix" in d:
            return cls.from_matrix(FieldMatrix.from_json_dict(d["matrix"]))
        return cls(d["m"], d["rank"])


def _as_mask(subset, m: int) -> int:
    if isinstance(subset, int):
        mask = subset
    else:
        mask = 0
        for e in subset:
            mask |= 1 << e
    if mask >> m:
        raise ValueError("subset outside ground set")
    return mask


def _mask_elements(mask: int, m: int) -> tuple[int, ...]:
    return tuple(i for i in range(m) if mask >> i & 1)


def find_representation(
    matroid: Matroid, q: int = 2, budget: int = 1 << 22
) -> FieldMatrix | None:
    """Search for a k x m matrix over GF(q) whose vector matroid equals `matroid`.

    Returns the first success in canonical order, or None once the whole
    canonicalized space is exhausted (a certified not-representable verdict).
    The columns of the lexicographically first basis are pinned to the
    identity, which is lossless up to the left GL action, and the remaining
    columns are filled in by the shared search below.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    m, k = matroid.ground_size, matroid.rank
    if m > 8 or k > 5:
        raise ValueError("representability search is limited to m <= 8, rank <= 5")

    if k == 0:
        # Every element is a loop; the empty-row matrix represents it.
        return FieldMatrix.zeros(q, 0, m)

    basis = matroid.bases()[0]
    pinned = [int(e in basis) for e in range(m)]
    found = _search_representation(matroid.rank_table(), [1] * m, pinned, q, k, budget)
    return None if found is None else _digit_columns([v for (v,) in found], q, k)


def _digit_columns(values, q: int, rows: int) -> FieldMatrix:
    """The matrix whose column j holds the base-q digits of values[j], row 0 lowest."""
    values = np.array(values, dtype=np.int64)
    return FieldMatrix(q, values[None, :] // q ** np.arange(rows)[:, None] % q)


def _search_representation(table, widths, pinned, q: int, rows: int, budget: int):
    """Basis-pinned, prefix-pruned search for column blocks realizing `table`.

    Element i gets a block of widths[i] columns in GF(q)^rows, whose first
    pinned[i] columns are successive identity columns in element order.  A
    column is the integer whose base-q digits are its entries (row 0
    lowest); the unpinned slots, in block order, each run through 0 ..
    q^rows - 1 depth first, and every such assignment counts against
    `budget`.  After a column is placed in element e, each subset of the
    started elements that contains e must have rank at most its table value,
    and exactly that value once all its blocks are full; subsets with an
    unstarted element follow by monotonicity and submodularity.  A leaf
    must reproduce the whole table.  Returns the column values per element
    for the first leaf in that order, or None once the space is exhausted.
    """
    n = len(widths)
    table = [int(v) for v in table]
    starts = list(itertools.accumulate(widths, initial=0))
    flat = [0] * starts[-1]
    for pos, slot in enumerate(starts[i] + s for i in range(n) for s in range(pinned[i])):
        flat[slot] = q**pos
    digits = None if q == 2 else _digit_columns(range(q**rows), q, rows).array()

    def rank(slots) -> int:
        cols = [flat[s] for s in slots]
        return bits_rank(cols) if q == 2 else len(_rref_inplace(digits[:, cols], q))

    def slots_of(elems, counts) -> list[int]:
        return [starts[i] + s for i in elems for s in range(counts[i])]

    # Which slots are placed and which blocks are started or full depend on
    # the depth alone, so each depth lists its checks up front as (slots,
    # lowest and highest allowed rank), smallest subsets first.
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
        if q == 2:
            return bits_subset_ranks([flat[starts[i] : starts[i + 1]] for i in range(n)]) == table
        return all(
            rank(slots_of(_mask_elements(mask, n), widths)) == table[mask] for mask in range(1, 1 << n)
        )

    spent = 0

    def search(idx: int) -> bool:
        nonlocal spent
        if idx == len(free):
            return leaf_ok()
        slot = free[idx]
        for value in range(q**rows):
            spent += 1
            if spent > budget:
                raise SearchBudgetExceeded(f"budget of {budget} column assignments exhausted")
            flat[slot] = value
            if all(low <= rank(slots) <= high for slots, low, high in checks[idx]) and search(idx + 1):
                return True
        return False

    if not search(0):
        return None
    return [flat[starts[i] : starts[i + 1]] for i in range(n)]
