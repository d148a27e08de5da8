"""Matroids stored as explicit rank tables with brute-force representability.

Ground elements are 0-based; subsets are bitmasks (bit i = element i) into
a table of 2^m ranks.  The rank axioms are validated on every construction
path, so a Matroid instance is always a genuine matroid.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldMatrix, bits_subset_ranks, column_bits

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
        popcount = np.array([bin(s).count("1") for s in range(size)])
        if np.any(table > popcount):
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
    columns are filled in by depth-first search with prefix rank pruning.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    m, k = matroid.ground_size, matroid.rank
    if m > 8 or k > 5:
        raise ValueError("representability search is limited to m <= 8, rank <= 5")
    table = matroid.rank_table()

    if k == 0:
        # Every element is a loop; the empty-row matrix represents it.
        return FieldMatrix.zeros(q, 0, m)

    basis = matroid.bases()[0]
    free = [e for e in range(m) if e not in basis]
    columns: list[np.ndarray | None] = [None] * m
    for pos, e in enumerate(basis):
        col = np.zeros(k, dtype=np.int64)
        col[pos] = 1
        columns[e] = col

    spent = 0

    def placed_rank(mask: int) -> int:
        cols = [columns[e] for e in _mask_elements(mask, m)]
        return FieldMatrix(q, np.array(cols).T).rank() if cols else 0

    def consistent(newest: int, assigned_mask: int) -> bool:
        # Only subsets containing the newest column can newly violate.
        rest = assigned_mask & ~(1 << newest)
        sub = rest
        while True:
            mask = sub | (1 << newest)
            if placed_rank(mask) != table[mask]:
                return False
            if sub == 0:
                return True
            sub = (sub - 1) & rest

    def search(idx: int, assigned_mask: int) -> FieldMatrix | None:
        nonlocal spent
        if idx == len(free):
            cand = FieldMatrix(q, np.array(columns).T)
            if Matroid.from_matrix(cand) == matroid:
                return cand
            return None
        e = free[idx]
        for value in range(q**k):
            spent += 1
            if spent > budget:
                raise SearchBudgetExceeded(f"budget of {budget} column assignments exhausted")
            col = np.zeros(k, dtype=np.int64)
            v = value
            for r in range(k):
                col[r] = v % q
                v //= q
            columns[e] = col
            if consistent(e, assigned_mask | (1 << e)):
                found = search(idx + 1, assigned_mask | (1 << e))
                if found is not None:
                    return found
        columns[e] = None
        return None

    basis_mask = sum(1 << e for e in basis)
    return search(0, basis_mask)
