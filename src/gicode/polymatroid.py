"""Discrete polymatroids: integer rank tables, vector enumeration, representability.

A discrete polymatroid is carried by its rank function over all subsets of
the ground set, exactly like the matroid module but without the
cardinality bound.  Membership, basis vectors and (minimal) excluded
vectors are enumerated over the box bounded componentwise by the
single-element ranks.
"""

from __future__ import annotations

import itertools

import numpy as np

from .gf import FieldMatrix, bits_subset_ranks, column_bits, concat_columns
from .matroid import Matroid, SearchBudgetExceeded, validate_rank_table, _integer_table, _mask_elements

MAX_GROUND = 10


class DiscretePolymatroid:
    """Discrete polymatroid on {0, ..., r-1} given by its full rank table."""

    __slots__ = ("ground_size", "_table")

    def __init__(self, ground_size: int, rank_table):
        if not 0 <= ground_size <= MAX_GROUND:
            raise ValueError(f"ground set size must be in [0, {MAX_GROUND}]")
        table = _integer_table(rank_table)
        validate_rank_table(table, ground_size, cardinality_bound=False)
        table.setflags(write=False)
        self.ground_size = ground_size
        self._table = table

    @classmethod
    def from_matroid(cls, matroid: Matroid) -> "DiscretePolymatroid":
        """D(M): same rank table, independent sets become 0/1 member vectors."""
        return cls(matroid.ground_size, matroid.rank_table())

    @classmethod
    def from_subspaces(cls, rep: "SubspaceRepresentation") -> "DiscretePolymatroid":
        """Rank of a subset = dimension of the sum of its blocks' column spans."""
        r = len(rep.blocks)
        if rep.q == 2:
            return cls(r, bits_subset_ranks([column_bits(b) for b in rep.blocks]))
        table = np.zeros(1 << r, dtype=np.int64)
        for mask in range(1, 1 << r):
            table[mask] = concat_columns(
                [rep.blocks[i] for i in _mask_elements(mask, r)]
            ).rank()
        return cls(r, table)

    @property
    def rank(self) -> int:
        return int(self._table[-1])

    def rank_of(self, subset) -> int:
        if isinstance(subset, int):
            mask = subset
        else:
            mask = 0
            for e in subset:
                mask |= 1 << e
        if mask >> self.ground_size:
            raise ValueError("subset outside ground set")
        return int(self._table[mask])

    def rank_table(self) -> np.ndarray:
        return self._table

    def element_rank(self, i: int) -> int:
        return int(self._table[1 << i])

    def caps(self) -> tuple[int, ...]:
        """Componentwise box bound (rho({0}), ..., rho({r-1}))."""
        return tuple(self.element_rank(i) for i in range(self.ground_size))

    def scale(self, n: int) -> "DiscretePolymatroid":
        if n < 1:
            raise ValueError("scale factor must be >= 1")
        return DiscretePolymatroid(self.ground_size, self._table * n)

    def is_member(self, vector) -> bool:
        """True iff sum(vector[A]) <= rho(A) for every subset A."""
        v = tuple(int(x) for x in vector)
        if len(v) != self.ground_size:
            raise ValueError("vector length must match ground set size")
        if any(x < 0 for x in v):
            return False
        for mask in range(1, 1 << self.ground_size):
            total = sum(v[i] for i in range(self.ground_size) if mask >> i & 1)
            if total > self._table[mask]:
                return False
        return True

    def _box(self):
        return itertools.product(*(range(c + 1) for c in self.caps()))

    def members(self) -> list[tuple[int, ...]]:
        return [v for v in self._box() if self.is_member(v)]

    def basis_vectors(self) -> list[tuple[int, ...]]:
        """Maximal members; all share component sum rho(ground set)."""
        k = self.rank
        return [v for v in self._box() if sum(v) == k and self.is_member(v)]

    def excluded_vectors(self) -> list[tuple[int, ...]]:
        """Vectors under the box bound that are not members."""
        return [v for v in self._box() if not self.is_member(v)]

    def minimal_excluded_vectors(self) -> list[tuple[int, ...]]:
        """Excluded vectors all of whose strictly smaller vectors are members."""
        out = []
        for v in self.excluded_vectors():
            smaller = (
                tuple(x - 1 if i == j else x for j, x in enumerate(v))
                for i in range(self.ground_size)
                if v[i] > 0
            )
            if all(self.is_member(w) for w in smaller):
                out.append(v)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiscretePolymatroid)
            and self.ground_size == other.ground_size
            and bool(np.array_equal(self._table, other._table))
        )

    def __hash__(self) -> int:
        return hash((self.ground_size, self._table.tobytes()))

    def __repr__(self) -> str:
        return f"DiscretePolymatroid(r={self.ground_size}, rank={self.rank})"

    def to_json_dict(self) -> dict:
        return {"r": self.ground_size, "rank": [int(v) for v in self._table]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "DiscretePolymatroid":
        return cls(d["r"], d["rank"])


class SubspaceRepresentation:
    """One column-span generator block per ground element, over a shared field.

    Block i has rho({i}) columns; the concatenation of all blocks is the
    representing matrix.
    """

    __slots__ = ("q", "blocks")

    def __init__(self, q: int, blocks):
        blocks = tuple(blocks)
        if blocks:
            rows = blocks[0].rows
            for b in blocks:
                if b.q != q:
                    raise ValueError("all blocks must share the modulus")
                if b.rows != rows:
                    raise ValueError("all blocks must share the row count")
        self.q = q
        self.blocks = blocks

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(b.cols for b in self.blocks)

    def concatenated(self) -> FieldMatrix:
        if not self.blocks:
            return FieldMatrix.zeros(self.q, 0, 0)
        return concat_columns(self.blocks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubspaceRepresentation)
            and self.q == other.q
            and self.blocks == other.blocks
        )

    def __repr__(self) -> str:
        return f"SubspaceRepresentation(q={self.q}, widths={self.widths})"

    def to_json_dict(self) -> dict:
        return {"matrix": self.concatenated().to_json_dict(), "widths": list(self.widths)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "SubspaceRepresentation":
        mat = FieldMatrix.from_json_dict(d["matrix"])
        blocks = []
        at = 0
        for w in d["widths"]:
            blocks.append(mat.take_columns(range(at, at + w)))
            at += w
        return cls(mat.q, blocks)


def find_representation(
    dpm: DiscretePolymatroid, q: int, budget: int = 1 << 22
) -> SubspaceRepresentation | None:
    """Search for subspaces over GF(q) realizing the rank table of `dpm`.

    Certified verdict: returns the first representation in canonical order,
    or None after exhausting the canonicalized space.  For the
    lexicographically first basis vector b, the first b_i columns of each
    block are pinned to successive identity columns (sound by Rado's
    theorem plus the free left GL action and within-block column order);
    the remaining columns are depth-first enumerated with rank pruning.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    r = dpm.ground_size
    rows = dpm.rank
    if r > 4 or rows > 5:
        raise ValueError("representation search is limited to r <= 4, rank <= 5")
    caps = dpm.caps()
    table = dpm.rank_table()

    if rows == 0:
        return SubspaceRepresentation(q, [FieldMatrix.zeros(q, 0, 0) for _ in range(r)])

    b = dpm.basis_vectors()[0]
    # Column layout: (element, slot) pairs in block order; pinned ones first
    # within each block.
    layout: list[tuple[int, int]] = [(i, s) for i in range(r) for s in range(caps[i])]
    pinned: dict[tuple[int, int], np.ndarray] = {}
    next_unit = 0
    for i in range(r):
        for s in range(b[i]):
            col = np.zeros(rows, dtype=np.int64)
            col[next_unit] = 1
            pinned[(i, s)] = col
            next_unit += 1
    free = [key for key in layout if key not in pinned]
    values: dict[tuple[int, int], np.ndarray] = dict(pinned)

    spent = 0

    def block_columns(i: int) -> list[np.ndarray]:
        return [values[(i, s)] for s in range(caps[i]) if (i, s) in values]

    def prune_ok(touched_element: int) -> bool:
        # Placed columns span at most the final spans; equality is only
        # demanded once every block of the subset is complete.
        for mask in range(1, 1 << r):
            if not mask >> touched_element & 1:
                continue
            cols: list[np.ndarray] = []
            complete = True
            for i in _mask_elements(mask, r):
                got = block_columns(i)
                cols.extend(got)
                if len(got) < caps[i]:
                    complete = False
            got_rank = FieldMatrix(q, np.array(cols).T).rank() if cols else 0
            if got_rank > table[mask] or (complete and got_rank != table[mask]):
                return False
        return True

    def search(idx: int) -> SubspaceRepresentation | None:
        nonlocal spent
        if idx == len(free):
            blocks = [
                FieldMatrix(q, np.array(block_columns(i)).T)
                if caps[i]
                else FieldMatrix.zeros(q, rows, 0)
                for i in range(r)
            ]
            rep = SubspaceRepresentation(q, blocks)
            if DiscretePolymatroid.from_subspaces(rep) == dpm:
                return rep
            return None
        key = free[idx]
        for value in range(q**rows):
            spent += 1
            if spent > budget:
                raise SearchBudgetExceeded(f"budget of {budget} column assignments exhausted")
            col = np.zeros(rows, dtype=np.int64)
            v = value
            for pos in range(rows):
                col[pos] = v % q
                v //= q
            values[key] = col
            if prune_ok(key[0]):
                found = search(idx + 1)
                if found is not None:
                    return found
        del values[key]
        return None

    return search(0)
