"""Discrete polymatroids: integer rank tables, vector enumeration, representability.

A discrete polymatroid is carried by its rank function over all subsets of
the ground set, in the rank-table class it shares with `Matroid`, but
without the cardinality bound.  Vectors are enumerated over the box bounded
by the single-element ranks; each is tested in one subset-sum pass, and the
minimal excluded vectors are read from one set of the members.
"""

from __future__ import annotations

import itertools
import operator

from .gf import FieldMatrix, _check_modulus, _json_fields, concat_columns
from .matroid import Matroid, _RankTable, _check_budget, _search_representation, subset_ranks


class DiscretePolymatroid(_RankTable):
    """Discrete polymatroid on {0, ..., r-1} given by its full rank table."""

    __slots__ = ()
    _max_ground, _cardinality_bound, _size_key, _name = 10, False, "r", "polymatroid"

    @classmethod
    def from_matroid(cls, matroid: Matroid) -> "DiscretePolymatroid":
        """D(M): same rank table, independent sets become 0/1 member vectors."""
        return cls._of(matroid.ground_size, matroid._table)

    @classmethod
    def from_subspaces(cls, rep: "SubspaceRepresentation") -> "DiscretePolymatroid":
        """Rank of a subset = dimension of the sum of its blocks' column spans."""
        r = len(rep.blocks)
        cls._check_ground_size(r)  # before the walk over 2^r subsets
        return cls._of(r, subset_ranks([b.packed for b in rep.blocks], rep.q))

    def caps(self) -> tuple[int, ...]:
        """Componentwise box bound (rho({0}), ..., rho({r-1}))."""
        return tuple(self._table[1 << i] for i in range(self.ground_size))

    def scale(self, n: int) -> "DiscretePolymatroid":
        if type(n) is not int or n < 1:  # not isinstance: True is an int too
            raise ValueError(f"n must be a positive integer, got {n!r}")
        return DiscretePolymatroid._of(self.ground_size, [v * n for v in self._table])

    def is_member(self, vector) -> bool:
        """True iff sum(vector[A]) <= rho(A) for every subset A."""
        v = tuple(vector)
        if not set(map(type, v)) <= {int}:  # not int(x): it truncates 1.9 and takes "1" and True
            raise ValueError("vector entries must be integers")
        if len(v) != self.ground_size:
            raise ValueError("vector length must match ground set size")
        return min(v, default=0) >= 0 and self._fits(v)

    def _fits(self, v) -> bool:
        """is_member for a box vector: entry `mask` of `sums` is v(mask)."""
        sums = [0]
        for x in v:
            sums += [s + x for s in sums]
        return all(map(operator.le, sums, self._table))

    def _box(self):
        return itertools.product(*(range(c + 1) for c in self.caps()))

    def members(self) -> list[tuple[int, ...]]:
        return [v for v in self._box() if self._fits(v)]

    def basis_vectors(self) -> list[tuple[int, ...]]:
        """Maximal members; all share component sum rho(ground set)."""
        k = self.rank
        return [v for v in self._box() if sum(v) == k and self._fits(v)]

    def excluded_vectors(self) -> list[tuple[int, ...]]:
        """Vectors under the box bound that are not members."""
        return [v for v in self._box() if not self._fits(v)]

    def minimal_excluded_vectors(self) -> list[tuple[int, ...]]:
        """Excluded vectors all of whose strictly smaller vectors are members."""
        members = set(self.members())
        return [
            v
            for v in self.excluded_vectors()
            if all(v[:i] + (x - 1,) + v[i + 1 :] in members for i, x in enumerate(v) if x > 0)
        ]


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
        matrix, widths = _json_fields(d, "representation", "matrix", "widths")
        mat = FieldMatrix.from_json_dict(matrix)
        # not isinstance: True is an int too
        counts = type(widths) is list and all(type(w) is int and w >= 0 for w in widths)
        if not counts or sum(widths) != mat.cols:
            raise ValueError(f"widths must be non-negative integers that sum to the {mat.cols} matrix columns")
        blocks = []
        at = 0
        for w in widths:
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
    the remaining columns are filled in by the search shared with matroids.
    """
    _check_modulus(q)
    _check_budget(budget)
    r = dpm.ground_size
    rows = dpm.rank
    if r > 4 or rows > 5:
        raise ValueError("representation search is limited to r <= 4, rank <= 5")

    first = next(v for v in dpm._box() if sum(v) == rows and dpm._fits(v))
    found = _search_representation(dpm._table, dpm.caps(), first, q, rows, budget)
    if found is None:
        return None
    return SubspaceRepresentation(q, [FieldMatrix.from_packed(q, rows, cols) for cols in found])
