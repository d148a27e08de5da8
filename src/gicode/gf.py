"""Exact dense linear algebra over the prime fields GF(2), GF(3) and GF(5).

All matrices are immutable value objects backed by small integer numpy
arrays reduced mod q.  Rank and span tests over GF(2) pack each column into
one Python integer (bit i = row i) and eliminate with XOR on a basis keyed
by top set bit; numpy elimination (`_rref_inplace`) is used for rank and
span only at q in {3, 5}, and for `rref`, `invert` and `solve_right`, whose
deterministic pivoting (first nonzero entry in row-major scan) keeps
solutions and canonical forms reproducible across runs and platforms.
"""

from __future__ import annotations

import numpy as np

SUPPORTED_MODULI = (2, 3, 5)

# x -> x^-1 mod q, index 0 unused.
_INVERSE = {q: tuple(pow(x, q - 2, q) if x else 0 for x in range(q)) for q in SUPPORTED_MODULI}


class LinearAlgebraError(Exception):
    pass


class SingularMatrixError(LinearAlgebraError):
    """Square matrix with rank below its size cannot be inverted."""


class NoSolutionError(LinearAlgebraError):
    """A·X = B is inconsistent: some column of B lies outside col-span(A)."""


class FieldMatrix:
    """Dense matrix over GF(q), q in {2, 3, 5}.

    Entries are stored reduced mod q and the backing array is frozen;
    every operation returns a fresh matrix.
    """

    __slots__ = ("q", "_a")

    def __init__(self, q: int, entries):
        if q not in SUPPORTED_MODULI:
            raise ValueError(f"unsupported modulus {q}; expected one of {SUPPORTED_MODULI}")
        raw = np.asarray(entries)
        if raw.size and raw.dtype.kind not in "iu":
            raise ValueError("matrix entries must be integers (exact arithmetic only)")
        a = np.array(raw, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError("matrix entries must form a two-dimensional grid")
        a %= q
        a.setflags(write=False)
        self.q = q
        self._a = a

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zeros(cls, q: int, rows: int, cols: int) -> "FieldMatrix":
        return cls(q, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, q: int, n: int) -> "FieldMatrix":
        return cls(q, np.eye(n, dtype=np.int64))

    @classmethod
    def from_columns(cls, q: int, columns, rows: int | None = None) -> "FieldMatrix":
        """Build from a list of length-`rows` column vectors (column-major)."""
        columns = [list(c) for c in columns]
        if not columns:
            if rows is None:
                raise ValueError("rows required for a matrix with no columns")
            return cls.zeros(q, rows, 0)
        a = np.array(columns, dtype=np.int64).T
        if rows is not None and a.shape[0] != rows:
            raise ValueError(f"columns have {a.shape[0]} entries, expected {rows}")
        return cls(q, a)

    @classmethod
    def from_text(cls, q: int, text: str) -> "FieldMatrix":
        """Parse the text form ``1 0 1; 0 1 1`` (rows separated by ``;``)."""
        rows = [r.split() for r in text.split(";")]
        return cls(q, [[int(x) for x in row] for row in rows])

    # -- shape and access ----------------------------------------------------

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    def entry(self, i: int, j: int) -> int:
        return int(self._a[i, j])

    def array(self) -> np.ndarray:
        """Read-only view of the backing array."""
        return self._a

    def column(self, j: int) -> "FieldMatrix":
        return FieldMatrix(self.q, self._a[:, j : j + 1])

    def take_columns(self, indices) -> "FieldMatrix":
        indices = list(indices)
        return FieldMatrix(self.q, self._a[:, indices].reshape(self.rows, len(indices)))

    def take_rows(self, indices) -> "FieldMatrix":
        indices = list(indices)
        return FieldMatrix(self.q, self._a[indices, :].reshape(len(indices), self.cols))

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(self.q, self._a.T)

    # -- arithmetic ----------------------------------------------------------

    def _check_q(self, other: "FieldMatrix"):
        if self.q != other.q:
            raise ValueError(f"modulus mismatch: {self.q} vs {other.q}")

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check_q(other)
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return FieldMatrix(self.q, (self._a @ other._a) % self.q)

    def __add__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check_q(other)
        if self._a.shape != other._a.shape:
            raise ValueError("shape mismatch")
        return FieldMatrix(self.q, self._a + other._a)

    def __sub__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check_q(other)
        if self._a.shape != other._a.shape:
            raise ValueError("shape mismatch")
        return FieldMatrix(self.q, self._a - other._a)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and self.q == other.q
            and self._a.shape == other._a.shape
            and bool(np.array_equal(self._a, other._a))
        )

    def __hash__(self) -> int:
        return hash((self.q, self._a.shape, self._a.tobytes()))

    def __repr__(self) -> str:
        return f'FieldMatrix({self.q}, "{self.to_text()}")'

    # -- elimination ---------------------------------------------------------

    def rref(self) -> tuple["FieldMatrix", tuple[int, ...]]:
        """Reduced row-echelon form and its pivot columns."""
        a = self._a.copy()
        piv = _rref_inplace(a, self.q)
        return FieldMatrix(self.q, a), tuple(piv)

    def rank(self) -> int:
        if self.q == 2:
            return bits_rank(column_bits(self))
        a = self._a.copy()
        return len(_rref_inplace(a, self.q))

    def invert(self) -> "FieldMatrix":
        """Exact inverse; raises SingularMatrixError when rank < rows."""
        if self.rows != self.cols:
            raise ValueError("only square matrices can be inverted")
        n = self.rows
        aug = np.concatenate([self._a, np.eye(n, dtype=np.int64)], axis=1)
        piv = _rref_inplace(aug, self.q, pivot_limit=n)
        if len(piv) < n:
            raise SingularMatrixError(f"rank {len(piv)} < {n}")
        return FieldMatrix(self.q, aug[:, n:])

    def solve_right(self, rhs: "FieldMatrix") -> "FieldMatrix":
        """Any X with self·X = rhs, free variables pinned to zero.

        The solution is deterministic: pivots are chosen first-nonzero in
        row-major order and non-pivot columns contribute nothing.
        Raises NoSolutionError when a column of rhs is outside the span.
        """
        self._check_q(rhs)
        if self.rows != rhs.rows:
            raise ValueError("row count mismatch")
        n = self.cols
        aug = np.concatenate([self._a, rhs._a], axis=1)
        piv = _rref_inplace(aug, self.q)
        if any(p >= n for p in piv):
            raise NoSolutionError("right-hand side not in column span")
        x = np.zeros((n, rhs.cols), dtype=np.int64)
        for row, col in enumerate(piv):
            x[col, :] = aug[row, n:]
        return FieldMatrix(self.q, x)

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        return "; ".join(" ".join(str(int(v)) for v in row) for row in self._a)

    def to_rows(self) -> list[list[int]]:
        return [[int(v) for v in row] for row in self._a]

    def to_columns(self) -> list[list[int]]:
        return [[int(v) for v in self._a[:, j]] for j in range(self.cols)]

    def to_json_dict(self) -> dict:
        d = {"q": self.q, "rows": self.to_rows()}
        if self.rows == 0:
            d["cols"] = self.cols
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "FieldMatrix":
        rows = d["rows"]
        if not rows:
            return cls.zeros(d["q"], 0, d.get("cols", 0))
        return cls(d["q"], rows)


def _rref_inplace(a: np.ndarray, q: int, pivot_limit: int | None = None) -> list[int]:
    """Reduce `a` to RREF in place; returns pivot column indices.

    Pivots are searched only in the first `pivot_limit` columns (row
    operations still span the full width), which keeps augmented blocks
    passive.
    """
    m, n = a.shape
    inv = _INVERSE[q]
    piv: list[int] = []
    r = 0
    for c in range(n if pivot_limit is None else pivot_limit):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        if a[r, c] != 1:
            a[r] = a[r] * inv[a[r, c]] % q
        col = a[:, c].copy()
        col[r] = 0
        if np.any(col):
            a -= np.outer(col, a[r])
            a %= q
        piv.append(c)
        r += 1
    return piv


def concat_columns(mats) -> FieldMatrix:
    """Concatenate matrices side by side (shared row count and modulus)."""
    mats = list(mats)
    if not mats:
        raise ValueError("nothing to concatenate")
    q = mats[0].q
    rows = mats[0].rows
    for m in mats[1:]:
        if m.q != q or m.rows != rows:
            raise ValueError("matrices must share modulus and row count")
    return FieldMatrix(q, np.concatenate([m.array() for m in mats], axis=1))


def stack_rows(mats) -> FieldMatrix:
    """Stack matrices vertically (shared column count and modulus)."""
    mats = list(mats)
    if not mats:
        raise ValueError("nothing to stack")
    q = mats[0].q
    cols = mats[0].cols
    for m in mats[1:]:
        if m.q != q or m.cols != cols:
            raise ValueError("matrices must share modulus and column count")
    return FieldMatrix(q, np.concatenate([m.array() for m in mats], axis=0))


def rank(mat: FieldMatrix) -> int:
    """Dimension of the column space."""
    return mat.rank()


def in_column_span(basis: FieldMatrix, target: FieldMatrix) -> bool:
    """True iff every column of `target` lies in the column span of `basis`."""
    if basis.q != target.q:
        raise ValueError("modulus mismatch")
    if basis.rows != target.rows:
        raise ValueError("row count mismatch")
    if basis.q == 2:
        pivots = bits_basis(column_bits(basis))
        return all(bits_reduce(v, pivots) == 0 for v in column_bits(target))
    aug = np.concatenate([basis.array(), target.array()], axis=1)
    piv = _rref_inplace(aug, basis.q)
    return all(p < basis.cols for p in piv)


# -- packed GF(2) columns ----------------------------------------------------
#
# Columns of a binary matrix as Python integers (bit i = row i).  An
# elimination basis is a dict {top set bit: vector}; inserting a vector
# never changes the entries already there, so a caller can extend a basis
# and undo the extension by deleting the keys it added.


_ROW_BITS = 1 << np.arange(62, dtype=np.int64)


def column_bits(mat: FieldMatrix) -> list[int]:
    """Each column as an integer, bit i = row i.

    Up to 62 rows every packed column fits in an int64, so one product with
    the powers of two packs them all; taller matrices go through packbits.
    """
    if mat.q != 2:
        raise ValueError("packed columns require q = 2")
    a = mat.array()
    rows = a.shape[0]
    if rows <= 62:
        return (a.T @ _ROW_BITS[:rows]).tolist()
    packed = np.packbits(a.T.astype(np.uint8), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def bits_reduce(vec: int, pivots: dict[int, int]) -> int:
    """Reduce vec against an elimination basis keyed by top set bit."""
    while vec:
        top = vec.bit_length() - 1
        row = pivots.get(top)
        if row is None:
            return vec
        vec ^= row
    return 0


def bits_insert(vec: int, pivots: dict[int, int]) -> bool:
    """Add vec to the basis; returns False when it was already in the span."""
    vec = bits_reduce(vec, pivots)
    if vec == 0:
        return False
    pivots[vec.bit_length() - 1] = vec
    return True


def bits_basis(vectors, pivots: dict[int, int] | None = None) -> dict[int, int]:
    """Elimination basis of the span of `vectors`, extending `pivots` in place if given."""
    pivots = {} if pivots is None else pivots
    for v in vectors:
        bits_insert(v, pivots)
    return pivots


def bits_rank(vectors) -> int:
    return len(bits_basis(vectors))


def bits_in_span(target: int, vectors) -> bool:
    return bits_reduce(target, bits_basis(vectors)) == 0


def bits_reduced_basis(vectors) -> tuple[int, ...]:
    """The fully reduced echelon basis of the span, ascending.

    Each vector's top bit is set in no other basis vector, which makes the
    basis unique to the span: equal spans give equal tuples.
    """
    out: list[int] = []
    for _, v in sorted(bits_basis(vectors).items()):
        # Lower vectors never hold a higher top bit, so clearing the lower
        # tops from v keeps the whole list reduced.
        for w in out:
            if v >> (w.bit_length() - 1) & 1:
                v ^= w
        out.append(v)
    return tuple(out)


def bits_combine(cols: list[int], v: int) -> int:
    """XOR of cols[j] over the set bits j of v: the product of a matrix with a column."""
    out = 0
    while v:
        low = v & -v
        out ^= cols[low.bit_length() - 1]
        v ^= low
    return out


def bits_subset_ranks(groups) -> list[int]:
    """Rank of the union of every subset of `groups` (lists of packed columns).

    Entry `mask` covers the groups whose bit is set.  A depth-first walk
    over subsets extends its parent's basis by one group per node and undoes
    the extension on the way back, so the 2^len(groups) ranks cost one group
    insertion each and the walk keeps a single basis.
    """
    m = len(groups)
    table = [0] * (1 << m)
    pivots: dict[int, int] = {}

    def extend(mask: int, start: int):
        for e in range(start, m):
            added = []
            for v in groups[e]:
                v = bits_reduce(v, pivots)
                if v:
                    top = v.bit_length() - 1
                    pivots[top] = v
                    added.append(top)
            child = mask | 1 << e
            table[child] = len(pivots)
            if e + 1 < m:
                extend(child, e + 1)
            for top in added:
                del pivots[top]

    extend(0, 0)
    return table
