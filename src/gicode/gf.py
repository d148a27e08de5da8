"""Exact dense linear algebra over the prime fields GF(2), GF(3) and GF(5).

A matrix is an immutable value object that holds each column as one Python
integer, the `packed` layout: over GF(2) bit i is row i; over GF(3) and
GF(5) row i is the 16-bit lane at bits 16i .. 16i+15.  `_axpy` combines
lanes mod q on whole integers, reducing each lane before it can exceed
q(q-1), so no carry crosses a lane.  Every elimination, at every q, runs on
one basis keyed by top nonzero lane (the `span_*` functions): rank and span
tests directly, and `_relations`, the one elimination that carries
coordinates, by tagging each column with its index.  It returns the
relation of every column of [self | rhs] that lies in the span of those
before it: `solve_right` reads rhs's (and `invert` and `rref` go through
it), and `pullback` reads them all, a spanning set of the preimage of rhs's
span.  Row slicing and stacking work on lanes too: `take_rows`
shifts and masks one lane of each column per row, and `stack_rows` ORs
each block's columns in above the rows so far, so nothing transposes a
matrix: `to_rows` reads the rows off the unpacked columns in one pass.
`from_packed` checks every lane of a column at once: an odd-q lane holds
an entry below q iff its bits 3-15 are clear and adding 8 - q to it sets
none of them.  numpy is imported only by `FieldMatrix.array()`.
"""

from __future__ import annotations

import operator
import sys

SUPPORTED_MODULI = (2, 3, 5)

# x -> x^-1 mod q, index 0 unused.
_INVERSE = {q: tuple(pow(x, q - 2, q) if x else 0 for x in range(q)) for q in SUPPORTED_MODULI}

_LANE = {2: 1, 3: 16, 5: 16}  # bits per entry

# floor(x / q) == x * k >> s for every lane value 0 <= x <= q(q-1).
_DIVIDE = {3: (11, 5), 5: (13, 6)}

# bytes.translate tables: byte v -> v mod q (as an ASCII digit for q = 2), and back for q = 2.
_ENTRY = {q: bytes(v % q + 48 * (q == 2) for v in range(256)) for q in SUPPORTED_MODULI}
_DIGIT_BIT = bytes.maketrans(b"01", b"\x00\x01")


class LinearAlgebraError(Exception):
    pass


class SingularMatrixError(LinearAlgebraError):
    """Square matrix with rank below its size cannot be inverted."""


class NoSolutionError(LinearAlgebraError):
    """A·X = B is inconsistent: some column of B lies outside col-span(A)."""


def _check_modulus(q: int):
    # 3.0 == 3, but a float modulus would reach the integer lane arithmetic.
    if not isinstance(q, int) or q not in SUPPORTED_MODULI:
        raise ValueError(f"unsupported modulus {q!r}; expected one of {SUPPORTED_MODULI}")


def _check_count(n, name: str) -> None:
    """A row or column count is an int of at least 0; not operator.index, which takes JSON's true."""
    if type(n) is not int or n < 0:
        raise ValueError(f"{name} count must be a non-negative integer, got {n!r}")


def _json_fields(d, name: str, *keys) -> tuple:
    """The values of `keys` in the JSON object `d`; an error names the document and the key."""
    if type(d) is not dict:
        raise ValueError(f"{name} must be a JSON object")
    for key in keys:
        if key not in d:
            raise ValueError(f"{name} is missing the {key!r} key")
    return tuple(d[key] for key in keys)


def _grid(values) -> list[list]:
    try:
        return [list(v) for v in values]
    except TypeError:
        raise ValueError("matrix entries must form a two-dimensional grid") from None


def _pack(entries, q: int) -> int:
    """A list or tuple of integer entries, row 0 first, as a packed column."""
    try:
        raw = bytes(entries)  # only 0..255; floats and strings raise TypeError
    except (TypeError, ValueError):
        try:
            raw = bytes(operator.index(x) % q for x in entries)
        except TypeError:
            raise ValueError("matrix entries must be integers (exact arithmetic only)") from None
    raw = raw.translate(_ENTRY[q])
    if q == 2:
        return int(raw[::-1] or b"0", 2)
    lanes = bytearray(2 * len(raw))
    lanes[::2] = raw
    return int.from_bytes(lanes, "little")


def _unpack(v: int, q: int, n: int) -> bytes:
    """The n entries of a packed column, row 0 first."""
    if q == 2:
        return format(v, "b").zfill(n)[::-1].encode().translate(_DIGIT_BIT) if n else b""
    return v.to_bytes(2 * n, "little")[::2]


def _axpy(u: int, c: int, v: int, q: int) -> int:
    """u + c·v, entry by entry over GF(q), for 0 <= c < q."""
    if not c:
        return u
    if q == 2:
        return u ^ v
    x = u + c * v
    k, s = _DIVIDE[q]
    low = int.from_bytes(b"\x07\x00" * (x.bit_length() + 15 >> 4), "little")  # 3 bits per lane
    return x - q * (x * k >> s & low)


class FieldMatrix:
    """Dense matrix over GF(q), q in {2, 3, 5}; `packed` holds its columns, reduced mod q."""

    __slots__ = ("q", "rows", "cols", "packed")

    def __init__(self, q: int, entries):
        _check_modulus(q)
        cols = entries.shape[1] if getattr(entries, "ndim", 0) == 2 else -1  # numpy keeps it at 0 rows
        entries = _grid(entries.tolist() if hasattr(entries, "tolist") else entries)
        cols = len(entries[0]) if entries else cols
        if cols < 0 or any(len(row) != cols for row in entries):
            raise ValueError("matrix entries must form a two-dimensional grid")
        self.q, self.rows, self.cols = q, len(entries), cols
        self.packed = tuple(_pack(col, q) for col in zip(*entries)) if entries else (0,) * cols

    @classmethod
    def _of(cls, q: int, rows: int, packed) -> "FieldMatrix":
        """A matrix from packed columns already reduced mod q (no checks)."""
        mat = object.__new__(cls)
        mat.packed = tuple(packed)
        mat.q, mat.rows, mat.cols = q, rows, len(mat.packed)
        return mat

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_packed(cls, q: int, rows: int, packed) -> "FieldMatrix":
        """Build from packed columns, checking that each holds `rows` entries below q."""
        _check_modulus(q)
        _check_count(rows, "row")
        packed = tuple(packed)
        # An odd-q lane holds an entry below q iff its bits 3-15 are clear and adding 8 - q to it sets
        # none of them; no sum carries out of a clear lane.  A GF(2) column is every int below 2^rows.
        ones = int.from_bytes(b"\x01\x00" * rows, "little") if q != 2 and packed else 0
        high, lift = 0xFFF8 * ones, (8 - q) * ones
        for v in packed:
            if type(v) is not int or v < 0 or v >> _LANE[q] * rows or (v | v + lift) & high:
                raise ValueError(f"{v!r} is not a packed column of {rows} entries over GF({q})")
        return cls._of(q, rows, packed)

    @classmethod
    def zeros(cls, q: int, rows: int, cols: int) -> "FieldMatrix":
        _check_count(cols, "column")
        if cols > sys.maxsize:  # past any list: [0] * cols raises OverflowError
            raise ValueError(f"{cols} columns are more than a matrix can hold")
        return cls.from_packed(q, rows, [0] * cols)

    @classmethod
    def identity(cls, q: int, n: int) -> "FieldMatrix":
        _check_modulus(q)
        _check_count(n, "row")
        return cls.from_packed(q, n, [1 << _LANE[q] * i for i in range(n)])

    @classmethod
    def from_columns(cls, q: int, columns, rows: int | None = None) -> "FieldMatrix":
        """Build from a list of length-`rows` column vectors (column-major)."""
        _check_modulus(q)
        if rows is not None:
            _check_count(rows, "row")
        columns = _grid(columns)
        if not columns:
            if rows is None:
                raise ValueError("rows required for a matrix with no columns")
            return cls.zeros(q, rows, 0)
        rows = len(columns[0]) if rows is None else rows
        if any(len(c) != rows for c in columns):
            raise ValueError(f"every column must have {rows} entries")
        return cls._of(q, rows, [_pack(c, q) for c in columns])

    @classmethod
    def from_text(cls, q: int, text: str) -> "FieldMatrix":
        """Parse the text form ``1 0 1; 0 1 1`` (rows separated by ``;``)."""
        rows = [r.split() for r in text.split(";")]
        return cls(q, [[int(x) for x in row] for row in rows])

    # -- shape and access ----------------------------------------------------

    def array(self):
        """The entries as a read-only numpy int64 array (imports numpy)."""
        import numpy as np

        a = np.array(self.to_rows(), dtype=np.int64).reshape(self.rows, self.cols)
        a.setflags(write=False)
        return a

    def take_columns(self, indices) -> "FieldMatrix":
        return FieldMatrix._of(self.q, self.rows, [self.packed[j] for j in indices])

    def take_rows(self, indices) -> "FieldMatrix":
        """The rows at `indices`, a negative one counting from the end: row k of
        the result is lane `indices[k]` of each column, shifted to lane k."""
        w = _LANE[self.q]
        full = (1 << w) - 1
        moves = [(w * range(self.rows)[i], w * k) for k, i in enumerate(indices)]
        packed = [sum((v >> i & full) << k for i, k in moves) for v in self.packed]
        return FieldMatrix._of(self.q, len(moves), packed)

    # -- arithmetic ----------------------------------------------------------

    def _check_q(self, other: "FieldMatrix"):
        if self.q != other.q:
            raise ValueError(f"modulus mismatch: {self.q} vs {other.q}")

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check_q(other)
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        packed = [combine(self.packed, v, self.q) for v in other.packed]
        return FieldMatrix._of(self.q, self.rows, packed)

    def _plus(self, c: int, other: "FieldMatrix") -> "FieldMatrix":
        """self + c·other."""
        self._check_q(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        packed = [_axpy(a, c, b, self.q) for a, b in zip(self.packed, other.packed)]
        return FieldMatrix._of(self.q, self.rows, packed)

    def __add__(self, other: "FieldMatrix") -> "FieldMatrix":
        return self._plus(1, other)

    def __sub__(self, other: "FieldMatrix") -> "FieldMatrix":
        return self._plus(self.q - 1, other)

    def __eq__(self, other) -> bool:
        key = (self.q, self.rows, self.packed)
        return isinstance(other, FieldMatrix) and key == (other.q, other.rows, other.packed)

    def __hash__(self) -> int:
        # Hashed on each use; gicode's own grouping keys matrices by `packed`.
        return hash((self.q, self.rows, self.packed))

    def __repr__(self) -> str:
        return f'FieldMatrix({self.q}, "{self.to_text()}")'

    # -- elimination ---------------------------------------------------------

    def rref(self) -> tuple["FieldMatrix", tuple[int, ...]]:
        """Reduced row-echelon form R and its pivot columns piv, the columns outside the span of
        those before them: self = self[:, piv]·R, and R is zero below row len(piv)."""
        pivots: dict[int, int] = {}
        piv = tuple(j for j, v in enumerate(self.packed) if span_insert(v, pivots, self.q) >= 0)
        return FieldMatrix._of(self.q, self.rows, self.take_columns(piv).solve_right(self).packed), piv

    def rank(self) -> int:
        return packed_rank(self.packed, self.q)

    def invert(self) -> "FieldMatrix":
        """Exact inverse; raises SingularMatrixError when rank < rows."""
        if self.rows != self.cols:
            raise ValueError("only square matrices can be inverted")
        try:
            return self.solve_right(FieldMatrix.identity(self.q, self.rows))
        except NoSolutionError:
            raise SingularMatrixError(f"rank {self.rank()} < {self.rows}") from None

    def _relations(self, rhs: "FieldMatrix") -> list[int | None]:
        """The one elimination that carries coordinates, over the columns of [self | rhs].

        Per column: None when it lies outside the span of the columns before
        it, else its relation x, packed over self's columns: self·x is the
        column for a column of rhs and 0 for a column of self (x holds -1 at
        its index), modulo the span of rhs's earlier columns.  Column j of
        self goes in as `entries << shift | (q - 1) << lane·j`, tagged -1,
        and a column of rhs as `entries << shift`, so every basis vector
        carries, in the tag lanes below its entries, minus its combination of
        self's columns.  Only columns outside the span of those before them
        join the basis, so no key lies in the tag lanes and a reduction stops
        once the entries are zero; the tag lanes then hold x.
        """
        self._check_q(rhs)
        if self.rows != rhs.rows:
            raise ValueError("row count mismatch")
        q, w = self.q, _LANE[self.q]
        shift = w * self.cols
        pivots: dict[int, int] = {}
        out: list[int | None] = []
        tagged = [c << shift | (q - 1) << w * j for j, c in enumerate(self.packed)]
        for v in tagged + [c << shift for c in rhs.packed]:
            r = span_reduce(v, pivots, q)
            if r >> shift:
                span_insert(r, pivots, q)
                out.append(None)
            else:
                out.append(r)
        return out

    def solve_right(self, rhs: "FieldMatrix") -> "FieldMatrix":
        """Any X with self·X = rhs, free variables pinned to zero.

        Raises NoSolutionError when a column of rhs is outside the span.
        X's columns are the relations of rhs's columns (`_relations`): when
        every one of them exists, no column of rhs joined the basis, so each
        is exact.
        """
        coords = self._relations(rhs)[self.cols :]
        if None in coords:
            raise NoSolutionError("right-hand side not in column span")
        return FieldMatrix._of(self.q, self.cols, coords)

    def pullback(self, rhs: "FieldMatrix") -> "FieldMatrix":
        """Columns spanning {x : self·x in col-span(rhs)}: every relation of `_relations`.

        Each relation is a kernel vector of [self | rhs] read on self's
        coordinates, one per dependent column, so together they span the
        kernel's image there, which is this space.  For the identity the
        result is exactly rhs, and for an invertible self exactly self^-1·rhs.
        """
        return FieldMatrix._of(self.q, self.cols, [x for x in self._relations(rhs) if x is not None])

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        return "; ".join(" ".join(map(str, row)) for row in self.to_rows())

    def to_rows(self) -> list[list[int]]:
        rows = zip(*(_unpack(v, self.q, self.rows) for v in self.packed))
        return [list(row) for row in rows] or [[] for _ in range(self.rows)]  # no columns: empty rows

    def to_columns(self) -> list[list[int]]:
        return [list(_unpack(v, self.q, self.rows)) for v in self.packed]

    def to_json_dict(self) -> dict:
        d = {"q": self.q, "rows": self.to_rows()}
        if self.rows == 0:
            d["cols"] = self.cols
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "FieldMatrix":
        q, rows = _json_fields(d, "matrix", "q", "rows")
        if not rows:
            return cls.zeros(q, 0, d.get("cols", 0))
        return cls(q, rows)


def concat_columns(mats) -> FieldMatrix:
    """Concatenate matrices side by side (shared row count and modulus)."""
    mats = list(mats)
    if not mats or any((m.q, m.rows) != (mats[0].q, mats[0].rows) for m in mats):
        raise ValueError("need matrices that share the modulus and line up")
    return FieldMatrix._of(mats[0].q, mats[0].rows, [v for m in mats for v in m.packed])


def stack_rows(mats) -> FieldMatrix:
    """Stack matrices vertically (shared column count and modulus): each block's
    columns go in shifted past the lanes of the rows above it."""
    mats = list(mats)
    if not mats or any((m.q, m.cols) != (mats[0].q, mats[0].cols) for m in mats):
        raise ValueError("need matrices that share the modulus and line up")
    w, rows, packed = _LANE[mats[0].q], 0, [0] * mats[0].cols
    for m in mats:
        packed = [u | v << w * rows for u, v in zip(packed, m.packed)]
        rows += m.rows
    return FieldMatrix._of(mats[0].q, rows, packed)


def in_column_span(basis: FieldMatrix, target: FieldMatrix) -> bool:
    """True iff every column of `target` lies in the column span of `basis`."""
    return concat_columns([basis, target]).rank() == basis.rank()


# -- elimination basis -------------------------------------------------------
#
# An elimination basis is a dict {top nonzero lane: vector}, each vector
# scaled so that its entry in that lane is 1.  Inserting a vector never
# changes the entries already there, so a caller can extend a basis and undo
# the extension by deleting the keys it added.  Over GF(2) a lane is one bit
# and reducing is XOR, which `span_reduce`, `span_insert` and `span_basis`
# take directly (`span_basis` inlines `span_insert`'s): most rank and span
# tests are binary, and the lane arithmetic would double their cost.
# `span_key` also reduces the basis, each vector zero in every other's top
# lane, which makes it unique to the span: a dict key for the space.  It runs
# one lane loop at every q, since `mu` keys only the few spaces that can set
# its bound.


def span_reduce(vec: int, pivots: dict[int, int], q: int) -> int:
    """vec minus basis vectors until its top lane holds no pivot; 0 iff vec is in the span."""
    if q == 2:
        while vec:
            row = pivots.get(vec.bit_length() - 1)
            if row is None:
                return vec
            vec ^= row
        return 0
    w = _LANE[q]
    while vec:
        top = (vec.bit_length() - 1) // w
        row = pivots.get(top)
        if row is None:
            return vec
        vec = _axpy(vec, q - (vec >> w * top), row, q)
    return 0


def span_insert(vec: int, pivots: dict[int, int], q: int) -> int:
    """Add vec to the basis; returns the key it was added under, or -1 when it was already in the span."""
    if q == 2:
        while vec:
            top = vec.bit_length() - 1
            row = pivots.get(top)
            if row is None:
                pivots[top] = vec
                return top
            vec ^= row
        return -1
    vec = span_reduce(vec, pivots, q)
    if not vec:
        return -1
    w = _LANE[q]
    top = (vec.bit_length() - 1) // w
    pivots[top] = _axpy(0, _INVERSE[q][vec >> w * top], vec, q)
    return top


def span_basis(vectors, q: int, pivots: dict[int, int] | None = None) -> dict[int, int]:
    """Elimination basis of the span of packed vectors, extending `pivots` in place if given."""
    pivots = {} if pivots is None else pivots
    if q == 2:  # span_insert's binary loop, without a call per vector
        get = pivots.get
        for vec in vectors:
            while vec:
                top = vec.bit_length() - 1
                row = get(top)
                if row is None:
                    pivots[top] = vec
                    break
                vec ^= row
        return pivots
    for v in vectors:
        span_insert(v, pivots, q)
    return pivots


def packed_rank(vectors, q: int) -> int:
    """Dimension of the span of packed vectors."""
    return len(span_basis(vectors, q))


def span_key(vectors, q: int) -> tuple[tuple[int, ...], dict[int, int]]:
    """The span of packed vectors as (key, basis): `basis` is its elimination basis and `key` the
    reduced echelon basis, ascending by top lane, so equal spans give equal keys.

    Pivots are taken in ascending order of top lane.  The reduced vectors
    below a pivot are zero in its top lane and in each other's, so clearing
    a lower pivot's lane from v changes no other lower pivot's lane: each
    nonzero lane of v & done, highest first, is cleared by one `_axpy`, and
    the list stays reduced.  At q = 2 that `_axpy` is one XOR.
    """
    pivots = span_basis(vectors, q)
    w = _LANE[q]
    full = (1 << w) - 1
    done, reduced = 0, {}  # done: the lanes of the pivots reduced so far
    for top in sorted(pivots):
        v = pivots[top]
        low = v & done
        while low:
            t = (low.bit_length() - 1) // w
            v = _axpy(v, q - (v >> w * t & full), reduced[t], q)
            low &= (1 << w * t) - 1
        reduced[top] = v
        done |= full << w * top
    return tuple(reduced.values()), pivots


def span_support(vectors, q: int) -> int:
    """The rows where some vector of the span is nonzero, one bit at the bottom of each such lane:
    the OR of the vectors, each nonzero lane collapsed to 1 at odd q.  Equal spans have equal supports."""
    out = 0
    for v in vectors:
        out |= v
    if q == 2 or not out:
        return out
    # A reduced lane holds at most 4, in its low 3 bits.
    return (out | out >> 1 | out >> 2) & int.from_bytes(b"\x01\x00" * (out.bit_length() + 15 >> 4), "little")


def combine(cols, v: int, q: int) -> int:
    """The product of the matrix with packed columns `cols` and the packed column v."""
    out = 0
    if q == 2:
        while v:
            low = v & -v
            out ^= cols[low.bit_length() - 1]
            v ^= low
        return out
    for c, col in zip(_unpack(v, q, len(cols)), cols):
        out = _axpy(out, c, col, q)
    return out
