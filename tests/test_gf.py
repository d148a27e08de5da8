"""Field matrix unit tests: frozen examples plus randomized properties."""

import ast
import itertools
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import gicode
from gicode.gf import (
    _LANE,
    FieldMatrix,
    NoSolutionError,
    SingularMatrixError,
    _axpy,
    concat_columns,
    in_column_span,
    packed_rank,
    span_basis,
    span_insert,
    span_key,
    span_reduce,
    span_support,
    stack_rows,
)
from gicode.instances import HAMMING_G_ROWS
from test_packed import _dense_in_span, _dense_rank, _invertible

# eg1 data: the 5x3 code matrix, receiver-5 knowledge and demand.
L_ROWS = [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]]
K5_COLS = [[0, 1, 0, 0, 0], [1, 0, 1, 0, 0]]
D5_COL = [0, 0, 1, 1, 1]


def _random_matrix(rng, q, rows, cols):
    return FieldMatrix(q, rng.integers(0, q, size=(rows, cols)))


def test_rank_examples():
    assert FieldMatrix(2, L_ROWS).rank() == 3  # disjoint column supports
    assert FieldMatrix.zeros(3, 4, 6).rank() == 0
    assert FieldMatrix(2, HAMMING_G_ROWS).rank() == 4


def test_rank_degenerate_shapes():
    assert FieldMatrix.zeros(2, 0, 5).rank() == 0
    assert FieldMatrix.zeros(2, 5, 0).rank() == 0


def test_in_column_span_examples():
    k5 = FieldMatrix.from_columns(2, K5_COLS)
    code = FieldMatrix(2, L_ROWS)
    d5 = FieldMatrix.from_columns(2, [D5_COL])
    assert in_column_span(concat_columns([k5, code]), d5)
    assert in_column_span(FieldMatrix.identity(2, 5), d5)
    zero_col = FieldMatrix.zeros(2, 3, 1)
    e1 = FieldMatrix.from_columns(2, [[1, 0, 0]])
    assert not in_column_span(zero_col, e1)


def test_in_column_span_shape_errors():
    with pytest.raises(ValueError):
        in_column_span(FieldMatrix.identity(2, 3), FieldMatrix.identity(2, 4))
    with pytest.raises(ValueError):
        in_column_span(FieldMatrix.identity(2, 3), FieldMatrix.identity(3, 3))


def test_invert_examples():
    eye = FieldMatrix.identity(2, 4)
    assert eye.invert() == eye
    m = FieldMatrix(2, [[1, 1], [0, 1]])
    assert m.invert() == m  # self-inverse over GF(2)
    assert m @ m.invert() == FieldMatrix.identity(2, 2)
    with pytest.raises(SingularMatrixError):
        FieldMatrix(2, [[1, 1], [1, 1]]).invert()
    with pytest.raises(ValueError):
        FieldMatrix.zeros(2, 2, 3).invert()


def test_solve_right_examples():
    eye = FieldMatrix.identity(3, 4)
    b = FieldMatrix(3, [[1, 2], [0, 1], [2, 2], [1, 0]])
    assert eye.solve_right(b) == b

    # eg1 receiver 5: [K5 | L] X = D5, checked by the product oracle.
    a = concat_columns([FieldMatrix.from_columns(2, K5_COLS), FieldMatrix(2, L_ROWS)])
    d5 = FieldMatrix.from_columns(2, [D5_COL])
    x = a.solve_right(d5)
    assert a @ x == d5

    with pytest.raises(NoSolutionError):
        FieldMatrix.zeros(2, 3, 2).solve_right(FieldMatrix.from_columns(2, [[1, 0, 0]]))


def test_solve_right_deterministic_free_variables():
    # Column 2 = column 1, so the solution must not touch the free column.
    a = FieldMatrix(2, [[1, 1], [0, 0]])
    b = FieldMatrix.from_columns(2, [[1, 0]])
    x = a.solve_right(b)
    assert x.to_columns() == [[1, 0]]


def _dense_preimage(a: np.ndarray, b: np.ndarray, q: int) -> dict:
    """Every x in GF(q)^n, mapped to whether a·x lies in col-span(b), by enumeration."""
    points = itertools.product(range(q), repeat=a.shape[1])
    return {x: _dense_in_span(b, (a @ np.array(x, dtype=np.int64) % q)[:, None], q) for x in points}


@pytest.mark.parametrize("q", [2, 3, 5])
def test_pullback_matches_the_dense_preimage(q):
    # pullback(b) spans {x : a·x in col-span(b)} whatever a's rank: point by
    # point against enumeration, with invertible, singular and zero a.  For
    # the identity it is b itself, and for an invertible a exactly a^-1·b.
    rng = np.random.default_rng(31 + q)
    kinds = Counter()
    for trial in range(40):
        n = int(rng.integers(2, 5 if q < 5 else 4))
        kind = ("invertible", "singular", "zero", "identity")[trial % 4]
        if kind == "invertible":
            a = _invertible(rng, n, q)
        elif kind == "singular":
            rank = int(rng.integers(1, n))
            a = rng.integers(0, q, size=(n, rank)) @ rng.integers(0, q, size=(rank, n)) % q
        elif kind == "identity":
            a = np.eye(n, dtype=np.int64)
        else:
            a = np.zeros((n, n), dtype=np.int64)
        b = rng.integers(0, q, size=(n, int(rng.integers(0, 4))))
        mat, rhs = FieldMatrix(q, a), FieldMatrix(q, b)
        got = mat.pullback(rhs)
        assert (got.q, got.rows) == (q, n)
        spanned = got.array()
        for x, inside in _dense_preimage(a, b, q).items():
            assert _dense_in_span(spanned, np.array(x, dtype=np.int64)[:, None], q) == inside, (a, b, x)
        rank = _dense_rank(a, q)
        if rank == n:
            assert got == mat.invert() @ rhs == mat.solve_right(rhs)
        if kind == "identity":
            assert got == rhs
        kinds["identity" if kind == "identity" else "zero" if not rank else "invertible" if rank == n else "singular"] += 1
    assert min(kinds.values()) >= 6 and len(kinds) == 4


@pytest.mark.parametrize("q", [2, 3, 5])
def test_rank_transpose_property(q):
    rng = np.random.default_rng(7)
    for _ in range(40):
        m = _random_matrix(rng, q, rng.integers(1, 7), rng.integers(1, 7))
        assert m.rank() == m.transpose().rank()


@pytest.mark.parametrize("q", [2, 3, 5])
def test_span_iff_solve_property(q):
    rng = np.random.default_rng(11)
    for _ in range(60):
        a = _random_matrix(rng, q, rng.integers(1, 6), rng.integers(1, 6))
        b = _random_matrix(rng, q, a.rows, rng.integers(1, 4))
        expected = in_column_span(a, b)
        try:
            x = a.solve_right(b)
            assert a @ x == b
            solved = True
        except NoSolutionError:
            solved = False
        assert solved == expected


@pytest.mark.parametrize("q", [2, 3, 5])
def test_invert_iff_full_rank_property(q):
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        m = _random_matrix(rng, q, n, n)
        try:
            inv = m.invert()
            assert inv @ m == FieldMatrix.identity(q, n)
            assert m.rank() == n
        except SingularMatrixError:
            assert m.rank() < n


@pytest.mark.parametrize("q", [2, 3, 5])
def test_rank_subadditive_under_concatenation(q):
    rng = np.random.default_rng(17)
    for _ in range(40):
        rows = int(rng.integers(1, 6))
        a = _random_matrix(rng, q, rows, rng.integers(1, 5))
        b = _random_matrix(rng, q, rows, rng.integers(1, 5))
        assert concat_columns([a, b]).rank() <= a.rank() + b.rank()


def test_arithmetic_is_exact_mod_q():
    a = FieldMatrix(5, [[4, 3], [2, 1]])
    b = FieldMatrix(5, [[1, 1], [1, 1]])
    assert (a + b).to_rows() == [[0, 4], [3, 2]]
    assert (a - b).to_rows() == [[3, 2], [1, 0]]
    assert (a @ b).to_rows() == [[2, 2], [3, 3]]


def test_unsupported_modulus_rejected():
    with pytest.raises(ValueError):
        FieldMatrix(4, [[1]])
    with pytest.raises(ValueError):
        FieldMatrix(7, [[1]])
    with pytest.raises(ValueError):
        FieldMatrix(3.0, [[1]])  # equal to 3, but not an int


def test_text_and_json_round_trip():
    m = FieldMatrix(3, [[1, 0, 2], [0, 1, 1]])
    assert m.to_text() == "1 0 2; 0 1 1"
    assert FieldMatrix.from_text(3, m.to_text()) == m
    assert FieldMatrix.from_json_dict(m.to_json_dict()) == m
    empty = FieldMatrix.zeros(2, 0, 3)
    assert FieldMatrix.from_json_dict(empty.to_json_dict()) == empty


def test_from_columns_and_back():
    m = FieldMatrix.from_columns(2, [[1, 0], [1, 1]])
    assert m.to_rows() == [[1, 1], [0, 1]]
    assert m.to_columns() == [[1, 0], [1, 1]]
    assert FieldMatrix.from_columns(2, [], rows=4).cols == 0
    with pytest.raises(ValueError):
        FieldMatrix.from_columns(2, [[1, 0]], rows=3)


def test_stack_rows_and_take():
    top = FieldMatrix(2, [[1, 0]])
    bottom = FieldMatrix.identity(2, 2)
    stacked = stack_rows([top, bottom])
    assert stacked.to_rows() == [[1, 0], [1, 0], [0, 1]]
    assert stacked.take_rows([1, 2]) == bottom
    assert stacked.take_columns([1]).to_columns() == [[0, 0, 1]]


def test_take_with_zero_size_selections():
    empty_rows = FieldMatrix.zeros(2, 0, 3)
    assert empty_rows.take_columns([0, 2]) == FieldMatrix.zeros(2, 0, 2)
    assert empty_rows.take_columns([]) == FieldMatrix.zeros(2, 0, 0)
    assert empty_rows.take_rows([]) == empty_rows
    m = FieldMatrix.identity(3, 3)
    assert m.take_columns([]) == FieldMatrix.zeros(3, 3, 0)
    assert m.take_rows([]) == FieldMatrix.zeros(3, 0, 3)
    assert FieldMatrix.zeros(5, 2, 0).take_rows([1]) == FieldMatrix.zeros(5, 1, 0)


def _reference_take_rows(m, indices):
    return m.transpose().take_columns(indices).transpose()


def _reference_stack_rows(mats):
    return concat_columns([m.transpose() for m in mats]).transpose()


@pytest.mark.parametrize("q", [2, 3, 5])
def test_row_ops_match_the_transpose_reference(q):
    # take_rows and stack_rows move lanes instead of transposing; the
    # transpose route they replaced is the reference.
    rng = np.random.default_rng(q)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), *(tuple(int(n) for n in rng.integers(1, 9, size=2)) for _ in range(30))]
    for rows, cols in shapes:
        m = _random_matrix(rng, q, rows, cols)
        if rows:
            picks = [
                [int(i) for i in rng.integers(0, rows, size=int(rng.integers(1, 2 * rows + 1)))],  # random, repeated
                list(range(rows - 1, -1, -2)),  # non-contiguous, descending
                [-1, -rows, *range(-rows, 0)],  # negative
                rng.integers(0, rows, size=3),  # numpy integers
                [0] * 3,
            ]
        else:
            picks = [[], range(0)]
        for indices in picks:
            expected = _reference_take_rows(m, indices)
            got = m.take_rows(indices)
            assert got == expected and got.cols == cols, (m, list(indices))
        for bad in (rows, -rows - 1, rows + 7):
            with pytest.raises(IndexError):
                m.take_rows([0, bad] if rows else [bad])
        blocks = [m, *(_random_matrix(rng, q, int(rng.integers(0, 4)), cols) for _ in range(rng.integers(0, 4)))]
        stacked = stack_rows(blocks)
        assert stacked == _reference_stack_rows(blocks) and stacked.cols == cols
        assert stacked.rows == sum(b.rows for b in blocks)
        assert stack_rows(b for b in blocks) == stacked  # a generator
        assert stack_rows([m]) == m


def test_stack_rows_rejects_what_does_not_line_up():
    message = re.escape("need matrices that share the modulus and line up")
    mismatched_q = [FieldMatrix.identity(2, 2), FieldMatrix.identity(3, 2)]
    mismatched_cols = [FieldMatrix.zeros(5, 1, 2), FieldMatrix.zeros(5, 1, 3)]
    for mats in ([], mismatched_q, mismatched_cols):
        with pytest.raises(ValueError, match=message):
            stack_rows(mats)
        with pytest.raises(ValueError, match=message):
            stack_rows(iter(mats))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_keyed_basis_agrees_with_rref(q):
    # Against the numpy reference elimination, since `rref` itself now runs on the keyed basis.
    rng = np.random.default_rng(23)
    for _ in range(40):
        m = _random_matrix(rng, q, rng.integers(1, 9), rng.integers(1, 9))
        assert packed_rank(m.packed, q) == _dense_rank(m.array(), q)
        target = _random_matrix(rng, q, m.rows, 1)
        inside = _dense_in_span(m.array(), target.array(), q)
        assert (span_reduce(target.packed[0], span_basis(m.packed, q), q) == 0) == inside
        # span_key's basis is span_basis's, and its key, under the same keys,
        # is still a basis to reduce by.
        key, pivots = span_key(m.packed, q)
        assert pivots == span_basis(m.packed, q)
        assert (span_reduce(target.packed[0], dict(zip(sorted(pivots), key)), q) == 0) == inside


def _reference_key(vectors, q) -> tuple[int, ...]:
    """The reduced echelon basis of the span, ascending by top lane: span_insert one
    vector at a time, then clear every lower pivot's lane from each pivot vector."""
    pivots: dict[int, int] = {}
    for v in vectors:
        span_insert(v, pivots, q)
    w, full = _LANE[q], (1 << _LANE[q]) - 1
    out: list[tuple[int, int]] = []
    for top, v in sorted(pivots.items()):
        for t, u in out:
            c = v >> w * t & full
            if c:
                v = _axpy(v, q - c, u, q)
        out.append((top, v))
    return tuple(v for _, v in out)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_span_key_matches_the_lane_loop_reference(q):
    rng = np.random.default_rng(29)
    for _ in range(400):
        vectors = list(_random_matrix(rng, q, rng.integers(1, 7), rng.integers(0, 7)).packed)
        if vectors and rng.random() < 0.4:
            vectors.append(vectors[rng.integers(len(vectors))])  # a repeated vector
        if rng.random() < 0.3:
            vectors.insert(rng.integers(len(vectors) + 1), 0)
        key, pivots = span_key(vectors, q)
        assert key == _reference_key(vectors, q)
        assert pivots == span_basis(vectors, q)
    assert span_key([], q) == ((), {}) == span_key([0, 0], q)
    # A lone vector comes back scaled to leading entry 1; (q - 1)^-1 = q - 1.
    (lone,) = FieldMatrix.from_columns(q, [[1, 0, q - 1]]).packed
    (scaled,) = FieldMatrix.from_columns(q, [[q - 1, 0, 1]]).packed
    assert span_key([lone], q)[0] == (scaled,) == _reference_key([lone], q)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_span_support_is_a_function_of_the_span(q):
    # A matrix and that matrix times an invertible one span one space, so
    # they have one support: a bit at the bottom of each row's lane where
    # some column is nonzero.
    rng = np.random.default_rng(37)
    for _ in range(200):
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        basis = _random_matrix(rng, q, rows, cols)
        mixed = basis @ FieldMatrix(q, _invertible(rng, cols, q))
        expected = sum(1 << _LANE[q] * i for i in range(rows) if any(basis.to_rows()[i]))
        assert span_support(basis.packed, q) == span_support(mixed.packed, q) == expected
    assert span_support([], q) == 0 == span_support([0, 0], q)
    # Scaling a column keeps its support: raw lanes 1 and q - 1 differ at odd q.
    one, minus = FieldMatrix.from_columns(q, [[1, 0, 1], [q - 1, 0, 1]]).packed
    assert span_support([one], q) == span_support([minus], q) == 1 | 1 << 2 * _LANE[q]


def test_binary_span_basis_matches_span_insert():
    # span_basis runs its own copy of span_insert's binary loop.
    rng = np.random.default_rng(31)
    for _ in range(300):
        bits = int(rng.integers(1, 9))
        vectors = [int(v) for v in rng.integers(0, 1 << bits, size=rng.integers(0, 10))]
        expected: dict[int, int] = {}
        for v in vectors:
            span_insert(v, expected, 2)
        assert span_basis(vectors, 2) == expected
        # Extending a given basis in place.
        cut = int(rng.integers(len(vectors) + 1))
        given = span_basis(vectors[:cut], 2)
        assert span_basis(vectors[cut:], 2, given) is given
        assert given == expected


def test_float_entries_rejected():
    with pytest.raises(ValueError):
        FieldMatrix(2, [[0.5, 1.0]])
    with pytest.raises(ValueError):
        FieldMatrix(2, np.eye(2))  # float dtype, even with integral values
    assert FieldMatrix(2, np.eye(2, dtype=np.int64)) == FieldMatrix.identity(2, 2)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_construction_rejects_floats_and_reduces_entries_mod_q(q):
    for bad in ([[1.0, 0]], [[0, 1], [1, 0.0]], np.eye(2), [["1", "0"]], [[[1], [0]]]):
        with pytest.raises(ValueError):
            FieldMatrix(q, bad)
    for bad in ([[1.0, 0]], [["1", "0"]], [[0, 1], [1]]):
        with pytest.raises(ValueError):
            FieldMatrix.from_columns(q, bad)
    for bad in ([1, 0], [], [[1, 0], [1]]):
        with pytest.raises(ValueError):
            FieldMatrix(q, bad)  # not a two-dimensional grid
    entries = [[-1, -q - 1, q, 7], [300, -300, 2 * q + 1, 0]]
    expected = [[x % q for x in row] for row in entries]
    assert FieldMatrix(q, entries).to_rows() == expected
    assert FieldMatrix(q, np.array(entries)).to_rows() == expected
    assert FieldMatrix.from_columns(q, list(map(list, zip(*entries)))).to_rows() == expected
    assert FieldMatrix(q, entries).array().dtype == np.int64
    with pytest.raises(ValueError):
        FieldMatrix.from_packed(q, 2, [1 << 40])  # more rows than declared
    with pytest.raises(ValueError):
        FieldMatrix.from_packed(q, 1, [q])  # an entry that is not below q


def _binary_q_tests(tree):
    """The enclosing function of every comparison of `q` or `.q` with the literal 2."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        names = {o.id for o in operands if isinstance(o, ast.Name)}
        names |= {o.attr for o in operands if isinstance(o, ast.Attribute)}
        if "q" in names and any(isinstance(o, ast.Constant) and o.value == 2 for o in operands):
            scope = node
            while scope in parents and not isinstance(scope, ast.FunctionDef):
                scope = parents[scope]
            yield getattr(scope, "name", "<module>")


def test_only_gf_forks_on_binary_q():
    # The GF(2) fast paths live in gf's span_* kernel, where they are measured;
    # the one q = 2 test elsewhere is the solver's binary-input guard.
    src = Path(gicode.__file__).parent
    found = [
        (path.name, scope)
        for path in sorted(src.glob("*.py"))
        if path.name != "gf.py"
        for scope in _binary_q_tests(ast.parse(path.read_text()))
    ]
    assert found == [("solver.py", "solve_perfect_scalar_binary")]


# Each scope in gf.py that compares q with 2, and why it may.
_GF_BINARY_FORKS = {
    "<module>": "the _ENTRY table writes a GF(2) entry as an ASCII digit for int(..., 2)",
    "_pack": "a GF(2) column is the bits of one int, not 16-bit lanes",
    "_unpack": "a GF(2) column is read back from those bits",
    "_axpy": "over GF(2) a lane is one bit and u + v is u ^ v",
    "from_packed": "a GF(2) column is every int below 2^rows; an odd-q one has lanes to check",
    "span_support": "a GF(2) column's bits are its support; odd-q lanes are collapsed to one bit",
    "span_reduce": "measured hot loop: most rank and span tests are binary",
    "span_insert": "measured hot loop: most rank and span tests are binary",
    "span_basis": "measured hot loop: span_insert's binary loop without a call per vector",
    "combine": "measured hot loop: one lane loop took twice as long over a verify pass",
}


def test_gf_forks_on_binary_q_only_where_listed():
    # span_key has no fork: it keys only the few spaces mu eliminates, so one
    # lane loop serves every q.
    tree = ast.parse((Path(gicode.__file__).parent / "gf.py").read_text())
    assert set(_binary_q_tests(tree)) == set(_GF_BINARY_FORKS)


@pytest.mark.parametrize("bad", [True, 2.0, -1, "2"])
def test_every_constructor_checks_its_sizes(bad):
    # True == 1 and 2.0 == 2, so only a type check turns them away.
    for build in (
        lambda: FieldMatrix.from_packed(2, bad, []),
        lambda: FieldMatrix.zeros(2, bad, 1),
        lambda: FieldMatrix.zeros(2, 1, bad),
        lambda: FieldMatrix.identity(2, bad),
        lambda: FieldMatrix.from_columns(2, [[1]], rows=bad),
        lambda: FieldMatrix.from_columns(2, [[1, 0]], rows=bad),
        lambda: FieldMatrix.from_columns(2, [], rows=bad),
    ):
        with pytest.raises(ValueError, match=r"count must be a non-negative integer, got "):
            build()
    eye = FieldMatrix.from_columns(2, [[1, 0], [0, 1]], rows=2)
    assert FieldMatrix.from_packed(2, 2, [1, 2]) == FieldMatrix.identity(2, 2) == eye
    assert FieldMatrix.zeros(3, 2, 1) == FieldMatrix.from_columns(3, [[0, 0]])
    assert FieldMatrix.from_columns(5, [], rows=3) == FieldMatrix.zeros(5, 3, 0)
    assert (FieldMatrix.identity(2, 0).rows, FieldMatrix.identity(2, 0).cols) == (0, 0)


def _memo_caches(tree):
    """Every use of functools.cache or functools.lru_cache, by name."""
    memo = {"cache", "lru_cache"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            yield from (alias.name for alias in node.names if alias.name in memo)
        elif isinstance(node, ast.Attribute) and node.attr in memo:
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                yield node.attr


def test_no_module_memoizes_with_functools():
    # A memo cache outlives the call that filled it; gicode keeps results only
    # on the objects they belong to (a problem's mu, groups and verdicts).
    src = Path(gicode.__file__).parent
    found = [(path.name, name) for path in sorted(src.glob("*.py")) for name in _memo_caches(ast.parse(path.read_text()))]
    assert found == []
    assert list(_memo_caches(ast.parse("import functools\n@functools.lru_cache(8)\ndef f(): pass"))) == ["lru_cache"]
    assert list(_memo_caches(ast.parse("from functools import cache, reduce"))) == ["cache"]


def _unreferenced_definitions(trees):
    """(module, name) of every top-level function or class that no code outside its own body names."""

    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.alias):  # an import, as in __init__, counts
                yield sub.name

    total = Counter(name for tree in trees.values() for name in names(tree))
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if total[node.name] == Counter(names(node))[node.name]:
                    yield module, node.name


def test_every_definition_is_used():
    # A function that only its tests call is code to keep for nothing.  The
    # perfbench tracer wraps gf.in_column_span and FieldMatrix.rref by name;
    # the first is public through __init__, the second is a method.
    src = Path(gicode.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    assert list(_unreferenced_definitions(trees)) == []
    snippet = {"a.py": ast.parse("def f(): return f()\ndef g(): pass\nclass C: pass"), "b.py": ast.parse("from a import g")}
    assert list(_unreferenced_definitions(snippet)) == [("a.py", "f"), ("a.py", "C")]
