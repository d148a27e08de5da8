"""Field matrix unit tests: frozen examples plus randomized properties."""

import numpy as np
import pytest

from gicode.gf import (
    FieldMatrix,
    NoSolutionError,
    SingularMatrixError,
    bits_in_span,
    bits_rank,
    column_bits,
    concat_columns,
    in_column_span,
    rank,
    stack_rows,
)
from gicode.instances import HAMMING_G_ROWS

# eg1 data: the 5x3 code matrix, receiver-5 knowledge and demand.
L_ROWS = [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]]
K5_COLS = [[0, 1, 0, 0, 0], [1, 0, 1, 0, 0]]
D5_COL = [0, 0, 1, 1, 1]


def _random_matrix(rng, q, rows, cols):
    return FieldMatrix(q, rng.integers(0, q, size=(rows, cols)))


def test_rank_examples():
    assert rank(FieldMatrix(2, L_ROWS)) == 3  # disjoint column supports
    assert rank(FieldMatrix.zeros(3, 4, 6)) == 0
    assert rank(FieldMatrix(2, HAMMING_G_ROWS)) == 4


def test_rank_degenerate_shapes():
    assert rank(FieldMatrix.zeros(2, 0, 5)) == 0
    assert rank(FieldMatrix.zeros(2, 5, 0)) == 0


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


def test_packed_bitsets_agree_with_dense_rank():
    rng = np.random.default_rng(23)
    for _ in range(40):
        m = _random_matrix(rng, 2, rng.integers(1, 9), rng.integers(1, 9))
        cols = column_bits(m)
        assert bits_rank(cols) == m.rank()
        target = _random_matrix(rng, 2, m.rows, 1)
        assert bits_in_span(column_bits(target)[0], cols) == in_column_span(m, target)


def test_float_entries_rejected():
    with pytest.raises(ValueError):
        FieldMatrix(2, [[0.5, 1.0]])
    with pytest.raises(ValueError):
        FieldMatrix(2, np.eye(2))  # float dtype, even with integral values
    assert FieldMatrix(2, np.eye(2, dtype=np.int64)) == FieldMatrix.identity(2, 2)
