"""The packed GF(2) route against numpy elimination on copies of the same data.

Over GF(2) every rank and span test goes through packed column bitsets;
these seeded checks recompute each answer with `gf._rref_inplace`, the
elimination that q = 3 and q = 5 still use.
"""

from collections import defaultdict

import numpy as np
import pytest

from gicode.gf import FieldMatrix, _rref_inplace, column_bits, in_column_span
from gicode.gic import (
    GICProblem,
    GICRepresentation,
    IndexCode,
    Receiver,
    _knowledge_space_key,
    check_c1_c2,
    mu,
    verify_code,
)
from gicode.instances import load
from gicode.matroid import Matroid
from gicode.polymatroid import DiscretePolymatroid, SubspaceRepresentation

SHAPES = [(0, 0), (0, 3), (4, 0), (1, 1), (5, 7), (9, 4), (62, 5), (63, 6), (70, 9), (130, 3)]


def _dense_rank(a: np.ndarray) -> int:
    return len(_rref_inplace(np.array(a, dtype=np.int64), 2))


def _dense_in_span(basis: np.ndarray, target: np.ndarray) -> bool:
    aug = np.concatenate([basis, target], axis=1)
    return all(p < basis.shape[1] for p in _rref_inplace(aug, 2))


def _random(rng, rows, cols, density=0.5):
    return (rng.random((rows, cols)) < density).astype(np.int64)


def _random_problem(rng, m, n, receivers):
    mn = m * n
    out = []
    for _ in range(receivers):
        known = _random(rng, mn, int(rng.integers(0, 5)), 0.3)
        demand = _random(rng, mn, int(rng.integers(1, 3)), 0.3)
        out.append(Receiver(FieldMatrix(2, known), FieldMatrix(2, demand)))
    return GICProblem(2, m, n, out)


def _invertible(rng, size, *, identity_ok=True):
    assert identity_ok or size > 1
    while True:
        a = _random(rng, size, size)
        if _dense_rank(a) == size and (identity_ok or not np.array_equal(a, np.eye(size, dtype=np.int64))):
            return a


@pytest.mark.parametrize("rows, cols", SHAPES)
def test_column_bits_sets_bit_i_for_row_i(rows, cols):
    a = _random(np.random.default_rng(rows * 100 + cols), rows, cols)
    expected = [sum(int(a[i, j]) << i for i in range(rows)) for j in range(cols)]
    assert column_bits(FieldMatrix(2, a)) == expected


@pytest.mark.parametrize("rows, cols", SHAPES)
def test_rank_and_span_match_dense_elimination(rows, cols):
    rng = np.random.default_rng(7 + rows * 1000 + cols)
    for density in (0.1, 0.5, 0.9):
        a = _random(rng, rows, cols, density)
        assert FieldMatrix(2, a).rank() == _dense_rank(a)
        for width in (0, 1, 3):
            # Targets inside the span (combinations of a's columns) and random ones.
            inside = a @ _random(rng, cols, width) % 2
            for target in (inside, _random(rng, rows, width, density)):
                got = in_column_span(FieldMatrix(2, a), FieldMatrix(2, target))
                assert got == _dense_in_span(a, target)


@pytest.mark.parametrize("m, n, seed", [(5, 1, 1), (4, 2, 2), (3, 3, 3), (12, 1, 4), (70, 1, 5)])
def test_verify_code_matches_dense_and_c2_under_random_message_blocks(m, n, seed):
    rng = np.random.default_rng(seed)
    problem = _random_problem(rng, m, n, 30)
    for length in (0, 1, m * n // 2, m * n):
        code = _random(rng, m * n, length)
        report = verify_code(problem, IndexCode(FieldMatrix(2, code)))
        dense = tuple(
            _dense_in_span(
                np.concatenate([r.knowledge.array(), code], axis=1), r.demand.array()
            )
            for r in problem.receivers
        )
        assert report.receiver_ok == dense
        a = _invertible(rng, m * n, identity_ok=False)
        blocks = [FieldMatrix(2, a[:, i * n : (i + 1) * n]) for i in range(m)]
        rep = GICRepresentation(blocks, FieldMatrix(2, a @ code % 2))
        c1c2 = check_c1_c2(rep, problem)
        assert c1c2.c2_per_receiver == report.receiver_ok
        assert c1c2.c1_full_rank


def test_verify_code_matches_dense_on_bundled_instances():
    for name in ("eg1", "eg3", "u23", "hamming"):
        bundle = load(name)
        if "code" not in bundle:
            continue
        problem, code = bundle["problem"], bundle["code"].matrix.array()
        rng = np.random.default_rng(len(name))
        # Flip one code entry so that some receivers fail as well.
        broken = code.copy()
        broken[rng.integers(code.shape[0]), rng.integers(code.shape[1])] ^= 1
        for l in (code, broken):
            report = verify_code(problem, IndexCode(FieldMatrix(2, l)))
            assert report.receiver_ok == tuple(
                _dense_in_span(np.concatenate([r.knowledge.array(), l], axis=1), r.demand.array())
                for r in problem.receivers
            )


def _dense_space_key(knowledge: FieldMatrix) -> tuple:
    """The RREF-of-transpose key that mu used before the packed route."""
    a = knowledge.array().T.copy()
    piv = _rref_inplace(a, 2)
    return tuple(tuple(int(v) for v in row) for row in a[: len(piv)])


def _partition(problem, key):
    groups = defaultdict(list)
    for i, r in enumerate(problem.receivers):
        groups[key(r.knowledge)].append(i)
    return sorted(groups.values())


@pytest.mark.parametrize("seed", range(4))
def test_mu_groups_like_rref_of_transpose(seed):
    rng = np.random.default_rng(100 + seed)
    mn = 8
    pool = [_random(rng, mn, h) for h in (0, 1, 2, 2, 3, 4)]
    receivers = []
    for _ in range(60):
        base = pool[rng.integers(len(pool))]
        # Same column space, different matrix: mix the columns, then add
        # zero or repeated columns.
        mixed = base @ _invertible(rng, base.shape[1]) % 2
        extra = [np.zeros((mn, 1), dtype=np.int64)] if rng.random() < 0.3 else []
        if mixed.shape[1] and rng.random() < 0.3:
            extra.append(mixed[:, :1])
        known = np.concatenate([mixed, *extra], axis=1) if extra else mixed
        receivers.append(Receiver(FieldMatrix(2, known), FieldMatrix(2, _random(rng, mn, 1))))
    problem = GICProblem(2, mn, 1, receivers)
    dense = _partition(problem, _dense_space_key)
    assert _partition(problem, _knowledge_space_key) == dense
    assert mu(problem) == max(map(len, dense))


def test_mu_matches_rref_grouping_on_bundled_instances():
    for name in ("eg1", "eg3", "eg4", "u23", "u24", "hamming"):
        problem = load(name)["problem"]
        dense = _partition(problem, _dense_space_key)
        assert mu(problem) == max(map(len, dense))


def _dense_subset_ranks(blocks):
    table = []
    for mask in range(1 << len(blocks)):
        picked = [b for i, b in enumerate(blocks) if mask >> i & 1]
        table.append(_dense_rank(np.concatenate(picked, axis=1)) if picked else 0)
    return table


@pytest.mark.parametrize("seed", range(6))
def test_from_matrix_matches_dense_subset_ranks(seed):
    rng = np.random.default_rng(200 + seed)
    for cols in range(0, 11):
        rows = int(rng.integers(0, 6))
        a = _random(rng, rows, cols)
        if cols >= 3:
            a[:, 0] = 0  # a loop
            a[:, 2] = a[:, 1]  # a parallel pair
        blocks = [a[:, [j]] for j in range(cols)]
        assert list(Matroid.from_matrix(FieldMatrix(2, a)).rank_table()) == _dense_subset_ranks(blocks)


@pytest.mark.parametrize("seed", range(4))
def test_from_subspaces_matches_dense_subset_ranks(seed):
    rng = np.random.default_rng(300 + seed)
    rows = int(rng.integers(1, 7))
    blocks = [_random(rng, rows, int(rng.integers(0, 4))) for _ in range(5)]
    blocks.append(blocks[1].copy())  # a repeated subspace
    rep = SubspaceRepresentation(2, [FieldMatrix(2, b) for b in blocks])
    table = DiscretePolymatroid.from_subspaces(rep).rank_table()
    assert list(table) == _dense_subset_ranks(blocks)
