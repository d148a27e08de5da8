"""The packed routes against an independent numpy elimination on copies of the same data.

`_rref_inplace` below is the numpy elimination gicode used before its
matrices were packed, kept here unchanged as the reference.  Every
elimination in `gf` (rank and span tests, `rref`, `solve_right` and
`invert`) goes through its keyed elimination basis; these seeded checks
recompute each answer with the reference.
"""

from collections import defaultdict

import numpy as np
import pytest

from gicode.gf import (
    FieldMatrix,
    NoSolutionError,
    SingularMatrixError,
    concat_columns,
    in_column_span,
    span_key,
)
from gicode.gic import (
    GICProblem,
    GICRepresentation,
    IndexCode,
    Receiver,
    canonical_representation,
    check_c1_c2,
    mu,
    verify_code,
)
from gicode.instances import load
from gicode.matroid import Matroid
from gicode.polymatroid import DiscretePolymatroid, SubspaceRepresentation

_INVERSE = {q: tuple(pow(x, q - 2, q) if x else 0 for x in range(q)) for q in (2, 3, 5)}


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


SHAPES = [(0, 0), (0, 3), (4, 0), (1, 1), (5, 7), (9, 4), (62, 5), (63, 6), (70, 9), (130, 3)]


def _at_each_q(cases):
    """Each case at q = 2 under its plain id, then at q = 3 and q = 5 with "-q3" / "-q5" appended."""
    out = []
    for q in (2, 3, 5):
        for case in cases:
            case = case if isinstance(case, tuple) else (case,)
            ident = "-".join(map(str, case)) + ("" if q == 2 else f"-q{q}")
            out.append(pytest.param(*case, q, id=ident))
    return out


def _dense_rank(a: np.ndarray, q: int) -> int:
    return len(_rref_inplace(np.array(a, dtype=np.int64), q))


def _dense_in_span(basis: np.ndarray, target: np.ndarray, q: int) -> bool:
    aug = np.concatenate([basis, target], axis=1)
    return all(p < basis.shape[1] for p in _rref_inplace(aug, q))


def _random(rng, rows, cols, density=0.5, q=2):
    """Each entry nonzero with probability `density`, a uniform nonzero value when it is."""
    a = (rng.random((rows, cols)) < density).astype(np.int64)
    return a if q == 2 else a * rng.integers(1, q, size=(rows, cols))


def _random_problem(rng, m, n, receivers, q):
    mn = m * n
    out = []
    for _ in range(receivers):
        known = _random(rng, mn, int(rng.integers(0, 5)), 0.3, q)
        demand = _random(rng, mn, int(rng.integers(1, 3)), 0.3, q)
        out.append(Receiver(FieldMatrix(q, known), FieldMatrix(q, demand)))
    return GICProblem(q, m, n, out)


def _invertible(rng, size, q, *, identity_ok=True):
    assert identity_ok or size > 1
    while True:
        a = _random(rng, size, size, q=q)
        if _dense_rank(a, q) == size and (identity_ok or not np.array_equal(a, np.eye(size, dtype=np.int64))):
            return a


@pytest.mark.parametrize("rows, cols", SHAPES)
def test_column_bits_sets_bit_i_for_row_i(rows, cols):
    a = _random(np.random.default_rng(rows * 100 + cols), rows, cols)
    expected = [sum(int(a[i, j]) << i for i in range(rows)) for j in range(cols)]
    assert list(FieldMatrix(2, a).packed) == expected


@pytest.mark.parametrize("rows, cols", SHAPES)
def test_rank_and_span_match_dense_elimination(rows, cols):
    rng = np.random.default_rng(7 + rows * 1000 + cols)
    for density in (0.1, 0.5, 0.9):
        a = _random(rng, rows, cols, density)
        assert FieldMatrix(2, a).rank() == _dense_rank(a, 2)
        for width in (0, 1, 3):
            # Targets inside the span (combinations of a's columns) and random ones.
            inside = a @ _random(rng, cols, width) % 2
            for target in (inside, _random(rng, rows, width, density)):
                got = in_column_span(FieldMatrix(2, a), FieldMatrix(2, target))
                assert got == _dense_in_span(a, target, 2)


@pytest.mark.parametrize(
    "m, n, seed, q", _at_each_q([(5, 1, 1), (4, 2, 2), (3, 3, 3), (12, 1, 4), (70, 1, 5)])
)
def test_verify_code_matches_dense_and_c2_under_random_message_blocks(m, n, seed, q):
    rng = np.random.default_rng(seed)
    problem = _random_problem(rng, m, n, 30, q)
    for length in (0, 1, m * n // 2, m * n):
        code = _random(rng, m * n, length, q=q)
        report = verify_code(problem, IndexCode(FieldMatrix(q, code)))
        dense = tuple(
            _dense_in_span(
                np.concatenate([r.knowledge.array(), code], axis=1), r.demand.array(), q
            )
            for r in problem.receivers
        )
        assert report.receiver_ok == dense
        a = _invertible(rng, m * n, q, identity_ok=False)
        blocks = [FieldMatrix(q, a[:, i * n : (i + 1) * n]) for i in range(m)]
        rep = GICRepresentation(blocks, FieldMatrix(q, a @ code % q))
        c1c2 = check_c1_c2(rep, problem)
        assert c1c2.c2_per_receiver == report.receiver_ok
        assert c1c2.c1_full_rank


@pytest.mark.parametrize("m, n, seed, q", _at_each_q([(5, 1, 11), (3, 2, 12), (8, 1, 13)]))
def test_c2_matches_dense_under_invertible_and_singular_message_matrices(m, n, seed, q):
    # C2 at receiver i: a·D_i inside col-span([a·K_i | B]), whether or not a is invertible.
    rng = np.random.default_rng(seed)
    problem = _random_problem(rng, m, n, 30, q)
    mn = m * n
    seen = set()
    for rank in (mn, mn - 1, mn // 2, 0):
        for length in (0, 1, mn // 2):
            if rank == mn:
                a = _invertible(rng, mn, q)
            else:
                a = _random(rng, mn, rank, q=q) @ _random(rng, rank, mn, q=q) % q
            code_block = _random(rng, mn, length, q=q)
            blocks = [FieldMatrix(q, a[:, i * n : (i + 1) * n]) for i in range(m)]
            rep = GICRepresentation(blocks, FieldMatrix(q, code_block))
            dense = tuple(
                _dense_in_span(
                    np.concatenate([a @ r.knowledge.array() % q, code_block], axis=1), a @ r.demand.array() % q, q
                )
                for r in problem.receivers
            )
            assert check_c1_c2(rep, problem).c2_per_receiver == dense
            seen.update((_dense_rank(a, q) == mn, ok) for ok in dense)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("m, n, seed, q", _at_each_q([(5, 1, 21), (3, 2, 22)]))
def test_kept_verdicts_never_serve_another_code(m, n, seed, q):
    # One problem verifies a passing code A, a code B that fails some
    # receivers, and A again, then checks C2 on the canonical
    # representations of B and A.  Each report is a fresh problem's and the
    # dense reference's.
    rng = np.random.default_rng(seed)
    problem = _random_problem(rng, m, n, 30, q)
    mn = m * n
    codes = {"A": FieldMatrix(q, _invertible(rng, mn, q)), "B": FieldMatrix(q, _random(rng, mn, mn // 2, q=q))}

    def dense(a, code):
        return tuple(
            _dense_in_span(np.concatenate([a @ r.knowledge.array() % q, code], axis=1), a @ r.demand.array() % q, q)
            for r in problem.receivers
        )

    def fresh():
        return GICProblem(q, m, n, problem.receivers)

    eye = np.eye(mn, dtype=np.int64)
    for name in "ABA":
        got = verify_code(problem, IndexCode(codes[name])).receiver_ok
        assert got == verify_code(fresh(), IndexCode(codes[name])).receiver_ok == dense(eye, codes[name].array())
    assert all(dense(eye, codes["A"].array())) and not all(dense(eye, codes["B"].array()))
    for name in "BA":
        rep = canonical_representation(problem, IndexCode(codes[name]))
        got = check_c1_c2(rep, problem).c2_per_receiver
        assert got == check_c1_c2(rep, fresh()).c2_per_receiver == dense(eye, codes[name].array())
    assert problem == fresh() and repr(problem) == repr(fresh())  # kept verdicts are not part of either
    # The kept verdicts belong to the last block verified.  A message matrix
    # other than the identity verifies its pulled-back code, not the code
    # block, so afterwards verifying the code block again is done afresh.
    kept = (codes["B"], verify_code(problem, IndexCode(codes["B"])).receiver_ok)
    assert problem._verified == kept
    a = _invertible(rng, mn, q, identity_ok=False)
    blocks = [FieldMatrix(q, a[:, i * n : (i + 1) * n]) for i in range(m)]
    rep = GICRepresentation(blocks, codes["B"])
    got = check_c1_c2(rep, problem).c2_per_receiver
    assert got == dense(a, codes["B"].array()) != kept[1]
    assert problem._verified == (rep.message_matrix().pullback(codes["B"]), got)
    assert verify_code(problem, IndexCode(codes["B"])).receiver_ok == dense(eye, codes["B"].array()) == kept[1]
    assert problem._verified == kept


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
                _dense_in_span(np.concatenate([r.knowledge.array(), l], axis=1), r.demand.array(), 2)
                for r in problem.receivers
            )


def _dense_space_key(knowledge: FieldMatrix) -> tuple:
    """The RREF-of-transpose key that mu used before the packed route."""
    a = knowledge.array().T.copy()
    piv = _rref_inplace(a, knowledge.q)
    return tuple(tuple(int(v) for v in row) for row in a[: len(piv)])


def _partition(problem, key):
    groups = defaultdict(list)
    for i, r in enumerate(problem.receivers):
        groups[key(r.knowledge)].append(i)
    return sorted(groups.values())


def _dense_deficit(problem, groups) -> int:
    """Largest rank([K | every D of the group]) - rank(K) over the groups, densely."""
    out, q = 0, problem.q
    for members in groups:
        known = problem.receivers[members[0]].knowledge.array()
        demands = [problem.receivers[i].demand.array() for i in members]
        out = max(out, _dense_rank(np.concatenate([known, *demands], axis=1), q) - _dense_rank(known, q))
    return out


@pytest.mark.parametrize("seed, q", _at_each_q(range(4)))
def test_mu_groups_like_rref_of_transpose(seed, q):
    rng = np.random.default_rng(100 + seed)
    mn = 8
    pool = [_random(rng, mn, h, q=q) for h in (0, 1, 2, 2, 3, 4)]
    receivers = []
    for _ in range(60):
        base = pool[rng.integers(len(pool))]
        # Same column space, different matrix: mix the columns, then add
        # zero or repeated columns.
        mixed = base @ _invertible(rng, base.shape[1], q) % q
        extra = [np.zeros((mn, 1), dtype=np.int64)] if rng.random() < 0.3 else []
        if mixed.shape[1] and rng.random() < 0.3:
            extra.append(mixed[:, :1])
        known = np.concatenate([mixed, *extra], axis=1) if extra else mixed
        receivers.append(Receiver(FieldMatrix(q, known), FieldMatrix(q, _random(rng, mn, 1, q=q))))
    problem = GICProblem(q, mn, 1, receivers)
    dense = _partition(problem, _dense_space_key)
    assert _partition(problem, lambda k: span_key(k.packed, q)[0]) == dense
    assert mu(problem) == _dense_deficit(problem, dense)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_mu_merges_knowledge_matrices_that_share_a_space(q):
    # K1 and K2 differ as matrices but span one space, {e0, e1}.  A demand
    # e2 or e3 adds 1 to that space's deficit alone; the two add 2 together,
    # whichever matrix each receiver holds.
    e = FieldMatrix.identity(q, 4).take_columns
    k1 = e([0, 1])
    k2 = FieldMatrix.from_columns(q, [[1, q - 1, 0, 0], [0, q - 1, 0, 0], [0, 0, 0, 0]])
    assert k1 != k2 and in_column_span(k1, k2) and in_column_span(k2, k1)
    first, second = Receiver(k1, e([2])), Receiver(k2, e([3]))
    assert mu(GICProblem(q, 4, 1, [first])) == mu(GICProblem(q, 4, 1, [second])) == 1
    assert mu(GICProblem(q, 4, 1, [first, second])) == 2
    # Demands already inside the merged span add nothing.
    again = [Receiver(k2, e([2])), Receiver(k1, concat_columns([e([3]), k2]))]
    assert mu(GICProblem(q, 4, 1, [first, second, *again])) == 2
    assert mu(GICProblem(q, 2, 2, [first, second, *again])) == 1  # 2 symbols per message


def test_mu_matches_rref_grouping_on_bundled_instances():
    for name in ("eg1", "eg3", "eg4", "u23", "u24", "hamming"):
        problem = load(name)["problem"]
        dense = _partition(problem, _dense_space_key)
        assert mu(problem) == max(map(len, dense)) == _dense_deficit(problem, dense)


def _dense_subset_ranks(blocks, q):
    table = []
    for mask in range(1 << len(blocks)):
        picked = [b for i, b in enumerate(blocks) if mask >> i & 1]
        table.append(_dense_rank(np.concatenate(picked, axis=1), q) if picked else 0)
    return table


@pytest.mark.parametrize("seed, q", _at_each_q(range(6)))
def test_from_matrix_matches_dense_subset_ranks(seed, q):
    rng = np.random.default_rng(200 + seed)
    for cols in range(0, 11):
        rows = int(rng.integers(0, 6))
        a = _random(rng, rows, cols, q=q)
        if cols >= 3:
            a[:, 0] = 0  # a loop
            a[:, 2] = a[:, 1] * (q - 1) % q  # a parallel pair
        blocks = [a[:, [j]] for j in range(cols)]
        assert list(Matroid.from_matrix(FieldMatrix(q, a)).rank_table()) == _dense_subset_ranks(blocks, q)


@pytest.mark.parametrize("seed, q", _at_each_q(range(4)))
def test_from_subspaces_matches_dense_subset_ranks(seed, q):
    rng = np.random.default_rng(300 + seed)
    rows = int(rng.integers(1, 7))
    blocks = [_random(rng, rows, int(rng.integers(0, 4)), q=q) for _ in range(5)]
    blocks.append(blocks[1] * (q - 1) % q)  # a repeated subspace
    rep = SubspaceRepresentation(q, [FieldMatrix(q, b) for b in blocks])
    table = DiscretePolymatroid.from_subspaces(rep).rank_table()
    assert list(table) == _dense_subset_ranks(blocks, q)


# -- every elimination at every q against the reference ----------------------------

# (rows, cols): empty, wide, tall and square, the square ones also inverted.
FIELD_SHAPES = [(0, 0), (0, 4), (3, 0), (1, 1), (2, 6), (3, 9), (7, 2), (9, 4), (4, 4), (5, 5), (6, 6)]


def _low_rank(rng, q, rows, cols):
    """A random matrix of rank at most a random r, so that singular and dependent cases occur."""
    r = int(rng.integers(0, min(rows, cols) + 1))
    return rng.integers(0, q, size=(rows, r)) @ rng.integers(0, q, size=(r, cols)) % q


def _reference_invert(a, q):
    n = a.shape[0]
    aug = np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1)
    if len(_rref_inplace(aug, q, pivot_limit=n)) < n:
        return None
    return aug[:, n:]


def _reference_solve_right(a, b, q):
    n = a.shape[1]
    aug = np.concatenate([a, b], axis=1)
    piv = _rref_inplace(aug, q)
    if any(p >= n for p in piv):
        return None
    x = np.zeros((n, b.shape[1]), dtype=np.int64)
    for row, col in enumerate(piv):
        x[col, :] = aug[row, n:]
    return x


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("rows, cols", FIELD_SHAPES)
def test_every_elimination_matches_the_reference(q, rows, cols):
    rng = np.random.default_rng(q * 10_000 + rows * 100 + cols)
    for _ in range(12):
        a = _low_rank(rng, q, rows, cols) if rng.random() < 0.5 else rng.integers(0, q, size=(rows, cols))
        m = FieldMatrix(q, a)
        ref = a.copy()
        piv = _rref_inplace(ref, q)
        reduced, got_piv = m.rref()
        assert got_piv == tuple(piv)
        assert reduced == FieldMatrix(q, ref)
        assert m.rank() == len(piv)
        for width in (0, 1, 3):
            inside = a @ rng.integers(0, q, size=(cols, width)) % q
            for b in (inside, rng.integers(0, q, size=(rows, width))):
                aug = np.concatenate([a, b], axis=1)
                assert in_column_span(m, FieldMatrix(q, b)) == all(p < cols for p in _rref_inplace(aug, q))
                expected = _reference_solve_right(a, b, q)
                if expected is None:
                    with pytest.raises(NoSolutionError):
                        m.solve_right(FieldMatrix(q, b))
                else:
                    assert m.solve_right(FieldMatrix(q, b)) == FieldMatrix(q, expected)
        if rows == cols:
            expected = _reference_invert(a, q)
            if expected is None:
                with pytest.raises(SingularMatrixError):
                    m.invert()
            else:
                assert m.invert() == FieldMatrix(q, expected)
        other = rng.integers(0, q, size=(cols, 3))
        assert (m @ FieldMatrix(q, other)).to_rows() == (a @ other % q).tolist()
        same = rng.integers(0, q, size=(rows, cols))
        assert (m + FieldMatrix(q, same)).array().tolist() == ((a + same) % q).tolist()
        assert (m - FieldMatrix(q, same)).array().tolist() == ((a - same) % q).tolist()
        assert m.transpose().to_rows() == a.T.tolist()
        picked = rng.integers(0, rows, size=3) if rows else []
        assert m.take_rows(picked).to_rows() == a[list(picked), :].tolist()
