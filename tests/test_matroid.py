"""Matroid unit tests: reference instances, axiom oracles, representability."""

from itertools import combinations

import numpy as np
import pytest

from gicode.gf import FieldMatrix
from gicode.instances import HAMMING_G_ROWS, U23_REP_ROWS
from gicode.matroid import Matroid, SearchBudgetExceeded, find_representation

# Circuits of the Hamming [7,4,3] vector matroid (1-based element labels).
HAMMING_CIRCUITS = [
    (1, 2, 4, 7),
    (1, 2, 5, 6),
    (1, 3, 4, 6),
    (1, 3, 5, 7),
    (2, 3, 4, 5),
    (2, 3, 6, 7),
    (4, 5, 6, 7),
]


def brute_force_circuits(m, rank_of):
    """Oracle: minimal dependent sets straight from the definition."""
    ground = range(m)
    dependent = [
        frozenset(s)
        for size in range(1, m + 1)
        for s in combinations(ground, size)
        if rank_of(s) < size
    ]
    return sorted(
        tuple(sorted(c))
        for c in dependent
        if not any(d < c for d in dependent)
    )


def check_axioms_all_pairs(matroid):
    """Oracle: R1-R3 over every subset pair, by exhaustion."""
    m = matroid.ground_size
    for x in range(1 << m):
        assert matroid.rank_of(x) <= bin(x).count("1")
        for y in range(1 << m):
            if x & y == x:
                assert matroid.rank_of(x) <= matroid.rank_of(y)
            lhs = matroid.rank_of(x | y) + matroid.rank_of(x & y)
            assert lhs <= matroid.rank_of(x) + matroid.rank_of(y)


@pytest.fixture(scope="module")
def hamming():
    return Matroid.from_matrix(FieldMatrix(2, HAMMING_G_ROWS))


def test_hamming_bases_and_circuits(hamming):
    assert hamming.rank == 4
    assert len(hamming.bases()) == 28
    got = sorted(tuple(e + 1 for e in c) for c in hamming.circuits())
    assert got == sorted(HAMMING_CIRCUITS)


def test_from_matrix_identity_is_free():
    free = Matroid.from_matrix(FieldMatrix.identity(2, 4))
    for mask in range(1 << 4):
        assert free.rank_of(mask) == bin(mask).count("1")
    assert free.bases() == [(0, 1, 2, 3)]
    assert free.circuits() == []


def test_from_matrix_u23():
    m = Matroid.from_matrix(FieldMatrix(2, U23_REP_ROWS))
    assert m == Matroid.uniform(2, 3)


def test_from_matrix_ternary():
    m = Matroid.from_matrix(FieldMatrix(3, [[1, 0, 1, 1], [0, 1, 1, 2]]))
    assert m == Matroid.uniform(2, 4)


def test_from_matrix_rejects_wide_ground_set():
    with pytest.raises(ValueError):
        Matroid.from_matrix(FieldMatrix.zeros(2, 2, 17))


def test_uniform_circuits_against_oracle():
    u23 = Matroid.uniform(2, 3)
    assert u23.circuits() == [(0, 1, 2)]

    u24 = Matroid.uniform(2, 4)
    oracle = brute_force_circuits(4, lambda s: min(len(tuple(s)), 2))
    assert sorted(u24.circuits()) == oracle == sorted(combinations(range(4), 3))

    assert Matroid.uniform(4, 4).circuits() == []


def test_uniform_bases_counts():
    from math import comb

    for k, m in [(1, 3), (2, 3), (2, 4), (3, 5)]:
        u = Matroid.uniform(k, m)
        assert len(u.bases()) == comb(m, k)
        assert sorted(u.bases()) == sorted(combinations(range(m), k))
        assert sorted(u.circuits()) == sorted(combinations(range(m), k + 1))


def test_uniform_parameter_validation():
    with pytest.raises(ValueError):
        Matroid.uniform(3, 2)
    with pytest.raises(ValueError):
        Matroid.uniform(2, 17)


def test_axiom_validation_rejects_bad_tables():
    with pytest.raises(ValueError):
        Matroid(2, [1, 1, 1, 2])  # rank(empty) != 0
    with pytest.raises(ValueError):
        Matroid(2, [0, 1, 1, 3])  # violates R1
    with pytest.raises(ValueError):
        Matroid(2, [0, 1, 1, 0])  # not monotone
    with pytest.raises(ValueError):
        Matroid(2, [0, 0, 0, 1])  # not submodular


def test_axioms_hold_exhaustively(hamming):
    check_axioms_all_pairs(hamming)
    check_axioms_all_pairs(Matroid.uniform(2, 4))
    rng = np.random.default_rng(31)
    for _ in range(10):
        mat = FieldMatrix(2, rng.integers(0, 2, size=(3, 5)))
        check_axioms_all_pairs(Matroid.from_matrix(mat))


def test_circuit_basis_duality(hamming):
    for m in (hamming, Matroid.uniform(2, 4)):
        bases = [frozenset(b) for b in m.bases()]
        circuits = [frozenset(c) for c in m.circuits()]
        for c in circuits:
            assert not any(c <= b for b in bases)
        # every dependent set contains a circuit
        for mask in range(1 << m.ground_size):
            elems = frozenset(i for i in range(m.ground_size) if mask >> i & 1)
            if m.rank_of(mask) < len(elems):
                assert any(c <= elems for c in circuits)


def test_find_representation_u23():
    rep = find_representation(Matroid.uniform(2, 3), q=2)
    assert rep is not None
    assert Matroid.from_matrix(rep) == Matroid.uniform(2, 3)


def test_find_representation_u24_certified_negative():
    assert find_representation(Matroid.uniform(2, 4), q=2) is None


def test_find_representation_free_identity():
    rep = find_representation(Matroid.uniform(3, 3), q=2)
    assert rep == FieldMatrix.identity(2, 3)


def test_find_representation_with_loop():
    table = [0, 0, 0, 0]  # two loops
    rep = find_representation(Matroid(2, table), q=2)
    assert rep is not None and rep.rows == 0 and rep.cols == 2


def test_find_representation_round_trip_random():
    rng = np.random.default_rng(37)
    for _ in range(15):
        mat = FieldMatrix(2, rng.integers(0, 2, size=(3, 6)))
        m = Matroid.from_matrix(mat)
        rep = find_representation(m, q=2)
        assert rep is not None
        assert Matroid.from_matrix(rep) == m


def test_find_representation_budget():
    with pytest.raises(SearchBudgetExceeded):
        find_representation(Matroid.uniform(2, 4), q=2, budget=3)


def test_find_representation_rejects_nonpositive_budget():
    for budget in (0, -1):
        # U(2,2) is the identity and would never spend its budget.
        with pytest.raises(ValueError, match="budget must be positive"):
            find_representation(Matroid.uniform(2, 2), q=2, budget=budget)


def test_find_representation_scale_limits():
    with pytest.raises(ValueError):
        find_representation(Matroid.uniform(6, 9), q=2)


def test_json_round_trips():
    u = Matroid.uniform(2, 4)
    assert Matroid.from_json_dict({"uniform": [2, 4]}) == u
    assert Matroid.from_json_dict(u.to_json_dict()) == u
    mat = FieldMatrix(2, U23_REP_ROWS)
    assert Matroid.from_json_dict({"matrix": mat.to_json_dict()}) == Matroid.uniform(2, 3)


def test_float_rank_table_rejected():
    with pytest.raises(ValueError):
        Matroid(1, [0, 0.5])


def _brute_force_representable(matroid, q=2):
    """Oracle: unquotiented scan of every k x m matrix over GF(q)."""
    m, k = matroid.ground_size, matroid.rank
    if k == 0:
        return all(matroid.rank_of(mask) == 0 for mask in range(1 << m))
    for value in range(q ** (k * m)):
        entries = []
        v = value
        for _ in range(k):
            row = []
            for _ in range(m):
                row.append(v % q)
                v //= q
            entries.append(row)
        if Matroid.from_matrix(FieldMatrix(q, entries)) == matroid:
            return True
    return False


def _all_matroids(m, max_rank):
    """Every valid rank table on m elements with rank at most max_rank."""
    from itertools import product

    size = 1 << m
    found = []
    for values in product(range(max_rank + 1), repeat=size - 1):
        try:
            found.append(Matroid(m, (0,) + values))
        except ValueError:
            continue
    return found


def test_find_representation_agrees_with_unquotiented_search():
    # The identity-pinned quotient must not change the verdict; checked
    # exhaustively on every matroid with at most 3 elements.
    checked = 0
    for m in (1, 2, 3):
        for matroid in _all_matroids(m, max_rank=3):
            rep = find_representation(matroid, q=2)
            assert (rep is not None) == _brute_force_representable(matroid, q=2)
            if rep is not None:
                assert Matroid.from_matrix(rep) == matroid
            checked += 1
    assert checked > 20
