"""Discrete polymatroid tests: vector enumeration, D(M), representability."""

import itertools

import numpy as np
import pytest

from gicode.gf import FieldMatrix
from gicode.instances import EG3_RANK, EG4_RANK, HAMMING_G_ROWS
from gicode.matroid import Matroid, SearchBudgetExceeded
from gicode.polymatroid import (
    DiscretePolymatroid,
    SubspaceRepresentation,
    find_representation,
)

# Representing matrices printed for the two rank-3 instances, with block
# widths (rho{1}, rho{2}, rho{3}).
EG3_REP_ROWS = [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
EG3_WIDTHS = (1, 1, 2)
EG4_REP_ROWS = [[1, 0, 0, 1, 0], [0, 1, 0, 1, 0], [0, 0, 1, 1, 1]]
EG4_WIDTHS = (2, 2, 1)


def brute_minimal_excluded(dpm):
    """Oracle: box enumeration + pairwise dominance, from the definition."""
    caps = dpm.caps()
    box = list(itertools.product(*(range(c + 1) for c in caps)))
    excluded = [v for v in box if not dpm.is_member(v)]
    minimal = []
    for v in excluded:
        dominated = any(w != v and all(a <= b for a, b in zip(w, v)) for w in excluded)
        if not dominated:
            minimal.append(v)
    return sorted(minimal)


def check_axioms_all_pairs(dpm):
    r = dpm.ground_size
    assert dpm.rank_of(0) == 0
    for x in range(1 << r):
        for y in range(1 << r):
            if x & y == x:
                assert dpm.rank_of(x) <= dpm.rank_of(y)
            assert dpm.rank_of(x | y) + dpm.rank_of(x & y) <= dpm.rank_of(x) + dpm.rank_of(y)


@pytest.fixture(scope="module")
def eg3():
    return DiscretePolymatroid(3, EG3_RANK)


@pytest.fixture(scope="module")
def eg4():
    return DiscretePolymatroid(3, EG4_RANK)


def test_membership_examples(eg3):
    assert eg3.is_member((1, 1, 1))
    assert not eg3.is_member((1, 1, 2))
    assert eg3.is_member((0, 0, 0))
    with pytest.raises(ValueError):
        eg3.is_member((1, 1))


def test_basis_vectors_examples(eg3, eg4):
    assert set(eg3.basis_vectors()) == {(1, 1, 1), (1, 0, 2), (0, 1, 2)}
    assert set(eg4.basis_vectors()) == {(1, 1, 1), (1, 2, 0), (2, 0, 1), (2, 1, 0)}
    free = DiscretePolymatroid.from_matroid(Matroid.uniform(3, 3))
    assert free.basis_vectors() == [(1, 1, 1)]


def test_basis_vectors_share_component_sum(eg3, eg4):
    for dpm in (eg3, eg4):
        for b in dpm.basis_vectors():
            assert sum(b) == dpm.rank


def test_excluded_vectors_examples(eg3, eg4):
    assert eg3.excluded_vectors() == [(1, 1, 2)]
    assert eg3.minimal_excluded_vectors() == [(1, 1, 2)]
    assert set(eg4.minimal_excluded_vectors()) == {(0, 2, 1), (2, 1, 1), (2, 2, 0)}
    assert eg4.minimal_excluded_vectors() == brute_minimal_excluded(eg4)

    d_u23 = DiscretePolymatroid.from_matroid(Matroid.uniform(2, 3))
    assert d_u23.minimal_excluded_vectors() == brute_minimal_excluded(d_u23) == [(1, 1, 1)]


def test_membership_iff_below_some_basis_vector(eg3, eg4):
    for dpm in (eg3, eg4):
        bases = dpm.basis_vectors()
        for v in itertools.product(*(range(c + 1) for c in dpm.caps())):
            below = any(all(a <= b for a, b in zip(v, bv)) for bv in bases)
            assert dpm.is_member(v) == below


def test_from_matroid_correspondence():
    for matroid in (
        Matroid.uniform(2, 3),
        Matroid.uniform(2, 4),
        Matroid.from_matrix(FieldMatrix(2, HAMMING_G_ROWS)),
    ):
        dpm = DiscretePolymatroid.from_matroid(matroid)
        basis_supports = {
            tuple(i for i, x in enumerate(b) if x) for b in dpm.basis_vectors()
        }
        assert basis_supports == set(matroid.bases())
        excl_supports = {
            tuple(i for i, x in enumerate(c) if x) for c in dpm.minimal_excluded_vectors()
        }
        assert excl_supports == set(matroid.circuits())
        assert all(set(c) <= {0, 1} for c in dpm.minimal_excluded_vectors())


def test_hamming_minimal_excluded_weights():
    dpm = DiscretePolymatroid.from_matroid(Matroid.from_matrix(FieldMatrix(2, HAMMING_G_ROWS)))
    minimal = dpm.minimal_excluded_vectors()
    assert len(minimal) == 7
    assert all(sum(c) == 4 and set(c) <= {0, 1} for c in minimal)


def test_rank_zero_matroid_gives_singleton():
    dpm = DiscretePolymatroid.from_matroid(Matroid(2, [0, 0, 0, 0]))
    assert dpm.members() == [(0, 0)]
    assert dpm.basis_vectors() == [(0, 0)]
    assert dpm.excluded_vectors() == []


def test_scale(eg3):
    assert eg3.scale(1) == eg3
    doubled = eg3.scale(2)
    assert doubled.rank_of([0, 1]) == 4
    assert eg3.scale(2).scale(3) == eg3.scale(6)
    with pytest.raises(ValueError):
        eg3.scale(0)


def test_from_subspaces_reproduces_eg3(eg3):
    mat = FieldMatrix(2, EG3_REP_ROWS)
    blocks, at = [], 0
    for w in EG3_WIDTHS:
        blocks.append(mat.take_columns(range(at, at + w)))
        at += w
    rep = SubspaceRepresentation(2, blocks)
    assert DiscretePolymatroid.from_subspaces(rep) == eg3


def test_from_subspaces_reproduces_eg4(eg4):
    rep = SubspaceRepresentation.from_json_dict(
        {"matrix": FieldMatrix(2, EG4_REP_ROWS).to_json_dict(), "widths": list(EG4_WIDTHS)}
    )
    assert DiscretePolymatroid.from_subspaces(rep) == eg4


def test_from_subspaces_all_zero_blocks():
    rep = SubspaceRepresentation(2, [FieldMatrix.zeros(2, 3, 2), FieldMatrix.zeros(2, 3, 1)])
    dpm = DiscretePolymatroid.from_subspaces(rep)
    assert all(dpm.rank_of(mask) == 0 for mask in range(4))


def test_find_representation_reference_instances(eg3, eg4):
    for dpm in (eg3, eg4):
        rep = find_representation(dpm, q=2)
        assert rep is not None
        assert rep.widths == dpm.caps()
        assert DiscretePolymatroid.from_subspaces(rep) == dpm


def test_find_representation_u24_binary_negative_ternary_positive():
    dpm = DiscretePolymatroid.from_matroid(Matroid.uniform(2, 4))
    assert find_representation(dpm, q=2) is None
    rep = find_representation(dpm, q=3)
    assert rep is not None
    assert DiscretePolymatroid.from_subspaces(rep) == dpm


def test_find_representation_budget():
    dpm = DiscretePolymatroid.from_matroid(Matroid.uniform(2, 4))
    with pytest.raises(SearchBudgetExceeded):
        find_representation(dpm, q=2, budget=2)


def test_find_representation_rejects_nonpositive_budget():
    for budget in (0, -1):
        for dpm in (DiscretePolymatroid(2, [0, 0, 0, 0]), DiscretePolymatroid(2, [0, 1, 1, 2])):
            with pytest.raises(ValueError, match="budget must be positive"):
                find_representation(dpm, q=3, budget=budget)


def test_find_representation_scale_limits():
    big = DiscretePolymatroid.from_matroid(Matroid.uniform(2, 5))
    with pytest.raises(ValueError):
        find_representation(big, q=2)


def test_multilinear_scaled_representation():
    # nD route: 2x scaling of D(U_{2,3}) is binary representable.
    dpm = DiscretePolymatroid.from_matroid(Matroid.uniform(2, 3)).scale(2)
    rep = find_representation(dpm, q=2)
    assert rep is not None
    assert DiscretePolymatroid.from_subspaces(rep) == dpm


def test_axioms_on_all_construction_paths(eg3, eg4):
    check_axioms_all_pairs(eg3)
    check_axioms_all_pairs(eg4)
    check_axioms_all_pairs(eg3.scale(3))
    check_axioms_all_pairs(DiscretePolymatroid.from_matroid(Matroid.uniform(2, 4)))
    rng = np.random.default_rng(41)
    for _ in range(10):
        blocks = [FieldMatrix(2, rng.integers(0, 2, size=(3, 2))) for _ in range(3)]
        check_axioms_all_pairs(DiscretePolymatroid.from_subspaces(SubspaceRepresentation(2, blocks)))


def test_validation_rejects_bad_tables():
    with pytest.raises(ValueError):
        DiscretePolymatroid(2, [0, 2, 2, 1])  # not monotone
    with pytest.raises(ValueError):
        DiscretePolymatroid(2, [0, 0, 0, 1])  # not submodular
    with pytest.raises(ValueError):
        DiscretePolymatroid(2, [1, 1, 1, 1])  # rho(empty) != 0


def test_json_round_trip(eg3):
    assert DiscretePolymatroid.from_json_dict(eg3.to_json_dict()) == eg3


def test_from_matroid_correspondence_random():
    # Circuit <-> minimal-excluded correspondence presumes no loops: a loop's
    # one-element circuit has indicator above the cap vector, so it is not an
    # excluded vector at all.  Basis correspondence is loop-agnostic.
    rng = np.random.default_rng(79)
    done = 0
    while done < 6:
        mat = FieldMatrix(2, rng.integers(0, 2, size=(3, 5)))
        matroid = Matroid.from_matrix(mat)
        dpm = DiscretePolymatroid.from_matroid(matroid)
        assert {
            tuple(i for i, x in enumerate(b) if x) for b in dpm.basis_vectors()
        } == set(matroid.bases())
        if not all(any(col) for col in zip(*mat.to_rows())):
            continue
        assert {
            tuple(i for i, x in enumerate(c) if x) for c in dpm.minimal_excluded_vectors()
        } == set(matroid.circuits())
        done += 1


def _brute_force_representable(dpm, q=2):
    """Oracle: unquotiented scan of all block assignments, packed GF(2)."""
    from gicode.gf import bits_rank

    assert q == 2
    rows = dpm.rank
    caps = dpm.caps()
    width = sum(caps)
    table = dpm.rank_table()
    if rows == 0:
        return all(v == 0 for v in table)
    starts = []
    at = 0
    for c in caps:
        starts.append(at)
        at += c
    masks = range(1, 1 << dpm.ground_size)
    col_sets = {
        mask: [
            starts[i] + s
            for i in range(dpm.ground_size)
            if mask >> i & 1
            for s in range(caps[i])
        ]
        for mask in masks
    }
    mod = 1 << rows
    for value in range(mod ** width):
        cols = []
        v = value
        for _ in range(width):
            cols.append(v % mod)
            v //= mod
        if all(
            bits_rank(cols[j] for j in col_sets[mask]) == table[mask] for mask in masks
        ):
            return True
    return False


def test_find_representation_agrees_with_unquotiented_search(eg3, eg4):
    # Exhaustive sweep of small rank tables plus the bundled instances:
    # the basis-pinned quotient never changes the representability verdict.
    import itertools as it

    instances = [eg3, eg4, DiscretePolymatroid.from_matroid(Matroid.uniform(2, 4))]
    # r = 2 with genuinely polymatroidal singleton ranks up to 2.
    for values in it.product(range(3), range(3), range(5)):
        try:
            instances.append(DiscretePolymatroid(2, (0,) + values))
        except ValueError:
            continue
    # r = 3 with 0/1 singletons and pair ranks up to 2.
    bounds = [2, 2, 3, 2, 3, 3, 4]  # {1},{2},{1,2},{3},{1,3},{2,3},{1,2,3}
    for values in it.product(*(range(b) for b in bounds)):
        try:
            instances.append(DiscretePolymatroid(3, (0,) + values))
        except ValueError:
            continue
    assert len(instances) > 30
    for dpm in instances:
        rep = find_representation(dpm, q=2)
        assert (rep is not None) == _brute_force_representable(dpm, q=2)
        if rep is not None:
            assert DiscretePolymatroid.from_subspaces(rep) == dpm
