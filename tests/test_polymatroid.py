"""Discrete polymatroid tests: vector enumeration, D(M), representability."""

import collections
import itertools
import random
import re

import numpy as np
import pytest

from gicode.construct import gic_from_polymatroid
from gicode.gf import FieldMatrix
from gicode.instances import EG3_RANK, EG4_RANK, HAMMING_G_ROWS
import gicode.polymatroid as polymatroid_module
from gicode.matroid import Matroid, SearchBudgetExceeded, validate_rank_table
from gicode.polymatroid import (
    DiscretePolymatroid,
    SubspaceRepresentation,
    find_representation,
)
from small_structures import rank_tables

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


def reference_is_member(dpm, v):
    """The definition, mask by mask (Herzog & Hibi): v >= 0 and v(A) <= rho(A) for every subset A."""
    r, table = dpm.ground_size, dpm.rank_table()
    return min(v, default=0) >= 0 and all(
        sum(v[i] for i in range(r) if mask >> i & 1) <= table[mask] for mask in range(1 << r)
    )


def reference_lists(dpm):
    """(members, basis vectors, excluded, minimal excluded) in box order, each
    vector tested by `reference_is_member` and each excluded vector's
    one-lower neighbours looked up, as the per-mask implementation did."""
    box = itertools.product(*(range(c + 1) for c in dpm.caps()))
    member = {v: reference_is_member(dpm, v) for v in box}
    excluded = [v for v, ok in member.items() if not ok]
    return (
        [v for v, ok in member.items() if ok],
        [v for v, ok in member.items() if ok and sum(v) == dpm.rank],
        excluded,
        [v for v in excluded if all(member[v[:i] + (x - 1,) + v[i + 1 :]] for i, x in enumerate(v) if x)],
    )


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
    with pytest.raises(ValueError, match="vector length must match ground set size"):
        eg3.is_member((1, 1))
    for vector in ((1.9, 1, 1), ("1", True, 1), (1, 1, 1.0)):  # int(x) took the first two as members
        with pytest.raises(ValueError, match="vector entries must be integers"):
            eg3.is_member(vector)


def _small_and_random_polymatroids():
    """Every table on r <= 3 elements with one-element gains <= 2, and 20
    random span polymatroids on r <= 6 elements."""
    out = [DiscretePolymatroid(r, t) for r in range(4) for step in (1, 2) for t in rank_tables(r, step)]
    rng = random.Random("polymatroid-membership")
    for _ in range(20):
        q, rows = rng.choice((2, 3, 5)), rng.randrange(1, 5)
        blocks = [_random_block(rng, q, rows, rng.randrange(3)) for _ in range(rng.randrange(1, 7))]
        out.append(DiscretePolymatroid.from_subspaces(SubspaceRepresentation(q, blocks)))
    return out


def test_vector_lists_match_the_per_mask_definition():
    instances = _small_and_random_polymatroids()
    assert max(dpm.ground_size for dpm in instances) == 6
    for dpm in instances:
        lists = (dpm.members(), dpm.basis_vectors(), dpm.excluded_vectors(), dpm.minimal_excluded_vectors())
        assert lists == reference_lists(dpm), dpm.to_json_dict()
        r = dpm.ground_size
        for v in [*lists[0], *lists[2], (-1,) * r, (9,) * r, (1,) * r]:
            assert dpm.is_member(v) == reference_is_member(dpm, v), (dpm.to_json_dict(), v)


def test_membership_work_on_d_u38(monkeypatch):
    # One subset-sum pass per box vector for the members and one for the
    # excluded vectors; each one-lower neighbour is looked up in the member set.
    dpm = DiscretePolymatroid.from_matroid(Matroid.uniform(3, 8))
    calls = collections.Counter()
    for name in ("_fits", "is_member"):
        method = getattr(DiscretePolymatroid, name)
        monkeypatch.setattr(
            DiscretePolymatroid, name, lambda self, v, method=method, name=name: calls.update([name]) or method(self, v)
        )
    dpm.minimal_excluded_vectors()
    assert calls == {"_fits": 2 * 256}
    calls.clear()
    gic_from_polymatroid(dpm)
    assert calls["is_member"] == 0 and calls["_fits"] > 0


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
    for n in (True, 2.0):  # each equals an int, so only a type check turns it away
        with pytest.raises(ValueError, match=re.escape(f"n must be a positive integer, got {n!r}")):
            eg3.scale(n)


def test_ground_size_must_be_an_int():
    for r in (True, 1.0):
        with pytest.raises(ValueError, match=re.escape(f"r must be an integer, got {r!r}")):
            DiscretePolymatroid.from_json_dict({"r": r, "rank": [0, 1]})


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


REP_MATRIX = {"q": 2, "rows": [[1, 0, 1], [0, 1, 1]]}  # three columns
WIDTHS_ERROR = "widths must be non-negative integers that sum to the 3 matrix columns"
MALFORMED_REPRESENTATIONS = {
    "not an object": ([REP_MATRIX, [3]], "representation must be a JSON object"),
    "no matrix": ({"widths": [3]}, "representation is missing the 'matrix' key"),
    "no widths": ({"matrix": REP_MATRIX}, "representation is missing the 'widths' key"),
    "widths not a list": ({"matrix": REP_MATRIX, "widths": 3}, WIDTHS_ERROR),
    "a bool width": ({"matrix": REP_MATRIX, "widths": [True, 2]}, WIDTHS_ERROR),
    "a float width": ({"matrix": REP_MATRIX, "widths": [1.0, 2]}, WIDTHS_ERROR),
    "a string width": ({"matrix": REP_MATRIX, "widths": ["3"]}, WIDTHS_ERROR),
    "too few columns": ({"matrix": REP_MATRIX, "widths": [1]}, WIDTHS_ERROR),
    "too many columns": ({"matrix": REP_MATRIX, "widths": [2, 2]}, WIDTHS_ERROR),
    "a negative width": ({"matrix": REP_MATRIX, "widths": [-1, 4]}, WIDTHS_ERROR),
}


@pytest.mark.parametrize("doc, message", MALFORMED_REPRESENTATIONS.values(), ids=MALFORMED_REPRESENTATIONS.keys())
def test_malformed_representation_is_refused(doc, message):
    # Widths that do not split the columns would drop some, or wrap a negative
    # start around to the last ones.
    with pytest.raises(ValueError) as info:
        SubspaceRepresentation.from_json_dict(doc)
    assert str(info.value) == message


def test_from_subspaces_all_zero_blocks():
    rep = SubspaceRepresentation(2, [FieldMatrix.zeros(2, 3, 2), FieldMatrix.zeros(2, 3, 1)])
    dpm = DiscretePolymatroid.from_subspaces(rep)
    assert all(dpm.rank_of(mask) == 0 for mask in range(4))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_rank_zero_representation_spends_nothing(q):
    # At rank 0 the shared search has no slots: a budget of 1 is enough, and
    # every ground element gets an empty 0 x 0 block.
    for r in range(4):
        rep = find_representation(DiscretePolymatroid(r, [0] * (1 << r)), q, budget=1)
        assert rep == SubspaceRepresentation(q, [FieldMatrix.zeros(q, 0, 0)] * r)
        assert rep.widths == (0,) * r


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
    for budget in (0, -1, 2.5, 40.0, True):  # an int of at least 1, not a float or a bool
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


def test_repr_json_and_limits_are_pinned(eg3):
    assert repr(eg3) == "DiscretePolymatroid(r=3, rank=3)"
    assert eg3.to_json_dict() == {"r": 3, "rank": EG3_RANK}
    again = DiscretePolymatroid.from_json_dict({"r": 3, "rank": EG3_RANK})
    assert again == eg3 and hash(again) == hash(eg3)
    with pytest.raises(ValueError, match=re.escape("ground set size must be in [0, 10]")):
        DiscretePolymatroid(11, [])
    assert DiscretePolymatroid(1, [0, 2]).rank_table() == (0, 2)  # no cardinality bound


def test_polymatroid_never_equals_its_matroid():
    m = Matroid.uniform(2, 4)
    d = DiscretePolymatroid.from_matroid(m)
    assert d != m and m != d
    assert d.rank_table() == m.rank_table() and hash(d) == hash(m)


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
    from gicode.gf import packed_rank

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
            packed_rank((cols[j] for j in col_sets[mask]), 2) == table[mask] for mask in masks
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


def _matroids_on(m):
    """Every matroid on {0, ..., m-1}, grown mask by mask with unit rank steps."""
    table = [0] * (1 << m)

    def grow(mask):
        if mask == 1 << m:
            try:
                found = Matroid(m, table)
            except ValueError:
                return
            yield found
            return
        below = [table[mask & ~(1 << e)] for e in range(m) if mask >> e & 1]
        for value in range(max(below), min(below) + 2):
            table[mask] = value
            yield from grow(mask + 1)

    yield from grow(1)


def test_matroid_and_its_polymatroid_agree_on_representability():
    # M is representable over GF(q) iff D(M) is.  The two front ends pin
    # different bases, so only the verdicts are compared, not the witnesses.
    from gicode.matroid import find_representation as find_matroid_representation

    matroids = [matroid for m in range(5) for matroid in _matroids_on(m)]
    assert len(matroids) == 1 + 2 + 5 + 16 + 68  # labelled matroids on 0..4 elements
    for matroid in matroids:
        dpm = DiscretePolymatroid.from_matroid(matroid)
        for q in (2, 3):
            assert (find_matroid_representation(matroid, q) is None) == (
                find_representation(dpm, q) is None
            ), (matroid.to_json_dict(), q)


@pytest.mark.parametrize("blocks", [11, 18])
def test_from_subspaces_refuses_a_wide_ground_set_before_the_walk(blocks, monkeypatch):
    # The table of r blocks has 2^r entries; r > 10 is refused before any is computed.
    walks = []
    monkeypatch.setattr(polymatroid_module, "subset_ranks", lambda *args: walks.append(args))
    rep = SubspaceRepresentation(2, [FieldMatrix(2, [[1]])] * blocks)
    with pytest.raises(ValueError, match=re.escape("ground set size must be in [0, 10]")):
        DiscretePolymatroid.from_subspaces(rep)
    assert walks == []


def test_computed_polymatroid_tables_hold_the_axioms():
    # from_subspaces, scale and from_matroid build their instances without
    # validate_rank_table: span ranks are a polymatroid's by construction, and
    # n times a polymatroid's (or a matroid's) table is one.  Checked here.
    rng = random.Random("polymatroid-axioms")
    for q in (2, 3, 5):
        for r in [*range(11), *[rng.randrange(1, 5) for _ in range(8)]]:
            rows = rng.randrange(1, 6)
            rep = SubspaceRepresentation(q, [_random_block(rng, q, rows, rng.randrange(4)) for _ in range(r)])
            dpm = DiscretePolymatroid.from_subspaces(rep)
            for n in (1, 2, 3):
                scaled = dpm.scale(n)
                validate_rank_table(scaled.rank_table(), r, cardinality_bound=False)
                if r <= 4:
                    check_axioms_all_pairs(scaled)
    for m in range(8):
        matroid = Matroid.from_matrix(FieldMatrix(2, [[rng.randrange(2) for _ in range(m)] for _ in range(3)]))
        dpm = DiscretePolymatroid.from_matroid(matroid)
        validate_rank_table(dpm.rank_table(), m, cardinality_bound=False)
        if m <= 5:
            check_axioms_all_pairs(dpm)


def _random_block(rng, q, rows, width):
    """A rows x width block over GF(q), zero or repeated columns included."""
    cols = [[rng.randrange(q) if rng.random() < 0.7 else 0 for _ in range(rows)] for _ in range(width)]
    if width > 1 and rng.random() < 0.3:
        cols[-1] = list(cols[0])
    return FieldMatrix.from_columns(q, cols, rows=rows)


@pytest.mark.parametrize(
    "table, message",
    [
        ([0, 2, 2, 1], "not monotone"),
        ([0, 0, 0, 1], "not submodular"),
        ([1, 1, 1, 1], "rank of empty set must be 0"),
        ([0, True, 1, True], "ranks must be integers"),
        ([0, 1, 1, 2.0], "ranks must be integers"),
        ([0, 1, 1], "rank table must have 4 entries"),
    ],
)
def test_json_rank_tables_keep_every_check(table, message):
    # Only computed tables skip validation; a table read from JSON does not.
    with pytest.raises(ValueError, match=re.escape(message)):
        DiscretePolymatroid.from_json_dict({"r": 2, "rank": table})
