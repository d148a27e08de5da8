"""Matroid unit tests: reference instances, axiom oracles, representability."""

import gc
import random
import re
import tracemalloc
from itertools import combinations
from time import perf_counter

import numpy as np
import pytest

import gicode.matroid as matroid_module
from gicode.gf import FieldMatrix, packed_rank, span_insert
from gicode.instances import HAMMING_G_ROWS, U23_REP_ROWS
from gicode.matroid import (
    Matroid,
    SearchBudgetExceeded,
    _lane_masks,
    _lanes,
    find_representation,
    subset_ranks,
    validate_rank_table,
)
from gicode.polymatroid import DiscretePolymatroid
from small_structures import rank_tables

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

# The Fano plane PG(2,2): binary, not representable over GF(3) or GF(5).
FANO = Matroid.from_matrix(FieldMatrix(2, [[v >> i & 1 for v in range(1, 8)] for i in range(3)]))

# The binary affine geometry AG(3,2): the 8 points (1, x) of GF(2)^4, x in GF(2)^3.
AG32 = Matroid.from_matrix(FieldMatrix(2, [[1] * 8] + [[v >> i & 1 for v in range(8)] for i in range(3)]))


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


def test_rank_of_refuses_what_is_not_a_subset():
    # A bool is not a bitmask, nor an element; elements must lie in [0, m).
    u23 = Matroid.uniform(2, 3)
    assert (u23.rank_of(0b101), u23.rank_of([0, 2]), u23.rank_of(range(3)), u23.rank_of(())) == (2, 2, 2, 0)
    for subset in (True, False, [True, 2], [3], [-1], [1.0], 8, -1):
        with pytest.raises(ValueError):
            u23.rank_of(subset)


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


def _first_violation(table, m, cardinality_bound):
    """validate_rank_table's verdict, from the local axiom forms checked one subset at a time."""
    size = 1 << m
    if table[0] != 0:
        return "rank of empty set must be 0"
    if min(table) < 0:
        return "ranks must be non-negative"
    if cardinality_bound and any(table[s] > bin(s).count("1") for s in range(size)):
        return "rank exceeds subset cardinality (R1)"
    for i in range(m):
        bi = 1 << i
        if any(table[s | bi] < table[s] for s in range(size) if not s & bi):
            return "rank table is not monotone"
        for j in range(i + 1, m):
            bj = 1 << j
            free = (s for s in range(size) if not s & (bi | bj))
            if any(table[s | bi] + table[s | bj] < table[s | bi | bj] + table[s] for s in free):
                return "rank table is not submodular"
    return None


def test_validation_matches_one_subset_at_a_time():
    # Tables of random vector matroids, scaled so that some ranks need more
    # than one byte, then perturbed in one or two entries.  A lane is one
    # byte up to 6-bit ranks and two up to 14-bit ones, so the scales put
    # the largest rank on both sides of each of those edges.
    rng = np.random.default_rng(83)
    verdicts, top_bits = set(), set()
    for _ in range(600):
        m = int(rng.integers(0, 8))
        q = int(rng.choice([2, 3, 5]))
        rows = int(rng.integers(1, 5))
        table = list(Matroid.from_matrix(FieldMatrix(q, rng.integers(0, q, size=(rows, m)))).rank_table())
        scale = int(rng.choice([1, 1, 2, 12, 25, 40, 3000, 8000]))
        table = [int(v) * scale for v in table]
        for _ in range(int(rng.integers(0, 3))):
            table[int(rng.integers(0, 1 << m))] += int(rng.integers(-2, 3)) * scale
        top_bits.add(max(table).bit_length())
        for bound in (True, False):
            expected = _first_violation(table, m, bound)
            verdicts.add(expected)
            if expected is None:
                validate_rank_table(table, m, cardinality_bound=bound)
            else:
                with pytest.raises(ValueError, match=re.escape(expected)):
                    validate_rank_table(table, m, cardinality_bound=bound)
    assert len(verdicts) == 6  # valid, and every kind of violation
    assert {6, 7, 8, 14, 15, 16} <= top_bits


def test_validation_interleaves_lane_widths_at_one_m():
    # At one m, tables whose largest rank needs lanes of 1, 2 and 3 bytes
    # (scales 1, 3000, 1 in turn; rank 6 at scale 3000 needs 15 bits) follow
    # each other, so lane masks built for one width never serve another.
    rng = np.random.default_rng(97)
    m, widths, verdicts = 6, set(), set()
    for t in range(240):
        q = int(rng.choice([2, 3, 5]))
        rows = int(rng.integers(1, m + 1))
        table = list(Matroid.from_matrix(FieldMatrix(q, rng.integers(0, q, size=(rows, m)))).rank_table())
        scale = (1, 3000, 1)[t % 3]
        table = [v * scale for v in table]
        for _ in range(int(rng.integers(0, 3))):
            table[int(rng.integers(0, 1 << m))] += int(rng.integers(-2, 3)) * scale
        widths.add((max(max(table), m).bit_length() + 9) // 8)
        for bound in (True, False):
            expected = _first_violation(table, m, bound)
            verdicts.add(expected)
            if expected is None:
                validate_rank_table(table, m, cardinality_bound=bound)
            else:
                with pytest.raises(ValueError, match=re.escape(expected)):
                    validate_rank_table(table, m, cardinality_bound=bound)
    assert widths == {1, 2, 3}
    assert len(verdicts) == 6


def test_rank_above_m_fails_r1_before_any_lanes_are_built(monkeypatch):
    def no_lanes(m, bits):
        raise AssertionError("lane masks built")

    monkeypatch.setattr(matroid_module, "_lane_masks", no_lanes)
    with pytest.raises(ValueError, match=re.escape("(R1)")):
        validate_rank_table([0] + [10**300] * 15, 4, cardinality_bound=True)


def test_rejected_wide_tables_leave_no_masks_behind():
    # Tables without the cardinality bound may hold values of any size, and
    # their lane masks grow with the largest one (~8 MB each at m = 12 here).
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for digits in (300, 340, 380):
            table = [0] + [10**digits] * ((1 << 12) - 1)
            table[-1] -= 1
            with pytest.raises(ValueError, match="not monotone"):
                validate_rank_table(table, 12, cardinality_bound=False)
        del table
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20


def test_doubled_size_lanes_count_each_subset():
    for m in range(17):
        for bits in (m.bit_length(), 12):
            width, _, sizes, _ = _lane_masks(m, bits)
            assert sizes == _lanes((s.bit_count() for s in range(1 << m)), width)


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


def _scan_bases(m):
    """Oracle: the scan of every one of the 2^m masks, in its ascending-mask order."""
    return [
        tuple(e for e in range(m.ground_size) if mask >> e & 1)
        for mask in range(1 << m.ground_size)
        if mask.bit_count() == m.rank == m.rank_of(mask)
    ]


def _scan_circuits(m):
    """Oracle: the scan of every one of the 2^m masks, in its ascending-mask order."""
    out = []
    for mask in range(1, 1 << m.ground_size):
        size = mask.bit_count()
        if m.rank_of(mask) == size - 1 and all(
            m.rank_of(mask & ~(1 << e)) == size - 1 for e in range(m.ground_size) if mask >> e & 1
        ):
            out.append(tuple(e for e in range(m.ground_size) if mask >> e & 1))
    return out


def test_bases_match_the_full_subset_scan():
    rng = random.Random(61)
    for trial in range(240):
        q, rows, cols = (2, 3, 5)[trial % 3], rng.randint(1, 4), rng.randint(0, 8)
        m = Matroid.from_matrix(FieldMatrix(q, [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]))
        assert m.bases() == _scan_bases(m), (q, rows, cols)


def test_circuits_match_the_full_subset_scan():
    rng = random.Random(97)
    kinds = {"loops": 0, "rank 0": 0}
    for trial in range(300):
        q, rows, cols = (2, 3, 5)[trial % 3], rng.randint(1, 4), rng.randint(1, 8)
        entries = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
        for r in range(rows) if trial % 4 == 0 else ():  # a zero column: element 0 is a loop
            entries[r][0] = 0
        if trial % 25 == 0:
            entries = [[0] * cols for _ in range(rows)]
        m = Matroid.from_matrix(FieldMatrix(q, entries))
        kinds["loops"] += m.rank_of([0]) == 0
        kinds["rank 0"] += m.rank == 0
        assert m.circuits() == _scan_circuits(m), (q, entries)
    assert kinds["loops"] >= 75 and kinds["rank 0"] >= 12


def _vamos():
    """The Vamos matroid, not representable over any field: rank 4 on four
    pairs {0,1}, {2,3}, {4,5}, {6,7}, whose dependent 4-sets are the unions
    of two pairs except {4,5} + {6,7}."""
    pairs = [0b11, 0b1100, 0b110000, 0b11000000]
    planes = {a | b for a, b in combinations(pairs, 2)} - {pairs[2] | pairs[3]}
    return Matroid(8, [3 if mask in planes else min(mask.bit_count(), 4) for mask in range(256)])


def test_bases_and_circuits_match_the_scans_on_every_small_matroid():
    # Every labelled matroid on 0-5 elements, every uniform matroid on up to
    # 12 elements and the Vamos matroid, none of them drawn from a matrix.
    matroids = [Matroid(m, table) for m in range(6) for table in rank_tables(m, 1)]
    assert len(matroids) == 1 + 497
    matroids += [Matroid.uniform(k, m) for m in range(13) for k in range(m + 1)]
    vamos = _vamos()
    assert (len(vamos.bases()), len(vamos.circuits())) == (70 - 5, 5 + 36)
    for m in matroids + [vamos]:
        assert m.bases() == _scan_bases(m), m.rank_table()
        assert m.circuits() == _scan_circuits(m), m.rank_table()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Matroid(True, [0, 1]), "m must be an integer, got True"),
        (lambda: Matroid(2.0, [0, 1, 1, 1]), "m must be an integer, got 2.0"),
        (lambda: Matroid.from_json_dict({"m": True, "rank": [0, 1]}), "m must be an integer, got True"),
        (lambda: Matroid.uniform(True, 3), "k must be an integer, got True"),
        (lambda: Matroid.uniform(2.0, 3), "k must be an integer, got 2.0"),
        (lambda: Matroid.uniform(1, 3.0), "m must be an integer, got 3.0"),
        (lambda: Matroid.from_json_dict({"uniform": [True, 3]}), "k must be an integer, got True"),
    ],
    ids=["m=True", "m=2.0", "json m=True", "uniform k=True", "uniform k=2.0", "uniform m=3.0", "json uniform k=True"],
)
def test_sizes_must_be_ints(build, message):
    # Each size equals an int, so only a type check turns it away.
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


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


@pytest.mark.parametrize(
    "matroid, q, total",
    [
        (FANO, 3, 1431),
        (FANO, 5, 162_125),
        (Matroid.uniform(3, 6), 3, 243),
        (Matroid.uniform(2, 5), 3, 117),
        (AG32, 3, 3321),
        (AG32, 5, 680_625),
        (Matroid.uniform(3, 7), 5, 968_125),
    ],
    ids=["fano-q3", "fano-q5", "u36-q3", "u25-q3", "ag32-q3", "ag32-q5", "u37-q5"],
)
def test_find_representation_spends_every_unreduced_assignment(matroid, q, total):
    # `total` is what the search spent before it placed only top-digit-1
    # columns; each skipped multiple must still be charged in full.
    assert find_representation(matroid, q=q, budget=total) is None
    with pytest.raises(SearchBudgetExceeded, match=f"^budget of {total - 1} column assignments exhausted$"):
        find_representation(matroid, q=q, budget=total - 1)


def test_find_representation_fano_q5_well_under_a_second():
    best = None
    for _ in range(3):  # best of three, as in test_acceptance.py
        start = perf_counter()
        assert find_representation(FANO, q=5) is None
        elapsed = perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
        if best < 0.5:
            break
    assert best < 0.5, f"Fano over GF(5) took {best:.2f} s"


def test_find_representation_ag32_q5_well_under_a_second():
    # Each free column of AG(3,2) lies on a 4-element fundamental circuit,
    # so its support is fixed and over GF(5) the search places 16 of a
    # slot's 625 columns (top digit 1, two other digits nonzero).
    best = None
    for _ in range(3):  # best of three, as in test_acceptance.py
        start = perf_counter()
        assert find_representation(AG32, q=5) is None
        elapsed = perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
        if best < 0.3:
            break
    assert best < 0.3, f"AG(3,2) over GF(5) took {best:.2f} s"


def test_from_matrix_gf5_within_ten_times_gf2():
    # 2^12 subset ranks over each field: the same walk over the keyed basis
    # at every q, so only the lane arithmetic separates GF(5) from GF(2).
    best = {}
    for q in (2, 5):
        mat = FieldMatrix(q, np.random.default_rng(12).integers(0, q, size=(5, 12)))
        for _ in range(3):  # best of three, as in test_acceptance.py
            start = perf_counter()
            Matroid.from_matrix(mat)
            elapsed = perf_counter() - start
            best[q] = min(best.get(q, elapsed), elapsed)
    assert best[5] < 10 * best[2], f"GF(5) {best[5] * 1e3:.1f} ms vs GF(2) {best[2] * 1e3:.1f} ms"


def test_find_representation_rejects_nonpositive_budget():
    for budget in (0, -1, 2.5, 40.0, True):  # an int of at least 1, not a float or a bool
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


@pytest.mark.parametrize("table", [[0, True, 1, True], [0, 1, 1, 2.0], [0, 1, 1, "2"], (0, 1, 1, np.int64(2))])
def test_ranks_must_be_ints(table):
    # operator.index took True as 1 (and numpy's ints): [0, True, 1, True] built (0, 1, 1, 1).
    for cls in (Matroid, DiscretePolymatroid):
        with pytest.raises(ValueError, match="ranks must be integers"):
            cls(2, table)
    assert Matroid(2, [0, 1, 1, 1]).rank_table() == (0, 1, 1, 1)


def test_repr_and_limits_are_pinned():
    assert repr(Matroid.uniform(2, 4)) == "Matroid(m=4, rank=2)"
    with pytest.raises(ValueError, match=re.escape("ground set size must be in [0, 16]")):
        Matroid(17, [])
    # rank({0}) = 2 is a polymatroid's table, not a matroid's.
    with pytest.raises(ValueError, match=re.escape("rank exceeds subset cardinality (R1)")):
        Matroid(1, [0, 2])


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


def test_find_representation_pins_the_smallest_mask_basis(monkeypatch):
    # The greedy basis, kept element by element while the rank rises, is the
    # basis of least weight for weights 2^e: the first one a scan of all
    # 2^m masks in ascending order meets.
    pins = []

    def record(table, widths, pinned, *rest):
        pins.append(pinned)

    monkeypatch.setattr(matroid_module, "_search_representation", record)
    checked = 0
    for m in range(1, 7):
        for table in rank_tables(m, 1):
            k = table[-1]
            if not 1 <= k <= 5:  # rank 0 pins nothing; rank 6 is past the search's limit
                continue
            find_representation(Matroid(m, table), q=2)
            smallest = next(mask for mask in range(1 << m) if mask.bit_count() == k == table[mask])
            assert pins.pop() == [smallest >> e & 1 for e in range(m)], table
            checked += 1
    assert checked == 4297


def _check_walk_inserts(table, columns, pinned, rows, prune):
    """span_insert calls of the check walks of a binary matroid search whose
    free elements take `columns` one by one, each passing.  With `prune`
    False the walk also descends below an element that adds nothing to its
    parent's basis: the walk before the closure rule, kept as the reference."""
    inserts = 0

    def grows(pivots, e, mask, others, first):
        nonlocal inserts
        inserts += 1
        key = span_insert(columns[e], pivots, 2)
        r = len(pivots)
        ok = r == table[mask]
        if ok and r < rows and (key >= 0 or not prune):
            for t in range(first, len(others)):
                if not grows(pivots, others[t], mask | 1 << others[t], others, t + 1):
                    ok = False
                    break
        if key >= 0:
            del pivots[key]
        return ok

    for e in range(len(columns)):
        if not pinned[e]:
            others = [i for i in reversed(range(len(columns))) if i != e and (i < e or pinned[i])]
            assert grows({}, e, 1 << e, others, 0)
    return inserts


def test_check_walk_skips_the_supersets_the_closure_rule_settles(monkeypatch):
    # Rank 3 on 8 elements: parallel classes {0, 1}, {2, 4} and {5, 7}, a loop
    # 3, and 6 = 0 + 2.  Over GF(2) each free column has one placed value, the
    # one with its fixed support, so the search makes one check walk per free
    # element and the witness holds the columns those walks checked.
    a, b, c, zero = [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]
    degenerate = Matroid.from_matrix(FieldMatrix.from_columns(2, [a, a, b, zero, b, c, [1, 1, 0], c]))
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return span_insert(*args)

    monkeypatch.setattr(matroid_module, "span_insert", counting)
    rep = find_representation(degenerate, q=2)
    monkeypatch.undo()
    assert Matroid.from_matrix(rep) == degenerate
    pinned = [int(e in (0, 2, 5)) for e in range(8)]  # the greedy basis, pinned to the identity
    assert tuple(rep.packed[e] for e in (0, 2, 5)) == FieldMatrix.identity(2, 3).packed
    args = degenerate.rank_table(), rep.packed, pinned, 3
    assert calls == _check_walk_inserts(*args, prune=True) == 59
    assert _check_walk_inserts(*args, prune=False) == 161


def _random_groups(rng, q):
    """Up to 8 groups of 0-3 packed vectors in at most 4 rows, a third of them zero."""
    rows = rng.randrange(0, 5)

    def vector():
        if rng.random() < 1 / 3:
            return 0
        return FieldMatrix.from_columns(q, [[rng.randrange(q) for _ in range(rows)]], rows=rows).packed[0]

    return [[vector() for _ in range(rng.randrange(0, 4))] for _ in range(rng.randrange(0, 9))]


def _copied_subtrees(table, m):
    """How often `subset_ranks` copies a subtree: a group that adds nothing at
    a node the walk descended into (below full rank, every group raising it)."""
    total = table[-1]
    walked = {0} if total else set()
    copies = 0
    for mask in range(1, 1 << m):  # a parent, mask less its top element, comes first
        parent = mask ^ 1 << mask.bit_length() - 1
        if parent in walked:
            if table[mask] == table[parent]:
                copies += 1
            elif table[mask] < total:
                walked.add(mask)
    return copies


@pytest.mark.parametrize("q", [2, 3, 5])
def test_subset_ranks_matches_the_rank_of_every_subset(q):
    # The walk writes whole subtrees without computing them, filled at full
    # rank and copied below a group that adds nothing, so every entry is
    # recomputed here from the subset's own vectors.
    rng = random.Random(f"subset_ranks:{q}")
    edge_cases = [[], [[]], [[0]], [[], [0, 0], []], [[1], [], [1]]]  # m = 0, empty groups, rank 0
    # Up to ten one-column groups with zero, repeated and parallel columns.
    matrices = [_mixed_columns(rng, q, rng.randrange(1, 5), rng.randrange(6, 11)) for _ in range(12)]
    cases = edge_cases + [_random_groups(rng, q) for _ in range(130)] + [[[v] for v in a.packed] for a in matrices]
    filled = copied = 0
    for groups in cases:
        table = subset_ranks(groups, q)
        assert len(table) == 1 << len(groups)
        for mask, rank in enumerate(table):
            vectors = [v for e, group in enumerate(groups) if mask >> e & 1 for v in group]
            assert rank == packed_rank(vectors, q), (groups, mask)
        # All groups but the last already span everything: the walk filled a slice.
        filled += len(groups) > 1 and table[-1] > 0 and table[len(table) // 2 - 1] == table[-1]
        copied += _copied_subtrees(table, len(groups)) > 0
    assert filled > 40
    assert copied > 60


def _walk_cost(table, m):
    """span_insert calls of a walk over one-vector groups of rank >= 1: one per
    later element at each node it descends into, the independent sets below full rank."""
    return sum(m - mask.bit_length() for mask, rank in enumerate(table) if rank == mask.bit_count() < table[-1])


def test_subset_ranks_walks_only_the_independent_sets_below_full_rank(monkeypatch):
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return span_insert(*args)

    monkeypatch.setattr(matroid_module, "span_insert", counting)
    pg32 = FieldMatrix(2, [[v >> i & 1 for v in range(1, 16)] for i in range(4)])
    rng = random.Random("subset_ranks-walk")
    randoms = [_mixed_columns(rng, q, rng.randrange(1, 5), rng.randrange(1, 11)) for q in (2, 3, 5) for _ in range(8)]
    cases = [pg32, FieldMatrix(2, HAMMING_G_ROWS), *(a for a in randoms if a.rank())]
    assert len(cases) > 20
    for a in cases:
        calls = 0
        table = subset_ranks([[v] for v in a.packed], a.q)
        assert calls == _walk_cost(table, a.cols), a
        if a is pg32:
            assert calls == 1820  # 3935 when the walk descended below dependent elements too


def _mixed_columns(rng, q, rows, m):
    """m columns over GF(q): fresh random vectors mixed with zero columns,
    repeats and scalar multiples of earlier columns."""
    cols = []
    for _ in range(m):
        kind = rng.choice(("fresh", "fresh", "zero", "repeat", "multiple"))
        if kind == "zero":
            cols.append([0] * rows)
        elif kind == "fresh" or not cols:
            cols.append([rng.randrange(q) for _ in range(rows)])
        else:
            c = 1 if kind == "repeat" else rng.randrange(1, q)
            cols.append([c * x % q for x in rng.choice(cols)])
    return FieldMatrix.from_columns(q, cols, rows=rows)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_from_matrix_tables_hold_the_axioms(q):
    # from_matrix builds its instance without validate_rank_table: a table of
    # column-span ranks is a matroid by construction.  The check is made here.
    rng = random.Random(f"from_matrix-axioms:{q}")
    zero = repeated = False
    for m in [*range(17), *[rng.randrange(1, 7) for _ in range(12)]]:
        mat = _mixed_columns(rng, q, rng.randrange(1, 6), m)
        zero |= 0 in mat.packed
        repeated |= len(set(mat.packed) - {0}) < len(mat.packed) - mat.packed.count(0)
        matroid = Matroid.from_matrix(mat)
        validate_rank_table(matroid.rank_table(), m, cardinality_bound=True)
        if m <= 5:
            check_axioms_all_pairs(matroid)
    assert zero and repeated


def test_uniform_tables_hold_the_axioms():
    # uniform builds its instance without validate_rank_table too.
    for k, m in [*((k, m) for m in range(9) for k in range(m + 1)), (0, 16), (7, 16), (16, 16)]:
        matroid = Matroid.uniform(k, m)
        validate_rank_table(matroid.rank_table(), m, cardinality_bound=True)
        if m <= 4:
            check_axioms_all_pairs(matroid)


BAD_TABLES = [
    (2, [0, 1, 1, 0], "not monotone"),
    (2, [0, 0, 0, 1], "not submodular"),
    (2, [1, 1, 1, 2], "rank of empty set must be 0"),
    (2, [0, True, 1, True], "ranks must be integers"),
    (2, [0, 1, 1, 2.0], "ranks must be integers"),
    (2, [0, 1, 1], "rank table must have 4 entries"),
]


@pytest.mark.parametrize("m, table, message", [*BAD_TABLES, (1, [0, 2], "(R1)")])
def test_json_rank_tables_keep_every_check(m, table, message):
    # Only computed tables skip validation; a table read from JSON does not.
    with pytest.raises(ValueError, match=re.escape(message)):
        Matroid.from_json_dict({"m": m, "rank": table})
