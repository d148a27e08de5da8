"""Construction golden tests: exact receiver families, codes, extractions."""

import itertools
import random

import numpy as np
import pytest

import gicode.construct as construct_module
import gicode.matroid as matroid_module
from gicode.construct import (
    NonInvertibleYBlockError,
    NotPerfectError,
    code_from_matroid_rep,
    gic_from_matroid,
    gic_from_polymatroid,
    matroid_rep_from_code,
    polymatroid_rep_from_code,
)
from gicode.gf import FieldMatrix, packed_rank
from gicode.gic import (
    GICProblem,
    IndexCode,
    Receiver,
    canonical_representation,
    check_c1_c2,
    is_perfect,
    mu,
    verify_code,
)
from gicode.instances import HAMMING_G_ROWS, load
from gicode.matroid import Matroid
from gicode.polymatroid import DiscretePolymatroid
from gicode.solver import BUDGET_EXCEEDED, SearchConfig, solve_perfect_scalar_binary
from small_structures import rank_tables


def _plain(t, msgs):
    cols = []
    for msg in msgs:
        col = [0] * t
        col[msg] = 1
        cols.append(col)
    return FieldMatrix.from_columns(2, cols, rows=t)


def _summed(t, msgs):
    col = [0] * t
    for msg in msgs:
        col[msg] ^= 1
    return FieldMatrix.from_columns(2, [col], rows=t)


def _receiver_set(problem):
    return {(r.demand, r.knowledge) for r in problem.receivers}


def test_eg3_receiver_families_exact():
    bundle = load("eg3")
    p, trace = bundle["problem"], bundle["trace"]
    t = 7  # x1 x2 x3 y1^1 y2^1 y3^1 y3^2 -> indices 0..6

    expected = set()
    # S1 side-information sets for basis vectors (1,1,1), (1,0,2), (0,1,2)
    for has in ([3, 4, 5], [3, 4, 6], [3, 5, 6], [4, 5, 6]):
        for j in range(3):
            expected.add((_plain(t, [j]), _plain(t, has)))
    # S2: one receiver per (j, p); the (3, 2) entry has summed set
    # {y1^1, y2^1, y3^1} per the definition (Gamma_2 avoids the demand).
    for demand, summed in [(3, [4, 5, 6]), (4, [3, 5, 6]), (5, [3, 4, 6]), (6, [3, 4, 5])]:
        expected.add((_plain(t, [demand]), _summed(t, summed)))
    # R3
    for demand in (3, 4, 5, 6):
        expected.add((_plain(t, [demand]), _plain(t, [0, 1, 2])))

    assert len(p.receivers) == 20
    assert _receiver_set(p) == expected
    assert mu(p) == 4

    families = [gens[0]["family"] for gens in trace.entries]
    assert families.count("S1") == 12 and families.count("S2") == 4 and families.count("R3") == 4
    assert all(len(gens) == 1 for gens in trace.entries)  # no duplicates here


def test_eg3_code_verifies_and_extracts():
    bundle = load("eg3")
    p, code, dpm = bundle["problem"], bundle["code"], bundle["polymatroid"]
    assert verify_code(p, code).all_ok and is_perfect(p, code)
    rep = polymatroid_rep_from_code(p, code, dpm, 1)
    assert rep.widths == dpm.caps()
    assert DiscretePolymatroid.from_subspaces(rep) == dpm


def test_eg4_sum_receivers_exact():
    bundle = load("eg4")
    p = bundle["problem"]
    t = 8  # x1 x2 x3 y1^1 y1^2 y2^1 y2^2 y3^1 -> 0..7

    expected_s2 = {
        (5, (6, 7)), (6, (5, 7)), (7, (5, 6)),
        (3, (4, 5, 7)), (3, (4, 6, 7)),
        (4, (3, 5, 7)), (4, (3, 6, 7)),
        (5, (3, 4, 7)), (6, (3, 4, 7)),
        (7, (3, 4, 5)), (7, (3, 4, 6)),
        (3, (4, 5, 6)), (4, (3, 5, 6)), (5, (3, 4, 6)), (6, (3, 4, 5)),
    }
    expected = {(_plain(t, [d]), _summed(t, s)) for d, s in expected_s2}

    got = {
        (r.demand, r.knowledge)
        for r, gens in zip(p.receivers, bundle["trace"].entries)
        if gens[0]["family"] == "S2"
    }
    assert got == expected
    assert len(p.receivers) == 47 and mu(p) == 5


def test_u23_receiver_families_exact():
    bundle = load("u23")
    p = bundle["problem"]
    t = 5  # x1 x2 y1 y2 y3 -> 0..4
    expected = set()
    for has in ([2, 3], [2, 4], [3, 4]):
        for j in range(2):
            expected.add((_plain(t, [j]), _plain(t, has)))
    expected |= {
        (_plain(t, [2]), _summed(t, [3, 4])),
        (_plain(t, [3]), _summed(t, [2, 4])),
        (_plain(t, [4]), _summed(t, [2, 3])),
    }
    for y in (2, 3, 4):
        expected.add((_plain(t, [y]), _plain(t, [0, 1])))
    assert len(p.receivers) == 12
    assert _receiver_set(p) == expected


def test_u23_code_exact():
    bundle = load("u23")
    code = bundle["code"]
    assert code.to_json_dict()["L"] == [
        [1, 0, 1, 0, 0],  # y1 + x1
        [0, 1, 0, 1, 0],  # y2 + x2
        [1, 1, 0, 0, 1],  # y3 + x1 + x2
    ]
    assert verify_code(bundle["problem"], code).all_ok
    assert is_perfect(bundle["problem"], code)


def test_hamming_construction_counts():
    bundle = load("hamming")
    p, trace = bundle["problem"], bundle["trace"]
    families = [gens[0]["family"] for gens in trace.entries]
    assert families.count("R1") == 28 * 4
    assert families.count("R2") == 7 * 4
    assert families.count("R3") == 7
    assert len(p.receivers) == 147
    assert mu(p) == 7


def test_hamming_code_layout():
    bundle = load("hamming")
    cols = bundle["code"].to_json_dict()["L"]
    assert len(cols) == 7
    # c5 = y5 + x2 + x3 + x4 (x1..x4 are rows 0..3, y1..y7 rows 4..10)
    assert cols[4] == [0, 1, 1, 1, 0, 0, 0, 0, 1, 0, 0]
    assert verify_code(bundle["problem"], bundle["code"]).all_ok


def test_free_matroid_has_no_circuit_receivers():
    problem, trace = gic_from_matroid(Matroid.uniform(3, 3))
    families = {gens[0]["family"] for gens in trace.entries}
    assert "R2" not in families
    assert len(problem.receivers) == 3 + 3  # one basis x 3 demands, 3 in R3


def test_free_polymatroid_has_no_excluded_receivers():
    dpm = DiscretePolymatroid.from_matroid(Matroid.uniform(3, 3))
    problem, trace = gic_from_polymatroid(dpm)
    assert all(gens[0]["family"] != "S2" for gens in trace.entries)


def test_degenerate_rank_zero_rejected():
    with pytest.raises(ValueError):
        gic_from_polymatroid(DiscretePolymatroid(2, [0, 0, 0, 0]))
    with pytest.raises(ValueError):
        gic_from_matroid(Matroid(2, [0, 0, 0, 0]))


def test_matroid_and_polymatroid_constructions_coincide():
    # For loop-free matroids the polymatroid route through D(M) emits the
    # same receivers as the matroid route (c_j = 1 forces Gamma_2 empty).
    rng = np.random.default_rng(59)
    matroids = [Matroid.uniform(2, 3), Matroid.uniform(2, 4)]
    while len(matroids) < 5:
        mat = FieldMatrix(2, rng.integers(0, 2, size=(3, 5)))
        if all(any(col) for col in zip(*mat.to_rows())):
            matroids.append(Matroid.from_matrix(mat))
    for q in (3, 5):
        for m in range(3, 9):
            while True:
                mat = FieldMatrix(q, rng.integers(0, q, size=(int(rng.integers(1, 5)), m)))
                if all(any(col) for col in zip(*mat.to_rows())):
                    matroids.append(Matroid.from_matrix(mat))
                    break
    for m in matroids:
        for n in (1, 2):
            via_matroid, _ = gic_from_matroid(m, n)
            via_dpm, _ = gic_from_polymatroid(DiscretePolymatroid.from_matroid(m), n)
            assert _receiver_set(via_matroid) == _receiver_set(via_dpm)


def test_r3_count_and_mu_lower_bound():
    for name in ("eg3", "eg4"):
        bundle = load(name)
        dpm, p = bundle["polymatroid"], bundle["problem"]
        r3 = sum(1 for gens in bundle["trace"].entries if gens[0]["family"] == "R3")
        assert r3 == sum(dpm.caps())
        assert mu(p) >= sum(dpm.caps())
    bundle = load("hamming")
    assert mu(bundle["problem"]) == bundle["matroid"].ground_size


def test_code_from_matroid_rep_free_identity():
    m = Matroid.uniform(3, 3)
    problem, _ = gic_from_matroid(m)
    code = code_from_matroid_rep(FieldMatrix.identity(2, 3), problem)
    # c_i = y_i + x_i
    assert code.to_json_dict()["L"] == [
        [1, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 1],
    ]
    assert is_perfect(problem, code)


def test_code_from_matroid_rep_validation():
    bundle = load("u23")
    with pytest.raises(ValueError):
        code_from_matroid_rep(FieldMatrix.identity(2, 4), bundle["problem"])
    with pytest.raises(ValueError):
        code_from_matroid_rep(FieldMatrix(3, [[1, 0, 1], [0, 1, 1]]), bundle["problem"])


def test_generated_codes_verify_on_random_matroids():
    rng = np.random.default_rng(61)
    done = 0
    while done < 8:
        mat = FieldMatrix(2, rng.integers(0, 2, size=(3, 6)))
        if mat.rank() != 3:
            continue
        problem, _ = gic_from_matroid(Matroid.from_matrix(mat))
        code = code_from_matroid_rep(mat, problem)
        assert verify_code(problem, code).all_ok
        assert is_perfect(problem, code)
        done += 1


def test_matroid_rep_from_code_round_trip():
    bundle = load("u23")
    extracted = matroid_rep_from_code(bundle["problem"], bundle["code"])
    assert Matroid.from_matrix(extracted) == bundle["matroid"]
    # and the extraction of the re-generated code agrees on the rank table
    again = code_from_matroid_rep(extracted, bundle["problem"])
    assert Matroid.from_matrix(matroid_rep_from_code(bundle["problem"], again)) == bundle["matroid"]


def _full_rank_binary_matrix(rng, k, m):
    """A k x m binary matrix of rank k whose columns are fresh, zero or repeats."""
    while True:
        cols = []
        for _ in range(m):
            kind = rng.choice(("fresh", "fresh", "zero", "repeat"))
            if kind == "zero":
                cols.append([0] * k)
            elif kind == "fresh" or not cols:
                cols.append([rng.randrange(2) for _ in range(k)])
            else:
                cols.append(list(rng.choice(cols)))
        mat = FieldMatrix.from_columns(2, cols, rows=k)
        if mat.rank() == k:
            return mat


def test_round_trip_keeps_the_rank_table_of_random_matrices():
    # The verify round trip, rep -> I_M -> code -> extracted rep -> rank
    # table: stack_rows builds the code, take_rows slices it for the
    # extraction and subset_ranks builds both tables.
    rng = random.Random("round trip")
    zero = repeated = False
    shapes = [(1, 1), (1, 4), (5, 5), (2, 12), (5, 12), *((rng.randrange(1, 6), rng.randrange(1, 13)) for _ in range(60))]
    for k, m in shapes:
        rep = _full_rank_binary_matrix(rng, k, max(m, k))
        zero |= 0 in rep.packed
        repeated |= len(set(rep.packed) - {0}) < len(rep.packed) - rep.packed.count(0)
        matroid = Matroid.from_matrix(rep)
        problem, _ = gic_from_matroid(matroid)
        extracted = matroid_rep_from_code(problem, code_from_matroid_rep(rep, problem))
        assert Matroid.from_matrix(extracted) == matroid, rep
        table = matroid.rank_table()
        for mask in rng.sample(range(len(table)), min(len(table), 64)):
            assert table[mask] == packed_rank([v for e, v in enumerate(rep.packed) if mask >> e & 1], 2)
    assert zero and repeated


def test_matroid_rep_from_code_not_perfect():
    bundle = load("u23")
    p = bundle["problem"]
    with pytest.raises(NotPerfectError):
        matroid_rep_from_code(p, IndexCode(FieldMatrix.identity(2, p.m)))


def test_mu_is_kept_by_the_problem():
    bundle = load("hamming")
    matroid = bundle["matroid"]
    problem, _ = gic_from_matroid(matroid)
    fresh, _ = gic_from_matroid(matroid)
    text = repr(problem)
    assert problem == fresh
    assert mu(problem) == matroid.ground_size
    assert problem == fresh and repr(problem) == text  # the kept bound is not part of the value
    code = code_from_matroid_rep(FieldMatrix(2, HAMMING_G_ROWS), problem)
    assert Matroid.from_matrix(matroid_rep_from_code(problem, code)) == matroid
    assert mu(problem) == mu(fresh) == matroid.ground_size
    parsed = GICProblem.from_json_dict(problem.to_json_dict())
    assert mu(parsed) == mu(problem)
    with pytest.raises(NotPerfectError):  # the kept bound still rejects a longer code
        matroid_rep_from_code(problem, IndexCode(FieldMatrix.identity(2, problem.m)))


def _singular_y_block_problem():
    # A hand-made problem whose lone receiver decodes without touching the
    # y rows, so a perfect code can leave them singular.
    q = 2
    e0 = FieldMatrix.from_columns(q, [[1, 0]])
    p = GICProblem(q, 2, 1, [Receiver(FieldMatrix.zeros(q, 2, 0), e0)])
    code = IndexCode(FieldMatrix.from_columns(q, [[1, 0]]))
    assert is_perfect(p, code)
    return p, code


def test_matroid_rep_from_code_singular_y_block():
    with pytest.raises(NonInvertibleYBlockError):
        matroid_rep_from_code(*_singular_y_block_problem())


def test_polymatroid_rep_from_code_singular_y_block():
    # One element of rank 1: x_1 then y_1, the layout of the hand-made problem.
    p, code = _singular_y_block_problem()
    with pytest.raises(NonInvertibleYBlockError, match="y-message block"):
        polymatroid_rep_from_code(p, code, DiscretePolymatroid(1, [0, 1]), 1)


def test_polymatroid_rep_from_code_rejects_a_mismatched_problem():
    bundle = load("eg3")
    p, code, dpm = bundle["problem"], bundle["code"], bundle["polymatroid"]
    with pytest.raises(ValueError, match="dimension does not match"):
        polymatroid_rep_from_code(p, code, dpm, 2)
    with pytest.raises(ValueError, match="not constructed from this polymatroid"):
        polymatroid_rep_from_code(p, code, DiscretePolymatroid(2, [0, 1, 1, 2]), 1)


def test_polymatroid_rep_from_code_free_identity():
    m = Matroid.uniform(2, 2)
    dpm = DiscretePolymatroid.from_matroid(m)
    problem, _ = gic_from_polymatroid(dpm)
    code = IndexCode(
        FieldMatrix.from_columns(2, [[1, 0, 1, 0], [0, 1, 0, 1]], rows=4)
    )  # c_i = y_i + x_i
    rep = polymatroid_rep_from_code(problem, code, dpm, 1)
    assert [b.to_columns() for b in rep.blocks] == [[[1, 0]], [[0, 1]]]


def test_extraction_normalizes_the_y_block():
    # L·G transmits the same span as L for invertible G, and its blocks are
    # X·G and Y·G, so (X·G)(Y·G)^-1 = X·Y^-1: the bundled codes, whose y block
    # is I, must extract the same matrices once it is not.
    g = FieldMatrix.from_text(2, "1 1 0 1; 0 1 1 0; 0 0 1 1; 1 0 0 1")

    def mixed(code):
        l = code.length
        out = IndexCode(code.matrix @ g.take_rows(range(l)).take_columns(range(l)))
        assert out.matrix.take_rows(range(out.matrix.rows - l, out.matrix.rows)) != FieldMatrix.identity(2, l)
        return out

    u23, eg3 = load("u23"), load("eg3")
    p, code = u23["problem"], u23["code"]
    assert matroid_rep_from_code(p, mixed(code)) == matroid_rep_from_code(p, code)
    p, code, dpm = eg3["problem"], eg3["code"], eg3["polymatroid"]
    assert polymatroid_rep_from_code(p, mixed(code), dpm, 1).blocks == polymatroid_rep_from_code(p, code, dpm, 1).blocks


def test_polymatroid_rep_from_code_not_perfect():
    bundle = load("eg3")
    p, dpm = bundle["problem"], bundle["polymatroid"]
    with pytest.raises(NotPerfectError):
        polymatroid_rep_from_code(p, IndexCode(FieldMatrix.identity(2, p.m)), dpm, 1)


def test_vector_dimension_two_pipeline():
    # The scalar witness lifts to dimension two by a Kronecker block
    # expansion, stays perfect, and extracts a representation of 2D.
    bundle = load("eg3")
    dpm, scalar_code = bundle["polymatroid"], bundle["code"]
    problem2, _ = gic_from_polymatroid(dpm, n=2)
    assert problem2.n == 2 and problem2.mn == 14
    lifted = IndexCode(
        FieldMatrix(2, np.kron(scalar_code.matrix.array(), np.eye(2, dtype=np.int64)))
    )
    assert verify_code(problem2, lifted).all_ok
    assert mu(problem2) == 4 and is_perfect(problem2, lifted)
    rep = polymatroid_rep_from_code(problem2, lifted, dpm, 2)
    assert DiscretePolymatroid.from_subspaces(rep) == dpm.scale(2)


def test_construction_is_deterministic():
    a1, t1 = gic_from_polymatroid(load("eg3")["polymatroid"])
    a2, t2 = gic_from_polymatroid(load("eg3")["polymatroid"])
    assert a1 == a2
    assert t1.to_json_dict() == t2.to_json_dict()
    b1, _ = gic_from_matroid(Matroid.uniform(2, 4))
    b2, _ = gic_from_matroid(Matroid.uniform(2, 4))
    assert b1 == b2


def test_solver_codes_induce_polymatroid_representations():
    # Every perfect code the solver finds on a polymatroid-constructed
    # problem induces subspaces realizing the rank function.
    from gicode.solver import FOUND, solve_perfect_scalar_binary

    tables = [
        load("eg3")["polymatroid"],
        DiscretePolymatroid.from_matroid(Matroid.uniform(2, 3)),
        DiscretePolymatroid.from_matroid(Matroid.uniform(2, 2)),
    ]
    hits = 0
    for dpm in tables:
        problem, _ = gic_from_polymatroid(dpm)
        out = solve_perfect_scalar_binary(problem)
        if out.verdict != FOUND:
            continue
        hits += 1
        rep = polymatroid_rep_from_code(problem, out.witness, dpm, 1)
        assert DiscretePolymatroid.from_subspaces(rep) == dpm
    assert hits == 3


def test_solver_code_induces_matroid_representation():
    from gicode.solver import FOUND, solve_perfect_scalar_binary

    bundle = load("u23")
    out = solve_perfect_scalar_binary(bundle["problem"])
    assert out.verdict == FOUND
    extracted = matroid_rep_from_code(bundle["problem"], out.witness)
    assert Matroid.from_matrix(extracted) == bundle["matroid"]


def test_generated_code_verifies_at_full_scale():
    rng = np.random.default_rng(73)
    while True:
        mat = FieldMatrix(2, rng.integers(0, 2, size=(4, 7)))
        if mat.rank() == 4:
            break
    problem, _ = gic_from_matroid(Matroid.from_matrix(mat))
    code = code_from_matroid_rep(mat, problem)
    assert verify_code(problem, code).all_ok and is_perfect(problem, code)


def test_round_trip_hashes_no_matrix(monkeypatch):
    # The PG(3,2) round trip of the verify benchmark: construction, verify,
    # mu, C1/C2 on the canonical representation and the extraction.  The
    # knowledge grouping keys matrices by their packed columns, so nothing
    # hashes a FieldMatrix.
    calls = []
    plain_hash = FieldMatrix.__hash__
    monkeypatch.setattr(FieldMatrix, "__hash__", lambda mat: calls.append(1) or plain_hash(mat))
    rep = FieldMatrix(2, [[v >> i & 1 for v in range(1, 16)] for i in range(4)])
    matroid = Matroid.from_matrix(rep)
    problem, _ = gic_from_matroid(matroid)
    code = code_from_matroid_rep(rep, problem)
    assert verify_code(problem, code).all_ok and mu(problem) == code.length == 15
    assert check_c1_c2(canonical_representation(problem, code), problem).all_ok
    assert Matroid.from_matrix(matroid_rep_from_code(problem, code)) == matroid
    assert len(problem.receivers) == 4740 and calls == []


def test_constructed_problem_builds_no_receiver():
    # The construction hands the problem its knowledge grouping; mu, the C2
    # loop, the solver and the JSON text read only that, so the 4740
    # Receiver objects of PG(3,2) are built the first time `receivers` is read.
    rep = FieldMatrix(2, [[v >> i & 1 for v in range(1, 16)] for i in range(4)])
    problem, _ = gic_from_matroid(Matroid.from_matrix(rep))
    code = code_from_matroid_rep(rep, problem)
    assert mu(problem) == 15 and verify_code(problem, code).all_ok
    assert check_c1_c2(canonical_representation(problem, code), problem).all_ok
    assert solve_perfect_scalar_binary(problem, SearchConfig(budget=1 << 10)).verdict == BUDGET_EXCEEDED
    text = problem.to_json_text()
    assert problem._receivers is None
    assert len(problem.receivers) == 4740
    assert GICProblem(problem.q, problem.m, problem.n, problem.receivers).to_json_text() == text


def _small_structures():
    """Every labelled matroid on 1-5 elements and every polymatroid on 1-3
    elements with caps <= 2, each group listed per ground size."""
    matroids = [[Matroid(m, t) for t in rank_tables(m, 1)] for m in range(1, 6)]
    polymatroids = [[DiscretePolymatroid(r, t) for t in rank_tables(r, 2)] for r in range(1, 4)]
    return matroids, polymatroids


def test_emitted_receivers_are_distinct_with_one_generator_each():
    # Each generator choice yields its own (demand, knowledge) pair: R1
    # demands an x and R2/R3 a y; an R1 set of plain y's fixes b and its
    # picks; an R2 sum fixes c, Gamma_1 and Gamma_2; an R3 knowledge matrix
    # is k plain x columns.  Checked on every labelled matroid on 1-5
    # elements and every polymatroid on 1-3 elements with caps <= 2.
    matroids, polymatroids = _small_structures()
    assert [len(group) for group in matroids] == [2, 5, 16, 68, 406]
    assert [len(group) for group in polymatroids] == [3, 14, 115]
    built = 0
    for structure in [s for group in matroids + polymatroids for s in group]:
        if structure.rank == 0:
            continue
        construct = gic_from_matroid if isinstance(structure, Matroid) else gic_from_polymatroid
        for n in (1, 2):
            problem, trace = construct(structure, n)
            assert len(trace.entries) == len(problem.receivers)
            assert all(len(gens) == 1 for gens in trace.entries)
            assert len(_receiver_set(problem)) == len(problem.receivers)
            built += 1
    assert built == 2 * (497 - 5 + 132 - 3)


# The list-based emitter that message masks replaced, kept as the reference:
# each knowledge block is built from a list of message numbers.


def _old_sum_block(t, n, messages):
    sums = [0] * n
    for msg in messages:
        for s in range(n):
            sums[s] ^= 1 << msg * n + s
    return FieldMatrix._of(2, t * n, sums)


def _old_plain_knowledge(t, n, messages):
    return FieldMatrix._of(2, t * n, [1 << msg * n + s for msg in messages for s in range(n)])


def _old_problem(k, caps, n, r1, r2, r3_trace):
    t = k + sum(caps)
    units = [_old_plain_knowledge(t, n, [msg]) for msg in range(t)]
    receivers, traces = [], []
    for known, x_traces in r1:
        knowledge = _old_plain_knowledge(t, n, known)
        receivers += [Receiver(knowledge=knowledge, demand=unit) for unit in units[:k]]
        traces += x_traces
    for demanded, summed, trace in r2:
        receivers.append(Receiver(knowledge=_old_sum_block(t, n, summed), demand=units[demanded]))
        traces.append(trace)
    x_knowledge = _old_plain_knowledge(t, n, range(k))
    receivers += [Receiver(knowledge=x_knowledge, demand=unit) for unit in units[k:]]
    traces += [r3_trace(i, p) for i, cap in enumerate(caps, start=1) for p in range(1, cap + 1)]
    return GICProblem(2, t, n, receivers), [(trace,) for trace in traces]


def _old_gic_from_polymatroid(dpm, n):
    r, k, caps = dpm.ground_size, dpm.rank, dpm.caps()

    def slots(i):
        return range(1, caps[i - 1] + 1)

    y = dict(zip([(i, p) for i in range(1, r + 1) for p in slots(i)], itertools.count(k)))

    def r1():
        for b in dpm.basis_vectors():
            support = [i for i in range(1, r + 1) if b[i - 1] > 0]
            for picks in itertools.product(*[itertools.combinations(slots(i), b[i - 1]) for i in support]):
                eta = [[i, list(ps)] for i, ps in zip(support, picks)]
                yield [y[i, p] for i, ps in zip(support, picks) for p in ps], [
                    {"family": "S1", "b": list(b), "j": j, "eta": eta} for j in range(1, k + 1)
                ]

    def r2():
        for c in dpm.minimal_excluded_vectors():
            support = [i for i in range(1, r + 1) if c[i - 1] > 0]
            for j in support:
                others = [i for i in support if i != j]
                for p in slots(j):
                    gamma1_lists = [itertools.combinations(slots(i), c[i - 1]) for i in others]
                    gamma2_pool = [p2 for p2 in slots(j) if p2 != p]
                    for gamma1 in itertools.product(*gamma1_lists):
                        for gamma2 in itertools.combinations(gamma2_pool, c[j - 1] - 1):
                            summed = [y[i, p2] for i, ps in zip(others, gamma1) for p2 in ps]
                            summed += [y[j, p2] for p2 in gamma2]
                            yield y[j, p], summed, {
                                "family": "S2",
                                "c": list(c),
                                "j": j,
                                "p": p,
                                "gamma1": [[i, list(ps)] for i, ps in zip(others, gamma1)],
                                "gamma2": list(gamma2),
                            }

    return _old_problem(k, caps, n, r1(), r2(), lambda i, p: {"family": "R3", "i": i, "p": p})


def _old_gic_from_matroid(matroid, n):
    k = matroid.rank

    def r1():
        for basis in matroid.bases():
            label = [e + 1 for e in basis]
            yield [k + e for e in basis], [{"family": "R1", "basis": label, "j": j} for j in range(1, k + 1)]

    def r2():
        for circuit in matroid.circuits():
            label = [e + 1 for e in circuit]
            for d in circuit:
                rest = [k + e for e in circuit if e != d]
                yield k + d, rest, {"family": "R2", "circuit": label, "y": d + 1}

    return _old_problem(k, (1,) * matroid.ground_size, n, r1(), r2(), lambda i, p: {"family": "R3", "i": i})


def test_mask_emitter_matches_the_list_emitter():
    # Same knowledge grouping (order included), receivers in the same order
    # and the same trace entries, on every structure of the enumeration
    # above at n = 1, 2 and 3.
    matroids, polymatroids = _small_structures()
    built = 0
    for structure in [s for group in matroids + polymatroids for s in group]:
        if structure.rank == 0:
            continue
        if isinstance(structure, Matroid):
            construct, reference = gic_from_matroid, _old_gic_from_matroid
        else:
            construct, reference = gic_from_polymatroid, _old_gic_from_polymatroid
        for n in (1, 2, 3):
            problem, trace = construct(structure, n)
            old_problem, old_entries = reference(structure, n)
            assert [(k.packed, members) for k, members in problem._knowledge_groups()] == [
                (k.packed, members) for k, members in old_problem._knowledge_groups()
            ]
            assert problem == old_problem
            assert trace.entries == tuple(old_entries)
            built += 1
    assert built == 3 * (497 - 5 + 132 - 3)


def test_one_walk_per_construction(monkeypatch):
    matroid = load("hamming")["matroid"]
    walks = []
    walk = Matroid._walk
    monkeypatch.setattr(Matroid, "_walk", lambda self: walks.append(self) or walk(self))
    problem, _ = gic_from_matroid(matroid)
    assert walks == [matroid] and len(problem.receivers) == 147
    for listing in (matroid.bases, matroid.circuits):
        walks.clear()
        listing()
        assert walks == [matroid]


def test_round_trips_validate_no_computed_table(monkeypatch):
    # The verify round trip builds every rank table from spans, scaling or
    # a matroid's table, so validate_rank_table never runs; the structures
    # a user hands in are built before the counter goes in.
    eg3 = load("eg3")
    dpm, code = eg3["polymatroid"], eg3["code"]
    rep = FieldMatrix(2, [[v >> i & 1 for v in range(1, 16)] for i in range(4)])
    calls = []
    validate = matroid_module.validate_rank_table
    monkeypatch.setattr(matroid_module, "validate_rank_table", lambda *a, **k: calls.append(a) or validate(*a, **k))
    matroid = Matroid.from_matrix(rep)
    problem, _ = gic_from_matroid(matroid)
    matroid_code = code_from_matroid_rep(rep, problem)
    assert check_c1_c2(canonical_representation(problem, matroid_code), problem).all_ok
    assert Matroid.from_matrix(matroid_rep_from_code(problem, matroid_code)) == matroid
    problem, _ = gic_from_polymatroid(dpm)
    extracted = polymatroid_rep_from_code(problem, code, dpm, 1)
    assert DiscretePolymatroid.from_subspaces(extracted) == dpm.scale(1)
    hamming = Matroid.from_matrix(FieldMatrix(2, HAMMING_G_ROWS))
    assert DiscretePolymatroid.from_matroid(hamming).rank_table() == hamming.rank_table()
    assert calls == []
    Matroid(2, [0, 1, 1, 1])
    assert len(calls) == 1


def test_traces_are_built_on_first_read(monkeypatch):
    # A construction builds no label until its trace's entries (or JSON) is
    # read, then builds each once; the walk is not repeated for it.
    labels = []

    def counted(make):
        def gen(*args):
            for label in make(*args):
                labels.append(label)
                yield label

        return gen

    monkeypatch.setattr(construct_module, "_matroid_labels", counted(construct_module._matroid_labels))
    monkeypatch.setattr(construct_module, "_polymatroid_labels", counted(construct_module._polymatroid_labels))
    matroid, dpm = load("hamming")["matroid"], load("eg4")["polymatroid"]
    walks = []
    walk = Matroid._walk
    monkeypatch.setattr(Matroid, "_walk", lambda self: walks.append(self) or walk(self))
    for build, structure in [(gic_from_matroid, matroid), (gic_from_polymatroid, dpm)]:
        for read in (lambda trace: trace.entries, lambda trace: trace.to_json_dict()["receivers"]):
            labels.clear()
            problem, trace = build(structure, 2)
            assert labels == []
            assert len(read(trace)) == len(labels) == len(problem.receivers)
            read(trace)
            assert len(labels) == len(problem.receivers)
    assert walks == [matroid, matroid]
