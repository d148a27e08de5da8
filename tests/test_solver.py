"""Solver tests: certified verdicts, witnesses, normalization, determinism."""

import tracemalloc

import numpy as np
import pytest
from small_structures import rank_tables
from theorem_tables import matroids, routes

from gicode.construct import code_from_matroid_rep, gic_from_matroid, gic_from_polymatroid
from gicode.gf import FieldMatrix, span_insert, span_reduce
from gicode.gic import GICProblem, IndexCode, Receiver, is_perfect, mu, verify_code
from gicode.instances import load
from gicode.matroid import Matroid, SearchBudgetExceeded, find_representation
from gicode.polymatroid import DiscretePolymatroid
from gicode import solver
from gicode.solver import (
    BUDGET_EXCEEDED,
    FOUND,
    NONE_EXISTS,
    SearchConfig,
    SolveOutcome,
    _Search,
    count_solutions,
    detect_normalization,
    solve_perfect_scalar_binary,
)


@pytest.fixture(scope="module")
def eg4_problem():
    return load("eg4")["problem"]


@pytest.fixture(scope="module")
def u24_problem():
    return load("u24")["problem"]


@pytest.fixture(scope="module")
def u23_problem():
    return load("u23")["problem"]


def test_eg4_certified_nonexistence(eg4_problem):
    out = solve_perfect_scalar_binary(eg4_problem)
    assert out.verdict == NONE_EXISTS
    assert out.candidates_tested == 2**15  # free block is 3x5
    assert out.witness is None


def test_u24_certified_nonexistence(u24_problem):
    out = solve_perfect_scalar_binary(u24_problem)
    assert out.verdict == NONE_EXISTS
    assert out.candidates_tested == 2**8  # free block is 2x4


def test_u23_witness_found(u23_problem):
    out = solve_perfect_scalar_binary(u23_problem)
    assert out.verdict == FOUND
    assert verify_code(u23_problem, out.witness).all_ok
    assert is_perfect(u23_problem, out.witness)
    assert out.candidates_tested <= 2**6


def test_normalization_detected_on_constructed_problems(u23_problem, eg4_problem):
    assert detect_normalization(u23_problem, mu(u23_problem)) == ([2, 3, 4], [0, 1])
    assert detect_normalization(eg4_problem, mu(eg4_problem)) == ([3, 4, 5, 6, 7], [0, 1, 2])
    # eg1 has no plain-demand family covering a block: full search.
    assert detect_normalization(load("eg1")["problem"], 1) is None


def test_normalization_needs_plain_unit_demands():
    def problem(q, demands):
        empty = FieldMatrix.zeros(q, 2, 0)
        return GICProblem(q, 2, 1, [Receiver(empty, FieldMatrix.from_columns(q, [d])) for d in demands])

    # Both receivers know nothing and mu = 2, but only [0, 1] is a plain
    # demand: [1, 1] is a sum and [2, 0] over GF(3) a scaled message.
    assert detect_normalization(problem(2, ([1, 1], [0, 1])), 2) is None
    assert detect_normalization(problem(3, ([2, 0], [0, 1])), 2) is None
    assert detect_normalization(problem(3, ([1, 0], [0, 1])), 2) == ([0, 1], [])


def test_count_solutions_examples(eg4_problem, u23_problem):
    assert count_solutions(eg4_problem) == 0
    assert count_solutions(u23_problem) >= 1

    single = GICProblem(
        2, 1, 1, [Receiver(FieldMatrix.zeros(2, 1, 0), FieldMatrix.from_columns(2, [[1]]))]
    )
    assert count_solutions(single) == 1
    out = solve_perfect_scalar_binary(single)
    assert out.witness.to_json_dict() == {"L": [[1]]}


def test_report_all_collects_every_witness(u23_problem):
    out = solve_perfect_scalar_binary(u23_problem, SearchConfig(report="all"))
    assert out.verdict == FOUND
    assert len(out.witnesses) == count_solutions(u23_problem)
    for code in out.witnesses:
        assert is_perfect(u23_problem, code)
    assert out.witnesses[0] == solve_perfect_scalar_binary(u23_problem).witness


def test_soundness_on_random_constructed_problems():
    rng = np.random.default_rng(67)
    done = 0
    while done < 6:
        mat = FieldMatrix(2, rng.integers(0, 2, size=(2, 4)))
        if mat.rank() != 2:
            continue
        problem, _ = gic_from_matroid(Matroid.from_matrix(mat))
        out = solve_perfect_scalar_binary(problem)
        if out.verdict == FOUND:
            assert verify_code(problem, out.witness).all_ok
            assert is_perfect(problem, out.witness)
        done += 1


def test_completeness_when_construction_provides_witness():
    rng = np.random.default_rng(71)
    done = 0
    while done < 6:
        mat = FieldMatrix(2, rng.integers(0, 2, size=(2, 4)))
        if mat.rank() != 2:
            continue
        problem, _ = gic_from_matroid(Matroid.from_matrix(mat))
        code = code_from_matroid_rep(mat, problem)
        assert is_perfect(problem, code)
        assert solve_perfect_scalar_binary(problem).verdict == FOUND
        done += 1


def test_normalized_and_full_search_agree_on_existence():
    # Tiny constructed problems where the full space is still enumerable.
    cases = [
        gic_from_matroid(Matroid.uniform(1, 1))[0],  # t=2, l=1
        gic_from_matroid(Matroid.uniform(1, 2))[0],  # t=3, l=2
        gic_from_matroid(Matroid.uniform(2, 2))[0],  # t=4, l=2
    ]
    for problem in cases:
        normalized = solve_perfect_scalar_binary(problem)
        full = solve_perfect_scalar_binary(problem, SearchConfig(normalize_y_block=False))
        assert (normalized.verdict == FOUND) == (full.verdict == FOUND)
        for out in (normalized, full):
            if out.verdict == FOUND:
                assert is_perfect(problem, out.witness)


def test_full_search_on_unnormalizable_problem():
    # eg1 with l = mu = 1: no single transmission works; the full
    # 2^5 space is exhausted.
    p = load("eg1")["problem"]
    out = solve_perfect_scalar_binary(p)
    assert out.verdict == NONE_EXISTS
    assert out.candidates_tested == 2**5


def test_budget_exceeded_verdict(eg4_problem):
    out = solve_perfect_scalar_binary(eg4_problem, SearchConfig(budget=100))
    assert out.verdict == BUDGET_EXCEEDED
    assert out.candidates_tested == 100
    with pytest.raises(SearchBudgetExceeded):
        count_solutions(eg4_problem, SearchConfig(budget=100))


def test_budget_does_not_block_early_witness(u23_problem):
    out = solve_perfect_scalar_binary(u23_problem, SearchConfig(budget=40))
    assert out.verdict == FOUND


def test_solver_preconditions():
    p3 = GICProblem(
        3, 1, 1, [Receiver(FieldMatrix.zeros(3, 1, 0), FieldMatrix.from_columns(3, [[1]]))]
    )
    with pytest.raises(ValueError):
        solve_perfect_scalar_binary(p3)
    vector, _ = gic_from_matroid(Matroid.uniform(1, 1), n=2)
    with pytest.raises(ValueError):
        solve_perfect_scalar_binary(vector)
    for budget in (0, -1, 2.5, 40.0, True):  # a float or a bool would reach candidates_tested
        with pytest.raises(ValueError, match="budget must be positive and an int"):
            SearchConfig(budget=budget)
    with pytest.raises(ValueError):
        SearchConfig(report="everything")


def test_config_and_outcome_keywords_and_defaults():
    config = SearchConfig()
    assert (config.normalize_y_block, config.budget, config.report) == (True, 1 << 22, "first")
    config = SearchConfig(normalize_y_block=False, budget=9, report="count")
    assert (config.normalize_y_block, config.budget, config.report) == (False, 9, "count")
    out = SolveOutcome(verdict=FOUND, candidates_tested=3)
    assert (out.verdict, out.candidates_tested) == (FOUND, 3)
    assert (out.witness, out.witnesses, out.count) == (None, None, None)
    code = IndexCode(FieldMatrix(2, [[1], [0]]))
    out = SolveOutcome(NONE_EXISTS, 5, witness=code, witnesses=(code,), count=1)
    assert (out.witness, out.witnesses, out.count) == (code, (code,), 1)


def test_outcome_json():
    out = SolveOutcome(NONE_EXISTS, candidates_tested=7)
    assert out.to_json_dict() == {"verdict": "none_exists", "candidates_tested": 7}


def test_solver_handles_multi_column_demands():
    # One receiver demanding two functions at once; length mu = 1 cannot
    # serve both, length found by a second same-knowledge receiver group.
    q, m = 2, 3
    k = FieldMatrix.from_columns(q, [[0, 0, 1]])
    d2 = FieldMatrix.from_columns(q, [[1, 0, 0], [0, 1, 0]])
    p = GICProblem(q, m, 1, [Receiver(k, d2), Receiver(k, FieldMatrix.from_columns(q, [[1, 1, 0]]))])
    out = solve_perfect_scalar_binary(p)
    # mu = 2 (shared knowledge space), and two transmissions do suffice
    assert mu(p) == 2
    assert out.verdict == FOUND
    assert verify_code(p, out.witness).all_ok


def test_one_receiver_demanding_two_functions_needs_two_transmissions():
    # mu counts the two independent demands of the lone receiver, so the
    # search runs at length 2 and finds a code instead of a false none_exists.
    p = GICProblem(2, 2, 1, [Receiver(FieldMatrix.zeros(2, 2, 0), FieldMatrix.identity(2, 2))])
    assert mu(p) == 2
    out = solve_perfect_scalar_binary(p)
    assert out.verdict == FOUND
    assert out.witness.length == 2 and is_perfect(p, out.witness)


def test_dependent_demands_of_one_group_count_once():
    # Three receivers share the empty knowledge space, but their demands
    # span only two dimensions: mu is that rank, not the receiver count,
    # and two transmissions serve all three.
    q, m = 2, 2
    k = FieldMatrix.zeros(q, m, 0)
    demands = [[1, 0], [0, 1], [1, 1]]
    receivers = [Receiver(k, FieldMatrix.from_columns(q, [d])) for d in demands]
    p = GICProblem(q, m, 1, receivers)
    assert mu(p) == 2
    out = solve_perfect_scalar_binary(p)
    assert out.verdict == FOUND
    assert out.witness.length == 2 and verify_code(p, out.witness).all_ok


# -- differential check against a brute-force reference --------------------------

DIFF_BUDGETS = (None, 1, 2, 5, 17, 64, 300)


def _random_problem(rng, q=2):
    """An n = 1 problem over GF(q) with m <= 5 and at most 7 receivers.

    Columns are mostly unit vectors, and most problems start from a
    plain family (every message outside a set W demanded alone by a
    receiver knowing exactly W), so the identity pin often applies.
    """
    m = int(rng.integers(1, 6))

    def unit(i):
        return [int(r == i) for r in range(m)]

    def matrix(low, high):
        cols = [
            unit(int(rng.integers(m))) if rng.random() < 0.7 else rng.integers(0, q, size=m).tolist()
            for _ in range(int(rng.integers(low, high + 1)))
        ]
        return FieldMatrix.from_columns(q, cols, rows=m)

    receivers = []
    if rng.random() < 0.7:
        known = rng.choice(m, size=int(rng.integers(0, min(3, m - 1) + 1)), replace=False).tolist()
        w = FieldMatrix.from_columns(q, [unit(i) for i in known], rows=m)
        receivers = [Receiver(w, FieldMatrix.from_columns(q, [unit(z)])) for z in range(m) if z not in known]
    for _ in range(int(rng.integers(max(len(receivers), 1), 8)) - len(receivers)):
        receivers.append(Receiver(matrix(0, 3), matrix(1, 2)))
    return GICProblem(q, m, 1, receivers)


def _reference_outcomes(problem, normalize):
    """{(report, budget): expected outcome or None for a raise}, from every counter verified.

    Counter bit i*l + j is entry (x_rows[i], j); column j < len(y_rows) has
    a 1 in row y_rows[j], the identity pin.
    """
    length = mu(problem)
    pinned = detect_normalization(problem, length) if normalize else None
    y_rows, x_rows = pinned or ([], range(problem.m))
    space = 1 << len(x_rows) * length

    def decode(counter):
        a = np.zeros((problem.m, length), dtype=np.int64)
        for j, row in enumerate(y_rows):
            a[row, j] = 1
        for i, row in enumerate(x_rows):
            for j in range(length):
                a[row, j] = counter >> (i * length + j) & 1
        return IndexCode(FieldMatrix(2, a))

    hits = [c for c in range(space) if verify_code(problem, decode(c)).all_ok]
    verdict = FOUND if hits else NONE_EXISTS
    witness = decode(hits[0]) if hits else None
    witnesses = tuple(decode(c) for c in hits)
    expected = {}
    for budget in DIFF_BUDGETS:
        cap = SearchConfig().budget if budget is None else budget
        limit = min(space, cap)
        below = [c for c in hits if c < limit]
        if below:
            first = SolveOutcome(FOUND, below[0] + 1, decode(below[0]))
        else:
            first = SolveOutcome(NONE_EXISTS if limit == space else BUDGET_EXCEEDED, limit)
        expected["first", budget] = first
        fits = space <= cap
        expected["count", budget] = SolveOutcome(verdict, space, witness, count=len(hits)) if fits else None
        expected["all", budget] = SolveOutcome(verdict, space, witness, witnesses=witnesses) if fits else None
    return expected


def test_search_matches_brute_force_reference():
    rng = np.random.default_rng(404)
    checked = normalized = grouped = 0
    while checked < 40:
        problem = _random_problem(rng)
        if problem.m * mu(problem) > 8:  # keep the reference's full enumeration small
            continue
        checked += 1
        normalized += detect_normalization(problem, mu(problem)) is not None
        knowledge = [r.knowledge for r in problem.receivers]
        grouped += len(set(knowledge)) < len(knowledge)  # receivers share one span
        references = {normalize: _reference_outcomes(problem, normalize) for normalize in (True, False)}
        # The identity pin must keep a code if and only if one exists.
        assert references[True]["first", None].verdict == references[False]["first", None].verdict
        for normalize, reference in references.items():
            for (report, budget), expected in reference.items():
                kwargs = {} if budget is None else {"budget": budget}
                config = SearchConfig(normalize, report=report, **kwargs)
                if expected is None:
                    with pytest.raises(SearchBudgetExceeded):
                        solve_perfect_scalar_binary(problem, config)
                    continue
                got = solve_perfect_scalar_binary(problem, config)
                assert got.to_json_dict() == expected.to_json_dict(), (normalize, report, budget)
                assert got.witnesses == expected.witnesses, (normalize, report, budget)
    assert normalized >= 10
    assert grouped >= 10



def test_windowed_search_matches_brute_force_reference(monkeypatch):
    # One-bit windows: every node with l >= 2 decides its children in
    # several windows, each stopped at the budget before it is decided.
    monkeypatch.setattr(solver, "WINDOW_BITS", 1)
    rng = np.random.default_rng(409)
    checked = windowed = 0
    while checked < 40:
        problem = _random_problem(rng)
        if problem.m * mu(problem) > 8:
            continue
        checked += 1
        windowed += mu(problem) >= 2
        for normalize in (True, False):
            for (report, budget), expected in _reference_outcomes(problem, normalize).items():
                if expected is None:
                    continue
                kwargs = {} if budget is None else {"budget": budget}
                got = solve_perfect_scalar_binary(problem, SearchConfig(normalize, report=report, **kwargs))
                assert got.to_json_dict() == expected.to_json_dict(), (normalize, report, budget)
                assert got.witnesses == expected.witnesses, (normalize, report, budget)
    assert windowed >= 10


def test_long_code_stops_at_the_budget_without_large_tables():
    # mu = 32 and nothing is pinned: value 0 fails at the first row set, and
    # the next child's counter is far past the budget.  Sibling tables over
    # all 2^32 values would need 512 MB each.
    m = 32
    problem = GICProblem(2, m, 1, [Receiver(FieldMatrix.zeros(2, m, 1), FieldMatrix.identity(2, m))])
    assert mu(problem) == m
    assert detect_normalization(problem, m) is None
    search = _Search(problem, m, [], range(m))
    assert search.window == solver.WINDOW_BITS
    assert max(lane.bit_length() for lane in search._lanes) <= 1 << solver.WINDOW_BITS
    out = solve_perfect_scalar_binary(problem)
    assert (out.verdict, out.candidates_tested) == (BUDGET_EXCEEDED, SearchConfig().budget)


def test_set_up_memory_is_linear_in_the_message_count():
    # No receivers: mu = 0, and the empty code is the first candidate.  A
    # set-up that keeps a unit column or a one-bit mask per message holds
    # ~m²/2 bits: 60.7 MB at this m.
    problem = GICProblem(2, 30_000, 1, [])
    tracemalloc.start()
    try:
        out = solve_perfect_scalar_binary(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.verdict, out.candidates_tested) == (FOUND, 1)
    assert peak < 30 << 20


def test_an_empty_problem_holds_nothing_per_message():
    # No receiver, so the set-up has nothing to read: it builds no table over
    # the messages (a row-to-index dict, a unit-column dict and the set of all
    # rows peaked at 122 MB under tracemalloc at this m), and a message count
    # past 2^63 is no obstacle.
    problem = GICProblem(2, 1_000_000, 1, [])
    tracemalloc.start()
    try:
        out = solve_perfect_scalar_binary(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.verdict, out.candidates_tested) == (FOUND, 1)
    assert peak < 1 << 20
    out = solve_perfect_scalar_binary(GICProblem(2, 10**30, 1, []))
    assert (out.verdict, out.candidates_tested, out.witness.length) == (FOUND, 1, 0)


def test_zero_length_code_is_decided_at_the_root(monkeypatch):
    # Every receiver knows what it demands, so mu = 0 and the one candidate is
    # the empty code.  It is decided without expanding a node, in every report
    # mode and normalize setting; walking one level per message took ~0.8 s.
    m = 1000
    eye = FieldMatrix.identity(2, m)
    problem = GICProblem(2, m, 1, [Receiver(eye.take_columns([i]), eye.take_columns([i])) for i in range(m)])
    assert mu(problem) == 0

    def expand(*args):
        raise AssertionError("a node was expanded")

    monkeypatch.setattr(_Search, "_siblings", expand)
    empty = IndexCode(FieldMatrix.zeros(2, m, 0))
    for normalize in (True, False):
        for report in ("first", "all", "count"):
            out = solve_perfect_scalar_binary(problem, SearchConfig(normalize, report=report))
            assert (out.verdict, out.candidates_tested, out.witness) == (FOUND, 1, empty)
            assert out.count == (1 if report == "count" else None)
            assert out.witnesses == ((empty,) if report == "all" else None)
        assert count_solutions(problem, SearchConfig(normalize)) == 1


# -- the solver's set-up against the scans it replaced ---------------------------


def _row_scan_groups(problem, length, y_rows, x_rows):
    """`_Search.groups` as built by testing every row of every column, kept as the reference."""

    def split(col):
        xv = sum(1 << i for i, row in enumerate(x_rows) if col >> row & 1)
        return xv, tuple(j for j, row in enumerate(y_rows) if col >> row & 1)

    unpinned = [(0, (j,)) for j in range(len(y_rows), length)]
    groups = sorted(problem._groups.items(), key=lambda g: len(g[0]))
    return [
        ([split(c) for c in k] + unpinned, [split(c) for _, d in members for c in d])
        for k, members in groups
    ]


def test_search_groups_match_row_scan(eg4_problem):
    rng = np.random.default_rng(407)
    problems = [eg4_problem, gic_from_matroid(Matroid.from_matrix(FieldMatrix(2, FANO_ROWS)))[0]]
    problems += [_random_problem(rng) for _ in range(80)]
    pinned = 0
    for problem in problems:
        length = mu(problem)
        for normalize in (True, False):
            rows = detect_normalization(problem, length) if normalize else None
            pinned += rows is not None
            y_rows, x_rows = rows or ([], range(problem.m))
            expected = _row_scan_groups(problem, length, y_rows, x_rows)
            assert _Search(problem, length, y_rows, x_rows).groups == expected
    assert pinned >= 20


def _holds(search, f, k):
    """Every group's condition projected onto the rows k.. of the free block, one node at a time:
    the check the sibling mask replaced, kept as the reference."""
    for kcols, dcols in search.groups:
        pivots = {}
        for kx, ky in kcols:
            v = kx
            for j in ky:
                v ^= f[j]
            span_insert(v >> k, pivots, 2)
        for dx, dy in dcols:
            v = dx
            for j in dy:
                v ^= f[j]
            if span_reduce(v >> k, pivots, 2):
                return False
    return True


def _check_sibling_masks(search):
    """Walk every node the search expands; bit v of its mask must be the reference's verdict on child v.
    Returns the number of nodes expanded."""
    l = search.length
    root = ([0] * l, len(search.x_rows))
    assert _holds(search, *root)  # the root's projections are empty
    stack, expanded = [root], 0
    while stack:
        f, k = stack.pop()
        if not k:
            continue
        expanded += 1
        w = search.window
        for window in range(1 << l - w):
            mask = search._siblings(f, k, window)
            assert not mask >> (1 << w)
            for u in range(1 << w):
                value = window << w | u
                child = [fj | (value >> j & 1) << k - 1 for j, fj in enumerate(f)]
                passes = _holds(search, child, k - 1)
                assert (mask >> u & 1) == passes, (f, k, value)
                if passes:
                    stack.append((child, k - 1))
    return expanded


@pytest.mark.parametrize("window_bits", [solver.WINDOW_BITS, 1])
def test_sibling_mask_matches_per_child_check(monkeypatch, window_bits):
    # Every labelled matroid on m <= 4 elements and every polymatroid with
    # r <= 2 and gains <= 2, pinned (their full searches pass too many
    # nodes to walk here), and random problems both ways, some with l >= 3.
    # One-bit windows split every l >= 2 node's children into windows; they
    # are walked on the random problems alone, to keep the test short.
    monkeypatch.setattr(solver, "WINDOW_BITS", window_bits)
    cases = []
    if window_bits > 1:
        structured = [gic_from_matroid(Matroid(m, t))[0] for m in range(1, 5) for t in rank_tables(m, 1) if t[-1]]
        structured += [gic_from_polymatroid(DiscretePolymatroid(r, t))[0] for r in (1, 2) for t in rank_tables(r, 2) if t[-1]]
        cases = [(problem, True) for problem in structured]
    rng = np.random.default_rng(408)
    wide = 0
    while wide < 8:
        problem = _random_problem(rng)
        if problem.m * mu(problem) <= 12:
            cases += [(problem, True), (problem, False)]
            wide += mu(problem) >= 3
    expanded = 0
    for problem, normalize in cases:
        length = mu(problem)
        rows = detect_normalization(problem, length) if normalize else None
        y_rows, x_rows = rows or ([], range(problem.m))
        expanded += _check_sibling_masks(_Search(problem, length, y_rows, x_rows))
    assert expanded >= (10000 if window_bits > 1 else 4000)


def _receiver_scan_normalization(problem, length):
    """`detect_normalization` as it scanned the receivers one by one, kept as the reference."""
    if problem.n != 1:
        return None
    t = problem.m
    unit_row = {v: i for i, v in enumerate(FieldMatrix.identity(problem.q, t).packed)}
    demanded = {}
    for r in problem.receivers:
        if r.demand.cols != 1:
            continue
        z = unit_row.get(r.demand.packed[0])
        if z is None:
            continue
        supports = [unit_row.get(v) for v in r.knowledge.packed]
        if None in supports:
            continue
        w = frozenset(supports)
        if z in w:
            continue
        demanded.setdefault(w, set()).add(z)
    for w in sorted(demanded, key=lambda s: (len(s), sorted(s))):
        outside = set(range(t)) - w
        if len(outside) == length and demanded[w] >= outside:
            return sorted(outside), sorted(w)
    return None


def test_normalization_matches_receiver_scan():
    rng = np.random.default_rng(406)
    seen = dict.fromkeys(("shared", "wide", "known", "pinned"), 0)
    for q in (2, 3, 5):
        for _ in range(60):
            problem = _random_problem(rng, q)
            receivers = list(problem.receivers)
            # More receivers on knowledge matrices already in use: a demand of
            # two columns, or one column of that knowledge matrix itself.
            for _ in range(int(rng.integers(0, 3))):
                k = receivers[int(rng.integers(len(receivers)))].knowledge
                if k.cols and rng.random() < 0.5:
                    demand = FieldMatrix.from_packed(q, k.rows, [k.packed[int(rng.integers(k.cols))]])
                else:
                    demand = FieldMatrix.from_columns(q, rng.integers(0, q, size=(2, k.rows)).tolist(), rows=k.rows)
                receivers.append(Receiver(k, demand))
            problem = GICProblem(q, problem.m, 1, receivers)
            seen["shared"] += any(len(members) > 1 for members in problem._groups.values())
            seen["wide"] += any(r.demand.cols > 1 for r in receivers)
            seen["known"] += any(r.demand.packed[0] in r.knowledge.packed for r in receivers if r.demand.cols == 1)
            for length in range(problem.m + 1):
                got = detect_normalization(problem, length)
                assert got == _receiver_scan_normalization(problem, length), (q, length)
                seen["pinned"] += got is not None
    assert min(seen.values()) >= 30, seen


# -- the paper's matroid equivalence -----------------------------------------------

FANO_ROWS = [[v >> i & 1 for v in range(1, 8)] for i in range(3)]  # PG(2, 2) over GF(2)
NON_FANO_ROWS = [[1, 0, 0, 1, 1, 0, 1], [0, 1, 0, 1, 0, 1, 1], [0, 0, 1, 0, 1, 1, 1]]  # over GF(3)


def test_fano_and_non_fano_counts():
    fano = gic_from_matroid(Matroid.from_matrix(FieldMatrix(2, FANO_ROWS)))[0]
    out = solve_perfect_scalar_binary(fano)
    assert (out.verdict, out.candidates_tested) == (FOUND, 497356)
    non_fano = gic_from_matroid(Matroid.from_matrix(FieldMatrix(3, NON_FANO_ROWS)))[0]
    out = solve_perfect_scalar_binary(non_fano)
    assert (out.verdict, out.candidates_tested) == (NONE_EXISTS, 2**21)


def _direct_sum(a, b):
    """The direct sum of two matroids, b's elements after a's."""
    ta, tb = a.rank_table(), b.rank_table()
    low = len(ta).bit_length() - 1
    size = low + len(tb).bit_length() - 1
    return Matroid(size, [ta[s & (1 << low) - 1] + tb[s >> low] for s in range(1 << size)])


def test_deep_searches_decide_at_a_large_budget():
    # Each reads budget_exceeded at the default budget.  find_representation
    # is limited to 8 elements, so U(2,4) + F7 is checked through its
    # non-binary summand: a direct sum is binary iff every summand is.
    fano = Matroid.from_matrix(FieldMatrix(2, FANO_ROWS))
    ag32 = Matroid.from_matrix(FieldMatrix(2, [[1] * 8] + [[v >> i & 1 for v in range(8)] for i in range(3)]))
    u24, u48 = Matroid.uniform(2, 4), Matroid.uniform(4, 8)
    cases = [
        (_direct_sum(u24, fano), u24, NONE_EXISTS, 2**55),
        (ag32, ag32, FOUND, 255_022_487),
        (u48, u48, NONE_EXISTS, 2**32),
    ]
    for matroid, decides, verdict, tested in cases:
        problem, _ = gic_from_matroid(matroid)
        out = solve_perfect_scalar_binary(problem, SearchConfig(budget=1 << 80))
        assert (out.verdict, out.candidates_tested) == (verdict, tested)
        assert (verdict == FOUND) == (find_representation(decides, 2) is not None)
        if out.witness is not None:
            assert out.witness.length == mu(problem)
            assert verify_code(problem, out.witness).all_ok


def test_matroid_problem_solvable_iff_binary_representable():
    matroids = [Matroid.from_matrix(FieldMatrix(2, FANO_ROWS)), Matroid.from_matrix(FieldMatrix(3, NON_FANO_ROWS))]
    rng = np.random.default_rng(405)
    while len(matroids) < 32:
        q = (2, 3, 5)[len(matroids) % 3]
        k = int(rng.integers(2, 4))
        mat = FieldMatrix(q, rng.integers(0, q, size=(k, int(rng.integers(k, 7)))))
        if mat.rank() >= 2:
            matroids.append(Matroid.from_matrix(mat))
    verdicts = set()
    for matroid in matroids:
        problem, _ = gic_from_matroid(matroid)
        out = solve_perfect_scalar_binary(problem, SearchConfig(report="all"))
        binary = find_representation(matroid, 2) is not None
        assert (out.verdict == FOUND) == binary
        verdicts.add(binary)
        for code in out.witnesses:
            assert code.length == problem.n * mu(problem)
            assert verify_code(problem, code).all_ok
    assert verdicts == {True, False}


def test_every_matroid_on_at_most_five_elements_is_solvable_iff_binary():
    # The 492 labelled matroids of positive rank with m <= 5 (tests/theorem_tables.py runs m = 6).
    tables = [matroid for m in range(1, 6) for matroid in matroids(m)]
    outcomes = [routes(matroid) for matroid in tables]
    assert len(tables) == 492
    assert all(agree for _, agree in outcomes)
    assert sum(found for found, _ in outcomes) == 459


def _gl2_order(k):
    """|GL(k, 2)|: the invertible k x k binary matrices."""
    order = 1
    for i in range(k):
        order *= 2**k - 2**i
    return order


def test_perfect_code_count_is_the_order_of_gl_k2_exactly_for_binary_matroids():
    # The paper's map sends normalized perfect codes of I_M one-to-one onto the
    # k x m binary matrices representing M, and those are G·A for G in GL(k, 2),
    # since a binary matroid is uniquely representable (Oxley §6.6).
    fano = Matroid.from_matrix(FieldMatrix(2, FANO_ROWS))
    cases = [fano] + [matroid for m in range(1, 5) for matroid in matroids(m)]
    assert len(cases) == 88
    counts = []
    for matroid in cases:
        counts.append(count_solutions(gic_from_matroid(matroid)[0], SearchConfig(budget=2**80)))
        binary = find_representation(matroid, 2) is not None
        assert counts[-1] == (_gl2_order(matroid.rank) if binary else 0), matroid.rank_table()
    assert counts[0] == 168
    assert counts.count(0) == 1  # U(2,4), the one non-binary matroid on at most 4 elements
