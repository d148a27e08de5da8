"""gic-core tests: verification, decoding, mu, and the representation bridge."""

import collections
import importlib.util
import re
import timeit
from pathlib import Path

import numpy as np
import pytest

from gicode.construct import code_from_matroid_rep, gic_from_matroid, gic_from_polymatroid, matroid_rep_from_code
from gicode.gf import FieldMatrix, concat_columns, in_column_span, span_basis, span_key
from gicode.gic import (
    C1ViolationError,
    C2ViolationError,
    GICProblem,
    GICRepresentation,
    IndexCode,
    C1C2Report,
    Receiver,
    UndecodableError,
    VerificationReport,
    _receivers_from_json,
    canonical_representation,
    check_c1_c2,
    code_to_representation,
    decoding_matrix,
    is_perfect,
    mu,
    representation_to_code,
    verify_code,
)
from gicode.instances import BUNDLED, load
from gicode.matroid import Matroid
from gicode.polymatroid import DiscretePolymatroid
from gicode.solver import FOUND, solve_perfect_scalar_binary
from small_structures import rank_tables


@pytest.fixture(scope="module")
def eg1():
    return load("eg1")


@pytest.fixture(scope="module")
def eg3():
    return load("eg3")


def test_eg1_verifies_everywhere(eg1):
    report = verify_code(eg1["problem"], eg1["code"])
    assert report.receiver_ok == (True,) * 5
    assert report.all_ok and report.failing() == ()


def test_identity_code_always_passes(eg1):
    p = eg1["problem"]
    report = verify_code(p, IndexCode(FieldMatrix.identity(p.q, p.mn)))
    assert report.all_ok


def test_empty_code_fails_first_receiver(eg1):
    p = eg1["problem"]
    report = verify_code(p, IndexCode(FieldMatrix.zeros(p.q, p.mn, 0)))
    assert not report.receiver_ok[0]  # x1 is not in span{x2}


def test_verify_shape_mismatch(eg1):
    with pytest.raises(ValueError):
        verify_code(eg1["problem"], IndexCode(FieldMatrix.zeros(2, 4, 1)))


def test_decoding_matrix_receiver5(eg1):
    p, code = eg1["problem"], eg1["code"]
    m5 = decoding_matrix(p, code, 4)
    r = p.receivers[4]
    assert m5.rows == r.knowledge.cols + code.length and m5.cols == 1
    assert concat_columns([r.knowledge, code.matrix]) @ m5 == r.demand


def test_decoding_matrix_unit_selector():
    # Demand equals the second knowledge column: the deterministic solve
    # returns the bare selector, leaving the code columns untouched.
    q, m = 2, 3
    k = FieldMatrix.from_columns(q, [[1, 0, 0], [0, 1, 0]])
    d = FieldMatrix.from_columns(q, [[0, 1, 0]])
    p = GICProblem(q, m, 1, [Receiver(k, d)])
    code = IndexCode(FieldMatrix.identity(q, m))
    sel = decoding_matrix(p, code, 0)
    assert sel.to_columns() == [[0, 1, 0, 0, 0]]


def test_decoding_matrix_undecodable(eg1):
    p = eg1["problem"]
    with pytest.raises(UndecodableError):
        decoding_matrix(p, IndexCode(FieldMatrix.zeros(p.q, p.mn, 0)), 0)


@pytest.mark.parametrize("receiver", [-1, True, 5])
def test_decoding_matrix_rejects_a_receiver_outside_the_problem(eg1, receiver):
    # -1 and True would index receivers 4 and 1; 5 is past the last.
    with pytest.raises(ValueError, match=re.escape(f"receiver must be an int in [0, 5), got {receiver!r}")):
        decoding_matrix(eg1["problem"], eg1["code"], receiver)


def test_decoding_identity_holds_for_all_messages(eg1):
    # [K|L] M = D checked column-exactly means X [K|L] M = X D for every X.
    p, code = eg1["problem"], eg1["code"]
    for i, r in enumerate(p.receivers):
        m = decoding_matrix(p, code, i)
        assert concat_columns([r.knowledge, code.matrix]) @ m == r.demand


def test_mu_examples(eg1, eg3):
    assert mu(eg1["problem"]) == 1  # pairwise-distinct Has-sets
    assert mu(eg3["problem"]) == 4
    assert mu(load("hamming")["problem"]) == 7


def test_mu_ignores_column_mixing(eg3):
    p = eg3["problem"]
    rng = np.random.default_rng(43)
    mixed = []
    for r in p.receivers:
        h = r.knowledge.cols
        if h == 0:
            mixed.append(r)
            continue
        while True:
            t = FieldMatrix(p.q, rng.integers(0, p.q, size=(h, h)))
            if t.rank() == h:
                break
        mixed.append(Receiver(r.knowledge @ t, r.demand))
    assert mu(GICProblem(p.q, p.m, p.n, mixed)) == mu(p)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_mu_counts_identical_receivers_once(q):
    # Two copies of (x2, {x1}) are served by one transmission of x2.
    r = Receiver(FieldMatrix.from_columns(q, [[1, 0]]), FieldMatrix.from_columns(q, [[0, 1]]))
    p = GICProblem(q, 2, 1, [r, r])
    code = IndexCode(FieldMatrix.from_columns(q, [[0, 1]]))
    assert mu(p) == 1 and is_perfect(p, code)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_mu_ignores_a_demand_inside_its_own_knowledge(q):
    # (x1, {x1}) needs nothing, so (x2, {x1}) alone sets the bound.
    known = FieldMatrix.from_columns(q, [[1, 0]])
    p = GICProblem(q, 2, 1, [Receiver(known, FieldMatrix.from_columns(q, [[0, 1]])), Receiver(known, known)])
    code = IndexCode(FieldMatrix.from_columns(q, [[0, 1]]))
    assert mu(p) == 1 and is_perfect(p, code)


def test_mu_empty_problem_edge():
    p = GICProblem(2, 2, 1, [])
    assert mu(p) == 0


def _unpruned_mu(problem):
    """mu without buckets: every knowledge space is eliminated and extended by its groups' demands."""
    q = problem.q
    spaces = {}
    for knowledge, members in problem._groups.items():
        key, pivots = span_key(knowledge, q)
        pivots = spaces.setdefault(key, pivots)
        span_basis([v for _, demand in members for v in demand], q, pivots)
    deficit = max((len(pivots) - len(key) for key, pivots in spaces.items()), default=0)
    return -(-deficit // problem.n)


def _random_mu_problem(rng, q):
    """A problem whose receivers often share a knowledge space: the same matrix,
    its columns mixed by an invertible matrix, or its columns scaled."""
    m, n = int(rng.integers(1, 5)), int(rng.integers(1, 3))
    mn = m * n

    def matrix(cols):
        return FieldMatrix(q, rng.integers(0, q, size=(mn, cols)))

    receivers = []
    for _ in range(int(rng.integers(1, 9))):
        if receivers and rng.random() < 0.6:
            k = receivers[int(rng.integers(len(receivers)))].knowledge
            h = k.cols
            if h and rng.random() < 0.35:
                k = k @ FieldMatrix(q, np.diag(rng.integers(1, q, size=h)))
            elif h and rng.random() < 0.5:
                while True:
                    t = FieldMatrix(q, rng.integers(0, q, size=(h, h)))
                    if t.rank() == h:
                        break
                k = k @ t
        else:
            k = matrix(int(rng.integers(0, mn + 1)))
        receivers.append(Receiver(k, matrix(int(rng.integers(1, 3)))))
    return GICProblem(q, m, n, receivers)


def test_mu_matches_the_unpruned_deficit_loop():
    problems = [gic_from_matroid(Matroid(m, t))[0] for m in range(1, 6) for t in rank_tables(m, 1) if t[-1]]
    problems += [
        gic_from_polymatroid(DiscretePolymatroid(r, t), n)[0]
        for r in (1, 2)
        for t in rank_tables(r, 2)
        if t[-1]
        for n in (1, 2)
    ]
    problems += [load(name)["problem"] for name in BUNDLED]
    rng = np.random.default_rng(47)
    problems += [_random_mu_problem(rng, q) for q in (2, 3, 5) for _ in range(150)]
    for problem in problems:
        assert mu(problem) == _unpruned_mu(problem), problem


@pytest.mark.parametrize("q", [3, 5])
def test_mu_buckets_a_space_by_its_support_not_its_raw_columns(q):
    # [e1] and [2 e1] span one space, whose receivers demand e2 and e3: a
    # deficit of 2.  Their raw columns differ, so bucketing by them would
    # split the space in two and find 1.
    e = FieldMatrix.identity(q, 3)
    e1, e2, e3 = (e.take_columns([i]) for i in range(3))
    p = GICProblem(q, 3, 1, [Receiver(e1, e2), Receiver(FieldMatrix.from_columns(q, [[2, 0, 0]]), e3)])
    assert len(p._groups) == 2
    assert mu(p) == 2 == _unpruned_mu(p)


def test_is_perfect(eg1, eg3):
    assert is_perfect(eg3["problem"], eg3["code"])
    # eg1 verifies but l = 3 while mu = 1.
    assert not is_perfect(eg1["problem"], eg1["code"])
    p = eg3["problem"]
    assert not is_perfect(p, IndexCode(FieldMatrix.identity(p.q, p.mn)))


def test_code_to_representation_matches_eg2(eg1):
    p, code = eg1["problem"], eg1["code"]
    rep = code_to_representation(p, code)
    eye = FieldMatrix.identity(p.q, p.mn)
    assert rep.message_blocks == tuple(eye.take_columns([i]) for i in range(5))
    assert rep.code_block == code.matrix
    report = check_c1_c2(rep, p)
    assert report.c1_ok and report.c2_ok and report.all_ok


def test_code_to_representation_requires_verification(eg1):
    p = eg1["problem"]
    with pytest.raises(UndecodableError):
        code_to_representation(p, IndexCode(FieldMatrix.zeros(p.q, p.mn, 0)))


def test_identity_code_representation_trivially_c2(eg1):
    p = eg1["problem"]
    rep = code_to_representation(p, IndexCode(FieldMatrix.identity(p.q, p.mn)))
    assert check_c1_c2(rep, p).c2_ok


def _c2_loop_ran(*args):
    raise AssertionError("the C2 loop ran")


def test_canonical_c2_after_verify_code_runs_no_c2_loop(eg1, monkeypatch):
    # The canonical representation pulls back to its own code block, whose
    # verdicts verify_code kept: C2 and the recovered code read them and never
    # run the C2 loop, whose first step is the block's span_basis.
    p, code = eg1["problem"], eg1["code"]
    report = verify_code(p, code)

    monkeypatch.setattr("gicode.gic.span_basis", _c2_loop_ran)
    rep = canonical_representation(p, code)
    assert check_c1_c2(rep, p).c2_per_receiver == report.receiver_ok
    assert representation_to_code(rep, p) == code
    with pytest.raises(AssertionError, match="the C2 loop ran"):
        verify_code(p, IndexCode(FieldMatrix.zeros(p.q, p.mn, 0)))


def test_representation_to_code_recovers_eg1(eg1):
    p, code = eg1["problem"], eg1["code"]
    rep = code_to_representation(p, code)
    assert representation_to_code(rep, p) == code


def test_representation_with_identity_blocks_returns_code_block(eg1):
    p, code = eg1["problem"], eg1["code"]
    rep = canonical_representation(p, code)
    assert representation_to_code(rep, p).matrix == rep.code_block


def test_representation_to_code_c1_violation(eg1):
    p, code = eg1["problem"], eg1["code"]
    rep = code_to_representation(p, code)
    broken = GICRepresentation([rep.message_blocks[0]] * 5, rep.code_block)
    report = check_c1_c2(broken, p)
    assert not report.c1_full_rank
    with pytest.raises(C1ViolationError):
        representation_to_code(broken, p)


def test_representation_to_code_c2_violation_reports_receiver():
    # Receivers 0..2 decode from their own knowledge; receiver 3 needs the
    # code block, which is empty, so C2 first fails at index 3.
    q, m = 2, 2
    e1 = FieldMatrix.from_columns(q, [[1, 0]])
    e2 = FieldMatrix.from_columns(q, [[0, 1]])
    receivers = [Receiver(e1, e1)] * 3 + [Receiver(FieldMatrix.zeros(q, m, 0), e2)]
    p = GICProblem(q, m, 1, receivers)
    rep = canonical_representation(p, IndexCode(FieldMatrix.zeros(q, m, 0)))
    with pytest.raises(C2ViolationError) as err:
        representation_to_code(rep, p)
    assert err.value.receiver == 3


def test_check_c1_c2_zero_code_block(eg1):
    p = eg1["problem"]
    rep = canonical_representation(p, IndexCode(FieldMatrix.zeros(p.q, p.mn, 0)))
    report = check_c1_c2(rep, p)
    assert report.c1_message_block_ranks and report.c1_full_rank
    assert not report.c2_ok  # nonzero demands with K_i alone insufficient
    assert report.c2_per_receiver[0] is False


def test_check_c1_c2_code_block_rank_clause(eg1):
    p = eg1["problem"]
    # Identity plus a duplicated column: verifies, but rank(A_{m+1}) < l.
    dup = concat_columns([FieldMatrix.identity(p.q, p.mn), FieldMatrix.identity(p.q, p.mn).take_columns([0])])
    code = IndexCode(dup)
    assert verify_code(p, code).all_ok
    rep = code_to_representation(p, code)
    report = check_c1_c2(rep, p)
    assert not report.c1_code_block_rank and report.c2_ok
    # ... and such codes still round-trip through the conversion.
    assert representation_to_code(rep, p) == code


def _c1_representation(rng, q, m, n, shape):
    """Random message blocks: `shape` "any" leaves them random, "singular"
    makes one block's last column a multiple of its first (zero at n = 1),
    "repeated" copies one block into another, so [A_1..A_m] loses rank while
    every block may keep rank n."""
    mn = m * n
    blocks = [FieldMatrix(q, rng.integers(0, q, size=(mn, n))) for _ in range(m)]
    i = int(rng.integers(m))
    if shape == "singular":
        columns = blocks[i].to_columns()
        scale = int(rng.integers(q)) if n > 1 else 0
        columns[-1] = [scale * v % q for v in columns[0]]
        blocks[i] = FieldMatrix.from_columns(q, columns, rows=mn)
    elif shape == "repeated" and m > 1:
        blocks[(i + 1) % m] = blocks[i]
    code_block = FieldMatrix(q, rng.integers(0, q, size=(mn, int(rng.integers(0, 3)))))
    return GICRepresentation(blocks, code_block)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2])
def test_c1_report_matches_the_per_block_ranks(q, n):
    # check_c1_c2 ranks each message block only when [A_1..A_m] falls short
    # of rank mn; the report is the one the per-block ranks give.
    rng = np.random.default_rng(89 + 10 * q + n)
    clauses = set()
    for _ in range(60):
        m = int(rng.integers(1, 4))

        def matrix(cols):
            return FieldMatrix(q, rng.integers(0, q, size=(m * n, cols)))

        p = GICProblem(q, m, n, [Receiver(matrix(int(rng.integers(0, 3))), matrix(1)) for _ in range(3)])
        rep = _c1_representation(rng, q, m, n, str(rng.choice(["any", "singular", "repeated"])))
        a = rep.message_matrix()
        expected = {
            "c1_message_block_ranks": all(blk.rank() == n for blk in rep.message_blocks),
            "c1_full_rank": a.rank() == m * n,
            "c1_code_block_rank": rep.code_block.rank() == rep.code_block.cols,
            "c2_receivers": list(_c2_reference(p, rep.code_block, a)),
        }
        assert check_c1_c2(rep, p).to_json_dict() == expected
        clauses.add((expected["c1_message_block_ranks"], expected["c1_full_rank"]))
    assert clauses == {(True, True), (True, False), (False, False)}


def _random_problem(rng) -> GICProblem:
    q = int(rng.choice([2, 3]))
    m = int(rng.integers(1, 5))
    n = int(rng.integers(1, 3))
    mn = m * n
    receivers = []
    for _ in range(int(rng.integers(1, 4))):
        k = FieldMatrix(q, rng.integers(0, q, size=(mn, int(rng.integers(0, 3)))))
        d = FieldMatrix(q, rng.integers(0, q, size=(mn, int(rng.integers(1, 3)))))
        receivers.append(Receiver(k, d))
    return GICProblem(q, m, n, receivers)


def test_verify_iff_c2_on_random_pairs():
    rng = np.random.default_rng(47)
    passing = 0
    for _ in range(300):
        p = _random_problem(rng)
        code = IndexCode(FieldMatrix(p.q, rng.integers(0, p.q, size=(p.mn, int(rng.integers(0, 5))))))
        verdict = verify_code(p, code).all_ok
        rep = canonical_representation(p, code)
        assert check_c1_c2(rep, p).c2_ok == verdict
        if verdict:
            passing += 1
            assert representation_to_code(code_to_representation(p, code), p) == code
    assert passing > 0


def test_nonidentity_representation_converts_back():
    # Conjugating the canonical representation by an invertible Q changes
    # none of the C1/C2 verdicts and representation_to_code still recovers
    # a verifying code.
    rng = np.random.default_rng(53)
    bundle = load("eg1")
    p, code = bundle["problem"], bundle["code"]
    rep = code_to_representation(p, code)
    while True:
        qmat = FieldMatrix(p.q, rng.integers(0, p.q, size=(p.mn, p.mn)))
        if qmat.rank() == p.mn:
            break
    conjugated = GICRepresentation(
        [qmat @ blk for blk in rep.message_blocks], qmat @ rep.code_block
    )
    assert check_c1_c2(conjugated, p).all_ok
    recovered = representation_to_code(conjugated, p)
    assert verify_code(p, recovered).all_ok
    assert recovered == code  # [QA]^-1 Q A_{m+1} = A^-1 A_{m+1}


def _c2_reference(problem, code_block, a=None):
    """Each receiver's C2 span test on its own: a·D_i inside col-span([a·K_i | code_block])."""
    out = []
    for r in problem.receivers:
        known, demand = (r.knowledge, r.demand) if a is None else (a @ r.knowledge, a @ r.demand)
        out.append(in_column_span(concat_columns([known, code_block]), demand))
    return tuple(out)


def test_grouped_c2_matches_a_per_receiver_check():
    # The C2 checks reduce each distinct knowledge matrix once.  A
    # constructed problem shares knowledge objects between receivers, as
    # a parsed one does; `copies` holds equal but distinct ones, so the
    # grouping goes by equality, not identity.  A message matrix other
    # than the identity sends every column through `combine`.
    rng = np.random.default_rng(71)
    fano = FieldMatrix(2, [[v >> i & 1 for v in range(1, 8)] for i in range(3)])
    built, _ = gic_from_matroid(Matroid.from_matrix(fano))
    given = [
        Receiver(FieldMatrix._of(r.knowledge.q, r.knowledge.rows, r.knowledge.packed), r.demand)
        for r in built.receivers
    ]
    copies = GICProblem(built.q, built.m, built.n, given)
    assert copies == built
    assert len({id(r.knowledge) for r in built.receivers}) < len(built.receivers)
    assert len({id(r.knowledge) for r in given}) == len(given)
    parsed = GICProblem.from_json_dict(built.to_json_dict())
    matrices = [mat for r in parsed.receivers for mat in (r.knowledge, r.demand)]
    assert parsed == built and len({id(mat) for mat in matrices}) == len(set(matrices))
    mn = built.mn
    codes = [code_from_matroid_rep(fano, built)]
    codes += [IndexCode(FieldMatrix(2, rng.integers(0, 2, size=(mn, l)))) for l in (0, 2, 4, 5, 7, 8)]
    while True:
        qmat = FieldMatrix(2, rng.integers(0, 2, size=(mn, mn)))
        if qmat.rank() == mn:
            break
    split = 0  # codes under which receivers sharing a knowledge matrix disagree
    for code in codes:
        expected = _c2_reference(built, code.matrix)
        for p in (built, copies):
            assert verify_code(p, code).receiver_ok == expected
            assert check_c1_c2(canonical_representation(p, code), p).c2_per_receiver == expected
        conjugated = GICRepresentation(
            [qmat @ blk for blk in canonical_representation(built, code).message_blocks], qmat @ code.matrix
        )
        got = check_c1_c2(conjugated, built).c2_per_receiver
        assert got == _c2_reference(built, qmat @ code.matrix, conjugated.message_matrix()) == expected
        verdicts = {}
        for r, ok in zip(built.receivers, expected):
            verdicts.setdefault(r.knowledge, set()).add(ok)
        split += any(len(v) == 2 for v in verdicts.values())
    assert split >= 2


def test_receivers_are_grouped_once_per_problem(monkeypatch):
    # A parsed problem is grouped as it is built, and verify_code, mu and
    # the solver (its normalization scan and its search) all read that one
    # grouping.  C2 on the canonical representation and the extraction's
    # is_perfect reuse verify_code's verdicts and mu's bound, so they run
    # no span_basis: a second C2 run on the same code would.
    u23 = FieldMatrix(2, [[1, 0, 1], [0, 1, 1]])
    built, _ = gic_from_matroid(Matroid.from_matrix(u23))
    problem = GICProblem.from_json_dict(built.to_json_dict())
    groups = problem._groups
    code = code_from_matroid_rep(u23, problem)
    assert verify_code(problem, code).all_ok
    assert mu(problem) == code.length
    with monkeypatch.context() as patch:
        patch.setattr("gicode.gic.span_basis", _c2_loop_ran)
        assert check_c1_c2(canonical_representation(problem, code), problem).all_ok
        assert Matroid.from_matrix(matroid_rep_from_code(problem, code)) == Matroid.from_matrix(u23)
    assert solve_perfect_scalar_binary(problem).verdict == FOUND
    assert problem._groups is groups
    # One entry per distinct knowledge matrix, keyed by its packed columns in
    # first-use order, each with its members' indices and demand columns in
    # receiver order.
    receivers = problem.receivers
    assert list(groups) == list(dict.fromkeys(r.knowledge.packed for r in receivers))
    assert len(groups) < len(receivers)
    for knowledge, members in groups.items():
        indices = [i for i, _ in members]
        assert indices == sorted(indices)
        assert members == [(i, receivers[i].demand.packed) for i in indices]
        assert all(receivers[i].knowledge.packed == knowledge for i in indices)
    assert sorted(i for members in groups.values() for i, _ in members) == list(range(len(receivers)))


def test_equal_knowledge_matrices_that_are_distinct_objects_share_a_group():
    # Elements 0 and 1 are parallel, so one sum, y_3 + y_4, serves R2
    # receivers that demand different y's: gic_from_matroid puts them in one
    # group.  A problem built from receivers may hold equal matrices as
    # distinct objects; they share one group, and the view builds one
    # object per distinct column tuple.
    built, _ = gic_from_matroid(Matroid.from_matrix(FieldMatrix(2, [[1, 1, 0, 1], [0, 0, 1, 1]])))
    k = built.m - 4
    sums = {knowledge: [d for _, d in members] for knowledge, members in built._groups.items()}
    assert sums[(1 << k + 2 | 1 << k + 3,)] == [(1 << k,), (1 << k + 1,)]
    given = [
        Receiver(FieldMatrix._of(r.knowledge.q, r.knowledge.rows, r.knowledge.packed), r.demand)
        for r in built.receivers
    ]
    problem = GICProblem(built.q, built.m, built.n, given)
    knowledge = [r.knowledge for r in given]
    assert len(set(knowledge)) < len({id(k) for k in knowledge})
    groups = problem._groups
    assert list(groups) == list(dict.fromkeys(k.packed for k in knowledge))
    for packed, members in groups.items():
        assert [i for i, _ in members] == [i for i, other in enumerate(knowledge) if other.packed == packed]
    matrices = [mat for r in problem.receivers for mat in (r.knowledge, r.demand)]
    assert len({id(mat) for mat in matrices}) == len({mat.packed for mat in matrices}) < len(set(map(id, knowledge)))


def test_reports_keywords_and_defaults():
    report = VerificationReport(receiver_ok=(True, False, True))
    assert report.receiver_ok == (True, False, True)
    assert (report.all_ok, report.failing()) == (False, (1,))
    assert report.to_json_dict() == {"pass": False, "receivers": [True, False, True]}
    c = C1C2Report(c1_message_block_ranks=True, c1_full_rank=True, c1_code_block_rank=True)
    assert c.c2_per_receiver == () and (c.c1_ok, c.c2_ok, c.all_ok) == (True, True, True)
    c = C1C2Report(True, False, True, c2_per_receiver=(True, False))
    assert (c.c1_ok, c.c2_ok, c.all_ok) == (False, False, False)
    assert c.to_json_dict() == {
        "c1_message_block_ranks": True,
        "c1_full_rank": False,
        "c1_code_block_rank": True,
        "c2_receivers": [True, False],
    }


def test_problem_rejects_a_float_modulus():
    with pytest.raises(ValueError, match="unsupported modulus 5.0"):
        GICProblem(5.0, 1, 1, [])


@pytest.mark.parametrize("m, n", [(2.0, 1), (2, 1.0), (2, True)])
def test_problem_rejects_sizes_that_are_not_ints(m, n):
    # 2.0 == 2 and True == 1, but either would reach the output or the row count.
    bad, value = ("m", m) if type(m) is not int else ("n", n)
    with pytest.raises(ValueError, match=f"^{bad} must be a positive integer, got {value!r}$"):
        GICProblem(2, m, n, [])


def test_receiver_validation():
    with pytest.raises(ValueError):
        Receiver(FieldMatrix.zeros(2, 3, 1), FieldMatrix.zeros(2, 3, 0))  # no demand
    with pytest.raises(ValueError):
        Receiver(FieldMatrix.zeros(2, 3, 1), FieldMatrix.zeros(2, 4, 1))  # row mismatch
    with pytest.raises(ValueError):
        Receiver(FieldMatrix.zeros(2, 3, 1), FieldMatrix.zeros(3, 3, 1))  # q mismatch


def test_receiver_is_an_immutable_value():
    k, d = FieldMatrix.zeros(2, 3, 1), FieldMatrix.from_columns(2, [[0, 1, 1]])
    r = Receiver(k, d)
    twin = Receiver(knowledge=FieldMatrix.zeros(2, 3, 1), demand=FieldMatrix.from_columns(2, [[0, 1, 1]]))
    assert r == twin and hash(r) == hash(twin) and len({r, twin}) == 1
    assert r != Receiver(d, d) and r != (k, d)
    assert repr(r) == f"Receiver(knowledge={k!r}, demand={d!r})"
    with pytest.raises(AttributeError):
        r.knowledge = d
    with pytest.raises(AttributeError):
        del r.demand


def test_problem_json_round_trip(eg1, eg3):
    for bundle in (eg1, eg3):
        p = bundle["problem"]
        assert GICProblem.from_json_dict(p.to_json_dict()) == p
        code = bundle["code"]
        assert IndexCode.from_json_dict(code.to_json_dict(), p.q, p.mn) == code


def _pg32_problem():
    return gic_from_matroid(Matroid.from_matrix(FieldMatrix(2, [[v >> i & 1 for v in range(1, 16)] for i in range(4)])))[0]


def _problem_variants(q, m, n, receivers):
    """(a, b) problem pairs around one receiver list: equal copies, two receivers
    with different knowledge swapped, one demand entry changed, other m or n."""
    mn = m * n

    def copy(r):
        k, d = r.knowledge, r.demand
        return Receiver(FieldMatrix._of(q, mn, k.packed), FieldMatrix._of(q, mn, d.packed))

    def problem(mm=m, nn=n, rs=receivers):
        return GICProblem(q, mm, nn, rs)

    pairs = [(problem(), problem(rs=[copy(r) for r in receivers]))]
    swaps = [(i, j) for j in range(len(receivers)) for i in range(j) if receivers[i].knowledge != receivers[j].knowledge]
    if swaps:
        i, j = swaps[0]
        swapped = list(receivers)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        pairs.append((problem(), problem(rs=swapped)))
    if receivers:
        changed = list(receivers)
        columns = changed[-1].demand.to_columns()
        columns[0][0] = (columns[0][0] + 1) % q
        changed[-1] = Receiver(changed[-1].knowledge, FieldMatrix.from_columns(q, columns, rows=mn))
        pairs.append((problem(rs=changed), problem()))
    pairs += [(problem(), problem(mm, nn)) for mm, nn in ((mn, 1), (1, mn)) if (mm, nn) != (m, n)]
    return pairs


def test_problem_equality_is_receiver_equality_and_builds_no_receiver(eg1):
    # __eq__ compares (q, m, n, receiver count) and the groupings' packed
    # columns and members, which is the receiver tuples' equality.
    pg32 = _pg32_problem()
    d = pg32.to_json_dict()
    swapped, changed = pg32.to_json_dict(), pg32.to_json_dict()
    rs = swapped["receivers"]
    rs[0], rs[-1] = rs[-1], rs[0]
    changed["receivers"][-1]["D"][0][0] ^= 1
    pairs = [
        (pg32, GICProblem.from_json_dict(d)),
        (GICProblem.from_json_dict(d), GICProblem.from_json_dict(swapped)),
        (GICProblem.from_json_dict(changed), pg32),
        (GICProblem(2, 2, 1, []), GICProblem(2, 2, 1, [])),
        (GICProblem(2, 2, 1, []), GICProblem(2, 1, 2, [])),
        (GICProblem(2, 1, 1, []), GICProblem(3, 1, 1, [])),
        (GICProblem(2, 5, 1, []), eg1["problem"]),
    ]
    rng = np.random.default_rng(53)
    for q in (2, 3, 5):
        for _ in range(30):
            source = _random_mu_problem(rng, q)
            pairs += _problem_variants(q, source.m, source.n, list(source.receivers))
    verdicts = [a == b for a, b in pairs]
    assert all(p.receivers._tuple is None for pair in pairs for p in pair if p is not eg1["problem"])
    assert verdicts == [(a.q, a.m, a.n) == (b.q, b.m, b.n) and a.receivers == b.receivers for a, b in pairs]
    assert verdicts[:7] == [True, False, False, True, False, False, False]
    assert sum(verdicts[7:]) == 90  # of each random problem, only the equal copy


def test_a_parsed_problem_builds_its_receivers_on_first_read(eg1):
    # The parser's receivers are grouped and dropped; the tuple built from the
    # grouping equals them and, like them, holds one object per distinct
    # matrix, a demand equal to another receiver's knowledge included.
    e = FieldMatrix.identity(3, 2)
    e1, e2 = e.take_columns([0]), e.take_columns([1])
    crossed = GICProblem(3, 2, 1, [Receiver(e1, e2), Receiver(e2, e1), Receiver(FieldMatrix.zeros(3, 2, 0), e1)])
    rng = np.random.default_rng(59)
    problems = [_pg32_problem(), eg1["problem"], crossed, GICProblem(5, 1, 1, [])]
    problems += [_random_mu_problem(rng, q) for q in (2, 3, 5) for _ in range(5)]
    for problem in problems:
        d = problem.to_json_dict()
        parsed = GICProblem.from_json_dict(d)
        code = IndexCode(FieldMatrix.identity(parsed.q, parsed.mn))
        for receiver in (-1, parsed._count, True):
            with pytest.raises(ValueError, match="receiver must be an int"):
                decoding_matrix(parsed, code, receiver)
        assert parsed.receivers._tuple is None
        receivers = parsed.receivers
        assert receivers == tuple(_receivers_from_json(parsed.q, parsed.m, parsed.n, d["receivers"]))
        assert parsed.receivers is receivers and receivers == problem.receivers
        matrices = [mat for r in receivers for mat in (r.knowledge, r.demand)]
        assert len({id(mat) for mat in matrices}) == len(set(matrices))
    r0, r1, r2 = GICProblem.from_json_dict(crossed.to_json_dict()).receivers
    assert r0.demand is r1.knowledge and r1.demand is r0.knowledge is r2.demand


def _tuple_loop(problem):
    """The receiver tuple as `receivers` built it before it became a view: one
    shared object per distinct matrix, a demand equal to a knowledge matrix included,
    every knowledge matrix made before any demand."""
    receivers = [None] * problem._count
    matrices = {knowledge: FieldMatrix._of(problem.q, problem.mn, knowledge) for knowledge in problem._groups}
    for knowledge, members in problem._groups.items():
        for i, demand in members:
            mat = matrices.get(demand)
            if mat is None:
                mat = matrices[demand] = FieldMatrix._of(problem.q, problem.mn, demand)
            receivers[i] = Receiver(matrices[knowledge], mat)
    return tuple(receivers)


def _sharing(receivers):
    """Which matrices of a receiver sequence are one object: each K and D
    labelled by the first position holding that same object."""
    first: dict[int, int] = {}
    return [first.setdefault(id(mat), i) for i, mat in enumerate(m for r in receivers for m in (r.knowledge, r.demand))]


def test_counting_receivers_builds_none():
    pg32 = _pg32_problem()
    problems = [pg32, load("eg1")["problem"], GICProblem.from_json_dict(pg32.to_json_dict()), GICProblem(3, 2, 2, [])]
    for problem in problems:
        view = problem.receivers
        assert problem.receivers is view
        assert len(view) == problem._count and bool(view) is (problem._count > 0)
        assert view._tuple is None
    assert [len(p.receivers) for p in problems] == [4740, 5, 4740, 0]
    assert min(timeit.repeat(lambda: len(pg32.receivers), number=1, repeat=200)) < 1e-5
    assert pg32.receivers._tuple is None
    first = pg32.receivers[0]
    built = pg32.receivers._tuple
    assert len(built) == 4740 and pg32.receivers[0] is first and pg32.receivers._tuple is built


def test_receiver_view_reads_like_the_tuple_it_replaced():
    problems = [gic_from_matroid(Matroid(m, t))[0] for m in range(1, 6) for t in rank_tables(m, 1) if t[-1]]
    problems += [_pg32_problem(), GICProblem(2, 1, 1, [])]
    e = FieldMatrix.identity(3, 2)
    e1, e2 = e.take_columns([0]), e.take_columns([1])
    problems.append(GICProblem(3, 2, 1, [Receiver(e1, e2), Receiver(e2, e1), Receiver(FieldMatrix.zeros(3, 2, 0), e1)]))
    assert all(p.receivers._tuple is None for p in problems)
    shared = 0
    for problem, neighbour in zip(problems, problems[1:] + problems[:1]):
        view, expected = problem.receivers, _tuple_loop(problem)
        size = len(expected)
        assert len(view) == size and bool(view) is bool(expected)
        # Indexing, negative indexing, out-of-range indices and slices.
        assert [view[i] for i in range(size)] == list(expected)
        assert [view[-i] for i in range(1, size + 1)] == [expected[-i] for i in range(1, size + 1)]
        for index in (size, -size - 1, size + 7):
            with pytest.raises(IndexError):
                view[index]
        for cut in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -1), slice(1, size, 3), slice(5, 2)):
            assert view[cut] == expected[cut]
        # Iteration order, enumerate and zip.
        assert list(view) == list(expected) and list(enumerate(view)) == list(enumerate(expected))
        assert all(a == b for a, b in zip(view, expected, strict=True))
        # Equality with a tuple and with another view, both ways round.
        again = GICProblem(problem.q, problem.m, problem.n, expected).receivers
        assert view == expected and expected == view and not view != expected and not expected != view
        assert view == again and not view != again
        assert view != expected + (None,) and (None,) + expected != view
        assert view != list(expected) and (view == ()) is (size == 0)
        other = _tuple_loop(neighbour)
        assert (view == neighbour.receivers) is (expected == other) and (view != neighbour.receivers) is (expected != other)
        assert hash(view) == hash(expected) == hash(again)
        # One object per distinct matrix, shared exactly as the loop shares them.
        assert view._tuple is not None and problem.receivers is view
        assert _sharing(view) == _sharing(expected)
        shared += len(set(_sharing(view))) < 2 * size
    assert shared > 100


def test_tracer_counters_build_no_receivers():
    # The benchmark's tracer counts receivers with len(problem.receivers).
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    rep = FieldMatrix(2, [[v >> i & 1 for v in range(1, 16)] for i in range(4)])
    built = gic_from_matroid(Matroid.from_matrix(rep))
    problem = built[0]
    counters = collections.defaultdict(float)
    tracing._receivers(counters, 0.0, (), built)
    tracing._verified(counters, 0.0, (problem, code_from_matroid_rep(rep, problem)), None)
    assert counters == {"construct.receivers_emitted": 4740, "gic.verify_code.receivers": 4740}
    assert problem.receivers._tuple is None


def test_index_code_encode(eg1):
    code = eg1["code"]
    x = FieldMatrix(2, [[1, 0, 1, 1, 0]])
    # x1+x2 = 1, x3+x4 = 0, x5 = 0
    assert code.encode(x).to_rows() == [[1, 0, 0]]
