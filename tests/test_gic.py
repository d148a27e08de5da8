"""gic-core tests: verification, decoding, mu, and the representation bridge."""

import re

import numpy as np
import pytest

from gicode.construct import code_from_matroid_rep, gic_from_matroid, matroid_rep_from_code
from gicode.gf import FieldMatrix, concat_columns, in_column_span
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
    canonical_representation,
    check_c1_c2,
    code_to_representation,
    decoding_matrix,
    is_perfect,
    mu,
    representation_to_code,
    verify_code,
)
from gicode.instances import load
from gicode.matroid import Matroid
from gicode.solver import FOUND, solve_perfect_scalar_binary


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


def test_canonical_c2_after_verify_code_runs_no_c2_loop(eg1, monkeypatch):
    # The canonical representation pulls back to its own code block, whose
    # verdicts verify_code kept: C2 and the recovered code read them and never
    # walk the receiver groups.
    p, code = eg1["problem"], eg1["code"]
    report = verify_code(p, code)

    def no_loop(problem):
        raise AssertionError("the C2 loop ran")

    monkeypatch.setattr(GICProblem, "_knowledge_groups", no_loop)
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
    copies = GICProblem(built.q, built.m, built.n, [
        Receiver(FieldMatrix._of(r.knowledge.q, r.knowledge.rows, r.knowledge.packed), r.demand)
        for r in built.receivers
    ])
    assert copies == built
    assert len({id(r.knowledge) for r in built.receivers}) < len(built.receivers)
    assert len({id(r.knowledge) for r in copies.receivers}) == len(copies.receivers)
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
    # verify_code, mu and the solver (its normalization scan and its
    # search) all read one grouping, built on first use; a parsed problem
    # starts ungrouped.  C2 on the canonical representation and the
    # extraction's is_perfect reuse verify_code's verdicts and mu's bound,
    # so they read no grouping: a second C2 run on the same code would add
    # an entry to `builds`.
    u23 = FieldMatrix(2, [[1, 0, 1], [0, 1, 1]])
    built, _ = gic_from_matroid(Matroid.from_matrix(u23))
    problem = GICProblem.from_json_dict(built.to_json_dict())
    group = GICProblem._knowledge_groups
    builds = []

    def counted(self):
        builds.append(self._groups is None)
        return group(self)

    monkeypatch.setattr(GICProblem, "_knowledge_groups", counted)
    code = code_from_matroid_rep(u23, problem)
    assert verify_code(problem, code).all_ok
    assert mu(problem) == code.length
    assert check_c1_c2(canonical_representation(problem, code), problem).all_ok
    assert Matroid.from_matrix(matroid_rep_from_code(problem, code)) == Matroid.from_matrix(u23)
    assert solve_perfect_scalar_binary(problem).verdict == FOUND
    assert builds == [True, False, False, False]
    # One entry per distinct knowledge matrix, in first-use order, each
    # with its members' indices and demand columns in receiver order.
    groups = problem._knowledge_groups()
    receivers = problem.receivers
    assert [k for k, _ in groups] == list(dict.fromkeys(r.knowledge for r in receivers))
    assert len(groups) < len(receivers)
    for knowledge, members in groups:
        indices = [i for i, _ in members]
        assert indices == sorted(indices)
        assert members == [(i, receivers[i].demand.packed) for i in indices]
        assert all(receivers[i].knowledge == knowledge for i in indices)
    assert sorted(i for _, members in groups for i, _ in members) == list(range(len(receivers)))


def test_equal_knowledge_matrices_that_are_distinct_objects_share_a_group():
    # Elements 0 and 1 are parallel, so one sum, y_3 + y_4, serves R2
    # receivers that demand different y's: gic_from_matroid puts them in one
    # group.  A problem built from receivers may hold equal matrices as
    # distinct objects; the grouping keeps the first of them.
    built, _ = gic_from_matroid(Matroid.from_matrix(FieldMatrix(2, [[1, 1, 0, 1], [0, 0, 1, 1]])))
    k = built.m - 4
    sums = {knowledge.packed: [d for _, d in members] for knowledge, members in built._knowledge_groups()}
    assert sums[(1 << k + 2 | 1 << k + 3,)] == [(1 << k,), (1 << k + 1,)]
    problem = GICProblem(built.q, built.m, built.n, [
        Receiver(FieldMatrix._of(r.knowledge.q, r.knowledge.rows, r.knowledge.packed), r.demand)
        for r in built.receivers
    ])
    knowledge = [r.knowledge for r in problem.receivers]
    firsts = list(dict.fromkeys(knowledge))  # a dict keeps the first of equal keys
    assert len(firsts) < len({id(k) for k in knowledge})
    groups = problem._knowledge_groups()
    kept = [k for k, _ in groups]
    assert kept == firsts and all(a is b for a, b in zip(kept, firsts))
    for k, members in groups:
        assert [i for i, _ in members] == [i for i, other in enumerate(knowledge) if other == k]


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


def test_index_code_encode(eg1):
    code = eg1["code"]
    x = FieldMatrix(2, [[1, 0, 1, 1, 0]])
    # x1+x2 = 1, x3+x4 = 0, x5 = 0
    assert code.encode(x).to_rows() == [[1, 0, 0]]
