"""Generalized index coding: problems, code verification, and the
representation bridge.

A receiver demands and possesses linear functions of the message vector,
carried as demand/knowledge matrices with one column per function.  A
linear index code is the map f(X) = X L.  Receiver i decodes exactly when
every demand column lies in the column span of [K_i | L]; the same rank
condition, conjugated by a representation, is the C2 condition connecting
codes to representable discrete polymatroids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from numpy.random import default_rng

from .gf import (
    FieldMatrix,
    SUPPORTED_MODULI,
    NoSolutionError,
    bits_basis,
    bits_combine,
    bits_reduce,
    bits_reduced_basis,
    column_bits,
    concat_columns,
    in_column_span,
)


class GICError(Exception):
    pass


class UndecodableError(GICError):
    """The code does not satisfy the receiver(s) in question."""


class C1ViolationError(GICError):
    """A representation fails one of the C1 rank equalities."""


class C2ViolationError(GICError):
    """A representation fails the C2 span condition at some receiver."""

    def __init__(self, receiver: int):
        super().__init__(f"C2 fails at receiver {receiver}")
        self.receiver = receiver


@dataclass(frozen=True)
class Receiver:
    """Knowledge matrix (mn x h, h >= 0) and demand matrix (mn x w, w >= 1)."""

    knowledge: FieldMatrix
    demand: FieldMatrix

    def __post_init__(self):
        if self.knowledge.q != self.demand.q:
            raise ValueError("knowledge and demand must share the modulus")
        if self.knowledge.rows != self.demand.rows:
            raise ValueError("knowledge and demand must share the row count")
        if self.demand.cols < 1:
            raise ValueError("a receiver must demand at least one function")


class GICProblem:
    """m messages of dimension n over GF(q), plus the receiver list."""

    __slots__ = ("q", "m", "n", "receivers")

    def __init__(self, q: int, m: int, n: int, receivers):
        if q not in SUPPORTED_MODULI:
            raise ValueError(f"unsupported modulus {q}")
        if m < 1 or n < 1:
            raise ValueError("need m >= 1 messages of dimension n >= 1")
        receivers = tuple(receivers)
        for i, r in enumerate(receivers):
            if r.knowledge.q != q:
                raise ValueError(f"receiver {i}: modulus mismatch")
            if r.knowledge.rows != m * n:
                raise ValueError(f"receiver {i}: matrices must have {m * n} rows")
        self.q = q
        self.m = m
        self.n = n
        self.receivers = receivers

    @property
    def mn(self) -> int:
        return self.m * self.n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GICProblem)
            and (self.q, self.m, self.n) == (other.q, other.m, other.n)
            and self.receivers == other.receivers
        )

    def __repr__(self) -> str:
        return f"GICProblem(q={self.q}, m={self.m}, n={self.n}, receivers={len(self.receivers)})"

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "m": self.m,
            "n": self.n,
            "receivers": [
                {"K": r.knowledge.to_columns(), "D": r.demand.to_columns()}
                for r in self.receivers
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GICProblem":
        q, m, n = d["q"], d["m"], d["n"]
        mn = m * n
        receivers = [
            Receiver(
                FieldMatrix.from_columns(q, r["K"], rows=mn),
                FieldMatrix.from_columns(q, r["D"], rows=mn),
            )
            for r in d["receivers"]
        ]
        return cls(q, m, n, receivers)


class IndexCode:
    """Linear index code f(X) = X L for an mn x l matrix L."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: FieldMatrix):
        self.matrix = matrix

    @property
    def length(self) -> int:
        return self.matrix.cols

    def encode(self, message_row: FieldMatrix) -> FieldMatrix:
        return message_row @ self.matrix

    def __eq__(self, other) -> bool:
        return isinstance(other, IndexCode) and self.matrix == other.matrix

    def __repr__(self) -> str:
        return f"IndexCode(l={self.length})"

    def to_json_dict(self) -> dict:
        return {"L": self.matrix.to_columns()}

    @classmethod
    def from_json_dict(cls, d: dict, q: int, mn: int) -> "IndexCode":
        return cls(FieldMatrix.from_columns(q, d["L"], rows=mn))


class GICRepresentation:
    """Blocks A_1..A_m (mn x n each) and the code block A_{m+1} (mn x l).

    Shapes are validated here; the C1/C2 rank conditions are reported by
    check_c1_c2 so that failing representations can be built and examined.
    """

    __slots__ = ("message_blocks", "code_block")

    def __init__(self, message_blocks, code_block: FieldMatrix):
        message_blocks = tuple(message_blocks)
        if not message_blocks:
            raise ValueError("need at least one message block")
        mn = len(message_blocks) * message_blocks[0].cols
        for blk in message_blocks:
            if blk.q != code_block.q:
                raise ValueError("blocks must share the modulus")
            if blk.cols != message_blocks[0].cols:
                raise ValueError("message blocks must share the column count")
            if blk.rows != mn:
                raise ValueError(f"blocks must have {mn} rows")
        if code_block.rows != mn:
            raise ValueError(f"blocks must have {mn} rows")
        self.message_blocks = message_blocks
        self.code_block = code_block

    @property
    def q(self) -> int:
        return self.code_block.q

    def message_matrix(self) -> FieldMatrix:
        """The concatenation [A_1 ... A_m]."""
        return concat_columns(self.message_blocks)


@dataclass(frozen=True)
class VerificationReport:
    """Per-receiver decodability of a code, in receiver order."""

    receiver_ok: tuple[bool, ...]

    @property
    def all_ok(self) -> bool:
        return all(self.receiver_ok)

    def failing(self) -> tuple[int, ...]:
        return tuple(i for i, ok in enumerate(self.receiver_ok) if not ok)

    def to_json_dict(self) -> dict:
        return {"pass": self.all_ok, "receivers": list(self.receiver_ok)}


@dataclass(frozen=True)
class C1C2Report:
    """Explicit booleans for every clause of conditions C1 and C2."""

    c1_message_block_ranks: bool  # rank(A_i) = n for every i
    c1_full_rank: bool  # rank([A_1 .. A_m]) = mn
    c1_code_block_rank: bool  # rank(A_{m+1}) = l
    c2_per_receiver: tuple[bool, ...] = field(default=())

    @property
    def c1_ok(self) -> bool:
        return self.c1_message_block_ranks and self.c1_full_rank and self.c1_code_block_rank

    @property
    def c2_ok(self) -> bool:
        return all(self.c2_per_receiver)

    @property
    def all_ok(self) -> bool:
        return self.c1_ok and self.c2_ok

    def to_json_dict(self) -> dict:
        return {
            "c1_message_block_ranks": self.c1_message_block_ranks,
            "c1_full_rank": self.c1_full_rank,
            "c1_code_block_rank": self.c1_code_block_rank,
            "c2_receivers": list(self.c2_per_receiver),
        }


def _check_code_shape(problem: GICProblem, code: IndexCode):
    if code.matrix.q != problem.q:
        raise ValueError("code and problem must share the modulus")
    if code.matrix.rows != problem.mn:
        raise ValueError(f"code matrix must have {problem.mn} rows")


def _c2_conditions(problem: GICProblem, code_block: FieldMatrix, a: FieldMatrix | None = None):
    """Per receiver: a·D_i inside col-span([a·K_i | code_block]); a = None is the identity.

    With a = None this is decodability under the code L = code_block.
    Over GF(2) the code block is reduced once and each receiver extends a
    copy of that basis; a·v is the XOR of a's packed columns picked by v.
    """
    if problem.q == 2:
        base = bits_basis(column_bits(code_block))
        a_cols = None if a is None else column_bits(a)
        ok = []
        for r in problem.receivers:
            known, demand = column_bits(r.knowledge), column_bits(r.demand)
            if a_cols is not None:
                known = [bits_combine(a_cols, v) for v in known]
                demand = [bits_combine(a_cols, v) for v in demand]
            pivots = bits_basis(known, dict(base))
            ok.append(all(bits_reduce(v, pivots) == 0 for v in demand))
        return tuple(ok)
    ok = []
    for r in problem.receivers:
        known, demand = r.knowledge, r.demand
        if a is not None:
            known, demand = a @ known, a @ demand
        ok.append(in_column_span(concat_columns([known, code_block]), demand))
    return tuple(ok)


def verify_code(problem: GICProblem, code: IndexCode) -> VerificationReport:
    """Per-receiver decodability: D_i inside col-span([K_i | L])."""
    _check_code_shape(problem, code)
    return VerificationReport(_c2_conditions(problem, code.matrix))


def decoding_matrix(
    problem: GICProblem, code: IndexCode, receiver: int, seed: int = 0
) -> FieldMatrix:
    """The matrix M_i with [K_i | L] M_i = D_i for a decodable receiver.

    A seeded randomized functional check X [K_i|L] M_i = X D_i is run on a
    handful of sampled message rows as a self-check of the solve path.
    """
    _check_code_shape(problem, code)
    r = problem.receivers[receiver]
    known = concat_columns([r.knowledge, code.matrix])
    try:
        sol = known.solve_right(r.demand)
    except NoSolutionError as exc:
        raise UndecodableError(f"receiver {receiver} cannot decode") from exc
    rng = default_rng(seed)
    reduced = known @ sol
    x = FieldMatrix(problem.q, rng.integers(0, problem.q, size=(4, problem.mn)))
    if x @ reduced != x @ r.demand:  # pragma: no cover - solve_right is exact
        raise AssertionError("decoding matrix failed the functional check")
    return sol


def _knowledge_space_key(knowledge: FieldMatrix) -> tuple:
    """Canonical key for the column space: its fully reduced packed basis
    over GF(2), otherwise the RREF of the transpose."""
    if knowledge.q == 2:
        return bits_reduced_basis(column_bits(knowledge))
    reduced, piv = knowledge.transpose().rref()
    rows = reduced.to_rows()[: len(piv)]
    return tuple(tuple(row) for row in rows)


def mu(problem: GICProblem) -> int:
    """Largest number of receivers sharing one knowledge column space."""
    groups: dict[tuple, int] = {}
    for r in problem.receivers:
        key = _knowledge_space_key(r.knowledge)
        groups[key] = groups.get(key, 0) + 1
    return max(groups.values(), default=0)


def is_perfect(problem: GICProblem, code: IndexCode) -> bool:
    """True iff the code verifies and l/n meets the receiver-group bound mu."""
    return verify_code(problem, code).all_ok and code.length == problem.n * mu(problem)


def canonical_representation(problem: GICProblem, code: IndexCode) -> GICRepresentation:
    """Identity message blocks plus the code matrix, with no decodability check."""
    _check_code_shape(problem, code)
    eye = FieldMatrix.identity(problem.q, problem.mn)
    n = problem.n
    blocks = [eye.take_columns(range(i * n, (i + 1) * n)) for i in range(problem.m)]
    return GICRepresentation(blocks, code.matrix)


def code_to_representation(problem: GICProblem, code: IndexCode) -> GICRepresentation:
    """A verifying code induces a representation meeting the C1/C2 conditions."""
    report = verify_code(problem, code)
    if not report.all_ok:
        raise UndecodableError(f"code fails at receivers {report.failing()}")
    return canonical_representation(problem, code)


def check_c1_c2(rep: GICRepresentation, problem: GICProblem) -> C1C2Report:
    """Evaluate every C1 clause and the per-receiver C2 span conditions."""
    n, mn = problem.n, problem.mn
    if len(rep.message_blocks) != problem.m:
        raise ValueError("representation must have one block per message")
    if rep.message_blocks[0].cols != n or rep.code_block.rows != mn:
        raise ValueError("representation shaped for a different problem")
    if rep.q != problem.q:
        raise ValueError("modulus mismatch")
    a = rep.message_matrix()
    block_ranks = all(blk.rank() == n for blk in rep.message_blocks)
    full_rank = a.rank() == mn
    code_rank = rep.code_block.rank() == rep.code_block.cols
    return C1C2Report(block_ranks, full_rank, code_rank, _c2_conditions(problem, rep.code_block, a))


def representation_to_code(rep: GICRepresentation, problem: GICProblem) -> IndexCode:
    """Recover the code L = [A_1..A_m]^-1 A_{m+1} of a C1/C2 representation.

    Raises C1ViolationError when the message blocks are not full rank
    (inversion needs them), and C2ViolationError at the first receiver
    whose span condition fails.  Rank deficiency of the code block is
    reported by check_c1_c2 but does not block the conversion: verifying
    codes with dependent columns still round-trip.
    """
    report = check_c1_c2(rep, problem)
    if not (report.c1_message_block_ranks and report.c1_full_rank):
        raise C1ViolationError("message blocks do not form an invertible matrix")
    for i, ok in enumerate(report.c2_per_receiver):
        if not ok:
            raise C2ViolationError(i)
    a = rep.message_matrix()
    return IndexCode(a.invert() @ rep.code_block)
