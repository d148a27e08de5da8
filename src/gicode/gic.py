"""Generalized index coding: problems, code verification, and the
representation bridge.

A receiver demands and possesses linear functions of the message vector,
carried as demand/knowledge matrices with one column per function.  A
linear index code is the map f(X) = X L.  Receiver i decodes exactly when
every demand column lies in the column span of [K_i | L].  The C2 condition
connecting codes to representable discrete polymatroids, a·D_i inside the
span of [a·K_i | B] for a representation's message matrix a and code block
B, is that same condition on the pulled-back code {x : a·x in span B}, so
one loop decides both.

Those checks, `mu`, the solver and the JSON text read a problem's
receivers grouped by knowledge matrix.  A problem built from receivers
groups them on first use; a construction hands the problem its grouping,
and the receivers are then built the first time they are read.
"""

from __future__ import annotations

import json

from .gf import (
    FieldMatrix,
    NoSolutionError,
    _check_modulus,
    _json_fields,
    _pack,
    _unpack,
    concat_columns,
    span_basis,
    span_key,
    span_reduce,
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


_set_slot = object.__setattr__  # Receiver blocks its own __setattr__


class Receiver:
    """Knowledge matrix (mn x h, h >= 0) and demand matrix (mn x w, w >= 1); immutable."""

    __slots__ = ("knowledge", "demand")

    def __init__(self, knowledge: FieldMatrix, demand: FieldMatrix):
        if knowledge.q != demand.q:
            raise ValueError("knowledge and demand must share the modulus")
        if knowledge.rows != demand.rows:
            raise ValueError("knowledge and demand must share the row count")
        if demand.cols < 1:
            raise ValueError("a receiver must demand at least one function")
        _set_slot(self, "knowledge", knowledge)
        _set_slot(self, "demand", demand)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to Receiver.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete Receiver.{name}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not Receiver:
            return NotImplemented
        return (self.knowledge, self.demand) == (other.knowledge, other.demand)

    def __hash__(self) -> int:
        return hash((self.knowledge, self.demand))

    def __repr__(self) -> str:
        return f"Receiver(knowledge={self.knowledge!r}, demand={self.demand!r})"


class GICProblem:
    """m messages of dimension n over GF(q), plus the receiver list.

    A construction hands over its knowledge grouping instead (`_of`), and
    the receiver tuple is then built the first time `receivers` is read.
    """

    __slots__ = ("q", "m", "n", "_receivers", "_count", "_mu", "_groups", "_verified")

    def __init__(self, q: int, m: int, n: int, receivers):
        _check_modulus(q)
        for name, size in (("m", m), ("n", n)):
            if type(size) is not int or size < 1:  # not isinstance: True is an int too
                raise ValueError(f"{name} must be a positive integer, got {size!r}")
        receivers = tuple(receivers)
        for i, r in enumerate(receivers):
            if r.knowledge.q != q:
                raise ValueError(f"receiver {i}: modulus mismatch")
            if r.knowledge.rows != m * n:
                raise ValueError(f"receiver {i}: matrices must have {m * n} rows")
        self.q = q
        self.m = m
        self.n = n
        self._receivers = receivers
        self._count = len(receivers)
        self._mu = None  # mu(self), computed on first use
        self._groups = None  # self._knowledge_groups(), built on first use
        self._verified = None  # (block, verdicts) of the last block verified: a code or a pull-back

    @classmethod
    def _of(cls, q: int, m: int, n: int, groups: tuple, count: int) -> "GICProblem":
        """A problem from its knowledge grouping over `count` receivers, in the
        format `_knowledge_groups` returns (no checks)."""
        problem = object.__new__(cls)
        problem.q, problem.m, problem.n = q, m, n
        problem._receivers, problem._count, problem._groups = None, count, groups
        problem._mu = problem._verified = None
        return problem

    @property
    def receivers(self) -> tuple:
        if self._receivers is None:
            # Each receiver shares its group's knowledge matrix, and equal demand columns share one matrix.
            receivers = [None] * self._count
            demands: dict[tuple[int, ...], FieldMatrix] = {}
            for knowledge, members in self._groups:
                for i, demand in members:
                    mat = demands.get(demand)
                    if mat is None:
                        mat = demands[demand] = FieldMatrix._of(self.q, knowledge.rows, demand)
                    receivers[i] = Receiver(knowledge, mat)
            self._receivers = tuple(receivers)
        return self._receivers

    @property
    def mn(self) -> int:
        return self.m * self.n

    def _knowledge_groups(self) -> tuple:
        """(knowledge, [(receiver index, demand columns), ...]) per knowledge matrix, in first-use order."""
        if self._groups is None:
            # Receivers often share one knowledge matrix.  Every matrix here has
            # the problem's q and row count, so its columns identify it.
            groups: dict[tuple[int, ...], tuple[FieldMatrix, list]] = {}
            for i, r in enumerate(self._receivers):
                knowledge = r.knowledge
                group = groups.get(knowledge.packed)
                if group is None:
                    group = groups[knowledge.packed] = (knowledge, [])
                group[1].append((i, r.demand.packed))
            self._groups = tuple(groups.values())
        return self._groups

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GICProblem)
            and (self.q, self.m, self.n) == (other.q, other.m, other.n)
            and self.receivers == other.receivers
        )

    def __repr__(self) -> str:
        return f"GICProblem(q={self.q}, m={self.m}, n={self.n}, receivers={self._count})"

    def to_json_dict(self) -> dict:
        """The problem as a JSON object: the parse of `to_json_text`."""
        return json.loads(self.to_json_text())

    def to_json_text(self) -> str:
        """The problem's canonical JSON text (sorted keys, no whitespace), each distinct column and
        matrix rendered once: {"m", "n", "q", "receivers": [{"D", "K"}, ...]}, matrices as column lists.
        It reads the knowledge grouping, so a constructed problem builds no receiver."""
        q, rows = self.q, self.mn
        columns: dict[int, str] = {}
        matrices: dict[tuple[int, ...], str] = {}

        def text(packed: tuple[int, ...]) -> str:
            out = matrices.get(packed)
            if out is None:
                for v in packed:
                    if v not in columns:
                        columns[v] = "[" + ",".join(map(str, _unpack(v, q, rows))) + "]"
                out = matrices[packed] = "[" + ",".join([columns[v] for v in packed]) + "]"
            return out

        body = [""] * self._count
        for knowledge, members in self._knowledge_groups():
            k = ',"K":' + text(knowledge.packed) + "}"
            for i, demand in members:
                body[i] = '{"D":' + text(demand) + k
        return f'{{"m":{self.m},"n":{self.n},"q":{q},"receivers":[{",".join(body)}]}}'

    @classmethod
    def from_json_dict(cls, d: dict) -> "GICProblem":
        q, m, n, receivers = _json_fields(d, "problem", "q", "m", "n", "receivers")
        # A generator, so that __init__ checks q, m and n before any matrix is built.
        return cls(q, m, n, _receivers_from_json(q, m, n, receivers))


_RECEIVERS = 'receivers must be a list of {"K": ..., "D": ...} objects'


def _receivers_from_json(q: int, m: int, n: int, receivers):
    """Yield the receivers of a JSON problem, equal matrices as one FieldMatrix.

    A matrix whose columns are lists of m·n ints in 0..255 is packed from
    their bytes, each distinct column once.  Any other matrix goes to
    `FieldMatrix.from_columns`, which accepts or refuses it as it always has.
    """
    if type(receivers) is not list:
        raise ValueError(_RECEIVERS)
    mn = m * n
    packed: dict[bytes, int] = {}
    matrices: dict[tuple[bytes, ...], FieldMatrix] = {}

    def matrix(columns) -> FieldMatrix:
        if type(columns) is list:
            key = []
            for c in columns:
                if type(c) is not list:  # bytes(5) is five zero bytes
                    break
                try:
                    c = bytes(c)
                except (TypeError, ValueError):  # not an int, or outside 0..255
                    break
                if len(c) != mn:
                    break
                key.append(c)
            else:
                key = tuple(key)
                mat = matrices.get(key)
                if mat is None:
                    for c in key:
                        if c not in packed:
                            packed[c] = _pack(c, q)
                    mat = matrices[key] = FieldMatrix._of(q, mn, [packed[c] for c in key])
                return mat
        return FieldMatrix.from_columns(q, columns, rows=mn)

    try:
        for i, r in enumerate(receivers):
            if type(r) is not dict:
                raise ValueError(_RECEIVERS)
            key = "K"
            knowledge = matrix(r[key])
            key = "D"
            yield Receiver(knowledge, matrix(r[key]))
    except KeyError:
        raise ValueError(f"receiver {i} is missing the {key!r} key") from None
    except ValueError as exc:
        if type(r) is not dict:
            raise
        raise ValueError(f"receiver {i} {key!r}: {exc}") from None


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
        (columns,) = _json_fields(d, "code", "L")
        return cls(FieldMatrix.from_columns(q, columns, rows=mn))


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


class VerificationReport:
    """Per-receiver decodability of a code, in receiver order."""

    __slots__ = ("receiver_ok",)

    def __init__(self, receiver_ok: tuple[bool, ...]):
        self.receiver_ok = receiver_ok

    @property
    def all_ok(self) -> bool:
        return all(self.receiver_ok)

    def failing(self) -> tuple[int, ...]:
        return tuple(i for i, ok in enumerate(self.receiver_ok) if not ok)

    def to_json_dict(self) -> dict:
        return {"pass": self.all_ok, "receivers": list(self.receiver_ok)}


class C1C2Report:
    """Explicit booleans for every clause of conditions C1 and C2."""

    __slots__ = ("c1_message_block_ranks", "c1_full_rank", "c1_code_block_rank", "c2_per_receiver")

    def __init__(
        self,
        c1_message_block_ranks: bool,
        c1_full_rank: bool,
        c1_code_block_rank: bool,
        c2_per_receiver: tuple[bool, ...] = (),
    ):
        self.c1_message_block_ranks = c1_message_block_ranks  # rank(A_i) = n for every i
        self.c1_full_rank = c1_full_rank  # rank([A_1 .. A_m]) = mn
        self.c1_code_block_rank = c1_code_block_rank  # rank(A_{m+1}) = l
        self.c2_per_receiver = c2_per_receiver

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


def _c2_conditions(problem: GICProblem, block: FieldMatrix):
    """Per receiver: D_i inside col-span([K_i | block]).

    Each knowledge group extends a copy of the block's basis by its
    knowledge columns and reduces its demand columns by that basis.  The
    problem keeps the verdicts of the last block verified, for the next
    equal one.
    """
    if problem._verified is not None and problem._verified[0] == block:
        return problem._verified[1]
    q = problem.q
    base = span_basis(block.packed, q)
    ok = [False] * problem._count
    for knowledge, members in problem._knowledge_groups():
        pivots = span_basis(knowledge.packed, q, dict(base))
        for i, demand in members:
            for v in demand:
                if span_reduce(v, pivots, q):
                    break
            else:
                ok[i] = True
    ok = tuple(ok)
    problem._verified = (block, ok)
    return ok


def verify_code(problem: GICProblem, code: IndexCode) -> VerificationReport:
    """Per-receiver decodability: D_i inside col-span([K_i | L])."""
    _check_code_shape(problem, code)
    return VerificationReport(_c2_conditions(problem, code.matrix))


def decoding_matrix(problem: GICProblem, code: IndexCode, receiver: int) -> FieldMatrix:
    """The matrix M_i with [K_i | L] M_i = D_i for a decodable receiver."""
    _check_code_shape(problem, code)
    if type(receiver) is not int or not 0 <= receiver < len(problem.receivers):  # True is an int too
        raise ValueError(f"receiver must be an int in [0, {len(problem.receivers)}), got {receiver!r}")
    r = problem.receivers[receiver]
    known = concat_columns([r.knowledge, code.matrix])
    try:
        return known.solve_right(r.demand)
    except NoSolutionError as exc:
        raise UndecodableError(f"receiver {receiver} cannot decode") from exc


def mu(problem: GICProblem) -> int:
    """The rank-deficit lower bound on the code length, in messages of n symbols.

    Receivers are grouped by the column space K_S of their knowledge.  A
    code L that serves a group puts every demand of the group inside
    span([K_S | L]), so l >= rank([K_S | all D in S]) - rank(K_S).  mu is
    the largest such deficit over the groups, divided by n and rounded up.
    Each knowledge matrix is eliminated once, keyed by its reduced basis,
    and a space's first basis is extended by every demand column of its
    groups.  The problem keeps the bound, so later calls on it return at
    once.
    """
    if problem._mu is not None:
        return problem._mu
    q = problem.q
    spaces: dict[tuple[int, ...], dict[int, int]] = {}
    for knowledge, members in problem._knowledge_groups():
        key, pivots = span_key(knowledge.packed, q)
        pivots = spaces.setdefault(key, pivots)
        span_basis([v for _, demand in members for v in demand], q, pivots)
    deficit = max((len(pivots) - len(key) for key, pivots in spaces.items()), default=0)
    problem._mu = -(-deficit // problem.n)
    return problem._mu


def is_perfect(problem: GICProblem, code: IndexCode) -> bool:
    """True iff the code verifies and its length is n * mu, the rank-deficit bound; the problem keeps both."""
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
    """Evaluate every C1 clause and the per-receiver C2 span conditions.

    C2 at receiver i, a·D_i inside col-span([a·K_i | B]), holds iff D_i lies
    in span(K_i) + P for the pulled-back code P = {x : a·x in span B},
    whether or not a is invertible: it is verify_code's condition on P.  The
    canonical representation pulls back to its own code block, so it shares
    verify_code's kept verdicts.
    """
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
    return C1C2Report(block_ranks, full_rank, code_rank, _c2_conditions(problem, a.pullback(rep.code_block)))


def representation_to_code(rep: GICRepresentation, problem: GICProblem) -> IndexCode:
    """Recover the code L = [A_1..A_m]^-1 A_{m+1} of a C1/C2 representation.

    Raises C1ViolationError when the message blocks are not full rank
    (inversion needs them), and C2ViolationError at the first receiver
    whose span condition fails.  Rank deficiency of the code block is
    reported by check_c1_c2 but does not block the conversion: verifying
    codes with dependent columns still round-trip.  L is the pulled-back
    code that check_c1_c2 verified last, the block the problem keeps.
    """
    report = check_c1_c2(rep, problem)
    if not (report.c1_message_block_ranks and report.c1_full_rank):
        raise C1ViolationError("message blocks do not form an invertible matrix")
    for i, ok in enumerate(report.c2_per_receiver):
        if not ok:
            raise C2ViolationError(i)
    return IndexCode(problem._verified[0])
