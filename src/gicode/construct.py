"""Index coding problems built from discrete polymatroids and matroids.

Both constructions share one message layout: code symbols x_1..x_k first,
then the per-element messages y_i^p, all in ascending (i, p) order.  That
fixed order is the column/row order of every matrix emitted here, so the
constructed problems are byte-identical across runs.  Receiver families
are emitted R1, R2, R3 with all generator choices iterated
lexicographically; duplicate (demand, knowledge) pairs are merged and
every generating choice is retained in the trace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .gf import FieldMatrix, SingularMatrixError, stack_rows
from .gic import GICProblem, IndexCode, Receiver, is_perfect
from .matroid import Matroid
from .polymatroid import DiscretePolymatroid, SubspaceRepresentation

CONSTRUCTION_FIELD = 2  # circuit-sum decoding needs characteristic two


class ExtractionError(Exception):
    pass


class NotPerfectError(ExtractionError):
    """Representation extraction needs a verifying code of perfect length."""


class NonInvertibleYBlockError(ExtractionError):
    """The y-message block of the code matrix is singular."""


NonInvertibleLowerBlockError = NonInvertibleYBlockError  # the y block is the lower one


@dataclass(frozen=True)
class MessageSpace:
    """Canonical message order: x_1..x_k, then y_i^p by ascending (i, p)."""

    x_count: int
    y_caps: tuple[int, ...]

    @property
    def total(self) -> int:
        return self.x_count + sum(self.y_caps)

    def x_index(self, j: int) -> int:
        """Index of x_j (1-based j)."""
        if not 1 <= j <= self.x_count:
            raise ValueError(f"x_{j} out of range")
        return j - 1

    def y_index(self, i: int, p: int) -> int:
        """Index of y_i^p (1-based element i, 1-based slot p)."""
        if not 1 <= i <= len(self.y_caps) or not 1 <= p <= self.y_caps[i - 1]:
            raise ValueError(f"y_{i}^{p} out of range")
        return self.x_count + sum(self.y_caps[: i - 1]) + p - 1

    def name(self, index: int) -> str:
        if index < self.x_count:
            return f"x{index + 1}"
        at = index - self.x_count
        for i, cap in enumerate(self.y_caps, start=1):
            if at < cap:
                return f"y{i}^{at + 1}"
            at -= cap
        raise ValueError(f"message index {index} out of range")


class ConstructionTrace:
    """Per-receiver provenance: every emitted receiver lists the generator
    choices (possibly several after deduplication) that produced it."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(tuple(e) for e in entries)

    def to_json_dict(self) -> dict:
        return {"receivers": [{"generators": list(gens)} for gens in self.entries]}


def _unit_block(t: int, n: int, message: int) -> FieldMatrix:
    """The n columns selecting message `message` (rows message*n .. +n)."""
    return _plain_knowledge(t, n, [message])


def _sum_block(t: int, n: int, messages) -> FieldMatrix:
    """One function (n columns): the sum of the given messages."""
    sums = [0] * n
    for msg in messages:
        for s in range(n):
            sums[s] ^= 1 << msg * n + s
    return FieldMatrix._of(CONSTRUCTION_FIELD, t * n, sums)


def _plain_knowledge(t: int, n: int, messages) -> FieldMatrix:
    """One function per message known in the plain (uncoded) sense.

    Blocks are built as packed GF(2) columns: bit i is row i.  Every
    message index is below t, so the columns fit and need no checks.
    """
    units = [1 << msg * n + s for msg in messages for s in range(n)]
    return FieldMatrix._of(CONSTRUCTION_FIELD, t * n, units)


class _Emitter:
    """Collects receivers, merging duplicates and keeping their traces."""

    def __init__(self):
        self.receivers: list[Receiver] = []
        self.traces: list[list[dict]] = []
        self._seen: dict[tuple, int] = {}

    def add(self, demand: FieldMatrix, knowledge: FieldMatrix, trace: dict):
        at = self._seen.setdefault((demand, knowledge), len(self.receivers))
        if at == len(self.receivers):
            self.receivers.append(Receiver(knowledge=knowledge, demand=demand))
            self.traces.append([trace])
        else:
            self.traces[at].append(trace)


def gic_from_polymatroid(
    dpm: DiscretePolymatroid, n: int = 1
) -> tuple[GICProblem, ConstructionTrace]:
    """The generalized problem I_D(Z, R) of a discrete polymatroid.

    R1: for each basis vector b, every quota-b pick of plain y side
    information, demanded by each x_j.  R2: for each minimal excluded
    vector c, element j in its support and slot p, receivers demanding
    y_j^p whose single known function is the sum over Gamma_1 u Gamma_2.
    R3: every y_i^p demander knowing all of X.
    """
    r = dpm.ground_size
    k = dpm.rank
    if k < 1:
        raise ValueError("degenerate polymatroid: rank 0 yields no code symbols")
    caps = dpm.caps()
    space = MessageSpace(k, caps)
    t = space.total
    emit = _Emitter()

    def slots(i: int):
        return range(1, caps[i - 1] + 1)

    units = [_unit_block(t, n, msg) for msg in range(t)]
    x = [space.x_index(j) for j in range(1, k + 1)]
    y = {(i, p): space.y_index(i, p) for i in range(1, r + 1) for p in slots(i)}

    # R1 / S1(b)
    for b in dpm.basis_vectors():
        support = [i for i in range(1, r + 1) if b[i - 1] > 0]
        pick_lists = [itertools.combinations(slots(i), b[i - 1]) for i in support]
        for picks in itertools.product(*pick_lists):
            known = [y[i, p] for i, ps in zip(support, picks) for p in ps]
            knowledge = _plain_knowledge(t, n, known)
            eta = [[i, list(ps)] for i, ps in zip(support, picks)]
            for j in range(1, k + 1):
                emit.add(
                    units[x[j - 1]],
                    knowledge,
                    {"family": "S1", "b": list(b), "j": j, "eta": eta},
                )

    # R2 / S2(c, j, p)
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
                        emit.add(
                            units[y[j, p]],
                            _sum_block(t, n, summed),
                            {
                                "family": "S2",
                                "c": list(c),
                                "j": j,
                                "p": p,
                                "gamma1": [[i, list(ps)] for i, ps in zip(others, gamma1)],
                                "gamma2": list(gamma2),
                            },
                        )

    # R3
    x_knowledge = _plain_knowledge(t, n, x)
    for i in range(1, r + 1):
        for p in slots(i):
            emit.add(
                units[y[i, p]],
                x_knowledge,
                {"family": "R3", "i": i, "p": p},
            )

    problem = GICProblem(CONSTRUCTION_FIELD, t, n, emit.receivers)
    return problem, ConstructionTrace(emit.traces)


def gic_from_matroid(matroid: Matroid, n: int = 1) -> tuple[GICProblem, ConstructionTrace]:
    """The coded-side-information problem I_M(Z, R) of a matroid.

    R1: (x_j, B) for every basis B; R2: each circuit element demander
    knows the sum of the rest of its circuit; R3: every y_i demander
    knows all of X.  Every ground element gets a message, loops included
    (a loop's circuit receiver knows the empty sum, one zero column).
    """
    m = matroid.ground_size
    k = matroid.rank
    if k < 1:
        raise ValueError("rank-0 matroid yields no code symbols")
    space = MessageSpace(k, (1,) * m)
    t = space.total
    units = [_unit_block(t, n, msg) for msg in range(t)]
    x = [space.x_index(j) for j in range(1, k + 1)]
    y = [space.y_index(e + 1, 1) for e in range(m)]
    emit = _Emitter()

    for basis in matroid.bases():
        knowledge = _plain_knowledge(t, n, [y[e] for e in basis])
        label = [e + 1 for e in basis]
        for j in range(1, k + 1):
            emit.add(
                units[x[j - 1]],
                knowledge,
                {"family": "R1", "basis": label, "j": j},
            )

    for circuit in matroid.circuits():
        label = [e + 1 for e in circuit]
        for d in circuit:
            rest = [y[e] for e in circuit if e != d]
            emit.add(
                units[y[d]],
                _sum_block(t, n, rest),
                {"family": "R2", "circuit": label, "y": d + 1},
            )

    x_knowledge = _plain_knowledge(t, n, x)
    for e in range(m):
        emit.add(
            units[y[e]],
            x_knowledge,
            {"family": "R3", "i": e + 1},
        )

    problem = GICProblem(CONSTRUCTION_FIELD, t, n, emit.receivers)
    return problem, ConstructionTrace(emit.traces)


def code_from_matroid_rep(rep_matrix: FieldMatrix, problem: GICProblem) -> IndexCode:
    """The perfect scalar code [rep; I] for a matroid-constructed problem.

    Transmission j carries y_j plus the rep-matrix combination of the x's,
    which is the binary circuit-sum construction; q = 2 only.
    """
    if rep_matrix.q != CONSTRUCTION_FIELD or problem.q != CONSTRUCTION_FIELD:
        raise ValueError("the matroid code construction is binary-specific")
    if problem.n != 1:
        raise ValueError("the matroid code construction is scalar")
    k, m = rep_matrix.rows, rep_matrix.cols
    if problem.m != k + m:
        raise ValueError(
            f"problem has {problem.m} messages, representation implies {k + m}"
        )
    return IndexCode(stack_rows([rep_matrix, FieldMatrix.identity(CONSTRUCTION_FIELD, m)]))


def _normalized_x_rows(code: IndexCode, x_rows: int) -> FieldMatrix:
    """The code matrix's first `x_rows` rows (the x messages) times the inverse
    of the rest (the y-message block): the x block once right multiplication
    has normalized the y block to the identity."""
    matrix = code.matrix
    try:
        inv = matrix.take_rows(range(x_rows, matrix.rows)).invert()
    except SingularMatrixError as exc:
        raise NonInvertibleYBlockError("y-message block of the code is singular") from exc
    return matrix.take_rows(range(x_rows)) @ inv


def matroid_rep_from_code(problem: GICProblem, code: IndexCode) -> FieldMatrix:
    """Recover a representing matrix from a perfect scalar binary code.

    Normalizes the y-message block of the code matrix to the identity by
    right multiplication and returns the x-message block: its column
    ranks reproduce the generating matroid's rank table (basis subsets
    stay invertible, circuit subsets drop rank by exactly one).
    """
    if problem.q != CONSTRUCTION_FIELD or problem.n != 1:
        raise ValueError("extraction applies to scalar binary codes")
    if not is_perfect(problem, code):
        raise NotPerfectError("code must verify with l = n * mu")
    k = problem.m - code.length
    if k < 1:
        raise ValueError("code length leaves no room for x messages")
    return _normalized_x_rows(code, k)


def polymatroid_rep_from_code(
    problem: GICProblem, code: IndexCode, dpm: DiscretePolymatroid, n: int
) -> SubspaceRepresentation:
    """Extract a representation of n*D from a perfect dimension-n code.

    Normalizes the y-message block of the code matrix to the identity,
    slices the x-message block by element into widths n*rho({i}),
    and verifies exhaustively that the sliced column spans realize the
    scaled rank function.
    """
    if problem.n != n:
        raise ValueError("problem dimension does not match n")
    k = dpm.rank
    caps = dpm.caps()
    width = sum(caps)
    if problem.m != k + width:
        raise ValueError("problem was not constructed from this polymatroid")
    if not is_perfect(problem, code) or code.length != n * width:
        raise NotPerfectError("code must verify with length n * sum(rho({i}))")
    x_block = _normalized_x_rows(code, k * n)
    blocks = []
    at = 0
    for cap in caps:
        blocks.append(x_block.take_columns(range(at * n, (at + cap) * n)))
        at += cap
    rep = SubspaceRepresentation(problem.q, blocks)
    if DiscretePolymatroid.from_subspaces(rep) != dpm.scale(n):
        raise ExtractionError("extracted subspaces do not realize the scaled rank function")
    return rep
