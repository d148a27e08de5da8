"""Index coding problems built from discrete polymatroids and matroids.

Both constructions run through one emitter, `_problem`, which numbers the
messages x_1..x_k as 0..k-1 and then the per-element messages y_i^p from k
on, in ascending (i, p) order.  That fixed order is the column/row order of
every matrix emitted here, so the constructed problems are byte-identical
across runs.  Receiver families are emitted R1, R2, R3 with all generator
choices iterated lexicographically; their (demand, knowledge) pairs are
distinct by construction, so the trace holds one generator choice per
receiver.  The emitter builds no `Receiver`: it groups the receivers by
knowledge columns as it emits them and hands the problem that grouping, from
which the problem builds its receivers on first read.  Nor does it build a
trace: each construction returns a `ConstructionTrace` that keeps what the
labels derive from and builds them on first read.  The matroid problem I_M
is the polymatroid problem I_D at D = D(M) when M has no loop; a loop keeps
its message and its circuit receiver.
"""

from __future__ import annotations

import itertools

from .gf import FieldMatrix, SingularMatrixError, stack_rows
from .gic import GICProblem, IndexCode, is_perfect
from .matroid import Matroid, _mask_elements
from .polymatroid import DiscretePolymatroid, SubspaceRepresentation

CONSTRUCTION_FIELD = 2  # circuit-sum decoding needs characteristic two
# The emitted problem grows as n^2: PG(3,2)'s JSON is 0.85 MB at n = 1 and
# 12 MB at n = 4.  A larger n is refused before any column is spread.
MAX_N = 8


class ExtractionError(Exception):
    pass


class NotPerfectError(ExtractionError):
    """Representation extraction needs a verifying code of perfect length."""


class NonInvertibleYBlockError(ExtractionError):
    """The y-message block of the code matrix is singular."""


class ConstructionTrace:
    """Per-receiver provenance: every emitted receiver lists the one generator
    choice that produced it (the emitted pairs are distinct by construction).

    A construction keeps only what the labels derive from: `labels`, a
    generator function, and its arguments (for a matroid k, m and the basis
    and circuit masks; for a polymatroid k, its caps, basis vectors and
    minimal excluded vectors).  `entries` is built from them the first time
    it, or `to_json_dict`, is read, so a caller that drops the trace pays
    for none of it.
    """

    __slots__ = ("_labels", "_args", "_entries")

    def __init__(self, labels, *args):
        self._labels, self._args, self._entries = labels, args, None

    @property
    def entries(self) -> tuple:
        if self._entries is None:
            self._entries = tuple((label,) for label in self._labels(*self._args))
        return self._entries

    def to_json_dict(self) -> dict:
        return {"receivers": [{"generators": list(gens)} for gens in self.entries]}


def _problem(k: int, caps, n: int, r1, r2) -> GICProblem:
    """The problem on x_1..x_k and y_i^p (p <= caps[i-1]), messages numbered as above.

    A set of messages is a mask (bit i = message i).  R1: for each `known`
    list that `r1` yields, every x_j's demander knows the `known` columns,
    one message mask each.  R2: for each (demanded y, summed) pair, the
    demander knows the one sum of the `summed` messages.  R3: each y_i^p
    demander knows all of X.

    Distinct generator choices give distinct (demand, knowledge) pairs, so
    each receiver is emitted once.  R1 demands an x, R2 and R3 a y.  An R1
    set of plain y's fixes b and its picks.  An R2 sum fixes c (c_i counts
    i's slots in it, c_j is one more), Gamma_1 and Gamma_2.  An R3
    knowledge matrix is k plain x's, never one sum of y's.
    """
    if type(n) is not int or n < 1:  # not isinstance: True is an int too
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if n > MAX_N:
        raise ValueError(f"n must be at most {MAX_N}, got {n}")
    if k < 1:
        raise ValueError("rank 0 yields no code symbols")
    t = k + sum(caps)

    def packed(columns) -> tuple[int, ...]:
        """Columns given as message masks; message i fills rows i*n .. i*n + n - 1,
        so at n >= 2 each column is spread into n, one per row offset."""
        if n > 1:
            return tuple(sum(1 << i * n + s for i in _mask_elements(c)) for c in columns for s in range(n))
        return tuple(columns)

    # The grouping as GICProblem._knowledge_groups builds it: one group per
    # distinct knowledge column tuple, in first-use order (parallel elements'
    # R2 sums, and at k = 1 an R1 set and an R2 sum, meet in one group).
    groups: dict[tuple[int, ...], tuple[FieldMatrix, list]] = {}

    def members(known) -> list:
        """The member list of the group that knows the `known` columns."""
        key = packed(known)
        group = groups.get(key)
        if group is None:
            group = groups[key] = (FieldMatrix._of(CONSTRUCTION_FIELD, t * n, key), [])
        return group[1]

    units = [packed([1 << msg]) for msg in range(t)]
    count = 0
    for known in r1:
        members(known).extend(zip(range(count, count + k), units))  # units[j-1] is x_j
        count += k
    for demanded, summed in r2:
        members([summed]).append((count, units[demanded]))
        count += 1
    members([1 << i for i in range(k)]).extend(enumerate(units[k:], start=count))
    return GICProblem._of(CONSTRUCTION_FIELD, t, n, tuple(groups.values()), count + t - k)


def _s1_choices(basis_vectors, caps):
    """S1(b): each basis vector b with each quota-b pick of y slots, as
    (b, [(i, picked slots of i) for i in b's support])."""
    for b in basis_vectors:
        support = [i for i, quota in enumerate(b, start=1) if quota > 0]
        pick_lists = [itertools.combinations(range(1, caps[i - 1] + 1), b[i - 1]) for i in support]
        for picks in itertools.product(*pick_lists):
            yield b, list(zip(support, picks))


def _s2_choices(excluded, caps):
    """S2(c, j, p): each minimal excluded vector c, j in its support, slot p
    of j and choice of Gamma_1 and Gamma_2, as (c, j, p, gamma), where gamma
    lists (i, slots of i) for Gamma_1's elements and then (j, Gamma_2)."""
    for c in excluded:
        support = [i for i, count in enumerate(c, start=1) if count > 0]
        for j in support:
            others = [i for i in support if i != j]
            for p in range(1, caps[j - 1] + 1):
                gamma1_lists = [itertools.combinations(range(1, caps[i - 1] + 1), c[i - 1]) for i in others]
                gamma2_pool = [p2 for p2 in range(1, caps[j - 1] + 1) if p2 != p]
                for gamma1 in itertools.product(*gamma1_lists):
                    for gamma2 in itertools.combinations(gamma2_pool, c[j - 1] - 1):
                        yield c, j, p, [*zip(others, gamma1), (j, gamma2)]


def _polymatroid_labels(k: int, caps, basis_vectors, excluded):
    """The generator choice of each receiver of `gic_from_polymatroid`, in emission order."""
    for b, picks in _s1_choices(basis_vectors, caps):
        eta = [[i, list(ps)] for i, ps in picks]
        for j in range(1, k + 1):
            yield {"family": "S1", "b": list(b), "j": j, "eta": eta}
    for c, j, p, gamma in _s2_choices(excluded, caps):
        gamma1 = [[i, list(ps)] for i, ps in gamma[:-1]]
        yield {"family": "S2", "c": list(c), "j": j, "p": p, "gamma1": gamma1, "gamma2": list(gamma[-1][1])}
    for i, cap in enumerate(caps, start=1):
        for p in range(1, cap + 1):
            yield {"family": "R3", "i": i, "p": p}


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
    k = dpm.rank
    caps = dpm.caps()
    basis_vectors, excluded = dpm.basis_vectors(), dpm.minimal_excluded_vectors()
    slots = [(i, p) for i, cap in enumerate(caps, start=1) for p in range(1, cap + 1)]
    y = dict(zip(slots, itertools.count(k)))
    r1 = ([1 << y[i, p] for i, ps in picks for p in ps] for _, picks in _s1_choices(basis_vectors, caps))
    r2 = (
        (y[j, p], sum(1 << y[i, p2] for i, ps in gamma for p2 in ps))
        for _, j, p, gamma in _s2_choices(excluded, caps)
    )
    trace = ConstructionTrace(_polymatroid_labels, k, caps, basis_vectors, excluded)
    return _problem(k, caps, n, r1, r2), trace


def _matroid_labels(k: int, m: int, bases, circuits):
    """The generator choice of each receiver of `gic_from_matroid`, in
    emission order; a mask shifted up by 1 lists its 1-based labels."""
    for basis in bases:
        label = _mask_elements(basis << 1)
        for j in range(1, k + 1):
            yield {"family": "R1", "basis": label, "j": j}
    for circuit in circuits:
        label = _mask_elements(circuit << 1)
        for y in label:
            yield {"family": "R2", "circuit": label, "y": y}
    for i in range(1, m + 1):
        yield {"family": "R3", "i": i}


def gic_from_matroid(matroid: Matroid, n: int = 1) -> tuple[GICProblem, ConstructionTrace]:
    """The coded-side-information problem I_M(Z, R) of a matroid.

    R1: (x_j, B) for every basis B; R2: each circuit element demander
    knows the sum of the rest of its circuit; R3: every y_i demander
    knows all of X.  Every ground element gets a message, loops included
    (a loop's circuit receiver knows the empty sum, one zero column).
    Element e is y_{e+1}, message k + e: a mask shifted up by k lists
    its y messages.
    """
    k, m = matroid.rank, matroid.ground_size
    bases, circuits = matroid._walk()
    r1 = ([1 << msg for msg in _mask_elements(basis << k)] for basis in bases)
    r2 = ((msg, (circuit << k) ^ (1 << msg)) for circuit in circuits for msg in _mask_elements(circuit << k))
    trace = ConstructionTrace(_matroid_labels, k, m, bases, circuits)
    return _problem(k, (1,) * m, n, r1, r2), trace


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
