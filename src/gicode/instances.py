"""Bundled reference instances used by the CLI and the golden tests.

Each builder returns a dict of live objects; the CLI serializes them.
The five-message scalar problem (eg1) is hand-written; the rest are
produced by the constructions from their generating matroid/polymatroid,
so the bundled bytes exercise the construction paths themselves.
"""

from __future__ import annotations

from .gf import FieldMatrix
from .gic import GICProblem, IndexCode, Receiver
from .matroid import Matroid
from .polymatroid import DiscretePolymatroid
from .construct import code_from_matroid_rep, gic_from_matroid, gic_from_polymatroid

# 4x7 generator of the [7,4,3] Hamming code.
HAMMING_G_ROWS = [
    [1, 0, 0, 0, 0, 1, 1],
    [0, 1, 0, 0, 1, 0, 1],
    [0, 0, 1, 0, 1, 1, 0],
    [0, 0, 0, 1, 1, 1, 1],
]

U23_REP_ROWS = [[1, 0, 1], [0, 1, 1]]

# Rank tables indexed by subset bitmask (bit i = ground element i).
EG3_RANK = [0, 1, 1, 2, 2, 3, 3, 3]  # rho{1}=rho{2}=1, rho{3}=rho{1,2}=2, rest 3
EG4_RANK = [0, 2, 2, 3, 1, 3, 2, 3]  # rho{1}=rho{2}=rho{2,3}=2, rho{3}=1, rest 3


def _cols(q, rows, *columns):
    return FieldMatrix.from_columns(q, columns, rows=rows)


def eg1() -> dict:
    """Five scalar binary messages, five function-demanding receivers,
    and the three-transmission code x1+x2, x3+x4, x5."""
    q, m = 2, 5
    receivers = [
        # (x1, {x2})
        Receiver(_cols(q, m, [0, 1, 0, 0, 0]), _cols(q, m, [1, 0, 0, 0, 0])),
        # (x2, {x1+x5})
        Receiver(_cols(q, m, [1, 0, 0, 0, 1]), _cols(q, m, [0, 1, 0, 0, 0])),
        # (x3, {x1, x4})
        Receiver(_cols(q, m, [1, 0, 0, 0, 0], [0, 0, 0, 1, 0]), _cols(q, m, [0, 0, 1, 0, 0])),
        # (x4, {x1+x2+x3})
        Receiver(_cols(q, m, [1, 1, 1, 0, 0]), _cols(q, m, [0, 0, 0, 1, 0])),
        # (x3+x4+x5, {x2, x1+x3})
        Receiver(_cols(q, m, [0, 1, 0, 0, 0], [1, 0, 1, 0, 0]), _cols(q, m, [0, 0, 1, 1, 1])),
    ]
    problem = GICProblem(q, m, 1, receivers)
    code = IndexCode(
        _cols(q, m, [1, 1, 0, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 0, 1])
    )
    return {"problem": problem, "code": code}


def eg3() -> dict:
    """Rank-3 polymatroid on three elements with the four-transmission
    perfect code y1+x1, y2+x2, y3^1+x3, y3^2+x1+x2+x3."""
    dpm = DiscretePolymatroid(3, EG3_RANK)
    problem, trace = gic_from_polymatroid(dpm)
    t = problem.m  # x1 x2 x3 y1^1 y2^1 y3^1 y3^2
    code = IndexCode(
        _cols(
            2,
            t,
            [1, 0, 0, 1, 0, 0, 0],
            [0, 1, 0, 0, 1, 0, 0],
            [0, 0, 1, 0, 0, 1, 0],
            [1, 1, 1, 0, 0, 0, 1],
        )
    )
    return {"polymatroid": dpm, "problem": problem, "trace": trace, "code": code}


def eg4() -> dict:
    """Binary-representable polymatroid whose constructed problem has no
    perfect binary solution (the converse-failure witness)."""
    dpm = DiscretePolymatroid(3, EG4_RANK)
    problem, trace = gic_from_polymatroid(dpm)
    return {"polymatroid": dpm, "problem": problem, "trace": trace}


def u23() -> dict:
    matroid = Matroid.uniform(2, 3)
    problem, trace = gic_from_matroid(matroid)
    rep = FieldMatrix(2, U23_REP_ROWS)
    code = code_from_matroid_rep(rep, problem)
    return {"matroid": matroid, "representation": rep, "problem": problem, "trace": trace, "code": code}


def u24() -> dict:
    matroid = Matroid.uniform(2, 4)
    problem, trace = gic_from_matroid(matroid)
    return {"matroid": matroid, "problem": problem, "trace": trace}


def hamming() -> dict:
    g = FieldMatrix(2, HAMMING_G_ROWS)
    matroid = Matroid.from_matrix(g)
    problem, trace = gic_from_matroid(matroid)
    code = code_from_matroid_rep(g, problem)
    return {"matroid": matroid, "representation": g, "problem": problem, "trace": trace, "code": code}


BUNDLED = {
    "eg1": eg1,
    "eg3": eg3,
    "eg4": eg4,
    "u23": u23,
    "u24": u24,
    "hamming": hamming,
}


def load(name: str) -> dict:
    try:
        build = BUNDLED[name]
    except KeyError:  # only the lookup: a KeyError inside a builder is a bug, not an unknown name
        raise ValueError(f"unknown instance {name!r}; have {sorted(BUNDLED)}") from None
    return build()
