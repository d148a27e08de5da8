"""Generalized index coding over small prime fields.

Constructs, verifies and exhaustively solves index coding problems whose
receivers demand and possess linear functions of the messages, and
mechanizes their equivalence with representable discrete polymatroids and
binary-representable matroids.
"""

from .gf import (
    FieldMatrix,
    LinearAlgebraError,
    NoSolutionError,
    SingularMatrixError,
    concat_columns,
    in_column_span,
    stack_rows,
)
from .matroid import Matroid, SearchBudgetExceeded
from .matroid import find_representation as find_matroid_representation
from .polymatroid import DiscretePolymatroid, SubspaceRepresentation
from .polymatroid import find_representation as find_polymatroid_representation
from .gic import (
    C1C2Report,
    C1ViolationError,
    C2ViolationError,
    GICProblem,
    GICRepresentation,
    IndexCode,
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
from .construct import (
    ConstructionTrace,
    ExtractionError,
    NonInvertibleYBlockError,
    NotPerfectError,
    code_from_matroid_rep,
    gic_from_matroid,
    gic_from_polymatroid,
    matroid_rep_from_code,
    polymatroid_rep_from_code,
)
from .solver import (
    BUDGET_EXCEEDED,
    FOUND,
    NONE_EXISTS,
    SearchConfig,
    SolveOutcome,
    count_solutions,
    solve_perfect_scalar_binary,
)

__all__ = [
    "FieldMatrix",
    "LinearAlgebraError",
    "NoSolutionError",
    "SingularMatrixError",
    "concat_columns",
    "in_column_span",
    "stack_rows",
    "Matroid",
    "SearchBudgetExceeded",
    "find_matroid_representation",
    "DiscretePolymatroid",
    "SubspaceRepresentation",
    "find_polymatroid_representation",
    "C1C2Report",
    "C1ViolationError",
    "C2ViolationError",
    "GICProblem",
    "GICRepresentation",
    "IndexCode",
    "Receiver",
    "UndecodableError",
    "VerificationReport",
    "canonical_representation",
    "check_c1_c2",
    "code_to_representation",
    "decoding_matrix",
    "is_perfect",
    "mu",
    "representation_to_code",
    "verify_code",
    "ConstructionTrace",
    "ExtractionError",
    "NonInvertibleYBlockError",
    "NotPerfectError",
    "code_from_matroid_rep",
    "gic_from_matroid",
    "gic_from_polymatroid",
    "matroid_rep_from_code",
    "polymatroid_rep_from_code",
    "BUDGET_EXCEEDED",
    "FOUND",
    "NONE_EXISTS",
    "SearchConfig",
    "SolveOutcome",
    "count_solutions",
    "solve_perfect_scalar_binary",
]
