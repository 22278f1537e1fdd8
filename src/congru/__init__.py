"""Congruence regularizing decomposition of square matrices over a
field with involution: exact rational, Gaussian-rational and prime
fields, a floating-point unitary path, and selfadjoint pencil
regularization.

Every transform X reported anywhere in this package acts on the left:
X * A * X.star equals the reported form.
"""

from .float_unitary import (
    FloatMode,
    FloatStageRecord,
    ReducedForm,
    float_regularize,
    float_stage,
    parse_float_matrix,
    pattern_residual,
    render_float_matrix,
    unitarity_residual,
)
from .matrix import (
    Invariants,
    Matrix,
    MatrixParseError,
    direct_sum,
    invariants,
    inverse,
    jordan_block,
    nullity,
    nullspace,
    rank,
    solve,
)
from .pencil import (
    KroneckerBlock,
    PencilDecomposition,
    pencil_regularize,
)
from .regularize import (
    BlockSum,
    RegularizationResult,
    StageRecord,
    assemble,
    multiplicities,
    regularize,
    stage,
)
from .scalar import FieldKind, FieldSpec, GaussianRational, Involution, ModInt
from .sparse_form import (
    SparseForm,
    canonical_sparse_form,
    full_decomposition,
    reduce_cde,
    sparse_nilpotent,
)
from .verify import (
    CheckReport,
    SuiteReport,
    check_transform,
    invariance_suite,
    roundtrip_suite,
)

__all__ = [
    "BlockSum",
    "CheckReport",
    "FieldKind",
    "FieldSpec",
    "FloatMode",
    "FloatStageRecord",
    "GaussianRational",
    "Invariants",
    "KroneckerBlock",
    "Matrix",
    "MatrixParseError",
    "ModInt",
    "Involution",
    "PencilDecomposition",
    "ReducedForm",
    "RegularizationResult",
    "SparseForm",
    "StageRecord",
    "SuiteReport",
    "assemble",
    "canonical_sparse_form",
    "check_transform",
    "direct_sum",
    "float_regularize",
    "float_stage",
    "full_decomposition",
    "invariance_suite",
    "invariants",
    "inverse",
    "jordan_block",
    "multiplicities",
    "nullity",
    "nullspace",
    "parse_float_matrix",
    "pattern_residual",
    "pencil_regularize",
    "rank",
    "reduce_cde",
    "regularize",
    "render_float_matrix",
    "roundtrip_suite",
    "solve",
    "sparse_nilpotent",
    "stage",
    "unitarity_residual",
    "__version__",
]

__version__ = "0.1.0"
