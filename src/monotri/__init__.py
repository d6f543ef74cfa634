"""monotri: exact counting, enumeration and identity verification for
monotone triangles, decreasing monotone triangles, alternating sign
matrices and their 2-ASM relatives.

Everything is computed in exact integer arithmetic.  The counting
polynomial alpha(n; k1..kn) counts monotone triangles at strictly
increasing bottom rows and equals a signed enumeration of decreasing
monotone triangles at weakly decreasing ones; this package evaluates it by
one predecessor-row DP run on both row classes and by the operator
recursion, its independent check, enumerates all the object classes,
applies the triangle/matrix correspondences, and mechanically verifies the
identities connecting them.
"""

from .core import (
    RowSeqClass,
    SignMatrix,
    StatRecord,
    TriangularArray,
    classify_row_sequence,
    transition_stats,
    triangle_stats,
    validate_dmt,
    validate_monotone,
)
from .enumeration import (
    TriangleClass,
    WniObject,
    enum_matrices,
    enum_triangles,
    enum_wni_objects,
    predecessors,
    signed_count,
    wni_object_sign,
)
from .errors import (
    InternalError,
    InvalidInputError,
    MonotriError,
    ParseError,
    ResourceLimitError,
)
from .evaluate import (
    AlphaMethod,
    W_number,
    X_number,
    alpha,
    binomial,
    forward_difference_power,
    refined_asm,
    sum_operator,
)
from .exactla import ExactMatrix, build_matrix, det_exact, rank_exact
from .machines import MachineSpec, StepTrace, accepts, generate, parse_steps
from .report import VerificationReport
from .serialize import deserialize, serialize
from .transform import (
    BijectionKind,
    is_s1,
    matrix_to_triangle,
    mt_to_s1,
    reflect_rows,
    s1_to_mt,
    triangle_to_matrix,
)
from .verify import verify

__version__ = "0.1.0"
