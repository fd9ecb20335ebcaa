"""incidencekit: an exact-arithmetic workbench for point-curve incidence
experiments in the real and complex plane -- incidence counting and
certification, Cauchy-Riemann and foliation diagnostics for complex curves
inside real hypersurfaces, and desk-scale polynomial partitioning."""

from .cr import (
    ComplexCurve,
    CRClass,
    PiContainment,
    RealPair,
    check_cauchy_riemann,
    classify_cr_vector,
    iota,
    iota_inv,
    j_apply,
    realify,
    tangent_contains_pi,
)
from .foliation import (
    BracketDefect,
    DistributionFrame,
    Hypersurface,
    PolyVectorField,
    bracket_defect,
    containment_check,
    distribution_frame,
    leaf_tangency_check,
    lie_bracket,
)
from .incidence import (
    BoundReport,
    Configuration,
    DofCertificate,
    IncidenceMatrix,
    build_matrix,
    certify_dof,
    evaluate_bounds,
    exponent_fit,
    kst_double_count,
    project_generic,
)
from .partition import (
    PartitionResult,
    ham_sandwich_bisect,
    line_crossings,
    polynomial_partition,
    sign_class,
    veronese_lift,
)
from .poly import (
    GaussianRational,
    InvariantError,
    MultiPoly,
    gradient,
    jacobian_rank,
    parse_poly,
    resultant,
)
from .roots import isolate_real_roots

__version__ = "0.1.0"
