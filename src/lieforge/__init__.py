"""Exact-arithmetic construction and certification of structures on Lie algebras."""

__version__ = "0.1.0"

from .scalar_linear import (
    DimensionMismatchError,
    GaussScalar,
    LieforgeError,
    Matrix,
    PreconditionError,
    Q,
)
from .lie_core import (
    AlmostComplex,
    BilinearForm,
    Certificate,
    Connection,
    LieAlgebra,
    LinearMap,
    Witness,
    check_abelian_complex,
    check_closed,
    check_complex_lie,
    check_integrable,
    check_jacobi,
    check_metric,
    check_parallel,
    check_product_structure,
    check_representation,
    check_symplectic,
    check_torsion_free,
    nijenhuis,
    torsion,
)
from .constructions import (
    AssociativeAlgebra,
    ContractionFamily,
    NotClosedError,
    aff_algebra,
    canonical_complex_structure,
    central_extension,
    cotangent,
    eigenspace_split,
    from_matrix_basis,
    lifted_connection,
    semidirect,
    symplectic_from_duality,
    tangent,
)
from .structures import (
    CliffordFamily,
    block_complex_structure,
    check_action_compatibility,
    check_holomorphic,
    check_pseudo_kahler,
    check_self_dual,
    check_torsion_integrability_equivalence,
    clifford_tower,
    dual_structure,
    hypercomplex_pair,
    levi_civita,
    reconstruct_connection,
)
