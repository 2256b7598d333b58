"""Exact cohomology of restricted Lie superalgebras over GF(p).

The package computes ordinary and restricted cohomology in degrees 0..2,
realizes the classical extension correspondences as executable
constructions, and assembles the six-term exact sequence

    0 -> H^1_* -> H^1 -> S(g_0, M_0^g) -> H^2_* -> H^2 -> S(g_0, H^1)

as explicit matrices whose exactness is machine-verified.
"""

from .envelope import UAlgebra, UElement, check_commutator_identities
from .errors import SupercohError
from .gflin import MatGF, Subspace, image, nullspace, rref, solve
from .superalg import (
    LieSuperAlgebra, Representation, SemiLinearMap, SuperSpace,
    adjoint_module, hom_module, invariants, jacobson_terms, pmap_apply,
    semidirect, semilinear_space, trivial_module, validate_lie_super,
    validate_module, validate_pmap,
)
from .cohomology import (
    CohomologyResult, comparison_matrix, lie_cohomology,
    restricted_cohomology, sgn_marked,
)
from .extensions import (
    algebra_ext_from_2cocycle, are_equivalent_restricted,
    assoc_2cocycle_from_restricted_ext, automorphism_from_1cocycle,
    cocycle_from_algebra_ext, cocycle_from_module_ext,
    module_ext_from_1cocycle, restricted_ext_from_assoc_2cocycle,
    restricted_structure_from_lie_2cocycle, semidirect_extension,
    strongly_abelianize, twist_pmap,
)
from .sixterm import SixTermReport, build_six_term

__version__ = "0.1.0"

__all__ = [
    "CohomologyResult", "LieSuperAlgebra", "MatGF", "Representation",
    "SemiLinearMap", "SixTermReport", "Subspace", "SuperSpace",
    "SupercohError", "UAlgebra", "UElement", "adjoint_module",
    "algebra_ext_from_2cocycle", "are_equivalent_restricted",
    "assoc_2cocycle_from_restricted_ext", "automorphism_from_1cocycle",
    "build_six_term", "check_commutator_identities", "cocycle_from_algebra_ext",
    "cocycle_from_module_ext", "comparison_matrix", "hom_module", "image",
    "invariants", "jacobson_terms", "lie_cohomology",
    "module_ext_from_1cocycle", "nullspace", "pmap_apply",
    "restricted_cohomology", "restricted_ext_from_assoc_2cocycle",
    "restricted_structure_from_lie_2cocycle", "rref", "semidirect",
    "semidirect_extension", "semilinear_space", "sgn_marked", "solve",
    "strongly_abelianize", "trivial_module", "twist_pmap",
    "validate_lie_super", "validate_module", "validate_pmap",
]
