"""Uniqueness certification for Kantorovich potentials of finite
optimal transport problems."""

__version__ = "0.1.0"

from .core import (
    CostProfile,
    CostSpec,
    DiscreteMeasure,
    PotentialPair,
    TransportPlan,
    c_transform,
    double_transform_residual,
    subdifferential_of,
    verify_duality,
)
from .decompose import ComponentDecomposition
from .solver import (
    DualFaceReport,
    SolveResult,
    dual_face_oracle,
    solve,
    solve_exact,
    tight_graph_connectivity_oracle,
)
from .uniqueness import (
    AmbiguityWitness,
    ComponentFlowGraph,
    OracleCheck,
    UniquenessCertificate,
    ambiguity_witness,
    certify,
    cross_check,
    exact_blocks,
    marginal_degeneracy_check,
    plan_degeneracy_check,
)
from .regularity import (
    asymptotic_region,
    dominated_region,
    gradient_identity_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
