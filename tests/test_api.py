"""The public names of the package, pinned so that a change shows in
review."""

import otuniq

PUBLIC = [
    "AmbiguityWitness",
    "ComponentDecomposition",
    "ComponentFlowGraph",
    "CostProfile",
    "CostSpec",
    "DiscreteMeasure",
    "DualFaceReport",
    "PotentialPair",
    "SolveResult",
    "Subdifferential",
    "Tolerances",
    "TransportPlan",
    "UniquenessCertificate",
    "ambiguity_witness",
    "asymptotic_region",
    "c_transform",
    "certify",
    "core",
    "decompose",
    "dominated_region",
    "double_transform_residual",
    "dual_face_oracle",
    "errors",
    "escape_diagnostic",
    "gradient_identity_check",
    "marginal_degeneracy_check",
    "plan_degeneracy_check",
    "regularity",
    "solve",
    "solve_exact",
    "solver",
    "subdifferential_of",
    "superlinearity_bound",
    "tight_graph_connectivity_oracle",
    "uniqueness",
    "verify_duality",
]


def test_public_names():
    assert sorted(otuniq.__all__) == PUBLIC
