"""The public names of the package, pinned so that a change shows in
review, and the README's library example, run as written."""

import contextlib
import io
import pathlib
import re

import otuniq

PUBLIC = [
    "AmbiguityWitness",
    "ComponentDecomposition",
    "ComponentFlowGraph",
    "CostProfile",
    "CostSpec",
    "DiscreteMeasure",
    "DualFaceReport",
    "OracleCheck",
    "PotentialPair",
    "SolveResult",
    "TransportPlan",
    "UniquenessCertificate",
    "ambiguity_witness",
    "asymptotic_region",
    "c_transform",
    "certify",
    "core",
    "cross_check",
    "decompose",
    "dominated_region",
    "double_transform_residual",
    "dual_face_oracle",
    "errors",
    "exact_blocks",
    "gradient_identity_check",
    "marginal_degeneracy_check",
    "plan_degeneracy_check",
    "regularity",
    "solve",
    "solve_exact",
    "solver",
    "subdifferential_of",
    "tight_graph_connectivity_oracle",
    "uniqueness",
    "verify_duality",
]


def test_public_names():
    assert sorted(otuniq.__all__) == PUBLIC


def test_decompose_is_the_module():
    # no function of the package shadows its ``decompose`` submodule
    assert otuniq.decompose.ComponentDecomposition \
        is otuniq.ComponentDecomposition


def test_readme_library_example():
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    section = readme.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue() == "non_unique 1\n"
