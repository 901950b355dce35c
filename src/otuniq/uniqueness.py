"""Structural uniqueness machinery for Kantorovich potentials.

Degeneracy tests on component masses and on the solved plan's component
flow graph, the certification pipeline, and the explicit f_{a, b}
ambiguity witness family for separated self-coupled instances.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    CostSpec,
    DiscreteMeasure,
    PotentialPair,
    Tolerances,
    TransportPlan,
    component_labels,
    verify_duality,
)
from .decompose import ComponentDecomposition
from .errors import (
    NotSelfCoupled,
    NotSymmetric,
    OTUniqError,
    TooManyComponents,
    WrongComponentCount,
)
from .solver import SolveResult, dual_face_oracle, solve

SUBSET_CAP = 26          # |I| + |J| bound for subset enumeration
MARGIN_FACTOR = 10.0     # knife-edge warning threshold, times tau_mass


@dataclass(frozen=True)
class ComponentFlowGraph:
    """Bipartite graph of component-to-component plan mass."""

    n_source: int
    n_target: int
    edges: tuple  # ((i, j, mass), ...) with mass > 0
    source_masses: tuple
    target_masses: tuple

    @classmethod
    def build(cls, plan: TransportPlan,
              decomposition: ComponentDecomposition) -> "ComponentFlowGraph":
        ms, mt = decomposition.component_masses(plan.source, plan.target)
        return cls.from_arcs(decomposition.source_index[plan.rows].tolist(),
                             decomposition.target_index[plan.cols].tolist(),
                             plan.masses.tolist(), ms, mt)

    @classmethod
    def from_arcs(cls, source_components: Sequence[int],
                  target_components: Sequence[int], masses: Sequence,
                  source_masses: Sequence, target_masses: Sequence
                  ) -> "ComponentFlowGraph":
        """Sum plan arcs per (source, target) component pair.

        Arc k runs from source component ``source_components[k]`` to
        target component ``target_components[k]`` with mass
        ``masses[k]``; any scalar type works, Fractions stay exact.
        """
        acc: dict = {}
        for key, v in zip(zip(source_components, target_components), masses):
            acc[key] = acc[key] + v if key in acc else v
        return cls(len(source_masses), len(target_masses),
                   tuple((i, j, acc[(i, j)]) for i, j in sorted(acc)),
                   tuple(source_masses), tuple(target_masses))

    def connected_blocks(self) -> list[dict]:
        """Connected components over positive-mass nodes.

        Each block lists its source and target component indices.
        Zero-mass components are left out entirely.  Blocks are ordered
        by their smallest source component; a block with no source comes
        after all others, ordered by its smallest target component.
        """
        ns = self.n_source
        labels = component_labels(ns + self.n_target,
                                  [(i, ns + j) for i, j, _ in self.edges])
        blocks: dict[int, dict] = {}
        for v, mass in enumerate(self.source_masses + self.target_masses):
            if mass > 0:
                side, k = ("sources", v) if v < ns else ("targets", v - ns)
                blocks.setdefault(labels[v], {"sources": [], "targets": []})[
                    side].append(k)
        return [blocks[k] for k in sorted(blocks)]


def marginal_degeneracy_check(component_masses_mu: Sequence[float],
                              component_masses_nu: Sequence[float],
                              tol: Tolerances = DEFAULT_TOLERANCES) -> dict:
    """Subset-sum collision test on component masses.

    Nondegenerate iff no nonempty proper subset of source-component
    masses matches a nonempty proper subset of target-component masses
    within tau_mass.  Also reports the minimal gap over all subset pairs
    for knife-edge warnings.  Any exact scalar type works too: with
    Fraction masses and tau_mass = 0 the test is exact.  The reported
    (I, J) is the first colliding source subset by size, then
    lexicographically, with the least target subset of equal sum.
    """
    ms = list(component_masses_mu)
    mt = list(component_masses_nu)
    if len(ms) + len(mt) > SUBSET_CAP:
        raise TooManyComponents(
            f"{len(ms)} + {len(mt)} components exceed the cap {SUBSET_CAP}"
        )
    nu_sums = []
    for r in range(1, len(mt)):
        for combo in itertools.combinations(range(len(mt)), r):
            nu_sums.append((sum(mt[j] for j in combo), combo))
    nu_sums.sort()
    keys = [s for s, _ in nu_sums]
    best_gap = float("inf")
    hit = None
    for r in range(1, len(ms)):
        for combo in itertools.combinations(range(len(ms)), r):
            s = sum(ms[i] for i in combo)
            pos = bisect_left(keys, s)
            for k in (pos - 1, pos):
                if 0 <= k < len(keys):
                    gap = abs(keys[k] - s)
                    if gap < best_gap:
                        best_gap = gap
                        if gap <= tol.mass:
                            hit = (combo, nu_sums[k][1])
    if hit is not None:
        return {"status": "colliding", "I": hit[0], "J": hit[1],
                "min_gap": best_gap}
    return {"status": "nondegenerate", "min_gap": best_gap}


def plan_degeneracy_check(graph: ComponentFlowGraph) -> dict:
    """Degeneracy via flow-graph connectivity.

    The plan is degenerate iff its component flow graph is disconnected;
    the returned (I', J') is the first block's node sets.
    """
    blocks = graph.connected_blocks()
    if len(blocks) <= 1:
        return {"status": "nondegenerate", "blocks": blocks}
    first = blocks[0]
    return {"status": "degenerate", "I": tuple(first["sources"]),
            "J": tuple(first["targets"]), "blocks": blocks}


@dataclass(frozen=True)
class UniquenessCertificate:
    verdict: str                       # unique | non_unique | inconclusive
    degeneracy: dict
    marginal_degeneracy: Optional[dict]
    freedom_dim: int
    witness: Optional[tuple]           # two distinct optimal PotentialPairs
    flags: tuple = ()
    component_verdicts: tuple = ()
    solve_result: Optional[SolveResult] = None


def _block_witness(result: SolveResult, blocks, decomposition, mat, tol):
    """Two distinct optimal pairs from a disconnected flow graph.

    One flow-graph block's sources are shifted by +s and its targets by
    -s; the block is mass balanced, so the dual value is unchanged, and
    s is chosen inside the cross-block slack.  Returns None when no
    positive shift is available in either direction.
    """
    pair = result.pair
    block = blocks[0]
    in_s = np.isin(decomposition.source_index, block["sources"])
    in_t = np.isin(decomposition.target_index, block["targets"])
    slack = mat - pair.f[:, None] - pair.g[None, :]
    up = slack[np.ix_(in_s, ~in_t)]
    down = slack[np.ix_(~in_s, in_t)]
    s_plus = float(np.min(up)) if up.size else np.inf
    s_minus = float(np.min(down)) if down.size else np.inf
    tau = tol.tight(float(np.max(mat)))
    for s in (min(s_plus, 1.0) / 2.0, -min(s_minus, 1.0) / 2.0):
        if abs(s) <= tau:
            continue
        f2 = pair.f.copy()
        g2 = pair.g.copy()
        f2[in_s] += s
        g2[in_t] -= s
        cand = PotentialPair(f2, g2, pair.source, pair.target)
        rep = verify_duality(result.plan, cand, mat, tol)
        if rep.optimal:
            return pair, cand, s
    return None


def certify(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec,
            decomposition: ComponentDecomposition,
            tol: Tolerances = DEFAULT_TOLERANCES) -> UniquenessCertificate:
    """Structural uniqueness certificate for the dual optimizers.

    Pipeline: solve, build the component flow graph of the plan, and
    test it for degeneracy.  The potentials are unique on each
    positive-mass component: its support is one component by
    construction, and uniqueness on a connected support is the continuum
    theorem the finite check stands in for, so components of two or
    more points carry a flag saying so.  Components of source mass at
    most tau_mass are reported as ``zero_mass``.  The per-component
    constants are glued exactly where the plan moves mass between
    components, so the verdict is unique iff the flow graph is
    connected; a multi-point target component fed by two or more source
    components glues them only through the continuity of the target
    potential, which a flag records.  A disconnected graph yields a
    verified shift witness and verdict non_unique.
    """
    result = solve(mu, nu, cost, tol)
    mat = result.cost_matrix
    graph = ComponentFlowGraph.build(result.plan, decomposition)
    flags: list[str] = []
    try:
        marginal = marginal_degeneracy_check(
            list(graph.source_masses), list(graph.target_masses), tol)
        if marginal["min_gap"] < MARGIN_FACTOR * tol.mass \
                and marginal["status"] == "nondegenerate":
            flags.append(
                f"degeneracy-margin: minimal subset-sum gap "
                f"{marginal['min_gap']:.3e}"
            )
    except TooManyComponents:
        marginal = None
        flags.append("marginal degeneracy check skipped: component cap")
    degeneracy = plan_degeneracy_check(graph)
    live = [mass > DEFAULT_TOLERANCES.mass for mass in graph.source_masses]
    comp_verdicts = [(k, "unique" if ok else "zero_mass")
                     for k, ok in enumerate(live)]
    if any(ok and len(grp) > 1
           for ok, grp in zip(live, decomposition.source_components)):
        flags.append("single-component subproblem treated as unique; "
                     "connectedness of the continuum support is asserted, "
                     "not certified")
    feeders: dict[int, set] = {}
    for i, j, _ in graph.edges:
        feeders.setdefault(j, set()).add(i)
    if any(len(decomposition.target_components[j]) > 1 and len(srcs) > 1
           for j, srcs in feeders.items()):
        flags.append(
            "continuum links used: connected multi-point target components "
            "are asserted to glue their feeders"
        )
    freedom = len(degeneracy["blocks"]) - 1
    witness = None
    verdict = "unique" if freedom == 0 else "inconclusive"
    if freedom > 0:
        built = _block_witness(result, degeneracy["blocks"], decomposition,
                               mat, tol)
        if built is not None:
            witness = (built[0], built[1])
            verdict = "non_unique"
        else:
            flags.append("disconnected flow graph but no feasible shift; "
                         "witness construction failed")
    return UniquenessCertificate(
        verdict=verdict, degeneracy=degeneracy, marginal_degeneracy=marginal,
        freedom_dim=max(freedom, 0), witness=witness, flags=tuple(flags),
        component_verdicts=tuple(comp_verdicts), solve_result=result)


@dataclass(frozen=True)
class AmbiguityWitness:
    delta: float
    samples: tuple               # ((a, b), ...) parameters
    pairs: tuple                 # matching PotentialPairs, all optimal
    oracle_spread: float


def ambiguity_witness(mu: DiscreteMeasure, cost: CostSpec,
                      decomposition: ComponentDecomposition,
                      n_samples: int = 9, tol: Tolerances = DEFAULT_TOLERANCES
                      ) -> AmbiguityWitness:
    """The f_{a, b} family on a separated self-coupled instance.

    Requires nu = mu, a symmetric cost vanishing on the diagonal, and
    exactly two source components.  Delta is the minimal cross-component
    cost; every emitted pair f = a on the first component, b on the
    second, g = -f with |a - b| <= Delta is verified optimal for the
    identity plan of cost zero.  ``oracle_spread`` is the widest range
    of f over the second component's points on the whole optimal face,
    from ``dual_face_oracle`` on the identity plan and the zero pair.
    """
    if len(decomposition.source_components) != 2:
        raise WrongComponentCount(
            f"need exactly 2 source components, got "
            f"{len(decomposition.source_components)}"
        )
    mat = np.asarray(cost.matrix(mu, mu), dtype=float)
    if not np.allclose(mat, mat.T, atol=1e-12 * (1.0 + float(np.max(mat)))):
        raise NotSymmetric("cost matrix is not symmetric")
    if float(np.max(np.abs(np.diag(mat)))) > tol.tight(float(np.max(mat))):
        raise NotSelfCoupled("cost does not vanish on the diagonal")
    grp1, grp2 = decomposition.source_components[:2]
    delta = float(np.min(mat[np.ix_(list(grp1), list(grp2))]))
    idx = np.arange(mu.n)
    plan = TransportPlan(idx, idx, mu.weights.copy(), mu, mu)
    samples = []
    pairs = []
    for b in np.linspace(-delta, delta, n_samples):
        f = np.zeros(mu.n)
        f[list(grp2)] = b
        pair = PotentialPair(f, -f, mu, mu)
        rep = verify_duality(plan, pair, mat, tol)
        if not rep.optimal:
            raise OTUniqError(
                f"f_(0, {b}) failed verification, gap {rep.gap:.3e}"
            )
        samples.append((0.0, float(b)))
        pairs.append(pair)
    zero = np.zeros(mu.n)
    face = dual_face_oracle(plan, PotentialPair(zero, zero, mu, mu), mat, tol)
    spread = float(np.max(face.f_max[list(grp2)] - face.f_min[list(grp2)]))
    return AmbiguityWitness(delta=delta, samples=tuple(samples),
                            pairs=tuple(pairs), oracle_spread=spread)
