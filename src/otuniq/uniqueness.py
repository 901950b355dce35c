"""Structural uniqueness machinery for Kantorovich potentials.

Degeneracy tests on component masses and on the solved plan, the
contact-link graph between source components, offset propagation over a
spanning forest, the certification pipeline, and the explicit
f_{a, b} ambiguity witness family for separated self-coupled instances.
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
from .decompose import (
    ComponentDecomposition,
    ComponentPotential,
    decompose_potential,
)
from .errors import (
    InconsistentCycle,
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
        src = decomposition.source_index[plan.rows].tolist()
        tgt = decomposition.target_index[plan.cols].tolist()
        acc: dict[tuple[int, int], float] = {}
        for key, v in zip(zip(src, tgt), plan.masses.tolist()):
            acc[key] = acc.get(key, 0.0) + v
        ms, mt = decomposition.component_masses(plan.source, plan.target)
        return cls(len(ms), len(mt),
                   tuple((i, j, acc[(i, j)]) for i, j in sorted(acc)),
                   tuple(ms), tuple(mt))

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
class ContactLink:
    """Evidence joining two source components through a target."""

    i1: int
    i2: int
    target_component: int
    contact_target: Optional[int]   # point index; None for continuum links
    kind: str                       # "point" or "continuum"


def build_contact_links(plan: TransportPlan,
                        decomposition: ComponentDecomposition
                        ) -> list[ContactLink]:
    """Point-contact links: a target atom fed by two source components.

    Finite closures are the sets themselves, so a contact point is
    simply a shared column of the plan.
    """
    src, tgt = decomposition.source_index, decomposition.target_index
    feeders: dict[int, set[int]] = {}
    for i, j, _ in plan.entries:
        feeders.setdefault(j, set()).add(int(src[i]))
    links = []
    for j in sorted(feeders):
        comps = sorted(feeders[j])
        for i1, i2 in itertools.combinations(comps, 2):
            links.append(ContactLink(i1, i2, int(tgt[j]), j, "point"))
    return links


def continuum_links(plan: TransportPlan,
                    decomposition: ComponentDecomposition
                    ) -> list[ContactLink]:
    """Links through a multi-point target component fed by two source
    components.

    These stand in for the continuum argument (connected target support
    plus continuity of the target potential); certificates flag them as
    finite-scale assertions.
    """
    src, tgt = decomposition.source_index, decomposition.target_index
    feeders: dict[int, set[int]] = {}
    for i, j, _ in plan.entries:
        feeders.setdefault(int(tgt[j]), set()).add(int(src[i]))
    links = []
    for jc in sorted(feeders):
        if len(decomposition.target_components[jc]) < 2:
            continue
        for i1, i2 in itertools.combinations(sorted(feeders[jc]), 2):
            links.append(ContactLink(i1, i2, jc, None, "continuum"))
    return links


@dataclass(frozen=True)
class OffsetResult:
    """Outcome of offset propagation over the link graph."""

    offsets: Optional[np.ndarray]       # None when the graph is disconnected
    free_blocks: tuple                  # source-component index groups
    spanning_links: tuple               # links actually used
    cycle_checks: int                   # redundant links verified


def propagate_offsets(links: Sequence[ContactLink],
                      per_component_potentials: Sequence[ComponentPotential],
                      cost: CostSpec, plan: TransportPlan,
                      global_pair: Optional[PotentialPair] = None,
                      target_components: Optional[Sequence[Sequence[int]]]
                      = None,
                      tol: Tolerances = DEFAULT_TOLERANCES) -> OffsetResult:
    """Glue per-component potentials by propagating offset deltas.

    A point link with contact target y gives
    a_{i1} - a_{i2} = (c(x, y) - f_{i1}(x)) - (c(x', y) - f_{i2}(x'))
    for any support pairs (x, y), (x', y) of the two components; the
    choice is verified to be immaterial within the tightness tolerance.
    Continuum links route the same difference through the solved global
    target potential, which requires ``global_pair``.
    """
    return _propagate_offsets(links, per_component_potentials,
                              cost.matrix(plan.source, plan.target), plan,
                              global_pair, target_components, tol)


def _propagate_offsets(links, per_component_potentials, mat, plan,
                       global_pair, target_components, tol) -> OffsetResult:
    """``propagate_offsets`` on an already built cost matrix."""
    tau = tol.tight(float(np.max(mat)))
    n_comp = len(per_component_potentials)
    # per source point: its component and its component potential
    comp_of = np.full(plan.source.n, -1)
    f_of = np.full(plan.source.n, np.nan)
    for cp in per_component_potentials:
        comp_of[list(cp.indices)] = cp.component
        f_of[list(cp.indices)] = cp.values
    # rows of the plan grouped by (component, target point)
    rows_at: dict[tuple[int, int], list[int]] = {}
    for i, j, _ in plan.entries:
        rows_at.setdefault((int(comp_of[i]), j), []).append(i)

    def side_value(comp: int, j: int) -> float:
        """c(x, y) - f_comp(x) over support rows; checked consistent."""
        rows = rows_at.get((comp, j))
        if not rows:
            raise OTUniqError(
                f"component {comp} sends no mass to target {j}"
            )
        vals = [float(mat[i, j]) - f_of[i] for i in rows]
        if max(vals) - min(vals) > tau:
            raise InconsistentCycle(
                f"support pairs at target {j} disagree by "
                f"{max(vals) - min(vals):.3e}"
            )
        return vals[0]

    tgt_comp = {}
    if target_components is not None:
        tgt_comp = {int(j): k for k, grp in enumerate(target_components)
                    for j in grp}

    def delta(link: ContactLink) -> float:
        if link.kind == "point":
            j = link.contact_target
            return side_value(link.i1, j) - side_value(link.i2, j)
        if global_pair is None or not tgt_comp:
            raise OTUniqError(
                "continuum links need the solved global pair and the "
                "target partition"
            )
        g = np.asarray(global_pair.g, dtype=float)

        def anchored(comp):
            # a_comp relative to the global potential, via any support
            # pair into the linking target component
            for (cmp_, j) in sorted(rows_at):
                if cmp_ == comp and tgt_comp[j] == link.target_component:
                    return side_value(comp, j) - float(g[j])
            raise OTUniqError("no support pair into the linking component")

        return anchored(link.i1) - anchored(link.i2)

    offsets = np.full(n_comp, np.nan)
    # A first-come spanning forest, not a library connectivity call: the
    # links it picks are reported as spanning_links.
    parent = list(range(n_comp))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    spanning = []
    extra = []
    for lk in links:
        if find(lk.i1) != find(lk.i2):
            parent[find(lk.i1)] = find(lk.i2)
            spanning.append(lk)
        else:
            extra.append(lk)
    roots = sorted({find(k) for k in range(n_comp)})
    blocks = tuple(tuple(k for k in range(n_comp) if find(k) == r)
                   for r in roots)
    # assign offsets by walking the forest from each block's smallest member
    adj: dict[int, list] = {}
    deltas = {}
    for lk in spanning:
        d = delta(lk)
        deltas[(lk.i1, lk.i2)] = d
        adj.setdefault(lk.i1, []).append((lk.i2, -d))
        adj.setdefault(lk.i2, []).append((lk.i1, d))
    for block in blocks:
        offsets[block[0]] = 0.0
        stack = [block[0]]
        while stack:
            v = stack.pop()
            for w, d in adj.get(v, ()):
                if np.isnan(offsets[w]):
                    offsets[w] = offsets[v] + d
                    stack.append(w)
    checks = 0
    for lk in extra:
        d = delta(lk)
        if abs((offsets[lk.i1] - offsets[lk.i2]) - d) > tau:
            raise InconsistentCycle(
                f"link ({lk.i1}, {lk.i2}) delta {d:.6e} conflicts with "
                f"propagated {offsets[lk.i1] - offsets[lk.i2]:.6e}"
            )
        checks += 1
    return OffsetResult(
        offsets=offsets if len(blocks) <= 1 else None,
        free_blocks=blocks,
        spanning_links=tuple(spanning),
        cycle_checks=checks,
    )


@dataclass(frozen=True)
class UniquenessCertificate:
    verdict: str                       # unique | non_unique | inconclusive
    degeneracy: dict
    marginal_degeneracy: Optional[dict]
    spanning_links: tuple
    freedom_dim: int
    offsets: Optional[np.ndarray]
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

    Pipeline: solve, split the potential over source components, test
    plan degeneracy, build contact links, and propagate offsets.  Every
    positive-mass component counts as unique: its support is one
    component by construction, and uniqueness on a connected support is
    the continuum theorem the finite check stands in for, so components
    of two or more points carry a flag saying so.  Zero-mass components
    are reported as such.  Unique iff the flow graph is connected; a
    disconnected graph yields a verified shift witness and verdict
    non_unique.
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
    comp_pots = decompose_potential(result.pair, decomposition)
    comp_verdicts = [(cp.component, "zero_mass" if cp.skipped else "unique")
                     for cp in comp_pots]
    if any(not cp.skipped and len(cp.indices) > 1 for cp in comp_pots):
        flags.append("single-component subproblem treated as unique; "
                     "connectedness of the continuum support is asserted, "
                     "not certified")
    links = build_contact_links(result.plan, decomposition)
    clinks = continuum_links(result.plan, decomposition)
    if clinks:
        flags.append(
            "continuum links used: connected multi-point target components "
            "are asserted to glue their feeders"
        )
    offsets = _propagate_offsets(
        links + clinks, comp_pots, mat, result.plan, result.pair,
        decomposition.target_components, tol)
    freedom = len(degeneracy["blocks"]) - 1
    flags = list(dict.fromkeys(flags))  # dedupe, keep order
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
        spanning_links=offsets.spanning_links, freedom_dim=max(freedom, 0),
        offsets=offsets.offsets, witness=witness, flags=tuple(flags),
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
