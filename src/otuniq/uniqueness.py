"""Structural uniqueness machinery for Kantorovich potentials.

Degeneracy tests on component masses and on component flow graphs, the
certification pipeline on the tight residual graph, the oracle
cross-check of a certificate with its disagreement rule, and the
explicit f_{a, b} ambiguity witness family for separated self-coupled
instances.

One block rule, ``_blocks``, serves both scalar modes: ``certify`` runs
it on floats with tightness within tau, ``exact_blocks`` (the ``exact``
section of ``otuniq certify --exact``) on Python ints with ``==``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    _BLOCK,
    TAU_MASS,
    TAU_TIGHT_SCALE,
    CostSpec,
    DiscreteMeasure,
    PotentialPair,
    TransportPlan,
    _checks,
    _dual_value,
    component_labels,
    scaled_integers,
    tight_components,
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
from .solver import (
    DualFaceReport,
    SolveResult,
    dual_face_oracle,
    solve,
    solve_exact,
    tight_graph_connectivity_oracle,
)

SUBSET_CAP = 26          # |I| + |J| bound for subset enumeration
MARGIN_FACTOR = 10.0     # knife-edge warning threshold, times tau_mass


def _degeneracy(labels, source_masses, target_masses) -> dict:
    """Blocks of the positive-mass components, by node label.

    ``labels`` runs over the source components, then the target
    components.  Each block lists its source and target component
    indices, zero-mass components left out; blocks come in label order.
    Degenerate iff there are two or more blocks; (I, J) is the first.
    """
    ns = len(source_masses)
    blocks: dict[int, dict] = {}
    for v, mass in enumerate(tuple(source_masses) + tuple(target_masses)):
        if mass > 0:
            side, k = ("sources", v) if v < ns else ("targets", v - ns)
            blocks.setdefault(labels[v], {"sources": [], "targets": []})[
                side].append(k)
    blocks = [blocks[k] for k in sorted(blocks)]
    if len(blocks) <= 1:
        return {"status": "nondegenerate", "blocks": blocks}
    first = blocks[0]
    return {"status": "degenerate", "I": tuple(first["sources"]),
            "J": tuple(first["targets"]), "blocks": blocks}


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
        """Sum the plan's arcs per (source, target) component pair."""
        ms, mt = decomposition.component_masses(plan.source.weights,
                                                plan.target.weights)
        acc: dict = {}
        for key, v in zip(zip(decomposition.source_index[plan.rows].tolist(),
                              decomposition.target_index[plan.cols].tolist()),
                          plan.masses.tolist()):
            acc[key] = acc.get(key, 0.0) + v
        return cls(len(ms), len(mt),
                   tuple((i, j, acc[(i, j)]) for i, j in sorted(acc)),
                   tuple(ms), tuple(mt))


def _subset_sums(masses):
    """(sum, subset) of each nonempty proper subset, by size, then
    lexicographically."""
    for r in range(1, len(masses)):
        for combo in itertools.combinations(range(len(masses)), r):
            yield sum(map(masses.__getitem__, combo)), combo


def _target_neighbours(ms, mt):
    """(s, I, lo, hi) for source subsets I in enumeration order: lo and
    hi are the sorted (sum, J) target entries just below s and at or
    above it, or None.  Only the smaller side's sums are kept; if those
    are the source's, only each sum's first subset comes back."""
    if len(ms) >= len(mt):
        targets = sorted(_subset_sums(mt))
        keys, padded = [t for t, _ in targets], [None] + targets + [None]
        for s, combo in _subset_sums(ms):
            pos = bisect_left(keys, s)
            yield s, combo, padded[pos], padded[pos + 1]
        return
    first: dict = {}
    for s, combo in _subset_sums(ms):
        first.setdefault(s, combo)
    keys = sorted(first)
    # the greatest and the least target entries in [keys[q - 1], keys[q])
    most, least = [None] * (len(keys) + 1), [None] * (len(keys) + 1)
    for entry in _subset_sums(mt):
        q = bisect_right(keys, entry[0])
        most[q] = max(most[q] or entry, entry)
        least[q] = min(least[q] or entry, entry)
    below = list(itertools.accumulate(most, lambda x, y: y or x))
    above = list(itertools.accumulate(least[::-1], lambda x, y: y or x))
    for s, combo in first.items():
        q = bisect_left(keys, s)
        yield s, combo, below[q], above[len(keys) - 1 - q]


def marginal_degeneracy_check(component_masses_mu: Sequence[float],
                              component_masses_nu: Sequence[float]) -> dict:
    """Subset-sum collision test on component masses.

    Nondegenerate iff no nonempty proper subset of source-component
    masses matches one of target-component masses within tau_mass, or
    exactly when no mass is a float (Fractions and ints; an int gap is
    0 or at least 1).  Also reports the minimal gap over all subset pairs,
    for knife-edge warnings.  (I, J) pairs the first source subset, by
    size then lexicographically, that reaches it with its nearest target
    subset.  Only the smaller side's subset sums are held in memory.
    """
    ms = list(component_masses_mu)
    mt = list(component_masses_nu)
    if len(ms) + len(mt) > SUBSET_CAP:
        raise TooManyComponents(
            f"{len(ms)} + {len(mt)} components exceed the cap {SUBSET_CAP}"
        )
    if len(ms) < 2 or len(mt) < 2:      # a side with no proper subset
        return {"status": "nondegenerate", "min_gap": float("inf")}
    tau = TAU_MASS if any(isinstance(x, float) for x in ms + mt) else 0
    best_gap = float("inf")
    hit = None
    for s, combo, lo, hi in _target_neighbours(ms, mt):
        for t, other in filter(None, (lo, hi)):
            gap = abs(t - s)
            if gap < best_gap:
                best_gap = gap
                if gap <= tau:
                    hit = (combo, other)
    if hit is not None:
        return {"status": "colliding", "I": hit[0], "J": hit[1],
                "min_gap": best_gap}
    return {"status": "nondegenerate", "min_gap": best_gap}


def plan_degeneracy_check(graph: ComponentFlowGraph) -> dict:
    """Degenerate iff the plan's component flow graph is disconnected."""
    ns = graph.n_source
    labels = component_labels(ns + graph.n_target,
                              [(i, ns + j) for i, j, _ in graph.edges])
    return _degeneracy(labels, graph.source_masses, graph.target_masses)


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


def _block_witness(result: SolveResult, mat, src_block, tgt_block, left):
    """Two distinct optimal pairs from two or more tight-residual blocks.

    ``src_block``/``tgt_block`` give each point's block, and ``left``
    the blocks that some tight arc leaves.  The blocks form a DAG, so
    not every block is left; the first such block's sources are shifted
    up by s and its targets down by s.  It is mass balanced, so the dual
    value is unchanged, and s is min(least slack, 1) / 2, the least slack
    taken from its positive-weight sources to the other positive-weight
    targets, whose sub-block alone is computed.  Zero-weight points then
    take their c-transform values, as in ``solve``.  Returns None when no
    source block qualifies or the shifted pair fails verification.
    ``mat`` is the cost matrix ``result`` was solved on.
    """
    pair = result.pair
    pos_s, pos_t = pair.source.weights > 0, pair.target.weights > 0
    block = min(set(src_block[pos_s].tolist()) - set(left.tolist()),
                default=None)
    if block is None:
        return None
    in_s, in_t = src_block == block, tgt_block == block
    rows, cols = in_s & pos_s, ~in_t & pos_t
    s = float(np.min(mat[np.ix_(rows, cols)] - pair.f[rows, None]
                     - pair.g[None, cols], initial=1.0)) / 2.0
    f2, g2 = pair.f.copy(), pair.g.copy()
    f2[in_s] += s
    g2[in_t] -= s
    g2[~pos_t] = (mat[np.ix_(pos_s, ~pos_t)] - f2[pos_s, None]).min(axis=0)
    f2[~pos_s] = (mat[~pos_s] - g2[None, :]).min(axis=1)
    cand = PotentialPair(f2, g2, pair.source, pair.target)
    if verify_duality(result.plan, cand, mat).optimal:
        return pair, cand
    return None


def _blocks(rows, cols, ti, tj, a, b,
            decomposition: ComponentDecomposition):
    """The block rule on an optimal plan's arcs, the index arrays of its
    dual's tight pairs and the weights (float arrays, or object arrays of
    Python ints): component masses, the marginal test (skipped and
    flagged past SUBSET_CAP), and the blocks of the tight residual graph
    on the tight pairs between positive-weight points.  Returns (source
    component masses, marginal or None, flags, (``tight_components``'s
    labels, those pairs' ti, tj), ``_degeneracy``)."""
    ms, mt = decomposition.component_masses(a, b)
    flags: list[str] = []
    try:
        marginal = marginal_degeneracy_check(ms, mt)
        # an int gap is 0 or at least 1, so only float masses flag here
        if marginal["min_gap"] < MARGIN_FACTOR * TAU_MASS \
                and marginal["status"] == "nondegenerate":
            flags.append(
                f"degeneracy-margin: minimal subset-sum gap "
                f"{marginal['min_gap']:.3e}"
            )
    except TooManyComponents:
        marginal = None
        flags.append("marginal degeneracy check skipped: component cap")
    keep = (a > 0)[ti] & (b > 0)[tj]
    ti, tj = ti[keep], tj[keep]
    labels = tight_components(rows, cols, ti, tj, decomposition.source_index,
                              decomposition.target_index)
    return ms, marginal, flags, (labels, ti, tj), _degeneracy(labels, ms, mt)


def certify(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec,
            decomposition: ComponentDecomposition) -> UniquenessCertificate:
    """Structural uniqueness certificate for the dual optimizers.

    Pipeline: solve, then split the components into the blocks of the
    tight residual graph (``tight_components``).  The potentials are
    unique on each positive-mass component: its support is one component
    by construction, and uniqueness on a connected support is the
    continuum theorem the finite check stands in for, so components of
    two or more points carry a flag saying so.  Components of source
    mass at most tau_mass are reported as ``zero_mass``.  The
    per-component constants are glued within each block, so the verdict
    is unique iff there is one block, whichever optimal plan the solver
    returned; a multi-point target component glued to two or more source
    components glues them only through the continuity of the target
    potential, which a flag records.  Two or more blocks yield a verified
    shift witness and verdict non_unique.
    """
    if cost.kind != "explicit_matrix":
        # the witness reads the matrix again: solving it as an explicit
        # cost builds it once
        cost = CostSpec.explicit(cost.matrix(mu, nu))
    result = solve(mu, nu, cost)
    ms, marginal, flags, (labels, ti, tj), degeneracy = _blocks(
        result.plan.rows, result.plan.cols, *result.duality.tight_pairs,
        mu.weights, nu.weights, decomposition)
    live = [mass > TAU_MASS for mass in ms]
    comp_verdicts = [(k, "unique" if ok else "zero_mass")
                     for k, ok in enumerate(live)]
    if any(ok and len(grp) > 1
           for ok, grp in zip(live, decomposition.source_components)):
        flags.append("single-component subproblem treated as unique; "
                     "connectedness of the continuum support is asserted, "
                     "not certified")
    src_block = labels[decomposition.source_index]
    tgt_block = labels[len(ms) + decomposition.target_index]
    glued = src_block[ti] == tgt_block[tj]
    n_t = len(decomposition.target_components)
    links = np.unique(decomposition.source_index[ti[glued]] * n_t
                      + decomposition.target_index[tj[glued]])
    feeders = np.bincount(links % n_t, minlength=n_t)
    if any(len(grp) > 1 and k > 1
           for grp, k in zip(decomposition.target_components, feeders)):
        flags.append(
            "continuum links used: connected multi-point target components "
            "are asserted to glue their feeders"
        )
    freedom = len(degeneracy["blocks"]) - 1
    witness = None
    verdict = "unique" if freedom == 0 else "inconclusive"
    if freedom > 0:
        witness = _block_witness(result, cost.values, src_block, tgt_block,
                                 src_block[ti[~glued]])
        if witness is not None:
            verdict = "non_unique"
        else:
            flags.append("several tight-residual blocks but no verified "
                         "shift; witness construction failed")
    return UniquenessCertificate(
        verdict=verdict, degeneracy=degeneracy, marginal_degeneracy=marginal,
        freedom_dim=freedom, witness=witness, flags=tuple(flags),
        component_verdicts=tuple(comp_verdicts), solve_result=result)


@dataclass(frozen=True)
class OracleCheck:
    """Both oracles on a certificate's optimal pair, and how they compare
    with its verdict."""

    dual_face: DualFaceReport
    tight_graph_unique: bool
    n_usable_edges: int
    disagreement: bool       # an oracle differs from an unflagged verdict
    note: bool               # one differs from a continuum-flagged verdict


def cross_check(cert: UniquenessCertificate, cost_matrix) -> OracleCheck:
    """Run ``dual_face_oracle`` and ``tight_graph_connectivity_oracle`` on
    ``cert.solve_result``; ``cost_matrix`` is the matrix it was solved on.

    Only a ``unique`` or ``non_unique`` verdict is compared, and the
    outcome differs when either oracle differs from it.  The oracles see
    the finite dual face only, so a difference on a certificate with a
    flag containing "continuum" or "asserted" is a note; on any other it
    is a disagreement (exit 20 of ``otuniq certify``).
    """
    result = cert.solve_result
    face = dual_face_oracle(result.plan, result.pair, cost_matrix)
    tight = tight_graph_connectivity_oracle(result)
    structural = {"unique": True, "non_unique": False}.get(cert.verdict)
    differs = structural is not None and \
        (face.unique != structural or tight["unique"] != structural)
    continuum = any("continuum" in fl or "asserted" in fl
                    for fl in cert.flags)
    return OracleCheck(face, tight["unique"], len(tight["usable_edges"][0]),
                       disagreement=differs and not continuum,
                       note=differs and continuum)


def exact_blocks(cost, scale: int, a, b,
                 decomposition: ComponentDecomposition):
    """``certify``'s block rule on the ``solve_exact`` solution of
    ``ProblemDocument.scaled_exact_problem()`` = (K cost, K, a, b).

    Tightness is ``K c == K f + K g`` and the component masses are mass
    * L (one LCM for both sides), all Python ints, so no tolerance
    enters.  Returns (section, degeneracy): the ``exact`` section of
    ``otuniq certify --exact``, and the blocks it counts.
    """
    masses, f, g, _it = solve_exact(cost, a, b, cost_scale=scale)
    kf, kg = (np.array([v.numerator * (scale // v.denominator) for v in h],
                       dtype=object) for h in (f, g))
    rows, cols = np.array(list(masses), dtype=int).T
    w = np.array(scaled_integers(list(a) + list(b))[0], dtype=object)
    _, marginal, flags, _, degeneracy = _blocks(
        rows, cols, *np.nonzero(cost == np.add.outer(kf, kg)), w[:len(a)],
        w[len(a):], decomposition)
    blocks = len(degeneracy["blocks"])
    hit = marginal is not None and marginal["status"] == "colliding"
    section = {"plan_blocks": blocks, "plan_degenerate": blocks > 1,
               "marginal_collision": [list(marginal["I"]), list(marginal["J"])]
               if hit else None}
    return (dict(section, flags=flags) if flags else section), degeneracy


@dataclass(frozen=True)
class AmbiguityWitness:
    """Row s of the read-only (k, n) array ``f`` is sample s's f; its
    optimal pair is (f[s], -f[s])."""

    delta: float
    samples: tuple               # ((a, b), ...) parameters
    f: np.ndarray
    oracle_spread: float


def ambiguity_witness(mu: DiscreteMeasure, cost: CostSpec,
                      decomposition: ComponentDecomposition,
                      n_samples: int = 9) -> AmbiguityWitness:
    """The f_{a, b} family on a separated self-coupled instance.

    Requires nu = mu, a symmetric cost vanishing on the diagonal, and
    exactly two source components.  Delta is the minimal cross-component
    cost; every emitted pair f = a on the first component, b on the
    second, g = -f with |a - b| <= Delta is verified optimal for the
    identity plan of cost zero.  The ``n_samples`` rows of f are checked
    as stacks by ``verify_duality``'s own tests (``core._checks``), each
    stack holding at most ``_BLOCK`` slack entries, or one pair if that
    holds more; the first failing sample raises ``OTUniqError``.
    ``oracle_spread`` is the widest range of f over the second
    component's points on the whole optimal face, from
    ``dual_face_oracle`` on the identity plan and the zero pair.
    """
    if isinstance(n_samples, bool) or \
            not isinstance(n_samples, (int, np.integer)) or n_samples < 1:
        raise OTUniqError(f"n_samples must be a positive integer, got "
                          f"{n_samples!r}")
    if len(decomposition.source_components) != 2:
        raise WrongComponentCount(
            f"need exactly 2 source components, got "
            f"{len(decomposition.source_components)}"
        )
    mat = np.asarray(cost.matrix(mu, mu), dtype=float)
    if not np.allclose(mat, mat.T, rtol=0.0,
                       atol=1e-12 * (1.0 + float(np.max(mat)))):
        raise NotSymmetric("cost matrix is not symmetric")
    if float(np.max(np.abs(np.diag(mat)))) \
            > TAU_TIGHT_SCALE * (1.0 + float(np.max(mat))):
        raise NotSelfCoupled("cost does not vanish on the diagonal")
    grp1, grp2 = decomposition.source_components[:2]
    delta = float(np.min(mat[np.ix_(list(grp1), list(grp2))]))
    idx = np.arange(mu.n)
    plan = TransportPlan(idx, idx, mu.weights.copy(), mu, mu)
    bs = np.linspace(-delta, delta, n_samples)
    f = np.zeros((n_samples, mu.n))
    f[:, list(grp2)] = bs[:, None]
    step = max(1, _BLOCK // mu.n ** 2)
    for s in range(0, n_samples, step):
        rows = f[s:s + step]
        report, _, _ = _checks(plan, rows, -rows,
                               _dual_value(rows, -rows, mu, mu), mat)
        bad = np.flatnonzero(~report.optimal)
        if bad.size:
            raise OTUniqError(f"f_(0, {bs[s + bad[0]]}) failed "
                              f"verification, gap {report.gap[bad[0]]:.3e}")
    f.setflags(write=False)
    zero = np.zeros(mu.n)
    face = dual_face_oracle(plan, PotentialPair(zero, zero, mu, mu), mat)
    spread = float(np.max(face.f_max[list(grp2)] - face.f_min[list(grp2)]))
    return AmbiguityWitness(delta=delta,
                            samples=tuple((0.0, float(b)) for b in bs),
                            f=f, oracle_spread=spread)
