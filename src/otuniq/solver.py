"""Transportation simplex and independent dual-uniqueness oracles.

The simplex (``_transport_simplex``, run by ``_solve_core`` on the
positive-weight points) is generic over the scalar type, so the same
code runs in float mode and in exact Fraction mode.  Two oracles
cross-validate certificates produced elsewhere:

* ``dual_face_oracle`` bounds each dual coordinate over the optimal
  face by two shortest-path runs;
* ``tight_graph_connectivity_oracle`` applies the classical criterion
  on the tight-edge graph by ``core.tight_components``, the routine of
  ``certify`` and of the exact section of ``otuniq certify --exact``.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .core import (
    TAU_FACE_SCALE,
    TAU_MASS,
    CostSpec,
    DiscreteMeasure,
    DualityReport,
    PotentialPair,
    TransportPlan,
    _tight_mask,
    tight_components,
    verify_duality,
)
from .errors import (
    InfeasibleOptimum,
    SolverError,
    Unbalanced,
)

log = logging.getLogger("otuniq")


@dataclass(frozen=True)
class SolveResult:
    """Optimal plan with its dual pair and the simplex basis tree."""

    plan: TransportPlan
    pair: PotentialPair
    basis: tuple  # (i, j) arcs, n + m - 1 of them, covering supp plan
    iterations: int
    duality: DualityReport
    # the n x m cost matrix solved on, for callers that need it again
    cost_matrix: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class DualFaceReport:
    """Coordinate bounds of the dual-optimal face after f(x0) = 0."""

    f_min: np.ndarray
    f_max: np.ndarray
    anchor: int
    unique: bool
    max_spread: float
    tolerance: float


def _price(cost, p, start: int, rows: int, enter_tol):
    """Block search for an entering arc, starting at row ``start``.

    ``p`` holds the node duals: u on the sources, -v on the targets, so
    the reduced cost ``c - u - v`` reads ``cost - p[rows] + p[targets]``,
    the same value in IEEE arithmetic.  Blocks of ``rows`` rows are
    scanned in turn, wrapping around; the most negative reduced cost of
    the first block holding one below ``-enter_tol`` wins.  Returns (i,
    j, reduced cost, next start row), or None when no arc prices out.
    The same expression serves float arrays and object arrays of
    Fractions, which numpy evaluates entry by entry with Fraction
    arithmetic.
    """
    n, m = cost.shape
    r, scanned = start, 0
    while scanned < n:
        r1 = min(r + rows, n)
        block = cost[r:r1] - p[r:r1, None] + p[None, n:]
        k = int(block.argmin())
        rc = block.flat[k]
        if rc < -enter_tol:
            return r + k // m, k % m, rc, r1 % n
        scanned += r1 - r
        r = r1 % n
    return None


def _transport_simplex(cost, a, b, *, enter_tol, max_iter: int):
    """Network simplex on the complete bipartite graph.

    ``cost`` is an n x m ndarray, float or object-holding Fractions;
    ``a``/``b`` are supply and demand lists of the matching scalar type.
    Nodes are sources 0..n-1 and targets n..n+m-1.  The basis is a tree
    rooted at source 0, stored as ``parent``, ``flow`` (the mass on the
    arc joining x to its parent), a preorder ``order`` of the nodes,
    each node's index ``pos`` in it and its subtree ``size``, so every
    subtree is the slice ``order[pos[x]:pos[x] + size[x]]`` (Ahuja,
    Magnanti and Orlin, Network Flows, section 11.3).  It starts as the
    northwest-corner tree.  Each pivot finds the entering arc's cycle by
    walking up to the lowest common ancestor, always from the endpoint
    with the smaller subtree (an ancestor's is strictly larger), moves
    the subtree cut off by the leaving arc under the entering arc as one
    block of ``order``, and shifts only that subtree's duals.  The
    leaving arc follows the strongly-feasible-tree rule (Cunningham
    1976): the last blocking arc met when walking the cycle from its
    apex in the entering arc's direction, which rules out cycling on the
    positive weights ``_solve_core`` passes; ``max_iter`` is a last
    guard.  Returns (masses dict, u, v, basis, iterations).
    """
    n, m = cost.shape
    zero = a[0] * 0
    p = np.full(n + m, zero, dtype=cost.dtype)     # u, then -v
    parent = [-1] * (n + m)
    flow = [zero] * (n + m)
    # northwest corner: a staircase path from source 0; each arc adds one
    # new node, hung from the node it shares with the previous arc, and
    # fixes that node's dual.  The previous node is that parent or a leaf
    # sibling, so creation order is a preorder.
    created = [0]
    ra, rb = list(a), list(b)
    i = j = 0
    new = n
    while True:
        t = ra[i] if ra[i] < rb[j] else rb[j]
        parent[new] = i if new >= n else n + j
        flow[new] = t
        created.append(new)
        if new >= n:
            p[new] = -(cost[i, j] - p[i])
        else:
            p[i] = cost[i, j] + p[n + j]
        ra[i] -= t
        rb[j] -= t
        if i == n - 1 and j == m - 1:
            break
        if i < n - 1 and (ra[i] == 0 or j == m - 1):
            i += 1
            new = i
        else:
            j += 1
            new = n + j
    order = np.array(created)
    nodes = np.arange(n + m)
    pos = np.empty(n + m, dtype=int)
    pos[order] = nodes
    size = [1] * (n + m)
    for x in reversed(created[1:]):
        size[parent[x]] += size[x]
    side = math.isqrt(n * m - 1) + 1          # ceil(sqrt(n m)) arcs
    rows = -(-side // m)
    start = 0
    iterations = 0
    while True:
        entering = _price(cost, p, start, rows, enter_tol)
        if entering is None:
            break
        if iterations >= max_iter:
            raise SolverError(f"simplex exceeded {max_iter} pivots")
        iterations += 1
        i, j, rc, start = entering
        # cycle: the tree paths from i and from target j up to their
        # lowest common ancestor; a pred arc loses mass when it is a
        # source's on the i side or a target's on the j side
        x, y = i, n + j
        up_i, up_j = [], []
        while x != y:
            if size[x] < size[y]:
                up_i.append(x)
                x = parent[x]
            else:
                up_j.append(y)
                y = parent[y]
        theta = min([flow[x] for x in up_i if x < n]
                    + [flow[x] for x in up_j if x >= n])
        # last blocking arc from the apex: the j side nearest the apex,
        # else the i side nearest i
        for k in range(len(up_j) - 1, -1, -1):
            x = up_j[k]
            if x >= n and flow[x] == theta:
                path, above, grow = up_j[:k + 1], up_j[k + 1:], up_i
                e_in, e_out = n + j, i
                break
        else:
            for k, x in enumerate(up_i):
                if x < n and flow[x] == theta:
                    path, above, grow = up_i[:k + 1], up_i[k + 1:], up_j
                    e_in, e_out = i, n + j
                    break
        if theta != zero:
            for x in up_i:
                flow[x] += -theta if x < n else theta
            for x in up_j:
                flow[x] += -theta if x >= n else theta
        # the subtree T cut off by the leaving arc, re-rooted at e_in:
        # its preorder is each stem node's old block minus the block of
        # the stem node below it, two slices per stem arc
        leaving = path[-1]
        cut = size[leaving]                       # |T|
        first = pos[path].tolist()
        lo = first[-1]
        segments = [order[first[0]:first[0] + size[e_in]]]
        for k in range(1, len(path)):
            segments.append(order[first[k]:first[k - 1]])
            segments.append(order[first[k - 1] + size[path[k - 1]]:
                                  first[k] + size[path[k]]])
        sub = np.concatenate(segments)
        # sizes: on the stem, suffix sums of the segment lengths; below
        # the apex, the cycle loses |T| above the leaving arc and gains
        # it from e_out up
        stem = [cut] + [cut - size[x] for x in path[:-1]]
        for x, s in zip(path, stem):
            size[x] = s
        for x in above:
            size[x] -= cut
        for x in grow:
            size[x] += cut
        # move T as one block to just after e_out
        dst = int(pos[e_out])
        if dst < lo:
            order[dst + 1 + cut:lo + cut] = order[dst + 1:lo]
            order[dst + 1:dst + 1 + cut] = sub
            lo, hi = dst + 1, lo + cut
        else:
            order[lo:dst + 1 - cut] = order[lo + cut:dst + 1]
            order[dst + 1 - cut:dst + 1] = sub
            hi = dst + 1
        pos[order[lo:hi]] = nodes[lo:hi]
        # re-hang: reverse the stem from e_in up to the leaving arc
        prev, prev_flow = e_out, theta
        for x in path:
            parent[x], prev = prev, x
            flow[x], prev_flow = prev_flow, flow[x]
        # the subtree's duals move by rc so the entering arc becomes tight
        p[sub] += rc if e_in < n else -rc
    basis = [(x, parent[x] - n) if x < n else (parent[x], x - n)
             for x in range(1, n + m)]
    masses = dict(zip(basis, flow[1:]))
    return masses, p[:n], -p[n:], basis, iterations


def _solve_core(cost, a, b, *, enter_tol, max_iter: int):
    """Optimal masses, a c-concave pair and a tight basis tree.

    The simplex runs on the positive-weight rows and columns alone, on
    ``cost`` itself when every weight is positive.  Zero-weight points
    get their potentials by c-transform (g from the positive sources,
    then f from all of g, so f = u on the positive sources) and join the
    tree by a tight arc of no mass: a target to its argmin positive
    source, a source to its argmin target.  Returns (masses, f, g, basis
    of n + m - 1 arcs, iterations) in the original indices; generic over
    the scalar type like ``_transport_simplex``.
    """
    n, m = cost.shape
    rows = [i for i in range(n) if a[i] > 0]
    cols = [j for j in range(m) if b[j] > 0]
    live = cost if len(rows) == n else cost[rows]
    masses, u, _, basis, iterations = _transport_simplex(
        live if len(cols) == m else live[:, cols], [a[i] for i in rows],
        [b[j] for j in cols], enter_tol=enter_tol, max_iter=max_iter,
    )
    g = (live - u[:, None]).min(axis=0)
    f = (cost - g[None, :]).min(axis=1)
    zero_t = [j for j in range(m) if not b[j] > 0]
    zero_s = [i for i in range(n) if not a[i] > 0]
    hang_t = (live[:, zero_t] - u[:, None]).argmin(axis=0).tolist()
    hang_s = (cost[zero_s] - g[None, :]).argmin(axis=1).tolist()
    basis = [(rows[i], cols[j]) for i, j in basis] \
        + [(rows[k], j) for j, k in zip(zero_t, hang_t)] \
        + list(zip(zero_s, hang_s))
    masses = {(rows[i], cols[j]): x for (i, j), x in masses.items()}
    return masses, f, g, basis, iterations


def solve(mu: DiscreteMeasure, nu: DiscreteMeasure,
          cost: CostSpec) -> SolveResult:
    """Solve the finite transportation problem to optimality.

    The pair is c-concave (see ``_solve_core``) and normalized to f = 0
    at ``mu.anchor_index()``.  Plan arcs of mass at most tau_mass times
    the total mass are rounding residue of the pivots and are dropped.
    Deterministic for a fixed input ordering.
    """
    if abs(float(mu.weights.sum()) - float(nu.weights.sum())) > TAU_MASS:
        raise Unbalanced("source and target masses differ")
    t0 = time.perf_counter()
    mat = cost.matrix(mu, nu)
    scale = float(np.max(mat)) if mat.size else 0.0
    enter_tol = 1e-12 * (1.0 + scale)
    max_iter = 50 * (mu.n + nu.n) * max(mu.n, nu.n)
    masses, f, g, basis, iterations = _solve_core(
        np.asarray(mat, dtype=float), mu.weights.tolist(),
        nu.weights.tolist(), enter_tol=enter_tol, max_iter=max_iter,
    )
    shift = f[mu.anchor_index()]
    f, g = f - shift, g + shift
    floor = TAU_MASS * float(mu.weights.sum())
    arcs = sorted(arc for arc, x in masses.items() if x > floor)
    plan = TransportPlan(np.array([i for i, _ in arcs], dtype=int),
                         np.array([j for _, j in arcs], dtype=int),
                         np.array([masses[arc] for arc in arcs], dtype=float),
                         mu, nu)
    pair = PotentialPair(f, g, mu, nu)
    report = verify_duality(plan, pair, mat)
    if not report.optimal:
        raise SolverError(
            f"simplex terminated non-optimal: gap={report.gap:.3e}, "
            f"feasible={report.feasible}, support_tight={report.support_tight}"
        )
    elapsed = time.perf_counter() - t0
    log.debug("solve: n=%d m=%d pivots=%d %.4f s %.1f us/pivot", mu.n, nu.n,
              iterations, elapsed, 1e6 * elapsed / iterations if iterations
              else 0.0)
    return SolveResult(plan=plan, pair=pair, basis=tuple(sorted(basis)),
                       iterations=iterations, duality=report,
                       cost_matrix=mat)


def solve_exact(cost_rows: Sequence[Sequence[Fraction]],
                supplies: Sequence[Fraction],
                demands: Sequence[Fraction]):
    """Exact-rational transportation solve on raw data.

    Returns (masses dict, f list, g list, iterations) with every value a
    Fraction; no tolerance enters anywhere, and f is not anchored.
    """
    a = [Fraction(x) for x in supplies]
    b = [Fraction(x) for x in demands]
    if sum(a) != sum(b):
        raise Unbalanced("exact supplies and demands differ")
    t0 = time.perf_counter()
    cost = np.array([[Fraction(c) for c in row] for row in cost_rows],
                    dtype=object)
    n, m = cost.shape
    masses, f, g, _, iterations = _solve_core(
        cost, a, b, enter_tol=Fraction(0), max_iter=200 * (n + m) * max(n, m))
    elapsed = time.perf_counter() - t0
    log.debug("solve_exact: n=%d m=%d pivots=%d %.4f s %.1f us/pivot", n, m,
              iterations, elapsed, 1e6 * elapsed / iterations if iterations
              else 0.0)
    return ({k: val for k, val in masses.items() if val > 0}, f.tolist(),
            g.tolist(), iterations)


def dual_face_oracle(plan: TransportPlan, pair: PotentialPair,
                     cost_matrix: np.ndarray) -> DualFaceReport:
    """Exact per-coordinate bounds of the dual-optimal face.

    The face is pinned by complementary slackness: f_i + g_j <= c_ij
    everywhere, with equality on the support of the optimal ``plan``.
    With f fixed to 0 at the source's ``anchor_index()``, that is a
    system of difference constraints on the node values f_i and -g_j,
    so max f_i = dist(anchor -> x_i) and min f_i = -dist(x_i -> anchor)
    on the digraph with arcs y_j -> x_i of weight c_ij and x_i -> y_j of
    weight -c_ij on the support.  The arcs are reweighted by ``pair``,
    which must be optimal for the plan: every weight becomes a slack
    >= 0, and two Dijkstra runs from the anchor, on the graph and on its
    transpose, give all bounds.  The bounds depend only on the support
    and the costs, not on which optimal pair is passed.  Coordinates a
    path cannot reach (zero-weight points) are unbounded; they are
    reported as +-inf and excluded from the spread.
    """
    if not verify_duality(plan, pair, cost_matrix).optimal:
        raise InfeasibleOptimum("the pair is not optimal for the plan")
    mat = np.asarray(cost_matrix, dtype=float)
    n, m = mat.shape
    anchor = plan.source.anchor_index()
    f = pair.f
    slack = np.maximum(mat - f[:, None] - pair.g[None, :], 0.0)
    # nodes: sources 0..n-1, targets n..n+m-1; zero weights must stay
    # stored entries, so both graphs are built from triplets directly
    src = np.repeat(np.arange(n), m)
    tgt = n + np.tile(np.arange(m), n)
    tail = np.concatenate([tgt, plan.rows])
    head = np.concatenate([src, n + plan.cols])
    weight = np.concatenate([slack.ravel(), np.zeros(len(plan.rows))])
    shape = (n + m, n + m)
    d_out = dijkstra(csr_matrix((weight, (tail, head)), shape=shape),
                     indices=anchor)[:n]
    d_in = dijkstra(csr_matrix((weight, (head, tail)), shape=shape),
                    indices=anchor)[:n]
    f_max = f - f[anchor] + d_out
    f_min = f - f[anchor] - d_in
    tau = TAU_FACE_SCALE * (1.0 + float(np.max(mat)))
    live = plan.source.weights > 0
    spreads = f_max[live] - f_min[live]
    max_spread = float(np.max(spreads)) if spreads.size else 0.0
    return DualFaceReport(f_min=f_min, f_max=f_max, anchor=anchor,
                          unique=bool(max_spread <= tau),
                          max_spread=max_spread, tolerance=tau)


def tight_graph_connectivity_oracle(result: SolveResult) -> dict:
    """Classical dual-uniqueness criterion on the tight-edge graph.

    ``tight_components`` on single points: a tight edge is usable when
    some optimal plan puts mass on it, i.e. when its ends share a
    component.  Potentials are unique up to one constant iff one
    component holds every positive-weight point.
    """
    mu, nu = result.plan.source, result.plan.target
    tight = _tight_mask(result.pair, result.cost_matrix) \
        & np.outer(mu.weights > 0, nu.weights > 0)
    labels, ti, tj = tight_components(result.plan.rows, result.plan.cols,
                                      tight, np.arange(mu.n), np.arange(nu.n))
    usable = labels[ti] == labels[mu.n + tj]
    live = np.concatenate([mu.weights, nu.weights]) > 0
    return {"unique": len(set(labels[live])) <= 1,
            "usable_edges": list(zip(ti[usable].tolist(),
                                     tj[usable].tolist()))}
