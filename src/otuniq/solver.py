"""Transportation simplex and independent dual-uniqueness oracles.

The simplex (``_transport_simplex``, run by ``_solve_core`` on the
positive-weight points) is generic over the scalar type, so the same
code runs in float mode and, on scaled integers (int64 or Python ints),
in exact mode.  Two oracles check a solved pair independently of the
block rule; ``uniqueness.cross_check`` runs both on a certificate's
solve result and compares them with its verdict:

* ``dual_face_oracle`` bounds each dual coordinate over the optimal
  face by two shortest-path runs on the n source nodes;
* ``tight_graph_connectivity_oracle`` applies the classical criterion
  on the tight-edge graph by ``core.tight_components``, the routine of
  the block rule that ``certify`` and ``exact_blocks`` share.
"""

from __future__ import annotations

import logging
import time
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .core import (
    _BLOCK,
    TAU_FACE_SCALE,
    TAU_MASS,
    CostSpec,
    DiscreteMeasure,
    DualityReport,
    PotentialPair,
    TransportPlan,
    _as_readonly,
    _checks,
    scaled_integers,
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
    """Optimal plan with its dual pair and the simplex pivot count."""

    plan: TransportPlan
    pair: PotentialPair
    iterations: int
    duality: DualityReport


@dataclass(frozen=True)
class DualFaceReport:
    """Coordinate bounds of the dual-optimal face after f(x0) = 0."""

    f_min: np.ndarray
    f_max: np.ndarray
    anchor: int
    unique: bool
    max_spread: float
    tolerance: float


#: arcs priced by one vector expression: whole rows, at least one
BLOCK_ARCS = 10_000


def _scan(cost, p, r: int, r1: int, enter_tol):
    """Price rows ``r``..``r1 - 1`` in one vector expression.

    ``p`` holds the node duals: u on the sources, -v on the targets, so
    the reduced cost ``c - u - v`` reads ``cost - p[rows] + p[targets]``.
    Returns the queue (rows, columns, reduced costs) of the rows whose
    least reduced cost is below ``-enter_tol``, each at its first argmin,
    most negative first and in row order among equals (a stable sort).
    The same expressions serve float, int64 and object arrays of Python
    ints or Fractions, which numpy evaluates entry by entry.
    """
    block = cost[r:r1] - p[r:r1, None] + p[cost.shape[0]:]
    cols = block.argmin(axis=1)
    least = block[np.arange(r1 - r), cols]
    hit = np.flatnonzero(least < -enter_tol)
    hit = hit[np.argsort(least[hit], kind="stable")]
    return hit + r, cols[hit], least[hit]


def _entering(cost, p, enter_tol):
    """Entering arcs by row-block queue pricing; ``p`` may change between
    yields.

    Blocks of ``BLOCK_ARCS // m`` rows (at least one) are scanned in
    turn, wrapping around, and the next only once the queue of the last
    (``_scan``) is used up.  Each queued arc is re-checked with the
    scalar ``cost[i, j] - p[i] + p[n + j]``, the vector's own sequence
    of operations, so float values agree bit for bit, and yielded as
    (i, j, reduced cost) while it still prices out.  The pricing ends,
    the basis optimal, once n consecutive rows queue nothing.
    """
    n, m = cost.shape
    rows = max(1, BLOCK_ARCS // m)
    r = idle = 0
    while idle < n:
        r1 = min(r + rows, n)
        queue_i, queue_j, _ = _scan(cost, p, r, r1, enter_tol)
        idle = 0 if len(queue_i) else idle + r1 - r
        r = r1 % n
        for i, j in zip(queue_i.tolist(), queue_j.tolist()):
            rc = cost.item(i, j) - p.item(i) + p.item(n + j)
            if rc < -enter_tol:
                yield i, j, rc


def _transport_simplex(cost, a, b, *, enter_tol, max_iter: int):
    """Network simplex on the complete bipartite graph.

    ``cost`` is an n x m ndarray: float, int64, or object-holding ints or
    Fractions; ``a``/``b`` are supply and demand lists of the matching
    Python scalar type.  Entering arcs come from ``_entering``.
    Nodes are sources 0..n-1 and targets n..n+m-1.  The basis is a tree
    rooted at source 0, stored as ``parent``, ``flow`` (the mass on the
    arc joining x to its parent), a preorder ``order`` of the nodes,
    each node's index ``pos`` in it and its subtree ``size``, so every
    subtree is the slice ``order[pos[x]:pos[x] + size[x]]`` (Ahuja,
    Magnanti and Orlin, Network Flows, section 11.3).  It starts as the
    northwest-corner tree.  Each pivot finds the entering arc's cycle by
    walking up to the lowest common ancestor, always from the endpoint
    with the smaller subtree (an ancestor's is strictly larger).  The
    tree is bipartite, so each walked path alternates sources and
    targets, and the arcs that lose mass are every other one from its
    start: those of the sources on the i side and of the targets on the
    j side.  The leaving arc follows the strongly-feasible-tree rule
    (Cunningham 1976): the last blocking arc met when walking the cycle
    from its apex in the entering arc's direction, that is the j side's
    last minimum, else the i side's first, which rules out cycling on
    the positive weights ``_solve_core`` passes; ``max_iter`` is a last
    guard.  The subtree cut off by the leaving arc moves under the
    entering arc as one block of ``order`` (built and moved by one
    ``np.concatenate`` and one slice assignment), and only its duals
    shift.  Which preorder the tree keeps does not change a pivot: the
    pivots read only ``parent``, ``size``, ``flow`` and the duals.
    Returns the tree's n + m - 1 arcs, one from each node but the root
    to its parent, as source and target index arrays, their masses as a
    list, u and the pivot count.
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
    iterations = 0
    for i, j, rc in _entering(cost, p, enter_tol):
        if iterations >= max_iter:
            raise SolverError(f"simplex exceeded {max_iter} pivots")
        iterations += 1
        # cycle: the tree paths from i and from target j up to their
        # lowest common ancestor
        x, y = i, n + j
        up_i, up_j = [], []
        while x != y:
            if size[x] < size[y]:
                up_i.append(x)
                x = parent[x]
            else:
                up_j.append(y)
                y = parent[y]
        # the arcs losing mass are every other one from each side's
        # start; the leaving arc is the last blocking arc from the apex:
        # the j side's last minimum, else the i side's first
        on_j = bool(up_j)
        if on_j:
            lose = [flow[x] for x in up_j[::2]]
            theta = min(lose)
            k = 2 * (len(lose) - 1 - lose[::-1].index(theta))
        if up_i:
            lose = [flow[x] for x in up_i[::2]]
            least = min(lose)
            if not on_j or least < theta:
                theta, k, on_j = least, 2 * lose.index(least), False
        if on_j:
            path, above, grow = up_j[:k + 1], up_j[k + 1:], up_i
            e_in, e_out, shift = n + j, i, -rc
        else:
            path, above, grow = up_i[:k + 1], up_i[k + 1:], up_j
            e_in, e_out, shift = i, n + j, rc
        if theta != zero:
            for x in up_i[::2]:
                flow[x] -= theta
            for x in up_i[1::2]:
                flow[x] += theta
            for x in up_j[::2]:
                flow[x] -= theta
            for x in up_j[1::2]:
                flow[x] += theta
        # the subtree T cut off by the leaving arc, re-rooted at e_in:
        # its preorder is each stem node's old block minus the block of
        # the stem node below it, two slices per stem arc (e_in's block
        # alone when the stem is the one arc); sizes on the stem are
        # suffix sums of the segment lengths
        leaving = path[-1]
        cut = size[leaving]                       # |T|
        lo = pos.item(leaving)
        first = [pos.item(x) for x in path]
        segments = [order[first[0]:first[0] + size[e_in]]]
        for k in range(1, len(path)):
            segments.append(order[first[k]:first[k - 1]])
            segments.append(order[first[k - 1] + size[path[k - 1]]:
                                  first[k] + size[path[k]]])
        stem = [cut - size[x] for x in path[:-1]]
        size[e_in] = cut
        for x, s in zip(path[1:], stem):
            size[x] = s
        # below the apex, the cycle loses |T| above the leaving arc and
        # gains it from e_out up
        for x in above:
            size[x] -= cut
        for x in grow:
            size[x] += cut
        # move T as one block to just after e_out: one concatenation of
        # T's segments and the part of ``order`` it moves past
        dst = pos.item(e_out)
        if dst < lo:
            segments.append(order[dst + 1:lo])
            lo, hi, at = dst + 1, lo + cut, 0
        else:
            segments.insert(0, order[lo + cut:dst + 1])
            hi, at = dst + 1, dst + 1 - cut - lo
        block = np.concatenate(segments)
        order[lo:hi] = block
        pos[block] = nodes[lo:hi]
        # re-hang: reverse the stem from e_in up to the leaving arc
        prev, prev_flow = e_out, theta
        for x in path:
            parent[x], prev = prev, x
            flow[x], prev_flow = prev_flow, flow[x]
        # the subtree's duals move by rc so the entering arc becomes tight
        p[block[at:at + cut]] += shift
    x, up = nodes[1:], np.array(parent)[1:]
    return (np.where(x < n, x, up), np.where(x < n, up, x) - n, flow[1:],
            p[:n], iterations)


def _solve_core(cost, a, b, *, enter_tol):
    """Optimal tree arcs with their masses, and a c-concave pair.

    The simplex runs on the positive-weight rows and columns alone, on
    ``cost`` itself when every weight is positive.  Zero-weight points
    get their potentials by c-transform (g from the positive sources,
    then f from all of g, so f = u on the positive sources) and no arc.
    Returns (sources, targets, masses, f, g, iterations): the n+ + m+ - 1
    arcs of the final basis tree on the positive-weight points, as index
    arrays in the original indices, their masses as a list, and the pair,
    after at most 50 (n + m) max(n, m) pivots; generic over the scalar
    type.
    """
    n, m = cost.shape
    rows = np.flatnonzero([x > 0 for x in a])
    cols = np.flatnonzero([x > 0 for x in b])
    live = cost if len(rows) == n else cost[rows]
    src, tgt, flows, u, iterations = _transport_simplex(
        live if len(cols) == m else live[:, cols], [a[i] for i in rows],
        [b[j] for j in cols], enter_tol=enter_tol,
        max_iter=50 * (n + m) * max(n, m))
    slack = live - u[:, None]
    g = slack.min(axis=0)
    # with every source in the tree, one n x m buffer serves both passes
    f = np.subtract(cost, g, out=slack if len(rows) == n else None).min(axis=1)
    return rows[src], cols[tgt], flows, f, g, iterations


def solve(mu: DiscreteMeasure, nu: DiscreteMeasure,
          cost: CostSpec) -> SolveResult:
    """Solve the finite transportation problem to optimality.

    The pair is c-concave (see ``_solve_core``) and normalized to f = 0
    at ``mu.anchor_index()``.  Plan arcs of mass at most tau_mass times
    the total mass are rounding residue of the pivots and are dropped.
    Deterministic for a fixed input ordering.  The cost matrix is not
    kept: a caller that needs it again builds it with ``CostSpec.matrix``
    (for an explicit cost, that returns its values).
    """
    if abs(float(mu.weights.sum()) - float(nu.weights.sum())) > TAU_MASS:
        raise Unbalanced("source and target masses differ")
    t0 = time.perf_counter()
    mat = cost.matrix(mu, nu)
    scale = float(np.max(mat))
    src, tgt, flows, f, g, iterations = _solve_core(
        np.asarray(mat, dtype=float), mu.weights.tolist(),
        nu.weights.tolist(), enter_tol=1e-12 * (1.0 + scale))
    shift = f[mu.anchor_index()]
    f, g = f - shift, g + shift
    mass = np.array(flows, dtype=float)
    keep = mass > TAU_MASS * float(mu.weights.sum())
    src, tgt, mass = src[keep], tgt[keep], mass[keep]
    order = np.lexsort((tgt, src))                   # by (i, j)
    plan = TransportPlan(src[order], tgt[order], mass[order], mu, nu)
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
    return SolveResult(plan=plan, pair=pair, iterations=iterations,
                       duality=report)


def solve_exact(cost_rows: Sequence[Sequence[Fraction]],
                supplies: Sequence[Fraction],
                demands: Sequence[Fraction],
                cost_scale: Optional[int] = None):
    """Exact-rational transportation solve on raw data.

    The simplex runs on Python ints: the weights times L, the least
    common multiple of their denominators, and the costs times K, that
    of theirs.  A caller that holds the costs as ints already passes
    them with ``cost_scale`` = K (``ProblemDocument.scaled_exact_problem``
    does).  The transportation matrix is totally unimodular, so the
    masses and duals stay integers, and positive scaling keeps the order
    and ties of flows and reduced costs: every pivot is the one the
    simplex makes on the Fractions.  The masses are Python ints; the
    costs are int64 when (2 (n + m) + 1) max |K c| < 2**63, which bounds
    every dual (a tree path of at most n + m - 1 arcs), slack and reduced
    cost the simplex forms, and Python ints in an object array otherwise.
    Both are exact, so they make the same pivots; int64 prices a block
    in machine arithmetic.  Returns (masses dict, f list, g
    list, iterations) with every value a Fraction, mass / L and dual / K;
    no tolerance enters anywhere, and f is not anchored.
    """
    n, m = len(supplies), len(demands)
    w, mass_scale = scaled_integers(list(supplies) + list(demands))
    a, b = w[:n], w[n:]
    if sum(a) != sum(b):
        raise Unbalanced("exact supplies and demands differ")
    t0 = time.perf_counter()
    if cost_scale is None:
        cost_rows, cost_scale = scaled_integers(
            [c for row in cost_rows for c in row])
    cost = np.array(cost_rows, dtype=object).reshape(n, m)
    try:
        fixed = cost.astype(np.int64)
        top = max(int(fixed.max()), -int(fixed.min()))
        if (2 * (n + m) + 1) * top < 2 ** 63:
            cost = fixed
    except OverflowError:                   # an entry outside int64
        pass
    src, tgt, flows, f, g, iterations = _solve_core(cost, a, b, enter_tol=0)
    elapsed = time.perf_counter() - t0
    log.debug("solve_exact: n=%d m=%d pivots=%d %.4f s %.1f us/pivot", n, m,
              iterations, elapsed, 1e6 * elapsed / iterations if iterations
              else 0.0)
    return ({(i, j): Fraction(x, mass_scale) for i, j, x
             in zip(src.tolist(), tgt.tolist(), flows) if x > 0},
            [Fraction(u, cost_scale) for u in f.tolist()],
            [Fraction(v, cost_scale) for v in g.tolist()], iterations)


def dual_face_oracle(plan: TransportPlan, pair: PotentialPair,
                     cost_matrix: np.ndarray) -> DualFaceReport:
    """Exact per-coordinate bounds of the dual-optimal face.

    The face is pinned by complementary slackness: f_i + g_j <= c_ij
    everywhere, with equality on the support of the optimal ``plan``.
    With f = 0 at the source's ``anchor_index()``, these are difference
    constraints: max f_i = dist(anchor -> x_i), min f_i = -dist(x_i ->
    anchor).  Reweighted by ``pair``, which must be optimal, a path
    alternates plan arcs x_i -> y_j of weight 0 and arcs y_j -> x_k of
    weight slack[k, j] >= 0, so it runs on the n sources: hop i -> k
    weighs the least slack[k, j] over i's plan columns j (bit for bit,
    as rounding a + b is monotone in b).  A source with plan arcs has a
    hop to every source, one without has none, so the hop rows of the
    plan's sources, each a ``np.minimum.reduceat`` over its gathered
    slack columns, are the data of a CSR graph, and their transpose that
    of the reverse graph.  The columns are gathered for blocks of whole
    sources, each block holding at most ``_BLOCK`` entries (or one
    source's columns, if those hold more), and reduced straight into
    the preallocated hop rows, so the slack and the hop rows are the
    memory peak.  Zero hops are stored entries, which
    ``dijkstra`` keeps as arcs.  Two Dijkstra runs from the anchor, on
    the two graphs, give all bounds, which do not depend on the pair.
    Coordinates no path reaches (zero-weight points) are +-inf, left out
    of the spread.  The optimality gate is ``verify_duality``'s test,
    ``core._checks``, on the very slack the hops read, so the oracle
    makes one n x m slack pass.
    """
    report, slack, _ = _checks(plan, pair.f, pair.g, pair.dual_value,
                               cost_matrix)
    if not report.optimal:
        raise InfeasibleOptimum("the pair is not optimal for the plan")
    n = plan.source.n
    anchor = plan.source.anchor_index()
    f = pair.f
    np.maximum(slack, 0.0, out=slack)
    order = np.argsort(plan.rows, kind="stable")
    cols = plan.cols[order]
    heads, start = np.unique(plan.rows[order], return_index=True)
    k = len(heads)
    bounds = [*start.tolist(), len(cols)]
    hop = np.empty((k, n))
    h = 0
    while h < k:
        # sources h..stop-1, whose gathered columns fit in _BLOCK entries
        lo = bounds[h]
        stop = max(h + 1, bisect_right(bounds, lo + _BLOCK // n) - 1)
        np.minimum.reduceat(slack.T[cols[lo:bounds[stop]]],
                            start[h:stop] - lo, axis=0, out=hop[h:stop])
        h = stop
    del slack
    indptr = np.searchsorted(heads, np.arange(n + 1)) * n
    graph = csr_matrix((hop.ravel(), np.tile(np.arange(n, dtype=np.int32), k),
                        indptr.astype(np.int32)), shape=(n, n))
    d_out = dijkstra(graph, indices=anchor)
    del graph
    data = hop.T.ravel()
    del hop                 # before the reverse graph's indices
    reverse = csr_matrix((data, np.tile(heads.astype(np.int32), n),
                          np.arange(0, n * k + 1, k, dtype=np.int32)),
                         shape=(n, n))
    d_in = dijkstra(reverse, indices=anchor)
    f_max = f - f[anchor] + d_out
    f_min = f - f[anchor] - d_in
    tau = TAU_FACE_SCALE * (1.0 + float(np.max(cost_matrix)))
    live = plan.source.weights > 0
    max_spread = float(np.max(f_max[live] - f_min[live]))
    return DualFaceReport(f_min=f_min, f_max=f_max, anchor=anchor,
                          unique=bool(max_spread <= tau),
                          max_spread=max_spread, tolerance=tau)


def tight_graph_connectivity_oracle(result: SolveResult) -> dict:
    """Classical dual-uniqueness criterion on the tight-edge graph.

    ``tight_components`` on single points and the tight pairs of
    ``result.duality`` between positive-weight points: a tight edge is
    usable when some optimal plan puts mass on it, i.e. when its ends
    share a component.  Potentials are unique up to one constant iff one
    component holds every positive-weight point.  The usable edges are
    read-only (rows, cols) index arrays in row-major order.
    """
    mu, nu = result.plan.source, result.plan.target
    ti, tj = result.duality.tight_pairs
    keep = (mu.weights[ti] > 0) & (nu.weights[tj] > 0)
    ti, tj = ti[keep], tj[keep]
    labels = tight_components(result.plan.rows, result.plan.cols, ti, tj,
                              np.arange(mu.n), np.arange(nu.n))
    usable = labels[ti] == labels[mu.n + tj]
    live = np.concatenate([mu.weights, nu.weights]) > 0
    return {"unique": len(set(labels[live])) <= 1,
            "usable_edges": (_as_readonly(ti[usable]),
                             _as_readonly(tj[usable]))}
