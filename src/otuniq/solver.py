"""Transportation simplex and independent dual-uniqueness oracles.

The simplex is an incremental network simplex on the dense bipartite
graph: a northwest-corner start, a basis tree kept as parent, depth and
adjacency arrays, cycles found by a lowest-common-ancestor walk, dual
updates confined to the re-hung subtree, block-search pricing, and the
strongly-feasible-tree leaving rule against cycling.  It is generic over
the scalar type, so the same code runs in float mode and in exact
Fraction mode.  Two oracles cross-validate certificates produced
elsewhere:

* ``dual_face_oracle`` bounds each normalized dual coordinate over the
  optimal face by solving small dense LPs (scipy's HiGHS backend);
* ``tight_graph_connectivity_oracle`` applies the classical
  transportation-LP criterion on the tight-edge graph.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linprog

from .core import (
    DEFAULT_TOLERANCES,
    CostSpec,
    DiscreteMeasure,
    DualityReport,
    PotentialPair,
    Tolerances,
    TransportPlan,
    c_transform,
    component_labels,
    subdifferential_of,
    verify_duality,
)
from .errors import (
    InfeasibleOptimum,
    OTUniqError,
    SolverError,
    Unbalanced,
)

ORACLE_SIZE_CAP = 400  # n + m limit for the per-coordinate LPs

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
    cost_matrix: Optional[np.ndarray] = field(default=None, repr=False,
                                              compare=False)


@dataclass(frozen=True)
class DualFaceReport:
    """Coordinate bounds of the dual-optimal face after f(x0) = 0."""

    f_min: np.ndarray
    f_max: np.ndarray
    anchor: int
    unique: bool
    max_spread: float
    tolerance: float


def _price(cost, u, v, start: int, rows: int, enter_tol):
    """Block search for an entering arc, starting at row ``start``.

    Blocks of ``rows`` rows are scanned in turn, wrapping around; the
    most negative reduced cost of the first block holding one below
    ``-enter_tol`` wins.  Returns (i, j, reduced cost, next start row),
    or None when no arc prices out.  The same expression serves float
    arrays and object arrays of Fractions, which numpy evaluates entry
    by entry with Fraction arithmetic.
    """
    n, m = cost.shape
    r, scanned = start, 0
    while scanned < n:
        r1 = min(r + rows, n)
        block = cost[r:r1] - u[r:r1, None] - v[None, :]
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
    rooted at source 0, stored as ``parent``, ``depth`` and undirected
    adjacency sets; ``flow[x]`` is the mass on the arc joining x to its
    parent.  It starts as the northwest-corner tree.  Each pivot finds
    the entering arc's cycle by walking up to the lowest common
    ancestor, re-hangs the subtree cut off by the leaving arc from the
    entering arc, and shifts only that subtree's duals.  The leaving arc
    follows the strongly-feasible-tree rule (Cunningham 1976): the last
    blocking arc met when walking the cycle from its apex in the
    entering arc's direction, which rules out cycling when all weights
    are positive; ``max_iter`` guards the rest.
    Returns (masses dict, u, v, basis, iterations).
    """
    n, m = cost.shape
    zero = a[0] * 0
    u = np.full(n, zero, dtype=cost.dtype)
    v = np.full(m, zero, dtype=cost.dtype)
    parent = [-1] * (n + m)
    depth = [0] * (n + m)
    flow = [zero] * (n + m)
    adj = [set() for _ in range(n + m)]
    # northwest corner: a staircase path from source 0; each arc adds one
    # new node, hung from the node it shares with the previous arc, and
    # fixes that node's dual
    ra, rb = list(a), list(b)
    i = j = 0
    new = n
    while True:
        t = ra[i] if ra[i] < rb[j] else rb[j]
        old = i if new >= n else n + j
        parent[new], depth[new], flow[new] = old, depth[old] + 1, t
        adj[new].add(old)
        adj[old].add(new)
        if new >= n:
            v[j] = cost[i, j] - u[i]
        else:
            u[i] = cost[i, j] - v[j]
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
    side = math.isqrt(n * m - 1) + 1          # ceil(sqrt(n m)) arcs
    rows = -(-side // m)
    start = 0
    iterations = 0
    while True:
        entering = _price(cost, u, v, start, rows, enter_tol)
        if entering is None:
            break
        if iterations >= max_iter:
            raise SolverError(f"simplex exceeded {max_iter} pivots")
        iterations += 1
        i, j, rc, start = entering
        # cycle: the tree paths from i and from target j up to their
        # lowest common ancestor; a pred arc loses mass when it is a
        # source's on the i side or a target's on the j side
        p, q = i, n + j
        up_i, up_j = [], []
        while p != q:
            if depth[p] > depth[q]:
                up_i.append(p)
                p = parent[p]
            else:
                up_j.append(q)
                q = parent[q]
        theta = min([flow[x] for x in up_i if x < n]
                    + [flow[x] for x in up_j if x >= n])
        # last blocking arc from the apex: the j side nearest the apex,
        # else the i side nearest i
        for k in range(len(up_j) - 1, -1, -1):
            x = up_j[k]
            if x >= n and flow[x] == theta:
                path, e_in, e_out = up_j[:k + 1], n + j, i
                break
        else:
            for k, x in enumerate(up_i):
                if x < n and flow[x] == theta:
                    path, e_in, e_out = up_i[:k + 1], i, n + j
                    break
        if theta != zero:
            for x in up_i:
                flow[x] += -theta if x < n else theta
            for x in up_j:
                flow[x] += -theta if x >= n else theta
        # re-hang the cut-off subtree from the entering arc, reversing
        # the path from its endpoint e_in up to the leaving arc
        leaving = path[-1]
        cut = parent[leaving]
        adj[leaving].discard(cut)
        adj[cut].discard(leaving)
        adj[e_in].add(e_out)
        adj[e_out].add(e_in)
        prev, prev_flow = e_out, theta
        for x in path:
            parent[x], prev = prev, x
            flow[x], prev_flow = prev_flow, flow[x]
        # the subtree's duals move by rc so the entering arc becomes tight
        depth[e_in] = depth[e_out] + 1
        stack, src, tgt = [e_in], [], []
        while stack:
            x = stack.pop()
            if x < n:
                src.append(x)
            else:
                tgt.append(x - n)
            below = depth[x] + 1
            for y in adj[x]:
                if y != parent[x]:
                    depth[y] = below
                    stack.append(y)
        shift = rc if e_in < n else -rc
        u[src] += shift
        v[tgt] -= shift
    basis = [(x, parent[x] - n) if x < n else (parent[x], x - n)
             for x in range(1, n + m)]
    masses = dict(zip(basis, flow[1:]))
    return masses, u, v, basis, iterations


def solve(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec,
          tol: Tolerances = DEFAULT_TOLERANCES) -> SolveResult:
    """Solve the finite transportation problem to optimality.

    The returned pair is c-concave on the support (a final c-transform
    pass) and normalized to f = 0 at the lexicographically smallest
    source point.  Plan arcs of mass at most tau_mass times the total
    mass are rounding residue of the pivots and are dropped.
    Deterministic for a fixed input ordering.
    """
    if abs(float(mu.weights.sum()) - float(nu.weights.sum())) > tol.mass:
        raise Unbalanced("source and target masses differ")
    t0 = time.perf_counter()
    mat = cost.matrix(mu, nu)
    scale = float(np.max(mat)) if mat.size else 0.0
    enter_tol = 1e-12 * (1.0 + scale)
    max_iter = 50 * (mu.n + nu.n) * max(mu.n, nu.n)
    masses, u, _, basis, iterations = _transport_simplex(
        np.asarray(mat, dtype=float), mu.weights.tolist(),
        nu.weights.tolist(), enter_tol=enter_tol, max_iter=max_iter,
    )
    g = c_transform(u, mat, "to_target")
    f = c_transform(g, mat, "to_source")
    anchor = mu.anchor_index()
    shift = f[anchor]
    f = f - shift
    g = g + shift
    floor = tol.mass * float(mu.weights.sum())
    arcs = sorted(arc for arc, x in masses.items() if x > floor)
    plan = TransportPlan(np.array([i for i, _ in arcs], dtype=int),
                         np.array([j for _, j in arcs], dtype=int),
                         np.array([masses[arc] for arc in arcs], dtype=float),
                         mu, nu)
    pair = PotentialPair(f, g, mu, nu)
    report = verify_duality(plan, pair, mat, tol)
    if not report.optimal:
        raise SolverError(
            f"simplex terminated non-optimal: gap={report.gap:.3e}, "
            f"feasible={report.feasible}, support_tight={report.support_tight}"
        )
    log.debug("solve: n=%d m=%d pivots=%d %.4f s", mu.n, nu.n, iterations,
              time.perf_counter() - t0)
    return SolveResult(plan=plan, pair=pair, basis=tuple(sorted(basis)),
                       iterations=iterations, duality=report,
                       cost_matrix=mat)


def solve_exact(cost_rows: Sequence[Sequence[Fraction]],
                supplies: Sequence[Fraction],
                demands: Sequence[Fraction]):
    """Exact-rational transportation solve on raw data.

    Returns (masses dict, f list, g list, iterations) with every value a
    Fraction; no tolerance enters anywhere.
    """
    a = [Fraction(x) for x in supplies]
    b = [Fraction(x) for x in demands]
    if sum(a) != sum(b):
        raise Unbalanced("exact supplies and demands differ")
    t0 = time.perf_counter()
    cost = np.array([[Fraction(c) for c in row] for row in cost_rows],
                    dtype=object)
    n, m = len(a), len(b)
    masses, u, _, _, iterations = _transport_simplex(
        cost, a, b, enter_tol=Fraction(0),
        max_iter=200 * (n + m) * max(n, m),
    )
    # c-concave pass in exact arithmetic
    g = (cost - u[:, None]).min(axis=0)
    f = (cost - g[None, :]).min(axis=1)
    log.debug("solve_exact: n=%d m=%d pivots=%d %.4f s", n, m, iterations,
              time.perf_counter() - t0)
    return ({k: val for k, val in masses.items() if val > 0}, f.tolist(),
            g.tolist(), iterations)


def dual_face_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec,
                     optimum: float, plan: Optional[TransportPlan] = None,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> DualFaceReport:
    """Exact per-coordinate bounds of the dual-optimal face.

    The face is pinned by complementary slackness: dual feasibility
    everywhere plus equality on the support of an optimal plan (solved
    here when not supplied).  Each source coordinate f(x) is then
    minimized and maximized over that polytope, with f anchored to 0 at
    the lexicographically smallest source point.  A relaxed dual-value
    row would instead let near-balanced groups drift by slack over the
    cut imbalance, which is why the support equalities are used.
    Coordinates of zero-weight points may be unbounded; they are
    reported as +-inf and excluded from the spread.
    """
    n, m = mu.n, nu.n
    if n + m > ORACLE_SIZE_CAP:
        raise OTUniqError(f"oracle limited to n + m <= {ORACLE_SIZE_CAP}")
    mat = np.asarray(cost.matrix(mu, nu), dtype=float)
    scale = float(np.max(mat))
    anchor = mu.anchor_index()
    # variables: f (n) then g (m); A_ub rows: f_i + g_j <= c_ij
    a_ub = np.zeros((n * m, n + m))
    b_ub = np.zeros(n * m)
    r = 0
    for i in range(n):
        for j in range(m):
            a_ub[r, i] = 1.0
            a_ub[r, n + j] = 1.0
            b_ub[r] = mat[i, j]
            r += 1
    bounds = [(None, None)] * (n + m)
    bounds[anchor] = (0.0, 0.0)
    # validate the claimed optimum against the LP's own best dual value
    check = linprog(np.concatenate([-mu.weights, -nu.weights]),
                    A_ub=a_ub, b_ub=b_ub, bounds=bounds,
                    method="highs")
    if check.status != 0:
        raise SolverError(f"optimum-validation LP failed: {check.message}")
    best = -check.fun
    if abs(best - optimum) > tol.gap * (1.0 + abs(optimum)):
        raise InfeasibleOptimum(
            f"claimed optimum {optimum!r} differs from the dual maximum "
            f"{best!r}"
        )
    if plan is None:
        plan = solve(mu, nu, cost, tol).plan
    support = sorted(plan.support_pairs())
    a_eq = np.zeros((len(support), n + m))
    b_eq = np.zeros(len(support))
    for r, (i, j) in enumerate(support):
        a_eq[r, i] = 1.0
        a_eq[r, n + j] = 1.0
        b_eq[r] = mat[i, j]
    f_min = np.empty(n)
    f_max = np.empty(n)
    for i in range(n):
        for sense, store in ((1.0, f_min), (-1.0, f_max)):
            if i == anchor:
                store[i] = 0.0
                continue
            obj = np.zeros(n + m)
            obj[i] = sense
            res = linprog(obj, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                          bounds=bounds, method="highs")
            if res.status == 2:
                raise InfeasibleOptimum(
                    "no dual-feasible pair attains the claimed optimum"
                )
            if res.status == 3:
                store[i] = -np.inf if sense > 0 else np.inf
            elif res.status != 0:
                raise SolverError(f"face LP failed: {res.message}")
            else:
                store[i] = sense * res.fun
    tau = tol.face(scale)
    live = mu.weights > 0
    spreads = f_max[live] - f_min[live]
    max_spread = float(np.max(spreads)) if spreads.size else 0.0
    return DualFaceReport(f_min=f_min, f_max=f_max, anchor=anchor,
                          unique=bool(max_spread <= tau),
                          max_spread=max_spread, tolerance=tau)


def tight_graph_connectivity_oracle(result: SolveResult, cost: CostSpec,
                                    tol: Tolerances = DEFAULT_TOLERANCES
                                    ) -> dict:
    """Classical dual-uniqueness criterion on the tight-edge graph.

    A tight edge is usable when some feasible transport supported on the
    tight set puts positive mass on it; equivalently, when the edge lies
    on a cycle of the residual graph of the optimal plan restricted to
    tight edges.  Potentials are unique up to one constant iff the
    usable-edge bipartite graph connects all positive-weight points.
    """
    mu, nu = result.plan.source, result.plan.target
    mat = result.cost_matrix if result.cost_matrix is not None \
        else cost.matrix(mu, nu)
    sub = subdifferential_of(result.pair, mat, tol)
    n, m = mu.n, nu.n
    positive = result.plan.support_pairs()
    # digraph on n + m nodes: i -> n+j for every tight edge, the reverse
    # arc only where the plan carries mass
    arcs = [(i, n + j) for (i, j) in sub.tight_pairs] + \
        [(n + j, i) for (i, j) in sub.tight_pairs if (i, j) in positive]
    comp = component_labels(n + m, arcs, strong=True)
    usable = sorted(
        (i, j) for (i, j) in sub.tight_pairs
        if (i, j) in positive or comp[i] == comp[n + j]
    )
    blocks = component_labels(n + m, [(i, n + j) for (i, j) in usable])
    live = np.concatenate([mu.weights, nu.weights]) > 0
    return {"unique": len(set(blocks[live])) <= 1, "usable_edges": usable}
