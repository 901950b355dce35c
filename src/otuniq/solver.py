"""Transportation simplex and independent dual-uniqueness oracles.

The simplex is a plain network simplex on the dense bipartite graph with a
northwest-corner start and Bland's pivot rule.  It is generic over the
scalar type, so the same code runs in float mode and in exact Fraction
mode.  Two oracles cross-validate certificates produced elsewhere:

* ``dual_face_oracle`` bounds each normalized dual coordinate over the
  optimal face by solving small dense LPs (scipy's HiGHS backend);
* ``tight_graph_connectivity_oracle`` applies the classical
  transportation-LP criterion on the tight-edge graph.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class SolveResult:
    """Optimal plan with its dual pair and the simplex basis tree."""

    plan: TransportPlan
    pair: PotentialPair
    basis: tuple  # (i, j) arcs, n + m - 1 of them, covering supp plan
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


def _northwest_corner(a: list, b: list):
    """Initial spanning-tree basis via the northwest-corner rule."""
    n, m = len(a), len(b)
    ra, rb = list(a), list(b)
    basis = []
    masses = {}
    i = j = 0
    while True:
        t = ra[i] if ra[i] < rb[j] else rb[j]
        basis.append((i, j))
        masses[(i, j)] = t
        ra[i] -= t
        rb[j] -= t
        if i == n - 1 and j == m - 1:
            break
        if ra[i] == 0 and i < n - 1:
            i += 1
        else:
            j += 1
    return basis, masses


def _tree_duals(basis, cost, n: int, m: int, zero):
    """Dual values from the basis tree, rooted at source 0 with u0 = 0."""
    adj = [[] for _ in range(n + m)]
    for (i, j) in basis:
        adj[i].append(n + j)
        adj[n + j].append(i)
    pot = [None] * (n + m)
    pot[0] = zero
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if pot[w] is None:
                if w >= n:
                    pot[w] = cost[v][w - n] - pot[v]
                else:
                    pot[w] = cost[w][v - n] - pot[v]
                stack.append(w)
    if any(p is None for p in pot):
        raise SolverError("basis does not span the bipartite node set")
    return pot[:n], pot[n:]


def _tree_path(basis, start: int, goal: int, n: int):
    """Node path between two tree nodes (sources < n, targets >= n)."""
    adj = {}
    for (i, j) in basis:
        adj.setdefault(i, []).append(n + j)
        adj.setdefault(n + j, []).append(i)
    parent = {start: None}
    stack = [start]
    while stack:
        v = stack.pop()
        if v == goal:
            break
        for w in adj.get(v, ()):
            if w not in parent:
                parent[w] = v
                stack.append(w)
    if goal not in parent:
        raise SolverError("entering arc endpoints not connected in basis")
    path = [goal]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _transport_simplex(cost, a, b, *, zero, enter_tol, max_iter: int):
    """Generic transportation simplex.

    ``cost`` is an indexable n x m table, ``a``/``b`` supply and demand
    lists of a common scalar type, ``zero`` that type's zero.  Returns
    (masses dict, u, v, basis, iterations).
    """
    n, m = len(a), len(b)
    basis, masses = _northwest_corner(a, b)
    in_basis = set(basis)
    iterations = 0
    while True:
        if iterations > max_iter:
            raise SolverError(f"simplex exceeded {max_iter} pivots")
        u, v = _tree_duals(basis, cost, n, m, zero)
        entering = None
        for i in range(n):
            ui = u[i]
            row = cost[i]
            for j in range(m):
                if (i, j) in in_basis:
                    continue
                if row[j] - ui - v[j] < -enter_tol:
                    entering = (i, j)
                    break
            if entering is not None:
                break
        if entering is None:
            return masses, u, v, basis, iterations
        iterations += 1
        ei, ej = entering
        path = _tree_path(basis, ei, n + ej, n)
        # arcs along the path alternate sign; the one sharing row ei with
        # the entering arc is a minus arc
        minus, plus = [], []
        for k in range(len(path) - 1):
            p, q = path[k], path[k + 1]
            arc = (p, q - n) if p < n else (q, p - n)
            (minus if k % 2 == 0 else plus).append(arc)
        theta = min(masses[arc] for arc in minus)
        leaving = min(arc for arc in minus if masses[arc] == theta)
        for arc in minus:
            masses[arc] -= theta
        for arc in plus:
            masses[arc] += theta
        masses[entering] = theta
        del masses[leaving]
        in_basis.remove(leaving)
        in_basis.add(entering)
        basis[basis.index(leaving)] = entering


def solve(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec,
          tol: Tolerances = DEFAULT_TOLERANCES) -> SolveResult:
    """Solve the finite transportation problem to optimality.

    The returned pair is c-concave on the support (a final c-transform
    pass) and normalized to f = 0 at the lexicographically smallest
    source point.  Deterministic for a fixed input ordering.
    """
    if abs(float(mu.weights.sum()) - float(nu.weights.sum())) > tol.mass:
        raise Unbalanced("source and target masses differ")
    mat = cost.matrix(mu, nu)
    scale = float(np.max(mat)) if mat.size else 0.0
    enter_tol = 1e-12 * (1.0 + scale)
    max_iter = 50 * (mu.n + nu.n) * max(mu.n, nu.n)
    masses, u, v, basis, iterations = _transport_simplex(
        mat.tolist(), mu.weights.tolist(), nu.weights.tolist(),
        zero=0.0, enter_tol=enter_tol, max_iter=max_iter,
    )
    f = np.array(u, dtype=float)
    g = c_transform(f, mat, "to_target")
    f = c_transform(g, mat, "to_source")
    anchor = mu.anchor_index()
    shift = f[anchor]
    f = f - shift
    g = g + shift
    rows = [i for (i, j) in sorted(masses) if masses[(i, j)] > 0]
    cols = [j for (i, j) in sorted(masses) if masses[(i, j)] > 0]
    vals = [masses[(i, j)] for (i, j) in sorted(masses) if masses[(i, j)] > 0]
    plan = TransportPlan(np.array(rows, dtype=int), np.array(cols, dtype=int),
                         np.array(vals, dtype=float), mu, nu)
    pair = PotentialPair(f, g, mu, nu)
    report = verify_duality(plan, pair, mat, tol)
    if not report.optimal:
        raise SolverError(
            f"simplex terminated non-optimal: gap={report.gap:.3e}, "
            f"feasible={report.feasible}, support_tight={report.support_tight}"
        )
    return SolveResult(plan=plan, pair=pair, basis=tuple(sorted(basis)),
                       iterations=iterations, duality=report)


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
    cost = [[Fraction(c) for c in row] for row in cost_rows]
    n, m = len(a), len(b)
    masses, u, v, _, iterations = _transport_simplex(
        cost, a, b, zero=Fraction(0), enter_tol=Fraction(0),
        max_iter=200 * (n + m) * max(n, m),
    )
    # c-concave pass in exact arithmetic
    g = [min(cost[i][j] - u[i] for i in range(n)) for j in range(m)]
    f = [min(cost[i][j] - g[j] for j in range(m)) for i in range(n)]
    return {k: val for k, val in masses.items() if val > 0}, f, g, iterations


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
    mat = cost.matrix(mu, nu)
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
