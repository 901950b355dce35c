"""Shared test utilities: brute-force oracles and instance generators."""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from otuniq.core import CostSpec, DiscreteMeasure


def enumerate_vertices(cost: np.ndarray, a: np.ndarray, b: np.ndarray):
    """All basic feasible solutions of the transportation polytope.

    Brute force over spanning-tree bases; only sane for n * m <= 12.
    Returns (best_cost, list of optimal vertex matrices).
    """
    n, m = cost.shape
    arcs = [(i, j) for i in range(n) for j in range(m)]
    assert len(arcs) <= 12, "brute force capped at 12 arcs"
    best = np.inf
    optima = []
    for basis in itertools.combinations(arcs, n + m - 1):
        x = _solve_tree(basis, a, b, n, m)
        if x is None or np.min(x) < -1e-12:
            continue
        val = float(np.sum(cost * x))
        if val < best - 1e-12:
            best = val
            optima = [x]
        elif abs(val - best) <= 1e-12:
            if not any(np.allclose(x, y, atol=1e-12) for y in optima):
                optima.append(x)
    return best, optima


def _solve_tree(basis, a, b, n, m):
    """Masses on a candidate tree basis by leaf elimination."""
    deg = {}
    for (i, j) in basis:
        deg[i] = deg.get(i, 0) + 1
        deg[n + j] = deg.get(n + j, 0) + 1
    if len(deg) != n + m:
        return None
    rem_a = np.array(a, dtype=float)
    rem_b = np.array(b, dtype=float)
    alive = set(basis)
    x = np.zeros((n, m))
    while alive:
        leaf = None
        for arc in alive:
            i, j = arc
            if deg[i] == 1 or deg[n + j] == 1:
                leaf = arc
                break
        if leaf is None:
            return None  # cycle, not a tree
        i, j = leaf
        if deg[i] == 1:
            t = rem_a[i]
        else:
            t = rem_b[j]
        x[i, j] = t
        rem_a[i] -= t
        rem_b[j] -= t
        deg[i] -= 1
        deg[n + j] -= 1
        alive.remove(leaf)
    if np.max(np.abs(rem_a)) > 1e-9 or np.max(np.abs(rem_b)) > 1e-9:
        return None
    return x


# HiGHS's default 1e-7 feasibility tolerances move face bounds by up to
# 1e-7 on costs of order 1e-8; the reference needs them tighter
HIGHS_TIGHT = {"primal_feasibility_tolerance": 1e-10,
               "dual_feasibility_tolerance": 1e-10}


def lp_face_bounds(plan, cost_matrix, anchor):
    """Bounds of each f_i over the dual-optimal face, one LP per bound.

    The reference for ``dual_face_oracle``: f_i + g_j <= c_ij on every
    pair, with equality on the plan's support and f = 0 at source point
    ``anchor``; each f_i is minimized and maximized by HiGHS.  Unbounded
    coordinates come back as +-inf.  Runs 2n LPs over n*m rows, so keep
    n + m small.
    """
    mat = np.asarray(cost_matrix, dtype=float)
    n, m = mat.shape
    rows = np.arange(n * m)
    i, j = np.divmod(rows, m)
    # row i*m + j holds f_i + g_j; variables are f (n) then g (m)
    a_ub = sp.csr_matrix((np.ones(2 * n * m), (np.concatenate([rows, rows]),
                                               np.concatenate([i, n + j]))),
                         shape=(n * m, n + m))
    a_eq = a_ub[plan.rows * m + plan.cols]
    b_eq = mat[plan.rows, plan.cols]
    bounds = [(None, None)] * (n + m)
    bounds[anchor] = (0.0, 0.0)
    f_min, f_max = np.empty(n), np.empty(n)
    for k in range(n):
        for sense, out in ((1.0, f_min), (-1.0, f_max)):
            obj = np.zeros(n + m)
            obj[k] = sense
            res = linprog(obj, A_ub=a_ub, b_ub=mat.ravel(), A_eq=a_eq,
                          b_eq=b_eq, bounds=bounds, method="highs",
                          options=HIGHS_TIGHT)
            assert res.status in (0, 3), res.message
            out[k] = -sense * np.inf if res.status == 3 else sense * res.fun
    return f_min, f_max


def direct_degeneracy(edge_masses: dict, n_source: int, n_target: int,
                      tol: float = 1e-12):
    """Literal subset-pair degeneracy test on a component flow graph.

    True iff there are nonempty proper subsets I', J' with zero plan
    mass between I' and the complement of J' and between the complement
    of I' and J', carrying total mass strictly between 0 and 1.
    """
    total = sum(edge_masses.values())
    for r in range(1, n_source + 1):
        for isub in itertools.combinations(range(n_source), r):
            for s in range(1, n_target + 1):
                for jsel in itertools.combinations(range(n_target), s):
                    if r == n_source and s == n_target:
                        continue
                    iset, jset = set(isub), set(jsel)
                    cross1 = sum(v for (i, j), v in edge_masses.items()
                                 if i in iset and j not in jset)
                    cross2 = sum(v for (i, j), v in edge_masses.items()
                                 if i not in iset and j in jset)
                    inner = sum(v for (i, j), v in edge_masses.items()
                                if i in iset and j in jset)
                    if cross1 <= tol and cross2 <= tol \
                            and tol < inner < total - tol:
                        return True, (isub, jsel)
    return False, None


QUANTUM = 2.0 ** -20


def _dyadic(w: np.ndarray, total: float) -> np.ndarray:
    """Quantize weights to multiples of 2^-20 summing exactly to total.

    Dyadic weights make every partial sum exact in floats, so block
    decoupling is knife-edge free by construction.
    """
    ticks = np.maximum(np.rint(w / QUANTUM).astype(np.int64), 1)
    want = int(round(total / QUANTUM))
    ticks[-1] += want - int(ticks.sum())
    assert np.all(ticks > 0)
    return ticks.astype(float) * QUANTUM


def random_instance(rng: np.random.Generator, kind: str = "unique",
                    max_points: int = 30, dim: int = 1,
                    p: float = 2.0, q: float = 2.0):
    """Clustered random instance with controlled dual uniqueness.

    ``unique``: component masses generically mismatched (all subset-sum
    gaps >= 1e-3), forcing cross-cluster transport and a connected plan.
    ``non_unique``: paired source/target clusters with exactly matching
    block masses, strictly separated, so blocks decouple.  All weights
    are dyadic so exact equalities survive float arithmetic.
    Returns (mu, nu, cost, epsilon, expected_unique).
    """
    cost = CostSpec.lp_norm_power(q, p)
    if kind == "non_unique":
        k = int(rng.integers(2, 5))
        centers = np.arange(k, dtype=float) * 10.0
        block = rng.dirichlet(np.ones(k) * 4.0)
        block = _dyadic(block, 1.0)
        src_pts, src_w = [], []
        tgt_pts, tgt_w = [], []
        for c, mass in zip(centers, block):
            ns = int(rng.integers(2, max(3, max_points // k)))
            nt = int(rng.integers(2, max(3, max_points // k)))
            src_pts.append(c + rng.uniform(-1, 1, size=(ns, dim)))
            tgt_pts.append(c + rng.uniform(-1, 1, size=(nt, dim)))
            ws = rng.uniform(0.5, 1.5, ns)
            wt = rng.uniform(0.5, 1.5, nt)
            src_w.append(_dyadic(mass * ws / ws.sum(), mass))
            tgt_w.append(_dyadic(mass * wt / wt.sum(), mass))
        mu = DiscreteMeasure(np.vstack(src_pts), np.concatenate(src_w))
        nu = DiscreteMeasure(np.vstack(tgt_pts), np.concatenate(tgt_w))
        return mu, nu, cost, 3.0, False
    while True:
        ks = int(rng.integers(1, 5))
        kt = int(rng.integers(1, 5))
        sm = _dyadic(rng.dirichlet(np.ones(ks) * 4.0), 1.0)
        tm = _dyadic(rng.dirichlet(np.ones(kt) * 4.0), 1.0)
        if _min_subset_gap(sm, tm) >= 1e-3:
            break
    src_pts, src_w = [], []
    for c, mass in zip(np.arange(ks) * 10.0, sm):
        ns = int(rng.integers(2, max(3, max_points // ks)))
        src_pts.append(c + rng.uniform(-1, 1, size=(ns, dim)))
        ws = rng.uniform(0.5, 1.5, ns)
        src_w.append(_dyadic(mass * ws / ws.sum(), mass))
    tgt_pts, tgt_w = [], []
    for c, mass in zip(np.arange(kt) * 10.0 + 3.0, tm):
        nt = int(rng.integers(2, max(3, max_points // kt)))
        tgt_pts.append(c + rng.uniform(-1, 1, size=(nt, dim)))
        wt = rng.uniform(0.5, 1.5, nt)
        tgt_w.append(_dyadic(mass * wt / wt.sum(), mass))
    mu = DiscreteMeasure(np.vstack(src_pts), np.concatenate(src_w))
    nu = DiscreteMeasure(np.vstack(tgt_pts), np.concatenate(tgt_w))
    return mu, nu, cost, 3.0, True


def _min_subset_gap(sm, tm) -> float:
    sums_t = sorted(sum(c) for r in range(1, len(tm))
                    for c in itertools.combinations(tm, r))
    if not sums_t:
        return np.inf
    gap = np.inf
    for r in range(1, len(sm)):
        for c in itertools.combinations(sm, r):
            s = sum(c)
            gap = min(gap, min(abs(s - t) for t in sums_t))
    return gap


def generic_instance(rng: np.random.Generator, kind: str = "unique",
                     max_points: int = 30, dim: int = 1,
                     p: float = 2.0, q: float = 2.0):
    """random_instance plus a genericity filter.

    Rejects draws whose optimal plan is internally degenerate (support
    components with fewer than a spanning tree's worth of arcs), the
    finite knife-edge this exclusion is about.  Returns the solve result
    along with the instance.
    """
    from otuniq.solver import solve

    while True:
        mu, nu, cost, eps, expect = random_instance(rng, kind, max_points,
                                                    dim, p, q)
        res = solve(mu, nu, cost)
        parent = list(range(mu.n + nu.n))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for i, j, _ in res.plan.entries:
            parent[find(i)] = find(mu.n + j)
        blocks = len({find(v) for v in range(mu.n + nu.n)})
        if len(res.plan.entries) != mu.n + nu.n - blocks:
            continue  # degenerate vertex, resample
        if expect and blocks == 1:
            return mu, nu, cost, eps, expect, res
        if not expect and blocks >= 2:
            return mu, nu, cost, eps, expect, res


def two_interval_instance(n_per_side: int = 20, mass_left: float = 0.5):
    """Discretized [0, 1] union [2, 3] self-coupled geometry."""
    pts = np.concatenate([np.linspace(0, 1, n_per_side),
                          np.linspace(2, 3, n_per_side)])[:, None]
    w = np.concatenate([
        np.full(n_per_side, mass_left / n_per_side),
        np.full(n_per_side, (1.0 - mass_left) / n_per_side)])
    return DiscreteMeasure(pts, w)
