"""Transportation simplex and the two dual-uniqueness oracles."""

import hashlib
import itertools
import logging
import math
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from otuniq import solver
from otuniq.core import (
    CostSpec,
    DiscreteMeasure,
    PotentialPair,
    TransportPlan,
    scaled_integers,
    verify_duality,
)
from otuniq.decompose import ComponentDecomposition
from otuniq.errors import DimensionMismatch, InfeasibleOptimum, Unbalanced
from otuniq.solver import (
    _entering,
    _scan,
    _solve_core,
    dual_face_oracle,
    solve,
    solve_exact,
    tight_graph_connectivity_oracle,
)
from otuniq.uniqueness import certify

from helpers import (
    assert_tight_tree,
    dense_face_bounds,
    enumerate_vertices,
    float_core,
    lp_face_bounds,
    random_instance,
)


class TestSolve:
    def test_single_point_identity(self):
        mu = DiscreteMeasure(np.array([[1.0]]), np.array([1.0]))
        res = solve(mu, mu, CostSpec.sq_euclidean())
        assert res.duality.primal_cost == 0.0
        assert res.pair.f[0] == 0.0  # anchored

    def test_two_by_two_hand_solved(self):
        mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        cost = CostSpec.explicit([[0.0, 2.0], [3.0, 1.0]])
        res = solve(mu, mu, cost)
        # the 2x2 Birkhoff polytope has two vertices: diagonal costs
        # 0.5 * (0 + 1), anti-diagonal 0.5 * (2 + 3)
        assert res.duality.primal_cost == pytest.approx(0.5)
        assert res.plan.support_pairs() == {(0, 0), (1, 1)}

    def test_self_coupling_metric_cost_is_free(self):
        pts = np.concatenate([np.linspace(0, 1, 20),
                              np.linspace(2, 3, 20)])[:, None]
        mu = DiscreteMeasure(pts, np.full(40, 1 / 40))
        res = solve(mu, mu, CostSpec.lp_norm_power(2.0, 1.0))
        assert res.duality.primal_cost == pytest.approx(0.0, abs=1e-12)
        assert res.plan.support_pairs() == {(i, i) for i in range(40)}

    def test_unbalanced_rejected(self):
        mu = DiscreteMeasure(np.array([[0.0]]), np.array([1.0]))
        bad = DiscreteMeasure.__new__(DiscreteMeasure)
        object.__setattr__(bad, "points", np.array([[1.0]]))
        object.__setattr__(bad, "weights", np.array([0.5]))
        object.__setattr__(bad, "labels", None)
        with pytest.raises(Unbalanced):
            solve(mu, bad, CostSpec.sq_euclidean())

    def test_trailing_zero_weight_source(self):
        # float rounding leaves source mass over once the last target is
        # filled, before the zero-weight last source is reached
        mu = DiscreteMeasure(np.arange(5.0)[:, None],
                             np.array([9, 8, 1, 2, 0]) / 20)
        nu = DiscreteMeasure(np.arange(4.0)[:, None] + 0.5,
                             np.array([8, 1, 9, 8]) / 26)
        cost = CostSpec.sq_euclidean()
        res = solve(mu, nu, cost)
        assert res.duality.optimal
        src, tgt, *_ = float_core(mu, nu, cost)
        assert len(src) == 4 + 4 - 1
        tight = set(zip(*res.duality.tight_pairs))
        assert_tight_tree(src, tgt, mu.weights, nu.weights,
                          lambda i, j: (i, j) in tight,
                          res.plan.support_pairs())

    def test_basis_is_spanning_tree_covering_support(self):
        rng = np.random.default_rng(10)
        mu = DiscreteMeasure(rng.uniform(0, 1, (6, 1)),
                             rng.dirichlet(np.ones(6)))
        nu = DiscreteMeasure(rng.uniform(0, 1, (5, 1)),
                             rng.dirichlet(np.ones(5)))
        cost = CostSpec.sq_euclidean()
        res = solve(mu, nu, cost)
        src, tgt, *_ = float_core(mu, nu, cost)
        assert len(src) == 6 + 5 - 1
        tight = set(zip(*res.duality.tight_pairs))
        assert_tight_tree(src, tgt, mu.weights, nu.weights,
                          lambda i, j: (i, j) in tight,
                          res.plan.support_pairs())

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_vertices(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, m = [(2, 6), (3, 4), (2, 5), (3, 3)][seed % 4]
        mu = DiscreteMeasure(rng.uniform(0, 1, (n, 1)),
                             rng.dirichlet(np.ones(n)))
        nu = DiscreteMeasure(rng.uniform(0, 1, (m, 1)),
                             rng.dirichlet(np.ones(m)))
        cost = CostSpec.explicit(rng.uniform(0, 10, size=(n, m)))
        res = solve(mu, nu, cost)
        best, optima = enumerate_vertices(np.asarray(cost.values),
                                          mu.weights, nu.weights)
        assert res.duality.primal_cost == pytest.approx(best, abs=1e-9)

    def test_debug_log_reports_size_and_pivots(self, caplog):
        rng = np.random.default_rng(16)
        mu = DiscreteMeasure(rng.uniform(0, 1, (7, 2)), np.full(7, 1 / 7))
        nu = DiscreteMeasure(rng.uniform(0, 1, (5, 2)), np.full(5, 1 / 5))
        with caplog.at_level(logging.DEBUG, logger="otuniq"):
            res = solve(mu, nu, CostSpec.sq_euclidean())
            corner = CostSpec.sq_euclidean().matrix(mu, nu)[:3, :3].tolist()
            exact_pivots = solve_exact(corner, [Fraction(1, 3)] * 3,
                                       [Fraction(1, 3)] * 3)[3]
        lines = [r.getMessage() for r in caplog.records]
        assert res.iterations > 0 and exact_pivots > 0
        for head, pivots in (("solve: n=7 m=5 ", res.iterations),
                             ("solve_exact: n=3 m=3 ", exact_pivots)):
            pattern = re.escape(head) + r"pivots=(\d+) ([0-9.]+) s " \
                r"([0-9.]+) us/pivot"
            hit = next(h for h in map(re.compile(pattern).fullmatch, lines)
                       if h)
            assert int(hit[1]) == pivots
            # seconds and us/pivot agree up to their printed rounding
            assert abs(float(hit[3]) * pivots * 1e-6 - float(hit[2])) \
                <= 5e-5 + pivots * 5e-8

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        mu = DiscreteMeasure(rng.uniform(0, 1, (8, 2)),
                             rng.dirichlet(np.ones(8)))
        nu = DiscreteMeasure(rng.uniform(0, 1, (9, 2)),
                             rng.dirichlet(np.ones(9)))
        cost = CostSpec.lp_norm_power(1.0, 2.0)
        r1 = solve(mu, nu, cost)
        r2 = solve(mu, nu, cost)
        assert np.array_equal(r1.pair.f, r2.pair.f)
        assert r1.plan.entries == r2.plan.entries


def _pinned_instances():
    """The float instances whose pivot sequence is pinned: uniform 2-d,
    a clustered ladder-like pair, all-ones, a zero-weight-padded one, a
    tall one priced in blocks of several rows and a 100 x 100 ladder
    instance.  Yields (name, mu, nu, cost)."""
    rng = np.random.default_rng(1001)
    yield ("uniform 2-d n=60",
           DiscreteMeasure(rng.uniform(0, 1, (60, 2)), np.full(60, 1 / 60)),
           DiscreteMeasure(rng.uniform(0, 1, (60, 2)), np.full(60, 1 / 60)),
           CostSpec.sq_euclidean())
    rng = np.random.default_rng(1002)
    lattice = np.stack(np.meshgrid(np.arange(5.0), np.arange(2.0)),
                       axis=-1).reshape(-1, 2) * 0.5
    sides = []
    for _ in range(2):
        pts = np.concatenate([10.0 * k * np.array([1.0, 0.0]) + lattice
                              + rng.uniform(-0.1, 0.1, lattice.shape)
                              for k in range(4)])
        ticks = rng.uniform(0.8, 1.2, 40) \
            * rng.uniform(0.8, 1.2, 4).repeat(10)
        w = np.round(ticks / ticks.sum() * 2.0 ** 20) / 2.0 ** 20
        w[-1] = 1.0 - w[:-1].sum()
        sides.append(DiscreteMeasure(pts, w))
    yield ("clustered n=40", *sides, CostSpec.sq_euclidean())
    ones = DiscreteMeasure(np.arange(8.0)[:, None], np.full(8, 1 / 8))
    yield "all-ones 8x8", ones, ones, CostSpec.explicit(np.ones((8, 8)))
    rng = np.random.default_rng(1003)
    a = np.array([3, 0, 1, 2, 0, 4, 1, 0, 2, 3]) / 16
    b = np.array([0, 2, 5, 1, 0, 3, 4, 1]) / 16
    yield ("zero-weight padded 10x8",
           DiscreteMeasure(rng.uniform(0, 1, (10, 2)), a),
           DiscreteMeasure(rng.uniform(0, 1, (8, 2)), b),
           CostSpec.sq_euclidean())
    rng = np.random.default_rng(1005)
    yield ("tall 30x7",
           DiscreteMeasure(rng.uniform(0, 1, (30, 2)),
                           rng.dirichlet(np.ones(30))),
           DiscreteMeasure(rng.uniform(0, 1, (7, 2)),
                           rng.dirichlet(np.ones(7))),
           CostSpec.sq_euclidean())
    rng = np.random.default_rng(1006)
    axis = np.linspace(-1.0, 1.0, 5)
    lattice = np.stack(np.meshgrid(axis, axis, indexing="ij"),
                       axis=-1).reshape(-1, 2)
    sides = []
    for offset, masses in ((0.0, [0.22, 0.31, 0.17, 0.30]),
                           (3.0, [0.27, 0.19, 0.33, 0.21])):
        pts = np.concatenate([lattice + [10.0 * k + offset, 0.0]
                              + rng.uniform(-0.05, 0.05, lattice.shape)
                              for k in range(4)])
        ticks = rng.uniform(0.8, 1.2, (4, 25))
        ticks = (ticks / ticks.sum(axis=1, keepdims=True)
                 * np.array(masses)[:, None]).ravel()
        w = np.round(ticks * 2.0 ** 20) / 2.0 ** 20
        w[-1] = 1.0 - w[:-1].sum()
        sides.append(DiscreteMeasure(pts, w))
    yield ("clustered ladder n=100", *sides, CostSpec.sq_euclidean())
    rng = np.random.default_rng(1008)
    yield ("tall 150x90",
           DiscreteMeasure(rng.uniform(0, 1, (150, 2)),
                           rng.dirichlet(np.ones(150))),
           DiscreteMeasure(rng.uniform(0, 1, (90, 2)),
                           rng.dirichlet(np.ones(90))),
           CostSpec.sq_euclidean())
    rng = np.random.default_rng(1009)
    yield ("wide 30x1200",
           DiscreteMeasure(rng.uniform(0, 1, (30, 2)),
                           rng.dirichlet(np.ones(30))),
           DiscreteMeasure(rng.uniform(0, 1, (1200, 2)),
                           rng.dirichlet(np.ones(1200))),
           CostSpec.sq_euclidean())


def _digest(core, masses, f, g) -> str:
    """SHA-256 of the exact values: the tree arcs of the ``_solve_core``
    result ``core``, then floats by ``float.hex``, Fractions as ``p/q``."""
    def text(x):
        return x.hex() if isinstance(x, float) else str(x)
    parts = [repr(sorted(zip(core[0].tolist(), core[1].tolist())))]
    parts += [f"{i},{j}:{text(x)}" for (i, j), x in sorted(masses.items())]
    parts += [text(x) for x in list(f) + list(g)]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _pinned_exact_instance():
    """10 x 10 integer costs 0..4 with rational weights, many ties."""
    rng = np.random.default_rng(1004)
    cost = [[Fraction(int(c)) for c in row]
            for row in rng.integers(0, 5, (10, 10))]
    a = [Fraction(t, 30) for t in (1, 2, 3, 4, 5, 1, 2, 3, 4, 5)]
    b = [Fraction(1, 10)] * 10
    return cost, a, b


def _pinned_rational_instance():
    """22 x 22 rational costs over denominators 1..6 and rational
    weights over distinct denominators."""
    rng = np.random.default_rng(1007)
    cost = [[Fraction(int(c), int(d)) for c, d in zip(row, dens)]
            for row, dens in zip(rng.integers(0, 40, (22, 22)),
                                 rng.integers(1, 7, (22, 22)))]

    def weights():
        w = [Fraction(int(t), int(d)) for t, d
             in zip(rng.integers(1, 20, 22), rng.integers(1, 9, 22))]
        return [x / sum(w) for x in w]

    return cost, weights(), weights()


class TestPivotSequencePinned:
    """Pivot count, basis tree (``_solve_core``'s arcs), plan and pair of
    fixed instances, pinned bit for bit: a change to how the simplex
    stores its basis tree must leave every pivot where it was.  Values
    recorded under row-block queue pricing (``solver.BLOCK_ARCS`` arcs a
    block); each optimum is checked against HiGHS by
    ``test_float_optimum_matches_highs``."""

    PINNED = {
        "uniform 2-d n=60": (577, "8b4a97f7df80e2f8a372de70dcbb9a1d"
                                  "ae48a320a15b28227fbfab82f78eec1a"),
        "clustered n=40": (70, "105f7af1bd61eaf205ad411c36bb5625"
                               "9215a5197899254801bf870b1c9825f0"),
        "all-ones 8x8": (0, "16dbca16f55fd3a404ffe7d87472f3b3"
                            "21086c84e7bd4315b020dd5a480685e3"),
        "zero-weight padded 10x8": (8, "d91a6919069e6f9f6918dfbfaaf411cd"
                                       "8bc04a1808c1b99349c35e13f8a562c8"),
        "tall 30x7": (36, "0809ddd3d72f175cc1ce3e721eaec7d9"
                          "b236ad69cc0932c528b2ad57c6a1ca40"),
        "clustered ladder n=100": (287, "0edc6104814424c7f7748c258579e12c"
                                        "43d52673f4a25c95dc5111169222e8e2"),
        # two blocks of 111 and 39 rows, and four of 8, 8, 8 and 6
        # rows, scanned in turn and wrapping
        "tall 150x90": (1041, "061bcdf2a5086aaab84e24f35cc6cf8b"
                                "c982167c4535649b758f4f1d375bcaf3"),
        "wide 30x1200": (3430, "544febd1d4a0da4448f1ff99519b2bf3"
                                "3ba906a3a720922b6273ae8bc651d9c4"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_float(self, name):
        mu, nu, cost = next((mu, nu, cost) for key, mu, nu, cost
                            in _pinned_instances() if key == name)
        res = solve(mu, nu, cost)
        core = float_core(mu, nu, cost)
        assert core[5] == res.iterations
        masses = {(int(i), int(j)): float(x) for i, j, x in res.plan.entries}
        assert (res.iterations, _digest(core, masses, res.pair.f.tolist(),
                                        res.pair.g.tolist())) \
            == self.PINNED[name]

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_float_optimum_matches_highs(self, name):
        mu, nu, cost = next((mu, nu, cost) for key, mu, nu, cost
                            in _pinned_instances() if key == name)
        res = solve(mu, nu, cost)
        highs = _highs_optimum(cost.matrix(mu, nu), mu.weights, nu.weights)
        assert abs(res.duality.primal_cost - highs) <= res.duality.tolerance

    def test_exact(self):
        cost, a, b = _pinned_exact_instance()
        masses, f, g, iterations = solve_exact(cost, a, b)
        core = _solve_core(np.array(cost, dtype=object), a, b,
                           enter_tol=Fraction(0))
        assert iterations == 32
        assert _digest(core, masses, f, g) \
            == ("293ae815b1c373a4cceeeb0145b966fc"
                "eab00986e3bdc8c48c9d9addccfd42f5")

    def test_exact_rational(self):
        cost, a, b = _pinned_rational_instance()
        masses, f, g, iterations = solve_exact(cost, a, b)
        core = _solve_core(np.array(cost, dtype=object), a, b,
                           enter_tol=Fraction(0))
        assert iterations == 96
        assert _digest(core, masses, f, g) \
            == ("c4ff3b030dc9252eda2ba874c6394806"
                "d9634f5b4f8f2d94af4dd6024fab40ce")


SCAN_SHAPES = [(1, 1), (1, 6), (7, 1), (4, 9), (7, 7), (11, 3), (13, 4)]


def _scan_cases():
    """Derandomized pricing inputs: (cost, p, enter_tol).

    Per shape, float, int64 and object-int arrays; costs drawn from a
    few integers (many tied reduced costs) or from a wide range; duals
    random, or the row minima (no arc prices out); tolerances 0, 0.5
    and 1e-12."""
    rng = np.random.default_rng(1010)
    for n, m in SCAN_SHAPES:
        for tied in (True, False):
            cost = rng.integers(0, 4, (n, m)) if tied \
                else rng.integers(0, 1000, (n, m))
            for duals in ("random", "row minima"):
                if duals == "random":
                    p = rng.integers(-3, 4, n + m) if tied \
                        else rng.integers(-500, 500, n + m)
                else:
                    p = np.concatenate([cost.min(axis=1), np.zeros(m, int)])
                arrays = [
                    (cost.astype(np.int64), p.astype(np.int64)),
                    (np.array(cost.tolist(), dtype=object),
                     np.array(p.tolist(), dtype=object)),
                    (cost.astype(float), p.astype(float)) if tied
                    else (cost / 7.0 + rng.uniform(0, 1e-3, (n, m)),
                          p / 7.0)]
                for c, q in arrays:
                    for tol in (0, 0.5, 1e-12):
                        yield c, q, tol


def _plain_queue(cost, p, r: int, r1: int, tol):
    """The queue of rows r..r1-1, entry by entry: each row's least
    reduced cost and its first argmin, rows below -tol by that value,
    ties in row order."""
    n, m = cost.shape
    rows = []
    for i in range(r, r1):
        values = [cost[i, j] - p[i] + p[n + j] for j in range(m)]
        least = min(values)
        if least < -tol:
            rows.append((least, i, values.index(least)))
    rows.sort(key=lambda t: (t[0], t[1]))
    return [(i, j, v) for v, i, j in rows]


def _key(value):
    """A scalar of any of the three dtypes, floats by ``float.hex``."""
    value = value.item() if isinstance(value, np.generic) else value
    return value.hex() if isinstance(value, float) else value


class TestBlockScan:
    """``_scan`` against a row-by-row reference; ``_entering``'s scalar
    re-check against the vector entry, bit for bit."""

    def test_scan_matches_plain_rows(self):
        cases = queued = 0
        for cost, p, tol in _scan_cases():
            n = cost.shape[0]
            for r in range(n):
                for r1 in sorted({r + 1, min(r + 2, n), n}):
                    qi, qj, least = _scan(cost, p, r, r1, tol)
                    got = [(i, j, _key(v)) for i, j, v
                           in zip(qi.tolist(), qj.tolist(), least)]
                    want = [(i, j, _key(v)) for i, j, v
                            in _plain_queue(cost, p, r, r1, tol)]
                    assert got == want, (cost.dtype, cost.shape, r, r1, tol)
                    cases += 1
                    queued += bool(got)
        assert 0 < queued < cases

    def test_recheck_equals_vector_entry(self):
        for cost, p, tol in _scan_cases():
            qi, qj, least = _scan(cost, p, 0, cost.shape[0], tol)
            # every shape here fits one block: with the duals unchanged,
            # the first len(qi) yields are that block's queue, and the
            # pricing ends at once when the queue is empty
            got = list(itertools.islice(_entering(cost, p, tol), len(qi)))
            assert [(i, j, _key(rc)) for i, j, rc in got] \
                == [(i, j, _key(v))
                    for i, j, v in zip(qi.tolist(), qj.tolist(), least)]
            assert all(type(rc) in (float, int) for _, _, rc in got)
            if not len(qi):
                assert list(_entering(cost, p, tol)) == []


def _highs_optimum(cost: np.ndarray, a, b) -> float:
    n, m = cost.shape
    rows = sp.kron(sp.eye(n), np.ones((1, m)))
    cols = sp.kron(np.ones((1, n)), sp.eye(m))
    res = linprog(cost.ravel(), A_eq=sp.vstack([rows, cols]).tocsr(),
                  b_eq=np.concatenate([a, b]), bounds=(0, None),
                  method="highs")
    assert res.status == 0
    return float(res.fun)


def _dyadic_ties(rng, k: int) -> list:
    """k masses from {1, 2, 4} / 2^p summing to one, with many ties."""
    ticks = rng.choice([1, 2, 4], size=k)
    total = int(ticks.sum())
    pad = 1 << (total - 1).bit_length()      # next power of two
    ticks[-1] += pad - total
    return [Fraction(int(t), pad) for t in ticks]


class TestDegenerateDifferential:
    """The pivoting simplex on degenerate inputs: the float optimum must
    equal the exact and the HiGHS optimum, the pivots must stop well
    short of the cycling guard, and the basis (``_solve_core``'s arcs)
    must stay a tight spanning tree of the positive-weight points that
    covers the plan."""

    @staticmethod
    def _check(cost: np.ndarray, a: list, b: list):
        n, m = cost.shape
        mu = DiscreteMeasure(np.arange(n, dtype=float)[:, None],
                             np.array([float(x) for x in a]))
        nu = DiscreteMeasure(np.arange(m, dtype=float)[:, None],
                             np.array([float(x) for x in b]))
        res = solve(mu, nu, CostSpec.explicit(cost.astype(float)))
        masses, _, _, exact_pivots = solve_exact(
            [[Fraction(int(c)) for c in row] for row in cost], a, b)
        exact = sum(int(cost[i, j]) * x for (i, j), x in masses.items())
        highs = _highs_optimum(cost.astype(float), mu.weights, nu.weights)
        assert res.duality.primal_cost == pytest.approx(float(exact),
                                                        abs=1e-12)
        assert highs == pytest.approx(float(exact), abs=1e-9)
        assert res.iterations < 50 * (n + m) * max(n, m)
        assert exact_pivots < 200 * (n + m) * max(n, m)
        src, tgt, *_, core_pivots = float_core(
            mu, nu, CostSpec.explicit(cost.astype(float)))
        assert core_pivots == res.iterations
        tight = set(zip(*res.duality.tight_pairs))
        assert_tight_tree(src, tgt, a, b, lambda i, j: (i, j) in tight,
                          res.plan.support_pairs())

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 13])
    def test_all_ones(self, k):
        self._check(np.ones((k, k), dtype=int),
                    [Fraction(1, k)] * k, [Fraction(1, k)] * k)

    @pytest.mark.parametrize("seed", range(4))
    def test_integer_assignment(self, seed):
        rng = np.random.default_rng(300 + seed)
        cost = rng.integers(0, 4 if seed % 2 else 50, size=(30, 30))
        self._check(cost, [Fraction(1, 30)] * 30, [Fraction(1, 30)] * 30)

    @pytest.mark.parametrize("seed", range(6))
    def test_dyadic_tied_masses(self, seed):
        rng = np.random.default_rng(400 + seed)
        n, m = int(rng.integers(3, 12)), int(rng.integers(3, 12))
        cost = rng.integers(0, 3, size=(n, m))
        self._check(cost, _dyadic_ties(rng, n), _dyadic_ties(rng, m))


class TestRoundingResidue:
    """Float pivots can leave ~1e-17 of mass on an arc between two exactly
    balanced groups; 9/20 = 8/20 + 1/20 holds in rationals but not in
    binary floating point.  Such an arc would join the two blocks of the
    flow graph and hide the second optimal pair."""

    @staticmethod
    def _instance():
        mu = DiscreteMeasure(np.array([[0.0, 0.0], [50.0, 0.0]]),
                             np.array([9, 11]) / 20, np.arange(2))
        nu = DiscreteMeasure(np.array([[0.25, 1.0], [0.75, 1.0],
                                       [50.25, 1.0], [50.75, 1.0]]),
                             np.array([8, 1, 1, 10]) / 20, np.arange(4))
        return mu, nu

    def test_plan_has_no_cross_group_arc(self):
        mu, nu = self._instance()
        res = solve(mu, nu, CostSpec.sq_euclidean())
        assert res.plan.support_pairs() == {(0, 0), (0, 1), (1, 2), (1, 3)}

    def test_certify_finds_the_collision(self):
        mu, nu = self._instance()
        cost = CostSpec.sq_euclidean()
        dec = ComponentDecomposition.build(mu, nu, "explicit_labels")
        cert = certify(mu, nu, cost, dec)
        assert cert.marginal_degeneracy["status"] == "colliding"
        assert cert.verdict == "non_unique"
        assert cert.freedom_dim == 1
        assert cert.witness is not None


class TestExactMode:
    def test_two_by_two_exact(self):
        c = [[Fraction(0), Fraction(2)], [Fraction(3), Fraction(1)]]
        masses, f, g, _ = solve_exact(c, [Fraction(1, 2)] * 2,
                                      [Fraction(1, 2)] * 2)
        assert masses == {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}
        assert all(f[i] + g[j] <= c[i][j] for i in range(2) for j in range(2))
        assert all(f[i] + g[j] == c[i][j] for (i, j) in masses)

    def test_exact_matches_float(self):
        rng = np.random.default_rng(12)
        vals = rng.integers(0, 20, size=(4, 5))
        a = [Fraction(k, 10) for k in (1, 2, 3, 4)]
        b = [Fraction(k, 10) for k in (2, 2, 2, 2, 2)]
        masses, f, g, _ = solve_exact([[Fraction(int(v)) for v in row]
                                       for row in vals], a, b)
        exact_cost = sum(Fraction(int(vals[i, j])) * v
                         for (i, j), v in masses.items())
        mu = DiscreteMeasure(np.arange(4.0)[:, None],
                             np.array([0.1, 0.2, 0.3, 0.4]))
        nu = DiscreteMeasure(np.arange(5.0)[:, None], np.full(5, 0.2))
        res = solve(mu, nu, CostSpec.explicit(vals.astype(float)))
        assert float(exact_cost) == pytest.approx(res.duality.primal_cost)

    def test_exact_unbalanced(self):
        with pytest.raises(Unbalanced):
            solve_exact([[Fraction(1)]], [Fraction(1)], [Fraction(1, 2)])


#: distinct primes; any 7 of them multiply to more than 2**64
PRIMES = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049, 1051, 1061, 1063,
          1069, 1087, 1091, 1093, 1097, 1103, 1109, 1117, 1123, 1129, 1151)


def _rational_instance(seed: int):
    """A derandomized rational n x m instance; by ``seed % 4`` it has
    small denominators, zero-weight rows and columns, tied costs and
    weights, or costs and weights over distinct primes.  Returns (cost
    rows, a, b) in Fractions."""
    rng = np.random.default_rng(700 + seed)
    flavor = seed % 4
    low = 4 if flavor == 3 else 2       # enough primes for a large LCM
    n, m = int(rng.integers(low, 9)), int(rng.integers(low, 9))
    if flavor == 3:
        dens = rng.permutation(PRIMES)
        cost = [[Fraction(int(rng.integers(0, 60)), int(dens[(i * m + j)
                                                             % len(dens)]))
                 for j in range(m)] for i in range(n)]
    else:
        top = 3 if flavor == 2 else 40
        den = 1 if flavor == 2 else int(rng.integers(1, 13))
        cost = [[Fraction(int(rng.integers(0, top)), den) for _ in range(m)]
                for _ in range(n)]
        if flavor == 2 and n > 2:       # a repeated row ties whole columns
            cost[1] = list(cost[0])

    def weights(k):
        if flavor == 2:
            w = [Fraction(int(rng.choice([1, 2, 2, 4])))
                 for _ in range(k)]
        elif flavor == 3:
            w = [Fraction(int(rng.integers(1, 50)), int(d))
                 for d in rng.permutation(PRIMES)[:k]]
        else:
            w = [Fraction(int(rng.integers(1, 20)), int(rng.integers(1, 9)))
                 for _ in range(k)]
        if flavor == 1:                 # zero weights, one kept positive
            keep = int(rng.integers(k))
            others = [z for z in range(k) if z != keep]
            for z in rng.choice(others, size=max(1, k // 2), replace=False):
                w[int(z)] = Fraction(0)
        total = sum(w)
        return [x / total for x in w]

    return cost, weights(n), weights(m)


def _positive_masses(core) -> dict:
    """The {(i, j): mass} arcs of positive mass of a ``_solve_core``
    result, as ``solve_exact`` keys them."""
    src, tgt, flows = core[:3]
    return {(i, j): x for i, j, x in zip(src.tolist(), tgt.tolist(), flows)
            if x > 0}


class TestSolveExactDifferential:
    """``solve_exact`` runs on integers scaled by one LCM per side; it must
    return what ``_solve_core`` gives on the Fraction array itself: the
    same pivot count, masses and duals."""

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_fraction_core(self, seed):
        cost, a, b = _rational_instance(seed)
        masses, f, g, iterations = solve_exact(cost, a, b)
        ref = _solve_core(np.array(cost, dtype=object), a, b,
                          enter_tol=Fraction(0))
        ref_f, ref_g, ref_iterations = ref[3:]
        assert iterations == ref_iterations
        assert masses == _positive_masses(ref)
        assert f == ref_f.tolist() and g == ref_g.tolist()
        assert all(type(v) is Fraction
                   for v in list(masses.values()) + f + g)
        if seed % 4 == 1:
            assert 0 in a and 0 in b
        if seed % 4 == 3:
            for values in ([c for row in cost for c in row], a + b):
                assert math.lcm(*(v.denominator for v in values)) > 2 ** 64


class TestMachineIntegers:
    """Exact mode runs on int64 when (2 (n + m) + 1) max |K c| < 2**63 and
    on Python ints in an object array otherwise; both are exact, so the
    same integers must give the same masses, duals, basis and pivots."""

    @staticmethod
    def _scaled(cost, a, b):
        """The integer problem ``solve_exact`` hands ``_solve_core``."""
        flat, _ = scaled_integers([c for row in cost for c in row])
        w, _ = scaled_integers(list(a) + list(b))
        wide = np.array(flat, dtype=object).reshape(len(a), len(b))
        return wide, w[:len(a)], w[len(a):]

    def test_int64_equals_object(self):
        instances = [_pinned_exact_instance(), _pinned_rational_instance()] \
            + [_rational_instance(seed) for seed in range(24)]
        compared = 0
        for cost, a, b in instances:
            wide, a_int, b_int = self._scaled(cost, a, b)
            top = max(abs(c) for c in wide.flat)
            if (2 * (len(a) + len(b)) + 1) * top >= 2 ** 63:
                continue                # the distinct-prime flavor
            ref = _solve_core(wide, a_int, b_int, enter_tol=0)
            got = _solve_core(wide.astype(np.int64), a_int, b_int,
                              enter_tol=0)
            for k in range(2):          # the tree arcs
                assert got[k].tolist() == ref[k].tolist()
            assert got[2] == ref[2]
            assert all(type(x) is int for x in got[2])
            assert got[3].tolist() == ref[3].tolist()
            assert got[4].tolist() == ref[4].tolist()
            assert got[5] == ref[5]
            compared += 1
        assert compared >= 20

    @pytest.mark.parametrize("sign", [1, -1])
    def test_bound_picks_the_dtype(self, monkeypatch, sign):
        """Costs at the bound run on int64, one past it and one outside
        int64 on object arrays; all match ``_solve_core`` on Fractions."""
        n = m = 6
        edge = (2 ** 63 - 1) // (2 * (n + m) + 1)   # largest top on int64
        seen = []

        def spy(cost, *args, **kwargs):
            seen.append(cost.dtype)
            return _solve_core(cost, *args, **kwargs)

        monkeypatch.setattr(solver, "_solve_core", spy)
        rng = np.random.default_rng(1011)
        a = [Fraction(int(t), 21) for t in (1, 2, 3, 4, 5, 6)]
        b = [Fraction(1, 6)] * 6
        for top in (edge, edge + 1, 2 ** 63):
            cost = [[Fraction(int(c) * (top // 1000)) for c in row]
                    for row in rng.integers(-1000, 1001, (n, m))]
            cost[0][0] = Fraction(sign * top)
            masses, f, g, iterations = solve_exact(cost, a, b)
            ref = _solve_core(np.array(cost, dtype=object), a, b,
                              enter_tol=Fraction(0))
            assert iterations == ref[5]
            assert masses == _positive_masses(ref)
            assert f == ref[3].tolist() and g == ref[4].tolist()
        assert seen == [np.dtype(np.int64), np.dtype(object),
                        np.dtype(object)]


def _identity_face(mu, cost, f=None):
    """dual_face_oracle on the identity plan of a self-coupled instance,
    with the pair (f, -f), zero by default."""
    mat = cost.matrix(mu, mu)
    idx = np.arange(mu.n)
    f = np.zeros(mu.n) if f is None else np.asarray(f, dtype=float)
    plan = TransportPlan(idx, idx, mu.weights, mu, mu)
    pair = PotentialPair(f, -f, mu, mu)
    return plan, mat, dual_face_oracle(plan, pair, mat)


def _solved_face(mu, nu, cost):
    res = solve(mu, nu, cost)
    return res, dual_face_oracle(res.plan, res.pair, cost.matrix(mu, nu))


def _assert_matches_lp(plan, mat, rep):
    """Oracle bounds equal the LP reference, infinities included."""
    lo, hi = lp_face_bounds(plan, mat, rep.anchor)
    for ours, ref in ((rep.f_min, lo), (rep.f_max, hi)):
        assert np.array_equal(np.isinf(ours), np.isinf(ref))
        assert np.array_equal(ours[np.isinf(ours)], ref[np.isinf(ref)])
        fin = np.isfinite(ref)
        assert np.allclose(ours[fin], ref[fin], rtol=0,
                           atol=1e-9 * (1.0 + float(np.max(mat))))


class TestDualFaceOracle:
    def test_single_target_spread_zero(self):
        rng = np.random.default_rng(13)
        mu = DiscreteMeasure(rng.uniform(0, 1, (5, 1)),
                             rng.dirichlet(np.ones(5)))
        nu = DiscreteMeasure(np.array([[0.5]]), np.array([1.0]))
        _, rep = _solved_face(mu, nu, CostSpec.sq_euclidean())
        assert rep.unique
        assert rep.max_spread <= rep.tolerance

    def test_mismatched_two_component_instance_unique(self):
        pts_s = np.concatenate([np.linspace(0, 0.5, 5),
                                np.linspace(10, 10.5, 5)])[:, None]
        w_s = np.concatenate([np.full(5, 0.37 / 5), np.full(5, 0.63 / 5)])
        pts_t = pts_s + 0.03
        w_t = np.full(10, 0.1)
        mu = DiscreteMeasure(pts_s, w_s)
        nu = DiscreteMeasure(pts_t, w_t)
        _, rep = _solved_face(mu, nu, CostSpec.sq_euclidean())
        assert rep.unique

    def test_separated_clusters_spread_two_delta(self):
        pts = np.concatenate([np.arange(5) * 1e-4,
                              1 + np.arange(5) * 1e-4])[:, None]
        mu = DiscreteMeasure(pts, np.full(10, 0.1))
        _, mat, rep = _identity_face(mu, CostSpec.sq_euclidean())
        delta = float(np.min(mat[:5, 5:]))
        spread = float(np.max(rep.f_max[5:] - rep.f_min[5:]))
        assert spread == pytest.approx(2 * delta, abs=rep.tolerance)

    def test_solver_f_inside_intervals(self):
        rng = np.random.default_rng(14)
        mu = DiscreteMeasure(rng.uniform(0, 1, (6, 1)),
                             rng.dirichlet(np.ones(6)))
        nu = DiscreteMeasure(rng.uniform(0, 1, (7, 1)),
                             rng.dirichlet(np.ones(7)))
        res, rep = _solved_face(mu, nu, CostSpec.sq_euclidean())
        slack = 1e-6
        assert np.all(res.pair.f >= rep.f_min - slack)
        assert np.all(res.pair.f <= rep.f_max + slack)

    def test_wrong_optimum_rejected(self):
        mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        cost = CostSpec.explicit([[0.0, 2.0], [3.0, 1.0]])
        # f = g = 0 is feasible but leaves the support arc (1, 1) slack
        with pytest.raises(InfeasibleOptimum):
            _identity_face(mu, cost)
        # f = 1, g = 0 exceeds c at (0, 0): infeasible, so not optimal
        idx = np.arange(2)
        plan = TransportPlan(idx, idx, mu.weights, mu, mu)
        pair = PotentialPair(np.ones(2), np.zeros(2), mu, mu)
        with pytest.raises(InfeasibleOptimum):
            dual_face_oracle(plan, pair, cost.matrix(mu, mu))

    def test_shape_mismatch_rejected(self):
        mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        idx = np.arange(2)
        plan = TransportPlan(idx, idx, mu.weights, mu, mu)
        pair = PotentialPair(np.zeros(2), np.zeros(2), mu, mu)
        with pytest.raises(DimensionMismatch):
            dual_face_oracle(plan, pair, np.zeros((2, 3)))

    def test_bounds_independent_of_the_optimal_pair(self):
        pts = np.concatenate([np.arange(4) * 0.1,
                              2 + np.arange(4) * 0.1])[:, None]
        mu = DiscreteMeasure(pts, np.full(8, 0.125))
        cost = CostSpec.lp_norm_power(1.0, 1.0)
        _, _, zero = _identity_face(mu, cost)
        _, _, tilted = _identity_face(mu, cost, f=pts[:, 0])
        assert np.allclose(zero.f_min, tilted.f_min, rtol=0, atol=1e-12)
        assert np.allclose(zero.f_max, tilted.f_max, rtol=0, atol=1e-12)


class TestDualFaceOracleAgainstLP:
    """The shortest-path bounds against one HiGHS LP per bound."""

    @pytest.mark.parametrize("seed", range(6))
    def test_integer_cost_degenerate(self, seed):
        rng = np.random.default_rng(700 + seed)
        n, m = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        mu = DiscreteMeasure(np.arange(n, dtype=float)[:, None],
                             _dyadic_ties(rng, n))
        nu = DiscreteMeasure(np.arange(m, dtype=float)[:, None],
                             _dyadic_ties(rng, m))
        cost = CostSpec.explicit(rng.integers(0, 3, (n, m)).astype(float))
        res, rep = _solved_face(mu, nu, cost)
        _assert_matches_lp(res.plan, cost.matrix(mu, nu), rep)

    @pytest.mark.parametrize("seed", range(3))
    def test_shuffled_plan_arcs(self, seed):
        # the bounds do not depend on the order of the plan's arcs
        rng = np.random.default_rng(730 + seed)
        n, m = int(rng.integers(3, 12)), int(rng.integers(3, 12))
        ws = np.array(_dyadic_ties(rng, n), dtype=float)
        ws[rng.integers(1, n)] = 0.0        # a source without plan arcs
        mu = DiscreteMeasure(rng.uniform(0, 5, (n, 2)), ws / ws.sum())
        nu = DiscreteMeasure(rng.uniform(0, 5, (m, 2)), _dyadic_ties(rng, m))
        cost = CostSpec.lp_norm_power(1.0, 1.0)
        res, rep = _solved_face(mu, nu, cost)
        mat = cost.matrix(mu, nu)
        p = res.plan
        order = rng.permutation(len(p.rows))
        assert not np.array_equal(order, np.arange(len(order)))
        shuffled = TransportPlan(p.rows[order], p.cols[order],
                                 p.masses[order], mu, nu)
        got = dual_face_oracle(shuffled, res.pair, mat)
        for a, b in ((got.f_min, rep.f_min), (got.f_max, rep.f_max)):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        assert (got.max_spread, got.unique, got.anchor) \
            == (rep.max_spread, rep.unique, rep.anchor)
        _assert_matches_lp(shuffled, mat, got)

    @pytest.mark.parametrize("anchor_weight", [0.25, 0.0])
    def test_zero_weight_points_unbounded(self, anchor_weight):
        rng = np.random.default_rng(710)
        ws = np.array([anchor_weight, 0.25, 0.0, 0.5 - anchor_weight, 0.0,
                       0.25])
        wt = np.array([0.0, 0.5, 0.25, 0.0, 0.25])
        mu = DiscreteMeasure(np.arange(6, dtype=float)[:, None], ws)
        nu = DiscreteMeasure(rng.uniform(0, 5, (5, 1)), wt)
        cost = CostSpec.sq_euclidean()
        res, rep = _solved_face(mu, nu, cost)
        _assert_matches_lp(res.plan, cost.matrix(mu, nu), rep)
        # the anchor is the first point of positive weight
        assert rep.anchor == (0 if anchor_weight > 0 else 1)
        others = np.arange(6) != rep.anchor
        # a zero-weight source sends no mass, so nothing bounds its f
        # from below
        assert np.array_equal(np.isneginf(rep.f_min[others]),
                              ws[others] == 0)
        assert np.all(np.isfinite(rep.f_max))

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_all_ones(self, k):
        mu = DiscreteMeasure(np.arange(k, dtype=float)[:, None],
                             np.full(k, 1.0 / k))
        cost = CostSpec.explicit(np.ones((k, k)))
        res, rep = _solved_face(mu, mu, cost)
        _assert_matches_lp(res.plan, cost.matrix(mu, mu), rep)
        assert rep.max_spread == 0.0 and rep.unique

    def test_self_coupled_separated_clusters(self):
        # intra-cluster costs of order 1e-8, below the LP solver's default
        # feasibility tolerance
        pts = np.concatenate([np.arange(5) * 1e-4,
                              1 + np.arange(5) * 1e-4])[:, None]
        mu = DiscreteMeasure(pts, np.full(10, 0.1))
        plan, mat, rep = _identity_face(mu, CostSpec.sq_euclidean())
        _assert_matches_lp(plan, mat, rep)

    @pytest.mark.parametrize("seed", range(4))
    def test_self_coupled_zero_slack_arcs(self, seed):
        rng = np.random.default_rng(720 + seed)
        n = int(rng.integers(4, 20))
        pts = np.sort(rng.choice(40, n, replace=False)).astype(float)
        mu = DiscreteMeasure(pts[:, None], rng.dirichlet(np.ones(n)))
        # with cost |x - y| the pair f = x, g = -x is optimal for the
        # identity plan and leaves every arc with y >= x at slack zero
        plan, mat, rep = _identity_face(mu, CostSpec.lp_norm_power(1.0, 1.0),
                                        f=pts)
        assert np.sum(mat - pts[:, None] + pts[None, :] == 0) > n
        _assert_matches_lp(plan, mat, rep)


def _same_bits(x, y) -> bool:
    return np.array_equal(np.asarray(x).view(np.int64),
                          np.asarray(y).view(np.int64))


class TestDualFaceGraph:
    """The oracle's CSR hop graphs against the dense hop array and
    ``csgraph_from_dense`` build they replaced: bit-identical bounds."""

    COSTS = (CostSpec.sq_euclidean(), CostSpec.lp_norm_power(1.0, 1.0),
             None)                         # None: explicit integer costs

    @staticmethod
    def _assert_dense_bits(plan, pair, mat):
        rep = dual_face_oracle(plan, pair, mat)
        lo, hi = dense_face_bounds(plan, pair, mat)
        assert _same_bits(rep.f_min, lo) and _same_bits(rep.f_max, hi)
        return rep

    @pytest.mark.parametrize("seed", range(30))
    def test_solved_with_zero_weights_and_shuffled_arcs(self, seed):
        rng = np.random.default_rng(760 + seed)
        n, m = int(rng.integers(2, 25)), int(rng.integers(2, 25))
        ws = np.array(_dyadic_ties(rng, n), dtype=float)
        ws[rng.permutation(n)[:int(rng.integers(0, n))]] = 0.0
        mu = DiscreteMeasure(rng.uniform(0, 3, (n, 2)), ws / ws.sum())
        nu = DiscreteMeasure(rng.uniform(0, 3, (m, 2)), _dyadic_ties(rng, m))
        cost = self.COSTS[seed % 3] or CostSpec.explicit(
            rng.integers(0, 3, (n, m)).astype(float))
        mat = cost.matrix(mu, nu)
        res = solve(mu, nu, cost)
        rep = self._assert_dense_bits(res.plan, res.pair, mat)
        p = res.plan
        order = rng.permutation(len(p.rows))
        shuffled = TransportPlan(p.rows[order], p.cols[order],
                                 p.masses[order], mu, nu)
        got = self._assert_dense_bits(shuffled, res.pair, mat)
        assert _same_bits(got.f_min, rep.f_min)
        assert (got.max_spread, got.unique) == (rep.max_spread, rep.unique)

    @pytest.mark.parametrize("seed", range(8))
    def test_self_coupled_zero_slack_arcs(self, seed):
        # f = x, g = -x under |x - y| leaves every arc with y >= x at
        # slack zero; zero-weight points have no plan arc, so no hop row
        rng = np.random.default_rng(790 + seed)
        n = int(rng.integers(3, 25))
        pts = np.sort(rng.choice(60, n, replace=False)).astype(float)
        w = rng.dirichlet(np.ones(n))
        w[rng.permutation(n)[:int(rng.integers(0, n - 1))]] = 0.0
        mu = DiscreteMeasure(pts[:, None], w / w.sum())
        mat = CostSpec.lp_norm_power(1.0, 1.0).matrix(mu, mu)
        idx = np.arange(n)[rng.permutation(n)]
        plan = TransportPlan(idx, idx, mu.weights[idx], mu, mu)
        self._assert_dense_bits(plan, PotentialPair(pts, -pts, mu, mu), mat)

    @pytest.mark.parametrize("heavy", [False, True])
    def test_blocks_of_gathered_columns(self, heavy):
        # n = 400 gathers at most 81 plan columns a block, so the hop rows
        # come from several blocks; a source weighing one half ships to
        # about 200 targets and makes a block of its own beyond the cap
        n = 400
        rng = np.random.default_rng(2701)
        a = rng.dirichlet(np.ones(n))
        if heavy:
            a = np.r_[1.0, a[1:] / a[1:].sum()] / 2
        mu = DiscreteMeasure(rng.uniform(0, 1, (n, 2)), a)
        nu = DiscreteMeasure(rng.uniform(0, 1, (n, 2)), np.full(n, 1 / n))
        cost = CostSpec.sq_euclidean()
        res = solve(mu, nu, cost)
        counts = np.bincount(res.plan.rows, minlength=n)
        assert counts.sum() * n > 2 * 32768
        assert (counts.max() * n > 32768) == heavy
        self._assert_dense_bits(res.plan, res.pair, cost.matrix(mu, nu))

    def test_zero_weight_middle_source(self):
        # sources 0, 5, 10 weighing 1/2, 0, 1/2 against targets 0 and
        # 10: the middle source has an empty hop row and an unbounded f
        mu = DiscreteMeasure(np.array([[0.0], [5.0], [10.0]]),
                             np.array([0.5, 0.0, 0.5]))
        nu = DiscreteMeasure(np.array([[0.0], [10.0]]), np.array([0.5, 0.5]))
        cost = CostSpec.sq_euclidean()
        mat = cost.matrix(mu, nu)
        res = solve(mu, nu, cost)
        rep = self._assert_dense_bits(res.plan, res.pair, mat)
        _assert_matches_lp(res.plan, mat, rep)
        assert np.isneginf(rep.f_min[1]) and not rep.unique


class TestTightGraphOracle:
    def test_single_source_star_always_unique(self):
        mu = DiscreteMeasure(np.array([[0.0]]), np.array([1.0]))
        nu = DiscreteMeasure(np.arange(4.0)[:, None], np.full(4, 0.25))
        cost = CostSpec.sq_euclidean()
        res = solve(mu, nu, cost)
        out = tight_graph_connectivity_oracle(res)
        assert out["unique"]

    def test_separated_identical_clusters_not_unique(self):
        pts = np.concatenate([np.arange(3) * 0.01,
                              5 + np.arange(3) * 0.01])[:, None]
        mu = DiscreteMeasure(pts, np.full(6, 1 / 6))
        cost = CostSpec.sq_euclidean()
        res = solve(mu, mu, cost)
        out = tight_graph_connectivity_oracle(res)
        assert not out["unique"]

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_dual_face_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        kind = "unique" if seed % 2 == 0 else "non_unique"
        mu, nu, cost, _, _ = random_instance(rng, kind, max_points=16)
        res, face = _solved_face(mu, nu, cost)
        tight = tight_graph_connectivity_oracle(res)
        assert face.unique == tight["unique"]

    def test_normalization_invariance(self):
        rng = np.random.default_rng(15)
        mu, nu, cost, _, _ = random_instance(rng, "unique", max_points=12)
        res = solve(mu, nu, cost)
        pair = PotentialPair(res.pair.f + 2.5, res.pair.g - 2.5, mu, nu)
        # the oracle reads the tight mask off the report, so the shifted
        # result carries the shifted pair's own verification
        shifted = res.__class__(
            plan=res.plan, pair=pair, iterations=res.iterations,
            duality=verify_duality(res.plan, pair, cost.matrix(mu, nu)))
        a = tight_graph_connectivity_oracle(res)
        b = tight_graph_connectivity_oracle(shifted)
        assert a["unique"] == b["unique"]
        for x, y in zip(a["usable_edges"], b["usable_edges"]):
            assert np.array_equal(x, y) and not x.flags.writeable
