"""Transportation simplex and the two dual-uniqueness oracles."""

import hashlib
import logging
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from otuniq.core import (
    CostSpec,
    DiscreteMeasure,
    PotentialPair,
    TransportPlan,
    component_labels,
)
from otuniq.decompose import ComponentDecomposition
from otuniq.errors import InfeasibleOptimum, Unbalanced
from otuniq.solver import (
    _solve_core,
    dual_face_oracle,
    solve,
    solve_exact,
    tight_graph_connectivity_oracle,
)
from otuniq.uniqueness import certify

from helpers import enumerate_vertices, lp_face_bounds, random_instance


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
        res = solve(mu, nu, CostSpec.sq_euclidean())
        assert res.duality.optimal
        assert len(res.basis) == 5 + 4 - 1

    def test_basis_is_spanning_tree_covering_support(self):
        rng = np.random.default_rng(10)
        mu = DiscreteMeasure(rng.uniform(0, 1, (6, 1)),
                             rng.dirichlet(np.ones(6)))
        nu = DiscreteMeasure(rng.uniform(0, 1, (5, 1)),
                             rng.dirichlet(np.ones(5)))
        res = solve(mu, nu, CostSpec.sq_euclidean())
        assert len(res.basis) == 6 + 5 - 1
        assert res.plan.support_pairs() <= set(res.basis)

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
            corner = res.cost_matrix[:3, :3].tolist()
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
    a clustered ladder-like pair, all-ones and a zero-weight-padded
    one.  Yields (name, mu, nu, cost)."""
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


def _digest(basis, masses, f, g) -> str:
    """SHA-256 of the exact values: floats by ``float.hex``, Fractions
    as ``p/q``."""
    def text(x):
        return x.hex() if isinstance(x, float) else str(x)
    parts = [repr(sorted(basis))]
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


class TestPivotSequencePinned:
    """Pivot count, basis, plan and pair of fixed instances, pinned bit for
    bit: a change to how the simplex stores its basis tree must leave
    every pivot where it was.  Values recorded from the tree kept as
    parent, depth and adjacency sets."""

    PINNED = {
        "uniform 2-d n=60": (485, "234e0b912f7814a11c69af3f7ea9cb0f"
                                  "3939a348722d4698967288013bca8e82"),
        "clustered n=40": (99, "38b2571a4a1a3911bbc56b9c85f3329e"
                               "0becedc7d1aec6beba7298bf388559da"),
        "all-ones 8x8": (0, "16dbca16f55fd3a404ffe7d87472f3b3"
                            "21086c84e7bd4315b020dd5a480685e3"),
        "zero-weight padded 10x8": (7, "ed96e4458247e649b8c31d14f7908338"
                                       "b59e9edece0149caea342ccd759205b5"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_float(self, name):
        mu, nu, cost = next((mu, nu, cost) for key, mu, nu, cost
                            in _pinned_instances() if key == name)
        res = solve(mu, nu, cost)
        masses = {(int(i), int(j)): float(x) for i, j, x in res.plan.entries}
        assert (res.iterations, _digest(res.basis, masses,
                                        res.pair.f.tolist(),
                                        res.pair.g.tolist())) \
            == self.PINNED[name]

    def test_exact(self):
        cost, a, b = _pinned_exact_instance()
        masses, f, g, iterations = solve_exact(cost, a, b)
        basis = _solve_core(np.array(cost, dtype=object), a, b,
                            enter_tol=Fraction(0), max_iter=10 ** 6)[3]
        assert iterations == 37
        assert _digest(basis, masses, f, g) \
            == ("329d5f43ed2d9cc5b2ff1e5a3009bd91"
                "c50b85a2260654578ee21fbebacd3467")


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
    short of the cycling guard, and the basis must stay a spanning tree
    that covers the plan."""

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
        assert len(res.basis) == n + m - 1
        tree = component_labels(n + m, [(i, n + j) for i, j in res.basis])
        assert len(set(tree.tolist())) == 1
        assert res.plan.support_pairs() <= set(res.basis)

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
    return res, dual_face_oracle(res.plan, res.pair, res.cost_matrix)


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
        _assert_matches_lp(res.plan, res.cost_matrix, rep)

    @pytest.mark.parametrize("anchor_weight", [0.25, 0.0])
    def test_zero_weight_points_unbounded(self, anchor_weight):
        rng = np.random.default_rng(710)
        ws = np.array([anchor_weight, 0.25, 0.0, 0.5 - anchor_weight, 0.0,
                       0.25])
        wt = np.array([0.0, 0.5, 0.25, 0.0, 0.25])
        mu = DiscreteMeasure(np.arange(6, dtype=float)[:, None], ws)
        nu = DiscreteMeasure(rng.uniform(0, 5, (5, 1)), wt)
        res, rep = _solved_face(mu, nu, CostSpec.sq_euclidean())
        _assert_matches_lp(res.plan, res.cost_matrix, rep)
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
        res, rep = _solved_face(mu, mu, CostSpec.explicit(np.ones((k, k))))
        _assert_matches_lp(res.plan, res.cost_matrix, rep)
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
        shifted = res.__class__(
            plan=res.plan,
            pair=PotentialPair(res.pair.f + 2.5, res.pair.g - 2.5, mu, nu),
            basis=res.basis, iterations=res.iterations, duality=res.duality,
            cost_matrix=res.cost_matrix)
        a = tight_graph_connectivity_oracle(res)
        b = tight_graph_connectivity_oracle(shifted)
        assert a["unique"] == b["unique"]
        assert a["usable_edges"] == b["usable_edges"]
