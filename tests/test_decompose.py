"""Support decomposition and the two restriction lemmas.

A restricted problem is read off the solved one by slicing: the cost
matrix, the plan and the pair restricted to a source component and its
plan image keep their optimality, and zero-weight points are dropped
before the simplex and refilled by c-transform.
"""

from fractions import Fraction

import numpy as np
import pytest

from otuniq.core import (
    CostSpec,
    DiscreteMeasure,
    PotentialPair,
    TransportPlan,
    component_labels,
    subdifferential_of,
    tight_components,
    verify_duality,
)
from otuniq.decompose import ComponentDecomposition, _component_ids, decompose
from otuniq.errors import BadEpsilon, OTUniqError
from otuniq.solver import _solve_core, solve, solve_exact
from otuniq.uniqueness import certify

from helpers import assert_tight_tree, float_core, two_interval_instance


def _measure(coords, weights=None, labels=None):
    coords = np.asarray(coords, dtype=float)[:, None]
    if weights is None:
        weights = np.full(len(coords), 1.0 / len(coords))
    return DiscreteMeasure(coords, np.asarray(weights), labels)


def _restrict(res, cost, component):
    """The restricted problem on a source component, sliced from ``res``.

    The source is mu conditioned on the component, the target is the
    plan's image of it; plan, pair and cost matrix are the matching
    blocks, masses renormalized.  Returns (plan, pair, cost matrix).
    """
    mu, nu = res.plan.source, res.plan.target
    comp = np.array(sorted(component))
    keep = np.isin(res.plan.rows, comp)
    rows, cols = res.plan.rows[keep], res.plan.cols[keep]
    mass = float(np.sum(mu.weights[comp]))
    tgt = np.unique(cols)
    sub_mu = DiscreteMeasure(mu.points[comp], mu.weights[comp] / mass)
    sub_cols = np.searchsorted(tgt, cols)
    sub_nu = DiscreteMeasure(
        nu.points[tgt],
        np.bincount(sub_cols, weights=res.plan.masses[keep]) / mass)
    plan = TransportPlan(np.searchsorted(comp, rows), sub_cols,
                         res.plan.masses[keep] / mass, sub_mu, sub_nu)
    pair = PotentialPair(res.pair.f[comp], res.pair.g[tgt], sub_mu, sub_nu)
    return plan, pair, cost.matrix(mu, nu)[np.ix_(comp, tgt)]


def _assert_restriction_optimal(res, cost, component):
    """The sliced pair is dual-optimal for the restricted problem, checked
    against the sliced plan and against a fresh solve of that problem."""
    plan, pair, mat = _restrict(res, cost, component)
    assert verify_duality(plan, pair, mat).optimal
    sub = solve(plan.source, plan.target, CostSpec.explicit(mat))
    assert sub.duality.primal_cost == pytest.approx(plan.primal_cost(mat),
                                                    abs=1e-12)
    assert verify_duality(sub.plan, pair, mat).optimal


def _padded(rng, integer: bool):
    """A random problem with zero-weight sources and targets; returns
    (cost matrix, source weights, target weights) as integer ticks."""
    sides = []
    for _ in range(2):
        k, zeros = int(rng.integers(2, 6)), int(rng.integers(1, 3))
        ticks = np.concatenate([rng.integers(1, 4, k), np.zeros(zeros, int)])
        sides.append(rng.permutation(ticks))
    n, m = len(sides[0]), len(sides[1])
    cost = rng.integers(0, 3, (n, m)) if integer \
        else rng.integers(0, 1000, (n, m)) / 100
    return cost, sides[0], sides[1]


def _epsilon_reference(pts, epsilon):
    """The epsilon-graph partition by one norm test per row."""
    n = len(pts)
    edges = [(i, i + 1 + int(off)) for i in range(n)
             for off in np.nonzero(np.linalg.norm(pts[i + 1:] - pts[i],
                                                  axis=1) <= epsilon)[0]]
    keys = component_labels(n, edges).tolist()
    return [[i for i in range(n) if keys[i] == k]
            for k in range(max(keys) + 1)]


class TestDecompose:
    def test_chain_hops(self):
        m = _measure([0.1, 0.5, 2.2, 2.9])
        assert decompose(m, "epsilon_graph", 0.8) == [[0, 1], [2, 3]]

    def test_single_label_single_component(self):
        m = _measure([0.0, 1.0, 2.0], labels=[7, 7, 7])
        assert decompose(m, "explicit_labels") == [[0, 1, 2]]

    def test_two_interval_forty_points(self):
        m = two_interval_instance(20)
        parts = decompose(m, "epsilon_graph", 0.2)
        assert len(parts) == 2
        assert parts[0] == list(range(20))
        assert parts[1] == list(range(20, 40))

    def test_epsilon_must_be_positive(self):
        m = _measure([0.0, 1.0])
        with pytest.raises(BadEpsilon):
            decompose(m, "epsilon_graph", 0.0)

    def test_nan_epsilon_rejected(self):
        m = _measure([0.0, 1.0])
        with pytest.raises(BadEpsilon):
            decompose(m, "epsilon_graph", float("nan"))

    @pytest.mark.parametrize("d", [1, 2, 3, 9])
    def test_matches_per_row_reference(self, d):
        # lattice sites 1.25 apart in 1-d; in more dimensions lattice walks
        # with steps of length exactly 1.25 (axis steps, and 0.75/1.0
        # steps in two axes), so many pairs sit on the boundary
        rng = np.random.default_rng(40 + d)
        pts = {tuple(x) for x in rng.choice(900, (600 if d == 1 else 40, d),
                                            replace=False) * 1.25}
        while len(pts) < 600:
            step = np.zeros(d)
            k = rng.choice(d, size=2, replace=False)
            if rng.random() < 0.5:
                step[k[0]] = 1.25
            else:
                step[k] = (0.75, 1.0)
            base = sorted(pts)[int(rng.integers(len(pts)))]
            pts.add(tuple(base + step * rng.choice([-1.0, 1.0])))
        pts = np.array(sorted(pts))[rng.permutation(600)]
        m = DiscreteMeasure(pts, np.full(600, 1 / 600))
        for eps in (np.nextafter(1.25, 0.0), 1.25, 1.8, 2.5):
            assert decompose(m, "epsilon_graph", eps) \
                == _epsilon_reference(m.points, eps)

    def test_epsilon_at_a_pair_distance(self):
        # epsilon is a rounded pair distance or one ulp either side; the
        # k-d tree rounds squared distances differently from the norm
        rng = np.random.default_rng(44)
        for _ in range(400):
            n, d = int(rng.integers(2, 12)), int(rng.integers(1, 4))
            m = DiscreteMeasure(rng.uniform(-1, 1, (n, d))
                                * 10.0 ** rng.integers(-3, 4),
                                np.full(n, 1 / n))
            i, j = rng.choice(n, 2, replace=False)
            dist = np.linalg.norm(m.points[i] - m.points[j])
            for eps in (np.nextafter(dist, 0), dist,
                        np.nextafter(dist, np.inf)):
                assert decompose(m, "epsilon_graph", eps) \
                    == _epsilon_reference(m.points, eps)

    def test_arbitrary_integer_labels(self):
        rng = np.random.default_rng(45)
        cases = [[5, -3, 5, 10 ** 12, -3, 0]]
        cases += [rng.choice(rng.integers(-10 ** 6, 10 ** 6, 6),
                             int(rng.integers(1, 30))) for _ in range(200)]
        for labels in cases:
            m = _measure(np.arange(len(labels)), labels=labels)
            buckets = {}
            for idx, key in enumerate(np.asarray(labels).tolist()):
                buckets.setdefault(key, []).append(idx)
            want = sorted(buckets.values(), key=lambda g: g[0])
            assert decompose(m, "explicit_labels") == want
            dec = ComponentDecomposition.build(m, m, "explicit_labels")
            assert dec.target_components == tuple(map(tuple, want))
            assert not dec.source_index.flags.writeable
            for i in range(len(labels)):
                assert i in want[dec.source_index[i]]

    def test_missing_labels(self):
        m = _measure([0.0, 1.0])
        with pytest.raises(OTUniqError):
            decompose(m, "explicit_labels")

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(20)
        m = _measure(np.sort(rng.uniform(0, 10, 15)))
        prev = None
        for eps in (0.1, 0.3, 0.8, 2.0, 11.0):
            parts = decompose(m, "epsilon_graph", eps)
            if prev is not None:
                # every old component is contained in some new one
                for old in prev:
                    assert any(set(old) <= set(new) for new in parts)
                assert len(parts) <= len(prev)
            prev = parts
        assert len(prev) == 1


class TestRestrictPartial:
    """Restriction to a source component and its plan image."""

    def test_full_component_is_identity(self):
        rng = np.random.default_rng(21)
        mu = _measure(rng.uniform(0, 1, 5), rng.dirichlet(np.ones(5)))
        nu = _measure(rng.uniform(0, 1, 4), rng.dirichlet(np.ones(4)))
        cost = CostSpec.sq_euclidean()
        res = solve(mu, nu, cost)
        plan, pair, mat = _restrict(res, cost, range(5))
        assert np.allclose(plan.source.weights, mu.weights)
        assert np.allclose(plan.target.weights, nu.weights, atol=1e-9)
        assert np.array_equal(plan.rows, res.plan.rows)
        assert np.array_equal(plan.cols, res.plan.cols)
        assert np.array_equal(pair.f, res.pair.f)
        assert np.array_equal(mat, cost.matrix(mu, nu))

    def test_target_mass_arithmetic(self):
        mu = two_interval_instance(10, mass_left=0.3)
        nu = two_interval_instance(10, mass_left=0.5)
        cost = CostSpec.sq_euclidean()
        res = solve(mu, nu, cost)
        comp = list(range(10))
        # the plan's image of X_1 carries mu(X_1) before renormalizing
        image = res.plan.masses[np.isin(res.plan.rows, comp)]
        assert image.sum() == pytest.approx(0.3)
        plan, _, _ = _restrict(res, cost, comp)
        assert plan.target.weights.sum() == pytest.approx(1.0)

    def test_restricted_pair_stays_dual_optimal(self):
        rng = np.random.default_rng(22)
        pts, ws = [], []
        for c in (0.0, 5.0, 11.0):
            pts.append(c + rng.uniform(0, 1, 4))
            ws.append(rng.uniform(0.5, 1.5, 4))
        mu = _measure(np.concatenate(pts),
                      np.concatenate(ws) / np.concatenate(ws).sum())
        pts2 = [c + rng.uniform(0, 1, 4) for c in (0.5, 5.5, 11.5)]
        ws2 = [rng.uniform(0.5, 1.5, 4) for _ in range(3)]
        nu = _measure(np.concatenate(pts2),
                      np.concatenate(ws2) / np.concatenate(ws2).sum())
        cost = CostSpec.sq_euclidean()
        res = solve(mu, nu, cost)
        for comp in ([0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]):
            _assert_restriction_optimal(res, cost, comp)


class TestRestrictFullMass:
    """Zero-weight points: the simplex runs on the positive-weight
    problem, and the dropped points get their potentials by c-transform."""

    def test_padded_zero_weight_points_dropped(self):
        rng = np.random.default_rng(23)
        for trial in range(40):
            cost, a, b = _padded(rng, integer=trial % 2 == 0)
            n, m = cost.shape
            mu = _measure(np.arange(n), a / a.sum())
            nu = _measure(np.arange(m), b / b.sum())
            res = solve(mu, nu, CostSpec.explicit(cost))
            rows, cols = np.flatnonzero(a), np.flatnonzero(b)
            sub = solve(_measure(rows, mu.weights[rows]),
                        _measure(cols, nu.weights[cols]),
                        CostSpec.explicit(cost[np.ix_(rows, cols)]))
            assert res.iterations == sub.iterations
            assert res.plan.entries == [(rows[i], cols[j], x)
                                        for i, j, x in sub.plan.entries]
            f, g = res.pair.f, res.pair.g
            # no shift: both problems anchor at the first positive-weight
            # point
            assert np.allclose(f[rows], sub.pair.f, atol=1e-12)
            assert np.allclose(g[cols], sub.pair.g, atol=1e-12)
            assert np.allclose(
                g[b == 0], (cost[rows][:, b == 0] - f[rows, None]).min(axis=0),
                atol=1e-12)
            assert np.allclose(f[a == 0],
                               (cost[a == 0] - g[None, :]).min(axis=1),
                               atol=1e-12)
            tight = subdifferential_of(res.pair, cost).tight_pairs
            src, tgt, *_ = float_core(mu, nu, CostSpec.explicit(cost))
            assert_tight_tree(src, tgt, a, b, lambda i, j: (i, j) in tight,
                              res.plan.support_pairs())

    def test_padded_zero_weight_points_dropped_exact(self):
        rng = np.random.default_rng(25)
        for trial in range(40):
            cost, a, b = _padded(rng, integer=trial % 2 == 0)
            rat = [[Fraction(str(c)) for c in row] for row in cost.tolist()]
            sa = [Fraction(int(x), int(a.sum())) for x in a]
            sb = [Fraction(int(x), int(b.sum())) for x in b]
            masses, f, g, pivots = solve_exact(rat, sa, sb)
            rows, cols = np.flatnonzero(a), np.flatnonzero(b)
            sub_masses, sub_f, sub_g, sub_pivots = solve_exact(
                [[rat[i][j] for j in cols] for i in rows],
                [sa[i] for i in rows], [sb[j] for j in cols])
            assert pivots == sub_pivots
            assert masses == {(rows[i], cols[j]): x
                              for (i, j), x in sub_masses.items()}
            # exact mode has no anchor shift
            assert [f[i] for i in rows] == sub_f
            assert [g[j] for j in cols] == sub_g
            for j in np.flatnonzero(b == 0):
                assert g[j] == min(rat[i][j] - f[i] for i in rows)
            for i in np.flatnonzero(a == 0):
                assert f[i] == min(rat[i][j] - g[j] for j in range(len(b)))
            src, tgt, _, cf, cg, _ = _solve_core(
                np.array(rat, dtype=object), sa, sb, enter_tol=Fraction(0))
            assert (cf.tolist(), cg.tolist()) == (f, g)
            assert_tight_tree(src, tgt, sa, sb,
                              lambda i, j: f[i] + g[j] == rat[i][j], masses)

    def test_extension_reproduces_f_on_kept_points(self):
        mu = DiscreteMeasure(np.array([[0.0], [1.0], [9.0]]),
                             np.array([0.5, 0.5, 0.0]))
        nu = DiscreteMeasure(np.array([[0.2], [1.2], [8.0]]),
                             np.array([0.5, 0.5, 0.0]))
        cost = CostSpec.sq_euclidean()
        res = solve(mu, nu, cost)
        red = solve(DiscreteMeasure(mu.points[:2], mu.weights[:2]),
                    DiscreteMeasure(nu.points[:2], nu.weights[:2]), cost)
        assert np.allclose(res.pair.f[:2], red.pair.f, atol=1e-9)
        assert res.duality.primal_cost == pytest.approx(
            red.duality.primal_cost)
        mat = cost.matrix(mu, nu)
        assert res.pair.g[2] == pytest.approx(
            np.min(mat[:2, 2] - res.pair.f[:2]))
        assert res.pair.f[2] == pytest.approx(np.min(mat[2] - res.pair.g))


class TestDecomposePotential:
    """The potential split over source components."""

    def test_zero_mass_component_skipped(self):
        mu = _measure([0.0, 1.0, 5.0], [0.5, 0.5, 0.0], labels=[0, 0, 1])
        nu = _measure([0.5], [1.0], labels=[0])
        dec = ComponentDecomposition.build(mu, nu, "explicit_labels")
        cert = certify(mu, nu, CostSpec.sq_euclidean(), dec)
        assert cert.component_verdicts == ((0, "unique"), (1, "zero_mass"))
        assert cert.verdict == "unique"

    def test_two_components_each_optimal(self):
        mu = two_interval_instance(10, mass_left=0.3)
        nu = two_interval_instance(10, mass_left=0.5)
        cost = CostSpec.sq_euclidean()
        res = solve(mu, nu, cost)
        dec = ComponentDecomposition.build(mu, nu, "epsilon_graph", 0.5)
        assert len(dec.source_components) == 2
        for grp in dec.source_components:
            _assert_restriction_optimal(res, cost, grp)


def _closure_labels(n_nodes, edges, strong):
    """Component ids from the transitive closure of the adjacency
    matrix, numbered in the order of each component's smallest node."""
    reach = np.eye(n_nodes, dtype=bool)
    for i, j in edges:
        reach[i, j] = True
        if not strong:
            reach[j, i] = True
    while True:
        wider = reach | (reach.astype(int) @ reach.astype(int) > 0)
        if np.array_equal(wider, reach):
            break
        reach = wider
    same = reach & reach.T
    labels = np.full(n_nodes, -1)
    for i in range(n_nodes):
        if labels[i] < 0:
            labels[same[i]] = labels.max() + 1
    return labels


class TestComponentLabels:
    """``component_labels`` on edge lists with repeated edges and
    self-loops, in both modes, against the transitive closure."""

    @pytest.mark.parametrize("strong", [False, True])
    def test_matches_closure(self, strong):
        rng = np.random.default_rng(900)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            edges = rng.integers(0, n, (int(rng.integers(0, 3 * n)), 2))
            if len(edges):              # a repeated edge and a self-loop
                edges = np.concatenate([edges, edges[:1],
                                        [[edges[0, 0]] * 2]])
            got = component_labels(n, edges, strong=strong)
            assert got.tolist() \
                == _closure_labels(n, edges.tolist(), strong).tolist()

    @pytest.mark.parametrize("strong", [False, True])
    def test_repeated_edges_and_loops(self, strong):
        edges = [(0, 1), (0, 1), (1, 0), (2, 2), (2, 2), (3, 1), (3, 1)]
        want = [0, 0, 1, 2] if strong else [0, 0, 1, 0]
        assert component_labels(4, edges, strong=strong).tolist() == want
        assert component_labels(4, [], strong=strong).tolist() \
            == [0, 1, 2, 3]


class TestTightComponentsOnPairs:
    """``tight_components`` on index pairs against the labelling of the
    boolean mask they come from: one arc per masked pair and one back
    per plan arc, between the groups, labelled by transitive closure."""

    def test_matches_mask_closure(self):
        rng = np.random.default_rng(910)
        for _ in range(60):
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            src = rng.integers(0, int(rng.integers(1, n + 1)), n)
            tgt = rng.integers(0, int(rng.integers(1, m + 1)), m)
            # group ids 0..S-1 and 0..T-1, every one in use
            src = np.unique(src, return_inverse=True)[1]
            tgt = np.unique(tgt, return_inverse=True)[1]
            mask = rng.random((n, m)) < rng.uniform(0.0, 0.6)
            rows = rng.integers(0, n, int(rng.integers(1, n + m)))
            cols = rng.integers(0, m, len(rows))
            ns = int(src.max()) + 1
            edges = [(src[i], ns + tgt[j]) for i, j in np.argwhere(mask)] \
                + [(ns + tgt[j], src[i]) for i, j in zip(rows, cols)]
            want = _closure_labels(ns + int(tgt.max()) + 1, edges, True)
            got = tight_components(rows, cols, *np.nonzero(mask), src, tgt)
            assert got.tolist() == want.tolist()


def _chain_label_ids(labels):
    """Component ids of explicit labels as numbered before: each point
    linked to the next point with its label, then ``component_labels``."""
    order = np.argsort(labels, kind="stable")
    lab = labels[order]
    same = lab[1:] == lab[:-1]
    edges = np.column_stack([order[:-1][same], order[1:][same]])
    return component_labels(len(labels), edges)


class TestExplicitLabelIds:
    """Explicit labels are numbered without a graph, by the rank of each
    label's first occurrence, as the chain-edge labelling numbered them."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_chain_edges(self, seed):
        rng = np.random.default_rng(930 + seed)
        n = int(rng.integers(1, 40))
        pool = np.concatenate([
            rng.integers(-50, 50, 6) * int(rng.integers(1, 1000)),
            [2 ** 62, 2 ** 62 - 1, -2 ** 62, -2 ** 62 + 1, 2 ** 63 - 1,
             -2 ** 63, 0]])
        labels = rng.choice(pool[rng.permutation(len(pool))[:int(
            rng.integers(1, len(pool) + 1))]], n)
        mu = DiscreteMeasure(np.arange(n, dtype=float)[:, None],
                             np.full(n, 1.0 / n), labels.tolist())
        got = _component_ids(mu, "explicit_labels", None)
        assert got.tolist() == _chain_label_ids(mu.labels).tolist()
        # numbered by first occurrence: the first point is in component 0
        # and each new id is one past the largest before it
        assert got[0] == 0
        assert np.all(got <= np.maximum.accumulate(np.r_[-1, got[:-1]]) + 1)
