"""End-to-end acceptance suite.

Each test exercises one advertised guarantee and prints a single
pass/fail line with the measured quantity, so a transcript of this file
doubles as the release checklist.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from otuniq.core import (
    CostSpec,
    DiscreteMeasure,
    c_transform,
    subdifferential_of,
    verify_duality,
)
from otuniq.decompose import ComponentDecomposition
from otuniq.regularity import asymptotic_region, gradient_identity_check
from otuniq.solver import solve
from otuniq.uniqueness import (
    ComponentFlowGraph,
    ambiguity_witness,
    certify,
    cross_check,
    plan_degeneracy_check,
)

from helpers import direct_degeneracy, generic_instance, two_interval_instance

TAU_MASS = 1e-9
TAU_GAP = 1e-7


@contextmanager
def _criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL: {desc}")
        raise
    print(f"[criterion {num}] PASS: {desc}")


class TestCriterion1TwoInterval:
    def test_two_interval_counterexample(self):
        cost = CostSpec.sq_euclidean()
        t0 = time.perf_counter()
        mu = two_interval_instance(20)
        dec = ComponentDecomposition.build(mu, mu, "epsilon_graph", 0.2)
        cert = certify(mu, mu, cost, dec)
        t_sym = time.perf_counter() - t0
        assert cert.verdict == "non_unique"
        assert cert.freedom_dim == 1
        assert cert.witness is not None
        mat = cost.matrix(mu, mu)
        for pair in cert.witness:
            assert verify_duality(cert.solve_result.plan, pair, mat).optimal
        diff = cert.witness[0].f - cert.witness[1].f
        assert np.max(diff) - np.min(diff) > 1e-6

        t0 = time.perf_counter()
        mu2 = two_interval_instance(20, mass_left=0.4)
        nu2 = two_interval_instance(20, mass_left=0.5)
        dec2 = ComponentDecomposition.build(mu2, nu2, "epsilon_graph", 0.2)
        cert2 = certify(mu2, nu2, cost, dec2)
        t_asym = time.perf_counter() - t0
        assert cert2.verdict == "unique"
        assert t_sym < 1.0 and t_asym < 1.0
        with _criterion(1, "two-interval counterexample: symmetric "
                           f"non_unique (freedom 1, witness verified) in "
                           f"{t_sym:.3f}s, 0.4/0.5 split unique in "
                           f"{t_asym:.3f}s"):
            pass


class TestCriterion2SemiDiscrete:
    @staticmethod
    def _certify(b):
        mu = DiscreteMeasure(np.arange(4.0)[:, None], np.full(4, 0.25),
                             labels=[0, 1, 2, 3])
        nu = DiscreteMeasure(np.array([[-0.5], [3.5]]),
                             np.array([b, 1.0 - b]), labels=[0, 1])
        dec = ComponentDecomposition.build(mu, nu, "explicit_labels")
        return certify(mu, nu, CostSpec.sq_euclidean(), dec).verdict

    def test_sweep(self):
        t0 = time.perf_counter()
        assert self._certify(0.5) == "non_unique"
        assert self._certify(0.3) == "unique"
        hits = []
        for k in range(1, 20):
            b = k * 0.05
            if self._certify(b) == "non_unique":
                hits.append(round(b, 2))
        elapsed = time.perf_counter() - t0
        assert hits == [0.25, 0.5, 0.75]
        assert elapsed < 1.0
        with _criterion(2, "semi-discrete sweep: non_unique exactly at "
                           f"b in {{0.25, 0.5, 0.75}} in {elapsed:.3f}s"):
            pass


class TestCriterion3WitnessFamily:
    def test_family(self):
        pts = np.concatenate([np.arange(5) * 1e-4,
                              1 + np.arange(5) * 1e-4])[:, None]
        mu = DiscreteMeasure(pts, np.full(10, 0.1))
        cost = CostSpec.sq_euclidean()
        dec = ComponentDecomposition.build(mu, mu, "epsilon_graph", 0.1)
        wit = ambiguity_witness(mu, cost, dec, n_samples=25)
        assert wit.f.shape == (25, 10) and len(wit.samples) == 25
        mat = cost.matrix(mu, mu)
        from otuniq.core import PotentialPair, TransportPlan
        idx = np.arange(10)
        plan = TransportPlan(idx, idx, mu.weights, mu, mu)
        worst_gap = 0.0
        for row in wit.f:
            rep = verify_duality(plan, PotentialPair(row, -row, mu, mu), mat)
            assert rep.optimal
            worst_gap = max(worst_gap, abs(rep.gap))
        assert worst_gap <= TAU_GAP * (1.0 + abs(plan.primal_cost(mat)))
        tau_face = 1e-6 * (1.0 + float(np.max(mat)))
        err = abs(wit.oracle_spread - 2 * wit.delta)
        assert err <= tau_face
        with _criterion(3, f"witness family: {len(wit.f)} samples "
                           f"verified (worst gap {worst_gap:.2e}), oracle "
                           f"spread within {err:.2e} of 2*delta"):
            pass


class TestCriterion4ThreeWayAgreement:
    def test_two_hundred_instances(self):
        t0 = time.perf_counter()
        agree = 0
        total = 200
        for k in range(total):
            rng = np.random.default_rng(9000 + k)
            kind = "unique" if k % 2 == 0 else "non_unique"
            p = [1.0, 2.0, 3.0][k % 3]
            q = [2.0, 1.0][(k // 3) % 2]
            mu, nu, cost, eps, expect, _ = generic_instance(
                rng, kind, max_points=30, p=p, q=q)
            dec = ComponentDecomposition.build(mu, nu, "epsilon_graph", eps)
            cert = certify(mu, nu, cost, dec)
            # each oracle's own verdict, whatever the flags
            check = cross_check(cert, cost.matrix(mu, nu))
            structural = cert.verdict == "unique"
            if check.dual_face.unique == structural \
                    == check.tight_graph_unique and structural == expect:
                agree += 1
        elapsed = time.perf_counter() - t0
        assert agree == total
        assert elapsed < 60.0
        with _criterion(4, f"three-way oracle agreement {agree}/{total} "
                           f"in {elapsed:.1f}s"):
            pass


class TestCriterion5DegeneracyEquivalence:
    def test_graph_equals_enumeration(self):
        checked = 0
        agreements = 0
        for k in range(60):
            rng = np.random.default_rng(11000 + k)
            kind = "unique" if k % 2 == 0 else "non_unique"
            mu, nu, cost, eps, _, res = generic_instance(rng, kind,
                                                         max_points=20)
            dec = ComponentDecomposition.build(mu, nu, "epsilon_graph", eps)
            graph = ComponentFlowGraph.build(res.plan, dec)
            ns = len(dec.source_components)
            nt = len(dec.target_components)
            if ns + nt > 8:
                continue
            edges = {(i, j): v for i, j, v in graph.edges}
            got = plan_degeneracy_check(graph)["status"] == "degenerate"
            want, _ = direct_degeneracy(edges, ns, nt)
            checked += 1
            if got == want:
                agreements += 1
        assert checked >= 40
        assert agreements == checked
        with _criterion(5, "plan_degeneracy_check equals direct subset "
                           f"enumeration on {agreements}/{checked} "
                           "flow graphs"):
            pass


class TestCriterion6CTransformCalculus:
    def test_calculus_invariants(self):
        worst_idem = 0.0
        for k in range(100):
            rng = np.random.default_rng(13000 + k)
            n = int(rng.integers(2, 12))
            m = int(rng.integers(2, 12))
            mat = rng.uniform(0, 10, size=(n, m))
            f = rng.uniform(-5, 5, n)
            tau_tight = 1e-7 * (1.0 + float(np.max(np.abs(mat))))

            g = c_transform(f, mat, "to_target")
            f2 = c_transform(g, mat, "to_source")
            g2 = c_transform(f2, mat, "to_target")
            worst_idem = max(worst_idem, float(np.max(np.abs(g2 - g))))
            assert np.max(np.abs(g2 - g)) <= tau_tight

            # shift equivariance: (f + s)^c = f^c - s, to 10 ulp scale
            s = float(rng.uniform(-3, 3))
            gs = c_transform(f + s, mat, "to_target")
            scale = np.max(np.abs(g)) + abs(s) + 1.0
            assert np.max(np.abs(gs - (g - s))) <= 10 * np.finfo(float).eps \
                * scale

            # order reversal: f <= f' pointwise implies f'^c <= f^c
            bump = np.abs(rng.uniform(0, 2, n))
            g_hi = c_transform(f + bump, mat, "to_target")
            assert np.all(g_hi <= g + 10 * np.finfo(float).eps * scale)

        # supp pi inside the c-subdifferential for solver outputs
        for k in range(20):
            rng = np.random.default_rng(14000 + k)
            kind = "unique" if k % 2 == 0 else "non_unique"
            mu, nu, cost, _, _, res = generic_instance(rng, kind,
                                                       max_points=16)
            mat = cost.matrix(mu, nu)
            ti, tj = subdifferential_of(res.pair, mat)
            assert res.plan.support_pairs() <= set(zip(ti.tolist(),
                                                       tj.tolist()))
        with _criterion(6, "c-transform calculus on 100 random instances "
                           f"(worst idempotence residual {worst_idem:.2e}) "
                           "and support containment on 20 solves"):
            pass


class TestCriterion7GradientIdentity:
    def test_refinement_order(self):
        cost = CostSpec.sq_euclidean()
        devs = []
        for n in (17, 33, 65):
            m = (n - 1) ** 2 // 4 + 1
            xs = np.linspace(0, 1, n)
            w = 1.5 - xs
            mu = DiscreteMeasure(xs[:, None], w / w.sum())
            nu = DiscreteMeasure(np.linspace(0.3, 1.3, m)[:, None],
                                 np.full(m, 1.0 / m))
            res = solve(mu, nu, cost)
            rep = gradient_identity_check(res, cost)
            devs.append(rep.summary["max_weighted"])
        orders = [np.log2(devs[i] / devs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8
        assert devs[-1] <= 1e-3
        with _criterion(7, "gradient identity orders "
                           f"{orders[0]:.2f}, {orders[1]:.2f} (>= 1.8), "
                           f"finest deviation {devs[-1]:.2e} <= 1e-3"):
            pass


class TestCriterion8HalfSpace:
    def test_ten_random_anchors(self):
        cost = CostSpec.sq_euclidean()
        ax = np.linspace(-1, 1, 15)
        xx, yy = np.meshgrid(ax, ax)
        grid = np.column_stack([xx.ravel(), yy.ravel()])
        radii = np.geomspace(10, 1e5, 12)
        delta = 0.05
        rng = np.random.default_rng(777)
        for _ in range(10):
            x = rng.uniform(-0.3, 0.3, 2)
            theta = rng.uniform(0, 2 * np.pi)
            u = np.array([np.cos(theta), np.sin(theta)])
            reg = asymptotic_region(x, u, cost, radii, grid)
            proj = (grid - x) @ u
            shifted_in = proj >= delta
            assert np.all(reg.tail_frequency[shifted_in] == 1.0)
            outside = proj < -delta
            assert not np.any(reg.tail_frequency[outside] == 1.0)
        with _criterion(8, "half-space geometry: 10 random (x, u) anchors, "
                           "delta-shifted membership exact at delta = 0.05"):
            pass
