"""Support decomposition and restricted transport problems."""

import numpy as np
import pytest

from otuniq.core import CostSpec, DiscreteMeasure, PotentialPair, verify_duality
from otuniq.decompose import (
    ComponentDecomposition,
    decompose,
    decompose_potential,
    extend_potential,
    restrict_full_mass,
    restrict_partial,
)
from otuniq.errors import BadEpsilon, MassLoss, OTUniqError, ZeroMassComponent
from otuniq.solver import solve

from helpers import two_interval_instance


def _measure(coords, weights=None, labels=None):
    coords = np.asarray(coords, dtype=float)[:, None]
    if weights is None:
        weights = np.full(len(coords), 1.0 / len(coords))
    return DiscreteMeasure(coords, np.asarray(weights), labels)


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
    def test_full_component_is_identity(self):
        rng = np.random.default_rng(21)
        mu = _measure(rng.uniform(0, 1, 5), rng.dirichlet(np.ones(5)))
        nu = _measure(rng.uniform(0, 1, 4), rng.dirichlet(np.ones(4)))
        cost = CostSpec.sq_euclidean()
        res = solve(mu, nu, cost)
        prob = restrict_partial(mu, nu, res.plan, cost, range(5))
        assert prob.mass == pytest.approx(1.0)
        assert np.allclose(prob.mu.weights, mu.weights)
        assert np.allclose(
            np.sort(prob.nu.weights), np.sort(nu.weights), atol=1e-9)

    def test_target_mass_arithmetic(self):
        mu = two_interval_instance(10, mass_left=0.3)
        nu = two_interval_instance(10, mass_left=0.5)
        cost = CostSpec.sq_euclidean()
        res = solve(mu, nu, cost)
        comp = list(range(10))
        prob = restrict_partial(mu, nu, res.plan, cost, comp)
        assert prob.mass == pytest.approx(0.3)
        # induced target mass before renormalization equals mu(X_1)
        raw = prob.nu.weights * prob.mass
        assert raw.sum() == pytest.approx(0.3)

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
            prob = restrict_partial(mu, nu, res.plan, cost, comp)
            f = res.pair.f[list(prob.source_indices)]
            g = res.pair.g[list(prob.target_indices)]
            # restricted pair is feasible and tight on the restricted
            # plan's support, hence dual-optimal after re-anchoring
            sub_res = solve(prob.mu, prob.nu, prob.cost)
            mat = prob.cost.matrix(prob.mu, prob.nu)
            shift = sub_res.duality.primal_cost - (
                prob.mu.weights @ f + prob.nu.weights @ g)
            pair = PotentialPair(f + shift, g, prob.mu, prob.nu)
            rep = verify_duality(sub_res.plan, pair, mat)
            assert rep.optimal

    def test_zero_mass_component_rejected(self):
        mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([1.0, 0.0]))
        nu = _measure([0.5])
        cost = CostSpec.sq_euclidean()
        res = solve(mu, nu, cost)
        with pytest.raises(ZeroMassComponent):
            restrict_partial(mu, nu, res.plan, cost, [1])


class TestRestrictFullMass:
    def test_identity_without_zero_mass(self):
        rng = np.random.default_rng(23)
        mu = _measure(rng.uniform(0, 1, 4), rng.dirichlet(np.ones(4)))
        nu = _measure(rng.uniform(0, 1, 4), rng.dirichlet(np.ones(4)))
        cost = CostSpec.sq_euclidean()
        m2, n2, _ = restrict_full_mass(mu, nu, cost, range(4), range(4))
        assert np.allclose(m2.weights, mu.weights)
        assert np.allclose(n2.points, nu.points)

    def test_padded_zero_weight_points_dropped(self):
        mu = DiscreteMeasure(np.array([[0.0], [1.0], [9.0]]),
                             np.array([0.5, 0.5, 0.0]))
        nu = DiscreteMeasure(np.array([[0.2], [1.2], [8.0]]),
                             np.array([0.5, 0.5, 0.0]))
        cost = CostSpec.sq_euclidean()
        m2, n2, c2 = restrict_full_mass(mu, nu, cost, [0, 1], [0, 1])
        res_full = solve(mu, nu, cost)
        res_red = solve(m2, n2, c2)
        assert res_full.duality.primal_cost == pytest.approx(
            res_red.duality.primal_cost)

    def test_mass_loss_detected(self):
        mu = _measure([0.0, 1.0], [0.6, 0.4])
        nu = _measure([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(MassLoss):
            restrict_full_mass(mu, nu, CostSpec.sq_euclidean(), [0], [0, 1])

    def test_extension_reproduces_f_on_kept_points(self):
        mu = DiscreteMeasure(np.array([[0.0], [1.0], [9.0]]),
                             np.array([0.5, 0.5, 0.0]))
        nu = DiscreteMeasure(np.array([[0.2], [1.2], [8.0]]),
                             np.array([0.5, 0.5, 0.0]))
        cost = CostSpec.sq_euclidean()
        m2, n2, c2 = restrict_full_mass(mu, nu, cost, [0, 1], [0, 1])
        res = solve(m2, n2, c2)
        mat_full = cost.matrix(mu, nu)
        f_ext, g_ext = extend_potential(res.pair.f, [0, 1], 3, mat_full)
        assert np.allclose(f_ext[[0, 1]], res.pair.f, atol=1e-9)
        # extension is dual-feasible for the full problem
        pair = PotentialPair(f_ext, g_ext, mu, nu)
        res_full = solve(mu, nu, cost)
        rep = verify_duality(res_full.plan, pair, mat_full)
        assert rep.optimal


class TestDecomposePotential:
    def test_single_component_passthrough(self):
        rng = np.random.default_rng(24)
        mu = _measure(rng.uniform(0, 1, 5), rng.dirichlet(np.ones(5)))
        nu = _measure(rng.uniform(0, 1, 5), rng.dirichlet(np.ones(5)))
        cost = CostSpec.sq_euclidean()
        res = solve(mu, nu, cost)
        dec = ComponentDecomposition.trivial(mu, nu)
        parts = decompose_potential(res.pair, dec)
        assert len(parts) == 1
        assert np.array_equal(parts[0].values, res.pair.f)

    def test_zero_mass_component_skipped(self):
        mu = _measure([0.0, 1.0, 5.0], [0.5, 0.5, 0.0], labels=[0, 0, 1])
        nu = _measure([0.5], [1.0], labels=[0])
        res = solve(mu, nu, CostSpec.sq_euclidean())
        dec = ComponentDecomposition.build(mu, nu, "explicit_labels")
        parts = decompose_potential(res.pair, dec)
        assert [cp.skipped for cp in parts] == [False, True]
        assert parts[1].indices == (2,)
        assert np.array_equal(parts[1].values, res.pair.f[[2]])

    def test_two_components_each_optimal(self):
        mu = two_interval_instance(10, mass_left=0.3)
        nu = two_interval_instance(10, mass_left=0.5)
        cost = CostSpec.sq_euclidean()
        res = solve(mu, nu, cost)
        dec = ComponentDecomposition.build(mu, nu, "epsilon_graph", 0.5)
        parts = decompose_potential(res.pair, dec)
        assert len(parts) == 2
        for cp in parts:
            assert not cp.skipped
            prob = restrict_partial(mu, nu, res.plan, cost, cp.indices)
            f = cp.values
            g = res.pair.g[list(prob.target_indices)]
            mat = prob.cost.matrix(prob.mu, prob.nu)
            sub_res = solve(prob.mu, prob.nu, prob.cost)
            shift = sub_res.duality.primal_cost - (
                prob.mu.weights @ f + prob.nu.weights @ g)
            rep = verify_duality(sub_res.plan,
                                 PotentialPair(f + shift, g, prob.mu,
                                               prob.nu), mat)
            assert rep.optimal
