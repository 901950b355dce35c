"""c-transform calculus and duality verification."""

import dataclasses
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from otuniq.core import (
    NEG_INF,
    CostProfile,
    CostSpec,
    DiscreteMeasure,
    PotentialPair,
    TransportPlan,
    c_transform,
    double_transform_residual,
    subdifferential_of,
    verify_duality,
)
from otuniq.decompose import ComponentDecomposition
from otuniq.documents import parse_problem
from otuniq.errors import (
    AllInfinite,
    DimensionMismatch,
    InfeasiblePair,
    OTUniqError,
)
from otuniq.solver import dual_face_oracle, solve
from otuniq.uniqueness import certify


def _cost_matrices(max_side=8):
    return st.integers(2, max_side).flatmap(
        lambda n: st.integers(2, max_side).flatmap(
            lambda m: st.lists(
                st.lists(st.floats(0, 50, allow_nan=False, width=32),
                         min_size=m, max_size=m),
                min_size=n, max_size=n)))


class TestCTransform:
    def test_zero_values_give_columnwise_minima(self):
        mat = np.array([[0.0, 2.0], [3.0, 1.0]])
        out = c_transform(np.zeros(2), mat, "to_source")
        assert np.array_equal(out, [0.0, 1.0])

    def test_two_point_hand_checked(self):
        mat = np.array([[0.0, 2.0], [3.0, 1.0]])
        # min over columns of c - g with g = 0
        assert np.array_equal(c_transform(np.zeros(2), mat, "to_source"),
                              [0.0, 1.0])
        assert np.array_equal(c_transform(np.zeros(2), mat, "to_target"),
                              [0.0, 1.0])

    def test_all_minus_infinity_raises(self):
        mat = np.ones((2, 3))
        with pytest.raises(AllInfinite):
            c_transform(np.full(3, NEG_INF), mat, "to_source")

    def test_minus_infinity_entries_skipped(self):
        mat = np.array([[1.0, 5.0], [2.0, 0.0]])
        g = np.array([NEG_INF, 0.0])
        out = c_transform(g, mat, "to_source")
        assert np.array_equal(out, [5.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            c_transform(np.zeros(3), np.ones((2, 2)), "to_source")

    @pytest.mark.parametrize("values, shown",
                             [([np.inf, 0.0], "value 0 is inf"),
                              ([0.0, np.nan], "value 1 is nan")])
    def test_nan_and_plus_infinity_refused(self, values, shown):
        mat = np.array([[0.0, 1.0], [1.0, 0.0]])
        for direction in ("to_source", "to_target"):
            with pytest.raises(OTUniqError, match=shown):
                c_transform(values, mat, direction)

    def test_residual_refuses_nan(self):
        with pytest.raises(OTUniqError, match="value 0 is nan"):
            double_transform_residual([np.nan, 0.0],
                                      np.array([[0.0, 1.0], [1.0, 0.0]]))

    @given(_cost_matrices())
    @settings(max_examples=60, deadline=None)
    def test_shift_equivariance(self, rows):
        mat = np.array(rows)
        rng = np.random.default_rng(0)
        g = rng.uniform(-5, 5, mat.shape[1])
        s = 1.375  # exactly representable
        lhs = c_transform(g + s, mat, "to_source")
        rhs = c_transform(g, mat, "to_source") - s
        assert np.max(np.abs(lhs - rhs)) <= 10 * np.spacing(
            1.0 + np.max(np.abs(rhs)))

    @given(_cost_matrices())
    @settings(max_examples=60, deadline=None)
    def test_order_reversal(self, rows):
        mat = np.array(rows)
        rng = np.random.default_rng(1)
        f1 = rng.uniform(-5, 0, mat.shape[0])
        f2 = f1 + rng.uniform(0, 3, mat.shape[0])
        t1 = c_transform(f1, mat, "to_target")
        t2 = c_transform(f2, mat, "to_target")
        assert np.all(t1 >= t2 - 1e-12)

    @given(_cost_matrices())
    @settings(max_examples=60, deadline=None)
    def test_envelope_and_idempotence(self, rows):
        mat = np.array(rows)
        rng = np.random.default_rng(2)
        f = rng.uniform(-5, 5, mat.shape[0])
        g = c_transform(f, mat, "to_target")
        fcc = c_transform(g, mat, "to_source")
        assert np.all(fcc >= f - 1e-12)
        # f^ccc = f^c
        gcc = c_transform(fcc, mat, "to_target")
        assert np.max(np.abs(gcc - g)) <= 1e-9 * (1 + np.max(np.abs(g)))


class TestDoubleTransformResidual:
    def test_c_transform_has_zero_residual(self):
        mat = np.array([[0.0, 2.0, 5.0], [3.0, 1.0, 2.0]])
        f = c_transform(np.array([0.0, 1.0, -1.0]), mat, "to_source")
        assert double_transform_residual(f, mat) <= 1e-12

    def test_raised_value_detected(self):
        # f(1) - f(0) can be at most c(1, 0) - c(0, 0) = 3 for a
        # c-concave f here; exceeding that slope breaks the envelope
        mat = np.array([[0.0, 2.0], [3.0, 1.0]])
        f2 = np.array([0.0, 3.5])
        res = double_transform_residual(f2, mat)
        assert res == pytest.approx(0.5)

    def test_random_residual_nonnegative(self):
        rng = np.random.default_rng(3)
        mat = rng.uniform(0, 10, size=(10, 10))
        f = rng.uniform(-3, 3, 10)
        g = c_transform(f, mat, "to_target")
        fcc = c_transform(g, mat, "to_source")
        assert double_transform_residual(fcc, mat) <= 1e-10


class TestSubdifferential:
    def test_identity_problem_diagonal_tight(self):
        pts = np.arange(4.0)[:, None]
        mu = DiscreteMeasure(pts, np.full(4, 0.25))
        mat = CostSpec.sq_euclidean().matrix(mu, mu)
        pair = PotentialPair(np.zeros(4), np.zeros(4), mu, mu)
        sub = subdifferential_of(pair, mat)
        for i in range(4):
            assert (i, i) in sub.tight_pairs

    def test_infeasible_pair_raises(self):
        pts = np.arange(3.0)[:, None]
        mu = DiscreteMeasure(pts, np.full(3, 1 / 3))
        mat = CostSpec.sq_euclidean().matrix(mu, mu)
        pair = PotentialPair(np.full(3, 1.0), np.zeros(3), mu, mu)
        with pytest.raises(InfeasiblePair):
            subdifferential_of(pair, mat)

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(4)
        mat = rng.uniform(0, 5, size=(3, 3))
        f = c_transform(rng.uniform(-1, 1, 3), mat, "to_source")
        g = c_transform(f, mat, "to_target")
        mu = DiscreteMeasure(rng.uniform(0, 1, (3, 1)), np.full(3, 1 / 3))
        pair = PotentialPair(f, g, mu, mu)
        sub = subdifferential_of(pair, mat)
        tau = 1e-7 * (1 + mat.max())
        expected = {(i, j) for i in range(3) for j in range(3)
                    if abs(f[i] + g[j] - mat[i, j]) <= tau}
        assert sub.tight_pairs == expected

    def test_tight_set_stable_under_retransform(self):
        # finite analogue of closedness: recomputing g = f^c, f = g^c
        # reproduces the tight set exactly
        rng = np.random.default_rng(5)
        mat = rng.uniform(0, 5, size=(6, 7))
        f0 = c_transform(rng.uniform(-2, 2, 7), mat, "to_source")
        g = c_transform(f0, mat, "to_target")
        f = c_transform(g, mat, "to_source")
        mu = DiscreteMeasure(rng.uniform(0, 1, (6, 1)), np.full(6, 1 / 6))
        nu = DiscreteMeasure(rng.uniform(0, 1, (7, 1)), np.full(7, 1 / 7))
        sub1 = subdifferential_of(PotentialPair(f, g, mu, nu), mat)
        g2 = c_transform(f, mat, "to_target")
        f2 = c_transform(g2, mat, "to_source")
        sub2 = subdifferential_of(PotentialPair(f2, g2, mu, nu), mat)
        assert sub1.tight_pairs == sub2.tight_pairs

    @pytest.mark.parametrize("k", [1, 2])
    def test_pair_not_matching_the_matrix(self, k):
        # a 1-point pair would broadcast over the 3 x 3 matrix, a
        # 2-point one would not broadcast at all
        mu = DiscreteMeasure(np.arange(float(k))[:, None], np.full(k, 1 / k))
        pair = PotentialPair(np.zeros(k), np.zeros(k), mu, mu)
        with pytest.raises(DimensionMismatch, match=r"\(3, 3\)"):
            subdifferential_of(pair, np.ones((3, 3)))


class TestVerifyDuality:
    def test_solver_output_has_small_gap(self):
        rng = np.random.default_rng(6)
        mu = DiscreteMeasure(rng.uniform(0, 1, (5, 2)),
                             rng.dirichlet(np.ones(5)))
        nu = DiscreteMeasure(rng.uniform(0, 1, (6, 2)),
                             rng.dirichlet(np.ones(6)))
        cost = CostSpec.sq_euclidean()
        res = solve(mu, nu, cost)
        rep = verify_duality(res.plan, res.pair, cost.matrix(mu, nu))
        assert rep.optimal
        assert abs(rep.gap) <= rep.tolerance

    def test_perturbed_pair_rejected(self):
        rng = np.random.default_rng(7)
        mu = DiscreteMeasure(rng.uniform(0, 1, (4, 1)),
                             rng.dirichlet(np.ones(4)))
        nu = DiscreteMeasure(rng.uniform(0, 1, (4, 1)),
                             rng.dirichlet(np.ones(4)))
        cost = CostSpec.sq_euclidean()
        res = solve(mu, nu, cost)
        f2 = res.pair.f.copy()
        f2[0] += 0.1
        bad = PotentialPair(f2, res.pair.g, mu, nu)
        rep = verify_duality(res.plan, bad, cost.matrix(mu, nu))
        assert not rep.optimal

    def test_tight_pairs_read_only_or_none(self):
        rng = np.random.default_rng(9)
        mu = DiscreteMeasure(rng.uniform(0, 1, (5, 2)), np.full(5, 0.2))
        nu = DiscreteMeasure(rng.uniform(0, 1, (4, 2)), np.full(4, 0.25))
        cost = CostSpec.sq_euclidean()
        res = solve(mu, nu, cost)
        mat = cost.matrix(mu, nu)
        rep = verify_duality(res.plan, res.pair, mat)
        ti, tj = rep.tight_pairs
        assert rep.optimal
        assert not ti.flags.writeable and not tj.flags.writeable
        # row-major, and the pairs subdifferential_of finds
        assert list(zip(ti.tolist(), tj.tolist())) == \
            sorted(subdifferential_of(res.pair, mat).tight_pairs)
        assert repr(rep).endswith(f"tolerance={rep.tolerance!r})")
        raised = PotentialPair(res.pair.f + 0.5, res.pair.g, mu, nu)
        bad = verify_duality(res.plan, raised, mat)
        assert not bad.feasible and bad.tight_pairs is None

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(8)
        mu = DiscreteMeasure(rng.uniform(0, 1, (3, 1)), np.full(3, 1 / 3))
        cost = CostSpec.sq_euclidean()
        res = solve(mu, mu, cost)
        with pytest.raises(DimensionMismatch):
            verify_duality(res.plan, res.pair, np.ones((2, 2)))
        # a 2-point plan under a 3-point pair and its own 3 x 3 matrix
        two = DiscreteMeasure(np.arange(2.0)[:, None], np.full(2, 0.5))
        plan = TransportPlan([0, 1], [0, 1], [0.5, 0.5], two, two)
        with pytest.raises(DimensionMismatch, match="plan's measures"):
            verify_duality(plan, res.pair, cost.matrix(mu, mu))


class TestStackedChecks:
    """``core._checks`` on a stack of pairs, as ``ambiguity_witness``
    runs it, gives each row ``verify_duality``'s verdict on that pair."""

    @staticmethod
    def _rows(rng, res, mat, k):
        """k perturbations of the optimal pair, each feasible and
        optimal, infeasible at one entry, off the support, or past the
        gap tolerance, some within a fraction of tau of the threshold."""
        mu, nu = res.plan.source, res.plan.target
        tau = 1e-7 * (1.0 + float(np.max(mat)))
        slack = mat - res.pair.f[:, None] - res.pair.g[None, :]
        free_j = np.flatnonzero(nu.weights == 0)
        live_i = np.flatnonzero(mu.weights > 0)
        fs, gs = [], []
        for _ in range(k):
            f, g = res.pair.f.copy(), res.pair.g.copy()
            kind = rng.integers(5)
            if kind == 0:
                s = rng.uniform(-1, 1)
                f, g = f + s, g - s
            elif kind == 1:
                # a zero-weight target has no plan arc: raising its g
                # past its least slack makes only that entry infeasible
                j = rng.choice(free_j)
                g[j] += slack[:, j].min() + rng.uniform(0.9, 2.0) * tau
            elif kind == 2:
                f[rng.choice(live_i)] -= rng.uniform(0.5, 3.0) * tau
            elif kind == 3:
                f -= rng.uniform(0.5, 1.0) * tau
            else:
                f[mu.weights == 0] = -np.inf
            fs.append(f)
            gs.append(g)
        return np.array(fs), np.array(gs)

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_match_verify_duality(self, seed):
        from otuniq import core
        rng = np.random.default_rng(2700 + seed)
        a, b = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(7))
        a[0], b[[1, 4]] = 0.0, 0.0
        mu = DiscreteMeasure(rng.uniform(0, 3, (6, 2)), a / a.sum())
        nu = DiscreteMeasure(rng.uniform(0, 3, (7, 2)), b / b.sum())
        cost = CostSpec.sq_euclidean()
        res = solve(mu, nu, cost)
        mat = cost.matrix(mu, nu)
        f, g = self._rows(rng, res, mat, 60)
        stack, slack, _ = core._checks(
            res.plan, f, g, core._dual_value(f, g, mu, nu), mat)
        assert slack.shape == (60, 6, 7)
        seen = set()
        for r in range(60):
            rep = verify_duality(res.plan, PotentialPair(f[r], g[r], mu, nu),
                                 mat)
            assert (stack.feasible[r], stack.support_tight[r],
                    stack.optimal[r]) \
                == (rep.feasible, rep.support_tight, rep.optimal)
            assert stack.gap[r] == pytest.approx(rep.gap, rel=1e-12,
                                                 abs=1e-15)
            seen.add((rep.feasible, rep.support_tight, rep.optimal))
        # optimal, infeasible, off the support, and gap-violating rows
        assert seen == {(True, True, True), (False, False, False),
                        (True, False, False), (True, True, False)}


class TestDomainTypes:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(OTUniqError):
            DiscreteMeasure(np.zeros((2, 1)) + [[0], [1]],
                            np.array([0.5, 0.6]))

    def test_negative_weight_rejected(self):
        with pytest.raises(OTUniqError):
            DiscreteMeasure(np.array([[0.0], [1.0]]),
                            np.array([1.5, -0.5]))

    @pytest.mark.parametrize("bad, shown", [(np.nan, "nan"), (np.inf, "inf"),
                                            (-np.inf, "-inf")])
    def test_non_finite_weight_named(self, bad, shown):
        # a NaN sum fails the sum test open and an infinite one makes its
        # tolerance infinite, so the weight itself is checked
        with pytest.raises(OTUniqError, match=f"^weight 1 is {shown}, "):
            DiscreteMeasure(np.array([[0.0], [1.0], [2.0]]),
                            np.array([0.5, bad, 0.5]))

    @pytest.mark.parametrize("labels, shown", [
        ([0.5, 1.7, 0.2], "label 0 is 0.5,"),
        ([0, 1.7, 0], "label 1 is 1.7,"),
        ([0, 1, True], "label 2 is True,"),
        (np.array([True, False, True]), "label 0 is True,"),
        ([0, 1, float("nan")], "label 2 is nan,"),
        (["0", "1", "2"], "label 0 is '0',"),
        ([0, 2 ** 63, 1], f"label 1 is {2 ** 63},"),
        ([0, 1, -10 ** 400], "label 2 is -1000"),
    ], ids=["fractions", "one_fraction", "boolean", "boolean_array", "nan",
            "strings", "past_int64", "past_doubles"])
    def test_non_integer_label_named(self, labels, shown):
        with pytest.raises(OTUniqError, match=f"^{shown}"):
            DiscreteMeasure(np.array([[0.0], [1.0], [2.0]]),
                            np.full(3, 1 / 3), labels)

    @pytest.mark.parametrize("labels", [
        [0, 5, -3], np.array([0, 5, -3], dtype=np.int32),
        np.array([0.0, 5.0, -3.0]), [np.int64(0), 5, -3.0]],
        ids=["ints", "int32", "integral_floats", "mixed"])
    def test_integer_labels_kept(self, labels):
        mu = DiscreteMeasure(np.array([[0.0], [1.0], [2.0]]),
                             np.full(3, 1 / 3), labels)
        assert mu.labels.tolist() == [0, 5, -3]
        assert mu.labels.dtype == int

    def test_coincident_points_rejected(self):
        with pytest.raises(OTUniqError):
            DiscreteMeasure(np.array([[0.0], [0.0]]), np.array([0.5, 0.5]))

    def test_coincident_points_not_lexicographic_neighbours(self):
        # points 0 and 2 coincide within TAU_GEOM, but point 1 sorts
        # between them
        pts = np.array([[0.0, 0.0], [5e-13, 5.0], [1e-12, 0.0]])
        with pytest.raises(OTUniqError, match="points 0 and 2 coincide"):
            DiscreteMeasure(pts, np.full(3, 1 / 3))

    def test_non_finite_point_rejected(self):
        with pytest.raises(OTUniqError, match="point 1 has a non-finite"):
            DiscreteMeasure(np.array([[0.0], [np.nan]]), np.array([0.5, 0.5]))

    def test_plan_marginal_check(self):
        mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        with pytest.raises(OTUniqError):
            TransportPlan(np.array([0, 1]), np.array([0, 1]),
                          np.array([0.9, 0.1]), mu, mu)

    def test_plan_prunes_zeros(self):
        mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        plan = TransportPlan(np.array([0, 1, 0]), np.array([0, 1, 1]),
                             np.array([0.5, 0.5, 0.0]), mu, mu)
        assert len(plan.entries) == 2

    @pytest.mark.parametrize("rows, cols, bad", [([0, 2], [0, 1], "(2, 1)"),
                                                 ([0, 1], [0, -1], "(1, -1)")])
    def test_plan_refuses_arc_outside_measures(self, rows, cols, bad):
        mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        with pytest.raises(DimensionMismatch,
                           match=re.escape(f"arc 1 is {bad}, outside")):
            TransportPlan(rows, cols, [0.5, 0.5], mu, mu)

    @pytest.mark.parametrize("mass", [-1e-7, np.nan, np.inf])
    def test_plan_refuses_bad_mass(self, mass):
        mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        with pytest.raises(OTUniqError, match=f"arc 2 has mass {mass}, not"):
            TransportPlan([0, 1, 0], [0, 1, 1], [0.5, 0.5, mass], mu, mu)

    def test_potential_rejects_nan(self):
        mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        with pytest.raises(OTUniqError):
            PotentialPair(np.array([np.nan, 0.0]), np.zeros(2), mu, mu)

    def test_minus_infinity_allowed_in_potentials(self):
        mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([1.0, 0.0]))
        pair = PotentialPair(np.array([0.0, NEG_INF]), np.zeros(2), mu, mu)
        assert pair.dual_value == 0.0

    def test_explicit_matrix_shape_checked(self):
        mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        nu = DiscreteMeasure(np.array([[0.0], [1.0], [2.0]]),
                             np.array([0.4, 0.3, 0.3]))
        cost = CostSpec.explicit(np.ones((2, 2)))
        with pytest.raises(DimensionMismatch):
            cost.matrix(mu, nu)

    def test_lp_cost_values(self):
        c = CostSpec.lp_norm_power(1.0, 1.0)
        assert c.value([0.0, 0.0], [1.0, 2.0]) == pytest.approx(3.0)
        c2 = CostSpec.sq_euclidean()
        assert c2.value([0.0], [2.0]) == pytest.approx(4.0)

    def test_cost_matrix_not_stale_across_measures(self):
        # measures built and dropped one after another recycle their ids,
        # so a matrix keyed on identity would be served to the wrong pair
        rng = np.random.default_rng(7)
        shared = CostSpec.sq_euclidean()
        for _ in range(2000):
            mu = DiscreteMeasure(rng.uniform(0, 1, (3, 2)), np.full(3, 1 / 3))
            nu = DiscreteMeasure(rng.uniform(0, 1, (3, 2)), np.full(3, 1 / 3))
            assert np.array_equal(shared.matrix(mu, nu),
                                  CostSpec.sq_euclidean().matrix(mu, nu))


KERNEL_COSTS = {
    **{f"l{q}^{p}": CostSpec.lp_norm_power(q, p)
       for q in (1.0, 2.0, 3.0, np.inf) for p in (1.0, 1.5, 2.0, 3.0)},
    "polynomial": CostSpec.profile_of_distance(
        CostProfile(coeffs=[0.5, 1.0, 0.0, 2.0])),
    "tabulated": CostSpec.profile_of_distance(
        CostProfile(table=([0.0, 1.0, 2.0, 5.0], [0.0, 1.0, 3.0, 10.0]))),
}


@pytest.mark.parametrize("cost", KERNEL_COSTS.values(), ids=KERNEL_COSTS)
class TestCostKernels:
    def test_rows_equal_matrix_rows(self, cost):
        rng = np.random.default_rng(11)
        mu = DiscreteMeasure(rng.uniform(-1, 1, (7, 3)), np.full(7, 1 / 7))
        nu = DiscreteMeasure(rng.uniform(-1, 1, (5, 3)), np.full(5, 1 / 5))
        mat = cost.matrix(mu, nu)
        for i, x in enumerate(mu.points):
            diff = x - nu.points
            assert np.array_equal(cost.value_rows(diff), mat[i])
            assert [cost.value(x, y) for y in nu.points] == mat[i].tolist()
            assert np.array_equal(cost.grad_x_rows(diff),
                                  [cost.grad_x(x, y) for y in nu.points])

    def test_gradient_matches_central_differences(self, cost):
        # |x - y| < 5 here; the flat range beyond the table is covered in
        # TestCostKernelEdges
        rng = np.random.default_rng(12)
        h = 1e-6
        for _ in range(20):
            x, y = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            fd = [(cost.value(x + h * e, y) - cost.value(x - h * e, y))
                  / (2 * h) for e in np.eye(3)]
            assert np.allclose(cost.grad_x(x, y), fd, rtol=1e-5, atol=1e-6)

    def test_zero_difference_has_zero_gradient(self, cost):
        # warnings are errors in this suite, so this also asserts that
        # no 0 ** negative power is evaluated
        assert np.array_equal(cost.grad_x([0.3, -1.0], [0.3, -1.0]),
                              [0.0, 0.0])


class TestCostKernelEdges:
    def test_linf_gradient_at_first_largest_coordinate(self):
        cost = CostSpec.lp_norm_power(np.inf, 2.0)
        assert np.array_equal(cost.grad_x([2.0, 0.5], [0.0, 0.0]), [4.0, 0.0])
        assert np.array_equal(cost.grad_x([0.5, 0.2], [0.0, 0.0]), [1.0, 0.0])
        assert np.array_equal(cost.grad_x([0.0, -0.5], [0.0, 0.0]),
                              [0.0, -1.0])
        assert np.array_equal(cost.grad_x([1.0, -1.0], [0.0, 0.0]),
                              [2.0, 0.0])

    def test_tabulated_gradient_flat_beyond_the_table(self):
        # np.interp is flat outside [0, 5], so the slope there is 0
        prof = CostProfile(table=([0.0, 1.0, 2.0, 5.0], [0.0, 1.0, 3.0, 10.0]))
        cost = CostSpec.profile_of_distance(prof)
        h = 1e-6
        r = np.array([-2.0, -0.5, 5.5, 6.0, 40.0])
        fd = (prof(r + h) - prof(r - h)) / (2 * h)
        assert np.array_equal(prof.derivative(r), fd)
        assert np.array_equal(prof.derivative(r), np.zeros(5))
        for x in ([6.0, 0.0], [3.0, -4.5], [-7.0, 2.0]):
            fd = [(cost.value(x + h * e, [0.0, 0.0])
                   - cost.value(x - h * e, [0.0, 0.0])) / (2 * h)
                  for e in np.eye(2)]
            assert np.array_equal(cost.grad_x(x, [0.0, 0.0]), fd)
            assert np.array_equal(fd, [0.0, 0.0])

    def test_explicit_matrix_has_no_pointwise_form(self):
        cost = CostSpec.explicit([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(OTUniqError):
            cost.value([0.0], [1.0])
        with pytest.raises(OTUniqError):
            cost.grad_x([0.0], [1.0])

    def test_negative_profile_rejected_in_matrix(self):
        mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        cost = CostSpec.profile_of_distance(CostProfile(coeffs=[-1.0]))
        with pytest.raises(OTUniqError, match="invalid entries"):
            cost.matrix(mu, mu)


def _one_shot_matrix(cost, mu, nu):
    """``CostSpec.matrix`` as one expression over all n m differences:
    the reference for the row-blocked build."""
    diff = mu.points[:, None, :] - nu.points[None, :, :]
    mat = cost.value_rows(diff.reshape(-1, mu.dim)).reshape(mu.n, nu.n)
    return np.maximum(mat, 0.0)


def _refinement_pair(n=129, m=4097):
    """A 1-d source ramp against a uniform target grid, sized like the
    largest rung of the benchmark's gradient refinement."""
    xs = np.linspace(0.0, 1.0, n)
    w = 1.5 - xs
    return (DiscreteMeasure(xs[:, None], w / w.sum()),
            DiscreteMeasure(np.linspace(0.2, 1.2, m)[:, None],
                            np.full(m, 1.0 / m)))


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCostMatrixBlocks:
    """``CostSpec.matrix`` is built in blocks of rows; the matrix must be
    the one-shot expression's bit for bit, with temporaries small next
    to it."""

    COSTS = [CostSpec.lp_norm_power(q, p)
             for q, p in ((1.0, 2.0), (2.0, 2.0), (2.0, 1.5), (3.0, 2.5),
                          (np.inf, 3.0))] \
        + [CostSpec.profile_of_distance(CostProfile(coeffs=[0.0, 0.5, 1.0])),
           CostSpec.profile_of_distance(CostProfile(
               table=([0.0, 1.0, 2.0, 5.0], [0.0, 1.0, 3.0, 10.0])))]

    @pytest.mark.parametrize("k", range(len(COSTS)))
    @pytest.mark.parametrize("n, m", [(70, 400), (5, 12000), (3, 2)])
    def test_bit_identical_to_one_shot(self, k, n, m):
        # 400 x 3 differences a row gives blocks of 27 rows with a short
        # last one; 12000 x 3 gives one row a block
        cost = self.COSTS[k]
        rng = np.random.default_rng(1020 + k)
        mu = DiscreteMeasure(rng.uniform(-2, 2, (n, 3)), np.full(n, 1 / n))
        nu = DiscreteMeasure(rng.uniform(-2, 2, (m, 3)), np.full(m, 1 / m))
        mat = cost.matrix(mu, nu)
        assert mat.dtype == float and not mat.flags.writeable
        ref = _one_shot_matrix(cost, mu, nu)
        assert np.array_equal(mat.view(np.int64), ref.view(np.int64))

    def test_peak_memory_at_most_one_and_a_half_matrices(self):
        mu, nu = _refinement_pair()
        cost = CostSpec.sq_euclidean()
        res = solve(mu, nu, cost)
        mat = cost.matrix(mu, nu)
        assert _peak_bytes(lambda: cost.matrix(mu, nu)) <= 1.5 * mat.nbytes
        report = None

        def check():
            nonlocal report
            report = verify_duality(res.plan, res.pair, mat)

        assert _peak_bytes(check) <= 1.5 * mat.nbytes
        assert report == res.duality and report.optimal

    def test_dual_face_oracle_peak_at_most_six_matrices(self):
        # the oracle's graph has the n sources as nodes
        n = 400
        rng = np.random.default_rng(400)
        mu = DiscreteMeasure(rng.uniform(0, 1, (n, 2)), np.full(n, 1 / n))
        nu = DiscreteMeasure(rng.uniform(0, 1, (n, 2)), np.full(n, 1 / n))
        cost = CostSpec.sq_euclidean()
        res = solve(mu, nu, cost)
        mat = cost.matrix(mu, nu)
        peak = _peak_bytes(lambda: dual_face_oracle(res.plan, res.pair, mat))
        assert peak <= 6 * mat.nbytes

    def test_dual_face_oracle_peak_at_most_three_and_a_half_matrices(self):
        # CSR rows of the hops, no n x n array of inf: the slack and its
        # gathered plan columns are the peak (the dense build took 4.31)
        n = 400
        rng = np.random.default_rng(400)
        mu = DiscreteMeasure(rng.uniform(0, 1, (n, 2)), np.full(n, 1 / n))
        nu = DiscreteMeasure(rng.uniform(0, 1, (n, 2)), np.full(n, 1 / n))
        cost = CostSpec.sq_euclidean()
        res = solve(mu, nu, cost)
        mat = cost.matrix(mu, nu)
        peak = _peak_bytes(lambda: dual_face_oracle(res.plan, res.pair, mat))
        assert peak <= 3.5 * mat.nbytes

    @pytest.mark.parametrize("weights", ["uniform", "dirichlet"])
    def test_dual_face_oracle_peak_at_most_two_and_a_half_matrices(
            self, weights):
        # hop rows reduced from blocks of gathered columns: the slack and
        # the hop rows are the peak (2.22 and 2.22 here; 2.53 and 3.01,
        # with 400 and 799 plan arcs, when all columns were gathered)
        n = 400
        rng = np.random.default_rng(400)
        pts = rng.uniform(0, 1, (n, 2)), rng.uniform(0, 1, (n, 2))
        a, b = (np.full(n, 1 / n),) * 2 if weights == "uniform" else \
            (rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))
        mu, nu = DiscreteMeasure(pts[0], a), DiscreteMeasure(pts[1], b)
        cost = CostSpec.sq_euclidean()
        res = solve(mu, nu, cost)
        mat = cost.matrix(mu, nu)
        peak = _peak_bytes(lambda: dual_face_oracle(res.plan, res.pair, mat))
        assert peak <= 2.5 * mat.nbytes


def _arrays(obj):
    """Every ndarray reachable from ``obj`` through dataclass fields,
    tuples, lists and dict values."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _arrays(item)


class TestResultFootprint:
    """Results keep no n x m array: the cost matrix stays in its call,
    and the tight pairs are index arrays."""

    def test_no_matrix_sized_array_reachable(self):
        rng = np.random.default_rng(60)
        n = 60
        pts = np.concatenate([rng.uniform(0, 1, (n // 2, 2)),
                              rng.uniform(5, 6, (n // 2, 2))])
        labels = [0] * (n // 2) + [1] * (n // 2)
        mu = DiscreteMeasure(pts, np.full(n, 1 / n), labels)
        nu = DiscreteMeasure(pts + 0.01, np.full(n, 1 / n), labels)
        cost = CostSpec.sq_euclidean()
        dec = ComponentDecomposition.build(mu, nu, "explicit_labels")
        cert = certify(mu, nu, cost, dec)
        assert cert.verdict == "non_unique"
        res = solve(mu, nu, cost)
        for result in (res, cert):
            sizes = [a.size for a in _arrays(result)]
            assert sizes and max(sizes) < n * n
        # a Subdifferential holds only its set of tight pairs
        sub = subdifferential_of(res.pair, cost.matrix(mu, nu))
        assert sub.tight_pairs and not list(_arrays(sub))

    def test_kept_solve_result_at_most_a_quarter_matrix(self):
        mu, nu = _refinement_pair()
        cost = CostSpec.sq_euclidean()
        solve(mu, nu, cost)         # lazy imports and first-call caches
        tracemalloc.start()
        try:
            res = solve(mu, nu, cost)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert res.duality.optimal
        assert kept <= 0.25 * 8 * mu.n * nu.n


class TestExactMatrix:
    """Scaled exact cost matrices: Python ints over their scale K, against
    a per-entry Fraction reference."""

    @staticmethod
    def _unscaled(cost, x, y):
        ints, scale = cost.scaled_exact_matrix(np.array(x, dtype=object),
                                               np.array(y, dtype=object))
        assert all(type(v) is int for v in ints.flat)
        return ints / Fraction(scale)

    @staticmethod
    def _reference(q, x, y):
        power = 2 if q == 2.0 else 1
        return [[sum(abs(a - b) ** power for a, b in zip(p, r)) for r in y]
                for p in x]

    @staticmethod
    def _cloud(dim):
        """9 and 6 points over denominators 7 and 12 in ``dim``
        dimensions, or for "primes" 2-d points whose coordinate
        denominators are 30 distinct primes, their LCM above 2**64."""
        if dim == "primes":
            rng = np.random.default_rng(4)
            dens = iter(p for p in range(1009, 1400)
                        if all(p % k for k in range(2, 38)))
            pts = [[Fraction(int(rng.integers(-5000, 5000)), next(dens))
                    for _ in range(2)] for _ in range(15)]
            return pts[:9], pts[9:]
        rng = np.random.default_rng(dim)
        return ([[Fraction(int(v), 7) for v in row]
                 for row in rng.integers(-50, 50, (9, dim))],
                [[Fraction(int(v), 12) for v in row]
                 for row in rng.integers(-50, 50, (6, dim))])

    @pytest.mark.parametrize("q", [2.0, 1.0])
    @pytest.mark.parametrize("dim", [1, 2, 3, "primes"])
    def test_rational_clouds(self, q, dim):
        x, y = self._cloud(dim)
        if dim == "primes":
            assert math.lcm(*(v.denominator for p in x + y for v in p)) \
                > 2 ** 64
        mat = self._unscaled(CostSpec.lp_norm_power(q, q), x, y)
        assert mat.shape == (9, 6) and mat.dtype == object
        assert mat.tolist() == self._reference(q, x, y)
        assert all(type(v) is Fraction for v in mat.flat)

    @pytest.mark.parametrize("q", [2.0, 1.0])
    def test_points_are_not_rounded(self, q):
        # each of these moves when rounded to a denominator <= 10**12
        x = [[Fraction(123456789, 1000000007)], [Fraction(7, 2 ** 40)]]
        y = [[Fraction(1, 10 ** 15)],
             [Fraction(999999999990, 999999999989)]]
        mat = self._unscaled(CostSpec.lp_norm_power(q, q), x, y)
        assert mat.tolist() == self._reference(q, x, y)

    def test_explicit_matrix(self):
        # an explicit matrix is the document's: read as written, in
        # Fractions, decimals included
        doc = parse_problem(json.dumps({
            "schema": "1",
            "source": {"points": [[0], [1]], "weights": [0.5, 0.5]},
            "target": {"points": [[0], [1], [2]],
                       "weights": ["1/3", "1/3", "1/3"]},
            "cost": {"kind": "explicit_matrix",
                     "values": [[0, "1/3", 2.5], [0.1, 7, "1/7"]]},
        }), exact=True)
        ints, scale, a, b = doc.scaled_exact_problem()
        assert all(type(v) is int for v in ints.flat)
        mat = ints / Fraction(scale)
        assert mat.tolist() == [
            [0, Fraction(1, 3), Fraction(5, 2)],
            [Fraction(1, 10), 7, Fraction(1, 7)]]
        assert all(type(v) is Fraction for v in mat.flat)
        assert a == [Fraction(1, 2)] * 2 and b == [Fraction(1, 3)] * 3
        assert doc.cost.values.tolist() == [[0.0, 1 / 3, 2.5],
                                            [0.1, 7.0, 1 / 7]]

    def test_other_kinds_rejected(self):
        x = np.array([[Fraction(0)], [Fraction(1)]], dtype=object)
        for cost in (CostSpec.lp_norm_power(3.0, 1.0),
                     CostSpec.explicit([[0.0, 1.0], [1.0, 0.0]])):
            with pytest.raises(OTUniqError, match="exact mode supports"):
                cost.scaled_exact_matrix(x, x)
