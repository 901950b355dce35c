"""Dominated regions, asymptotic limits and gradient diagnostics."""

import numpy as np
import pytest

from otuniq.core import CostProfile, CostSpec, DiscreteMeasure
from otuniq.errors import (
    NotAGrid,
    OTUniqError,
    ProfileNotMonotone,
)
from otuniq.regularity import (
    asymptotic_region,
    dominated_region,
    gradient_identity_check,
)
from otuniq.solver import solve


def _grid_1d(lo, hi, n):
    return np.linspace(lo, hi, n)[:, None]


def _grid_2d(lo, hi, n):
    ax = np.linspace(lo, hi, n)
    xx, yy = np.meshgrid(ax, ax)
    return np.column_stack([xx.ravel(), yy.ravel()])


class TestDominatedRegion:
    def test_sq_euclidean_is_ball_around_y(self):
        # c(x', y) <= c(x, y) is the ball of radius |x - y| centered at y
        grid = _grid_1d(-3, 3, 301)
        reg = dominated_region([0.0], [1.0], CostSpec.sq_euclidean(), grid)
        inside = np.abs(grid[:, 0] - 1.0) <= 1.0
        assert np.array_equal(reg.member, inside)
        assert reg.threshold == pytest.approx(1.0)

    def test_l1_region_is_diamond(self):
        grid = _grid_2d(-3, 3, 61)
        cost = CostSpec.lp_norm_power(1.0, 1.0)
        y = np.array([1.0, 0.0])
        reg = dominated_region([0.0, 0.0], y, cost, grid)
        dist = np.sum(np.abs(grid - y), axis=1)
        # skip the knife-edge boundary points of the diamond, where the
        # verdict depends on float rounding of the 0.1-step grid
        off_edge = np.abs(dist - 1.0) > 1e-9
        assert np.array_equal(reg.member[off_edge], (dist <= 1.0)[off_edge])

    def test_x_equals_y_degenerate_region(self):
        grid = _grid_1d(-1, 1, 41)
        reg = dominated_region([0.3], [0.3], CostSpec.sq_euclidean(), grid)
        # threshold 0: only points at zero distance belong
        assert reg.threshold == 0.0
        assert reg.member.sum() <= 1

    def test_region_contains_anchor(self):
        rng = np.random.default_rng(40)
        for _ in range(5):
            x = rng.uniform(-2, 2, 2)
            y = rng.uniform(-2, 2, 2)
            grid = np.vstack([x[None, :], _grid_2d(-3, 3, 11)])
            reg = dominated_region(x, y, CostSpec.lp_norm_power(2.0, 3.0),
                                   grid)
            assert reg.member[0]


    @pytest.mark.parametrize("cost, ref", [
        (CostSpec.lp_norm_power(1.0, 1.0),
         lambda d: np.sum(np.abs(d), axis=1)),
        (CostSpec.lp_norm_power(3.0, 2.0),
         lambda d: np.sum(np.abs(d) ** 3, axis=1) ** (2 / 3)),
        (CostSpec.profile_of_distance(CostProfile(coeffs=[0.0, 1.0, 0.5])),
         lambda d: np.hypot(d[:, 0], d[:, 1])
         + 0.5 * np.hypot(d[:, 0], d[:, 1]) ** 2),
    ], ids=["l1", "l3", "profile"])
    def test_membership_matches_numpy_reference(self, cost, ref):
        grid = _grid_2d(-3, 3, 61)
        rng = np.random.default_rng(41)
        for _ in range(5):
            x, y = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
            reg = dominated_region(x, y, cost, grid)
            vals, thr = ref(grid - y), ref((x - y)[None, :])[0]
            off_band = np.abs(vals - thr) > 1e-12 * (1.0 + thr)
            assert np.array_equal(reg.member[off_band],
                                  (vals <= thr)[off_band])


class TestAsymptoticRegion:
    def test_sq_euclidean_tail_is_half_space(self):
        # the limsup of the balls along the ray is the half-space
        # {x' : <x' - x, u> >= 0}; with the 1/sqrt(r) anchor shift the
        # tail membership converges to it from inside
        grid = _grid_1d(-4, 4, 161)
        radii = np.geomspace(10, 1e5, 12)
        x = np.array([0.5])
        reg = asymptotic_region(x, [1.0], CostSpec.sq_euclidean(), radii,
                                grid)
        proj = grid[:, 0] - 0.5
        # no tail member lies strictly on the wrong side
        assert not np.any(reg.tail_member & (proj < -0.05))
        # comfortably inside points are all tail members
        assert np.all(reg.tail_member[proj > 0.5])

    def test_mirrored_direction(self):
        grid = _grid_1d(-4, 4, 161)
        radii = np.geomspace(10, 1e4, 10)
        a = asymptotic_region([0.0], [1.0], CostSpec.sq_euclidean(), radii,
                              grid)
        b = asymptotic_region([0.0], [-1.0], CostSpec.sq_euclidean(), radii,
                              grid)
        assert np.array_equal(a.tail_member, b.tail_member[::-1])

    def test_direction_normalized(self):
        grid = _grid_1d(-2, 2, 81)
        radii = np.geomspace(10, 1e4, 8)
        b = asymptotic_region([0.0], [1.0], CostSpec.sq_euclidean(), radii,
                              grid)
        # 1.000005 is off unit length by 5e-6: inside numpy's default
        # rtol of 1e-5, far outside the 1e-9 the check is written with
        for u in (2.0, 1.000005):
            a = asymptotic_region([0.0], [u], CostSpec.sq_euclidean(), radii,
                                  grid)
            assert a.direction.tolist() == [1.0]
            assert np.array_equal(a.tail_member, b.tail_member)

    def test_tail_frequency_between_zero_and_one(self):
        grid = _grid_2d(-3, 3, 21)
        radii = np.geomspace(5, 1e4, 9)
        reg = asymptotic_region([0.0, 0.0], [0.6, 0.8],
                                CostSpec.lp_norm_power(2.0, 2.0), radii, grid)
        assert np.all((reg.tail_frequency >= 0) & (reg.tail_frequency <= 1))
        assert np.all(reg.tail_member <= (reg.tail_frequency == 1.0))

    def test_explicit_matrix_rejected(self):
        cost = CostSpec.explicit([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(OTUniqError):
            asymptotic_region([0.0], [1.0], cost, [1.0, 2.0, 4.0],
                              _grid_1d(-1, 1, 5))

    def test_zero_direction_rejected(self):
        with pytest.raises(OTUniqError, match="direction"):
            asymptotic_region([0.0, 0.0], [0.0, 0.0], CostSpec.sq_euclidean(),
                              [1.0, 2.0, 4.0], _grid_2d(-1, 1, 5))

    def test_huge_direction_normalized(self):
        # the squares of 1e308 overflow; the norm, 1.41e308, does not
        grid = _grid_2d(-2, 2, 9)
        radii = [1.0, 2.0, 4.0]
        a = asymptotic_region([0.0, 0.0], [1e308, 1e308],
                              CostSpec.sq_euclidean(), radii, grid)
        b = asymptotic_region([0.0, 0.0], [1.0, 1.0],
                              CostSpec.sq_euclidean(), radii, grid)
        assert a.direction.tolist() == b.direction.tolist()
        assert np.array_equal(a.tail_frequency, b.tail_frequency)

    def test_overflowing_norm_rejected(self):
        # a norm past the float range is an OTUniqError, not a numpy
        # overflow warning (the suite turns warnings into errors)
        for u in ([1.5e308, 1.5e308], [np.inf, 0.0], [np.nan, 1.0]):
            with pytest.raises(OTUniqError, match="direction"):
                asymptotic_region([0.0, 0.0], u, CostSpec.sq_euclidean(),
                                  [1.0, 2.0, 4.0], _grid_2d(-1, 1, 5))

    def test_decreasing_profile_rejected(self):
        cost = CostSpec.profile_of_distance(CostProfile(coeffs=[1.0, -1.0]))
        with pytest.raises(ProfileNotMonotone):
            asymptotic_region([0.0], [1.0], cost, [1.0, 2.0, 4.0],
                              _grid_1d(-1, 1, 5))


class TestGradientIdentity:
    def test_not_a_grid(self):
        mu = DiscreteMeasure(np.array([[0.0], [0.1], [0.5]]),
                             np.full(3, 1 / 3))
        nu = DiscreteMeasure(np.array([[0.0], [0.2], [0.6]]),
                             np.full(3, 1 / 3))
        cost = CostSpec.sq_euclidean()
        res = solve(mu, nu, cost)
        with pytest.raises(NotAGrid):
            gradient_identity_check(res, cost)

    def test_constant_cost_zero_gradients(self):
        mu = DiscreteMeasure(np.linspace(0, 1, 9)[:, None], np.full(9, 1 / 9))
        nu = DiscreteMeasure(np.linspace(2, 3, 9)[:, None], np.full(9, 1 / 9))
        cost = CostSpec.profile_of_distance(CostProfile(coeffs=[1.0]))
        res = solve(mu, nu, cost)
        rep = gradient_identity_check(res, cost)
        # f is constant and grad_x c vanishes, so all deviations are 0
        assert rep.summary["max"] <= 1e-9

    def test_shifted_grid_small_weighted_deviation(self):
        n = 33
        m = (n - 1) ** 2 // 4 + 1
        xs = np.linspace(0, 1, n)
        w = 1.5 - xs
        mu = DiscreteMeasure(xs[:, None], w / w.sum())
        nu = DiscreteMeasure(np.linspace(0.3, 1.3, m)[:, None],
                             np.full(m, 1 / m))
        cost = CostSpec.sq_euclidean()
        res = solve(mu, nu, cost)
        rep = gradient_identity_check(res, cost)
        assert rep.summary["n_interior_pairs"] > 0
        assert rep.summary["max_weighted"] < 1e-2

    def test_weighted_deviation_shrinks_under_refinement(self):
        devs = []
        for n in (17, 33):
            m = (n - 1) ** 2 // 4 + 1
            xs = np.linspace(0, 1, n)
            w = 1.5 - xs
            mu = DiscreteMeasure(xs[:, None], w / w.sum())
            nu = DiscreteMeasure(np.linspace(0.3, 1.3, m)[:, None],
                                 np.full(m, 1 / m))
            res = solve(mu, nu, CostSpec.sq_euclidean())
            rep = gradient_identity_check(res, CostSpec.sq_euclidean())
            devs.append(rep.summary["max_weighted"])
        assert devs[1] < devs[0]

    def test_boundary_points_excluded(self):
        mu = DiscreteMeasure(np.linspace(0, 1, 5)[:, None], np.full(5, 0.2))
        nu = DiscreteMeasure(np.linspace(0, 1, 5)[:, None], np.full(5, 0.2))
        res = solve(mu, nu, CostSpec.sq_euclidean())
        rep = gradient_identity_check(res, CostSpec.sq_euclidean())
        assert not rep.interior[0] and not rep.interior[4]

    def test_2d_matches_per_entry_recomputation(self):
        rng = np.random.default_rng(44)
        w = rng.uniform(0.5, 1.5, 36)
        mu = DiscreteMeasure(_grid_2d(0, 1, 6), w / w.sum())
        nu = DiscreteMeasure(rng.uniform(-0.2, 1.2, (30, 2)),
                             np.full(30, 1 / 30))
        cost = CostSpec.lp_norm_power(3.0, 2.0)
        res = solve(mu, nu, cost)
        pts, f = mu.points, res.pair.f
        axes = [np.unique(pts[:, k]) for k in range(2)]
        where = {tuple(p): k for k, p in enumerate(pts.tolist())}
        inner = [all(0 < np.searchsorted(a, p[k]) < len(a) - 1
                     for k, a in enumerate(axes)) for p in pts]
        interior = np.array(inner)
        rep = gradient_identity_check(res, cost)
        assert np.array_equal(rep.interior, interior)
        want, fds = [], {}
        num, den = np.zeros((36, 2)), np.zeros(36)
        for i, j, v in res.plan.entries:
            if not interior[i]:
                continue
            fd = np.empty(2)
            for ax, a in enumerate(axes):
                k = np.searchsorted(a, pts[i, ax])
                hi, lo = pts[i].copy(), pts[i].copy()
                hi[ax], lo[ax] = a[k + 1], a[k - 1]
                fd[ax] = (f[where[tuple(hi)]] - f[where[tuple(lo)]]) \
                    / (hi[ax] - lo[ax])
            fds[i] = fd
            cg = cost.grad_x(pts[i], nu.points[j])
            want.append((i, j, fd, cg, float(np.linalg.norm(fd - cg))))
            num[i] += v * cg
            den[i] += v
        assert len(rep.entries) == len(want) > 0
        for got, ref in zip(rep.entries, want):
            assert got[:2] == ref[:2]
            assert np.array_equal(got[2], ref[2])
            assert np.array_equal(got[3], ref[3])
            assert got[4] == pytest.approx(ref[4], rel=1e-15, abs=0)
        wdev = [float(np.linalg.norm(fds[i] - num[i] / den[i])) for i in fds]
        assert rep.summary["max_weighted"] == pytest.approx(max(wdev),
                                                            rel=1e-15)
        assert rep.summary["n_interior_pairs"] == len(want)
