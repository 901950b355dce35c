"""Grid-scale regularity diagnostics.

Everything here is a numerical diagnostic, not a proof: dominated-cost
regions and their asymptotic limits, and a finite-difference check of
the gradient identity grad f(x) = grad_x c(x, y) at interior support
points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import CostSpec
from .errors import (DimensionMismatch, NotAGrid, OTUniqError,
                     ProfileNotMonotone)
from .solver import SolveResult


@dataclass(frozen=True)
class DominatedCostRegion:
    """Grid membership of C(x, y) = {x' : c(x', y) <= c(x, y)}."""

    grid: np.ndarray
    member: np.ndarray        # boolean per grid point
    threshold: float          # c(x, y)


def dominated_region(x, y, cost: CostSpec, grid) -> DominatedCostRegion:
    """Exact evaluation of the dominated-cost region at every grid point."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[0] == 0:
        raise OTUniqError("empty query grid")
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    thr = cost.value(x, y)
    return DominatedCostRegion(grid=grid, threshold=thr,
                               member=cost.value_rows(grid - y) <= thr)


@dataclass(frozen=True)
class AsymptoticRegion:
    """Membership frequencies of C(x_n~, y_n) along an escaping ray."""

    direction: np.ndarray
    tail_frequency: np.ndarray  # over the tail half of the schedule
    tail_member: np.ndarray    # member at every radius in the tail half


def _norm(u: np.ndarray) -> float:
    """Euclidean norm of ``u``, inf past the float range: the entries are
    scaled by the largest |u_i| first, so no square overflows.  NaN when
    an entry is NaN."""
    top = float(np.max(np.abs(u), initial=0.0))
    if not 0 < top < np.inf:
        return top
    return top * float(np.linalg.norm(u / top))


def asymptotic_region(x, direction, cost: CostSpec, radii, grid
                      ) -> AsymptoticRegion:
    """Approximate C_infinity = limsup C(x_n~, y_n).

    Targets escape along the ray y_n = x + r_n u while the perturbed
    anchors approach, x_n~ = x + u / sqrt(r_n) (the squared-Euclidean
    recipe of the interior-regularity construction).  A grid point
    belongs to the limsup approximation when it is a member at every
    radius in the tail half of the schedule.
    """
    if cost.kind == "explicit_matrix":
        raise OTUniqError("asymptotic regions need a closed-form cost")
    if cost.kind == "profile_of_distance" \
            and not cost.profile.is_nondecreasing():
        raise ProfileNotMonotone("profile must be nondecreasing")
    x = np.asarray(x, dtype=float).ravel()
    u = np.asarray(direction, dtype=float).ravel()
    norm = _norm(u)
    if not 0 < norm < np.inf:
        raise OTUniqError("direction must have a positive finite norm")
    if not np.isclose(norm, 1.0, rtol=0.0, atol=1e-9):
        u = u / norm
    radii = np.sort(np.asarray(radii, dtype=float))
    if np.any(radii <= 0):
        raise OTUniqError("radii must be positive")
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    member = np.zeros((len(radii), grid.shape[0]), dtype=bool)
    for k, r in enumerate(radii):
        y_n = x + r * u
        x_n = x + u / np.sqrt(r)
        member[k] = dominated_region(x_n, y_n, cost, grid).member
    tail = member[len(radii) // 2:]
    return AsymptoticRegion(direction=u, tail_frequency=tail.mean(axis=0),
                            tail_member=tail.all(axis=0))


def _grid_structure(points: np.ndarray):
    """Recover a regular cartesian grid from a point cloud.

    Returns (axes, index) where axes are the per-dimension sorted
    coordinate arrays and index maps each point to its lattice tuple.
    Raises NotAGrid when the cloud is not a full uniform product grid.
    """
    n, d = points.shape
    axes = []
    for k in range(d):
        vals = np.unique(points[:, k])
        if len(vals) > 1:
            steps = np.diff(vals)
            if np.max(steps) - np.min(steps) > 1e-9 * np.max(steps):
                raise NotAGrid(f"axis {k} spacing is not uniform")
        axes.append(vals)
    if int(np.prod([len(a) for a in axes])) != n:
        raise NotAGrid("points do not fill the product grid")
    index = np.empty((n, d), dtype=int)
    for k in range(d):
        index[:, k] = np.searchsorted(axes[k], points[:, k])
    return axes, index


@dataclass(frozen=True)
class GradientCheckReport:
    """Finite-difference f gradients vs analytic cost gradients."""

    entries: tuple     # (i, j, fd_grad, cost_grad, deviation) per tight pair
    summary: dict      # max/median per-pair and mass-weighted deviations
    interior: np.ndarray


def gradient_identity_check(result: SolveResult, cost: CostSpec,
                            interior: Optional[np.ndarray] = None
                            ) -> GradientCheckReport:
    """Check grad f(x) = grad_x c(x, y) at interior support points.

    f is differenced centrally on the source grid; the comparison is
    made per plan pair and, in the summary, against the mass-weighted
    average partner gradient (the finite stand-in for the continuum
    partner).  Deviations are reported, never thresholded away.
    """
    plan = result.plan
    mu = plan.source
    axes, index = _grid_structure(mu.points)
    shape = [len(a) for a in axes]
    inner = np.all((index > 0) & (index < np.array(shape) - 1), axis=1)
    interior = inner if interior is None else np.asarray(interior, dtype=bool)
    if interior.shape != inner.shape:
        raise DimensionMismatch(
            f"interior mask has {interior.size} entries for {mu.n} grid "
            f"points (first bad index {min(interior.size, mu.n)})")
    bad = np.flatnonzero(interior & ~inner)
    if bad.size:
        raise OTUniqError(f"interior mask marks point {bad[0]}, which lies "
                          "on the grid boundary")
    at = np.empty(mu.n, dtype=int)      # point id at each lattice position
    at[np.ravel_multi_index(index.T, shape)] = np.arange(mu.n)
    f = result.pair.f
    ix = index[interior]
    grads = np.full((mu.n, mu.dim), np.nan)
    for ax, step in enumerate(np.eye(mu.dim, dtype=int)):
        hi = at[np.ravel_multi_index((ix + step).T, shape)]
        lo = at[np.ravel_multi_index((ix - step).T, shape)]
        h = axes[ax][ix[:, ax] + 1] - axes[ax][ix[:, ax] - 1]
        grads[interior, ax] = (f[hi] - f[lo]) / h
    keep = interior[plan.rows]
    rows, cols, mass = plan.rows[keep], plan.cols[keep], plan.masses[keep]
    cgs = cost.grad_x_rows(mu.points[rows] - plan.target.points[cols])
    devs = np.linalg.norm(grads[rows] - cgs, axis=1)
    entries = tuple(zip(rows.tolist(), cols.tolist(), grads[rows], cgs,
                        devs.tolist()))
    weighted_num = np.zeros((mu.n, mu.dim))
    np.add.at(weighted_num, rows, mass[:, None] * cgs)
    weighted_den = np.bincount(rows, weights=mass, minlength=mu.n)
    live = weighted_den > 0
    wdev = np.linalg.norm(
        grads[live] - weighted_num[live] / weighted_den[live, None], axis=1)
    summary = {
        "max": float(np.max(devs)) if devs.size else 0.0,
        "median": float(np.median(devs)) if devs.size else 0.0,
        "max_weighted": float(np.max(wdev)) if wdev.size else 0.0,
        "median_weighted": float(np.median(wdev)) if wdev.size else 0.0,
        "n_interior_pairs": len(entries),
    }
    return GradientCheckReport(entries=entries, summary=summary,
                               interior=interior)
