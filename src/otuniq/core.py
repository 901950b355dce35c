"""Domain types, c-transform calculus, duality verification, connectivity.

Measures, costs, plans, and potentials are immutable once built; all heavy
lifting works on plain numpy arrays.  Potentials may take the value -inf
(the extended-real sentinel), with -inf + finite = -inf semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Literal, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import (
    AllInfinite,
    DimensionMismatch,
    InfeasiblePair,
    OTUniqError,
)

NEG_INF = float("-inf")

#: the fixed tolerance policy; every check reads these constants
TAU_MASS = 1e-9          # relative, on weights summing to one
TAU_GEOM = 1e-12         # per-coordinate point distinctness
TAU_TIGHT_SCALE = 1e-7   # scaled by (1 + max |c|)
TAU_GAP = 1e-7           # relative duality gap
TAU_FACE_SCALE = 1e-6    # scaled by (1 + max |c|)

SAMPLE_R_MAX = 100.0     # profile checks sample distances up to this,
SAMPLE_COUNT = 2048      # at this many points

#: entries of one block of differences in ``CostSpec.matrix``
_BLOCK = 1 << 15


def scaled_integers(values) -> tuple[list, int]:
    """(k, L) with values[i] = k[i] / L exactly: L is the least common
    multiple of the values' denominators, each k[i] a Python int."""
    fr = [v if isinstance(v, (int, Fraction)) else Fraction(v)
          for v in values]
    scale = math.lcm(*(v.denominator for v in fr))
    ints = [int(v.numerator) * (scale // int(v.denominator)) for v in fr]
    return ints, scale


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def component_labels(n_nodes: int, edges, strong: bool = False) -> np.ndarray:
    """Connected-component id of each node of a directed graph.

    ``edges`` is a list of (tail, head) pairs or a (k, 2) integer array.
    Weak connectivity ignores edge directions: its components are the
    strong ones of the edges and their reverses.  ``strong`` asks for
    strongly connected components.  Ids count up in the order of each
    component's smallest node.  The CSR matrix is built from the sorted
    distinct keys tail * n_nodes + head: scipy's strong labelling does
    not return on a matrix with a repeated (tail, head) entry.
    """
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if not strong:
        e = np.concatenate([e, e[:, ::-1]])
    keys = np.sort(e[:, 0] * n_nodes + e[:, 1])
    keys = keys[np.diff(keys, prepend=-1) != 0]
    tails, heads = np.divmod(keys, n_nodes)
    # int32 index arrays spare scipy its scans of their contents
    indptr = np.searchsorted(tails, np.arange(n_nodes + 1)).astype(np.int32)
    adj = csr_matrix((np.ones(keys.size), heads.astype(np.int32), indptr),
                     shape=(n_nodes, n_nodes))
    _, labels = connected_components(adj, directed=True, connection="strong")
    _, first, inverse = np.unique(labels, return_index=True,
                                  return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite weighted point cloud, optionally carrying component labels."""

    points: np.ndarray            # (n, d)
    weights: np.ndarray           # (n,), nonnegative, sums to one
    labels: Optional[np.ndarray] = None  # (n,) small ints

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        if pts.shape[0] != w.shape[0]:
            raise DimensionMismatch(
                f"{pts.shape[0]} points but {w.shape[0]} weights"
            )
        if pts.size == 0:
            raise OTUniqError("measure needs a point with a coordinate")
        bad = np.flatnonzero(~(np.isfinite(w) & (w >= 0)))
        if bad.size:
            raise OTUniqError(f"weight {bad[0]} is {w[bad[0]]}, not in [0, inf)")
        total = w.sum()
        if abs(total - 1.0) > TAU_MASS * max(1.0, abs(total)):
            raise OTUniqError(f"weights sum to {total!r}, expected 1")
        _check_distinct(pts)
        object.__setattr__(self, "points", _as_readonly(pts))
        object.__setattr__(self, "weights", _as_readonly(w))
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=object).ravel()
            bad = [k for k, x in enumerate(lab) if isinstance(x, bool) or not
                   isinstance(x, (int, float, np.integer, np.floating))
                   or not (-2 ** 63 <= x < 2 ** 63 and float(x).is_integer())]
            if bad:
                raise OTUniqError(f"label {bad[0]} is {lab[bad[0]]!r}, "
                                  "expected an int64 integer")
            if lab.shape[0] != pts.shape[0]:
                raise DimensionMismatch("labels length mismatch")
            object.__setattr__(self, "labels", _as_readonly(lab.astype(int)))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def anchor_index(self) -> int:
        """Index of the lexicographically smallest point of positive
        weight (shift anchor); a zero-weight point sends no mass, so
        nothing would tie the potentials to it."""
        order = np.lexsort(self.points.T[::-1])
        return int(order[np.argmax(self.weights[order] > 0)])


def _check_distinct(pts: np.ndarray) -> None:
    bad = np.nonzero(~np.all(np.isfinite(pts), axis=1))[0]
    if bad.size:
        raise OTUniqError(f"point {bad[0]} has a non-finite coordinate")
    close = cKDTree(pts).query_pairs(TAU_GEOM, p=np.inf,
                                     output_type="ndarray")
    if close.size:
        i, j = min(map(tuple, close.tolist()))
        raise OTUniqError(f"points {i} and {j} coincide within {TAU_GEOM}")


class CostProfile:
    """Profile h applied to Euclidean distance: polynomial or tabulated."""

    def __init__(self, coeffs: Optional[Sequence[float]] = None,
                 table: Optional[tuple[Sequence[float], Sequence[float]]] = None):
        if (coeffs is None) == (table is None):
            raise OTUniqError("profile needs either coeffs or a table")
        self.coeffs = None if coeffs is None else np.asarray(coeffs, dtype=float)
        if table is None:
            self.table = None
        else:
            xs = np.asarray(table[0], dtype=float)
            ys = np.asarray(table[1], dtype=float)
            if xs.shape != ys.shape or xs.size < 2:
                raise OTUniqError("profile table needs matching arrays, >= 2 rows")
            if np.any(np.diff(xs) <= 0):
                raise OTUniqError("profile table abscissae must increase")
            self.table = (xs, ys)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.coeffs is not None:
            return np.polynomial.polynomial.polyval(r, self.coeffs)
        xs, ys = self.table
        return np.interp(r, xs, ys)

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        if self.coeffs is not None:
            dc = np.polynomial.polynomial.polyder(self.coeffs)
            return np.polynomial.polynomial.polyval(r, dc)
        xs, ys = self.table
        slopes = np.diff(ys) / np.diff(xs)
        idx = np.clip(np.searchsorted(xs, r, side="right") - 1, 0, len(slopes) - 1)
        # np.interp is flat beyond both ends of the table
        return np.where((r < xs[0]) | (r > xs[-1]), 0.0, slopes[idx])

    def is_nondecreasing(self) -> bool:
        rs = np.linspace(0.0, SAMPLE_R_MAX, SAMPLE_COUNT)
        vals = self(rs)
        return bool(np.all(np.diff(vals) >= -1e-12 * (1.0 + np.abs(vals[:-1]))))


@dataclass(frozen=True)
class CostSpec:
    """Cost family: lp-norm power, profile of distance, or explicit matrix.

    Closed-form kinds evaluate lazily; ``matrix`` builds the full matrix
    for a measure pair on every call.
    """

    kind: Literal["lp_norm_power", "profile_of_distance", "explicit_matrix"]
    q: float = 2.0               # lp norm exponent, q >= 1
    p: float = 1.0               # power applied to the norm, p > 0
    profile: Optional[CostProfile] = None
    values: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind == "lp_norm_power":
            if self.q < 1 or self.p <= 0:
                raise OTUniqError("lp_norm_power needs q >= 1 and p > 0")
        elif self.kind == "profile_of_distance":
            if self.profile is None:
                raise OTUniqError("profile_of_distance needs a profile")
        elif self.kind == "explicit_matrix":
            if self.values is None:
                raise OTUniqError("explicit_matrix needs values")
            vals = np.asarray(self.values, dtype=float)
            if vals.ndim != 2:
                raise OTUniqError("explicit matrix must be 2-d")
            if np.any(~np.isfinite(vals)) or np.any(vals < 0):
                raise OTUniqError("costs must be finite and nonnegative")
            object.__setattr__(self, "values", _as_readonly(vals))
        else:
            raise OTUniqError(f"unknown cost kind {self.kind!r}")

    @classmethod
    def lp_norm_power(cls, q: float, p: float) -> "CostSpec":
        return cls(kind="lp_norm_power", q=q, p=p)

    @classmethod
    def sq_euclidean(cls) -> "CostSpec":
        return cls(kind="lp_norm_power", q=2.0, p=2.0)

    @classmethod
    def profile_of_distance(cls, profile: CostProfile) -> "CostSpec":
        return cls(kind="profile_of_distance", profile=profile)

    @classmethod
    def explicit(cls, values) -> "CostSpec":
        return cls(kind="explicit_matrix", values=np.asarray(values, dtype=float))

    def value(self, x: np.ndarray, y: np.ndarray) -> float:
        """Evaluate c(x, y) for single points."""
        d = np.subtract(np.ravel(x), np.ravel(y), dtype=float)
        return float(self.value_rows(d[None, :])[0])

    def grad_x(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Analytic gradient of c in its first argument (closed-form kinds)."""
        d = np.subtract(np.ravel(x), np.ravel(y), dtype=float)
        return self.grad_x_rows(d[None, :])[0]

    def value_rows(self, diff: np.ndarray) -> np.ndarray:
        """c along the rows of a (k, d) array of differences x - y."""
        if self.kind == "lp_norm_power":
            return _lp_norm(diff, self.q) ** self.p
        if self.kind == "profile_of_distance":
            return self.profile(np.linalg.norm(diff, axis=1))
        raise OTUniqError("explicit matrices have no pointwise form")

    def grad_x_rows(self, diff: np.ndarray) -> np.ndarray:
        """grad_x c along the rows of a (k, d) array of differences x - y.

        Rows with x = y get 0.  For q = inf the gradient is
        p |d|_inf^(p-1) sign(d_k) e_k at the first coordinate k of
        largest magnitude.
        """
        if self.kind == "explicit_matrix":
            raise OTUniqError("explicit matrices are not differentiable")
        q = self.q if self.kind == "lp_norm_power" else 2.0
        norm = _lp_norm(diff, q)[:, None]
        # d = 0 on zero-norm rows, so any positive stand-in norm gives 0
        norm = np.where(norm > 0.0, norm, 1.0)
        if self.kind == "profile_of_distance":
            return self.profile.derivative(norm) * diff / norm
        if np.isinf(q):
            inner = np.zeros_like(diff)
            rows = np.arange(diff.shape[0])
            k = np.argmax(np.abs(diff), axis=1)
            inner[rows, k] = np.sign(diff[rows, k])
            return self.p * norm ** (self.p - 1.0) * inner
        inner = np.sign(diff) * np.abs(diff) ** (q - 1.0)
        return self.p * norm ** (self.p - q) * inner

    def matrix(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
        """Full cost matrix for a measure pair, read-only.

        Closed-form kinds run ``value_rows`` on blocks of source rows,
        each block's difference array holding at most ``_BLOCK`` entries
        (or one source row, if that holds more), and write each block
        clipped at 0 straight into the matrix.  The kernel works row by
        row of the differences, so the matrix is bit for bit the one-shot
        ``value_rows`` of all n m differences, while the temporaries stay
        a small fraction of the matrix.  Raises when an entry is not
        finite or below -1e-12.
        """
        if self.kind == "explicit_matrix":
            if self.values.shape != (mu.n, nu.n):
                raise DimensionMismatch(
                    f"cost is {self.values.shape}, measures are {(mu.n, nu.n)}"
                )
            return self.values
        n, m = mu.n, nu.n
        x, y = mu.points, nu.points[None, :, :]
        mat = np.empty((n, m))
        step = max(1, _BLOCK // (m * mu.dim))
        for r in range(0, n, step):
            diff = x[r:r + step, None, :] - y
            block = self.value_rows(diff.reshape(-1, mu.dim))
            if np.any(~np.isfinite(block)) or np.any(block < -1e-12):
                raise OTUniqError("cost evaluation produced invalid entries")
            np.maximum(block.reshape(-1, m), 0.0, out=mat[r:r + step])
        return _as_readonly(mat)

    def scaled_exact_matrix(self, x: np.ndarray,
                            y: np.ndarray) -> tuple[np.ndarray, int]:
        """(K C, K): the exact squared Euclidean or l1 cost matrix C
        between (n, d) and (m, d) object arrays of Fraction points, times
        K, as an object array of Python ints.  The sums run on the points
        times D, the least common multiple of their coordinate
        denominators, so K is D**2, or D for l1."""
        if self.kind == "lp_norm_power" and (self.q, self.p) in ((2.0, 2.0), (1.0, 1.0)):
            ints, scale = scaled_integers([*x.flat, *y.flat])
            pts = np.array(ints, dtype=object)
            d = pts[:x.size].reshape(x.shape)[:, None, :] \
                - pts[x.size:].reshape(y.shape)[None, :, :]
            power = int(self.p)                 # 2, or 1 for l1
            return (abs(d) ** power).sum(axis=2), scale ** power
        raise OTUniqError("exact mode supports explicit matrices, squared "
                          "Euclidean, and l1 costs")


def _lp_norm(diff: np.ndarray, q: float) -> np.ndarray:
    if q == 2.0:
        return np.linalg.norm(diff, axis=1)
    if q == 1.0:
        return np.sum(np.abs(diff), axis=1)
    if np.isinf(q):
        return np.max(np.abs(diff), axis=1)
    return np.sum(np.abs(diff) ** q, axis=1) ** (1.0 / q)


@dataclass(frozen=True)
class TransportPlan:
    """Sparse nonnegative coupling of a source and a target measure."""

    rows: np.ndarray
    cols: np.ndarray
    masses: np.ndarray
    source: DiscreteMeasure
    target: DiscreteMeasure

    def __post_init__(self):
        rows = np.asarray(self.rows).ravel()
        cols = np.asarray(self.cols).ravel()
        masses = np.asarray(self.masses, dtype=float).ravel()
        if not (rows.shape == cols.shape == masses.shape):
            raise DimensionMismatch("plan triples have inconsistent lengths")
        bad = np.flatnonzero((rows < 0) | (rows >= self.source.n)
                             | (cols < 0) | (cols >= self.target.n)
                             | (rows != np.floor(rows))
                             | (cols != np.floor(cols)))
        if bad.size:
            raise DimensionMismatch(
                f"arc {bad[0]} is ({rows[bad[0]]}, {cols[bad[0]]}), outside "
                f"the {self.source.n} x {self.target.n} index grid")
        rows, cols = rows.astype(int), cols.astype(int)
        bad = np.flatnonzero(~(np.isfinite(masses) & (masses >= 0)))
        if bad.size:
            raise OTUniqError(f"arc {bad[0]} has mass {masses[bad[0]]}, "
                              "not in [0, inf)")
        keep = masses > 0.0
        rows, cols, masses = rows[keep], cols[keep], masses[keep]
        object.__setattr__(self, "rows", _as_readonly(rows))
        object.__setattr__(self, "cols", _as_readonly(cols))
        object.__setattr__(self, "masses", _as_readonly(masses))
        rs = np.bincount(rows, weights=masses, minlength=self.source.n)
        cs = np.bincount(cols, weights=masses, minlength=self.target.n)
        if (np.max(np.abs(rs - self.source.weights)) > 1e3 * TAU_MASS
                or np.max(np.abs(cs - self.target.weights)) > 1e3 * TAU_MASS):
            raise OTUniqError("plan marginals do not match the measures")

    @property
    def entries(self) -> list[tuple[int, int, float]]:
        return [(int(i), int(j), float(v))
                for i, j, v in zip(self.rows, self.cols, self.masses)]

    def primal_cost(self, cost_matrix: np.ndarray) -> float:
        return float(np.sum(cost_matrix[self.rows, self.cols] * self.masses))

    def support_pairs(self) -> set[tuple[int, int]]:
        return {(int(i), int(j)) for i, j in zip(self.rows, self.cols)}


@dataclass(frozen=True)
class PotentialPair:
    """Dual values f on the source support and g on the target support."""

    f: np.ndarray
    g: np.ndarray
    source: DiscreteMeasure
    target: DiscreteMeasure

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float).ravel()
        g = np.asarray(self.g, dtype=float).ravel()
        if f.shape[0] != self.source.n or g.shape[0] != self.target.n:
            raise DimensionMismatch("potential lengths do not match measures")
        if np.any(np.isnan(f)) or np.any(np.isnan(g)) or np.any(np.isposinf(f)) \
                or np.any(np.isposinf(g)):
            raise OTUniqError("potentials must be finite or -inf")
        object.__setattr__(self, "f", _as_readonly(f))
        object.__setattr__(self, "g", _as_readonly(g))

    @property
    def dual_value(self) -> float:
        """mu f + nu g; -inf values only count where they carry weight."""
        return float(_dual_value(self.f, self.g, self.source, self.target))

    def shifted(self, s: float) -> "PotentialPair":
        return PotentialPair(self.f + s, self.g - s, self.source, self.target)


def _dual_value(f: np.ndarray, g: np.ndarray, source: DiscreteMeasure,
                target: DiscreteMeasure):
    """``PotentialPair.dual_value`` row-wise over the leading axes of
    f (..., n) and g (..., m)."""
    a, b = source.weights, target.weights
    return np.where(a > 0, f, 0.0) @ a + np.where(b > 0, g, 0.0) @ b


@dataclass(frozen=True)
class Subdifferential:
    """Pairs where f(x) + g(y) = c(x, y) within the tightness tolerance."""

    tight_pairs: frozenset


def c_transform(values: np.ndarray, cost_matrix: np.ndarray,
                direction: Literal["to_source", "to_target"]) -> np.ndarray:
    """c-transform of dual values across one side of the cost matrix.

    ``to_source``: values live on targets, result on sources
    (f(x) = min_y c(x, y) - g(y)); ``to_target`` is the mirror image.
    Entries equal to -inf are skipped in the minimum.
    """
    values = np.asarray(values, dtype=float).ravel()
    cost_matrix = np.asarray(cost_matrix, dtype=float)
    bad = np.flatnonzero(np.isnan(values) | np.isposinf(values))
    if bad.size:
        raise OTUniqError(f"value {bad[0]} is {values[bad[0]]}, expected "
                          "finite or -inf")
    if np.all(np.isneginf(values)):
        raise AllInfinite("all dual values are -inf")
    if direction not in ("to_source", "to_target"):
        raise OTUniqError(f"unknown direction {direction!r}")
    # to_target is to_source on the transposed matrix
    mat = cost_matrix if direction == "to_source" else cost_matrix.T
    if values.shape[0] != mat.shape[1]:
        side = "columns" if direction == "to_source" else "rows"
        raise DimensionMismatch(f"{values.shape[0]} values for "
                                f"{mat.shape[1]} cost {side}")
    with np.errstate(invalid="ignore"):
        diff = mat - values[None, :]
    diff[:, np.isneginf(values)] = np.inf
    return diff.min(axis=1)


def double_transform_residual(f: np.ndarray, cost_matrix: np.ndarray) -> float:
    """max_x |f^cc(x) - f(x)|; zero iff f is c-concave on the support."""
    f = np.asarray(f, dtype=float).ravel()
    g = c_transform(f, cost_matrix, "to_target")
    fcc = c_transform(g, cost_matrix, "to_source")
    both_inf = np.isneginf(f) & np.isneginf(fcc)
    diff = np.where(both_inf, 0.0, np.abs(fcc - f))
    return float(np.max(diff))


def _slack(f: np.ndarray, g: np.ndarray, cost_matrix: np.ndarray):
    """(c - f - g, tau_tight, feasible) for potentials f (..., n) and
    g (..., m), row-wise over their leading axes: the slack as one new
    (..., n, m) array, computed in place, the tightness tolerance, and
    whether no entry of each (n, m) slice lies below -tau_tight.  Every
    slack pass checks here that the cost matrix is (n, m).

    NaN entries (only from NaN costs) count as infinitely slack: they
    never fail feasibility and are never tight.
    """
    if np.shape(cost_matrix) != (f.shape[-1], g.shape[-1]):
        raise DimensionMismatch(f"cost matrix is {np.shape(cost_matrix)}, "
                                f"potentials are {(f.shape[-1], g.shape[-1])}")
    tau = TAU_TIGHT_SCALE * (1.0 + float(np.max(cost_matrix)))
    with np.errstate(invalid="ignore"):
        slack = np.subtract(cost_matrix, f[..., :, None])
        slack -= g[..., None, :]
    # fmin skips NaN, as the minimum over NaN replaced by inf would
    return slack, tau, ~(np.fmin.reduce(slack, axis=(-2, -1)) < -tau)


def subdifferential_of(pair: PotentialPair,
                       cost_matrix: np.ndarray) -> Subdifferential:
    """All tight pairs of a dual-feasible potential pair, ``slack <= tau``
    as in ``verify_duality``; raises InfeasiblePair when an entry of
    c - f - g lies below -tau_tight."""
    slack, tau, feasible = _slack(pair.f, pair.g, cost_matrix)
    if not feasible:
        worst = np.where(np.isnan(slack), np.inf, slack)
        i, j = np.unravel_index(int(np.argmin(worst)), slack.shape)
        raise InfeasiblePair(
            f"f({i}) + g({j}) exceeds c by {-float(slack[i, j]):.3e}"
        )
    ti, tj = np.nonzero(slack <= tau)
    return Subdifferential(frozenset(zip(ti.tolist(), tj.tolist())))


def tight_components(rows: np.ndarray, cols: np.ndarray, ti: np.ndarray,
                     tj: np.ndarray, source_index: np.ndarray,
                     target_index: np.ndarray) -> np.ndarray:
    """Strongly connected components of the tight residual graph.

    Nodes are the source groups 0..S-1 (``source_index[i]`` is the group
    of source point i) followed by the target groups S..S+T-1.  Each
    tight pair (``ti[k]``, ``tj[k]``) gives an arc from the group of i to
    the group of j, each arc (``rows[k]``, ``cols[k]``) of an optimal
    plan one back.  The caller decides tightness, so any scalar type
    works: within a tolerance in float mode, ``slack == 0`` on exact
    scalars; the pairs should join positive-weight points only.  A tight
    pair carries mass in some optimal plan iff it lies on a cycle of
    this graph (strict complementarity, Goldman-Tucker), so two groups
    share a component iff optimal plans glue their potentials together.
    Returns ``component_labels(..., strong=True)`` of the graph.
    """
    ns = int(np.max(source_index)) + 1
    tails = np.r_[source_index[ti], ns + target_index[cols]]
    heads = np.r_[ns + target_index[tj], source_index[rows]]
    return component_labels(ns + int(np.max(target_index)) + 1,
                            np.c_[tails, heads], strong=True)


@dataclass(frozen=True)
class DualityReport:
    """``verify_duality``'s verdict; ``tight_pairs`` is None if
    infeasible."""

    primal_cost: float
    dual_value: float
    gap: float
    feasible: bool
    support_tight: bool
    optimal: bool
    tolerance: float
    # (rows, cols) of the tight pairs in row-major order, read-only
    tight_pairs: Optional[tuple] = field(default=None, repr=False,
                                         compare=False)


def _checks(plan: TransportPlan, f: np.ndarray, g: np.ndarray, dual,
            cost_matrix: np.ndarray):
    """(``DualityReport``, slack, tau): ``verify_duality``'s feasibility,
    support and gap tests on potentials f (..., n), g (..., m) and their
    dual values mu f + nu g (...), from one ``_slack`` pass.  The test
    fields are arrays over the leading axes (0-d for one pair), and the
    report has no tight pairs.  Support tightness reads the slack at the
    plan's arcs as ``slack <= tau``, which is |slack| <= tau on a
    feasible row; an infeasible row is not support tight.
    """
    cost_matrix = np.asarray(cost_matrix, dtype=float)
    if (f.shape[-1], g.shape[-1]) != (plan.source.n, plan.target.n):
        raise DimensionMismatch("pair does not match the plan's measures")
    slack, tau, feasible = _slack(f, g, cost_matrix)
    primal = plan.primal_cost(cost_matrix)
    tau_gap = TAU_GAP * (1.0 + abs(primal))
    gap = primal - dual
    support_tight = feasible & np.all(slack[..., plan.rows, plan.cols] <= tau,
                                      axis=-1)
    optimal = support_tight & (np.abs(gap) <= tau_gap)
    return DualityReport(primal, dual, gap, feasible, support_tight, optimal,
                         tau_gap), slack, tau


def verify_duality(plan: TransportPlan, pair: PotentialPair,
                   cost_matrix: np.ndarray) -> DualityReport:
    """Primal/dual cross-check: gap, feasibility, support tightness, and
    the tight pairs that ``certify`` and the tight-graph oracle read,
    ``slack <= tau`` on ``_checks``' one (n, m) slack buffer, kept as
    read-only ``np.nonzero`` index arrays."""
    report, slack, tau = _checks(plan, pair.f, pair.g, pair.dual_value,
                                 cost_matrix)
    pairs = None
    if report.feasible:
        pairs = np.nonzero(slack <= tau)
        for index in pairs:
            index.setflags(write=False)
    return replace(report, feasible=bool(report.feasible),
                   support_tight=bool(report.support_tight),
                   optimal=bool(report.optimal), tight_pairs=pairs)
