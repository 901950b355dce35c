"""Connected-component decomposition of supports and restricted problems.

Components are either taken verbatim from measure labels or built from
the epsilon-proximity graph (two points share a component iff joined by
a chain of hops of Euclidean length <= epsilon).  Components are
discrete stand-ins for the topological components of a continuum
support; every downstream certificate flags that distinction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional, Sequence

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    CostSpec,
    DiscreteMeasure,
    Tolerances,
    TransportPlan,
    _as_readonly,
    component_labels,
)
from .errors import BadEpsilon, MassLoss, OTUniqError, ZeroMassComponent


def decompose(measure: DiscreteMeasure,
              method: Literal["explicit_labels", "epsilon_graph"],
              epsilon: Optional[float] = None) -> list[list[int]]:
    """Partition of point indices into components, ordered by smallest
    member index."""
    if method == "explicit_labels":
        if measure.labels is None:
            raise OTUniqError("measure carries no labels")
        keys = [int(lab) for lab in measure.labels]
    elif method == "epsilon_graph":
        if epsilon is None or epsilon <= 0:
            raise BadEpsilon("epsilon must be positive")
        pts = measure.points
        edges = [(i, i + 1 + int(off)) for i in range(measure.n)
                 for off in np.nonzero(np.linalg.norm(pts[i + 1:] - pts[i],
                                                      axis=1) <= epsilon)[0]]
        keys = component_labels(measure.n, edges).tolist()
    else:
        raise OTUniqError(f"unknown decomposition method {method!r}")
    buckets: dict[int, list[int]] = {}
    for idx, key in enumerate(keys):
        buckets.setdefault(key, []).append(idx)
    return sorted(buckets.values(), key=lambda g: g[0])


@dataclass(frozen=True)
class ComponentDecomposition:
    """Index partitions of both supports, with the method that built them.

    ``source_index[i]`` and ``target_index[j]`` give the component of
    each point.
    """

    source_components: tuple
    target_components: tuple
    method: str
    epsilon: Optional[float] = None
    source_index: np.ndarray = field(init=False, repr=False, compare=False)
    target_index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, parts in (("source_index", self.source_components),
                            ("target_index", self.target_components)):
            index = np.empty(sum(len(g) for g in parts), dtype=int)
            for k, grp in enumerate(parts):
                index[list(grp)] = k
            object.__setattr__(self, name, _as_readonly(index))

    @classmethod
    def build(cls, mu: DiscreteMeasure, nu: DiscreteMeasure,
              method: Literal["explicit_labels", "epsilon_graph"],
              epsilon: Optional[float] = None) -> "ComponentDecomposition":
        src = decompose(mu, method, epsilon)
        tgt = decompose(nu, method, epsilon)
        return cls(tuple(tuple(g) for g in src), tuple(tuple(g) for g in tgt),
                   method, epsilon)

    @classmethod
    def trivial(cls, mu: DiscreteMeasure, nu: DiscreteMeasure
                ) -> "ComponentDecomposition":
        return cls((tuple(range(mu.n)),), (tuple(range(nu.n)),),
                   "explicit_labels", None)

    def component_masses(self, mu: DiscreteMeasure, nu: DiscreteMeasure):
        ms = [float(np.sum(mu.weights[list(g)]))
              for g in self.source_components]
        mt = [float(np.sum(nu.weights[list(g)]))
              for g in self.target_components]
        return ms, mt


@dataclass(frozen=True)
class RestrictedProblem:
    """A component's own transport problem, induced by an optimal plan."""

    mu: DiscreteMeasure
    nu: DiscreteMeasure
    cost: CostSpec
    source_indices: tuple      # into the original source measure
    target_indices: tuple      # into the original target measure
    mass: float                # mu-mass of the component before renormalizing


def restrict_partial(mu: DiscreteMeasure, nu: DiscreteMeasure,
                     plan: TransportPlan, cost: CostSpec,
                     component: Sequence[int]) -> RestrictedProblem:
    """Restricted problem on a source component, per the plan's rows.

    The restricted source is mu conditioned on the component; the
    restricted target is the plan's image of the component, renormalized.
    """
    comp = sorted(int(i) for i in component)
    comp_set = set(comp)
    mass = float(np.sum(mu.weights[comp]))
    if mass <= DEFAULT_TOLERANCES.mass:
        raise ZeroMassComponent(f"component {comp[:4]}... carries no mass")
    img: dict[int, float] = {}
    for i, j, v in plan.entries:
        if i in comp_set:
            img[j] = img.get(j, 0.0) + v
    tgt = sorted(img)
    sub_mu = DiscreteMeasure(mu.points[comp], mu.weights[comp] / mass,
                             None if mu.labels is None else mu.labels[comp])
    sub_nu = DiscreteMeasure(nu.points[tgt],
                             np.array([img[j] for j in tgt]) / mass,
                             None if nu.labels is None else nu.labels[tgt])
    sub_cost = _restricted_cost(cost, mu, nu, comp, tgt)
    return RestrictedProblem(sub_mu, sub_nu, sub_cost, tuple(comp),
                             tuple(tgt), mass)


def _restricted_cost(cost: CostSpec, mu: DiscreteMeasure, nu: DiscreteMeasure,
                     rows: Sequence[int], cols: Sequence[int]) -> CostSpec:
    if cost.kind == "explicit_matrix":
        return CostSpec.explicit(cost.values[np.ix_(list(rows), list(cols))])
    return cost  # closed-form kinds restrict by evaluation


def restrict_full_mass(mu: DiscreteMeasure, nu: DiscreteMeasure,
                       cost: CostSpec, keep_source: Sequence[int],
                       keep_target: Sequence[int],
                       tol: Tolerances = DEFAULT_TOLERANCES):
    """Drop zero-mass points; the kept problem has the same potentials.

    Discarded indices must carry weight at most tau_mass in total on each
    side, else MassLoss.
    """
    ks = sorted(int(i) for i in keep_source)
    kt = sorted(int(j) for j in keep_target)
    lost_s = float(np.sum(mu.weights)) - float(np.sum(mu.weights[ks]))
    lost_t = float(np.sum(nu.weights)) - float(np.sum(nu.weights[kt]))
    if lost_s > tol.mass or lost_t > tol.mass:
        raise MassLoss(
            f"discarded weight {max(lost_s, lost_t):.3e} exceeds tolerance"
        )
    new_mu = DiscreteMeasure(
        mu.points[ks], mu.weights[ks] / np.sum(mu.weights[ks]),
        None if mu.labels is None else mu.labels[ks])
    new_nu = DiscreteMeasure(
        nu.points[kt], nu.weights[kt] / np.sum(nu.weights[kt]),
        None if nu.labels is None else nu.labels[kt])
    return new_mu, new_nu, _restricted_cost(cost, mu, nu, ks, kt)


def extend_potential(f_restricted: np.ndarray, keep_source: Sequence[int],
                     n_full: int, cost_matrix_full: np.ndarray):
    """Extend a restricted f to the full support via a c-transform pass.

    Dropped points get f(x) = min_y c(x, y) - g(y) with g computed from
    the kept points, so the extension agrees with f on the kept support
    whenever f was c-concave there.
    """
    from .core import c_transform

    ks = list(keep_source)
    f_full = np.full(n_full, -np.inf)
    f_full[ks] = f_restricted
    g = c_transform(f_full, cost_matrix_full, "to_target")
    return c_transform(g, cost_matrix_full, "to_source"), g
