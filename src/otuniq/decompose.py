"""Connected-component decomposition of supports.

Components are either taken verbatim from measure labels or built from
the epsilon-proximity graph (two points share a component iff joined by
a chain of hops of Euclidean length <= epsilon).  Either way components
are numbered by their smallest member.  Components are discrete stand-ins
for the topological components of a continuum support; every
downstream certificate flags that distinction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional

import numpy as np
from scipy.spatial import cKDTree

from .core import (DiscreteMeasure, _as_readonly, _first_occurrence_ids,
                   component_labels)
from .errors import BadEpsilon, OTUniqError


def _component_ids(measure: DiscreteMeasure, method: str,
                   epsilon: Optional[float]) -> np.ndarray:
    """Component id of each point, numbered by smallest member.

    Explicit labels need no graph: each label is numbered by the rank of
    its first occurrence.  The epsilon graph takes its candidate pairs
    from a k-d tree queried at a radius widened by 1e-9 relative: the
    tree compares squared distances, whose rounding differs from the
    norm's, so an unwidened query can miss a pair at exactly epsilon.
    The norm test ``|pts[i] - pts[j]| <= epsilon`` then decides each
    pair, and ``core.component_labels`` numbers the components.
    """
    if method == "explicit_labels":
        if measure.labels is None:
            raise OTUniqError("measure carries no labels")
        return _first_occurrence_ids(measure.labels)
    if method != "epsilon_graph":
        raise OTUniqError(f"unknown decomposition method {method!r}")
    if epsilon is None or not epsilon > 0:
        raise BadEpsilon(f"epsilon must be positive, got {epsilon}")
    pts = measure.points
    pairs = cKDTree(pts).query_pairs(epsilon * (1 + 1e-9),
                                     output_type="ndarray")
    near = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
    return component_labels(measure.n, pairs[near <= epsilon])


def _groups(ids: np.ndarray) -> tuple:
    """Point indices of each component as tuples, in id order."""
    bounds = np.cumsum(np.bincount(ids))[:-1]
    return tuple(tuple(g.tolist())
                 for g in np.split(np.argsort(ids, kind="stable"), bounds))


@dataclass(frozen=True)
class ComponentDecomposition:
    """Index partitions of both supports.

    ``source_index[i]`` and ``target_index[j]`` give the component of
    each point (read-only arrays); ``build`` computes them and reads the
    component tuples off them, so both views come from one labelling.
    """

    source_index: np.ndarray = field(repr=False, compare=False)
    target_index: np.ndarray = field(repr=False, compare=False)
    source_components: tuple
    target_components: tuple

    @classmethod
    def build(cls, mu: DiscreteMeasure, nu: DiscreteMeasure,
              method: Literal["explicit_labels", "epsilon_graph"],
              epsilon: Optional[float] = None) -> "ComponentDecomposition":
        src = _as_readonly(_component_ids(mu, method, epsilon))
        tgt = _as_readonly(_component_ids(nu, method, epsilon))
        return cls(src, tgt, _groups(src), _groups(tgt))

    def component_masses(self, a: np.ndarray, b: np.ndarray):
        """Per-component weight sums: floats on float arrays (bit for bit
        ``np.sum``), Python ints on object arrays of ints."""
        cast = float if a.dtype != object else (lambda x: x)
        return ([cast(np.sum(a[list(g)])) for g in self.source_components],
                [cast(np.sum(b[list(g)])) for g in self.target_components])
