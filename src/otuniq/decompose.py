"""Connected-component decomposition of supports.

Components are either taken verbatim from measure labels or built from
the epsilon-proximity graph (two points share a component iff joined by
a chain of hops of Euclidean length <= epsilon).  Components are
discrete stand-ins for the topological components of a continuum
support; every downstream certificate flags that distinction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional

import numpy as np

from .core import DiscreteMeasure, _as_readonly, component_labels
from .errors import BadEpsilon, OTUniqError


# entries of the pairwise-difference temporary per row block
_BLOCK_ENTRIES = 1 << 18


def _epsilon_edges(pts: np.ndarray, epsilon: float) -> np.ndarray:
    """Pairs i < j with ``|pts[i] - pts[j]| <= epsilon``, row by row.

    The norm test runs over the upper triangle in blocks of rows, so the
    difference temporary holds at most about ``_BLOCK_ENTRIES`` floats.
    Returns a (k, 2) array in row-major order.
    """
    n, d = pts.shape
    rows = max(1, _BLOCK_ENTRIES // max(1, n * d))
    parts = []
    for r in range(0, n, rows):
        near = np.linalg.norm(pts[r:r + rows, None, :] - pts[None, r:, :],
                              axis=2) <= epsilon
        i, j = np.nonzero(np.triu(near, k=1))
        parts.append(np.column_stack([r + i, r + j]))
    return np.concatenate(parts)


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
        if epsilon is None or not epsilon > 0:
            raise BadEpsilon("epsilon must be positive")
        edges = _epsilon_edges(measure.points, epsilon)
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

    def component_masses(self, mu: DiscreteMeasure, nu: DiscreteMeasure):
        ms = [float(np.sum(mu.weights[list(g)]))
              for g in self.source_components]
        mt = [float(np.sum(nu.weights[list(g)]))
              for g in self.target_components]
        return ms, mt
