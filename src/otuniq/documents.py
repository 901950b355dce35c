"""Problem and report documents, schema version 1.

A problem document is a JSON object with blocks ``source``, ``target``,
``cost``, and optional ``options``.  Numbers are decimals, or exact
rationals written "p/q" when the exact flag is set.  Reports serialize
deterministically (sorted keys, repr floats) so identical inputs give
byte-identical files, and as strict JSON: infinities are written as the
strings "inf" and "-inf".
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

import numpy as np

from .core import CostProfile, CostSpec, DiscreteMeasure
from .errors import OTUniqError, ProblemFormatError

SCHEMA_VERSION = "1"


def _number(value, location: str, exact: bool):
    if isinstance(value, bool):
        raise ProblemFormatError(location, "expected a number, got a boolean")
    if isinstance(value, str) and exact:
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ProblemFormatError(location, f"bad rational {value!r}")
    elif not isinstance(value, (int, float)):
        raise ProblemFormatError(location, f"expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ProblemFormatError(location, f"expected a finite number, "
                                           f"got {value!r}")
    return Fraction(value) if exact else x


def _number_list(values, location: str, exact: bool) -> list:
    if not isinstance(values, list) or not values:
        raise ProblemFormatError(location, "expected a nonempty list")
    return [_number(v, f"{location}/{k}", exact) for k, v in enumerate(values)]


def _parse_measure(block, location: str, exact: bool):
    if not isinstance(block, dict):
        raise ProblemFormatError(location, "expected an object")
    if "points" not in block:
        raise ProblemFormatError(f"{location}/points", "missing")
    if "weights" not in block:
        raise ProblemFormatError(f"{location}/weights", "missing")
    raw_pts = block["points"]
    if not isinstance(raw_pts, list) or not raw_pts:
        raise ProblemFormatError(f"{location}/points",
                                 "expected a nonempty list")
    pts = []
    for k, p in enumerate(raw_pts):
        row = p if isinstance(p, list) else [p]
        pts.append([float(_number(v, f"{location}/points/{k}", exact))
                    for v in row])
    if len({len(r) for r in pts}) != 1:
        raise ProblemFormatError(f"{location}/points",
                                 "inconsistent dimensions")
    weights = _number_list(block["weights"], f"{location}/weights", exact)
    if len(weights) != len(pts):
        raise ProblemFormatError(f"{location}/weights",
                                 f"{len(weights)} weights for {len(pts)} "
                                 "points")
    labels = None
    if "labels" in block and block["labels"] is not None:
        labels = block["labels"]
        if not isinstance(labels, list) or len(labels) != len(pts) \
                or not all(isinstance(x, int) for x in labels):
            raise ProblemFormatError(f"{location}/labels",
                                     "expected integer labels, one per point")
    try:
        measure = DiscreteMeasure(np.array(pts, dtype=float),
                                  np.array([float(w) for w in weights]),
                                  labels)
    except OTUniqError as exc:
        raise ProblemFormatError(location, str(exc))
    return measure, weights


def _parse_cost(block, location: str, exact: bool):
    if not isinstance(block, dict) or "kind" not in block:
        raise ProblemFormatError(location, "expected an object with 'kind'")
    kind = block["kind"]
    try:
        if kind == "lp_norm_power":
            return CostSpec.lp_norm_power(
                float(_number(block.get("q", 2), f"{location}/q", False)),
                float(_number(block.get("p", 1), f"{location}/p", False)))
        if kind == "profile_of_distance":
            if "coeffs" in block:
                coeffs = [float(v) for v in _number_list(
                    block["coeffs"], f"{location}/coeffs", False)]
                return CostSpec.profile_of_distance(CostProfile(coeffs=coeffs))
            if "table" in block:
                tab = block["table"]
                if not isinstance(tab, dict) or "r" not in tab \
                        or "h" not in tab:
                    raise ProblemFormatError(f"{location}/table",
                                             "needs 'r' and 'h' lists")
                rs = [float(v) for v in _number_list(
                    tab["r"], f"{location}/table/r", False)]
                hs = [float(v) for v in _number_list(
                    tab["h"], f"{location}/table/h", False)]
                return CostSpec.profile_of_distance(
                    CostProfile(table=(rs, hs)))
            raise ProblemFormatError(location, "profile needs coeffs or table")
        if kind == "explicit_matrix":
            if "values" not in block or not isinstance(block["values"], list):
                raise ProblemFormatError(f"{location}/values", "missing")
            rows = block["values"]
            for r, row in enumerate(rows):
                if not isinstance(row, list) or len(row) != len(rows[0]):
                    raise ProblemFormatError(
                        f"{location}/values/{r}",
                        "expected a list as long as row 0")
            return CostSpec.explicit(np.array(
                [[float(_number(v, f"{location}/values/{r}", exact))
                  for v in row] for r, row in enumerate(rows)]))
    except ProblemFormatError:
        raise
    except OTUniqError as exc:
        raise ProblemFormatError(location, str(exc))
    raise ProblemFormatError(f"{location}/kind", f"unknown kind {kind!r}")


@dataclass(frozen=True)
class ProblemDocument:
    mu: DiscreteMeasure
    nu: DiscreteMeasure
    cost: CostSpec
    epsilon: Optional[float]
    exact: bool
    options: dict = field(default_factory=dict)
    exact_weights: Optional[tuple] = None   # (mu Fractions, nu Fractions)
    digest: str = ""


def parse_problem(text: str, exact: bool = False) -> ProblemDocument:
    """Parse and validate a schema-v1 problem document."""
    try:
        doc = json.loads(text)
    except ValueError as exc:       # also an integer past Python's digit cap
        raise ProblemFormatError("/", f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ProblemFormatError("/", "top level must be an object")
    if str(doc.get("schema")) != SCHEMA_VERSION:
        raise ProblemFormatError("/schema",
                                 f"expected version {SCHEMA_VERSION!r}")
    for key in ("source", "target", "cost"):
        if key not in doc:
            raise ProblemFormatError(f"/{key}", "missing block")
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ProblemFormatError("/options", "expected an object")
    exact = bool(exact or options.get("exact", False))
    mu, mu_w = _parse_measure(doc["source"], "/source", exact)
    nu, nu_w = _parse_measure(doc["target"], "/target", exact)
    cost = _parse_cost(doc["cost"], "/cost", exact)
    if cost.kind == "explicit_matrix" and cost.values.shape != (mu.n, nu.n):
        raise ProblemFormatError(
            "/cost/values",
            f"cost is {cost.values.shape}, measures are {(mu.n, nu.n)}")
    epsilon = None
    if "epsilon" in options and options["epsilon"] is not None:
        epsilon = float(_number(options["epsilon"], "/options/epsilon", False))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return ProblemDocument(
        mu=mu, nu=nu, cost=cost, epsilon=epsilon, exact=exact,
        options=dict(options),
        exact_weights=(tuple(mu_w), tuple(nu_w)) if exact else None,
        digest=digest)


def _plain(obj: Any) -> Any:
    """Convert numpy/Fraction values to JSON-stable plain types."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        # strict JSON has no infinities; "inf" is what --values reads
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def render_report(body: dict, digest: str,
                  seed: Optional[int] = None) -> str:
    """Deterministic serialization of a report document."""
    from . import __version__

    doc = {
        "schema": SCHEMA_VERSION,
        "tool_version": __version__,
        "input_digest": digest,
        **_plain(body),
    }
    if seed is not None:
        doc["seed"] = int(seed)
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def render_csv_grid(points: np.ndarray, values) -> str:
    """Plot-ready CSV: one row per point, header x1,...,xd,value."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    lines = [",".join(f"x{k + 1}" for k in range(points.shape[1])) + ",value"]
    for row, v in zip(points, np.asarray(values)):
        coords = ",".join(repr(float(c)) for c in row)
        lines.append(f"{coords},{_csv_value(v)}")
    return "\n".join(lines) + "\n"


def _csv_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    return repr(float(v))
