"""Problem and report documents, schema version 1.

A problem document is a JSON object with blocks ``source``, ``target``,
``cost``, and optional ``options``.  Exact mode reads every number as
written: 0.3 is 3/10, and a string "p/q" is p/q.  Reports serialize
deterministically (sorted keys, repr floats) so identical inputs give
byte-identical files, and as strict JSON: infinities are written as the
strings "inf" and "-inf".
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Any, Optional

import numpy as np

from .core import CostProfile, CostSpec, DiscreteMeasure
from .errors import OTUniqError, ProblemFormatError

SCHEMA_VERSION = "1"


def _number(value, location: str, exact: bool):
    """A finite number: a float, or in exact mode the Fraction written,
    built only once its double is finite (and nonzero unless it is) and
    its digits are few, so a short exponent cannot stall the parser."""
    if isinstance(value, bool):
        raise ProblemFormatError(location, "expected a number, got a boolean")
    if isinstance(value, str) and exact:
        try:
            value = Fraction(value) if "/" in value else Decimal(value)
        except (ArithmeticError, ValueError):
            raise ProblemFormatError(location, f"bad rational {value!r}")
    elif not isinstance(value, (int, float, Decimal)):
        raise ProblemFormatError(location, f"expected a number, got {value!r}")
    try:
        x = float(value)
    except (OverflowError, ValueError):     # a huge "p/q"; Decimal sNaN
        x = math.nan
    if not math.isfinite(x) or (exact and x == 0 and value != 0):
        raise ProblemFormatError(location, "expected a finite number in the "
                                           f"range of doubles, got {value}")
    if exact and isinstance(value, Decimal) \
            and len(value.as_tuple().digits) > 4300:
        raise ProblemFormatError(location, "more than 4300 digits")
    return Fraction(value) if exact else x


def _number_list(values, location: str, exact: bool) -> list:
    if not isinstance(values, list) or not values:
        raise ProblemFormatError(location, "expected a nonempty list")
    return [_number(v, f"{location}/{k}", exact) for k, v in enumerate(values)]


def _parse_measure(block, location: str, exact: bool):
    """The measure, with its points and weights as parsed."""
    if not isinstance(block, dict):
        raise ProblemFormatError(location, "expected an object")
    for key in ("points", "weights"):
        if key not in block:
            raise ProblemFormatError(f"{location}/{key}", "missing")
    raw_pts = block["points"]
    if not isinstance(raw_pts, list) or not raw_pts:
        raise ProblemFormatError(f"{location}/points",
                                 "expected a nonempty list")
    pts = [[_number(v, f"{location}/points/{k}", exact)
            for v in (p if isinstance(p, list) else [p])]
           for k, p in enumerate(raw_pts)]
    if len({len(r) for r in pts}) != 1 or not pts[0]:
        raise ProblemFormatError(f"{location}/points",
                                 "expected one positive dimension")
    weights = _number_list(block["weights"], f"{location}/weights", exact)
    if len(weights) != len(pts):
        raise ProblemFormatError(f"{location}/weights",
                                 f"{len(weights)} weights for {len(pts)} "
                                 "points")
    labels = block.get("labels")
    if labels is not None and (
            not isinstance(labels, list) or len(labels) != len(pts)
            or not all(isinstance(x, int) for x in labels)):
        raise ProblemFormatError(f"{location}/labels",
                                 "expected integer labels, one per point")
    try:
        measure = DiscreteMeasure(np.array(pts, dtype=float),
                                  np.array(weights, dtype=float), labels)
    except OTUniqError as exc:
        raise ProblemFormatError(location, str(exc))
    return measure, pts, weights


def _parse_cost(block, location: str, exact: bool):
    """The cost, and an explicit matrix as parsed (else None)."""
    if not isinstance(block, dict) or "kind" not in block:
        raise ProblemFormatError(location, "expected an object with 'kind'")
    kind, rows = block["kind"], None
    try:
        if kind == "lp_norm_power":
            spec = CostSpec.lp_norm_power(
                _number(block.get("q", 2), f"{location}/q", False),
                _number(block.get("p", 1), f"{location}/p", False))
        elif kind == "profile_of_distance" and "coeffs" in block:
            spec = CostSpec.profile_of_distance(CostProfile(
                coeffs=_number_list(block["coeffs"], f"{location}/coeffs",
                                    False)))
        elif kind == "profile_of_distance" and "table" in block:
            tab = block["table"]
            if not isinstance(tab, dict) or "r" not in tab or "h" not in tab:
                raise ProblemFormatError(f"{location}/table",
                                         "needs 'r' and 'h' lists")
            spec = CostSpec.profile_of_distance(CostProfile(table=(
                _number_list(tab["r"], f"{location}/table/r", False),
                _number_list(tab["h"], f"{location}/table/h", False))))
        elif kind == "profile_of_distance":
            raise ProblemFormatError(location, "profile needs coeffs or table")
        elif kind == "explicit_matrix":
            if "values" not in block or not isinstance(block["values"], list):
                raise ProblemFormatError(f"{location}/values", "missing")
            rows = block["values"]
            for r, row in enumerate(rows):
                if not isinstance(row, list) or len(row) != len(rows[0]):
                    raise ProblemFormatError(
                        f"{location}/values/{r}",
                        "expected a list as long as row 0")
            rows = [[_number(v, f"{location}/values/{r}", exact)
                     for v in row] for r, row in enumerate(rows)]
            spec = CostSpec.explicit(np.array(rows, dtype=float))
        else:
            raise ProblemFormatError(f"{location}/kind",
                                     f"unknown kind {kind!r}")
    except ProblemFormatError:
        raise
    except OTUniqError as exc:
        raise ProblemFormatError(location, str(exc))
    return spec, rows


@dataclass(frozen=True)
class ProblemDocument:
    mu: DiscreteMeasure
    nu: DiscreteMeasure
    cost: CostSpec
    epsilon: Optional[float]
    exact: Optional[tuple] = None       # exact mode: the numbers as written
    digest: str = ""

    def exact_problem(self):
        """(cost, a, b) in Fractions from ``exact`` = (x, a, y, b, explicit
        cost or None); other costs go through ``CostSpec.exact_matrix``."""
        x, a, y, b, rows = self.exact
        if rows is not None:
            return np.array(rows, dtype=object), a, b
        return self.cost.exact_matrix(np.array(x, dtype=object),
                                      np.array(y, dtype=object)), a, b


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
    if exact:       # again, decimals as written: 0.3 is 3/10
        doc = json.loads(text, parse_float=Decimal)
    mu, x, a = _parse_measure(doc["source"], "/source", exact)
    nu, y, b = _parse_measure(doc["target"], "/target", exact)
    cost, rows = _parse_cost(doc["cost"], "/cost", exact)
    if cost.kind == "explicit_matrix" and cost.values.shape != (mu.n, nu.n):
        raise ProblemFormatError(
            "/cost/values",
            f"cost is {cost.values.shape}, measures are {(mu.n, nu.n)}")
    if cost.kind != "explicit_matrix" and nu.dim != mu.dim:
        raise ProblemFormatError(
            "/target/points", f"dimension {nu.dim}, the source's is {mu.dim}")
    epsilon = options.get("epsilon")
    if epsilon is not None:
        epsilon = _number(epsilon, "/options/epsilon", False)
    return ProblemDocument(
        mu=mu, nu=nu, cost=cost, epsilon=epsilon,
        exact=(x, a, y, b, rows) if exact else None,
        digest=hashlib.sha256(text.encode("utf-8")).hexdigest())


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
        v = int(v) if isinstance(v, (bool, np.bool_)) else float(v)
        lines.append(",".join(repr(float(c)) for c in row) + f",{v!r}")
    return "\n".join(lines) + "\n"
