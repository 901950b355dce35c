"""Problem and report documents, schema version 1.

A problem document is a JSON object with blocks ``source``, ``target``,
``cost``, and optional ``options``.  Exact mode reads every number as
written: 0.3 is 3/10, and a string "p/q" is p/q.

Reports serialize deterministically, so identical inputs give
byte-identical files.  ``render_report`` writes the text in one pass
over the body: keys sorted, a two-space indent, strings ASCII-escaped,
floats as their repr (a list of finite floats in one join), Fractions
as "p/q" strings, numpy values as the Python ones.  That is the text of
``json.dumps(..., sort_keys=True, indent=2, allow_nan=False)``, whose
indenting encoder is pure Python, without a conversion pass before it.
Reports are strict JSON: infinities are written as the strings "inf"
and "-inf", and a NaN is a ValueError.
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

from .core import CostProfile, CostSpec, DiscreteMeasure, scaled_integers
from .errors import OTUniqError, ProblemFormatError

SCHEMA_VERSION = "1"


class _Literal(str):
    """A JSON number with a fraction or an exponent, kept as written.

    ``parse_problem`` decodes a document once, before it knows the mode;
    ``_number`` and ``_plain`` read each such literal once it is known."""


def _plain(value, decimals: bool):
    """``value`` with a number literal read as ``float`` would (the JSON
    default) or, with ``decimals`` (an exact-mode document), as the
    Decimal written: what a decoder without the literal hook gives."""
    if isinstance(value, _Literal):
        return Decimal(value) if decimals else float(value)
    return value


def _number(value, location: str, exact: bool, decimals: bool):
    """A finite number: a float, or in exact mode the Fraction written,
    built only once its double is finite (and nonzero unless it is) and
    its digits are few, so a short exponent cannot stall the parser.
    ``decimals`` is the document's mode: a number literal is read as in
    ``_plain``, also in a float field of an exact document."""
    if type(value) is _Literal:
        value = Decimal(value) if decimals else float(value)
    elif isinstance(value, bool):
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


def _number_list(values, location: str, exact: bool,
                 decimals: bool) -> list:
    if not isinstance(values, list) or not values:
        raise ProblemFormatError(location, "expected a nonempty list")
    return [_number(v, f"{location}/{k}", exact, decimals)
            for k, v in enumerate(values)]


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
    pts = [[_number(v, f"{location}/points/{k}", exact, exact)
            for v in (p if isinstance(p, list) else [p])]
           for k, p in enumerate(raw_pts)]
    if len({len(r) for r in pts}) != 1 or not pts[0]:
        raise ProblemFormatError(f"{location}/points",
                                 "expected one positive dimension")
    weights = _number_list(block["weights"], f"{location}/weights", exact,
                           exact)
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
                _number(block.get("q", 2), f"{location}/q", False, exact),
                _number(block.get("p", 1), f"{location}/p", False, exact))
        elif kind == "profile_of_distance" and "coeffs" in block:
            spec = CostSpec.profile_of_distance(CostProfile(
                coeffs=_number_list(block["coeffs"], f"{location}/coeffs",
                                    False, exact)))
        elif kind == "profile_of_distance" and "table" in block:
            tab = block["table"]
            if not isinstance(tab, dict) or "r" not in tab or "h" not in tab:
                raise ProblemFormatError(f"{location}/table",
                                         "needs 'r' and 'h' lists")
            spec = CostSpec.profile_of_distance(CostProfile(table=(
                _number_list(tab["r"], f"{location}/table/r", False, exact),
                _number_list(tab["h"], f"{location}/table/h", False,
                             exact))))
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
            rows = [[_number(v, f"{location}/values/{r}", exact, exact)
                     for v in row] for r, row in enumerate(rows)]
            spec = CostSpec.explicit(np.array(rows, dtype=float))
        else:
            raise ProblemFormatError(f"{location}/kind",
                                     f"unknown kind {_plain(kind, exact)!r}")
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

    def scaled_exact_problem(self):
        """(K cost, K, a, b) from ``exact`` = (x, a, y, b, explicit cost or
        None): the cost times K as an object array of Python ints, and the
        weights as Fractions.  K is the least common multiple of an
        explicit cost's denominators; other costs go through
        ``CostSpec.scaled_exact_matrix``."""
        x, a, y, b, rows = self.exact
        if rows is None:
            cost, scale = self.cost.scaled_exact_matrix(
                np.array(x, dtype=object), np.array(y, dtype=object))
        else:
            flat, scale = scaled_integers([v for row in rows for v in row])
            cost = np.array(flat, dtype=object).reshape(len(rows), -1)
        return cost, scale, a, b


def parse_problem(text: str, exact: bool = False) -> ProblemDocument:
    """Parse and validate a schema-v1 problem document."""
    try:
        doc = json.loads(text, parse_float=_Literal)
    except ValueError as exc:       # also an integer past Python's digit cap
        raise ProblemFormatError("/", f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ProblemFormatError("/", "top level must be an object")
    if str(_plain(doc.get("schema"), False)) != SCHEMA_VERSION:
        raise ProblemFormatError("/schema",
                                 f"expected version {SCHEMA_VERSION!r}")
    for key in ("source", "target", "cost"):
        if key not in doc:
            raise ProblemFormatError(f"/{key}", "missing block")
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ProblemFormatError("/options", "expected an object")
    exact = bool(exact or _plain(options.get("exact", False), False))
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
        epsilon = _number(epsilon, "/options/epsilon", False, exact)
    return ProblemDocument(
        mu=mu, nu=nu, cost=cost, epsilon=epsilon,
        exact=(x, a, y, b, rows) if exact else None,
        digest=hashlib.sha256(text.encode("utf-8")).hexdigest())


_string = json.encoder.encode_basestring_ascii
_FLOATS = {float, np.float64}


def _json(obj: Any, pad: str) -> str:
    """``obj`` as report JSON, its lines after the first indented by
    ``pad``: what ``json.dumps(..., sort_keys=True, indent=2,
    allow_nan=False)`` writes once Fractions are "p/q" strings and numpy
    values Python ones."""
    if isinstance(obj, str):
        return _string(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted({str(k): v for k, v in obj.items()}.items())
        text = (f"{_string(k)}: {_json(v, inner)}" for k, v in items)
        return f"{{\n{inner}" + f",\n{inner}".join(text) + f"\n{pad}}}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) <= _FLOATS and all(map(math.isfinite, obj)):
            text = map(float.__repr__, obj)
        else:
            text = (_json(v, inner) for v in obj)
        return f"[\n{inner}" + f",\n{inner}".join(text) + f"\n{pad}]"
    if isinstance(obj, Fraction):
        return f'"{obj.numerator}/{obj.denominator}"'
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isfinite(x):
            return repr(x)
        if math.isnan(x):
            raise ValueError("Out of range float values are not JSON "
                             "compliant")
        # strict JSON has no infinities; "inf" is what --values reads
        return '"inf"' if x > 0 else '"-inf"'
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON "
                    "serializable")


def render_report(body: dict, digest: str,
                  seed: Optional[int] = None) -> str:
    """Deterministic serialization of a report document."""
    from . import __version__

    doc = {
        "schema": SCHEMA_VERSION,
        "tool_version": __version__,
        "input_digest": digest,
        **body,
    }
    if seed is not None:
        doc["seed"] = int(seed)
    return _json(doc, "") + "\n"


def render_csv_grid(points: np.ndarray, values) -> str:
    """Plot-ready CSV: one row per point, header x1,...,xd,value."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    lines = [",".join(f"x{k + 1}" for k in range(points.shape[1])) + ",value"]
    for row, v in zip(points, np.asarray(values)):
        v = int(v) if isinstance(v, (bool, np.bool_)) else float(v)
        lines.append(",".join(repr(float(c)) for c in row) + f",{v!r}")
    return "\n".join(lines) + "\n"
