"""Command-line front door.

Subcommands: solve, certify, witness, regularity, ctransform.  Exit
codes encode the outcome so shell pipelines can branch without parsing
reports: 0 success or verdict unique, 2 parse or usage error, 3 solver
error, 10 non_unique, 11 inconclusive, 20 oracle disagreement on an
unflagged certificate.  Set OTUNIQ_LOG=debug|info|... for diagnostics.
``certify`` builds the cost matrix once, for ``uniqueness.certify`` and
for ``uniqueness.cross_check``, whose oracle outcome it renders.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from .core import NEG_INF, CostSpec, c_transform
from .decompose import ComponentDecomposition
from .documents import (
    ProblemDocument,
    _number,
    parse_problem,
    render_csv_grid,
    render_report,
)
from .errors import (AllInfinite, BadEpsilon, DimensionMismatch,
                     OTUniqError, ProblemFormatError)
from .regularity import _norm, asymptotic_region, dominated_region
from .solver import solve, solve_exact
from .uniqueness import ambiguity_witness, certify, cross_check, exact_blocks

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_NON_UNIQUE = 10
EXIT_INCONCLUSIVE = 11
EXIT_DISAGREEMENT = 20


def _setup_logging() -> None:
    level = os.environ.get("OTUNIQ_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path: str, exact: bool) -> ProblemDocument:
    with open(path) as fh:
        return parse_problem(fh.read(), exact=exact)


def _decomposition(doc: ProblemDocument, args) -> ComponentDecomposition:
    if args.labels:
        for side, measure in (("source", doc.mu), ("target", doc.nu)):
            if measure.labels is None:
                raise ProblemFormatError(f"/{side}/labels",
                                         "missing; --labels needs them")
        return ComponentDecomposition.build(doc.mu, doc.nu, "explicit_labels")
    epsilon = doc.epsilon if args.epsilon is None else args.epsilon
    where = "/options/epsilon" if args.epsilon is None else "--epsilon"
    if epsilon is None:
        raise ProblemFormatError(
            where,
            "decomposition needs --labels or an epsilon (flag or options)")
    try:
        return ComponentDecomposition.build(doc.mu, doc.nu, "epsilon_graph",
                                            float(epsilon))
    except BadEpsilon as exc:
        raise ProblemFormatError(where, str(exc))


def cmd_solve(args) -> int:
    doc = _load(args.problem, args.exact)
    if doc.exact:
        cost, scale, a, b = doc.scaled_exact_problem()
        masses, f, g, iterations = solve_exact(cost, a, b, cost_scale=scale)
        body = {"solve": {
            "mode": "exact",
            "primal_cost": sum(cost[i, j] * v
                               for (i, j), v in masses.items()) / scale,
            "iterations": iterations,
            "plan": [[i, j, v] for (i, j), v in sorted(masses.items())],
            "f": list(f), "g": list(g),
        }}
    else:
        result = solve(doc.mu, doc.nu, doc.cost)
        body = {"solve": {
            "mode": "float",
            "primal_cost": result.duality.primal_cost,
            "dual_value": result.duality.dual_value,
            "gap": result.duality.gap,
            "iterations": result.iterations,
            "plan": [[i, j, v] for i, j, v in result.plan.entries],
            "f": list(result.pair.f), "g": list(result.pair.g),
        }}
    _emit(render_report(body, doc.digest, args.seed), args.out)
    return EXIT_OK


def cmd_certify(args) -> int:
    doc = _load(args.problem, args.exact)
    scaled = doc.scaled_exact_problem() if doc.exact else None
    dec = _decomposition(doc, args)
    mat = doc.cost.matrix(doc.mu, doc.nu)
    cert = certify(doc.mu, doc.nu, CostSpec.explicit(mat), dec)
    result = cert.solve_result
    body = {
        "certificate": {
            "verdict": cert.verdict,
            "freedom_dim": cert.freedom_dim,
            "degeneracy": cert.degeneracy,
            "marginal_degeneracy": cert.marginal_degeneracy,
            "flags": list(cert.flags),
            "component_verdicts": list(cert.component_verdicts),
        },
        "solve": {
            "primal_cost": result.duality.primal_cost,
            "gap": result.duality.gap,
            "iterations": result.iterations,
        },
    }
    if cert.witness is not None:
        body["certificate"]["witness"] = {
            "f_a": list(cert.witness[0].f), "g_a": list(cert.witness[0].g),
            "f_b": list(cert.witness[1].f), "g_b": list(cert.witness[1].g),
        }
    if doc.exact:
        body["exact"], _ = exact_blocks(*scaled, dec)
    code = {"unique": EXIT_OK, "non_unique": EXIT_NON_UNIQUE}.get(
        cert.verdict, EXIT_INCONCLUSIVE)
    if args.oracle == "on":
        check = cross_check(cert, mat)
        face = check.dual_face
        oracles = body["oracles"] = {
            "dual_face": {"unique": face.unique,
                          "max_spread": face.max_spread,
                          "tolerance": face.tolerance},
            "tight_graph": {"unique": check.tight_graph_unique,
                            "n_usable_edges": check.n_usable_edges},
        }
        if check.disagreement:
            code = EXIT_DISAGREEMENT
            oracles["disagreement"] = {
                "structural": cert.verdict,
                "dual_face": face.unique,
                "tight_graph": check.tight_graph_unique,
                "note": "bug-report dump: oracles and certificate differ "
                        "on an unflagged instance",
            }
        elif check.note:
            oracles["note"] = (
                "finite-scale oracle verdict differs from the structural "
                "verdict on a continuum-flagged certificate; the oracles "
                "see the discretized dual face only")
    _emit(render_report(body, doc.digest, args.seed), args.out)
    return code


def cmd_witness(args) -> int:
    if args.samples < 1:
        raise ProblemFormatError("--samples", f"expected a positive "
                                 f"integer, got {args.samples}")
    doc = _load(args.problem, False)
    dec = _decomposition(doc, args)
    wit = ambiguity_witness(doc.mu, doc.cost, dec, n_samples=args.samples)
    body = {"witness": {
        "delta": wit.delta,
        "oracle_spread_second_component": wit.oracle_spread,
        "samples": [{"a": a, "b": b, "f": f.tolist(), "g": (-f).tolist()}
                    for (a, b), f in zip(wit.samples, wit.f)],
    }}
    _emit(render_report(body, doc.digest, args.seed), args.out)
    return EXIT_OK


def cmd_regularity(args) -> int:
    doc = _load(args.problem, False)
    grid, dim = doc.mu.points, doc.mu.dim
    anchor = _numbers(args, "anchor", dim)
    if args.partner is not None:
        values = dominated_region(anchor, _numbers(args, "partner", dim),
                                  doc.cost, grid).member
    else:
        u, radii = _numbers(args, "direction", dim), _numbers(args, "radii")
        if not 0 < _norm(u) < np.inf:
            raise ProblemFormatError("--direction",
                                     "expected a nonzero, finite-norm vector")
        if np.any(radii <= 0):
            raise ProblemFormatError("--radii", "expected positive radii")
        values = asymptotic_region(anchor, u, doc.cost, radii,
                                   grid).tail_frequency
    _emit(render_csv_grid(grid, values), args.out)
    return EXIT_OK


def _numbers(args, name: str, count: Optional[int] = None) -> np.ndarray:
    """Option --name as finite comma-separated numbers (``count`` of them)."""
    text = getattr(args, name)
    try:
        vals = np.array([float(v) for v in text.split(",")])
        ok = np.all(np.isfinite(vals)) and count in (None, len(vals))
    except (AttributeError, ValueError):        # missing, or not a number
        ok = False
    if not ok:
        raise ProblemFormatError(f"--{name}", f"expected {count or 'some'} "
                                 f"comma-separated numbers, got {text!r}")
    return vals


def cmd_ctransform(args) -> int:
    doc = _load(args.problem, False)
    try:
        with open(args.values) as fh:
            vals = np.array([NEG_INF if v in ("-inf", None)
                             else _number(v, "--values", False)
                             for v in json.load(fh)])
    except (ValueError, TypeError) as exc:      # not JSON, or not a list
        raise ProblemFormatError("--values", f"expected a JSON list of "
                                             f"numbers or '-inf': {exc}")
    mat = doc.cost.matrix(doc.mu, doc.nu)
    try:
        res = c_transform(vals, mat, args.direction)
    except (AllInfinite, DimensionMismatch) as exc:
        raise ProblemFormatError("--values", str(exc))
    pts = doc.mu.points if args.direction == "to_source" else doc.nu.points
    _emit(render_csv_grid(pts, res), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otuniq",
        description="Uniqueness certification for Kantorovich potentials "
                    "of finite optimal transport problems")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--seed": dict(type=int, help="seed recorded in the report"),
        "--epsilon": dict(type=float,
                          help="proximity-graph decomposition radius"),
        "--labels": dict(action="store_true",
                         help="use the measures' explicit component labels"),
        "--exact": dict(action="store_true",
                        help="exact-rational mode: numbers are read as "
                             "written, decimals or 'p/q'"),
    }

    def command(name, func, help, *options):
        """A subcommand reading the problem, --out and ``options``."""
        p = sub.add_parser(name, help=help)
        p.add_argument("problem", help="problem document path (JSON)")
        p.add_argument("--out", help="output path (default stdout)")
        for option in options:
            p.add_argument(option, **shared[option])
        p.set_defaults(func=func)
        return p

    command("solve", cmd_solve, "solve and emit plan + potentials",
            "--seed", "--exact")
    p = command("certify", cmd_certify, "certify dual uniqueness",
                "--seed", "--epsilon", "--labels", "--exact")
    p.add_argument("--oracle", choices=("on", "off"), default="on",
                   help="cross-check with the dual-face and tight-graph "
                        "oracles")
    p = command("witness", cmd_witness, "emit the f_{a,b} ambiguity family",
                "--seed", "--epsilon", "--labels")
    p.add_argument("--samples", type=int, default=9)
    p = command("regularity", cmd_regularity,
                "dominated-cost and asymptotic region grids")
    p.add_argument("--anchor", required=True,
                   help="comma-separated anchor coordinates x")
    region = p.add_mutually_exclusive_group(required=True)
    region.add_argument("--partner", help="partner y for the dominated region")
    region.add_argument("--direction",
                        help="unit direction u for the asymptotic region")
    p.add_argument("--radii", help="comma-separated escape radii")
    p = command("ctransform", cmd_ctransform,
                "c-transform of tabulated values")
    p.add_argument("--values", required=True,
                   help="JSON list of dual values ('-inf' allowed)")
    p.add_argument("--direction", choices=("to_source", "to_target"),
                   default="to_source")
    return parser


_parser: Optional[argparse.ArgumentParser] = None     # built on first use


def main(argv=None) -> int:
    global _parser
    _setup_logging()
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (ProblemFormatError, OSError) as exc:    # OSError: a bad path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OTUniqError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
