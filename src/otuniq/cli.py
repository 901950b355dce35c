"""Command-line front door.

Subcommands: solve, certify, witness, regularity, ctransform.  Exit
codes encode the outcome so shell pipelines can branch without parsing
reports: 0 success or verdict unique, 2 parse or usage error, 3 solver
error, 10 non_unique, 11 inconclusive, 20 oracle disagreement on an
unflagged certificate.  Set OTUNIQ_LOG=debug|info|... for diagnostics.
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
from .core import NEG_INF, Tolerances, c_transform
from .decompose import ComponentDecomposition
from .documents import (
    ProblemDocument,
    parse_problem,
    render_csv_grid,
    render_report,
)
from .errors import OTUniqError, ProblemFormatError
from .regularity import asymptotic_region, dominated_region
from .solver import (
    dual_face_oracle,
    solve,
    solve_exact,
    tight_graph_connectivity_oracle,
)
from .uniqueness import (
    ComponentFlowGraph,
    ambiguity_witness,
    certify,
    marginal_degeneracy_check,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_NON_UNIQUE = 10
EXIT_INCONCLUSIVE = 11
EXIT_DISAGREEMENT = 20

log = logging.getLogger("otuniq")


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
    if getattr(args, "labels", False):
        return ComponentDecomposition.build(doc.mu, doc.nu, "explicit_labels")
    epsilon = getattr(args, "epsilon", None)
    if epsilon is None:
        epsilon = doc.epsilon
    if epsilon is None:
        raise ProblemFormatError(
            "/options/epsilon",
            "decomposition needs --labels or an epsilon (flag or options)")
    return ComponentDecomposition.build(doc.mu, doc.nu, "epsilon_graph",
                                        float(epsilon))


def cmd_solve(args) -> int:
    doc = _load(args.problem, args.exact)
    if doc.exact:
        cost_rows = doc.cost.exact_matrix(doc.mu, doc.nu)
        masses, f, g, iterations = solve_exact(
            cost_rows, doc.exact_weights[0], doc.exact_weights[1])
        primal = sum(cost_rows[i][j] * v for (i, j), v in masses.items())
        body = {"solve": {
            "mode": "exact",
            "primal_cost": primal,
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
    dec = _decomposition(doc, args)
    cert = certify(doc.mu, doc.nu, doc.cost, dec)
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
        body["exact"] = _exact_section(doc, dec)
    disagreement = False
    if args.oracle == "on":
        face = dual_face_oracle(result.plan, result.pair, result.cost_matrix)
        tight = tight_graph_connectivity_oracle(result, doc.cost)
        body["oracles"] = {
            "dual_face": {"unique": face.unique,
                          "max_spread": face.max_spread,
                          "tolerance": face.tolerance},
            "tight_graph": {"unique": tight["unique"],
                            "n_usable_edges": len(tight["usable_edges"])},
        }
        continuum = any("continuum" in fl or "asserted" in fl
                        for fl in cert.flags)
        structural = {"unique": True, "non_unique": False}.get(cert.verdict)
        differs = structural is not None and \
            (face.unique != structural or tight["unique"] != structural)
        if differs and not continuum:
            disagreement = True
            body["oracles"]["disagreement"] = {
                "structural": cert.verdict,
                "dual_face": face.unique,
                "tight_graph": tight["unique"],
                "note": "bug-report dump: oracles and certificate differ "
                        "on an unflagged instance",
            }
        elif differs:
            body["oracles"]["note"] = (
                "finite-scale oracle verdict differs from the structural "
                "verdict on a continuum-flagged certificate; the oracles "
                "see the discretized dual face only")
    _emit(render_report(body, doc.digest, args.seed), args.out)
    if disagreement:
        return EXIT_DISAGREEMENT
    if cert.verdict == "unique":
        return EXIT_OK
    if cert.verdict == "non_unique":
        return EXIT_NON_UNIQUE
    return EXIT_INCONCLUSIVE


def _exact_section(doc: ProblemDocument, dec: ComponentDecomposition) -> dict:
    """Exact-rational degeneracy analysis next to the float certificate."""
    cost_rows = doc.cost.exact_matrix(doc.mu, doc.nu)
    masses, _f, _g, _it = solve_exact(cost_rows, doc.exact_weights[0],
                                      doc.exact_weights[1])
    ms = [sum(doc.exact_weights[0][i] for i in grp)
          for grp in dec.source_components]
    mt = [sum(doc.exact_weights[1][j] for j in grp)
          for grp in dec.target_components]
    graph = ComponentFlowGraph.from_arcs(
        [int(dec.source_index[i]) for i, _ in masses],
        [int(dec.target_index[j]) for _, j in masses],
        list(masses.values()), ms, mt)
    blocks = len(graph.connected_blocks())
    hit = marginal_degeneracy_check(ms, mt, Tolerances(mass=0))
    return {
        "plan_blocks": blocks,
        "plan_degenerate": blocks > 1,
        "marginal_collision": [list(hit["I"]), list(hit["J"])]
        if hit["status"] == "colliding" else None,
    }


def cmd_witness(args) -> int:
    doc = _load(args.problem, False)
    dec = _decomposition(doc, args)
    wit = ambiguity_witness(doc.mu, doc.cost, dec, n_samples=args.samples)
    body = {"witness": {
        "delta": wit.delta,
        "oracle_spread_second_component": wit.oracle_spread,
        "samples": [{"a": a, "b": b, "f": list(p.f), "g": list(p.g)}
                    for (a, b), p in zip(wit.samples, wit.pairs)],
    }}
    _emit(render_report(body, doc.digest, args.seed), args.out)
    return EXIT_OK


def cmd_regularity(args) -> int:
    doc = _load(args.problem, False)
    grid = doc.mu.points
    anchor = np.array([float(v) for v in args.anchor.split(",")])
    if args.partner is not None:
        partner = np.array([float(v) for v in args.partner.split(",")])
        region = dominated_region(anchor, partner, doc.cost, grid)
        values = region.member
    elif args.direction is not None:
        u = np.array([float(v) for v in args.direction.split(",")])
        radii = [float(v) for v in args.radii.split(",")]
        region = asymptotic_region(anchor, u, doc.cost, radii, grid)
        values = region.tail_frequency
    else:
        raise ProblemFormatError("/", "need --partner or --direction")
    _emit(render_csv_grid(grid, values), args.out)
    return EXIT_OK


def cmd_ctransform(args) -> int:
    doc = _load(args.problem, False)
    with open(args.values) as fh:
        raw = json.load(fh)
    vals = np.array([NEG_INF if v in ("-inf", None) else float(v)
                     for v in raw])
    mat = doc.cost.matrix(doc.mu, doc.nu)
    res = c_transform(vals, mat, args.direction)
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

    def common(p, oracle=False):
        p.add_argument("problem", help="problem document path (JSON)")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=None,
                       help="seed recorded in the report")
        p.add_argument("--epsilon", type=float, default=None,
                       help="proximity-graph decomposition radius")
        p.add_argument("--labels", action="store_true",
                       help="use the measures' explicit component labels")
        p.add_argument("--exact", action="store_true",
                       help="exact-rational mode; numbers may be 'p/q'")
        if oracle:
            p.add_argument("--oracle", choices=("on", "off"), default="on",
                           help="cross-check with the dual-face and "
                                "tight-graph oracles")

    p = sub.add_parser("solve", help="solve and emit plan + potentials")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("certify", help="certify dual uniqueness")
    common(p, oracle=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("witness", help="emit the f_{a,b} ambiguity family")
    common(p)
    p.add_argument("--samples", type=int, default=9)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("regularity",
                       help="dominated-cost and asymptotic region grids")
    common(p)
    p.add_argument("--anchor", required=True,
                   help="comma-separated anchor coordinates x")
    p.add_argument("--partner", default=None,
                   help="partner y for the dominated region")
    p.add_argument("--direction", default=None,
                   help="unit direction u for the asymptotic region")
    p.add_argument("--radii", default=None,
                   help="comma-separated escape radii")
    p.set_defaults(func=cmd_regularity)

    p = sub.add_parser("ctransform", help="c-transform of tabulated values")
    common(p)
    p.add_argument("--values", required=True,
                   help="JSON list of dual values ('-inf' allowed)")
    p.add_argument("--direction", choices=("to_source", "to_target"),
                   default="to_source")
    p.set_defaults(func=cmd_ctransform)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProblemFormatError as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OTUniqError as exc:
        log.error("%s", exc)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
