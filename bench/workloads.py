"""The benchmark workloads: seeded inputs, operations and checks.

Four parts make up two workloads: ``library`` runs the certify ladder
and the regularity grid as library calls, and ``cli`` runs the CLI
oracles and exact mode through in-process ``otuniq.cli.main``.  Each
part builds its inputs from the seed in ``prepare`` and returns a fixed
list of operations from ``ops``.  An operation's ``call`` is the
timed call into otuniq; its ``check`` recomputes what the output must be
without going through otuniq (numpy, scipy's HiGHS, ``Fraction``
arithmetic, scipy's shortest paths) and raises ``CheckFailed`` on any
disagreement.  ``fault`` names the known defect an operation exposes;
such an operation is expected to fail on every run.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse.csgraph import shortest_path

import otuniq
import otuniq.cli

TAU_MASS = 1e-9
TAU_GAP = 1e-7
TAU_TIGHT = 1e-7          # times (1 + max cost)
TAU_FACE = 1e-6           # times (1 + max cost)
QUANTUM = 2 ** 20         # dyadic weight resolution of generated measures


class CheckFailed(Exception):
    pass


def expect(cond, message: str):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    """One timed call into otuniq.

    ``build`` makes the call's arguments untimed, right before each
    call; ``call(*args)`` is the timed part; ``check(args, output)``
    raises CheckFailed unless the output is right.
    """

    name: str
    call: Callable[..., object]
    check: Callable[[tuple, object], None]
    build: Callable[[], tuple] = tuple
    top: bool = False             # counts toward top_size_s
    fault: Optional[str] = None   # known defect this operation exposes


# ---------------------------------------------------------------- helpers

def sq_cost(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(len(x), -1)
    y = np.asarray(y, dtype=float).reshape(len(y), -1)
    return ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)


def highs_optimum(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Primal transport optimum by scipy's HiGHS, independent of otuniq."""
    n, m = cost.shape
    rows = sp.kron(sp.eye(n), np.ones((1, m)))
    cols = sp.kron(np.ones((1, n)), sp.eye(m))
    res = linprog(cost.ravel(), A_eq=sp.vstack([rows, cols]).tocsr(),
                  b_eq=np.concatenate([a, b]), bounds=(0, None),
                  method="highs")
    expect(res.status == 0, f"reference LP failed: {res.message}")
    return float(res.fun)


def check_optimal_pair(f, g, cost, a, b, opt, what: str):
    """(f, g) is dual feasible and attains the optimum ``opt``."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    tau = TAU_TIGHT * (1.0 + float(cost.max()))
    viol = float(np.max(f[:, None] + g[None, :] - cost))
    expect(viol <= tau, f"{what}: dual infeasible by {viol:.3e}")
    dual = float(a @ f + b @ g)
    expect(abs(dual - opt) <= TAU_GAP * (1.0 + abs(opt)),
           f"{what}: dual value {dual!r} vs optimum {opt!r}")


def dyadic_split(rng, total: int, parts: int, spread=(0.8, 1.2)) -> list:
    """``parts`` positive integers summing to ``total``."""
    w = rng.uniform(*spread, parts)
    t = np.maximum(np.rint(total * w / w.sum()).astype(np.int64), 1)
    t[-1] += total - int(t.sum())
    if t[-1] <= 0:
        raise ValueError(f"cannot split {total} into {parts} parts")
    return [int(v) for v in t]


def subset_sums(values) -> dict:
    """Sum -> list of index tuples, over nonempty proper subsets."""
    out: dict = {}
    for r in range(1, len(values)):
        for combo in itertools.combinations(range(len(values)), r):
            out.setdefault(sum(values[i] for i in combo), []).append(combo)
    return out


def collisions(ms, mt) -> list:
    s, t = subset_sums(ms), subset_sums(mt)
    return [(i, j) for key in s.keys() & t.keys()
            for i in s[key] for j in t[key]]


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    """Independent stream for one part of a workload's inputs."""
    return np.random.default_rng([seed % 2 ** 64, *keys])


def interleave(groups) -> list:
    """Merge operation groups so that each spreads evenly over the round.

    The k-th of a group's g operations sits at fraction (k + 1/2) / g of
    the round, so a brief change in machine speed touches every group
    alike instead of one group's median.
    """
    keyed = [((k + 0.5) / len(group), g, k)
             for g, group in enumerate(groups) for k in range(len(group))]
    return [groups[g][k] for _, g, k in sorted(keyed)]


def frac(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


# ----------------------------------------------------- certify-ladder

LADDER = ((20, ("unique", "grouped", "matched") * 2),
          (50, ("unique",) * 8),
          (100, ("grouped",) * 4 + ("unique",)))
BASE_SOURCE = np.array([0.22, 0.31, 0.17, 0.30])
BASE_TARGET = np.array([0.27, 0.19, 0.33, 0.21])
CLUSTER_GAP = 10.0
LADDER_EPSILON = 3.0


def ladder_masses(rng, kind: str):
    """Integer cluster masses (units of 1/QUANTUM) and the verdict they force.

    ``unique``: no subset of source clusters matches a subset of target
    clusters, so the component flow graph is connected.  ``grouped``:
    clusters {0, 1} and {2, 3} balance as groups and nothing else
    collides, so the plan splits into exactly two blocks (freedom 1).
    ``matched``: every target cluster copies its source cluster's mass
    (freedom 3).
    """
    def perturb(base, total):
        m = base * (1.0 + rng.uniform(-0.03, 0.03, len(base)))
        t = np.rint(m / m.sum() * total).astype(np.int64)
        t[-1] += total - int(t.sum())
        return [int(v) for v in t]

    while True:
        if kind == "matched":
            ms = perturb(BASE_SOURCE, QUANTUM)
            return ms, list(ms), 3
        if kind == "unique":
            ms, mt, want = perturb(BASE_SOURCE, QUANTUM), \
                perturb(BASE_TARGET, QUANTUM), 0
        else:
            half = int(round(QUANTUM * (0.5 + rng.uniform(-0.03, 0.03))))
            ms = perturb(BASE_SOURCE[:2], half) \
                + perturb(BASE_SOURCE[2:], QUANTUM - half)
            mt = perturb(BASE_TARGET[:2], half) \
                + perturb(BASE_TARGET[2:], QUANTUM - half)
            want = 2   # the designed pair and its complement
        if len(collisions(ms, mt)) == want:
            return ms, mt, 0 if kind == "unique" else 1


def ladder_instance(seed: int, index: int, n: int, kind: str):
    """Clustered 2-d squared-Euclidean instance with a known verdict.

    Four clusters per side sit CLUSTER_GAP apart on a line; each holds a
    jittered lattice, so clusters are connected at LADDER_EPSILON and
    separated from each other.  Target clusters are offset by 3, which
    squared-Euclidean costs absorb into the potentials.
    """
    rng = rng_for(seed, 1, index)
    ms, mt, freedom = ladder_masses(rng, kind)

    def side(masses, offset):
        sizes = [n // 4 + (1 if c < n % 4 else 0) for c in range(4)]
        pts, wts = [], []
        for c, (mass, size) in enumerate(zip(masses, sizes)):
            k = int(np.ceil(np.sqrt(size)))
            axis = np.linspace(-1.0, 1.0, k)
            lattice = np.array([(u, v) for u in axis for v in axis])[:size]
            jitter = rng.uniform(-0.1, 0.1, lattice.shape) * 2.0 / (k - 1)
            pts.append(lattice + jitter + [CLUSTER_GAP * c + offset, 0.0])
            wts.append(np.array(dyadic_split(rng, mass, size)) / QUANTUM)
        return np.vstack(pts), np.concatenate(wts)

    x, a = side(ms, 0.0)
    y, b = side(mt, 3.0)
    verdict = "unique" if freedom == 0 else "non_unique"
    return x, a, y, b, verdict, freedom


class CertifyLadder:
    """Library ``certify`` on a ladder of clustered instances.

    Each instance is built just before its operation, as in a library
    session, with its own ``CostSpec``.  Sharing one ``CostSpec`` across
    instances lets ``CostSpec.matrix`` return a stale matrix once measure
    ids are recycled (ROADMAP 2(a)); that happened on some seeds and
    rounds and not on others, so it cannot be a steady counted failure.
    """

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def prepare(self):
        x, a, y, b, _, _ = ladder_instance(self.seed, 10 ** 6, 8, "unique")
        mu, nu = otuniq.DiscreteMeasure(x, a), otuniq.DiscreteMeasure(y, b)
        dec = otuniq.ComponentDecomposition.build(mu, nu, "epsilon_graph",
                                                  LADDER_EPSILON)
        otuniq.certify(mu, nu, otuniq.CostSpec.sq_euclidean(), dec)

    def ops(self):
        order = interleave([[(n, kind) for kind in kinds]
                            for n, kinds in LADDER])
        top = LADDER[-1][0]
        return [self._op(index, n, kind, top=n == top)
                for index, (n, kind) in enumerate(order)]

    def _op(self, index, n, kind, top):
        def build():
            inst = ladder_instance(self.seed, index, n, kind)
            return (otuniq.DiscreteMeasure(inst[0], inst[1]),
                    otuniq.DiscreteMeasure(inst[2], inst[3]),
                    otuniq.CostSpec.sq_euclidean(), inst)

        def call(mu, nu, cost, inst):
            dec = otuniq.ComponentDecomposition.build(
                mu, nu, "epsilon_graph", LADDER_EPSILON)
            return otuniq.certify(mu, nu, cost, dec)

        return Op(f"certify n={n} {kind} #{index}", call, check_ladder,
                  build=build, top=top)


def check_ladder(args, cert):
    x, a, y, b, verdict, freedom = args[3]
    c = sq_cost(x, y)
    res = cert.solve_result
    plan = res.plan
    expect(plan.rows.max() < len(a) and plan.cols.max() < len(b),
           "plan indexes points outside the instance")
    rs = np.bincount(plan.rows, plan.masses, minlength=len(a))
    cs = np.bincount(plan.cols, plan.masses, minlength=len(b))
    expect(np.all(plan.masses >= 0)
           and np.max(np.abs(rs - a)) <= 1e3 * TAU_MASS
           and np.max(np.abs(cs - b)) <= 1e3 * TAU_MASS,
           "plan marginals differ from the weights")
    f, g = np.asarray(res.pair.f), np.asarray(res.pair.g)
    tau = TAU_TIGHT * (1.0 + float(c.max()))
    slack = c - f[:, None] - g[None, :]
    expect(slack.min() >= -tau, f"pair infeasible by {-slack.min():.3e}")
    expect(np.max(np.abs(slack[plan.rows, plan.cols])) <= tau,
           "plan support is not tight")
    opt = highs_optimum(c, a, b)
    primal = float(np.sum(c[plan.rows, plan.cols] * plan.masses))
    expect(abs(primal - opt) <= TAU_GAP * (1.0 + abs(opt)),
           f"plan cost {primal!r} vs HiGHS optimum {opt!r}")
    expect(cert.verdict == verdict,
           f"verdict {cert.verdict}, constructed {verdict}")
    expect(cert.freedom_dim == freedom,
           f"freedom {cert.freedom_dim}, constructed {freedom}")
    if verdict == "non_unique":
        expect(cert.witness is not None, "no witness pair")
        for k, pair in enumerate(cert.witness):
            check_optimal_pair(pair.f, pair.g, c, a, b, opt, f"witness {k}")
        diff = np.asarray(cert.witness[0].f) - np.asarray(cert.witness[1].f)
        expect(diff.max() - diff.min() > tau,
               "witness pairs differ only by a constant")


# --------------------------------------------------------- cli-oracle

CLUSTER_WIDTH = 2e-4      # keeps intra-cluster costs below tau_tight
ORACLE_EPSILON = 0.1
ONES_SIZES = (2, 3, 5, 8)


def tight_clusters(rng, dim: int, sizes) -> tuple:
    """Two clusters of width CLUSTER_WIDTH, 1 to 1.5 apart.

    Every coordinate increases with the point index, across both
    clusters, so the simplex's northwest-corner start is already optimal
    (0 pivots) and the oracles do the work.  The first cluster holds the
    lexicographically smallest point, so it is component 0 and carries
    the oracle's anchor.
    """
    dist = rng.uniform(1.0, 1.5)
    theta = rng.uniform(np.pi / 8, 3 * np.pi / 8)
    offset = dist * (np.array([1.0]) if dim == 1
                     else np.array([np.cos(theta), np.sin(theta)]))
    pts = []
    for center, size in zip((np.zeros(dim), offset), sizes):
        # sorted coordinates on a jittered grid keep the points distinct
        step = CLUSTER_WIDTH / (size - 1)
        axes = [np.arange(size) * step
                + rng.uniform(-0.2, 0.2, size) * step for _ in range(dim)]
        pts.append(center + np.column_stack(axes))
    return np.vstack(pts)


def cluster_weights(rng, sizes, first_mass: int) -> np.ndarray:
    w = dyadic_split(rng, first_mass, sizes[0]) \
        + dyadic_split(rng, QUANTUM - first_mass, sizes[1])
    return np.array(w) / QUANTUM


def measure_block(points, weights, labels=None) -> dict:
    block = {"points": np.asarray(points).tolist(),
             "weights": np.asarray(weights).tolist()}
    if labels is not None:
        block["labels"] = list(labels)
    return block


class CliOracle:
    """In-process ``otuniq.cli.main``: certify with oracles, and witness.

    Documents hold self-coupled separated instances (non_unique, with the
    witness family) and unique variants whose target splits the mass
    differently.  The all-ones k x k documents expose ROADMAP 2(b).
    """

    FAMILIES = (("interval", 1, (20, 20)), ("blobs", 2, (24, 24)),
                ("blobs", 2, (24, 24)))

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = workdir
        self.docs = []           # (name, path, payload for the checks)

    def prepare(self):
        rng = rng_for(self.seed, 2)
        self.docs = []
        for k, (fam, dim, sizes) in enumerate(self.FAMILIES):
            pts = tight_clusters(rng, dim, sizes)
            first = int(QUANTUM * rng.uniform(0.35, 0.65))
            w = cluster_weights(rng, sizes, first)
            shift = int(QUANTUM * rng.uniform(0.1, 0.2))
            w2 = cluster_weights(rng, sizes, first + shift
                                 if first < QUANTUM // 2 else first - shift)
            src = measure_block(pts, w)
            for variant, tgt_w in (("self", w), ("unique", w2)):
                doc = {"schema": "1", "source": src,
                       "target": measure_block(pts, tgt_w),
                       "cost": {"kind": "lp_norm_power", "q": 2, "p": 2}}
                self._write(f"{fam}{k}-{variant}", doc, dict(
                    x=pts, a=w, b=tgt_w, sizes=sizes,
                    unique=variant == "unique", top=fam == "blobs"))
        for k in ONES_SIZES:
            block = measure_block(np.arange(k, dtype=float)[:, None],
                                  np.full(k, 1.0 / k), range(k))
            doc = {"schema": "1", "source": block, "target": block,
                   "cost": {"kind": "explicit_matrix",
                            "values": np.ones((k, k)).tolist()}}
            self._write(f"ones-{k}", doc, dict(k=k))
        warm = os.path.join(self.dir, "ones-2.json")
        otuniq.cli.main(["certify", warm, "--labels",
                         "--out", warm + ".warm"])

    def _write(self, name, doc, info):
        path = os.path.join(self.dir, name + ".json")
        write_json(path, doc)
        self.docs.append((name, path, info))

    def ops(self):
        out = []
        for name, path, info in self.docs:
            report = path + ".out"
            if name.startswith("ones-"):
                argv = ["certify", path, "--labels", "--out", report]
                out.append(Op(f"certify {name}", _cli(argv),
                              _check_ones(report, info),
                              fault="ROADMAP 2(b)"))
                continue
            argv = ["certify", path, "--epsilon", str(ORACLE_EPSILON),
                    "--out", report]
            out.append(Op(f"certify {name}", _cli(argv),
                          _check_oracle_certify(report, info),
                          top=info["top"]))
            if not info["unique"]:
                wreport = path + ".witness.out"
                argv = ["witness", path, "--epsilon", str(ORACLE_EPSILON),
                        "--samples", "25", "--out", wreport]
                out.append(Op(f"witness {name}", _cli(argv),
                              _check_witness(wreport, info),
                              top=info["top"]))
        return out


def _cli(argv):
    return lambda: otuniq.cli.main(list(argv))


def _check_oracle_certify(report, info):
    def check(args, code):
        expect(code != 20, "oracle disagreement (exit 20)")
        want = 0 if info["unique"] else 10
        expect(code == want, f"exit {code}, constructed {want}")
        rep = read_json(report)
        verdict = "unique" if info["unique"] else "non_unique"
        cert = rep["certificate"]
        expect(cert["verdict"] == verdict, f"verdict {cert['verdict']}")
        oracles = rep.get("oracles")
        expect(oracles is not None, "oracles block missing")
        expect(oracles["dual_face"]["unique"] == info["unique"]
               and oracles["tight_graph"]["unique"] == info["unique"],
               f"oracles {oracles} disagree with {verdict}")
        c = sq_cost(info["x"], info["x"])
        opt = highs_optimum(c, info["a"], info["b"])
        expect(abs(rep["solve"]["primal_cost"] - opt)
               <= TAU_GAP * (1.0 + abs(opt)), "primal cost is not optimal")
        if not info["unique"]:
            wit = cert.get("witness")
            expect(wit is not None, "witness block missing")
            for tag in ("a", "b"):
                check_optimal_pair(wit["f_" + tag], wit["g_" + tag], c,
                                   info["a"], info["b"], opt,
                                   f"witness {tag}")
    return check


def _check_witness(report, info):
    def check(args, code):
        expect(code == 0, f"exit {code}")
        wit = read_json(report)["witness"]
        x, a = info["x"], info["a"]
        n1 = info["sizes"][0]
        c = sq_cost(x, x)
        delta = float(c[:n1, n1:].min())
        scale = 1.0 + float(c.max())
        expect(abs(wit["delta"] - delta) <= 1e-12 * scale,
               f"delta {wit['delta']!r} vs {delta!r}")
        expect(len(wit["samples"]) == 25, "expected 25 samples")
        for s in wit["samples"]:
            # the identity plan costs 0, so an optimal pair has value 0
            check_optimal_pair(s["f"], s["g"], c, a, a, 0.0,
                               f"sample b={s['b']}")
        spread = wit["oracle_spread_second_component"]
        anchor = int(np.lexsort(x.T[::-1])[0])
        dist = shortest_path(c, method="D", indices=anchor)
        face = 2.0 * float(dist[n1:].max())
        tau = TAU_FACE * scale
        expect(abs(spread - face) <= tau,
               f"spread {spread!r} vs shortest-path bound {face!r}")
        expect(abs(spread - 2.0 * delta) <= tau,
               f"spread {spread!r} vs 2 delta {2.0 * delta!r}")
    return check


def _check_ones(report, info):
    def check(args, code):
        # every coupling is optimal, so the potentials are unique
        expect(code == 0, f"exit {code}, expected 0 (unique)")
        rep = read_json(report)
        expect(rep["certificate"]["verdict"] == "unique",
               f"verdict {rep['certificate']['verdict']}")
        oracles = rep.get("oracles")
        expect(oracles is not None and oracles["dual_face"]["unique"]
               and oracles["tight_graph"]["unique"],
               "oracles do not both say unique")
    return check


# --------------------------------------------------- exact-knife-edge

SOLVE_DOCS = ((12, "dyadic"), (16, "rational")) \
    + ((22, "dyadic"), (22, "rational")) * 2
CERTIFY_DOCS = ((6, None), (7, None), (8, None), (9, None), (6, "split"),
                (8, "split"))
TOTALS = {"dyadic": 2 ** 24, "rational": 3 * 5 * 7 * 11 * 2 ** 14}
GRID = {"dyadic": 8, "rational": 15}     # coordinate denominators


def rational_points(rng, n, den, x0=0):
    """n distinct 2-d points with coordinates in (1/den) Z, x >= x0."""
    seen, pts = set(), []
    while len(pts) < n:
        p = (int(rng.integers(0, 4 * den)), int(rng.integers(0, 4 * den)))
        if p not in seen:
            seen.add(p)
            pts.append((Fraction(p[0], den) + x0, Fraction(p[1], den)))
    return pts


def exact_block(points, ticks, total, labels=None) -> dict:
    block = {"points": [[frac(v) for v in p] for p in points],
             "weights": [frac(Fraction(t, total)) for t in ticks]}
    if labels is not None:
        block["labels"] = list(labels)
    return block


def labelled_side(rng, masses, region_of, den):
    """Two points per component; component c sits in region region_of[c],
    and regions lie 50 apart."""
    pts = [None] * len(masses)
    for region in set(region_of):
        members = [c for c in range(len(masses)) if region_of[c] == region]
        cloud = rational_points(rng, 2 * len(members), den, x0=50 * region)
        for k, c in enumerate(members):
            pts[c] = cloud[2 * k:2 * k + 2]
    points, ticks, labels = [], [], []
    for c, mass in enumerate(masses):
        points += pts[c]
        ticks += dyadic_split(rng, mass, 2)
        labels += [c, c]
    return points, ticks, labels


def component_masses(rng, k, total, split):
    """k + k component masses with no subset collision, or exactly one
    designed collision (I, J) plus its complement when ``split``."""
    while True:
        if split is None:
            ms, mt = dyadic_split(rng, total, k, (0.5, 1.5)), \
                dyadic_split(rng, total, k, (0.5, 1.5))
            pair = None
        else:
            size_i, size_j = (int(rng.integers(2, k - 1)) for _ in range(2))
            part = int(total * rng.uniform(0.3, 0.7))
            i_set = sorted(rng.choice(k, size_i, replace=False).tolist())
            j_set = sorted(rng.choice(k, size_j, replace=False).tolist())
            inside_s = dyadic_split(rng, part, size_i, (0.5, 1.5))
            outside_s = dyadic_split(rng, total - part, k - size_i,
                                     (0.5, 1.5))
            inside_t = dyadic_split(rng, part, size_j, (0.5, 1.5))
            outside_t = dyadic_split(rng, total - part, k - size_j,
                                     (0.5, 1.5))
            ms = _scatter(k, i_set, inside_s, outside_s)
            mt = _scatter(k, j_set, inside_t, outside_t)
            pair = (tuple(i_set), tuple(j_set))
        found = collisions(ms, mt)
        if split is None and not found:
            return ms, mt, None
        if split is not None and len(found) == 2:
            return ms, mt, pair


def _scatter(k, chosen, inside, outside):
    it_in, it_out = iter(inside), iter(outside)
    return [next(it_in) if c in chosen else next(it_out) for c in range(k)]


def first_collision(pair, k):
    """The collision _exact_section reports: of (I, J) and its complement,
    the one whose source subset comes first by size, then lexicographically.
    """
    i_set, j_set = pair
    comp = (tuple(c for c in range(k) if c not in i_set),
            tuple(c for c in range(k) if c not in j_set))
    first = min((pair, comp), key=lambda p: (len(p[0]), p[0]))
    return [list(first[0]), list(first[1])]


class ExactKnifeEdge:
    """``otuniq solve --exact`` and ``certify --exact --labels``.

    Solve documents are random rational point clouds.  Certify documents
    hold 6 to 9 labelled components per side, either with no subset-sum
    collision (the exact section enumerates every subset pair) or with
    one designed collision whose two groups sit 50 apart.
    """

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = workdir
        self.docs = []

    def prepare(self):
        rng = rng_for(self.seed, 3)
        self.docs = []
        for k, (n, flavor) in enumerate(SOLVE_DOCS):
            den, total = GRID[flavor], TOTALS[flavor]
            x = rational_points(rng, n, den)
            y = rational_points(rng, n, den)
            a = dyadic_split(rng, total, n, (0.5, 1.5))
            b = dyadic_split(rng, total, n, (0.5, 1.5))
            doc = {"schema": "1", "source": exact_block(x, a, total),
                   "target": exact_block(y, b, total),
                   "cost": {"kind": "lp_norm_power", "q": 2, "p": 2},
                   "options": {"exact": True}}
            self._write(f"solve-{n}-{flavor}-{k}", doc, dict(kind="solve"))
        for k, (comps, split) in enumerate(CERTIFY_DOCS):
            flavor = ("dyadic", "rational")[k % 2]
            den, total = GRID[flavor], TOTALS[flavor]
            ms, mt, pair = component_masses(rng, comps, total, split)
            src_region = [0] * comps
            tgt_region = [0] * comps
            if pair is not None:
                src_region = [0 if c in pair[0] else 1 for c in range(comps)]
                tgt_region = [0 if c in pair[1] else 1 for c in range(comps)]
            src = labelled_side(rng, ms, src_region, den)
            tgt = labelled_side(rng, mt, tgt_region, den)
            doc = {"schema": "1",
                   "source": exact_block(src[0], src[1], total, src[2]),
                   "target": exact_block(tgt[0], tgt[1], total, tgt[2]),
                   "cost": {"kind": "lp_norm_power", "q": 2, "p": 2},
                   "options": {"exact": True}}
            info = dict(kind="certify", blocks=1 if pair is None else 2,
                        collision=None if pair is None
                        else first_collision(pair, comps))
            self._write(f"certify-{comps}-{split or 'none'}-{k}", doc, info,
                        top=comps == 9)
        warm = self.docs[0][1]
        otuniq.cli.main(["solve", warm, "--exact", "--out", warm + ".warm"])

    def _write(self, name, doc, info, top=False):
        path = os.path.join(self.dir, name + ".json")
        write_json(path, doc)
        info.update(doc=doc, top=top)
        self.docs.append((name, path, info))

    def ops(self):
        groups = {"solve": [], "certify": []}
        for name, path, info in self.docs:
            report = path + ".out"
            if info["kind"] == "solve":
                argv = ["solve", path, "--exact", "--out", report]
                check = _check_exact_solve(report, info)
            else:
                argv = ["certify", path, "--exact", "--labels",
                        "--oracle", "off", "--out", report]
                check = _check_exact_certify(report, info)
            groups[info["kind"]].append(
                Op(name, _cli(argv), check, top=info["top"]))
        return interleave(list(groups.values()))


def _rational_problem(doc):
    def parse(block):
        pts = [[Fraction(v) for v in p] for p in block["points"]]
        return pts, [Fraction(w) for w in block["weights"]]

    x, a = parse(doc["source"])
    y, b = parse(doc["target"])
    c = [[sum((u - v) ** 2 for u, v in zip(p, q)) for q in y] for p in x]
    return c, a, b


def _check_exact_solve(report, info):
    def check(args, code):
        expect(code == 0, f"exit {code}")
        sol = read_json(report)["solve"]
        expect(sol["mode"] == "exact", "not an exact report")
        c, a, b = _rational_problem(info["doc"])
        n, m = len(a), len(b)
        f = [Fraction(v) for v in sol["f"]]
        g = [Fraction(v) for v in sol["g"]]
        rows, cols = [Fraction(0)] * n, [Fraction(0)] * m
        primal = Fraction(0)
        for i, j, v in sol["plan"]:
            v = Fraction(v)
            expect(v > 0, "nonpositive plan mass")
            expect(f[i] + g[j] == c[i][j], f"support arc ({i}, {j}) slack")
            rows[i] += v
            cols[j] += v
            primal += c[i][j] * v
        expect(rows == a and cols == b, "plan marginals differ from weights")
        expect(all(f[i] + g[j] <= c[i][j] for i in range(n)
                   for j in range(m)), "pair is not dual feasible")
        dual = sum(ai * fi for ai, fi in zip(a, f)) \
            + sum(bj * gj for bj, gj in zip(b, g))
        expect(primal == dual, f"primal {primal} != dual {dual}")
        expect(Fraction(sol["primal_cost"]) == primal,
               "reported primal cost differs")
    return check


def _check_exact_certify(report, info):
    def check(args, code):
        rep = read_json(report)
        if info["blocks"] == 1:
            expect(code == 0, f"exit {code}, constructed 0 (unique)")
        else:
            # The float verdict on a rational collision is not checked:
            # float rounding leaves a tiny cross-group arc in the plan, and
            # the certificate then says unique on most seeds but not all.
            expect(code in (0, 10), f"exit {code}")
            status = rep["certificate"]["marginal_degeneracy"]["status"]
            expect(status == "colliding",
                   f"float marginal check says {status}")
        ex = rep["exact"]
        expect(ex["plan_blocks"] == info["blocks"],
               f"plan_blocks {ex['plan_blocks']}, constructed "
               f"{info['blocks']}")
        expect(ex["plan_degenerate"] == (info["blocks"] > 1),
               "plan_degenerate disagrees with plan_blocks")
        expect(ex["marginal_collision"] == info["collision"],
               f"collision {ex['marginal_collision']}, constructed "
               f"{info['collision']}")
    return check


# ---------------------------------------------------- regularity-grid

GRID_SIDES = (40, 80)
RADII = np.geomspace(10.0, 1e5, 12)
HALF_SPACE_DELTA = 0.05
REFINEMENT = (33, 65, 129)
REFINEMENT_SLOPE = 1.5     # source weights proportional to 1.5 - x


def square_grid(side: int) -> np.ndarray:
    axis = np.linspace(-1.0, 1.0, side)
    xx, yy = np.meshgrid(axis, axis)
    return np.column_stack([xx.ravel(), yy.ravel()])


class RegularityGrid:
    """Dominated-cost and asymptotic regions on 2-d grids, and the
    gradient identity on the 1-d refinement family."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def prepare(self):
        rng = rng_for(self.seed, 4)
        self.cost = otuniq.CostSpec.sq_euclidean()
        self.grids = {side: square_grid(side) for side in GRID_SIDES}
        self.dominated = [(rng.uniform(-0.5, 0.5, 2), rng.uniform(-1, 1, 2))
                          for _ in range(2)]
        self.asymptotic = []
        for side in GRID_SIDES:
            theta = rng.uniform(0, 2 * np.pi)
            self.asymptotic.append((side, rng.uniform(-0.3, 0.3, 2),
                                    np.array([np.cos(theta),
                                              np.sin(theta)])))
        # The seed moves and scales the refinement family, which leaves
        # its orders unchanged.  The density slope stays fixed: the order
        # of the max deviation swings between 1.5 and 2.0 as the slope
        # moves by 0.01, through aliasing of the source and target grids.
        offset = rng.uniform(-1.0, 1.0)
        scale = rng.uniform(0.5, 2.0)
        self.family = []
        for n in REFINEMENT:
            m = (n - 1) ** 2 // 4 + 1
            xs = np.linspace(0.0, 1.0, n)
            w = REFINEMENT_SLOPE - xs
            mu = otuniq.DiscreteMeasure(scale * xs[:, None], w / w.sum())
            nu = otuniq.DiscreteMeasure(
                scale * np.linspace(offset, offset + 1.0, m)[:, None],
                np.full(m, 1.0 / m))
            self.family.append((mu, nu))
        x, y = self.dominated[0]
        otuniq.dominated_region(x, y, self.cost, self.grids[GRID_SIDES[0]])

    def ops(self):
        cost = self.cost
        out = []
        big = self.grids[GRID_SIDES[-1]]
        for k, (x, y) in enumerate(self.dominated):
            out.append(Op(f"dominated {len(big)} #{k}",
                          lambda x=x, y=y: otuniq.dominated_region(
                              x, y, cost, big),
                          _check_dominated(x, y, big)))
        for side, x, u in self.asymptotic:
            grid = self.grids[side]
            out.append(Op(f"asymptotic {len(grid)}x{len(RADII)}",
                          lambda x=x, u=u, grid=grid:
                          otuniq.asymptotic_region(x, u, cost, RADII, grid),
                          _check_half_space(x, u, grid),
                          top=side == GRID_SIDES[-1]))

        def refine():
            reps = []
            for mu, nu in self.family:
                res = otuniq.solve(mu, nu, cost)
                reps.append((res, otuniq.gradient_identity_check(res, cost)))
            return reps

        out.append(Op("gradient refinement", refine,
                      _check_refinement(self.family)))
        return out


def _check_dominated(x, y, grid):
    def check(args, region):
        thr = float(np.sum((x - y) ** 2))
        vals = np.sum((grid - y) ** 2, axis=1)
        want = vals <= thr
        # only points within rounding of the boundary may go either way
        band = np.abs(vals - thr) <= 1e-9 * (1.0 + thr)
        bad = (np.asarray(region.member) != want) & ~band
        expect(not bad.any(), f"{int(bad.sum())} memberships differ")
    return check


def _check_half_space(x, u, grid):
    def check(args, region):
        proj = (grid - x) @ u
        member = np.asarray(region.tail_member)
        expect(member[proj >= HALF_SPACE_DELTA].all(),
               "a point of the shifted half-space is not a tail member")
        expect(not member[proj < -HALF_SPACE_DELTA].any(),
               "a point beyond the half-space is a tail member")
    return check


def _check_refinement(family):
    def check(args, reps):
        devs = []
        for (mu, nu), (res, rep) in zip(family, reps):
            plan = res.plan
            a, b = np.asarray(mu.weights), np.asarray(nu.weights)
            rs = np.bincount(plan.rows, plan.masses, minlength=len(a))
            cs = np.bincount(plan.cols, plan.masses, minlength=len(b))
            expect(np.max(np.abs(rs - a)) <= 1e3 * TAU_MASS
                   and np.max(np.abs(cs - b)) <= 1e3 * TAU_MASS,
                   "plan marginals differ from the weights")
            c = sq_cost(mu.points, nu.points)
            f, g = np.asarray(res.pair.f), np.asarray(res.pair.g)
            tau = TAU_TIGHT * (1.0 + float(c.max()))
            expect((c - f[:, None] - g[None, :]).min() >= -tau,
                   "pair is not dual feasible")
            devs.append(rep.summary["max_weighted"])
        orders = [float(np.log2(devs[k] / devs[k + 1]))
                  for k in range(len(devs) - 1)]
        expect(min(orders) >= 1.8, f"refinement orders {orders} below 1.8")
    return check


class Combined:
    """Several parts' inputs and operations, merged into one round."""

    def __init__(self, parts, seed: int, workdir: str):
        self.parts = [part(seed, workdir) for part in parts]

    def prepare(self):
        for part in self.parts:
            part.prepare()

    def ops(self):
        return interleave([part.ops() for part in self.parts])


WORKLOADS = {
    "library": functools.partial(Combined, (CertifyLadder, RegularityGrid)),
    "cli": functools.partial(Combined, (CliOracle, ExactKnifeEdge)),
}
