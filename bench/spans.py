"""Span tracing of otuniq's public functions, installed from outside.

``Tracer.install`` replaces every public function of the package's
modules, at every module that holds a reference to it, with a wrapper
that records one span (name, start, end, parent) per call.  It also
wraps ``CostSpec.matrix``, the two ``build`` classmethods and the
``linprog`` that ``otuniq.solver`` imported, so dense face LPs are
counted where they happen.  Spans stay in memory; ``summary`` turns
them into the per-layer metrics, and ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

LAYERS = ("documents", "core", "solver", "decompose", "uniqueness",
          "regularity", "cli")
MODULES = tuple(f"otuniq.{name}" for name in LAYERS) + ("otuniq",)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []
        self.enabled = False
        self.counts = {"pivots": 0, "exact_pivots": 0, "components": 0,
                       "report_bytes": 0, "grid_evals": 0}
        self._patches = []       # (owner, attribute, original)

    # -- installation --------------------------------------------------
    def install(self):
        import importlib

        import scipy.optimize

        mods = [importlib.import_module(m) for m in MODULES]
        wrappers = {}            # id(original) -> wrapper
        for mod in mods:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if not name.startswith("_") and inspect.isfunction(obj) \
                        and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}")
        linprog = scipy.optimize.linprog
        wrappers[id(linprog)] = self._wrap(linprog, "scipy.linprog")
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and not name.startswith("__"):
                    self._patch(mod, name, wrappers[id(obj)])
        core = importlib.import_module("otuniq.core")
        decompose = importlib.import_module("otuniq.decompose")
        uniqueness = importlib.import_module("otuniq.uniqueness")
        self._patch(core.CostSpec, "matrix",
                    self._wrap(core.CostSpec.matrix, "core.cost_matrix"))
        for cls, name in ((decompose.ComponentDecomposition,
                           "decompose.build"),
                          (uniqueness.ComponentFlowGraph,
                           "uniqueness.flow_graph")):
            build = vars(cls)["build"].__func__
            self._patch(cls, "build",
                        classmethod(self._wrap(build, name)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            idx = len(tracer.spans)
            span = [name, time.perf_counter(), 0.0, parent]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            tracer._count(name, out)
            return out

        return traced

    def _count(self, name, out):
        c = self.counts
        if name == "solver.solve":
            c["pivots"] += out.iterations
        elif name == "solver.solve_exact":
            c["exact_pivots"] += out[3]
        elif name == "decompose.build":
            c["components"] += (len(out.source_components)
                                + len(out.target_components))
        elif name == "documents.render_report":
            c["report_bytes"] += len(out.encode("utf-8"))
        elif name == "regularity.dominated_region":
            c["grid_evals"] += out.grid.shape[0] + 1

    # -- reporting -----------------------------------------------------
    def summary(self, passes: int) -> dict:
        """Per-layer metrics, as means over ``passes`` traced passes.

        ``<layer>.<fn>_s`` is the inclusive time of the function's
        outermost calls (recursive calls are not counted twice);
        ``..._self_s`` and ``<layer>.self_s`` subtract the time covered
        by child spans.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start

        def outermost(k):
            p = spans[k][3]
            while p >= 0:
                if spans[p][0] == spans[k][0]:
                    return False
                p = spans[p][3]
            return True

        incl, self_t, calls, layer_self = {}, {}, {}, {}
        for k, (name, start, end, _) in enumerate(spans):
            dur = end - start
            layer = name.split(".", 1)[0]
            calls[name] = calls.get(name, 0) + 1
            self_t[name] = self_t.get(name, 0.0) + dur - child[k]
            layer_self[layer] = layer_self.get(layer, 0.0) + dur - child[k]
            if outermost(k):
                incl[name] = incl.get(name, 0.0) + dur

        def per(v):
            return v / passes

        c = self.counts
        solve_self = self_t.get("solver.solve", 0.0)
        exact_self = self_t.get("solver.solve_exact", 0.0)
        dominated_s = incl.get("regularity.dominated_region", 0.0)
        m = {
            "solver.solve_s": per(incl.get("solver.solve", 0.0)),
            "solver.solve_calls": per(calls.get("solver.solve", 0)),
            "solver.pivots": per(c["pivots"]),
            "solver.us_per_pivot":
                1e6 * solve_self / c["pivots"] if c["pivots"] else 0.0,
            "solver.solve_exact_s":
                per(incl.get("solver.solve_exact", 0.0)),
            "solver.exact_pivots": per(c["exact_pivots"]),
            "solver.exact_us_per_pivot":
                1e6 * exact_self / c["exact_pivots"]
                if c["exact_pivots"] else 0.0,
            "solver.dual_face_s":
                per(incl.get("solver.dual_face_oracle", 0.0)),
            "solver.face_lps": per(calls.get("scipy.linprog", 0)),
            "solver.face_lp_s": per(incl.get("scipy.linprog", 0.0)),
            "solver.tight_graph_s":
                per(incl.get("solver.tight_graph_connectivity_oracle", 0.0)),
            "core.cost_matrix_s": per(incl.get("core.cost_matrix", 0.0)),
            "core.cost_matrix_calls": per(calls.get("core.cost_matrix", 0)),
            "core.verify_duality_s":
                per(incl.get("core.verify_duality", 0.0)),
            "core.verify_duality_calls":
                per(calls.get("core.verify_duality", 0)),
            "core.c_transform_s": per(incl.get("core.c_transform", 0.0)),
            "decompose.build_s": per(incl.get("decompose.build", 0.0)),
            "decompose.components": per(c["components"]),
            "decompose.potential_s":
                per(incl.get("decompose.decompose_potential", 0.0)),
            "uniqueness.certify_self_s":
                per(self_t.get("uniqueness.certify", 0.0)),
            "uniqueness.flow_graph_s":
                per(incl.get("uniqueness.flow_graph", 0.0)),
            "uniqueness.marginal_check_s":
                per(incl.get("uniqueness.marginal_degeneracy_check", 0.0)),
            "uniqueness.propagate_s":
                per(incl.get("uniqueness.propagate_offsets", 0.0)),
            "uniqueness.witness_s":
                per(incl.get("uniqueness.ambiguity_witness", 0.0)),
            "documents.parse_s":
                per(incl.get("documents.parse_problem", 0.0)),
            "documents.render_s":
                per(incl.get("documents.render_report", 0.0)),
            "documents.report_bytes": per(c["report_bytes"]),
            "cli.calls": per(calls.get("cli.main", 0)),
            "regularity.dominated_s": per(dominated_s),
            "regularity.asymptotic_s":
                per(incl.get("regularity.asymptotic_region", 0.0)),
            "regularity.gradient_check_s":
                per(incl.get("regularity.gradient_identity_check", 0.0)),
            "regularity.grid_evals": per(c["grid_evals"]),
            "regularity.us_per_eval":
                1e6 * dominated_s / c["grid_evals"]
                if c["grid_evals"] else 0.0,
            "trace.spans": per(len(spans)),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = per(layer_self.get(layer, 0.0))
        return m

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)

