"""Command-line interface: exit codes, report shape, determinism."""

import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import tempfile
import time
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from otuniq import __version__, documents
from otuniq.cli import main
from otuniq.core import CostSpec, DiscreteMeasure, PotentialPair, verify_duality
from otuniq.decompose import ComponentDecomposition
from otuniq.documents import parse_problem, render_report
from otuniq.errors import ProblemFormatError
from otuniq.uniqueness import certify, exact_blocks


def _write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _two_by_two(tmp_path):
    return _write(tmp_path, {
        "schema": "1",
        "source": {"points": [[0.0], [1.0]], "weights": [0.5, 0.5]},
        "target": {"points": [[0.0], [1.0]], "weights": [0.5, 0.5]},
        "cost": {"kind": "explicit_matrix",
                 "values": [[0.0, 2.0], [3.0, 1.0]]},
    })


def _two_interval(tmp_path, mass_left=0.5, target_mass_left=None):
    n = 20
    if target_mass_left is None:
        target_mass_left = mass_left
    pts = list(np.linspace(0, 1, n)) + list(np.linspace(2, 3, n))
    w = [mass_left / n] * n + [(1.0 - mass_left) / n] * n
    wt = [target_mass_left / n] * n + [(1.0 - target_mass_left) / n] * n
    return _write(tmp_path, {
        "schema": "1",
        "source": {"points": [[p] for p in pts], "weights": w},
        "target": {"points": [[p] for p in pts], "weights": wt},
        "cost": {"kind": "lp_norm_power", "q": 2, "p": 2},
        "options": {"epsilon": 0.2},
    })


class TestSolve:
    def test_two_by_two_roundtrip(self, tmp_path, capsys):
        path = _two_by_two(tmp_path)
        assert main(["solve", path]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["solve"]["primal_cost"] == pytest.approx(0.5)
        assert sorted((i, j) for i, j, _ in rep["solve"]["plan"]) \
            == [(0, 0), (1, 1)]

    def test_out_file_and_determinism(self, tmp_path):
        path = _two_interval(tmp_path, mass_left=0.4)
        o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["solve", path, "--out", str(o1)]) == 0
        assert main(["solve", path, "--out", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_exact_mode(self, tmp_path, capsys):
        path = _write(tmp_path, {
            "schema": "1",
            "source": {"points": [[0.0], [1.0]], "weights": ["1/2", "1/2"]},
            "target": {"points": [[0.0], [1.0]], "weights": ["1/2", "1/2"]},
            "cost": {"kind": "explicit_matrix",
                     "values": [[0, 2], [3, 1]]},
        })
        assert main(["solve", path, "--exact"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["solve"]["mode"] == "exact"
        assert rep["solve"]["primal_cost"] == "1/2"


class TestExitCodes:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.json")]) == 2
        capsys.readouterr()

    def test_empty_points(self, tmp_path, capsys):
        path = _write(tmp_path, {
            "schema": "1",
            "source": {"points": [], "weights": []},
            "target": {"points": [[0.0]], "weights": [1.0]},
            "cost": {"kind": "lp_norm_power"},
        })
        assert main(["solve", path]) == 2
        capsys.readouterr()

    def test_bad_schema_version(self, tmp_path, capsys):
        path = _write(tmp_path, {
            "schema": "99",
            "source": {"points": [[0.0]], "weights": [1.0]},
            "target": {"points": [[0.0]], "weights": [1.0]},
            "cost": {"kind": "lp_norm_power"},
        })
        assert main(["solve", path]) == 2
        capsys.readouterr()

    def test_unbalanced_weights_rejected_at_parse(self, tmp_path, capsys):
        path = _write(tmp_path, {
            "schema": "1",
            "source": {"points": [[0.0]], "weights": [1.0]},
            "target": {"points": [[0.0], [1.0]], "weights": [0.2, 0.2]},
            "cost": {"kind": "lp_norm_power", "q": 2, "p": 2},
        })
        assert main(["solve", path]) == 2
        capsys.readouterr()

    def test_witness_precondition_is_solver_error(self, tmp_path, capsys):
        # three components: the two-cluster ambiguity family does not
        # apply, which surfaces as a solver-stage error
        pts = [[0.0], [10.0], [20.0]]
        path = _write(tmp_path, {
            "schema": "1",
            "source": {"points": pts, "weights": [1 / 3] * 3},
            "target": {"points": pts, "weights": [1 / 3] * 3},
            "cost": {"kind": "lp_norm_power", "q": 2, "p": 2},
            "options": {"epsilon": 1.0},
        })
        assert main(["witness", path]) == 3
        capsys.readouterr()

    def test_nan_epsilon_is_solver_error(self, tmp_path, capsys):
        path = _two_interval(tmp_path)
        assert main(["certify", path, "--epsilon", "nan"]) == 2
        assert "error: --epsilon: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv, source_labels, epsilon, where", [
        (["certify", "--labels"], None, 0.2, "/source/labels"),
        (["witness", "--labels"], [0] * 20 + [1] * 20, 0.2,
         "/target/labels"),
        (["certify", "--epsilon", "0"], None, 0.2, "--epsilon"),
        (["witness", "--epsilon", "-1"], None, 0.2, "--epsilon"),
        (["certify"], None, 0, "/options/epsilon"),
        (["witness"], None, -0.2, "/options/epsilon"),
    ], ids=["no_source_labels", "no_target_labels", "zero_flag",
            "negative_flag", "zero_option", "negative_option"])
    def test_bad_decomposition_input_is_named(self, tmp_path, argv,
                                              source_labels, epsilon, where):
        with open(_two_interval(tmp_path)) as fh:
            doc = json.load(fh)
        if source_labels is not None:
            doc["source"]["labels"] = source_labels
        doc["options"]["epsilon"] = epsilon
        code, err = _run([argv[0], _write(tmp_path, doc)] + argv[1:])
        assert code == 2
        assert f"error: {where}: " in err

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("path, patch", [
        ("/source/weights/0", {"source": {"points": [[0.0], [1.0]],
                                          "weights": [float("nan"), 0.5]}}),
        ("/source/weights/1", {"source": {"points": [[0.0], [1.0]],
                                          "weights": [0.5, float("inf")]}}),
        ("/source/weights/1", {"source": {"points": [[0.0], [1.0]],
                                          "weights": [0.5, 10 ** 400]}}),
        ("/cost/values/1", {"cost": {"kind": "explicit_matrix",
                                     "values": [[0, 1], [1]]}}),
        ("/cost/values", {"cost": {"kind": "explicit_matrix",
                                   "values": [[0, 1, 2], [1, 0, 2]]}}),
        ("/cost/q", {"cost": {"kind": "lp_norm_power", "q": float("nan"),
                              "p": 2}}),
        ("/options/epsilon", {"options": {"epsilon": float("nan")}}),
        ("/target/points", {"target": {"points": [[0.0, 0.0], [1.0, 0.0]],
                                       "weights": [0.5, 0.5]},
                            "cost": {"kind": "lp_norm_power"}}),
        ("/source/points", {"source": {"points": [[], []],
                                       "weights": [0.5, 0.5]}}),
        ("/source/labels/1", {"source": {"points": [[0.0], [1.0]],
                                         "weights": [0.5, 0.5],
                                         "labels": [0, 2 ** 63]}}),
        ("/source/labels", {"source": {"points": [[0.0], [1.0]],
                                       "weights": [0.5, 0.5],
                                       "labels": [True, False]}}),
        ("/target/labels", {"target": {"points": [[0.0], [1.0]],
                                       "weights": [0.5, 0.5],
                                       "labels": [0, True]}}),
        ("/options/exact", {"options": {"exact": "no"}}),
        ("/cost", {"cost": {"kind": "lp_norm_power", "q": 3},
                   "options": {"exact": True}}),
    ], ids=["nan_weight", "inf_weight", "huge_weight", "ragged_matrix",
            "matrix_shape", "nan_q", "nan_epsilon", "target_dimension",
            "no_coordinates", "huge_label", "boolean_source_labels",
            "boolean_target_labels", "exact_option_string",
            "exact_unsupported_cost"])
    def test_bad_document_names_its_path(self, tmp_path, capsys, exact,
                                         path, patch):
        doc = {
            "schema": "1",
            "source": {"points": [[0.0], [1.0]], "weights": [0.5, 0.5]},
            "target": {"points": [[0.0], [1.0]], "weights": [0.5, 0.5]},
            "cost": {"kind": "explicit_matrix",
                     "values": [[0.0, 2.0], [3.0, 1.0]]},
        }
        problem = _write(tmp_path, {**doc, **patch})
        assert main(["solve", problem] + ["--exact"] * exact) == 2
        assert f"error: {path}: " in capsys.readouterr().err

    def test_overlong_integer_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text('{"schema": "1", "source": {"points": [[0]], '
                        '"weights": [1%s]}}' % ("0" * 5000))
        assert main(["solve", str(path)]) == 2
        assert "error: /: invalid JSON" in capsys.readouterr().err

    def test_certify_unique_exit_zero(self, tmp_path, capsys):
        path = _two_interval(tmp_path, mass_left=0.4, target_mass_left=0.5)
        assert main(["certify", path]) == 0
        capsys.readouterr()

    def test_certify_non_unique_exit_ten(self, tmp_path, capsys):
        path = _two_interval(tmp_path, mass_left=0.5)
        assert main(["certify", path]) == 10
        capsys.readouterr()


class TestCertifyReport:
    def test_semi_discrete_balanced_split(self, tmp_path, capsys):
        path = _write(tmp_path, {
            "schema": "1",
            "source": {"points": [[0.0], [1.0], [2.0], [3.0]],
                   "weights": [0.25] * 4,
                   "labels": [0, 1, 2, 3]},
            "target": {"points": [[-0.5], [3.5]], "weights": [0.5, 0.5],
                   "labels": [0, 1]},
            "cost": {"kind": "lp_norm_power", "q": 2, "p": 2},
        })
        code = main(["certify", path, "--labels"])
        rep = json.loads(capsys.readouterr().out)
        assert code == 10
        assert rep["certificate"]["verdict"] == "non_unique"
        assert rep["certificate"]["witness"] is not None
        assert "oracles" in rep

    def test_zero_weight_first_source_agrees_with_oracles(self, tmp_path,
                                                          capsys):
        # the lexicographically first source carries no mass, so the
        # dual-face oracle anchors at the next one
        path = _write(tmp_path, {
            "schema": "1",
            "source": {"points": [[0.0], [1.0], [2.0]],
                       "weights": [0.0, 0.5, 0.5], "labels": [0, 1, 2]},
            "target": {"points": [[1.5]], "weights": [1.0], "labels": [0]},
            "cost": {"kind": "lp_norm_power", "q": 2, "p": 2},
        })
        assert main(["certify", path, "--labels"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["certificate"]["component_verdicts"] == [
            [0, "zero_mass"], [1, "unique"], [2, "unique"]]
        assert rep["oracles"]["dual_face"]["unique"]
        assert rep["oracles"]["dual_face"]["max_spread"] == 0.0

    def test_all_ones_is_unique(self, tmp_path, capsys):
        # every coupling is optimal; the basic plan the simplex returns
        # splits into blocks, the tight residual graph does not
        block = {"points": [[0.0], [1.0], [2.0]], "weights": [1 / 3] * 3,
                 "labels": [0, 1, 2]}
        path = _write(tmp_path, {
            "schema": "1", "source": block, "target": block,
            "cost": {"kind": "explicit_matrix", "values": [[1.0] * 3] * 3},
        })
        assert main(["certify", path, "--labels"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["certificate"]["verdict"] == "unique"
        assert rep["oracles"]["dual_face"]["unique"]
        assert rep["oracles"]["tight_graph"]["unique"]

    def test_report_is_strict_json(self, tmp_path, capsys):
        # one source component: no proper subset, so min_gap is infinite
        path = _write(tmp_path, {
            "schema": "1",
            "source": {"points": [[0.0], [0.1]], "weights": [0.5, 0.5]},
            "target": {"points": [[0.0], [5.0]], "weights": [0.5, 0.5]},
            "cost": {"kind": "lp_norm_power", "q": 2, "p": 2},
            "options": {"epsilon": 0.5},
        })
        assert main(["certify", path]) == 0

        def reject(token):
            raise ValueError(f"non-strict JSON constant {token}")

        rep = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert rep["certificate"]["marginal_degeneracy"]["min_gap"] == "inf"

    def test_determinism(self, tmp_path):
        path = _two_interval(tmp_path, mass_left=0.5)
        o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["certify", path, "--out", str(o1)]) == 10
        assert main(["certify", path, "--out", str(o2)]) == 10
        assert o1.read_bytes() == o2.read_bytes()

    def test_oracle_off_skips_section(self, tmp_path, capsys):
        path = _two_interval(tmp_path, mass_left=0.4, target_mass_left=0.5)
        main(["certify", path, "--oracle", "off"])
        rep = json.loads(capsys.readouterr().out)
        assert "oracles" not in rep

    def test_digest_recorded(self, tmp_path, capsys):
        path = _two_interval(tmp_path)
        main(["certify", path, "--seed", "7"])
        rep = json.loads(capsys.readouterr().out)
        assert len(rep["input_digest"]) == 64
        assert rep["seed"] == 7


class TestOraclesWithoutSizeCap:
    def test_certify_over_400_points_has_oracles(self, tmp_path, capsys):
        n = 400
        path = _write(tmp_path, {
            "schema": "1",
            "source": {"points": [[x] for x in np.linspace(0, 1, n)],
                       "weights": [1.0 / n] * n},
            "target": {"points": [[0.5]], "weights": [1.0]},
            "cost": {"kind": "lp_norm_power", "q": 2, "p": 2},
            "options": {"epsilon": 0.5},
        })
        assert main(["certify", path]) == 0
        oracles = json.loads(capsys.readouterr().out)["oracles"]
        assert oracles["dual_face"]["unique"]
        assert oracles["dual_face"]["max_spread"] == pytest.approx(0.0,
                                                                   abs=1e-12)
        assert oracles["tight_graph"]["unique"]

    def test_witness_over_200_points_has_spread(self, tmp_path, capsys):
        n = 101
        pts = [[i * 1e-6] for i in range(n)] + \
              [[1 + i * 1e-6] for i in range(n)]
        w = [1.0 / (2 * n)] * (2 * n)
        path = _write(tmp_path, {
            "schema": "1",
            "source": {"points": pts, "weights": w},
            "target": {"points": pts, "weights": w},
            "cost": {"kind": "lp_norm_power", "q": 2, "p": 2},
            "options": {"epsilon": 0.1},
        })
        assert main(["witness", path, "--samples", "3"]) == 0
        wit = json.loads(capsys.readouterr().out)["witness"]
        assert wit["oracle_spread_second_component"] == pytest.approx(
            2 * wit["delta"], abs=1e-6 * 3)


@st.composite
def _rational_labelled_documents(draw):
    """Exact documents of at most 6 x 6 points, one label each, integer
    costs 0-2 and weights 0-3 over their sum as rationals."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))

    def side(k):
        w = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)
                 .filter(any))
        return {"points": [[i] for i in range(k)],
                "weights": [str(Fraction(v, sum(w))) for v in w],
                "labels": list(range(k))}

    source, target = side(n), side(m)
    cost = draw(st.lists(st.lists(st.integers(0, 2), min_size=m, max_size=m),
                         min_size=n, max_size=n))
    return {"schema": "1", "source": source, "target": target,
            "cost": {"kind": "explicit_matrix", "values": cost}}


class TestExactSection:
    def test_zero_mass_component_is_not_a_block(self, tmp_path, capsys):
        path = _write(tmp_path, {
            "schema": "1",
            "source": {"points": [[0], [1], [2]],
                       "weights": ["1/2", "1/2", "0"], "labels": [0, 1, 2]},
            "target": {"points": [[0], [1]], "weights": ["1/2", "1/2"],
                       "labels": [0, 0]},
            "cost": {"kind": "lp_norm_power", "q": 2, "p": 2},
        })
        assert main(["certify", path, "--exact", "--labels"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert len(rep["certificate"]["degeneracy"]["blocks"]) == 1
        assert rep["exact"]["plan_blocks"] == 1
        assert rep["exact"]["plan_degenerate"] is False

    def test_all_ones_is_one_block(self, tmp_path, capsys):
        # every coupling is optimal, so the exact blocks are those of
        # the tight residual graph, not of the one basic plan returned
        block = {"points": [[0], [1], [2]], "weights": ["1/3"] * 3,
                 "labels": [0, 1, 2]}
        path = _write(tmp_path, {
            "schema": "1", "source": block, "target": block,
            "cost": {"kind": "explicit_matrix", "values": [[1] * 3] * 3},
        })
        assert main(["certify", path, "--exact", "--labels"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["exact"]["plan_blocks"] == 1
        assert rep["exact"]["plan_degenerate"] is False

    @given(_rational_labelled_documents())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_blocks_match_float_certificate(self, doc):
        # the float certificate and the exact section find their blocks
        # on separate solves, within tau and by slack == 0
        with tempfile.TemporaryDirectory() as tmp:
            path, out = os.path.join(tmp, "p.json"), os.path.join(tmp, "r")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            main(["certify", path, "--exact", "--labels", "--oracle", "off",
                  "--out", out])
            with open(out) as fh:
                rep = json.load(fh)
        blocks = rep["exact"]["plan_blocks"]
        assert blocks == len(rep["certificate"]["degeneracy"]["blocks"])
        assert rep["exact"]["plan_degenerate"] == (blocks > 1)
        # the library entry point lists the same blocks as the float one
        parsed = parse_problem(json.dumps(doc), exact=True)
        dec = ComponentDecomposition.build(parsed.mu, parsed.nu,
                                           "explicit_labels")
        section, degeneracy = exact_blocks(*parsed.scaled_exact_problem(),
                                           dec)
        assert section == rep["exact"]
        assert degeneracy["blocks"] == certify(
            parsed.mu, parsed.nu, parsed.cost, dec).degeneracy["blocks"]

    def test_marginal_collision_has_zero_tolerance(self, tmp_path, capsys):
        # source component masses 1/2 +- 1e-12 match the targets' 1/2
        # within tau_mass in floats, but not in Fractions
        path = _write(tmp_path, {
            "schema": "1",
            "source": {"points": [[0], [1]],
                       "weights": ["500000000001/1000000000000",
                                   "499999999999/1000000000000"],
                       "labels": [0, 1]},
            "target": {"points": [[0], [1]], "weights": ["1/2", "1/2"],
                       "labels": [0, 1]},
            "cost": {"kind": "lp_norm_power", "q": 2, "p": 2},
        })
        assert main(["certify", path, "--exact", "--labels"]) == 10
        rep = json.loads(capsys.readouterr().out)
        marginal = rep["certificate"]["marginal_degeneracy"]
        assert marginal["status"] == "colliding"
        assert 0 < marginal["min_gap"] < 1e-11
        assert rep["exact"]["marginal_collision"] is None
        assert rep["exact"]["plan_blocks"] == 1

    @pytest.mark.parametrize("m", [13, 14])
    def test_component_cap_skips_marginal_check(self, tmp_path, capsys, m):
        # 14 + m components exceed SUBSET_CAP, so the subset search would
        # enumerate 2^14 * 2^m pairs; as in the certificate, the exact
        # check is skipped and flagged, and the blocks are still found
        path = _write(tmp_path, {
            "schema": "1",
            "source": {"points": [[i] for i in range(14)],
                       "weights": ["1/14"] * 14, "labels": list(range(14))},
            "target": {"points": [[i] for i in range(m)],
                       "weights": [f"1/{m}"] * m, "labels": list(range(m))},
            "cost": {"kind": "lp_norm_power", "q": 2, "p": 2},
        })
        assert main(["certify", path, "--exact", "--labels",
                     "--oracle", "off"]) == (10 if m == 14 else 0)
        rep = json.loads(capsys.readouterr().out)
        skipped = "marginal degeneracy check skipped: component cap"
        assert skipped in rep["certificate"]["flags"]
        blocks = len(rep["certificate"]["degeneracy"]["blocks"])
        assert rep["exact"] == {"plan_blocks": blocks,
                                "plan_degenerate": blocks > 1,
                                "marginal_collision": None,
                                "flags": [skipped]}


def _two_clusters(tmp_path, n=5):
    """A self-coupled document of two clusters of n points, 1 apart."""
    pts = [[i * 1e-3] for i in range(n)] + [[1 + i * 1e-3] for i in range(n)]
    w = [1.0 / (2 * n)] * (2 * n)
    return pts, w, _write(tmp_path, {
        "schema": "1",
        "source": {"points": pts, "weights": w},
        "target": {"points": pts, "weights": w},
        "cost": {"kind": "lp_norm_power", "q": 2, "p": 2},
        "options": {"epsilon": 0.1},
    })


class TestWitness:
    def test_samples_verified(self, tmp_path, capsys):
        n = 5
        pts, w, path = _two_clusters(tmp_path, n)
        assert main(["witness", path, "--samples", "5"]) == 0
        rep = json.loads(capsys.readouterr().out)
        wit = rep["witness"]
        assert len(wit["samples"]) == 5
        mu = DiscreteMeasure(np.array(pts), np.array(w))
        cost = CostSpec.sq_euclidean()
        mat = cost.matrix(mu, mu)
        from otuniq.core import TransportPlan
        idx = np.arange(2 * n)
        plan = TransportPlan(idx, idx, np.array(w), mu, mu)
        for s in wit["samples"]:
            pair = PotentialPair(np.array(s["f"]), np.array(s["g"]), mu, mu)
            assert verify_duality(plan, pair, mat).optimal

    @pytest.mark.parametrize("samples", ["-1", "0"])
    def test_samples_must_be_positive(self, tmp_path, samples):
        _, _, path = _two_clusters(tmp_path)
        code, err = _run(["witness", path, "--samples", samples])
        assert code == 2
        assert "error: --samples: " in err


class TestSlackPasses:
    """One n x m slack pass per verified pair: ``verify_duality`` keeps
    its tight pairs, which ``certify`` and the tight-graph oracle read,
    the witness takes the slack of one sub-block only, and the dual-face
    oracle gates on the slack it reads."""

    @staticmethod
    def _counted(monkeypatch):
        from otuniq import core
        calls = []
        original = core._slack

        def counted(*args):
            calls.append(args)
            return original(*args)

        # every slack pass goes through core's own reference
        monkeypatch.setattr(core, "_slack", counted)
        return calls

    @pytest.mark.parametrize("offset, verdict, passes",
                             [(0.3, "unique", 1), (None, "non_unique", 2)])
    def test_library_certify(self, monkeypatch, offset, verdict, passes):
        pts = np.r_[np.arange(4) * 1e-3, 1 + np.arange(4) * 1e-3][:, None]
        mu = DiscreteMeasure(pts, np.full(8, 1 / 8), np.repeat([0, 1], 4))
        # the target is the source itself, or the source moved by offset
        # and labelled as one component
        nu = mu if offset is None else \
            DiscreteMeasure(pts + offset, mu.weights, np.zeros(8))
        dec = ComponentDecomposition.build(mu, nu, "explicit_labels")
        calls = self._counted(monkeypatch)
        assert certify(mu, nu, CostSpec.sq_euclidean(), dec).verdict \
            == verdict
        assert len(calls) == passes

    def test_cli_certify_with_both_oracles(self, tmp_path, monkeypatch):
        _, _, path = _two_clusters(tmp_path)
        calls = self._counted(monkeypatch)
        code, err = _run(["certify", path, "--oracle", "on"])
        assert code == 10, err
        # the solve's verification, the witness's and the dual-face oracle
        assert len(calls) == 3


class TestCertifyOracles:
    """``otuniq certify`` builds the matrix once and renders
    ``cross_check``'s outcome."""

    def test_builds_the_cost_matrix_once(self, tmp_path, monkeypatch):
        _, _, path = _two_clusters(tmp_path)
        kinds = []
        matrix = CostSpec.matrix

        def counted(spec, mu, nu):
            kinds.append(spec.kind)
            return matrix(spec, mu, nu)

        monkeypatch.setattr(CostSpec, "matrix", counted)
        code, err = _run(["certify", path, "--oracle", "on"])
        assert code == 10, err
        assert kinds.count("lp_norm_power") == 1

    def test_planted_fault_exits_20(self, tmp_path, monkeypatch, capsys):
        from otuniq import cli
        path = _write(tmp_path, {
            "schema": "1",
            "source": {"points": [[0.0], [1.0]], "weights": [0.5, 0.5],
                       "labels": [0, 1]},
            "target": {"points": [[0.0], [1.0]], "weights": [0.5, 0.5],
                       "labels": [0, 1]},
            "cost": {"kind": "explicit_matrix",
                     "values": [[0.0, 1.0], [1.0, 0.0]]},
        })
        assert main(["certify", path, "--labels"]) == 10
        honest = json.loads(capsys.readouterr().out)["oracles"]
        assert "disagreement" not in honest and "note" not in honest

        def planted(*args):
            return dataclasses.replace(certify(*args), verdict="unique")

        monkeypatch.setattr(cli, "certify", planted)
        assert main(["certify", path, "--labels"]) == 20
        oracles = json.loads(capsys.readouterr().out)["oracles"]
        assert oracles["disagreement"] == {
            "structural": "unique", "dual_face": False, "tight_graph": False,
            "note": "bug-report dump: oracles and certificate differ on an "
                    "unflagged instance"}
        assert "note" not in oracles

    def test_continuum_flag_gives_a_note(self, tmp_path, capsys):
        pts = [[0.0], [1.0], [2.0], [3.0]]
        path = _write(tmp_path, {
            "schema": "1",
            "source": {"points": pts,
                       "weights": [0.125, 0.125, 0.375, 0.375]},
            "target": {"points": pts, "weights": [0.25] * 4},
            "cost": {"kind": "lp_norm_power", "q": 2, "p": 2},
        })
        assert main(["certify", path, "--epsilon", "1"]) == 0
        oracles = json.loads(capsys.readouterr().out)["oracles"]
        assert oracles["dual_face"]["max_spread"] == 2.0
        assert "disagreement" not in oracles
        assert oracles["note"].startswith("finite-scale oracle verdict")


class TestRegularityCommand:
    def _problem(self, tmp_path):
        pts = [[p] for p in np.linspace(-2, 2, 21)]
        w = [1.0 / 21] * 21
        return _write(tmp_path, {
            "schema": "1",
            "source": {"points": pts, "weights": w},
            "target": {"points": pts, "weights": w},
            "cost": {"kind": "lp_norm_power", "q": 2, "p": 2},
        })

    def test_dominated_region_csv(self, tmp_path):
        path = self._problem(tmp_path)
        out = tmp_path / "region.csv"
        assert main(["regularity", path, "--anchor", "0", "--partner", "1",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x1,value"
        assert len(lines) == 22
        for line in lines[1:]:
            x, v = line.split(",")
            member = abs(float(x) - 1.0) <= 1.0 + 1e-12
            assert bool(int(v)) == member

    def test_csv_goes_to_sys_stdout_without_out(self, tmp_path, capsys):
        path = self._problem(tmp_path)
        out = tmp_path / "region.csv"
        args = ["regularity", path, "--anchor", "0", "--partner", "1"]
        assert main(args + ["--out", str(out)]) == 0
        assert main(args) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_asymptotic_tail_csv(self, tmp_path):
        path = self._problem(tmp_path)
        out = tmp_path / "tail.csv"
        radii = ",".join(str(r) for r in np.geomspace(10, 1e4, 8))
        assert main(["regularity", path, "--anchor", "0",
                     "--direction", "1", "--radii", radii,
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in
                out.read_text().strip().splitlines()[1:]]
        freq = {float(x): float(v) for x, v in rows}
        # deep inside the half-space the tail frequency saturates
        assert freq[2.0] == 1.0
        assert freq[-2.0] == 0.0


    def test_overflowing_direction(self, tmp_path):
        """--direction is normalized by its largest entry first: 1e308,1e308
        reads as 1,1, and a norm past the float range (1.5e308,1.5e308)
        exits 2; neither lets numpy warn."""
        side = {"points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                "weights": [0.25] * 4}
        path = _write(tmp_path, {"schema": "1", "source": side,
                                 "target": side,
                                 "cost": {"kind": "lp_norm_power",
                                          "q": 2, "p": 2}})
        args = ["regularity", path, "--anchor", "0,0", "--radii", "1,2,4"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = _run(args + ["--direction", "1.5e308,1.5e308"])
            runs = [_run(args + ["--direction", u, "--out",
                                 str(tmp_path / f"{k}.csv")])
                    for k, u in enumerate(["1e308,1e308", "1,1"])]
        assert code == 2
        assert "error: --direction: " in err and "Warning" not in err
        assert runs == [(0, ""), (0, "")]
        assert not caught
        assert (tmp_path / "0.csv").read_text() \
            == (tmp_path / "1.csv").read_text()


class TestCTransform:
    def test_zero_values_columnwise_minima(self, tmp_path):
        path = _two_by_two(tmp_path)
        vals = tmp_path / "g.json"
        vals.write_text("[0, 0]")
        out = tmp_path / "f.csv"
        assert main(["ctransform", path, "--values", str(vals),
                     "--direction", "to_source", "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        got = [float(r.split(",")[1]) for r in rows]
        # f(x_i) = min_j c_ij - g_j with g = 0
        assert got == [0.0, 1.0]

    def test_csv_goes_to_sys_stdout_without_out(self, tmp_path, capsys):
        path = _two_by_two(tmp_path)
        vals = tmp_path / "g.json"
        vals.write_text("[0, 0]")
        assert main(["ctransform", path, "--values", str(vals)]) == 0
        assert capsys.readouterr().out == "x1,value\n0.0,0.0\n1.0,1.0\n"

    def test_minus_inf_values_ignored(self, tmp_path):
        path = _two_by_two(tmp_path)
        vals = tmp_path / "g.json"
        vals.write_text('["-inf", 0]')
        out = tmp_path / "f.csv"
        assert main(["ctransform", path, "--values", str(vals),
                     "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        got = [float(r.split(",")[1]) for r in rows]
        assert got == [2.0, 1.0]


def _run(argv):
    """Exit code and standard error of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(
            io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


class TestExactAsWritten:
    """Exact mode solves the problem as written: decimals are the
    decimals written, and nothing is rounded through doubles."""

    def test_decimal_weights_balance(self, tmp_path, capsys):
        # 0.3 + 0.7 is 1 as decimals, not as the sum of two doubles
        path = _write(tmp_path, {
            "schema": "1",
            "source": {"points": [[0], [1]], "weights": [0.3, 0.7]},
            "target": {"points": [[0], [2]], "weights": [0.5, 0.5]},
            "cost": {"kind": "lp_norm_power", "q": 2, "p": 2},
        })
        assert main(["solve", path]) == 0
        capsys.readouterr()
        assert main(["solve", path, "--exact"]) == 0
        sol = json.loads(capsys.readouterr().out)["solve"]
        assert sol["plan"] == [[0, 0, "3/10"], [1, 0, "1/5"],
                               [1, 1, "1/2"]]
        assert sol["primal_cost"] == "7/10"

    def test_tiny_cost_keeps_two_blocks(self, tmp_path, capsys):
        # the off-diagonal cost 1e-15 keeps the two blocks apart: the
        # dual face has width 1e-15, far below tau_tight
        side = {"points": [[0], [1]], "weights": ["1/2", "1/2"],
                "labels": [0, 1]}
        tiny = "1/1000000000000000"
        path = _write(tmp_path, {
            "schema": "1", "source": side, "target": side,
            "cost": {"kind": "explicit_matrix",
                     "values": [[0, tiny], [tiny, 0]]},
        })
        main(["certify", path, "--exact", "--labels"])
        rep = json.loads(capsys.readouterr().out)
        assert rep["exact"]["plan_blocks"] == 2
        assert rep["exact"]["plan_degenerate"] is True

    def test_points_as_written(self, tmp_path, capsys):
        x = "123456789/1000000007"
        path = _write(tmp_path, {
            "schema": "1",
            "source": {"points": [[x], [1]], "weights": ["1/2", "1/2"]},
            "target": {"points": [[0], [2]], "weights": ["1/2", "1/2"]},
            "cost": {"kind": "lp_norm_power", "q": 2, "p": 2},
        })
        assert main(["solve", path, "--exact"]) == 0
        sol = json.loads(capsys.readouterr().out)["solve"]
        # the only other coupling, x -> 2 and 1 -> 0, costs more
        want = (Fraction(x) ** 2 + 1) / 2
        assert Fraction(sol["primal_cost"]) == want

    @pytest.mark.parametrize("flag", [False, True])
    @pytest.mark.parametrize("raw", ["1e100000000", '"1e100000000"',
                                     '"-1e100000000"', '"1e-100000000"'])
    def test_huge_exponent_refused_at_once(self, tmp_path, raw, flag):
        # building the Fraction of 1e100000000 would stall the parser
        text = json.dumps({
            "schema": "1",
            "source": {"points": [[0], [1]], "weights": ["RAW", 0.5]},
            "target": {"points": [[0], [1]], "weights": [0.5, 0.5]},
            "cost": {"kind": "lp_norm_power", "q": 2, "p": 2},
            "options": {"exact": not flag},
        }).replace('"RAW"', raw)
        path = tmp_path / "problem.json"
        path.write_text(text)
        t0 = time.perf_counter()
        code, err = _run(["solve", str(path)] + ["--exact"] * flag)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and "error: /source/weights/0: " in err

    @pytest.mark.parametrize("argv, cost", [
        (["regularity", "{}", "--anchor", "0", "--partner", "1"],
         {"kind": "profile_of_distance", "coeffs": [0, 0, 1]}),
        (["regularity", "{}", "--anchor", "0", "--partner", "1"],
         {"kind": "lp_norm_power", "q": 3, "p": 1}),
        (["witness", "{}", "--epsilon", "1.5"],
         {"kind": "profile_of_distance", "table": {"r": [0, 1, 9],
                                                   "h": [0, 1, 81]}}),
        (["ctransform", "{}", "--values", "{}.values"],
         {"kind": "profile_of_distance", "coeffs": [0, 0, 1]}),
    ], ids=["regularity_profile", "regularity_l3", "witness_table",
            "ctransform_profile"])
    def test_exact_option_leaves_float_commands(self, tmp_path, argv, cost):
        # only an exact solve needs an exact cost matrix
        pts = [[0], [1], [5], [6]]
        side = {"points": pts, "weights": ["1/4"] * 4}
        path = _write(tmp_path, {"schema": "1", "source": side,
                                 "target": side, "cost": cost,
                                 "options": {"exact": True}})
        (tmp_path / "problem.json.values").write_text("[0, 0, 0, 0]")
        assert _run([a.format(path) for a in argv])[0] == 0


class TestOneDecode:
    """A document is decoded in its mode: a float document once with
    json's float literals, an ``--exact`` run once with Decimal literals,
    and a document that declares exact without the flag a second time,
    in exact mode, once its options are read."""

    BASE = {"schema": "1",
            "source": {"points": [[0], [1]], "weights": [0.3, 0.7]},
            "target": {"points": [[0], [2]], "weights": [0.5, 0.5]},
            "cost": {"kind": "lp_norm_power", "q": 2, "p": 2}}

    def _text(self, **changes):
        doc = copy.deepcopy(self.BASE)
        doc.update(changes)
        return json.dumps(doc)

    @pytest.mark.parametrize("exact", [False, True])
    def test_decoded_once(self, monkeypatch, exact):
        literals = []           # the type of the first weight, per decode
        loads = json.loads

        def counted(*args, **kwargs):
            doc = loads(*args, **kwargs)
            literals.append(type(doc["source"]["weights"][0]))
            return doc

        monkeypatch.setattr(documents.json, "loads", counted)
        text = self._text(options={"exact": exact})
        doc = parse_problem(text, exact=exact)
        assert literals == [Decimal if exact else float]
        assert (doc.exact is not None) == exact
        if exact:
            assert doc.exact[1] == [Fraction(3, 10), Fraction(7, 10)]
            literals.clear()
            declared = parse_problem(text)
            assert literals == [float, Decimal]
            assert declared.exact == doc.exact
        assert doc.mu.weights.tolist() == [0.3, 0.7]

    @pytest.mark.parametrize("exact", [False, True])
    def test_schema_literal_is_never_the_version(self, exact):
        # Decimal("1e0") prints as 1, float("1e0") as 1.0; the schema is
        # the string "1" or the integer 1 in both modes
        text = self._text().replace('"schema": "1"', '"schema": 1e0')
        with pytest.raises(ProblemFormatError, match="expected version"):
            parse_problem(text, exact=exact)

    def test_zero_literal_leaves_exact_off(self):
        doc = parse_problem(self._text(options={"exact": 0.0}))
        assert doc.exact is None

    @pytest.mark.parametrize("exact, shown", [(False, "2.5"),
                                              (True, "Decimal('2.50')")])
    def test_numeric_kind_message(self, exact, shown):
        text = self._text(cost={"kind": "KIND"}).replace('"KIND"', "2.50")
        with pytest.raises(ProblemFormatError) as err:
            parse_problem(text, exact=exact)
        assert str(err.value) == f"/cost/kind: unknown kind {shown}"

    @pytest.mark.parametrize("exact, shown", [(False, "inf"),
                                              (True, "1E+400")])
    def test_float_field_of_an_exact_document(self, exact, shown):
        # q is a float in both modes, but an exact document read it as
        # the Decimal written, and its error shows that
        text = self._text(cost={"kind": "lp_norm_power", "q": "Q"},
                          options={"exact": exact}).replace('"Q"', "1e400")
        with pytest.raises(ProblemFormatError) as err:
            parse_problem(text)
        assert str(err.value) == ("/cost/q: expected a finite number in "
                                  f"the range of doubles, got {shown}")


def _bits(values) -> bytes:
    """The bytes of ``values`` as doubles: -0.0 differs from 0.0."""
    return np.asarray(values, dtype=float).tobytes()


class TestDecodeAgainstJson:
    """A float document's numbers are the doubles json's own decoder
    gives, bit for bit; an exact document reads the same numbers whether
    it declares exact or the flag is passed."""

    # literals at the edges of the doubles: signed zero, the least
    # subnormal, a subnormal, the largest double and 17-digit decimals
    TEXT = """{"schema": "1",
        "source": {"points": [[0.1, 0], [-0.0, 1], [5e-324, 2],
                              [1e-320, 3], [1.7976931348623157e308, 4],
                              [0.12345678901234567, 5]],
                   "weights": [0.1, -0.0, 5e-324, 1e-320,
                               0.12345678901234567, 0.77654321098765433],
                   "labels": [0, 0, 1, 1, 2, 2]},
        "target": {"points": [[2.2250738585072014e-308],
                              [0.99999999999999989]],
                   "weights": [0.30000000000000004, 0.69999999999999996]},
        "cost": {"kind": "explicit_matrix",
                 "values": [[0.1, -0.0], [5e-324, 1e-320],
                            [1.7976931348623157e308, 0.12345678901234567],
                            [3.0000000000000004, 4.9406564584124654e-324],
                            [1e22, 1.2345678901234567e-300],
                            [2, 0.30000000000000004]]},
        "options": {"epsilon": 0.30000000000000004%s}}"""

    def test_float_document_is_json_doubles(self):
        doc = parse_problem(self.TEXT % "")
        want = json.loads(self.TEXT % "")
        for got, block in ((doc.mu, want["source"]), (doc.nu, want["target"])):
            assert _bits(got.points) == _bits(block["points"])
            assert _bits(got.weights) == _bits(block["weights"])
        assert _bits(doc.cost.values) == _bits(want["cost"]["values"])
        assert _bits(doc.epsilon) == _bits(want["options"]["epsilon"])
        assert doc.exact is None

    @given(st.lists(st.floats(0, 1e308), min_size=1, max_size=8),
           st.sampled_from(["{!r}", "{:.17e}", "{:.25g}", "{:.3e}"]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_cost_literals_are_json_doubles(self, values, form):
        # each literal, however it is spelled, is the double json reads
        literals = ", ".join(form.format(v) for v in values)
        text = json.dumps({
            "schema": "1",
            "source": {"points": [[0]], "weights": [1]},
            "target": {"points": [[k] for k in range(len(values))],
                       "weights": [1 / len(values)] * len(values)},
            "cost": {"kind": "explicit_matrix", "values": "ROW"},
        }).replace('"ROW"', f"[[{literals}]]")
        assert _bits(parse_problem(text).cost.values) == \
            _bits(json.loads(text)["cost"]["values"])

    def test_declared_exact_equals_flag(self):
        declared = parse_problem(self.TEXT % ', "exact": true')
        flagged = parse_problem(self.TEXT % "", exact=True)
        assert declared.exact == flagged.exact
        assert declared.exact[0][2] == [Fraction(Decimal("5e-324")), 2]
        for got, want in ((declared.mu, flagged.mu),
                          (declared.nu, flagged.nu)):
            assert _bits(got.points) == _bits(want.points)
            assert _bits(got.weights) == _bits(want.weights)
            assert np.array_equal(got.labels, want.labels) \
                if want.labels is not None else got.labels is None
        assert _bits(declared.cost.values) == _bits(flagged.cost.values)
        assert _bits(declared.epsilon) == _bits(flagged.epsilon)


class TestArguments:
    # --values entries that are neither finite numbers nor "-inf"
    BAD_VALUES = {"nan_string": '"nan"', "nan": "NaN",
                  "infinity": "Infinity", "inf_string": '"inf"',
                  "boolean": "true"}

    @pytest.mark.parametrize("argv", [
        ["solve", "{}", "--labels"],
        ["solve", "{}", "--epsilon", "3"],
        ["witness", "{}", "--exact"],
        ["regularity", "{}", "--anchor", "0", "--partner", "1", "--labels"],
        ["regularity", "{}", "--anchor", "0", "--partner", "1",
         "--epsilon", "3"],
        ["regularity", "{}", "--anchor", "0", "--partner", "1", "--exact"],
        ["ctransform", "{}", "--values", "{}", "--labels"],
        ["ctransform", "{}", "--values", "{}", "--epsilon", "3"],
        ["ctransform", "{}", "--values", "{}", "--exact"],
        ["regularity", "{}", "--anchor", "0", "--partner", "1",
         "--seed", "1"],
        ["ctransform", "{}", "--values", "{}", "--seed", "1"],
    ], ids=["solve_labels", "solve_epsilon", "witness_exact",
            "regularity_labels", "regularity_epsilon", "regularity_exact",
            "ctransform_labels", "ctransform_epsilon", "ctransform_exact",
            "regularity_seed", "ctransform_seed"])
    def test_option_a_command_ignores_is_rejected(self, tmp_path, capsys,
                                                  argv):
        path = _two_by_two(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([a.format(path) for a in argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["solve", "{}", "--out", "{}.d"],
                                      ["solve", "{}.d"]],
                             ids=["out_is_a_directory", "problem_is_one"])
    def test_unusable_path_exits_two(self, tmp_path, argv):
        path = _two_by_two(tmp_path)
        (tmp_path / "problem.json.d").mkdir()
        code, err = _run([a.format(path) for a in argv])
        assert code == 2 and "problem.json.d" in err

    @pytest.mark.parametrize("argv, name", [
        (["regularity", "{}", "--anchor", "x,0", "--partner", "1,1"],
         "--anchor"),
        (["regularity", "{}", "--anchor", "0,0", "--partner", "1,1,1"],
         "--partner"),
        (["regularity", "{}", "--anchor", "0,0", "--direction", "1,0"],
         "--radii"),
        (["regularity", "{}", "--anchor", "0,0", "--direction", "1,0",
          "--radii", "a"], "--radii"),
        (["regularity", "{}", "--anchor", "0,0", "--direction", "1,0",
          "--radii=0,1,2"], "--radii"),
        (["regularity", "{}", "--anchor", "0,0", "--direction", "0,0",
          "--radii", "1,2,3"], "--direction"),
        (["ctransform", "{}", "--values", "{}.txt"], "--values"),
        (["ctransform", "{}", "--values", "{}.short"], "--values"),
        (["ctransform", "{}", "--values", "{}.short", "--direction",
          "to_target"], "--values"),
        (["ctransform", "{}", "--values", "{}.inf"], "--values"),
    ] + [(["ctransform", "{}", "--values", "{}." + bad], "--values")
         for bad in BAD_VALUES], ids=[
        "anchor_not_a_number", "partner_wrong_dimension", "radii_missing",
        "radii_not_a_number", "radii_not_positive", "direction_zero",
        "values_not_json", "values_too_few",
        "values_too_few_to_target", "values_all_minus_inf"]
        + [f"values_{bad}" for bad in BAD_VALUES])
    def test_bad_argument_is_named(self, tmp_path, argv, name):
        pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        side = {"points": pts, "weights": [0.25] * 4}
        path = _write(tmp_path, {"schema": "1", "source": side,
                                 "target": side,
                                 "cost": {"kind": "lp_norm_power",
                                          "q": 2, "p": 2}})
        (tmp_path / "problem.json.txt").write_text("0, 0, 0, 0")
        (tmp_path / "problem.json.short").write_text("[0, 0, 0]")
        (tmp_path / "problem.json.inf").write_text(json.dumps(["-inf"] * 4))
        for bad, entry in self.BAD_VALUES.items():
            values = f"[{entry}, 0, 0, 0]"
            (tmp_path / f"problem.json.{bad}").write_text(values)
        code, err = _run([a.format(path) for a in argv])
        assert code == 2
        assert f"error: {name}: " in err


_FUZZ_BASES = (
    {"schema": "1",
     "source": {"points": [[0.0], [1.0]], "weights": [0.5, 0.5],
                "labels": [0, 1]},
     "target": {"points": [[0.0], [1.0]], "weights": [0.5, 0.5],
                "labels": [0, 1]},
     "cost": {"kind": "explicit_matrix", "values": [[0.0, 2.0], [3.0, 1.0]]}},
    {"schema": "1",
     "source": {"points": [[0, 0], [1, 0], [5, 5]],
                "weights": [0.25, 0.25, 0.5], "labels": [0, 0, 1]},
     "target": {"points": [[0, 1], [5, 4]], "weights": [0.5, 0.5],
                "labels": [0, 1]},
     "cost": {"kind": "lp_norm_power", "q": 2, "p": 2},
     "options": {"epsilon": 2.0}},
    {"schema": "1",
     "source": {"points": [0, 1, 2], "weights": ["1/3", "1/3", "1/3"],
                "labels": [0, 1, 2]},
     "target": {"points": [[0.5]], "weights": [1], "labels": [0]},
     "cost": {"kind": "lp_norm_power", "q": 1, "p": 1},
     "options": {"exact": True}},
    {"schema": "1",
     "source": {"points": [[0.0], [3.0]], "weights": [0.5, 0.5],
                "labels": [0, 1]},
     "target": {"points": [[1.0], [2.0]], "weights": [0.5, 0.5],
                "labels": [0, 1]},
     "cost": {"kind": "profile_of_distance",
              "table": {"r": [0, 1, 4], "h": [0, 1, 16]}}},
)

# raw JSON text: literals json.dumps cannot write
_RAW = ("NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e100000000",
        "1e-100000000")
_VALUES = ("1e100000000", "-1e100000000", -1, -0.5, 0, 0.3, "0.3", "1/3",
           "-2/7", "1/0", "x", None, True, {}, [], [[]], [1, 2])


def _nodes(node, path=()):
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _nodes(value, path + (k,))


@st.composite
def _mutated_documents(draw):
    """A valid document with up to two changes: a number replaced by a
    non-finite or out-of-range literal; any value replaced by a
    negative, decimal, "p/q" or wrong-type value; or a list made one
    shorter or one longer.  Returns the document's JSON text."""
    doc = json.loads(json.dumps(draw(st.sampled_from(_FUZZ_BASES))))
    raws = []
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["raw", "value", "shape"]))
        nodes = [(p, v) for p, v in _nodes(doc) if p and (
            kind == "value" or isinstance(v, list) == (kind == "shape"))]
        path, old = draw(st.sampled_from(nodes))
        if kind == "raw":
            raws.append(draw(st.sampled_from(_RAW)))
            new = f"RAW{len(raws) - 1}"
        elif kind == "value":
            new = copy.deepcopy(draw(st.sampled_from(_VALUES)))
        else:
            new = old[:-1] if old and draw(st.booleans()) \
                else old + old[-1:]
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = new
    text = json.dumps(doc)
    for k, raw in enumerate(raws):
        text = text.replace(f'"RAW{k}"', raw)
    return text


class TestDocumentFuzzer:
    @given(_mutated_documents(), st.booleans())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_exit_codes(self, text, exact):
        # a bad document exits 2 with its JSON path, never 1
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "p.json")
            with open(path, "w") as fh:
                fh.write(text)
            for argv in (["solve", path], ["certify", path, "--labels"]):
                code, err = _run(argv + ["--exact"] * exact)
                assert code in (0, 2, 3, 10, 11, 20), (argv, code)
                if code == 2:
                    assert err.startswith("error: /"), err


def _plain(obj):
    """The former report conversion, kept as the writer's reference."""
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
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _reference_report(body, digest, seed=None):
    doc = {"schema": "1", "tool_version": __version__,
           "input_digest": digest, **_plain(body)}
    if seed is not None:
        doc["seed"] = int(seed)
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


_SCALARS = st.one_of(
    st.floats(allow_nan=False), st.integers(-2 ** 70, 2 ** 70),
    st.booleans(), st.none(), st.text(), st.fractions(),
    st.floats(allow_nan=False).map(np.float64),
    st.floats(allow_nan=False, width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_))
_VALUES_TREE = st.recursive(
    _SCALARS | st.lists(st.floats(allow_nan=False)).map(np.array)
    | st.lists(st.floats(allow_nan=False).map(np.float64)),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20)


class TestReportWriter:
    """``render_report`` writes the text of the former converter plus
    ``json.dumps(..., sort_keys=True, indent=2, allow_nan=False)``."""

    BODIES = {
        "fractions": {"f": [Fraction(1, 3), Fraction(-2), Fraction(0)],
                      "cost": Fraction(7, 2)},
        "numpy": {"x": np.float64(0.1), "y": np.float32(0.1),
                  "k": np.int64(-3), "ok": np.bool_(True),
                  "a": np.array([0.5, -0.0, 1e-300]),
                  "m": np.array([[1, 2], [3, 4]]),
                  "b": np.array([True, False]),
                  "o": np.array([Fraction(1, 2), Fraction(3)], dtype=object)},
        "float lists": {"f": [np.float64(v) for v in (0.1, 2.0, -1e20)],
                        "g": [1.5, np.float64(2.5)], "h": [1.0, 2]},
        "infinities": {"gap": math.inf, "low": -math.inf,
                       "mixed": [1.0, math.inf, np.float64(-math.inf)],
                       "arr": np.array([0.0, np.inf])},
        "zeros": {"z": -0.0, "zs": [-0.0, 0.0], "nz": np.float64(-0.0)},
        "empty": {"l": [], "d": {}, "t": (), "a": np.array([]),
                  "nested": [[], {}, [[]]]},
        "mixed": {"t": (1, "two", 3.0), "b": [True, False, None],
                  "plan": [[0, 1, 0.25], (2, 3, Fraction(1, 4))],
                  "deep": {"z": {"y": {"x": [{"w": None}]}}}},
        "text": {"name": "Kantorovich–Rubinstein é ∞   \"q\" \\ \n",
                 "ключ": "значение", "😀": ["\x00", "\t"]},
        "keys": {"b": 1, "a": 2, "B": 3, "_": 4, "10": 5, "9": 6},
    }

    @pytest.mark.parametrize("name", sorted(BODIES))
    def test_matches_reference(self, name):
        body = self.BODIES[name]
        for seed in (None, 7):
            assert render_report(body, "d" * 64, seed) \
                == _reference_report(body, "d" * 64, seed)

    @given(st.dictionaries(st.text(max_size=5), _VALUES_TREE, max_size=5))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_reference_on_random_bodies(self, body):
        assert render_report(body, "") == _reference_report(body, "")

    @pytest.mark.parametrize("nan", [
        math.nan, np.float64(math.nan), np.float32(math.nan),
        [1.0, math.nan], [np.float64(math.nan)], np.array([0.0, np.nan]),
        {"deep": [{"x": math.nan}]}])
    def test_nan_raises(self, nan):
        with pytest.raises(ValueError):
            _reference_report({"v": nan}, "")
        with pytest.raises(ValueError):
            render_report({"v": nan}, "")


_PIN_SIDE = {"points": [[0.0], [0.001], [0.002], [1.0], [1.001], [1.002]],
             "weights": [1 / 6] * 6}
# 30 points give stacks of 36 witness samples, so 40 samples take two
_PIN_SIDE_30 = {"points": [[k / 1000] for k in range(15)]
                + [[1 + k / 1000] for k in range(15)],
                "weights": [1 / 30] * 30}
_PIN_EXACT = {
    "schema": "1",
    "source": {"points": [[0], [1], [3]], "weights": [0.25, 0.25, 0.5],
               "labels": [0, 1, 2]},
    "target": {"points": [[0], [2.5], [3]], "weights": [0.5, 0.25, 0.25],
               "labels": [0, 1, 2]},
    "cost": {"kind": "lp_norm_power", "q": 2, "p": 2},
}
_PIN_DOCS = {
    "two-by-two": {
        "schema": "1",
        "source": {"points": [[0.0], [1.0]], "weights": [0.5, 0.5]},
        "target": {"points": [[0.0], [1.0]], "weights": [0.5, 0.5]},
        "cost": {"kind": "explicit_matrix",
                 "values": [[0.0, 2.0], [3.0, 1.0]]}},
    "separated": {"schema": "1", "source": _PIN_SIDE, "target": _PIN_SIDE,
                  "cost": {"kind": "lp_norm_power", "q": 2, "p": 2},
                  "options": {"epsilon": 0.1}},
    "separated-30": {"schema": "1", "source": _PIN_SIDE_30,
                     "target": _PIN_SIDE_30,
                     "cost": {"kind": "lp_norm_power", "q": 2, "p": 2},
                     "options": {"epsilon": 0.1}},
    "exact": _PIN_EXACT,
}


class TestPinnedReports:
    """Exit code and SHA-256 of whole reports of small fixed documents,
    recorded with the former two-pass writer and a parser built per
    call: the report bytes must not move."""

    PINNED = {
        "solve": (["solve", "two-by-two", "--seed", "3"], 0,
                  "819f86a6b3e945b0b4a67a6633508d1f"
                  "086933efef154d0841be5b993d5d39d7"),
        "solve exact": (["solve", "exact", "--exact"], 0,
                        "fed0a7952265daf281e24cf88c87e0ea"
                        "e7878384dd45c91d3a55ade6baef05e0"),
        "certify": (["certify", "separated"], 10,
                    "c25d0f4adf4a710807c07fa5d40bbb87"
                    "971ac43cbd8360cf8d79139657888546"),
        "certify exact": (["certify", "exact", "--exact", "--labels"], 10,
                          "f5da9f3479dcf396eb24cb94b9fef9f5"
                          "816c34d3bc75d046b085bdb17e234c9b"),
        "witness": (["witness", "separated", "--samples", "5"], 0,
                    "39a1391d4fbc91155c2445c4f0eddd36"
                    "08709475525ae03283685b094384bc0f"),
        # recorded with one PotentialPair and verify_duality per sample
        "witness two stacks": (["witness", "separated-30", "--samples",
                                "40"], 0,
                               "c5f376169ce95a2c69835db38a0f5624"
                               "d5db0e3ed8c99a9735c3c45befacd6ca"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_report_bytes(self, tmp_path, name):
        argv, code, digest = self.PINNED[name]
        doc = argv[1]
        argv = [argv[0], _write(tmp_path, _PIN_DOCS[doc]), *argv[2:],
                "--out", str(tmp_path / "report.json")]
        assert main(argv) == code
        text = (tmp_path / "report.json").read_bytes()
        if name == "certify":
            rep = json.loads(text)
            assert "witness" in rep["certificate"] and "oracles" in rep
        assert hashlib.sha256(text).hexdigest() == digest


class TestParserReuse:
    """``main`` builds its parser once per process; every call parses its
    own arguments, so nothing carries over from the call before."""

    def test_calls_share_no_state(self, tmp_path, capsys):
        path = _two_interval(tmp_path, mass_left=0.4, target_mass_left=0.5)
        exact = _write(tmp_path, _PIN_EXACT, "exact.json")

        def report(argv, code):
            assert main(argv) == code
            return json.loads(capsys.readouterr().out)

        assert "oracles" not in report(["certify", path, "--oracle", "off"],
                                       0)
        assert "oracles" in report(["certify", path], 0)
        rep = report(["certify", exact, "--exact", "--labels", "--seed",
                      "5"], 10)
        assert "exact" in rep and rep["seed"] == 5
        rep = report(["certify", exact, "--labels"], 10)
        assert "exact" not in rep and "seed" not in rep
        with pytest.raises(SystemExit) as exc:
            main(["certify", exact, "--labels", "--samples", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        rep = report(["solve", exact], 0)
        assert rep["solve"]["mode"] == "float"
