"""Command-line interface: exit codes, report shape, determinism."""

import json
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from otuniq.cli import main
from otuniq.core import CostSpec, DiscreteMeasure, PotentialPair, verify_duality


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
        assert main(["certify", path, "--epsilon", "nan"]) == 3
        assert "BadEpsilon" in capsys.readouterr().err

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

    def test_component_cap_is_solver_error(self, tmp_path, capsys):
        # 14 + 13 components exceed SUBSET_CAP; the subset search would
        # otherwise enumerate 2^14 * 2^13 pairs
        path = _write(tmp_path, {
            "schema": "1",
            "source": {"points": [[i] for i in range(14)],
                       "weights": ["1/14"] * 14, "labels": list(range(14))},
            "target": {"points": [[i] for i in range(13)],
                       "weights": ["1/13"] * 13, "labels": list(range(13))},
            "cost": {"kind": "lp_norm_power", "q": 2, "p": 2},
        })
        assert main(["certify", path, "--exact", "--labels",
                     "--oracle", "off"]) == 3
        assert "TooManyComponents" in capsys.readouterr().err


class TestWitness:
    def test_samples_verified(self, tmp_path, capsys):
        n = 5
        pts = [[i * 1e-3] for i in range(n)] + \
              [[1 + i * 1e-3] for i in range(n)]
        w = [1.0 / (2 * n)] * (2 * n)
        path = _write(tmp_path, {
            "schema": "1",
            "source": {"points": pts, "weights": w},
            "target": {"points": pts, "weights": w},
            "cost": {"kind": "lp_norm_power", "q": 2, "p": 2},
            "options": {"epsilon": 0.1},
        })
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
