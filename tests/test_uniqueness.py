"""Degeneracy tests, component flow graphs, certificates, witnesses."""

import dataclasses
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from otuniq.core import CostSpec, DiscreteMeasure, verify_duality
from otuniq.decompose import ComponentDecomposition
from otuniq.errors import (
    NotSelfCoupled,
    NotSymmetric,
    TooManyComponents,
    WrongComponentCount,
)
from otuniq.solver import dual_face_oracle, solve
from otuniq.uniqueness import (
    ComponentFlowGraph,
    ambiguity_witness,
    certify,
    cross_check,
    marginal_degeneracy_check,
    plan_degeneracy_check,
)

from helpers import (
    direct_degeneracy,
    generic_instance,
    marginal_degeneracy_reference,
    two_interval_instance,
)


def _measure(coords, weights, labels=None):
    return DiscreteMeasure(np.asarray(coords, dtype=float)[:, None],
                           np.asarray(weights, dtype=float), labels)


def _semi_discrete(b: float):
    mu = _measure([0.0, 1.0, 2.0, 3.0], [0.25] * 4, labels=[0, 1, 2, 3])
    nu = _measure([-0.5, 3.5], [b, 1.0 - b], labels=[0, 1])
    dec = ComponentDecomposition.build(mu, nu, "explicit_labels")
    return mu, nu, dec


@st.composite
def _mass_lists(draw):
    """Component masses k/den on a small grid, so exact ties and
    subset-sum collisions are common, as floats or as Fractions.  In
    float mode one target mass may move by less than, about or more
    than tau_mass, and its neighbour by as much the other way.  Either
    side may have fewer components; the target side may copy source
    subset sums."""
    den = draw(st.sampled_from([3, 4, 7, 10]))
    exact = draw(st.booleans())
    ks = draw(st.lists(st.integers(0, 6), min_size=1, max_size=7))
    kt = draw(st.lists(st.integers(0, 6), min_size=1, max_size=7))
    if draw(st.booleans()):         # designed collision
        cut = draw(st.integers(1, len(ks)))
        kt = [sum(ks[:cut]), sum(ks[cut:])] + kt[:5]
    ms = [Fraction(k, den) if exact else k / den for k in ks]
    mt = [Fraction(k, den) if exact else k / den for k in kt]
    if not exact:
        j = draw(st.integers(0, len(mt) - 1))
        shift = draw(st.sampled_from([0.0, 1e-16, 1e-12, 2.0 ** -34,
                                      -3e-10, 1e-9, 2e-9, 1e-6]))
        mt[j] += shift
        if draw(st.booleans()):     # a sum as near below as above
            mt[j - 1] -= shift
    return ms, mt


class TestMarginalDegeneracy:
    def test_half_half_collides(self):
        out = marginal_degeneracy_check([0.5, 0.5], [0.5, 0.5])
        assert out["status"] == "colliding"
        assert out["I"] == (0,) and out["J"] in ((0,), (1,))

    def test_point_four_point_six_nondegenerate(self):
        out = marginal_degeneracy_check([0.4, 0.6], [0.5, 0.5])
        assert out["status"] == "nondegenerate"
        assert out["min_gap"] == pytest.approx(0.1)

    def test_single_components_vacuous(self):
        out = marginal_degeneracy_check([1.0], [1.0])
        assert out["status"] == "nondegenerate"

    @pytest.mark.parametrize("swap", [False, True])
    def test_one_component_side_returns_at_once(self, swap):
        # one side has no proper subset to match, so the other side's
        # 2^25 subsets need no enumeration
        ms, mt = [1 / 25] * 25, [1.0]
        if swap:
            ms, mt = mt, ms
        t0 = time.perf_counter()
        out = marginal_degeneracy_check(ms, mt)
        assert time.perf_counter() - t0 < 1.0
        assert out == {"status": "nondegenerate", "min_gap": float("inf")}

    def test_fraction_masses_compare_exactly(self):
        ms = [Fraction(500000000001, 10**12), Fraction(499999999999, 10**12)]
        mt = [Fraction(1, 2), Fraction(1, 2)]
        out = marginal_degeneracy_check(ms, mt)
        assert out["status"] == "nondegenerate"
        assert out["min_gap"] == Fraction(1, 10**12)
        floats = marginal_degeneracy_check([float(x) for x in ms],
                                           [0.5, 0.5])
        assert floats["status"] == "colliding"
        # an int mass among Fractions keeps the comparison exact
        d = Fraction(1, 10**12)
        for zero in (0, Fraction(0)):
            out = marginal_degeneracy_check(
                [zero, Fraction(1, 2) + d, Fraction(1, 2) - d], mt)
            assert out["status"] == "nondegenerate" and out["min_gap"] == d

    def test_component_cap(self):
        with pytest.raises(TooManyComponents):
            marginal_degeneracy_check([1 / 14] * 14, [1 / 13] * 13)

    @given(_mass_lists())
    @example(([0.5, 0.5], [0.5 - 2.0 ** -34, 0.5 + 2.0 ** -34]))
    @example(([0.5, 0.5], [0.5 - 2.0 ** -34, 0.5 + 2.0 ** -34, 0.0]))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_matches_target_list_reference(self, masses):
        # same status, (I, J) and min_gap as with every target subset
        # sum in one list, whichever side is the smaller
        ms, mt = masses
        assert marginal_degeneracy_check(ms, mt) \
            == marginal_degeneracy_reference(ms, mt)

    def test_memory_follows_the_smaller_side(self):
        # 2 + 18 components: a list of the 2^18 target subset sums
        # takes tens of MB; the two source sums take bytes
        ms, mt = [0.5, 0.5], [1 / 18] * 18
        tracemalloc.start()
        try:
            out = marginal_degeneracy_check(ms, mt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert out["status"] == "colliding" and out["I"] == (0,)
        assert out["J"] == tuple(range(9))


class TestPlanDegeneracy:
    def _graph(self, edges, ns, nt):
        sm = [0.0] * ns
        tm = [0.0] * nt
        for (i, j), v in edges.items():
            sm[i] += v
            tm[j] += v
        return ComponentFlowGraph(ns, nt,
                                  tuple((i, j, v)
                                        for (i, j), v in sorted(edges.items())),
                                  tuple(sm), tuple(tm))

    def test_isolated_cluster_pairs_degenerate(self):
        g = self._graph({(0, 0): 0.5, (1, 1): 0.5}, 2, 2)
        out = plan_degeneracy_check(g)
        assert out["status"] == "degenerate"
        assert out["I"] == (0,) and out["J"] == (0,)

    def test_chain_nondegenerate(self):
        g = self._graph({(0, 0): 0.3, (1, 0): 0.2, (1, 1): 0.5}, 2, 2)
        assert plan_degeneracy_check(g)["status"] == "nondegenerate"

    def test_single_source_component(self):
        g = self._graph({(0, 0): 0.4, (0, 1): 0.6}, 1, 2)
        assert plan_degeneracy_check(g)["status"] == "nondegenerate"

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_direct_subset_enumeration(self, seed):
        # random sparse flow graphs with |I| + |J| <= 8
        rng = np.random.default_rng(400 + seed)
        ns = int(rng.integers(1, 5))
        nt = int(rng.integers(1, 9 - ns))
        edges = {}
        # random forest-ish graph, sometimes disconnected
        for i in range(ns):
            for j in range(nt):
                if rng.random() < 0.45:
                    edges[(i, j)] = float(rng.uniform(0.1, 1.0))
        if not edges:
            edges[(0, 0)] = 1.0
        # drop nodes with no incident edges from the comparison by
        # giving them a self-ish edge to keep masses positive
        for i in range(ns):
            if not any(ii == i for (ii, _) in edges):
                edges[(i, int(rng.integers(0, nt)))] = float(
                    rng.uniform(0.1, 1.0))
        for j in range(nt):
            if not any(jj == j for (_, jj) in edges):
                edges[(int(rng.integers(0, ns)), j)] = float(
                    rng.uniform(0.1, 1.0))
        total = sum(edges.values())
        edges = {k: v / total for k, v in edges.items()}
        g = self._graph(edges, ns, nt)
        graph_deg = plan_degeneracy_check(g)["status"] == "degenerate"
        direct_deg, _ = direct_degeneracy(edges, ns, nt)
        assert graph_deg == direct_deg


class TestContactLinks:
    """A target fed by two source components joins them in the flow
    graph."""

    def _graph(self, mu, nu):
        res = solve(mu, nu, CostSpec.sq_euclidean())
        dec = ComponentDecomposition.build(mu, nu, "explicit_labels")
        return ComponentFlowGraph.build(res.plan, dec)

    def test_shared_target_recorded(self):
        mu = _measure([0.0, 1.0], [0.5, 0.5], labels=[0, 1])
        nu = _measure([0.5], [1.0], labels=[0])
        graph = self._graph(mu, nu)
        assert [(i, j) for i, j, _ in graph.edges] == [(0, 0), (1, 0)]
        assert plan_degeneracy_check(graph)["blocks"] == [
            {"sources": [0, 1], "targets": [0]}]

    def test_matched_diagonal_no_cross_links(self):
        mu = _measure([0.0, 10.0], [0.5, 0.5], labels=[0, 1])
        nu = _measure([0.1, 10.1], [0.5, 0.5], labels=[0, 1])
        graph = self._graph(mu, nu)
        assert [(i, j) for i, j, _ in graph.edges] == [(0, 0), (1, 1)]
        assert len(plan_degeneracy_check(graph)["blocks"]) == 2

    def test_semi_discrete_links_iff_off_quarter(self):
        for b, expect_connected in ((0.3, True), (0.5, False)):
            mu, nu, _ = _semi_discrete(b)
            blocks = plan_degeneracy_check(self._graph(mu, nu))["blocks"]
            assert (len(blocks) == 1) == expect_connected


class TestPropagateOffsets:
    """Free blocks of the per-component constants are the flow graph's
    blocks."""

    def test_disconnected_links_reported_free(self):
        mu = _measure([0.0, 10.0], [0.5, 0.5], labels=[0, 1])
        nu = _measure([0.1, 10.1], [0.5, 0.5], labels=[0, 1])
        dec = ComponentDecomposition.build(mu, nu, "explicit_labels")
        cert = certify(mu, nu, CostSpec.sq_euclidean(), dec)
        assert cert.degeneracy["blocks"] == [
            {"sources": [0], "targets": [0]},
            {"sources": [1], "targets": [1]}]
        assert cert.freedom_dim == 1


class TestCertify:
    def test_two_interval_symmetric_non_unique(self):
        mu = two_interval_instance(20)
        nu = two_interval_instance(20)
        dec = ComponentDecomposition.build(mu, nu, "epsilon_graph", 0.2)
        cert = certify(mu, nu, CostSpec.sq_euclidean(), dec)
        assert cert.verdict == "non_unique"
        assert cert.freedom_dim == 1
        assert cert.witness is not None
        a, b = cert.witness
        mat = CostSpec.sq_euclidean().matrix(mu, nu)
        for pair in (a, b):
            rep = verify_duality(cert.solve_result.plan, pair, mat)
            assert rep.optimal
        diff = (a.f - b.f)
        assert np.max(diff) - np.min(diff) > 1e-6  # non-constant

    def test_two_interval_asymmetric_unique(self):
        mu = two_interval_instance(20, mass_left=0.4)
        nu = two_interval_instance(20, mass_left=0.5)
        dec = ComponentDecomposition.build(mu, nu, "epsilon_graph", 0.2)
        cert = certify(mu, nu, CostSpec.sq_euclidean(), dec)
        assert cert.verdict == "unique"
        assert cert.freedom_dim == 0

    @pytest.mark.parametrize("b,expect", [(0.5, "non_unique"),
                                          (0.3, "unique"),
                                          (0.25, "non_unique"),
                                          (0.7, "unique")])
    def test_semi_discrete_example(self, b, expect):
        mu, nu, dec = _semi_discrete(b)
        cert = certify(mu, nu, CostSpec.sq_euclidean(), dec)
        assert cert.verdict == expect

    def test_marginal_nondegeneracy_implies_plan_nondegenerate(self):
        for seed in range(8):
            rng = np.random.default_rng(500 + seed)
            mu, nu, cost, eps, _, _res = generic_instance(rng, "unique",
                                                          max_points=16)
            dec = ComponentDecomposition.build(mu, nu, "epsilon_graph", eps)
            cert = certify(mu, nu, cost, dec)
            if cert.marginal_degeneracy is not None and \
                    cert.marginal_degeneracy["status"] == "nondegenerate":
                assert cert.degeneracy["status"] == "nondegenerate"

    def test_shifted_pairs_agree_iff_constant_shift(self):
        # finite equivalence lemma: two optimal pairs agree on the
        # support projections iff they differ by the same constant on
        # all positive-mass points
        mu = two_interval_instance(6)
        nu = two_interval_instance(6)
        cost = CostSpec.sq_euclidean()
        res = solve(mu, nu, cost)
        mat = cost.matrix(mu, nu)
        shifted = res.pair.shifted(0.7)
        rep = verify_duality(res.plan, shifted, mat)
        assert rep.optimal
        assert np.allclose(shifted.f - res.pair.f, 0.7)

    @pytest.mark.parametrize("target_labels,continuum",
                             [([0, 0], True), ([0, 1], False)],
                             ids=["one_target_component",
                                  "two_target_components"])
    def test_flags_from_flow_graph(self, target_labels, continuum):
        # sources 0 and {1, 2}; the two targets are one component or two
        mu = _measure([0.0, 1.0, 1.1], [0.5, 0.25, 0.25], labels=[0, 1, 1])
        nu = _measure([0.4, 0.6], [0.5, 0.5], labels=target_labels)
        dec = ComponentDecomposition.build(mu, nu, "explicit_labels")
        cert = certify(mu, nu, CostSpec.sq_euclidean(), dec)
        heads = [fl.split(":")[0].split(";")[0] for fl in cert.flags]
        assert heads == ["single-component subproblem treated as unique"] \
            + ["continuum links used"] * continuum
        assert cert.component_verdicts == ((0, "unique"), (1, "unique"))

    def test_degeneracy_margin_warning(self):
        mu = _measure([0.0, 10.0], [0.5 + 5e-9, 0.5 - 5e-9],
                      labels=[0, 1])
        nu = _measure([0.2, 10.2], [0.5 + 2e-9, 0.5 - 2e-9],
                      labels=[0, 1])
        cost = CostSpec.sq_euclidean()
        dec = ComponentDecomposition.build(mu, nu, "explicit_labels")
        cert = certify(mu, nu, cost, dec)
        assert any("degeneracy-margin" in fl for fl in cert.flags)

    def test_builds_the_cost_matrix_once(self, monkeypatch):
        # the witness reads the matrix the solve ran on: one build, then
        # only its pass-through as an explicit cost
        calls = []
        matrix = CostSpec.matrix

        def counted(spec, mu, nu):
            out = matrix(spec, mu, nu)
            calls.append((spec.kind, out))
            return out

        monkeypatch.setattr(CostSpec, "matrix", counted)
        mu = two_interval_instance(6, mass_left=0.5)
        dec = ComponentDecomposition.build(mu, mu, "epsilon_graph", 0.5)
        cert = certify(mu, mu, CostSpec.sq_euclidean(), dec)
        assert cert.verdict == "non_unique" and cert.witness is not None
        assert [kind for kind, _ in calls] \
            == ["lp_norm_power", "explicit_matrix"]
        assert calls[1][1] is calls[0][1]

    def test_zero_weight_points_follow_the_witness_shift(self):
        # a zero-weight target tight with the shifted block would pin the
        # shift at 0 if its g stayed fixed; the face lets f_1 move in [0, 1]
        mu = _measure([0.0, 1.0], np.array([2, 1]) / 3, labels=[0, 1])
        nu = _measure(np.arange(5), np.array([2, 0, 0, 2, 2]) / 6,
                      labels=list(range(5)))
        cost = CostSpec.explicit([[1, 2, 0, 1, 0], [1, 0, 2, 2, 2]])
        dec = ComponentDecomposition.build(mu, nu, "explicit_labels")
        cert = certify(mu, nu, cost, dec)
        res = cert.solve_result
        assert cert.verdict == "non_unique"
        mat = cost.matrix(mu, nu)
        assert not dual_face_oracle(res.plan, res.pair, mat).unique
        for pair in cert.witness:
            assert verify_duality(res.plan, pair, mat).optimal
            assert np.array_equal(pair.g[[1, 2]],
                                  (mat[:, [1, 2]] - pair.f[:, None]).min(0))
        f0, f1 = (pair.f for pair in cert.witness)
        assert f1[0] - f0[0] != f1[1] - f0[1]


@st.composite
def _labelled_instances(draw):
    """At most 5 x 5 points, one label each, integer costs 0-2 and
    small integer weights, zeros included."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    weights = [draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)
                    .filter(any)) for k in (n, m)]
    cost = draw(st.lists(st.integers(0, 2), min_size=n * m,
                         max_size=n * m))
    mu, nu = (_measure(np.arange(k), np.array(w) / sum(w), list(range(k)))
              for k, w in zip((n, m), weights))
    return mu, nu, CostSpec.explicit(np.reshape(cost, (n, m)).astype(float))


class TestVerdictSoundness:
    """Structural verdicts against both oracles on degenerate inputs."""

    @given(_labelled_instances())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_verdict_agrees_with_oracles(self, instance):
        mu, nu, cost = instance
        dec = ComponentDecomposition.build(mu, nu, "explicit_labels")
        cert = certify(mu, nu, cost, dec)
        mat = cost.matrix(mu, nu)
        check = cross_check(cert, mat)
        tight = check.tight_graph_unique
        assert check.dual_face.unique == tight
        # one point per component asserts nothing about a continuum, so
        # the certificate is unflagged and must match the oracles
        assert cert.flags == ()
        assert cert.verdict == ("unique" if tight else "non_unique")
        assert not check.disagreement and not check.note
        for pair in cert.witness or ():
            assert verify_duality(cert.solve_result.plan, pair, mat).optimal


class TestCrossCheck:
    """The disagreement rule: an oracle that differs from a unique or
    non_unique verdict is a disagreement, or a note when a flag says
    that the verdict asserts a continuum."""

    def test_two_interval_split_is_a_note(self):
        # criterion 1's 0.4/0.5 instance: unique on the continuum reading,
        # not on the finite dual face
        mu = two_interval_instance(20, mass_left=0.4)
        nu = two_interval_instance(20, mass_left=0.5)
        dec = ComponentDecomposition.build(mu, nu, "epsilon_graph", 0.2)
        cost = CostSpec.sq_euclidean()
        cert = certify(mu, nu, cost, dec)
        assert cert.verdict == "unique"
        assert any("continuum" in fl for fl in cert.flags)
        check = cross_check(cert, cost.matrix(mu, nu))
        assert not check.dual_face.unique and not check.tight_graph_unique
        assert check.note and not check.disagreement

    def test_four_point_component_is_a_note(self):
        pts = np.arange(4.0)
        mu = _measure(pts, [0.125, 0.125, 0.375, 0.375])
        nu = _measure(pts, np.full(4, 0.25))
        dec = ComponentDecomposition.build(mu, nu, "epsilon_graph", 1.0)
        cost = CostSpec.sq_euclidean()
        cert = certify(mu, nu, cost, dec)
        assert cert.verdict == "unique" and cert.flags
        check = cross_check(cert, cost.matrix(mu, nu))
        assert check.dual_face.max_spread == 2.0
        assert not check.dual_face.unique and not check.tight_graph_unique
        assert check.note and not check.disagreement

    @staticmethod
    def _non_unique_labelled():
        mu = _measure([0.0, 1.0], [0.5, 0.5], labels=[0, 1])
        cost = CostSpec.explicit([[0.0, 1.0], [1.0, 0.0]])
        dec = ComponentDecomposition.build(mu, mu, "explicit_labels")
        return certify(mu, mu, cost, dec), cost.values

    def test_agreement(self):
        cert, mat = self._non_unique_labelled()
        assert cert.verdict == "non_unique" and cert.flags == ()
        check = cross_check(cert, mat)
        assert not check.dual_face.unique and not check.tight_graph_unique
        assert check.n_usable_edges == 2
        assert not check.disagreement and not check.note

    def test_planted_fault_is_a_disagreement(self):
        cert, mat = self._non_unique_labelled()
        check = cross_check(dataclasses.replace(cert, verdict="unique"), mat)
        assert check.disagreement and not check.note

    def test_inconclusive_is_not_compared(self):
        cert, mat = self._non_unique_labelled()
        check = cross_check(dataclasses.replace(cert, verdict="inconclusive"),
                            mat)
        assert not check.disagreement and not check.note


def _permuted(mu, nu, cost, rs, rt):
    """The same problem with the sources in order rs, targets in rt."""
    return (DiscreteMeasure(mu.points[rs], mu.weights[rs], mu.labels[rs]),
            DiscreteMeasure(nu.points[rt], nu.weights[rt], nu.labels[rt]),
            CostSpec.explicit(cost.values[np.ix_(rs, rt)]))


class TestPlanIndependence:
    """Reordering the points changes which optimal plan the simplex
    returns, never the verdict or the freedom dimension."""

    def _check(self, mu, nu, cost, rng, rounds=4):
        def summary(mu, nu, cost):
            dec = ComponentDecomposition.build(mu, nu, "explicit_labels")
            cert = certify(mu, nu, cost, dec)
            return cert.verdict, cert.freedom_dim

        want = summary(mu, nu, cost)
        for _ in range(rounds):
            rs, rt = rng.permutation(mu.n), rng.permutation(nu.n)
            assert summary(*_permuted(mu, nu, cost, rs, rt)) == want
        return want

    @given(_labelled_instances(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_labelled_instances(self, instance, seed):
        self._check(*instance, np.random.default_rng(seed))

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_all_ones(self, k):
        # every coupling is optimal and both oracles say unique
        mu = _measure(np.arange(k), np.full(k, 1 / k), list(range(k)))
        cost = CostSpec.explicit(np.ones((k, k)))
        rng = np.random.default_rng(k)
        assert self._check(mu, mu, cost, rng, rounds=8) == ("unique", 0)


class TestAmbiguityWitness:
    def _clusters(self):
        pts = np.concatenate([np.arange(5) * 1e-4,
                              1 + np.arange(5) * 1e-4])[:, None]
        return DiscreteMeasure(pts, np.full(10, 0.1))

    def test_family_verified_and_spread(self):
        mu = self._clusters()
        cost = CostSpec.sq_euclidean()
        dec = ComponentDecomposition.build(mu, mu, "epsilon_graph", 0.1)
        wit = ambiguity_witness(mu, cost, dec, n_samples=7)
        assert len(wit.pairs) == 7
        mat = cost.matrix(mu, mu)
        tau_face = 1e-6 * (1 + float(np.max(mat)))
        assert wit.oracle_spread == pytest.approx(2 * wit.delta,
                                                  abs=tau_face)
        # boundary samples sit at |a - b| = delta
        bs = [b for _, b in wit.samples]
        assert min(bs) == pytest.approx(-wit.delta)
        assert max(bs) == pytest.approx(wit.delta)

    def test_zero_sample_is_zero_potential(self):
        mu = self._clusters()
        cost = CostSpec.sq_euclidean()
        dec = ComponentDecomposition.build(mu, mu, "epsilon_graph", 0.1)
        wit = ambiguity_witness(mu, cost, dec, n_samples=7)
        mid = wit.pairs[3]
        assert np.allclose(mid.f, 0.0) and np.allclose(mid.g, 0.0)

    def test_asymmetric_cost_rejected(self):
        mu = _measure([0.0, 1.0], [0.5, 0.5], labels=[0, 1])
        dec = ComponentDecomposition.build(mu, mu, "explicit_labels")
        # the second is asymmetric by 9e-6 relative, far above the
        # absolute 1e-12 (1 + max c) the check allows
        for values in ([[0.0, 1.0], [2.0, 0.0]],
                       [[0.0, 1.000009], [1.0, 0.0]]):
            with pytest.raises(NotSymmetric):
                ambiguity_witness(mu, CostSpec.explicit(values), dec)

    def test_nonzero_diagonal_rejected(self):
        mu = _measure([0.0, 1.0], [0.5, 0.5], labels=[0, 1])
        cost = CostSpec.explicit([[1.0, 2.0], [2.0, 1.0]])
        dec = ComponentDecomposition.build(mu, mu, "explicit_labels")
        with pytest.raises(NotSelfCoupled):
            ambiguity_witness(mu, cost, dec)

    def test_wrong_component_count(self):
        mu = _measure([0.0, 1.0, 2.0], [1 / 3] * 3, labels=[0, 1, 2])
        cost = CostSpec.sq_euclidean()
        dec = ComponentDecomposition.build(mu, mu, "explicit_labels")
        with pytest.raises(WrongComponentCount):
            ambiguity_witness(mu, cost, dec)
