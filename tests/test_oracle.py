import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppm_sdp import oracle
from ppm_sdp.graph_model import Graph, PartitionLabels, PlantedPartitionParams, sample_ppm
from ppm_sdp.oracle import (
    MAX_N,
    loglikelihood,
    mle_known_sizes,
    mle_unknown_sizes,
)
from ppm_sdp.sdp import build_known_sizes, objective_value
from ppm_sdp.thresholds import ParameterError, compute_omega


def complete_blocks(*blocks):
    edges = set()
    for block in blocks:
        for u, v in itertools.combinations(block, 2):
            edges.add((min(u, v), max(u, v)))
    n = max(max(b) for b in blocks) + 1
    return Graph(n=n, edges=frozenset(edges))


class TestKnownSizes:
    def test_two_disjoint_edges(self):
        g = Graph(n=4, edges=frozenset({(0, 1), (2, 3)}))
        res = mle_known_sizes(g, (2, 2))
        assert res.best_objective == 4.0
        assert res.is_unique
        assert res.best_labels.labels == (0, 0, 1, 1)

    def test_empty_graph_ties(self):
        g = Graph(n=4, edges=frozenset())
        res = mle_known_sizes(g, (2, 2))
        assert res.best_objective == 0.0
        assert not res.is_unique
        assert len(res.argmax) == 3

    def test_two_triangles(self):
        g = complete_blocks([0, 1, 2], [3, 4, 5])
        res = mle_known_sizes(g, (3, 3))
        assert res.best_objective == 12.0
        assert res.is_unique
        assert res.best_labels.labels == (0, 0, 0, 1, 1, 1)

    def test_objective_matches_partition_matrix(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = np.triu(rng.random((8, 8)) < 0.4, 1)
            g = Graph(8, np.argwhere(a))
            res = mle_known_sizes(g, (4, 4))
            x01 = res.best_labels.same_community_matrix().astype(float)
            assert res.best_objective == pytest.approx(objective_value(g, x01))

    def test_guard(self):
        g = Graph(n=MAX_N + 1, edges=frozenset())
        with pytest.raises(ParameterError, match=str(MAX_N)):
            mle_known_sizes(g, (MAX_N + 1 - 2, 2))
        # explicit override is allowed
        res = mle_known_sizes(g, (MAX_N - 1, 2), max_n=MAX_N + 1)
        assert res.best_objective == 0.0

    def test_size_mismatch(self):
        g = Graph(n=4, edges=frozenset())
        with pytest.raises(ParameterError):
            mle_known_sizes(g, (3, 3))

    @pytest.mark.parametrize("sizes", [(2.7, 2.2), (2.5, 2.5), (2, math.nan)])
    def test_sizes_must_be_integers(self, monkeypatch, sizes):
        # truncation would run (2.7, 2.2) and (2.5, 2.5) as [2, 2]; the SDP shares the rule
        g = Graph(4, [(0, 1), (2, 3)])
        monkeypatch.setattr(oracle, "_enumerate_partitions", None)
        with pytest.raises(ParameterError, match="not all integers"):
            mle_known_sizes(g, sizes)
        with pytest.raises(ParameterError, match="not all integers"):
            build_known_sizes(g, sizes)

    def test_integral_floats_and_one_community_pass(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert mle_known_sizes(g, (2.0, 2.0)).best_labels.labels == (0, 0, 1, 1)
        assert mle_known_sizes(g, (4,)).best_labels.labels == (0, 0, 0, 0)


class TestUnknownSizes:
    def test_single_edge_omega_sweep(self):
        g = Graph(n=2, edges=frozenset({(0, 1)}))
        grouped = (0, 0)
        split = (0, 1)
        res = mle_unknown_sizes(g, 2, 0.5)
        assert res.best_objective == pytest.approx(0.0)
        assert res.best_labels.labels == grouped
        res = mle_unknown_sizes(g, 2, 0.9)
        assert res.best_objective == pytest.approx(-1.6)
        assert res.best_labels.labels == grouped
        res = mle_unknown_sizes(g, 2, 1.1)
        assert res.best_objective == pytest.approx(-2.2)
        assert res.best_labels.labels == split

    def test_erdos_renyi_like_ties(self):
        # empty graph: every partition with the same size profile ties
        g = Graph(n=4, edges=frozenset())
        res = mle_unknown_sizes(g, 2, 0.5)
        assert not res.is_unique

    def test_recovers_blocks(self):
        g = complete_blocks([0, 1, 2, 3], [4, 5, 6])
        res = mle_unknown_sizes(g, 2, 0.5)
        assert res.best_labels.labels == (0, 0, 0, 0, 1, 1, 1)
        assert res.is_unique

    def test_merging_can_win(self):
        # tiny omega: splitting sacrifices edges for no J-penalty gain
        g = complete_blocks([0, 1, 2], [3, 4, 5])
        res = mle_unknown_sizes(g, 3, 0.05)
        assert res.best_labels.r == 2


def canonical(labels):
    """First-occurrence relabelling: the first vertex of each block names it."""
    names = {}
    return tuple(names.setdefault(x, len(names)) for x in labels)


def brute_force(g, r, objective):
    """(best objective, sorted argmax) over every labelling in range(r)^n,
    with objective(labels) -> float or None for a labelling to skip."""
    scores = {}
    for labels in itertools.product(range(r), repeat=g.n):
        lab = canonical(labels)
        if lab not in scores and (obj := objective(lab)) is not None:
            scores[lab] = obj
    best = max(scores.values())
    return best, sorted(lab for lab, obj in scores.items() if obj > best - 1e-9)


def intra_edges(g, lab):
    return sum(lab[u] == lab[v] for u, v in g.pairs.tolist())


@st.composite
def small_graphs(draw):
    r = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(r, 7))
    pairs = list(itertools.combinations(range(n), 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, keep in zip(pairs, present) if keep]), r


class TestAgainstBruteForce:
    """The enumeration agrees with a scan of every labelling in range(r)^n."""

    @staticmethod
    def check(res, best, argmax):
        assert res.best_objective == pytest.approx(best, abs=1e-9)
        assert [lab.labels for lab in res.argmax] == argmax
        assert res.is_unique == (len(argmax) == 1)
        assert res.best_labels == res.argmax[0]

    @settings(max_examples=80, deadline=None)
    @given(small_graphs(), st.data())
    def test_known_sizes(self, graph_r, data):
        g, r = graph_r
        cuts = sorted(data.draw(st.lists(st.integers(1, g.n - 1), min_size=r - 1,
                                         max_size=r - 1, unique=True)))
        sizes = [b - a for a, b in zip([0, *cuts], [*cuts, g.n])]
        target = sorted(sizes)

        def objective(lab):
            counts = sorted(lab.count(b) for b in range(r))
            return 2.0 * intra_edges(g, lab) if counts == target else None

        self.check(mle_known_sizes(g, sizes), *brute_force(g, r, objective))

    @settings(max_examples=80, deadline=None)
    @given(small_graphs(), st.integers(-200, 200))
    def test_unknown_sizes(self, graph_r, k):
        # omega on a 0.01 grid: objectives that differ do so by >= 0.01, so
        # the tie tolerance is never ambiguous
        g, r = graph_r
        omega = k / 100

        def objective(lab):
            return 2.0 * intra_edges(g, lab) - omega * sum(lab.count(b) ** 2 for b in range(r))

        self.check(mle_unknown_sizes(g, r, omega), *brute_force(g, r, objective))


class TestLoglikelihood:
    def test_equal_rates_label_independent(self):
        g = Graph(n=5, edges=frozenset({(0, 1), (2, 4), (1, 3)}))
        vals = set()
        for labels in [(0, 0, 0, 1, 1), (0, 1, 0, 1, 0), (0, 0, 1, 1, 1)]:
            vals.add(round(loglikelihood(g, PartitionLabels(labels, 2), 0.3, 0.3), 12))
        assert len(vals) == 1

    def test_k2_grouped(self):
        g = Graph(n=2, edges=frozenset({(0, 1)}))
        lab = PartitionLabels(labels=(0, 0), r=1)
        assert loglikelihood(g, lab, 0.7, 0.2) == pytest.approx(math.log(0.7))

    def test_rejects_degenerate(self):
        g = Graph(n=2, edges=frozenset())
        lab = PartitionLabels(labels=(0, 0), r=1)
        with pytest.raises(ParameterError):
            loglikelihood(g, lab, 1.0, 0.5)
        with pytest.raises(ParameterError):
            loglikelihood(g, lab, 0.2, 0.5)

    def test_argmax_agrees_with_mle(self):
        # affine equivalence: for fixed sizes the likelihood ranking equals
        # the edge-objective ranking
        rng = np.random.default_rng(3)
        p, q = 0.6, 0.15
        for _ in range(50):
            a = np.triu(rng.random((8, 8)) < 0.35, 1)
            g = Graph(8, np.argwhere(a))
            best_ll, best_part = -math.inf, None
            for comb in itertools.combinations(range(8), 4):
                if 0 not in comb:
                    continue  # fix vertex 0's block to kill the 2! symmetry
                labels = tuple(0 if v in comb else 1 for v in range(8))
                ll = loglikelihood(g, PartitionLabels(labels, 2), p, q)
                if ll > best_ll + 1e-12:
                    best_ll, best_part = ll, labels
            res = mle_known_sizes(g, (4, 4))
            assert res.best_labels.labels == best_part


class TestDeterminism:
    def test_canonical_tie_order(self):
        g = Graph(n=4, edges=frozenset())
        res1 = mle_known_sizes(g, (2, 2))
        res2 = mle_known_sizes(g, (2, 2))
        assert [x.labels for x in res1.argmax] == [x.labels for x in res2.argmax]
        # first label is always 0 (canonical first-occurrence form)
        assert all(x.labels[0] == 0 for x in res1.argmax)

    def test_oracle_matches_sampled_truth_when_strong(self):
        par = PlantedPartitionParams(n=12, r=2, pi=(0.5, 0.5), p_tilde=4.5, q_tilde=0.2)
        g, truth = sample_ppm(par, 21)
        res = mle_known_sizes(g, truth.sizes())
        assert res.best_labels.labels == truth.labels
        omega = compute_omega(par.p, par.q)
        res_u = mle_unknown_sizes(g, 2, omega)
        assert res_u.best_labels.labels == truth.labels
