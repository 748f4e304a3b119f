import dataclasses
import hashlib
import inspect
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ppm_sdp import certificate, cli, graph_model, oracle, sdp, thresholds
from ppm_sdp.graph_model import (
    AdversarySpec,
    _pair_chunks,
    _edges_by_line,
    Graph,
    GraphFormatError,
    _derive_seed,
    PartitionLabels,
    PlantedPartitionParams,
    apply_adversary,
    community_sizes,
    monotone_diff,
    pair_uniforms,
    planted_labels,
    read_graph,
    read_labels,
    sample_ppm,
    simulate_dominating_sbm,
    write_graph,
    write_labels,
)
from ppm_sdp.thresholds import ParameterError

# a pinned sample and one spec of each adversary kind, applied at seed 17
PINNED = PlantedPartitionParams(n=300, r=3, pi=(0.5, 0.3, 0.2), p_tilde=21, q_tilde=2)
PINNED_SPECS = {
    "random_monotone": {"delta_add": 0.05, "delta_rem": 0.3},
    "subcommunity_plant": {"community": 1, "size": 30, "density": 0.5},
    "hub_plant": {"community": 2, "hubs": 3, "degree": 25},
    "sbm_dominate": {
        "q_tilde_prime": [[25, 1, 2], [1, 23, 1.5], [2, 1.5, 22]],
        "base": {"n": 300, "r": 3, "pi": [0.5, 0.3, 0.2], "p_tilde": 21, "q_tilde": 2},
    },
    "scripted": {"add": [[0, 1], [2, 5], [200, 201]], "remove": [[0, 200], [10, 280]]},
}
# SHA-256 of the write_graph output, recorded from the frozenset-of-tuples
# implementation of Graph that the pair array replaced
PINNED_DIGESTS = {
    "sample": "13521bc7cdaa297639fb1d9291bdd28534b1d0b076547d9023f7c8e1c8a7d2f1",
    "random_monotone": "4914af8f66647b0dc11e4f258a9c3e91bb74b99d5188fc22950589f42231ab43",
    "subcommunity_plant": "e535ecf2fa009b691b5bfc8f6627bf7eb2b0f6879e6bd153f9ef89b32006ef4a",
    "hub_plant": "2403522a9e0550f3d74b885523085bc6bd7209d5253a38119f4e23efeec55289",
    "sbm_dominate": "2bcfb71e0a95bf2ab7a6f79326e0ef4af472f67e3d5e6fa62b86e57d23fc1852",
    "scripted": "d855349a1afce7f4ab0eeaa437be01daa157c9852807bcb691f162f007809351",
}


def unchunked_sample(params, seed):
    """Reference sampler: every upper-triangle pair at once."""
    truth = planted_labels(params.n, params.pi)
    lab = truth.as_array()
    iu, iv = np.triu_indices(params.n, 1)
    probs = np.where(lab[iu] == lab[iv], params.p, params.q)
    hit = pair_uniforms(seed, iu, iv) < probs
    return Graph(params.n, np.column_stack((iu[hit], iv[hit]))), truth


def unchunked_kernel(g, truth, add_rate, rem_rate, seed, add_tag, rem_tag):
    """Reference per-pair monotone change over every upper-triangle pair at
    once, with presence read from the dense adjacency."""
    lab = truth.as_array()
    iu, iv = np.triu_indices(g.n, 1)
    li, lj = lab[iu], lab[iv]
    same = li == lj
    present = g.adjacency()[iu, iv] == 1.0
    add_u = pair_uniforms(_derive_seed(seed, add_tag), iu, iv)
    rem_u = pair_uniforms(_derive_seed(seed, rem_tag), iu, iv)
    add = same & ~present & (add_u < add_rate[li, lj])
    rem = ~same & present & (rem_u < rem_rate[li, lj])
    edges = (g.edges | set(zip(iu[add].tolist(), iv[add].tolist()))) - set(
        zip(iu[rem].tolist(), iv[rem].tolist())
    )
    return Graph(g.n, edges)


def peak_units(fn, n):
    """Peak traced allocation of fn(), in units of one dense n x n float64
    matrix (8 n^2 bytes)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / (8.0 * n * n)
    finally:
        tracemalloc.stop()


def file_digest(g, path):
    write_graph(g, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPartitionLabels:
    def test_basic(self):
        lab = PartitionLabels(labels=(0, 0, 1, 1, 2), r=3)
        assert lab.n == 5
        assert lab.sizes().tolist() == [2, 2, 1]
        assert lab.members(1).tolist() == [2, 3]

    def test_rejects_empty_community(self):
        with pytest.raises(ParameterError, match=r"^empty communities \(1\): 1$"):
            PartitionLabels(labels=(0, 0, 2), r=3)
        # the count and the first three
        with pytest.raises(ParameterError, match=r"^empty communities \(4\): 0, 2, 3, \.\.\.$"):
            PartitionLabels(labels=(1, 5), r=6)

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            PartitionLabels(labels=(0, 3), r=2)

    def test_a_large_community_index_costs_no_order_r_work(self):
        # r once built set(range(r)) and listed every empty community:
        # 155 MB and a 7.9 MB message at r = 10**6
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError) as err:
                PartitionLabels(labels=(0, 10**6), r=10**6 + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(str(err.value)) < 200
        assert peak < 1 << 20

    @pytest.mark.parametrize("labels, r", [
        ((0, 1.7, 1), 2),  # once silently (0, 1, 1)
        ((0, 1.0, 1), 2),
        (np.array([0.0, 1.0]), 2),
        ((0, "1"), 2),
        ((0, 1, 1), 2.5),  # once a TypeError
        ((0, 1, 1), True),
        ((0, 1, 1), "2"),
    ])
    def test_rejects_non_integer_labels_or_r(self, labels, r):
        with pytest.raises(ParameterError, match="integers"):
            PartitionLabels(labels=labels, r=r)

    def test_integer_arrays_and_an_integral_r(self):
        lab = PartitionLabels(labels=np.array([0, 1, 1], dtype=np.uint8), r=2.0)
        assert lab == PartitionLabels(labels=(0, 1, 1), r=2)
        assert type(lab.r) is int and all(type(x) is int for x in lab.labels)

    def test_same_community_matrix(self):
        lab = PartitionLabels(labels=(0, 1, 0), r=2)
        m = lab.same_community_matrix()
        assert m[0, 2] and not m[0, 1]

    def test_indicator_matrix(self):
        lab = PartitionLabels(labels=(0, 1, 1), r=2)
        ind = lab.indicator_matrix()
        assert ind.sum(axis=1).tolist() == [1.0, 1.0, 1.0]
        assert ind.sum(axis=0).tolist() == [1.0, 2.0]


class TestGraph:
    def test_rejects_self_loop_and_bad_range(self):
        with pytest.raises(ParameterError):
            Graph(n=3, edges=frozenset({(1, 1)}))
        with pytest.raises(ParameterError):
            Graph(n=3, edges=frozenset({(0, 3)}))

    def test_set_and_array_inputs_give_equal_graphs(self):
        g = Graph(n=5, edges={(2, 4), (0, 1), (1, 3)})
        h = Graph(5, np.array([[1, 3], [2, 4], [0, 1]]))
        assert g == h and hash(g) == hash(h)
        assert g.pairs.dtype == np.int64 and g.pairs.tolist() == [[0, 1], [1, 3], [2, 4]]
        assert sorted(g.edges) == [(0, 1), (1, 3), (2, 4)]
        assert g.edges == frozenset({(0, 1), (1, 3), (2, 4)})
        assert g != Graph(6, g.pairs) and g != Graph(5, g.pairs[:2])

    def test_repeated_pairs_collapse(self):
        g = Graph(4, [(1, 2), (0, 1), (1, 2), (0, 1)])
        assert g.m == 2 and g.pairs.tolist() == [[0, 1], [1, 2]]
        assert Graph(4, []).pairs.shape == (0, 2)

    def test_pairs_are_read_only_and_not_shared(self):
        e = np.array([[0, 1], [2, 3]])
        g = Graph(4, e)
        with pytest.raises(ValueError):
            g.pairs[0, 0] = 1
        e[0, 1] = 3
        assert g.pairs.tolist() == [[0, 1], [2, 3]]

    def test_first_bad_edge_is_named(self):
        for bad in ([(0, 1), (2, 1), (0, 9)], np.array([[0, 1], [2, 1], [0, 9]])):
            with pytest.raises(ParameterError, match=r"bad edge \(2, 1\) for n=4"):
                Graph(4, bad)
        with pytest.raises(ParameterError, match=r"bad edge \(-1, 2\)"):
            Graph(4, np.array([[-1, 2]]))
        with pytest.raises(ParameterError, match="pairs"):
            Graph(4, [(0, 1, 2)])

    def test_non_integer_ids_rejected(self):
        for bad in ([(0, 1.7)], np.array([[0.0, 1.0]]), [(False, True)]):
            with pytest.raises(ParameterError, match="integer"):
                Graph(4, bad)
        assert Graph(4, []).m == Graph(4, np.empty((0, 2))).m == 0

    @pytest.mark.parametrize("edges", [[[0, True]], [(True, 2), (0, 3)], [[0, np.True_]]])
    def test_a_bool_beside_integers_is_rejected(self, edges):
        # numpy reads [0, True] as the integer pair (0, 1)
        with pytest.raises(ParameterError, match="integer"):
            Graph(4, edges)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n, edges", [
        (5, []),  # the empty graph
        (7, [(0, 1), (1, 2), (0, 6)]),  # vertices 3, 4 and 5 are isolated
        (1, []),
        (4, [(1, 2), (2, 3)]),  # vertex 0 is isolated
        (4, [(0, 1), (1, 2)]),  # vertex n - 1 is isolated
    ])
    def test_matvec_matches_the_dense_product(self, n, edges, k):
        g = Graph(n, edges)
        x = np.random.default_rng(n + k).normal(size=(n, k))
        assert g.matvec(x).shape == (n, k)
        assert np.max(np.abs(g.matvec(x) - g.adjacency() @ x)) <= 1e-12

    @pytest.mark.parametrize("k", [1, 4])
    def test_matvec_matches_the_dense_product_on_a_sample(self, k):
        g, _ = sample_ppm(PINNED, 5)
        x = np.random.default_rng(k).normal(size=(g.n, k))
        assert np.max(np.abs(g.matvec(x) - g.adjacency() @ x)) <= 1e-12
        assert np.array_equal(g.matvec(x[:, :1]), g.matvec(x)[:, :1])

    def test_matvec_of_a_header_only_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("5 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on a file without data
            g = read_graph(path)
        assert g == Graph(5)
        assert np.array_equal(g.matvec(np.ones((5, 2))), np.zeros((5, 2)))

    def test_adjacency_roundtrip(self):
        g = Graph(n=4, edges=frozenset({(0, 1), (2, 3), (1, 3)}))
        a = g.adjacency()
        assert np.array_equal(a, a.T)
        assert Graph(4, np.argwhere(np.triu(a, 1))) == g


class TestParams:
    def test_derived_probabilities(self):
        par = PlantedPartitionParams(n=200, r=2, pi=(0.5, 0.5), p_tilde=20, q_tilde=2)
        assert par.p == pytest.approx(20 * math.log(200) / 200)
        assert 0 < par.q < par.p < 1

    def test_rejects_dissortative(self):
        with pytest.raises(ParameterError):
            PlantedPartitionParams(n=200, r=2, pi=(0.5, 0.5), p_tilde=2, q_tilde=20)

    def test_rejects_probability_over_one(self):
        with pytest.raises(ParameterError):
            PlantedPartitionParams(n=100, r=2, pi=(0.5, 0.5), p_tilde=60, q_tilde=2)

    @pytest.mark.parametrize("field, value", [
        ("n", 100.5), ("n", True), ("r", 2.5), ("r", True),
        ("p_tilde", True), ("q_tilde", True), ("q_tilde", "0.5"),
        # "ab" and 0.5 once raised ValueError and TypeError, and a "0.5"
        # beside 0.5 ran as the number
        ("pi", 0.5), ("pi", "ab"), ("pi", [0.5, "0.5"]), ("pi", ("0.5", "0.5")),
        ("pi", [[0.5], [0.5]]), ("pi", [True, 0.5]),
    ])
    def test_rejects_a_bool_or_fraction(self, field, value):
        base = dict(n=100, r=2, pi=(0.5, 0.5), p_tilde=8, q_tilde=0.5)
        with pytest.raises(ParameterError, match=field):
            PlantedPartitionParams(**{**base, field: value})

    @pytest.mark.parametrize("pi", [(math.nan, 0.5), (math.inf, 0.5), (0.5, -math.inf)], ids=["nan", "inf", "-inf"])
    def test_rejects_a_non_finite_pi(self, pi):
        # a NaN once passed both checks, and planted_labels raised ValueError
        with pytest.raises(ParameterError, match="finite"):
            PlantedPartitionParams(n=100, r=2, pi=pi, p_tilde=8, q_tilde=0.5)

    def test_is_the_thresholds_class(self):
        # defined beside the divergences, so that `threshold` needs no numpy
        assert PlantedPartitionParams is thresholds.PlantedPartitionParams
        assert PINNED.sizes().tolist() == [150, 90, 60]

    def test_an_integral_n_is_an_int(self):
        par = PlantedPartitionParams(n=100.0, r=np.int64(2), pi=(0.5, 0.5), p_tilde=8, q_tilde=0.5)
        assert (type(par.n), type(par.r)) == (int, int) and (par.n, par.r) == (100, 2)


class TestCommunitySizes:
    def test_largest_remainder(self):
        assert community_sizes(10, (0.5, 0.3, 0.2)).tolist() == [5, 3, 2]
        assert community_sizes(7, (0.5, 0.5)).tolist() == [4, 3]

    def test_sizes_sum(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            r = rng.integers(2, 6)
            pi = rng.dirichlet([3.0] * r)
            n = int(rng.integers(20, 500))
            s = community_sizes(n, pi)
            assert s.sum() == n and np.all(s >= 1)

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            community_sizes(3, (0.99, 0.01))

    def test_planted_labels_contiguous(self):
        lab = planted_labels(10, (0.5, 0.3, 0.2))
        assert lab.labels == (0, 0, 0, 0, 0, 1, 1, 1, 2, 2)


class TestSamplePpm:
    def test_near_degenerate_probabilities(self):
        # p -> 1, q -> 0: the sample is two disjoint K2 cliques
        n = 4
        pt = (1.0 - 1e-9) * n / math.log(n)
        par = PlantedPartitionParams(
            n=n, r=2, pi=(0.5, 0.5), p_tilde=pt, q_tilde=pt * 1e-12
        )
        g, truth = sample_ppm(par, 0)
        assert g.edges == frozenset({(0, 1), (2, 3)})
        assert truth.labels == (0, 0, 1, 1)

    def test_determinism(self):
        par = PlantedPartitionParams(n=100, r=2, pi=(0.5, 0.5), p_tilde=10, q_tilde=2)
        g1, _ = sample_ppm(par, 9)
        g2, _ = sample_ppm(par, 9)
        g3, _ = sample_ppm(par, 10)
        assert g1.edges == g2.edges
        assert g1.edges != g3.edges

    def test_mean_intra_degree(self):
        par = PlantedPartitionParams(n=200, r=2, pi=(0.5, 0.5), p_tilde=20, q_tilde=2)
        s = 100
        degs = []
        for trial in range(100):
            g, truth = sample_ppm(par, trial)
            a = g.adjacency()
            degs.append(float(a[0, truth.members(0)].sum()))
        mean = float(np.mean(degs))
        expect = (s - 1) * par.p
        sigma = math.sqrt((s - 1) * par.p * (1 - par.p) / 100)
        assert abs(mean - expect) <= 3 * sigma

    def test_inter_edge_counts(self):
        # flaky-tolerance check at 4 sigma, pinned seed
        par = PlantedPartitionParams(
            n=300, r=3, pi=(0.5, 0.3, 0.2), p_tilde=12, q_tilde=3
        )
        g, truth = sample_ppm(par, 5)
        lab = truth.as_array()
        sizes = truth.sizes()
        counts = np.zeros((3, 3))
        for u, v in g.edges:
            if lab[u] != lab[v]:
                counts[lab[u], lab[v]] += 1
                counts[lab[v], lab[u]] += 1
        for i in range(3):
            for j in range(i + 1, 3):
                mean = sizes[i] * sizes[j] * par.q
                assert abs(counts[i, j] - mean) <= 4 * math.sqrt(mean)


class TestChunkedPairs:
    """Pairs are visited in row blocks; the outputs equal those of one pass
    over np.triu_indices."""

    RM = {"delta_add": 0.05, "delta_rem": 0.3}

    @staticmethod
    def check_chunks(n):
        chunks = list(_pair_chunks(n))
        iu, iv = np.triu_indices(n, 1)
        got_u = np.concatenate([np.empty(0, int)] + [c[1] for c in chunks])
        got_v = np.concatenate([np.empty(0, int)] + [c[2] for c in chunks])
        assert np.array_equal(got_u, iu) and np.array_equal(got_v, iv)
        firsts = np.cumsum([0] + [len(c[1]) for c in chunks])[:-1]
        for (first, cu, cv), expect in zip(chunks, firsts):
            assert first == expect
            assert cv[0] == cu[0] + 1 and cv[-1] == n - 1  # whole rows
            assert len(cu) <= graph_model._CHUNK_PAIRS or cu[0] == cu[-1]
        return len(chunks)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 363, 1000])
    def test_chunks_cover_the_triangle_in_order(self, n):
        self.check_chunks(n)

    def test_small_chunks_and_rows_longer_than_a_chunk(self, monkeypatch):
        monkeypatch.setattr(graph_model, "_CHUNK_PAIRS", 7)
        assert self.check_chunks(12) > 6  # rows 0..3 each exceed a chunk
        # rows of 4 and 3 pairs fill the first block exactly
        assert self.check_chunks(5) == 2

    def test_sample_matches_unchunked_at_1000(self):
        par = dataclasses.replace(PINNED, n=1000)
        assert self.check_chunks(par.n) == 8
        for seed in (3, 4):
            g, truth = sample_ppm(par, seed)
            ref, ref_truth = unchunked_sample(par, seed)
            assert np.array_equal(g.pairs, ref.pairs) and truth == ref_truth

    @pytest.mark.parametrize("n", [2, 3])
    def test_sample_matches_unchunked_tiny(self, n):
        par = PlantedPartitionParams(n=n, r=2, pi=(0.5, 0.5), p_tilde=2.5, q_tilde=2)
        for seed in range(20):
            assert np.array_equal(sample_ppm(par, seed)[0].pairs, unchunked_sample(par, seed)[0].pairs)

    @pytest.mark.parametrize("n, chunk", [(1000, None), (300, 97)])
    def test_adversaries_match_unchunked(self, n, chunk, monkeypatch):
        if chunk is not None:  # hundreds of block edges, some at present pairs
            monkeypatch.setattr(graph_model, "_CHUNK_PAIRS", chunk)
        par = dataclasses.replace(PINNED, n=n)
        g, truth = sample_ppm(par, 3)
        assert np.array_equal(g.pairs, unchunked_sample(par, 3)[0].pairs)
        out = apply_adversary(g, truth, AdversarySpec("random_monotone", self.RM), 17)
        ones = np.ones((3, 3))
        ref = unchunked_kernel(g, truth, 0.05 * ones, 0.3 * ones, 17, 0xADD, 0x4E)
        assert np.array_equal(out.pairs, ref.pairs)

        qp = np.asarray(PINNED_SPECS["sbm_dominate"]["q_tilde_prime"], dtype=float)
        out = simulate_dominating_sbm(g, truth, qp, par, 17)
        rate = qp * (math.log(par.n) / par.n)
        add_rate, rem_rate = (rate - par.p) / (1.0 - par.p), (par.q - rate) / par.q
        ref = unchunked_kernel(g, truth, add_rate, rem_rate, 17, 0xD0, 0xD0)
        assert np.array_equal(out.pairs, ref.pairs)

    def test_removals_hash_only_the_edges(self, monkeypatch):
        g, truth = sample_ppm(PINNED, 3)
        spec = AdversarySpec("random_monotone", self.RM)
        expected = apply_adversary(g, truth, spec, 17)
        hashed = []

        def counting(seed, u, v):
            hashed.append((seed, len(u)))
            return pair_uniforms(seed, u, v)

        # every pair's final hash goes through _uniform: the additions' draw
        # over the triangle calls it directly, the removals through pair_uniforms
        uniform, keys = graph_model._uniform, []

        def counting_keys(x):
            keys.append(len(x))
            return uniform(x)

        monkeypatch.setattr(graph_model, "pair_uniforms", counting)
        monkeypatch.setattr(graph_model, "_uniform", counting_keys)
        assert apply_adversary(g, truth, spec, 17) == expected
        rem_seed = _derive_seed(17, 0x4E)
        assert sum(k for seed, k in hashed if seed == rem_seed) == g.m
        assert sum(keys) == g.m + PINNED.n * (PINNED.n - 1) // 2

    @pytest.mark.parametrize("n", [1, 2])
    def test_random_monotone_on_tiny_graphs(self, n):
        truth = PartitionLabels(labels=(0,) * n, r=1)
        spec = AdversarySpec("random_monotone", {"delta_add": 1.0})
        out = apply_adversary(Graph(n), truth, spec, 0)
        assert sorted(out.edges) == ([(0, 1)] if n == 2 else [])
        truth = PartitionLabels(labels=tuple(range(n)), r=n)
        spec = AdversarySpec("random_monotone", {"delta_rem": 1.0})
        assert apply_adversary(Graph(n, [(0, 1)] if n == 2 else ()), truth, spec, 0).m == 0


class TestDrawPairs:
    """_draw_pairs, which hashes each vertex once and each pair once, draws
    exactly the pairs of pair_uniforms over the whole triangle."""

    @staticmethod
    def reference(n, lab, rate, seed):
        iu, iv = np.triu_indices(n, 1)
        hit = pair_uniforms(seed, iu, iv) < rate[lab[iu], lab[iv]]
        return np.column_stack((iu[hit], iv[hit]))

    # n = 1000 spans 8 blocks of _CHUNK_PAIRS (TestChunkedPairs)
    @pytest.mark.parametrize("n", [1, 2, 3, 300, 1000])
    @pytest.mark.parametrize("seed", [0, 17, 2**64 - 1])
    def test_matches_pair_uniforms_over_the_triangle(self, n, seed):
        lab = np.arange(n) % 3
        for rate in (
            np.full((3, 3), 0.5),
            np.array([[0.9, 0.1, 0.0], [0.1, 0.6, 0.2], [0.0, 0.2, 0.3]]),
        ):
            got = graph_model._draw_pairs(n, lab, rate, seed)
            assert got.dtype == np.int64
            assert np.array_equal(got, self.reference(n, lab, rate, seed))


class TestMemory:
    """Sampling and the per-pair adversaries hold pairs a row block at a
    time, not the whole triangle."""

    def test_sample_and_random_monotone_peaks(self):
        par = dataclasses.replace(PINNED, n=1000)
        spec = AdversarySpec("random_monotone", {"delta_add": 0.3, "delta_rem": 0.3})
        g, truth = sample_ppm(dataclasses.replace(par, n=100), 3)
        apply_adversary(g, truth, spec, 1)  # first calls import lazily
        assert peak_units(lambda: sample_ppm(par, 3), par.n) <= 1.0
        g, truth = sample_ppm(par, 3)
        assert peak_units(lambda: apply_adversary(g, truth, spec, 1), par.n) <= 0.99

    def test_sorted_pairs_are_copied_not_resorted(self):
        # every sampler and adversary result is sorted and duplicate-free:
        # it costs one copy and its keys, where a sort took three arrays
        par = dataclasses.replace(PINNED, n=1000)
        spec = AdversarySpec("random_monotone", {"delta_add": 0.3, "delta_rem": 0.3})
        g = apply_adversary(*sample_ppm(par, 3), spec, 1)
        units = peak_units(lambda: Graph(g.n, g.pairs), g.n)
        assert units * 8.0 * g.n * g.n <= 2.0 * g.pairs.nbytes

    def test_apply_change_writes_the_output_once(self):
        # random_monotone 0.3/0.3 at n=3000: the change that _pair_kernel
        # draws, then the merge alone.  The merge peaked at 37.5 MB above its
        # inputs when it copied the pairs four times over; writing them once,
        # into the array the graph keeps, peaks at 14.0 MB (a 9.4 MB output).
        g, truth = sample_ppm(dataclasses.replace(PINNED, n=3000), 7)
        lab, intra = truth.as_array(), np.eye(truth.r, dtype=bool)
        added = graph_model._draw_pairs(
            g.n, lab, np.where(intra, 0.3, 0.0), _derive_seed(11, 0xADD),
            skip=graph_model._pair_index(g.n, g.pairs),
        )
        u, v = g.pairs.T
        rate = np.where(intra, 0.0, 0.3).ravel()[lab[u] * truth.r + lab[v]]
        removed = g.pairs[pair_uniforms(_derive_seed(11, 0x4E), u, v) < rate]
        units = peak_units(lambda: graph_model._apply_change(g, truth, added, removed), g.n)
        assert units * 8.0 * g.n * g.n <= 0.5 * 37.5e6


class TestPairUniforms:
    def test_deterministic_and_in_range(self):
        u = np.array([0, 1, 2])
        v = np.array([5, 6, 7])
        a = pair_uniforms(3, u, v)
        b = pair_uniforms(3, u, v)
        assert np.array_equal(a, b)
        assert np.all((a >= 0) & (a < 1))
        assert not np.array_equal(a, pair_uniforms(4, u, v))


class TestAdversaries:
    @pytest.fixture()
    def instance(self):
        par = PlantedPartitionParams(
            n=200, r=2, pi=(0.5, 0.5), p_tilde=20, q_tilde=2
        )
        return sample_ppm(par, 2)

    def test_none_is_identity(self, instance):
        g, truth = instance
        out = apply_adversary(g, truth, AdversarySpec(kind="none"), 0)
        assert out == g

    def test_full_monotone_saturates(self):
        # delta_add = delta_rem = 1: disjoint union of complete communities
        g = Graph(
            n=6, edges=frozenset({(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3)})
        )
        truth = PartitionLabels(labels=(0, 0, 0, 1, 1, 1), r=2)
        spec = AdversarySpec(kind="random_monotone", params={"delta_add": 1, "delta_rem": 1})
        out = apply_adversary(g, truth, spec, 0)
        complete = {(u, v) for u in range(3) for v in range(u + 1, 3)}
        complete |= {(u, v) for u in range(3, 6) for v in range(u + 1, 6)}
        assert out.edges == frozenset(complete)

    def test_monotonicity_audit(self, instance):
        g, truth = instance
        specs = [
            AdversarySpec(kind="random_monotone", params={"delta_add": 0.3, "delta_rem": 0.3}),
            AdversarySpec(kind="subcommunity_plant", params={"community": 0, "size": 8}),
            AdversarySpec(kind="hub_plant", params={"community": 1, "hubs": 3, "degree": 20}),
        ]
        for spec in specs:
            out = apply_adversary(g, truth, spec, 17)
            # monotone_diff raises on any non-monotone change
            added, removed = monotone_diff(g, out, truth)
            assert len(added) or len(removed) or spec.kind == "none"

    def test_subcommunity_plant_adds_exactly_missing_pairs(self):
        # community 0 has exactly 8 members, so the planted K8 covers it
        par = PlantedPartitionParams(
            n=200, r=2, pi=(0.04, 0.96), p_tilde=20, q_tilde=2
        )
        g, truth = sample_ppm(par, 4)
        members = truth.members(0).tolist()
        assert len(members) == 8
        missing = {
            (u, v)
            for k, u in enumerate(members)
            for v in members[k + 1:]
            if (u, v) not in g.edges
        }
        spec = AdversarySpec(
            kind="subcommunity_plant", params={"community": 0, "size": 8, "density": 1.0}
        )
        out = apply_adversary(g, truth, spec, 0)
        added, removed = monotone_diff(g, out, truth)
        assert set(map(tuple, added.tolist())) == missing and not len(removed)

    def test_scripted_rejects_non_monotone(self):
        g = Graph(n=4, edges=frozenset({(0, 1)}))
        truth = PartitionLabels(labels=(0, 0, 1, 1), r=2)
        bad_add = AdversarySpec(kind="scripted", params={"add": [(0, 2)]})
        with pytest.raises(ParameterError, match=r"\(0, 2\)"):
            apply_adversary(g, truth, bad_add, 0)
        g2 = Graph(n=4, edges=frozenset({(0, 1)}))
        bad_rem = AdversarySpec(kind="scripted", params={"remove": [(0, 1)]})
        with pytest.raises(ParameterError, match=r"\(0, 1\)"):
            apply_adversary(g2, truth, bad_rem, 0)

    def test_scripted_applies_changes(self):
        g = Graph(n=4, edges=frozenset({(0, 1), (1, 2)}))
        truth = PartitionLabels(labels=(0, 0, 1, 1), r=2)
        spec = AdversarySpec(kind="scripted", params={"add": [(2, 3)], "remove": [(1, 2)]})
        out = apply_adversary(g, truth, spec, 0)
        assert out.edges == frozenset({(0, 1), (2, 3)})

    @pytest.mark.parametrize("base", ["sampled", "empty"])
    def test_change_merges_like_a_set(self, base):
        # additions unsorted, repeated and partly present; removals partly absent
        par = PlantedPartitionParams(n=60, r=3, pi=(0.5, 0.3, 0.2), p_tilde=8, q_tilde=4)
        g, truth = sample_ppm(par, 5)
        if base == "empty":
            g = Graph(g.n)
        lab = truth.as_array()
        u, v = np.random.default_rng(0).integers(0, g.n, size=(2, 600))
        pairs = np.column_stack((np.minimum(u, v), np.maximum(u, v)))[u != v]
        intra = lab[pairs[:, 0]] == lab[pairs[:, 1]]
        out = graph_model._apply_change(g, truth, pairs[intra], pairs[~intra])
        expected = (g.edges | set(map(tuple, pairs[intra].tolist()))) - set(
            map(tuple, pairs[~intra].tolist())
        )
        assert sorted(out.edges) == sorted(expected)

    def test_spec_json_roundtrip(self):
        spec = AdversarySpec(kind="random_monotone", params={"delta_add": 0.3})
        again = AdversarySpec.from_json(json.dumps({"kind": spec.kind, "params": spec.params}))
        assert again == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            AdversarySpec(kind="chaotic")

    def test_misspelt_param_rejected_at_construction(self):
        with pytest.raises(ParameterError, match="delta-add"):
            AdversarySpec("random_monotone", {"delta-add": 0.3})

    @pytest.mark.parametrize(
        "kind, params, named",
        [
            ("hub_plant", {"hubs": 3}, "degree"),
            ("none", {"delta_add": 0.3}, "delta_add"),
            ("random_monotone", {"delta_add": "0.3"}, "delta_add"),
            ("random_monotone", {"delta_rem": True}, "delta_rem"),
            ("subcommunity_plant", {"size": 8.5}, "size"),
            ("scripted", {"add": [[0, 1], [2]]}, "add"),
            ("scripted", {"remove": [[0, "1"]]}, "remove"),
            ("sbm_dominate", {"q_tilde_prime": [[21, 1], [1, 21]], "base": {"n": 200}}, "base"),
            ("subcommunity_plant", {"size": True}, "size"),
            ("hub_plant", {"hubs": 2, "degree": math.inf}, "degree"),
            ("scripted", {"add": [[0, True]]}, "add"),
            ("scripted", {"remove": [[False, 1]]}, "remove"),
            ("sbm_dominate", {"q_tilde_prime": [[True, 1], [1, 8]], "base": dataclasses.asdict(PINNED)}, "q_tilde_prime"),
            ("sbm_dominate", {"q_tilde_prime": [[21, 1], [1, 21]],
                              "base": {**dataclasses.asdict(PINNED), "pi": ["0.5", "0.3", "0.2"]}}, "pi"),
        ],
    )
    def test_params_bind_to_the_signature(self, kind, params, named):
        with pytest.raises(ParameterError, match=named):
            AdversarySpec(kind, params)

    @pytest.mark.parametrize("kind, params", [
        ("subcommunity_plant", {"size": 8, "community": 1}),
        ("hub_plant", {"hubs": 2, "degree": 10, "community": 1}),
    ])
    def test_integral_floats_bind_as_ints(self, instance, kind, params):
        # a JSON 8.0 is the integer 8, as a config's "trials": 5.0 is
        g, truth = instance
        as_floats = {name: float(value) for name, value in params.items()}
        spec = AdversarySpec(kind, as_floats)
        assert all(type(v) is int for v in graph_model._bound_params(spec).values())
        assert apply_adversary(g, truth, spec, 3) == apply_adversary(g, truth, AdversarySpec(kind, params), 3)

    @pytest.mark.parametrize("density", [2.0, 1.0 + 1e-12, math.nan, math.inf, -1.0, -math.inf])
    def test_subcommunity_density_outside_the_unit_interval(self, instance, density):
        # 2.0, NaN and inf once planted the whole clique, and -1.0 nothing
        g, truth = instance
        spec = AdversarySpec("subcommunity_plant", {"size": 10, "density": density})
        with pytest.raises(ParameterError, match="density"):
            apply_adversary(g, truth, spec, 3)

    def test_defaults_come_from_the_signature(self, instance):
        g, truth = instance
        spec = AdversarySpec("subcommunity_plant", {"size": 8})
        full = AdversarySpec("subcommunity_plant", {"size": 8, "community": 0, "density": 1.0})
        assert apply_adversary(g, truth, spec, 3) == apply_adversary(g, truth, full, 3)


class TestAdversaryReference:
    """README's adversary-spec table names the kinds and params of
    graph_model._ADVERSARIES, with their types and defaults, and nothing
    else."""

    TYPES = {"float": "number", "int": "integer", "list": "list", "PlantedPartitionParams": "model"}

    @staticmethod
    def readme_table() -> dict:
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("### Adversary specs", 1)[1].split("\n#", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \|([^|]*)\|", section, flags=re.M)
        return {
            kind: dict(re.findall(r"`(\w+)` \(([^)]*)\)", params)) for kind, params in rows
        }

    def test_table_matches_signatures(self):
        expected = {}
        for kind, fn in graph_model._ADVERSARIES.items():
            params = list(inspect.signature(fn).parameters.values())[3:]
            expected[kind] = {
                p.name: self.TYPES[p.annotation] + ", " + (
                    "required" if p.default is p.empty
                    else json.dumps(list(p.default) if isinstance(p.default, tuple) else p.default)
                )
                for p in params
            }
        assert self.readme_table() == expected


class TestDominatingSbm:
    def test_identity_target(self):
        par = PlantedPartitionParams(n=100, r=2, pi=(0.5, 0.5), p_tilde=10, q_tilde=2)
        g, truth = sample_ppm(par, 1)
        qp = thresholds.ppm_rate_matrix(10, 2, 2)
        out = simulate_dominating_sbm(g, truth, qp, par, 0)
        assert out == g

    def test_rejects_non_dominating(self):
        par = PlantedPartitionParams(n=100, r=2, pi=(0.5, 0.5), p_tilde=10, q_tilde=2)
        g, truth = sample_ppm(par, 1)
        qp = thresholds.ppm_rate_matrix(9.0, 2, 2)  # intra rate below base
        with pytest.raises(ParameterError):
            simulate_dominating_sbm(g, truth, qp, par, 0)
        qp2 = thresholds.ppm_rate_matrix(10, 3.0, 2)  # inter rate above base
        with pytest.raises(ParameterError):
            simulate_dominating_sbm(g, truth, qp2, par, 0)

    def test_rejects_sizes_that_disagree(self):
        par = PlantedPartitionParams(n=100, r=2, pi=(0.5, 0.5), p_tilde=10, q_tilde=2)
        g, truth = sample_ppm(par, 1)
        qp = thresholds.ppm_rate_matrix(12, 1, 2)
        short = PartitionLabels(labels=truth.labels[:60], r=2)
        with pytest.raises(ParameterError, match="disagree on n"):
            simulate_dominating_sbm(g, short, qp, par, 0)
        other = dataclasses.replace(par, n=200)
        with pytest.raises(ParameterError, match="disagree on n"):
            simulate_dominating_sbm(g, truth, qp, other, 0)
        for other in (
            dataclasses.replace(par, pi=(0.9, 0.1)),
            dataclasses.replace(par, r=3, pi=(0.4, 0.3, 0.3)),
        ):
            with pytest.raises(ParameterError, match="disagree with the labels"):
                simulate_dominating_sbm(g, truth, qp, other, 0)

    def test_hierarchical_removal_fractions(self):
        # four communities; inter rate drops from b to c only across the
        # top-level split, so only those blocks lose edges, at rate (b-c)/b
        n, a, b, c = 400, 30.0, 14.0, 2.0
        base = PlantedPartitionParams(n=n, r=4, pi=(0.25,) * 4, p_tilde=a, q_tilde=b)
        g, truth = sample_ppm(base, 11)
        qp = np.full((4, 4), c)
        qp[0, 1] = qp[1, 0] = qp[2, 3] = qp[3, 2] = b
        np.fill_diagonal(qp, a)
        out = simulate_dominating_sbm(g, truth, qp, base, 5)
        added, removed = monotone_diff(g, out, truth)
        assert not len(added)  # intra rates unchanged
        lab = truth.as_array()
        rem = np.zeros((4, 4))
        tot = np.zeros((4, 4))
        for u, v in g.edges:
            i, j = sorted((lab[u], lab[v]))
            if i != j:
                tot[i, j] += 1
        for u, v in removed:
            i, j = sorted((lab[u], lab[v]))
            rem[i, j] += 1
        assert rem[0, 1] == 0 and rem[2, 3] == 0
        expect = (b - c) / b
        for i, j in [(0, 2), (0, 3), (1, 2), (1, 3)]:
            frac = rem[i, j] / tot[i, j]
            sigma = math.sqrt(expect * (1 - expect) / tot[i, j])
            assert abs(frac - expect) <= 4 * sigma


class TestMonotoneDiff:
    """monotone_diff checks the whole premise of a carried certificate:
    one n for both graphs and the labels, intra additions, inter removals."""

    N = 30

    @pytest.fixture()
    def instance(self):
        par = PlantedPartitionParams(n=self.N, r=2, pi=(0.5, 0.5), p_tilde=4, q_tilde=1)
        return sample_ppm(par, 3)

    def test_rejects_a_change_that_is_not_monotone(self, instance):
        g, truth = instance
        lab = truth.as_array()
        inter = next((u, v) for u in range(g.n) for v in range(u + 1, g.n)
                     if lab[u] != lab[v] and (u, v) not in g.edges)
        # what a scripted spec would add, made without the adversary's check
        g2 = Graph(g.n, np.vstack([g.pairs, [inter]]))
        with pytest.raises(ParameterError, match="addition of inter"):
            monotone_diff(g, g2, truth)
        intra = next(e for e in g.pairs if lab[e[0]] == lab[e[1]])
        g3 = Graph(g.n, g.pairs[np.any(g.pairs != intra, axis=1)])
        with pytest.raises(ParameterError, match="removal of intra"):
            monotone_diff(g, g3, truth)

    @pytest.mark.parametrize("case", ["edge-to-a-new-vertex", "same-pairs", "short-labels"])
    def test_rejects_another_n(self, instance, case):
        # an edge (0, 30) once raised IndexError, the same pairs on 31
        # vertices gave an empty diff, and labels of n=10 a diff with the
        # wrong labels
        g, truth = instance
        g2, labels = Graph(self.N + 1, g.pairs), truth
        if case == "edge-to-a-new-vertex":
            g2 = Graph(self.N + 1, np.vstack([g.pairs, [(0, self.N)]]))
        elif case == "short-labels":
            labels = PartitionLabels(labels=truth.labels[:5] + truth.labels[-5:], r=2)
            missing = next((u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) not in g.edges)
            g2 = Graph(g.n, np.vstack([g.pairs, [missing]]))
        with pytest.raises(ParameterError, match="disagree on n"):
            monotone_diff(g, g2, labels)


class TestPinnedOutputs:
    def test_sample_and_adversary_digests(self, tmp_path):
        g, truth = sample_ppm(PINNED, 3)
        got = {"sample": file_digest(g, tmp_path / "g.txt")}
        for kind, params in PINNED_SPECS.items():
            out = apply_adversary(g, truth, AdversarySpec(kind=kind, params=params), 17)
            got[kind] = file_digest(out, tmp_path / f"{kind}.txt")
        assert got == PINNED_DIGESTS


class TestOneEdgeForm:
    """Every program path reads Graph.pairs; the tuple views `edges` and
    `sorted_edges()` are only for callers outside the program."""

    @pytest.fixture()
    def no_tuple_views(self, monkeypatch):
        def forbidden(*_):
            raise AssertionError("a program path read a tuple view of the edges")

        monkeypatch.setattr(Graph, "edges", property(forbidden))
        monkeypatch.setattr(Graph, "sorted_edges", forbidden)

    def test_program_paths_read_the_pair_array(self, tmp_path, capsys, no_tuple_views):
        g, truth = sample_ppm(PINNED, 3)
        path = tmp_path / "g.txt"
        write_graph(g, path)
        assert read_graph(path) == g
        for kind, params in [("none", {}), *PINNED_SPECS.items()]:
            out = apply_adversary(g, truth, AdversarySpec(kind=kind, params=params), 17)
            monotone_diff(g, out, truth)

        labels, cert = sdp.spectral_candidate(g, truth.r, sizes=truth.sizes())
        assert certificate.verify_certificate(g, labels, cert).unique_optimum
        cert = certificate.build_certificate(g, truth, PINNED.p, PINNED.q)
        assert certificate.verify_certificate(g, truth, cert).verified
        argv = ["solve", "--graph", str(path), "--mode", "unknown", "--omega", "0.17", "--r", "3"]
        assert cli.main(argv) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["method"] == "certificate"
        opts = sdp.SolverOptions(tol=1e-4, max_iters=20)
        for prob in (
            sdp.build_known_sizes(g, truth.sizes()),
            sdp.build_unknown_sizes(g, truth.r, 0.17),
        ):
            sdp.round_to_partition(sdp.solve(prob, opts), truth.r)

        tiny = PlantedPartitionParams(n=12, r=2, pi=(0.5, 0.5), p_tilde=4, q_tilde=1)
        g, truth = sample_ppm(tiny, 0)
        assert oracle.mle_known_sizes(g, truth.sizes()).best_objective >= 0
        assert oracle.mle_unknown_sizes(g, 2, 0.4).best_labels.n == 12
        assert oracle.loglikelihood(g, truth, tiny.p, tiny.q) < 0


class TestSerialization:
    def test_empty_graph_format(self, tmp_path):
        path = tmp_path / "g.txt"
        write_graph(Graph(n=3, edges=frozenset()), path)
        assert path.read_text() == "3 0\n"

    def test_triangle_format(self, tmp_path):
        path = tmp_path / "g.txt"
        write_graph(Graph(n=3, edges=frozenset({(1, 2), (0, 2), (0, 1)})), path)
        assert path.read_text() == "3 3\n0 1\n0 2\n1 2\n"

    @pytest.mark.parametrize("n, p_tilde", [(5, None), (120, 16), (2000, 21)])
    def test_bytes_are_the_per_edge_format(self, tmp_path, n, p_tilde):
        if p_tilde is None:  # m = 0
            g = Graph(n)
        else:
            g, _ = sample_ppm(PlantedPartitionParams(n, 2, (0.5, 0.5), p_tilde, 2), 1)
        path = tmp_path / "g.txt"
        write_graph(g, path)
        lines = [f"{g.n} {g.m}\n"] + [f"{u} {v}\n" for u, v in sorted(g.edges)]
        assert path.read_bytes() == "".join(lines).encode()

    def test_roundtrip_fixpoint(self, tmp_path):
        par = PlantedPartitionParams(n=200, r=2, pi=(0.5, 0.5), p_tilde=15, q_tilde=2)
        g, truth = sample_ppm(par, 0)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_graph(g, p1)
        write_graph(read_graph(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        lp1, lp2 = tmp_path / "la.txt", tmp_path / "lb.txt"
        write_labels(truth, lp1)
        write_labels(read_labels(lp1), lp2)
        assert lp1.read_bytes() == lp2.read_bytes()

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 2\n0 1\nx y\n")
        with pytest.raises(GraphFormatError) as err:
            read_graph(path)
        assert err.value.line == 3
        path.write_text("3 2\n0 1\n0 1\n")
        with pytest.raises(GraphFormatError, match="duplicate"):
            read_graph(path)
        path.write_text("3 1\n2 1\n")
        with pytest.raises(GraphFormatError, match="unordered"):
            read_graph(path)
        path.write_text("3 5\n0 1\n")
        with pytest.raises(GraphFormatError, match="expected 5"):
            read_graph(path)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("4 4\n0 1\n2 1\n0 1\nx y\n", 3, "unordered"),
            ("4 3\n0 1\n1 2\n0 1\n", 4, "duplicate"),
            ("4 3\n0 1\n\n1 2\n", 3, "bad edge line"),
            ("4 2\n0 1 2\n1 2\n", 2, "bad edge line"),
            ("4 2\n0 1\n1 9\n", 3, "out-of-range"),
            ("4 2\n0 1\n-1 2\n", 3, "out-of-range"),
        ],
    )
    def test_first_bad_line_is_named(self, tmp_path, text, line, message):
        path = tmp_path / "g.txt"
        path.write_text(text)
        with pytest.raises(GraphFormatError, match=message) as err:
            read_graph(path)
        assert err.value.line == line

    def test_vectorised_parse_matches_per_line_parse(self, tmp_path):
        par = PlantedPartitionParams(n=200, r=2, pi=(0.5, 0.5), p_tilde=15, q_tilde=2)
        g, _ = sample_ppm(par, 0)
        path = tmp_path / "g.txt"
        write_graph(g, path)
        lines = path.read_text().splitlines()
        assert read_graph(path).edges == frozenset(_edges_by_line(lines[1:], g.n)) == g.edges
        # spellings int() accepts and the vectorised parse does not
        path.write_text("20 2\n0 1_0\n\t1 +2 \n")
        assert read_graph(path).edges == frozenset({(0, 10), (1, 2)})

    @pytest.mark.parametrize("scan", [None, 7])
    def test_written_files_take_the_plain_route(self, tmp_path, monkeypatch, scan):
        def refuse(*_):
            raise AssertionError("a written file was read line by line")

        if scan is not None:  # 7-byte chunks split some CRLF pairs
            monkeypatch.setattr(graph_model, "_SCAN_BYTES", scan)
        monkeypatch.setattr(graph_model, "_read_by_line", refuse)
        path = tmp_path / "g.txt"
        for g in (sample_ppm(PINNED, 3)[0], Graph(5), Graph(4, [(0, 3)])):
            write_graph(g, path)
            assert read_graph(path) == g
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
            assert read_graph(path) == g
            path.write_bytes(path.read_bytes().replace(b" ", b"\t"))
            assert read_graph(path) == g

    @pytest.mark.parametrize("text", [
        "3 2\n0 1\n1 2",  # no newline at the end
        "3 2\r\n0 1\r\n1 2\r\n",
        "3 2\r\n0 1\r1 2\r\n",  # a lone \r ends a line too
        "3 1\r\n0 1\r",
        "3 0",
        "3 0\n\n",
        "3 2\n0 1\n\n1 2\n",
        "3 2\n0 1\n  \n",
        "3 1\n0 1\n\n",
        "3 1\n0 1\x0c\n",
        "3\x0c0\n",
        "3 1\n0\x0c1\n",
        "3 2\n0 1 1 2\n",
        "3 1\n0 1 2\n",
        "",
    ])
    def test_both_routes_agree(self, tmp_path, text):
        # the plain route reads a file only where the per-line route would
        # read the same graph; every other file goes to the per-line route
        path = tmp_path / "g.txt"
        path.write_bytes(text.encode())
        outcomes = []
        for read in (read_graph, graph_model._read_by_line):
            try:
                outcomes.append(read(path))
            except GraphFormatError as exc:
                outcomes.append((str(exc), exc.line))
        assert outcomes[0] == outcomes[1]

    def test_label_parse_errors(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("0 0\n0 1\n")
        with pytest.raises(GraphFormatError, match="duplicate vertex"):
            read_labels(path)
        path.write_text("0 0\n2 1\n")
        with pytest.raises(GraphFormatError, match="cover"):
            read_labels(path)
