import dataclasses
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import helmert

from ppm_sdp.certificate import (
    _compressed_spectrum,
    _partition_objective,
    algebraic_identity_suite,
    build_certificate,
    edge_counts,
    interval_margins,
    verify_certificate,
)
from ppm_sdp.graph_model import (
    Graph,
    PartitionLabels,
    PlantedPartitionParams,
    sample_ppm,
)
from ppm_sdp.harness import labels_agree
from ppm_sdp.sdp import (
    build_unknown_sizes,
    centered_partition_matrix,
    objective_value,
    round_to_partition,
    solve,
)
from ppm_sdp.thresholds import ParameterError, compute_omega


def complete_blocks(*blocks):
    edges = set()
    for block in blocks:
        for u, v in itertools.combinations(block, 2):
            edges.add((min(u, v), max(u, v)))
    n = max(max(b) for b in blocks) + 1
    return Graph(n=n, edges=frozenset(edges))


def complement_basis(truth):
    """Reference orthonormal basis of the orthogonal complement of
    span{1_i - 1_j}: Helmert zero-sum vectors within each community plus the
    normalized vector sum_i (1/s_i) 1_i."""
    n = truth.n
    sizes = truth.sizes()
    cols = []
    for i in range(truth.r):
        vi = truth.members(i)
        if len(vi) > 1:
            for row in helmert(len(vi)):  # (s-1) x s orthonormal rows, each sums to 0
                col = np.zeros(n)
                col[vi] = row
                cols.append(col)
    y = np.zeros(n)
    for i in range(truth.r):
        y[truth.members(i)] = 1.0 / sizes[i]
    cols.append(y / np.linalg.norm(y))
    return np.column_stack(cols)


STRONG = PlantedPartitionParams(n=300, r=3, pi=(0.5, 0.3, 0.2), p_tilde=21, q_tilde=2)
UNEQUAL_PI = [(0.6, 0.4), (0.5, 0.3, 0.2), (0.4, 0.3, 0.2, 0.1)]


@pytest.fixture(scope="module")
def strong_instance():
    g, truth = sample_ppm(STRONG, 0)
    cert = build_certificate(g, truth, STRONG)
    return g, truth, cert


class TestEdgeCounts:
    def test_tables(self):
        g = complete_blocks([0, 1, 2], [3, 4])
        g = Graph(n=5, edges=g.edges | {(2, 3)})
        truth = PartitionLabels(labels=(0, 0, 0, 1, 1), r=2)
        e_vj, e_ij = edge_counts(g, truth)
        assert e_vj[2].tolist() == [2.0, 1.0]
        assert e_ij[0, 1] == 1.0
        assert e_ij[0, 0] == 6.0  # twice the intra edge count

    def test_matches_dense_products(self, strong_instance):
        g, truth, _ = strong_instance
        a = g.adjacency()
        m = truth.indicator_matrix()
        e_vj, e_ij = edge_counts(g, truth)
        assert np.array_equal(e_vj, a @ m)
        assert np.array_equal(e_ij, m.T @ a @ m)


class TestConstruction:
    def test_ideal_two_block_graph(self):
        # complete within, empty between; near-degenerate probabilities
        g = complete_blocks([0, 1, 2, 3], [4, 5, 6, 7])
        truth = PartitionLabels(labels=(0,) * 4 + (1,) * 4, r=2)
        par = SimpleNamespace(p=1 - 1e-9, q=1e-9)
        cert = build_certificate(g, truth, par, omega=0.5)
        # symmetry forces identical gamma' within each community
        for i in range(2):
            assert np.ptp(cert.gamma_prime[truth.members(i)]) == 0.0
        vec = np.array([1.0] * 4 + [-1.0] * 4)
        assert np.max(np.abs(cert.Lambda @ vec)) < 1e-8

    def test_ideal_graph_margin_formula(self):
        g = complete_blocks([0, 1, 2, 3], [4, 5, 6, 7])
        truth = PartitionLabels(labels=(0,) * 4 + (1,) * 4, r=2)
        par = SimpleNamespace(p=1 - 1e-9, q=1e-9)
        cert = build_certificate(g, truth, par, omega=0.5)
        alpha, beta, margin = interval_margins(g, truth, par, omega=0.5)
        # E(v,j)=0 across, E(v,i)=s_i-1 within
        expected = 0.5 * 4 - cert.eps2 - (0.5 * 3 - 3 + cert.eps1)
        assert margin == pytest.approx(expected, abs=1e-12)
        assert np.all(beta - alpha == pytest.approx(expected))

    def test_lambda_assembly_identity(self, strong_instance):
        g, truth, cert = strong_instance
        n = g.n
        assembled = (
            np.diag(cert.nu) + cert.omega * np.ones((n, n)) - g.adjacency() - cert.Gamma
        )
        scale = max(1.0, float(np.max(np.abs(assembled))))
        assert np.max(np.abs(cert.Lambda - assembled)) <= 1e-10 * scale

    def test_community_gamma_sums_equal_c(self, strong_instance):
        g, truth, cert = strong_instance
        lab = truth.as_array()
        for i in range(truth.r):
            assert float(cert.gamma_v[lab == i].sum()) == pytest.approx(
                cert.c, rel=1e-12
            )

    def test_low_omega_flagged_not_raised(self):
        g, truth = sample_ppm(STRONG, 0)
        cert = build_certificate(g, truth, STRONG, omega=STRONG.q / 2)
        report = verify_certificate(g, truth, cert)
        assert not report.verified
        assert not (report.t_positive and report.r_positive)

    def test_single_community_rejected(self):
        g = Graph(n=4, edges=frozenset())
        truth = PartitionLabels(labels=(0, 0, 0, 0), r=1)
        with pytest.raises(ParameterError):
            build_certificate(g, truth, SimpleNamespace(p=0.5, q=0.1), omega=0.3)

    def test_custom_c(self):
        g, truth = sample_ppm(STRONG, 0)
        cert = build_certificate(g, truth, STRONG, c=400.0)
        assert cert.c == 400.0
        lab = truth.as_array()
        for i in range(truth.r):
            assert float(cert.gamma_v[lab == i].sum()) == pytest.approx(400.0)


class TestVerification:
    def test_strong_instance_verifies(self, strong_instance):
        g, truth, cert = strong_instance
        report = verify_certificate(g, truth, cert)
        assert report.verified
        assert report.slackness_gap <= 1e-6 * g.n * math.log(g.n)
        assert report.interval_margin > 0
        assert report.nu_min >= report.nu_target

    def test_corrupt_gamma_entry_fails(self, strong_instance):
        g, truth, cert = strong_instance
        bad = dataclasses.replace(cert, Gamma=cert.Gamma.copy())
        u = int(truth.members(0)[0])
        v = int(truth.members(1)[0])
        bad.Gamma[u, v] = bad.Gamma[v, u] = -1.0
        report = verify_certificate(g, truth, bad)
        assert not report.gamma_off_positive
        assert not report.verified

    def test_corrupt_nu_fails_kernel(self, strong_instance):
        g, truth, cert = strong_instance
        bad_nu = cert.nu.copy()
        bad_nu[0] += 1.0
        n = g.n
        lam = np.diag(bad_nu) + cert.omega * np.ones((n, n)) - g.adjacency() - cert.Gamma
        bad = dataclasses.replace(cert, nu=bad_nu, Lambda=lam)
        report = verify_certificate(g, truth, bad)
        assert not report.kernel_ok
        assert not report.verified

    def test_report_is_jsonable(self, strong_instance):
        import json

        g, truth, cert = strong_instance
        text = json.dumps(verify_certificate(g, truth, cert).to_dict())
        assert "verified" in text


class TestCompressedPsd:
    @pytest.mark.parametrize("pi", UNEQUAL_PI)
    def test_spectrum_matches_helmert_reference(self, pi):
        par = PlantedPartitionParams(n=200, r=len(pi), pi=pi, p_tilde=21, q_tilde=2)
        g, truth = sample_ppm(par, 7)
        cert = build_certificate(g, truth, par)
        # a symmetric perturbation that does not vanish on span{1_i - 1_j},
        # so the compression itself, not the kernel property, is exercised
        noise = np.random.default_rng(0).normal(size=cert.Lambda.shape)
        perturbed = dataclasses.replace(cert, Lambda=cert.Lambda + noise + noise.T)
        basis = complement_basis(truth)
        for c in (cert, perturbed):
            reduced = basis.T @ c.Lambda @ basis
            expected = np.linalg.eigvalsh(0.5 * (reduced + reduced.T))
            scale = max(1.0, float(np.max(np.abs(expected))))
            spectrum = _compressed_spectrum(c.Lambda, truth)
            assert np.max(np.abs(spectrum - expected)) <= 1e-9 * scale
            report = verify_certificate(g, truth, c)
            assert abs(report.psd_margin - expected[0]) <= 1e-9 * scale
            assert report.psd_ok == (expected[0] >= -1e-8 * scale)

    def test_negative_direction_in_complement_flips_psd_ok(self, strong_instance):
        g, truth, cert = strong_instance
        assert verify_certificate(g, truth, cert).psd_ok
        # zero-sum within community 0, hence orthogonal to every 1_i - 1_j
        w = np.zeros(g.n)
        a, b = truth.members(0)[:2]
        w[a], w[b] = 1.0, -1.0
        w /= np.linalg.norm(w)
        t = float(w @ cert.Lambda @ w) + 1.0  # w^T Lambda' w = -1 afterwards
        bad = dataclasses.replace(cert, Lambda=cert.Lambda - t * np.outer(w, w))
        report = verify_certificate(g, truth, bad)
        assert report.psd_margin <= -1.0 + 1e-9
        assert report.kernel_ok
        assert not report.psd_ok
        assert not report.verified

    @pytest.mark.parametrize("pi", UNEQUAL_PI)
    def test_closed_form_primal_matches_dense(self, pi):
        par = PlantedPartitionParams(n=200, r=len(pi), pi=pi, p_tilde=21, q_tilde=2)
        g, truth = sample_ppm(par, 7)
        omega = compute_omega(par.p, par.q)
        x_hat = centered_partition_matrix(truth)
        dense = float(np.sum(g.adjacency() * x_hat)) - omega * float(np.sum(x_hat))
        _, e_ij = edge_counts(g, truth)
        closed = _partition_objective(e_ij, truth.sizes(), omega)
        assert closed == pytest.approx(dense, rel=1e-12, abs=1e-9)


class TestAlgebraicIdentities:
    def test_all_pass_on_strong_instance(self, strong_instance):
        g, truth, cert = strong_instance
        results = algebraic_identity_suite(cert, g, truth)
        failing = [r for r in results if not r[3]]
        assert not failing, failing

    def test_block_row_col_sums_symmetric(self, strong_instance):
        g, truth, cert = strong_instance
        for i in range(truth.r):
            for j in range(i + 1, truth.r):
                row = float(np.sum(cert.R[truth.members(i), j]))
                col = float(np.sum(cert.R[truth.members(j), i]))
                assert row == pytest.approx(col, rel=1e-12)
                assert row == pytest.approx(cert.T[i, j], rel=1e-12)

    def test_gamma_blocks_rank_one(self, strong_instance):
        g, truth, cert = strong_instance
        for i in range(truth.r):
            for j in range(i + 1, truth.r):
                block = cert.Gamma[np.ix_(truth.members(i), truth.members(j))]
                sv = np.linalg.svd(block, compute_uv=False)
                assert sv[1] <= 1e-9 * sv[0]


class TestIntervalMargins:
    def test_weak_parameters_margin_often_negative(self):
        par = PlantedPartitionParams(n=300, r=3, pi=(0.5, 0.3, 0.2), p_tilde=8.0, q_tilde=2.0)
        negative = sum(
            interval_margins(*sample_ppm(par, 1000 + s), par)[2] < 0
            for s in range(20)
        )
        assert negative >= 10

    def test_strong_parameters_margin_mostly_positive(self):
        par = PlantedPartitionParams(
            n=300, r=3, pi=(0.5, 0.3, 0.2), p_tilde=23.77, q_tilde=2.0
        )
        positive = sum(
            interval_margins(*sample_ppm(par, 2000 + s), par)[2] > 0
            for s in range(20)
        )
        assert positive >= 19


class TestAsymptoticSigns:
    def test_alpha_bar_below_zero_below_c_below_beta_bar(self):
        for n in (100, 200, 400):
            par = PlantedPartitionParams(
                n=n, r=3, pi=(0.5, 0.3, 0.2), p_tilde=21, q_tilde=2
            )
            g, truth = sample_ppm(par, 42)
            cert = build_certificate(g, truth, par)
            assert np.all(cert.alpha_bar < 0)
            assert 0 < cert.c
            assert np.all(cert.c < cert.beta_bar)


class TestOptimalityCrossCheck:
    def test_verified_certificate_matches_solver(self, strong_instance):
        g, truth, cert = strong_instance
        report = verify_certificate(g, truth, cert)
        assert report.verified
        sol = solve(build_unknown_sizes(g, truth.r, cert.omega))
        assert sol.converged
        rounding = round_to_partition(sol, truth.r)
        assert rounding.success and labels_agree(rounding.labels, truth)
        x_hat = centered_partition_matrix(truth)
        ideal = objective_value(g, x_hat, omega=cert.omega)
        scale = 1.0 + g.n * math.log(g.n)
        assert abs(sol.objective - ideal) <= 1e-4 * scale
