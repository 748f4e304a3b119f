import dataclasses
import itertools
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import helmert

from ppm_sdp import certificate, lanczos
from ppm_sdp.certificate import (
    CertificateReport,
    _assemble,
    _cholesky_in_place,
    _exact_ends,
    _factors,
    _LowerBlocks,
    build_certificate,
    edge_counts,
    partition_objective,
    verify_certificate,
)
from ppm_sdp.graph_model import (
    AdversarySpec,
    Graph,
    PartitionLabels,
    PlantedPartitionParams,
    apply_adversary,
    monotone_diff,
    sample_ppm,
)
from ppm_sdp.harness import labels_agree
from ppm_sdp.sdp import (
    RHO,
    admm_start,
    build_known_sizes,
    build_unknown_sizes,
    centered_partition_matrix,
    objective_value,
    round_to_partition,
    solve,
)
from ppm_sdp.thresholds import ParameterError, compute_omega


def interval_margins(g, truth, params, omega=None):
    """Per-vertex interval endpoints (alpha_v, beta_v) and the worst margin
    min_v(beta_v - alpha_v); a positive margin is the high-probability event
    linking the certificate to the divergence condition."""
    cert = build_certificate(g, truth, params.p, params.q, omega=omega)
    return cert.alpha_v, cert.beta_v, float(np.min(cert.beta_v - cert.alpha_v))


def algebraic_identity_suite(cert, g, truth, rel_tol=1e-9):
    """Closed-form identities the construction must satisfy numerically.

    Returns (name, lhs, rhs, pass) tuples; each identity is checked to the
    given relative tolerance.
    """
    lab = truth.as_array()
    sizes = truth.sizes().astype(float)
    n, r = g.n, truth.r
    lam = assemble_lambda(g, truth, cert)
    inv_sum = float(np.sum(1.0 / sizes))
    results = []

    def add(name, lhs, rhs, scale=None):
        scale = scale if scale is not None else max(abs(lhs), abs(rhs), 1.0)
        results.append((name, lhs, rhs, abs(lhs - rhs) <= rel_tol * scale))

    y_prime = (1.0 / sizes)[lab]
    y = y_prime / np.linalg.norm(y_prime)
    add("y_quadratic_form", float(y @ lam @ y), cert.c * inv_sum)

    lhs_vec = lam @ y_prime
    rhs_vec = cert.gamma_v * inv_sum
    scale = max(float(np.max(np.abs(rhs_vec))), 1.0)
    worst = float(np.max(np.abs(lhs_vec - rhs_vec)))
    results.append(("lambda_y_prime", worst, 0.0, worst <= rel_tol * scale))

    e_vj, e_ij = edge_counts(g, truth)
    for i in range(r):
        for j in range(i + 1, r):
            row = float(np.sum(cert.R[truth.members(i), j]))
            col = float(np.sum(cert.R[truth.members(j), i]))
            formula = cert.omega * sizes[i] * sizes[j] - e_ij[i, j] - cert.c
            add(f"block_total_rowsum_{i}{j}", row, formula)
            add(f"block_total_colsum_{i}{j}", col, formula)

    for i in range(r):
        add(
            f"community_gamma_sum_{i}",
            float(np.sum(cert.gamma_v[lab == i])),
            cert.c,
        )

    nu_formula = (
        e_vj[np.arange(n), lab] - cert.omega * sizes[lab] + cert.gamma_v
    )
    worst = float(np.max(np.abs(cert.nu - nu_formula)))
    scale = max(float(np.max(np.abs(nu_formula))), 1.0)
    results.append(("nu_identity", worst, 0.0, worst <= rel_tol * scale))

    return results


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


def dense_gamma(truth, cert):
    """Reference dense Gamma: each off-diagonal block is the rank-one matrix
    outer(R[S_i, j], R[S_j, i]) / T_ij, left zero where T_ij <= 0."""
    n = truth.n
    gamma = np.zeros((n, n))
    for i in range(truth.r):
        vi = truth.members(i)
        for j in range(i + 1, truth.r):
            vj = truth.members(j)
            if cert.T[i, j] <= 0:
                continue
            block = np.outer(cert.R[vi, j], cert.R[vj, i]) / cert.T[i, j]
            gamma[np.ix_(vi, vj)] = block
            gamma[np.ix_(vj, vi)] = block.T
    return gamma


def dense_lambda(g, cert, gamma):
    """Reference dense Lambda = diag(nu) + omega J - A - Gamma."""
    lam = cert.omega - g.adjacency() - gamma
    lam.flat[:: g.n + 1] += cert.nu
    return lam


def assemble_lambda(g, truth, cert):
    """Reference dense Lambda, from the dense Gamma."""
    return dense_lambda(g, cert, dense_gamma(truth, cert))


def pack(m):
    """The symmetric matrix m as the verifier's lower-triangle store."""
    lower = _LowerBlocks(len(m))
    for k0, k1, blk in lower.blocks:
        blk[:] = m[k0:k1, :k1]
    return lower


def factors_of(g, nu, m):
    """Factors (L, K) with diag(nu) - A + L K^T = m, as `_factors` gives
    Lambda's: (m + A - diag(nu), I)."""
    return m + g.adjacency() - np.diag(nu), np.eye(g.n)


def uncompressed(g, nu, factors):
    """The store `_assemble` writes from the factors as given: no
    compression and no shift."""
    return _assemble(g, nu, *factors, 0.0)


def store_of(m):
    """The symmetric matrix m as the store `_assemble` writes it, from the
    factors (m, I) on a graph without edges and nu = 0."""
    n = len(m)
    return uncompressed(Graph(n=n, edges=frozenset()), np.zeros(n), (m, np.eye(n)))


def inject(monkeypatch, g, m):
    """Make verification take the symmetric matrix m as its Lambda: the
    factors its operator and its store are built from."""
    monkeypatch.setattr(certificate, "_factors", lambda truth, cert: factors_of(g, cert.nu, m))


def dense_reference_report(g, truth, cert):
    """(factored report, dense reference report).  The reference is the
    dense verifier the factored one replaced: Gamma and Lambda as n x n
    matrices, the PSD margin from the Helmert basis of the complement of
    span{1_i - 1_j}; fields that do not involve Gamma or Lambda are shared."""
    lab = truth.as_array()
    n, r = g.n, truth.r
    report = verify_certificate(g, truth, cert)
    gamma = dense_gamma(truth, cert)
    lam = dense_lambda(g, cert, gamma)
    offblock = lab[:, None] != lab[None, :]
    kernel_residual = 0.0
    for i, j in itertools.combinations(range(r), 2):
        vec = np.zeros(n)
        vec[truth.members(i)] = 1.0
        vec[truth.members(j)] = -1.0
        kernel_residual = max(kernel_residual, float(np.max(np.abs(lam @ vec))))
    basis = complement_basis(truth)
    reduced = basis.T @ (0.5 * (lam + lam.T)) @ basis
    spectrum = np.linalg.eigvalsh(0.5 * (reduced + reduced.T))
    _, e_ij = edge_counts(g, truth)
    primal = partition_objective(e_ij, truth.sizes(), cert.omega)
    dual = float(np.sum(cert.nu)) + float(np.sum(gamma)) / (r - 1)
    ref = dataclasses.replace(
        report,
        gamma_blocks_zero=bool(np.all(gamma[~offblock] == 0.0)),
        gamma_off_min=float(np.min(gamma[offblock])),
        kernel_residual=kernel_residual,
        psd_margin=float(spectrum[0]),
        psd_tol=1e-8 * max(float(np.max(np.abs(spectrum))), 1.0),
        slackness_gap=abs(primal - dual),
    )
    ref.gamma_off_positive = ref.gamma_off_min > 0.0
    ref.kernel_ok = kernel_residual <= 1e-8 * (1.0 + float(np.max(np.abs(lam))))
    ref.psd_ok = ref.psd_margin >= -ref.psd_tol
    ref.slackness_ok = ref.slackness_gap <= 1e-6 * (1.0 + n * math.log(n))
    ref.verified = bool(
        ref.intervals_nonempty
        and ref.nu_ok
        and ref.r_positive
        and ref.t_positive
        and ref.gamma_blocks_zero
        and ref.gamma_off_positive
        and ref.kernel_ok
        and ref.psd_ok
        and ref.slackness_ok
    )
    return report, ref


def swap_two(truth):
    """truth with one vertex of community 0 and one of community 1 swapped."""
    lab = truth.as_array().copy()
    a, b = truth.members(0)[3], truth.members(1)[5]
    lab[a], lab[b] = lab[b], lab[a]
    return PartitionLabels(labels=tuple(lab.tolist()), r=truth.r)


def case_instance(par, seed, labels):
    """A sampled graph with its planted labels, with two of them swapped, or
    with its vertices renumbered at random, so that no community is a
    contiguous range of vertices."""
    g, truth = sample_ppm(par, seed)
    if labels == "swapped":
        truth = swap_two(truth)
    elif labels == "shuffled":
        perm = np.random.default_rng(0).permutation(g.n)  # v becomes perm[v]
        lab = np.empty(g.n, dtype=int)
        lab[perm] = truth.as_array()
        g = Graph(g.n, np.sort(perm[g.pairs], axis=1))
        truth = PartitionLabels(labels=tuple(lab.tolist()), r=truth.r)
    return g, truth


STRONG = PlantedPartitionParams(n=300, r=3, pi=(0.5, 0.3, 0.2), p_tilde=21, q_tilde=2)
UNEQUAL_PI = [(0.6, 0.4), (0.5, 0.3, 0.2), (0.4, 0.3, 0.2, 0.1)]
PI_8 = (0.2, 0.16, 0.14, 0.12, 0.11, 0.1, 0.09, 0.08)


@pytest.fixture(scope="module")
def strong_instance():
    g, truth = sample_ppm(STRONG, 0)
    cert = build_certificate(g, truth, STRONG.p, STRONG.q)
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
        cert = build_certificate(g, truth, par.p, par.q, omega=0.5)
        # symmetry forces identical gamma' within each community
        for i in range(2):
            assert np.ptp(cert.gamma_prime[truth.members(i)]) == 0.0
        vec = np.array([1.0] * 4 + [-1.0] * 4)
        assert np.max(np.abs(assemble_lambda(g, truth, cert) @ vec)) < 1e-8

    def test_ideal_graph_margin_formula(self):
        g = complete_blocks([0, 1, 2, 3], [4, 5, 6, 7])
        truth = PartitionLabels(labels=(0,) * 4 + (1,) * 4, r=2)
        par = SimpleNamespace(p=1 - 1e-9, q=1e-9)
        cert = build_certificate(g, truth, par.p, par.q, omega=0.5)
        alpha, beta, margin = interval_margins(g, truth, par, omega=0.5)
        # E(v,j)=0 across, E(v,i)=s_i-1 within
        expected = 0.5 * 4 - cert.eps2 - (0.5 * 3 - 3 + cert.eps1)
        assert margin == pytest.approx(expected, abs=1e-12)
        assert np.all(beta - alpha == pytest.approx(expected))

    def test_lambda_assembly_identity(self, monkeypatch):
        # the strong instance and r = 8 on shuffled vertices, so that no
        # community is a contiguous range; each also at omega = q/2, where
        # the construction fails: every T_ij <= 0 at r = 3, some at r = 8
        default = certificate._CHOLESKY_BLOCK
        for (pi, labels), low_omega in itertools.product(
            [(STRONG.pi, "planted"), (PI_8, "shuffled")], (False, True)
        ):
            par = dataclasses.replace(STRONG, r=len(pi), pi=pi)
            g, truth = case_instance(par, 0, labels)
            cert = build_certificate(g, truth, par.p, par.q, omega=par.q / 2 if low_omega else None)
            assert np.all(cert.T[np.triu_indices(truth.r, 1)] > 0) != low_omega
            expected = dense_lambda(g, cert, dense_gamma(truth, cert))
            assert np.array_equal(expected, expected.T)
            # every row block holds its rows of the lower triangle and its
            # whole diagonal block; blocks of 31 rows agree too.  A product
            # of the factors sums omega - Gamma_uv in its own order, so the
            # store agrees with the entry formula to rounding
            bound = 1e-12 * np.abs(expected).max()
            for block in (default, 31):
                monkeypatch.setattr(certificate, "_CHOLESKY_BLOCK", block)
                lam = uncompressed(g, cert.nu, _factors(truth, cert))
                assert len(lam.blocks) == math.ceil(g.n / certificate._CHOLESKY_BLOCK)
                for k0, k1, blk in lam.blocks:
                    assert np.abs(blk - expected[k0:k1, :k1]).max() <= bound

    def test_admm_start_is_the_dense_dual(self, monkeypatch):
        # the instances of the assembly identity, T_ij <= 0 blocks included;
        # the start is formed whatever the signs, so that those blocks show
        monkeypatch.setattr(certificate, "sign_minima", lambda *_: (1.0, 1.0))
        for (pi, labels), low_omega in itertools.product(
            [(STRONG.pi, "planted"), (PI_8, "shuffled")], (False, True)
        ):
            par = dataclasses.replace(STRONG, r=len(pi), pi=pi)
            g, truth = case_instance(par, 0, labels)
            cert = build_certificate(g, truth, par.p, par.q, omega=par.q / 2 if low_omega else None)
            # U0 = (C + Lambda) / rho: diag(nu) - Gamma, plus omega J with sizes
            dual = np.diag(cert.nu) - dense_gamma(truth, cert)
            for prob, omega in (
                (build_unknown_sizes(g, truth.r, cert.omega), 0.0),
                (build_known_sizes(g, truth.sizes().tolist()), cert.omega),
            ):
                _, u0, _ = admm_start(prob, (truth, cert))
                expected = (dual + omega) / RHO
                assert np.abs(u0 - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_community_gamma_sums_equal_c(self, strong_instance):
        g, truth, cert = strong_instance
        lab = truth.as_array()
        for i in range(truth.r):
            assert float(cert.gamma_v[lab == i].sum()) == pytest.approx(
                cert.c, rel=1e-12
            )

    def test_low_omega_flagged_not_raised(self):
        g, truth = sample_ppm(STRONG, 0)
        cert = build_certificate(g, truth, STRONG.p, STRONG.q, omega=STRONG.q / 2)
        report = verify_certificate(g, truth, cert)
        assert not report.verified
        assert not (report.t_positive and report.r_positive)

    def test_single_community_rejected(self):
        g = Graph(n=4, edges=frozenset())
        truth = PartitionLabels(labels=(0, 0, 0, 0), r=1)
        with pytest.raises(ParameterError):
            build_certificate(g, truth, 0.5, 0.1, omega=0.3)


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
        # a negative row sum for u toward community 1 makes Gamma[u, S_1] negative
        bad = dataclasses.replace(cert, R=cert.R.copy())
        u = int(truth.members(0)[0])
        bad.R[u, 1] = -1.0
        report = verify_certificate(g, truth, bad)
        assert not report.gamma_off_positive
        assert not report.verified

    def test_empty_interval_fails(self, strong_instance):
        g, truth, cert = strong_instance
        alpha = cert.alpha_v.copy()
        alpha[0] = cert.beta_v[0] + 1.0  # alpha_v > beta_v for one vertex
        report = verify_certificate(g, truth, dataclasses.replace(cert, alpha_v=alpha))
        assert not report.intervals_nonempty
        assert not report.verified

    def test_corrupt_nu_fails_kernel(self, strong_instance):
        g, truth, cert = strong_instance
        bad_nu = cert.nu.copy()
        bad_nu[0] += 1.0
        bad = dataclasses.replace(cert, nu=bad_nu)
        report = verify_certificate(g, truth, bad)
        assert not report.kernel_ok
        assert not report.verified

    def test_report_is_jsonable(self, strong_instance):
        g, truth, cert = strong_instance
        text = json.dumps(verify_certificate(g, truth, cert).to_dict())
        assert "verified" in text

    @pytest.mark.parametrize("case", ["planted", "swapped", "half-q omega"])
    def test_report_is_plain_data(self, case):
        # the half-q omega leaves blocks with T_ij <= 0
        g, truth = sample_ppm(STRONG, 0)
        truth = swap_two(truth) if case == "swapped" else truth
        omega = STRONG.q / 2 if case == "half-q omega" else None
        report = verify_certificate(g, truth, build_certificate(g, truth, STRONG.p, STRONG.q, omega=omega))
        d = report.to_dict()
        assert list(d) == [f.name for f in dataclasses.fields(CertificateReport)]
        assert d == report.__dict__ and "construction_ok" not in d
        assert {type(v) for v in d.values()} <= {bool, float}
        assert json.loads(json.dumps(d)) == d
        assert (d["verified"], d["t_positive"]) == (case == "planted", case != "half-q omega")

    @pytest.mark.parametrize("size", [299, 301])
    def test_labels_of_another_n_raise(self, strong_instance, size):
        # a shorter label tuple once raised IndexError here
        g, truth, cert = strong_instance
        other = PartitionLabels(labels=(truth.labels + truth.labels)[:size], r=truth.r)
        with pytest.raises(ParameterError, match="disagree on n"):
            verify_certificate(g, other, cert)
        with pytest.raises(ParameterError, match="disagree on n"):
            build_certificate(g, other, STRONG.p, STRONG.q)

    @pytest.mark.parametrize("case", ["r=2", "r=1", "n=301"])
    def test_certificate_of_other_labels_raises(self, strong_instance, case):
        # a certificate built for r = 3 labels once raised IndexError on
        # r = 2 or r = 1 labels of the same n
        g, truth, cert = strong_instance
        if case == "n=301":
            g = Graph(301, g.pairs)
            other = PartitionLabels(labels=truth.labels + (0,), r=truth.r)
        else:
            r = int(case[-1])
            other = PartitionLabels(labels=tuple(min(c, r - 1) for c in truth.labels), r=r)
        with pytest.raises(ParameterError, match="disagree on n or r"):
            verify_certificate(g, other, cert)

    def test_one_community_raises(self):
        # a certificate cut to r = 1 once raised numpy's ValueError from an
        # empty reduction in sign_minima
        par = PlantedPartitionParams(n=60, r=2, pi=(0.5, 0.5), p_tilde=8, q_tilde=1)
        g, truth = sample_ppm(par, 1)
        cert = build_certificate(g, truth, par.p, par.q)
        one = PartitionLabels(labels=(0,) * g.n, r=1)
        cut = dataclasses.replace(cert, R=cert.R[:, :1], T=cert.T[:1, :1])
        with pytest.raises(ParameterError, match="at least two communities"):
            verify_certificate(g, one, cut)


class TestCompressedPsd:
    @pytest.mark.parametrize("pi", UNEQUAL_PI)
    def test_spectrum_matches_helmert_reference(self, pi, monkeypatch):
        par = PlantedPartitionParams(n=200, r=len(pi), pi=pi, p_tilde=21, q_tilde=2)
        g, truth = sample_ppm(par, 7)
        cert = build_certificate(g, truth, par.p, par.q)
        lam = assemble_lambda(g, truth, cert)
        # a symmetric perturbation that does not vanish on span{1_i - 1_j},
        # so the compression itself, not the kernel property, is exercised
        noise = np.random.default_rng(0).normal(size=lam.shape)
        basis = complement_basis(truth)
        u = certificate.span_basis(truth)
        for m in (lam, lam + noise + noise.T):
            reduced = basis.T @ m @ basis
            expected = np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[[0, -1]]
            scale = max(1.0, float(np.max(np.abs(expected))))
            # the exact route's ends hold for any shift s between them
            (lo, hi), _ = certificate._margin_ritz(m.__matmul__, g.n, u)
            for s in (lo, hi, 0.5 * (lo + hi)):
                factors = certificate._compressed(*factors_of(g, cert.nu, m), u, m @ u, s)
                ends = _exact_ends(g, cert.nu, *factors)
                assert np.max(np.abs(np.subtract(ends, expected))) <= 1e-9 * scale
            inject(monkeypatch, g, m)
            report = verify_certificate(g, truth, cert)
            assert abs(report.psd_margin - expected[0]) <= 1e-9 * scale
            assert report.psd_ok == (expected[0] >= -1e-8 * scale)

    def test_negative_direction_in_complement_flips_psd_ok(self, strong_instance, monkeypatch):
        g, truth, cert = strong_instance
        assert verify_certificate(g, truth, cert).psd_ok
        # zero-sum within community 0, hence orthogonal to every 1_i - 1_j
        w = np.zeros(g.n)
        a, b = truth.members(0)[:2]
        w[a], w[b] = 1.0, -1.0
        w /= np.linalg.norm(w)
        lam = assemble_lambda(g, truth, cert)
        t = float(w @ lam @ w) + 1.0  # w^T Lambda' w = -1 afterwards
        lam -= t * np.outer(w, w)
        inject(monkeypatch, g, lam)
        report = verify_certificate(g, truth, cert)
        assert report.psd_margin <= -1.0 + 1e-9
        assert report.kernel_ok
        assert not report.psd_ok
        assert not report.verified

    def test_kernel_check_scales_by_the_diagonal(self, strong_instance, monkeypatch):
        # a large term outside span{1_i} leaves the kernel residual alone
        # but raises max |Lambda| far above max |nu + omega|; a residual
        # between the two scales fails the check
        g, truth, cert = strong_instance
        diagonal = float(np.max(np.abs(cert.nu + cert.omega)))
        x = np.zeros(g.n)
        for i in range(truth.r):  # +-1 alternating, zero-sum within each community
            x[truth.members(i)] = np.resize([1.0, -1.0], int(truth.sizes()[i]))
        lam = assemble_lambda(g, truth, cert) + 1e4 * diagonal * np.outer(x, x)
        a, b = truth.members(0)[0], truth.members(1)[0]
        low, high = 1e-8 * (1.0 + diagonal), 1e-8 * (1.0 + float(np.abs(lam).max()))
        lam[a, b] += math.sqrt(low * high)
        lam[b, a] += math.sqrt(low * high)
        inject(monkeypatch, g, lam)
        report = verify_certificate(g, truth, cert)
        assert low < report.kernel_residual < high
        assert not report.kernel_ok and report.psd_ok and not report.verified

    @pytest.mark.parametrize("pi", UNEQUAL_PI)
    def test_closed_form_primal_matches_dense(self, pi):
        par = PlantedPartitionParams(n=200, r=len(pi), pi=pi, p_tilde=21, q_tilde=2)
        g, truth = sample_ppm(par, 7)
        omega = compute_omega(par.p, par.q)
        x_hat = centered_partition_matrix(truth)
        dense = float(np.sum(g.adjacency() * x_hat)) - omega * float(np.sum(x_hat))
        _, e_ij = edge_counts(g, truth)
        closed = partition_objective(e_ij, truth.sizes(), omega)
        assert closed == pytest.approx(dense, rel=1e-12, abs=1e-9)


class TestDenseReference:
    """The factored verifier against the dense Gamma/Lambda one it replaced."""

    # r = 8 at n <= 300 is past the construction's reach: its shuffled
    # planted labels do not verify either
    CASES = [(pi, labels) for pi in UNEQUAL_PI for labels in ("planted", "swapped")]
    CASES.append((PI_8, "shuffled"))

    @staticmethod
    def assert_same_verdicts(g, truth, cert):
        report, ref = dense_reference_report(g, truth, cert)
        for name, value in ref.__dict__.items():
            if isinstance(value, bool):
                assert getattr(report, name) == value, name
        assert report.gamma_off_min == ref.gamma_off_min
        psd_scale = max(1.0, ref.psd_tol / 1e-8)
        assert abs(report.psd_margin - ref.psd_margin) <= 1e-9 * psd_scale
        assert abs(report.psd_tol - ref.psd_tol) <= 1e-9 * ref.psd_tol
        slack_scale = 1.0 + g.n * math.log(g.n)
        assert abs(report.slackness_gap - ref.slackness_gap) <= 1e-9 * slack_scale
        return report

    @pytest.mark.parametrize("chunk", [None, 997])
    @pytest.mark.parametrize("pi, labels", CASES)
    def test_verdicts_match(self, pi, labels, chunk, monkeypatch):
        if chunk is not None:  # 31-row blocks: the store spans several row blocks
            monkeypatch.setattr(certificate, "_CHOLESKY_BLOCK", 31)
        par = PlantedPartitionParams(n=200, r=len(pi), pi=pi, p_tilde=21, q_tilde=2)
        g, truth = case_instance(par, 7, labels)
        cert = build_certificate(g, truth, par.p, par.q)
        report = self.assert_same_verdicts(g, truth, cert)
        assert report.verified == (labels == "planted")

    def test_failed_construction_matches(self):
        par = PlantedPartitionParams(n=200, r=3, pi=(0.5, 0.3, 0.2), p_tilde=21, q_tilde=2)
        g, truth = sample_ppm(par, 7)
        cert = build_certificate(g, truth, par.p, par.q, omega=par.q / 2)
        report = self.assert_same_verdicts(g, truth, cert)
        assert not report.t_positive
        assert report.gamma_off_min <= 0.0 and not report.verified


class TestLowerStore:
    """Verification keeps Lambda only as its lower triangle, in row blocks,
    written from the neighbour index without the dense adjacency."""

    @pytest.mark.parametrize("pi, labels", TestDenseReference.CASES)
    def test_verifies_without_the_dense_adjacency(self, pi, labels, monkeypatch):
        par = PlantedPartitionParams(n=300, r=len(pi), pi=pi, p_tilde=21, q_tilde=2)
        g, truth = case_instance(par, 7, labels)
        cert = build_certificate(g, truth, par.p, par.q)

        def refuse(self):
            raise AssertionError("verification built the dense adjacency")

        monkeypatch.setattr(Graph, "adjacency", refuse)
        report = verify_certificate(g, truth, cert)
        assert report.verified == (labels == "planted")
        assert (report.psd_margin > report.psd_tol) == (labels == "planted")

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300])
    def test_products_and_norms_match_dense(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, n))
        m = x + x.T
        lower = store_of(m)
        h = certificate._CHOLESKY_BLOCK
        sizes = [(k1 - k0) * k1 for k0 in range(0, n, h) for k1 in [min(k0 + h, n)]]
        assert sum(blk.size for _, _, blk in lower.blocks) == sum(sizes)
        assert np.array_equal(np.tril(lower.lower_dense()), np.tril(m))

    @pytest.mark.parametrize("block", [None, 31])
    @pytest.mark.parametrize("n", [2, 127, 128, 129, 300])
    def test_one_pass_writes_the_compressed_shifted_matrix(self, n, block, monkeypatch):
        # the first and the last vertex are isolated, and edges cross
        # row-block boundaries
        if block is not None:
            monkeypatch.setattr(certificate, "_CHOLESKY_BLOCK", block)
        h = certificate._CHOLESKY_BLOCK
        rng = np.random.default_rng(n)
        r = min(n, 3)
        truth = PartitionLabels(labels=tuple(rng.permutation(np.arange(n) % r).tolist()), r=r)
        pairs = np.sort(rng.integers(1, max(n - 1, 2), size=(0 if n < 4 else 4 * n, 2)), axis=1)
        g = Graph(n, pairs[pairs[:, 0] < pairs[:, 1]])
        degree = np.bincount(g.pairs.ravel(), minlength=n)
        assert degree[0] == degree[-1] == 0
        assert np.any(g.pairs[:, 0] // h < g.pairs[:, 1] // h) == (n - 2 >= h)
        t = rng.uniform(1.0, 5.0, size=(r, r))
        t += t.T
        t[0, -1] = t[-1, 0] = -1.0  # one block pair without Gamma
        cert = SimpleNamespace(
            omega=0.3, nu=rng.normal(size=n), R=rng.uniform(0.0, 2.0, size=(n, r)), T=t
        )
        lam = dense_lambda(g, cert, dense_gamma(truth, cert))
        u = certificate.span_basis(truth)
        p = np.eye(n) - u @ u.T
        s, shift = 2.5, 0.75
        expected = p @ lam @ p + s * (u @ u.T) - shift * np.eye(n)
        factors = certificate._compressed(*_factors(truth, cert), u, lam @ u, s)
        lower = _assemble(g, cert.nu, *factors, shift)
        error = np.abs(np.tril(lower.lower_dense()) - np.tril(expected)).max()
        assert error <= 1e-12 * np.abs(expected).max()


class TestLambdaOperator:
    """The Lanczos operator applies Lambda from the edge pairs, nu, omega and
    the factored Gamma, without the store."""

    @pytest.mark.parametrize("case", ["planted", "swapped", "half-q omega", "one T <= 0"])
    @pytest.mark.parametrize("pi", UNEQUAL_PI)
    def test_matches_the_store_and_the_dense_reference(self, pi, case):
        par = PlantedPartitionParams(n=200, r=len(pi), pi=pi, p_tilde=21, q_tilde=2)
        g, truth = case_instance(par, 7, "swapped" if case == "swapped" else "planted")
        cert = build_certificate(g, truth, par.p, par.q, omega=par.q / 2 if case == "half-q omega" else None)
        if case == "one T <= 0":  # only the block pair (0, 1) loses its Gamma
            t = cert.T.copy()
            t[0, 1] = t[1, 0] = -t[0, 1]
            cert = dataclasses.replace(cert, T=t)
        t_off = cert.T[np.triu_indices(truth.r, 1)]
        assert np.any(t_off <= 0) == (case in ("half-q omega", "one T <= 0"))
        factors = _factors(truth, cert)
        op = certificate._lambda_operator(g, cert.nu, *factors)
        dense = assemble_lambda(g, truth, cert)
        stored = np.tril(uncompressed(g, cert.nu, factors).lower_dense())
        stored += np.tril(stored, -1).T  # the symmetric matrix the store holds
        scale = float(np.abs(dense).sum(axis=1).max())
        for x in (np.random.default_rng(1).normal(size=(g.n, k)) for k in (1, 3)):
            y = op(x)
            assert y.shape == x.shape
            bound = 1e-12 * scale * float(np.abs(x).max())
            assert np.max(np.abs(y - dense @ x)) <= bound
            assert np.max(np.abs(y - stored @ x)) <= bound


class TestPsdProof:
    """The PSD margin is a Lanczos Ritz value, proven from below by one
    Cholesky factorization; the exact eigvalsh route is the fallback."""

    @pytest.mark.parametrize("chunk", [None, 997])
    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 700])
    def test_cholesky_matches_numpy(self, n, chunk, monkeypatch):
        if chunk is not None:  # 31-row blocks: many panels, a short last one
            monkeypatch.setattr(certificate, "_CHOLESKY_BLOCK", 31)
        x = np.random.default_rng(n).normal(size=(n, n))
        a = x @ x.T / n + np.eye(n)
        expected = np.linalg.cholesky(a)
        a[np.triu_indices(n, 1)] = np.nan  # only the lower triangle is read
        a = pack(a)
        assert _cholesky_in_place(a) is a
        scale = float(np.max(np.abs(expected)))
        assert np.max(np.abs(np.tril(a.lower_dense()) - expected)) <= 1e-12 * scale

    def test_cholesky_rejects_a_negative_eigenvalue(self):
        n = 300
        q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(n, n)))
        ev = np.linspace(1.0, 10.0, n)
        ev[n // 2] = -1e-6 * 10.0  # 1e-6 ||M|| below zero
        a = (q * ev) @ q.T
        with pytest.raises(np.linalg.LinAlgError):
            _cholesky_in_place(pack(0.5 * (a + a.T)))

    @staticmethod
    def count_fallbacks(monkeypatch):
        calls = []
        exact = certificate._exact_ends
        monkeypatch.setattr(certificate, "_exact_ends", lambda *a: calls.append(1) or exact(*a))
        return calls

    @pytest.mark.parametrize("labels", ["planted", "swapped"])
    def test_proof_needs_no_eigvalsh(self, labels, monkeypatch):
        par = PlantedPartitionParams(n=200, r=3, pi=(0.5, 0.3, 0.2), p_tilde=21, q_tilde=2)
        g, truth = sample_ppm(par, 7)
        if labels == "swapped":
            truth = swap_two(truth)
        calls = self.count_fallbacks(monkeypatch)
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        report = verify_certificate(g, truth, build_certificate(g, truth, par.p, par.q))
        assert not calls
        assert report.verified == (labels == "planted")

    def test_one_column_lanczos_runs_no_svd(self, monkeypatch):
        # the margin's Lanczos has one column per step: the next block is
        # the remainder over its norm
        n = 200
        q, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(n, n)))
        ev = np.linspace(-1.0, 3.0, n)
        m = (q * ev) @ q.T
        par = PlantedPartitionParams(n=200, r=3, pi=(0.5, 0.3, 0.2), p_tilde=21, q_tilde=2)
        g, truth = sample_ppm(par, 7)
        certs = [(t, build_certificate(g, t, par.p, par.q)) for t in (truth, swap_two(truth))]
        monkeypatch.setattr(np.linalg, "svd", None)
        theta, _ = lanczos.extreme_pairs(lambda x: m @ x, n, 1, [0, -1])
        assert np.max(np.abs(theta - ev[[0, -1]])) <= 1e-9
        verdicts = [verify_certificate(g, t, cert).verified for t, cert in certs]
        assert verdicts == [True, False]

    @pytest.mark.parametrize("labels", ["planted", "swapped"])
    def test_margin_lanczos_returns_ritz_pairs(self, labels, monkeypatch):
        # the certificate's own call: one column, deflated by span{1_i - 1_j}
        par = PlantedPartitionParams(n=300, r=3, pi=(0.5, 0.3, 0.2), p_tilde=21, q_tilde=2)
        g, truth = case_instance(par, 7, labels)
        cert = build_certificate(g, truth, par.p, par.q)
        calls, ritz = [], lanczos.extreme_pairs

        def record(*args, **kwargs):
            calls.append((args, kwargs, ritz(*args, **kwargs)))
            return calls[-1][2]

        monkeypatch.setattr(lanczos, "extreme_pairs", record)
        u = certificate.span_basis(truth)
        op = certificate._lambda_operator(g, cert.nu, *_factors(truth, cert))
        ends, _ = certificate._margin_ritz(op, g.n, u)
        [((_, n, block, wanted), kwargs, (theta, v))] = calls
        assert (n, block, wanted) == (g.n, 1, [0, -1])
        assert kwargs["deflate"] is u
        assert ends == tuple(theta.tolist())
        lam = assemble_lambda(g, truth, cert)
        assert v.shape == (g.n, 2)
        assert np.allclose(v.T @ v, np.eye(2), atol=1e-12, rtol=0)
        assert np.max(np.abs(u.T @ v)) <= 1e-12
        residual = np.linalg.norm(lam @ v - v * theta, axis=0)
        assert np.all(residual <= lanczos.RTOL * np.max(np.abs(theta)))

    @pytest.mark.parametrize("labels", ["planted", "swapped"])
    def test_operator_products_come_before_the_store(self, labels, monkeypatch):
        # Lambda is applied only by the operator: the kernel product and
        # Lambda U, like the Lanczos steps, are made before the store exists
        par = PlantedPartitionParams(n=300, r=3, pi=(0.5, 0.3, 0.2), p_tilde=21, q_tilde=2)
        g, truth = case_instance(par, 7, labels)
        cert = build_certificate(g, truth, par.p, par.q)
        events, operator, assemble = [], certificate._lambda_operator, _assemble

        def record_operator(*args):
            op = operator(*args)
            return lambda x: events.append(x.shape) or op(x)

        monkeypatch.setattr(certificate, "_lambda_operator", record_operator)
        monkeypatch.setattr(
            certificate, "_assemble", lambda *a: events.append("store") or assemble(*a)
        )
        calls = self.count_fallbacks(monkeypatch)
        report = verify_certificate(g, truth, cert)
        assert not calls and report.verified == (labels == "planted")
        # a witness vector refutes the swapped labels: they need no store
        assert events.count("store") == (labels == "planted")
        products = [e for e in events if e != "store"]
        assert events[: len(products)] == products
        assert set(products) == {(g.n, 1), (g.n, truth.r), (g.n, truth.r - 1)}

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("labels", ["planted", "swapped"])
    def test_certify_large_needs_no_eigvalsh(self, labels, seed, monkeypatch):
        # the benchmark's certify-large pair: Lanczos must converge tightly
        # enough that the Cholesky proof holds without the dense fallback
        par = PlantedPartitionParams(n=2000, r=3, pi=(0.5, 0.3, 0.2), p_tilde=21, q_tilde=2)
        g, truth = sample_ppm(par, seed)
        if labels == "swapped":
            truth = swap_two(truth)
        cert = build_certificate(g, truth, par.p, par.q)
        calls = self.count_fallbacks(monkeypatch)
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        report = verify_certificate(g, truth, cert)
        assert not calls
        assert report.verified == report.unique_optimum == (labels == "planted")

    @pytest.mark.parametrize("labels", ["planted", "swapped"])
    def test_missed_bottom_falls_back_to_eigvalsh(self, labels, monkeypatch):
        par = PlantedPartitionParams(n=200, r=3, pi=(0.5, 0.3, 0.2), p_tilde=21, q_tilde=2)
        g, truth = sample_ppm(par, 7)
        if labels == "swapped":
            truth = swap_two(truth)
        ritz = lanczos.extreme_pairs

        def missed(*args, **kwargs):  # a Ritz value 1.0 above the least eigenvalue
            theta, v = ritz(*args, **kwargs)
            return theta + [1.0, 0.0], v

        monkeypatch.setattr(lanczos, "extreme_pairs", missed)
        calls = self.count_fallbacks(monkeypatch)
        cert = build_certificate(g, truth, par.p, par.q)
        TestDenseReference.assert_same_verdicts(g, truth, cert)
        # the swapped labels' witness takes its quotient from the Ritz
        # vector, not the raised value, and needs no proof to fall back from
        assert calls == ([1] if labels == "planted" else [])

    @pytest.mark.parametrize("n, seed", [
        (300, 1), (300, 2), (300, 7),
        pytest.param(2000, 1, marks=pytest.mark.slow), pytest.param(2000, 2, marks=pytest.mark.slow),
    ])
    def test_swapped_labels_are_refuted_by_a_witness(self, n, seed, monkeypatch):
        # the least Ritz vector's quotient is below -psd_tol, and the kernel
        # check passes against max |nu + omega|: no store, proof or eigvalsh
        par = PlantedPartitionParams(n=n, r=3, pi=(0.5, 0.3, 0.2), p_tilde=21, q_tilde=2)
        g, truth = case_instance(par, seed, "swapped")
        cert = build_certificate(g, truth, par.p, par.q)
        for name in ("_assemble", "_cholesky_in_place", "_exact_ends"):
            monkeypatch.setattr(certificate, name, None)
        report = TestDenseReference.assert_same_verdicts(g, truth, cert)
        assert report.kernel_ok and not report.psd_ok and not report.verified
        assert report.psd_margin < -report.psd_tol

    def test_a_failed_kernel_check_writes_no_store(self, monkeypatch):
        # nu corrupted on labels a witness refutes: both checks fail, and
        # the kernel check needs no largest entry of Lambda from the store
        par = PlantedPartitionParams(n=300, r=3, pi=(0.5, 0.3, 0.2), p_tilde=21, q_tilde=2)
        g, truth = case_instance(par, 5, "swapped")
        cert = build_certificate(g, truth, par.p, par.q)
        nu = cert.nu.copy()
        nu[0] += 1.0

        def refuse(*_):
            raise AssertionError("the store was written")

        monkeypatch.setattr(certificate, "_assemble", refuse)
        report = verify_certificate(g, truth, dataclasses.replace(cert, nu=nu))
        assert not report.kernel_ok and not report.psd_ok and not report.verified

    def test_a_quotient_above_minus_tol_takes_the_proof_route(self, monkeypatch):
        # Lambda shifted on the complement so that its least compressed
        # eigenvalue is -0.3 psd_tol: negative, but within tolerance, so the
        # witness does not apply and one Cholesky proves the margin
        par = PlantedPartitionParams(n=200, r=3, pi=(0.5, 0.3, 0.2), p_tilde=21, q_tilde=2)
        g, truth = sample_ppm(par, 7)
        cert = build_certificate(g, truth, par.p, par.q)
        lam = assemble_lambda(g, truth, cert)
        basis = complement_basis(truth)
        lo, hi = np.linalg.eigvalsh(basis.T @ lam @ basis)[[0, -1]]
        shift = lo + 0.3e-8 * (hi - lo)
        m = lam - shift * (basis @ basis.T)
        m = 0.5 * (m + m.T)
        calls = self.count_fallbacks(monkeypatch)
        factored, cholesky = [], _cholesky_in_place
        monkeypatch.setattr(
            certificate, "_cholesky_in_place", lambda a: factored.append(1) or cholesky(a)
        )
        inject(monkeypatch, g, m)
        report = verify_certificate(g, truth, cert)
        assert factored == [1] and not calls
        assert -report.psd_tol < report.psd_margin < 0.0
        assert report.psd_ok and report.verified and not report.unique_optimum

    @pytest.mark.parametrize(
        "n, pi", [(4, (0.5, 0.5)), (6, (0.5, 0.5)), (5, (0.4, 0.4, 0.2))]
    )
    def test_small_dimensions_match_helmert_reference(self, n, pi, monkeypatch):
        # the complement has n - r + 1 dimensions: Lanczos runs to the full
        # dimension and stops there
        par = PlantedPartitionParams(n=n, r=len(pi), pi=pi, p_tilde=2.5, q_tilde=1)
        g, truth = sample_ppm(par, 7)
        cert = build_certificate(g, truth, par.p, par.q)
        lam = assemble_lambda(g, truth, cert)
        noise = np.random.default_rng(0).normal(size=lam.shape)
        basis = complement_basis(truth)
        calls = self.count_fallbacks(monkeypatch)
        for m in (lam, lam + noise + noise.T):
            reduced = basis.T @ m @ basis
            expected = np.linalg.eigvalsh(0.5 * (reduced + reduced.T))
            scale = max(1.0, float(np.max(np.abs(expected))))
            inject(monkeypatch, g, m)
            report = verify_certificate(g, truth, cert)
            assert abs(report.psd_margin - expected[0]) <= 1e-9 * scale
            assert abs(report.psd_tol - 1e-8 * scale) <= 1e-9 * 1e-8 * scale
            assert report.psd_ok == (expected[0] >= -1e-8 * scale)
        assert not calls


def peak_units(fn, n):
    """Peak traced allocation of fn(), in units of one dense n x n float64
    matrix (8 n^2 bytes)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / (8.0 * n * n)
    finally:
        tracemalloc.stop()


class TestMemory:
    """Nothing is n x n.  Verification holds Lambda as its lower triangle in
    row blocks, n (n + 128) / 2 doubles (0.56 of a dense matrix at n = 1000),
    written once as the compressed, shifted matrix its PSD check factors in
    place."""

    def test_build_and_verify_peaks(self):
        par = PlantedPartitionParams(n=1000, r=3, pi=(0.5, 0.3, 0.2), p_tilde=21, q_tilde=2)
        g, truth = sample_ppm(par, 3)
        warm = dataclasses.replace(par, n=100)  # first calls import lazily
        verify_certificate(*sample_ppm(warm, 3), build_certificate(*sample_ppm(warm, 3), warm.p, warm.q))
        assert peak_units(lambda: build_certificate(g, truth, par.p, par.q), g.n) <= 0.5
        cert = build_certificate(g, truth, par.p, par.q)
        # measured 0.686: the store plus the Lanczos basis; bound 20 % above
        assert peak_units(lambda: verify_certificate(g, truth, cert), g.n) <= 0.82


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
        # off the diagonal blocks, Gamma = omega J - A - Lambda
        gamma = cert.omega - g.adjacency() - assemble_lambda(g, truth, cert)
        for i in range(truth.r):
            for j in range(i + 1, truth.r):
                block = gamma[np.ix_(truth.members(i), truth.members(j))]
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
            cert = build_certificate(g, truth, par.p, par.q)
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


class TestTransport:
    """A certificate proven on G carries over to a monotone change G' of G
    (the argument of `harness._paired_trial`): with nu' = nu + deg_add and
    Gamma' = Gamma + E_rem, from `monotone_diff`, Lambda' = Lambda + L_add."""

    ADVERSARIES = [
        AdversarySpec(kind="random_monotone", params={"delta_add": 0.3, "delta_rem": 0.3}),
        AdversarySpec(kind="subcommunity_plant", params={"size": 20, "density": 1.0}),
        AdversarySpec(kind="hub_plant", params={"hubs": 5, "degree": 40}),
    ]

    @pytest.mark.parametrize("spec", ADVERSARIES, ids=lambda spec: spec.kind)
    @pytest.mark.parametrize("n, seed", [(200, 1), (300, 2)])
    def test_dense_lambda_on_the_changed_graph(self, spec, n, seed):
        par = PlantedPartitionParams(n=n, r=3, pi=(0.5, 0.3, 0.2), p_tilde=21, q_tilde=2)
        g, truth = sample_ppm(par, seed)
        cert = build_certificate(g, truth, par.p, par.q)
        report = verify_certificate(g, truth, cert)
        assert report.unique_optimum
        g2 = apply_adversary(g, truth, spec, seed)
        added_pairs, removed = monotone_diff(g, g2, truth)
        nu2 = cert.nu + np.bincount(added_pairs.ravel(), minlength=n)
        # Lambda' = diag(nu') + omega J - A' - Gamma' from G' itself
        gamma2 = dense_gamma(truth, cert)
        u, v = removed.T
        gamma2[u, v] += 1.0
        gamma2[v, u] += 1.0
        lam2 = cert.omega - g2.adjacency() - gamma2
        lam2.flat[:: n + 1] += nu2
        # Lambda + L_add, L_add the Laplacian of the added pairs
        added = g2.adjacency() * (1.0 - g.adjacency())
        assert np.all(added[truth.as_array()[:, None] != truth.as_array()[None, :]] == 0)
        expected = assemble_lambda(g, truth, cert) + np.diag(added.sum(axis=1)) - added
        scale = float(np.abs(expected).max())
        assert np.max(np.abs(lam2 - expected)) <= 1e-12 * scale
        ind = truth.indicator_matrix()
        kernel = lam2 @ ind
        residual = float(np.max(np.abs(kernel[:, :, None] - kernel[:, None, :])))
        assert residual <= 1e-8 * (1.0 + scale)
        basis = complement_basis(truth)
        reduced = basis.T @ lam2 @ basis
        least = float(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0])
        assert least >= report.psd_margin - report.psd_tol
