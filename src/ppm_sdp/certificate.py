"""Dual certificate construction and verification.

Given a graph, the true partition, and the regularizer omega, builds the
dual pair (nu, Gamma) whose induced matrix Lambda = diag(nu) + omega J - A -
Gamma certifies, when it passes verification, that the true centered
partition matrix is the unique optimum of both semidefinite programs.

The construction follows complementary slackness: per-vertex values gamma_v
are chosen inside data-dependent intervals [alpha_v, beta_v], corrected so
each community sums to a shared constant c; nu and the row sums of Gamma are
then forced, and each off-diagonal block of Gamma is the unique rank-one
matrix with those row and column sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph_model import Graph, PartitionLabels, PlantedPartitionParams
from .thresholds import ParameterError, compute_omega


@dataclass
class DualCertificate:
    omega: float
    c: float
    eps1: float
    eps2: float
    nu: np.ndarray = field(repr=False)  # per-vertex dual for the diagonal
    gamma_v: np.ndarray = field(repr=False)  # corrected per-vertex choice
    gamma_prime: np.ndarray = field(repr=False)  # pre-correction choice
    alpha_v: np.ndarray = field(repr=False)  # interval lower endpoints
    beta_v: np.ndarray = field(repr=False)  # interval upper endpoints
    kappa: np.ndarray  # per-community interpolation weight, clamped to [0,1]
    delta: np.ndarray  # per-community additive correction
    alpha_bar: np.ndarray  # deterministic proxy for the summed lower endpoint
    beta_bar: np.ndarray  # deterministic proxy for the summed upper endpoint
    R: np.ndarray = field(repr=False)  # vertex x community row-sum table
    T: np.ndarray  # community-pair block totals
    Gamma: np.ndarray = field(repr=False)
    Lambda: np.ndarray = field(repr=False)
    intervals_nonempty: bool
    construction_ok: bool  # False when some block total T_ij <= 0


@dataclass
class CertificateReport:
    intervals_nonempty: bool
    interval_margin: float  # min over vertices of beta_v - alpha_v
    nu_min: float
    nu_target: float  # log n / log log n
    nu_ok: bool
    r_min: float
    r_positive: bool
    t_min: float
    t_positive: bool
    gamma_blocks_zero: bool
    gamma_off_min: float
    gamma_off_positive: bool
    kernel_residual: float
    kernel_ok: bool
    psd_margin: float
    psd_ok: bool
    slackness_gap: float
    slackness_ok: bool
    construction_ok: bool
    verified: bool

    def to_dict(self) -> dict:
        return {k: _jsonable(v) for k, v in self.__dict__.items()}


def _jsonable(v):
    if isinstance(v, (np.bool_,)):
        return bool(v)
    if isinstance(v, (np.floating, np.integer)):
        return float(v)
    return v


def edge_counts(g: Graph, truth: PartitionLabels) -> tuple[np.ndarray, np.ndarray]:
    """(E_vj, E_ij): per-vertex and per-community-pair edge count tables.

    E_vj[v, j] is the number of neighbors of v in community j; E_ij[i, j] is
    1_i^T A 1_j (twice the intra count when i == j).  Both are counted from
    the edge list, without the dense adjacency.
    """
    lab = truth.as_array()
    n, r = g.n, truth.r
    e = g.edge_array()
    u, v = e[:, 0], e[:, 1]
    hits = np.concatenate([u * r + lab[v], v * r + lab[u]])
    e_vj = np.bincount(hits, minlength=n * r).reshape(n, r).astype(float)
    e_ij = truth.indicator_matrix().T @ e_vj
    return e_vj, e_ij


def _construct(truth, omega, p, q, e_vj, e_ij, eps1, eps2, c):
    """The per-vertex and per-community quantities of one construction pass."""
    lab = truth.as_array()
    sizes = truth.sizes().astype(float)
    r = truth.r
    n = truth.n
    s_v = sizes[lab]
    e_own = e_vj[np.arange(n), lab]

    alpha_v = omega * (s_v - 1.0) - e_own + eps1
    other = omega * sizes[None, :] - e_vj
    other[np.arange(n), lab] = math.inf
    beta_v = other.min(axis=1) - eps2

    sorted_sizes = np.sort(sizes)
    if c is None:
        c = 0.5 * (omega - q) * sorted_sizes[0] * sorted_sizes[1]
    smin_other = np.array(
        [min(sizes[j] for j in range(r) if j != i) for i in range(r)]
    )
    alpha_bar = (omega - p) * sizes * (sizes - 1.0) + sizes * eps1
    beta_bar = (omega - q) * sizes * smin_other - sizes * eps2

    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = (c - alpha_bar) / (beta_bar - alpha_bar)
    kappa = np.clip(np.nan_to_num(kappa, nan=0.5), 0.0, 1.0)

    nonempty = alpha_v <= beta_v
    gamma_prime = np.where(
        nonempty,
        (1.0 - kappa[lab]) * alpha_v + kappa[lab] * beta_v,
        0.5 * (alpha_v + beta_v),
    )
    delta = np.array(
        [(c - gamma_prime[lab == i].sum()) / sizes[i] for i in range(r)]
    )
    gamma_v = gamma_prime + delta[lab]

    nu = e_own - omega * s_v + gamma_v
    big_r = omega * sizes[None, :] - e_vj - gamma_v[:, None]
    big_r[np.arange(n), lab] = 0.0  # row sums only defined for v outside S_j
    t_mat = omega * np.outer(sizes, sizes) - e_ij - c
    np.fill_diagonal(t_mat, 0.0)

    return {
        "alpha_v": alpha_v,
        "beta_v": beta_v,
        "gamma_prime": gamma_prime,
        "gamma_v": gamma_v,
        "delta": delta,
        "kappa": kappa,
        "alpha_bar": alpha_bar,
        "beta_bar": beta_bar,
        "nu": nu,
        "R": big_r,
        "T": t_mat,
        "c": c,
        "intervals_nonempty": bool(np.all(nonempty)),
    }


def _assemble(a, truth, omega, nu, big_r, t_mat):
    """Dense (Gamma, Lambda, construction_ok).  Each off-diagonal block of
    Gamma is the rank-one matrix with row sums R and total T; Lambda =
    diag(nu) + omega J - A - Gamma is assembled in the memory of `a`."""
    n, r = truth.n, truth.r
    gamma_mat = np.zeros((n, n))
    construction_ok = True
    for i in range(r):
        vi = truth.members(i)
        for j in range(i + 1, r):
            vj = truth.members(j)
            if t_mat[i, j] <= 0:
                construction_ok = False
                continue
            block = np.outer(big_r[vi, j], big_r[vj, i]) / t_mat[i, j]
            gamma_mat[np.ix_(vi, vj)] = block
            gamma_mat[np.ix_(vj, vi)] = block.T

    lam = np.subtract(omega, a, out=a)
    lam -= gamma_mat
    lam.flat[:: n + 1] += nu
    return gamma_mat, lam, construction_ok


def build_certificate(
    g: Graph,
    truth: PartitionLabels,
    params: PlantedPartitionParams,
    omega: float | None = None,
    c: float | None = None,
) -> DualCertificate:
    """Deterministic two-pass construction of the dual certificate.

    The error terms eps1, eps2 depend on the per-community corrections
    delta_i, which in turn depend on eps1, eps2; the first pass uses the
    delta-free baselines, the second re-runs with max |delta_i| folded in.
    Only the second pass assembles the dense Gamma and Lambda.
    """
    if truth.r < 2:
        raise ParameterError("need at least two communities")
    if truth.n != g.n:
        raise ParameterError("labels and graph disagree on n")
    if omega is None:
        omega = compute_omega(params.p, params.q)
    n = g.n
    base = math.log(n) / math.log(math.log(n))
    e_vj, e_ij = edge_counts(g, truth)
    p, q = params.p, params.q
    pass1 = _construct(truth, omega, p, q, e_vj, e_ij, omega + base, 1.0, c)
    dmax = float(np.max(np.abs(pass1["delta"])))
    eps1 = dmax + omega + base
    eps2 = dmax + 1.0
    out = _construct(truth, omega, p, q, e_vj, e_ij, eps1, eps2, c)
    gamma_mat, lam, construction_ok = _assemble(
        g.adjacency(), truth, omega, out["nu"], out["R"], out["T"]
    )
    return DualCertificate(
        omega=omega,
        eps1=eps1,
        eps2=eps2,
        Gamma=gamma_mat,
        Lambda=lam,
        construction_ok=construction_ok,
        **out,
    )


def _compressed_spectrum(lam: np.ndarray, truth: PartitionLabels) -> np.ndarray:
    """Eigenvalues, ascending, of the symmetric part of Lambda compressed
    onto the orthogonal complement of span{1_i - 1_j}.

    U is an orthonormal basis of the span and P = I - U U^T.  The matrix
    P Lambda P + s U U^T has the n - r + 1 compressed eigenvalues plus s,
    r - 1 times.  s exceeds the largest absolute row and column sum of
    Lambda, which bound its spectral norm, so the copies of s are the top
    r - 1 eigenvalues; they are dropped.  The shift costs rank-(r - 1)
    updates, O(n^2 r), and one dense eigvalsh.
    """
    n, r = truth.n, truth.r
    ind = truth.indicator_matrix()
    u, _ = np.linalg.qr(ind[:, :-1] - ind[:, -1:])
    abs_lam = np.abs(lam)
    s = 1.0 + max(float(abs_lam.sum(axis=0).max()), float(abs_lam.sum(axis=1).max()))
    del abs_lam
    m = lam + lam.T
    m *= 0.5
    w = m @ u
    k = u.T @ w
    # P m P + s U U^T = m - B U^T - U B^T, with B = m U - U (U^T m U + s I) / 2
    b = w - 0.5 * u @ (0.5 * (k + k.T) + s * np.eye(r - 1))
    m -= b @ u.T
    m -= u @ b.T
    return np.linalg.eigvalsh(m)[: n - r + 1]


def _partition_objective(e_ij: np.ndarray, sizes: np.ndarray, omega: float) -> float:
    """<A, X> - omega <J, X> at the centered partition matrix X (1 within a
    community, -1/(r-1) across), from the block edge totals and the sizes."""
    r = len(sizes)
    within = float(np.trace(e_ij))
    across = float(np.sum(e_ij)) - within
    sizes = sizes.astype(float)
    n = float(np.sum(sizes))
    same = float(np.sum(sizes**2))
    return within - across / (r - 1) - omega * (same - (n * n - same) / (r - 1))


def verify_certificate(
    g: Graph, truth: PartitionLabels, cert: DualCertificate
) -> CertificateReport:
    """Check the optimality conditions at documented tolerances.

    Never raises; returns a report whose `verified` flag is the conjunction
    of all component checks.
    """
    lab = truth.as_array()
    sizes = truth.sizes()
    n, r = g.n, truth.r
    lam = cert.Lambda
    lam_max = float(np.max(np.abs(lam)))
    nu_target = math.log(n) / math.log(math.log(n))
    nu_min = float(np.min(cert.nu))

    mask_offblock = lab[:, None] != lab[None, :]
    gamma_blocks_zero = bool(np.all(cert.Gamma[~mask_offblock] == 0.0))
    gamma_off_min = float(np.min(cert.Gamma[mask_offblock])) if r > 1 else 0.0

    # R[v, j] is stored per (vertex, community); select v outside S_j
    comm_mask = np.ones((n, r), dtype=bool)
    comm_mask[np.arange(n), lab] = False
    r_min = float(np.min(cert.R[comm_mask]))
    iu = np.triu_indices(r, 1)
    t_min = float(np.min(cert.T[iu])) if r > 1 else 0.0

    kernel_residual = 0.0
    for i in range(r):
        for j in range(i + 1, r):
            vec = np.zeros(n)
            vec[truth.members(i)] = 1.0
            vec[truth.members(j)] = -1.0
            kernel_residual = max(
                kernel_residual, float(np.max(np.abs(lam @ vec)))
            )
    kernel_ok = kernel_residual <= 1e-8 * (1.0 + lam_max)

    spectrum = _compressed_spectrum(lam, truth)
    psd_margin = float(spectrum[0])
    # the compressed spectral norm, at most ||Lambda||_2 by interlacing
    lam_2 = float(np.max(np.abs(spectrum)))
    psd_ok = psd_margin >= -1e-8 * max(lam_2, 1.0)

    _, e_ij = edge_counts(g, truth)
    primal = _partition_objective(e_ij, sizes, cert.omega)
    dual = float(np.sum(cert.nu)) + float(np.sum(cert.Gamma)) / (r - 1)
    slackness_gap = abs(primal - dual)
    scale = 1.0 + n * math.log(n)
    slackness_ok = slackness_gap <= 1e-6 * scale

    interval_margin = float(np.min(cert.beta_v - cert.alpha_v))
    nu_ok = nu_min >= nu_target
    r_positive = r_min > 0.0
    t_positive = t_min > 0.0
    gamma_off_positive = gamma_off_min > 0.0
    verified = bool(
        cert.construction_ok
        and cert.intervals_nonempty
        and nu_ok
        and r_positive
        and t_positive
        and gamma_blocks_zero
        and gamma_off_positive
        and kernel_ok
        and psd_ok
        and slackness_ok
    )
    return CertificateReport(
        intervals_nonempty=cert.intervals_nonempty,
        interval_margin=interval_margin,
        nu_min=nu_min,
        nu_target=nu_target,
        nu_ok=nu_ok,
        r_min=r_min,
        r_positive=r_positive,
        t_min=t_min,
        t_positive=t_positive,
        gamma_blocks_zero=gamma_blocks_zero,
        gamma_off_min=gamma_off_min,
        gamma_off_positive=gamma_off_positive,
        kernel_residual=kernel_residual,
        kernel_ok=kernel_ok,
        psd_margin=psd_margin,
        psd_ok=psd_ok,
        slackness_gap=slackness_gap,
        slackness_ok=slackness_ok,
        construction_ok=cert.construction_ok,
        verified=verified,
    )


def algebraic_identity_suite(
    cert: DualCertificate, g: Graph, truth: PartitionLabels, rel_tol: float = 1e-9
) -> list:
    """Closed-form identities the construction must satisfy numerically.

    Returns (name, lhs, rhs, pass) tuples; each identity is checked to the
    given relative tolerance.
    """
    lab = truth.as_array()
    sizes = truth.sizes().astype(float)
    n, r = g.n, truth.r
    lam = cert.Lambda
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

    for i in range(r):
        for j in range(i + 1, r):
            block = cert.Gamma[np.ix_(truth.members(i), truth.members(j))]
            sv = np.linalg.svd(block, compute_uv=False)
            second = float(sv[1]) if len(sv) > 1 else 0.0
            results.append(
                (f"block_rank_one_{i}{j}", second, 0.0, second <= 1e-9 * max(sv[0], 1.0))
            )
    return results


def interval_margins(
    g: Graph,
    truth: PartitionLabels,
    params: PlantedPartitionParams,
    omega: float | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-vertex interval endpoints (alpha_v, beta_v) and the worst margin
    min_v(beta_v - alpha_v); a positive margin is the high-probability event
    linking the certificate to the divergence condition."""
    cert = build_certificate(g, truth, params, omega=omega)
    margin = float(np.min(cert.beta_v - cert.alpha_v))
    return cert.alpha_v, cert.beta_v, margin
