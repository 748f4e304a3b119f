"""Dual certificate construction and verification.

Given a graph, a partition, the edge probabilities p and q and the
regularizer omega (omega(p, q) by default), and no model, builds the dual
pair (nu, Gamma) whose induced matrix Lambda = diag(nu) + omega J - A -
Gamma certifies, when it passes verification, that the partition's
centered matrix is the unique optimum of both semidefinite programs.

The construction follows complementary slackness: per-vertex values gamma_v
are chosen inside data-dependent intervals [alpha_v, beta_v], corrected so
each community sums to a shared constant c; nu and the row sums of Gamma are
then forced, and each off-diagonal block of Gamma is the unique rank-one
matrix with those row and column sums.  The certificate keeps Gamma in that
factored form (nu, R, T); nothing in it is n x n.

Lambda is sparse plus low rank: Lambda = diag(nu) - A + L K^T, with
L = [omega 1, ...] and K = [1, ...] one column each for omega J and for each
off-diagonal block of Gamma (`_factors`), at most 1 + r (r - 1) columns.
Every product with Lambda and every dense form of it goes through these
factors, whose layout no other module reads (`multiplier_matrix`).
Verification applies Lambda only through the operator
x -> nu x - A x + L (K^T x), from the edge pairs and the factors: Lanczos
(`lanczos`) on it, restricted to the orthogonal complement of
span{1_i - 1_j}, gives the end Ritz values and the least one's Ritz vector;
it also gives the kernel product and Lambda U, U a basis of the span.  The
Rayleigh quotient rho of that vector, projected onto the complement,
settles a negative margin at once: when rho < -psd_tol the vector witnesses
that Lambda is not PSD there, the margin reported is rho, and nothing is
stored.  Otherwise the store is written once, as the matrix the proof
factors: its lower triangle in row blocks of _CHOLESKY_BLOCK rows, about
n (n + 128) / 2 doubles, the one large array of a verification, never live
beside an operator product.  The compression onto the complement adds
2 (r - 1) columns to the factors (`_compressed`), and one product of the
factors writes each row block in place, before the edges and the shifted
diagonal (`_assemble`); one in-place Cholesky factorization then proves the
least Ritz value a lower bound.  Only when the factorization fails is the
matrix written again, unshifted, and expanded to a dense matrix for an
exact eigvalsh.  A poor Ritz value can therefore only send a verification
down that dense route; it cannot change a verdict.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import lanczos
from .graph_model import Graph, PartitionLabels
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
    alpha_bar: np.ndarray  # deterministic proxy for the summed lower endpoint
    beta_bar: np.ndarray  # deterministic proxy for the summed upper endpoint
    R: np.ndarray = field(repr=False)  # vertex x community row-sum table
    T: np.ndarray  # community-pair block totals


@dataclass
class CertificateReport:
    """What `verify_certificate` found, Python floats and bools only.

    psd_margin is the least eigenvalue of Lambda compressed onto the
    orthogonal complement of span{1_i - 1_j}, as a Ritz value: an upper
    bound, and when psd_ok holds also proven from below to within psd_tol.
    When psd_ok is false it is the Rayleigh quotient of a witness vector in
    that complement (or, rarely, the least Ritz or exact eigenvalue): an
    upper bound on the least compressed eigenvalue, below -psd_tol, and no
    more.
    """

    intervals_nonempty: bool  # interval_margin >= 0
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
    psd_tol: float  # psd_ok allows psd_margin down to -psd_tol
    psd_ok: bool
    slackness_gap: float
    slackness_ok: bool
    verified: bool

    @property
    def unique_optimum(self) -> bool:
        """The labels are the unique SDP optimum: the certificate verifies
        and Lambda is strictly positive on the complement of span{1_i - 1_j}."""
        return self.verified and self.psd_margin > self.psd_tol

    def to_dict(self) -> dict:
        return asdict(self)


def edge_counts(g: Graph, truth: PartitionLabels) -> tuple[np.ndarray, np.ndarray]:
    """(E_vj, E_ij): per-vertex and per-community-pair edge count tables.

    E_vj[v, j] is the number of neighbors of v in community j; E_ij[i, j] is
    1_i^T A 1_j (twice the intra count when i == j).  Both are counted from
    the edge list, without the dense adjacency.
    """
    lab = truth.as_array()
    n, r = g.n, truth.r
    u, v = g.pairs.T
    hits = np.concatenate([u * r + lab[v], v * r + lab[u]])
    e_vj = np.bincount(hits, minlength=n * r).reshape(n, r).astype(float)
    e_ij = truth.indicator_matrix().T @ e_vj
    return e_vj, e_ij


def _construct(truth, omega, p, q, e_vj, e_ij, eps1, eps2):
    """(certificate, delta): one construction pass and its per-community
    additive corrections delta_i."""
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

    cert = DualCertificate(
        omega=omega, c=c, eps1=eps1, eps2=eps2, nu=nu, gamma_v=gamma_v,
        gamma_prime=gamma_prime, alpha_v=alpha_v, beta_v=beta_v,
        alpha_bar=alpha_bar, beta_bar=beta_bar, R=big_r, T=t_mat,
    )
    return cert, delta


_CHOLESKY_BLOCK = 128  # rows per block of _LowerBlocks, columns per Cholesky panel


class _LowerBlocks:
    """The lower triangle of a symmetric n x n matrix in row blocks of
    h = _CHOLESKY_BLOCK rows, about n (n + h) / 2 doubles in all.

    Block k holds rows [k0, k1), k0 = k h, k1 = min(k0 + h, n), and columns
    [0, k1): those rows' part of the lower triangle plus their whole
    diagonal block, so that every row block is one plain 2-D array for
    `_assemble` and the Cholesky factorization, at n h / 2 extra doubles.
    """

    def __init__(self, n: int):
        self.n = n
        spans = [(k0, min(k0 + _CHOLESKY_BLOCK, n)) for k0 in range(0, n, _CHOLESKY_BLOCK)]
        sizes = [(k1 - k0) * k1 for k0, k1 in spans]
        # views into one allocation: numpy asks for huge pages for a large one
        parts = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
        self.blocks = [(k0, k1, p.reshape(k1 - k0, k1)) for (k0, k1), p in zip(spans, parts)]

    def lower_dense(self) -> np.ndarray:
        """A dense n x n copy whose lower triangle is the stored one and whose
        strict upper triangle is zero outside the diagonal blocks; enough for
        eigvalsh, which reads only the lower triangle."""
        dense = np.zeros((self.n, self.n))
        for k0, k1, blk in self.blocks:
            dense[k0:k1, :k1] = blk
        return dense


def _factors(truth: PartitionLabels, cert: DualCertificate) -> tuple[np.ndarray, np.ndarray]:
    """(L, K) with Lambda = diag(nu) - A + L K^T, each n x (1 + r (r - 1))
    at most.

    Column 0 is (omega 1, 1), for omega J.  Each ordered pair i != j with
    T_ij > 0 adds the column (-1_{S_i} R[:, j] / T_ij, 1_{S_j} R[:, i]), the
    rank-one block R[S_i, j] R[S_j, i]^T / T_ij of Gamma; a pair with
    T_ij <= 0 adds none, and its block of Gamma is 0."""
    lab = truth.as_array()
    members = [np.flatnonzero(lab == i) for i in range(truth.r)]
    pairs = [(i, j) for i in range(truth.r) for j in range(truth.r) if i != j and cert.T[i, j] > 0]
    left = np.zeros((truth.n, 1 + len(pairs)))
    right = np.zeros_like(left)
    left[:, 0], right[:, 0] = cert.omega, 1.0
    for col, (i, j) in enumerate(pairs, 1):
        left[members[i], col] = -cert.R[members[i], j] / cert.T[i, j]
        right[members[j], col] = cert.R[members[j], i]
    return left, right


def multiplier_matrix(
    truth: PartitionLabels, cert: DualCertificate, *, omega_j: bool
) -> np.ndarray:
    """diag(nu) - Gamma as a dense n x n array, plus omega J when `omega_j`
    (Lambda + A): one product of the factors, less their omega J column
    without `omega_j`, then nu on the diagonal; `sdp.admm_start`'s dual."""
    left, right = _factors(truth, cert)
    if not omega_j:
        left, right = left[:, 1:], right[:, 1:]
    out = left @ right.T
    out.flat[:: truth.n + 1] += cert.nu
    return out


def _lambda_operator(g: Graph, nu: np.ndarray, left: np.ndarray, right: np.ndarray):
    """x -> Lambda x = nu x - A x + L (K^T x) for an (n, b) block x, from the
    edge pairs (`Graph.matvec`), nu and the factors (L, K) = (left, right)
    of `_factors`, without the store: O(m b + n r^2 b)."""
    nu = nu[:, None]

    def op(x: np.ndarray) -> np.ndarray:
        y = nu * x
        y -= g.matvec(x)
        y += left @ (right.T @ x)
        return y

    return op


def _compressed(left: np.ndarray, right: np.ndarray, u: np.ndarray, lam_u: np.ndarray, s: float):
    """The factors of M = P Lambda P + s U U^T, given Lambda's (L, K) =
    (left, right), U = `span_basis`, lam_u = Lambda U and P = I - U U^T:
    M = diag(nu) - A + [L, -B, -U] [K, U, B]^T, where
    B = Lambda U - U (U^T Lambda U + s I) / 2.

    M has the n - r + 1 eigenvalues of Lambda compressed onto the orthogonal
    complement of the span, plus s, r - 1 times; for s between that
    spectrum's ends (the verifier passes its largest Ritz value, a Rayleigh
    quotient on the complement) the copies move neither end."""
    k = u.T @ lam_u
    b = lam_u - 0.5 * u @ (0.5 * (k + k.T) + s * np.eye(u.shape[1]))
    return np.hstack([left, -b, -u]), np.hstack([right, u, b])


def _assemble(
    g: Graph, nu: np.ndarray, left: np.ndarray, right: np.ndarray, shift: float
) -> _LowerBlocks:
    """diag(nu) - A + L K^T - shift I as a `_LowerBlocks` store, for the
    factors (L, K) = (left, right): `_factors`, or `_compressed` for the
    matrix the PSD proof factors.

    Each row block [k0, k1) is written once, in place, by the one product
    L[k0:k1] K[:k1]^T; then 1 is subtracted at its edges, from the graph's
    neighbour index, and nu - shift is added on its diagonal.  Nothing else
    is n x n, and nothing else is O(n r^2) beside the factors."""
    nbr = g._neighbours[0]
    degree = np.bincount(g.pairs.ravel(), minlength=g.n)
    ptr = np.append(0, np.cumsum(degree))  # vertex v's run of nbr is [ptr[v], ptr[v + 1])
    diagonal = nu - shift
    store = _LowerBlocks(g.n)
    for k0, k1, blk in store.blocks:
        np.matmul(left[k0:k1], right[:k1].T, out=blk)
        flat = blk.reshape(-1)
        cols = nbr[ptr[k0] : ptr[k1]]
        row_starts = np.repeat(np.arange(k1 - k0) * k1, degree[k0:k1])
        flat[(row_starts + cols)[cols < k1]] -= 1.0
        flat[k0 :: k1 + 1] += diagonal[k0:k1]
    return store


def build_certificate(
    g: Graph, truth: PartitionLabels, p: float, q: float | None = None, omega: float | None = None
) -> DualCertificate:
    """Deterministic two-pass construction of the dual certificate from the
    edge probabilities p and q, which set alpha_bar, beta_bar, c and the
    default omega(p, q); no model is read, but one in place of p, with q
    left out, stands for (p.p, p.q), as benchmarks/test_checks.py calls it.

    The error terms eps1, eps2 depend on the per-community corrections
    delta_i, which in turn depend on eps1, eps2; the first pass uses the
    delta-free baselines, the second re-runs with max |delta_i| folded in.
    Gamma stays factored as (R, T); nothing here is n x n.
    """
    if q is None:
        p, q = p.p, p.q
    if truth.r < 2:
        raise ParameterError("need at least two communities")
    if truth.n != g.n:
        raise ParameterError("labels and graph disagree on n")
    if omega is None:
        omega = compute_omega(p, q)
    if not math.isfinite(omega):
        raise ParameterError(f"need a finite omega, got {omega}")
    n = g.n
    base = math.log(n) / math.log(math.log(n))
    e_vj, e_ij = edge_counts(g, truth)
    _, delta = _construct(truth, omega, p, q, e_vj, e_ij, omega + base, 1.0)
    dmax = float(np.max(np.abs(delta)))
    return _construct(truth, omega, p, q, e_vj, e_ij, dmax + omega + base, dmax + 1.0)[0]


def span_basis(truth: PartitionLabels) -> np.ndarray:
    """U, an orthonormal basis of span{1_i - 1_j}: r - 1 columns, from the QR
    factorization of the columns 1_i - 1_{r-1}, i < r - 1."""
    ind = truth.indicator_matrix()
    return np.linalg.qr(ind[:, :-1] - ind[:, -1:])[0]


def _exact_ends(g: Graph, nu: np.ndarray, left: np.ndarray, right: np.ndarray) -> tuple[float, float]:
    """(least, largest) eigenvalue of Lambda compressed onto the orthogonal
    complement of span{1_i - 1_j}: the ends of one dense eigvalsh of M, from
    its factors (`_compressed`, s inside those ends), with no shift."""
    lam = _assemble(g, nu, left, right, 0.0)
    lo, hi = np.linalg.eigvalsh(lam.lower_dense())[[0, -1]].tolist()
    return lo, hi


def _cholesky_in_place(a: _LowerBlocks) -> _LowerBlocks:
    """The lower Cholesky factor of the symmetric positive definite `a`,
    written over its store; only the lower triangle is read, and the strict
    upper triangle of each diagonal block ends zero.  Raises LinAlgError
    when `a` is not positive definite.

    Blocked and left-looking, one column panel [j0, j1) per row block j:
    each row block k >= j first subtracts from its panel columns the product
    of its finished columns [0, j0) with those of block j; then block j's
    diagonal block is factored, and the blocks below are multiplied by the
    inverse of that factor.  Every operand is a slice of one row block, so
    no temporary exceeds one _CHOLESKY_BLOCK-square block.
    """
    blocks = a.blocks
    for j, (j0, j1, bj) in enumerate(blocks):
        for _, _, bk in blocks[j:]:
            bk[:, j0:j1] -= bk[:, :j0] @ bj[:, :j0].T
        l11 = np.linalg.cholesky(bj[:, j0:j1])
        bj[:, j0:j1] = l11
        inv_t = np.linalg.inv(l11).T
        for _, _, bk in blocks[j + 1 :]:
            bk[:, j0:j1] = bk[:, j0:j1] @ inv_t
    return a


def _psd_tol(lam_2: float) -> float:
    return 1e-8 * max(lam_2, 1.0)


def _margin_ritz(op, n: int, u: np.ndarray) -> tuple[tuple[float, float], np.ndarray]:
    """((theta_min, theta_max), x): the end Ritz values of the operator `op`
    (x -> Lambda x) on the orthogonal complement of the span of U = `u`, by
    one-column Lanczos deflated by U, and theta_min's Ritz vector, an (n, 1)
    column.  Python floats, as the report holds; theta_min bounds the least
    compressed eigenvalue from above only."""
    theta, v = lanczos.extreme_pairs(op, n, 1, [0, -1], deflate=u)
    lo, hi = theta.tolist()
    return (lo, hi), v[:, :1]


def partition_objective(e_ij: np.ndarray, sizes: np.ndarray, omega: float) -> float:
    """<A, X> - omega <J, X> at the centered partition matrix X (1 within a
    community, -1/(r-1) across), from the block edge totals and the sizes."""
    r = len(sizes)
    within = float(np.trace(e_ij))
    across = float(np.sum(e_ij)) - within
    sizes = sizes.astype(float)
    n = float(np.sum(sizes))
    same = float(np.sum(sizes**2))
    return within - across / (r - 1) - omega * (same - (n * n - same) / (r - 1))


def sign_minima(truth: PartitionLabels, cert: DualCertificate) -> tuple[float, float]:
    """(r_min, t_min): the least row sum R[v, j] over v outside S_j and the
    least block total T_ij over i < j.  The construction is sign-feasible,
    Gamma > 0 off the diagonal blocks, when both are positive."""
    member = truth.as_array() == np.arange(truth.r)[:, None]
    # R[v, j] is stored per (vertex, community); select v outside S_j
    r_min = float(np.min(cert.R[~member.T]))
    return r_min, float(np.min(cert.T[np.triu_indices(truth.r, 1)]))


def verify_certificate(
    g: Graph, truth: PartitionLabels, cert: DualCertificate
) -> CertificateReport:
    """Check the optimality conditions at documented tolerances.

    Returns a report, Python floats and bools only, whose `verified` flag is
    the conjunction of all component checks; a failed check is a verdict,
    not an error.  Raises ParameterError only when the labels and the graph
    disagree on n, when nu, R and T are not shaped (n,), (n, r) and (r, r)
    for those labels, or when the labels have fewer than two communities.

    The kernel check scales by max |nu + omega|, the largest magnitude on
    Lambda's diagonal.  The PSD check takes one of two routes.  When the
    Rayleigh quotient rho of the least Ritz vector, projected onto the
    complement of span{1_i - 1_j}, is below -psd_tol, that vector refutes
    PSD-ness: psd_ok is false, psd_margin is rho, and nothing is stored, so
    no Cholesky or eigvalsh runs.  Otherwise the store is written and the
    least Ritz value is proven from below by its Cholesky factorization,
    with the exact eigvalsh as the fallback.
    """
    if truth.n != g.n:
        raise ParameterError("labels and graph disagree on n")
    n, r = g.n, truth.r
    if cert.nu.shape != (n,) or cert.R.shape != (n, r) or cert.T.shape != (r, r):
        raise ParameterError("certificate and labels disagree on n or r")
    if r < 2:
        raise ParameterError("need at least two communities")
    lab = truth.as_array()
    sizes = truth.sizes()
    nu_target = math.log(n) / math.log(math.log(n))
    nu_min = float(np.min(cert.nu))

    # Gamma is zero inside communities: v's row sum within its own is zero
    gamma_blocks_zero = bool(np.all(cert.R[np.arange(n), lab] == 0.0))
    member = lab == np.arange(r)[:, None]  # member[i, v]: v lies in S_i
    r_min, t_min = sign_minima(truth, cert)
    iu = np.triu_indices(r, 1)
    # a block total T_ij <= 0 leaves no rank-one block with those row sums
    t_positive = t_min > 0.0

    # Off-block, Gamma is outer(R[S_i, j], R[S_j, i]) / T_ij, or zero where
    # T_ij <= 0.  Rounding is monotone, so each block's least entry is the
    # least product of the extreme entries of its two factors.
    gamma_off_min = math.inf if t_positive else 0.0
    gamma_sum = 0.0
    for i, j in zip(*iu):
        if cert.T[i, j] > 0:
            a, b = cert.R[member[i], j], cert.R[member[j], i]
            corners = [x * y for x in (a.min(), a.max()) for y in (b.min(), b.max())]
            gamma_off_min = min(gamma_off_min, float(min(corners) / cert.T[i, j]))
            gamma_sum += 2.0 * float(a.sum()) * float(b.sum()) / float(cert.T[i, j])

    # every operator product comes before the store: never both at once
    u = span_basis(truth)
    left, right = _factors(truth, cert)
    op = _lambda_operator(g, cert.nu, left, right)
    ritz, x = _margin_ritz(op, n, u)
    # Lambda (1_i - 1_j) is column i minus column j of K = Lambda [1_0 ... 1_r-1],
    # so the largest entry over all pairs i < j is the largest range of a row of K
    kernel_residual = float(np.ptp(op(truth.indicator_matrix()), axis=1).max())
    lam_u = op(u)
    # projected onto the complement, any x has a Rayleigh quotient that
    # bounds the least compressed eigenvalue from above
    x -= u @ (u.T @ x)
    rho = float((x.T @ op(x)).item() / (x.T @ x).item())
    del op  # it holds the factors, which the compression replaces
    # nu_v + omega is Lambda's diagonal, so this scale is at most max |Lambda|
    kernel_ok = kernel_residual <= 1e-8 * (1.0 + float(np.max(np.abs(cert.nu + cert.omega))))
    lo, hi = ritz
    if rho < -_psd_tol(max(abs(rho), abs(hi))):
        ends = rho, hi  # x refutes PSD-ness: there is nothing to prove
    else:
        # a Cholesky factorization of M - (lo - tol) I proves in floating
        # point that no compressed eigenvalue lies below lo - tol (the r - 1
        # copies of s = hi sit at hi - lo + tol > 0); it fails only when
        # Lanczos missed the bottom of the spectrum
        left, right = _compressed(left, right, u, lam_u, hi)
        lam = _assemble(g, cert.nu, left, right, lo - _psd_tol(max(abs(lo), abs(hi))))
        try:
            _cholesky_in_place(lam)
            proven = True
        except np.linalg.LinAlgError:
            proven = False
        # freed, outside the except block and its traceback, before the
        # exact, dense route writes a fresh matrix
        del lam
        ends = ritz if proven else _exact_ends(g, cert.nu, left, right)
    psd_margin = ends[0]
    # the compressed spectral norm, at most ||Lambda||_2 by interlacing
    lam_2 = max(abs(ends[0]), abs(ends[1]))
    psd_tol = _psd_tol(lam_2)
    psd_ok = psd_margin >= -psd_tol

    _, e_ij = edge_counts(g, truth)
    primal = partition_objective(e_ij, sizes, cert.omega)
    dual = float(np.sum(cert.nu)) + gamma_sum / (r - 1)
    slackness_gap = abs(primal - dual)
    scale = 1.0 + n * math.log(n)
    slackness_ok = slackness_gap <= 1e-6 * scale

    interval_margin = float(np.min(cert.beta_v - cert.alpha_v))
    intervals_nonempty = interval_margin >= 0.0
    nu_ok = nu_min >= nu_target
    r_positive = r_min > 0.0
    gamma_off_positive = gamma_off_min > 0.0
    verified = all((
        intervals_nonempty, nu_ok, r_positive, t_positive, gamma_blocks_zero,
        gamma_off_positive, kernel_ok, psd_ok, slackness_ok,
    ))
    return CertificateReport(
        intervals_nonempty=intervals_nonempty,
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
        psd_tol=psd_tol,
        psd_ok=psd_ok,
        slackness_gap=slackness_gap,
        slackness_ok=slackness_ok,
        verified=verified,
    )
