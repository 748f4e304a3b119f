"""Semidefinite relaxations for recovery, a first-order splitting solver,
and the one routine that turns a graph into a partition.

Two programs are supported: known community sizes (objective <A, X> with an
all-ones-sum equality constraint) and unknown sizes (objective
<A, X> - omega <J, X>).  Both share the constraints diag(X) = 1, entrywise
X >= -1/(r-1), and X PSD.  The solver is consensus ADMM over the three
constraint sets; robust and adequate at desk scale (n up to ~2000).  The
PSD projection is warm-started from the positive eigenspace of the previous
one when that has 1 to r dimensions: Rayleigh-Ritz on a small block Krylov
space gives the projection, and one Cholesky factorization proves that no
positive eigenvalue was missed.  A full symmetric eigendecomposition runs
when the proof fails or the rank is outside 1..r, as it is while the
iterate's rank is still falling.

`recover` tries the dual certificate first and falls back to `recover_admm`
(build, solve, round); these are the only graph-to-partition routines.  The
certificate's candidate partition is computed from the edge pairs, in
O(m + n b) memory: the top r-1 eigenpairs of A - w J come from block Krylov
and Rayleigh-Ritz on b columns, with A applied by `Graph.matvec`, so a
certified solve builds no n x n array before the certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import certificate
from .graph_model import Graph, PartitionLabels, PlantedPartitionParams, pair_uniforms
from .thresholds import ParameterError, compute_omega


def centered_partition_matrix(labels: PartitionLabels) -> np.ndarray:
    """Matrix with 1 for same-community pairs and -1/(r-1) otherwise."""
    _check_r(labels.r, labels.n)
    same = labels.same_community_matrix()
    low = -1.0 / (labels.r - 1)
    return np.where(same, 1.0, low)


@dataclass
class SdpProblem:
    n: int
    r: int
    objective: np.ndarray = field(repr=False)  # C; maximize <C, X>
    j_target: float | None = None  # known-sizes equality <J, X> = j_target


RHO = 1.0  # initial ADMM penalty
ADAPT_EVERY = 50  # iterations between penalty rebalancing steps
ROUND_TOL = 0.1  # largest entrywise distance rounding accepts
KRYLOV_POWERS = 10  # s: the warm PSD projection searches [V, YV, ..., Y^s V]
PROOF_SHIFT = 1e-12  # the Cholesky proof's delta over the largest |Ritz value|
SPECTRAL_BLOCK = 4  # b: least columns of the candidate's block Krylov iteration
SPECTRAL_POWERS = 2  # its Krylov space is [X, BX, ..., B^s X]
SPECTRAL_RTOL = 1e-8  # Ritz residual bound, relative to the largest |Ritz value|
SPECTRAL_ROUNDS = 100  # restarts before the candidate uses unconverged Ritz pairs
SPECTRAL_SEED = 0  # the fixed start block: candidates are reproducible


@dataclass
class SolverOptions:
    """ADMM stopping rule: residuals below `tol` (finite, > 0), or
    `max_iters` (>= 1) iterations; anything else raises ParameterError."""

    tol: float = 1e-6
    max_iters: int = 20000

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ParameterError(f"need a finite tol > 0, got {self.tol}")
        if self.max_iters < 1:
            raise ParameterError(f"need max_iters >= 1, got {self.max_iters}")


@dataclass
class SdpSolution:
    X: np.ndarray = field(repr=False)
    objective: float
    primal_residual: float
    dual_residual: float
    iterations: int
    converged: bool
    full_projections: int = 0  # PSD projections that ran a full eigh


@dataclass
class RoundingResult:
    labels: PartitionLabels | None
    success: bool
    max_deviation: float


def j_constraint_target(sizes) -> float:
    sizes = np.asarray(sizes, dtype=float)
    r = len(sizes)
    n = sizes.sum()
    return r / (r - 1) * float(np.sum(sizes**2)) - n**2 / (r - 1)


def _check_r(r: int, n: int) -> None:
    if r < 2:
        raise ParameterError("need r >= 2")
    if r > n:
        raise ParameterError(f"need r <= n, got r={r} for n={n}")


def _check_sizes(g: Graph, sizes) -> list:
    sizes = [int(s) for s in sizes]
    if sum(sizes) != g.n or any(s < 1 for s in sizes):
        raise ParameterError(f"sizes {sizes} do not sum to n={g.n}")
    _check_r(len(sizes), g.n)
    return sizes


def _check_omega(omega: float | None) -> None:
    if omega is None or not (0.0 < omega < 1.0):
        raise ParameterError(f"need 0 < omega < 1, got {omega}")


def build_known_sizes(g: Graph, sizes) -> SdpProblem:
    """Known-sizes program: maximize <A, X> subject to the sum constraint."""
    sizes = _check_sizes(g, sizes)
    return SdpProblem(
        n=g.n, r=len(sizes), objective=g.adjacency(), j_target=j_constraint_target(sizes)
    )


def build_unknown_sizes(g: Graph, r: int, omega: float) -> SdpProblem:
    """Unknown-sizes program: maximize <A - omega J, X>."""
    _check_r(r, g.n)
    _check_omega(omega)
    return SdpProblem(n=g.n, r=r, objective=g.adjacency() - omega)


def objective_value(g: Graph, X: np.ndarray, omega: float | None = None) -> float:
    """<A, X>, minus omega <J, X> when omega is given."""
    X = np.asarray(X, dtype=float)
    if X.shape != (g.n, g.n):
        raise ParameterError(f"matrix shape {X.shape} does not match n={g.n}")
    value = float(np.sum(g.adjacency() * X))
    if omega is not None:
        value -= omega * float(np.sum(X))
    return value


def _project_psd(y: np.ndarray, v: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """(P, V, full): the projection of y onto the PSD cone, an orthonormal
    basis of its positive eigenspace, and whether a full eigendecomposition
    made them.

    `v` is the basis the previous projection returned.  When it has 1 to r
    columns, the Rayleigh-Ritz pairs of y on the block Krylov space
    [v, yv, ..., y^s v] (s = KRYLOV_POWERS) give P = V diag(theta) V^T over
    the positive Ritz values theta.  A Cholesky factorization of
    P - y + delta I, delta = PROOF_SHIFT times the largest absolute Ritz
    value, proves y - P <= delta I: no positive eigenvalue above delta was
    missed.  When the factorization fails, or v has 0 or more than r columns,
    a full eigendecomposition of y gives P and reseeds V.
    """
    if 1 <= v.shape[1] <= r:
        warm = _warm_projection(y, v)
        if warm is not None:
            return *warm, False
    w, v = np.linalg.eigh(y)
    pos = w > 0
    vp = v[:, pos]
    return (vp * w[pos]) @ vp.T, vp, True


def _warm_projection(y: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(P, V) from the Ritz pairs of y on [v, yv, ..., y^s v] when the
    Cholesky proof holds, else None."""
    blocks = [v]
    for _ in range(KRYLOV_POWERS):
        blocks.append(y @ blocks[-1])
    q = np.linalg.qr(np.hstack(blocks))[0]
    w, s = np.linalg.eigh(q.T @ y @ q)
    pos = w > 0
    vp = q @ s[:, pos]
    p = (vp * w[pos]) @ vp.T
    gap = p - y
    gap.flat[:: len(gap) + 1] += PROOF_SHIFT * float(np.max(np.abs(w)))
    try:
        np.linalg.cholesky(gap)
    except np.linalg.LinAlgError:
        return None
    return p, vp


def _project_affine(y: np.ndarray, j_target: float | None) -> np.ndarray:
    out = y.copy()
    np.fill_diagonal(out, 1.0)
    if j_target is not None:
        n = y.shape[0]
        off = float(out.sum()) - n
        shift = (j_target - n - off) / (n * n - n)
        out += shift
        np.fill_diagonal(out, 1.0)
    return out


def solve(prob: SdpProblem, opts: SolverOptions | None = None) -> SdpSolution:
    """Consensus ADMM over {PSD} x {affine} x {box}; never raises on
    non-convergence (returns the best iterate with converged=False)."""
    opts = opts or SolverOptions()
    n = prob.n
    lb = -1.0 / (prob.r - 1)  # entrywise lower bound of the box
    c_mat = prob.objective
    rho = RHO
    c_step = c_mat / (3.0 * rho)
    x = np.eye(n)
    z = [x.copy(), x.copy(), x.copy()]
    u = [np.zeros((n, n)) for _ in range(3)]
    basis = np.zeros((n, 0))  # positive eigenspace of the last PSD projection
    full_projections = 0
    scale = n  # residual normalization
    primal = dual = math.inf
    it = 0
    for it in range(1, opts.max_iters + 1):
        x_new = z[0] - u[0]
        x_new += z[1]
        x_new -= u[1]
        x_new += z[2]
        x_new -= u[2]
        x_new /= 3.0
        x_new += c_step
        x_new += x_new.T
        x_new *= 0.5
        dual = rho * float(np.linalg.norm(x_new - x)) / scale
        x = x_new  # the previous iterate is freed before the projections
        z[0], basis, full = _project_psd(x + u[0], basis, prob.r)
        full_projections += full
        z[1] = _project_affine(x + u[1], prob.j_target)
        z[2] = np.clip(x + u[2], lb, 1.0)
        primal = 0.0
        for k in range(3):
            step = x - z[k]
            u[k] += step
            primal = max(primal, float(np.linalg.norm(step)))
        del step  # freed before the next iteration's projections
        primal /= scale
        if max(primal, dual) < opts.tol:
            break
        if it % ADAPT_EVERY == 0 and max(primal, dual) > 10.0 * min(primal, dual):
            factor = 2.0 if primal > dual else 0.5  # raise rho when primal lags
            rho *= factor
            for k in range(3):
                u[k] /= factor
            c_step = c_mat / (3.0 * rho)
    converged = max(primal, dual) < opts.tol
    return SdpSolution(
        X=x,
        objective=float(np.sum(c_mat * x)),
        primal_residual=primal,
        dual_residual=dual,
        iterations=it,
        converged=converged,
        full_projections=full_projections,
    )


def _first_occurrence_labels(assign: np.ndarray, r: int) -> PartitionLabels:
    """Labels numbered by each class's first vertex: vertex 0 is in 0."""
    _, first = np.unique(assign, return_index=True)
    relabel = np.argsort(np.argsort(first))
    return PartitionLabels(labels=tuple(relabel[assign].tolist()), r=r)


def _labels_from_components(same: np.ndarray, r: int) -> PartitionLabels | None:
    """Labels when the same-community relation is exactly r disjoint cliques.
    A vertex's class is keyed by the first vertex it relates to (its row's
    first True, the same for a whole clique); the relation is accepted when
    there are r keys and `same` is exactly the equality of keys."""
    keys, assign = np.unique(np.argmax(same, axis=1), return_inverse=True)
    if len(keys) != r or not np.array_equal(same, assign[:, None] == assign[None, :]):
        return None
    return _first_occurrence_labels(assign, r)


def _kmeans(rows: np.ndarray, r: int) -> np.ndarray | None:
    """Lloyd's k-means on the rows, seeded deterministically: the row of
    largest norm, then each next seed the row farthest from the seeds so far.
    Stops when the assignment repeats, or after 100 rounds.  Returns the
    cluster of each row, or None when a cluster is empty."""

    def sq_dist(center):
        return np.sum((rows - center) ** 2, axis=1)

    seeds = [int(np.argmax(np.sum(rows**2, axis=1)))]
    nearest = sq_dist(rows[seeds[0]])
    for _ in range(1, r):
        seeds.append(int(np.argmax(nearest)))
        nearest = np.minimum(nearest, sq_dist(rows[seeds[-1]]))
    centers = rows[seeds]
    assign = None
    for _ in range(100):
        dist = np.stack([sq_dist(c) for c in centers], axis=1)
        new = np.argmin(dist, axis=1)
        counts = np.bincount(new, minlength=r)
        if np.any(counts == 0):
            return None
        if assign is not None and np.array_equal(new, assign):
            break
        assign = new
        centers = (np.eye(r)[assign].T @ rows) / counts[:, None]
    return assign


def _eigen_labels(w: np.ndarray, v: np.ndarray, r: int) -> PartitionLabels | None:
    """Cluster the rows of the eigenvectors v (columns) scaled by their
    eigenvalues w into r communities; None when a cluster comes out empty.
    Signs and column order do not change the result."""
    assign = _kmeans(v * w, r)
    return None if assign is None else _first_occurrence_labels(assign, r)


def _spectral_labels(X: np.ndarray, r: int) -> PartitionLabels | None:
    """`_eigen_labels` on the top r-1 eigenpairs of the dense matrix X."""
    w, v = np.linalg.eigh(X)
    return _eigen_labels(w[-(r - 1):], v[:, -(r - 1):], r)


def _top_eigenpairs(g: Graph, w: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(theta, V): the k largest Ritz values of B = A - w J, and their Ritz
    vectors, with B X = A X - w 1 (1^T X) computed by `Graph.matvec`.

    Block Krylov with restarts on b = min(n, max(SPECTRAL_BLOCK, k + 2))
    columns, started from a fixed pseudo-random block: each round takes the
    Rayleigh-Ritz pairs of B on [X, BX, ..., B^s X] (s = SPECTRAL_POWERS)
    and restarts from the b largest.  It stops when the k wanted pairs have
    residuals |B v - theta v| at most SPECTRAL_RTOL times the largest
    |Ritz value| of the round, or after SPECTRAL_ROUNDS rounds.  When the
    Krylov space spans the whole space, as it does when b = n, the pairs
    are exact after one round.  Memory is O(m + n b).
    """
    n = g.n
    b = min(n, max(SPECTRAL_BLOCK, k + 2))

    def op(x):
        y = g.matvec(x)
        y -= w * x.sum(axis=0)
        return y

    x = pair_uniforms(SPECTRAL_SEED, np.repeat(np.arange(n), b), np.tile(np.arange(b), n))
    x = x.reshape(n, b) - 0.5
    bx = op(x)
    for _ in range(SPECTRAL_ROUNDS):
        blocks = [x, bx]
        for _ in range(SPECTRAL_POWERS - 1):
            blocks.append(op(blocks[-1]))
        q = np.linalg.qr(np.hstack(blocks))[0]
        bq = op(q)
        theta, s = np.linalg.eigh(q.T @ bq)
        theta, s = theta[::-1][:b], s[:, ::-1][:, :b]
        x, bx = q @ s, bq @ s
        residual = np.linalg.norm(bx[:, :k] - x[:, :k] * theta[:k], axis=0)
        if residual.max() <= SPECTRAL_RTOL * float(np.abs(theta).max()):
            break
    return theta[:k], x[:, :k]


def round_to_partition(sol: SdpSolution, r: int) -> RoundingResult:
    """Snap a solved matrix to the nearest centered partition matrix.

    Entries are thresholded at the midpoint between 1 and -1/(r-1); if the
    resulting same-community relation is not exactly r disjoint cliques, fall
    back to clustering rows by the top r-1 eigenvectors.  The candidate is
    accepted only if its centered partition matrix is entrywise within
    ROUND_TOL of the solved matrix.
    """
    X = sol.X
    _check_r(r, len(X))
    mid = 0.5 * (1.0 - 1.0 / (r - 1))
    same = X > mid
    np.fill_diagonal(same, True)
    labels = _labels_from_components(same, r)
    if labels is None:
        labels = _spectral_labels(X, r)
    if labels is None:
        return RoundingResult(labels=None, success=False, max_deviation=math.inf)
    deviation = float(np.max(np.abs(centered_partition_matrix(labels) - X)))
    if deviation > ROUND_TOL:
        return RoundingResult(labels=None, success=False, max_deviation=deviation)
    return RoundingResult(labels=labels, success=True, max_deviation=deviation)


def certified_partition(
    g: Graph, r: int, omega: float | None = None, sizes=None
) -> tuple[PartitionLabels, certificate.CertificateReport] | None:
    """A partition that the dual certificate proves to be the unique optimum
    of the SDP, with its certificate report, or None.

    The candidate clusters the top r-1 eigenvectors of A - w J, where w is
    `omega`, or the edge density 2m/n^2 when no omega is given; they are
    computed from the edge pairs (`_top_eigenpairs`), with no n x n array.
    With `sizes` (known sizes) the candidate must have those sizes.  The edge densities
    p_hat, q_hat within and across its communities must satisfy
    0 < q_hat < p_hat < 1; without `omega` the certificate uses
    omega(p_hat, q_hat).  The candidate is accepted only when the certificate
    verifies with a PSD margin above the verifier's tolerance: uniqueness
    needs Lambda strictly positive on the complement of span{1_i - 1_j}.

    Raises ParameterError on the inputs build_known_sizes and
    build_unknown_sizes reject; a candidate that fails any check above
    returns None.
    """
    if sizes is not None:
        sizes = sorted(_check_sizes(g, sizes))
    _check_r(r, g.n)
    if omega is not None:
        _check_omega(omega)
    n = g.n
    w = 2.0 * g.m / n**2 if omega is None else omega
    labels = _eigen_labels(*_top_eigenpairs(g, w, r - 1), r)
    if labels is None:
        return None
    cand = labels.sizes()
    if sizes is not None and sorted(cand.tolist()) != sizes:
        return None
    within_pairs = float(np.sum(cand * (cand - 1))) / 2.0
    if within_pairs == 0.0:
        return None
    across_pairs = (n * n - float(np.sum(cand**2))) / 2.0
    _, e_ij = certificate.edge_counts(g, labels)
    within = float(np.trace(e_ij)) / 2.0
    p_hat = within / within_pairs
    q_hat = (float(np.sum(e_ij)) / 2.0 - within) / across_pairs
    if not (0.0 < q_hat < p_hat < 1.0):
        return None
    scale = n / math.log(n)
    params = PlantedPartitionParams(
        n=n, r=r, pi=tuple((cand / n).tolist()),
        p_tilde=p_hat * scale, q_tilde=q_hat * scale,
    )
    if omega is None:
        omega = compute_omega(p_hat, q_hat)
    cert = certificate.build_certificate(g, labels, params, omega=omega)
    report = certificate.verify_certificate(g, labels, cert)
    if not report.unique_optimum:
        return None
    return labels, report


@dataclass
class Recovery:
    """A partition from a graph, by "certificate" (no ADMM: 0 iterations,
    deviation 0, no X) or by "admm" (labels None when rounding failed)."""

    method: str
    labels: PartitionLabels | None
    objective: float
    iterations: int
    converged: bool
    max_deviation: float
    X: np.ndarray | None = field(default=None, repr=False)


def recover_admm(
    g: Graph, r: int, *, sizes=None, omega: float | None = None,
    opts: SolverOptions | None = None,
) -> Recovery:
    """Solve the known-sizes program when `sizes` is given and the
    unknown-sizes one (which needs `omega`) otherwise, then round."""
    if sizes is not None:
        prob = build_known_sizes(g, sizes)
    else:
        prob = build_unknown_sizes(g, r, omega)
    sol = solve(prob, opts)
    rounding = round_to_partition(sol, r)
    return Recovery("admm", rounding.labels, sol.objective, sol.iterations,
                    sol.converged, rounding.max_deviation, sol.X)


def recover(
    g: Graph, r: int, *, sizes=None, omega: float | None = None,
    opts: SolverOptions | None = None,
) -> Recovery:
    """The `certified_partition` candidate when the certificate proves it,
    with its objective in closed form (<A, X> with `sizes`, <A - omega J, X>
    without); otherwise `recover_admm` with the same arguments."""
    if sizes is None:
        _check_omega(omega)
    certified = certified_partition(g, r, omega=omega, sizes=sizes)
    if certified is None:
        return recover_admm(g, r, sizes=sizes, omega=omega, opts=opts)
    labels, _ = certified
    _, e_ij = certificate.edge_counts(g, labels)
    omega_j = 0.0 if sizes is not None else omega
    objective = certificate.partition_objective(e_ij, labels.sizes(), omega_j)
    return Recovery("certificate", labels, objective, 0, True, 0.0)
