"""Semidefinite relaxations for recovery, a first-order splitting solver,
and the one routine that turns a graph into a partition.

Two programs are supported: known community sizes (objective <A, X> with an
all-ones-sum equality constraint) and unknown sizes (objective
<A, X> - omega <J, X>).  Both share the constraints diag(X) = 1, entrywise
X >= -1/(r-1), and X PSD.  The solver is two-block ADMM between the PSD
cone and the set C of the other constraints (diag 1, the box, and the sum
with known sizes), whose projection is exact: a clip, shifted with known
sizes by the root of a piecewise-linear sum; adequate at desk scale (n up
to ~2000).  The PSD projection is warm-started from the positive
eigenspace of the previous one when that has 1 to r dimensions:
Rayleigh-Ritz on a small block Krylov space gives the projection, and one
Cholesky factorization proves that no positive eigenvalue was missed.  A
full symmetric eigendecomposition runs when the proof fails or the rank is
outside 1..r, as it is while the iterate's rank is still falling.

ADMM starts from the spectral candidate's primal-dual pair when it can
(`admm_start`): Z is the candidate's centered partition matrix X, U is
(C + Lambda)/rho for its unverified certificate Lambda = diag(nu) + omega J
- A - Gamma, formed as diag(nu) plus one product of the certificate's
low-rank factors (`certificate._factors`), and the warm basis spans
range(X).  The start is used only when the construction is sign-feasible
(every R entry off a vertex's own community and every T_ij positive), so
that U lies in the normal cone of C at X; otherwise, or with no candidate, ADMM starts cold from Z = I, U = 0.
When Lambda is PSD the pair is a fixed point: the first projection's
warm proof holds, and one iteration meets the stop with no full
eigendecomposition.  The stop itself is the same from either start.

`recover` tries the dual certificate first and falls back to ADMM (build,
start, solve, round) from the same candidate; with `recover_admm`, which
always runs ADMM, these are the only graph-to-partition routines.
Rounding reads the labels off X thresholded at the midpoint between 1 and
-1/(r-1); its `max_deviation`, X's distance from that pattern, is the
distance to the labels' centered partition matrix on success and a lower
bound on the distance to every one on failure.  The certificate's candidate
partition is computed from the edge pairs: the top r-1 eigenpairs of
A - w J come from block Lanczos (`lanczos`) on r + 1 columns, with A
applied by `Graph.matvec`, so a certified solve builds no n x n array
before the certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import certificate, lanczos
from .graph_model import Graph, PartitionLabels, PlantedPartitionParams, check_sizes
from .thresholds import ParameterError, compute_omega, is_integral, is_number


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


@dataclass
class SolverOptions:
    """ADMM stopping rule: residuals below `tol` (finite, > 0), or
    `max_iters` (an integer >= 1, such as 50 or 50.0) iterations; anything
    else, a bool too, raises ParameterError."""

    tol: float = 1e-6
    max_iters: int = 20000

    def __post_init__(self):
        if not (is_number(self.tol) and math.isfinite(self.tol) and self.tol > 0):
            raise ParameterError(f"need a finite tol > 0, got {self.tol}")
        if not (is_integral(self.max_iters) and self.max_iters >= 1):
            raise ParameterError(f"need an integer max_iters >= 1, got {self.max_iters}")
        self.max_iters = int(self.max_iters)


@dataclass
class SdpSolution:
    X: np.ndarray = field(repr=False)
    objective: float
    primal_residual: float
    dual_residual: float
    iterations: int
    converged: bool


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


def _check_sizes(g: Graph, sizes, r: int) -> list:
    sizes = check_sizes(sizes, g.n)
    if len(sizes) != r:
        raise ParameterError(f"r={r} disagrees with the {len(sizes)} sizes {sizes}")
    _check_r(r, g.n)
    return sizes


def _check_omega(omega: float | None) -> None:
    if omega is None or not (0.0 < omega < 1.0):
        raise ParameterError(f"need 0 < omega < 1, got {omega}")


def build_known_sizes(g: Graph, sizes) -> SdpProblem:
    """Known-sizes program: maximize <A, X> subject to the sum constraint."""
    sizes = _check_sizes(g, sizes, len(sizes))
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


def _project_psd(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P, V): the projection of y onto the PSD cone and an orthonormal
    basis of its positive eigenspace, from a full eigendecomposition."""
    w, v = np.linalg.eigh(y)
    pos = w > 0
    vp = v[:, pos]
    return (vp * w[pos]) @ vp.T, vp


def _warm_projection(y: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(P, V) as `_project_psd` gives them, from the Rayleigh-Ritz pairs of
    y on the block Krylov space [v, yv, ..., y^s v] (s = KRYLOV_POWERS) when
    the proof below holds, else None.

    P = V diag(theta) V^T over the positive Ritz values theta and their
    Ritz vectors V.  A Cholesky factorization of P - y + delta I, delta =
    PROOF_SHIFT times the largest absolute Ritz value, proves y - P <=
    delta I: no positive eigenvalue above delta was missed.
    """
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


def _box_shift(y: np.ndarray, lb: float, total: float) -> float:
    """The shift t with sum(clip(y + t, lb, 1)) = total over the 1-D array y.

    With a = sort(lb - y) and w = 1 - lb, entry k sits at lb for t <= a_k,
    at 1 for t >= a_k + w, and between them moves with t, so the sum is
    nondecreasing and piecewise linear in t with knots at a and a + w.
    Bisection on t, each step placing t among the knots by binary search
    and summing from prefix sums of a, shrinks a bracket until no knot lies
    inside it; t then solves the linear equation over the entries free
    there.  A total outside [lb len(y), len(y)] gives an end of the range.
    """
    width = 1.0 - lb
    a = np.sort(lb - y)
    prefix = np.concatenate(([0.0], np.cumsum(a)))
    target = total - lb * len(a)  # the sum of clip(t - a, 0, w)

    def split(t):  # a[:j] are at 1 and a[j:i] are free at t
        return int(np.searchsorted(a, t - width, "right")), int(np.searchsorted(a, t, "right"))

    lo, hi = float(a[0]), float(a[-1]) + width
    at_lo, at_hi = split(lo), split(hi)
    for _ in range(60):  # the bracket's width reaches the rounding of t
        if at_lo == at_hi:
            break
        mid = 0.5 * (lo + hi)
        j, i = at_mid = split(mid)
        if j * width + (i - j) * mid - (prefix[i] - prefix[j]) < target:
            lo, at_lo = mid, at_mid
        else:
            hi, at_hi = mid, at_mid
    mid = 0.5 * (lo + hi)
    j, i = split(mid)
    if i == j:  # the sum is flat here: every t in the bracket meets it
        return mid
    return (target - j * width + float(np.sum(a[j:i]))) / (i - j)


def _project_box(y: np.ndarray, lb: float, j_target: float | None) -> np.ndarray:
    """The projection of the symmetric y onto C = {diag 1, lb <= entries <= 1,
    and <J, Z> = j_target when it is given}: clip(y + t, lb, 1) off the
    diagonal and 1 on it, with t = 0 without j_target and otherwise the
    shift (`_box_shift`, on the upper triangle) that meets the sum."""
    n = len(y)
    z = y.copy()
    if j_target is not None:
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        z += _box_shift(y[upper], lb, (j_target - n) / 2.0)
    np.clip(z, lb, 1.0, out=z)
    np.fill_diagonal(z, 1.0)
    return z


def solve(
    prob: SdpProblem, opts: SolverOptions | None = None, start: tuple | None = None
) -> SdpSolution:
    """Two-block ADMM between the PSD cone and the set C of `_project_box`:
    X = P_PSD(Z - U + C/rho), Z = P_C(X + U), U += X - Z, from Z = I and
    U = 0, or from `start` = (Z0, U0, basis), basis the orthonormal columns
    that seed the warm PSD projection (`admm_start`); U0 is copied, so no
    array of `start` changes.  P_PSD is `_warm_projection` from the basis of
    the last one's positive eigenspace when that has 1 to r columns, and
    the full `_project_psd` otherwise or when the warm proof fails.
    It stops when the primal residual |X - Z|/n and the dual
    residual rho |Z - Z_prev|/n are both below `tol`; every ADAPT_EVERY
    iterations rho doubles (halves) when the primal (dual) residual is more
    than 10 times the other, and U is rescaled by the inverse factor.
    Returns X, the PSD block, and <C, X>; never raises on non-convergence
    (the last iterate comes back with converged=False)."""
    opts = opts or SolverOptions()
    n = prob.n
    lb = -1.0 / (prob.r - 1)  # entrywise lower bound of the box
    c_mat = prob.objective
    rho = RHO
    if start is None:
        z, u = np.eye(n), np.zeros((n, n))
        basis = np.zeros((n, 0))  # positive eigenspace of the last PSD projection
    else:
        z, u, basis = start  # z and basis are only ever rebound
        u = np.array(u, dtype=float)
    scale = n  # residual normalization
    primal = dual = math.inf
    it = 0
    for it in range(1, opts.max_iters + 1):
        y = c_mat / rho
        y += z
        y -= u
        warm = _warm_projection(y, basis) if 1 <= basis.shape[1] <= prob.r else None
        x, basis = _project_psd(y) if warm is None else warm
        del y  # freed before the box projection
        z_new = _project_box(x + u, lb, prob.j_target)
        dual = rho * float(np.linalg.norm(z_new - z)) / scale
        z = z_new
        step = x - z
        u += step
        primal = float(np.linalg.norm(step)) / scale
        del step  # freed before the next iteration's projections
        if max(primal, dual) < opts.tol:
            break
        if it % ADAPT_EVERY == 0 and max(primal, dual) > 10.0 * min(primal, dual):
            factor = 2.0 if primal > dual else 0.5  # raise rho when primal lags
            rho *= factor
            u /= factor
    converged = max(primal, dual) < opts.tol
    return SdpSolution(
        X=x,
        objective=float(np.sum(c_mat * x)),
        primal_residual=primal,
        dual_residual=dual,
        iterations=it,
        converged=converged,
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


def _top_eigenpairs(g: Graph, w: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(theta, V): the k largest Ritz values of B = A - w J, descending, and
    their Ritz vectors, from block Lanczos on k + 2 columns, with
    B X = A X - w 1 (1^T X) computed by `Graph.matvec`."""

    def op(x):
        y = g.matvec(x)
        y -= w * x.sum(axis=0)
        return y

    return lanczos.extreme_pairs(op, g.n, k + 2, -1 - np.arange(k))


def round_to_partition(sol: SdpSolution, r: int) -> RoundingResult:
    """Read the partition off a solved matrix by its thresholded pattern.

    The pattern, 1 where X exceeds the midpoint between 1 and -1/(r-1) or on
    the diagonal and -1/(r-1) elsewhere, is entrywise the nearest matrix of
    those values to X; `max_deviation` is X's largest entrywise distance
    from it.  The labels are accepted only when the pattern is r disjoint
    cliques (it is then their centered partition matrix) and the deviation
    is at most ROUND_TOL.  On failure no centered partition matrix is within
    ROUND_TOL of X, and `max_deviation` bounds the distance to each below.
    """
    X = sol.X
    _check_r(r, len(X))
    low = -1.0 / (r - 1)
    same = X > 0.5 * (1.0 + low)
    np.fill_diagonal(same, True)
    deviation = float(np.max(np.abs(np.where(same, 1.0, low) - X)))
    labels = _labels_from_components(same, r)
    if labels is None or deviation > ROUND_TOL:
        return RoundingResult(labels=None, success=False, max_deviation=deviation)
    return RoundingResult(labels=labels, success=True, max_deviation=deviation)


def spectral_candidate(
    g: Graph, r: int, omega: float | None = None, sizes=None
) -> tuple[PartitionLabels, certificate.DualCertificate] | None:
    """The certificate's candidate partition and the paper's construction
    on it, unverified, or None.

    The candidate clusters the top r-1 eigenvectors of A - w J, where w is
    `omega`, or the edge density 2m/n^2 when no omega is given; they are
    computed from the edge pairs (`_top_eigenpairs`), with no n x n array.
    With `sizes` (known sizes) the candidate must have those sizes.  The
    edge densities p_hat, q_hat within and across its communities must
    satisfy 0 < q_hat < p_hat < 1; without `omega` the construction uses
    omega(p_hat, q_hat), the free multiplier of <J, X> with known sizes.

    Raises ParameterError on the inputs build_known_sizes and
    build_unknown_sizes reject, and when r is not the number of sizes; a
    candidate that fails any check above returns None.
    """
    if sizes is not None:
        sizes = sorted(_check_sizes(g, sizes, r))
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
    return labels, certificate.build_certificate(g, labels, params, omega=omega)


def certified_partition(
    g: Graph, r: int, omega: float | None = None, sizes=None
) -> tuple[PartitionLabels, certificate.CertificateReport] | None:
    """The `spectral_candidate` partition with its certificate report when
    the certificate proves it the unique optimum of the SDP, or None.

    The candidate is accepted only when the certificate verifies with a PSD
    margin above the verifier's tolerance: uniqueness needs Lambda strictly
    positive on the complement of span{1_i - 1_j}.  Raises ParameterError
    as `spectral_candidate` does.
    """
    return _certified(g, spectral_candidate(g, r, omega=omega, sizes=sizes))


def _certified(g: Graph, candidate):
    """(labels, report) when the candidate's certificate proves it, else None."""
    if candidate is None:
        return None
    labels, cert = candidate
    report = certificate.verify_certificate(g, labels, cert)
    return (labels, report) if report.unique_optimum else None


def admm_start(prob: SdpProblem, candidate) -> tuple | None:
    """The ADMM start (Z0, U0, basis) that a `spectral_candidate` gives
    `prob`, or None when there is no candidate or its construction is not
    sign-feasible.

    Z0 is the candidate's centered partition matrix X and U0 = (C + Lambda)/rho
    the scaled dual of its certificate Lambda = diag(nu) - A + L K^T, by one
    product of the certificate's factors (`certificate._factors`): with
    sizes C = A, and C + Lambda = diag(nu) + L K^T, where omega multiplies
    <J, X> = j_target; without them C = A - omega J, and C + Lambda =
    diag(nu) - Gamma is the same less the factors' omega J column.  The
    basis is an orthonormal basis of range(X) = span{1_i - 1_j}, r - 1
    columns.  Sign-feasible
    (`certificate.sign_minima` both positive) means Gamma > 0 off the
    diagonal blocks, so U0 lies in the normal cone of C at X; when Lambda is
    also PSD, (X, U0) is a fixed point of `solve`, and the first projection's
    warm proof on the basis holds, with no full eigendecomposition.
    """
    if candidate is None:
        return None
    labels, cert = candidate
    r_min, t_min = certificate.sign_minima(labels, cert)
    if not (r_min > 0.0 and t_min > 0.0):
        return None
    left, right = certificate._factors(labels, cert)
    if prob.j_target is None:  # C = A - omega J: drop the factors' omega J column
        left, right = left[:, 1:], right[:, 1:]
    u = left @ right.T
    u.flat[:: labels.n + 1] += cert.nu
    u /= RHO
    return centered_partition_matrix(labels), u, certificate.span_basis(labels)


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


def _build(g: Graph, r: int, sizes, omega: float | None) -> SdpProblem:
    """The known-sizes program when `sizes` is given, else the unknown-sizes
    one (which needs `omega`); raises ParameterError, before any work, when
    r is not the number of sizes."""
    if sizes is not None:
        return build_known_sizes(g, _check_sizes(g, sizes, r))
    return build_unknown_sizes(g, r, omega)


def _admm(prob: SdpProblem, opts: SolverOptions | None, candidate) -> Recovery:
    """Solve `prob` from the candidate's `admm_start` (cold when it has
    none), then round."""
    sol = solve(prob, opts, admm_start(prob, candidate))
    rounding = round_to_partition(sol, prob.r)
    return Recovery("admm", rounding.labels, sol.objective, sol.iterations,
                    sol.converged, rounding.max_deviation, sol.X)


def recover_admm(
    g: Graph, r: int, *, sizes=None, omega: float | None = None,
    opts: SolverOptions | None = None,
) -> Recovery:
    """Solve the known-sizes program when `sizes` is given and the
    unknown-sizes one (which needs `omega`) otherwise, started from the
    spectral candidate when `admm_start` accepts it, then round.  Raises
    ParameterError, before any work, when r is not the number of sizes."""
    prob = _build(g, r, sizes, omega)
    return _admm(prob, opts, spectral_candidate(g, r, omega=omega, sizes=sizes))


def recover(
    g: Graph, r: int, *, sizes=None, omega: float | None = None,
    opts: SolverOptions | None = None,
) -> Recovery:
    """The `spectral_candidate` when its certificate proves it, with its
    objective in closed form (<A, X> with `sizes`, <A - omega J, X>
    without); otherwise `recover_admm` with the same arguments, started from
    that same candidate, computed once."""
    if sizes is None:
        _check_omega(omega)
    else:
        _check_sizes(g, sizes, r)
    candidate = spectral_candidate(g, r, omega=omega, sizes=sizes)
    certified = _certified(g, candidate)
    if certified is None:
        return _admm(_build(g, r, sizes, omega), opts, candidate)
    labels, _ = certified
    _, e_ij = certificate.edge_counts(g, labels)
    omega_j = 0.0 if sizes is not None else omega
    objective = certificate.partition_objective(e_ij, labels.sizes(), omega_j)
    return Recovery("certificate", labels, objective, 0, True, 0.0)
