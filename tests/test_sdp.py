import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppm_sdp import certificate, sdp
from ppm_sdp.graph_model import (
    Graph,
    PartitionLabels,
    PlantedPartitionParams,
    sample_ppm,
)
from ppm_sdp.harness import labels_agree
from ppm_sdp.sdp import (
    RoundingResult,
    SdpSolution,
    SolverOptions,
    _project_psd,
    build_known_sizes,
    _labels_from_components,
    build_unknown_sizes,
    centered_partition_matrix,
    j_constraint_target,
    objective_value,
    round_to_partition,
    solve,
    spectral_candidate,
)
from ppm_sdp.thresholds import ParameterError, compute_omega


def two_triangles():
    edges = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}
    g = Graph(n=6, edges=frozenset(edges))
    truth = PartitionLabels(labels=(0, 0, 0, 1, 1, 1), r=2)
    return g, truth


def exact_solution(labels, objective=0.0):
    x = centered_partition_matrix(labels)
    return SdpSolution(
        X=x,
        objective=objective,
        primal_residual=0.0,
        dual_residual=0.0,
        iterations=0,
        converged=True,
    )


class TestCenteredPartitionMatrix:
    def test_entries(self):
        lab = PartitionLabels(labels=(0, 0, 1, 2), r=3)
        x = centered_partition_matrix(lab)
        assert x[0, 1] == 1.0 and x[0, 0] == 1.0
        assert x[0, 2] == pytest.approx(-0.5)

    def test_psd_rank(self):
        lab = PartitionLabels(labels=(0, 0, 0, 1, 1, 2, 2, 2), r=3)
        w = np.linalg.eigvalsh(centered_partition_matrix(lab))
        assert w.min() > -1e-12
        assert int(np.sum(w > 1e-9)) == lab.r - 1


class TestProblemBuilders:
    def test_j_targets(self):
        assert j_constraint_target((3, 3)) == 0.0
        assert j_constraint_target((2, 2)) == 0.0
        assert j_constraint_target((3, 2)) == 1.0

    def test_known_sizes_validation(self):
        g = Graph(n=4, edges=frozenset())
        with pytest.raises(ParameterError):
            build_known_sizes(g, (3, 3))

    def test_unknown_sizes_validation(self):
        g = Graph(n=4, edges=frozenset())
        with pytest.raises(ParameterError):
            build_unknown_sizes(g, 2, 0.0)
        with pytest.raises(ParameterError):
            build_unknown_sizes(g, 2, 1.0)
        with pytest.raises(ParameterError):
            build_unknown_sizes(g, 1, 0.5)

    def test_omega_matches_model(self):
        par = PlantedPartitionParams(n=200, r=2, pi=(0.5, 0.5), p_tilde=12, q_tilde=2)
        omega = compute_omega(par.p, par.q)
        prob = build_unknown_sizes(Graph(n=200, edges=frozenset()), 2, omega)
        assert np.all(prob.objective == -omega)  # A - omega J with A = 0
        assert par.q < omega < par.p


class TestObjectiveValue:
    def test_two_triangles_value(self):
        g, truth = two_triangles()
        assert objective_value(g, centered_partition_matrix(truth)) == pytest.approx(12.0)

    def test_zero_omega_reduces_to_adjacency_inner_product(self):
        g, truth = two_triangles()
        x = centered_partition_matrix(truth)
        assert objective_value(g, x, omega=0.0) == objective_value(g, x)

    def test_intra_addition_adds_exactly_two(self):
        par = PlantedPartitionParams(n=60, r=3, pi=(0.4, 0.3, 0.3), p_tilde=10, q_tilde=2)
        g, truth = sample_ppm(par, 1)
        x = centered_partition_matrix(truth)
        base = objective_value(g, x, omega=0.2)
        lab = truth.as_array()
        u, v = next(
            (u, v)
            for u, v in itertools.combinations(range(g.n), 2)
            if lab[u] == lab[v] and (u, v) not in g.edges
        )
        g2 = Graph(n=g.n, edges=g.edges | {(u, v)})
        assert objective_value(g2, x, omega=0.2) - base == pytest.approx(2.0, abs=1e-12)

    def test_inter_removal_adds_two_over_r_minus_one(self):
        par = PlantedPartitionParams(n=60, r=3, pi=(0.4, 0.3, 0.3), p_tilde=10, q_tilde=2)
        g, truth = sample_ppm(par, 1)
        x = centered_partition_matrix(truth)
        base = objective_value(g, x)
        lab = truth.as_array()
        u, v = next((u, v) for u, v in sorted(g.edges) if lab[u] != lab[v])
        g2 = Graph(n=g.n, edges=g.edges - {(u, v)})
        assert objective_value(g2, x) - base == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        g, _ = two_triangles()
        with pytest.raises(ParameterError):
            objective_value(g, np.eye(5))


class TestTruthFeasibility:
    def test_constraints_hold_exactly(self):
        par = PlantedPartitionParams(n=50, r=3, pi=(0.5, 0.3, 0.2), p_tilde=10, q_tilde=2)
        _, truth = sample_ppm(par, 0)
        x = centered_partition_matrix(truth)
        assert np.all(np.diag(x) == 1.0)
        assert x.min() == pytest.approx(-0.5)
        assert np.linalg.eigvalsh(x).min() > -1e-10
        # the all-ones-sum identity holds as an integer identity
        assert float(x.sum()) == pytest.approx(
            j_constraint_target(truth.sizes()), abs=1e-9
        )


class TestSolve:
    def test_two_triangles_known_sizes(self):
        g, truth = two_triangles()
        sol = solve(build_known_sizes(g, (3, 3)))
        assert sol.converged
        assert np.max(np.abs(sol.X - centered_partition_matrix(truth))) < 1e-4

    def test_solution_invariants(self):
        par = PlantedPartitionParams(n=150, r=2, pi=(0.5, 0.5), p_tilde=18, q_tilde=2)
        g, truth = sample_ppm(par, 7)
        omega = compute_omega(par.p, par.q)
        sol = solve(build_unknown_sizes(g, 2, omega))
        assert sol.converged
        assert np.max(np.abs(np.diag(sol.X) - 1.0)) < 1e-4
        assert sol.X.min() >= -1.0 - 1e-4
        assert np.linalg.eigvalsh(sol.X).min() >= -1e-4
        rounding = round_to_partition(sol, 2)
        assert rounding.success and labels_agree(rounding.labels, truth)
        # rank check: eigenvalues past the top r-1 are numerically negligible
        w = np.sort(np.linalg.eigvalsh(sol.X))[::-1]
        assert np.max(np.abs(w[truth.r - 1:])) < 1e-3 * g.n

    def test_empty_graph_rounding_fails(self):
        g = Graph(n=6, edges=frozenset())
        sol = solve(build_unknown_sizes(g, 2, 0.3))
        assert sol.converged
        # candidate partition objectives are all <= 0
        for labels in [(0, 0, 0, 1, 1, 1), (0, 0, 0, 0, 0, 1)]:
            x = centered_partition_matrix(PartitionLabels(labels, 2))
            assert objective_value(g, x, omega=0.3) <= 0.0
        rounding = round_to_partition(sol, 2)
        assert not rounding.success
        assert math.isfinite(rounding.max_deviation) or rounding.labels is None

    def test_non_convergence_returns_best_iterate(self):
        g, _ = two_triangles()
        sol = solve(build_known_sizes(g, (3, 3)), SolverOptions(max_iters=3))
        assert not sol.converged
        assert sol.iterations == 3
        assert sol.X.shape == (6, 6)

    def test_omega_misspecification_tolerance(self):
        par = PlantedPartitionParams(n=150, r=2, pi=(0.5, 0.5), p_tilde=18, q_tilde=2)
        g, truth = sample_ppm(par, 7)
        omega = compute_omega(par.p, par.q)
        for factor in (0.98, 1.02):
            sol = solve(build_unknown_sizes(g, 2, omega * factor))
            rounding = round_to_partition(sol, 2)
            assert rounding.success and labels_agree(rounding.labels, truth)


def reference_projection(y):
    """(P, |y|): the PSD projection from a full eigendecomposition, the
    dense reference for `solve`'s projections, and the spectral norm of y."""
    w, v = np.linalg.eigh(y)
    pos = w > 0
    return (v[:, pos] * w[pos]) @ v[:, pos].T, float(np.max(np.abs(w)))


def reference_solve(prob, opts):
    """The two-block loop of a cold `solve` with the reference projection on
    every iteration.  Returns (X, its)."""
    n, lb, rho = prob.n, -1.0 / (prob.r - 1), sdp.RHO
    z, u = np.eye(n), np.zeros((n, n))
    for it in range(1, opts.max_iters + 1):
        y = prob.objective / rho + z - u
        x, _ = reference_projection(y)
        z_prev, z = z, sdp._project_box(x + u, lb, prob.j_target)
        u = u + (x - z)
        primal = float(np.linalg.norm(x - z)) / n
        dual = rho * float(np.linalg.norm(z - z_prev)) / n
        if max(primal, dual) < opts.tol:
            break
        if it % sdp.ADAPT_EVERY == 0:
            if primal > 10.0 * dual:
                rho *= 2.0
                u = u / 2.0
            elif dual > 10.0 * primal:
                rho /= 2.0
                u = u * 2.0
    return x, it


def spectrum_matrix(eigenvalues, seed):
    """A symmetric matrix with the given eigenvalues and its eigenvectors
    (columns, in the same order), from a seeded random rotation."""
    n = len(eigenvalues)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    y = (q * np.asarray(eigenvalues)) @ q.T
    return 0.5 * (y + y.T), q


def record_projections(monkeypatch, r):
    """Wrap `solve`'s two PSD projections.  The returned list logs each call
    as ("full", columns of the basis returned) or ("warm", columns of the
    basis given, whether the proof held); a warm try must be given 1 to r
    columns, and each proved warm P must be entrywise within 1e-13 |Y| of
    the full eigh."""
    log = []
    full, warm = sdp._project_psd, sdp._warm_projection

    def counted_full(y):
        p, v = full(y)
        log.append(("full", v.shape[1]))
        return p, v

    def checked_warm(y, v):
        assert 1 <= v.shape[1] <= r
        out = warm(y, v)
        log.append(("warm", v.shape[1], out is not None))
        if out is not None:
            want, norm = reference_projection(y)
            assert np.max(np.abs(out[0] - want)) <= 1e-13 * norm
        return out

    monkeypatch.setattr(sdp, "_project_psd", counted_full)
    monkeypatch.setattr(sdp, "_warm_projection", checked_warm)
    return log


class TestWarmProjection:
    """The PSD projection warm-started from the last positive eigenspace
    against the full-eigh reference."""

    PARAMS = PlantedPartitionParams(n=300, r=3, pi=(0.5, 0.3, 0.2), p_tilde=21, q_tilde=2)
    OPTS = SolverOptions(tol=1e-5, max_iters=5000)

    @pytest.mark.parametrize("seed", [401, 402, 403])
    def test_known_sizes_solve_matches_the_reference(self, seed, monkeypatch):
        # the cold solve takes the reference's iteration count and ends
        # within 1e-12 of its X.  The iterate's rank falls to r - 1 over the
        # first few iterations, each a full eigh, and that start is most of
        # a 15-iteration solve: 8 or 9 of them run the eigh.  Started from
        # the candidate, the solve stops after one warm projection on the
        # start's r - 1 columns, next to the reference's X
        g, truth = sample_ppm(self.PARAMS, seed)
        prob = build_known_sizes(g, truth.sizes())
        x_ref, iterations = reference_solve(prob, self.OPTS)
        log = record_projections(monkeypatch, prob.r)
        sol = solve(prob, self.OPTS)
        fulls = sum(e[0] == "full" for e in log)
        proved = sum(e[0] == "warm" and e[2] for e in log)
        assert sol.iterations == iterations == fulls + proved
        assert fulls <= 10
        assert np.max(np.abs(sol.X - x_ref)) <= 1e-12
        log.clear()
        start = sdp.admm_start(prob, sdp.spectral_candidate(g, 3, sizes=truth.sizes()))
        started = solve(prob, self.OPTS, start)
        assert started.converged and started.iterations == 1
        assert log == [("warm", 2, True)]
        assert np.max(np.abs(started.X - x_ref)) <= 1e-3
        assert labels_agree(round_to_partition(started, 3).labels, truth)

    def test_full_projections_reproduce_the_reference_bit_for_bit(self, monkeypatch):
        # below the threshold the iterate's rank stays above r, so every
        # projection is a full eigh and the loop must be the reference's
        par = PlantedPartitionParams(n=120, r=2, pi=(0.5, 0.5), p_tilde=4, q_tilde=2)
        g, truth = sample_ppm(par, 3)
        prob = build_known_sizes(g, truth.sizes())
        opts = SolverOptions(tol=1e-5, max_iters=150)
        x_ref, iterations = reference_solve(prob, opts)
        log = record_projections(monkeypatch, prob.r)
        sol = solve(prob, opts)
        assert sol.iterations == iterations == len(log)
        assert all(kind == "full" for kind, *_ in log)
        assert np.array_equal(sol.X, x_ref)

    def test_a_missed_positive_eigenvalue_fails_the_proof(self):
        # the warm basis spans the eigenvectors of 5 and 3, and the Krylov
        # space never leaves it, so the third positive eigenvalue 2 is
        # missed and the Cholesky proof rejects.  From the full eigh's
        # basis, or from the whole space, the warm projection agrees with it
        eigenvalues = [5.0, 3.0, 2.0] + np.linspace(-4.0, -0.5, 57).tolist()
        y, q = spectrum_matrix(eigenvalues, 0)
        want, norm = reference_projection(y)
        assert sdp._warm_projection(y, q[:, :2]) is None
        p, basis = _project_psd(y)
        assert basis.shape == (60, 3) and np.array_equal(p, want)
        for v in (basis, q):
            p, found = sdp._warm_projection(y, v)
            assert found.shape == (60, 3)
            assert np.max(np.abs(p - want)) <= 1e-13 * norm

    def test_rank_outside_one_to_r_runs_the_full_eigh(self, monkeypatch):
        # a warm try needs the last positive eigenspace to have 1 to r
        # columns: from the fixed point's start with a basis of 0 or r + 1
        # columns, the first projection is the full eigh
        g, truth = sample_ppm(self.PARAMS, 401)
        prob = build_known_sizes(g, truth.sizes())
        z, u, basis = sdp.admm_start(prob, sdp.spectral_candidate(g, 3, sizes=truth.sizes()))
        wide = np.linalg.qr(np.hstack([basis, np.eye(g.n)[:, :2]]))[0]
        log = record_projections(monkeypatch, prob.r)
        for v in (basis[:, :0], wide):
            log.clear()
            solve(prob, SolverOptions(max_iters=1), (z, u, v))
            assert [kind for kind, *_ in log] == ["full"]
        # a warm try that finds no positive Ritz value proves P = 0; its
        # basis of 0 columns then sends the next projection to the full eigh
        p, v = sdp._warm_projection(-np.eye(5), np.eye(5)[:, :1])
        assert v.shape == (5, 0) and not p.any()

    def test_the_warm_proof_holds_at_n_600(self, monkeypatch):
        # the Cholesky proof fails when the iterate's r-th eigenvalue falls
        # to 0, as it did on 16 warm tries of this solve under a three-set
        # consensus loop; no warm try may fail here
        par = PlantedPartitionParams(n=600, r=3, pi=(0.5, 0.3, 0.2), p_tilde=21, q_tilde=2)
        g, _ = sample_ppm(par, 401)
        warm = sdp._warm_projection
        failed = []

        def counted(y, v):
            out = warm(y, v)
            failed.append(out is None)
            return out

        monkeypatch.setattr(sdp, "_warm_projection", counted)
        sol = solve(build_unknown_sizes(g, 3, compute_omega(par.p, par.q)), self.OPTS)
        assert sol.converged and len(failed) > 0
        assert sum(failed) == 0


def bisection_box(y, lb, j_target):
    """The projection onto C with the shift found by 200 bisection passes
    over the whole off-diagonal: the reference for `sdp._project_box`."""
    n = len(y)
    z = y.copy()
    if j_target is not None:
        off = y[~np.eye(n, dtype=bool)]
        lo, hi = lb - off.max(), 1.0 - off.min()
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.clip(off + mid, lb, 1.0).sum() < j_target - n:
                lo = mid
            else:
                hi = mid
        z += 0.5 * (lo + hi)
    z = np.clip(z, lb, 1.0)
    np.fill_diagonal(z, 1.0)
    return z


def random_symmetric(n, seed, offset=0.0, spread=1.0):
    y = offset + spread * np.random.default_rng(seed).standard_normal((n, n))
    return 0.5 * (y + y.T)


def random_sizes(n, r, seed):
    cuts = np.sort(np.random.default_rng(seed).choice(np.arange(1, n), r - 1, replace=False))
    return np.diff(np.concatenate(([0], cuts, [n])))


@st.composite
def box_cases(draw):
    """(Y, r, j_target or None): a random symmetric Y, n = 2..40, spread and
    offset varied so that few, some or most entries are clipped."""
    n = draw(st.integers(2, 40))
    r = draw(st.integers(2, n))
    seed = draw(st.integers(0, 2**32 - 1))
    y = random_symmetric(
        n, seed, draw(st.floats(-2.0, 2.0)), draw(st.sampled_from([0.01, 0.3, 1.0, 4.0]))
    )
    known = draw(st.booleans())
    return y, r, j_constraint_target(random_sizes(n, r, seed)) if known else None


class TestProjectBox:
    """The projection onto C = {diag 1, box, <J, Z> = t with known sizes}."""

    def check(self, y, r, j_target):
        n, lb = len(y), -1.0 / (r - 1)
        z = sdp._project_box(y, lb, j_target)
        assert np.all(np.diag(z) == 1.0)
        assert z.min() >= lb and z.max() <= 1.0
        if j_target is not None:
            assert abs(float(z.sum()) - j_target) <= 1e-9 * n * n
        assert np.max(np.abs(z - bisection_box(y, lb, j_target))) <= 1e-12
        return z

    @pytest.mark.parametrize("known", [True, False])
    @pytest.mark.parametrize("n, r, seed", [(2, 2, 0), (7, 3, 1), (25, 4, 2), (40, 2, 3), (40, 9, 4)])
    def test_matches_the_bisection_reference(self, n, r, seed, known):
        sizes = random_sizes(n, r, seed)
        self.check(random_symmetric(n, seed), r, j_constraint_target(sizes) if known else None)

    @settings(max_examples=300, deadline=None)
    @given(box_cases())
    def test_matches_the_bisection_reference_on_random_inputs(self, case):
        self.check(*case)

    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_every_entry_at_a_bound(self, r):
        # a stretched partition matrix projects onto the partition matrix:
        # the sum is flat over a whole interval of shifts
        labels = PartitionLabels(tuple(np.arange(30) % r), r)
        x = centered_partition_matrix(labels)
        z = self.check(3.0 * x, r, j_constraint_target(labels.sizes()))
        assert np.max(np.abs(z - x)) <= 1e-12
        # every vertex its own community: every entry at the lower bound
        z = self.check(random_symmetric(6, r), 6, j_constraint_target((1,) * 6))
        assert np.max(np.abs(z[~np.eye(6, dtype=bool)] + 0.2)) <= 1e-12
        for y, bound in ((np.full((5, 5), 2.0), 1.0), (np.full((5, 5), -3.0), -1.0 / (r - 1))):
            z = self.check(y, r, None)
            assert np.all(z[~np.eye(5, dtype=bool)] == bound)

    def test_r_2_has_lower_bound_minus_one(self):
        sizes = (12, 8)
        z = self.check(random_symmetric(20, 5, spread=3.0), 2, j_constraint_target(sizes))
        assert z.min() == -1.0


class TestSolutionAccuracy:
    """At the desk parameters, on seeds whose planted partition the dual
    certificate proves optimal in both modes, the ADMM solution reaches the
    certified optimum."""

    PARAMS = PlantedPartitionParams(n=300, r=3, pi=(0.5, 0.3, 0.2), p_tilde=21, q_tilde=2)
    OPTS = SolverOptions(tol=1e-5, max_iters=5000)

    @pytest.mark.parametrize("seed", [0, 1, 2, 401])
    def test_objective_and_solution_match_the_certificate(self, seed):
        g, truth = sample_ppm(self.PARAMS, seed)
        omega = compute_omega(self.PARAMS.p, self.PARAMS.q)
        for kwargs, prob, omega_j in (
            ({"omega": omega}, build_unknown_sizes(g, 3, omega), omega),
            ({"sizes": truth.sizes()}, build_known_sizes(g, truth.sizes()), 0.0),
        ):
            labels, cert = spectral_candidate(g, 3, **kwargs)
            assert certificate.verify_certificate(g, labels, cert).unique_optimum
            _, e_ij = certificate.edge_counts(g, labels)
            optimum = certificate.partition_objective(e_ij, labels.sizes(), omega_j)
            sol = solve(prob, self.OPTS)
            assert sol.converged
            assert abs(sol.objective - optimum) <= 1e-6 * abs(optimum)
            assert np.max(np.abs(sol.X - centered_partition_matrix(labels))) <= 1e-3
            assert round_to_partition(sol, 3).labels == labels


def round_by_threshold_then_kmeans(x, r):
    """(labels or None, deviation) by the rule rounding used to follow:
    labels from the thresholded pattern, or else k-means on the top r-1
    eigenpairs of a dense eigh of x; accepted within ROUND_TOL."""
    same = x > 0.5 * (1.0 - 1.0 / (r - 1))
    np.fill_diagonal(same, True)
    labels = _labels_from_components(same, r)
    if labels is None:
        w, v = np.linalg.eigh(x)
        labels = sdp._eigen_labels(w[-(r - 1):], v[:, -(r - 1):], r)
    if labels is None:
        return None, math.inf
    deviation = float(np.max(np.abs(centered_partition_matrix(labels) - x)))
    return (labels if deviation <= sdp.ROUND_TOL else None), deviation


@st.composite
def near_partition_matrices(draw):
    """(X, r): a centered partition matrix for random labels in 0..r-1 (a
    community may be empty), scaled and given symmetric uniform noise, so
    exact, near and far partitions all occur; n = 2..30, r = 2..min(n, 6)."""
    n = draw(st.integers(2, 30))
    r = draw(st.integers(2, min(n, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.integers(0, r, size=n)
    x = np.where(labels[:, None] == labels[None, :], 1.0, -1.0 / (r - 1))
    x *= draw(st.sampled_from([1.0, 1.0, 0.97, 0.5]))
    noise = rng.uniform(-1.0, 1.0, size=(n, n))
    x += draw(st.sampled_from([0.0, 0.01, 0.09, 0.12, 0.3, 1.0])) * 0.5 * (noise + noise.T)
    return x, r


class TestRounding:
    def test_exact_input(self):
        lab = PartitionLabels(labels=(0, 0, 1, 1, 2), r=3)
        result = round_to_partition(exact_solution(lab), 3)
        assert result.success and result.max_deviation == 0.0
        assert labels_agree(result.labels, lab)

    def test_small_noise_same_labels(self):
        lab = PartitionLabels(labels=(0, 0, 0, 1, 1, 1, 2, 2), r=3)
        sol = exact_solution(lab)
        rng = np.random.default_rng(0)
        noise = rng.uniform(-1e-3, 1e-3, size=(8, 8))
        sol.X = sol.X + 0.5 * (noise + noise.T)
        result = round_to_partition(sol, 3)
        assert result.success and labels_agree(result.labels, lab)

    def test_all_ones_matrix_fails(self):
        sol = SdpSolution(
            X=np.ones((4, 4)),
            objective=0.0,
            primal_residual=0.0,
            dual_residual=0.0,
            iterations=0,
            converged=True,
        )
        result = round_to_partition(sol, 2)
        assert not result.success

    def test_failure_reports_deviation(self):
        lab = PartitionLabels(labels=(0, 0, 1, 1), r=2)
        sol = exact_solution(lab)
        sol.X = sol.X * 0.5  # large entrywise deviation from any partition
        result = round_to_partition(sol, 2)
        assert not result.success
        assert result.max_deviation > 0.1

    @settings(max_examples=300, deadline=None)
    @given(near_partition_matrices())
    def test_matches_the_two_path_rule(self, case):
        x, r = case
        result = round_to_partition(SdpSolution(x, 0.0, 0.0, 0.0, 0, True), r)
        labels, deviation = round_by_threshold_then_kmeans(x, r)
        assert result.success == (labels is not None)
        assert result.labels == labels
        if result.success:
            assert result.max_deviation == deviation


def labels_by_component_loop(same, r):
    """The per-vertex loop `_labels_from_components` replaced: grow each
    vertex's block, require it complete and closed, count r blocks."""
    n = same.shape[0]
    labels = -np.ones(n, dtype=int)
    comp = 0
    for v in range(n):
        if labels[v] >= 0:
            continue
        members = np.flatnonzero(same[v])
        if np.any(labels[members] >= 0):
            return None
        if not np.all(same[np.ix_(members, members)]):
            return None
        outside = np.ones(n, dtype=bool)
        outside[members] = False
        if np.any(same[np.ix_(members, np.flatnonzero(outside))]):
            return None
        labels[members] = comp
        comp += 1
    if comp != r:
        return None
    return PartitionLabels(labels=tuple(labels.tolist()), r=r)


@st.composite
def same_community_relations(draw):
    """A symmetric boolean matrix with a true diagonal, as rounding builds
    it: a class-equality matrix with some symmetric pairs flipped (none,
    often), so both equivalence relations and near misses occur."""
    n = draw(st.integers(1, 9))
    assign = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    same = assign[:, None] == assign[None, :]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        for u, v in draw(st.lists(st.sampled_from(pairs), max_size=3)):
            same[u, v] = same[v, u] = not same[u, v]
    return same, draw(st.integers(1, 4))


class TestLabelsFromComponents:
    @settings(max_examples=400, deadline=None)
    @given(same_community_relations())
    def test_matches_the_component_loop(self, case):
        same, r = case
        got = _labels_from_components(same, r)
        want = labels_by_component_loop(same, r)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.labels == want.labels

    def test_rejects_a_relation_that_is_not_transitive(self):
        same = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=bool)
        assert _labels_from_components(same, 2) is None
        assert labels_by_component_loop(same, 2) is None


class TestSpectralCandidate:
    PARAMS = PlantedPartitionParams(n=300, r=3, pi=(0.5, 0.3, 0.2), p_tilde=21, q_tilde=2)

    def test_both_modes_certify_the_planted_partition(self):
        g, truth = sample_ppm(self.PARAMS, 1)
        omega = compute_omega(self.PARAMS.p, self.PARAMS.q)
        for kwargs in ({"omega": omega}, {"sizes": truth.sizes()}):
            labels, cert = spectral_candidate(g, 3, **kwargs)
            report = certificate.verify_certificate(g, labels, cert)
            assert labels_agree(labels, truth)
            assert report.verified and report.psd_margin > report.psd_tol

    def test_sizes_the_candidate_cannot_match(self):
        g, _ = sample_ppm(self.PARAMS, 1)
        assert spectral_candidate(g, 3, sizes=(100, 100, 100)) is None

    def test_no_candidate_on_the_empty_graph(self):
        g = Graph(n=8, edges=frozenset())
        assert spectral_candidate(g, 2, omega=0.3) is None
        assert spectral_candidate(g, 2, sizes=(4, 4)) is None

    def test_singleton_communities_give_no_density(self):
        g, _ = two_triangles()
        assert spectral_candidate(g, 6, sizes=(1,) * 6) is None

    def test_hands_the_certificate_its_own_densities(self, monkeypatch):
        """No model is made: the construction gets the candidate's p_hat and
        q_hat from `edge_counts`, and `omega` as it was given."""

        def refuse(_):
            raise AssertionError("spectral_candidate built a model")

        def spy(g, labels, p, q, omega=None):
            seen.append((p, q, omega))
            return build(g, labels, p, q, omega=omega)

        seen, build = [], certificate.build_certificate
        g, truth = sample_ppm(self.PARAMS, 1)
        monkeypatch.setattr(PlantedPartitionParams, "__post_init__", refuse)
        monkeypatch.setattr(certificate, "build_certificate", spy)
        for kwargs in ({"omega": 0.15}, {"sizes": truth.sizes()}):
            labels, cert = spectral_candidate(g, 3, **kwargs)
            sizes = labels.sizes()
            _, e_ij = certificate.edge_counts(g, labels)
            within = float(np.trace(e_ij)) / 2.0
            p_hat = within / (float(np.sum(sizes * (sizes - 1))) / 2.0)
            across = float(np.sum(e_ij)) / 2.0 - within
            q_hat = across / ((g.n**2 - float(np.sum(sizes**2))) / 2.0)
            assert seen.pop() == (p_hat, q_hat, kwargs.get("omega"))
            assert cert.omega == kwargs.get("omega", compute_omega(p_hat, q_hat))

    def test_bad_inputs_raise_as_the_builders_do(self):
        g, _ = two_triangles()
        with pytest.raises(ParameterError, match="do not sum"):
            spectral_candidate(g, 2, sizes=(2, 2))
        with pytest.raises(ParameterError, match="omega"):
            spectral_candidate(g, 2, omega=1.5)
        with pytest.raises(ParameterError, match="r >= 2"):
            spectral_candidate(g, 1, omega=0.3)
        with pytest.raises(ParameterError, match="r <= n"):
            spectral_candidate(g, 7, omega=0.3)


MATRIX_FREE_TOP = sdp._top_eigenpairs  # saved: certified_both_ways patches sdp's name


def dense_top_eigenpairs(g, w, k):
    """The eigenpairs before the matrix-free ones: a full eigh of the dense
    A - w J, the reference `sdp._top_eigenpairs` must agree with."""
    theta, v = np.linalg.eigh(g.adjacency() - w)
    return theta[-k:], v[:, -k:]


def candidates(g, r, w):
    """The candidate labels (or None) from the matrix-free eigenpairs and
    from the dense reference."""
    out = []
    for top in (MATRIX_FREE_TOP, dense_top_eigenpairs):
        labels = sdp._eigen_labels(*top(g, w, r - 1), r)
        out.append(None if labels is None else labels.labels)
    return out


def certified_both_ways(g, r, monkeypatch, **kwargs):
    """(labels, report JSON) or None from `spectral_candidate` and the
    verified certificate, with the matrix-free eigenpairs and then with the
    dense reference."""
    out = []
    for top in (MATRIX_FREE_TOP, dense_top_eigenpairs):
        monkeypatch.setattr(sdp, "_top_eigenpairs", top)
        got = spectral_candidate(g, r, **kwargs)
        report = got and certificate.verify_certificate(g, *got)
        out.append(got and (got[0].labels, json.dumps(report.to_dict())))
    return out


GRID_PI = {2: (0.6, 0.4), 3: (0.5, 0.3, 0.2), 4: (0.4, 0.3, 0.2, 0.1)}


class TestMatrixFreeCandidate:
    """The candidate's eigenpairs come from block Krylov on the edge pairs;
    its labels, and so every verdict, equal the dense eigh's."""

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("p_tilde", [10, 12, 14, 21])
    @pytest.mark.parametrize("n", [120, 300, 600])
    def test_matches_the_dense_candidate(self, n, p_tilde, r, monkeypatch):
        par = PlantedPartitionParams(n=n, r=r, pi=GRID_PI[r], p_tilde=p_tilde, q_tilde=2)
        g, truth = sample_ppm(par, 1000 * r + n + p_tilde)
        omega = compute_omega(par.p, par.q)
        for w in (omega, 2.0 * g.m / n**2):
            got, want = candidates(g, r, w)
            assert got == want
        for kwargs in ({"omega": omega}, {}, {"sizes": truth.sizes()}):
            got, want = certified_both_ways(g, r, monkeypatch, **kwargs)
            assert got == want

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_the_dense_candidate_at_n_2000(self, seed, monkeypatch):
        par = PlantedPartitionParams(n=2000, r=3, pi=GRID_PI[3], p_tilde=12, q_tilde=2)
        g, _ = sample_ppm(par, seed)
        omega = compute_omega(par.p, par.q)
        got, want = candidates(g, 3, omega)
        assert got is not None and got == want
        got, want = certified_both_ways(g, 3, monkeypatch, omega=omega)
        assert got == want

    @staticmethod
    def assert_exact_top_pairs(g, r):
        """The candidate's r - 1 Ritz pairs are the top eigenpairs of the
        dense A - w J, w the edge density, to rounding."""
        w = 2.0 * g.m / g.n**2
        theta, v = sdp._top_eigenpairs(g, w, r - 1)
        b = g.adjacency() - w
        eig = np.linalg.eigvalsh(b)[::-1][: r - 1]
        scale = max(1.0, float(np.abs(eig).max()))
        assert np.allclose(theta, eig, rtol=0, atol=1e-12 * scale)
        assert np.allclose(v.T @ v, np.eye(r - 1), atol=1e-12)
        assert np.abs(b @ v - v * theta).max() <= 1e-10 * scale
        return theta, v

    @pytest.mark.parametrize("n, r", [(2, 2), (3, 2), (4, 3), (5, 2), (6, 5), (8, 4), (12, 6)])
    def test_exact_when_the_block_reaches_n(self, n, r):
        # r + 1 start columns, clamped to n: the basis spans the whole space
        # within two steps, before the first convergence check, so the next
        # block is empty and the Ritz pairs are exact
        rng = np.random.default_rng(n)
        g = Graph(n, np.argwhere(np.triu(rng.random((n, n)) < 0.5, 1)))
        self.assert_exact_top_pairs(g, r)

    @pytest.mark.parametrize("graph", ["empty", "complete", "cliques"])
    def test_exact_on_degenerate_spectra(self, graph):
        # n = 60 with 4 start columns: A - w J has at most three distinct
        # eigenvalues (0; 0 and -1; 19 twice, 0 and -1), so the Krylov space
        # is invariant within two steps and the next block comes out empty
        n, r = 60, 3
        cliques = np.repeat(np.arange(3), 20)
        same = {"empty": np.zeros((n, n), dtype=bool), "complete": np.ones((n, n), dtype=bool),
                "cliques": cliques[:, None] == cliques[None, :]}[graph]
        g = Graph(n, np.argwhere(np.triu(same, 1)))
        theta, v = self.assert_exact_top_pairs(g, r)
        if graph == "cliques":  # both copies of 19 found: the labels are the cliques
            labels = sdp._eigen_labels(theta, v, r)
            assert labels.labels == tuple(cliques.tolist())

    def test_no_adjacency_is_built(self, monkeypatch):
        g, truth = sample_ppm(TestSpectralCandidate.PARAMS, 1)

        def refuse(self):
            raise AssertionError("the candidate built the dense adjacency")

        monkeypatch.setattr(Graph, "adjacency", refuse)
        labels, cert = spectral_candidate(g, 3)
        report = certificate.verify_certificate(g, labels, cert)
        assert labels_agree(labels, truth) and report.unique_optimum


class TestSolverOptions:
    # True once passed as tol 1.0
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, True])
    def test_rejects_a_tol_that_is_not_finite_and_positive(self, tol):
        with pytest.raises(ParameterError, match="tol"):
            SolverOptions(tol=tol)

    def test_rejects_max_iters_below_one(self):
        for bad in (0, True):  # True once ran one iteration
            with pytest.raises(ParameterError, match="max_iters"):
                SolverOptions(max_iters=bad)
        assert SolverOptions(tol=1e-3, max_iters=1).max_iters == 1
