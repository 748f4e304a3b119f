import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppm_sdp import sdp
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
    _spectral_labels,
    build_unknown_sizes,
    centered_partition_matrix,
    certified_partition,
    j_constraint_target,
    objective_value,
    round_to_partition,
    solve,
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
        u, v = next((u, v) for u, v in g.sorted_edges() if lab[u] != lab[v])
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
    dense reference for the warm projection, and the spectral norm of y."""
    w, v = np.linalg.eigh(y)
    pos = w > 0
    return (v[:, pos] * w[pos]) @ v[:, pos].T, float(np.max(np.abs(w)))


def reference_solve(prob, opts, visit=lambda y, p, norm: None):
    """The ADMM loop of `solve` with the reference projection on every
    iteration; visit(y, P, |y|) sees each projection.  Returns (X, its)."""
    n, lb, rho = prob.n, -1.0 / (prob.r - 1), sdp.RHO
    x = np.eye(n)
    z = [x.copy(), x.copy(), x.copy()]
    u = [np.zeros((n, n)) for _ in range(3)]
    for it in range(1, opts.max_iters + 1):
        x_prev = x
        x = (z[0] - u[0] + z[1] - u[1] + z[2] - u[2]) / 3.0 + prob.objective / (3.0 * rho)
        x = 0.5 * (x + x.T)
        y = x + u[0]
        z[0], norm = reference_projection(y)
        visit(y, z[0], norm)
        z[1] = sdp._project_affine(x + u[1], prob.j_target)
        z[2] = np.clip(x + u[2], lb, 1.0)
        primal = max(float(np.linalg.norm(x - zk)) for zk in z) / n
        for k in range(3):
            u[k] += x - z[k]
        dual = rho * float(np.linalg.norm(x - x_prev)) / n
        if max(primal, dual) < opts.tol:
            break
        if it % sdp.ADAPT_EVERY == 0:
            if primal > 10.0 * dual:
                rho *= 2.0
                u = [uk / 2.0 for uk in u]
            elif dual > 10.0 * primal:
                rho /= 2.0
                u = [uk * 2.0 for uk in u]
    return x, it


def spectrum_matrix(eigenvalues, seed):
    """A symmetric matrix with the given eigenvalues and its eigenvectors
    (columns, in the same order), from a seeded random rotation."""
    n = len(eigenvalues)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    y = (q * np.asarray(eigenvalues)) @ q.T
    return 0.5 * (y + y.T), q


class TestWarmProjection:
    """The PSD projection warm-started from the last positive eigenspace
    against the full-eigh reference."""

    PARAMS = PlantedPartitionParams(n=300, r=3, pi=(0.5, 0.3, 0.2), p_tilde=21, q_tilde=2)
    OPTS = SolverOptions(tol=1e-5, max_iters=5000)

    @pytest.mark.parametrize("seed", [401, 402, 403])
    def test_known_sizes_solve_matches_the_reference(self, seed):
        # every projection on the reference's iterates, warm-started as in
        # `solve`, is entrywise within 1e-13 |Y| of the full eigh (the
        # warm one measured at most 2e-16 |Y| here); the solve then takes the
        # reference's iteration count, and most iterations skip the eigh
        g, truth = sample_ppm(self.PARAMS, seed)
        prob = build_known_sizes(g, truth.sizes())
        state = {"basis": np.zeros((g.n, 0)), "warm": 0}

        def visit(y, p, norm):
            got, state["basis"], full = _project_psd(y, state["basis"], prob.r)
            state["warm"] += not full
            assert np.max(np.abs(got - p)) <= 1e-13 * norm

        x_ref, iterations = reference_solve(prob, self.OPTS, visit)
        sol = solve(prob, self.OPTS)
        assert sol.iterations == iterations
        assert sol.iterations - sol.full_projections == state["warm"] >= iterations // 2
        assert np.max(np.abs(sol.X - x_ref)) <= 1e-12

    def test_full_projections_reproduce_the_reference_bit_for_bit(self):
        # below the threshold the iterate's rank stays above r, so every
        # projection is a full eigh and the loop must be the reference's
        par = PlantedPartitionParams(n=120, r=2, pi=(0.5, 0.5), p_tilde=4, q_tilde=2)
        g, truth = sample_ppm(par, 3)
        prob = build_known_sizes(g, truth.sizes())
        opts = SolverOptions(tol=1e-5, max_iters=150)
        x_ref, iterations = reference_solve(prob, opts)
        sol = solve(prob, opts)
        assert sol.iterations == iterations == sol.full_projections
        assert np.array_equal(sol.X, x_ref)

    def test_a_missed_positive_eigenvalue_fails_the_proof(self):
        # the warm basis spans the eigenvectors of 5 and 3, and the Krylov
        # space never leaves it, so the third positive eigenvalue 2 is
        # missed; the Cholesky proof rejects, and the full eigh answers
        eigenvalues = [5.0, 3.0, 2.0] + np.linspace(-4.0, -0.5, 57).tolist()
        y, q = spectrum_matrix(eigenvalues, 0)
        want, norm = reference_projection(y)
        p, basis, full = _project_psd(y, q[:, :2], 3)
        assert full and basis.shape == (60, 3)
        assert np.array_equal(p, want)
        # from that full basis the warm path is taken and agrees
        p, basis, full = _project_psd(y, basis, 3)
        assert not full and basis.shape == (60, 3)
        assert np.max(np.abs(p - want)) <= 1e-13 * norm

    def test_rank_outside_one_to_r_runs_the_full_eigh(self):
        y, q = spectrum_matrix([4.0, 3.0, 2.0, 1.0] + [-1.0] * 36, 1)
        want, _ = reference_projection(y)
        for basis in (q[:, :0], q[:, :4]):
            p, new, full = _project_psd(y, basis, 3)
            assert full and new.shape == (40, 4) and np.array_equal(p, want)
        # a warm try that finds no positive Ritz value proves P = 0
        p, new, full = _project_psd(-np.eye(5), np.eye(5)[:, :1], 2)
        assert not full and new.shape == (5, 0) and not p.any()


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

    @pytest.mark.parametrize("sizes", [(7, 3), (6, 4, 2), (5, 4, 3, 1)])
    def test_spectral_labels_on_exact_matrix(self, sizes):
        r = len(sizes)
        labels = np.repeat(np.arange(r), sizes)
        np.random.default_rng(r).shuffle(labels)
        lab = PartitionLabels(labels=tuple(labels.tolist()), r=r)
        got = _spectral_labels(centered_partition_matrix(lab), r)
        assert got is not None and labels_agree(got, lab)


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


class TestCertifiedPartition:
    PARAMS = PlantedPartitionParams(n=300, r=3, pi=(0.5, 0.3, 0.2), p_tilde=21, q_tilde=2)

    def test_both_modes_certify_the_planted_partition(self):
        g, truth = sample_ppm(self.PARAMS, 1)
        omega = compute_omega(self.PARAMS.p, self.PARAMS.q)
        for kwargs in ({"omega": omega}, {"sizes": truth.sizes()}):
            labels, report = certified_partition(g, 3, **kwargs)
            assert labels_agree(labels, truth)
            assert report.verified and report.psd_margin > report.psd_tol

    def test_sizes_the_candidate_cannot_match(self):
        g, _ = sample_ppm(self.PARAMS, 1)
        assert certified_partition(g, 3, sizes=(100, 100, 100)) is None

    def test_no_candidate_on_the_empty_graph(self):
        g = Graph(n=8, edges=frozenset())
        assert certified_partition(g, 2, omega=0.3) is None
        assert certified_partition(g, 2, sizes=(4, 4)) is None

    def test_singleton_communities_give_no_density(self):
        g, _ = two_triangles()
        assert certified_partition(g, 6, sizes=(1,) * 6) is None

    def test_bad_inputs_raise_as_the_builders_do(self):
        g, _ = two_triangles()
        with pytest.raises(ParameterError, match="do not sum"):
            certified_partition(g, 2, sizes=(2, 2))
        with pytest.raises(ParameterError, match="omega"):
            certified_partition(g, 2, omega=1.5)
        with pytest.raises(ParameterError, match="r >= 2"):
            certified_partition(g, 1, omega=0.3)
        with pytest.raises(ParameterError, match="r <= n"):
            certified_partition(g, 7, omega=0.3)


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
    """(labels, report JSON) or None from `certified_partition`, with the
    matrix-free eigenpairs and then with the dense reference."""
    out = []
    for top in (MATRIX_FREE_TOP, dense_top_eigenpairs):
        monkeypatch.setattr(sdp, "_top_eigenpairs", top)
        got = certified_partition(g, r, **kwargs)
        out.append(got and (got[0].labels, json.dumps(got[1].to_dict())))
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

    @pytest.mark.parametrize("n, r", [(2, 2), (3, 2), (4, 3), (5, 2), (6, 5), (8, 4), (12, 6)])
    def test_exact_when_the_block_reaches_n(self, n, r):
        # b = max(SPECTRAL_BLOCK, r + 1) columns clamped to n: whenever the
        # Krylov space spans the whole space the Ritz pairs are the top
        # eigenpairs of the dense A - w J
        rng = np.random.default_rng(n)
        g = Graph(n, np.argwhere(np.triu(rng.random((n, n)) < 0.5, 1)))
        w = 2.0 * g.m / n**2
        theta, v = sdp._top_eigenpairs(g, w, r - 1)
        b = g.adjacency() - w
        eig = np.linalg.eigvalsh(b)[::-1][: r - 1]
        scale = max(1.0, float(np.abs(eig).max()))
        assert np.allclose(theta, eig, rtol=0, atol=1e-12 * scale)
        assert np.allclose(v.T @ v, np.eye(r - 1), atol=1e-12)
        assert np.abs(b @ v - v * theta).max() <= 1e-10 * scale

    def test_no_adjacency_is_built(self, monkeypatch):
        g, truth = sample_ppm(TestCertifiedPartition.PARAMS, 1)

        def refuse(self):
            raise AssertionError("the candidate built the dense adjacency")

        monkeypatch.setattr(Graph, "adjacency", refuse)
        labels, report = certified_partition(g, 3)
        assert labels_agree(labels, truth) and report.unique_optimum


class TestSolverOptions:
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_tol_that_is_not_finite_and_positive(self, tol):
        with pytest.raises(ParameterError, match="tol"):
            SolverOptions(tol=tol)

    def test_rejects_max_iters_below_one(self):
        with pytest.raises(ParameterError, match="max_iters"):
            SolverOptions(max_iters=0)
        assert SolverOptions(tol=1e-3, max_iters=1).max_iters == 1
