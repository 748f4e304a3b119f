"""Each benchmark check accepts the program's real output and rejects a
deliberately wrong one.

    PYTHONPATH=src python -m pytest benchmarks -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ppm_sdp import certificate, graph_model, sdp, thresholds  # noqa: E402

import checks  # noqa: E402

PI = (0.5, 0.3, 0.2)


def params(n, p_tilde=21.0, q_tilde=2.0):
    return graph_model.PlantedPartitionParams(n=n, r=3, pi=PI, p_tilde=p_tilde, q_tilde=q_tilde)


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """A small unknown-sizes solve that recovers the planted partition."""
    par = params(150)
    g, truth = graph_model.sample_ppm(par, 5)
    path = tmp_path_factory.mktemp("solve") / "g.txt"
    graph_model.write_graph(g, path)
    omega = thresholds.compute_omega(par.p, par.q)
    tol = 1e-5
    sol = sdp.solve(sdp.build_unknown_sizes(g, 3, omega), sdp.SolverOptions(tol=tol))
    rounding = sdp.round_to_partition(sol, 3)
    assert sol.converged and rounding.success
    return path, list(truth.labels), list(rounding.labels.labels), sol.objective, omega, tol


def test_labels_equal_up_to_relabelling(solved):
    _, truth, labels, *_ = solved
    assert checks.same_partition(labels, truth)
    assert checks.same_partition([(c + 1) % 3 for c in labels], truth)


def test_labels_with_two_vertices_moved_are_rejected(solved):
    _, truth, labels, *_ = solved
    moved = list(labels)
    a, b = moved.index(truth[0]), next(v for v, c in enumerate(moved) if c != truth[0])
    moved[a], moved[b] = moved[b], moved[a]
    assert not checks.same_partition(moved, truth)


def test_objective_from_edge_file_matches_program(solved):
    path, truth, labels, printed, omega, tol = solved
    n, edges = checks.read_edges(path)
    g = graph_model.read_graph(path)
    x_hat = sdp.centered_partition_matrix(graph_model.PartitionLabels(tuple(truth), 3))
    assert checks.partition_objective(edges, truth, omega) == pytest.approx(
        sdp.objective_value(g, x_hat, omega), abs=1e-9
    )
    assert checks.objective_matches(printed, edges, labels, omega, tol)


def test_objective_off_by_more_than_tolerance_is_rejected(solved):
    path, _, labels, _, omega, tol = solved
    n, edges = checks.read_edges(path)
    expected = checks.partition_objective(edges, labels, omega)
    limit = checks.objective_tolerance(n, tol)
    for sign in (1, -1):
        assert checks.objective_matches(expected + sign * 0.99 * limit, edges, labels, omega, tol)
        assert not checks.objective_matches(expected + sign * 1.01 * limit, edges, labels, omega, tol)


def test_monotone_adversary_is_accepted():
    g, truth = graph_model.sample_ppm(params(150), 2)
    spec = graph_model.AdversarySpec("random_monotone", {"delta_add": 0.3, "delta_rem": 0.3})
    out = graph_model.apply_adversary(g, truth, spec, 9)
    diff = checks.adversary_diff(g.edges, out.edges, truth.labels)
    assert diff["added_intra"] > 0 and diff["removed_inter"] > 0
    assert checks.is_monotone(diff)


def test_adversary_removing_an_intra_edge_is_rejected():
    g, truth = graph_model.sample_ppm(params(150), 2)
    intra = next((u, v) for u, v in g.sorted_edges() if truth.labels[u] == truth.labels[v])
    inter = next((u, v) for u, v in g.sorted_edges() if truth.labels[u] != truth.labels[v])
    diff = checks.adversary_diff(g.edges, g.edges - {intra, inter}, truth.labels)
    assert diff == {"added_intra": 0, "added_inter": 0, "removed_intra": 1, "removed_inter": 1}
    assert not checks.is_monotone(diff)


def test_unchanged_graph_is_not_an_adversarial_change():
    g, truth = graph_model.sample_ppm(params(150), 1)
    assert not checks.is_monotone(checks.adversary_diff(g.edges, g.edges, truth.labels))


@pytest.fixture(scope="module")
def certified():
    par = params(300)
    g, truth = graph_model.sample_ppm(par, 4)
    swapped = list(truth.labels)
    a, b = swapped.index(0), swapped.index(1)
    swapped[a], swapped[b] = 1, 0
    swapped = graph_model.PartitionLabels(tuple(swapped), 3)
    reports = []
    for labels in (truth, swapped):
        cert = certificate.build_certificate(g, labels, par)
        reports.append(certificate.verify_certificate(g, labels, cert).to_dict())
    return reports


def test_certify_verdicts_of_the_program_are_accepted(certified):
    planted, swapped = certified
    assert checks.certify_verdict_ok(0, planted, planted=True)
    assert checks.certify_verdict_ok(1, swapped, planted=False)


def test_swapped_labelling_reported_verified_is_rejected(certified):
    _, swapped = certified
    assert not checks.certify_verdict_ok(0, {**swapped, "verified": True}, planted=False)
    assert not checks.certify_verdict_ok(1, {**swapped, "verified": True}, planted=False)
    assert not checks.certify_verdict_ok(0, swapped, planted=False)


def test_robustness_violation_is_rejected():
    rows = [{"clean_recovered": "1", "adversarial_recovered": "1"}] * 2
    summary = {"clean_rate": 1.0, "adversarial_rate": 1.0, "violations": 0}
    assert checks.robustness_ok(summary, rows, 2)
    bad_rows = [rows[0], {"clean_recovered": "1", "adversarial_recovered": "0"}]
    bad = {"clean_rate": 1.0, "adversarial_rate": 0.5, "violations": 1}
    assert not checks.robustness_ok(bad, bad_rows, 2)
    assert not checks.robustness_ok(summary, rows[:1], 2)


def test_divergence_matches_program_and_is_above_threshold():
    own = checks.min_ch_divergence(21.0, 2.0, PI)
    report = thresholds.feasibility_report(params=params(600))
    assert own == pytest.approx(report.min_value, abs=1e-9)
    assert 2.4 < own < 2.6


def test_divergence_below_threshold_is_reported():
    assert checks.min_ch_divergence(6.0, 2.0, PI) < 1.0
