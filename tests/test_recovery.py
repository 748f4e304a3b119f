"""The one graph-to-partition routine: `sdp.recover` and `sdp.recover_admm`,
and the pinned ADMM outputs of the CLI, the omega sweep and the phase
diagram."""

import csv
import json
import math
import re
import types
from pathlib import Path

import numpy as np
import pytest

import ppm_sdp
from ppm_sdp import harness, lanczos, sdp
from ppm_sdp.cli import EXIT_NO_CONVERGENCE, EXIT_ROUNDING_FAILURE, main
from ppm_sdp.graph_model import (
    AdversarySpec, Graph, PlantedPartitionParams, apply_adversary, sample_ppm, write_graph,
)
from ppm_sdp.harness import labels_agree
from ppm_sdp.thresholds import ParameterError, compute_omega

# below the recovery threshold: the certificate rejects every candidate
WEAK = PlantedPartitionParams(n=120, r=2, pi=(0.5, 0.5), p_tilde=4, q_tilde=2)
STRONG = PlantedPartitionParams(n=150, r=3, pi=(0.5, 0.3, 0.2), p_tilde=21, q_tilde=2)
OPTS = sdp.SolverOptions(tol=1e-5, max_iters=200)


def test_package_exports_the_recovery_routines():
    names = {
        k for k, v in vars(ppm_sdp).items()
        if not k.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert names == {
        "AdversarySpec", "Graph", "PartitionLabels", "PlantedPartitionParams",
        "apply_adversary", "monotone_diff", "read_graph", "read_labels", "sample_ppm",
        "simulate_dominating_sbm", "write_graph", "write_labels",
        "DivergenceReport", "ParameterError", "bm_dominates", "ch_divergence_closed_form",
        "ch_divergence_numeric", "compute_omega", "feasibility_report",
        "monotone_divergence", "ppm_rate_matrix", "rate_constant_tau",
        "Recovery", "SolverOptions", "centered_partition_matrix", "certified_partition",
        "recover", "recover_admm",
        "CertificateReport", "build_certificate", "verify_certificate",
        "MleResult", "loglikelihood", "mle_known_sizes", "mle_unknown_sizes",
    }
    assert ppm_sdp.recover is sdp.recover and ppm_sdp.recover_admm is sdp.recover_admm
    assert ppm_sdp.Recovery is sdp.Recovery


class TestRecover:
    def test_certified_in_both_modes(self):
        g, truth = sample_ppm(STRONG, 1)
        omega = compute_omega(STRONG.p, STRONG.q)
        x_hat = sdp.centered_partition_matrix(truth)
        for kwargs, objective in (
            ({"sizes": truth.sizes()}, sdp.objective_value(g, x_hat)),
            ({"omega": omega}, sdp.objective_value(g, x_hat, omega)),
        ):
            rec = sdp.recover(g, 3, **kwargs)
            assert rec.method == "certificate" and labels_agree(rec.labels, truth)
            assert (rec.iterations, rec.converged, rec.max_deviation, rec.X) == (0, True, 0.0, None)
            assert rec.objective == pytest.approx(objective, abs=1e-9)

    def test_uncertified_falls_back_to_admm(self):
        g, truth = sample_ppm(WEAK, 3)
        omega = compute_omega(WEAK.p, WEAK.q)
        for kwargs in ({"sizes": truth.sizes()}, {"omega": omega}):
            rec = sdp.recover(g, 2, opts=OPTS, **kwargs)
            ref = sdp.recover_admm(g, 2, opts=OPTS, **kwargs)
            assert rec.method == ref.method == "admm"
            assert (rec.objective, rec.iterations, rec.converged, rec.max_deviation) == (
                ref.objective, ref.iterations, ref.converged, ref.max_deviation
            )
            assert np.array_equal(rec.X, ref.X)

    def test_recover_admm_is_build_solve_round(self):
        g, truth = sample_ppm(STRONG, 2)
        omega = compute_omega(STRONG.p, STRONG.q)
        for kwargs, prob in (
            ({"sizes": truth.sizes()}, sdp.build_known_sizes(g, truth.sizes())),
            ({"omega": omega}, sdp.build_unknown_sizes(g, 3, omega)),
        ):
            start = sdp.admm_start(prob, sdp.spectral_candidate(g, 3, **kwargs))
            sol = sdp.solve(prob, OPTS, start)
            rounding = sdp.round_to_partition(sol, 3)
            rec = sdp.recover_admm(g, 3, opts=OPTS, **kwargs)
            assert rec.labels == rounding.labels and labels_agree(rec.labels, truth)
            assert (rec.objective, rec.iterations, rec.converged, rec.max_deviation) == (
                sol.objective, sol.iterations, sol.converged, rounding.max_deviation
            )
            assert np.array_equal(rec.X, sol.X)

    def test_unknown_sizes_need_omega(self):
        g, _ = sample_ppm(STRONG, 1)
        with pytest.raises(ParameterError, match="omega"):
            sdp.recover(g, 3)
        with pytest.raises(ParameterError, match="omega"):
            sdp.recover_admm(g, 3)


    def test_r_must_match_the_number_of_sizes(self, monkeypatch):
        g, _ = sample_ppm(WEAK, 3)

        def refuse(*args, **kwargs):
            raise AssertionError("work started before the sizes were checked")

        monkeypatch.setattr(sdp, "solve", refuse)
        monkeypatch.setattr(sdp, "_top_eigenpairs", refuse)
        for call in (sdp.recover, sdp.recover_admm, sdp.certified_partition):
            with pytest.raises(ParameterError, match="disagrees"):
                call(g, 3, sizes=(60, 60))
            with pytest.raises(ParameterError, match="disagrees"):
                call(g, 2, sizes=(40, 40, 40))


    def test_sizes_must_be_integers(self, monkeypatch):
        g, _ = sample_ppm(WEAK, 3)

        def refuse(*args, **kwargs):
            raise AssertionError("work started before the sizes were checked")

        monkeypatch.setattr(sdp, "solve", refuse)
        monkeypatch.setattr(lanczos, "extreme_pairs", refuse)
        monkeypatch.setattr(Graph, "adjacency", refuse)
        # (60.5, 60.4) once passed as [60, 60]; (60.5, 59.5) even sums to n
        for sizes in ((60.5, 60.4), (60.5, 59.5), (60, math.nan), (60, math.inf)):
            for call in (sdp.recover, sdp.recover_admm, sdp.certified_partition):
                with pytest.raises(ParameterError, match="integers"):
                    call(g, 2, sizes=sizes)
            with pytest.raises(ParameterError, match="integers"):
                sdp.build_known_sizes(g, sizes)


# above the threshold, where a cold solve takes 53-59 iterations
P12 = PlantedPartitionParams(n=300, r=3, pi=(0.5, 0.3, 0.2), p_tilde=12, q_tilde=2)


def both_modes(g, par, truth):
    """(recover keyword arguments, program) for known and unknown sizes."""
    omega = compute_omega(par.p, par.q)
    return (
        ({"sizes": truth.sizes()}, sdp.build_known_sizes(g, truth.sizes())),
        ({"omega": omega}, sdp.build_unknown_sizes(g, truth.r, omega)),
    )


class TestAdmmStart:
    """ADMM starts from the spectral candidate's primal-dual pair when its
    construction is sign-feasible, and cold otherwise."""

    def test_started_solve_stops_at_once(self, monkeypatch):
        g, truth = sample_ppm(P12, 401)
        opts = sdp.SolverOptions(tol=1e-5, max_iters=5000)

        def refuse(y):
            raise AssertionError("the started solve ran a full eigh")

        for kwargs, prob in both_modes(g, P12, truth):
            start = sdp.admm_start(prob, sdp.spectral_candidate(g, 3, **kwargs))
            assert start is not None
            cold = sdp.solve(prob, opts)
            with monkeypatch.context() as patch:
                patch.setattr(sdp, "_project_psd", refuse)
                started = sdp.solve(prob, opts, start)
            assert cold.converged and cold.iterations > 3
            assert started.converged and started.iterations <= 3
            labels = sdp.round_to_partition(started, 3).labels
            assert labels == sdp.round_to_partition(cold, 3).labels
            assert labels_agree(labels, truth)
            assert np.max(np.abs(started.X - cold.X)) <= 1e-3

    @pytest.mark.parametrize("case", ["weak", "subcommunity_plant"])
    def test_rejected_start_is_the_cold_start(self, case):
        if case == "weak":
            par, (g, truth) = WEAK, sample_ppm(WEAK, 3)
        else:
            par, (g, truth) = P12, sample_ppm(P12, 1)
            spec = AdversarySpec(kind="subcommunity_plant",
                                 params={"community": 0, "size": 30, "density": 1.0})
            g = apply_adversary(g, truth, spec, 1)
        for kwargs, prob in both_modes(g, par, truth):
            assert sdp.admm_start(prob, sdp.spectral_candidate(g, truth.r, **kwargs)) is None
            cold = sdp.solve(prob, OPTS)
            rec = sdp.recover_admm(g, truth.r, opts=OPTS, **kwargs)
            assert np.array_equal(rec.X, cold.X)
            assert (rec.objective, rec.iterations, rec.converged) == (
                cold.objective, cold.iterations, cold.converged
            )

    def test_solve_leaves_the_start_unchanged(self):
        g, truth = sample_ppm(STRONG, 2)
        prob = sdp.build_known_sizes(g, truth.sizes())
        start = sdp.admm_start(prob, sdp.spectral_candidate(g, 3, sizes=truth.sizes()))
        before = [a.copy() for a in start]
        opts = sdp.SolverOptions(tol=1e-300, max_iters=5)  # five updates of Z and U
        first = sdp.solve(prob, opts, start)
        assert first.iterations == 5
        assert all(np.array_equal(a, b) for a, b in zip(start, before))
        # so a replay of the same call, as the traced benchmark makes, repeats it
        again = sdp.solve(prob, opts, start)
        assert np.array_equal(again.X, first.X) and again.objective == first.objective


def test_only_sdp_builds_solves_or_rounds():
    """Every other module turns a graph into a partition through
    `recover`/`recover_admm`, so a solver change is made in one place."""
    direct = re.compile(r"\b(build_known_sizes|build_unknown_sizes|solve|round_to_partition)\(")
    for path in Path(sdp.__file__).parent.glob("*.py"):
        if path.name != "sdp.py":
            assert not direct.search(path.read_text()), path.name


def rel(value):
    return pytest.approx(value, rel=1e-12)


class TestPinnedAdmmOutputs:
    """ADMM-path outputs of the CLI, the harness trial and the omega sweep,
    which share `recover_admm`: exit codes and flags as recorded before they
    shared it, iterations and objectives as the two-block solver gives them."""

    @pytest.mark.parametrize(
        "mode, code, pinned",
        [
            ("known", EXIT_NO_CONVERGENCE, {
                "iterations": 1000, "converged": False, "rounded": False,
                "objective": 701.9600604917557, "max_deviation": 0.9998221183305481,
            }),
            ("unknown", EXIT_ROUNDING_FAILURE, {
                "iterations": 426, "converged": True, "rounded": False,
                "objective": 702.3033199175281, "max_deviation": 0.9999484532436309,
            }),
        ],
    )
    def test_solve_json(self, tmp_path, capsys, mode, code, pinned):
        g, _ = sample_ppm(WEAK, 3)
        gp = tmp_path / "g.txt"
        write_graph(g, gp)
        extra = ["--sizes", "60,60"] if mode == "known" else [
            "--r", "2", "--omega", repr(compute_omega(WEAK.p, WEAK.q))
        ]
        got = main(["solve", "--graph", str(gp), "--mode", mode, *extra,
                    "--tol", "1e-5", "--max-iters", "1000"])
        info = json.loads(capsys.readouterr().out)
        assert got == code and info["method"] == "admm"
        for key in ("iterations", "converged", "rounded"):
            assert info[key] == pinned[key]
        assert info["objective"] == rel(pinned["objective"])
        assert info["max_deviation"] == rel(pinned["max_deviation"])

    def test_failed_rounding_runs_no_eigensolver(self, monkeypatch):
        g, _ = sample_ppm(WEAK, 3)
        opts = sdp.SolverOptions(tol=1e-5, max_iters=1000)

        def refuse(*args, **kwargs):
            raise AssertionError("rounding ran a dense eigensolver")

        for prob in (sdp.build_known_sizes(g, (60, 60)),
                     sdp.build_unknown_sizes(g, 2, compute_omega(WEAK.p, WEAK.q))):
            sol = sdp.solve(prob, opts)
            with monkeypatch.context() as patched:
                patched.setattr(np.linalg, "eigh", refuse)
                rounding = sdp.round_to_partition(sol, 2)
            assert not rounding.success and rounding.labels is None
            assert sdp.ROUND_TOL < rounding.max_deviation < math.inf

    def test_omega_sweep_entry(self):
        par = PlantedPartitionParams(n=100, r=2, pi=(0.5, 0.5), p_tilde=14, q_tilde=2)
        g, _ = sample_ppm(par, 4)
        (entry,) = harness.omega_sweep(g, 2, [compute_omega(par.p, par.q)])
        assert entry.converged and entry.is_partition
        assert entry.labels.labels == (0,) * 50 + (1,) * 50

    def test_phase_csv(self, tmp_path):
        cfg = harness.ExperimentConfig(
            p_tilde_grid=[6.0, 14.0], q_tilde_grid=[2.0], pi=(0.5, 0.5), n_grid=[100],
            trials=2, seed_base=5, algorithm="solve-known", certify=True, tol=1e-5, max_iters=500,
        )
        path = tmp_path / "phase.csv"
        harness.run_phase_diagram(cfg, csv_path=path)
        rows = list(csv.DictReader(path.open()))
        for row in rows:
            row.pop("wall_time_s")
        common = {"n": "100", "r": "2", "pi": "0.5/0.5", "q_tilde": "2.0", "trials": "2", "errors": "0"}
        assert rows == [
            {**common, "p_tilde": "6.0", "min_divergence": "0.5358983848622454",
             "recovered": "0", "cert_verified": "0", "recovery_rate": "0", "verified_rate": "0",
             "mean_iterations": "500.0"},
            {**common, "p_tilde": "14.0", "min_divergence": "2.7084973778708186",
             "recovered": "2", "cert_verified": "2", "recovery_rate": "1", "verified_rate": "1",
             "mean_iterations": "1.0"},
        ]
