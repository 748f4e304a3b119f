import csv
import json
import math

import numpy as np
import pytest

from ppm_sdp.certificate import build_certificate, verify_certificate
from ppm_sdp.graph_model import (
    AdversarySpec,
    PartitionLabels,
    PlantedPartitionParams,
    sample_ppm,
    simulate_dominating_sbm,
)
from ppm_sdp.harness import (
    ExperimentConfig,
    labels_agree,
    omega_sweep,
    run_phase_diagram,
    run_robustness_suite,
    run_trial,
    tail_exponent_demo,
    trial_seed,
)
from ppm_sdp import sdp
from ppm_sdp.sdp import SolverOptions
from ppm_sdp.thresholds import ParameterError, compute_omega


def small_config(**overrides):
    base = dict(
        p_tilde_grid=[14.0],
        q_tilde_grid=[2.0],
        pi=(0.5, 0.5),
        n_grid=[100],
        trials=2,
        seed_base=7,
        algorithm="solve-unknown",
        certify=False,
        tol=1e-5,
        max_iters=4000,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_json_roundtrip(self):
        cfg = small_config()
        text = json.dumps(
            {
                "p_tilde_grid": [14.0],
                "q_tilde_grid": [2.0],
                "pi": [0.5, 0.5],
                "n_grid": [100],
                "trials": 2,
                "seed_base": 7,
                "algorithm": "solve-unknown",
                "certify": False,
                "tol": 1e-5,
                "max_iters": 4000,
                "adversary": {"kind": "none"},
            }
        )
        parsed = ExperimentConfig.from_json(text)
        assert parsed.cells() == cfg.cells()
        assert parsed.adversary == AdversarySpec(kind="none")

    def test_cells_filter_non_assortative(self):
        cfg = small_config(p_tilde_grid=[2.0, 8.0], q_tilde_grid=[2.0, 4.0])
        # only pairs with p_tilde > q_tilde survive
        assert cfg.cells() == [(100, 8.0, 2.0), (100, 8.0, 4.0)]
        assert len(cfg.cells()) * cfg.trials == 4

    def test_grid_without_an_assortative_cell(self):
        with pytest.raises(ParameterError, match="no cell"):
            small_config(p_tilde_grid=[2.0], q_tilde_grid=[3.0])
        with pytest.raises(ParameterError, match="no cell"):
            small_config(n_grid=[])

    def test_bad_algorithm(self):
        with pytest.raises(ParameterError):
            small_config(algorithm="magic")

    def test_an_integral_seed_base_is_an_int(self):
        # trial_seed hashes the text of seed_base: 7.0 must seed as 7 does
        cfg = small_config(seed_base=7.0)
        assert type(cfg.seed_base) is int and cfg.seed_base == 7
        assert small_config(seed_base=10**400).seed_base == 10**400  # beyond a float


class TestTrialSeed:
    def test_stable_and_distinct(self):
        a = trial_seed(1, "cell", 0)
        assert a == trial_seed(1, "cell", 0)
        assert a != trial_seed(1, "cell", 1)
        assert a != trial_seed(2, "cell", 0)
        assert 0 <= a < 2**64


class TestLabelsAgree:
    def test_permutation_invariance(self):
        a = PartitionLabels(labels=(0, 0, 1, 1), r=2)
        b = PartitionLabels(labels=(1, 1, 0, 0), r=2)
        c = PartitionLabels(labels=(0, 1, 0, 1), r=2)
        assert labels_agree(a, b)
        assert not labels_agree(a, c)


class TestPhaseDiagram:
    def test_single_cell_csv(self, tmp_path):
        cfg = small_config(trials=1)
        path = tmp_path / "phase.csv"
        results = run_phase_diagram(cfg, csv_path=path)
        assert len(results) == 1
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 1
        row = rows[0]
        assert row["n"] == "100"
        assert int(row["recovered"]) + int(row["errors"]) <= int(row["trials"])

    def test_reproducible_modulo_wall_time(self, tmp_path):
        cfg = small_config()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_phase_diagram(cfg, csv_path=p1)
        run_phase_diagram(cfg, csv_path=p2)
        rows1 = list(csv.DictReader(p1.open()))
        rows2 = list(csv.DictReader(p2.open()))
        for r1, r2 in zip(rows1, rows2):
            r1.pop("wall_time_s")
            r2.pop("wall_time_s")
            assert r1 == r2

    def test_recovery_trend_across_threshold(self):
        cfg = small_config(
            p_tilde_grid=[4.0, 20.0], n_grid=[150], trials=3, seed_base=3
        )
        results = run_phase_diagram(cfg)
        by_pt = {r.p_tilde: r for r in results}
        assert by_pt[4.0].min_divergence < 1.0 < by_pt[20.0].min_divergence
        assert by_pt[20.0].recovery_rate >= by_pt[4.0].recovery_rate


class TestRobustness:
    def test_none_adversary_zero_delta(self):
        cfg = small_config(adversary=AdversarySpec(kind="none"), n_grid=[100], trials=2)
        result = run_robustness_suite(cfg)
        assert result.clean_rate - result.adversarial_rate == 0.0
        assert result.violations == 0

    def test_requires_adversary(self):
        with pytest.raises(ParameterError):
            run_robustness_suite(small_config())

    def test_random_monotone_no_instancewise_regression(self, tmp_path):
        cfg = small_config(
            n_grid=[150],
            p_tilde_grid=[18.0],
            trials=3,
            adversary=AdversarySpec(
                kind="random_monotone", params={"delta_add": 0.3, "delta_rem": 0.3}
            ),
        )
        path = tmp_path / "rob.csv"
        result = run_robustness_suite(cfg, csv_path=path)
        assert result.violations == 0
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 3
        assert all(r["violation"] == "0" for r in rows)


class TestRunTrial:
    def test_certify_only(self):
        par_cfg = small_config(algorithm="certify-only", certify=True)
        params = PlantedPartitionParams(
            n=100, r=2, pi=(0.5, 0.5), p_tilde=14.0, q_tilde=2.0
        )
        out = run_trial(par_cfg, params, 5)
        assert out["iterations"] == 0
        assert isinstance(out["verified"], bool)

    def test_certify_only_recovered_means_unique_optimum(self):
        cfg = small_config(algorithm="certify-only")
        for p_tilde in (4.0, 14.0):
            params = PlantedPartitionParams(n=100, r=2, pi=(0.5, 0.5), p_tilde=p_tilde, q_tilde=2.0)
            g, truth = sample_ppm(params, 5)
            report = verify_certificate(g, truth, build_certificate(g, truth, params))
            out = run_trial(cfg, params, 5)
            assert out["recovered"] == (report.verified and report.psd_margin > report.psd_tol)
            assert out["verified"] == report.verified
        assert out["recovered"]  # the p_tilde = 14 instance is certified

    def test_solve_known(self):
        cfg = small_config(algorithm="solve-known", n_grid=[150], p_tilde_grid=[18.0])
        params = PlantedPartitionParams(
            n=150, r=2, pi=(0.5, 0.5), p_tilde=18.0, q_tilde=2.0
        )
        out = run_trial(cfg, params, 5)
        assert out["recovered"]


class TestTailDemo:
    def test_symmetric_near_equal_rates(self):
        # p ~ q and equal proportions: the event has probability near 1/2
        from types import SimpleNamespace

        from ppm_sdp.graph_model import community_sizes

        n = 10**4
        pt = 8.0
        par = SimpleNamespace(
            n=n,
            pi=(0.5, 0.5),
            p_tilde=pt,
            q_tilde=pt * (1 - 1e-9),
            p=pt * math.log(n) / n,
            q=pt * (1 - 1e-9) * math.log(n) / n,
            sizes=lambda: community_sizes(n, (0.5, 0.5)),
        )
        result = tail_exponent_demo(par, 0, 1, trials=20000, seed=0)
        assert 0.3 < result.frequency < 0.7
        assert abs(result.exponent) < 0.15
        assert result.divergence == pytest.approx(0.0, abs=1e-9)

    def test_infeasible_exponent_below_one(self):
        par = PlantedPartitionParams(
            n=10**4, r=2, pi=(0.5, 0.5), p_tilde=3.0, q_tilde=2.0
        )
        result = tail_exponent_demo(par, 0, 1, trials=50000, seed=2)
        assert not result.one_sided
        assert result.exponent < 1.0
        assert result.divergence < 1.0

    def test_zero_events_one_sided(self):
        par = PlantedPartitionParams(
            n=10**4, r=2, pi=(0.5, 0.5), p_tilde=30.0, q_tilde=1.0
        )
        result = tail_exponent_demo(par, 0, 1, trials=200, seed=0)
        assert result.one_sided
        assert result.events == 0


class TestOmegaSweep:
    def test_true_omega_recovers_truth(self):
        par = PlantedPartitionParams(n=150, r=2, pi=(0.5, 0.5), p_tilde=18, q_tilde=2)
        g, truth = sample_ppm(par, 3)
        omega = compute_omega(par.p, par.q)
        entry = omega_sweep(g, 2, [omega])[0]
        assert entry.is_partition and labels_agree(entry.labels, truth)

    @pytest.mark.slow
    def test_absurd_omega_yields_no_partition(self):
        par = PlantedPartitionParams(n=300, r=2, pi=(0.6, 0.4), p_tilde=8.0, q_tilde=2.0)
        g, _ = sample_ppm(par, 3)
        entry = omega_sweep(
            g, 2, [min(0.95, par.p * 1.2)], SolverOptions(tol=1e-5, max_iters=3000)
        )[0]
        assert not entry.is_partition

    def test_hierarchical_recovery(self):
        # two-level structure: four communities pairwise linked at rate b,
        # cross pairs thinned to rate c; sweeping omega at the two scales
        # surfaces both the 4-way and the merged 2-way partitions
        n, a, b, c = 400, 30.0, 14.0, 2.0
        base = PlantedPartitionParams(n=n, r=4, pi=(0.25,) * 4, p_tilde=a, q_tilde=b)
        g, truth = sample_ppm(base, 11)
        qp = np.full((4, 4), c)
        qp[0, 1] = qp[1, 0] = qp[2, 3] = qp[3, 2] = b
        np.fill_diagonal(qp, a)
        g2 = simulate_dominating_sbm(g, truth, qp, base, 5)
        scale = math.log(n) / n
        fine = omega_sweep(g2, 4, [compute_omega(a * scale, b * scale)])[0]
        coarse = omega_sweep(g2, 2, [compute_omega(b * scale, c * scale)])[0]
        assert fine.is_partition and labels_agree(fine.labels, truth)
        merged = PartitionLabels(
            labels=tuple(0 if l < 2 else 1 for l in truth.labels), r=2
        )
        assert coarse.is_partition and labels_agree(coarse.labels, merged)

    def test_bad_input_raises_other_failures_are_recorded(self, monkeypatch):
        par = PlantedPartitionParams(n=100, r=2, pi=(0.5, 0.5), p_tilde=14, q_tilde=2)
        g, _ = sample_ppm(par, 0)
        for r, omegas in ((2, [-1.0, 0.2]), (2, [2.0]), (1, [0.2])):
            with pytest.raises(ParameterError):
                omega_sweep(g, r, omegas)

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("eigh did not converge")

        monkeypatch.setattr(sdp, "recover_admm", fail)
        entries = omega_sweep(g, 2, [0.1, 0.2])
        assert [(e.omega, e.converged, e.is_partition) for e in entries] == [
            (0.1, False, False), (0.2, False, False)
        ]
