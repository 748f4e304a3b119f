import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from ppm_sdp.certificate import build_certificate, verify_certificate
from ppm_sdp.graph_model import (
    AdversarySpec,
    Graph,
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
from ppm_sdp import harness, sdp
from ppm_sdp.sdp import SolverOptions
from ppm_sdp.thresholds import ParameterError, compute_omega
from test_recovery import WEAK


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

    @pytest.mark.parametrize("grid", [
        {"p_tilde_grid": [8.0, math.nan]}, {"q_tilde_grid": [1.0, -math.inf]},
        {"p_tilde_grid": [math.inf]}, {"q_tilde_grid": [0.0]}, {"q_tilde_grid": [2.0, -1.0]},
    ], ids=["p-nan", "q-minus-inf", "p-inf", "q-zero", "q-negative"])
    def test_rejects_a_grid_entry_that_is_not_finite_and_positive(self, grid):
        # [8, NaN] once kept only the cell 8, since NaN > q_tilde is false;
        # the others passed here and failed, if at all, when their cell ran
        with pytest.raises(ParameterError, match="finite entries > 0"):
            small_config(**grid)

    def test_bad_algorithm(self):
        with pytest.raises(ParameterError):
            small_config(algorithm="magic")

    @pytest.mark.parametrize("pi", [0.5, "ab", [0.5, "0.5"], [[0.5], [0.5]]])
    def test_rejects_a_pi_that_is_not_numbers(self, pi):
        # checked before the first trial: 0.5 and "ab" once raised TypeError
        # and ValueError there, and [0.5, "0.5"] ran
        with pytest.raises(ParameterError, match="pi must be a list of numbers"):
            small_config(pi=pi)

    def test_an_integral_seed_base_is_an_int(self):
        # trial_seed hashes the text of seed_base: 7.0 must seed as 7 does
        cfg = small_config(seed_base=7.0)
        assert type(cfg.seed_base) is int and cfg.seed_base == 7
        assert small_config(seed_base=10**400).seed_base == 10**400  # beyond a float

    @pytest.mark.parametrize("certify", ["false", 1])
    def test_certify_is_a_bool(self, certify):
        # the truthy string "false" once turned certificates on
        with pytest.raises(ParameterError, match="certify must be true or false"):
            small_config(certify=certify)

    def test_certify_only_certifies(self):
        # the one place the rule lives: run_trial and the suite read cfg.certify
        assert small_config(algorithm="certify-only", certify=False).certify is True
        assert small_config(algorithm="solve-known", certify=False).certify is False

    @pytest.mark.parametrize("adversary", ["random_monotone", ["x"]])
    def test_adversary_is_null_or_a_spec(self, adversary):
        # these once loaded and then crashed with AttributeError at the first trial
        with pytest.raises(ParameterError, match="adversary must be null or a spec object"):
            small_config(adversary=adversary)


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

    def test_only_a_linalg_failure_is_an_error_count(self, monkeypatch):
        # any other exception inside a trial is a bug and propagates
        cfg = small_config()

        def failing(exc):
            def trial(*args):
                raise exc("trial failed")

            return trial

        monkeypatch.setattr(harness, "run_trial", failing(np.linalg.LinAlgError))
        [cell] = run_phase_diagram(cfg)
        assert (cell.errors, cell.recovered) == (cfg.trials, 0)
        monkeypatch.setattr(harness, "run_trial", failing(TypeError))
        with pytest.raises(TypeError, match="trial failed"):
            run_phase_diagram(cfg)

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


    def test_certified_columns(self, tmp_path):
        # blank without certificates; with them, a clean proof carries over
        spec = AdversarySpec(kind="random_monotone", params={"delta_add": 0.3, "delta_rem": 0.3})
        cfg = small_config(n_grid=[150], p_tilde_grid=[18.0], adversary=spec, algorithm="solve-known")
        path = tmp_path / "rob.csv"
        result = run_robustness_suite(cfg, csv_path=path)
        assert (result.clean_certified_rate, result.adversarial_certified_rate) == (None, None)
        rows = list(csv.DictReader(path.open()))
        assert list(rows[0]) == harness.ROBUSTNESS_CSV_FIELDS
        assert all(r["clean_certified"] == r["adversarial_certified"] == "" for r in rows)
        certified = run_robustness_suite(replace(cfg, certify=True))
        assert [r["clean_recovered"] for r in certified.rows] == [r["clean_recovered"] for r in result.rows]
        assert certified.clean_certified_rate == certified.adversarial_certified_rate == 1.0
        assert certified.errors == 0

    def test_transported_proof_where_the_fresh_certificate_fails(self):
        # at n = 600, p~ = 15, the paper's construction fails on the changed
        # graph (r_positive, gamma_off_positive), which the clean
        # certificate, carried over, proves: the carried proof decides the
        # adversarial arm, so the pair is no violation
        spec = AdversarySpec(kind="random_monotone", params={"delta_add": 0.3, "delta_rem": 0.3})
        cfg = ExperimentConfig(
            p_tilde_grid=[15.0], q_tilde_grid=[2.0], pi=(0.5, 0.3, 0.2), n_grid=[600],
            trials=1, seed_base=5, algorithm="certify-only", adversary=spec,
        )
        [(params, [seed])] = harness._sweep(cfg)
        g, truth = sample_ppm(params, seed)
        g2 = harness.apply_adversary(g, truth, spec, trial_seed(seed, "adv", 0))
        assert not verify_certificate(g2, truth, build_certificate(g2, truth, params.p, params.q)).unique_optimum
        [row] = run_robustness_suite(cfg).rows
        assert (row["clean_recovered"], row["clean_certified"]) == (1, 1)
        assert (row["adversarial_recovered"], row["adversarial_certified"]) == (1, 1)
        assert row["violation"] == 0

    def test_carried_proof_counts_no_construction_miss(self):
        # n = 600, p~ = 15, 8 trials: 7 clean certificates hold, and the
        # fresh paper certificate on the changed graph once failed on all 7,
        # counting 7 violations; the carried proofs count none
        spec = AdversarySpec(kind="random_monotone", params={"delta_add": 0.3, "delta_rem": 0.3})
        cfg = ExperimentConfig(
            p_tilde_grid=[15.0], q_tilde_grid=[2.0], pi=(0.5, 0.3, 0.2), n_grid=[600],
            trials=8, seed_base=0, algorithm="certify-only", adversary=spec,
        )
        result = run_robustness_suite(cfg)
        assert result.violations == 0 and result.errors == 0
        assert result.adversarial_rate == result.adversarial_certified_rate == 0.875
        assert result.clean_certified_rate == 0.875

    def test_a_carried_proof_runs_the_changed_graph_not_at_all(self, monkeypatch):
        # solve-known with certificates: the clean proof settles the
        # adversarial arm, so the pair runs one trial and one ADMM solve
        spec = AdversarySpec(kind="random_monotone", params={"delta_add": 0.3, "delta_rem": 0.3})
        cfg = small_config(n_grid=[150], p_tilde_grid=[18.0], adversary=spec,
                           algorithm="solve-known", certify=True, trials=1)
        trials, run = [], harness.run_trial
        monkeypatch.setattr(harness, "run_trial", lambda *args: trials.append(1) or run(*args))
        solves, solve = [], sdp.solve
        monkeypatch.setattr(sdp, "solve", lambda *a, **k: solves.append(1) or solve(*a, **k))
        [row] = run_robustness_suite(cfg).rows
        assert row["clean_certified"] == row["adversarial_certified"] == 1
        assert row["clean_recovered"] == row["adversarial_recovered"] == 1
        assert (len(trials), len(solves)) == (1, 1)

    def test_a_carried_proof_needs_a_monotone_change(self, monkeypatch):
        # an adversary that adds an inter pair breaks the premise of the
        # carried proof, and the pair raises before its adversarial solve
        spec = AdversarySpec(kind="random_monotone", params={"delta_add": 0.3, "delta_rem": 0.3})
        cfg = small_config(n_grid=[150], p_tilde_grid=[18.0], adversary=spec,
                           algorithm="solve-known", certify=True, trials=1)

        def add_inter_pair(g, truth, spec, seed):
            lab = truth.as_array()
            pair = next((u, v) for u in range(g.n) for v in range(u + 1, g.n)
                        if lab[u] != lab[v] and (u, v) not in g.edges)
            return Graph(g.n, np.vstack([g.pairs, [pair]]))

        monkeypatch.setattr(harness, "apply_adversary", add_inter_pair)
        trials, run = [], harness.run_trial
        monkeypatch.setattr(harness, "run_trial", lambda *args: trials.append(1) or run(*args))
        with pytest.raises(ParameterError, match="addition of inter"):
            run_robustness_suite(cfg)
        assert len(trials) == 1  # the clean arm alone

    @pytest.mark.parametrize("fail", ["every", "adversarial"])
    def test_linalg_failure_is_an_error_count(self, fail, monkeypatch):
        # a pair whose solve fails, on either graph, is an error: not
        # recovered, not certified and no violation; rates divide by all.
        # A clean proof would settle the changed graph with no solve, so
        # every clean certificate fails here and the changed graph is solved
        spec = AdversarySpec(kind="random_monotone", params={"delta_add": 0.1, "delta_rem": 0.1})
        cfg = small_config(adversary=spec, algorithm="solve-known", certify=True, trials=3)
        verify = harness.certificate.verify_certificate
        monkeypatch.setattr(harness.certificate, "verify_certificate",
                            lambda *args: replace(verify(*args), verified=False))
        calls, solve = [], sdp.solve

        def failing(*args, **kwargs):
            calls.append(1)
            if fail == "every" or len(calls) % 2 == 0:
                raise np.linalg.LinAlgError("solve failed")
            return solve(*args, **kwargs)

        monkeypatch.setattr(sdp, "solve", failing)
        result = run_robustness_suite(cfg)
        assert result.errors == 3 and len(calls) == (3 if fail == "every" else 6)
        for row in result.rows:
            assert row["errors"] == 1
            assert row["clean_recovered"] == row["adversarial_recovered"] == row["violation"] == 0
            assert row["clean_certified"] == row["adversarial_certified"] == 0
        assert (result.clean_rate, result.adversarial_rate, result.violations) == (0.0, 0.0, 0)
        assert result.clean_certified_rate == result.adversarial_certified_rate == 0.0


class TestRunTrial:
    def test_certify_only(self):
        par_cfg = small_config(algorithm="certify-only", certify=True)
        params = PlantedPartitionParams(
            n=100, r=2, pi=(0.5, 0.5), p_tilde=14.0, q_tilde=2.0
        )
        out = run_trial(par_cfg, params, *sample_ppm(params, 5))
        assert out["iterations"] == 0
        assert isinstance(out["verified"], bool)

    def test_certify_only_recovered_means_unique_optimum(self):
        cfg = small_config(algorithm="certify-only")
        for p_tilde in (4.0, 14.0):
            params = PlantedPartitionParams(n=100, r=2, pi=(0.5, 0.5), p_tilde=p_tilde, q_tilde=2.0)
            g, truth = sample_ppm(params, 5)
            report = verify_certificate(g, truth, build_certificate(g, truth, params.p, params.q))
            out = run_trial(cfg, params, g, truth)
            assert out["recovered"] == (report.verified and report.psd_margin > report.psd_tol)
            assert out["verified"] == report.verified
        assert out["recovered"]  # the p_tilde = 14 instance is certified

    def test_runs_the_instance_it_is_given(self):
        # cfg's adversary, a hub degree no 50-vertex community allows, would
        # raise if run_trial applied it; the result holds no certificate
        spec = AdversarySpec(kind="hub_plant", params={"hubs": 2, "degree": 80})
        cfg = small_config(algorithm="certify-only", adversary=spec)
        params = PlantedPartitionParams(n=100, r=2, pi=(0.5, 0.5), p_tilde=14.0, q_tilde=2.0)
        out = run_trial(cfg, params, *sample_ppm(params, 5))
        assert out == {"recovered": True, "verified": True, "iterations": 0, "certified": True}

    def test_solve_known(self):
        cfg = small_config(algorithm="solve-known", n_grid=[150], p_tilde_grid=[18.0])
        params = PlantedPartitionParams(
            n=150, r=2, pi=(0.5, 0.5), p_tilde=18.0, q_tilde=2.0
        )
        out = run_trial(cfg, params, *sample_ppm(params, 5))
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

    @pytest.mark.parametrize("trials, seed, message", [
        (harness.MAX_TAIL_TRIALS + 1, 0, "trials"),
        (10**13, 0, "trials"),
        (1000, -5, "seed"),
    ])
    def test_bad_trials_or_seed_raise_before_sampling(self, monkeypatch, trials, seed, message):
        # 10^13 trials once asked numpy for two 80 TB arrays, and a negative
        # seed once reached default_rng's ValueError
        par = PlantedPartitionParams(n=60, r=2, pi=(0.5, 0.5), p_tilde=8.0, q_tilde=1.0)
        monkeypatch.setattr(np.random, "default_rng", None)  # no sampling may start
        with pytest.raises(ParameterError, match=message):
            tail_exponent_demo(par, 0, 1, trials=trials, seed=seed)

    def test_zero_events_one_sided(self):
        par = PlantedPartitionParams(
            n=10**4, r=2, pi=(0.5, 0.5), p_tilde=30.0, q_tilde=1.0
        )
        result = tail_exponent_demo(par, 0, 1, trials=200, seed=0)
        assert result.one_sided
        assert result.events == 0


SWEEP_PARAMS = PlantedPartitionParams(n=300, r=3, pi=(0.5, 0.3, 0.2), p_tilde=21, q_tilde=2)


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

    def test_a_certified_omega_runs_no_admm(self, monkeypatch):
        g, _ = sample_ppm(SWEEP_PARAMS, 401)
        omega = compute_omega(SWEEP_PARAMS.p, SWEEP_PARAMS.q)
        rec = sdp.recover(g, 3, omega=omega)
        assert rec.method == "certificate"

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep ran ADMM on a certified omega")

        monkeypatch.setattr(sdp, "solve", refuse)
        (entry,) = omega_sweep(g, 3, [omega])
        assert entry.converged and entry.labels == rec.labels

    @pytest.mark.parametrize("par, seed, omega", [
        *[(SWEEP_PARAMS, seed, omega) for seed in (401, 402, 403)
          for omega in (compute_omega(SWEEP_PARAMS.p, SWEEP_PARAMS.q), 0.12, 0.2)],
        (WEAK, 3, compute_omega(WEAK.p, WEAK.q)),  # no certificate: ADMM runs
    ])
    def test_entries_match_recover_admm(self, par, seed, omega):
        g, _ = sample_ppm(par, seed)
        opts = SolverOptions(tol=1e-5, max_iters=5000)
        (entry,) = omega_sweep(g, par.r, [omega], opts)
        rec = sdp.recover_admm(g, par.r, omega=omega, opts=opts)
        assert (entry.converged, entry.labels) == (rec.converged, rec.labels)

    def test_bad_input_raises_other_failures_are_recorded(self, monkeypatch):
        par = PlantedPartitionParams(n=100, r=2, pi=(0.5, 0.5), p_tilde=14, q_tilde=2)
        g, _ = sample_ppm(par, 0)
        for r, omegas in ((2, [-1.0, 0.2]), (2, [2.0]), (1, [0.2])):
            with pytest.raises(ParameterError):
                omega_sweep(g, r, omegas)

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("eigh did not converge")

        monkeypatch.setattr(sdp, "recover", fail)
        entries = omega_sweep(g, 2, [0.1, 0.2])
        assert [(e.omega, e.converged, e.is_partition) for e in entries] == [
            (0.1, False, False), (0.2, False, False)
        ]

    def test_a_bug_inside_a_solve_propagates(self, monkeypatch):
        par = PlantedPartitionParams(n=100, r=2, pi=(0.5, 0.5), p_tilde=14, q_tilde=2)
        g, _ = sample_ppm(par, 0)

        def bug(*args, **kwargs):
            raise TypeError("solve failed")

        monkeypatch.setattr(sdp, "recover", bug)
        with pytest.raises(TypeError, match="solve failed"):
            omega_sweep(g, 2, [0.1, 0.2])
