import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ppm_sdp
from ppm_sdp import sdp
from ppm_sdp.cli import (
    EXIT_NO_CONVERGENCE,
    EXIT_NOT_VERIFIED,
    EXIT_OK,
    EXIT_ROUNDING_FAILURE,
    EXIT_USAGE,
    main,
)
from ppm_sdp.graph_model import (
    Graph,
    PartitionLabels,
    PlantedPartitionParams,
    read_graph,
    read_labels,
    write_graph,
    write_labels,
)
from ppm_sdp.sdp import centered_partition_matrix, objective_value
from ppm_sdp.thresholds import compute_omega


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def sample_files(capsys, tmp_path, n, pi, p_tilde, seed):
    gp = tmp_path / f"g-{p_tilde}-{seed}.txt"
    lp = tmp_path / f"l-{p_tilde}-{seed}.txt"
    code, _ = run(
        capsys,
        "sample", "--n", str(n), "--pi", pi, "--p-tilde", str(p_tilde),
        "--q-tilde", "2", "--seed", str(seed), "--out-graph", str(gp), "--out-labels", str(lp),
    )
    assert code == EXIT_OK
    return gp, lp


@pytest.fixture()
def sampled(tmp_path, capsys):
    return sample_files(capsys, tmp_path, 120, "0.5,0.5", 16, 3)


class TestSample:
    def test_writes_valid_files(self, sampled):
        gp, lp = sampled
        g = read_graph(gp)
        labels = read_labels(lp)
        assert g.n == 120 and labels.n == 120 and labels.r == 2

    def test_deterministic(self, tmp_path, capsys, sampled):
        gp, _ = sampled
        gp2 = tmp_path / "graph2.txt"
        lp2 = tmp_path / "labels2.txt"
        run(
            capsys,
            "sample",
            "--n", "120", "--pi", "0.5,0.5", "--p-tilde", "16", "--q-tilde", "2",
            "--seed", "3", "--out-graph", str(gp2), "--out-labels", str(lp2),
        )
        assert gp.read_bytes() == gp2.read_bytes()


class TestThreshold:
    def test_flags(self, capsys):
        code, out = run(
            capsys,
            "threshold",
            "--n", "300", "--pi", "0.5,0.5", "--p-tilde", "8", "--q-tilde", "2",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["min_divergence"] == pytest.approx(1.0, abs=1e-10)
        assert report["feasible"] is False

    def test_model_file_with_matrix(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        a, b, c, eps = 31.4, 15.0, 10.0, 1.0
        q1 = [[a, b, c + eps], [b, a, c], [c + eps, c, a]]
        model.write_text(json.dumps({"q_tilde_matrix": q1, "pi": [1 / 3] * 3}))
        code, out = run(capsys, "threshold", "--model", str(model))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["min_divergence"] == pytest.approx(1.0022809, abs=1e-6)
        assert report["feasible"] is True

    def test_model_file_with_params(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(
            json.dumps(
                {"n": 300, "r": 2, "pi": [0.5, 0.5], "p_tilde": 12, "q_tilde": 2}
            )
        )
        code, out = run(capsys, "threshold", "--model", str(model))
        assert code == EXIT_OK
        assert json.loads(out)["feasible"] is True


def blocks(lab):
    return {frozenset(lab.members(i).tolist()) for i in range(lab.r)}


class TestSolve:
    def test_known_mode_recovers(self, tmp_path, capsys, sampled):
        gp, lp = sampled
        out_labels = tmp_path / "out.txt"
        code, out = run(
            capsys,
            "solve",
            "--graph", str(gp),
            "--mode", "known",
            "--sizes", "60,60",
            "--tol", "1e-5",
            "--max-iters", "4000",
            "--out-labels", str(out_labels),
        )
        assert code == EXIT_OK
        info = json.loads(out)
        assert info["method"] == "certificate"
        assert info["converged"] and info["rounded"] and info["iterations"] == 0
        truth = read_labels(lp)
        got = read_labels(out_labels)
        assert blocks(got) == blocks(truth)
        # the known-sizes objective is <A, X> at the partition
        x_hat = centered_partition_matrix(truth)
        assert info["objective"] == pytest.approx(objective_value(read_graph(gp), x_hat), abs=1e-9)

    def test_unknown_mode_certified(self, tmp_path, capsys):
        gp, lp = sample_files(capsys, tmp_path, 300, "0.5,0.3,0.2", 21, 0)
        out_labels = tmp_path / "out.txt"
        par = PlantedPartitionParams(n=300, r=3, pi=(0.5, 0.3, 0.2), p_tilde=21, q_tilde=2)
        omega = compute_omega(par.p, par.q)
        code, out = run(
            capsys,
            "solve", "--graph", str(gp), "--mode", "unknown", "--r", "3",
            "--omega", str(omega), "--out-labels", str(out_labels),
        )
        assert code == EXIT_OK
        info = json.loads(out)
        assert info["method"] == "certificate" and info["max_deviation"] == 0.0
        truth = read_labels(lp)
        assert blocks(read_labels(out_labels)) == blocks(truth)
        x_hat = centered_partition_matrix(truth)
        expected = objective_value(read_graph(gp), x_hat, omega)
        assert info["objective"] == pytest.approx(expected, abs=1e-9)

    def test_unknown_mode_rounding_failure_exit_code(self, tmp_path, capsys):
        gp = tmp_path / "empty.txt"
        write_graph(Graph(n=8, edges=frozenset()), gp)
        code, out = run(
            capsys,
            "solve", "--graph", str(gp), "--mode", "unknown",
            "--omega", "0.3", "--r", "2",
        )
        assert code == EXIT_ROUNDING_FAILURE
        assert json.loads(out)["method"] == "admm"

    def test_non_convergence_exit_code(self, tmp_path, capsys):
        # below the recovery threshold, so the certificate rejects the
        # spectral candidate and ADMM runs
        gp, _ = sample_files(capsys, tmp_path, 120, "0.5,0.5", 4, 3)
        code, out = run(
            capsys,
            "solve", "--graph", str(gp), "--mode", "known", "--sizes", "60,60",
            "--max-iters", "2",
        )
        assert code == EXIT_NO_CONVERGENCE
        assert json.loads(out)["method"] == "admm"

    def test_sizes_the_candidate_cannot_match_fall_back(self, capsys, sampled):
        gp, _ = sampled
        code, out = run(
            capsys,
            "solve", "--graph", str(gp), "--mode", "known", "--sizes", "40,80",
            "--max-iters", "2",
        )
        assert code == EXIT_NO_CONVERGENCE
        assert json.loads(out)["method"] == "admm"

    def test_out_matrix(self, tmp_path, capsys, sampled):
        gp, lp = sampled
        mat = tmp_path / "X.txt"
        code, _ = run(
            capsys,
            "solve", "--graph", str(gp), "--mode", "known", "--sizes", "60,60",
            "--tol", "1e-5", "--max-iters", "4000", "--out-matrix", str(mat),
        )
        assert code == EXIT_OK
        x = np.loadtxt(mat)
        assert np.array_equal(x, centered_partition_matrix(read_labels(lp)))

    @pytest.mark.parametrize("mode", [
        ("known", "--sizes", "60,60"), ("unknown", "--r", "2", "--omega", "0.2"),
    ])
    def test_certified_solve_builds_no_adjacency(self, capsys, sampled, monkeypatch, mode):
        gp, _ = sampled
        argv = ("solve", "--graph", str(gp), "--mode", *mode)
        code, want = run(capsys, *argv)
        assert code == EXIT_OK and json.loads(want)["method"] == "certificate"

        def refuse(self):
            raise AssertionError("a certified solve built the dense adjacency")

        monkeypatch.setattr(Graph, "adjacency", refuse)
        assert run(capsys, *argv) == (EXIT_OK, want)

    def test_certified_solve_does_not_import_scipy(self, capsys, sampled):
        gp, _ = sampled
        src = str(Path(ppm_sdp.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        script = (
            "import json, sys\n"
            "from ppm_sdp.cli import main\n"
            f"code = main(['solve', '--graph', {str(gp)!r}, '--mode', 'known', '--sizes', '60,60'])\n"
            "print(json.dumps({'code': code, 'scipy': 'scipy' in sys.modules}), file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["method"] == "certificate"
        assert json.loads(proc.stderr.splitlines()[-1]) == {"code": EXIT_OK, "scipy": False}


# the ppm_sdp modules a command leaves loaded in a fresh interpreter
LOADED_BY_ALL = ["ppm_sdp", "ppm_sdp.cli", "ppm_sdp.thresholds"]
LOADED_BY_CERTIFY = ["ppm_sdp.certificate", "ppm_sdp.graph_model", "ppm_sdp.lanczos"]


class TestModulesOnDemand:
    @pytest.mark.parametrize("command, extra", [
        ("threshold", []),
        ("sample", ["ppm_sdp.graph_model"]),
        ("certify", LOADED_BY_CERTIFY),
        ("solve", ["ppm_sdp.sdp", *LOADED_BY_CERTIFY]),  # sdp certifies first
    ])
    def test_a_command_loads_only_its_modules(self, tmp_path, sampled, command, extra):
        gp, lp = sampled
        argv = {
            "threshold": ["--n", "120", "--pi", "0.5,0.5", "--p-tilde", "16", "--q-tilde", "2"],
            "sample": ["--n", "120", "--pi", "0.5,0.5", "--p-tilde", "16", "--q-tilde", "2",
                       "--out-graph", str(tmp_path / "s.graph"), "--out-labels", str(tmp_path / "s.labels")],
            "certify": ["--graph", str(gp), "--labels", str(lp), "--p-tilde", "16", "--q-tilde", "2"],
            "solve": ["--graph", str(gp), "--mode", "known", "--sizes", "60,60"],
        }[command]
        script = (
            "import json, sys\n"
            "from ppm_sdp.cli import main\n"
            f"code = main({[command, *argv]!r})\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'ppm_sdp')\n"
            "numpy = 'numpy' in sys.modules\n"
            "print(json.dumps({'code': code, 'loaded': loaded, 'numpy': numpy}), file=sys.stderr)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(ppm_sdp.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stderr.splitlines()[-1])
        numpy_loaded = result.pop("numpy")
        assert result == {"code": EXIT_OK, "loaded": sorted(LOADED_BY_ALL + extra)}
        if command == "threshold":  # arithmetic on an r x r rate matrix
            assert not numpy_loaded


class TestOracle:
    def test_known_mode(self, tmp_path, capsys):
        gp = tmp_path / "g.txt"
        write_graph(Graph(n=4, edges=frozenset({(0, 1), (2, 3)})), gp)
        code, out = run(
            capsys, "oracle", "--graph", str(gp), "--mode", "known", "--sizes", "2,2"
        )
        assert code == EXIT_OK
        info = json.loads(out)
        assert info["objective"] == 4.0 and info["is_unique"]

    def test_unknown_mode(self, tmp_path, capsys):
        gp = tmp_path / "g.txt"
        write_graph(Graph(n=2, edges=frozenset({(0, 1)})), gp)
        code, out = run(
            capsys,
            "oracle", "--graph", str(gp), "--mode", "unknown",
            "--r", "2", "--omega", "0.5",
        )
        assert code == EXIT_OK
        assert json.loads(out)["labels"] == [0, 0]

    def test_out_labels_read_back(self, tmp_path, capsys):
        gp, lp = tmp_path / "g.txt", tmp_path / "l.txt"
        write_graph(Graph(n=4, edges=frozenset({(0, 1), (2, 3)})), gp)
        code, out = run(
            capsys, "oracle", "--graph", str(gp), "--mode", "known", "--sizes", "2,2",
            "--out-labels", str(lp),
        )
        assert code == EXIT_OK
        assert read_labels(lp) == PartitionLabels(tuple(json.loads(out)["labels"]), 2)


class TestAdversary:
    def test_scripted(self, tmp_path, capsys):
        gp = tmp_path / "g.txt"
        lp = tmp_path / "l.txt"
        sp = tmp_path / "spec.json"
        og = tmp_path / "out.txt"
        write_graph(Graph(n=4, edges=frozenset({(0, 1), (1, 2)})), gp)
        write_labels(PartitionLabels(labels=(0, 0, 1, 1), r=2), lp)
        sp.write_text(json.dumps({"kind": "scripted", "params": {"add": [[2, 3]], "remove": [[1, 2]]}}))
        code, _ = run(
            capsys,
            "adversary", "--graph", str(gp), "--labels", str(lp),
            "--spec", str(sp), "--out-graph", str(og),
        )
        assert code == EXIT_OK
        assert read_graph(og).edges == frozenset({(0, 1), (2, 3)})

    def test_integral_float_size(self, tmp_path, capsys, sampled):
        # {"size": 5.0} once exited 64, while a config's "trials": 5.0 ran
        gp, lp = sampled
        outs = []
        for size in (5, 5.0):
            sp, og = tmp_path / f"spec-{size}.json", tmp_path / f"out-{size}.txt"
            sp.write_text(json.dumps({"kind": "subcommunity_plant", "params": {"size": size}}))
            code, _ = run(
                capsys, "adversary", "--graph", str(gp), "--labels", str(lp),
                "--spec", str(sp), "--out-graph", str(og), "--seed", "1",
            )
            assert code == EXIT_OK
            outs.append(og.read_bytes())
        assert outs[0] == outs[1]


class TestCertify:
    def test_verified_exit_zero(self, tmp_path, capsys):
        gp = tmp_path / "g.txt"
        lp = tmp_path / "l.txt"
        run(
            capsys,
            "sample", "--n", "300", "--pi", "0.5,0.3,0.2",
            "--p-tilde", "21", "--q-tilde", "2", "--seed", "0",
            "--out-graph", str(gp), "--out-labels", str(lp),
        )
        code, out = run(
            capsys,
            "certify", "--graph", str(gp), "--labels", str(lp),
            "--p-tilde", "21", "--q-tilde", "2",
        )
        assert code == EXIT_OK
        assert json.loads(out)["verified"] is True

    def test_unverifiable_exit_one(self, tmp_path, capsys):
        gp = tmp_path / "g.txt"
        lp = tmp_path / "l.txt"
        run(
            capsys,
            "sample", "--n", "300", "--pi", "0.5,0.3,0.2",
            "--p-tilde", "21", "--q-tilde", "2", "--seed", "0",
            "--out-graph", str(gp), "--out-labels", str(lp),
        )
        code, out = run(
            capsys,
            "certify", "--graph", str(gp), "--labels", str(lp),
            "--p-tilde", "21", "--q-tilde", "2", "--omega", "0.01",
        )
        assert code == EXIT_NOT_VERIFIED
        assert json.loads(out)["verified"] is False


class TestPhaseAndSweep:
    def test_phase_command(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "phase.csv"
        cfg.write_text(
            json.dumps(
                {
                    "p_tilde_grid": [14.0],
                    "q_tilde_grid": [2.0],
                    "pi": [0.5, 0.5],
                    "n_grid": [100],
                    "trials": 1,
                    "seed_base": 1,
                    "certify": False,
                    "tol": 1e-5,
                    "max_iters": 3000,
                }
            )
        )
        code, text = run(capsys, "phase", "--config", str(cfg), "--out", str(out))
        assert code == EXIT_OK
        assert text.strip() == f"wrote {out}: 1 cells x 1 trials = 1 runs"
        assert out.read_text().count("\n") == 2  # header + one cell

    def test_certify_only_robustness_counts_certified_trials(self, tmp_path, capsys):
        # a certify-only trial is recovered when its certificate proves the
        # planted partition the unique optimum, so the clean rate is positive
        # and at most the verified rate phase reports on the same clean cell
        cell = {
            "p_tilde_grid": [21.0], "q_tilde_grid": [2.0], "pi": [0.5, 0.5], "n_grid": [120],
            "trials": 3, "seed_base": 3, "algorithm": "certify-only",
        }
        base = {"n": 120, "r": 2, "pi": [0.5, 0.5], "p_tilde": 21.0, "q_tilde": 2.0}
        adversary = {"kind": "sbm_dominate", "params": {"base": base, "q_tilde_prime": [[21, 1], [1, 21]]}}
        rob_cfg, phase_cfg = tmp_path / "rob.json", tmp_path / "phase.json"
        rob_cfg.write_text(json.dumps({**cell, "adversary": adversary}))
        phase_cfg.write_text(json.dumps(cell))
        code, out = run(capsys, "robustness", "--config", str(rob_cfg), "--out", str(tmp_path / "r.csv"))
        assert code == EXIT_OK
        clean_rate = json.loads(out)["clean_rate"]
        code, _ = run(capsys, "phase", "--config", str(phase_cfg), "--out", str(tmp_path / "p.csv"))
        assert code == EXIT_OK
        (row,) = csv.DictReader((tmp_path / "p.csv").open())
        assert 0.0 < clean_rate <= float(row["verified_rate"])

    @pytest.mark.parametrize("command", ["phase", "robustness"])
    def test_failed_solve_is_counted_not_raised(self, tmp_path, capsys, monkeypatch, command):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("solve failed")

        monkeypatch.setattr(sdp, "solve", failing)
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg.write_text(json.dumps({
            "p_tilde_grid": [14.0], "q_tilde_grid": [2.0], "pi": [0.5, 0.5], "n_grid": [100],
            "trials": 2, "seed_base": 1,
            "adversary": {"kind": "random_monotone", "params": {"delta_add": 0.1, "delta_rem": 0.1}},
        }))
        code, text = run(capsys, command, "--config", str(cfg), "--out", str(out))
        assert code == EXIT_OK
        rows = list(csv.DictReader(out.open()))
        if command == "phase":
            assert [row["errors"] for row in rows] == ["2"]
        else:
            assert [row["errors"] for row in rows] == ["1", "1"]
            assert json.loads(text) == {
                "clean_rate": 0.0, "adversarial_rate": 0.0, "violations": 0,
                "clean_certified_rate": 0.0, "adversarial_certified_rate": 0.0, "errors": 2,
            }

    def test_tails_command(self, capsys):
        code, out = run(
            capsys,
            "tails", "--n", "10000", "--pi", "0.5,0.5",
            "--p-tilde", "8", "--q-tilde", "2", "--seed", "1",
            "--i", "0", "--j", "1", "--trials", "20000",
        )
        assert code == EXIT_OK
        info = json.loads(out)
        assert "demonstration" in info["note"]
        assert info["divergence"] == pytest.approx(1.0)

    def test_omega_sweep_command(self, tmp_path, capsys, sampled):
        gp, _ = sampled
        code, out = run(
            capsys,
            "omega-sweep", "--graph", str(gp), "--r", "2",
            "--omegas", "0.2", "--tol", "1e-5", "--max-iters", "4000",
        )
        assert code == EXIT_OK
        entries = json.loads(out)
        assert len(entries) == 1 and "is_partition" in entries[0]


class TestUsageErrors:
    """Bad input exits EXIT_USAGE with one line on stderr, never a traceback
    or a code that means something else."""

    @staticmethod
    def usage_error(capsys, *argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("ppm-sdp")
        return lines[0]

    def test_argparse_error(self, capsys, sampled):
        gp, _ = sampled
        line = self.usage_error(capsys, "solve", "--graph", str(gp))
        assert "--mode" in line

    @pytest.mark.parametrize("flags, message", [
        (["--i", "5", "--j", "0"], "out of range"),
        (["--i", "-1", "--j", "0"], "out of range"),
        (["--i", "0", "--j", "1", "--trials", "0"], "trials"),
        (["--i", "0", "--j", "1", "--trials", "-5"], "trials"),
        (["--i", "0", "--j", "1", "--trials", "10000000000000"], "trials"),
        (["--i", "0", "--j", "1", "--seed", "-5"], "seed"),
    ])
    def test_tails_bad_pair_or_trials(self, capsys, monkeypatch, flags, message):
        monkeypatch.setattr(np.random, "default_rng", None)  # no sampling may start
        line = self.usage_error(capsys, "tails", "--n", "300", "--pi", "0.5,0.3,0.2",
                                "--p-tilde", "21", "--q-tilde", "2", *flags)
        assert message in line

    def test_solve_unknown_without_omega(self, capsys, sampled):
        gp, _ = sampled
        line = self.usage_error(capsys, "solve", "--graph", str(gp), "--mode", "unknown", "--r", "2")
        assert "--omega" in line

    def test_solve_unknown_without_r(self, capsys, sampled):
        gp, _ = sampled
        line = self.usage_error(capsys, "solve", "--graph", str(gp), "--mode", "unknown", "--omega", "0.2")
        assert "--r" in line

    def test_solve_known_without_sizes(self, capsys, sampled):
        gp, _ = sampled
        line = self.usage_error(capsys, "solve", "--graph", str(gp), "--mode", "known")
        assert "--sizes" in line

    def test_solve_known_r_disagreeing_with_sizes(self, capsys, sampled):
        gp, _ = sampled
        argv = ("solve", "--graph", str(gp), "--mode", "known", "--sizes", "60,60")
        line = self.usage_error(capsys, *argv, "--r", "3")
        assert "--r 3" in line and "--sizes" in line
        code, out = run(capsys, *argv, "--r", "2")
        assert code == EXIT_OK and json.loads(out)["rounded"] is True

    @pytest.mark.parametrize("command", ["solve", "omega-sweep"])
    def test_r_above_n_runs_no_solve(self, capsys, sampled, monkeypatch, command):
        gp, _ = sampled
        monkeypatch.setattr(sdp, "solve", None)  # any solve would raise TypeError
        argv = ["--mode", "unknown", "--omega", "0.2"] if command == "solve" else ["--omegas", "0.2"]
        line = self.usage_error(capsys, command, "--graph", str(gp), "--r", "121", *argv)
        assert "r <= n" in line and "n=120" in line

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "-1"), ("--tol", "nan"), ("--tol", "0"), ("--tol", "inf"), ("--max-iters", "0"),
    ])
    @pytest.mark.parametrize("command", ["solve", "omega-sweep"])
    def test_bad_stopping_rule_runs_no_solve(self, capsys, sampled, monkeypatch, command, flag, value):
        gp, _ = sampled
        monkeypatch.setattr(sdp, "solve", None)
        if command == "solve":
            argv = ["--mode", "known", "--sizes", "60,60"]
        else:
            argv = ["--r", "2", "--omegas", "0.2"]
        line = self.usage_error(capsys, command, "--graph", str(gp), *argv, flag, value)
        assert flag[2:].replace("-", "_") in line

    @pytest.mark.parametrize("command", ["phase", "robustness"])
    @pytest.mark.parametrize("field, value", [
        ("tol", -1.0), ("max_iters", 0),
        # fractional counts: range() would raise inside a trial, int() would truncate
        ("max_iters", 50.5), ("trials", 1.5), ("n_grid", [60.7]),
        # JSON booleans are not numbers: true once ran as tol 1.0 or 1 iteration
        ("tol", True), ("max_iters", True), ("trials", True), ("n_grid", [40, True]),
        # true once hashed trial seeds from the string "True", or ran q̃ = 1.0
        ("seed_base", True), ("seed_base", 1.5), ("p_tilde_grid", [True]), ("q_tilde_grid", [True]),
        # 0.5 and "ab" once ended in a traceback, and [0.5, "0.5"] ran
        ("pi", 0.5), ("pi", "ab"), ("pi", [0.5, "0.5"]),
        # the truthy string "false" once turned certificates on
        ("certify", "false"), ("certify", 1),
        # these once loaded, sampled and then crashed with AttributeError
        ("adversary", "random_monotone"), ("adversary", ["x"]),
    ])
    def test_config_with_a_bad_stopping_rule(self, tmp_path, capsys, monkeypatch, command, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "p_tilde_grid": [16.0], "q_tilde_grid": [2.0], "pi": [0.5, 0.5], "n_grid": [40],
            "trials": 1, "seed_base": 1,
            "adversary": {"kind": "random_monotone", "params": {"delta_add": 0.1, "delta_rem": 0.1}},
            field: value,
        }))
        monkeypatch.setattr(ppm_sdp.harness, "run_trial", None)  # no trial may start
        out = tmp_path / "out.csv"
        line = self.usage_error(capsys, command, "--config", str(cfg), "--out", str(out))
        assert field in line and not out.exists()

    def test_sizes_that_are_not_integers(self, capsys, sampled):
        gp, _ = sampled
        line = self.usage_error(capsys, "solve", "--graph", str(gp), "--mode", "known", "--sizes", "60,x")
        assert "--sizes" in line

    @pytest.mark.parametrize("pi", ["0.5,x", "0.5,"])
    @pytest.mark.parametrize("command, extra", [
        ("sample", ["--out-graph", "g.txt", "--out-labels", "l.txt"]),
        ("threshold", []),
        ("tails", ["--i", "0", "--j", "1"]),
    ])
    def test_pi_that_is_not_a_float_list(self, tmp_path, capsys, monkeypatch, command, extra, pi):
        monkeypatch.chdir(tmp_path)
        line = self.usage_error(capsys, command, "--n", "30", f"--pi={pi}",
                                "--p-tilde", "21", "--q-tilde", "2", *extra)
        assert "--pi" in line and not list(tmp_path.iterdir())

    @pytest.mark.parametrize("omegas", ["0.2,abc", ""])
    def test_omegas_that_are_not_a_float_list(self, capsys, sampled, monkeypatch, omegas):
        gp, _ = sampled
        monkeypatch.setattr(sdp, "solve", None)
        line = self.usage_error(capsys, "omega-sweep", "--graph", str(gp), "--r", "2", f"--omegas={omegas}")
        assert "--omegas" in line

    @pytest.mark.parametrize("command", ["certify", "adversary"])
    def test_empty_label_file(self, tmp_path, capsys, sampled, command):
        gp, _ = sampled
        lp = tmp_path / "empty.labels"
        lp.write_text("")
        if command == "certify":
            extra = ["--p-tilde", "21", "--q-tilde", "2"]
        else:
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"kind": "none"}))
            extra = ["--spec", str(spec), "--out-graph", str(tmp_path / "out.txt")]
        line = self.usage_error(capsys, command, "--graph", str(gp), "--labels", str(lp), *extra)
        assert "line 1: empty file" in line

    def test_graph_with_a_negative_n(self, tmp_path, capsys):
        gp = tmp_path / "neg.txt"
        gp.write_text("-3 0\n")
        line = self.usage_error(capsys, "solve", "--graph", str(gp), "--mode", "unknown",
                                "--r", "2", "--omega", "0.2")
        assert "n >= 0" in line and "n=-3" in line

    def test_oracle_unknown_without_r(self, tmp_path, capsys):
        gp = tmp_path / "g.txt"
        write_graph(Graph(n=2, edges=frozenset({(0, 1)})), gp)
        line = self.usage_error(capsys, "oracle", "--graph", str(gp), "--mode", "unknown", "--omega", "0.5")
        assert "--r" in line

    @pytest.mark.parametrize("omega", ["nan", "inf", "-inf", "1e308", "-1e308"])
    def test_oracle_without_a_finite_objective(self, tmp_path, capsys, omega):
        gp = tmp_path / "g.txt"
        write_graph(Graph(n=4, edges=frozenset({(0, 1), (2, 3)})), gp)
        line = self.usage_error(capsys, "oracle", "--graph", str(gp), "--mode", "unknown",
                                "--r", "2", f"--omega={omega}")
        assert "no partition has a finite objective" in line

    def test_threshold_with_an_asymmetric_rate_matrix(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"q_tilde_matrix": [[5, 1], [3, 5]], "pi": [0.5, 0.5]}))
        line = self.usage_error(capsys, "threshold", "--model", str(model))
        assert "symmetric" in line

    def test_threshold_without_model_or_flags(self, capsys):
        line = self.usage_error(capsys, "threshold", "--n", "300")
        assert "--pi" in line

    def test_parameter_error(self, capsys, sampled):
        gp, _ = sampled
        line = self.usage_error(capsys, "solve", "--graph", str(gp), "--mode", "known", "--sizes", "50,50")
        assert "do not sum" in line

    def test_graph_format_error(self, tmp_path, capsys, sampled):
        _, lp = sampled
        gp = tmp_path / "bad.txt"
        gp.write_text("120 1\n5 3\n")
        line = self.usage_error(
            capsys, "certify", "--graph", str(gp), "--labels", str(lp), "--p-tilde", "16", "--q-tilde", "2"
        )
        assert "line 2" in line

    def test_missing_graph_file(self, tmp_path, capsys, sampled):
        _, lp = sampled
        missing = tmp_path / "missing.txt"
        line = self.usage_error(
            capsys, "certify", "--graph", str(missing), "--labels", str(lp), "--p-tilde", "21", "--q-tilde", "2"
        )
        assert "missing.txt" in line

    @pytest.mark.parametrize("omega", ["nan", "inf"])
    def test_certify_with_a_non_finite_omega(self, capsys, sampled, omega):
        gp, lp = sampled
        line = self.usage_error(
            capsys, "certify", "--graph", str(gp), "--labels", str(lp),
            "--p-tilde", "16", "--q-tilde", "2", "--omega", omega,
        )
        assert "finite omega" in line and omega in line

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"trials": 1,')
        line = self.usage_error(capsys, "robustness", "--config", str(cfg), "--out", str(tmp_path / "r.csv"))
        assert "malformed JSON" in line

    def test_config_with_unknown_field(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 1, "colour": "red"}))
        line = self.usage_error(capsys, "robustness", "--config", str(cfg), "--out", str(tmp_path / "r.csv"))
        assert "colour" in line

    def test_config_without_an_assortative_cell(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "p_tilde_grid": [2], "q_tilde_grid": [3], "pi": [0.5, 0.5], "n_grid": [100],
            "trials": 1, "seed_base": 0, "adversary": {"kind": "none"},
        }))
        line = self.usage_error(capsys, "robustness", "--config", str(cfg), "--out", str(tmp_path / "r.csv"))
        assert "p_tilde > q_tilde" in line
        assert not (tmp_path / "r.csv").exists()

    def test_malformed_adversary_spec(self, tmp_path, capsys, sampled):
        gp, lp = sampled
        spec = tmp_path / "spec.json"
        spec.write_text('{"kind": "scripted", "params": {')
        line = self.usage_error(
            capsys, "adversary", "--graph", str(gp), "--labels", str(lp),
            "--spec", str(spec), "--out-graph", str(tmp_path / "out.txt"),
        )
        assert "malformed JSON" in line

    @pytest.mark.parametrize(
        "spec, named",
        [
            ({"kind": "random_monotone", "params": {"delta-add": 0.3}}, "delta-add"),
            ({"kind": "hub_plant", "params": {"hubs": 2}}, "degree"),
            ({"kind": "random_monotone", "params": {"delta_add": "0.3"}}, "delta_add"),
            (
                {
                    "kind": "sbm_dominate",
                    "params": {
                        "q_tilde_prime": [[21, 1], [1, 21]],
                        "base": {"n": 120, "pi": [0.5, 0.5], "p_tilde": 16, "q_tilde": 2},
                    },
                },
                "'r'",
            ),
            ({"kind": "scripted", "params": {"add": [[0, 1.7]]}}, "integer"),
            (
                {
                    "kind": "sbm_dominate",
                    "params": {
                        "q_tilde_prime": [[21, 1], [1, 21]],
                        "base": {"n": 120, "r": 2, "pi": [0.9, 0.1], "p_tilde": 16, "q_tilde": 2},
                    },
                },
                "disagree with the labels",
            ),
            (
                {
                    "kind": "sbm_dominate",
                    "params": {
                        "q_tilde_prime": [[21, 1], [1, 21]],
                        "base": {
                            "n": 120, "r": 3, "pi": [0.4, 0.3, 0.3], "p_tilde": 16, "q_tilde": 2,
                        },
                    },
                },
                "disagree with the labels",
            ),
            ({"kind": "subcommunity_plant", "params": {"size": 10, "density": 2.0}}, "density"),
            ({"kind": "subcommunity_plant", "params": {"size": 10, "density": math.nan}}, "density"),
            ({"kind": "subcommunity_plant", "params": {"size": 10, "density": math.inf}}, "density"),
            ({"kind": "subcommunity_plant", "params": {"size": 10, "density": -1.0}}, "density"),
            ({"kind": "subcommunity_plant", "params": {"size": True}}, "size"),
            ({"kind": "subcommunity_plant", "params": {"size": 5.5}}, "size"),
            ({"kind": "scripted", "params": {"add": [[0, True]]}}, "add"),
            (
                {
                    "kind": "sbm_dominate",
                    "params": {
                        "q_tilde_prime": [[True, 1], [1, 8]],
                        "base": {"n": 120, "r": 2, "pi": [0.5, 0.5], "p_tilde": 16, "q_tilde": 2},
                    },
                },
                "q_tilde_prime",
            ),
            ({"kind": "random_monotone", "params": {"delta_add": 1.5}}, "must lie in [0, 1]"),
            (
                {
                    "kind": "sbm_dominate",
                    "params": {
                        "q_tilde_prime": [[21, 1], [2, 21]],
                        "base": {"n": 120, "r": 2, "pi": [0.5, 0.5], "p_tilde": 16, "q_tilde": 2},
                    },
                },
                "must be symmetric",
            ),
            (  # 30 log(120) / 120 > 1
                {
                    "kind": "sbm_dominate",
                    "params": {
                        "q_tilde_prime": [[30, 1], [1, 30]],
                        "base": {"n": 120, "r": 2, "pi": [0.5, 0.5], "p_tilde": 16, "q_tilde": 2},
                    },
                },
                "intra probability reaches 1",
            ),
        ],
        ids=[
            "misspelt", "missing", "wrong-type", "base-missing-field", "fractional-id",
            "base-other-pi", "base-other-r", "density-2", "density-nan", "density-inf",
            "density-negative", "bool-size", "fractional-size", "bool-in-add", "bool-in-rates",
            "delta-add-1.5", "asymmetric-target", "target-probability-1",
        ],
    )
    def test_adversary_params_that_do_not_fit(self, tmp_path, capsys, sampled, spec, named):
        gp, lp = sampled
        path, out = tmp_path / "spec.json", tmp_path / "out.txt"
        path.write_text(json.dumps(spec))
        line = self.usage_error(
            capsys, "adversary", "--graph", str(gp), "--labels", str(lp),
            "--spec", str(path), "--out-graph", str(out),
        )
        assert named in line and not out.exists()

    @pytest.mark.parametrize("spec, labels, message", [
        ({"kind": "subcommunity_plant", "params": {"size": 50}}, "5,5", "size 50 is not in [0, 5]"),
        ({"kind": "none"}, "6,6", "labels and graph disagree on n"),
    ], ids=["subcommunity-above-community", "labels-of-another-n"])
    def test_adversary_that_does_not_fit_the_graph(self, tmp_path, capsys, spec, labels, message):
        gp, lp = tmp_path / "g.txt", tmp_path / "l.txt"
        sizes = [int(s) for s in labels.split(",")]
        write_graph(Graph(10, [(0, 1), (5, 6)]), gp)
        write_labels(PartitionLabels(tuple(np.repeat([0, 1], sizes).tolist()), 2), lp)
        path, out = tmp_path / "spec.json", tmp_path / "out.txt"
        path.write_text(json.dumps(spec))
        line = self.usage_error(
            capsys, "adversary", "--graph", str(gp), "--labels", str(lp),
            "--spec", str(path), "--out-graph", str(out),
        )
        assert message in line and not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--n", "1", "--pi", "0.5,0.5", "--p-tilde", "8", "--q-tilde", "1"], "need n >= 2"),
        (["--n", "60", "--pi", "0.5,0.6", "--p-tilde", "8", "--q-tilde", "1"], "pi must sum to 1"),
        ({"n": 60, "r": 3, "pi": [0.5, 0.5], "p_tilde": 8, "q_tilde": 1}, "pi must have length r"),
        ({"q_tilde_matrix": [[5]], "pi": [1.0]}, "need at least two communities"),
    ], ids=["n-1", "pi-sum", "pi-length", "one-community"])
    def test_threshold_model_that_does_not_fit(self, tmp_path, capsys, argv, message):
        if isinstance(argv, dict):  # a model file
            model = tmp_path / "model.json"
            model.write_text(json.dumps(argv))
            argv = ["--model", str(model)]
        line = self.usage_error(capsys, "threshold", *argv)
        assert message in line

    def test_oracle_with_r_above_n(self, tmp_path, capsys):
        gp = tmp_path / "g.txt"
        write_graph(Graph(10, [(0, 1)]), gp)
        line = self.usage_error(capsys, "oracle", "--graph", str(gp), "--mode", "unknown",
                                "--r", "20", "--omega", "0.5")
        assert "need 1 <= r <= n" in line

    def test_certify_with_a_bad_label_line(self, tmp_path, capsys, sampled):
        gp, _ = sampled
        lp = tmp_path / "bad.labels"
        lp.write_text("0 0\n1 x\n")
        line = self.usage_error(capsys, "certify", "--graph", str(gp), "--labels", str(lp),
                                "--p-tilde", "16", "--q-tilde", "2")
        assert "line 2: bad label line '1 x'" in line

    @pytest.mark.parametrize("field, value", [
        ("n", 100.5), ("n", True), ("p_tilde", True), ("q_tilde", True), ("pi", ["0.5", "0.5"]),
    ])
    def test_threshold_model_with_a_bool_or_fraction(self, tmp_path, capsys, field, value):
        # a p_tilde of true once ran as 1.0 and exited 0
        model = tmp_path / "model.json"
        obj = {"n": 100, "r": 2, "pi": [0.5, 0.5], "p_tilde": 8, "q_tilde": 0.5, field: value}
        model.write_text(json.dumps(obj))
        line = self.usage_error(capsys, "threshold", "--model", str(model))
        assert field in line

    @pytest.mark.parametrize("model, message", [
        ({"q_tilde_matrix": [["8", 1], [1, 8]], "pi": [0.5, 0.5]}, "rate matrix must be a matrix of numbers"),
        ({"q_tilde_matrix": [[True, 0.5], [0.5, 8]], "pi": [0.5, 0.5]}, "rate matrix must be a matrix of numbers"),
        ({"q_tilde_matrix": [[8, 1], [1, 8]], "pi": ["0.5", 0.5]}, "pi must be a list of numbers"),
    ], ids=["string-rate", "bool-rate", "string-pi"])
    def test_threshold_rate_matrix_model_that_is_not_numbers(self, tmp_path, capsys, model, message):
        # each once ran as the number and exited 0
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        line = self.usage_error(capsys, "threshold", "--model", str(path))
        assert message in line

    @pytest.mark.parametrize("command, argv", [
        ("threshold", ["--n", "60", "--pi", "nan,0.5", "--p-tilde", "8", "--q-tilde", "1"]),
        ("threshold", ["--n", "60", "--pi", "inf,0.5", "--p-tilde", "8", "--q-tilde", "1"]),
        ("sample", ["--n", "60", "--pi", "nan,0.5", "--p-tilde", "8", "--q-tilde", "1",
                    "--out-graph", "g.txt", "--out-labels", "l.txt"]),
        ("threshold", {"n": 60, "r": 2, "pi": [math.nan, 0.5], "p_tilde": 8, "q_tilde": 1}),
        ("threshold", {"q_tilde_matrix": [[8, 1], [1, 8]], "pi": [math.nan, 0.5]}),
        ("threshold", {"q_tilde_matrix": [[math.inf, 1], [1, 8]], "pi": [0.5, 0.5]}),
        ("phase", {"p_tilde_grid": [8], "q_tilde_grid": [1], "pi": [math.nan, 0.5], "n_grid": [60],
                   "trials": 1, "seed_base": 1}),
    ], ids=["threshold-nan", "threshold-inf", "sample-nan", "model-nan", "rate-model-nan",
            "rate-model-inf", "phase-nan"])
    def test_non_finite_pi_or_rate(self, tmp_path, capsys, monkeypatch, command, argv):
        # each once exited 0 printing "divergence": NaN, or raised ValueError
        monkeypatch.chdir(tmp_path)
        if isinstance(argv, dict):  # a model or config file, with JSON's NaN or Infinity
            Path("in.json").write_text(json.dumps(argv))
            argv = ["--model", "in.json"] if command == "threshold" else ["--config", "in.json", "--out", "o.csv"]
        line = self.usage_error(capsys, command, *argv)
        assert "finite" in line and {p.name for p in tmp_path.iterdir()} <= {"in.json"}

    @pytest.mark.parametrize("command", ["phase", "robustness"])
    @pytest.mark.parametrize(
        "grid", [{"p_tilde_grid": [8, math.nan]}, {"q_tilde_grid": [1, -math.inf]}],
        ids=["p-nan", "q-minus-inf"],
    )
    def test_non_finite_grid_entry(self, tmp_path, capsys, monkeypatch, command, grid):
        # [8, NaN] once exited 0 with one cell (NaN > q_tilde is false), and
        # [1, -Infinity] exited 64 only after the first cell had run
        def refuse(*args, **kwargs):
            raise AssertionError("a cell ran before the grid was checked")

        monkeypatch.setattr(ppm_sdp.harness, "sample_ppm", refuse)
        monkeypatch.chdir(tmp_path)
        Path("in.json").write_text(json.dumps({
            "p_tilde_grid": [8], "q_tilde_grid": [1], "pi": [0.5, 0.5], "n_grid": [60],
            "trials": 1, "seed_base": 1,
            "adversary": {"kind": "random_monotone", "params": {"delta_add": 0.1, "delta_rem": 0.1}},
            **grid,
        }))
        line = self.usage_error(capsys, command, "--config", "in.json", "--out", "o.csv")
        assert "finite" in line and {p.name for p in tmp_path.iterdir()} == {"in.json"}

    def test_threshold_model_without_r(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"n": 300, "pi": [0.5, 0.5], "p_tilde": 21, "q_tilde": 2}))
        line = self.usage_error(capsys, "threshold", "--model", str(model))
        assert "'r'" in line

    def test_phase_with_a_bad_adversary_spec(self, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "phase.csv"
        cfg.write_text(json.dumps({
            "p_tilde_grid": [14], "q_tilde_grid": [2], "pi": [0.5, 0.5], "n_grid": [100],
            "trials": 2, "seed_base": 1, "adversary": {"kind": "hub_plant", "params": {"hubs": 2}},
        }))
        line = self.usage_error(capsys, "phase", "--config", str(cfg), "--out", str(out))
        assert "degree" in line and not out.exists()

    @staticmethod
    def trial_error(tmp_path, capsys, command):
        # a hub degree of 80 exceeds the 50-vertex communities of every
        # sample; the one stderr line is the error, and stdout stays empty
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg.write_text(json.dumps({
            "p_tilde_grid": [14], "q_tilde_grid": [2], "pi": [0.5, 0.5], "n_grid": [100],
            "trials": 2, "seed_base": 1,
            "adversary": {"kind": "hub_plant", "params": {"hubs": 2, "degree": 80}},
        }))
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        (line,) = captured.err.strip().splitlines()
        assert line.startswith("ppm-sdp: error:") and "degree" in line
        assert captured.out == "" and not out.exists()

    def test_phase_with_an_adversary_that_cannot_apply(self, tmp_path, capsys):
        self.trial_error(tmp_path, capsys, "phase")

    def test_robustness_with_an_adversary_that_cannot_apply(self, tmp_path, capsys):
        self.trial_error(tmp_path, capsys, "robustness")

    @pytest.mark.parametrize(
        "r, omegas, named", [("2", "1.5,0.2", "omega"), ("1", "0.2", "r >= 2")],
        ids=["omega-above-one", "one-community"],
    )
    def test_omega_sweep_with_bad_input(self, capsys, sampled, r, omegas, named):
        gp, _ = sampled
        argv = ["omega-sweep", "--graph", str(gp), "--r", r, "--omegas", omegas]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        (line,) = captured.err.strip().splitlines()
        assert line.startswith("ppm-sdp: error:") and named in line
        assert captured.out == ""

    def test_omega_sweep_checks_every_omega_before_solving(self, capsys, sampled, monkeypatch):
        gp, _ = sampled
        calls = []
        monkeypatch.setattr(sdp, "recover", lambda *a, **k: calls.append(1))
        argv = ["omega-sweep", "--graph", str(gp), "--r", "2", "--omegas", "0.2,1.5"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        (line,) = captured.err.strip().splitlines()
        assert line.startswith("ppm-sdp: error:") and "1.5" in line
        assert captured.out == "" and not calls

    def test_adversary_spec_without_kind(self, tmp_path, capsys, sampled):
        gp, lp = sampled
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"params": {}}))
        line = self.usage_error(
            capsys, "adversary", "--graph", str(gp), "--labels", str(lp),
            "--spec", str(spec), "--out-graph", str(tmp_path / "out.txt"),
        )
        assert "kind" in line
