import json

import numpy as np
import pytest

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
    read_graph,
    read_labels,
    write_graph,
    write_labels,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture()
def sampled(tmp_path, capsys):
    gp = tmp_path / "graph.txt"
    lp = tmp_path / "labels.txt"
    code, _ = run(
        capsys,
        "sample",
        "--n", "120",
        "--pi", "0.5,0.5",
        "--p-tilde", "16",
        "--q-tilde", "2",
        "--seed", "3",
        "--out-graph", str(gp),
        "--out-labels", str(lp),
    )
    assert code == EXIT_OK
    return gp, lp


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
        assert info["converged"] and info["rounded"]
        truth = read_labels(lp)
        got = read_labels(out_labels)
        blocks = lambda lab: {frozenset(lab.members(i).tolist()) for i in range(lab.r)}
        assert blocks(got) == blocks(truth)

    def test_unknown_mode_rounding_failure_exit_code(self, tmp_path, capsys):
        gp = tmp_path / "empty.txt"
        write_graph(Graph(n=8, edges=frozenset()), gp)
        code, _ = run(
            capsys,
            "solve", "--graph", str(gp), "--mode", "unknown",
            "--omega", "0.3", "--r", "2",
        )
        assert code == EXIT_ROUNDING_FAILURE

    def test_non_convergence_exit_code(self, tmp_path, capsys, sampled):
        gp, _ = sampled
        code, _ = run(
            capsys,
            "solve", "--graph", str(gp), "--mode", "known", "--sizes", "60,60",
            "--max-iters", "2",
        )
        assert code == EXIT_NO_CONVERGENCE

    def test_out_matrix(self, tmp_path, capsys, sampled):
        gp, _ = sampled
        mat = tmp_path / "X.txt"
        run(
            capsys,
            "solve", "--graph", str(gp), "--mode", "known", "--sizes", "60,60",
            "--tol", "1e-5", "--max-iters", "4000", "--out-matrix", str(mat),
        )
        x = np.loadtxt(mat)
        assert x.shape == (120, 120)


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
        code, _ = run(capsys, "phase", "--config", str(cfg), "--out", str(out))
        assert code == EXIT_OK
        assert out.read_text().count("\n") == 2  # header + one cell

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

    def test_oracle_unknown_without_r(self, tmp_path, capsys):
        gp = tmp_path / "g.txt"
        write_graph(Graph(n=2, edges=frozenset({(0, 1)})), gp)
        line = self.usage_error(capsys, "oracle", "--graph", str(gp), "--mode", "unknown", "--omega", "0.5")
        assert "--r" in line

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
