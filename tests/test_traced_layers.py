"""The benchmark's traced run (`benchmarks/run.py --trace 1`) derives its
per-layer metrics from spans that `benchmarks/tracing.py` records around the
program's public functions.  A refactor that stops calling one of them
through the patched name leaves that metric without spans, and the traced
run then fails.  These tests run each command the benchmark workloads use,
in-process under `tracing.instrument`, and require every span below it."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from ppm_sdp.cli import EXIT_NO_CONVERGENCE, EXIT_OK, main

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("benchmark_tracing", _PATH)
tracing = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

LAYERS = {
    "graph_model.sample", "graph_model.read_graph", "graph_model.adjacency",
    "graph_model.apply_adversary", "sdp.build", "sdp.solve", "sdp.round",
    "certificate.build", "certificate.verify", "harness.trial",
}


def sample(tmp_path, tracer, p_tilde):
    gp, lp = tmp_path / f"g{p_tilde}.txt", tmp_path / f"l{p_tilde}.txt"
    argv = ["sample", "--n", "120", "--pi", "0.5,0.5", "--p-tilde", str(p_tilde),
            "--q-tilde", "2", "--seed", "3", "--out-graph", str(gp), "--out-labels", str(lp)]
    assert command(tracer, argv) == (EXIT_OK, {"graph_model.sample"})
    return gp, lp


def command(tracer, argv):
    """Run one CLI command under a `cli.<name>` span, as the traced benchmark
    does; returns its exit code and the span names recorded below it."""
    first = len(tracer.spans)
    with tracer.span(f"cli.{argv[0]}"):
        code = main(argv)
    names = {s.name for s in tracer.spans[first + 1:]}
    return code, names


@pytest.fixture()
def tracer(capsys):
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, None):
        yield tracer
    capsys.readouterr()


def test_every_layer_has_spans(tmp_path, tracer):
    strong, strong_labels = sample(tmp_path, tracer, 16)
    weak, _ = sample(tmp_path, tracer, 4)
    solve = ["solve", "--mode", "known", "--sizes", "60,60", "--max-iters", "20"]

    # solve-unknown: a solve the certificate settles, with no ADMM
    code, names = command(tracer, [*solve, "--graph", str(strong)])
    assert code == EXIT_OK
    assert names == {"graph_model.read_graph", "graph_model.adjacency",
                     "certificate.build", "certificate.verify"}

    # a solve the certificate rejects runs ADMM: build, solve and round
    code, names = command(tracer, [*solve, "--graph", str(weak)])
    assert code == EXIT_NO_CONVERGENCE
    assert {"sdp.build", "sdp.solve", "sdp.round", "graph_model.adjacency"} <= names

    # certify-large
    code, names = command(tracer, ["certify", "--graph", str(strong), "--labels", str(strong_labels),
                                   "--p-tilde", "16", "--q-tilde", "2"])
    assert code == EXIT_OK
    assert {"graph_model.read_graph", "certificate.build", "certificate.verify"} <= names
    assert "graph_model.adjacency" not in names

    # robustness: one paired known-sizes trial with a monotone adversary
    config = tmp_path / "robustness.json"
    config.write_text(json.dumps({
        "p_tilde_grid": [16.0], "q_tilde_grid": [2.0], "pi": [0.5, 0.5], "n_grid": [120],
        "trials": 1, "seed_base": 1, "algorithm": "solve-known", "certify": True,
        "tol": 1e-5, "max_iters": 2000,
        "adversary": {"kind": "random_monotone", "params": {"delta_add": 0.3, "delta_rem": 0.3}},
    }))
    code, names = command(tracer, ["robustness", "--config", str(config), "--out", str(tmp_path / "r.csv")])
    assert code == EXIT_OK
    assert names == LAYERS - {"graph_model.read_graph"}

    solves = [s for s in tracer.spans if s.name == "sdp.solve"]
    assert all(s.attrs["iterations"] >= 1 for s in solves)
    assert {s.name for s in tracer.spans} == LAYERS | {
        "cli.sample", "cli.solve", "cli.certify", "cli.robustness"
    }

