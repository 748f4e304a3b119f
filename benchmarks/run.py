"""End-to-end and per-layer benchmark of the ppm-sdp command-line program.

    python3 benchmarks/run.py --workload solve-unknown --seed 1 --seconds 15 --trace 0

With `--trace 0` every operation is one `python -m ppm_sdp.cli` process, run
one after another, and the end-to-end metrics are printed.  With
`--trace 1` the same operations call `ppm_sdp.cli.main` in-process while
`tracing.instrument` records a span around each layer's public functions;
the per-layer metrics are derived from those spans, which are written to
`.bench_out/`.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from tracing import Tracer, instrument, median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# All workloads share one model; its minimum CH-divergence is about 2.5, well
# above the exact-recovery threshold of 1, so every solve is expected to
# recover the planted partition whatever the seed.
PI = (0.5, 0.3, 0.2)
P_TILDE = 21.0
Q_TILDE = 2.0
TOL = 1e-5
MAX_ITERS = 5000
ADVERSARY = {"kind": "random_monotone", "params": {"delta_add": 0.3, "delta_rem": 0.3}}

SETUP_REPEATS = 5  # setup_s is the median of this many identical set-ups
STARTUP_REPEATS = 3  # samples of cli.startup_s in a traced run
PROCESS_TIMEOUT_S = 150.0
PROBE = "probe"  # root span of the traced run's extra n=300 robustness trial


def derived_seed(*parts) -> int:
    digest = hashlib.blake2b("|".join(str(p) for p in parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass
class Outcome:
    exit_code: int
    stdout: str
    wall_s: float
    rss_mb: float


@dataclass
class Operation:
    argv: list
    check: Callable[[Outcome], bool]  # True when the output is correct
    completed_exits: tuple = (0,)  # exit codes that mean the command did its job
    count: int = 1  # operations this command stands for (trials per process)


class Executor:
    """Runs `ppm-sdp` commands as processes, or in-process when traced."""

    def __init__(self, workdir: Path, tracer: Tracer | None):
        self.workdir = workdir
        self.tracer = tracer
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            x for x in (str(SRC), os.environ.get("PYTHONPATH")) if x
        )

    def spawn(self, argv: list) -> Outcome:
        out_path = self.workdir / "stdout.txt"
        with open(out_path, "wb") as out, open(self.workdir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.workdir)
            killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        # wait4 reaped the child; record its code so Popen never waits on it
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(proc.returncode, out_path.read_text(), wall, usage.ru_maxrss / 1024.0)

    def run(self, args: list) -> Outcome:
        if self.tracer is None:
            return self.spawn([sys.executable, "-m", "ppm_sdp.cli", *args])
        from ppm_sdp import cli

        buffer = io.StringIO()
        start = time.perf_counter()
        with self.tracer.span(f"cli.{args[0]}"), contextlib.redirect_stdout(buffer), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(args)
        return Outcome(code, buffer.getvalue(), time.perf_counter() - start, 0.0)


def parse_json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return {}


class Workload:
    n: int

    def setup(self, seed: int, directory: Path, executor: Executor) -> dict:
        raise NotImplementedError

    def round(self, inputs: dict) -> list:
        raise NotImplementedError

    def op_seconds(self, outcome: Outcome, op: Operation) -> float:
        return outcome.wall_s

    def warm_up(self, executor: Executor) -> float:
        """One `threshold` process on the workload's model; returns the
        program's minimum divergence for the benchmark's own check."""
        model = ["--n", str(self.n), "--pi", ",".join(str(x) for x in PI),
                 "--p-tilde", str(P_TILDE), "--q-tilde", str(Q_TILDE)]
        outcome = executor.spawn([sys.executable, "-m", "ppm_sdp.cli", "threshold", *model])
        return parse_json(outcome.stdout).get("min_divergence", math.nan)


def model_params(n: int):
    from ppm_sdp import graph_model

    return graph_model.PlantedPartitionParams(n=n, r=len(PI), pi=PI, p_tilde=P_TILDE, q_tilde=Q_TILDE)


def sample_to_files(n: int, seed: int, directory: Path, stem: str) -> tuple:
    from ppm_sdp import graph_model

    g, truth = graph_model.sample_ppm(model_params(n), seed)
    graph_path, labels_path = directory / f"{stem}.graph", directory / f"{stem}.labels"
    graph_model.write_graph(g, graph_path)
    graph_model.write_labels(truth, labels_path)
    return graph_path, labels_path, g, truth


class SolveUnknown(Workload):
    """Unknown-sizes solves at n=600: dense ADMM does nearly all the work."""

    n = 600
    graphs = 3

    def setup(self, seed, directory, executor):
        graphs = []
        for k in range(self.graphs):
            graph_path, labels_path, _, _ = sample_to_files(self.n, derived_seed("solve-unknown", seed, k), directory, f"g{k}")
            graphs.append((graph_path, labels_path, directory / f"out{k}.labels"))
        return {"graphs": graphs, "program_divergence": self.warm_up(executor)}

    def round(self, inputs):
        from ppm_sdp import thresholds

        params = model_params(self.n)
        omega = thresholds.compute_omega(params.p, params.q)
        ops = []
        for graph_path, labels_path, out_path in inputs["graphs"]:
            out_path.unlink(missing_ok=True)

            def check(outcome, graph_path=graph_path, labels_path=labels_path, out_path=out_path):
                labels = checks.read_label_list(out_path)
                _, edges = checks.read_edges(graph_path)
                printed = parse_json(outcome.stdout)["objective"]
                return checks.same_partition(labels, checks.read_label_list(labels_path)) and \
                    checks.objective_matches(printed, edges, labels, omega, TOL)

            argv = ["solve", "--graph", str(graph_path), "--mode", "unknown", "--r", str(len(PI)),
                    "--omega", repr(omega), "--tol", repr(TOL), "--max-iters", str(MAX_ITERS),
                    "--out-labels", str(out_path)]
            ops.append(Operation(argv, check))
        return ops


class CertifyLarge(Workload):
    """Certificates at n=2000: graph I/O, the dense adjacency and the
    certificate do all the work; ADMM is not used."""

    n = 2000

    def setup(self, seed, directory, executor):
        graph_path, labels_path, _, truth = sample_to_files(self.n, derived_seed("certify-large", seed), directory, "g")
        swapped = list(truth.labels)
        rng = random.Random(derived_seed("certify-large-swap", seed))
        a = rng.choice([v for v, c in enumerate(swapped) if c == 0])
        b = rng.choice([v for v, c in enumerate(swapped) if c == 1])
        swapped[a], swapped[b] = swapped[b], swapped[a]
        swapped_path = directory / "swapped.labels"
        swapped_path.write_text("".join(f"{v} {c}\n" for v, c in enumerate(swapped)))
        return {"graph": graph_path, "labels": labels_path, "swapped": swapped_path,
                "program_divergence": self.warm_up(executor)}

    def round(self, inputs):
        model = ["--p-tilde", str(P_TILDE), "--q-tilde", str(Q_TILDE)]
        ops = []
        for key, planted in (("labels", True), ("swapped", False)):
            argv = ["certify", "--graph", str(inputs["graph"]), "--labels", str(inputs[key]), *model]

            def check(outcome, planted=planted):
                return checks.certify_verdict_ok(outcome.exit_code, parse_json(outcome.stdout), planted)

            ops.append(Operation(argv, check, completed_exits=(0, 1)))
        return ops


class Robustness(Workload):
    """Paired clean/adversarial trials at n=300: sampling, the adversary,
    known-sizes ADMM, rounding and certificates, many times at small n."""

    n = 300
    trials = 5

    def config(self, seed: int, trials: int) -> dict:
        return {"p_tilde_grid": [P_TILDE], "q_tilde_grid": [Q_TILDE], "pi": list(PI), "n_grid": [self.n],
                "trials": trials, "seed_base": seed, "algorithm": "solve-known",
                "adversary": ADVERSARY, "certify": True, "tol": TOL, "max_iters": MAX_ITERS}

    def setup(self, seed, directory, executor):
        from ppm_sdp import harness

        seed_base = derived_seed("robustness", seed)
        config_path = directory / "robustness.json"
        config_path.write_text(json.dumps(self.config(seed_base, self.trials)))
        # the clean graph of each trial, as the harness samples it, so that a
        # traced run can diff the adversarial graphs against files on disk
        cell_key = f"n={self.n},pt={P_TILDE},qt={Q_TILDE}"
        clean = []
        for t in range(self.trials):
            trial_seed = harness.trial_seed(seed_base, cell_key, t)
            graph_path, _, g, _ = sample_to_files(self.n, trial_seed, directory, f"trial{t}")
            clean.append((graph_path, g.edges))
        return {"config": config_path, "csv": directory / "robustness.csv", "clean": clean,
                "program_divergence": self.warm_up(executor)}

    def round(self, inputs):
        inputs["csv"].unlink(missing_ok=True)

        def check(outcome):
            with open(inputs["csv"], newline="") as f:
                rows = list(csv.DictReader(f))
            return checks.robustness_ok(parse_json(outcome.stdout), rows, self.trials)

        argv = ["robustness", "--config", str(inputs["config"]), "--out", str(inputs["csv"])]
        return [Operation(argv, check, count=self.trials)]

    def op_seconds(self, outcome, op):
        return outcome.wall_s / op.count


WORKLOADS = {"solve-unknown": SolveUnknown(), "certify-large": CertifyLarge(), "robustness": Robustness()}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True


def run_rounds(workload, inputs, executor, seconds, tally) -> list:
    """Whole rounds of the workload's operations until `seconds` have passed;
    returns (outcome, operation) for every completed command."""
    done = []
    start = time.perf_counter()
    while True:
        for op in workload.round(inputs):
            try:
                outcome = executor.run(op.argv)
            except Exception as exc:  # a traced in-process command that raised
                print(f"{op.argv[0]} raised {exc!r}", file=sys.stderr)
                outcome = None
            tally.attempted += op.count
            if outcome is None or outcome.exit_code not in op.completed_exits:
                tally.failed += op.count
                continue
            try:
                ok = op.check(outcome)
            except (OSError, KeyError, ValueError) as exc:
                print(f"{op.argv[0]} output unreadable: {exc!r}", file=sys.stderr)
                ok = False
            if not ok:
                print(f"{op.argv[0]} output is wrong: {op.argv}", file=sys.stderr)
            tally.correct &= ok
            done.append((outcome, op))
        if time.perf_counter() - start >= seconds:
            return done


def check_divergence(program_divergence: float) -> bool:
    own = checks.min_ch_divergence(P_TILDE, Q_TILDE, PI)
    return own > 1.0 and abs(own - program_divergence) <= 1e-6


def untraced(workload, seed, workdir, seconds) -> tuple[Tally, dict]:
    executor = Executor(workdir, None)
    setup_times = []
    for k in range(SETUP_REPEATS):
        directory = workdir / f"setup{k}"
        directory.mkdir()
        start = time.perf_counter()
        inputs = workload.setup(seed, directory, executor)
        setup_times.append(time.perf_counter() - start)
    tally = Tally(correct=check_divergence(inputs["program_divergence"]))
    done = run_rounds(workload, inputs, executor, seconds, tally)
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (max((o.rss_mb for o, _ in done), default=math.nan), "MB"),
        "op_s": (median([workload.op_seconds(o, op) for o, op in done]) if done else math.nan, "s"),
    }
    return tally, metrics


def per_layer_metrics(tracer: Tracer) -> dict:
    def spans(name):
        return tracer.select(name, PROBE)

    def durations(name):
        return [s.duration for s in spans(name)]

    solves = spans("sdp.solve")
    metrics = {
        "cli.startup_s": (median(durations("cli.startup")), "s"),
        "sdp.iterations": (median([s.attrs["iterations"] for s in solves]), "count"),
        "sdp.iteration_ms": (median([1e3 * s.duration / s.attrs["iterations"] for s in solves]), "ms"),
    }
    for layer in ("graph_model.sample", "graph_model.read_graph", "graph_model.adjacency",
                  "graph_model.apply_adversary", "sdp.build", "sdp.solve", "sdp.round",
                  "certificate.build", "certificate.verify", "harness.trial"):
        metrics[f"{layer}_s"] = (median(durations(layer)), "s")
    for layer in ("sdp.solve", "certificate.build", "certificate.verify"):
        peaks = [s.attrs["peak_mb"] for s in spans(layer) if "peak_mb" in s.attrs]
        metrics[f"{layer}_peak_mb"] = (median(peaks), "MB")
    return metrics


def describe_adversary(args, result) -> dict:
    g, truth = args[0], args[1]
    diff = checks.adversary_diff(g.edges, result.edges, truth.labels)
    return {**diff, "input_edges": hash(g.edges)}


def traced(workload, seed, workdir, seconds, spans_path: Path) -> tuple[Tally, dict]:
    from ppm_sdp import graph_model

    tracer = Tracer()
    executor = Executor(workdir, tracer)
    with instrument(tracer, describe_adversary):
        for _ in range(STARTUP_REPEATS):
            with tracer.span("cli.startup"):
                executor.spawn([sys.executable, "-c", "import ppm_sdp.cli"])
        inputs = workload.setup(seed, workdir, executor)
        tally = Tally(correct=check_divergence(inputs["program_divergence"]))
        run_rounds(workload, inputs, executor, seconds, tally)
        if isinstance(workload, Robustness):
            # each adversarial graph differs from its clean trial graph, read
            # back from disk, only by added intra and removed inter edges
            clean = {}
            for graph_path, edges in inputs["clean"]:
                g = graph_model.read_graph(graph_path)
                tally.correct &= g.edges == edges
                clean[hash(g.edges)] = g
            changes = [s.attrs for s in tracer.spans if s.name == "graph_model.apply_adversary"]
            tally.correct &= bool(changes) and all(
                checks.is_monotone(c) and c["input_edges"] in clean for c in changes
            )
        else:
            # the layers this workload's path leaves out are timed on one
            # paired trial of the robustness workload
            probe = Robustness()
            config_path = workdir / "probe.json"
            config_path.write_text(json.dumps(probe.config(derived_seed("probe", seed), 1)))
            with tracer.span(PROBE):
                outcome = executor.run(["robustness", "--config", str(config_path), "--out", str(workdir / "probe.csv")])
            tally.correct &= outcome.exit_code == 0 and parse_json(outcome.stdout).get("violations") == 0
        tracer.measure_peaks()
    spans_path.parent.mkdir(exist_ok=True)
    tracer.dump(spans_path)
    return tally, per_layer_metrics(tracer)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ppm_sdp" / "cli.py").is_file():
        print(f"ppm_sdp sources not found under {SRC}", file=sys.stderr)
        return 2
    # BLAS may use every core this process may run on, and no more
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            spans_path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
            tally, metrics = traced(workload, args.seed, workdir, args.seconds, spans_path)
        else:
            tally, metrics = untraced(workload, args.seed, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": bool(tally.correct),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
