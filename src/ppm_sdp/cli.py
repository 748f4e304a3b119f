"""Command-line interface: `ppm-sdp <subcommand>`.

`solve` is one `sdp.recover` call.  It tries the dual certificate first: it
builds and verifies the certificate for a spectral candidate partition, and
when that proves the candidate the unique SDP optimum it reports the
candidate without running ADMM ("method": "certificate", iterations 0).
Otherwise it runs ADMM, started from that candidate when `sdp.admm_start`
accepts it, and rounds ("method": "admm").  `omega-sweep` does the same.

Exit codes for solve-like commands: 0 on rounded success, 2 on rounding
failure, 3 on non-convergence.  `certify` exits 0 iff the certificate
verifies, 1 otherwise.  Every command exits 64 on bad input: a usage error,
a flag its mode needs left out, an --r that disagrees with --sizes or
exceeds the graph's n, a --tol that is not finite and positive or a
--max-iters below 1, a `tails` --trials outside 1..10^7 or a negative
`tails` --seed, a config whose max_iters, trials, seed_base or n_grid
entries are not integers or whose tol, p_tilde_grid or q_tilde_grid entries
are not numbers, a p_tilde_grid or q_tilde_grid entry that is not finite and
above 0, a model whose n or r is not an integer or whose p_tilde or
q_tilde is not a number (a JSON bool is neither), a config, model or
adversary base whose pi is not a list of numbers, a rate matrix with an
entry that is not a number (a string such as "8" or a bool), a pi or rate
entry that is NaN or infinite (from --pi, or JSON's NaN or Infinity in a
model or config), an oracle run with no finite objective (such as a
non-finite --omega), a rate matrix that is not symmetric and positive,
invalid parameters, an adversary spec, model or config whose fields do not
fit, an adversary that cannot apply to its graph, a malformed graph or label
file (a GraphFormatError, itself a ParameterError), malformed JSON, or a
file that cannot be read or written.  A one-line message goes to standard
error.

Each command imports the modules it runs when it runs, so a process pays
only for what its command uses.  `threshold` loads `thresholds` alone, which
is pure Python: it runs without numpy.  `sample` and `adversary` add
`graph_model` and numpy; `certify`, `solve`, `oracle` and the sweeps add
`sdp`, `certificate`, `harness` or `oracle` as they need them.  `sample_ppm`,
`read_graph` and `apply_adversary` read here as graph_model's (a PEP 562
`__getattr__`), for `benchmarks/tracing.py`, which wraps them; the commands
import them from graph_model when they run.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import thresholds
from .thresholds import ParameterError, PlantedPartitionParams, bind_json

EXIT_OK = 0
EXIT_NOT_VERIFIED = 1
EXIT_ROUNDING_FAILURE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_USAGE with one line; argparse's own code, 2,
    is the rounding-failure code here."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _require(args, *flags):
    """Raise ParameterError naming the flags in `flags` left unset."""
    missing = [f for f in flags if getattr(args, f[2:].replace("-", "_")) is None]
    if missing:
        raise ParameterError(f"{args.command} needs {', '.join(missing)}")


def _require_mode_args(args) -> int:
    """Check the flags each --mode of solve/oracle needs and return r: known
    needs --sizes; unknown needs --omega, and --r unless --sizes gives it.
    An --r that disagrees with the number of --sizes is rejected."""
    if args.mode == "known":
        _require(args, "--sizes")
    else:
        _require(args, "--omega", *(() if args.sizes else ("--r",)))
    if args.sizes and args.r is not None and args.r != len(args.sizes):
        raise ParameterError(f"--r {args.r} disagrees with the {len(args.sizes)} --sizes")
    return args.r if args.r is not None else len(args.sizes)


def comma_list(kind):
    """The argparse type of a comma-separated list of `kind` values, such as
    --sizes 60,40,20 (int) or --pi 0.5,0.3,0.2 (float)."""
    def parse(text: str) -> list:
        return [kind(x) for x in text.split(",")]
    parse.__name__ = f"{kind.__name__} list"  # argparse names it in the error
    return parse


def _params_from_args(args) -> PlantedPartitionParams:
    _require(args, "--n", "--pi", "--p-tilde", "--q-tilde")
    pi = tuple(args.pi)
    return PlantedPartitionParams(
        n=args.n, r=len(pi), pi=pi, p_tilde=args.p_tilde, q_tilde=args.q_tilde
    )


def _add_model_args(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pi", type=comma_list(float), required=True, help="comma-separated proportions")
    p.add_argument("--p-tilde", type=float, required=True)
    p.add_argument("--q-tilde", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)


def cmd_sample(args) -> int:
    from .graph_model import sample_ppm, write_graph, write_labels

    params = _params_from_args(args)
    g, truth = sample_ppm(params, args.seed)
    write_graph(g, args.out_graph)
    write_labels(truth, args.out_labels)
    print(f"sampled n={g.n} m={g.m} -> {args.out_graph}, {args.out_labels}")
    return EXIT_OK


def cmd_adversary(args) -> int:
    from .graph_model import AdversarySpec, apply_adversary, read_graph, read_labels, write_graph

    g = read_graph(args.graph)
    truth = read_labels(args.labels)
    with open(args.spec) as f:
        spec = AdversarySpec.from_json(f.read())
    out = apply_adversary(g, truth, spec, args.seed)
    write_graph(out, args.out_graph)
    print(f"adversary {spec.kind}: m {g.m} -> {out.m}")
    return EXIT_OK


def rate_matrix_model(q_tilde_matrix, pi) -> thresholds.DivergenceReport:
    """The report for a `threshold --model` file that gives a rate matrix."""
    return thresholds.feasibility_report(q_tilde=q_tilde_matrix, pi=pi)


def cmd_threshold(args) -> int:
    if args.model is None:
        report = thresholds.feasibility_report(params=_params_from_args(args))
    else:
        with open(args.model) as f:
            obj = json.load(f)
        if isinstance(obj, dict) and "q_tilde_matrix" in obj:
            report = bind_json(rate_matrix_model, obj, "model")
        else:
            params = bind_json(PlantedPartitionParams, obj, "model")
            report = thresholds.feasibility_report(params=params)
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK


def cmd_solve(args) -> int:
    import numpy as np

    from . import sdp
    from .graph_model import read_graph, write_labels

    r = _require_mode_args(args)
    opts = sdp.SolverOptions(tol=args.tol, max_iters=args.max_iters)
    g = read_graph(args.graph)
    known = args.mode == "known"
    rec = sdp.recover(
        g, r, sizes=args.sizes if known else None, omega=None if known else args.omega, opts=opts
    )
    if args.out_matrix:  # the solved matrix, or the certified partition's
        x = rec.X if rec.X is not None else sdp.centered_partition_matrix(rec.labels)
        np.savetxt(args.out_matrix, x)
    info = {
        "method": rec.method,
        "objective": rec.objective,
        "iterations": rec.iterations,
        "converged": rec.converged,
        "rounded": rec.labels is not None,
        "max_deviation": rec.max_deviation,
    }
    print(json.dumps(info, indent=2))
    if not rec.converged:
        return EXIT_NO_CONVERGENCE
    if rec.labels is None:
        return EXIT_ROUNDING_FAILURE
    if args.out_labels:
        write_labels(rec.labels, args.out_labels)
    return EXIT_OK


def cmd_oracle(args) -> int:
    from . import oracle
    from .graph_model import read_graph, write_labels

    r = _require_mode_args(args)
    g = read_graph(args.graph)
    max_n = oracle.MAX_N if args.max_n is None else args.max_n
    if args.mode == "known":
        result = oracle.mle_known_sizes(g, args.sizes, max_n=max_n)
    else:
        result = oracle.mle_unknown_sizes(g, r, args.omega, max_n=max_n)
    info = {
        "objective": result.best_objective,
        "is_unique": result.is_unique,
        "labels": list(result.best_labels.labels),
        "ties": len(result.argmax),
    }
    print(json.dumps(info, indent=2))
    if args.out_labels:
        write_labels(result.best_labels, args.out_labels)
    return EXIT_OK


def cmd_certify(args) -> int:
    from . import certificate
    from .graph_model import read_graph, read_labels

    g = read_graph(args.graph)
    truth = read_labels(args.labels)
    pi = tuple((truth.sizes() / truth.n).tolist())
    # the model checks the outside input; the certificate reads only p and q
    params = PlantedPartitionParams(
        n=g.n, r=truth.r, pi=pi, p_tilde=args.p_tilde, q_tilde=args.q_tilde
    )
    cert = certificate.build_certificate(g, truth, params.p, params.q, omega=args.omega)
    report = certificate.verify_certificate(g, truth, cert)
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK if report.verified else EXIT_NOT_VERIFIED


def _config_from_args(args):
    from . import harness

    with open(args.config) as f:
        return harness.ExperimentConfig.from_json(f.read())


def cmd_phase(args) -> int:
    from . import harness

    cfg = _config_from_args(args)
    harness.run_phase_diagram(cfg, csv_path=args.out)
    cells = len(cfg.cells())
    print(f"wrote {args.out}: {cells} cells x {cfg.trials} trials = {cells * cfg.trials} runs")
    return EXIT_OK


def cmd_robustness(args) -> int:
    from . import harness

    cfg = _config_from_args(args)
    summary = asdict(harness.run_robustness_suite(cfg, csv_path=args.out))
    del summary["rows"]  # the CSV holds them
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_tails(args) -> int:
    from . import harness

    params = _params_from_args(args)
    result = harness.tail_exponent_demo(
        params, args.i, args.j, args.trials, seed=args.seed
    )
    out = dict(result.__dict__)
    out["note"] = "demonstration; finite-size corrections are material at desk n"
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_omega_sweep(args) -> int:
    from . import harness, sdp
    from .graph_model import read_graph

    g = read_graph(args.graph)
    opts = sdp.SolverOptions(tol=args.tol, max_iters=args.max_iters)
    entries = harness.omega_sweep(g, args.r, args.omegas, opts)
    out = [
        {
            "omega": e.omega,
            "converged": e.converged,
            "is_partition": e.is_partition,
            "labels": list(e.labels.labels) if e.labels else None,
        }
        for e in entries
    ]
    print(json.dumps(out, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ppm-sdp")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample a planted partition graph")
    _add_model_args(p)
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-labels", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("adversary", help="apply a monotone adversary")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--spec", required=True, help="JSON adversary spec")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-graph", required=True)
    p.set_defaults(func=cmd_adversary)

    p = sub.add_parser("threshold", help="divergence / feasibility report")
    p.add_argument("--model", help="JSON model file")
    p.add_argument("--n", type=int)
    p.add_argument("--pi", type=comma_list(float))
    p.add_argument("--p-tilde", type=float)
    p.add_argument("--q-tilde", type=float)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("solve", help="solve an SDP and round to a partition")
    p.add_argument("--graph", required=True)
    p.add_argument("--mode", choices=("known", "unknown"), required=True)
    p.add_argument("--sizes", type=comma_list(int), help="comma-separated sizes (known mode)")
    p.add_argument("--omega", type=float, help="regularizer (unknown mode)")
    p.add_argument("--r", type=int)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iters", type=int, default=20000)
    p.add_argument("--out-labels")
    p.add_argument("--out-matrix")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="brute-force MLE on tiny instances")
    p.add_argument("--graph", required=True)
    p.add_argument("--mode", choices=("known", "unknown"), required=True)
    p.add_argument("--sizes", type=comma_list(int))
    p.add_argument("--omega", type=float)
    p.add_argument("--r", type=int)
    p.add_argument("--max-n", type=int, help="largest n to enumerate (default: oracle.MAX_N)")
    p.add_argument("--out-labels")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("certify", help="build and verify the dual certificate")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--p-tilde", type=float, required=True)
    p.add_argument("--q-tilde", type=float, required=True)
    p.add_argument("--omega", type=float)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("phase", help="phase-diagram sweep to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("robustness", help="paired clean/adversarial sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("tails", help="tail-exponent Monte-Carlo demonstration")
    _add_model_args(p)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--trials", type=int, default=100000)
    p.set_defaults(func=cmd_tails)

    p = sub.add_parser("omega-sweep", help="unknown-sizes sweep over omega")
    p.add_argument("--graph", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--omegas", type=comma_list(float), required=True, help="comma-separated omega grid")
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--max-iters", type=int, default=5000)
    p.set_defaults(func=cmd_omega_sweep)

    return parser


def __getattr__(name: str):
    """graph_model's `sample_ppm`, `read_graph` and `apply_adversary`,
    loaded on first read (PEP 562), for callers that look them up here."""
    if name in ("sample_ppm", "read_graph", "apply_adversary"):
        from . import graph_model

        return getattr(graph_model, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, OSError) as exc:  # a GraphFormatError is a ParameterError
        print(f"ppm-sdp: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"ppm-sdp: error: malformed JSON: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
