"""Experiment orchestration: phase diagrams, robustness sweeps, tail
demonstrations, and the omega sweep.

All sweeps are reproducible: per-trial seeds are derived from a stable
64-bit blake2b hash of (seed_base, cell key, trial index), so any cell can
be re-run independently and identical configs produce identical CSVs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import certificate, sdp, thresholds
from .graph_model import (
    AdversarySpec,
    Graph,
    PartitionLabels,
    PlantedPartitionParams,
    apply_adversary,
    sample_ppm,
)
from .thresholds import ParameterError

ALGORITHMS = ("solve-known", "solve-unknown", "certify-only")

CELL_CSV_FIELDS = [
    "n",
    "r",
    "pi",
    "p_tilde",
    "q_tilde",
    "min_divergence",
    "trials",
    "recovered",
    "cert_verified",
    "errors",
    "recovery_rate",
    "verified_rate",
    "mean_iterations",
    "wall_time_s",
]


@dataclass
class ExperimentConfig:
    p_tilde_grid: list
    q_tilde_grid: list
    pi: tuple
    n_grid: list
    trials: int
    seed_base: int
    algorithm: str = "solve-unknown"
    adversary: AdversarySpec | None = None
    certify: bool = True  # also build/verify the certificate on each trial
    tol: float = 1e-5
    max_iters: int = 5000

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ParameterError(f"unknown algorithm {self.algorithm!r}")
        if self.trials < 1:
            raise ParameterError("need at least one trial per cell")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        obj = json.loads(text)
        adv = obj.pop("adversary", None)
        if adv is not None:
            adv = AdversarySpec(kind=adv["kind"], params=adv.get("params", {}))
        return cls(adversary=adv, **obj)

    def cells(self) -> list:
        out = []
        for n in self.n_grid:
            for pt in self.p_tilde_grid:
                for qt in self.q_tilde_grid:
                    if pt > qt:
                        out.append((int(n), float(pt), float(qt)))
        return out

    def work_estimate(self) -> int:
        return len(self.cells()) * self.trials


@dataclass
class CellResult:
    n: int
    r: int
    pi: tuple
    p_tilde: float
    q_tilde: float
    min_divergence: float
    trials: int
    recovered: int
    cert_verified: int
    errors: int
    mean_iterations: float
    wall_time_s: float

    @property
    def recovery_rate(self) -> float:
        return self.recovered / self.trials

    @property
    def verified_rate(self) -> float:
        return self.cert_verified / self.trials

    def csv_row(self) -> dict:
        row = asdict(self)
        row["pi"] = "/".join(f"{x:g}" for x in self.pi)
        row["recovery_rate"] = f"{self.recovery_rate:.6g}"
        row["verified_rate"] = f"{self.verified_rate:.6g}"
        return row


def trial_seed(base: int, cell_key: str, trial: int) -> int:
    """Stable 64-bit per-trial seed from (base, cell key, trial index)."""
    digest = hashlib.blake2b(
        f"{base}|{cell_key}|{trial}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def labels_agree(a: PartitionLabels, b: PartitionLabels) -> bool:
    """True when two labelings induce the same partition up to relabeling."""
    if a.n != b.n or a.r != b.r:
        return False
    blocks_a = {frozenset(a.members(i).tolist()) for i in range(a.r)}
    blocks_b = {frozenset(b.members(i).tolist()) for i in range(b.r)}
    return blocks_a == blocks_b


def _solver_options(cfg: ExperimentConfig) -> sdp.SolverOptions:
    return sdp.SolverOptions(tol=cfg.tol, max_iters=cfg.max_iters)


def run_trial(
    cfg: ExperimentConfig, params: PlantedPartitionParams, seed: int
) -> dict:
    """One sampled instance: optional adversary, solve/round, certify."""
    g, truth = sample_ppm(params, seed)
    if cfg.adversary is not None:
        g = apply_adversary(g, truth, cfg.adversary, trial_seed(seed, "adv", 0))
    result = {"recovered": False, "verified": False, "iterations": 0}
    opts = _solver_options(cfg)
    if cfg.algorithm != "certify-only":
        if cfg.algorithm == "solve-known":
            prob = sdp.build_known_sizes(g, truth.sizes())
        else:
            omega = thresholds.compute_omega(params.p, params.q)
            prob = sdp.build_unknown_sizes(g, truth.r, omega)
        sol = sdp.solve(prob, opts)
        result["iterations"] = sol.iterations
        rounding = sdp.round_to_partition(sol, truth.r, opts.round_tol)
        result["recovered"] = rounding.success and labels_agree(
            rounding.labels, truth
        )
    if cfg.certify or cfg.algorithm == "certify-only":
        cert = certificate.build_certificate(g, truth, params)
        report = certificate.verify_certificate(g, truth, cert)
        result["verified"] = report.verified
    return result


def run_phase_diagram(cfg: ExperimentConfig, csv_path=None) -> list:
    """Sweep the model grid; one CellResult per (n, p_tilde, q_tilde) cell.

    Per-trial errors are recorded in the error column, never abort a sweep.
    """
    cells = cfg.cells()
    results = []
    for n, pt, qt in cells:
        params = PlantedPartitionParams(
            n=n, r=len(cfg.pi), pi=cfg.pi, p_tilde=pt, q_tilde=qt
        )
        report = thresholds.feasibility_report(params=params)
        cell_key = f"n={n},pt={pt},qt={qt}"
        recovered = verified = errors = 0
        iters = []
        t0 = time.perf_counter()
        for trial in range(cfg.trials):
            seed = trial_seed(cfg.seed_base, cell_key, trial)
            try:
                out = run_trial(cfg, params, seed)
            except Exception:
                errors += 1
                continue
            recovered += bool(out["recovered"])
            verified += bool(out["verified"])
            iters.append(out["iterations"])
        results.append(
            CellResult(
                n=n,
                r=len(cfg.pi),
                pi=tuple(cfg.pi),
                p_tilde=pt,
                q_tilde=qt,
                min_divergence=report.min_value,
                trials=cfg.trials,
                recovered=recovered,
                cert_verified=verified,
                errors=errors,
                mean_iterations=float(np.mean(iters)) if iters else 0.0,
                wall_time_s=time.perf_counter() - t0,
            )
        )
    if csv_path is not None:
        write_cell_csv(results, csv_path)
    return results


def write_cell_csv(results, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CELL_CSV_FIELDS)
        writer.writeheader()
        for cell in results:
            row = cell.csv_row()
            # wall time is excluded from the determinism contract
            row["wall_time_s"] = f"{cell.wall_time_s:.3f}"
            writer.writerow(row)


ROBUSTNESS_CSV_FIELDS = [
    "n",
    "p_tilde",
    "q_tilde",
    "trial",
    "clean_recovered",
    "adversarial_recovered",
    "violation",
]


@dataclass
class RobustnessResult:
    rows: list  # per-trial dicts with clean/adversarial outcomes
    clean_rate: float
    adversarial_rate: float
    violations: int  # trials where clean recovered but adversarial did not

    @property
    def rate_delta(self) -> float:
        return self.clean_rate - self.adversarial_rate


def run_robustness_suite(cfg: ExperimentConfig, csv_path=None) -> RobustnessResult:
    """Paired trials: each seed is run with and without the adversary.

    The sharp per-instance property is that recovery never degrades under
    monotone changes, so `violations` counts trials where the clean graph
    recovered but the adversarial one did not.
    """
    if cfg.adversary is None:
        raise ParameterError("robustness suite requires an adversary spec")
    clean_cfg = replace(cfg, adversary=None)
    rows = []
    clean_ok = adv_ok = violations = 0
    for n, pt, qt in cfg.cells():
        params = PlantedPartitionParams(
            n=n, r=len(cfg.pi), pi=cfg.pi, p_tilde=pt, q_tilde=qt
        )
        cell_key = f"n={n},pt={pt},qt={qt}"
        for trial in range(cfg.trials):
            seed = trial_seed(cfg.seed_base, cell_key, trial)
            clean = run_trial(clean_cfg, params, seed)
            adv = run_trial(cfg, params, seed)
            violation = clean["recovered"] and not adv["recovered"]
            clean_ok += clean["recovered"]
            adv_ok += adv["recovered"]
            violations += violation
            rows.append(
                {
                    "n": n,
                    "p_tilde": pt,
                    "q_tilde": qt,
                    "trial": trial,
                    "clean_recovered": int(clean["recovered"]),
                    "adversarial_recovered": int(adv["recovered"]),
                    "violation": int(violation),
                }
            )
    total = len(rows)
    result = RobustnessResult(
        rows=rows,
        clean_rate=clean_ok / total,
        adversarial_rate=adv_ok / total,
        violations=violations,
    )
    if csv_path is not None:
        with open(csv_path, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=ROBUSTNESS_CSV_FIELDS)
            writer.writeheader()
            writer.writerows(rows)
    return result


@dataclass
class TailDemoResult:
    """Monte-Carlo tail frequency vs the divergence exponent.

    Demonstration only: the o(1) correction is material at desk-scale n, so
    the estimate is compared loosely to the divergence.
    """

    divergence: float
    threshold: float
    events: int
    trials: int
    frequency: float
    exponent: float
    one_sided: bool  # True when no events were observed (exponent is a bound)


def tail_exponent_demo(
    params: PlantedPartitionParams, i: int, j: int, trials: int, seed: int = 0
) -> TailDemoResult:
    """Estimate the exponent of the tail event that a community-i vertex has
    no more in-community than cross-community edges (after the size-skew
    shift tau (pi_i - pi_j) log n)."""
    sizes = params.sizes()
    tau = thresholds.rate_constant_tau(params.p_tilde, params.q_tilde)
    pi = np.asarray(params.pi)
    threshold = tau * (pi[i] - pi[j]) * math.log(params.n)
    rng = np.random.default_rng(seed)
    own = rng.binomial(int(sizes[i]) - 1, params.p, size=trials)
    cross = rng.binomial(int(sizes[j]), params.q, size=trials)
    events = int(np.sum(own - cross <= threshold))
    freq = events / trials
    logn = math.log(params.n)
    if events == 0:
        exponent = math.log(trials) / logn
        one_sided = True
    else:
        exponent = -math.log(freq) / logn
        one_sided = False
    div = thresholds.ch_divergence_closed_form(params, i, j)
    return TailDemoResult(
        divergence=div,
        threshold=threshold,
        events=events,
        trials=trials,
        frequency=freq,
        exponent=exponent,
        one_sided=one_sided,
    )


@dataclass
class OmegaSweepEntry:
    omega: float
    converged: bool
    is_partition: bool
    labels: PartitionLabels | None


def omega_sweep(
    g: Graph,
    r: int,
    omegas,
    opts: sdp.SolverOptions | None = None,
) -> list:
    """Run the unknown-sizes program across a grid of omega values,
    keeping only solutions that round to genuine partitions.

    Distinct omega values can surface distinct (e.g. hierarchical)
    partitions; failures at individual omegas are recorded, not raised.
    """
    opts = opts or sdp.SolverOptions(tol=1e-5, max_iters=5000)
    out = []
    for omega in omegas:
        try:
            prob = sdp.build_unknown_sizes(g, r, float(omega))
            sol = sdp.solve(prob, opts)
            rounding = sdp.round_to_partition(sol, r, opts.round_tol)
            out.append(
                OmegaSweepEntry(
                    omega=float(omega),
                    converged=sol.converged,
                    is_partition=rounding.success,
                    labels=rounding.labels,
                )
            )
        except Exception:
            out.append(
                OmegaSweepEntry(
                    omega=float(omega),
                    converged=False,
                    is_partition=False,
                    labels=None,
                )
            )
    return out
