"""Experiment orchestration: phase diagrams, robustness sweeps, tail
demonstrations, and the omega sweep.

All sweeps are reproducible: per-trial seeds are derived from a stable
64-bit blake2b hash of (seed_base, cell key, trial index), so any cell can
be re-run independently and identical configs produce identical CSVs.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import certificate, sdp, thresholds
from .graph_model import (
    AdversarySpec,
    Graph,
    PartitionLabels,
    PlantedPartitionParams,
    apply_adversary,
    monotone_diff,
    sample_ppm,
)
from .thresholds import ParameterError, bind_json, is_integral, is_number, is_number_array

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
    certify: bool = True  # also build/verify the certificate on each trial (forced by certify-only)
    tol: float = 1e-5
    max_iters: int = 5000

    def __post_init__(self):
        if isinstance(self.adversary, dict):  # a spec as decoded from JSON
            self.adversary = AdversarySpec(**self.adversary)
        if not isinstance(self.adversary, (AdversarySpec, type(None))):
            raise ParameterError(f"adversary must be null or a spec object, got {self.adversary!r}")
        if self.algorithm not in ALGORITHMS:
            raise ParameterError(f"unknown algorithm {self.algorithm!r}")
        if not isinstance(self.certify, bool):  # "false" is truthy
            raise ParameterError(f"certify must be true or false, got {self.certify!r}")
        self.certify = self.certify or self.algorithm == "certify-only"
        # a JSON bool would pass as the number 0 or 1, and a seed_base of
        # 1.0 or true would hash as "1.0" or "True", not as 1
        if not (is_integral(self.trials) and self.trials >= 1):
            raise ParameterError(f"need an integer number of trials >= 1, got {self.trials}")
        if not is_integral(self.seed_base):
            raise ParameterError(f"need an integer seed_base, got {self.seed_base}")
        if not is_number_array(self.pi, ndim=1):
            raise ParameterError(f"pi must be a list of numbers, got {self.pi!r}")
        if not all(is_integral(n) for n in self.n_grid):
            raise ParameterError(f"n_grid {self.n_grid} is not all integers")
        for name in ("p_tilde_grid", "q_tilde_grid"):
            grid = getattr(self, name)
            if not all(is_number(x) for x in grid):
                raise ParameterError(f"{name} {grid} is not all numbers")
            if not all(0.0 < x < math.inf for x in grid):  # false for NaN
                raise ParameterError(f"{name} {grid} needs finite entries > 0")
        self.trials, self.seed_base = int(self.trials), int(self.seed_base)
        if not self.cells():
            raise ParameterError("the grid has no cell with p_tilde > q_tilde")
        sdp.SolverOptions(tol=self.tol, max_iters=self.max_iters)  # raises when invalid

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return bind_json(cls, json.loads(text), "experiment config")

    def cells(self) -> list:
        grid = itertools.product(self.n_grid, self.p_tilde_grid, self.q_tilde_grid)
        return [(int(n), float(pt), float(qt)) for n, pt, qt in grid if pt > qt]


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
        # wall time is excluded from the determinism contract
        row["wall_time_s"] = f"{self.wall_time_s:.3f}"
        return row


def trial_seed(base: int, cell_key: str, trial: int) -> int:
    """Stable 64-bit per-trial seed from (base, cell key, trial index)."""
    digest = hashlib.blake2b(
        f"{base}|{cell_key}|{trial}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def labels_agree(a: PartitionLabels, b: PartitionLabels) -> bool:
    """True when two labelings induce the same partition up to relabeling:
    no community is empty, so r distinct label pairs are a bijection
    between the two labelings' communities."""
    return a.n == b.n and a.r == b.r and len(set(zip(a.labels, b.labels))) == a.r


def run_trial(
    cfg: ExperimentConfig, params: PlantedPartitionParams, g: Graph, truth: PartitionLabels
) -> dict:
    """One instance, the graph g with the planted labels `truth`, run as it
    is given: ADMM recovery, and the certificate when cfg asks for one.
    The caller samples g and applies any adversary.

    Under "certify-only", recovered means the certificate proves the planted
    partition the unique SDP optimum.  With a certificate, `certified` is
    that proof; without one, `certified` is None."""
    result = {"recovered": False, "verified": False, "iterations": 0, "certified": None}
    if cfg.algorithm != "certify-only":
        known = cfg.algorithm == "solve-known"
        rec = sdp.recover_admm(
            g, truth.r,
            sizes=truth.sizes() if known else None,
            omega=None if known else thresholds.compute_omega(params.p, params.q),
            opts=sdp.SolverOptions(tol=cfg.tol, max_iters=cfg.max_iters),
        )
        result["iterations"] = rec.iterations
        result["recovered"] = rec.labels is not None and labels_agree(rec.labels, truth)
    if cfg.certify:
        cert = certificate.build_certificate(g, truth, params.p, params.q)
        report = certificate.verify_certificate(g, truth, cert)
        result.update(verified=report.verified, certified=report.unique_optimum)
        if cfg.algorithm == "certify-only":
            result["recovered"] = report.unique_optimum
    return result


def _sweep(cfg: ExperimentConfig):
    """(params, per-trial seeds) for each grid cell, in grid order: the one
    loop behind the phase diagram and the robustness suite."""
    for n, pt, qt in cfg.cells():
        params = PlantedPartitionParams(
            n=n, r=len(cfg.pi), pi=cfg.pi, p_tilde=pt, q_tilde=qt
        )
        cell_key = f"n={n},pt={pt},qt={qt}"
        yield params, [trial_seed(cfg.seed_base, cell_key, t) for t in range(cfg.trials)]


def run_phase_diagram(cfg: ExperimentConfig, csv_path=None) -> list:
    """Sweep the model grid; one CellResult per (n, p_tilde, q_tilde) cell.

    A trial whose linear algebra fails (LinAlgError) is counted in the
    error column and does not abort the sweep.  Any other exception is
    raised before any CSV is written: ParameterError, a spec that cannot
    apply to the sampled instance, is bad input, and the rest are bugs.
    """
    results = []
    for params, seeds in _sweep(cfg):
        report = thresholds.feasibility_report(params=params)
        recovered = verified = errors = 0
        iters = []
        t0 = time.perf_counter()
        for seed in seeds:
            g, truth = sample_ppm(params, seed)
            if cfg.adversary is not None:
                g = apply_adversary(g, truth, cfg.adversary, trial_seed(seed, "adv", 0))
            try:
                out = run_trial(cfg, params, g, truth)
            except np.linalg.LinAlgError:
                errors += 1
                continue
            recovered += bool(out["recovered"])
            verified += bool(out["verified"])
            iters.append(out["iterations"])
        results.append(
            CellResult(
                n=params.n,
                r=params.r,
                pi=params.pi,
                p_tilde=params.p_tilde,
                q_tilde=params.q_tilde,
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
        _write_csv(csv_path, CELL_CSV_FIELDS, [cell.csv_row() for cell in results])
    return results


def _write_csv(path, fields: list, rows: list) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


ROBUSTNESS_CSV_FIELDS = [
    "n",
    "p_tilde",
    "q_tilde",
    "trial",
    "clean_recovered",
    "adversarial_recovered",
    "violation",
    "clean_certified",
    "adversarial_certified",
    "errors",
]


@dataclass
class RobustnessResult:
    rows: list  # per-trial dicts with clean/adversarial outcomes
    clean_rate: float
    adversarial_rate: float
    violations: int  # trials where clean recovered but adversarial did not
    clean_certified_rate: float | None  # None when no certificate is built
    adversarial_certified_rate: float | None
    errors: int  # trials whose linear algebra failed (LinAlgError)


def _paired_trial(
    cfg: ExperimentConfig, params: PlantedPartitionParams, seed: int
) -> tuple[dict, dict]:
    """(clean, adversarial) `run_trial` results of one pair: one sampled
    graph g and g2, its change by cfg's adversary.

    When the clean certificate proves the labels the unique optimum on g,
    that proof settles g2 too: the clean result stands for both arms, and
    g2 runs no ADMM and no certificate.  That is the paper's semirandom
    argument on one instance.  g2 adds the intra pairs E_add and removes
    the inter pairs E_rem (`monotone_diff` checks this, and raises
    ParameterError on any other change).  With nu' = nu +
    deg_add and Gamma' = Gamma plus 1 on each removed pair (both orders),
    Lambda' = diag(nu') + omega J - A' - Gamma' = Lambda + L_add, L_add the
    Laplacian of the added edges.  L_add is PSD and kills every 1_i, so
    Lambda' meets the kernel and slackness conditions as Lambda does, its
    least eigenvalue on the complement of span{1_i - 1_j} is at least
    Lambda's, Gamma' >= Gamma is still zero inside the communities, and
    nu' >= nu.  Every check of the clean report thus holds on g2, at the
    cost of one diff of the two edge lists."""
    g, truth = sample_ppm(params, seed)
    g2 = apply_adversary(g, truth, cfg.adversary, trial_seed(seed, "adv", 0))
    clean = run_trial(cfg, params, g, truth)
    if not clean["certified"]:
        return clean, run_trial(cfg, params, g2, truth)
    monotone_diff(g, g2, truth)  # the premise of the carried proof
    return clean, clean


def run_robustness_suite(cfg: ExperimentConfig, csv_path=None) -> RobustnessResult:
    """Paired trials: each seed's graph is run as sampled and after the
    adversary's change.

    The sharp per-instance property is that recovery never degrades under
    monotone changes, so `violations` counts trials where the clean graph
    recovered but the adversarial one did not.  With certificates on, each
    row also says whether a certificate proves the planted labels the
    unique optimum on each graph.  When the clean one does, the proof
    carries to the changed graph (`_paired_trial`): the row's adversarial
    columns equal its clean ones, and the pair is no violation.  Only a
    pair without a clean proof runs the changed graph.
    A pair whose linear algebra fails (LinAlgError) counts in `errors`, as
    not recovered, not certified and no violation; every rate divides by
    all trials, errors included.
    """
    if cfg.adversary is None:
        raise ParameterError("robustness suite requires an adversary spec")
    rows = []
    for params, seeds in _sweep(cfg):
        for trial, seed in enumerate(seeds):
            try:
                clean, adv = _paired_trial(cfg, params, seed)
                error = False
            except np.linalg.LinAlgError:
                clean = adv = {"recovered": False, "certified": False}
                error = True
            violation = clean["recovered"] and not adv["recovered"]
            rows.append(
                {
                    "n": params.n,
                    "p_tilde": params.p_tilde,
                    "q_tilde": params.q_tilde,
                    "trial": trial,
                    "clean_recovered": int(clean["recovered"]),
                    "adversarial_recovered": int(adv["recovered"]),
                    "violation": int(violation),
                    "clean_certified": int(clean["certified"]) if cfg.certify else None,
                    "adversarial_certified": int(adv["certified"]) if cfg.certify else None,
                    "errors": int(error),
                }
            )
    total = len(rows)

    def rate(column):
        return sum(row[column] for row in rows) / total

    result = RobustnessResult(
        rows=rows,
        clean_rate=rate("clean_recovered"),
        adversarial_rate=rate("adversarial_recovered"),
        violations=sum(row["violation"] for row in rows),
        clean_certified_rate=rate("clean_certified") if cfg.certify else None,
        adversarial_certified_rate=rate("adversarial_certified") if cfg.certify else None,
        errors=sum(row["errors"] for row in rows),
    )
    if csv_path is not None:
        _write_csv(csv_path, ROBUSTNESS_CSV_FIELDS, rows)
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


MAX_TAIL_TRIALS = 10**7  # draws of tail_exponent_demo: about 0.25 GB


def tail_exponent_demo(
    params: PlantedPartitionParams, i: int, j: int, trials: int, seed: int = 0
) -> TailDemoResult:
    """Estimate the exponent of the tail event that a community-i vertex has
    no more in-community than cross-community edges (after the size-skew
    shift tau (pi_i - pi_j) log n).  A bad pair, trials outside
    [1, MAX_TAIL_TRIALS] or a negative seed raises ParameterError before
    sampling."""
    div = thresholds.ch_divergence_closed_form(params, i, j)
    if not 1 <= trials <= MAX_TAIL_TRIALS:
        raise ParameterError(f"need 1 <= trials <= {MAX_TAIL_TRIALS}, got {trials}")
    if seed < 0:
        raise ParameterError(f"need a seed >= 0, got {seed}")
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
    labels: PartitionLabels | None

    @property
    def is_partition(self) -> bool:
        return self.labels is not None


def omega_sweep(
    g: Graph,
    r: int,
    omegas,
    opts: sdp.SolverOptions | None = None,
) -> list:
    """Run `sdp.recover` (certificate first, as `solve` does) at each omega
    of a grid, keeping only solutions that round to genuine partitions.

    Distinct omega values can surface distinct (e.g. hierarchical)
    partitions.  An omega outside (0, 1) or an r outside [2, n] is bad
    input, as in run_phase_diagram: every value is checked before the first
    solve, and ParameterError is raised.  A solve whose linear algebra fails
    (LinAlgError) is recorded as not converged; any other exception is raised.
    """
    omegas = [float(w) for w in omegas]
    sdp._check_r(r, g.n)
    for omega in omegas:
        sdp._check_omega(omega)
    opts = opts or sdp.SolverOptions(tol=1e-5, max_iters=5000)
    out = []
    for omega in omegas:
        try:
            rec = sdp.recover(g, r, omega=omega, opts=opts)
        except np.linalg.LinAlgError:
            out.append(OmegaSweepEntry(omega=omega, converged=False, labels=None))
            continue
        out.append(OmegaSweepEntry(omega=omega, converged=rec.converged, labels=rec.labels))
    return out
