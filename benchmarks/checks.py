"""Correctness checks the benchmark applies to the program's outputs.

Every check here is computed apart from the program: files are parsed with
this module's own readers, objectives are evaluated from edge counts, and the
Chernoff-Hellinger divergence is maximised by its own golden-section search.
Nothing is compared against a saved copy of an earlier output.
"""

from __future__ import annotations

import math


def read_edges(path) -> tuple[int, list]:
    """(n, edges) from a graph file: header `n m`, then `m` lines `u v`."""
    with open(path) as f:
        n, m = (int(x) for x in f.readline().split())
        edges = [tuple(int(x) for x in line.split()) for line in f]
    if len(edges) != m:
        raise ValueError(f"{path}: header says {m} edges, found {len(edges)}")
    return n, edges


def read_label_list(path) -> list:
    """Community of each vertex from a `vertex community` file."""
    pairs = {}
    with open(path) as f:
        for line in f:
            v, c = (int(x) for x in line.split())
            pairs[v] = c
    return [pairs[v] for v in range(len(pairs))]


def same_partition(a, b) -> bool:
    """True when two label sequences induce one partition up to relabelling."""
    if len(a) != len(b):
        return False
    forward, backward = {}, {}
    for x, y in zip(a, b):
        if forward.setdefault(x, y) != y or backward.setdefault(y, x) != x:
            return False
    return True


def partition_objective(edges, labels, omega: float) -> float:
    """<A - omega J, X_hat> for the centered partition matrix of `labels`.

    X_hat is 1 on same-community pairs (the diagonal included) and -1/(r-1)
    elsewhere; each undirected edge appears twice in A.
    """
    r = len(set(labels))
    low = -1.0 / (r - 1)
    intra = sum(labels[u] == labels[v] for u, v in edges)
    inter = len(edges) - intra
    n = len(labels)
    same_pairs = sum(labels.count(c) ** 2 for c in set(labels))
    a_dot = 2.0 * intra + 2.0 * low * inter
    j_dot = same_pairs + low * (n * n - same_pairs)
    return a_dot - omega * j_dot


def objective_tolerance(n: int, tol: float) -> float:
    """Allowed gap between the solver's objective and the partition's.

    The solver stops when its residuals, Frobenius norms divided by n, fall
    below `tol`, so its iterate is within about n*tol of the optimum in
    Frobenius norm; with |C_ij| <= 1, |<C, X - X_hat>| <= ||C||_F * n*tol
    <= n*n*tol.
    """
    return n * n * tol


def objective_matches(printed: float, edges, labels, omega: float, tol: float) -> bool:
    expected = partition_objective(edges, labels, omega)
    return abs(printed - expected) <= objective_tolerance(len(labels), tol)


def adversary_diff(before, after, labels) -> dict:
    """Edge-set difference of a graph change, split by community membership."""
    before, after = set(before), set(after)
    counts = {"added_intra": 0, "added_inter": 0, "removed_intra": 0, "removed_inter": 0}
    for kind, pairs in (("added", after - before), ("removed", before - after)):
        for u, v in pairs:
            side = "intra" if labels[u] == labels[v] else "inter"
            counts[f"{kind}_{side}"] += 1
    return counts


def is_monotone(diff: dict) -> bool:
    """A monotone change only adds intra edges and removes inter edges."""
    changed = diff["added_intra"] + diff["removed_inter"]
    return diff["added_inter"] == 0 and diff["removed_intra"] == 0 and changed > 0


def certify_verdict_ok(exit_code: int, report: dict, planted: bool) -> bool:
    """The planted labels verify (exit 0); a labelling with two vertices
    swapped between communities is rejected (exit 1), because the unique
    optimum cannot be two different partitions."""
    if planted:
        return exit_code == 0 and report.get("verified") is True
    return exit_code == 1 and report.get("verified") is False


def robustness_ok(summary: dict, rows: list, trials: int) -> bool:
    """Every paired trial recovers on both graphs, so no violation occurs."""
    return (
        summary.get("violations") == 0
        and summary.get("clean_rate") == 1.0
        and summary.get("adversarial_rate") == 1.0
        and len(rows) == trials
        and all(row["clean_recovered"] == "1" and row["adversarial_recovered"] == "1" for row in rows)
    )


def ch_divergence(rates, pi, i: int, j: int) -> float:
    """D_+(i, j) = max over t in [0, 1] of
    sum_k pi_k (t Q_ik + (1-t) Q_jk - Q_ik^t Q_jk^(1-t)),
    by golden-section search on the concave supremand."""

    def supremand(t):
        return sum(
            w * (t * a + (1 - t) * b - a**t * b ** (1 - t))
            for w, a, b in zip(pi, rates[i], rates[j])
        )

    lo, hi = 0.0, 1.0
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > 1e-12:
        left, right = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        if supremand(left) < supremand(right):
            lo = left
        else:
            hi = right
    return max(supremand(0.0), supremand(1.0), supremand(0.5 * (lo + hi)))


def min_ch_divergence(p_tilde: float, q_tilde: float, pi) -> float:
    """Smallest pairwise CH-divergence of a planted partition model; exact
    recovery is possible iff it exceeds 1 (Abbe-Sandon)."""
    r = len(pi)
    rates = [[p_tilde if a == b else q_tilde for b in range(r)] for a in range(r)]
    return min(ch_divergence(rates, pi, i, j) for i in range(r) for j in range(i + 1, r))
