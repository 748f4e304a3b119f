"""Brute-force maximum-likelihood oracle for tiny instances.

Enumerates set partitions into at most r blocks (restricted growth strings,
so community relabelings are never visited twice) and maximizes the relevant
objective exactly in one pass that keeps every tie.  Intended for
validating the SDP and certificate modules at n <= 14.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph_model import Graph, PartitionLabels, check_sizes
from .thresholds import ParameterError

MAX_N = 14
_TIE_TOL = 1e-9


@dataclass
class MleResult:
    best_labels: PartitionLabels
    best_objective: float
    is_unique: bool
    argmax: list  # all optimal PartitionLabels (canonical form), ties included


def _adjacency_masks(g: Graph) -> list:
    masks = [0] * g.n
    for u, v in g.pairs.tolist():
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _enumerate_partitions(g: Graph, r: int, objective, min_blocks: int,
                          max_size: int) -> MleResult:
    """Exhaustive argmax of objective over partitions with min_blocks to r
    blocks of at most max_size vertices, visited once each in canonical
    (first-occurrence) order.

    objective(block_sizes, intra_edges) is called at each complete partition;
    a return of None skips it.  Intra edge counts are maintained
    incrementally via bitmasks.  Objectives within _TIE_TOL of the best are
    ties.  Raises ParameterError when the best objective is not finite.
    """
    n = g.n
    adj = _adjacency_masks(g)
    labels = [0] * n
    block_masks = [0] * r
    block_sizes = [0] * r
    best = -math.inf
    argmax = []

    def rec(v: int, used: int, intra: int):
        nonlocal best, argmax
        if v == n:
            if used >= min_blocks and (obj := objective(block_sizes[:used], intra)) is not None:
                if obj > best + _TIE_TOL:
                    best, argmax = obj, [tuple(labels)]
                elif obj > best - _TIE_TOL:
                    argmax.append(tuple(labels))
            return
        # may join an existing block or open the next one
        for b in range(min(used + 1, r)):
            if block_sizes[b] >= max_size:
                continue
            if n - v < min_blocks - used - (1 if b == used else 0):
                continue
            gain = (adj[v] & block_masks[b]).bit_count()
            labels[v] = b
            block_masks[b] |= 1 << v
            block_sizes[b] += 1
            rec(v + 1, max(used, b + 1), intra + gain)
            block_masks[b] &= ~(1 << v)
            block_sizes[b] -= 1

    rec(0, 0, 0)
    if not math.isfinite(best):
        raise ParameterError("no partition has a finite objective")
    argmax = [PartitionLabels(labels=lab, r=max(lab) + 1) for lab in sorted(argmax)]
    return MleResult(best_labels=argmax[0], best_objective=best,
                     is_unique=len(argmax) == 1, argmax=argmax)


def _check_guard(g: Graph, max_n: int):
    if g.n > max_n:
        raise ParameterError(
            f"enumeration refused for n={g.n} > {max_n}; override max_n explicitly"
        )


def mle_known_sizes(g: Graph, sizes, max_n: int = MAX_N) -> MleResult:
    """Exhaustive argmax of <A, X> over partitions with the given size multiset."""
    _check_guard(g, max_n)
    sizes = check_sizes(sizes, g.n)
    target = sorted(sizes)

    def objective(block_sizes, intra):
        return 2.0 * intra if sorted(block_sizes) == target else None

    return _enumerate_partitions(g, len(sizes), objective, len(sizes), max(sizes))


def mle_unknown_sizes(g: Graph, r: int, omega: float, max_n: int = MAX_N) -> MleResult:
    """Exhaustive argmax of <A, X> - omega * sum(s_i^2) over partitions into
    at most r communities (fewer blocks are allowed; merging can win)."""
    _check_guard(g, max_n)
    if r < 1 or r > g.n:
        raise ParameterError(f"need 1 <= r <= n, got r={r}")

    def objective(block_sizes, intra):
        return 2.0 * intra - omega * sum(s * s for s in block_sizes)

    return _enumerate_partitions(g, r, objective, 1, g.n)


def loglikelihood(g: Graph, labels: PartitionLabels, p: float, q: float) -> float:
    """Exact log-likelihood of the labels for a planted partition sample.

    p == q is allowed (the likelihood is then label-independent)."""
    if not (0.0 < q <= p < 1.0):
        raise ParameterError(f"need 0 < q <= p < 1, got p={p}, q={q}")
    lab = labels.as_array()
    u, v = g.pairs.T
    intra = int(np.count_nonzero(lab[u] == lab[v]))
    inter = g.m - intra
    sizes = labels.sizes()
    intra_pairs = int(np.sum(sizes * (sizes - 1)) // 2)
    total_pairs = g.n * (g.n - 1) // 2
    inter_pairs = total_pairs - intra_pairs
    return (
        intra * math.log(p)
        + inter * math.log(q)
        + (intra_pairs - intra) * math.log1p(-p)
        + (inter_pairs - inter) * math.log1p(-q)
    )
