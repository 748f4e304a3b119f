"""Brute-force maximum-likelihood oracle for tiny instances.

Enumerates set partitions into exactly r blocks (restricted growth strings,
so community relabelings are never visited twice) and maximizes the relevant
objective exactly.  Intended for validating the SDP and certificate modules
at n <= 14.
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


def _enumerate_partitions(g: Graph, r: int, score_leaf, prune_block_size=None,
                          min_blocks=None):
    """DFS over partitions with at most r blocks, in canonical
    (first-occurrence) order.

    score_leaf(labels, block_sizes, used) is called at each complete
    partition with at least min_blocks (default r) blocks; intra edge counts
    are maintained incrementally via bitmasks.
    """
    n = g.n
    adj = _adjacency_masks(g)
    labels = [0] * n
    block_masks = [0] * r
    block_sizes = [0] * r
    max_size = prune_block_size if prune_block_size is not None else n
    need = r if min_blocks is None else min_blocks

    def rec(v: int, used: int, intra: int):
        if v == n:
            if used >= need:
                score_leaf(labels, block_sizes[:used], intra)
            return
        # may join an existing block or open the next one
        open_limit = min(used + 1, r)
        for b in range(open_limit):
            if block_sizes[b] >= max_size:
                continue
            if n - v < need - used - (1 if b == used else 0):
                continue
            gain = (adj[v] & block_masks[b]).bit_count()
            labels[v] = b
            block_masks[b] |= 1 << v
            block_sizes[b] += 1
            rec(v + 1, max(used, b + 1), intra + gain)
            block_masks[b] &= ~(1 << v)
            block_sizes[b] -= 1

    rec(0, 0, 0)


def _check_guard(g: Graph, max_n: int):
    if g.n > max_n:
        raise ParameterError(
            f"enumeration refused for n={g.n} > {max_n}; override max_n explicitly"
        )


def mle_known_sizes(g: Graph, sizes, max_n: int = MAX_N) -> MleResult:
    """Exhaustive argmax of <A, X> over partitions with the given size multiset."""
    _check_guard(g, max_n)
    sizes = check_sizes(sizes, g.n)
    r = len(sizes)
    target = sorted(sizes)
    best = {"obj": -math.inf, "argmax": []}

    def leaf(labels, block_sizes, intra):
        if sorted(block_sizes) != target:
            return
        obj = 2.0 * intra
        if obj > best["obj"] + _TIE_TOL:
            best["obj"] = obj
            best["argmax"] = [tuple(labels)]
        elif obj > best["obj"] - _TIE_TOL:
            best["argmax"].append(tuple(labels))

    _enumerate_partitions(g, r, leaf, prune_block_size=max(sizes))
    return _finish(best, r)


def mle_unknown_sizes(g: Graph, r: int, omega: float, max_n: int = MAX_N) -> MleResult:
    """Exhaustive argmax of <A, X> - omega * sum(s_i^2) over partitions into
    at most r communities (fewer blocks are allowed; merging can win)."""
    _check_guard(g, max_n)
    if r < 1 or r > g.n:
        raise ParameterError(f"need 1 <= r <= n, got r={r}")
    best = {"obj": -math.inf, "argmax": []}

    def leaf(labels, block_sizes, intra):
        obj = 2.0 * intra - omega * sum(s * s for s in block_sizes)
        if obj > best["obj"] + _TIE_TOL:
            best["obj"] = obj
            best["argmax"] = [tuple(labels)]
        elif obj > best["obj"] - _TIE_TOL:
            best["argmax"].append(tuple(labels))

    _enumerate_partitions(g, r, leaf, min_blocks=1)
    return _finish(best, None)


def _finish(best, r) -> MleResult:
    argmax = [
        PartitionLabels(labels=lab, r=r if r is not None else max(lab) + 1)
        for lab in sorted(best["argmax"])
    ]
    return MleResult(
        best_labels=argmax[0],
        best_objective=best["obj"],
        is_unique=len(argmax) == 1,
        argmax=argmax,
    )


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
