"""Planted partition sampling, monotone adversaries, and graph serialization.

Randomness is derived from a splitmix64-style hash of (seed, u, v), one
independent substream per unordered vertex pair, so samples are reproducible
across platforms and safe to generate concurrently.

Every reader and writer works on one edge form, the sorted int64 pair array
`Graph.pairs`; one function checks and applies every adversary's change.
"""

from __future__ import annotations

import inspect
import io
import json
import math
from dataclasses import dataclass, field, is_dataclass
from functools import cached_property

import numpy as np

from .thresholds import (
    ParameterError,
    PlantedPartitionParams,
    bind_json,
    bm_dominates,
    is_integral,
    is_number,
    is_number_array,
    ppm_rate_matrix,
)


def _holds_bool(value) -> bool:
    """Whether a nested list or tuple holds a bool, such as a JSON true,
    which np.asarray turns into the integer 1 beside integers."""
    if isinstance(value, (list, tuple)):
        return any(_holds_bool(x) for x in value)
    return isinstance(value, (bool, np.bool_))


class GraphFormatError(ParameterError):
    """Raised on malformed graph or label files; carries the line number.
    A ParameterError, as both mean bad input."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class PartitionLabels:
    """Assignment of each vertex to a community in [0, r): integer labels,
    by the dtype rule of `Graph`'s vertex ids, and an integral r."""

    labels: tuple
    r: int

    def __post_init__(self):
        lab = np.asarray(self.labels)
        if (lab.size and lab.dtype.kind not in "iu") or not is_integral(self.r):
            raise ParameterError(f"labels and r must be integers, got {lab.dtype} and {self.r!r}")
        object.__setattr__(self, "labels", tuple(lab.tolist()))
        object.__setattr__(self, "r", int(self.r))
        if self.r < 1:
            raise ParameterError("need at least one community")
        seen = set(self.labels)
        if any(c < 0 or c >= self.r for c in seen):
            raise ParameterError("community index out of range")
        if len(seen) < self.r:
            # every label lies in [0, r): the first len(seen) + 3 indices hold
            # the first three empty communities, or all of them
            first = [c for c in range(min(self.r, len(seen) + 3)) if c not in seen][:3]
            more = ", ..." if self.r - len(seen) > 3 else ""
            raise ParameterError(
                f"empty communities ({self.r - len(seen)}): {', '.join(map(str, first))}{more}"
            )

    @property
    def n(self) -> int:
        return len(self.labels)

    def sizes(self) -> np.ndarray:
        return np.bincount(np.asarray(self.labels), minlength=self.r)

    def members(self, i: int) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.labels) == i)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.labels, dtype=int)

    def indicator_matrix(self) -> np.ndarray:
        """n x r one-hot community membership matrix."""
        m = np.zeros((self.n, self.r))
        m[np.arange(self.n), self.as_array()] = 1.0
        return m

    def same_community_matrix(self) -> np.ndarray:
        lab = self.as_array()
        return lab[:, None] == lab[None, :]


def _pair_index(n: int, e: np.ndarray) -> np.ndarray:
    """Position of each pair (u, v), u < v, in the row-major upper triangle
    (the order of np.triu_indices(n, 1)): u n - u(u+1)/2 + v - u - 1, that
    is u(2n - 3 - u)/2 + v - 1, evaluated in one array."""
    u, v = e[:, 0], e[:, 1]
    k = (2 * n - 3) - u
    k *= u
    k //= 2  # u(2n - 3 - u) is even
    k += v
    k -= 1
    return k


@dataclass(frozen=True, init=False, eq=False)
class Graph:
    """Undirected simple graph on vertices 0..n-1.

    `pairs` is the one edge form every program path reads: a read-only,
    sorted, duplicate-free int64 (m, 2) array of the edges (u, v), u < v.
    `Graph(n, edges)` takes n >= 0 and integer (u, v) pairs or an (m, 2)
    integer array; repeats collapse, and a negative n, a non-integer id (a
    bool is none) or the first pair outside 0 <= u < v < n raises
    ParameterError.  `edges` is a frozenset of tuples built on each call,
    for callers outside the program, from `sorted_edges()`, the sorted list
    that benchmarks/test_checks.py reads.
    """

    n: int
    pairs: np.ndarray = field(repr=False)

    def __init__(self, n: int, edges=()):
        n = int(n)
        if n < 0:
            raise ParameterError(f"need n >= 0, got n={n}")
        if isinstance(edges, np.ndarray):  # its dtype says it all
            e = edges
        else:
            edges = list(edges)
            if _holds_bool(edges):
                raise ParameterError("edges must be integer (u, v) pairs, got a bool")
            e = np.asarray(edges)
        if e.size and (e.ndim != 2 or e.shape[1] != 2 or e.dtype.kind not in "iu"):
            raise ParameterError(f"edges must be integer (u, v) pairs, got {e.dtype} {e.shape}")
        e = e.astype(np.int64, copy=False).reshape(-1, 2)
        u, v = e[:, 0], e[:, 1]
        bad = ~((0 <= u) & (u < v) & (v < n))
        if bad.any():
            u0, v0 = e[np.argmax(bad)].tolist()
            raise ParameterError(f"bad edge ({u0}, {v0}) for n={n}")
        keys = _pair_index(n, e)
        if np.all(keys[1:] > keys[:-1]):  # already sorted and duplicate-free
            e = e.copy()  # the graph shares no memory with the caller's array
        else:
            e = e[np.unique(keys, return_index=True)[1]]
        self._own(n, e)

    def _own(self, n: int, pairs: np.ndarray) -> None:
        pairs.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def _from_sorted(cls, n: int, pairs: np.ndarray) -> Graph:
        """The graph on `pairs`, a fresh array of valid, sorted and
        duplicate-free pairs that it takes over without a copy or a check."""
        g = object.__new__(cls)
        g._own(n, pairs)
        return g

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.pairs, other.pairs)

    def __hash__(self):
        return hash((self.n, self.pairs.tobytes()))

    @property
    def m(self) -> int:
        return len(self.pairs)

    @property
    def edges(self) -> frozenset:
        return frozenset(self.sorted_edges())

    def sorted_edges(self) -> list:
        return list(zip(*self.pairs.T.tolist()))

    @cached_property
    def neighbours(self) -> tuple[np.ndarray, np.ndarray]:
        """(nbr, ptr): every vertex's neighbours in ascending order, vertex
        after vertex, as one int64 array built once from `pairs`; vertex w's
        run nbr[ptr[w] : ptr[w + 1]] holds its lower neighbours (pairs (u, w),
        by a stable sort on v), then its higher ones (pairs (w, v), already
        grouped), each placed by a prefix sum of degrees."""
        u, v = self.pairs.T
        down, up = np.bincount(v, minlength=self.n), np.bincount(u, minlength=self.n)
        nbr = np.empty(2 * len(u), dtype=np.int64)
        k = np.arange(len(u))
        nbr[k + np.cumsum(down)[u]] = v
        order = np.argsort(v, kind="stable")
        nbr[k + (np.cumsum(up) - up)[v[order]]] = u[order]
        return nbr, np.append(0, np.cumsum(down + up))

    @cached_property
    def _runs(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, starts): the vertices with a neighbour and their runs' starts."""
        rows = np.flatnonzero(np.diff(self.neighbours[1]))
        return rows, self.neighbours[1][rows]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x for an (n, k) block x, one column at a time: each row sums
        its run of the cached neighbour index by np.add.reduceat, over the
        column gathered into one buffer reused across columns.  O(m + n k)
        memory, no dense adjacency; a vertex without neighbours gets 0."""
        nbr, (rows, starts) = self.neighbours[0], self._runs
        cols = np.ascontiguousarray(np.asarray(x, dtype=float).T)
        out = np.zeros(cols.shape)
        if len(nbr):  # reduceat needs a non-empty array
            gathered = np.empty(len(nbr))
            # every index is in range; mode="clip" keeps take from buffering `out`
            for col, y in zip(cols, out):
                y[rows] = np.add.reduceat(np.take(col, nbr, out=gathered, mode="clip"), starts)
        return out.T

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        u, v = self.pairs.T
        a[u, v] = 1.0
        a[v, u] = 1.0
        return a


@dataclass(frozen=True)
class AdversarySpec:
    """Monotone adversary description, the JSON {"kind": ..., "params": ...}.

    A kind is a key of `_ADVERSARIES`; its params, their defaults and types
    are those of its function there after (g, truth, seed).  Construction
    binds `params` to that signature: an unknown kind or param, a missing
    param and a value of the wrong type raise ParameterError.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _bound_params(self)

    @classmethod
    def from_json(cls, text: str) -> "AdversarySpec":
        return bind_json(cls, json.loads(text), "adversary spec")


# ---------------------------------------------------------------------------
# reproducible pair-keyed randomness

_U64 = np.uint64


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = (x + _U64(0x9E3779B97F4A7C15)).astype(np.uint64)
    x ^= x >> _U64(30)
    x *= _U64(0xBF58476D1CE4E5B9)
    x ^= x >> _U64(27)
    x *= _U64(0x94D049BB133111EB)
    x ^= x >> _U64(31)
    return x


def _seed_key(seed: int) -> np.uint64:
    return _splitmix64(np.asarray([seed % 2**64], dtype=np.uint64))[0]


def _uniform(x: np.ndarray) -> np.ndarray:
    """The Uniform(0,1) variate of each key: the top 53 bits of its hash."""
    return (_splitmix64(x) >> _U64(11)).astype(np.float64) * 2.0**-53


def pair_uniforms(seed: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Uniform(0,1) variate per unordered pair, keyed by (seed, u, v)."""
    h = _splitmix64(_seed_key(seed) ^ np.asarray(u, dtype=np.uint64))
    return _uniform(h ^ _splitmix64(np.asarray(v, dtype=np.uint64)))


def _vertex_keys(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, b), the two hashes of pair_uniforms that depend on one vertex
    alone: pair_uniforms(seed, u, v) == _uniform(a[u] ^ b[v]) for u, v < n."""
    ids = np.arange(n, dtype=np.uint64)
    return _splitmix64(_seed_key(seed) ^ ids), _splitmix64(ids)


def _derive_seed(seed: int, tag: int) -> int:
    return int(_seed_key(seed) ^ _U64(tag))


# ---------------------------------------------------------------------------
# sampling


def community_sizes(n: int, pi) -> np.ndarray:
    """Community sizes by largest-remainder rounding of pi * n; sums to n."""
    pi = np.asarray(pi, dtype=float)
    quota = pi * n
    sizes = np.floor(quota).astype(int)
    leftover = n - sizes.sum()
    order = np.argsort(-(quota - sizes), kind="stable")
    sizes[order[:leftover]] += 1
    if np.any(sizes == 0):
        raise ParameterError("rounding produced an empty community")
    return sizes


def check_sizes(sizes, n: int) -> list:
    """The sizes as ints; ParameterError unless positive integers summing to n."""
    if not all(float(s).is_integer() for s in sizes):
        raise ParameterError(f"sizes {list(sizes)} are not all integers")
    sizes = [int(s) for s in sizes]
    if sum(sizes) != n or any(s < 1 for s in sizes):
        raise ParameterError(f"sizes {sizes} do not sum to n={n}")
    return sizes


def planted_labels(n: int, pi) -> PartitionLabels:
    """Ground-truth labels: contiguous blocks sized by largest remainder."""
    sizes = community_sizes(n, pi)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    return PartitionLabels(labels=tuple(labels.tolist()), r=len(sizes))


_CHUNK_PAIRS = 1 << 16  # upper-triangle pairs per row block
_NO_PAIRS = np.empty((0, 2), dtype=np.int64)


def _pair_chunks(n: int):
    """The upper-triangle pairs (u, v), u < v, in row-major order (the order
    of np.triu_indices(n, 1)), over blocks of whole rows: yields
    (first, iu, iv), where `first` is the triangle index of the block's first
    pair.  A block holds at most _CHUNK_PAIRS pairs, or one row when a row
    alone is longer, so memory is O(n + _CHUNK_PAIRS), not O(n^2).  Callers
    handle each block in a function of its own, so that the block's
    temporaries are freed before the resulting graph is built."""
    counts = np.arange(n - 1, 0, -1)  # pairs in rows 0..n-2
    ends = np.cumsum(counts)
    start = first = 0
    while start < n - 1:
        stop = max(start + 1, int(np.searchsorted(ends, first + _CHUNK_PAIRS, side="right")))
        rows = np.arange(start, stop)
        c = counts[start:stop]
        offsets = np.cumsum(c) - c  # block offset of each row's first pair
        iu = np.repeat(rows, c)
        iv = np.arange(len(iu)) + np.repeat(rows + 1 - offsets, c)
        yield first, iu, iv
        start, first = stop, int(ends[stop - 1])


def _draw_pairs(n: int, lab: np.ndarray, rate: np.ndarray, seed: int, skip=None) -> np.ndarray:
    """The sorted upper-triangle pairs (u, v) whose pair_uniforms(seed, u, v)
    is below rate[lab[u], lab[v]], less those whose triangle index is in the
    sorted array `skip`: the one draw behind the sampler and the per-pair
    adversaries' additions.  Each vertex is hashed once, each pair once."""
    r, flat = len(rate), np.ravel(rate)
    a, b = _vertex_keys(seed, n)

    def block(first, iu, iv):
        hit = _uniform(a[iu] ^ b[iv]) < flat[lab[iu] * r + lab[iv]]
        if skip is not None:
            lo, hi = np.searchsorted(skip, (first, first + len(iu)))
            hit[skip[lo:hi] - first] = False
        return np.column_stack((iu[hit], iv[hit]))

    return np.concatenate([_NO_PAIRS] + [block(*c) for c in _pair_chunks(n)])


def sample_ppm(
    params: PlantedPartitionParams, seed: int
) -> tuple[Graph, PartitionLabels]:
    """Sample a planted partition graph; deterministic given the seed."""
    truth = planted_labels(params.n, params.pi)
    rate = ppm_rate_matrix(params.p, params.q, truth.r)
    pairs = _draw_pairs(params.n, truth.as_array(), rate, seed)
    return Graph._from_sorted(params.n, pairs), truth


# ---------------------------------------------------------------------------
# monotone adversaries


def _check_monotone(truth: PartitionLabels, added: np.ndarray, removed: np.ndarray) -> None:
    """Raise ParameterError naming the first added inter pair, or else the
    first removed intra pair."""
    lab = truth.as_array()
    for e, intra, what in (
        (added, False, "addition of inter"),
        (removed, True, "removal of intra"),
    ):
        bad = (lab[e[:, 0]] == lab[e[:, 1]]) == intra
        if bad.any():
            u, v = e[np.argmax(bad)].tolist()
            raise ParameterError(f"non-monotone {what} edge ({u}, {v})")


def _find_sorted(keys: np.ndarray, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(at, found): where each of `wanted` falls in the sorted `keys`
    (np.searchsorted), and whether it is there."""
    at = np.searchsorted(keys, wanted)
    if not len(keys):
        return at, np.zeros(len(wanted), dtype=bool)
    return at, keys.take(at, mode="clip") == wanted


def _apply_change(
    g: Graph, truth: PartitionLabels, added: np.ndarray, removed: np.ndarray
) -> Graph:
    """The graph with the `added` pairs joined and the `removed` pairs
    dropped; every adversary goes through here.  Rejects a change that is
    not monotone with respect to truth.  Both arrays hold valid pairs
    u < v < n.  Every adversary passes sorted, duplicate-free additions;
    other additions cost one sort.  The merge writes the output pairs once,
    into the array the new graph keeps."""
    _check_monotone(truth, added, removed)
    keys = _pair_index(g.n, g.pairs)  # sorted, as the pairs are
    at, found = _find_sorted(keys, _pair_index(g.n, removed))
    keep = np.ones(len(keys), dtype=bool)
    keep[at[found]] = False
    keys = keys[keep]
    wanted = _pair_index(g.n, added)
    if not np.all(wanted[1:] > wanted[:-1]):
        wanted, first = np.unique(wanted, return_index=True)
        added = added[first]
    at, found = _find_sorted(keys, wanted)
    if found.any():
        added, at = added[~found], at[~found]
    at += np.arange(len(at))  # the slot of each addition in the output
    slot = np.zeros(len(keys) + len(at), dtype=bool)
    slot[at] = True
    del keys, wanted, at, found  # freed before the output is allocated
    out = np.empty((len(slot), 2), dtype=np.int64)
    out[slot] = added
    out[~slot] = g.pairs[keep]
    return Graph._from_sorted(g.n, out)


def monotone_diff(
    before: Graph, after: Graph, truth: PartitionLabels
) -> tuple[np.ndarray, np.ndarray]:
    """Change log (added, removed) between two graphs, as sorted (k, 2) pair
    arrays; rejects any non-monotone change with respect to the given
    truth.  Both graphs and the labels must have one n, or ParameterError
    is raised."""
    if not before.n == after.n == truth.n:
        raise ParameterError(
            f"labels and graphs disagree on n: {truth.n}, {before.n} and {after.n}"
        )
    n = before.n
    kb, ka = _pair_index(n, before.pairs), _pair_index(n, after.pairs)
    added = after.pairs[~np.isin(ka, kb)]
    removed = before.pairs[~np.isin(kb, ka)]
    _check_monotone(truth, added, removed)
    return added, removed


def _pair_kernel(g, truth, add_rate, rem_rate, seed, add_tag, rem_tag):
    """Per-pair monotone change: an absent intra pair (u, v) with labels
    (i, i) is added when its add_tag uniform is below add_rate[i, i], a
    present inter pair with labels (i, j) removed when its rem_tag uniform is
    below rem_rate[i, j].  Additions are drawn over the triangle in row
    blocks, removals over the edges alone."""
    lab, intra = truth.as_array(), np.eye(truth.r, dtype=bool)
    added = _draw_pairs(
        g.n, lab, np.where(intra, add_rate, 0.0), _derive_seed(seed, add_tag),
        skip=_pair_index(g.n, g.pairs),
    )
    u, v = g.pairs.T
    rate = np.where(intra, 0.0, rem_rate).ravel()[lab[u] * truth.r + lab[v]]
    removed = g.pairs[pair_uniforms(_derive_seed(seed, rem_tag), u, v) < rate]
    return _apply_change(g, truth, added, removed)


def _random_monotone(g, truth, seed, delta_add: float = 0.0, delta_rem: float = 0.0):
    if not (0.0 <= delta_add <= 1.0 and 0.0 <= delta_rem <= 1.0):
        raise ParameterError("delta_add and delta_rem must lie in [0, 1]")
    rates = np.ones((truth.r, truth.r))
    return _pair_kernel(g, truth, delta_add * rates, delta_rem * rates, seed, 0xADD, 0x4E)


def _subcommunity_plant(g, truth, seed, size: int, community: int = 0, density: float = 1.0):
    members = truth.members(community)
    if not 0 <= size <= len(members):
        raise ParameterError(f"sub-community size {size} is not in [0, {len(members)}]")
    if not 0.0 <= density <= 1.0:  # NaN included
        raise ParameterError(f"density must lie in [0, 1], got {density}")
    rng = np.random.default_rng(_derive_seed(seed, 0x5B))
    chosen = np.sort(rng.choice(members, size=size, replace=False))
    a, b = np.triu_indices(len(chosen), 1)
    absent = np.column_stack((chosen[a], chosen[b]))
    absent = absent[~np.isin(_pair_index(g.n, absent), _pair_index(g.n, g.pairs))]
    if density < 1.0:
        # one draw per absent pair, in row-major order
        absent = absent[rng.random(len(absent)) < density]
    return _apply_change(g, truth, absent, _NO_PAIRS)


def _hub_plant(g, truth, seed, hubs: int, degree: int, community: int = 0):
    members = truth.members(community)
    if not (0 <= hubs <= len(members) and 0 <= degree <= len(members) - 1):
        raise ParameterError("hub count or degree is negative or exceeds community size")
    rng = np.random.default_rng(_derive_seed(seed, 0x4B))
    hub_verts = rng.choice(members, size=hubs, replace=False)
    added = [_NO_PAIRS]
    for h in hub_verts:
        t = rng.choice(members[members != h], size=degree, replace=False)
        added.append(np.column_stack((np.minimum(h, t), np.maximum(h, t))))
    return _apply_change(g, truth, Graph(g.n, np.concatenate(added)).pairs, _NO_PAIRS)


def _sbm_dominate(g, truth, seed, q_tilde_prime: list, base: PlantedPartitionParams):
    return simulate_dominating_sbm(g, truth, q_tilde_prime, base, seed)


def _scripted(g, truth, seed, add: list = (), remove: list = ()):
    added, removed = (Graph(g.n, np.sort(e, axis=-1)).pairs for e in (add, remove))
    return _apply_change(g, truth, added, removed)


def simulate_dominating_sbm(
    g: Graph,
    truth: PartitionLabels,
    q_tilde_prime: np.ndarray,
    base: PlantedPartitionParams,
    seed: int,
) -> Graph:
    """Monotone thinning/superposition converting a planted partition sample
    into a sample of the dominating block model with rate matrix
    q_tilde_prime.

    Intra pairs gain a missing edge with probability (p' - p)/(1 - p) and
    inter pairs lose an existing edge with probability (q - q')/q, so the
    output is distributed as the target block model conditioned on truth.
    """
    if truth.n != g.n or base.n != g.n:
        raise ParameterError(
            f"labels (n={truth.n}), graph (n={g.n}) and base model (n={base.n}) disagree on n"
        )
    if base.r != truth.r or not np.array_equal(base.sizes(), truth.sizes()):
        raise ParameterError(
            f"base model communities {base.sizes().tolist()} disagree with the labels' "
            f"{truth.sizes().tolist()}"
        )
    qp = np.asarray(q_tilde_prime, dtype=float)
    r = truth.r
    if qp.shape != (r, r) or not np.allclose(qp, qp.T):
        raise ParameterError(f"rate matrix must be symmetric {r}x{r}")
    if not bm_dominates(qp, ppm_rate_matrix(base.p_tilde, base.q_tilde, r)):
        raise ParameterError(
            "target must dominate the base model (intra rates up, inter rates down)"
        )
    rate = qp * (math.log(base.n) / base.n)
    if np.any(np.diag(rate) >= 1.0):
        raise ParameterError("target intra probability reaches 1")
    add_rate = (rate - base.p) / (1.0 - base.p)
    rem_rate = (base.q - rate) / base.q
    return _pair_kernel(g, truth, add_rate, rem_rate, seed, 0xD0, 0xD0)


# kind -> adversary(g, truth, seed, **params); the one statement of the params
_ADVERSARIES = {
    "none": lambda g, truth, seed: g,
    "random_monotone": _random_monotone,
    "subcommunity_plant": _subcommunity_plant,
    "hub_plant": _hub_plant,
    "sbm_dominate": _sbm_dominate,
    "scripted": _scripted,
}


def _fits(value, kind) -> bool:
    """Whether a param value has its annotated type: a number for float, an
    integral number for int, such as 5 or 5.0 (a bool is neither), a
    rectangular list of numbers for list (`is_number_array`)."""
    if kind is list:
        return is_number_array(value)
    return (is_integral if kind is int else is_number)(value)


def _bound_params(spec: AdversarySpec) -> dict:
    """spec.params as keyword arguments of its kind's function, each value
    checked against its annotation, or built from it when that is a dataclass."""
    if spec.kind not in _ADVERSARIES:
        raise ParameterError(f"adversary kind {spec.kind!r} is not one of {list(_ADVERSARIES)}")
    sig = inspect.signature(_ADVERSARIES[spec.kind], eval_str=True)
    sig = sig.replace(parameters=list(sig.parameters.values())[3:])
    args = bind_json(sig.bind, spec.params, f"{spec.kind} params").arguments
    for name, value in args.items():
        kind = sig.parameters[name].annotation
        if is_dataclass(kind):
            args[name] = bind_json(kind, value, f"{spec.kind} param {name}")
        elif not _fits(value, kind):
            raise ParameterError(f"{spec.kind} param {name} must be {kind.__name__}, got {value!r}")
        elif kind is int:
            args[name] = int(value)  # 5.0 as 5: rng.choice takes only an int size
    return args


def apply_adversary(
    g: Graph, truth: PartitionLabels, spec: AdversarySpec, seed: int
) -> Graph:
    """Apply a monotone adversary; the change log is recoverable via
    monotone_diff(g, result, truth)."""
    if truth.n != g.n:
        raise ParameterError("labels and graph disagree on n")
    return _ADVERSARIES[spec.kind](g, truth, seed, **_bound_params(spec))


# ---------------------------------------------------------------------------
# serialization


def write_graph(g: Graph, path) -> None:
    # one format call for the body: about 2.5 times faster than one per edge
    body = ("%d %d\n" * g.m) % tuple(g.pairs.ravel().tolist())
    with open(path, "w", newline="\n") as f:
        f.write(f"{g.n} {g.m}\n{body}")


def _edges_by_line(body: list, n: int) -> set:
    """The edge lines parsed one at a time; raises GraphFormatError at the
    first bad line."""
    edges = set()
    for k, line in enumerate(body, start=2):
        try:
            u, v = (int(x) for x in line.split())
        except ValueError:
            raise GraphFormatError(f"bad edge line {line!r}", line=k) from None
        if not (0 <= u < v < n):
            raise GraphFormatError(f"out-of-range or unordered edge ({u}, {v})", line=k)
        if (u, v) in edges:
            raise GraphFormatError(f"duplicate edge ({u}, {v})", line=k)
        edges.add((u, v))
    return edges


_PLAIN = b"0123456789 \t\r\n"  # the bytes write_graph writes, tabs and CRLF line ends


def _plain(chunk: bytes) -> bool:
    """Whether `chunk` holds only `_PLAIN` bytes, each \\r in a CRLF pair."""
    return not chunk.translate(None, _PLAIN) and chunk.count(b"\r") == chunk.count(b"\r\n")


def _read_plain(path) -> Graph | None:
    """The graph in a file of `_plain` bytes, a header line and exactly m
    edge lines, as write_graph writes it: the body is read whole and parsed
    by one np.loadtxt.  None for any other file, and for a body the graph
    constructor rejects or whose pairs repeat, so that `_read_by_line`
    reads or rejects it."""
    with open(path, "rb") as f:
        head, body = f.readline(), f.read()
    if not (_plain(head) and _plain(body)):
        return None
    try:
        n, m = (int(x) for x in head.split())
    except ValueError:
        return None
    # the body's lines as str.splitlines counts them; loadtxt skips blank ones
    if body.count(b"\n") + (body[-1:] not in (b"", b"\n")) != m:
        return None
    if not m:  # loadtxt would warn of no data
        return Graph(n)
    # loadtxt parses str faster than bytes; the wrapper decodes as it reads,
    # where a str of the whole body would hold 4 bytes a character
    text = io.TextIOWrapper(io.BytesIO(body), encoding="ascii")
    try:
        g = Graph(n, np.loadtxt(text, dtype=np.int64, comments=None, ndmin=2))
    except ValueError:  # ParameterError included
        return None
    return g if g.m == m else None


def _read_by_line(path) -> Graph:
    """The graph read line by line: the error reporter, which names the
    first bad line, and the reader of every spelling `_read_plain` leaves
    out (signs, 1_000 and the other forms int() takes)."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        raise GraphFormatError("empty file", line=1)
    try:
        n, m = (int(x) for x in lines[0].split())
    except ValueError:
        raise GraphFormatError(f"bad header {lines[0]!r}", line=1) from None
    body = lines[1:]
    if len(body) != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(body)}", line=1)
    return Graph(n, _edges_by_line(body, n))


def read_graph(path) -> Graph:
    g = _read_plain(path)
    return g if g is not None else _read_by_line(path)


def write_labels(labels: PartitionLabels, path) -> None:
    with open(path, "w", newline="\n") as f:
        for v, c in enumerate(labels.labels):
            f.write(f"{v} {c}\n")


def read_labels(path) -> PartitionLabels:
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        raise GraphFormatError("empty file", line=1)
    assignment = {}
    for k, line in enumerate(lines, start=1):
        try:
            v, c = (int(x) for x in line.split())
        except ValueError:
            raise GraphFormatError(f"bad label line {line!r}", line=k) from None
        if v in assignment:
            raise GraphFormatError(f"duplicate vertex {v}", line=k)
        assignment[v] = c
    n = len(assignment)
    if sorted(assignment) != list(range(n)):
        raise GraphFormatError("vertex ids must cover 0..n-1", line=1)
    labels = [assignment[v] for v in range(n)]
    return PartitionLabels(labels=tuple(labels), r=max(labels) + 1)
