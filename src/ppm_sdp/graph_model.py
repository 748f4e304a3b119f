"""Planted partition sampling, monotone adversaries, and graph serialization.

Randomness is derived from a splitmix64-style hash of (seed, u, v), one
independent substream per unordered vertex pair, so samples are reproducible
across platforms and safe to generate concurrently.

Every reader and writer works on one edge form, the sorted int64 pair array
`Graph.pairs`; one function checks and applies every adversary's change.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, field, is_dataclass

import numpy as np

from .thresholds import (
    ParameterError,
    bind_json,
    bm_dominates,
    is_integral,
    is_number,
    ppm_rate_matrix,
)


class GraphFormatError(ValueError):
    """Raised on malformed graph or label files; carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class PartitionLabels:
    """Assignment of each vertex to a community in [0, r)."""

    labels: tuple
    r: int

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(int(x) for x in self.labels))
        if self.r < 1:
            raise ParameterError("need at least one community")
        seen = set(self.labels)
        if any(c < 0 or c >= self.r for c in seen):
            raise ParameterError("community index out of range")
        if seen != set(range(self.r)):
            missing = sorted(set(range(self.r)) - seen)
            raise ParameterError(f"empty communities: {missing}")

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
    integer array; repeats collapse, and a negative n, a non-integer id or
    the first pair outside 0 <= u < v < n raises ParameterError.  `edges` and `sorted_edges()` are
    tuple views built on each call, for callers outside the program.
    """

    n: int
    pairs: np.ndarray = field(repr=False)

    def __init__(self, n: int, edges=()):
        n = int(n)
        if n < 0:
            raise ParameterError(f"need n >= 0, got n={n}")
        e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
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

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x for an (n, k) block x, summed from the edge pairs by
        np.bincount, one column at a time: O(m + n k) memory, no dense
        adjacency."""
        n = self.n
        u, v = np.ascontiguousarray(self.pairs.T)
        cols = np.ascontiguousarray(np.asarray(x, dtype=float).T)
        out = np.empty(cols.shape)
        for col, y in zip(cols, out):
            y[:] = np.bincount(u, col[v], n)
            y += np.bincount(v, col[u], n)
        return out.T

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        u, v = self.pairs.T
        a[u, v] = 1.0
        a[v, u] = 1.0
        return a


@dataclass(frozen=True)
class PlantedPartitionParams:
    """Planted partition model in the logarithmic-degree parametrization.

    Edge probabilities are p = p_tilde log(n)/n within communities and
    q = q_tilde log(n)/n between them; requires p_tilde > q_tilde > 0 (the
    assortative case) and both probabilities in (0, 1).
    """

    n: int
    r: int
    pi: tuple
    p_tilde: float
    q_tilde: float

    def __post_init__(self):
        # a model file's true would pass as the number 1
        if not (is_integral(self.n) and is_integral(self.r)):
            raise ParameterError(f"need integer n and r, got n={self.n}, r={self.r}")
        if not (is_number(self.p_tilde) and is_number(self.q_tilde)):
            raise ParameterError(
                f"need numbers p_tilde and q_tilde, got {self.p_tilde!r} and {self.q_tilde!r}"
            )
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "r", int(self.r))
        object.__setattr__(self, "pi", tuple(float(x) for x in self.pi))
        if self.n < 2:
            raise ParameterError("need n >= 2")
        if self.r < 1 or len(self.pi) != self.r:
            raise ParameterError("pi must have length r")
        if any(x <= 0 for x in self.pi) or abs(sum(self.pi) - 1.0) > 1e-8:
            raise ParameterError("pi must be positive and sum to 1")
        if not (self.p_tilde > self.q_tilde > 0):
            raise ParameterError("need p_tilde > q_tilde > 0 (assortative)")
        if not (0.0 < self.q < self.p < 1.0):
            raise ParameterError(
                f"derived probabilities out of range: p={self.p}, q={self.q}"
            )

    @property
    def p(self) -> float:
        return self.p_tilde * math.log(self.n) / self.n

    @property
    def q(self) -> float:
        return self.q_tilde * math.log(self.n) / self.n

    def sizes(self) -> np.ndarray:
        return community_sizes(self.n, self.pi)


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
    truth."""
    n = max(before.n, after.n)
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
    integer for int (a bool is neither), a rectangular list of numbers for list."""
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged list
        return False
    numeric = array.dtype.kind in ("iu" if kind is int else "iuf")
    return numeric and (array.ndim > 0) == (kind is list)


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


def read_graph(path) -> Graph:
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
    # one numpy parse, checked by the constructor; a repeated line, or a
    # blank one that loadtxt skips, shows as fewer edges than lines
    try:
        g = Graph(n, np.loadtxt(body, dtype=np.int64, comments=None, ndmin=2) if body else ())
        if g.m == m:
            return g
    except ValueError:  # ParameterError included
        pass
    # the per-line parse names the first bad line, and accepts the few
    # integer spellings loadtxt does not (such as 1_000)
    return Graph(n, _edges_by_line(body, n))


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
