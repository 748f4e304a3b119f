"""Planted partition sampling, monotone adversaries, and graph serialization.

Randomness is derived from a splitmix64-style hash of (seed, u, v), one
independent substream per unordered vertex pair, so samples are reproducible
across platforms and safe to generate concurrently.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .thresholds import ParameterError


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


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; edges are (u, v) tuples with u < v."""

    n: int
    edges: frozenset

    def __post_init__(self):
        object.__setattr__(
            self, "edges", frozenset((int(u), int(v)) for u, v in self.edges)
        )
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ParameterError(f"bad edge ({u}, {v}) for n={self.n}")

    @property
    def m(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def edge_array(self) -> np.ndarray:
        """(m, 2) int64 array of the edges, in no particular order."""
        flat = itertools.chain.from_iterable(self.edges)
        return np.fromiter(flat, dtype=np.int64, count=2 * self.m).reshape(-1, 2)

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        e = self.edge_array()
        a[e[:, 0], e[:, 1]] = 1.0
        a[e[:, 1], e[:, 0]] = 1.0
        return a

    @classmethod
    def from_adjacency(cls, a: np.ndarray) -> "Graph":
        a = np.asarray(a)
        n = a.shape[0]
        iu, iv = np.nonzero(np.triu(a, 1))
        return cls(n=n, edges=frozenset(zip(iu.tolist(), iv.tolist())))


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
    """Monotone adversary description: a kind plus kind-specific params.

    Kinds: none, random_monotone (delta_add, delta_rem), subcommunity_plant
    (community, size, density), hub_plant (community, hubs, degree),
    sbm_dominate (q_tilde_prime, base), scripted (add, remove).
    """

    kind: str
    params: dict = field(default_factory=dict)

    KINDS = (
        "none",
        "random_monotone",
        "subcommunity_plant",
        "hub_plant",
        "sbm_dominate",
        "scripted",
    )

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ParameterError(f"unknown adversary kind {self.kind!r}")

    @classmethod
    def from_json(cls, text: str) -> "AdversarySpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, obj) -> "AdversarySpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ParameterError('an adversary spec is a JSON object with a "kind"')
        return cls(kind=obj["kind"], params=obj.get("params", {}))

    def to_json(self) -> str:
        return json.dumps({"kind": self.kind, "params": self.params})


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


def pair_uniforms(seed: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Uniform(0,1) variate per unordered pair, keyed by (seed, u, v)."""
    s = _splitmix64(np.asarray([seed % 2**64], dtype=np.uint64))[0]
    h = _splitmix64(s ^ np.asarray(u, dtype=np.uint64))
    h = _splitmix64(h ^ _splitmix64(np.asarray(v, dtype=np.uint64)))
    return (h >> _U64(11)).astype(np.float64) * 2.0**-53


def _derive_seed(seed: int, tag: int) -> int:
    return int(_splitmix64(np.asarray([seed % 2**64], dtype=np.uint64))[0] ^ _U64(tag))


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


def planted_labels(n: int, pi) -> PartitionLabels:
    """Ground-truth labels: contiguous blocks sized by largest remainder."""
    sizes = community_sizes(n, pi)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    return PartitionLabels(labels=tuple(labels.tolist()), r=len(sizes))


def sample_ppm(
    params: PlantedPartitionParams, seed: int
) -> tuple[Graph, PartitionLabels]:
    """Sample a planted partition graph; deterministic given the seed."""
    truth = planted_labels(params.n, params.pi)
    lab = truth.as_array()
    iu, iv = np.triu_indices(params.n, 1)
    probs = np.where(lab[iu] == lab[iv], params.p, params.q)
    hit = pair_uniforms(seed, iu, iv) < probs
    edges = frozenset(zip(iu[hit].tolist(), iv[hit].tolist()))
    return Graph(n=params.n, edges=edges), truth


# ---------------------------------------------------------------------------
# monotone adversaries


def monotone_diff(
    before: Graph, after: Graph, truth: PartitionLabels
) -> tuple[list, list]:
    """Change log (added, removed) between two graphs; rejects any
    non-monotone change with respect to the given truth."""
    lab = truth.as_array()
    added = sorted(after.edges - before.edges)
    removed = sorted(before.edges - after.edges)
    for u, v in added:
        if lab[u] != lab[v]:
            raise ParameterError(f"non-monotone addition of inter edge ({u}, {v})")
    for u, v in removed:
        if lab[u] == lab[v]:
            raise ParameterError(f"non-monotone removal of intra edge ({u}, {v})")
    return added, removed


def _random_monotone(g, truth, delta_add, delta_rem, seed):
    if not (0.0 <= delta_add <= 1.0 and 0.0 <= delta_rem <= 1.0):
        raise ParameterError("delta_add and delta_rem must lie in [0, 1]")
    lab = truth.as_array()
    iu, iv = np.triu_indices(g.n, 1)
    same = lab[iu] == lab[iv]
    a = g.adjacency()
    present = a[iu, iv] > 0
    add_u = pair_uniforms(_derive_seed(seed, 0xADD), iu, iv)
    rem_u = pair_uniforms(_derive_seed(seed, 0x4E), iu, iv)
    add_mask = same & ~present & (add_u < delta_add)
    rem_mask = ~same & present & (rem_u < delta_rem)
    edges = set(g.edges)
    edges.update(zip(iu[add_mask].tolist(), iv[add_mask].tolist()))
    edges.difference_update(zip(iu[rem_mask].tolist(), iv[rem_mask].tolist()))
    return Graph(n=g.n, edges=frozenset(edges))


def _subcommunity_plant(g, truth, community, size, density, seed):
    members = truth.members(int(community))
    if size > len(members):
        raise ParameterError(
            f"sub-community size {size} exceeds community size {len(members)}"
        )
    rng = np.random.default_rng(_derive_seed(seed, 0x5B))
    chosen = np.sort(rng.choice(members, size=int(size), replace=False))
    edges = set(g.edges)
    for a_idx in range(len(chosen)):
        for b_idx in range(a_idx + 1, len(chosen)):
            u, v = int(chosen[a_idx]), int(chosen[b_idx])
            if (u, v) in edges:
                continue
            if density >= 1.0 or rng.random() < density:
                edges.add((u, v))
    return Graph(n=g.n, edges=frozenset(edges))


def _hub_plant(g, truth, community, hubs, degree, seed):
    members = truth.members(int(community))
    if hubs > len(members) or degree > len(members) - 1:
        raise ParameterError("hub count or degree exceeds community size")
    rng = np.random.default_rng(_derive_seed(seed, 0x4B))
    hub_verts = rng.choice(members, size=int(hubs), replace=False)
    edges = set(g.edges)
    for h in hub_verts:
        others = members[members != h]
        targets = rng.choice(others, size=int(degree), replace=False)
        for t in targets:
            u, v = (int(h), int(t)) if h < t else (int(t), int(h))
            edges.add((u, v))
    return Graph(n=g.n, edges=frozenset(edges))


def _scripted(g, truth, add, remove):
    lab = truth.as_array()
    edges = set(g.edges)
    for pair in add:
        u, v = sorted(int(x) for x in pair)
        if lab[u] != lab[v]:
            raise ParameterError(f"non-monotone addition of inter edge ({u}, {v})")
        edges.add((u, v))
    for pair in remove:
        u, v = sorted(int(x) for x in pair)
        if lab[u] == lab[v]:
            raise ParameterError(f"non-monotone removal of intra edge ({u}, {v})")
        edges.discard((u, v))
    return Graph(n=g.n, edges=frozenset(edges))


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
    qp = np.asarray(q_tilde_prime, dtype=float)
    r = truth.r
    if qp.shape != (r, r) or not np.allclose(qp, qp.T):
        raise ParameterError(f"rate matrix must be symmetric {r}x{r}")
    off = ~np.eye(r, dtype=bool)
    if np.any(np.diag(qp) < base.p_tilde) or np.any(qp[off] > base.q_tilde):
        raise ParameterError(
            "target must dominate the base model (intra rates up, inter rates down)"
        )
    scale = math.log(base.n) / base.n
    p_prime = np.diag(qp) * scale
    if np.any(p_prime >= 1.0):
        raise ParameterError("target intra probability reaches 1")
    lab = truth.as_array()
    iu, iv = np.triu_indices(g.n, 1)
    a = g.adjacency()
    present = a[iu, iv] > 0
    li, lj = lab[iu], lab[iv]
    same = li == lj
    p_add = np.where(same, (qp[li, lj] * scale - base.p) / (1.0 - base.p), 0.0)
    p_rem = np.where(~same, (base.q - qp[li, lj] * scale) / base.q, 0.0)
    u01 = pair_uniforms(_derive_seed(seed, 0xD0), iu, iv)
    add_mask = same & ~present & (u01 < p_add)
    rem_mask = ~same & present & (u01 < p_rem)
    edges = set(g.edges)
    edges.update(zip(iu[add_mask].tolist(), iv[add_mask].tolist()))
    edges.difference_update(zip(iu[rem_mask].tolist(), iv[rem_mask].tolist()))
    return Graph(n=g.n, edges=frozenset(edges))


def apply_adversary(
    g: Graph, truth: PartitionLabels, spec: AdversarySpec, seed: int
) -> Graph:
    """Apply a monotone adversary; the change log is recoverable via
    monotone_diff(g, result, truth)."""
    if truth.n != g.n:
        raise ParameterError("labels and graph disagree on n")
    p = spec.params
    if spec.kind == "none":
        return g
    if spec.kind == "random_monotone":
        return _random_monotone(
            g, truth, float(p.get("delta_add", 0.0)), float(p.get("delta_rem", 0.0)), seed
        )
    if spec.kind == "subcommunity_plant":
        return _subcommunity_plant(
            g, truth, p.get("community", 0), p["size"], float(p.get("density", 1.0)), seed
        )
    if spec.kind == "hub_plant":
        return _hub_plant(g, truth, p.get("community", 0), p["hubs"], p["degree"], seed)
    if spec.kind == "sbm_dominate":
        base = p["base"]
        if isinstance(base, dict):
            base = PlantedPartitionParams(**base)
        return simulate_dominating_sbm(g, truth, np.asarray(p["q_tilde_prime"]), base, seed)
    if spec.kind == "scripted":
        return _scripted(g, truth, p.get("add", []), p.get("remove", []))
    raise ParameterError(f"unknown adversary kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# serialization


def write_graph(g: Graph, path) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(f"{g.n} {g.m}\n")
        for u, v in g.sorted_edges():
            f.write(f"{u} {v}\n")


def _edge_rows(body: list, n: int) -> np.ndarray | None:
    """The edge lines as an (m, 2) int64 array, parsed by one numpy call and
    checked with array operations; None when any line is not two integers or
    any edge is out of range, unordered or repeated."""
    if not body:
        return np.empty((0, 2), dtype=np.int64)
    try:
        e = np.loadtxt(body, dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        return None
    if e.shape != (len(body), 2):  # loadtxt skips blank lines
        return None
    u, v = e[:, 0], e[:, 1]
    if not np.all((0 <= u) & (u < v) & (v < n)):
        return None
    s = e[np.lexsort((v, u))]
    if np.any(np.all(s[1:] == s[:-1], axis=1)):
        return None
    return e


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
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(lines) - 1}", line=1)
    e = _edge_rows(lines[1:], n)
    if e is None:
        # the per-line parse names the first bad line, and accepts the few
        # integer spellings loadtxt does not (such as 1_000)
        return Graph(n=n, edges=frozenset(_edges_by_line(lines[1:], n)))
    return Graph(n=n, edges=frozenset(zip(e[:, 0].tolist(), e[:, 1].tolist())))


def write_labels(labels: PartitionLabels, path) -> None:
    with open(path, "w", newline="\n") as f:
        for v, c in enumerate(labels.labels):
            f.write(f"{v} {c}\n")


def read_labels(path) -> PartitionLabels:
    with open(path) as f:
        lines = f.read().splitlines()
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
