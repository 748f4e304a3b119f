"""Exact-recovery threshold computations for block models.

Everything here works with the rate parametrization: edge probabilities are
rate * log(n) / n, so a planted partition model is described by (p_tilde,
q_tilde, pi) and a general block model by a rate matrix Q_tilde and pi.

The threshold is arithmetic on an r x r rate matrix, so this module is pure
Python on floats and lists: `ppm-sdp threshold` runs without numpy, and a
process that runs only it does not pay for numpy's start-up.  Arrays are
accepted as input.  `ppm_rate_matrix`, `bm_dominates` and
`PlantedPartitionParams.sizes` return or take arrays and import numpy when
they are called.
"""

from __future__ import annotations

import decimal
import math
import numbers
from dataclasses import dataclass
from decimal import Decimal


class ParameterError(ValueError):
    """Raised when model parameters are outside their domain."""


def is_number(x) -> bool:
    """Whether x is a real number; a bool, such as a JSON true, is not."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def is_integral(x) -> bool:
    """Whether x is a number with an integer value, such as 50 or 50.0; an
    int too large for a float is one."""
    return is_number(x) and (isinstance(x, numbers.Integral) or float(x).is_integer())


def _nested(x) -> tuple[object, tuple] | None:
    """(x as nested lists, its shape), or None unless x is a rectangular
    list, tuple or array of numbers.  A number is a float, or an int that
    fits int64 or uint64; an array, or a numpy scalar, is one when its dtype
    is an integer or float kind.  A bool, a string, an object array, a
    Fraction and a larger int are not, nor is a row of a different length."""
    kind = getattr(getattr(x, "dtype", None), "kind", None)
    if kind is not None:  # a numpy array or scalar: its dtype says it all
        if kind not in "iuf":
            return None
        x = x.tolist()
    if isinstance(x, (list, tuple)):
        items = [_nested(v) for v in x]
        if None in items or len({shape for _, shape in items}) > 1:
            return None
        return [v for v, _ in items], (len(items), *(items[0][1] if items else ()))
    if isinstance(x, float) or (
        isinstance(x, int) and not isinstance(x, bool) and -(2**63) <= x < 2**64
    ):
        return x, ()
    return None


def _number_lists(x, ndim: int | None = None):
    """x as nested lists when `is_number_array(x, ndim)`, else None."""
    nested = _nested(x)
    if nested is None:
        return None
    lists, shape = nested
    return lists if (len(shape) > 0 if ndim is None else len(shape) == ndim) else None


def is_number_array(x, ndim: int | None = None) -> bool:
    """Whether x is a rectangular list (or tuple or array) of numbers with
    `ndim` axes, or at least one when ndim is None, such as pi (1) or a rate
    matrix (2): a string or a bool inside, such as a JSON "0.5" or true, is
    not a number."""
    return _number_lists(x, ndim) is not None


def bind_json(fn, obj, what: str):
    """fn(**obj), such as a dataclass built from a decoded JSON object: a
    non-object, a field that does not fit fn's signature and a value fn
    rejects with TypeError or ValueError raise ParameterError naming `what`."""
    try:
        return fn(**obj)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"bad {what}: {exc}") from None


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
        object.__setattr__(self, "pi", tuple(_check_pi(self.pi)))
        if self.n < 2:
            raise ParameterError("need n >= 2")
        if self.r < 1 or len(self.pi) != self.r:
            raise ParameterError("pi must have length r")
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

    def sizes(self):
        """Community sizes, an int array, by `graph_model.community_sizes`."""
        from .graph_model import community_sizes

        return community_sizes(self.n, self.pi)


def _ln1p(u: Decimal) -> Decimal:
    """log(1 + u) for u > -1, without losing a tiny u to the rounding of 1 + u."""
    if abs(u) < Decimal("1e-12"):
        # the first omitted term is below 1e-48 relative
        return u - u**2 / 2 + u**3 / 3 - u**4 / 4
    return (1 + u).ln()


def compute_omega(p: float, q: float) -> float:
    """Regularizer omega = beta / alpha for edge probabilities 0 < q < p < 1.

    alpha = log(p(1-q)/(q(1-p))), beta = log((1-q)/(1-p)).  Mathematically
    q < omega < p.  In double precision both logarithms cancel when p and q
    are close (omega lands outside [q, p], or 0/0 when they are adjacent), so
    the ratio is formed from the gap p - q in 40-digit decimal arithmetic and
    rounded once.  The result is the double nearest omega: q < omega < p
    whenever some double lies strictly between q and p, and q <= omega <= p
    when p is the double right after q.
    """
    if not (0.0 < q < p < 1.0):
        raise ParameterError(f"need 0 < q < p < 1, got p={p}, q={q}")
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        dp, dq = Decimal(p), Decimal(q)
        gap = dp - dq
        beta = _ln1p(gap / (1 - dp))
        alpha = _ln1p(gap / dq) + beta
        return float(beta / alpha)


def rate_constant_tau(p_tilde: float, q_tilde: float) -> float:
    """tau = (p_tilde - q_tilde) / (log p_tilde - log q_tilde).

    Defined by continuity as p_tilde at p_tilde == q_tilde.
    """
    if p_tilde <= 0 or q_tilde <= 0:
        raise ParameterError("rates must be positive")
    if p_tilde == q_tilde:
        return float(p_tilde)
    return (p_tilde - q_tilde) / (math.log(p_tilde) - math.log(q_tilde))


def _check_pi(pi) -> list[float]:
    """pi as a list of floats; ParameterError unless it is a list of finite
    positive numbers that sums to 1."""
    pi = _number_lists(pi, ndim=1)
    if pi is None:
        raise ParameterError("pi must be a list of numbers")
    pi = [float(x) for x in pi]
    if not all(0.0 < x < math.inf for x in pi):  # false for NaN
        raise ParameterError("pi must be a vector of finite positive proportions")
    if abs(sum(pi) - 1.0) > 1e-8:
        raise ParameterError(f"pi must sum to 1, got {sum(pi)}")
    return pi


def _check_pair(q_tilde, pi, i: int, j: int) -> tuple[list[list[float]], list[float]]:
    """(Q, pi) as lists of floats; ParameterError unless Q is an r x r
    matrix of numbers, symmetric, positive and finite, and i != j in 0..r-1."""
    pi = _check_pi(pi)
    q_tilde = _number_lists(q_tilde, ndim=2)
    if q_tilde is None:
        raise ParameterError("rate matrix must be a matrix of numbers")
    q_tilde = [[float(x) for x in row] for row in q_tilde]
    r = len(pi)
    if len(q_tilde) != r or len(q_tilde[0]) != r:
        raise ParameterError(f"rate matrix must be {r}x{r}")
    if not all(0.0 < x < math.inf for row in q_tilde for x in row):
        raise ParameterError("rate matrix entries must be positive and finite")
    # numpy's allclose(Q, Q.T): |Q_ab - Q_ba| <= 1e-8 + 1e-5 |Q_ba|
    if any(
        abs(q_tilde[a][b] - q_tilde[b][a]) > 1e-8 + 1e-5 * q_tilde[b][a]
        for a in range(r)
        for b in range(r)
    ):
        raise ParameterError("rate matrix must be symmetric")
    if i == j:
        raise ParameterError("communities i and j must differ")
    if not (0 <= i < r and 0 <= j < r):
        raise ParameterError(f"community index out of range 0..{r - 1}: i={i}, j={j}")
    return q_tilde, pi


def _supremand(t: float, qi: list, qj: list, pi: list) -> float:
    return sum(p * (t * a + (1.0 - t) * b - a**t * b ** (1.0 - t)) for a, b, p in zip(qi, qj, pi))


def _supremand_deriv(t: float, qi: list, qj: list, pi: list) -> float:
    return sum(
        p * (a - b - a**t * b ** (1.0 - t) * (0.0 if a == b else math.log(a) - math.log(b)))
        for a, b, p in zip(qi, qj, pi)
    )


def _maximize_concave(qi, qj, pi) -> tuple[float, float]:
    """Maximize the divergence supremand over t in [0, 1].

    The supremand is smooth and concave in t, so its derivative is
    decreasing; bisect on the derivative sign.
    """
    d0 = _supremand_deriv(0.0, qi, qj, pi)
    d1 = _supremand_deriv(1.0, qi, qj, pi)
    if d0 <= 0.0:
        t_star = 0.0
    elif d1 >= 0.0:
        t_star = 1.0
    else:
        lo, hi = 0.0, 1.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if _supremand_deriv(mid, qi, qj, pi) > 0.0:
                lo = mid
            else:
                hi = mid
        t_star = 0.5 * (lo + hi)
    return _supremand(t_star, qi, qj, pi), t_star


def ch_divergence_numeric(q_tilde, pi, i: int, j: int) -> tuple[float, float]:
    """CH-divergence D_+(i, j) for a general rate matrix, by 1-d maximization.

    Returns (value, t_star) with the value accurate to ~1e-10 absolute.
    """
    q_tilde, pi = _check_pair(q_tilde, pi, i, j)
    return _maximize_concave(q_tilde[i], q_tilde[j], pi)


def monotone_divergence(q_tilde, pi, i: int, j: int) -> float:
    """Monotone divergence: the supremand restricted to the k in {i, j} terms.

    Equals D_+(i, j) after overwriting rows/columns k outside {i, j} so that
    Q_ik = Q_jk; always at most D_+(i, j).
    """
    q_tilde, pi = _check_pair(q_tilde, pi, i, j)
    keep = (i, j)
    value, _ = _maximize_concave(
        [q_tilde[i][k] for k in keep], [q_tilde[j][k] for k in keep], [pi[k] for k in keep]
    )
    return value


def ch_divergence_closed_form(params, i: int, j: int) -> float:
    """Closed-form CH-divergence for the planted partition model.

    `params` is a PlantedPartitionParams (anything with p_tilde, q_tilde, pi).
    Returns 0 at p_tilde == q_tilde (continuity); rejects p_tilde < q_tilde.
    """
    pt, qt = float(params.p_tilde), float(params.q_tilde)
    _, pi = _check_pair(_ppm_rows(pt, qt, len(params.pi)), params.pi, i, j)
    if pt < qt:
        raise ParameterError("assortative case only: p_tilde >= q_tilde")
    if pt == qt:
        return 0.0
    pii, pij = pi[i], pi[j]
    tau = rate_constant_tau(pt, qt)
    gamma = math.sqrt(tau**2 * (pii - pij) ** 2 + 4.0 * pii * pij * pt * qt)
    value = pii * qt + pij * pt - gamma
    if pii != pij:
        ratio = (pij * pt) / (pii * qt) * (tau * (pii - pij) + gamma) / (
            tau * (pij - pii) + gamma
        )
        value += 0.5 * tau * (pii - pij) * math.log(ratio)
    return value


def _ppm_rows(p_tilde: float, q_tilde: float, r: int) -> list[list[float]]:
    """The planted partition rate matrix as r lists of r floats."""
    p_tilde, q_tilde = float(p_tilde), float(q_tilde)
    return [[p_tilde if a == b else q_tilde for b in range(r)] for a in range(r)]


def ppm_rate_matrix(p_tilde: float, q_tilde: float, r: int):
    """r x r rate matrix, an ndarray, with p_tilde on the diagonal, q_tilde
    elsewhere."""
    import numpy as np

    return np.array(_ppm_rows(p_tilde, q_tilde, r))


def bm_dominates(q_high, q_low) -> bool:
    """Block-model ordering check.

    `q_high` dominates `q_low` when every intra-community rate is at least as
    large and every inter-community rate is at most as large; a monotone
    adversary can then simulate the dominating model from the dominated one.
    """
    import numpy as np

    if not (is_number_array(q_high, ndim=2) and is_number_array(q_low, ndim=2)):
        raise ParameterError("rate matrices must be matrices of numbers")
    q_high = np.asarray(q_high, dtype=float)
    q_low = np.asarray(q_low, dtype=float)
    if q_high.shape != q_low.shape or q_high.shape[0] != q_high.shape[1]:
        raise ParameterError("rate matrices must share a square shape")
    r = q_high.shape[0]
    off = ~np.eye(r, dtype=bool)
    return bool(
        np.all(np.diag(q_high) >= np.diag(q_low)) and np.all(q_high[off] <= q_low[off])
    )


@dataclass
class DivergenceReport:
    """All-pairs CH-divergences and the exact-recovery feasibility flag."""

    pairs: dict  # (i, j) with i < j -> divergence value
    t_star: dict  # (i, j) -> maximizing t
    min_pair: tuple[int, int]
    min_value: float
    feasible: bool  # min over pairs strictly exceeds 1

    def to_dict(self) -> dict:
        return {
            "pairs": [
                {"i": i, "j": j, "divergence": v, "t_star": self.t_star[(i, j)]}
                for (i, j), v in sorted(self.pairs.items())
            ],
            "min_pair": list(self.min_pair),
            "min_divergence": self.min_value,
            "feasible": self.feasible,
        }


def feasibility_report(q_tilde=None, pi=None, params=None) -> DivergenceReport:
    """All-pairs divergence report for a rate matrix or a planted partition.

    Pass either (q_tilde, pi) or params.  For the planted partition model the
    minimum is attained at the two smallest communities, but all pairs are
    computed for the report regardless.
    """
    if params is not None:
        pi = params.pi
        q_tilde = _ppm_rows(params.p_tilde, params.q_tilde, len(pi))
    if q_tilde is None or pi is None:
        raise ParameterError("need either params or (q_tilde, pi)")
    pi = _check_pi(pi)
    r = len(pi)
    if r < 2:
        raise ParameterError("need at least two communities")
    pairs, t_star = {}, {}
    for i in range(r):
        for j in range(i + 1, r):
            value, t = ch_divergence_numeric(q_tilde, pi, i, j)
            pairs[(i, j)] = value
            t_star[(i, j)] = t
    min_pair = min(pairs, key=pairs.get)
    min_value = pairs[min_pair]
    return DivergenceReport(
        pairs=pairs,
        t_star=t_star,
        min_pair=min_pair,
        min_value=min_value,
        feasible=min_value > 1.0,
    )
