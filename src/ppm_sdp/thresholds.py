"""Exact-recovery threshold computations for block models.

Everything here works with the rate parametrization: edge probabilities are
rate * log(n) / n, so a planted partition model is described by (p_tilde,
q_tilde, pi) and a general block model by a rate matrix Q_tilde and pi.
"""

from __future__ import annotations

import decimal
import math
import numbers
from dataclasses import dataclass
from decimal import Decimal

import numpy as np


class ParameterError(ValueError):
    """Raised when model parameters are outside their domain."""


def is_number(x) -> bool:
    """Whether x is a real number; a bool, such as a JSON true, is not."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def is_integral(x) -> bool:
    """Whether x is a number with an integer value, such as 50 or 50.0; an
    int too large for a float is one."""
    return is_number(x) and (isinstance(x, numbers.Integral) or float(x).is_integer())


def _holds_bool(value) -> bool:
    """Whether a nested list or tuple holds a bool, such as a JSON true,
    which np.asarray turns into the integer 1 beside integers."""
    if isinstance(value, (list, tuple)):
        return any(_holds_bool(x) for x in value)
    return isinstance(value, (bool, np.bool_))


def is_number_array(x, ndim: int | None = None) -> bool:
    """Whether x is a rectangular list (or tuple or array) of numbers with
    `ndim` axes, or at least one when ndim is None, such as pi (1) or a rate
    matrix (2): a string or a bool inside, such as a JSON "0.5" or true, is
    not a number."""
    try:
        array = np.asarray(x)
    except ValueError:  # a ragged list
        return False
    shaped = array.ndim > 0 if ndim is None else array.ndim == ndim
    return shaped and array.dtype.kind in "iuf" and not _holds_bool(x)


def bind_json(fn, obj, what: str):
    """fn(**obj), such as a dataclass built from a decoded JSON object: a
    non-object, a field that does not fit fn's signature and a value fn
    rejects with TypeError or ValueError raise ParameterError naming `what`."""
    try:
        return fn(**obj)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"bad {what}: {exc}") from None


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


def _check_pi(pi) -> np.ndarray:
    if not is_number_array(pi, ndim=1):
        raise ParameterError("pi must be a list of numbers")
    pi = np.asarray(pi, dtype=float)
    if np.any(pi <= 0):
        raise ParameterError("pi must be a vector of positive proportions")
    if abs(pi.sum() - 1.0) > 1e-8:
        raise ParameterError(f"pi must sum to 1, got {pi.sum()}")
    return pi


def _check_pair(q_tilde, pi, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """(Q, pi) as arrays; ParameterError unless Q is an r x r matrix of
    numbers, symmetric and positive, and i != j in 0..r-1."""
    pi = _check_pi(pi)
    if not is_number_array(q_tilde, ndim=2):
        raise ParameterError("rate matrix must be a matrix of numbers")
    q_tilde = np.asarray(q_tilde, dtype=float)
    r = len(pi)
    if q_tilde.shape != (r, r):
        raise ParameterError(f"rate matrix must be {r}x{r}")
    if not np.all(q_tilde > 0):  # NaN included
        raise ParameterError("rate matrix entries must be positive")
    if not np.allclose(q_tilde, q_tilde.T):
        raise ParameterError("rate matrix must be symmetric")
    if i == j:
        raise ParameterError("communities i and j must differ")
    if not (0 <= i < r and 0 <= j < r):
        raise ParameterError(f"community index out of range 0..{r - 1}: i={i}, j={j}")
    return q_tilde, pi


def _supremand(t: float, qi: np.ndarray, qj: np.ndarray, pi: np.ndarray) -> float:
    return float(np.sum(pi * (t * qi + (1.0 - t) * qj - qi**t * qj ** (1.0 - t))))


def _supremand_deriv(t: float, qi: np.ndarray, qj: np.ndarray, pi: np.ndarray) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        logratio = np.where(qi == qj, 0.0, np.log(qi) - np.log(qj))
    return float(np.sum(pi * (qi - qj - qi**t * qj ** (1.0 - t) * logratio)))


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


def ch_divergence_numeric(q_tilde: np.ndarray, pi, i: int, j: int) -> tuple[float, float]:
    """CH-divergence D_+(i, j) for a general rate matrix, by 1-d maximization.

    Returns (value, t_star) with the value accurate to ~1e-10 absolute.
    """
    q_tilde, pi = _check_pair(q_tilde, pi, i, j)
    return _maximize_concave(q_tilde[i], q_tilde[j], pi)


def monotone_divergence(q_tilde: np.ndarray, pi, i: int, j: int) -> float:
    """Monotone divergence: the supremand restricted to the k in {i, j} terms.

    Equals D_+(i, j) after overwriting rows/columns k outside {i, j} so that
    Q_ik = Q_jk; always at most D_+(i, j).
    """
    q_tilde, pi = _check_pair(q_tilde, pi, i, j)
    keep = np.array([i, j])
    value, _ = _maximize_concave(q_tilde[i, keep], q_tilde[j, keep], pi[keep])
    return value


def ch_divergence_closed_form(params, i: int, j: int) -> float:
    """Closed-form CH-divergence for the planted partition model.

    `params` is a PlantedPartitionParams (anything with p_tilde, q_tilde, pi).
    Returns 0 at p_tilde == q_tilde (continuity); rejects p_tilde < q_tilde.
    """
    pt, qt = float(params.p_tilde), float(params.q_tilde)
    _, pi = _check_pair(ppm_rate_matrix(pt, qt, len(params.pi)), params.pi, i, j)
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


def ppm_rate_matrix(p_tilde: float, q_tilde: float, r: int) -> np.ndarray:
    """r x r rate matrix with p_tilde on the diagonal, q_tilde elsewhere."""
    m = np.full((r, r), float(q_tilde))
    np.fill_diagonal(m, float(p_tilde))
    return m


def bm_dominates(q_high: np.ndarray, q_low: np.ndarray) -> bool:
    """Block-model ordering check.

    `q_high` dominates `q_low` when every intra-community rate is at least as
    large and every inter-community rate is at most as large; a monotone
    adversary can then simulate the dominating model from the dominated one.
    """
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
        pi = np.asarray(params.pi, dtype=float)
        q_tilde = ppm_rate_matrix(params.p_tilde, params.q_tilde, len(pi))
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
