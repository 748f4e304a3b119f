import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppm_sdp import thresholds
from ppm_sdp.thresholds import (
    ParameterError,
    bm_dominates,
    ch_divergence_closed_form,
    ch_divergence_numeric,
    compute_omega,
    feasibility_report,
    is_number_array,
    monotone_divergence,
    ppm_rate_matrix,
    rate_constant_tau,
)


def ppm(p_tilde, q_tilde, pi):
    # closed form only reads rates and proportions
    return SimpleNamespace(p_tilde=p_tilde, q_tilde=q_tilde, pi=tuple(pi))


class TestOmega:
    def test_reference_value(self):
        # beta = ln 1.8, alpha = ln 9
        assert compute_omega(0.5, 0.1) == pytest.approx(
            math.log(1.8) / math.log(9), abs=1e-15
        )
        assert compute_omega(0.5, 0.1) == pytest.approx(0.2675132396410364, abs=1e-12)

    def test_sandwich_near_equal_rates(self):
        w = compute_omega(0.3, 0.299999)
        assert 0.299999 < w < 0.3

    def test_sandwich_on_random_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            q, p = np.sort(rng.uniform(0.05, 0.95, size=2))
            if p - q < 1e-6:
                continue
            w = compute_omega(p, q)
            assert q < w < p

    def test_sandwich_a_few_ulps_apart(self):
        # double-precision logarithms cancel here; see compute_omega
        for q in (1e-300, 1e-4, 0.0001, 0.2779662139503395, 0.5, 1 - 1e-9):
            p = math.nextafter(q, 1.0)
            assert q <= compute_omega(p, q) <= p
            for _ in range(63):
                p = math.nextafter(p, 1.0)
                assert q < compute_omega(p, q) < p

    @given(
        st.floats(1e-4, 1 - 1e-4),
        st.floats(1e-4, 1 - 1e-4),
    )
    @example(a=0.00010000000000000002, b=0.0001)
    @example(a=0.2779662139503395, b=0.27796621395033944)
    @settings(max_examples=200)
    def test_sandwich_property(self, a, b):
        q, p = sorted((a, b))
        if p <= q:
            return
        w = compute_omega(p, q)
        if math.nextafter(q, p) == p:
            # adjacent doubles: none lies strictly between them
            assert q <= w <= p
        else:
            assert q < w < p

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            compute_omega(0.1, 0.5)
        with pytest.raises(ParameterError):
            compute_omega(1.0, 0.5)
        with pytest.raises(ParameterError):
            compute_omega(0.5, 0.0)


class TestTau:
    def test_equal_rates_limit(self):
        assert rate_constant_tau(3.0, 3.0) == 3.0

    def test_between_rates(self):
        t = rate_constant_tau(8.0, 2.0)
        assert 2.0 < t < 8.0
        assert t == pytest.approx(6.0 / math.log(4.0))

    def test_rejects_a_rate_that_is_not_positive(self):
        with pytest.raises(ParameterError, match="rates must be positive"):
            rate_constant_tau(0, 1)


class TestNumericDivergence:
    def test_constant_matrix_is_zero(self):
        q = np.full((3, 3), 5.0)
        value, _ = ch_divergence_numeric(q, [1 / 3] * 3, 0, 1)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_balanced_two_community_threshold(self):
        # (sqrt(8) - sqrt(2))^2 / 2 = 1, attained at t = 1/2
        value, t_star = ch_divergence_numeric(ppm_rate_matrix(8, 2, 2), [0.5, 0.5], 0, 1)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert t_star == pytest.approx(0.5, abs=1e-9)

    def test_three_community_counterexample_pair(self):
        a, b, c, eps = 31.4, 15.0, 10.0, 1.0
        q1 = np.array([[a, b, c + eps], [b, a, c], [c + eps, c, a]])
        q2 = np.array([[a, b, c], [b, a, c], [c, c, a]])
        pi = [1 / 3] * 3
        r1 = feasibility_report(q_tilde=q1, pi=pi)
        r2 = feasibility_report(q_tilde=q2, pi=pi)
        assert r1.min_value > 1.0
        assert r2.min_value < 1.0

    def test_rejects_nonpositive_rates(self):
        q = ppm_rate_matrix(8, 2, 2)
        q[0, 1] = 0.0
        with pytest.raises(ParameterError):
            ch_divergence_numeric(q, [0.5, 0.5], 0, 1)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = rng.uniform(0.5, 20.0, size=(3, 3))
            q = 0.5 * (q + q.T)
            pi = rng.dirichlet([2.0] * 3)
            vij, _ = ch_divergence_numeric(q, pi, 0, 2)
            vji, _ = ch_divergence_numeric(q, pi, 2, 0)
            assert vij == pytest.approx(vji, rel=1e-10, abs=1e-12)


class TestClosedForm:
    def test_equal_proportions(self):
        for pt, qt, pi_c in [(8, 2, 0.5), (12, 3, 0.25), (30, 1, 0.1)]:
            pi = [pi_c, pi_c] if pi_c == 0.5 else [pi_c, pi_c, 1 - 2 * pi_c]
            expected = pi_c * (math.sqrt(pt) - math.sqrt(qt)) ** 2
            value = ch_divergence_closed_form(ppm(pt, qt, pi), 0, 1)
            assert value == pytest.approx(expected, rel=1e-12)

    def test_boundary_exactly_one(self):
        assert ch_divergence_closed_form(ppm(8, 2, [0.5, 0.5]), 0, 1) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_matches_numeric_unequal(self):
        pi = [0.5, 0.2, 0.3]
        value = ch_divergence_closed_form(ppm(12, 2, pi), 0, 1)
        numeric, _ = ch_divergence_numeric(ppm_rate_matrix(12, 2, 3), pi, 0, 1)
        assert value == pytest.approx(numeric, abs=1e-9)

    def test_matches_numeric_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            r = rng.integers(2, 5)
            pi = rng.dirichlet([2.0] * r)
            qt = rng.uniform(0.5, 5.0)
            pt = qt + rng.uniform(0.1, 30.0)
            i, j = rng.choice(r, size=2, replace=False)
            closed = ch_divergence_closed_form(ppm(pt, qt, pi), int(i), int(j))
            numeric, _ = ch_divergence_numeric(
                ppm_rate_matrix(pt, qt, r), pi, int(i), int(j)
            )
            assert closed == pytest.approx(numeric, abs=1e-9)

    def test_equal_rates_and_error_cases(self):
        assert ch_divergence_closed_form(ppm(3, 3, [0.5, 0.5]), 0, 1) == 0.0
        with pytest.raises(ParameterError):
            ch_divergence_closed_form(ppm(2, 3, [0.5, 0.5]), 0, 1)
        with pytest.raises(ParameterError):
            ch_divergence_closed_form(ppm(3, 2, [0.5, 0.5]), 0, 0)

    def test_monotone_in_proportions(self):
        # finite-difference check along random rays in (pi_i, pi_j)
        rng = np.random.default_rng(11)
        step = 1e-4
        for _ in range(100):
            qt = rng.uniform(0.5, 4.0)
            pt = qt + rng.uniform(0.5, 20.0)
            pi_i, pi_j = rng.uniform(0.05, 0.45, size=2)
            rest = 1.0 - pi_i - pi_j
            d0 = ch_divergence_closed_form(ppm(pt, qt, [pi_i, pi_j, rest]), 0, 1)
            d1 = ch_divergence_closed_form(
                ppm(pt, qt, [pi_i + step, pi_j, rest - step]), 0, 1
            )
            assert d1 - d0 >= -1e-8


class TestMonotoneDivergence:
    def test_ppm_equality(self):
        pi = [0.4, 0.35, 0.25]
        q = ppm_rate_matrix(10, 2, 3)
        full, _ = ch_divergence_numeric(q, pi, 0, 1)
        assert monotone_divergence(q, pi, 0, 1) == pytest.approx(full, abs=1e-12)

    def test_equals_divergence_after_row_overwrite(self):
        a, b, c, eps = 31.4, 15.0, 10.0, 1.0
        q1 = np.array([[a, b, c + eps], [b, a, c], [c + eps, c, a]])
        pi = [1 / 3] * 3
        mono = monotone_divergence(q1, pi, 1, 2)
        # overwrite the k-not-in-{i,j} interactions to be equal
        q_mod = q1.copy()
        q_mod[1, 0] = q_mod[0, 1] = q_mod[2, 0] = q_mod[0, 2]
        full, _ = ch_divergence_numeric(q_mod, pi, 1, 2)
        assert mono == pytest.approx(full, abs=1e-10)

    def test_never_exceeds_divergence(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            q = rng.uniform(0.5, 20.0, size=(3, 3))
            q = 0.5 * (q + q.T)
            pi = rng.dirichlet([2.0] * 3)
            i, j = rng.choice(3, size=2, replace=False)
            full, _ = ch_divergence_numeric(q, pi, int(i), int(j))
            assert monotone_divergence(q, pi, int(i), int(j)) <= full + 1e-10


PAIR_PI = (0.5, 0.3, 0.2)
PAIR_CALLS = {
    "numeric": lambda q, i, j: ch_divergence_numeric(q, PAIR_PI, i, j)[0],
    "monotone": lambda q, i, j: monotone_divergence(q, PAIR_PI, i, j),
    "closed_form": lambda q, i, j: ch_divergence_closed_form(ppm(q[0, 0], q[0, 1], PAIR_PI), i, j),
}


@pytest.mark.parametrize("name", sorted(PAIR_CALLS))
class TestPairChecks:
    """The three divergences check the pair and the rate matrix alike."""

    Q = ppm_rate_matrix(21.0, 2.0, 3)

    @pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (3, 0), (0, 3)])
    def test_index_out_of_range(self, name, i, j):
        with pytest.raises(ParameterError, match="out of range"):
            PAIR_CALLS[name](self.Q, i, j)

    def test_equal_indices(self, name):
        with pytest.raises(ParameterError, match="differ"):
            PAIR_CALLS[name](self.Q, 1, 1)

    def test_nonpositive_rate(self, name):
        with pytest.raises(ParameterError, match="positive"):
            PAIR_CALLS[name](ppm_rate_matrix(21.0, 0.0, 3), 0, 1)


@pytest.mark.parametrize("name", ["numeric", "monotone"])
def test_rate_matrix_must_match_pi(name):
    # the closed form builds its rate matrix from pi, so it cannot mismatch
    with pytest.raises(ParameterError, match="3x3"):
        PAIR_CALLS[name](ppm_rate_matrix(21.0, 2.0, 2), 0, 1)


@pytest.mark.parametrize("call", [
    lambda q: ch_divergence_numeric(q, [0.5, 0.5], 0, 1),
    lambda q: monotone_divergence(q, [0.5, 0.5], 0, 1),
    lambda q: feasibility_report(q_tilde=q, pi=[0.5, 0.5]),
], ids=["numeric", "monotone", "report"])
@pytest.mark.parametrize("q_tilde, message", [
    # Q[i, j] and Q[j, i] rate the same pairs, so they cannot differ
    ([[5.0, 1.0], [3.0, 5.0]], "symmetric"),
    ([[5.0, math.nan], [math.nan, 5.0]], "positive"),
    # an infinite rate once passed both checks and the report printed NaN
    ([[math.inf, 1.0], [1.0, 8.0]], "finite"),
], ids=["asymmetric", "nan", "inf"])
def test_rate_matrix_must_be_symmetric_and_positive(call, q_tilde, message):
    with pytest.raises(ParameterError, match=message):
        call(np.array(q_tilde))


@pytest.mark.parametrize("call", [
    lambda q, pi: ch_divergence_numeric(q, pi, 0, 1),
    lambda q, pi: monotone_divergence(q, pi, 0, 1),
    lambda q, pi: feasibility_report(q_tilde=q, pi=pi),
], ids=["numeric", "monotone", "report"])
@pytest.mark.parametrize("q_tilde, pi, message", [
    # each once ran as the number: the report's min divergence was 1.67
    ([["8", 1], [1, 8]], ["0.5", 0.5], "pi must be a list of numbers"),
    ([[8, 1], [1, 8]], [True, 0.5], "pi must be a list of numbers"),
    ([["8", 1], [1, 8]], [0.5, 0.5], "rate matrix must be a matrix of numbers"),
    ([[True, 1], [1, 8]], [0.5, 0.5], "rate matrix must be a matrix of numbers"),
], ids=["string-pi", "bool-pi", "string-rate", "bool-rate"])
def test_rate_matrix_and_pi_must_be_numbers(call, q_tilde, pi, message):
    with pytest.raises(ParameterError, match=message):
        call(q_tilde, pi)


@pytest.mark.parametrize("call", [
    lambda pi: ch_divergence_numeric(ppm_rate_matrix(8, 2, 2), pi, 0, 1),
    lambda pi: monotone_divergence(ppm_rate_matrix(8, 2, 2), pi, 0, 1),
    lambda pi: feasibility_report(q_tilde=ppm_rate_matrix(8, 2, 2), pi=pi),
    lambda pi: feasibility_report(params=ppm(8, 2, pi)),
    lambda pi: ch_divergence_closed_form(ppm(8, 2, pi), 0, 1),
], ids=["numeric", "monotone", "report", "report-params", "closed_form"])
@pytest.mark.parametrize("pi", [[math.nan, 0.5], [math.inf, 0.5], [0.5, -math.inf]], ids=["nan", "inf", "-inf"])
def test_pi_must_be_finite(call, pi):
    # a NaN once passed both checks, and the report's divergences were NaN
    with pytest.raises(ParameterError, match="finite"):
        call(pi)


class TestFeasibilityReport:
    def test_boundary_is_infeasible(self):
        report = feasibility_report(q_tilde=ppm_rate_matrix(8, 2, 2), pi=[0.5, 0.5])
        assert report.min_value == pytest.approx(1.0, abs=1e-10)
        assert not report.feasible  # strict inequality required

    def test_min_pair_is_two_smallest(self):
        report = feasibility_report(
            q_tilde=ppm_rate_matrix(60, 5, 3), pi=[0.5, 0.3, 0.2]
        )
        assert report.min_pair == (1, 2)
        assert report.feasible

    def test_equal_rates_infeasible(self):
        report = feasibility_report(q_tilde=ppm_rate_matrix(3, 3, 2), pi=[0.5, 0.5])
        assert report.min_value == pytest.approx(0.0, abs=1e-12)
        assert not report.feasible

    def test_json_shape(self):
        report = feasibility_report(q_tilde=ppm_rate_matrix(8, 2, 2), pi=[0.5, 0.5])
        d = report.to_dict()
        assert d["min_pair"] == [0, 1]
        assert len(d["pairs"]) == 1

    def test_needs_a_model(self):
        with pytest.raises(ParameterError, match="need either params or"):
            feasibility_report()


class TestOmegaAsymptotics:
    def test_scaled_omega_approaches_tau(self):
        pt, qt = 8.0, 2.0
        tau = rate_constant_tau(pt, qt)
        gaps = []
        for n in (10**3, 10**4, 10**5, 10**6):
            p = pt * math.log(n) / n
            q = qt * math.log(n) / n
            w = compute_omega(p, q)
            gaps.append(abs(w * n / math.log(n) - tau))
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3


class TestBmOrdering:
    def test_counterexample_pair_is_ordered(self):
        a, b, c, eps = 31.4, 15.0, 10.0, 1.0
        q1 = np.array([[a, b, c + eps], [b, a, c], [c + eps, c, a]])
        q2 = np.array([[a, b, c], [b, a, c], [c, c, a]])
        # q2 is simulable from q1 by removing inter-community edges
        assert bm_dominates(q2, q1)
        assert not bm_dominates(q1, q2)

    def test_reflexive(self):
        q = ppm_rate_matrix(8, 2, 3)
        assert bm_dominates(q, q)

    @pytest.mark.parametrize("bad", [[["8", 1], [1, 8]], [[True, 1], [1, 8]]], ids=["string", "bool"])
    def test_rejects_a_matrix_that_is_not_numbers(self, bad):
        q = ppm_rate_matrix(8, 1, 2)
        for args in ((bad, q), (q, bad)):
            with pytest.raises(ParameterError, match="matrices of numbers"):
                bm_dominates(*args)

    def test_rejects_a_matrix_that_is_not_square(self):
        # a 2 x 3 pair once raised IndexError
        q = np.ones((2, 3))
        with pytest.raises(ParameterError, match="square"):
            bm_dominates(q, q)


# (input, verdict with ndim None, 1 and 2): the verdicts numpy's asarray and
# dtype once gave, except that a row of bools beside a row of ints, which
# asarray turned into ints, is now rejected
NUMBER_ARRAYS = {
    "empty": ([], (True, True, False)),
    "empty-row": ([[]], (True, False, True)),
    "ragged": ([[1, 2], [3]], (False, False, False)),
    "ragged-depth": ([[1, 2], 3], (False, False, False)),
    "string": (["0.5"], (False, False, False)),
    "bool": ([True, 1], (False, False, False)),
    "numpy-bool-scalar": ([np.bool_(True), 1], (False, False, False)),
    "numpy-scalars": ([np.float64(0.5), np.int32(1), np.float16(0.5)], (True, True, False)),
    "numpy-complex-scalar": ([np.complex128(1)], (False, False, False)),
    "numpy-0d-leaf": ([np.array(0.5), 1.0], (True, True, False)),
    "bool-array": (np.array([True, False]), (False, False, False)),
    "int-array": (np.array([1, 2]), (True, True, False)),
    "uint8-array": (np.array([1, 2], dtype=np.uint8), (True, True, False)),
    "float-array": (np.array([0.5, 0.5]), (True, True, False)),
    "float32-array": (np.array([0.5], dtype=np.float32), (True, True, False)),
    "complex-array": (np.array([1 + 0j]), (False, False, False)),
    "object-array": (np.array([0.5, 0.5], dtype=object), (False, False, False)),
    "string-array": (np.array(["a"]), (False, False, False)),
    "0d-array": (np.array(0.5), (False, False, False)),
    "2d-array": (np.ones((2, 2)), (True, False, True)),
    "float-array-rows": ([np.array([1.0, 2.0]), np.array([3.0, 4.0])], (True, False, True)),
    "int-array-rows": ([np.array([1, 2]), np.array([3, 4])], (True, False, True)),
    "object-array-row": ([np.array([1.0, 2.0], dtype=object), [1, 2]], (False, False, False)),
    "bool-array-row": ([np.array([True, False]), [1, 2]], (False, False, False)),
    "nan": ([math.nan, 0.5], (True, True, False)),
    "inf": ([math.inf, 1.0], (True, True, False)),
    "int-above-float": ([10**400], (False, False, False)),
    "int-above-float-beside-float": ([10**400, 0.5], (False, False, False)),
    "uint64-int": ([2**63, -1], (True, True, False)),
    "int-above-uint64": ([2**64], (False, False, False)),
    "int64-min": ([-(2**63)], (True, True, False)),
    "int-below-int64": ([-(2**63) - 1], (False, False, False)),
    "fraction": ([Fraction(1, 2)], (False, False, False)),
    "complex": ([1 + 0j], (False, False, False)),
    "none": ([None], (False, False, False)),
    "scalar": (0.5, (False, False, False)),
    "bare-string": ("0.5", (False, False, False)),
    "tuple": ((0.5, 0.5), (True, True, False)),
    "list-and-tuple-rows": ([(1, 2), [3, 4]], (True, False, True)),
    "three-axes": ([[[1]]], (True, False, False)),
    "dict": ({"a": 1}, (False, False, False)),
}


@pytest.mark.parametrize("name", NUMBER_ARRAYS)
def test_is_number_array_verdicts(name):
    value, verdicts = NUMBER_ARRAYS[name]
    assert tuple(is_number_array(value, ndim=d) for d in (None, 1, 2)) == verdicts


def numpy_divergence(q, pi, i, j, keep=None):
    """D_+(i, j) on numpy arrays, the reference for the pure-Python
    divergences; over the k in `keep` alone when given."""
    q, pi = np.asarray(q, dtype=float), np.asarray(pi, dtype=float)
    keep = slice(None) if keep is None else list(keep)
    qi, qj, pi = q[i, keep], q[j, keep], pi[keep]
    logratio = np.where(qi == qj, 0.0, np.log(qi) - np.log(qj))

    def deriv(t):
        return np.sum(pi * (qi - qj - qi**t * qj ** (1.0 - t) * logratio))

    if deriv(0.0) <= 0.0:
        t = 0.0
    elif deriv(1.0) >= 0.0:
        t = 1.0
    else:
        lo, hi = 0.0, 1.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if deriv(mid) > 0.0 else (lo, mid)
        t = 0.5 * (lo + hi)
    return float(np.sum(pi * (t * qi + (1.0 - t) * qj - qi**t * qj ** (1.0 - t))))


@pytest.mark.parametrize("r", [2, 3, 5, 8, 12, 20])
def test_divergences_match_numpy_reference(r):
    rng = np.random.default_rng(r)
    for _ in range(3):
        q = rng.uniform(0.5, 30.0, size=(r, r))
        q = 0.5 * (q + q.T)
        pi = rng.dirichlet([2.0] * r)
        pairs = [(i, j) for i in range(r) for j in range(r) if i != j]
        for k in rng.choice(len(pairs), size=min(len(pairs), 12), replace=False):
            i, j = pairs[k]
            numeric, _ = ch_divergence_numeric(q, pi, i, j)
            assert numeric == pytest.approx(numpy_divergence(q, pi, i, j), rel=1e-12, abs=0)
            mono = monotone_divergence(q, pi, i, j)
            assert mono == pytest.approx(numpy_divergence(q, pi, i, j, keep=(i, j)), rel=1e-12, abs=0)
