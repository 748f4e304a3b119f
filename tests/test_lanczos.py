"""Block Lanczos against a dense eigendecomposition."""

import numpy as np
import pytest

from ppm_sdp import lanczos


@pytest.mark.parametrize(
    "block, wanted, deflated",
    [(1, [0, -1], 3), (4, [0, 1, -2, -1], 0)],
    ids=["one-column-deflated", "four-columns"],
)
def test_a_basis_past_two_doublings_matches_eigh(block, wanted, deflated):
    # evenly spaced eigenvalues converge slowly at both ends, so the basis
    # outgrows 64 vectors; deflating the top eigenvectors moves the top end
    n = 400
    q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(n, n)))
    ev = np.linspace(-1.0, 3.0, n)
    m = (q * ev) @ q.T
    u = q[:, n - deflated :] if deflated else None
    columns = []

    def op(x):
        columns.append(x.shape[1])
        return m @ x

    theta, v = lanczos.extreme_pairs(op, n, block, wanted, deflate=u)
    assert sum(columns) > 64
    scale = float(np.max(np.abs(theta)))
    assert np.max(np.abs(theta - ev[: n - deflated][wanted])) <= 1e-10 * scale
    assert np.allclose(v.T @ v, np.eye(len(wanted)), atol=1e-12, rtol=0)
    if deflated:
        assert np.max(np.abs(u.T @ v)) <= 1e-12
    residual = np.linalg.norm(m @ v - v * theta, axis=0)
    assert np.all(residual <= lanczos.RTOL * scale)
