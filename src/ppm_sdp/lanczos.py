"""Block Lanczos for a few extreme eigenpairs of a symmetric operator that is
applied only to blocks of columns: the spectral candidate's top pairs of
A - w J (`sdp`) and the PSD margin's ends of Lambda (`certificate`)."""

from __future__ import annotations

import numpy as np

from .graph_model import pair_uniforms

RTOL = 1e-7  # a wanted Ritz pair's residual bound, relative to the largest |Ritz value|
CHECK = 10  # steps between convergence checks
BASIS_ROWS = 32  # basis vectors per row chunk of the basis
SEED = 0  # the fixed start block: results are reproducible


def extreme_pairs(op, n: int, block: int, wanted, deflate=None):
    """(theta, V): the Ritz values of the symmetric `op`, which maps an
    (n, b) block to its product, at the indices `wanted` into the ascending
    Ritz values ([0, -1] are both ends), and their Ritz vectors as columns.
    With `deflate`, orthonormal columns U, the Krylov space stays in the
    orthogonal complement of U.

    Block Lanczos with full reorthogonalization from a fixed pseudo-random
    block of `block` columns.  Step k puts Q_k^T op(Q_k) on the diagonal of
    T = Q^T op Q and subtracts from op(Q_k), twice, its parts along U and
    the basis; the SVD of that remainder W_k, less the singular values at
    most 1e-12 times the largest |entry| of T or singular value so far,
    gives the next block and T's subdiagonal block (for one column, w / |w|
    and |w|, with no SVD call).
    Checking every CHECK steps, it stops when each wanted Ritz pair
    (theta, Q s) has residual |W_k s_k| <= RTOL max|theta|, or when the next
    block is empty: the basis then spans an invariant subspace (at most the
    whole complement) and the pairs are exact.  A Ritz value is a Rayleigh
    quotient: the least bounds the least eigenvalue from above only.  The
    basis is kept in zero-filled (BASIS_ROWS, n) row chunks; T grows with it.
    """
    u = np.zeros((n, 0)) if deflate is None else deflate
    cap = n - u.shape[1]
    b = min(block, cap)
    q = pair_uniforms(SEED, np.repeat(np.arange(n), b), np.tile(np.arange(b), n))
    q = q.reshape(n, b) - 0.5
    for _ in range(2):
        q -= u @ (u.T @ q)
    q = np.linalg.qr(q)[0]
    basis, size, steps = [], 0, 0
    t, coupling, t_max = np.zeros((0, 0)), np.zeros((b, 0)), 0.0
    while True:
        start, size, steps = size, size + q.shape[1], steps + 1
        while len(basis) * BASIS_ROWS < size:
            basis.append(np.zeros((BASIS_ROWS, n)))
            t = np.pad(t, (0, BASIS_ROWS))
        for j, col in enumerate(q.T, start):
            basis[j // BASIS_ROWS][j % BASIS_ROWS] = col
        t[start:size, start - coupling.shape[1] : start] = coupling
        w = op(q)
        t[start:size, start:size] = q.T @ w
        for _ in range(2):
            w -= u @ (u.T @ w)
            for chunk in basis:
                w -= chunk.T @ (chunk @ w)
        if w.shape[1] == 1:  # its SVD is w / |w|, |w|, 1
            s = np.linalg.norm(w, axis=0)
        else:
            left, s, right = np.linalg.svd(w, full_matrices=False)
        t_max = max(t_max, float(np.abs(t[start:size]).max()), float(s[0]))
        # s is descending; the basis cannot outgrow the complement
        keep = min(int(np.count_nonzero(s > 1e-12 * t_max)), cap - size)
        if not keep or steps % CHECK == 0:
            theta, y = np.linalg.eigh(t[:size, :size])
            residual = np.linalg.norm(w @ y[start:, wanted], axis=0)
            if not keep or residual.max() <= RTOL * float(np.abs(theta).max()):
                break
        if w.shape[1] == 1:
            q, coupling = w / s[0], s[:, None]
        else:
            q, coupling = left[:, :keep], s[:keep, None] * right[:keep]
    v = np.zeros((n, len(wanted)))
    for i, chunk in enumerate(basis):
        rows = y[i * BASIS_ROWS : (i + 1) * BASIS_ROWS, wanted]
        v += chunk[: len(rows)].T @ rows
    return theta[wanted], v
