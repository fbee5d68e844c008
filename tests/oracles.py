"""Independent reference implementations used only by the tests.

These deliberately avoid the code paths of the package (and of LAPACK's
divide-and-conquer SVD) so that agreement is a genuine cross-check.  Two
exceptions: :func:`stage_loss` reads training's loss off the public
``solve``, so that it checks training's own forward and backward passes,
and :func:`exhaustive_tail_search` runs training's own passes, so that it
checks the tail search's pruning and order, not its arithmetic.
"""

import math
from dataclasses import replace

import numpy as np

from lrpca import StopRule, solve, spectral_init, training
from lrpca.solver import _Scratch


def jacobi_svd(M, sweeps=60, tol=1e-15):
    """Dense SVD via one-sided Jacobi rotations (Hestenes method).

    Orthogonalizes column pairs of A = M (or M^T for wide inputs) until
    every pairwise inner product is negligible; singular values are the
    column norms of the rotated matrix.  Returns (U, s, V) with s in
    non-increasing order and M ~= U @ diag(s) @ V.T.
    """
    M = np.asarray(M, dtype=np.float64)
    transposed = M.shape[0] < M.shape[1]
    A = (M.T if transposed else M).copy()
    m, n = A.shape
    V = np.eye(n)
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                app = A[:, p] @ A[:, p]
                aqq = A[:, q] @ A[:, q]
                apq = A[:, p] @ A[:, q]
                if abs(apq) <= tol * np.sqrt(app * aqq):
                    continue
                off = max(off, abs(apq))
                zeta = (aqq - app) / (2.0 * apq)
                t = np.sign(zeta) / (abs(zeta) + np.hypot(1.0, zeta))
                c = 1.0 / np.hypot(1.0, t)
                s = c * t
                Ap = A[:, p].copy()
                A[:, p] = c * Ap - s * A[:, q]
                A[:, q] = s * Ap + c * A[:, q]
                Vp = V[:, p].copy()
                V[:, p] = c * Vp - s * V[:, q]
                V[:, q] = s * Vp + c * V[:, q]
        if off == 0.0:
            break
    sig = np.sqrt((A * A).sum(axis=0))
    order = np.argsort(-sig)
    sig = sig[order]
    A = A[:, order]
    V = V[:, order]
    U = np.zeros_like(A)
    for j in range(n):
        if sig[j] > 0:
            U[:, j] = A[:, j] / sig[j]
        else:
            U[:, j] = 0.0
    if transposed:
        return V, sig, U
    return U, sig, V


def jacobi_rank_r(M, r):
    """Best rank-r reconstruction according to the Jacobi oracle."""
    U, s, V = jacobi_svd(M)
    return (U[:, :r] * s[:r]) @ V[:, :r].T


def brute_force_sparsify(M, alpha_tilde):
    """Literal top-fraction sparsification using full sorts everywhere."""
    M = np.asarray(M, dtype=np.float64)
    n1, n2 = M.shape
    k_row = int(np.floor(alpha_tilde * n2))
    k_col = int(np.floor(alpha_tilde * n1))
    out = np.zeros_like(M)
    if k_row == 0 or k_col == 0:
        return out
    for i in range(n1):
        row_sorted = sorted(abs(x) for x in M[i])[::-1]
        row_cut = row_sorted[k_row - 1]
        for j in range(n2):
            col_sorted = sorted(abs(x) for x in M[:, j])[::-1]
            col_cut = col_sorted[k_col - 1]
            if abs(M[i, j]) >= row_cut and abs(M[i, j]) >= col_cut:
                out[i, j] = M[i, j]
    return out


def sort_sparsify(M, alpha_tilde):
    """Top-fraction sparsification with its row and column cutoffs read from
    full sorts of ``|M|`` (ties at a cutoff are kept)."""
    M = np.asarray(M, dtype=np.float64)
    n1, n2 = M.shape
    k_row = int(np.floor(alpha_tilde * n2))
    k_col = int(np.floor(alpha_tilde * n1))
    if k_row == 0 or k_col == 0:
        return np.zeros_like(M)
    mag = np.abs(M)
    row_cut = np.sort(mag, axis=1)[:, n2 - k_row][:, None]
    col_cut = np.sort(mag, axis=0)[n1 - k_col][None, :]
    return np.where((mag >= row_cut) & (mag >= col_cut), M, 0.0)


def scalar_lrpca_step(L, R, Y, zeta, eta):
    """Plain-loop evaluation of one iteration for tiny problems."""
    L = [row[:] for row in L]
    R = [row[:] for row in R]
    n1, r = len(L), len(L[0])
    n2 = len(R)
    X = [[sum(L[i][k] * R[j][k] for k in range(r)) for j in range(n2)]
         for i in range(n1)]
    S = [[0.0] * n2 for _ in range(n1)]
    for i in range(n1):
        for j in range(n2):
            v = Y[i][j] - X[i][j]
            mag = abs(v) - zeta
            S[i][j] = (1.0 if v > 0 else -1.0) * mag if mag > 0 else 0.0
    W = [[X[i][j] + S[i][j] - Y[i][j] for j in range(n2)] for i in range(n1)]
    GR = [[sum(R[i][a] * R[i][b] for i in range(n2)) for b in range(r)]
          for a in range(r)]
    GL = [[sum(L[i][a] * L[i][b] for i in range(n1)) for b in range(r)]
          for a in range(r)]
    GR_inv = np.linalg.inv(np.array(GR))
    GL_inv = np.linalg.inv(np.array(GL))
    WR = np.array(W) @ np.array(R) @ GR_inv
    WL = np.array(W).T @ np.array(L) @ GL_inv
    L_new = np.array(L) - eta * WR
    R_new = np.array(R) - eta * WL
    return L_new, R_new, np.array(S)


def dense_reference_solve(Y, L, R, S, params, mode, tol, max_iters,
                          truth=None, outlier=None):
    """Dense reference for the solver loop from the initial (L, R, S).

    Every iteration forms ``X = L R^T``, ``T = Y - X``, the soft threshold
    ``S' = sign(T) max(|T| - zeta, 0)`` (or ``outlier(T, zeta)`` when given)
    and ``W = X + S' - Y`` as full matrices, and updates both factors by
    solving against the pre-step Gram matrices with ``np.linalg.solve``.
    The stop modes follow :class:`lrpca.StopRule`, with the iterate changes
    taken from dense differences and every residual from the dense
    ``Y - X - S``.  ``params(k, X)`` gives ``(zeta, eta)`` for iteration k
    from the previous iterate's X.  Returns ``(X, S, residuals, rel_errs)``
    with one entry per iterate, the initial one included.
    """
    Y = np.asarray(Y, dtype=np.float64)
    ny = np.linalg.norm(Y)

    def rel(new, old):
        den = np.linalg.norm(old)
        diff = np.linalg.norm(new - old)
        return (0.0 if diff == 0.0 else np.inf) if den == 0.0 else diff / den

    def measure(X, S):
        residuals.append(np.linalg.norm(Y - X - S) / ny)
        if truth is not None:
            rel_errs.append(np.linalg.norm(X - truth) / np.linalg.norm(truth))

    residuals, rel_errs = [], []
    X = L @ R.T
    measure(X, S)
    k = 0
    while k < max_iters:
        if mode == "residual_rel" and residuals[-1] < tol:
            break
        k += 1
        zeta, eta = params(k, X)
        T = Y - X
        if outlier is None:
            S_new = np.sign(T) * np.maximum(np.abs(T) - zeta, 0.0)
        else:
            S_new = outlier(T, zeta)
        W = X + S_new - Y
        L_new = L - eta * np.linalg.solve(R.T @ R, (W @ R).T).T
        R_new = R - eta * np.linalg.solve(L.T @ L, (W.T @ L).T).T
        X_new = L_new @ R_new.T
        change = max(rel(X_new, X), rel(S_new, S))
        L, R, X, S = L_new, R_new, X_new, S_new
        measure(X, S)
        if mode == "iterate_change" and change < tol:
            break
    return X, S, residuals, rel_errs


def dense_layer_vjp(Y, L, R, zeta, eta, L_bar, R_bar):
    """Dense reverse mode through one soft-threshold iteration.

    The layer is ``L' = L + eta C R (R^T R)^{-1}``,
    ``R' = R + eta C^T L (L^T L)^{-1}`` with ``C = clip(Y - L R^T, +-zeta)``.
    Every matrix is formed in full and the Gram inverses come from
    ``np.linalg.inv``.  Given the adjoints of ``(L', R')`` it returns those of
    ``(L, R, zeta, eta)``.
    """
    T = Y - L @ R.T
    C = np.clip(T, -zeta, zeta)
    GR_inv = np.linalg.inv(R.T @ R)
    GL_inv = np.linalg.inv(L.T @ L)
    P = C @ R @ GR_inv
    Q = C.T @ L @ GL_inv
    # Adjoints of M = C R and N = C^T L.
    M_bar = eta * L_bar @ GR_inv
    N_bar = eta * R_bar @ GL_inv
    C_bar = M_bar @ R.T + L @ N_bar.T
    inside = np.abs(T) < zeta
    T_bar = np.where(inside, C_bar, 0.0)
    zeta_bar = float(np.sum(np.where(np.abs(T) > zeta, C_bar * np.sign(T),
                                     0.0)))
    eta_bar = float(np.sum(L_bar * P) + np.sum(R_bar * Q))
    # d(G^{-1}) = -G^{-1} dG G^{-1}, and G = R^T R gives dG = dR^T R + R^T dR.
    GR_bar = -P.T @ M_bar
    GL_bar = -Q.T @ N_bar
    L_in = L_bar + C @ N_bar - T_bar @ R + L @ (GL_bar + GL_bar.T)
    R_in = R_bar + C.T @ M_bar - T_bar.T @ L + R @ (GR_bar + GR_bar.T)
    return L_in, R_in, zeta_bar, eta_bar


def central_difference_gradient(f, values, h):
    """Gradient-check oracle: ``(f(v + h e_i) - f(v - h e_i)) / 2h`` for
    every coordinate of ``values``.  Exact to O(h^2) where ``f`` is smooth,
    that is, away from the kinks of the soft threshold."""
    values = np.asarray(values, dtype=np.float64)
    grad = np.empty_like(values)
    for i in range(values.size):
        hi, lo = values.copy(), values.copy()
        hi[i] += h
        lo[i] -= h
        grad[i] = (f(hi) - f(lo)) / (2.0 * h)
    return grad


def stage_loss(theta, k, batch):
    """Mean of ``||X_k - X_star||_F^2`` over a batch of instances, where
    ``X_k`` is what a ``fixed_iters`` solve returns after k iterations of
    ``theta`` from the instance's seeded init: the loss that training's
    stage k minimizes, through the public solve rather than training's
    forward pass."""
    total = 0.0
    for inst in batch:
        X = solve(inst.Y, inst.r, theta, stop=StopRule("fixed_iters", 0.0, k),
                  seed=inst.seed)[0]
        total += float(np.linalg.norm(X - inst.X_star) ** 2)
    return total / len(batch)


def exhaustive_tail_search(theta, dataset, cfg):
    """The tail grid search without pruning: every (beta, phi) pair of
    ``cfg.grid_values()`` runs ``cfg.K_bar`` iterations on every instance,
    each pair's squared errors are added in dataset order, and the schedule
    with the pair that minimizes ``(mean, phi, beta)`` over the pairs with
    a finite mean is returned.  Passes go through ``training._advance``
    looked up at each call, so a test that patches it patches both
    searches."""
    K, K_bar = theta.K, cfg.K_bar
    scratch = _Scratch()
    cached = []
    for inst in dataset:
        init = spectral_init(inst.Y, inst.r, theta.zeta0, seed=inst.seed)
        cached.append((inst, training._advance(init.factors, inst.Y, theta,
                                               1, K, scratch)[-1]))

    def tail_loss(beta, phi):
        cand = replace(theta, beta=beta, phi=phi)
        total = 0.0
        for inst, factors in cached:
            X_final = training._advance(factors, inst.Y, cand, K + 1, K_bar,
                                        scratch)[-1].product()
            X_final -= inst.X_star
            total += float(np.linalg.norm(X_final) ** 2)
        return total / len(cached)

    grid = cfg.grid_values()
    _, phi, beta = min(key for key in ((tail_loss(beta, phi), phi, beta)
                                       for phi in grid for beta in grid)
                       if math.isfinite(key[0]))
    return replace(theta, beta=beta, phi=phi)
