"""Self-contained eigenvalue oracles for the certification tests.

Cyclic Jacobi sweeps give the smallest eigenvalue of a symmetric part and
power iteration the spectral norm.  They are written out by hand and share
no code with vsbdf3, so the pivot-recursion certification and the
spectral-norm bound are checked by independent linear algebra.
"""

import math

import numpy as np


class EigenConvergenceError(RuntimeError):
    """Jacobi sweeps failed to reduce the off-diagonal norm."""


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge within the iteration budget."""


def min_symmetric_eigenvalue(M, rel_tol: float = 1e-12, max_sweeps: int = 100) -> float:
    """Smallest eigenvalue of the symmetric part (M + M^T)/2 by cyclic Jacobi.

    Accuracy is ~1e-10 * ||M|| or better; used as the independent oracle for
    the pivot-recursion certification, so it must not share that code path.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    S = 0.5 * (M + M.T)
    return float(_jacobi_spectrum(S, rel_tol, max_sweeps).min())


def _jacobi_spectrum(S: np.ndarray, rel_tol: float, max_sweeps: int) -> np.ndarray:
    A = S.copy()
    n = A.shape[0]
    if n == 1:
        return A.diagonal().copy()
    fro = math.sqrt(float((A * A).sum()))
    if fro == 0.0:
        return np.zeros(n)
    for _ in range(max_sweeps):
        # sum off-diagonal squares directly; the difference-of-sums form loses
        # all accuracy once the diagonal dominates by ~1e8
        offmat = A * A
        np.fill_diagonal(offmat, 0.0)
        off = math.sqrt(float(offmat.sum()))
        if off <= rel_tol * fro:
            return A.diagonal().copy()
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if apq == 0.0:
                    continue
                g = 100.0 * abs(apq)
                app, aqq = A[p, p], A[q, q]
                # coupling below roundoff of both diagonals: already converged
                if abs(app) + g == abs(app) and abs(aqq) + g == abs(aqq):
                    A[p, q] = A[q, p] = 0.0
                    continue
                h = aqq - app
                if abs(h) + g == abs(h):
                    # theta would overflow; rotation angle ~ apq/h
                    t = apq / h
                else:
                    theta = h / (2.0 * apq)
                    sgn = 1.0 if theta >= 0.0 else -1.0
                    t = sgn / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rp, rq = A[p, :].copy(), A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp, cq = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                A[p, q] = A[q, p] = 0.0
    raise EigenConvergenceError(
        f"Jacobi sweeps did not converge in {max_sweeps} sweeps (n={n})"
    )


def spectral_norm(M, rel_tol: float = 1e-10, max_iter: int = 10_000) -> float:
    """Largest singular value by power iteration on M^T M.

    Successive estimates are Rayleigh quotients, hence nondecreasing; the
    iteration stops when they agree to rel_tol.  Nonconvergence raises
    PowerIterationError rather than returning a stale estimate.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.any(M):
        return 0.0
    rng = np.random.Generator(np.random.PCG64(1405))
    v = rng.standard_normal(M.shape[1])
    v /= math.sqrt(float(v @ v))
    sigma_prev = -1.0
    for _ in range(max_iter):
        w = M @ v
        sigma = math.sqrt(float(w @ w))
        if sigma == 0.0:
            # start vector fell in the null space; redraw
            v = rng.standard_normal(M.shape[1])
            v /= math.sqrt(float(v @ v))
            continue
        if sigma_prev >= 0.0 and abs(sigma - sigma_prev) <= rel_tol * sigma:
            return sigma
        sigma_prev = sigma
        u = M.T @ w
        v = u / math.sqrt(float(u @ u))
    raise PowerIterationError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(last estimate {sigma_prev})"
    )
