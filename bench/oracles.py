"""Independent reference computations for the benchmark's output checks.

Nothing here imports vsbdf3.  The kernel weights come from the definition
of the variable-step BDF formulas (the derivative at t_n of the polynomial
interpolating the last k+1 levels), not from the package's closed forms, so
a fault in those forms shows up as a disagreement.
"""

from __future__ import annotations

import math

import numpy as np

# Shift of the certified kernel matrix B + B^T - 2*GAMMA*Lambda^{-1}.
GAMMA = 1.0 / 200.0
# Largest adjacent-step ratio covered by the positive-definiteness theorem.
MAX_CERTIFIED_RATIO = 1.405


def bdf_weights(steps) -> np.ndarray:
    """Rows (b0, b1, b2) of the kernel weights at levels 1..N.

    Level n uses the interpolant through t_{n-k}..t_n with k = min(n, 3).
    Its derivative at t_n is sum_j c_j v^{n-j}; written on backward
    differences, b_k = c_0 + ... + c_k.
    """
    tau = np.asarray(steps, dtype=float)
    out = np.zeros((tau.size, 3))
    for n in range(1, tau.size + 1):
        k = min(n, 3)
        # offsets t_{n-j} - t_n for j = 0..k, summed from the steps
        off = np.concatenate([[0.0], -np.cumsum(tau[n - k : n][::-1])])
        c = np.empty(k + 1)
        c[0] = sum(-1.0 / off[m] for m in range(1, k + 1))
        for j in range(1, k + 1):
            others = [m for m in range(k + 1) if m != j]
            num = math.prod(0.0 - off[m] for m in others if m != 0)
            den = math.prod(off[j] - off[m] for m in others)
            c[j] = num / den
        out[n - 1, :k] = np.cumsum(c)[:k]
    return out


def kernel_matrix(steps) -> np.ndarray:
    """Dense lower-triangular B with B[n, n-k] = b_k at level n (0-based rows)."""
    w = bdf_weights(steps)
    n = w.shape[0]
    B = np.zeros((n, n))
    for k in range(3):
        rows = np.arange(k, n)
        B[rows, rows - k] = w[k:, k]
    return B


def scaled_shifted_matrix(steps) -> np.ndarray:
    """Lambda^{1/2} (B + B^T - 2*GAMMA*Lambda^{-1}) Lambda^{1/2}.

    A congruence by a positive diagonal keeps the sign of every leading
    minor, so this matrix has the same first nonpositive pivot as the
    unscaled one while staying well scaled on grids with tiny steps.
    """
    tau = np.asarray(steps, dtype=float)
    B = kernel_matrix(tau)
    root = np.sqrt(tau)
    S = root[:, None] * (B + B.T) * root[None, :]
    S[np.diag_indices_from(S)] -= 2.0 * GAMMA
    return S


def cholesky_pivots(S) -> np.ndarray:
    """Pivots d_1, d_2, ... of the dense LDL^T factorization of S.

    The factorization stops after the first nonpositive pivot, which is
    the last entry returned.
    """
    S = np.asarray(S, dtype=float)
    n = S.shape[0]
    L = np.zeros((n, n))
    d = np.zeros(n)
    for k in range(n):
        d[k] = S[k, k] - (L[k, :k] ** 2) @ d[:k]
        if d[k] <= 0.0:
            return d[: k + 1]
        L[k + 1 :, k] = (S[k + 1 :, k] - L[k + 1 :, :k] @ (L[k, :k] * d[:k])) / d[k]
    return d


def pivot_tolerance(S, k: int) -> float:
    """Rounding allowance for pivot k (0-based): 1e-9 of row k's magnitude."""
    return 1e-9 * float(np.abs(S[k, : k + 1]).sum())


def agrees_with_oracle(first_negative: int | None, steps) -> bool:
    """Whether a reported first nonpositive pivot (1-based, None = none)
    matches the dense factorization of the scaled shifted kernel matrix.

    Where the two differ, the earlier of the two indices must carry an
    oracle pivot within rounding of zero.  Leading minors up to level k
    involve only the first k steps, so a grid reported to stop at k is
    factored only that far.
    """
    S = scaled_shifted_matrix(steps[:first_negative] if first_negative else steps)
    d = cholesky_pivots(S)
    oracle = d.size if d[-1] <= 0.0 else None
    if first_negative == oracle:
        return True
    n = S.shape[0]
    k = min(first_negative or n + 1, oracle or n + 1)
    if k > d.size:
        return False
    return abs(d[k - 1]) <= pivot_tolerance(S, k - 1)


def first_nonpositive_minor(ratios) -> int | None:
    """First leading principal minor of A + A^T that is not positive.

    A = Lambda^{1/2} B Lambda^{1/2} depends on the steps only through the
    ratios, so the chain is laid out with tau_1 = 1.  Determinants come from
    numpy's LU-based slogdet, a different route from the pivot recursions.
    """
    tau = np.cumprod(np.concatenate([[1.0], np.asarray(ratios, dtype=float)]))
    B = kernel_matrix(tau)
    root = np.sqrt(tau)
    A = root[:, None] * B * root[None, :]
    S = A + A.T
    for j in range(1, S.shape[0] + 1):
        sign, _ = np.linalg.slogdet(S[:j, :j])
        if sign <= 0.0:
            return j
    return None


def initial_energy(eps2: float, a: float = 0.05) -> float:
    """E(u^0) for u^0 = a*sin(x)*sin(y) on the torus (0, 2*pi)^2.

    Integrals of the trigonometric polynomials are exact on the Fourier
    grid: |grad u|^2 integrates to 2*pi^2*a^2 and (u^2 - 1)^2 to
    4*pi^2 - 2*pi^2*a^2 + 9*pi^2*a^4/16.
    """
    pi2 = math.pi**2
    return 0.5 * eps2 * 2.0 * pi2 * a * a + 0.25 * (4.0 * pi2 - 2.0 * pi2 * a * a
                                                    + 9.0 * pi2 * a**4 / 16.0)


def least_squares_order(ns, errors) -> float:
    """Observed order: minus the slope of log(error) against log(N)."""
    return -float(np.polyfit(np.log(np.asarray(ns, dtype=float)),
                             np.log(np.asarray(errors, dtype=float)), 1)[0])
