"""Variable-step backward-differentiation kernels and their matrix forms.

Level 1 uses the one-step kernel and every later level the three-step
closed form, which at r_1 = 0 (no step before level 1) is level 2's
two-step kernel.  Weights depend only on the local data (tau_n, r_n,
r_{n-1}), and only through b_k = beta_k / tau_n.  The closed form
bdf3_weights gives the ratio parts beta_k; ratio_weights tabulates them
for every level in one array call, and kernel_weights, which time
stepping reads once per grid, is the one place they are divided by the
step.  ratio_analysis reads the same closed form one level at a time,
with the same bits, for both its traces.  apply_D3 is the one place the
backward-difference sum is written; the N x N matrix B of assemble_B
exists for analysis and diagnostics.

The inverse kernels (rows of D = B^{-1}) are computed one row at a time
by the backward recursion that defines them, reading the weight table
directly, since B has lower bandwidth 3.  Total cost is O(N^2) and the
memory is one row; matrix inversion is reserved for test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .time_grid import TimeGrid, _ro

__all__ = [
    "KernelMatrices",
    "bdf3_weights",
    "ratio_weights",
    "kernel_weights",
    "assemble_B",
    "inverse_kernel_rows",
    "apply_D3",
]


@dataclass(frozen=True, eq=False)
class KernelMatrices:
    """Kernel matrix B, lower triangular with bandwidth 3, read-only."""

    B: np.ndarray


def bdf3_weights(r_n, r_nm1):
    """Ratio parts (beta_0, beta_1, beta_2) of the three-step weights, b_k = beta_k / tau_n.

    The arguments may be scalars or arrays of one shape; products, not powers,
    keep their bits equal.  At r_nm1 = 0 they are the two-step ratio parts.
    """
    den = (1.0 + r_n) * (1.0 + r_nm1) * (1.0 + r_nm1 + r_n * r_nm1)
    rr, mix = r_n * r_n, 1.0 + 2.0 * r_nm1 + r_n * r_nm1
    b0 = (1.0 + r_nm1) * (1.0 + 2.0 * r_n + r_nm1 * (1.0 + 4.0 * r_n + 3.0 * rr)) / den
    b1 = -rr * (mix * mix - r_nm1 * (1.0 + r_nm1)) / den
    b2 = rr * (r_nm1 * r_nm1 * r_nm1) * ((1.0 + r_n) * (1.0 + r_n)) / den
    return b0, b1, b2


def ratio_weights(ratios) -> np.ndarray:
    """Ratio parts beta_k of the kernel weights at every level: b_k = beta_k / tau_n.

    ratios holds r_2..r_N (length N-1).  Row n-1 of the N x 3 result is
    (beta_0, beta_1, beta_2) of level n, that is, the level's weights at
    tau_n = 1; weights a level's kernel lacks are exact zeros.  Ratios that
    overflow the closed form raise ValueError at the first level hit.
    """
    r = np.asarray(ratios, dtype=float)
    beta = np.zeros((r.size + 1, 3))
    beta[0, 0] = 1.0
    with np.errstate(all="ignore"):
        beta[1:] = np.column_stack(bdf3_weights(r, np.concatenate(([0.0], r))[:-1]))
    return _require_finite(beta, "beta_0, beta_1, beta_2",
                           lambda n: f"step ratio r_{n} = {float(r[n - 2])!r}")


def kernel_weights(grid: TimeGrid) -> np.ndarray:
    """Kernel weights b_k = beta_k / tau_n of every level, a read-only N x 3 table.

    Row n-1 holds (b0, b1, b2) of level n.  A step so small that its
    weights overflow raises ValueError.
    """
    tau = np.asarray(grid.steps)
    beta = ratio_weights(grid.ratios)
    with np.errstate(over="ignore"):
        b = beta / tau[:, None]
    return _ro(_require_finite(b, "b0, b1, b2",
                               lambda n: f"step {grid.steps[n - 1]!r}"))


def _require_finite(table: np.ndarray, names: str, cause) -> np.ndarray:
    """Return table, or raise ValueError naming its first level with a
    non-finite weight; cause(n) describes the grid data of level n."""
    if not np.isfinite(table).all():
        n = int(np.flatnonzero(~np.isfinite(table).all(axis=1))[0]) + 1
        raise _non_finite(n, cause(n), names, table[n - 1])
    return table


def _non_finite(n: int, cause: str, names: str, values) -> ValueError:
    """The error for level n, whose data (cause) gives the non-finite weights."""
    values = ", ".join(repr(float(v)) for v in values)
    return ValueError(f"level {n}: {cause} gives non-finite kernel weights {names} = {values}")


def assemble_B(grid: TimeGrid) -> KernelMatrices:
    """Assemble the kernel matrix B (lower triangular, bandwidth 3) of the grid."""
    n = grid.n_steps
    b = kernel_weights(grid)
    B = np.zeros((n, n))
    idx = np.arange(n)
    B[idx, idx] = b[:, 0]
    B[idx[1:], idx[:-1]] = b[1:, 1]
    B[idx[2:], idx[:-2]] = b[2:, 2]
    return KernelMatrices(B=_ro(B))


def inverse_kernel_rows(weights):
    """Rows of D = B^{-1} from the kernel_weights table, one list of floats per level.

    Row n holds D[n, k] = d_{n-k}^(n), k = 1..n: D[n, n] = 1/b0^(n) and, for k < n,
        D[n, k] = -(D[n, k+1] b1^(k+1) + D[n, k+2] b2^(k+2)) / b0^(k),
    without the second term at k = n - 1.  Columns run from the diagonal
    back to 1 on Python floats, so that only one row is held.  A row with a
    non-finite entry raises ValueError naming its level and first such entry.
    """
    b0, b1, b2 = (list(col) for col in zip(*np.asarray(weights).tolist()))
    for i in range(len(b0)):
        d = [0.0] * (i + 1)
        d[i] = 1.0 / b0[i]
        if i:
            d[i - 1] = -(d[i] * b1[i]) / b0[i - 1]
        for j in range(i - 2, -1, -1):
            d[j] = -(d[j + 1] * b1[j + 1] + d[j + 2] * b2[j + 2]) / b0[j]
        if not all(map(math.isfinite, d)):
            j = next(j for j, v in enumerate(d) if not math.isfinite(v))
            raise ValueError(f"level {i + 1}: the kernel weights give a non-finite "
                             f"inverse kernel D[{i + 1},{j + 1}] = {d[j]!r}")
        yield d


def apply_D3(weights, history) -> float | np.ndarray:
    """Discrete time derivative b0*dv^n + b1*dv^(n-1) + b2*dv^(n-2).

    weights is the level's row (b0, b1, b2) of kernel_weights; history holds
    values (scalars or arrays of equal shape) ending at level n, and
    dv^k = v^k - v^(k-1).  At most the last four values are read; the
    weights a level's kernel lacks are zeros, so at levels 1 and 2 the
    history may start at level 0.
    """
    last = len(history) - 1
    if last < 1:
        raise ValueError("history must span at least two levels")
    out = 0.0
    for k in range(min(last, 3)):
        out = out + weights[k] * (history[last - k] - history[last - k - 1])
    return out
