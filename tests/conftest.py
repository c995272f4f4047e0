"""Shared grid generators for the test suite.

Random grids come in two flavors: "certified" grids keep every adjacent
step ratio inside (0, 1.405], the regime the positivity certification
covers; "wild" grids only cap the ratios at a large bound (the random-step
convergence regime) and are built from i.i.d. uniform step lengths so the
steps never underflow.
"""

import numpy as np

from vsbdf3.bdf_kernels import inverse_kernel_rows, kernel_weights
from vsbdf3.time_grid import TimeGrid, build_from_ratios, build_from_steps


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def certified_grid(rng: np.random.Generator, n: int, horizon: float = 1.0) -> TimeGrid:
    """Grid with n steps whose adjacent ratios are uniform in (0, 1.405]."""
    # 1 - random() lies in (0, 1], so the open lower end is exact
    ratios = 1.405 * (1.0 - rng.random(n - 1)) if n > 1 else []
    return build_from_ratios(ratios, horizon)


def wild_grid(rng: np.random.Generator, n: int, cap: float = 44.0,
              horizon: float = 1.0) -> TimeGrid:
    """Grid of i.i.d. uniform steps, redrawn until all ratios lie in [1/cap, cap]."""
    while True:
        sig = rng.random(n)
        if sig.min() <= 0.0:
            continue
        r = sig[1:] / sig[:-1]
        if n == 1 or (r.max() <= cap and r.min() >= 1.0 / cap):
            return build_from_steps(sig * (horizon / sig.sum()))


def inverse_kernel_matrix(grid: TimeGrid) -> np.ndarray:
    """D = B^{-1} as a dense N x N array, filled from the shipped rows."""
    n = grid.n_steps
    D = np.zeros((n, n))
    for i, row in enumerate(inverse_kernel_rows(kernel_weights(grid))):
        D[i, : i + 1] = row
    return D
