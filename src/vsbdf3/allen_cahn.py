"""Fully implicit variable-step integration of the Allen-Cahn equation.

Each level solves

    b0*u - eps2*L*u + u^3 - u = b0*u_prev - b1*du_prev - b2*du_prev2 + g

by a full Newton iteration from the previous time level.  b0, b1, b2 are
the level's row of the grid's kernel-weight table (bdf_kernels), taken
once per configuration, and the known history terms are apply_D3's sum.
Nothing is assembled: the residual applies L through the operator's tensor
structure and cubes u by products.  Each correction solves with
J = (b0 - 1)*I - eps2*L + diag(3u^2) by one unrestarted GMRES cycle,
right-preconditioned by P = (b0 - 1 + c)*I - eps2*L, c the midpoint of the
range of 3u^2; each iteration applies J*P^-1 = I + diag(3u^2 - c)*P^-1 with
one fast-diagonalisation solve.  GMRES stops at a recurrence residual below
max(1e-3*NEWTON_TOL, 1e-13*|res|) (inexact Newton, Dembo, Eisenstat &
Steihaug 1982); the true residual differs from it by the rounding of the
P^-1 solve, three orders below NEWTON_TOL.  An inner solve that does not
converge within _INNER_MAX_ITER iterations raises SingularJacobianError.

Convergence is max-norm residual <= max(NEWTON_TOL, 4*eps*|rhs|): below
that the residual is rounding noise of b0*u, which is large on tiny steps.
The residual is checked before the first solve, so exact steady states cost
zero iterations; a non-finite residual is a divergence, never convergence.

Two forcing modes: "manufactured" adds the source that makes
u = (t^4+1)(1-x^2)(1-y^2) exact (for convergence studies on the Chebyshev
operator), "none" integrates the plain equation (energy studies on the
periodic operator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .bdf_kernels import apply_D3, kernel_weights
from .ratio_analysis import GAMMA
from .spectral import SpectralOperator, energy, l2_norm
from .time_grid import TimeGrid, _ro, _setstate_ro

__all__ = [
    "NEWTON_TOL",
    "SolverConfig",
    "StepDiagnostics",
    "RunResult",
    "NewtonDivergenceError",
    "SingularJacobianError",
    "exact_solution",
    "exact_time_derivative",
    "forcing",
    "default_energy_initial_data",
    "step",
    "levels",
    "run",
    "check_solvability",
    "check_energy_condition",
    "consistency_probe",
]


class NewtonDivergenceError(RuntimeError):
    """Newton failed to converge; carries the level and last residual."""

    def __init__(self, level: int, residual: float, iterations: int):
        super().__init__(level, residual, iterations)  # args rebuild it on unpickling
        self.level, self.residual = level, residual

    def __str__(self):
        return "Newton did not converge at level {}: residual {:.3e} after {} iterations".format(
            *self.args)


class SingularJacobianError(RuntimeError):
    """The Newton linear system was singular to working precision.

    Raised when the inner GMRES solve breaks down or does not reach its
    tolerance within _INNER_MAX_ITER iterations.
    """

    def __init__(self, level: int):
        super().__init__(level)  # args rebuild it on unpickling
        self.level = level

    def __str__(self):
        return f"singular Jacobian at level {self.level}"


# Max-norm residual at which Newton stops, and its iteration cap.
NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 50
# Iteration cap of the inner GMRES solve.
_INNER_MAX_ITER = 500
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """Immutable description of one integration run."""

    grid: TimeGrid
    operator: SpectralOperator
    eps2: float
    forcing: str = "manufactured"
    initial_data: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    __setstate__ = _setstate_ro

    def __post_init__(self):
        if self.forcing not in ("manufactured", "none"):
            raise ValueError(f"forcing must be 'manufactured' or 'none', got {self.forcing!r}")
        if not (self.eps2 > 0.0 and math.isfinite(self.eps2)):
            raise ValueError(f"eps2 must be positive and finite, got {self.eps2!r}")

    @cached_property
    def kernel_weights(self) -> np.ndarray:
        """The grid's kernel-weight table, built on first use and read by every level."""
        return kernel_weights(self.grid)

    @cached_property
    def initial_state(self) -> np.ndarray:
        """u^0 on the mesh, evaluated once; a read-only copy, not the caller's array."""
        X, Y = self.operator.mesh
        if self.initial_data is not None:
            u0 = np.array(self.initial_data(X, Y), dtype=float)
        elif self.forcing == "manufactured":
            u0 = exact_solution(X, Y, 0.0)
        else:
            u0 = default_energy_initial_data(X, Y)
        if u0.shape != X.shape:
            raise ValueError("initial data does not match the operator unknowns")
        if not np.isfinite(u0).all():
            i = int(np.flatnonzero(~np.isfinite(u0))[0])
            raise ValueError(f"initial data must be finite, got {float(u0.flat[i])!r} at index {i}")
        return _ro(u0)


@dataclass(frozen=True, slots=True)
class StepDiagnostics:
    """What one level's solve used and did; the energy of its field is left to run.

    b0 is the leading kernel weight the level solved with and tau its step
    tau_n; check_solvability and check_energy_condition read the two.
    """

    b0: float
    tau: float
    final_residual: float
    # GMRES iterations of each Newton correction, in order
    inner_iterations: tuple[int, ...] = ()

    @property
    def newton_iterations(self) -> int:
        return len(self.inner_iterations)


@dataclass(frozen=True, eq=False)
class RunResult:
    """Final field, per-level diagnostics and energies of one run.

    final_state is the read-only field at the grid's level N; energies holds,
    read-only, the discrete free energy at levels 0..N (unforced runs only,
    None otherwise); final_error is the discrete L2 error of final_state
    against the exact solution (manufactured runs only, None otherwise).
    """

    final_state: np.ndarray
    diagnostics: tuple[StepDiagnostics, ...]
    energies: np.ndarray | None
    final_error: float | None = None
    __setstate__ = _setstate_ro


def exact_solution(x, y, t):
    """Manufactured solution (t^4 + 1)(1 - x^2)(1 - y^2) on [-1, 1]^2."""
    return (t**4 + 1.0) * (1.0 - np.asarray(x) ** 2) * (1.0 - np.asarray(y) ** 2)


def exact_time_derivative(x, y, t):
    return 4.0 * t**3 * (1.0 - np.asarray(x) ** 2) * (1.0 - np.asarray(y) ** 2)


def forcing(x, y, t, eps2):
    """Source making exact_solution solve u_t - eps2*Lap(u) + u^3 - u = g."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u = exact_solution(x, y, t)
    lap = -2.0 * (t**4 + 1.0) * ((1.0 - x * x) + (1.0 - y * y))
    return exact_time_derivative(x, y, t) - eps2 * lap + u**3 - u


def default_energy_initial_data(x, y):
    """Small smooth seed for unforced runs on the periodic square."""
    return 0.05 * np.sin(np.asarray(x)) * np.sin(np.asarray(y))


def step(config: SolverConfig, history, n: int) -> tuple[np.ndarray, StepDiagnostics]:
    """Advance to level n given the fields of levels max(0, n-3)..n-1."""
    grid, op, eps2 = config.grid, config.operator, config.eps2
    if not 1 <= n <= grid.n_steps:
        raise ValueError(f"level {n} outside 1..{grid.n_steps}")
    if len(history) != min(n, 3):
        raise ValueError(f"history must hold the last {min(n, 3)} levels, got {len(history)}")
    weights = config.kernel_weights[n - 1]
    b0 = float(weights[0])

    # Newton starts from u = u^(n-1).  D3 with u^n replaced by u^(n-1) is the
    # part of the derivative that the history fixes: b1*du^(n-1) + b2*du^(n-2)
    u = history[-1]
    rhs = b0 * u - apply_D3(weights, [*history, u])
    if config.forcing == "manufactured":
        X, Y = op.mesh
        rhs = rhs + forcing(X, Y, float(grid.levels[n]), eps2)
    tol = max(NEWTON_TOL, 4.0 * _EPS * float(np.abs(rhs).max()))

    inner = []
    while True:
        res = b0 * u - eps2 * op.laplacian(u) + u * u * u - u - rhs  # u**3 calls libm pow
        res_norm = float(np.abs(res).max())
        if res_norm <= tol < math.inf:  # an overflowed rhs gives tol = inf
            break
        # a NaN residual, or one whose 2-norm overflows, raises here; vdot is @ without its warning
        beta = math.sqrt(float(np.vdot(res, res)))
        if not math.isfinite(beta) or len(inner) >= _NEWTON_MAX_ITER:
            raise NewtonDivergenceError(n, res_norm, len(inner))
        inner_tol = max(1e-3 * NEWTON_TOL, 1e-13 * res_norm)
        du, its = _newton_correction(op, eps2, b0 - 1.0, u, res, beta, inner_tol, n)
        u = u + du
        inner.append(its)

    return _ro(u), StepDiagnostics(b0=b0, tau=grid.steps[n - 1], final_residual=res_norm,
                                   inner_iterations=tuple(inner))


def _newton_correction(op: SpectralOperator, eps2: float, shift: float, u: np.ndarray,
                       res: np.ndarray, beta: float, tol: float, level: int) -> tuple[np.ndarray, int]:
    """Solve (shift*I - eps2*L + diag(3u^2)) du = -res by one GMRES cycle.

    The cycle (Saad & Schultz 1986) takes at most _INNER_MAX_ITER
    iterations, right-preconditioned by P = (shift + c)*I - eps2*L, c the
    midpoint of the range of 3u^2: each applies I + diag(3u^2 - c)*P^-1 with
    one fast-diagonalisation solve.  Givens rotations in Python floats keep
    the least-squares problem triangular; its last right-hand-side entry is
    the recurrence residual that tol bounds in the 2-norm, and the true
    residual differs from it by the rounding of the P^-1 solve.  The basis
    grows by doubling.  beta = |res|_2 > 0.  Returns du and the iterations.
    """
    c3 = 3.0 * u * u
    c = 0.5 * (float(c3.max()) + float(c3.min()))
    solve, coupling = op.shifted_inverse(shift + c, eps2), c3 - c
    # 32 rows hold every correction of the study runs (at most 11 iterations)
    V = np.empty((32, res.size))
    V[0] = -res / beta
    # rows of the rotated Hessenberg triangle, the rotations and rotated beta*e_1
    rows, rotations, g = [], [], [beta]
    for j in range(_INNER_MAX_ITER):
        w = V[j] + coupling * solve(V[j])
        # classical Gram-Schmidt, applied twice for orthogonality
        Vj = V[: j + 1]
        h = np.dot(Vj, w)
        w -= np.dot(h, Vj)
        h2 = np.dot(Vj, w)
        w -= np.dot(h2, Vj)
        col, hn = (h + h2).tolist(), math.sqrt(float(np.dot(w, w)))
        for i, (ci, si) in enumerate(rotations):
            col[i], col[i + 1] = ci * col[i] + si * col[i + 1], ci * col[i + 1] - si * col[i]
            rows[i].append(col[i])
        d = math.hypot(col[j], hn)
        if not (math.isfinite(d) and d > 0.0):
            raise SingularJacobianError(level)
        ci, si = col[j] / d, hn / d
        rotations.append((ci, si))
        rows.append([d])
        g[j:] = [ci * g[j], -si * g[j]]
        if abs(g[j + 1]) <= tol:
            break
        if j + 1 == len(V):
            V = np.concatenate((V, np.empty_like(V)))
        V[j + 1] = w / hn
    else:
        raise SingularJacobianError(level)
    k = j + 1
    y = np.empty(k)
    for i in range(k - 1, -1, -1):
        y[i] = (g[i] - np.dot(rows[i][1:], y[i + 1 :])) / rows[i][0]
    return solve(np.dot(y, V[:k])), k


def levels(config: SolverConfig) -> Iterator[tuple[np.ndarray, StepDiagnostics]]:
    """Yield each level's field and diagnostics, 1..N, holding the three fields step reads."""
    history = [config.initial_state]
    for n in range(1, config.grid.n_steps + 1):
        u, diag = step(config, history, n)
        history = [*history[-2:], u]
        yield u, diag


def run(config: SolverConfig) -> RunResult:
    """Integrate over the whole grid; a caller that wants every field iterates levels."""
    op, eps2, unforced = config.operator, config.eps2, config.forcing == "none"
    diagnostics, energies = [], [energy(op, config.initial_state, eps2)] if unforced else None
    for state, diag in levels(config):
        diagnostics.append(diag)
        if unforced:
            energies.append(energy(op, state, eps2))
    error = None
    if not unforced and config.initial_data is None:
        error = l2_norm(op, state - exact_solution(*op.mesh, float(config.grid.levels[-1])))
    return RunResult(state, tuple(diagnostics), _ro(np.array(energies)) if unforced else None, error)


def check_solvability(b0: float) -> bool:
    """Unique solvability of a level: its functional is strictly convex."""
    return b0 > 1.0


def check_energy_condition(b0: float, tau_n: float) -> bool:
    """Step restriction under which the discrete energy cannot exceed E(u^0)."""
    return b0 >= 1.0 and tau_n <= 2.0 * GAMMA


def consistency_probe(grid: TimeGrid, v: Callable[[float], float],
                      v_prime: Callable[[float], float]) -> np.ndarray:
    """Truncation residuals of the discrete derivative on exact samples.

    Returns |eta_j| where eta_j = D3 v(t_j) - v'(t_j), for j = 1..N.  For
    cubic v the three-step levels reproduce v' exactly; for smoother v the
    residual decays with the cube of the step.
    """
    t = grid.levels
    samples = [float(v(tk)) for tk in t]
    weights = kernel_weights(grid)
    out = np.empty(grid.n_steps)
    for j in range(1, grid.n_steps + 1):
        known = samples[max(0, j - 3) : j + 1]
        out[j - 1] = abs(apply_D3(weights[j - 1], known) - float(v_prime(t[j])))
    return out

