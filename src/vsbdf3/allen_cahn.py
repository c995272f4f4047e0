"""Fully implicit variable-step integration of the Allen-Cahn equation.

Each level solves

    b0*u - eps2*L*u + u^3 - u = b0*u_prev - b1*du_prev - b2*du_prev2 + g

by a full Newton iteration: the Jacobian b0*I - eps2*L + diag(3u^2 - 1) is
rebuilt and LU-factorized every iteration, the initial iterate is the
previous time level, and convergence is max-norm residual <= newton_tol.
The residual is checked before the first solve, so exact steady states cost
zero iterations; a non-finite residual is a divergence, never convergence.

Two forcing modes: "manufactured" adds the source that makes
u = (t^4+1)(1-x^2)(1-y^2) exact (for convergence studies on the Chebyshev
operator), "none" integrates the plain equation (energy studies on the
periodic operator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .bdf_kernels import bdf_coefficients, apply_D3
from .ratio_analysis import GAMMA
from .spectral import FieldState, SpectralOperator, energy, l2_norm
from .time_grid import TimeGrid

__all__ = [
    "SolverConfig",
    "StepDiagnostics",
    "RunResult",
    "NewtonDivergenceError",
    "SingularJacobianError",
    "exact_solution",
    "exact_time_derivative",
    "forcing",
    "default_energy_initial_data",
    "stability_perturbation",
    "initial_state",
    "step",
    "run",
    "solvability_bound",
    "check_solvability",
    "check_energy_condition",
    "consistency_probe",
    "stability_probe",
]


class NewtonDivergenceError(RuntimeError):
    """Newton failed to converge; carries the level and last residual."""

    def __init__(self, level: int, residual: float, iterations: int):
        self.level = level
        self.residual = residual
        super().__init__(
            f"Newton did not converge at level {level}: "
            f"residual {residual:.3e} after {iterations} iterations"
        )


class SingularJacobianError(RuntimeError):
    """The Newton linear system was singular to working precision."""

    def __init__(self, level: int):
        self.level = level
        super().__init__(f"singular Jacobian at level {level}")


@dataclass(frozen=True)
class SolverConfig:
    """Immutable description of one integration run."""

    grid: TimeGrid
    operator: SpectralOperator
    eps2: float
    forcing: str = "manufactured"
    initial_data: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    newton_tol: float = 1e-10
    newton_max_iter: int = 50

    def __post_init__(self):
        if self.forcing not in ("manufactured", "none"):
            raise ValueError(f"forcing must be 'manufactured' or 'none', got {self.forcing!r}")
        if not (self.eps2 > 0.0 and math.isfinite(self.eps2)):
            raise ValueError(f"eps2 must be positive and finite, got {self.eps2!r}")
        if not (self.newton_tol > 0.0 and math.isfinite(self.newton_tol)):
            raise ValueError(f"newton_tol must be positive, got {self.newton_tol!r}")
        if self.newton_max_iter < 1:
            raise ValueError(f"newton_max_iter must be >= 1, got {self.newton_max_iter}")


@dataclass(frozen=True)
class StepDiagnostics:
    level: int
    time: float
    newton_iterations: int
    final_residual: float
    solvability_ok: bool
    energy_condition_ok: bool
    energy_value: float


@dataclass(frozen=True)
class RunResult:
    """Trajectory, per-level diagnostics and traces of one run.

    errors holds the discrete L2 error against the exact solution per level
    (manufactured runs only, None otherwise); energies holds the discrete
    free energy at levels 0..N.
    """

    states: tuple[FieldState, ...]
    diagnostics: tuple[StepDiagnostics, ...]
    energies: np.ndarray
    errors: np.ndarray | None = None

    @property
    def final_error(self) -> float | None:
        return None if self.errors is None else float(self.errors[-1])


def exact_solution(x, y, t):
    """Manufactured solution (t^4 + 1)(1 - x^2)(1 - y^2) on [-1, 1]^2."""
    return (t**4 + 1.0) * (1.0 - np.asarray(x) ** 2) * (1.0 - np.asarray(y) ** 2)


def exact_time_derivative(x, y, t):
    return 4.0 * t**3 * (1.0 - np.asarray(x) ** 2) * (1.0 - np.asarray(y) ** 2)


def forcing(x, y, t, eps2):
    """Source making exact_solution solve u_t - eps2*Lap(u) + u^3 - u = g."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    px, py = 1.0 - x * x, 1.0 - y * y
    u = (t**4 + 1.0) * px * py
    ut = 4.0 * t**3 * px * py
    lap = -2.0 * (t**4 + 1.0) * (px + py)
    return ut - eps2 * lap + u**3 - u


def default_energy_initial_data(x, y):
    """Small smooth seed for unforced runs on the periodic square."""
    return 0.05 * np.sin(np.asarray(x)) * np.sin(np.asarray(y))


def stability_perturbation(x, y):
    """Fixed smooth perturbation direction used by stability_probe."""
    return np.cos(np.asarray(x)) * np.cos(np.asarray(y))


def initial_state(config: SolverConfig) -> FieldState:
    X, Y = config.operator.mesh
    if config.initial_data is not None:
        u0 = np.asarray(config.initial_data(X, Y), dtype=float)
    elif config.forcing == "manufactured":
        u0 = exact_solution(X, Y, 0.0)
    else:
        u0 = default_energy_initial_data(X, Y)
    if u0.shape != X.shape:
        raise ValueError("initial data does not match the operator unknowns")
    return FieldState(values=u0, time=0.0)


def step(config: SolverConfig, history, n: int) -> tuple[FieldState, StepDiagnostics]:
    """Advance to level n given FieldStates for levels 0..n-1."""
    if len(history) != n:
        raise ValueError(f"history must hold levels 0..{n - 1}, got {len(history)} states")
    grid, op = config.grid, config.operator
    c = bdf_coefficients(grid, n)
    t_n = float(grid.levels[n])
    u_prev = history[n - 1].values

    rhs = c.b0 * u_prev
    if n >= 2:
        rhs = rhs - c.b1 * (u_prev - history[n - 2].values)
    if n >= 3:
        rhs = rhs - c.b2 * (history[n - 2].values - history[n - 3].values)
    if config.forcing == "manufactured":
        X, Y = op.mesh
        rhs = rhs + forcing(X, Y, t_n, config.eps2)

    u = u_prev.copy()
    res = c.b0 * u - config.eps2 * (op.L @ u) + u**3 - u - rhs
    res_norm = float(np.max(np.abs(res)))
    iterations = 0
    eye = np.eye(op.n_unknowns)
    # written so that a NaN residual stays in the loop and raises
    while not res_norm <= config.newton_tol:
        if not math.isfinite(res_norm) or iterations >= config.newton_max_iter:
            raise NewtonDivergenceError(n, res_norm, iterations)
        jac = -config.eps2 * op.L + (c.b0 - 1.0) * eye
        jac[np.diag_indices_from(jac)] += 3.0 * u * u
        try:
            du = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(n) from exc
        u = u + du
        res = c.b0 * u - config.eps2 * (op.L @ u) + u**3 - u - rhs
        res_norm = float(np.max(np.abs(res)))
        iterations += 1

    tau_n = grid.step(n)
    diag = StepDiagnostics(
        level=n,
        time=t_n,
        newton_iterations=iterations,
        final_residual=res_norm,
        # b0 > 1 is the unique-solvability condition at every level; the
        # energy condition additionally caps the raw step at 2*gamma.
        solvability_ok=c.b0 > 1.0,
        energy_condition_ok=(c.b0 >= 1.0 and tau_n <= 2.0 * GAMMA),
        energy_value=energy(op, u, config.eps2),
    )
    return FieldState(values=u, time=t_n), diag


def run(config: SolverConfig) -> RunResult:
    """Integrate over the whole grid, collecting diagnostics and traces."""
    op = config.operator
    states = [initial_state(config)]
    energies = [energy(op, states[0], config.eps2)]
    diagnostics = []
    manufactured = config.forcing == "manufactured" and config.initial_data is None
    errors = [0.0] if manufactured else None
    if manufactured:
        X, Y = op.mesh
    for n in range(1, config.grid.n_steps + 1):
        state, diag = step(config, states, n)
        states.append(state)
        diagnostics.append(diag)
        energies.append(diag.energy_value)
        if manufactured:
            errors.append(l2_norm(op, state.values - exact_solution(X, Y, state.time)))
    return RunResult(
        states=tuple(states),
        diagnostics=tuple(diagnostics),
        energies=np.asarray(energies),
        errors=None if errors is None else np.asarray(errors),
    )


def solvability_bound(r_n: float, r_nm1: float) -> float:
    """Largest tau_n with a strictly convex level functional (three-step kernel)."""
    return (1.0 + 2.0 * r_n + r_nm1 * (1.0 + 4.0 * r_n + 3.0 * r_n**2)) / (
        (1.0 + r_n) * (1.0 + r_nm1 + r_n * r_nm1)
    )


def check_solvability(tau_n: float, r_n: float, r_nm1: float) -> bool:
    """tau_n below the convexity bound; equivalent to b0 > 1 at the level."""
    return tau_n < solvability_bound(r_n, r_nm1)


def check_energy_condition(tau_n: float, r_n: float, r_nm1: float) -> bool:
    """Step restriction under which the discrete energy cannot exceed E(u^0)."""
    return tau_n <= min(solvability_bound(r_n, r_nm1), 2.0 * GAMMA)


def consistency_probe(grid: TimeGrid, v: Callable[[float], float],
                      v_prime: Callable[[float], float]) -> np.ndarray:
    """Truncation residuals of the discrete derivative on exact samples.

    Returns |eta_j| where eta_j = D3 v(t_j) - v'(t_j), for j = 1..N.  For
    cubic v the three-step levels reproduce v' exactly; for smoother v the
    residual decays with the cube of the step.
    """
    t = grid.levels
    samples = [float(v(tk)) for tk in t]
    out = np.empty(grid.n_steps)
    for j in range(1, grid.n_steps + 1):
        out[j - 1] = abs(apply_D3(grid, samples[: j + 1]) - float(v_prime(t[j])))
    return out


def stability_probe(config: SolverConfig, delta: float) -> float:
    """Terminal-to-initial perturbation ratio for an initial-datum kick.

    Runs the configuration twice, the second time with delta times the
    fixed perturbation added to the initial datum, and returns
    ||u_a^N - u_b^N|| / ||delta * perturbation||.  delta = 0 returns 1.
    """
    if delta == 0.0:
        return 1.0
    op = config.operator
    base_state = initial_state(config)
    base_values = base_state.values

    def perturbed(x, y):
        return base_values + delta * stability_perturbation(x, y)

    run_a = run(config)
    run_b = run(replace(config, initial_data=perturbed))
    num = l2_norm(op, run_a.states[-1].values - run_b.states[-1].values)
    den = l2_norm(op, delta * stability_perturbation(*op.mesh))
    return num / den
