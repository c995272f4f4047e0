"""Variable-step three-step BDF integration of the Allen-Cahn equation.

Subpackages: time grids, kernel weights and their matrix forms, step-ratio
positivity certification, spectral collocation operators, the implicit
solver, and a command-line study harness.
"""

from .allen_cahn import (
    NewtonDivergenceError,
    RunResult,
    SingularJacobianError,
    SolverConfig,
    StepDiagnostics,
    check_energy_condition,
    check_solvability,
    consistency_probe,
    exact_solution,
    forcing,
    levels,
    run,
    step,
)
from .bdf_kernels import (
    KernelMatrices,
    apply_D3,
    assemble_B,
    kernel_weights,
)
from .ratio_analysis import (
    SylvesterTrace,
    certify_positive_definite,
    generating_function,
    sweep_lemma_bounds,
    sylvester_trace_A_from_ratios,
    sylvester_trace_shifted,
)
from .spectral import (
    SpectralOperator,
    chebyshev_operator,
    energy,
    fourier_operator,
    l2_norm,
)
from .time_grid import (
    TimeGrid,
    build_alternating,
    build_from_ratios,
    build_from_steps,
    build_random,
    build_uniform,
    load_grid,
    random_bounded_grid,
    save_grid,
)

__version__ = "0.1.0"
