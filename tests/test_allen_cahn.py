import copy
import gc
import hashlib
import itertools
import math
import pickle
import re
import warnings
import weakref
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from conftest import make_rng
from vsbdf3 import allen_cahn
from vsbdf3.allen_cahn import (
    NEWTON_TOL,
    NewtonDivergenceError,
    SolverConfig,
    StepDiagnostics,
    check_energy_condition,
    check_solvability,
    consistency_probe,
    default_energy_initial_data,
    exact_solution,
    exact_time_derivative,
    forcing,
    levels,
    run,
    step,
)
from vsbdf3.bdf_kernels import apply_D3, assemble_B, bdf3_weights, kernel_weights
from vsbdf3.cli import run_convergence
from vsbdf3.spectral import (
    SpectralOperator,
    chebyshev_operator,
    energy,
    fourier_operator,
    l2_norm,
)
from vsbdf3.time_grid import build_from_steps, build_random, build_uniform, random_bounded_grid


def test_exact_solution_and_forcing_values():
    assert exact_solution(0.0, 0.0, 0.0) == 1.0
    assert exact_solution(1.0, 0.5, 2.0) == 0.0
    assert forcing(0.0, 0.0, 0.0, 0.16) == pytest.approx(0.64)
    assert exact_time_derivative(0.0, 0.0, 1.0) == pytest.approx(4.0)


def test_forcing_consistent_with_the_pde():
    # g = u_t - eps2*lap(u) + u^3 - u for u = (t^4+1)(1-x^2)(1-y^2)
    rng = make_rng(0)
    for _ in range(50):
        x, y = rng.uniform(-1.0, 1.0, size=2)
        t = rng.uniform(0.0, 2.0)
        eps2 = rng.uniform(0.05, 0.5)
        u = exact_solution(x, y, t)
        ut = exact_time_derivative(x, y, t)
        lap = -2.0 * (t**4 + 1) * ((1 - x**2) + (1 - y**2))
        want = ut - eps2 * lap + u**3 - u
        assert forcing(x, y, t, eps2) == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_config_validation():
    grid = build_uniform(4, 1.0)
    op = chebyshev_operator(6)
    with pytest.raises(ValueError):
        SolverConfig(grid, op, eps2=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(grid, op, eps2=0.16, forcing="unknown")


def test_steady_states_need_no_newton_iterations():
    grid = random_bounded_grid(12, 0.01, seed=1)
    op = fourier_operator(8)
    for sign in (1.0, -1.0):
        cfg = SolverConfig(grid, op, eps2=0.16, forcing="none",
                           initial_data=lambda x, y, s=sign: s * np.ones_like(x))
        res = run(cfg)
        for d in res.diagnostics:
            assert d.newton_iterations == 0
        np.testing.assert_array_equal(res.final_state, cfg.initial_state)


@pytest.mark.parametrize("value", [1e307, 1e200])
def test_non_finite_residual_raises(value):
    # 1e307 overflows b0*u, so the residual is inf - inf = NaN before the
    # first solve; 1e200 overflows u^3 to an infinite one.  Neither may pass
    # as converged.
    cfg = SolverConfig(build_uniform(3, 0.03), fourier_operator(8), 0.16, forcing="none",
                       initial_data=lambda x, y: np.full_like(x, value))
    with np.errstate(all="ignore"), pytest.raises(NewtonDivergenceError) as info:
        run(cfg)
    assert info.value.level == 1
    assert not math.isfinite(info.value.residual)


def test_residual_whose_two_norm_overflows_is_a_divergence():
    # at eps2 = 1e200 the first residual, about 1e199, is finite but its sum
    # of squares is not: Newton diverges at level 1, with no RuntimeWarning
    # (the suite makes those errors)
    cfg = SolverConfig(build_uniform(3, 0.03), fourier_operator(4), 1e200, forcing="none")
    with pytest.raises(NewtonDivergenceError) as info:
        run(cfg)
    assert info.value.level == 1
    assert math.isfinite(info.value.residual)


def test_overflowed_forcing_is_a_divergence_not_convergence():
    # at t = 1e26 the manufactured forcing overflows, so the rhs, the
    # rounding floor 4*eps*|rhs| and the residual are all infinite; an
    # infinite tolerance must not pass an infinite residual as converged.
    # Numpy's overflow warnings are off here, as they are by default outside
    # this suite, so the solver itself has to refuse the level.
    cfg = SolverConfig(build_uniform(1, 1e26), chebyshev_operator(4), 0.16)
    with np.errstate(all="ignore"), pytest.raises(NewtonDivergenceError) as info:
        run(cfg)
    assert (info.value.level, info.value.residual) == (1, math.inf)
    assert str(info.value) == "Newton did not converge at level 1: residual inf after 0 iterations"


def test_solver_errors_survive_pickling():
    # a worker process hands its error back pickled; the copy must say the same
    exc = NewtonDivergenceError(3, 1e5, 50)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc) and back.args == exc.args


@pytest.mark.parametrize("op, forcing_mode", [(chebyshev_operator(6), "manufactured"),
                                               (fourier_operator(4), "none")],
                         ids=["manufactured", "unforced"])
def test_run_results_survive_pickling(op, forcing_mode):
    # a worker process would hand its result back pickled; the copy must hold
    # the same bits, its final field stays read-only and the slotted
    # diagnostics stay frozen
    res = run(SolverConfig(build_uniform(6, 0.3), op, 0.36, forcing=forcing_mode))
    back = pickle.loads(pickle.dumps(res))
    assert back.diagnostics == res.diagnostics
    assert all(type(d) is StepDiagnostics for d in back.diagnostics)
    assert np.array_equal(back.final_state, res.final_state)
    assert not back.final_state.flags.writeable
    assert not copy.deepcopy(res).final_state.flags.writeable
    if res.energies is None:
        assert back.energies is None
    else:
        assert np.array_equal(back.energies, res.energies)
        assert not res.energies.flags.writeable and not back.energies.flags.writeable
        assert not copy.deepcopy(res).energies.flags.writeable
    diag = back.diagnostics[-1]
    assert not hasattr(diag, "__dict__")
    with pytest.raises(FrozenInstanceError):
        diag.b0 = 2.0


def _arrays(obj) -> list:
    """Every array reachable from obj through instance attributes and tuples."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, tuple):
        return [a for item in obj for a in _arrays(item)]
    return [a for item in getattr(obj, "__dict__", {}).values() for a in _arrays(item)]


@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_copies_keep_every_array_read_only(clone):
    # numpy does not pickle the writeable flag; a worker process handed an
    # operator, a grid or a configuration must get the same read-only arrays,
    # the cached ones included
    cheb, four, grid = chebyshev_operator(6), fourier_operator(4), build_uniform(4, 0.04)
    for op in (cheb, four):
        op.mesh, op.L
    grid.levels
    config = SolverConfig(grid, four, 0.16, forcing="none")
    config.kernel_weights, config.initial_state
    # an operator's 7 arrays, mesh's 2 and L; the grid's levels; a config's
    # operator and grid and its own 2
    for obj, count in ((cheb, 10), (four, 10), (grid, 1), (config, 13)):
        arrays, back = _arrays(obj), _arrays(clone(obj))
        assert len(back) == len(arrays) == count
        assert all(np.array_equal(b, a) for b, a in zip(back, arrays))
        assert not any(b.flags.writeable for b in back)
    r = make_rng(3).standard_normal(cheb.n_unknowns)
    assert np.array_equal(clone(cheb).shifted_inverse(1.5, 0.16)(r),
                          cheb.shifted_inverse(1.5, 0.16)(r))


def test_records_holding_arrays_compare_and_hash_by_identity():
    # a generated == would compare the arrays and raise, and hash would hash them
    op = fourier_operator(4)
    config = SolverConfig(build_uniform(4, 0.04), op, 0.16, forcing="none")
    assert len({op, config, op}) == 2
    assert op == op and op != fourier_operator(4)
    assert config == config and config != replace(config)
    assert run(config) != run(config)
    assert assemble_B(config.grid) != assemble_B(config.grid)


def test_only_unforced_runs_evaluate_the_energy(monkeypatch):
    # E(u^0) and one E(u^n) a level on unforced runs; manufactured runs
    # evaluate none
    calls = []

    def counted(*args):
        calls.append(args)
        return energy(*args)

    monkeypatch.setattr(allen_cahn, "energy", counted)
    res = run(SolverConfig(build_uniform(6, 0.3), chebyshev_operator(6), eps2=0.36))
    assert res.energies is None and calls == []
    res = run(SolverConfig(build_uniform(6, 0.06), fourier_operator(8), 0.16, forcing="none"))
    assert len(calls) == 7
    assert res.energies.tolist() == [energy(*args) for args in calls]


@pytest.mark.parametrize("op, forcing_mode", [(chebyshev_operator(6), "manufactured"),
                                               (fourier_operator(8), "none")],
                         ids=["manufactured", "unforced"])
def test_stateful_initial_data_is_evaluated_once(op, forcing_mode):
    # a random draw gives a new field on each call: E(u^0) must be the
    # energy of the field that is integrated, and a second run on the same
    # configuration must start from it again
    rng, calls = np.random.default_rng(0), []

    def data(x, y):
        calls.append(1)
        return rng.uniform(-1.0, 1.0, x.shape)

    cfg = SolverConfig(build_uniform(4, 0.04), op, 0.16, forcing=forcing_mode,
                       initial_data=data)
    res = run(cfg)
    assert len(calls) == 1
    if res.energies is not None:
        assert res.energies[0] == energy(op, cfg.initial_state, cfg.eps2)
    again = run(cfg)
    assert len(calls) == 1
    assert np.array_equal(again.final_state, res.final_state)


def test_run_leaves_the_callers_initial_array_writeable():
    op = fourier_operator(8)
    u0 = np.full_like(op.mesh[0], 0.5)
    cfg = SolverConfig(build_uniform(3, 0.03), op, 0.16, forcing="none",
                       initial_data=lambda x, y: u0)
    run(cfg)
    assert u0.flags.writeable and not cfg.initial_state.flags.writeable
    u0[...] = 2.0
    assert (cfg.initial_state == 0.5).all()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_initial_data_is_rejected(value):
    def data(x, y):
        u = np.zeros_like(x)
        u.flat[5] = value
        return u
    cfg = SolverConfig(build_uniform(3, 0.03), fourier_operator(8), 0.16, forcing="none",
                       initial_data=data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(
                f"initial data must be finite, got {value!r} at index 5")):
            run(cfg)


def test_initial_data_of_the_wrong_shape_is_rejected():
    cfg = SolverConfig(build_uniform(3, 0.03), chebyshev_operator(4), 0.16,
                       initial_data=lambda x, y: np.zeros(3))
    with pytest.raises(ValueError, match="^initial data does not match the operator unknowns"):
        run(cfg)


def test_overflowing_leading_weight_is_rejected_before_arithmetic():
    cfg = SolverConfig(build_from_steps([1e-320] * 3), fourier_operator(8), 0.16,
                       forcing="none")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="level 1: .* non-finite kernel weights"):
            run(cfg)


def test_run_takes_the_kernel_weights_once_per_grid(monkeypatch):
    calls = []

    def counted(grid):
        calls.append(grid)
        return kernel_weights(grid)

    monkeypatch.setattr(allen_cahn, "kernel_weights", counted)
    grid = build_uniform(6, 0.3)
    res = run(SolverConfig(grid, chebyshev_operator(6), eps2=0.36))
    assert len(res.diagnostics) == 6
    assert calls == [grid]


def test_step_rejects_a_level_outside_the_grid():
    cfg = SolverConfig(build_uniform(2, 0.1), chebyshev_operator(6), eps2=0.16)
    with pytest.raises(ValueError, match=r"level 0 outside 1\.\.2"):
        step(cfg, [], 0)
    with pytest.raises(ValueError, match=r"level 3 outside 1\.\.2"):
        step(cfg, [cfg.initial_state] * 3, 3)


def test_step_rejects_a_history_of_the_wrong_length():
    cfg = SolverConfig(build_uniform(6, 0.3), chebyshev_operator(6), eps2=0.16)
    u0 = cfg.initial_state
    with pytest.raises(ValueError, match="history must hold the last 3 levels, got 2"):
        step(cfg, [u0] * 2, 5)
    with pytest.raises(ValueError, match="history must hold the last 1 levels, got 2"):
        step(cfg, [u0] * 2, 1)


def test_run_keeps_only_the_final_field(monkeypatch):
    # every field step returns is read-only, and none but the last outlives run
    fields = []

    def recorded(config, history, n):
        u, diag = step(config, history, n)
        assert type(u) is np.ndarray and not u.flags.writeable
        fields.append(weakref.ref(u))
        return u, diag

    monkeypatch.setattr(allen_cahn, "step", recorded)
    res = run(SolverConfig(build_uniform(8, 0.4), chebyshev_operator(6), eps2=0.16))
    gc.collect()
    assert len(fields) == 8
    assert [ref() is not None for ref in fields] == [False] * 7 + [True]
    assert fields[-1]() is res.final_state


def test_a_consumer_that_stops_early_holds_only_the_window(monkeypatch):
    # after 5 of 8 levels the suspended generator keeps levels 3..5, the ones
    # step reads next, and the fields of levels 1 and 2 are gone
    fields = []

    def recorded(config, history, n):
        u, diag = step(config, history, n)
        fields.append(weakref.ref(u))
        return u, diag

    monkeypatch.setattr(allen_cahn, "step", recorded)
    it = levels(SolverConfig(build_uniform(8, 0.4), chebyshev_operator(6), eps2=0.16))
    assert sum(1 for _ in itertools.islice(it, 5)) == 5
    gc.collect()
    assert [ref() is not None for ref in fields] == [False, False, True, True, True]
    it.close()
    gc.collect()
    assert [ref() for ref in fields] == [None] * 5


def _large_step_config(op, eps2):
    # tau = 1.8 puts b0 - 1 below zero at levels 1-2 and near zero at 3-4,
    # so the Newton matrix is indefinite or close to singular there
    return SolverConfig(build_uniform(4, 7.2), op, eps2, forcing="none",
                        initial_data=lambda x, y: 1.5 * np.sin(3 * x) * np.cos(2 * y))


@pytest.mark.parametrize("kind, m, eps2, counts", [
    ("fourier", 16, 0.01, [6, 4, 3, 3]),
    ("fourier", 16, 0.16, [5, 4, 3, 2]),
    ("chebyshev", 12, 0.01, [7, 5, 4, 3]),
    ("chebyshev", 12, 0.16, [5, 4, 3, 2]),
])
def test_large_steps_keep_the_dense_newton_counts(kind, m, eps2, counts):
    # counts pinned from a dense LU Newton solve of the same problems
    op = {"fourier": fourier_operator, "chebyshev": chebyshev_operator}[kind](m)
    res = run(_large_step_config(op, eps2))
    assert [d.newton_iterations for d in res.diagnostics] == counts
    for d in res.diagnostics:
        assert d.final_residual <= 1e-10
        assert len(d.inner_iterations) == d.newton_iterations
        assert all(k >= 1 for k in d.inner_iterations)


# GMRES iterations of each Newton correction, per level, on the conv-random
# benchmark grid of CLI seed 3 at N = 80 (build_random(80, 1.0, 83), M = 20)
_SEED3_N80_EPS2_016 = [
    (4,), (3,), (5,), (5,), (5,), (5,), (6, 3), (5, 3),
    (5, 3), (6, 3), (6, 3), (6, 3), (6, 4), (6, 3), (6, 4), (6, 3),
    (6, 4), (7, 4), (6, 4), (7, 5), (7, 5), (6, 3), (6, 4), (5, 2),
    (6, 3), (6, 4), (6, 4), (7, 5), (7, 4), (6, 4), (6, 4), (7, 5),
    (7, 5), (6, 4), (7, 5), (5, 3), (5, 3), (7, 5), (4, 2), (6, 4),
    (7, 5), (7, 6, 2), (7, 5), (7, 5), (7, 5), (6, 5), (6, 4), (6, 4),
    (7, 6, 2), (6, 4), (6, 5), (7, 5), (7, 5, 2), (7, 6, 3), (7, 5, 2), (7, 6, 2),
    (8, 6, 3), (7, 5, 2), (8, 7, 3), (8, 7, 3), (6, 5), (8, 6, 3), (7, 5), (8, 6, 3),
    (5, 4), (7, 6, 2), (8, 7, 4), (9, 8, 4), (7, 5), (8, 7, 4), (8, 6, 3), (7, 5),
    (7, 6, 2), (8, 7, 4), (7, 6, 2), (7, 6, 2), (3,), (6, 5), (7, 6, 3), (9, 8, 4),
]

_SEED3_N80_EPS2_036 = [
    (4,), (3,), (5,), (5,), (5,), (5,), (6, 3), (5, 3),
    (5, 3), (6, 3), (6, 3), (6, 3), (6, 4), (6, 3), (6, 4), (6, 3),
    (6, 4), (6, 4), (6, 4), (7, 5), (7, 5), (5, 3), (6, 4), (4, 2),
    (6, 3), (6, 4), (6, 4), (6, 5), (6, 4), (6, 4), (6, 4), (7, 5),
    (7, 5), (6, 4), (7, 5), (5, 3), (5, 3), (6, 5), (4, 2), (6, 4),
    (7, 5), (7, 6, 2), (7, 5), (7, 5), (7, 5), (6, 5), (6, 4), (6, 4),
    (7, 6, 2), (6, 4), (6, 5), (7, 5), (7, 5, 2), (7, 6, 2), (7, 5, 2), (7, 6, 2),
    (7, 6, 3), (7, 5, 2), (8, 6, 3), (8, 6, 3), (6, 5), (7, 6, 3), (7, 5), (7, 6, 3),
    (5, 4), (7, 6, 2), (8, 7, 4), (8, 7, 4), (7, 5), (8, 7, 4), (8, 6, 3), (7, 5),
    (7, 6, 2), (8, 7, 4), (7, 6, 2), (7, 6, 2), (3, 1), (6, 5), (7, 6, 3), (8, 7, 4),
]


@pytest.mark.parametrize("eps2, counts", [(0.16, _SEED3_N80_EPS2_016),
                                          (0.36, _SEED3_N80_EPS2_036)])
def test_random_grid_keeps_its_per_level_solver_counts(eps2, counts):
    # level 77 sits at the rounding floor: (3,) at eps2 = 0.16, (3, 1) at 0.36
    res = run(SolverConfig(build_random(80, 1.0, 83), chebyshev_operator(20), eps2))
    assert [d.inner_iterations for d in res.diagnostics] == counts
    assert [d.newton_iterations for d in res.diagnostics] == [len(c) for c in counts]


@pytest.mark.parametrize("eps2, sha256", [
    (0.16, "30ad4a43a44b69a20d7ae6b3dc53ab097a6544a2c8a03cbba4e89240a58ed6bc"),
    (0.36, "7f38b23b3adea7ccc726dcb17b96bdd05d0e778db8b5f779848e7cd8eb34f782"),
])
def test_random_grid_final_field_bytes_are_pinned(eps2, sha256):
    # the Chebyshev solver bit for bit, through every np.dot product of the
    # fast-diagonalisation solve on eig's eigenvectors, stored contiguous
    res = run(SolverConfig(build_random(80, 1.0, 83), chebyshev_operator(20), eps2))
    assert hashlib.sha256(res.final_state.tobytes()).hexdigest() == sha256


# GMRES iterations of each Newton correction, per level, on the energy-periodic
# benchmark run (vsbdf3 energy --eps2 0.16 --tau 0.01 --steps 200 --seed 1)
_ENERGY_SEED1 = [(3, 2)] * 120 + [(4, 2)] * 6 + [(3, 2)] * 2 + [(4, 2)] * 72


@pytest.fixture(scope="module")
def energy_seed1():
    # the configuration, and every level's field and diagnostics as levels yields them
    cfg = SolverConfig(random_bounded_grid(200, 0.01, 1), fourier_operator(32), 0.16,
                       forcing="none")
    fields, diagnostics = zip(*levels(cfg))
    return cfg, [cfg.initial_state, *fields], list(diagnostics)


def test_run_equals_stepping_by_hand(energy_seed1):
    # the oracle calls step directly; levels and run must equal it bit for bit
    cfg, states, diagnostics = energy_seed1
    hand, hand_diagnostics = [cfg.initial_state], []
    for n in range(1, cfg.grid.n_steps + 1):
        u, diag = step(cfg, hand[max(0, n - 3) :], n)
        hand.append(u)
        hand_diagnostics.append(diag)
    hand_energies = [energy(cfg.operator, u, cfg.eps2) for u in hand]
    assert all(np.array_equal(a, b) for a, b in zip(states, hand, strict=True))
    assert diagnostics == hand_diagnostics
    res = run(cfg)
    assert np.array_equal(res.final_state, hand[-1])
    assert res.diagnostics == tuple(hand_diagnostics)
    assert res.energies.tolist() == hand_energies


def test_energy_run_keeps_its_per_level_solver_counts(energy_seed1):
    _, _, diagnostics = energy_seed1
    assert [d.inner_iterations for d in diagnostics] == _ENERGY_SEED1
    assert [d.newton_iterations for d in diagnostics] == [2] * 200


def test_energy_run_final_field_bytes_are_pinned(energy_seed1):
    _, states, _ = energy_seed1
    digest = hashlib.sha256(states[-1].tobytes()).hexdigest()
    assert digest == "98f2f5a722409f80f4ef914317ea44410a76fca7e78ea6db7982d81000588b83"


def test_energy_run_solves_the_equation_written_with_a_power(energy_seed1):
    # each level restated from public pieces, D3 u^n - eps2*L*u^n + (u^n)**3
    # - u^n = 0, against the solver's residual, which cubes by products; the
    # sin*sin seed has exact zeros
    cfg, u, _ = energy_seed1
    grid = cfg.grid
    op, eps, weights = fourier_operator(32), np.finfo(float).eps, kernel_weights(grid)
    assert np.any(u[0] == 0.0)
    for n in range(1, grid.n_steps + 1):
        w, known = weights[n - 1], u[max(0, n - 3) : n]
        rhs_max = float(np.max(np.abs(w[0] * u[n - 1] - apply_D3(w, known + [u[n - 1]]))))
        oracle = apply_D3(w, known + [u[n]]) - 0.16 * op.laplacian(u[n]) + u[n] ** 3 - u[n]
        # the level's tolerance, plus the rounding of b0*u against the direct differences
        tol = max(NEWTON_TOL, 4.0 * eps * rhs_max)
        assert float(np.max(np.abs(oracle))) <= tol + 8.0 * eps * rhs_max, n


def test_rough_fields_converge_within_one_gmres_cycle():
    # random per-node u near b0 = 1 leaves the midpoint preconditioner weak;
    # restarted GMRES took 150-350 iterations on these, one cycle at most n
    op = fourier_operator(8)
    n, tol = op.n_unknowns, 1e-13
    for seed in range(6):
        rng = make_rng(seed)
        u = rng.uniform(-2.0, 2.0, n)
        eps2, shift = rng.uniform(1e-3, 5e-3), rng.uniform(1e-3, 2e-2)
        res = rng.standard_normal(n)
        du, its = allen_cahn._newton_correction(op, eps2, shift, u, res, np.sqrt(res @ res), tol)
        jacobian = shift * np.eye(n) - eps2 * op.L + np.diag(3.0 * u * u)
        assert its <= n
        assert np.linalg.norm(jacobian @ du + res) <= 10.0 * tol


def test_non_converging_inner_solve_raises(monkeypatch):
    # the first correction needs more GMRES iterations than this cap allows:
    # Newton ends at level 1 before completing a correction
    monkeypatch.setattr(allen_cahn, "_INNER_MAX_ITER", 4)
    with pytest.raises(NewtonDivergenceError) as info:
        run(_large_step_config(chebyshev_operator(12), 0.01))
    assert info.value.level == 1 and str(info.value).endswith(" after 0 iterations")


def test_inner_solve_breakdown_raises(monkeypatch):
    # a preconditioner solve that returns NaN breaks the GMRES cycle down in
    # its first iteration: Newton ends at level 1 before any correction
    monkeypatch.setattr(SpectralOperator, "shifted_inverse",
                        lambda self, sigma, eps2: lambda r: np.full_like(r, np.nan))
    with pytest.raises(NewtonDivergenceError) as info:
        run(SolverConfig(build_uniform(2, 0.1), chebyshev_operator(4), 0.16))
    assert info.value.level == 1 and str(info.value).endswith(" after 0 iterations")


def test_tiny_step_converges_at_the_rounding_floor():
    # b0 = 1/tau ~ 3e6 at level 4 puts the rounding noise of b0*u above
    # 1e-10; the absolute test alone made Newton fail there
    steps = [0.05] * 3 + [3e-7] + [0.05] * 3
    grid, op = build_from_steps(steps), chebyshev_operator(8)
    res = run(SolverConfig(grid, op, eps2=0.16))
    assert [d.newton_iterations for d in res.diagnostics] == [2, 2, 2, 1, 2, 2, 2]
    assert res.diagnostics[3].final_residual <= 4.0 * np.finfo(float).eps * 4e6
    assert l2_norm(op, res.final_state - exact_solution(*op.mesh, grid.horizon)) < 2e-4


def test_newton_meets_tolerance_every_level():
    grid = build_uniform(10, 0.5)
    op = chebyshev_operator(8)
    cfg = SolverConfig(grid, op, eps2=0.16)
    res = run(cfg)
    for d in res.diagnostics:
        assert d.final_residual <= 1e-10
        assert d.newton_iterations <= 8
    assert l2_norm(op, res.final_state - exact_solution(*op.mesh, grid.horizon)) < 1e-2


def test_manufactured_error_shrinks_with_refinement():
    op = chebyshev_operator(8)
    errs = []
    for n in (5, 10, 20):
        grid = build_uniform(n, 1.0)
        res = run(SolverConfig(grid, op, eps2=0.16))
        errs.append(l2_norm(op, res.final_state - exact_solution(*op.mesh, grid.horizon)))
    assert errs[2] < errs[1] < errs[0]
    assert errs[1] / errs[2] > 4.0  # at least visible high-order decay


def test_energy_mode_monotone_on_bounded_grid():
    grid = random_bounded_grid(30, 0.01, seed=3)
    op = fourier_operator(16)
    cfg = SolverConfig(grid, op, eps2=0.16, forcing="none",
                       initial_data=default_energy_initial_data)
    res = run(cfg)
    e0 = res.energies[0]
    assert max(res.energies) <= e0 + 1e-10
    # the diagnostics record the weight and step the level solved with
    weights = kernel_weights(grid)
    for n, d in enumerate(res.diagnostics, 1):
        assert d.b0 == weights[n - 1, 0]
        assert d.tau == grid.steps[n - 1]
        assert check_energy_condition(d.b0, d.tau)
        assert check_solvability(d.b0)


def test_solvability_bound_and_checks():
    # at unit ratios b0 = (11/6)/tau, so the level is solvable below tau = 11/6
    assert bdf3_weights(1.0, 1.0)[0] / 1.0 == pytest.approx(11 / 6)
    assert check_solvability(bdf3_weights(1.0, 1.0)[0] / 1.0)
    assert not check_solvability(bdf3_weights(1.0, 1.0)[0] / 2.0)
    # strict at b0 = 1, where the energy condition still holds
    assert not check_solvability(1.0)
    assert check_energy_condition(1.0, 0.01)
    assert not check_energy_condition(np.nextafter(1.0, 0.0), 0.01)


def test_energy_condition_caps_the_step():
    def holds(tau, r):
        return check_energy_condition(bdf3_weights(r, r)[0] / tau, tau)

    assert holds(0.01, 1.0)
    assert not holds(0.0101, 1.0)
    assert holds(0.005, 1.405)


def test_consistency_probe_linear_and_cubic():
    g = build_uniform(12, 1.0)
    eta_lin = consistency_probe(g, lambda t: 2 * t + 1, lambda t: 2.0)
    assert np.all(eta_lin >= 0.0)  # magnitudes
    assert eta_lin[0] <= 1e-13
    eta_cub = consistency_probe(g, lambda t: t**3, lambda t: 3 * t**2)
    assert np.max(eta_cub[2:]) <= 1e-12


def test_consistency_probe_startup_levels_are_lower_order():
    g = build_uniform(12, 1.0)
    eta = consistency_probe(g, lambda t: t**3, lambda t: 3 * t**2)
    # BDF1 and BDF2 startup cannot reproduce a cubic exactly
    assert eta[0] > 1e-6
    assert eta[1] > 1e-8


def stability_perturbation(x, y):
    """Fixed smooth perturbation direction used by stability_probe."""
    return np.cos(np.asarray(x)) * np.cos(np.asarray(y))


def stability_probe(config: SolverConfig, delta: float) -> float:
    """Terminal-to-initial perturbation ratio for an initial-datum kick.

    Runs the configuration twice, the second time with delta times the
    fixed perturbation added to the initial datum, and returns
    ||u_a^N - u_b^N|| / ||delta * perturbation||.  delta = 0 returns 1.
    """
    if delta == 0.0:
        return 1.0
    op = config.operator
    base_values = config.initial_state

    def perturbed(x, y):
        return base_values + delta * stability_perturbation(x, y)

    run_a = run(config)
    run_b = run(replace(config, initial_data=perturbed))
    num = l2_norm(op, run_a.final_state - run_b.final_state)
    den = l2_norm(op, delta * stability_perturbation(*op.mesh))
    return num / den


def test_stability_probe_conventions():
    grid = random_bounded_grid(15, 0.01, seed=5)
    op = fourier_operator(8)
    cfg = SolverConfig(grid, op, eps2=0.16, forcing="none",
                       initial_data=default_energy_initial_data)
    assert stability_probe(cfg, 0.0) == 1.0
    r1 = stability_probe(cfg, 1e-6)
    assert 0.0 < r1 <= 100.0
    r2 = stability_probe(cfg, 5e-7)
    assert r1 == pytest.approx(r2, rel=0.05)  # linear response regime


def test_run_reports_per_level_diagnostics():
    grid = build_uniform(6, 0.3)
    op = chebyshev_operator(6)
    res = run(SolverConfig(grid, op, eps2=0.36))
    assert len(res.diagnostics) == 6
    assert res.energies is None
    assert grid.levels[-1] == pytest.approx(0.3)
    # the convergence study's error is the L2 norm of final_state against the exact field at T
    (report,) = run_convergence("uniform", [0.36], [6], 6)
    grid = build_uniform(6, 1.0)
    res = run(SolverConfig(grid, op, eps2=0.36))
    exact = exact_solution(*op.mesh, grid.horizon)
    assert report.rows[0].error == l2_norm(op, res.final_state - exact)
