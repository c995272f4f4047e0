"""Property tests: the matrix-free operators and the Krylov Newton correction.

Operators are drawn from both families at random resolution (Chebyshev
m in 2..14, Fourier m in 4..16, and up to 32 for the true-residual test)
and fields from a seeded generator.  The references are the dense
Kronecker-product oracles op.L, op.Gx and op.Gy, numpy.linalg.solve on
the dense Newton matrix, and the @ forms of the tensor products in
dense_oracles, which the np.dot products must equal bit for bit.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dense_oracles import laplacian_matmul, shifted_inverse_matmul  # noqa: E402
from vsbdf3.allen_cahn import _newton_correction  # noqa: E402
from vsbdf3.spectral import chebyshev_operator, fourier_operator  # noqa: E402

operators = st.one_of(
    st.integers(min_value=2, max_value=14).map(chebyshev_operator),
    st.integers(min_value=2, max_value=8).map(lambda h: fourier_operator(2 * h)),
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _field(seed, n):
    return np.random.Generator(np.random.PCG64(seed)).standard_normal(n)


@settings(max_examples=60, deadline=None)
@given(operators, seeds)
def test_tensor_laplacian_and_gradient_match_dense_oracles(op, seed):
    v = _field(seed, op.n_unknowns)
    # rounding scales with the largest absolute row sum times the field
    scale = np.abs(op.L).sum(1).max() * np.abs(v).max()
    np.testing.assert_allclose(op.laplacian(v), op.L @ v, rtol=0, atol=1e-13 * scale)
    # the dense gradient oracles act on U[y, x] as U d1^T and d1 U
    U = v.reshape(op.d1.shape)
    scale = np.abs(op.d1).sum(1).max() * np.abs(v).max()
    np.testing.assert_allclose(op.Gx @ v, (U @ op.d1.T).ravel(), rtol=0, atol=1e-13 * scale)
    np.testing.assert_allclose(op.Gy @ v, (op.d1 @ U).ravel(), rtol=0, atol=1e-13 * scale)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(min_value=3, max_value=24).map(chebyshev_operator),
                 st.integers(min_value=2, max_value=16).map(lambda h: fourier_operator(2 * h))),
       seeds, st.floats(min_value=1e-3, max_value=1e7), st.floats(min_value=1e-3, max_value=1.0))
def test_np_dot_products_equal_the_matmul_forms_bit_for_bit(op, seed, sigma, eps2):
    # every product of the Laplacian and of the solve; the Chebyshev
    # eigenvectors are a contiguous copy of eig's real part, since on the
    # strided view np.dot(X, V.T) rounds otherwise than X @ V.T
    r = _field(seed, op.n_unknowns)
    assert np.array_equal(op.laplacian(r), laplacian_matmul(op, r))
    assert np.array_equal(op.shifted_inverse(sigma, eps2)(r),
                          shifted_inverse_matmul(op, sigma, eps2, r))


@settings(max_examples=60, deadline=None)
@given(operators, seeds, st.floats(min_value=1e-3, max_value=1e7),
       st.floats(min_value=1e-3, max_value=1.0))
def test_fast_diagonalisation_inverts_the_shifted_laplacian(op, seed, sigma, eps2):
    r = _field(seed, op.n_unknowns)
    dense = np.linalg.solve(sigma * np.eye(op.n_unknowns) - eps2 * op.L, r)
    x = op.shifted_inverse(sigma, eps2)(r)
    np.testing.assert_allclose(x, dense, rtol=0, atol=1e-10 * np.abs(dense).max())


@settings(max_examples=60, deadline=None)
@given(operators, seeds, st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=1e-3, max_value=1.0),
       st.floats(min_value=-3.0, max_value=7.0))
def test_newton_correction_matches_the_dense_solve(op, seed, amplitude, eps2, log_shift):
    # b0 in [1 + 1e-3, 1 + 1e7]; u has |u| <= amplitude <= 2 at every node
    rng = np.random.Generator(np.random.PCG64(seed))
    n = op.n_unknowns
    u = amplitude * rng.uniform(-1.0, 1.0, n)
    res = rng.standard_normal(n)
    shift = 10.0**log_shift
    jac = shift * np.eye(n) - eps2 * op.L + np.diag(3.0 * u * u)
    dense = np.linalg.solve(jac, -res)
    tol = 1e-13 * np.abs(res).max()
    du, iterations = _newton_correction(op, eps2, shift, u, res, np.sqrt(res @ res), tol, level=1)
    assert iterations >= 1
    np.testing.assert_allclose(du, dense, rtol=0, atol=1e-9 * np.abs(dense).max())


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(min_value=4, max_value=32).map(chebyshev_operator),
                 st.integers(min_value=2, max_value=16).map(lambda h: fourier_operator(2 * h))),
       seeds, st.floats(min_value=0.0, max_value=2.0), st.floats(min_value=1e-3, max_value=1.0),
       st.floats(min_value=-3.0, max_value=4.0))
def test_newton_correction_true_residual_stays_near_its_tolerance(op, seed, amplitude, eps2,
                                                                  log_shift):
    # GMRES stops on the residual of its own recurrence, which leaves out the
    # rounding of the P^-1 solves.  The true residual must stay below 10*tol,
    # or below 10 times the rounding floor eps*|J|*|du| where that is larger:
    # near shift 1e-3 with eps2 near 1 the floor exceeds 10*tol, and a dense
    # LU solve of J also ends above 5*tol there
    rng = np.random.Generator(np.random.PCG64(seed))
    n = op.n_unknowns
    (kx, ky), (px, py) = rng.integers(0, 4, 2), rng.uniform(0.0, 2.0 * np.pi, 2)
    X, Y = op.mesh
    u = amplitude * np.cos(kx * X + px) * np.cos(ky * Y + py)
    res = rng.standard_normal(n)
    shift = 10.0**log_shift
    c3 = 3.0 * u * u
    jac = shift * np.eye(n) - eps2 * op.L + np.diag(c3)
    tol = 1e-13 * np.abs(res).max()
    du, _ = _newton_correction(op, eps2, shift, u, res, np.sqrt(res @ res), tol, level=1)
    # |L|_2 <= 2*|d2|_2 for the Kronecker sum L = I (x) d2 + d2 (x) I
    jac_norm = shift + c3.max() + 2.0 * eps2 * np.linalg.norm(op.d2, 2)
    floor = np.finfo(float).eps * jac_norm * np.linalg.norm(du)
    assert np.linalg.norm(jac @ du + res) <= 10.0 * max(tol, floor)
