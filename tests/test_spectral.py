import math

import numpy as np
import pytest

from vsbdf3.spectral import (
    SpectralOperator,
    chebyshev_diff_matrix,
    chebyshev_nodes,
    chebyshev_operator,
    energy,
    fourier_operator,
    l2_norm,
    open_chebyshev_weights,
)


def test_chebyshev_nodes_small():
    np.testing.assert_allclose(chebyshev_nodes(2), [1.0, 0.0, -1.0], atol=1e-16)
    x = chebyshev_nodes(8)
    assert x[0] == 1.0 and x[-1] == -1.0
    assert np.all(np.diff(x) < 0)


def test_chebyshev_diff_matrix_m2_hand_values():
    x, d1 = chebyshev_diff_matrix(2)
    np.testing.assert_allclose(x, [1.0, 0.0, -1.0], atol=1e-16)
    want = np.array([[1.5, -2.0, 0.5], [0.5, 0.0, -0.5], [-0.5, 2.0, -1.5]])
    np.testing.assert_allclose(d1, want, atol=1e-14)


def test_chebyshev_diff_matrix_corner_entries():
    m = 14
    _, d1 = chebyshev_diff_matrix(m)
    corner = (2 * m * m + 1) / 6
    assert d1[0, 0] == pytest.approx(corner, rel=1e-13)
    assert d1[m, m] == pytest.approx(-corner, rel=1e-13)


def test_chebyshev_diff_matrix_exact_on_polynomials():
    m = 12
    x, d1 = chebyshev_diff_matrix(m)
    d2 = d1 @ d1
    for k in range(m + 1):
        p = x**k
        dp = k * x ** (k - 1) if k >= 1 else np.zeros_like(x)
        ddp = k * (k - 1) * x ** (k - 2) if k >= 2 else np.zeros_like(x)
        np.testing.assert_allclose(d1 @ p, dp, atol=1e-10)
        np.testing.assert_allclose(d2 @ p, ddp, atol=1e-8)


def test_chebyshev_rows_annihilate_constants():
    _, d1 = chebyshev_diff_matrix(30)
    np.testing.assert_allclose(d1 @ np.ones(31), 0.0, atol=1e-11)


def test_open_weights_sum_to_interval_length():
    for m in (2, 4, 9, 16, 33):
        w = open_chebyshev_weights(m)
        assert w.shape == (m - 1,)
        assert np.all(w > 0)
        assert math.fsum(w) == pytest.approx(2.0, abs=1e-13)
    np.testing.assert_allclose(open_chebyshev_weights(4), [2 / 3, 2 / 3, 2 / 3], atol=1e-14)


def test_open_weights_integrate_smooth_functions_spectrally():
    # interior-node rule on [-1,1]^2 applied to exp(x+y); exact value (e - 1/e)^2
    exact = (math.e - 1.0 / math.e) ** 2
    errs = []
    for m in (8, 20):
        op = chebyshev_operator(m)
        x, y = op.mesh
        approx = float(op.w @ np.exp(x + y))
        errs.append(abs(approx - exact) / exact)
    assert errs[0] < 1e-6
    assert errs[1] < 1e-13


def test_chebyshev_operator_shapes_and_mesh_order():
    m = 6
    op = chebyshev_operator(m)
    k = m - 1
    assert op.n_unknowns == k * k
    assert op.L.shape == (k * k, k * k)
    x, y = op.mesh
    # x varies fastest within a row of constant y
    np.testing.assert_allclose(x[:k], op.nodes)
    assert np.all(y[:k] == y[0])
    assert float(op.w.sum()) == pytest.approx(4.0)
    assert math.fsum(op.w) == pytest.approx(4.0, abs=1e-12)


def test_chebyshev_laplacian_and_gradient_exact_on_polynomial():
    op = chebyshev_operator(10)
    x, y = op.mesh
    u = (1 - x**2) * (1 - y**2)
    lap = -2 * (1 - y**2) - 2 * (1 - x**2)
    for got_lap in (op.laplacian(u), op.L @ u):
        np.testing.assert_allclose(got_lap, lap, atol=1e-9)
    np.testing.assert_allclose(op.Gx @ u, -2 * x * (1 - y**2), atol=1e-10)
    np.testing.assert_allclose(op.Gy @ u, -2 * y * (1 - x**2), atol=1e-10)


def test_chebyshev_interior_restriction_encodes_boundary_zero():
    # operator rows act on interior values only: for u vanishing on the
    # boundary the interior Laplacian is complete, no ghost terms
    op = chebyshev_operator(8)
    assert 1.0 not in op.nodes and -1.0 not in op.nodes


def test_fourier_operator_trigonometric_eigenfunctions():
    op = fourier_operator(16)
    x, y = op.mesh
    u = np.sin(x)
    v = np.sin(3 * x) * np.cos(2 * y)
    for lap in (op.laplacian, op.L.__matmul__):
        np.testing.assert_allclose(lap(u), -u, atol=1e-12)
        np.testing.assert_allclose(lap(v), -13 * v, atol=1e-10)
    np.testing.assert_allclose(op.Gx @ u, np.cos(x), atol=1e-12)
    np.testing.assert_allclose(op.Gy @ u, 0.0, atol=1e-12)
    # sin 3x cos 2y is an eigenfunction, so the shifted inverse just divides
    np.testing.assert_allclose(op.shifted_inverse(2.0, 0.16)(v), v / (2.0 + 0.16 * 13),
                               atol=1e-12)


def test_operator_rejects_a_complex_second_derivative_spectrum():
    # a rotation has eigenvalues +-i: no real fast diagonalisation exists
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    nodes = np.array([0.0, 1.0])
    with pytest.raises(ValueError, match="complex spectrum"):
        SpectralOperator(nodes, np.eye(2), rot, np.ones(4))


@pytest.mark.parametrize("m", [3, 8, 20, 24])
def test_chebyshev_eigenvectors_are_stored_contiguous(m):
    # on eig's strided real view np.dot would copy V every solve and round
    # otherwise than @
    assert chebyshev_operator(m)._vecs.flags.c_contiguous


def test_operator_rejects_an_inaccurate_diagonalisation():
    # a Jordan block has one eigenvector: eig returns a singular V
    jordan = np.array([[-2.0, 1.0], [0.0, -2.0]])
    nodes = np.array([0.0, 1.0])
    with pytest.raises(ValueError, match="inaccurate"):
        SpectralOperator(nodes, np.eye(2), jordan, np.ones(4))


@pytest.mark.parametrize("m", [64, 96, 128])
def test_fourier_shifted_solve_stays_exact_at_large_resolution(m):
    # independent oracle: the FFT diagonalises the periodic d2 with symbol
    # -k^2, the Nyquist mode included
    op = fourier_operator(m)
    r = np.random.Generator(np.random.PCG64(m)).standard_normal(op.n_unknowns)
    k2 = np.fft.fftfreq(m, 1.0 / m) ** 2
    for sigma, eps2 in ((99.0, 0.16), (1.5, 0.16)):
        symbol = sigma + eps2 * (k2[:, None] + k2[None, :])
        ref = np.fft.ifft2(np.fft.fft2(r.reshape(m, m)) / symbol).real.ravel()
        np.testing.assert_allclose(op.shifted_inverse(sigma, eps2)(r), ref,
                                   rtol=0, atol=1e-12 * np.abs(ref).max())


def test_fourier_operator_requires_even_resolution():
    for bad in (3, 5, 2):
        with pytest.raises(ValueError):
            fourier_operator(bad)


def test_fourier_weights_cover_the_torus():
    op = fourier_operator(8)
    h = 2 * math.pi / 8
    np.testing.assert_allclose(op.w, h * h, atol=1e-15)
    assert math.fsum(op.w) == pytest.approx(4 * math.pi**2, rel=1e-14)
    assert float(op.w.sum()) == pytest.approx(4 * math.pi**2)


def test_l2_norm_constants_and_modes():
    op = chebyshev_operator(10)
    ones = np.ones(op.n_unknowns)
    assert l2_norm(op, ones) == pytest.approx(2.0, abs=1e-12)
    fop = fourier_operator(16)
    x, _ = fop.mesh
    # ||sin x||_{L^2((0,2pi)^2)} = sqrt(2 pi^2)
    assert l2_norm(fop, np.sin(x)) == pytest.approx(math.sqrt(2 * math.pi**2), rel=1e-12)


def test_l2_norm_rejects_bad_inputs():
    op = chebyshev_operator(6)
    with pytest.raises(ValueError):
        l2_norm(op, np.ones(3))


def test_energy_of_reference_states():
    op = fourier_operator(16)
    zero = np.zeros(op.n_unknowns)
    # E(0) = |domain| / 4
    assert energy(op, zero, eps2=0.16) == pytest.approx(math.pi**2, rel=1e-13)
    assert energy(op, np.ones(op.n_unknowns), eps2=0.16) == pytest.approx(0.0, abs=1e-13)
    assert energy(op, -np.ones(op.n_unknowns), eps2=0.16) == pytest.approx(0.0, abs=1e-13)


def test_energy_quadrature_matches_closed_form():
    # u = (1-x^2)(1-y^2) vanishes on the boundary, so the interior Laplacian
    # is exact and -<u, L u> integrates to ||grad u||^2 by parts; closed forms from
    # int_{-1}^{1} (1-s^2)^k ds = 16/15 (k=2), 256/315 (k=4)
    op = chebyshev_operator(12)
    x, y = op.mesh
    u = (1 - x**2) * (1 - y**2)
    grad_sq = 2 * (4 * (2 / 3) * (16 / 15))
    well = ((256 / 315) ** 2 - 2 * (16 / 15) ** 2 + 4) / 4
    for eps2 in (0.16, 0.36):
        want = eps2 / 2 * grad_sq + well
        assert energy(op, u, eps2) == pytest.approx(want, rel=1e-12)
