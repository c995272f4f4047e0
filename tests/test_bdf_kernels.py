import warnings

import numpy as np
import pytest

from conftest import certified_grid, inverse_kernel_matrix, make_rng, wild_grid
from vsbdf3.bdf_kernels import (
    apply_D3,
    assemble_B,
    bdf3_weights,
    inverse_kernel_rows,
    kernel_weights,
    ratio_weights,
)
from vsbdf3.time_grid import build_from_steps, build_uniform, random_bounded_grid


def test_uniform_weights_match_classical_values():
    assert kernel_weights(build_from_steps([1.0]))[0, 0] == 1.0
    assert kernel_weights(build_from_steps([2.0]))[0, 0] == 0.5
    # two steps: the three-step form at r_{n-1} = 0
    b0, b1, b2 = bdf3_weights(1.0, 1.0, 0.0)
    assert (b0, b1, b2) == pytest.approx((1.5, -0.5, 0.0), abs=1e-15)
    b0, b1, b2 = bdf3_weights(1.0, 1.0, 1.0)
    assert (b0, b1, b2) == pytest.approx((11 / 6, -7 / 6, 1 / 3), abs=1e-15)


def test_scaled_weights_drop_the_step_factor():
    rng = make_rng(0)
    for _ in range(200):
        tau, rn, rm = rng.uniform(0.01, 3.0, size=3)
        beta = ratio_weights([rm, rn])[2]
        a = beta / np.sqrt([1.0, rn, rn * rm])
        b = bdf3_weights(tau, rn, rm)
        # the defining relation A = Lambda^{1/2} B Lambda^{1/2} gives
        # a0 = tau_n b0, a1 = sqrt(tau_n tau_{n-1}) b1, a2 = sqrt(tau_n tau_{n-2}) b2
        assert a[0] == pytest.approx(tau * b[0], rel=1e-13)
        assert a[1] == pytest.approx(tau * b[1] / np.sqrt(rn), rel=1e-13)
        assert a[2] == pytest.approx(tau * b[2] / np.sqrt(rn * rm), rel=1e-13)
    a0, a1, a2 = ratio_weights([1.0])[1]
    assert (a0, a1) == pytest.approx((1.5, -0.5), abs=1e-15)
    assert a2 == 0.0


def test_coefficient_dispatch_per_level():
    g = build_uniform(4, 4.0)  # tau = 1
    b = kernel_weights(g)
    assert tuple(b[0]) == (1.0, 0.0, 0.0)
    assert b[1, 0] == pytest.approx(1.5)
    assert b[1, 1] == pytest.approx(-0.5)
    assert b[1, 2] == 0.0
    assert tuple(b[2]) == pytest.approx((11 / 6, -7 / 6, 1 / 3))
    # one row per level, and the table is shared read-only
    assert b.shape == (4, 3)
    with pytest.raises(ValueError):
        b[0, 0] = 2.0


def test_overflowing_ratios_raise_without_warnings():
    # r = 1e300 overflows r^2 in the closed forms; the table refuses the
    # level instead of handing NaN weights on
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^level 3: step ratio r_3 = 1e\+300 gives"):
            ratio_weights([1.0, 1e300, 1e-300])
        with pytest.raises(ValueError, match=r"^level 2: step ratio r_2 = 1e\+200 gives"):
            kernel_weights(build_from_steps([1.0, 1e200]))


def test_kernel_weights_are_the_table_over_the_step():
    g = certified_grid(make_rng(10), 25)
    b = kernel_weights(g)
    tau = np.asarray(g.steps)
    np.testing.assert_array_equal(b, ratio_weights(g.ratios) / tau[:, None])
    np.testing.assert_array_equal(np.diagonal(assemble_B(g).B), b[:, 0])


def test_leading_weight_positive_trailing_nonnegative():
    rng = make_rng(1)
    for _ in range(500):
        tau, rn, rm = rng.uniform(1e-3, 10.0, size=3)
        b0, b1, b2 = bdf3_weights(tau, rn, rm)
        assert b0 > 0.0
        assert b2 >= 0.0


def test_assemble_B_band_structure():
    g = build_uniform(5, 5.0)
    km = assemble_B(g)
    B = km.B
    assert B.shape == (5, 5)
    assert B[2, :3] == pytest.approx([1 / 3, -7 / 6, 11 / 6])
    assert np.all(B[np.triu_indices(5, 1)] == 0.0)
    # bandwidth 3: nothing below the second subdiagonal
    assert np.all(B[np.tril_indices(5, -3)] == 0.0)


def test_assemble_B_single_step():
    km = assemble_B(build_from_steps([0.25]))
    assert km.B == pytest.approx(np.array([[4.0]]))
    assert km.A == pytest.approx(np.array([[1.0]]))


def test_assemble_A_uniform_row_two():
    km = assemble_B(build_uniform(2, 2.0))
    assert km.A[1] == pytest.approx([-0.5, 1.5])


def test_A_matches_directly_scaled_weights():
    rng = make_rng(2)
    for _ in range(50):
        g = certified_grid(rng, int(rng.integers(3, 40)))
        km = assemble_B(g)
        r = g.ratios
        beta = ratio_weights(r)
        for n in range(3, g.n_steps + 1):
            a0 = beta[n - 1, 0]
            a1 = beta[n - 1, 1] / np.sqrt(r[n - 2])
            a2 = beta[n - 1, 2] / np.sqrt(r[n - 2] * r[n - 3])
            assert km.A[n - 1, n - 1] == pytest.approx(a0, rel=1e-13)
            assert km.A[n - 1, n - 2] == pytest.approx(a1, rel=1e-13)
            assert km.A[n - 1, n - 3] == pytest.approx(a2, rel=1e-13)
        a0, a1 = beta[1, 0], beta[1, 1] / np.sqrt(r[0])
        assert km.A[1, 1] == pytest.approx(a0, rel=1e-13)
        assert km.A[1, 0] == pytest.approx(a1, rel=1e-13)
        assert km.A[0, 0] == pytest.approx(1.0, rel=1e-13)


def test_doc_kernels_uniform_hand_values():
    g = build_uniform(3, 3.0)
    D = inverse_kernel_matrix(g)
    assert D[0, 0] == 1.0
    assert D[1, 1] == pytest.approx(2 / 3)
    assert D[1, 0] == pytest.approx(1 / 3)


def test_doc_matches_matrix_inverse_oracle():
    rng = make_rng(3)
    for _ in range(25):
        g = certified_grid(rng, int(rng.integers(2, 80)))
        B, D = assemble_B(g).B, inverse_kernel_matrix(g)
        inv = np.linalg.inv(B)
        assert np.max(np.abs(D - inv)) <= 1e-11 * np.max(np.abs(inv))
        assert np.max(np.abs(D @ B - np.eye(g.n_steps))) < 1e-11


def test_doc_is_lower_triangular():
    # row n holds the n entries D[n, 1..n]; nothing right of the diagonal
    rows = list(inverse_kernel_rows(kernel_weights(certified_grid(make_rng(4), 30))))
    assert [len(row) for row in rows] == list(range(1, 31))


def test_doc_quadratic_form_nonnegative():
    # positive definiteness of the inverse kernels on certified grids
    rng = make_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 60))
        g = certified_grid(rng, n)
        D = inverse_kernel_matrix(g)
        mu = rng.standard_normal(n)
        quad = float(mu @ (D @ mu))
        assert quad >= -1e-12 * float(mu @ mu)


def test_apply_D3_constant_history_is_zero():
    b = kernel_weights(certified_grid(make_rng(6), 12))
    hist = [3.7] * 13
    for n in range(1, 13):
        assert apply_D3(b[n - 1], hist[: n + 1]) == 0.0


def test_apply_D3_linear_exact_at_every_level():
    # moderate step scales; extreme grading would amplify the v^n - v^{n-1}
    # rounding by 1/tau and the 1e-12 claim is about the formula, not that
    g = random_bounded_grid(15, 0.1, seed=7)
    b = kernel_weights(g)
    t = g.levels
    hist = list(2.5 * t - 1.0)
    for n in range(1, 16):
        assert apply_D3(b[n - 1], hist[: n + 1]) == pytest.approx(2.5, abs=1e-12)


def test_apply_D3_quadratic_exact_from_level_two():
    g = certified_grid(make_rng(8), 10)
    b = kernel_weights(g)
    t = g.levels
    hist = list(t**2)
    for n in range(2, 11):
        assert apply_D3(b[n - 1], hist[: n + 1]) == pytest.approx(2 * t[n], rel=1e-11, abs=1e-12)


def test_apply_D3_cubic_exact_from_level_three():
    rng = make_rng(9)
    for _ in range(20):
        g = wild_grid(rng, int(rng.integers(3, 40)))
        b = kernel_weights(g)
        t = g.levels
        hist = list(t**3)
        for n in range(3, g.n_steps + 1):
            want = 3 * t[n] ** 2
            assert apply_D3(b[n - 1], hist[: n + 1]) == pytest.approx(want, rel=1e-10)


def test_apply_D3_works_elementwise_on_fields():
    g = build_uniform(4, 1.0)
    t = g.levels
    coef = np.array([1.0, -2.0, 0.5])
    hist = [c * coef for c in t**2]
    out = apply_D3(kernel_weights(g)[3], hist)
    np.testing.assert_allclose(out, 2 * t[4] * coef, atol=1e-13)


def test_apply_D3_reads_only_the_kernel_levels():
    g = certified_grid(make_rng(11), 9)
    b = kernel_weights(g)
    hist = list(np.cos(g.levels))
    for n in range(1, 10):
        # levels before n-3 carry no weight
        assert apply_D3(b[n - 1], hist[max(n - 3, 0) : n + 1]) == apply_D3(b[n - 1], hist[: n + 1])


def test_apply_D3_short_history_rejected():
    b = kernel_weights(build_uniform(3, 1.0))
    with pytest.raises(ValueError):
        apply_D3(b[0], [1.0])
