"""Property tests: every kernel form derived from the one ratio-weight table.

Ratio sequences are drawn with N <= 12 levels (N <= 40 for the inverse
kernels) and ratios in [0.02, 44], the range of the random-step
convergence grids.  The references are the closed forms evaluated at each
level's (tau_n, r_n, r_{n-1}), the dense matrices of assemble_B, the
identity D B = I, and the Jacobi eigenvalue oracle.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from vsbdf3.bdf_kernels import (  # noqa: E402
    assemble_B,
    bdf2_weights,
    bdf3_weights,
    doc_kernels,
    ratio_weights,
)
from vsbdf3.ratio_analysis import (  # noqa: E402
    GAMMA,
    _scaled_weights,
    certify_positive_definite,
    sylvester_trace_shifted,
)
from vsbdf3.time_grid import build_from_ratios  # noqa: E402

from eigen_oracles import min_symmetric_eigenvalue  # noqa: E402

# half the sequences keep every ratio inside the certified bound 1.405, so
# both certification verdicts occur often
ratio_lists = st.sampled_from([1.405, 44.0]).flatmap(
    lambda cap: st.lists(st.floats(min_value=0.02, max_value=cap), max_size=11))


@settings(max_examples=150, deadline=None)
@given(ratio_lists)
def test_table_rows_over_tau_are_the_kernel_weights(ratios):
    g = build_from_ratios(ratios, 1.0)
    tau = np.asarray(g.steps)
    b = ratio_weights(g.ratios) / tau[:, None]
    B = assemble_B(g).B
    n = g.n_steps
    r = g.ratios
    for level in range(1, n + 1):
        t = g.step(level)
        if level == 1:
            want = [1.0 / t, 0.0, 0.0]
        elif level == 2:
            want = [*bdf2_weights(t, r[0]), 0.0]
        else:
            want = bdf3_weights(t, r[level - 2], r[level - 3])
        np.testing.assert_allclose(b[level - 1], want, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(np.diagonal(B), b[:, 0], rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(np.diagonal(B, -1), b[1:, 1], rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(np.diagonal(B, -2), b[2:, 2], rtol=1e-14, atol=0.0)
    assert not np.any(np.tril(B, -3)) and not np.any(np.triu(B, 1))


@settings(max_examples=150, deadline=None)
@given(ratio_lists)
def test_scaled_rows_are_the_step_scaled_matrix(ratios):
    g = build_from_ratios(ratios, 1.0)
    a = _scaled_weights(g.ratios)
    A = assemble_B(g).A
    np.testing.assert_allclose(np.diagonal(A), a[:, 0], rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(np.diagonal(A, -1), a[1:, 1], rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(np.diagonal(A, -2), a[2:, 2], rtol=1e-13, atol=0.0)


@settings(max_examples=150, deadline=None)
@given(ratio_lists)
def test_shifted_diagonal_at_every_level(ratios):
    # undo the elimination to recover the diagonal the recursion used:
    # diag_j = p_j + b2_j^2 / p_{j-2} + q_j^2 / p_{j-1}
    g = build_from_ratios(ratios, 1.0)
    tr = sylvester_trace_shifted(g)
    B = assemble_B(g).B
    tau = np.asarray(g.steps)
    want = 2.0 * np.diagonal(B) - 2.0 * GAMMA / tau
    p, q = tr.p, tr.q
    for j in range(len(p)):
        terms = [p[j]]
        if j >= 1:
            terms.append(q[j] ** 2 / p[j - 1])
        if j >= 2:
            terms.append(B[j, j - 2] ** 2 / p[j - 2])
        scale = sum(abs(t) for t in terms) + abs(want[j])
        assert abs(math.fsum(terms) - want[j]) <= 1e-13 * scale


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=0.02, max_value=44.0), max_size=39))
def test_inverse_kernels_invert_the_kernel_matrix(ratios):
    km = doc_kernels(build_from_ratios(ratios, 1.0))
    D, B = km.D, km.B
    scale = max(1.0, float(np.max(np.abs(D) @ np.abs(B))))
    assert np.max(np.abs(D @ B - np.eye(len(B)))) <= 1e-13 * scale


@settings(max_examples=150, deadline=None)
@given(ratio_lists)
def test_certification_agrees_with_eigen_oracle(ratios):
    g = build_from_ratios(ratios, 1.0)
    ok, _ = certify_positive_definite(g)
    # Lambda^{1/2} (B + B^T - 2 gamma Lambda^{-1}) Lambda^{1/2} = A + A^T - 2 gamma I
    # has the inertia of the shifted matrix (Sylvester's law) but stays well
    # scaled however graded the steps are
    A = assemble_B(g).A
    S = A + A.T - 2.0 * GAMMA * np.eye(g.n_steps)
    lam = min_symmetric_eigenvalue(S)
    assume(abs(lam) > 1e-9 * np.max(np.abs(S)))
    assert ok == (lam > 0.0)
