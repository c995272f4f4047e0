"""Property tests: every kernel form derived from the one ratio-weight table.

Ratio sequences are drawn with N <= 12 levels (N <= 40 for the inverse
kernels) and ratios in [0.02, 44], the range of the random-step
convergence grids, plus extreme ratios that overflow the closed forms.
The references are the closed forms evaluated at each level's (tau_n, r_n,
r_{n-1}), the dense matrices of assemble_B, the identity D B = I, the
Jacobi eigenvalue oracle, and the table path of the shifted trace.
"""

import math
import re

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from vsbdf3.bdf_kernels import (  # noqa: E402
    _require_finite,
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
    subdiagonal_envelopes,
    sylvester_trace_shifted,
)
from vsbdf3.time_grid import build_from_ratios  # noqa: E402

from eigen_oracles import min_symmetric_eigenvalue  # noqa: E402

# half the sequences keep every ratio inside the certified bound 1.405, so
# both certification verdicts occur often
ratio_lists = st.sampled_from([1.405, 44.0]).flatmap(
    lambda cap: st.lists(st.floats(min_value=0.02, max_value=cap), max_size=11))
EXTREMES = (1e-300, 1e-200, 1e200, 1e300)
ratio_values = st.floats(min_value=0.02, max_value=44.0) | st.sampled_from(EXTREMES)
# ratio lists with up to two extreme ratios at drawn positions
extreme_ratio_lists = st.tuples(
    ratio_lists,
    st.lists(st.tuples(st.integers(0, 11), st.sampled_from(EXTREMES)), max_size=2),
).map(lambda drawn: _insert(*drawn))


def _insert(ratios, extremes):
    for at, r in extremes:
        ratios.insert(min(at, len(ratios)), r)
    return ratios


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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(ratio_values, ratio_values, ratio_values), min_size=1, max_size=8))
def test_closed_forms_give_the_same_bits_on_floats_and_arrays(args):
    tau, r, s = (np.array(column) for column in zip(*args))
    with np.errstate(all="ignore"):
        arrays = [*bdf2_weights(tau, r), *bdf3_weights(tau, r, s),
                  *subdiagonal_envelopes(tau, r, s)]
    # on Python floats an overflow gives inf or nan, never an exception
    floats = [[*bdf2_weights(t, x), *bdf3_weights(t, x, y), *subdiagonal_envelopes(t, x, y)]
              for t, x, y in args]
    assert np.array(floats).T.tobytes() == np.array(arrays).tobytes()


def _table_trace(g, levels):
    """Shifted trace of the grid's first levels by the table path: the
    ratio_weights table over tau, then a plain elimination."""
    tau, r = np.asarray(g.steps[:levels]), np.asarray(g.ratios[:levels - 1])
    band = ratio_weights(r)
    band[:, 0] = 2.0 * band[:, 0] - 2.0 * GAMMA
    with np.errstate(over="ignore"):
        band /= tau[:, None]
    diag, sub, subsub = _require_finite(band, "shifted diagonal, b1, b2",
                                        lambda n: f"step {g.steps[n - 1]!r}").T.tolist()
    p, q = [diag[0]], [0.0]
    if levels >= 2 and p[0] > 0.0:
        q.append(sub[1])
        p.append(diag[1] - sub[1] * sub[1] / p[0])
        for j in range(2, levels):
            if p[-1] <= 0.0:
                break
            q.append(sub[j] - (q[j - 1] / p[j - 2]) * subsub[j])
            p.append(diag[j] - subsub[j] ** 2 / p[j - 2] - q[j] * q[j] / p[j - 1])
    mu, nu = np.zeros((2, levels))
    with np.errstate(all="ignore"):
        mu[2:], nu[2:] = subdiagonal_envelopes(tau[2:], r[1:], r[:-1])
    first = len(p) if p[-1] <= 0.0 else None
    return p, q, first, mu[:len(p)], nu[:len(p)]


@settings(max_examples=300, deadline=None)
@given(extreme_ratio_lists)
def test_lazy_shifted_trace_is_the_table_trace_up_to_the_stop(ratios):
    try:
        g = build_from_ratios(ratios, 1.0)
    except ValueError:  # extremes of one sign underflow a step to zero
        assume(False)
    try:
        tr = sylvester_trace_shifted(g)
    except ValueError as exc:
        # the levels before the one named all pass without a stop, and the
        # table path over the levels read raises the same error
        level = int(re.match(r"level (\d+):", str(exc)).group(1))
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            _table_trace(g, level)
        assert level == 1 or _table_trace(g, level - 1)[2] is None
        return
    p, q, first, mu, nu = _table_trace(g, len(tr.p))
    assert tr.first_negative == first
    for got, want in ((tr.p, p), (tr.q, q), (tr.mu, mu), (tr.nu, nu)):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
