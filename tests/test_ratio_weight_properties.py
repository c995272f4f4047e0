"""Property tests: every kernel form derived from the one ratio-weight table.

Ratio sequences are drawn with N <= 12 levels (N <= 40 for the inverse
kernels) and ratios in [0.02, 44], the range of the random-step
convergence grids, plus extreme ratios that overflow the closed forms.
The references are the closed forms evaluated at each level's (r_n,
r_{n-1}) and divided by tau_n, the dense B of assemble_B and the
step-scaled A of dense_oracles, the column-order oracle of
the inverse kernels (bit for bit), the identity D B = I, the
Jacobi eigenvalue oracle, a dense LDL^T, the scaled table path of the
shifted trace, and the exact LDL^T of exact_oracles for the certification
verdict on grids of N <= 40.
"""

import math
import re
import sys

import numpy as np
import pytest
from numpy.polynomial import Polynomial

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from vsbdf3.bdf_kernels import (  # noqa: E402
    _non_finite,
    assemble_B,
    bdf3_weights,
    inverse_kernel_rows,
    kernel_weights,
    ratio_weights,
)
from vsbdf3.ratio_analysis import (  # noqa: E402
    GAMMA,
    certify_positive_definite,
    generating_function,
    subdiagonal_envelopes,
    sylvester_trace_A_from_ratios,
    sylvester_trace_shifted,
)
from vsbdf3.time_grid import TimeGrid, build_from_ratios, build_from_steps  # noqa: E402

from conftest import inverse_kernel_matrix  # noqa: E402
from dense_oracles import doc_kernels, step_scaled_matrix  # noqa: E402
from eigen_oracles import min_symmetric_eigenvalue  # noqa: E402
from exact_oracles import shifted_pivots  # noqa: E402

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


def _bdf2_weights(tau, r):
    """The two-step closed form (b0, b1), an oracle independent of bdf3_weights."""
    den = tau * (1.0 + r)
    return (1.0 + 2.0 * r) / den, -(r * r) / den


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
            want = [*_bdf2_weights(t, r[0]), 0.0]
        else:
            want = np.array(bdf3_weights(r[level - 2], r[level - 3])) / t
        np.testing.assert_allclose(b[level - 1], want, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(np.diagonal(B), b[:, 0], rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(np.diagonal(B, -1), b[1:, 1], rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(np.diagonal(B, -2), b[2:, 2], rtol=1e-14, atol=0.0)
    assert not np.any(np.tril(B, -3)) and not np.any(np.triu(B, 1))


# below sqrt(max / 3) ~ 7.741e153, the term 3 r^2 of the three-step form
# stays finite, so level 2 has the two-step weights
@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=7.74e153)
       | st.sampled_from([0.0, 5e-324, 0.5, 1.0, 1.405, 2.0, 7.74e153]))
def test_level_two_is_the_two_step_form_bit_for_bit(r2):
    row = ratio_weights([r2])[1]
    assert row.tobytes() == np.array([*_bdf2_weights(1.0, r2), 0.0]).tobytes()
    assert math.copysign(1.0, row[2]) == 1.0
    if r2 > 0.0:
        # level 2 of A + A^T: diagonal 2*beta_0, coupling beta_1 / sqrt(r_2), and
        # no entry two below, so p_2 = 2*beta_0 - a1^2 / p_1 with p_1 = 2
        tr = sylvester_trace_A_from_ratios([r2])
        a1 = row[1] / math.sqrt(r2)
        assert tr.q[1] == a1 and math.copysign(1.0, tr.q[1]) == math.copysign(1.0, a1)
        assert tr.p == (2.0, 2.0 * row[0] - a1 * a1 / 2.0)


# b2 = beta_2 at equal ratios r stays finite and nonzero on this range
@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1e-60, max_value=1e40)
       | st.sampled_from([0.5, 1.0, 1.405, 1.732, 2.0]))
def test_generating_function_reads_the_three_step_weights_bit_for_bit(r):
    # the level-3 row of A + A^T at r_3 = r_2 = r: a_k = beta_k / sqrt(r^k);
    # a polynomial argument returns the coefficients (a0 - a2, a1, 2*a2) exactly
    a0, b1, b2 = bdf3_weights(r, r)
    a1, a2 = b1 / math.sqrt(r), b2 / r
    coef = np.zeros(3)
    got = generating_function(r, Polynomial([0.0, 1.0])).coef
    coef[:got.size] = got
    assert coef.tolist() == [a0 - a2, a1, 2.0 * a2]


def _ldlt(S):
    """Pivots d_j and unit lower factor L of a plain dense LDL^T of S, up to
    the first nonpositive pivot."""
    n = len(S)
    L, d = np.eye(n), []
    for j in range(n):
        d.append(S[j, j] - np.dot(L[j, :j] ** 2, d[:j]))
        if d[j] <= 0.0:
            break
        L[j + 1:, j] = (S[j + 1:, j] - L[j + 1:, :j] @ (L[j, :j] * d[:j])) / d[j]
    return d, L


@settings(max_examples=150, deadline=None)
@given(ratio_lists)
def test_ratio_trace_rows_are_the_step_scaled_matrix(ratios):
    # undo each elimination step: the pivots and couplings give back the
    # diagonal of A + A^T and its entry one below, and take the entry two
    # below from A, row by row (stand-ins p = 1, q = 0 before level 1)
    g = build_from_ratios(ratios, 1.0)
    tr = sylvester_trace_A_from_ratios(g.ratios)
    A = step_scaled_matrix(g)
    S = A + A.T
    p, q = [1.0, 1.0, *tr.p], [0.0, *tr.q]
    assert tr.q[0] == 0.0
    for j in range(len(tr.p)):
        a2 = S[j, j - 2] if j >= 2 else 0.0
        diag = [p[j + 2], a2 * a2 / p[j], q[j + 1] ** 2 / p[j + 1]]
        sub = [q[j + 1], q[j] / p[j] * a2]
        for terms, want in ((diag, S[j, j]), (sub, S[j, j - 1] if j else 0.0)):
            assert abs(math.fsum(terms) - want) <= 1e-13 * (sum(map(abs, terms)) + abs(want))


@settings(max_examples=150, deadline=None)
@given(ratio_lists)
def test_ratio_trace_is_the_dense_ldlt_of_the_step_scaled_matrix(ratios):
    # the ratio-only trace eliminates A + A^T in A's own units: its pivots are
    # the dense pivots d_j, and its couplings q_j = d_{j-1} L[j, j-1]
    g = build_from_ratios(ratios, 1.0)
    tr = sylvester_trace_A_from_ratios(g.ratios)
    A = step_scaled_matrix(g)
    S = A + A.T
    d, L = _ldlt(S)
    assert tr.first_negative == (len(d) if d[-1] <= 0.0 else None)
    k = len(d)
    assert len(tr.p) == len(tr.q) == k
    for got, want, entry in ((tr.p, np.asarray(d), np.diagonal(S)[:k]),
                             (tr.q[1:], np.diagonal(L, -1)[:k - 1] * d[:k - 1],
                              np.diagonal(S, -1)[:k - 1])):
        # relative to the entry and to what the elimination took from it,
        # since a pivot may cancel far below both; a pivot after such a
        # small one inherits its error (ratios [0.5, 3.0703125, 2] give
        # 2.3e-13 of that scale), so the bound is 1e-10, as for the
        # shifted trace, while the rows above hold to 1e-13
        scale = np.abs(entry) + np.abs(entry - want)
        assert np.all(np.abs(np.asarray(got) - want) <= 1e-10 * scale)


@settings(max_examples=150, deadline=None)
@given(ratio_lists)
def test_shifted_diagonal_at_every_level(ratios):
    # undo the elimination to recover the step-free diagonal the recursion
    # used, 2*beta_0 - 2*gamma of A + A^T - 2*gamma*I:
    # diag_j = p_j + a2_j^2 / p_{j-2} + q_j^2 / p_{j-1}
    g = build_from_ratios(ratios, 1.0)
    tr = sylvester_trace_shifted(g)
    A = step_scaled_matrix(g)
    want = 2.0 * np.diagonal(A) - 2.0 * GAMMA
    p, q = tr.p, tr.q
    for j in range(len(p)):
        terms = [p[j]]
        if j >= 1:
            terms.append(q[j] ** 2 / p[j - 1])
        if j >= 2:
            terms.append(A[j, j - 2] ** 2 / p[j - 2])
        scale = sum(abs(t) for t in terms) + abs(want[j])
        assert abs(math.fsum(terms) - want[j]) <= 1e-13 * scale


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=0.02, max_value=44.0), max_size=39))
def test_inverse_kernels_invert_the_kernel_matrix(ratios):
    g = build_from_ratios(ratios, 1.0)
    D, B = inverse_kernel_matrix(g), assemble_B(g).B
    scale = max(1.0, float(np.max(np.abs(D) @ np.abs(B))))
    assert np.max(np.abs(D @ B - np.eye(len(B)))) <= 1e-13 * scale


@settings(max_examples=150, deadline=None)
@given(ratio_lists)
def test_inverse_kernel_rows_equal_the_dense_oracle_bit_for_bit(ratios):
    g = build_from_ratios(ratios, 1.0)
    D = doc_kernels(g)
    rows = list(inverse_kernel_rows(kernel_weights(g)))
    assert len(rows) == g.n_steps
    for i, row in enumerate(rows):
        # tobytes tells -0.0 from 0.0, and the oracle's upper triangle is zero
        assert np.array(row).tobytes() == D[i, : i + 1].tobytes()
        assert not D[i, i + 1 :].any()


@settings(max_examples=150, deadline=None)
@given(ratio_lists)
def test_certification_agrees_with_eigen_oracle(ratios):
    g = build_from_ratios(ratios, 1.0)
    ok, _ = certify_positive_definite(g)
    # Lambda^{1/2} (B + B^T - 2 gamma Lambda^{-1}) Lambda^{1/2} = A + A^T - 2 gamma I
    # has the inertia of the shifted matrix (Sylvester's law) but stays well
    # scaled however graded the steps are
    A = step_scaled_matrix(g)
    S = A + A.T - 2.0 * GAMMA * np.eye(g.n_steps)
    lam = min_symmetric_eigenvalue(S)
    assume(abs(lam) > 1e-9 * np.max(np.abs(S)))
    assert ok == (lam > 0.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(ratio_values, ratio_values, ratio_values), min_size=1, max_size=8))
def test_closed_forms_give_the_same_bits_on_floats_and_arrays(args):
    # the closed forms take ratios only; the first value of each triple is
    # the step that the weights b_k = beta_k / tau_n are divided by
    tau, r, s = (np.array(column) for column in zip(*args))
    with np.errstate(all="ignore"):
        arrays = [*(beta / tau for beta in bdf3_weights(r, s)),
                  *(env / tau for env in subdiagonal_envelopes(r, s))]
    # on Python floats an overflow gives inf or nan, never an exception
    floats = [[*(beta / t for beta in bdf3_weights(x, y)),
               *(env / t for env in subdiagonal_envelopes(x, y))] for t, x, y in args]
    assert np.array(floats).T.tobytes() == np.array(arrays).tobytes()


def _table_trace(g, levels):
    """Shifted trace of the grid's first levels by the scaled dense table: the
    rows (2*a0 - 2*gamma, a1, a2) of A + A^T - 2*gamma*I from the
    ratio_weights table, a_k = beta_k / sqrt(tau_{n-k} / tau_n), each finite,
    then a plain elimination."""
    r = np.asarray(g.ratios[:levels - 1])
    beta = ratio_weights(r)
    a = beta.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        a[1:, 1] /= np.sqrt(r)
        a[2:, 2] /= np.sqrt(r[1:] * r[:-1])
    band = a.copy()
    band[:, 0] = 2.0 * a[:, 0] - 2.0 * GAMMA
    for n in range(1, levels + 1):
        if not np.isfinite(a[n - 1]).all():
            raise _non_finite(n, f"step ratio r_{n} = {float(r[n - 2])!r}", "a0, a1, a2", a[n - 1])
    diag, sub, subsub = band.T.tolist()
    p, q = [diag[0]], [0.0]
    if levels >= 2 and p[0] > 0.0:
        q.append(sub[1])
        p.append(diag[1] - sub[1] * sub[1] / p[0])
        for j in range(2, levels):
            if p[-1] <= 0.0:
                break
            q.append(sub[j] - (q[j - 1] / p[j - 2]) * subsub[j])
            p.append(diag[j] - subsub[j] * subsub[j] / p[j - 2] - q[j] * q[j] / p[j - 1])
    first = len(p) if p[-1] <= 0.0 else None
    return np.asarray(p), np.asarray(q), first


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
    p, q, first = _table_trace(g, len(tr.p))
    assert tr.first_negative == first
    for got, want in ((tr.p, p), (tr.q, q)):
        assert np.asarray(got).tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(ratio_lists)
def test_shifted_pivots_times_steps_are_the_dense_scaled_ldlt(ratios):
    # the congruence B + B^T - 2 gamma Lambda^{-1} = Lambda^{-1/2} (A + A^T -
    # 2 gamma I) Lambda^{-1/2} makes tau_j p_j the pivots of the scaled form,
    # which the trace returns
    g = build_from_ratios(ratios, 1.0)
    tr = sylvester_trace_shifted(g)
    A = step_scaled_matrix(g)
    d, _ = _ldlt(A + A.T - 2.0 * GAMMA * np.eye(g.n_steps))
    assert tr.first_negative == (len(d) if d[-1] <= 0.0 else None)
    np.testing.assert_allclose(tr.p, d, rtol=1e-10, atol=0.0)


@settings(max_examples=200, deadline=None)
@given(ratio_lists, st.data())
def test_power_of_two_step_scaling_scales_the_shifted_trace_exactly(ratios, data):
    # steps times 2^k keep every ratio bit for bit, so the step-free trace
    # and its verdict stay the same; k runs over every power that keeps all
    # steps normal, with both ends checked, the smallest step then in
    # [2^-1022, 2^-1021)
    g = build_from_ratios(ratios, 1.0)
    tr = sylvester_trace_shifted(g)
    k_min = -1021 - math.frexp(min(g.steps))[1]
    k_max = 1024 - math.frexp(g.horizon)[1]  # the steps must keep a finite sum
    for k in (k_min, k_max, data.draw(st.integers(k_min, k_max), label="k")):
        steps = [math.ldexp(t, k) for t in g.steps]
        assert min(steps) >= sys.float_info.min
        tr_k = sylvester_trace_shifted(build_from_steps(steps))
        assert tr_k.first_negative == tr.first_negative
        for got, want in ((tr_k.p, tr.p), (tr_k.q, tr.q)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# ratios inside the box, within 4 ulps of its edge 1.405 on either side, and
# wild ones up to 44 (the three occur about equally often)
_oracle_ratios = st.lists(
    st.floats(min_value=1e-3, max_value=1.405)
    | st.integers(-4, 4).map(lambda k: 1.405 + k * math.ulp(1.405))
    | st.floats(min_value=1.0 / 44.0, max_value=44.0),
    max_size=39)


# ratios in the box (0, 1.405], down to 1e-6, and within 4 ulps of its edge on either side
_box_ratios = st.lists(
    st.floats(min_value=1e-6, max_value=1.405)
    | st.integers(-4, 4).map(lambda k: 1.405 + k * math.ulp(1.405)),
    max_size=39)


@st.composite
def oracle_grids(draw, ratio_lists=_oracle_ratios):
    """Grids of N <= 40 formed in floats from a first step and the drawn ratios.

    The first step puts the largest step at 1, the smallest in the
    subnormal range, or, with two ratios near 1e-200 inserted, the largest
    at 1e300; the product of that pair underflows to zero.
    """
    ratios = draw(ratio_lists)
    scale = draw(st.sampled_from(["normal", "subnormal", "underflowing pair"]))
    if scale == "underflowing pair":
        r = draw(st.floats(min_value=1e-201, max_value=1e-199))
        at = draw(st.integers(0, len(ratios)))
        ratios[at:at] = [r, r]
        ratios = ratios[:39]
    logs = [0.0]
    for r in ratios:
        logs.append(logs[-1] + math.log10(r))
    if scale == "subnormal":
        first = 10.0 ** (draw(st.floats(min_value=-322.0, max_value=-308.5)) - min(logs))
    else:
        first = 10.0 ** ((300.0 if scale == "underflowing pair" else 0.0) - max(logs))
    steps = [first]
    for r in ratios:
        steps.append(steps[-1] * r)
    assume(all(0.0 < t < math.inf for t in steps) and math.isfinite(sum(steps)))
    return TimeGrid(tuple(steps))


@settings(max_examples=150, deadline=None)
@given(oracle_grids())
@example(TimeGrid((1e300, 1e100, 1e-100, 1e-300)))  # r_3 r_2 = 1e-400 underflows
def test_certify_stops_at_the_exact_ldlt_stop_level(grid):
    # the float verdict reads the step ratios alone; the exact factorization
    # of B + B^T - 2 gamma Lambda^{-1} reads the steps as exact rationals.
    # The recursion's positive pivots agree within 1e-12 relative (3.3e-14
    # seen in 3,000 grids)
    exact = shifted_pivots(grid.steps)
    ok, certified = certify_positive_definite(grid)
    trace = sylvester_trace_shifted(grid)
    assert certified.first_negative == trace.first_negative == (
        len(exact) if exact[-1] <= 0 else None)
    assert ok == (certified.first_negative is None)
    positive = [float(p) for p in exact if p > 0]
    assert list(trace.p[:len(positive)]) == pytest.approx(positive, rel=1e-12, abs=0.0)


@settings(max_examples=150, deadline=None)
@given(oracle_grids(_box_ratios))
@example(TimeGrid((1e-323, 1.5e-323)))  # passes b <= 1.405 a, yet its ratio is 1.5
@example(TimeGrid((1e300, 1e-300, 1e-300)))  # r_2 underflows to 0.0
def test_certify_in_the_ratio_box_gives_the_exact_verdict(grid):
    # the ratio theorem decides normal in-box grids without the recursion;
    # every verdict, shortcut or not, is that of the exact factorization
    exact = shifted_pivots(grid.steps)
    assert certify_positive_definite(grid)[0] == (exact[-1] > 0)
