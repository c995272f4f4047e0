import hashlib
import math
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import certified_grid, make_rng, wild_grid
from dense_oracles import step_scaled_matrix
from eigen_oracles import min_symmetric_eigenvalue, spectral_norm
from exact_oracles import shifted_pivots
from vsbdf3 import ratio_analysis
from vsbdf3.bdf_kernels import assemble_B, kernel_weights
from vsbdf3.cli import main
from vsbdf3.ratio_analysis import (
    GAMMA,
    KAPPA_MAX,
    KAPPA_MIN,
    LAMBDA_MAX,
    LAMBDA_MIN,
    SWEEP_KAPPAS,
    SylvesterTrace,
    certify_positive_definite,
    envelope_transfer_factor,
    generating_function,
    pivot_lower_certificate,
    pivot_upper_certificate,
    subdiagonal_certificate,
    subdiagonal_envelopes,
    sweep_lemma_bounds,
    sylvester_trace_A_from_ratios,
    sylvester_trace_shifted,
)
from vsbdf3.time_grid import (
    MAX_CERTIFIED_RATIO,
    build_from_ratios,
    build_from_steps,
    build_uniform,
)


def test_constants_are_the_published_values():
    assert GAMMA == 1 / 200
    assert (KAPPA_MIN, KAPPA_MAX) == (0.25, 1.4)
    assert (LAMBDA_MIN, LAMBDA_MAX) == (1.99, 3.99)
    assert MAX_CERTIFIED_RATIO == 1.405


def test_generating_function_hand_values():
    # equal ratios r=1 give the uniform weights, which sum to 1 at x=1
    assert generating_function(1.0, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert generating_function(1.732, 0.434) < 0.0
    assert generating_function(1.5, 0.0) > 0.0


def test_generating_function_vectorized():
    x = np.linspace(-1.0, 1.0, 11)
    out = generating_function(1.2, x)
    assert out.shape == x.shape
    assert out[5] == pytest.approx(generating_function(1.2, 0.0))


def test_generating_function_refuses_ratios_that_overflow_its_coefficients():
    # r^2 overflows above about 1.34e154; a ratio whose square underflows to
    # zero still gives the finite coefficients (1, -0, 0)
    with pytest.raises(ValueError, match="ratio 1e\\+200 gives non-finite coefficients"):
        generating_function(1e200, 0.0)
    assert generating_function(1e-200, 0.5) == 1.0


@pytest.mark.parametrize("r", [0.0, math.nan, math.inf])
def test_generating_function_refuses_a_ratio_that_is_not_positive_and_finite(r):
    with pytest.raises(ValueError, match="^ratio must be positive and finite"):
        generating_function(r, 0.0)


def test_sylvester_A_uniform_two_levels():
    tr = sylvester_trace_A_from_ratios(build_uniform(2, 2.0).ratios)
    assert tr.p == pytest.approx((2.0, 23 / 8))
    assert tr.q[1] == pytest.approx(-0.5)
    assert tr.first_negative is None
    assert tr.positive


def test_sylvester_A_grid_and_ratio_forms_agree():
    # the ratio-only pivots are those of the grid's step-scaled A + A^T:
    # p_1 ... p_j is its leading j x j minor
    g = certified_grid(make_rng(0), 40)
    tr = sylvester_trace_A_from_ratios(g.ratios)
    A = step_scaled_matrix(g)
    S = A + A.T
    assert tr.positive
    minors = [np.linalg.slogdet(S[:j, :j]) for j in range(1, g.n_steps + 1)]
    assert all(sign == 1.0 for sign, _ in minors)
    np.testing.assert_allclose(np.cumsum(np.log(tr.p)), [log for _, log in minors],
                               rtol=0, atol=1e-11)


def test_sylvester_A_constant_unit_ratio_stays_positive():
    tr = sylvester_trace_A_from_ratios([1.0] * 99)
    assert tr.first_negative is None
    assert min(tr.p) > 0.0


def test_sylvester_A_truncates_at_first_nonpositive_pivot():
    tr = sylvester_trace_A_from_ratios([1.732] * 119)
    assert tr.first_negative is not None
    assert len(tr.p) == tr.first_negative
    assert tr.p[-1] <= 0.0
    assert min(tr.p[:-1]) > 0.0
    assert not tr.positive


def test_shifted_trace_uniform_hand_values():
    tr = sylvester_trace_shifted(build_uniform(2, 2.0))
    assert tr.p[0] == pytest.approx(1.99)
    assert tr.q[1] == pytest.approx(-0.5)
    assert tr.p[1] == pytest.approx(2.99 - 0.25 / 1.99)


def test_shifted_diagonal_is_doubled_and_shifted_leading_weight():
    # the recursion's diagonal entries must equal the step-free 2*beta_0 -
    # 2*gamma at every level; spot-check through tau_1 p_1 and the level structure
    rng = make_rng(1)
    for _ in range(50):
        g = certified_grid(rng, int(rng.integers(1, 30)))
        tr = sylvester_trace_shifted(g)
        b0 = kernel_weights(g)[0, 0]
        want = 2 * b0 * g.step(1) - 2 * GAMMA
        assert tr.p[0] == pytest.approx(want, rel=1e-13)


def test_envelope_formulas_hand_value():
    mu, nu = subdiagonal_envelopes(1.0, 1.0)
    # common factor r_j^2 r_{j-1}^4 (1+r_j) / ((1+r_{j-1})^2 (1+r_{j-1}+r_j r_{j-1})) = 1/6
    assert mu == pytest.approx(0.25 / 6)
    assert nu == pytest.approx(1.4 / 6)
    assert mu <= nu


@pytest.mark.parametrize("ratios", [1.2, [[1.2, 1.3], [1.1, 1.0]]])
def test_trace_from_ratios_rejects_malformed_ratios(ratios):
    with pytest.raises(ValueError, match="ratios must be a 1-D sequence"):
        sylvester_trace_A_from_ratios(ratios)


@pytest.mark.parametrize("consumer", [sylvester_trace_A_from_ratios,
                                      lambda ratios: build_from_ratios(ratios, 1.0)])
@pytest.mark.parametrize("ratios, message", [
    (1.2, "ratios must be a 1-D sequence"),
    ([[1.2, 1.3]], "ratios must be a 1-D sequence"),
    ([1.2, 0.0], "ratios must be positive and finite"),
    ([-1.0], "ratios must be positive and finite"),
    ([1.2, math.inf], "ratios must be positive and finite"),
    ([math.nan], "ratios must be positive and finite"),
])
def test_ratio_consumers_reject_bad_ratios_alike(consumer, ratios, message):
    with pytest.raises(ValueError, match=message):
        consumer(ratios)


def test_trace_from_ratios_survives_a_product_of_ratios_that_underflows():
    # r_3 r_2 = 1e-400 is zero in floats; a2 = beta_2 / (sqrt(r_3) sqrt(r_2))
    # is 0.0, and every pivot is the exact 2
    assert sylvester_trace_A_from_ratios([1e-200, 1e-200]).p == (2.0, 2.0, 2.0)


def test_certification_accepts_threshold_ratio_chain():
    grid = build_from_ratios([1.405] * 99, 1.0)
    ok, tr = certify_positive_definite(grid)
    assert ok
    assert tr.first_negative is None
    full = sylvester_trace_shifted(grid)
    assert full.first_negative is None and len(full.p) == 100


def test_the_ratio_box_constant_keeps_exact_ratios_in_the_box():
    # for normal a, fl(_BOX * a) >= b gives b / a <= _BOX (1 + 2^-53) exactly,
    # which must not pass the decimal 1.405 (the float 1.405 lies above it)
    box = ratio_analysis._BOX
    assert box == math.nextafter(MAX_CERTIFIED_RATIO, 0.0)
    assert Fraction(MAX_CERTIFIED_RATIO) > Fraction(1405, 1000)
    assert Fraction(box) * (1 + Fraction(1, 2**53)) <= Fraction(1405, 1000)


def test_certify_runs_the_recursion_only_outside_the_ratio_box(monkeypatch):
    calls = []
    elimination = ratio_analysis._elimination

    def counting(*args):
        calls.append(args)
        return elimination(*args)

    monkeypatch.setattr(ratio_analysis, "_elimination", counting)
    rng = make_rng(11)
    for n in (1, 2, 50):
        assert certify_positive_definite(certified_grid(rng, n)) == (True, SylvesterTrace((), ()))
    assert calls == []
    # subnormal steps pass b <= 1.405 * a at the ratio 1.5; the float 1.405 is above the box
    for steps in [(1e-323, 1.5e-323), (1.0, 1.405)]:
        calls.clear()
        ok, trace = certify_positive_definite(build_from_steps(steps))
        assert len(calls) == 1
        assert (ok, trace) == (True, sylvester_trace_shifted(build_from_steps(steps)))
        assert shifted_pivots(steps)[-1] > 0


def test_certify_stops_where_the_exact_factorization_does():
    # 100 grids inside the ratio box and 100 wild ones, N <= 30: the float
    # verdict and the recursion stop at the level of the first nonpositive
    # exact pivot, and every pivot the recursion computes is within 1e-12
    # relative of the exact one (7e-14 seen)
    rng = make_rng(1010)
    verdicts = []
    for make in [certified_grid] * 100 + [wild_grid] * 100:
        grid = make(rng, int(rng.integers(1, 31)))
        exact = shifted_pivots(grid.steps)
        want = len(exact) if exact[-1] <= 0 else None
        ok, certified = certify_positive_definite(grid)
        trace = sylvester_trace_shifted(grid)
        verdicts.append(certified.first_negative)
        assert certified.first_negative == trace.first_negative == want
        assert ok == (want is None)
        assert list(trace.p) == pytest.approx([float(p) for p in exact], rel=1e-12, abs=0.0)
    assert verdicts[:100] == [None] * 100 and verdicts.count(None) < 150


def test_certification_rejects_steep_chain():
    ok, tr = certify_positive_definite(build_from_ratios([1.732] * 55, 1.0))
    assert not ok
    assert tr.first_negative == 30


def test_pivot_at_the_stop_stays_finite_however_small_the_step():
    # the trace reports the step-free pivot tau_j p_j, so a stop at a level
    # whose step is about 3e-305 gives a finite nonpositive pivot
    grid = build_from_ratios([7.0, 10.0, 1e300, 6.0, 7.0, 24.0, 34.0], 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ok, tr = certify_positive_definite(grid)
    assert not ok
    assert tr.first_negative == 3
    assert all(map(math.isfinite, tr.p + tr.q))
    assert tr.p[2] <= 0.0


# steps falling by 1e-3 to 1.3e-160, then growing by 1.4: B's pivots near 2e160
_TINY_STEPS = [10.0 ** (-3 * k) for k in range(54)] + [1.3e-160 * 1.4**k for k in range(21)]


@pytest.mark.parametrize("grid, first_negative, sha256", [
    (lambda: certified_grid(make_rng(19), 300), None,
     "2dbecb95b62fb7e8a624c227f0276dc2e0f321b0a2263ee39ac780dee1e7eab9"),
    (lambda: wild_grid(make_rng(0), 300), 24,
     "bae01915c6c17e107be661b29d4981535b1656e87d3a46585ea68c8508c5c286"),
    (lambda: build_from_steps(_TINY_STEPS), None,
     "97169a6bef3839478064c96fc507fd91c12f1d5002a4b363d05e565277530a58"),
], ids=["certified", "wild-stops-early", "step-1e-160"])
def test_shifted_trace_bytes_are_pinned(grid, first_negative, sha256):
    # the bytes of p then q, so any change in the elimination's arithmetic shows
    g = grid()
    tr = sylvester_trace_shifted(g)
    assert tr.first_negative == first_negative
    assert len(tr.p) == len(tr.q) == (first_negative or g.n_steps)
    packed = struct.pack(f"<{len(tr.p)}d", *tr.p) + struct.pack(f"<{len(tr.q)}d", *tr.q)
    assert hashlib.sha256(packed).hexdigest() == sha256


def test_lemma_functions_hand_values():
    assert envelope_transfer_factor(0.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert pivot_upper_certificate(0.0, 0.0) == pytest.approx(-2.0, abs=1e-14)
    assert subdiagonal_certificate(1.0, 0.0) == pytest.approx(-0.5, abs=1e-14)
    # the lower pivot certificate vanishes when the incoming ratio is zero;
    # it samples as rounding there, the exact zero that the sweep's 1e-12 allows for
    y = np.linspace(0.0, MAX_CERTIFIED_RATIO, 20_001)
    assert np.abs(pivot_lower_certificate(0.0, y)).max() <= 1e-12


def test_pivot_certificate_follows_gamma(monkeypatch):
    # t1 carries the numerator of 2*beta_0 - 2*gamma, that is
    # 2*N0 - 2*gamma*(1+x)(1+y+xy), so raising gamma by d lowers the lower
    # certificate by 2*d*((1+x)(1+y+xy))^2 (1+y)^4
    x, y = 1.2, 0.7
    before = pivot_lower_certificate(x, y)
    monkeypatch.setattr(ratio_analysis, "GAMMA", 0.01)
    after = pivot_lower_certificate(x, y)
    mix = 1.0 + y + x * y
    drop = 2.0 * (0.01 - 1.0 / 200.0) * ((1.0 + x) * mix) ** 2 * (1.0 + y) ** 4
    assert before - after == pytest.approx(drop, rel=1e-9)


def test_quick_lemma_sweep_passes_at_coarse_resolution():
    res = sweep_lemma_bounds(resolution=0.05)
    assert res.passed
    assert SWEEP_KAPPAS == (0.25, 0.5, 1.0, 1.4)
    assert res.transfer_min >= 1.0 - 1e-12
    assert res.transfer_max <= 2.7 + 1e-12
    assert res.subdiag_max <= 1e-12
    assert res.pivot_lower_min >= -1e-12
    assert res.pivot_upper_max <= 1e-12


def test_lemma_sweep_refuses_a_pivot_certificate_just_below_zero(monkeypatch, capsys):
    # one tolerance, 1e-12, covers the rounding at the exact zero on x = 0
    # (about 1e-13); a certificate shifted by -1e-11 everywhere fails the sweep
    lower = ratio_analysis.pivot_lower_certificate
    monkeypatch.setattr(ratio_analysis, "pivot_lower_certificate",
                        lambda x, y: lower(x, y) - 1e-11)
    res = sweep_lemma_bounds(resolution=0.05)
    assert not res.passed and res.pivot_lower_min <= -1e-11
    assert main(["validate-lemmas", "--resolution", "0.05"]) == 1
    assert capsys.readouterr().out.endswith("BOUND VIOLATION\n")


def test_blocked_sweep_equals_a_full_box_evaluation():
    # 0.01 gives 141 rows of x, three blocks; min and max are exact, so the
    # blocked extremes equal those of the whole box to the bit
    res = sweep_lemma_bounds(resolution=0.01)
    axis = np.linspace(0.0, MAX_CERTIFIED_RATIO, round(MAX_CERTIFIED_RATIO / 0.01) + 1)
    assert axis.size > 2 * ratio_analysis._SWEEP_BLOCK_ROWS
    x, y = np.meshgrid(axis, axis, indexing="ij")
    t = np.stack([envelope_transfer_factor(x, y, kappa) for kappa in SWEEP_KAPPAS])
    s = subdiagonal_certificate(x, y)
    lo, hi = pivot_lower_certificate(x, y), pivot_upper_certificate(x, y)
    want = {
        "transfer_min": t.min(), "transfer_max": t.max(),
        "subdiag_min": s.min(), "subdiag_max": s.max(),
        "pivot_lower_min": lo.min(), "pivot_lower_max": lo.max(),
        "pivot_upper_min": hi.min(), "pivot_upper_max": hi.max(),
    }
    for name, value in want.items():
        got = getattr(res, name)
        assert type(got) is float and repr(got) == repr(float(value)), name
    assert res.resolution == 0.01 and res.passed


def test_min_symmetric_eigenvalue_known_matrices():
    assert min_symmetric_eigenvalue(np.diag([3.0, -1.0, 2.0])) == pytest.approx(-1.0)
    assert min_symmetric_eigenvalue(np.zeros((4, 4))) == 0.0
    assert min_symmetric_eigenvalue(np.array([[5.0]])) == 5.0
    # asymmetric input is symmetrized first
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    assert min_symmetric_eigenvalue(m) == pytest.approx(0.0, abs=1e-12)


def test_min_symmetric_eigenvalue_matches_lapack():
    rng = make_rng(3)
    for _ in range(40):
        n = int(rng.integers(2, 25))
        x = rng.standard_normal((n, n))
        s = x + x.T
        mine = min_symmetric_eigenvalue(s)
        ref = float(np.linalg.eigvalsh(s).min())
        assert mine == pytest.approx(ref, abs=1e-10 * max(1.0, abs(ref)))


def test_min_symmetric_eigenvalue_handles_graded_scales():
    # kernel matrices of strongly graded grids mix entries over ~20 orders
    # of magnitude; the sweep must still terminate and agree with LAPACK
    g = build_from_ratios([0.15] * 25, 1.0)
    km = assemble_B(g)
    s = km.B + km.B.T - 2 * GAMMA * np.diag(1.0 / np.asarray(g.steps))
    mine = min_symmetric_eigenvalue(s)
    ref = float(np.linalg.eigvalsh(s).min())
    assert mine == pytest.approx(ref, rel=1e-8)


def test_spectral_norm_known_values():
    assert spectral_norm(np.diag([2.0, 3.0])) == pytest.approx(3.0)
    assert spectral_norm(np.zeros((3, 3))) == 0.0
    with pytest.raises(ValueError):
        spectral_norm(np.ones((2, 3)))


def test_spectral_norm_matches_svd():
    rng = make_rng(4)
    for _ in range(40):
        n = int(rng.integers(2, 30))
        m = rng.standard_normal((n, n))
        ref = float(np.linalg.svd(m, compute_uv=False)[0])
        assert spectral_norm(m) == pytest.approx(ref, rel=1e-8)
