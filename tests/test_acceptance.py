"""Acceptance suite: the eleven gate criteria, one verdict line each.

Each test prints `criterion NN [label]: PASS/FAIL (measurements)` and then
asserts, so the verdict and the measured margins are visible in the log
regardless of the assertion outcome.  Reference numbers and the frozen
counterexample index were produced by independent oracle runs before this
suite was written and are pinned here as constants.
"""

import math
import time

import numpy as np

from conftest import certified_grid, inverse_kernel_matrix, make_rng, wild_grid
from eigen_oracles import min_symmetric_eigenvalue, spectral_norm
from vsbdf3.allen_cahn import (
    SolverConfig,
    consistency_probe,
    default_energy_initial_data,
    levels,
)
from vsbdf3.bdf_kernels import apply_D3, assemble_B, kernel_weights
from vsbdf3.cli import run_convergence
from vsbdf3.ratio_analysis import (
    GAMMA,
    LAMBDA_MAX,
    LAMBDA_MIN,
    certify_positive_definite,
    generating_function,
    subdiagonal_envelopes,
    sweep_lemma_bounds,
    sylvester_trace_A_from_ratios,
    sylvester_trace_shifted,
)
from vsbdf3.spectral import energy, fourier_operator, l2_norm
from vsbdf3.time_grid import build_from_ratios, build_uniform, random_bounded_grid

# reference L2 errors for the alternating-step study, M=20, N=20/40/80/160
REFERENCE_ERRORS = {
    0.16: (2.8069e-04, 3.5943e-05, 4.5427e-06, 5.7085e-07),
    0.36: (1.9512e-04, 2.4542e-05, 3.0751e-06, 3.8478e-07),
}

# first nonpositive pivot of the ratio-form recursion at constant ratio 1.732,
# frozen from a determinant oracle run before this suite existed
FIRST_NONPOSITIVE_INDEX = 90


def _report(capsys, num, label, ok, detail=""):
    line = f"criterion {num:02d} [{label}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        # verdict stays visible even while pytest captures test output
        print(line, flush=True)
    assert ok, line


def test_criterion_01_alternating_grid_error_table(capsys):
    t0 = time.perf_counter()
    reports = run_convergence("1", [0.16, 0.36], [20, 40, 80, 160], m=20)
    elapsed = time.perf_counter() - t0

    worst_dev = 0.0
    rates = []
    for rep in reports:
        ref = REFERENCE_ERRORS[rep.eps2]
        for row, expected in zip(rep.rows, ref):
            worst_dev = max(worst_dev, abs(row.error - expected) / expected)
        rates.extend(row.rate for row in rep.rows[1:])
    ok = worst_dev <= 0.20 and all(2.85 <= r <= 3.05 for r in rates) and elapsed < 120.0
    _report(capsys, 1, "alternating-grid error table", ok,
            f"max deviation {100 * worst_dev:.1f}% of reference, "
            f"rates {min(rates):.4f}..{max(rates):.4f}, {elapsed:.1f} s")


def test_criterion_02_random_grid_convergence_slope(capsys):
    ns = [20, 40, 80, 160]
    slopes = []
    for seed in (1, 2, 3):
        reports = run_convergence("2", [0.16, 0.36], ns, m=20, seed=seed)
        for rep in reports:
            errs = [row.error for row in rep.rows]
            slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
            slopes.append(float(slope))
    ok = all(2.5 <= s <= 3.3 for s in slopes)
    _report(capsys, 2, "random-grid convergence slope", ok,
            f"6 slopes in {min(slopes):.4f}..{max(slopes):.4f}, window [2.5, 3.3]")


def test_criterion_03_inverse_kernel_identity(capsys):
    rng = make_rng(1403)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        g = certified_grid(rng, n)
        resid = np.max(np.abs(inverse_kernel_matrix(g) @ assemble_B(g).B - np.eye(n)))
        worst = max(worst, float(resid))
    ok = worst < 1e-11
    _report(capsys, 3, "inverse-kernel identity", ok,
            f"1000 grids (N <= 200), max |D*B - I| = {worst:.3e}")


def test_criterion_04_pivot_envelopes_and_certification(capsys):
    rng = make_rng(1404)
    worst_env = -math.inf
    all_certified = True
    eig_agree = 0
    eig_total = 0
    for trial in range(10_000):
        n = int(rng.integers(1, 101))
        g = certified_grid(rng, n)
        ok_cert, tr = certify_positive_definite(g)
        all_certified = all_certified and ok_cert and tr.first_negative is None
        tau = g.steps
        b = kernel_weights(g)
        # the coupling envelopes of levels j >= 3, from the closed form on the grid's arrays
        mu, nu = subdiagonal_envelopes(np.asarray(tau[2:]), np.asarray(g.ratios[1:]),
                                       np.asarray(g.ratios[:-1]))
        for j in range(1, n + 1):
            # the trace gives tau_j p_j, which the lemmas bound, and the
            # coupling tau_j q_j / sqrt(r_j), brought back to B's scale here
            tau_p = tr.p[j - 1]
            worst_env = max(worst_env, (LAMBDA_MIN - 1e-10) - tau_p, tau_p - (LAMBDA_MAX + 1e-10))
            if j >= 3:
                s = 1e-10 / tau[j - 1]
                b1 = b[j - 1, 1]
                qj = tr.q[j - 1] * math.sqrt(g.ratios[j - 2]) / tau[j - 1]
                lo = b1 + mu[j - 3]
                hi = b1 + nu[j - 3]
                worst_env = max(worst_env, lo - s - qj, qj - (hi + s), hi - s)
        if trial % 100 == 0:
            km = assemble_B(g)
            shifted = km.B + km.B.T - 2.0 * GAMMA * np.diag(1.0 / np.asarray(tau))
            lam = min_symmetric_eigenvalue(shifted)
            eig_total += 1
            if (lam > 0.0) == ok_cert:
                eig_agree += 1
    ok = all_certified and worst_env <= 0.0 and eig_agree == eig_total
    _report(capsys, 4, "pivot envelopes and certification", ok,
            f"10^4 grids certified, worst envelope violation {worst_env:.3e}, "
            f"eigenvalue oracle agreement {eig_agree}/{eig_total}")


def test_criterion_05_steep_ratio_counterexample(capsys):
    tr = sylvester_trace_A_from_ratios([1.732] * 119)
    # independent in-test oracle: first leading principal minor of A + A^T
    # that fails to be positive, by dense determinants
    g = build_from_ratios([1.732] * 119, 1.0)
    s = assemble_B(g).A
    s = s + s.T
    det_index = None
    for j in range(1, s.shape[0] + 1):
        if np.linalg.det(s[:j, :j]) <= 0.0:
            det_index = j
            break
    safe = sylvester_trace_A_from_ratios([1.405] * 9999)
    ok = (tr.first_negative == FIRST_NONPOSITIVE_INDEX
          and det_index == FIRST_NONPOSITIVE_INDEX
          and safe.first_negative is None and min(safe.p) > 0.0)
    _report(capsys, 5, "steep-ratio counterexample", ok,
            f"ratio 1.732 fails at pivot {tr.first_negative} "
            f"(determinant oracle: {det_index}); ratio 1.405 positive through 10^4")


def test_criterion_06_generating_function_sign(capsys):
    steep = float(generating_function(1.732, 0.434))
    x = np.linspace(-1.0, 1.0, 2001)
    safe = generating_function(1.405, x)
    ok = steep < 0.0 and bool(np.all(safe > 0.0))
    _report(capsys, 6, "generating-function sign", ok,
            f"g(0.434; 1.732) = {steep:.3e} < 0, min over [-1,1] at 1.405 = "
            f"{float(safe.min()):.3e} > 0")


def test_criterion_07_certificate_bound_sweep(capsys):
    res = sweep_lemma_bounds(resolution=0.005)
    ok = (res.passed
          and res.transfer_min >= 1.0 - 1e-12 and res.transfer_max <= 2.7 + 1e-12
          and res.subdiag_max <= 1e-12
          and res.pivot_lower_min >= -1e-9
          and res.pivot_upper_max <= 1e-9)
    _report(capsys, 7, "certificate bound sweep", ok,
            f"transfer [{res.transfer_min:.6f}, {res.transfer_max:.6f}], "
            f"subdiag max {res.subdiag_max:.2e}, pivot lower min "
            f"{res.pivot_lower_min:.2e}, pivot upper max {res.pivot_upper_max:.2e}")


def test_criterion_08_energy_dissipation(capsys):
    op = fourier_operator(32)
    grid = random_bounded_grid(200, 0.01, seed=8)
    cfg = SolverConfig(grid, op, eps2=0.16, forcing="none",
                       initial_data=default_energy_initial_data)
    u0 = cfg.initial_state
    e0 = energy(op, u0, 0.16)
    bound = math.sqrt(4.0 * e0 / 0.16 + (2.0 + 0.16) * float(op.w.sum())) + 1e-8

    def norms(u):
        grad = math.sqrt(float(op.w @ ((op.Gx @ u) ** 2 + (op.Gy @ u) ** 2)))
        return l2_norm(op, u) + grad

    # the bound is checked on each level's field as levels yields it
    excess, worst_state = 0.0, norms(u0)
    for u, _ in levels(cfg):
        excess = max(excess, energy(op, u, 0.16) - e0)
        worst_state = max(worst_state, norms(u))
    ok = excess <= 1e-10 and worst_state <= bound
    _report(capsys, 8, "energy dissipation", ok,
            f"200 random-ratio steps, max energy excess {excess:.3e}, "
            f"max ||u|| + ||grad u|| = {worst_state:.3f} vs bound {bound:.3f}")


def test_criterion_09_consistency_order(capsys):
    ns = (40, 80, 160, 320)
    maxima = []
    for n in ns:
        g = build_uniform(n, 1.0)
        eta = consistency_probe(g, lambda t: t**4, lambda t: 4 * t**3)
        maxima.append(float(np.max(eta[2:])))
    slope = -float(np.polyfit(np.log(ns), np.log(maxima), 1)[0])
    g = build_uniform(40, 1.0)
    eta3 = consistency_probe(g, lambda t: t**3, lambda t: 3 * t**2)
    cubic_resid = float(np.max(eta3[2:]))
    ok = abs(slope - 3.0) <= 0.1 and cubic_resid <= 1e-10
    _report(capsys, 9, "consistency order", ok,
            f"quartic slope {slope:.4f} (target 3 +- 0.1), "
            f"cubic residual {cubic_resid:.3e}")


def test_criterion_10_inverse_norm_bound(capsys):
    rng = make_rng(1410)
    shifts = (0.5, 1.0, 2.0)
    violations = 0
    tightest = math.inf
    for trial in range(500):
        c = shifts[trial % 3]
        n = int(rng.integers(2, 41))
        r = rng.standard_normal((n, n))
        x = rng.standard_normal((n, n))
        m = c * np.eye(n) + r @ r.T + (x - x.T)
        norm = spectral_norm(np.linalg.inv(m))
        tightest = min(tightest, 1.0 / c - norm)
        if norm >= 1.0 / c:
            violations += 1
    ok = violations == 0
    _report(capsys, 10, "inverse norm bound", ok,
            f"500 trials, {violations} violations, tightest margin {tightest:.4f}")


def test_criterion_11_cubic_exactness_wild_ratios(capsys):
    rng = make_rng(1411)
    worst = 0.0
    max_ratio_seen = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 40))
        g = wild_grid(rng, n, cap=44.0)
        max_ratio_seen = max(max_ratio_seen, max(g.ratios))
        c = rng.uniform(1.0, 2.0, size=4)
        t = g.levels
        hist = list(c[3] * t**3 + c[2] * t**2 + c[1] * t + c[0])
        b = kernel_weights(g)
        for j in range(3, n + 1):
            want = 3 * c[3] * t[j] ** 2 + 2 * c[2] * t[j] + c[1]
            got = apply_D3(b[j - 1], hist[: j + 1])
            worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-9
    _report(capsys, 11, "cubic exactness at wild ratios", ok,
            f"100 grids, ratios up to {max_ratio_seen:.1f}, "
            f"worst relative error {worst:.3e}")
