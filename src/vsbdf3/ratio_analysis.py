"""Step-ratio analysis: pivot recursions, bound certificates, eigen oracles.

Positive definiteness of the kernel matrices is decided by running the
symmetric-elimination pivot recursion on their banded entries (Sylvester's
criterion applied minor by minor) and stopping at the first nonpositive
pivot.  The banded entries, step-scaled or gamma-shifted, are derived from
the one ratio-weight table of bdf_kernels.  The closed-form certificate
functions bound those pivots and the subdiagonal couplings on the certified
ratio box [0, 1.405]^2.

The eigenvalue routines at the bottom are deliberately self-contained
(cyclic Jacobi sweeps, power iteration) so the certification path and its
oracle share no linear-algebra machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bdf_kernels import ratio_weights
from .time_grid import DEFAULT_RATIO_THRESHOLD, TimeGrid

__all__ = [
    "GAMMA",
    "KAPPA_MIN",
    "KAPPA_MAX",
    "LAMBDA_MIN",
    "LAMBDA_MAX",
    "MAX_CERTIFIED_RATIO",
    "SylvesterTrace",
    "LemmaSweepResult",
    "generating_function",
    "sylvester_trace_A",
    "sylvester_trace_A_from_ratios",
    "sylvester_trace_shifted",
    "subdiagonal_envelopes",
    "certify_positive_definite",
    "envelope_transfer_factor",
    "subdiagonal_certificate",
    "pivot_lower_certificate",
    "pivot_upper_certificate",
    "pivot_certificate_scales",
    "lemma_functions",
    "sweep_lemma_bounds",
    "min_symmetric_eigenvalue",
    "spectral_norm",
    "EigenConvergenceError",
    "PowerIterationError",
]

# Shift applied to the kernel diagonal before certification.
GAMMA = 1.0 / 200.0
# Envelope constants for the subdiagonal couplings.
KAPPA_MIN = 0.25
KAPPA_MAX = 1.4
# Certified bounds on tau_j * p_j.
LAMBDA_MIN = 1.99
LAMBDA_MAX = 3.99
# Largest adjacent-step ratio the certificates cover.
MAX_CERTIFIED_RATIO = DEFAULT_RATIO_THRESHOLD


class EigenConvergenceError(RuntimeError):
    """Jacobi sweeps failed to reduce the off-diagonal norm."""


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge within the iteration budget."""


@dataclass(frozen=True)
class SylvesterTrace:
    """Pivots p_j and couplings q_j of the symmetric elimination.

    p[j-1] holds p_j; q is padded with q_1 = 0 (no coupling exists at j=1)
    so both run over the same levels.  When a nonpositive pivot appears the
    recursion stops there: first_negative is its 1-based level and p/q end
    at that level.  mu/nu carry the coupling envelopes of the shifted
    variant for every grid level (zero for levels 1 and 2); they are None
    for the dimensionless variant.
    """

    p: tuple[float, ...]
    q: tuple[float, ...]
    first_negative: int | None = None
    mu: tuple[float, ...] | None = None
    nu: tuple[float, ...] | None = None

    @property
    def positive(self) -> bool:
        return self.first_negative is None


def _scaled_weights(ratios) -> np.ndarray:
    """Rows (a0, a1, a2) of A = Lambda^{1/2} B Lambda^{1/2}, ratios only.

    a_0 = beta_0, a_1 = beta_1 / sqrt(r_n), a_2 = beta_2 / sqrt(r_n r_{n-1}),
    with the table layout of ratio_weights.
    """
    r = np.asarray(ratios, dtype=float)
    a = ratio_weights(r)
    a[1:, 1] /= np.sqrt(r)
    a[2:, 2] /= np.sqrt(r[1:] * r[:-1])
    return a


def generating_function(r: float, x) -> np.ndarray | float:
    """Quadratic 2*a2*x^2 + a1*x + (a0 - a2) at equal trailing ratios r.

    Positivity on [-1, 1] is equivalent to positive semi-definiteness of the
    constant-ratio kernel symbol; it fails inside the interval for r = 1.732.
    """
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"ratio must be positive and finite, got {r!r}")
    a0, a1, a2 = _scaled_weights([r, r])[2]
    x = np.asarray(x, dtype=float)
    out = 2.0 * a2 * x**2 + a1 * x + (a0 - a2)
    return float(out) if out.ndim == 0 else out


def _pivot_recursion(diag, sub, subsub):
    """Shared elimination core on the banded entries of S = K + K^T.

    Entry i (0-based) of each array belongs to level i+1: diag[i] is the
    full diagonal entry, sub[i] the (i, i-1) entry (i >= 1), subsub[i] the
    (i, i-2) entry (i >= 2).  Returns (p, q, first_negative) with the
    early-stop convention of SylvesterTrace.
    """
    diag, sub, subsub = diag.tolist(), sub.tolist(), subsub.tolist()
    p, q = [diag[0]], [0.0]
    if len(diag) >= 2 and p[0] > 0.0:
        q.append(sub[1])
        p.append(diag[1] - sub[1] * sub[1] / p[0])
        for j in range(2, len(diag)):
            if p[-1] <= 0.0:
                break
            qj = sub[j] - (q[j - 1] / p[j - 2]) * subsub[j]
            q.append(qj)
            p.append(diag[j] - subsub[j] ** 2 / p[j - 2] - qj * qj / p[j - 1])
    first_negative = len(p) if p[-1] <= 0.0 else None
    return tuple(p), tuple(q), first_negative


def sylvester_trace_A_from_ratios(ratios) -> SylvesterTrace:
    """Pivot recursion for the step-scaled kernel matrix, ratios only.

    The scaled matrix depends on the steps solely through adjacent ratios,
    so arbitrarily long constant-ratio chains can be traced without ever
    materializing a step sequence.
    """
    ratios = np.asarray(ratios, dtype=float)
    if np.any(~np.isfinite(ratios)) or np.any(ratios <= 0.0):
        raise ValueError("ratios must be positive and finite")
    a = _scaled_weights(ratios)
    p, q, first = _pivot_recursion(2.0 * a[:, 0], a[:, 1], a[:, 2])
    return SylvesterTrace(p=p, q=q, first_negative=first)


def sylvester_trace_A(grid: TimeGrid) -> SylvesterTrace:
    """Pivot recursion for Lambda^{1/2} B Lambda^{1/2} + transpose."""
    return sylvester_trace_A_from_ratios(grid.ratios)


def subdiagonal_envelopes(tau_j, r_j, r_jm1):
    """Envelope pair (mu_j, nu_j) bracketing the coupling q_j for j >= 3.

    The arguments may be scalars or arrays of one shape.
    """
    base = (r_j**2) * (r_jm1**4) * (1.0 + r_j) / (
        tau_j * (1.0 + r_jm1) ** 2 * (1.0 + r_jm1 + r_j * r_jm1)
    )
    return KAPPA_MIN * base, KAPPA_MAX * base


def sylvester_trace_shifted(grid: TimeGrid) -> SylvesterTrace:
    """Pivot recursion for the gamma-shifted kernel matrix B - gamma*Lambda^{-1}.

    The shifted diagonal (2*beta_0 - 2*gamma) / tau absorbs both the
    transpose doubling and the shift; sub- and sub-subdiagonal entries are
    the plain kernel weights beta_k / tau.
    """
    tau = np.asarray(grid.steps)
    r = np.asarray(grid.ratios, dtype=float)
    beta = ratio_weights(r)
    diag = (2.0 * beta[:, 0] - 2.0 * GAMMA) / tau
    p, q, first = _pivot_recursion(diag, beta[:, 1] / tau, beta[:, 2] / tau)
    mu, nu = np.zeros((2, grid.n_steps))
    mu[2:], nu[2:] = subdiagonal_envelopes(tau[2:], r[1:], r[:-1])
    return SylvesterTrace(p=p, q=q, first_negative=first,
                          mu=tuple(mu.tolist()), nu=tuple(nu.tolist()))


def certify_positive_definite(grid: TimeGrid) -> tuple[bool, SylvesterTrace]:
    """True iff every pivot of the shifted kernel matrix stays positive."""
    trace = sylvester_trace_shifted(grid)
    return trace.positive, trace


# ---------------------------------------------------------------------------
# closed-form bound certificates on the ratio box [0, 1.405]^2


def envelope_transfer_factor(x, y, kappa):
    """Factor carrying the coupling envelope one level forward; in [1, 2.7]."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    num = (1.0 + 2.0 * y + x * y) ** 2 - y * (1.0 + y)
    mix = 1.0 + y + x * y
    out = num / ((1.0 + y) * mix) - kappa * y**4 * (1.0 + x) ** 2 / ((1.0 + y) ** 2 * mix)
    return float(out) if out.ndim == 0 else out


def subdiagonal_certificate(x, y):
    """Certifies q_j <= b1_j + nu_j <= 0: nonpositive on the whole box."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    num = (1.0 + 2.0 * y + x * y) ** 2 - y * (1.0 + y)
    mix = 1.0 + y + x * y
    out = (-(x**2) * num / ((1.0 + x) * (1.0 + y) * mix)
           + KAPPA_MAX * x**2 * y**4 * (1.0 + x) / ((1.0 + y) ** 2 * mix))
    return float(out) if out.ndim == 0 else out


def _pivot_certificate_terms(x, y, lam, kappa):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    ox, oy = 1.0 + x, 1.0 + y
    mix = 1.0 + y + x * y
    # the shifted diagonal (2*beta_0 - 2*GAMMA) times (1+x)*mix, a polynomial
    shifted = (2.0 - 2.0 * GAMMA + (4.0 - 2.0 * GAMMA) * x
               + y * (2.0 - 2.0 * GAMMA + (8.0 - 4.0 * GAMMA) * x + (6.0 - 2.0 * GAMMA) * x**2))
    t1 = shifted * ox * oy**4 * mix
    t2 = lam * ox**2 * oy**4 * mix**2
    t3 = x**3 * y**5 * ox**4 * oy**2 / lam
    inner = (1.0 + 2.0 * y + 2.0 * x * y) * oy**2 + y**2 * ox**2 * (1.0 + y - kappa * y**2)
    t4 = x**3 * inner**2 / lam
    return t1, t2, t3, t4


def pivot_lower_certificate(x, y):
    """Certifies tau_j * p_j >= 1.99: nonnegative on the whole box."""
    t1, t2, t3, t4 = _pivot_certificate_terms(x, y, LAMBDA_MIN, KAPPA_MIN)
    out = t1 - t2 - t3 - t4
    return float(out) if out.ndim == 0 else out


def pivot_upper_certificate(x, y):
    """Certifies tau_j * p_j <= 3.99: nonpositive on the whole box."""
    t1, t2, t3, t4 = _pivot_certificate_terms(x, y, LAMBDA_MAX, KAPPA_MAX)
    out = t1 - t2 - t3 - t4
    return float(out) if out.ndim == 0 else out


def pivot_certificate_scales(x, y) -> tuple:
    """Sum of absolute term magnitudes for each pivot certificate.

    The certificates cancel severely near the box corners, so tolerances in
    sweeps are scaled by these sums rather than stated absolutely.
    """
    lo = _pivot_certificate_terms(x, y, LAMBDA_MIN, KAPPA_MIN)
    hi = _pivot_certificate_terms(x, y, LAMBDA_MAX, KAPPA_MAX)
    lo_scale = sum(np.abs(t) for t in lo)
    hi_scale = sum(np.abs(t) for t in hi)
    if np.ndim(lo_scale) == 0:
        return float(lo_scale), float(hi_scale)
    return lo_scale, hi_scale


class LemmaFunctionValues(NamedTuple):
    transfer: float
    subdiag: float
    pivot_lower: float
    pivot_upper: float


def lemma_functions(x, y, kappa) -> LemmaFunctionValues:
    """All four certificate values at one point of the admissible box."""
    xa, ya = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if np.any(xa < 0.0) or np.any(xa > MAX_CERTIFIED_RATIO) \
            or np.any(ya < 0.0) or np.any(ya > MAX_CERTIFIED_RATIO):
        raise ValueError(f"(x, y) outside [0, {MAX_CERTIFIED_RATIO}]^2")
    if not KAPPA_MIN <= kappa <= KAPPA_MAX:
        raise ValueError(f"kappa outside [{KAPPA_MIN}, {KAPPA_MAX}]")
    return LemmaFunctionValues(
        envelope_transfer_factor(xa, ya, kappa),
        subdiagonal_certificate(xa, ya),
        pivot_lower_certificate(xa, ya),
        pivot_upper_certificate(xa, ya),
    )


@dataclass(frozen=True)
class LemmaSweepResult:
    """Extremes of the four certificates over a regular grid on the box."""

    resolution: float
    kappas: tuple[float, ...]
    transfer_min: float
    transfer_max: float
    subdiag_min: float
    subdiag_max: float
    pivot_lower_min: float
    pivot_lower_max: float
    pivot_upper_min: float
    pivot_upper_max: float
    # worst certificate values relative to the term-magnitude scale
    pivot_lower_scaled_min: float
    pivot_upper_scaled_max: float
    passed: bool


# Tolerances for declaring the sweep clean: the transfer/subdiag bounds are
# nearly cancellation-free, the pivot certificates are not.
TRANSFER_TOL = 1e-12
SUBDIAG_TOL = 1e-12
PIVOT_SCALED_TOL = 1e-9


def sweep_lemma_bounds(resolution: float = 0.005,
                       kappas=(KAPPA_MIN, 0.5, 1.0, KAPPA_MAX)) -> LemmaSweepResult:
    """Evaluate the certificates on a grid of the box at the given spacing."""
    if not (0.0 < resolution <= MAX_CERTIFIED_RATIO):
        raise ValueError(f"resolution must lie in (0, {MAX_CERTIFIED_RATIO}]")
    n = round(MAX_CERTIFIED_RATIO / resolution)
    axis = np.linspace(0.0, MAX_CERTIFIED_RATIO, n + 1)
    x, y = np.meshgrid(axis, axis, indexing="ij")

    t_min, t_max = math.inf, -math.inf
    for kappa in kappas:
        t = envelope_transfer_factor(x, y, kappa)
        t_min, t_max = min(t_min, float(t.min())), max(t_max, float(t.max()))

    s = subdiagonal_certificate(x, y)
    lo = pivot_lower_certificate(x, y)
    hi = pivot_upper_certificate(x, y)
    lo_scale, hi_scale = pivot_certificate_scales(x, y)

    lo_scaled_min = float((lo / lo_scale).min())
    hi_scaled_max = float((hi / hi_scale).max())
    passed = (
        t_min >= 1.0 - TRANSFER_TOL
        and t_max <= 2.7 + TRANSFER_TOL
        and float(s.max()) <= SUBDIAG_TOL
        and lo_scaled_min >= -PIVOT_SCALED_TOL
        and hi_scaled_max <= PIVOT_SCALED_TOL
    )
    return LemmaSweepResult(
        resolution=resolution,
        kappas=tuple(float(k) for k in kappas),
        transfer_min=t_min,
        transfer_max=t_max,
        subdiag_min=float(s.min()),
        subdiag_max=float(s.max()),
        pivot_lower_min=float(lo.min()),
        pivot_lower_max=float(lo.max()),
        pivot_upper_min=float(hi.min()),
        pivot_upper_max=float(hi.max()),
        pivot_lower_scaled_min=lo_scaled_min,
        pivot_upper_scaled_max=hi_scaled_max,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# self-contained eigen oracles


def min_symmetric_eigenvalue(M, rel_tol: float = 1e-12, max_sweeps: int = 100) -> float:
    """Smallest eigenvalue of the symmetric part (M + M^T)/2 by cyclic Jacobi.

    Accuracy is ~1e-10 * ||M|| or better; used as the independent oracle for
    the pivot-recursion certification, so it must not share that code path.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    S = 0.5 * (M + M.T)
    return float(_jacobi_spectrum(S, rel_tol, max_sweeps).min())


def _jacobi_spectrum(S: np.ndarray, rel_tol: float, max_sweeps: int) -> np.ndarray:
    A = S.copy()
    n = A.shape[0]
    if n == 1:
        return A.diagonal().copy()
    fro = math.sqrt(float((A * A).sum()))
    if fro == 0.0:
        return np.zeros(n)
    for _ in range(max_sweeps):
        # sum off-diagonal squares directly; the difference-of-sums form loses
        # all accuracy once the diagonal dominates by ~1e8
        offmat = A * A
        np.fill_diagonal(offmat, 0.0)
        off = math.sqrt(float(offmat.sum()))
        if off <= rel_tol * fro:
            return A.diagonal().copy()
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if apq == 0.0:
                    continue
                g = 100.0 * abs(apq)
                app, aqq = A[p, p], A[q, q]
                # coupling below roundoff of both diagonals: already converged
                if abs(app) + g == abs(app) and abs(aqq) + g == abs(aqq):
                    A[p, q] = A[q, p] = 0.0
                    continue
                h = aqq - app
                if abs(h) + g == abs(h):
                    # theta would overflow; rotation angle ~ apq/h
                    t = apq / h
                else:
                    theta = h / (2.0 * apq)
                    sgn = 1.0 if theta >= 0.0 else -1.0
                    t = sgn / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rp, rq = A[p, :].copy(), A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp, cq = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                A[p, q] = A[q, p] = 0.0
    raise EigenConvergenceError(
        f"Jacobi sweeps did not converge in {max_sweeps} sweeps (n={n})"
    )


def spectral_norm(M, rel_tol: float = 1e-10, max_iter: int = 10_000) -> float:
    """Largest singular value by power iteration on M^T M.

    Successive estimates are Rayleigh quotients, hence nondecreasing; the
    iteration stops when they agree to rel_tol.  Nonconvergence raises
    PowerIterationError rather than returning a stale estimate.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.any(M):
        return 0.0
    rng = np.random.Generator(np.random.PCG64(1405))
    v = rng.standard_normal(M.shape[1])
    v /= math.sqrt(float(v @ v))
    sigma_prev = -1.0
    for _ in range(max_iter):
        w = M @ v
        sigma = math.sqrt(float(w @ w))
        if sigma == 0.0:
            # start vector fell in the null space; redraw
            v = rng.standard_normal(M.shape[1])
            v /= math.sqrt(float(v @ v))
            continue
        if sigma_prev >= 0.0 and abs(sigma - sigma_prev) <= rel_tol * sigma:
            return sigma
        sigma_prev = sigma
        u = M.T @ w
        v = u / math.sqrt(float(u @ u))
    raise PowerIterationError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(last estimate {sigma_prev})"
    )
