"""Step-ratio analysis: pivot recursions and bound certificates.

Positive definiteness of the kernel matrices is decided by running the
symmetric-elimination pivot recursion on their banded entries (Sylvester's
criterion applied minor by minor) and stopping at the first nonpositive
pivot.  The step-scaled entries come from the ratio-weight table of
bdf_kernels, the gamma-shifted ones from its closed forms, one level at a
time up to that pivot.  The closed-form certificate functions bound those
pivots and the subdiagonal couplings on the certified ratio box [0, 1.405]^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bdf_kernels import _non_finite, bdf2_weights, bdf3_weights, ratio_weights
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
    "sylvester_trace_A_from_ratios",
    "sylvester_trace_shifted",
    "subdiagonal_envelopes",
    "certify_positive_definite",
    "envelope_transfer_factor",
    "subdiagonal_certificate",
    "pivot_lower_certificate",
    "pivot_upper_certificate",
    "pivot_certificate_scales",
    "sweep_lemma_bounds",
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


@dataclass(frozen=True)
class SylvesterTrace:
    """Pivots p_j and couplings q_j of the symmetric elimination.

    p[j-1] holds p_j; q is padded with q_1 = 0 (no coupling exists at j=1)
    so both run over the same levels.  When a nonpositive pivot appears the
    recursion stops there: first_negative is its 1-based level and p/q end
    at that level.  mu/nu carry the coupling envelopes of the shifted
    variant over the same levels as p/q (zero for levels 1 and 2); they
    are None for the dimensionless variant.
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


def _pivot_recursion(rows):
    """Shared elimination core on the banded entries of S = K + K^T.

    rows yields (diag, sub, subsub) per level from level 1 on: the full
    diagonal entry and the entries coupling the level to the one and two
    before it, exact zeros where no such level exists.  No row is taken
    after the first nonpositive pivot (the early stop of SylvesterTrace).
    """
    p, q = [], []
    p1 = p2 = 1.0  # stand-ins for the pivots before level 1, met by zero couplings
    q1 = 0.0
    for diag, sub, subsub in rows:
        q1 = sub - (q1 / p2) * subsub
        p2, p1 = p1, diag - subsub ** 2 / p2 - q1 * q1 / p1
        p.append(p1)
        q.append(q1)
        if p1 <= 0.0:
            return tuple(p), tuple(q), len(p)
    return tuple(p), tuple(q), None


def sylvester_trace_A_from_ratios(ratios) -> SylvesterTrace:
    """Pivot recursion for the step-scaled kernel matrix, ratios only.

    The scaled matrix depends on the steps solely through adjacent ratios,
    so arbitrarily long constant-ratio chains can be traced without ever
    materializing a step sequence.
    """
    ratios = np.asarray(ratios, dtype=float)
    if np.any(~np.isfinite(ratios)) or np.any(ratios <= 0.0):
        raise ValueError("ratios must be positive and finite")
    rows = ((2.0 * a0, a1, a2) for a0, a1, a2 in _scaled_weights(ratios).tolist())
    p, q, first = _pivot_recursion(rows)
    return SylvesterTrace(p=p, q=q, first_negative=first)


def subdiagonal_envelopes(tau_j, r_j, r_jm1):
    """Envelope pair (mu_j, nu_j) bracketing the coupling q_j for j >= 3.

    The arguments may be scalars or arrays of one shape (same bits either way).
    """
    base = (r_j * r_j) * (r_jm1 * r_jm1 * r_jm1 * r_jm1) * (1.0 + r_j) / (
        tau_j * ((1.0 + r_jm1) * (1.0 + r_jm1)) * (1.0 + r_jm1 + r_j * r_jm1)
    )
    return KAPPA_MIN * base, KAPPA_MAX * base


def sylvester_trace_shifted(grid: TimeGrid) -> SylvesterTrace:
    """Pivot recursion for the gamma-shifted kernel matrix B - gamma*Lambda^{-1}.

    One pass over the levels on Python floats, which evaluates no level
    after the first nonpositive pivot.  The shifted diagonal (2*beta_0 -
    2*gamma) / tau absorbs the transpose doubling and the shift, couplings
    are beta_k / tau, with beta_k from the closed forms.  A level whose
    ratio or step makes these entries overflow raises ValueError.
    """
    tau, envelopes = grid.steps, []

    def rows():
        for n, t in enumerate(tau, 1):
            if n == 1:
                beta, env = (1.0, 0.0, 0.0), (0.0, 0.0)
            elif n == 2:
                r = t / tau[0]
                beta, env = (*bdf2_weights(1.0, r), 0.0), (0.0, 0.0)
            else:
                r_prev, r = r, t / tau[n - 2]
                beta, env = bdf3_weights(1.0, r, r_prev), subdiagonal_envelopes(t, r, r_prev)
            diag, sub, subsub = (2.0 * beta[0] - 2.0 * GAMMA) / t, beta[1] / t, beta[2] / t
            if not (math.isfinite(diag) and math.isfinite(sub) and math.isfinite(subsub)):
                if not all(map(math.isfinite, beta)):
                    raise _non_finite(n, f"step ratio r_{n} = {r!r}", "beta_0, beta_1, beta_2", beta)
                raise _non_finite(n, f"step {t!r}", "shifted diagonal, b1, b2", (diag, sub, subsub))
            envelopes.append(env)
            yield diag, sub, subsub

    p, q, first = _pivot_recursion(rows())
    return SylvesterTrace(p, q, first, *zip(*envelopes))


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
