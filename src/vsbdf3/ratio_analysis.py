"""Step-ratio analysis: pivot recursions and bound certificates.

Positive definiteness of the kernel matrices is decided by running the
symmetric-elimination pivot recursion on their banded entries (Sylvester's
criterion applied minor by minor) and stopping at the first nonpositive
pivot.  Both traces run one elimination loop over the step ratios, which
forms each row of A + A^T - 2*gamma*I, A = Lambda^{1/2} B Lambda^{1/2}, as
it eliminates it; the matrix is congruent to B + B^T - 2*gamma*Lambda^{-1},
and its pivots are the tau_j p_j that the closed-form certificates bound on
the ratio box [0, 1.405]^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import truediv

import numpy as np

from .bdf_kernels import _non_finite, bdf3_weights
from .time_grid import MAX_CERTIFIED_RATIO, TimeGrid, _checked_ratios

__all__ = [
    "GAMMA",
    "KAPPA_MIN",
    "KAPPA_MAX",
    "LAMBDA_MIN",
    "LAMBDA_MAX",
    "MAX_CERTIFIED_RATIO",
    "SWEEP_KAPPAS",
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
# Envelope constants at which sweep_lemma_bounds evaluates the transfer factor.
SWEEP_KAPPAS = (KAPPA_MIN, 0.5, 1.0, KAPPA_MAX)
# Most sweep points per axis; it bounds the sweep's time, about 0.3 us per box point.
SWEEP_MAX_POINTS = 2000


@dataclass(frozen=True)
class SylvesterTrace:
    """Pivots p_j and couplings q_j of the symmetric elimination.

    p[j-1] holds p_j; q is padded with q_1 = 0 (no coupling exists at j=1)
    so both run over the same levels.  When a nonpositive pivot appears the
    recursion stops there: first_negative is its 1-based level and p/q end
    at that level.  They are those of A + A^T for the ratio-only trace, and of
    A + A^T - 2*gamma*I for the shifted one: the step-free tau_j p_j and
    tau_j q_j / sqrt(r_j) of B + B^T - 2*gamma*Lambda^{-1}, which depend on the
    step ratios alone.
    """

    p: tuple[float, ...]
    q: tuple[float, ...]
    first_negative: int | None = None

    @property
    def positive(self) -> bool:
        return self.first_negative is None


def _elimination(ratios, shift):
    """Pivots and couplings of the symmetric elimination of A + A^T - shift*I.

    Level n's row is 2*beta_0 - shift, a1 = beta_1 / sqrt(r_n), a2 = beta_2 /
    sqrt(r_n r_{n-1}), beta_k the weights at tau_n = 1: (1, 0, 0), then
    bdf3_weights with r_1 = 0.  No level is read after the first nonpositive
    pivot.  A level whose beta_k or row is not finite (a 0/0 from ratios that
    underflowed to zero) raises ValueError; a non-finite row gives a
    non-finite pivot.
    """
    p, q = [], []
    p1, p2, q1 = 1.0, 1.0, 0.0  # stand-ins before level 1, met by zero couplings
    r, b0, b1, b2, root1, root2 = 0.0, 1.0, 0.0, 0.0, 1.0, 1.0  # level 1
    for n, r_n in enumerate(chain((0.0,), ratios), 1):
        r_prev, r = r, r_n
        if n > 1:
            (b0, b1, b2), root1 = bdf3_weights(1.0, r, r_prev), math.sqrt(r)
            root2 = math.sqrt(r * r_prev) if n > 2 else 1.0
        diag = 2.0 * b0 - shift
        a1 = b1 / root1 if root1 else math.nan
        a2 = b2 / root2 if root2 else math.nan
        q1 = a1 - (q1 / p2) * a2
        p2, p1 = p1, diag - a2 * a2 / p2 - q1 * q1 / p1
        if not math.isfinite(p1):
            if not (math.isfinite(b0) and math.isfinite(b1) and math.isfinite(b2)):
                raise _non_finite(n, f"step ratio r_{n} = {r!r}", "beta_0, beta_1, beta_2",
                                  (b0, b1, b2))
            if not (math.isfinite(diag) and math.isfinite(a1) and math.isfinite(a2)):
                raise _non_finite(n, f"step ratio r_{n} = {r!r}", "a0, a1, a2", (b0, a1, a2))
        p.append(p1)
        q.append(q1)
        if p1 <= 0.0:
            return tuple(p), tuple(q), n
    return tuple(p), tuple(q), None


def generating_function(r: float, x) -> np.ndarray | float:
    """Quadratic 2*a2*x^2 + a1*x + (a0 - a2) at equal trailing ratios r.

    Positivity on [-1, 1] is equivalent to positive semi-definiteness of the
    constant-ratio kernel symbol; it fails inside the interval for r = 1.732.
    """
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"ratio must be positive and finite, got {r!r}")
    a0, b1, b2 = bdf3_weights(1.0, r, r)
    a1, a2 = b1 / math.sqrt(r), b2 / r
    if not all(map(math.isfinite, (a0, a1, a2))):
        raise ValueError(f"ratio {r!r} gives non-finite coefficients {a0!r}, {a1!r}, {a2!r}")
    return 2.0 * a2 * x**2 + a1 * x + (a0 - a2)


def sylvester_trace_A_from_ratios(ratios) -> SylvesterTrace:
    """Pivot recursion for A + A^T, the step-scaled kernel matrix, ratios only.

    The scaled matrix depends on the steps solely through adjacent ratios,
    so arbitrarily long constant-ratio chains can be traced without ever
    materializing a step sequence.
    """
    return SylvesterTrace(*_elimination(_checked_ratios(ratios).tolist(), 0.0))


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

    The ratio trace with shift 2*gamma: one pass over the rows of the congruent
    A + A^T - 2*gamma*I, with the grid's ratios computed lazily, that reads no
    level after the first nonpositive pivot.  It returns the step-free pivots
    tau_j p_j and couplings tau_j q_j / sqrt(r_j); a positive pivot is at most
    the diagonal 2*beta_0 - 2*gamma.
    """
    tau = grid.steps
    return SylvesterTrace(*_elimination(map(truediv, tau[1:], tau), 2.0 * GAMMA))


def certify_positive_definite(grid: TimeGrid) -> tuple[bool, SylvesterTrace]:
    """True iff every pivot of the shifted kernel matrix stays positive."""
    trace = sylvester_trace_shifted(grid)
    return trace.positive, trace


# ---------------------------------------------------------------------------
# closed-form bound certificates on the ratio box [0, 1.405]^2; each evaluates
# one expression, on floats or on arrays of one shape


def envelope_transfer_factor(x, y, kappa):
    """Factor carrying the coupling envelope one level forward; in [1, 2.7]."""
    num = (1.0 + 2.0 * y + x * y) ** 2 - y * (1.0 + y)
    mix = 1.0 + y + x * y
    return num / ((1.0 + y) * mix) - kappa * y**4 * (1.0 + x) ** 2 / ((1.0 + y) ** 2 * mix)


def subdiagonal_certificate(x, y):
    """Certifies q_j <= b1_j + nu_j <= 0: nonpositive on the whole box."""
    return bdf3_weights(1.0, x, y)[1] + subdiagonal_envelopes(1.0, x, y)[1]


def _pivot_certificate(x, y, lam, kappa):
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
    return t1 - t2 - t3 - t4


def pivot_lower_certificate(x, y):
    """Certifies tau_j * p_j >= 1.99: nonnegative on the whole box."""
    return _pivot_certificate(x, y, LAMBDA_MIN, KAPPA_MIN)


def pivot_upper_certificate(x, y):
    """Certifies tau_j * p_j <= 3.99: nonpositive on the whole box."""
    return _pivot_certificate(x, y, LAMBDA_MAX, KAPPA_MAX)


@dataclass(frozen=True)
class LemmaSweepResult:
    """Extremes of the four certificates over a regular grid on the box."""

    resolution: float
    transfer_min: float
    transfer_max: float
    subdiag_min: float
    subdiag_max: float
    pivot_lower_min: float
    pivot_lower_max: float
    pivot_upper_min: float
    pivot_upper_max: float
    passed: bool


# Tolerance for declaring the sweep clean.  The pivot certificates cancel to
# an exact zero on the edge x = 0, where they sample as rounding (about 1e-13).
SWEEP_TOL = 1e-12


def sweep_lemma_bounds(resolution: float = 0.005) -> LemmaSweepResult:
    """Evaluate the certificates on a grid of the box at the given spacing, a block at a time."""
    finest = MAX_CERTIFIED_RATIO / SWEEP_MAX_POINTS
    if not (finest <= resolution <= MAX_CERTIFIED_RATIO):
        raise ValueError(f"resolution must lie in [{finest:g}, {MAX_CERTIFIED_RATIO}], at most "
                         f"{SWEEP_MAX_POINTS} points per axis (about 1.3 s); got {resolution!r}")
    n = round(MAX_CERTIFIED_RATIO / resolution)
    axis = np.linspace(0.0, MAX_CERTIFIED_RATIO, n + 1)
    extremes = np.array([_block_extremes(axis[i:i + _SWEEP_BLOCK_ROWS], axis)
                         for i in range(0, axis.size, _SWEEP_BLOCK_ROWS)])
    t_min, s_min, lo_min, hi_min = extremes[:, 0::2].min(axis=0).tolist()
    t_max, s_max, lo_max, hi_max = extremes[:, 1::2].max(axis=0).tolist()
    passed = (
        t_min >= 1.0 - SWEEP_TOL
        and t_max <= 2.7 + SWEEP_TOL
        and s_max <= SWEEP_TOL
        and lo_min >= -SWEEP_TOL
        and hi_max <= SWEEP_TOL
    )
    return LemmaSweepResult(
        resolution=resolution,
        transfer_min=t_min,
        transfer_max=t_max,
        subdiag_min=s_min,
        subdiag_max=s_max,
        pivot_lower_min=lo_min,
        pivot_lower_max=lo_max,
        pivot_upper_min=hi_min,
        pivot_upper_max=hi_max,
        passed=passed,
    )


# Rows of x per sweep block (about 20 MB at 2,000 points per axis); only
# each block's extremes are kept, and min and max are exact.
_SWEEP_BLOCK_ROWS = 64


def _block_extremes(xs, axis) -> tuple[float, ...]:
    """(min, max) pairs over the rows xs of the box: transfer factor, then the
    three certificates."""
    x, y = np.meshgrid(xs, axis, indexing="ij")
    t = [envelope_transfer_factor(x, y, kappa) for kappa in SWEEP_KAPPAS]
    s = subdiagonal_certificate(x, y)
    lo = pivot_lower_certificate(x, y)
    hi = pivot_upper_certificate(x, y)
    return (min(v.min() for v in t), max(v.max() for v in t), s.min(), s.max(),
            lo.min(), lo.max(), hi.min(), hi.max())
