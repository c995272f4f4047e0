"""Exact-arithmetic oracle for the certification verdict and its pivots.

The kernel weights come from their definition, the derivative at t_n of the
Lagrange interpolant through t_n, ..., t_{n-k} with k = min(n, 3), and
B + B^T - 2*gamma*Lambda^{-1} is factored as L D L^T in fractions.Fraction.
Nothing is rounded and no vsbdf3 code is read.  The congruence by
Lambda^{1/2} keeps the signs of the leading minors, so the certification
must stop at the level of the first nonpositive pivot here; tau_j p_j are
also the pivots of the congruent A + A^T - 2*gamma*I that it eliminates.
"""

from fractions import Fraction
from itertools import accumulate
from math import prod

GAMMA = Fraction(1, 200)


def lagrange_weights(levels, n):
    """Weights [b0, b1, b2] of level n, where the derivative of the interpolant
    at t_n is b0 (v^n - v^(n-1)) + b1 (v^(n-1) - v^(n-2)) + b2 (v^(n-2) - v^(n-3))."""
    nodes = levels[n - min(n, 3):n + 1][::-1]  # t_n, t_(n-1), ..., t_(n-k)
    x0 = nodes[0]
    # c[i] multiplies v^(n-i): the derivative at t_n of the i-th Lagrange basis polynomial
    c = [sum(1 / (x0 - x) for x in nodes[1:])]
    for i, xi in enumerate(nodes[1:], 1):
        c.append(prod(x0 - x for m, x in enumerate(nodes) if m not in (0, i))
                 / prod(xi - x for m, x in enumerate(nodes) if m != i))
    # the difference weights are the partial sums but the last, which is the zero total
    b = list(accumulate(c))[:-1]
    return b + [Fraction(0)] * (3 - len(b))


def shifted_pivots(steps):
    """Pivots tau_j p_j of the L D L^T factorization of B + B^T - 2*gamma*Lambda^{-1}
    on the exact steps, up to and including the first that is <= 0."""
    tau = [Fraction(s) for s in steps]
    levels = [Fraction(0), *accumulate(tau)]
    b = [lagrange_weights(levels, n) for n in range(1, len(tau) + 1)]
    d, low = [], {}
    for i in range(len(tau)):
        band = range(max(0, i - 2), i)  # B[i, j] = b_(i-j) of level i, bandwidth 3
        for j in band:
            low[i, j] = (b[i][i - j] - sum(low[i, m] * low[j, m] * d[m]
                                           for m in band if m < j)) / d[j]
        d.append(2 * b[i][0] - 2 * GAMMA / tau[i] - sum(low[i, m] ** 2 * d[m] for m in band))
        if d[i] <= 0:
            break
    return [t * p for t, p in zip(tau, d)]
