"""Output checks: each takes one operation's outputs and returns the list of
problems found (empty when the output is correct).

They run after the timed body and read only what the program returned or
wrote, comparing it with a property of the method or with oracles.py.
"""

from __future__ import annotations

import math

import oracles

# Observed order window for the third-order method on random grids.
ORDER_WINDOW = (2.5, 3.3)
# E(u^n) - E(u^0) may exceed zero by rounding only.
ENERGY_SLACK = 1e-10
# Relative agreement of the computed E(u^0) with the closed form.
INITIAL_ENERGY_RTOL = 1e-10


def check_convergence(rc: int, tables: dict, ns) -> list[str]:
    """tables maps eps2 to the list of (N, error) rows the CLI wrote."""
    problems = []
    if rc != 0:
        problems.append(f"convergence exited {rc}")
    for eps2, rows in sorted(tables.items()):
        got_ns = [n for n, _ in rows]
        errors = [e for _, e in rows]
        if got_ns != list(ns):
            problems.append(f"eps2={eps2}: rows for N={got_ns}, expected {list(ns)}")
            continue
        if not all(math.isfinite(e) and e > 0.0 for e in errors):
            problems.append(f"eps2={eps2}: nonpositive or non-finite error in {errors}")
            continue
        order = oracles.least_squares_order(ns, errors)
        if not ORDER_WINDOW[0] <= order <= ORDER_WINDOW[1]:
            problems.append(f"eps2={eps2}: order {order:.4f} outside {ORDER_WINDOW}")
    return problems


def check_energy(rc: int, energies, eps2: float) -> list[str]:
    """energies is the trace E(u^0), E(u^1), ... the CLI wrote."""
    problems = []
    if rc != 0:
        problems.append(f"energy exited {rc}")
    if not energies or not all(math.isfinite(e) for e in energies):
        return problems + ["missing or non-finite energy"]
    e0 = energies[0]
    excess = max(e - e0 for e in energies)
    if excess > ENERGY_SLACK:
        problems.append(f"energy exceeds E(u^0) by {excess:.3e}")
    exact = oracles.initial_energy(eps2)
    if abs(e0 - exact) > INITIAL_ENERGY_RTOL * abs(exact):
        problems.append(f"E(u^0) = {e0!r}, closed form {exact!r}")
    return problems


def check_certification(kind: str, verdict: bool, first_negative, steps,
                        sampled: bool) -> list[str]:
    """One grid's verdict against the theorem and the dense-Cholesky oracle.

    Grids of kind "certified" have every ratio in (0, 1.405] and must
    certify.  Every negative verdict, and every sampled positive one, must
    agree with the oracle on the first nonpositive pivot.
    """
    problems = []
    if verdict != (first_negative is None):
        problems.append(f"verdict {verdict} but first nonpositive pivot {first_negative}")
    if kind == "certified" and not verdict:
        problems.append(f"grid with ratios <= {oracles.MAX_CERTIFIED_RATIO} not certified "
                        f"(pivot {first_negative})")
    if (not verdict or sampled) and not oracles.agrees_with_oracle(first_negative, steps):
        problems.append(f"first nonpositive pivot {first_negative} disagrees with the oracle")
    return problems


def check_chain(ratio: float, levels: int, first_negative, n_pivots: int, min_pivot: float,
                expected) -> list[str]:
    """A constant-ratio pivot trace against the determinant oracle's index."""
    if first_negative != expected:
        return [f"ratio {ratio}: first nonpositive pivot {first_negative}, oracle {expected}"]
    if expected is None and not (n_pivots == levels and min_pivot > 0.0):
        return [f"ratio {ratio}: {n_pivots} of {levels} pivots, smallest {min_pivot!r}"]
    return []
