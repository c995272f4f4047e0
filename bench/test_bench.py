"""Tests of the benchmark's own checks, oracles and tracer.

Run from the repository root:  python3 -m pytest bench -q

Each output check is fed one wrong output and must flag it; the oracles
are compared with closed forms and with vsbdf3 on small cases.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import vsbdf3  # noqa: E402

NS = (20, 40, 80, 160)


def _table(order, c=1.0):
    return [(n, c * n ** -order) for n in NS]


def test_convergence_check_accepts_third_order():
    assert checks.check_convergence(0, {0.16: _table(3.0), 0.36: _table(2.9)}, NS) == []


def test_convergence_check_flags_second_order_table():
    problems = checks.check_convergence(0, {0.16: _table(3.0), 0.36: _table(2.0)}, NS)
    assert len(problems) == 1 and "eps2=0.36" in problems[0]


def test_convergence_check_flags_nonfinite_error_and_exit_code():
    rows = _table(3.0)
    rows[2] = (80, math.nan)
    assert checks.check_convergence(3, {0.16: rows}, NS) != []
    assert checks.check_convergence(3, {0.16: _table(3.0)}, NS) == ["convergence exited 3"]


def _energy_trace(e0):
    return [e0 - 1e-3 * k for k in range(5)]


def test_energy_check_accepts_dissipating_trace():
    assert checks.check_energy(0, _energy_trace(oracles.initial_energy(0.16)), 0.16) == []


def test_energy_check_flags_positive_excess():
    trace = _energy_trace(oracles.initial_energy(0.16))
    trace[3] = trace[0] + 1e-8
    assert any("exceeds" in p for p in checks.check_energy(0, trace, 0.16))


def test_energy_check_flags_wrong_initial_energy_and_nan():
    assert any("closed form" in p for p in checks.check_energy(0, _energy_trace(9.9), 0.16))
    trace = _energy_trace(oracles.initial_energy(0.16))
    trace[1] = math.nan
    assert checks.check_energy(0, trace, 0.16) != []


def test_initial_energy_closed_form():
    assert oracles.initial_energy(0.16) == pytest.approx(9.861223911805425, rel=1e-15)


def test_initial_energy_matches_vsbdf3_quadrature():
    op = vsbdf3.fourier_operator(16)
    x, y = op.mesh
    u0 = 0.05 * np.sin(x) * np.sin(y)
    assert vsbdf3.energy(op, u0, 0.36) == pytest.approx(oracles.initial_energy(0.36), rel=1e-12)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def test_certification_check_flags_flipped_verdicts():
    certified = workloads.certified_steps(_rng(1), 40)
    assert checks.check_certification("certified", True, None, certified, True) == []
    assert checks.check_certification("certified", False, 7, certified, True) != []

    wild = workloads.wild_steps(_rng(2), 60, 44.0)
    d = oracles.cholesky_pivots(oracles.scaled_shifted_matrix(wild))
    assert d[-1] <= 0.0
    first = d.size
    assert checks.check_certification("wild", False, first, wild, False) == []
    assert checks.check_certification("wild", True, None, wild, True) != []
    assert checks.check_certification("wild", False, first + 1, wild, False) != []


def test_chain_check():
    assert checks.check_chain(1.732, 120, 90, 90, -1.0, expected=90) == []
    assert checks.check_chain(1.732, 120, 91, 91, -1.0, expected=90) != []
    assert checks.check_chain(1.405, 100, None, 100, 0.5, expected=None) == []
    assert checks.check_chain(1.405, 100, None, 99, 0.5, expected=None) != []


def test_oracle_weights_on_uniform_and_cubic_data():
    w = oracles.bdf_weights([0.5] * 5)
    assert w[0] == pytest.approx([2.0, 0.0, 0.0])
    assert w[1] == pytest.approx([3.0, -1.0, 0.0])
    assert w[4] == pytest.approx([11.0 / 3.0, -7.0 / 3.0, 2.0 / 3.0])
    # the three-step formula differentiates cubics exactly on any grid
    tau = _rng(3).uniform(0.1, 1.0, 8)
    t = np.concatenate([[0.0], np.cumsum(tau)])
    v = t**3 - 2.0 * t
    dv = np.diff(v)
    w = oracles.bdf_weights(tau)
    for n in range(3, 9):
        approx = w[n - 1] @ dv[n - 1 : n - 4 : -1] if n > 3 else w[n - 1] @ dv[2::-1]
        assert approx == pytest.approx(3.0 * t[n] ** 2 - 2.0, rel=1e-10)


def test_oracle_kernel_matrix_matches_vsbdf3():
    grid = vsbdf3.build_random(30, 1.0, 7)
    B = vsbdf3.assemble_B(grid).B
    # the two routes cancel differently in b2; 2e-12 relative is seen here
    assert np.allclose(oracles.kernel_matrix(grid.steps), B, rtol=1e-10, atol=0.0)


def test_cholesky_pivots_match_leading_minors():
    rng = _rng(4)
    for _ in range(20):
        m = rng.standard_normal((6, 6))
        s = m + m.T + rng.uniform(0.0, 6.0) * np.eye(6)
        d = oracles.cholesky_pivots(s)
        minors = [np.linalg.det(s[:j, :j]) for j in range(1, 7)]
        first = next((j for j, x in enumerate(minors, 1) if x <= 0.0), None)
        assert (d.size if d[-1] <= 0.0 else None) == first
        assert np.allclose(np.cumprod(d), minors[: d.size])


def test_cholesky_oracle_agrees_with_certification_on_mixed_grids():
    rng = _rng(5)
    for i in range(120):
        n = int(rng.integers(1, 61))
        steps = (workloads.certified_steps(rng, n) if i % 2
                 else workloads.wild_steps(rng, n, 44.0))
        ok, trace = vsbdf3.certify_positive_definite(vsbdf3.build_from_steps(steps))
        assert ok == (trace.first_negative is None)
        assert oracles.agrees_with_oracle(trace.first_negative, steps)
        if i % 2:
            assert ok


def test_determinant_oracle_on_constant_ratio_chains():
    assert oracles.first_nonpositive_minor([1.732] * 119) == 90
    assert oracles.first_nonpositive_minor([1.405] * 199) is None


def test_tracer_counts_and_restores():
    grid_cls = vsbdf3.TimeGrid
    originals = (vsbdf3.certify_positive_definite, grid_cls.__dict__["from_json"],
                 grid_cls.step, np.linalg.solve)
    t = tracer.Tracer().install(vsbdf3)
    try:
        steps = workloads.certified_steps(_rng(6), 12)
        grid = vsbdf3.TimeGrid.from_json(workloads.grid_json(steps))
        ok, _ = vsbdf3.certify_positive_definite(grid)
    finally:
        t.uninstall()
    assert ok
    assert (vsbdf3.certify_positive_definite, grid_cls.__dict__["from_json"],
            grid_cls.step, np.linalg.solve) == originals
    m = t.layer_metrics(rounds=1, traced_wall_s=1.0, out_bytes=0)
    assert set(m) == set(tracer.PER_LAYER)
    assert m["ratio_analysis.grids"] == 1 and m["ratio_analysis.pivots"] == 12
    assert m["ratio_analysis.pivot_yield"] == 1.0
    assert m["time_grid.accessor_calls"] > 0 and m["bdf_kernels.weight_calls"] == 11
    assert 0.0 < m["ratio_analysis.self_s"] <= m["ratio_analysis.certify_s"]


def test_outermost_counts_nested_spans_once():
    spans = [("a", 0.0, 10.0, -1), ("a", 1.0, 3.0, 0), ("b", 4.0, 5.0, 0), ("a", 20.0, 21.0, -1)]
    assert tracer._outermost(spans, {"a"}) == 11.0
    assert tracer._outermost(spans, {"a", "b"}) == 11.0
    assert tracer._outermost(spans, {"b"}) == 1.0
