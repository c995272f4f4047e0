import json
import math

import numpy as np
import pytest

from conftest import certified_grid, make_rng
from vsbdf3.time_grid import (
    MAX_CERTIFIED_RATIO,
    TimeGrid,
    build_alternating,
    build_from_ratios,
    build_from_steps,
    build_random,
    build_uniform,
    load_grid,
    random_bounded_grid,
    save_grid,
)


def test_uniform_grid_basics():
    g = build_uniform(5, 2.0)
    assert g.n_steps == 5
    assert g.steps == (0.4,) * 5
    assert g.horizon == pytest.approx(2.0, abs=1e-15)
    np.testing.assert_allclose(g.levels, [0.0, 0.4, 0.8, 1.2, 1.6, 2.0], atol=1e-15)
    assert g.levels[0] == 0.0
    assert g.ratios == (1.0,) * 4


def test_alternating_grid_exact_steps():
    g = build_alternating(4, 1.0)
    a = 2.0 * 1.0 / (3 * 4)
    assert g.steps == (a, 2 * a, a, 2 * a)
    assert g.ratios == (2.0, 0.5, 2.0)

    g2 = build_alternating(2, 3.0)
    assert g2.steps == (1.0, 2.0)


def test_alternating_requires_even_count():
    with pytest.raises(ValueError):
        build_alternating(5, 1.0)


def test_step_and_ratio_accessors_one_based():
    g = build_from_steps([1.0, 2.0, 3.0])
    assert g.step(1) == 1.0
    assert g.step(3) == 3.0
    assert g.ratio(2) == 2.0
    assert g.ratio(3) == 1.5
    with pytest.raises(IndexError):
        g.step(0)
    with pytest.raises(IndexError):
        g.step(4)
    with pytest.raises(IndexError):
        g.ratio(1)  # r_k defined for k >= 2


def test_invalid_steps_rejected():
    for bad in ([], [1.0, 0.0], [1.0, -0.5], [1.0, float("nan")], [math.inf]):
        with pytest.raises(ValueError):
            build_from_steps(bad)


@pytest.mark.parametrize("steps, named", [
    ((math.nan, 1.0, 2.0), "nan"),
    ((1.0, 2.0, math.nan, 3.0), "nan"),
    ((1.0, math.inf, 2.0), "inf"),
    ((1.0, 0.0, 2.0), "0.0"),
    ((1.0, 2.0, -0.5), "-0.5"),
])
def test_a_bad_step_is_named(steps, named):
    # the fast path reads only min(steps) and sum(steps): a NaN first makes
    # the min NaN, a NaN later only the sum; the loop then names the step
    with pytest.raises(ValueError, match=rf"positive and finite, got {named}$"):
        TimeGrid(steps)


def test_finite_steps_whose_sum_overflows_are_refused():
    # each step is finite and positive, but levels and horizon would end at inf
    steps = (1e308, 1e308, 1.0)
    assert math.isinf(sum(steps))
    with pytest.raises(ValueError, match=r"^step sizes must have a finite sum, got inf$"):
        TimeGrid(steps)


def test_levels_are_read_only():
    g = build_uniform(3, 1.0)
    with pytest.raises(ValueError):
        g.levels[0] = 5.0


def test_build_random_deterministic_and_positive():
    g1 = build_random(50, 1.0, seed=11)
    g2 = build_random(50, 1.0, seed=11)
    assert g1.steps == g2.steps
    assert g1 != build_random(50, 1.0, seed=12)
    assert min(g1.steps) > 0.0
    assert abs(sum(g1.steps) - 1.0) <= 1e-12


def test_build_from_ratios_reproduces_requested_ratios():
    rng = make_rng(3)
    req = rng.uniform(0.1, 3.0, size=30)
    g = build_from_ratios(req, 2.5)
    np.testing.assert_allclose(g.ratios, req, rtol=1e-12)
    assert abs(g.horizon - 2.5) <= 1e-12 * 2.5


def test_build_from_ratios_empty_gives_single_step():
    g = build_from_ratios([], 1.0)
    assert g.steps == (1.0,)


def test_build_from_ratios_survives_long_decay_chains():
    # 200 ratios of 0.5 span 60 orders of magnitude; log-space assembly holds
    g = build_from_ratios([0.5] * 200, 1.0)
    assert min(g.steps) > 0.0
    np.testing.assert_allclose(g.ratios, 0.5, rtol=1e-9)


def test_random_bounded_grid_keeps_ratios_in_band():
    assert MAX_CERTIFIED_RATIO == 1.405
    g = random_bounded_grid(200, 0.01, seed=7)
    assert max(g.steps) <= 0.01 + 1e-15
    r = np.asarray(g.ratios)
    assert r.max() <= 1.405
    assert r.min() >= 1.0 / 1.405 - 1e-12
    assert g.steps == random_bounded_grid(200, 0.01, seed=7).steps


def test_json_round_trip_is_bit_exact():
    rng = make_rng(5)
    g = certified_grid(rng, 37)
    g2 = TimeGrid.from_json(g.to_json())
    assert g2.steps == g.steps
    assert g2.to_json() == g.to_json()


def test_json_payload_shape():
    g = build_uniform(2, 1.0)
    payload = json.loads(g.to_json())
    assert set(payload) == {"T", "steps"}
    assert payload["steps"] == [0.5, 0.5]


def test_from_json_rejects_inconsistent_horizon():
    with pytest.raises(ValueError):
        TimeGrid.from_json('{"T": 2.0, "steps": [0.5, 0.5]}')


def test_from_json_names_a_byte_order_mark():
    with pytest.raises(ValueError, match="Unexpected UTF-8 BOM"):
        TimeGrid.from_json('\ufeff{"T": 1.0, "steps": [1.0]}')


@pytest.mark.parametrize("horizon", ["NaN", "Infinity", "-Infinity"])
def test_from_json_rejects_non_finite_horizon(horizon):
    with pytest.raises(ValueError, match="finite"):
        TimeGrid.from_json(f'{{"T": {horizon}, "steps": [0.1, 0.2]}}')


def test_save_and_load_grid(tmp_path):
    g = build_random(25, 1.0, seed=2)
    p = save_grid(g, tmp_path / "grid.json")
    assert load_grid(p).steps == g.steps
