"""Property tests: grid JSON round trips are lossless, and the horizon is
the last time level.

Grids are drawn from ratio sequences with N <= 40 levels and ratios in
[0.02, 44], the range of the random-step convergence grids, and horizons
over six decades.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from vsbdf3.time_grid import TimeGrid, build_from_ratios, load_grid, save_grid  # noqa: E402

grids = st.builds(build_from_ratios,
                  st.lists(st.floats(min_value=0.02, max_value=44.0), max_size=39),
                  st.floats(min_value=1e-3, max_value=1e3))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(grids)
def test_json_round_trip_is_bit_identical(tmp_path, g):
    for back in (TimeGrid.from_json(g.to_json()), load_grid(save_grid(g, tmp_path / "g.json"))):
        assert back.steps == g.steps
        assert back.horizon == g.horizon


@settings(max_examples=150, deadline=None)
@given(grids)
def test_horizon_is_the_last_level_bit_for_bit(g):
    # the left-to-right float sum and the sequential cumsum of levels agree
    for grid in (g, TimeGrid.from_json(g.to_json())):
        assert grid.horizon.hex() == float(grid.levels[-1]).hex()
