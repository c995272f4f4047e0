"""Property test: the unforced scheme never raises the discrete free energy.

Under the step restriction check_energy_condition states, the energy law
gives E(u^n) <= E(u^0) at every level.  Runs are drawn on small Fourier
grids (m = 4, 8, 16) from rough uniform-random data, where the Nyquist
modes carry weight, on grids whose steps are at most 0.01 with adjacent
ratios in [1/1.405, 1.405].
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from vsbdf3.allen_cahn import SolverConfig, check_energy_condition, run  # noqa: E402
from vsbdf3.cli import ENERGY_TOL  # noqa: E402
from vsbdf3.spectral import fourier_operator  # noqa: E402
from vsbdf3.time_grid import build_from_steps  # noqa: E402

_LOG_RATIO = math.log(1.405)


@st.composite
def unforced_runs(draw):
    """(m, eps2, steps, u0): a Fourier resolution, eps2, a grid and initial values."""
    m = draw(st.sampled_from((4, 8, 16)))
    eps2 = 10.0 ** draw(st.floats(min_value=-2.5, max_value=0.0))
    n = draw(st.integers(min_value=3, max_value=40))
    log_ratios = draw(st.lists(st.floats(min_value=-_LOG_RATIO, max_value=_LOG_RATIO),
                               min_size=n - 1, max_size=n - 1))
    rel = np.exp(np.cumsum([0.0, *log_ratios]))
    max_step = draw(st.floats(min_value=1e-4, max_value=0.01))
    steps = tuple(float(s) for s in max_step * (rel / rel.max()))  # the largest is max_step
    amplitude = draw(st.floats(min_value=0.05, max_value=2.0))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    return m, eps2, steps, amplitude * rng.uniform(-1.0, 1.0, m * m)


# Pure Nyquist data 0.5 cos 2x at m = 4: an energy whose gradient term came
# from d1 rather than from the scheme's Laplacian rose from 5.55 to 6.38 here.
@example((4, 0.5, (0.005,) * 20, 0.5 * np.cos(2.0 * fourier_operator(4).mesh[0])))
@settings(max_examples=100, deadline=None)
@given(unforced_runs())
def test_unforced_energy_never_exceeds_its_initial_value(case):
    m, eps2, steps, u0 = case
    config = SolverConfig(build_from_steps(steps), fourier_operator(m), eps2,
                          forcing="none", initial_data=lambda X, Y: u0)
    res = run(config)
    assume(all(check_energy_condition(d.b0, d.tau) for d in res.diagnostics))
    excess = float(np.max(res.energies - res.energies[0]))
    assert excess <= ENERGY_TOL
