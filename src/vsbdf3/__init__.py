"""Variable-step three-step BDF integration of the Allen-Cahn equation.

Subpackages: time grids, kernel weights and their matrix forms, step-ratio
positivity certification, spectral collocation operators, the implicit
solver, and a command-line study harness.

The package republishes each library module's ``__all__``, so a name is
declared public in one place; the command-line harness (``vsbdf3.cli``) is
not imported.
"""

from .allen_cahn import *  # noqa: F401,F403
from .bdf_kernels import *  # noqa: F401,F403
from .ratio_analysis import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .time_grid import *  # noqa: F401,F403

__version__ = "0.1.0"
