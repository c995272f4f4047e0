"""Nonuniform time grids: construction and serialization.

The step sizes are the stored truth; levels and adjacent-step ratios are
derived views.  All constructors normalize the steps to sum to the requested
horizon, and grids are immutable so they can be shared freely between runs.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "MAX_CERTIFIED_RATIO",
    "TimeGrid",
    "build_uniform",
    "build_alternating",
    "build_random",
    "build_from_steps",
    "build_from_ratios",
    "random_bounded_grid",
    "load_grid",
    "save_grid",
]

# Largest adjacent-step ratio covered by the positive-definiteness
# certification (ratio_analysis); random_bounded_grid keeps every ratio within it.
MAX_CERTIFIED_RATIO = 1.405
_DECODER = json.JSONDecoder(parse_int=float)  # so an integer too large for a float is inf


def _ro(a: np.ndarray) -> np.ndarray:
    """Mark an array read-only and return it."""
    a.flags.writeable = False
    return a


def _setstate_ro(self, state: dict) -> None:
    """__setstate__ that re-freezes the arrays, also those in tuples; pickle drops the flag."""
    self.__dict__.update(state)
    for value in state.values():
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                _ro(a)


@dataclass(frozen=True)
class TimeGrid:
    """Time levels 0 = t_0 < t_1 < ... < t_N, stored as steps tau_k = t_k - t_{k-1}."""

    steps: tuple[float, ...]
    __setstate__ = _setstate_ro

    def __post_init__(self):
        if len(self.steps) == 0:
            raise ValueError("a time grid needs at least one step")
        # positive steps with a finite sum are all finite, and a NaN makes the sum NaN
        total = sum(self.steps)
        if not (min(self.steps) > 0.0 and math.isfinite(total)):
            for s in self.steps:
                if not (math.isfinite(s) and s > 0.0):
                    raise ValueError(f"step sizes must be positive and finite, got {s!r}")
            raise ValueError(f"step sizes must have a finite sum, got {total!r}")

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @cached_property
    def levels(self) -> np.ndarray:
        """t_0 .. t_N (length N+1, t_0 = 0)."""
        out = np.zeros(self.n_steps + 1)
        np.cumsum(self.steps, out=out[1:])
        return _ro(out)

    @cached_property
    def ratios(self) -> tuple:
        """r_k = tau_k / tau_{k-1} for k = 2..N (length N-1, empty for N=1)."""
        tau = self.steps
        return tuple(tau[k] / tau[k - 1] for k in range(1, len(tau)))

    @property
    def horizon(self) -> float:
        """Final time t_N, summed left to right as levels is (the same bits)."""
        t = 0.0
        for s in self.steps:
            t += s
        return t

    def step(self, k: int) -> float:
        """tau_k, 1-based (k = 1..N)."""
        if not 1 <= k <= self.n_steps:
            raise IndexError(f"step index {k} outside 1..{self.n_steps}")
        return self.steps[k - 1]

    def ratio(self, k: int) -> float:
        """r_k = tau_k / tau_{k-1}, defined for k = 2..N."""
        if not 2 <= k <= self.n_steps:
            raise IndexError(f"ratio index {k} outside 2..{self.n_steps}")
        return self.steps[k - 1] / self.steps[k - 2]

    def to_json(self) -> str:
        """Serialize as {"T": ..., "steps": [...]}.

        Python's float repr is shortest-round-trip, so the decimal text
        parses back to bit-identical values.
        """
        return json.dumps({"T": self.horizon, "steps": list(self.steps)})

    @staticmethod
    def from_json(text: str) -> "TimeGrid":
        """Parse {"T": ..., "steps": [...]}, whose values must be JSON numbers."""
        # json.loads names a leading byte-order mark in its error; a decoder does not
        try:
            data = json.loads(text) if text.startswith("\ufeff") else _DECODER.decode(text)
        except RecursionError:
            raise ValueError("grid JSON is nested too deeply") from None
        try:
            horizon, steps = data["T"], tuple(data["steps"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"grid JSON needs 'T' and 'steps' fields: {exc}") from exc
        for value in (horizon, *steps):
            if type(value) is not float:
                raise ValueError(f"grid JSON 'T' and 'steps' must be numbers, got {value!r}")
        if not math.isfinite(horizon):
            raise ValueError(f"grid JSON horizon must be finite, got T = {horizon!r}")
        grid = TimeGrid(steps)
        if abs(grid.horizon - horizon) > 1e-12 * abs(horizon):
            raise ValueError(f"grid JSON inconsistent: steps sum to {grid.horizon!r}, T = {horizon!r}")
        return grid


def build_uniform(n: int, horizon: float) -> TimeGrid:
    """n equal steps of size horizon/n."""
    _check_build_args(n, horizon)
    return TimeGrid((horizon / n,) * n)


def build_alternating(n: int, horizon: float) -> TimeGrid:
    """Steps a, 2a, a, 2a, ... with a = 2*horizon/(3n); n must be even.

    Ratios are exactly 2 and 1/2 alternating (doubling is exact in binary).
    """
    _check_build_args(n, horizon)
    if n % 2 != 0:
        raise ValueError(f"alternating grid needs an even step count, got {n}")
    a = 2.0 * horizon / (3.0 * n)
    return TimeGrid((a, 2.0 * a) * (n // 2))


def build_random(n: int, horizon: float, seed: int) -> TimeGrid:
    """tau_k = horizon * sigma_k / sum(sigma), sigma_k i.i.d. uniform on (0,1).

    Draws come from numpy's PCG64 stream, so a given seed reproduces the
    grid bit-for-bit.  Exact zeros (probability ~2^-53 per draw) are redrawn.
    """
    _check_build_args(n, horizon)
    rng = np.random.Generator(np.random.PCG64(seed))
    sigma = rng.random(n)
    while np.any(sigma == 0.0):
        zero = sigma == 0.0
        sigma[zero] = rng.random(int(zero.sum()))
    return build_from_steps(horizon * sigma / sigma.sum())


def build_from_steps(steps) -> TimeGrid:
    """Grid from explicit step sizes (no normalization)."""
    return TimeGrid(tuple(float(s) for s in steps))


def random_bounded_grid(n: int, max_step: float, seed: int) -> TimeGrid:
    """n steps i.i.d. uniform on [max_step/1.405, max_step].

    Bounding the steps inside one 1.405-wide band keeps every adjacent ratio
    in [1/1.405, 1.405] by construction, so the grid satisfies the certified
    ratio bound while staying genuinely random.  Uses the PCG64 stream; the
    band's lower end must be a normal float, as subnormal steps break it.
    """
    if not (math.isfinite(max_step) and max_step >= MAX_CERTIFIED_RATIO * sys.float_info.min):
        raise ValueError(f"max_step must be finite and at least 1.405 times the smallest "
                         f"normal float, got {max_step!r}")
    _check_build_args(n, max_step)
    rng = np.random.Generator(np.random.PCG64(seed))
    return build_from_steps(rng.uniform(max_step / MAX_CERTIFIED_RATIO, max_step, size=n))


def build_from_ratios(ratios, horizon: float) -> TimeGrid:
    """Grid with the prescribed adjacent ratios, normalized to the horizon.

    len(ratios) = N-1 gives an N-step grid.  Steps are accumulated in log
    space so long ratio chains cannot overflow before normalization.
    """
    ratios = _checked_ratios(ratios)
    _check_build_args(len(ratios) + 1, horizon)
    logs = np.concatenate([[0.0], np.log(ratios)])
    rel = np.exp(np.cumsum(logs) - np.max(np.cumsum(logs)))
    return build_from_steps(horizon * rel / rel.sum())


def save_grid(grid: TimeGrid, path) -> Path:
    path = Path(path)
    path.write_text(grid.to_json() + "\n")
    return path


def load_grid(path) -> TimeGrid:
    return TimeGrid.from_json(Path(path).read_text())


def _check_build_args(n: int, horizon: float) -> None:
    if n < 1:
        raise ValueError(f"step count must be >= 1, got {n}")
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")


def _checked_ratios(ratios) -> np.ndarray:
    """ratios as a 1-D float array; ValueError unless all are positive and finite."""
    ratios = np.asarray(ratios, dtype=float)
    if ratios.ndim != 1:
        raise ValueError("ratios must be a 1-D sequence")
    if np.any(~np.isfinite(ratios)) or np.any(ratios <= 0.0):
        raise ValueError("ratios must be positive and finite")
    return ratios
