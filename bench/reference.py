"""Fixed units of work, independent of nlsgauge, that track the host's speed.

The host runs other jobs, and its speed drifts by 15-40 % over tens of
seconds to minutes.  The runner times a reference unit between operations
and scales the run's times by how long the unit took, so that a run on a
slow stretch of the host and a run on a fast one report the same figures.
Each workload has a unit shaped like its own work, because kinds of work
respond to the host's state by different amounts: numpy calls and a banded
solve like one time step at the workload's grid size, or exact rational
arithmetic like ``RhoExpr`` canonicalisation.  No unit calls nlsgauge, so a
change to the library cannot change it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np
from scipy.linalg import solve_banded

# Scaled figures are what the run would read on a host where the reference
# unit takes this long.  The constant only sets the scale; the units below
# take 20-35 ms on the 2-core host the benchmark was built on.
NOMINAL_S = 0.020
# A sample is this many units back to back, taken at most this often.
UNITS_PER_SAMPLE = 3
SAMPLE_EVERY_S = 1.0


def step_unit(n: int, reps: int):
    """Polar decomposition, a five-point stencil and a pentadiagonal solve on
    a Gaussian state of n points, ``reps`` times: the shape of a time step."""
    x = np.linspace(-20.0, 20.0, n)
    psi = 0.8 * np.exp(-(x**2) / 16.0) * np.exp(0.3j * np.sin(x / 5.0))
    ab = np.empty((5, n), dtype=complex)
    ab[:] = np.array([0.1, -0.5, 4.0 + 0.5j, -0.5, 0.1])[:, None]

    def unit() -> None:
        for _ in range(reps):
            rho = np.abs(psi) ** 2
            phase = np.unwrap(np.angle(psi))
            drho = np.zeros_like(rho)
            drho[2:-2] = (rho[:-4] - 8.0 * rho[1:-3] + 8.0 * rho[3:-1] - rho[4:]) / 12.0
            solve_banded((2, 2), ab, psi * (rho + drho * phase))

    return unit


def rational_unit(reps: int):
    """Fraction products merged into a dict and sorted, ``reps`` times: the
    shape of ``RhoExpr`` arithmetic."""
    rng = np.random.default_rng(0)
    terms = [
        (Fraction(int(a), int(b)), Fraction(int(c), int(d)), int(m))
        for a, b, c, d, m in rng.integers(1, 9, (30, 5))
    ]

    def unit() -> None:
        for _ in range(reps):
            acc: dict = {}
            for c1, p1, m1 in terms[:15]:
                for c2, p2, m2 in terms[15:]:
                    key = (p1 + p2, m1 + m2)
                    acc[key] = acc.get(key, Fraction(0)) + c1 * c2
            sorted(acc.items())

    return unit


class Reference:
    """Timings of one reference unit over a run."""

    def __init__(self, unit) -> None:
        self._unit = unit
        unit()  # first calls pay one-off costs; keep them out of the samples
        self.times: list[float] = []
        self._last = -float("inf")

    def sample(self) -> None:
        """Time UNITS_PER_SAMPLE units back to back."""
        for _ in range(UNITS_PER_SAMPLE):
            t0 = time.perf_counter()
            self._unit()
            self.times.append(time.perf_counter() - t0)
        self._last = time.perf_counter()

    def sample_if_due(self) -> None:
        """Sample unless a sample was taken in the last SAMPLE_EVERY_S seconds."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self) -> float:
        """Factor that turns this run's times into nominal-host times."""
        return NOMINAL_S / statistics.median(self.times)
