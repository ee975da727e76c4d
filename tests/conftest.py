import tempfile

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import configuration, settings

from nlsgauge import fieldgrid
from nlsgauge.models import DNLS

# Property tests draw the same examples on every run and keep no example
# database, so the suite repeats exactly.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")

# Hypothesis also caches the constants it reads from the package source, in
# ``.hypothesis/`` under the working directory unless told otherwise; a
# temporary directory, removed at exit, keeps the checkout clean.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


class QuotedImageDNLS(DNLS):
    """A DNLS model whose gauge image uses the commonly quoted special-case
    value b2~ = 3 b3^2/4 instead of the general map's: a wrong image that
    ``verify_equivalence`` must tell apart from the right one."""

    def transform(self, gen):
        _, report, flags = super().transform(gen)
        return DNLS(self.b1, 3 * self.b3**2 / 4, self.b3, 0), report, flags


def field_from(rho, S, grid):
    """The field of psi = sqrt(rho) exp(iS): a manufactured (rho, S) field,
    built from psi like every field."""
    return fieldgrid.to_hydro(fieldgrid.ComplexField(np.sqrt(rho) * np.exp(1j * S), grid))


def random_fraction(rng, max_num=9, max_den=8, nonzero=False):
    while True:
        f = Fraction(int(rng.integers(-max_num, max_num + 1)), int(rng.integers(1, max_den + 1)))
        if f != 0 or not nonzero:
            return f


@pytest.fixture
def grid512():
    return fieldgrid.Grid1D(-20.0, 20.0, 512)


@pytest.fixture
def gaussian_state(grid512):
    x = grid512.x
    values = 0.8 * np.exp(-(x**2) / 16.0) * np.exp(0.3j * np.sin(x / 5.0))
    return fieldgrid.ComplexField(values.astype(complex), grid512)


@pytest.fixture
def smooth_hydro(grid512):
    x = grid512.x
    rho = 0.64 * np.exp(-(x**2) / 8.0) + 1e-8
    S = 0.2 * np.sin(x / 4.0) + 0.05 * x
    return field_from(rho, S, grid512)
