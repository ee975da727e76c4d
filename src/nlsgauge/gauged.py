"""Transformations in a prescribed static external Abelian field.

The matter model is the anomalous-diffusion family (GaugedAnomalous)
minimally coupled to a fixed potential (A0, A).  The imaginary nonlinearity
can be removed either on the matter side (psi -> e^{i sigma} psi, field kept)
or on the field side (potential shifted by the gradient of the same
generator); the two routes produce the same physical current, which is the
checkable content of this module.

Sign convention: the covariant derivative is d/dx + iA, so the covariant
current is j_A = 2 rho (dS/dx + A) + J_A with J_A = D q rho^{q-1} drho/dx.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from . import fieldgrid, gauge
from .errors import DomainError
from .fieldgrid import FLOOR_DEFAULT, Grid1D, HydroField
from .models import GaugedAnomalous, RhoExpr

SIGN_CONVENTION = +1  # covariant derivative d/dx + iA


@dataclass(frozen=True)
class ExternalGauge:
    """Prescribed static potential: A (spatial) and A0 (scalar) on a grid."""

    A: np.ndarray
    A0: np.ndarray
    grid: Grid1D

    def __post_init__(self) -> None:
        if len(self.A) != self.grid.n or len(self.A0) != self.grid.n:
            raise ValueError("potential arrays must match the grid")


def write_gauge_csv(path, ext: ExternalGauge) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "A", "A0"])
        for x, a, a0 in zip(ext.grid.x, ext.A, ext.A0):
            writer.writerow(["%.17g" % x, "%.17g" % a, "%.17g" % a0])


def read_gauge_csv(path, boundary="dirichlet") -> ExternalGauge:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["x", "A", "A0"]:
            raise ValueError(f"unexpected CSV header {header!r}")
        rows = [[float(c) for c in row] for row in reader if row]
    arr = np.array(rows)
    x = arr[:, 0]
    n = len(x)
    h = (x[-1] - x[0]) / (n - 1)
    x_max = x[-1] if boundary == "dirichlet" else x[0] + n * h
    grid = Grid1D(x_min=x[0], x_max=x_max, n=n, boundary=boundary)
    return ExternalGauge(A=arr[:, 1], A0=arr[:, 2], grid=grid)


class Side(Enum):
    MATTER = "matter"
    FIELD = "field"


@dataclass(frozen=True)
class GaugedTransformResult:
    sigma: gauge.GeneratorSpec
    beta: Fraction
    side: Side
    sign_convention: int = SIGN_CONVENTION

    def to_report(self) -> dict:
        return {
            "generator": gauge.generator_to_config(self.sigma),
            "beta": str(self.beta),
            "side": self.side.value,
            "sign_convention": self.sign_convention,
        }


# ---------------------------------------------------------------------------
# currents
# ---------------------------------------------------------------------------


def _check_domain(model: GaugedAnomalous, rho: np.ndarray) -> None:
    if model.q < 1 and np.any(rho <= 0.0):
        raise DomainError("rho must be positive for q < 1")


def nonlinear_current(
    model: GaugedAnomalous, h: HydroField, floor: float = FLOOR_DEFAULT
) -> np.ndarray:
    """J_A = D q rho^{q-1} drho/dx."""
    _check_domain(model, h.rho)
    q, D = float(model.q), float(model.D)
    rho_safe = np.maximum(h.rho, floor)
    return D * q * rho_safe ** (q - 1.0) * fieldgrid.derivative(h.rho, h.grid)


def covariant_current(
    model: GaugedAnomalous,
    h: HydroField,
    ext: ExternalGauge,
    floor: float = FLOOR_DEFAULT,
) -> np.ndarray:
    """j_A = 2 rho (dS/dx + s*A) + J_A with s = +1."""
    dS = fieldgrid.derivative(h.phase, h.grid)
    return 2.0 * h.rho * (dS + SIGN_CONVENTION * ext.A) + nonlinear_current(
        model, h, floor
    )


# ---------------------------------------------------------------------------
# the two transformation routes
# ---------------------------------------------------------------------------


def transformed_beta(model: GaugedAnomalous) -> Fraction:
    """beta = 2 alpha - q^2 D^2 / 2 (q = 1 included as the same formula)."""
    return 2 * model.alpha - model.q * model.q * model.D * model.D / 2


def matter_transform(model: GaugedAnomalous) -> GaugedTransformResult:
    if model.q <= 0:
        raise DomainError("q must be positive")
    return GaugedTransformResult(
        sigma=gauge.derive_generator(model), beta=transformed_beta(model), side=Side.MATTER
    )


def field_transform(
    model: GaugedAnomalous,
    h: HydroField,
    ext: ExternalGauge,
    floor: float = FLOOR_DEFAULT,
) -> tuple[np.ndarray, np.ndarray]:
    """(chi, chi0): the shifted potential components.

    chi  = A - d(sigma(rho))/dx,
    chi0 = A0 + dsigma/dt, with dsigma/dt = sigma'(rho) * drho/dt and
    drho/dt = -div(j_A) from the model's own continuity equation.
    """
    _check_domain(model, h.rho)
    rho_safe = np.maximum(h.rho, floor)
    sigma = gauge.derive_generator(model).sigma
    chi = ext.A - fieldgrid.derivative(sigma(rho_safe), h.grid)
    j_A = covariant_current(model, h, ext, floor)
    rho_t = -fieldgrid.derivative(j_A, h.grid)
    chi0 = ext.A0 + sigma.deriv()(rho_safe) * rho_t
    return chi, chi0


def two_route_currents(
    model: GaugedAnomalous,
    h: HydroField,
    ext: ExternalGauge,
    floor: float = FLOOR_DEFAULT,
) -> tuple[np.ndarray, np.ndarray]:
    """The transformed covariant current computed along each route.

    Matter route: phase S + sigma (discretely antidifferentiated so the
    current-collapse identity is exact), field A, no nonlinear current left.
    Field route: phase S, effective potential A + d(sigma)/dx = 2A - chi.
    Both equal 2 rho (dS + A) + J_A; agreement is discrete-exact.
    """
    sigma = gauge.discrete_generator_field(model, h, floor)
    grid = h.grid
    matter_phase = h.phase + sigma
    j_matter = 2.0 * h.rho * (
        fieldgrid.derivative(matter_phase, grid) + SIGN_CONVENTION * ext.A
    )
    dsigma = fieldgrid.derivative(sigma, grid)
    effective_A = ext.A + dsigma
    j_field = 2.0 * h.rho * (
        fieldgrid.derivative(h.phase, grid) + SIGN_CONVENTION * effective_A
    )
    return j_matter, j_field


def q_limit_consistency(
    D: float, rho_samples, eps: float = 1e-3
) -> float:
    """max over samples of |sigma'_{1+eps}(rho) - D/(2 rho)|: the generator
    derivative converges to the logarithmic form as q -> 1 (additive constants
    are gauge-irrelevant, so the comparison is at derivative level)."""
    rho = np.asarray(list(rho_samples), dtype=float)
    if np.any(rho <= 0):
        raise DomainError("rho samples must be positive")
    q = 1.0 + eps
    sigma_prime = 0.5 * D * q * rho ** (q - 2.0)
    return float(np.max(np.abs(sigma_prime - 0.5 * D / rho)))
