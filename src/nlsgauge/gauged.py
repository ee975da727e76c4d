"""Transformations in a prescribed static external Abelian field.

The matter model is the anomalous-diffusion family (GaugedAnomalous)
minimally coupled to a fixed potential (A0, A).  The imaginary nonlinearity
can be removed either on the matter side (psi -> e^{i sigma} psi, field kept)
or on the field side (potential shifted by the gradient of the same
generator); the two routes produce the same physical current, which is the
checkable content of this module.

Sign convention: the covariant derivative is d/dx + iA, so the covariant
current is j_A = 2 rho (dS/dx + A) + J_A with J_A = D q rho^{q-1} drho/dx.

J_A, beta and sigma are read from the GaugedAnomalous family, and every
x-derivative is the solver's fourth-order ``derivative4``:
``covariant_current`` reads the field's current-based dS, and
``field_transform`` and ``two_route_currents`` differentiate with it.  The
matter-route generator of ``two_route_currents`` comes from
``cumulative_integral``, whose exact inverse ``derivative4`` is, so the two
routes agree to roundoff, and with the covariant current to the fourth-order
truncation error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import fieldgrid, gauge
from .errors import DomainError
from .fieldgrid import Grid1D, HydroField
from .models import GaugedAnomalous, GeneratorSpec

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


@dataclass(frozen=True)
class GaugedTransformResult:
    sigma: GeneratorSpec
    beta: Fraction

    def to_report(self) -> dict:
        return {
            "generator": gauge.generator_to_config(self.sigma),
            "beta": str(self.beta),
            "sign_convention": SIGN_CONVENTION,
        }


# ---------------------------------------------------------------------------
# currents
# ---------------------------------------------------------------------------


def _check_domain(model: GaugedAnomalous, rho: np.ndarray) -> None:
    if model.q < 1 and np.any(rho <= 0.0):
        raise DomainError("rho must be positive for q < 1")


def nonlinear_current(model: GaugedAnomalous, h: HydroField) -> np.ndarray:
    """J_A = D q rho^{q-1} drho/dx: the family's own current."""
    _check_domain(model, h.rho)
    return model.current(h)


def covariant_current(model: GaugedAnomalous, h: HydroField, ext: ExternalGauge) -> np.ndarray:
    """j_A = 2 rho (dS/dx + s*A) + J_A with s = +1."""
    return 2.0 * h.rho * (h.dS + SIGN_CONVENTION * ext.A) + nonlinear_current(model, h)


# ---------------------------------------------------------------------------
# the two transformation routes
# ---------------------------------------------------------------------------


def transformed_beta(model: GaugedAnomalous) -> Fraction:
    """beta = 2 alpha~ = 2 alpha - q^2 D^2 / 2, twice the alpha of the gauge
    image (q = 1 included)."""
    return 2 * gauge.transform_model(model).transformed.alpha


def matter_transform(model: GaugedAnomalous) -> GaugedTransformResult:
    if model.q <= 0:
        raise DomainError("q must be positive")
    return GaugedTransformResult(
        sigma=gauge.derive_generator(model), beta=transformed_beta(model)
    )


def field_transform(
    model: GaugedAnomalous, h: HydroField, ext: ExternalGauge
) -> tuple[np.ndarray, np.ndarray]:
    """(chi, chi0): the shifted potential components.

    chi  = A - d(sigma(rho))/dx,
    chi0 = A0 + dsigma/dt, with dsigma/dt = sigma'(rho) * drho/dt and
    drho/dt = -div(j_A) from the model's own continuity equation.
    """
    _check_domain(model, h.rho)
    sigma = gauge.derive_generator(model).sigma
    chi = ext.A - fieldgrid.derivative4(sigma(h.rho_safe), h.grid)
    rho_t = -fieldgrid.derivative4(covariant_current(model, h, ext), h.grid)
    chi0 = ext.A0 + sigma.deriv()(h.rho_safe) * rho_t
    return chi, chi0


def two_route_currents(
    model: GaugedAnomalous, h: HydroField, ext: ExternalGauge
) -> tuple[np.ndarray, np.ndarray]:
    """The transformed covariant current computed along each route.

    Matter route: phase S + sigma (discretely antidifferentiated so the
    current-collapse identity is exact), field A, no nonlinear current left.
    Field route: phase S, effective potential A + d(sigma)/dx = 2A - chi.
    Both equal 2 rho (dS + A) + J_A, with dS the derivative4 of the phase,
    the partner of cumulative_integral; agreement is discrete-exact.
    """
    sigma = gauge.discrete_generator_field(model, h)
    grid = h.grid
    matter_phase = h.phase + sigma
    j_matter = 2.0 * h.rho * (
        fieldgrid.derivative4(matter_phase, grid) + SIGN_CONVENTION * ext.A
    )
    dsigma = fieldgrid.derivative4(sigma, grid)
    effective_A = ext.A + dsigma
    j_field = 2.0 * h.rho * (
        fieldgrid.derivative4(h.phase, grid) + SIGN_CONVENTION * effective_A
    )
    return j_matter, j_field


def q_limit_consistency(
    D: float, rho_samples, eps: float = 1e-3
) -> float:
    """max over samples of |sigma'_{1+eps}(rho) - D/(2 rho)|: the derivative
    of GaugedAnomalous(1 + eps, D, 0)'s own generator converges to the
    logarithmic form as q -> 1 (additive constants are gauge-irrelevant, so
    the comparison is at derivative level)."""
    rho = np.asarray(list(rho_samples), dtype=float)
    if np.any(rho <= 0):
        raise DomainError("rho samples must be positive")
    sigma = gauge.derive_generator(GaugedAnomalous(1.0 + eps, D, 0)).sigma
    return float(np.max(np.abs(sigma.deriv()(rho) - 0.5 * D / rho)))
