"""Scalar gauge transformations of the third kind.

For each catalog model the imaginary part of the nonlinearity is removed by
the unitary map psi -> phi = e^{i sigma[rho, S]} psi.  This module derives the
generator sigma, checks the curl obstruction in n spatial dimensions,
evaluates sigma on a field, applies the phase, and produces the transformed
model (purely real nonlinearity) with its exact coefficient map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fieldgrid
from .errors import PeriodicityViolation
from .fieldgrid import TAPER_RELATIVE, ComplexField, HydroField
from .models import GeneratorSpec, Local, ModelSpec, current_functional, model_to_config

LOOP_TOL = 1e-8


def generator_to_config(gen: GeneratorSpec) -> dict:
    if isinstance(gen, Local):
        return {"variant": "local", "sigma": gen.sigma.to_triples()}
    return {
        "variant": "nonlocal",
        "alpha": gen.alpha.to_triples(),
        "beta": gen.beta.to_triples(),
    }


# ---------------------------------------------------------------------------
# generator derivation
# ---------------------------------------------------------------------------


def derive_generator(model: ModelSpec) -> GeneratorSpec:
    """The generator with grad(sigma) = J / (2 rho), up to an (always dropped)
    integration constant."""
    return model.generator()


def curl_condition_holds(model: ModelSpec, n_dims: int) -> tuple[bool, str]:
    """Whether J/rho is a gradient in n_dims dimensions (so a single-valued
    sigma exists).  Always true in one dimension; in higher dimensions true
    exactly for the models whose generator is a local function of rho."""
    if n_dims < 1:
        raise ValueError("n_dims must be >= 1")
    if n_dims == 1:
        return True, "one-dimensional: any J/rho integrates"
    if model.current_free:
        return True, "J = 0"
    if isinstance(model._generator, Local):
        return True, "J/(2 rho) = grad(sigma(rho)) is curl-free in any dimension"
    return False, "nonlocal generator: J/rho is not a gradient of a function of rho"


# ---------------------------------------------------------------------------
# generator evaluation and phase application
# ---------------------------------------------------------------------------


def _generator_integrand(model: ModelSpec, h: HydroField) -> np.ndarray:
    """J/(2 rho_safe) times ``fieldgrid.tail_taper(rho)``, the integrand of
    every generator field.  On a periodic grid a nonlocal generator's loop
    integral must vanish mod 2*pi, or sigma would jump at the seam; that is
    checked unless rho at both seam points is below the taper scale, where
    the seam is as negligible as the tails.  (A local sigma(rho) is
    single-valued: its discrete loop integral is discretization error.)"""
    integrand = current_functional(model, h) / (2.0 * h.rho_safe)
    integrand = integrand * fieldgrid.tail_taper(h.rho)
    if h.grid.boundary == "periodic" and not isinstance(model._generator, Local):
        loop = h.grid.h * float(np.sum(integrand))
        residue = loop - 2.0 * np.pi * round(loop / (2.0 * np.pi))
        seam = TAPER_RELATIVE * float(np.max(h.rho))
        if abs(residue) > LOOP_TOL and max(h.rho[0], h.rho[-1]) > seam:
            raise PeriodicityViolation(loop)
    return integrand


def discrete_generator_field(model: ModelSpec, h: HydroField) -> np.ndarray:
    """sigma obtained by discretely antidifferentiating J/(2 rho), anchored
    at sigma(x_min) = 0.

    Because cumulative_integral is the right inverse of derivative4, this
    representative satisfies 2 rho * derivative4(sigma) == J to roundoff,
    so the current-collapse identity j_phi = j_psi + J holds near-exactly,
    and it is a fourth-order accurate integral of the continuum generator.

    The integrand is tapered smoothly to zero where rho drops below a
    relative threshold: grid-scale roughness there (clamped densities,
    held phases) would otherwise seed a sawtooth mode of the inverse stencil
    that pollutes the whole generator.  The taper only shifts sigma by a
    constant over the populated region, which is gauge-irrelevant, and
    leaves the current-collapse residual below the deep-tail current.
    """
    return fieldgrid.cumulative_integral(_generator_integrand(model, h), h.grid)


def analysis_generator_field(model: ModelSpec, h: HydroField) -> np.ndarray:
    """The most accurate available sigma on the grid, for constructing gauge
    images and comparing phases between independently evolved runs.

    A local generator gets its closed form sigma(rho) evaluated pointwise
    (no quadrature error at all); a nonlocal one is
    :func:`discrete_generator_field`, the fourth-order antiderivative of
    the tapered integrand.  The two agree up to a constant.
    """
    gen = model._generator
    if isinstance(gen, Local):
        return gen.sigma(h.rho_safe)
    return discrete_generator_field(model, h)


def apply_gauge(psi: ComplexField, sigma: np.ndarray) -> ComplexField:
    """phi = e^{i sigma} psi (pointwise; |phi| = |psi|)."""
    if len(sigma) != psi.grid.n:
        raise ValueError("sigma length does not match grid")
    return ComplexField(values=np.exp(1j * sigma) * psi.values, grid=psi.grid)


# ---------------------------------------------------------------------------
# model transformation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransformResult:
    transformed: ModelSpec
    generator: GeneratorSpec
    coefficient_report: tuple[tuple[str, str, str], ...]
    flags: dict = field(default_factory=dict)

    def to_report(self) -> dict:
        return {
            "generator": generator_to_config(self.generator),
            "coefficients": [list(row) for row in self.coefficient_report],
            "flags": dict(self.flags),
            "transformed": model_to_config(self.transformed),
        }


def transform_model(model: ModelSpec) -> TransformResult:
    """The gauge image of the model: same dynamics, purely real nonlinearity,
    exact rational coefficient map."""
    gen = derive_generator(model)
    out, report, flags = model.transform(gen)
    return TransformResult(
        transformed=out,
        generator=gen,
        coefficient_report=report,
        flags={"curl_1d": True, **flags},
    )
