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
from .fieldgrid import FLOOR_DEFAULT, ComplexField, HydroField

# The generator specs are built by the model families, so they are defined
# with them and re-exported here.
from .models import (
    GeneratorSpec,
    Local,
    ModelSpec,
    Nonlocal,
    current_functional,
    model_to_config,
)

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
    return model.curl_condition()


# ---------------------------------------------------------------------------
# generator evaluation and phase application
# ---------------------------------------------------------------------------


def evaluate_generator(
    gen: GeneratorSpec, h: HydroField, floor: float = FLOOR_DEFAULT
) -> np.ndarray:
    """sigma on the grid.  Nonlocal generators are anchored sigma(x_min) = 0;
    on periodic grids the loop integral must vanish mod 2*pi or the
    transformed field would be discontinuous."""
    rho_safe = np.maximum(h.rho, floor)
    if isinstance(gen, Local):
        return gen.sigma(rho_safe)
    integrand = gen.alpha(rho_safe)
    if not gen.beta.is_zero:
        integrand = integrand + gen.beta(rho_safe) * fieldgrid.derivative(
            h.phase, h.grid
        )
    if h.grid.boundary == "periodic":
        loop = h.grid.h * float(np.sum(integrand))
        residue = loop - 2.0 * np.pi * round(loop / (2.0 * np.pi))
        if abs(residue) > LOOP_TOL:
            raise PeriodicityViolation(loop)
    return fieldgrid.cumulative_integral(integrand, h.grid)


def discrete_generator_field(
    model: ModelSpec, h: HydroField, floor: float = FLOOR_DEFAULT
) -> np.ndarray:
    """sigma obtained by discretely antidifferentiating J/(2 rho).

    Because cumulative_integral is the algebraic right-inverse of derivative,
    this representative satisfies 2 rho * derivative(sigma) == J to roundoff,
    so the current-collapse identity j_phi = j_psi + J holds near-exactly.
    It differs from evaluate_generator's pointwise local form by an O(h^2)
    discretization of the same continuum generator (anchored sigma(x_min)=0).

    The integrand is tapered smoothly to zero where rho drops below a
    relative threshold: grid-scale roughness there (clamped densities,
    held phases) would otherwise seed a sawtooth mode of the inverse stencil
    that pollutes the whole generator.  The taper only shifts sigma by a
    constant over the populated region, which is gauge-irrelevant, and
    leaves the current-collapse residual below the deep-tail current.
    """
    rho_safe = np.maximum(h.rho, floor)
    integrand = current_functional(model, h, floor) / (2.0 * rho_safe)
    return fieldgrid.cumulative_integral(integrand * fieldgrid.tail_taper(h.rho), h.grid)


def analysis_generator_field(
    model: ModelSpec, h: HydroField, floor: float = FLOOR_DEFAULT
) -> np.ndarray:
    """The most accurate available sigma on the grid (anchored like
    discrete_generator_field, up to a constant).

    Models with a local generator get the closed-form sigma(rho) evaluated
    pointwise (no quadrature error at all); nonlocal generators fall back to
    fourth-order cumulative Simpson quadrature of the tapered integrand.

    Use this representative when *constructing* gauge images or comparing
    phases between independently evolved runs: there its accuracy directly
    bounds the comparison.  Use :func:`discrete_generator_field` when the
    exact discrete current-collapse identity is needed instead — the two
    differ by O(h^2) discretization of the same continuum generator.
    """
    gen = derive_generator(model)
    rho_safe = np.maximum(h.rho, floor)
    if isinstance(gen, Local):
        return gen.sigma(rho_safe)
    integrand = current_functional(model, h, floor) / (2.0 * rho_safe)
    return fieldgrid.cumulative_simpson(integrand * fieldgrid.tail_taper(h.rho), h.grid)


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
