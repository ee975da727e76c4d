"""Classification engine on the five-function family.

Gauge transformations with density-dependent generators e^{i omega(rho)} act
on the coefficient functions (f0..f6) as an abelian group
(``models.push_forward``); this module decides gauge equivalence of two
family members (recovering the generator), tests linearizability, and
provides the logarithmic diffusive model with the fixed phase-scaling map
chi = sqrt(rho) exp(i S / kbar) that linearizes it.

The classification is exact rational algebra: equality means canonical-form
equality of RhoExpr, never a numeric tolerance.  Each tested relation is one
``RhoExpr.combine``, canonicalized once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .fieldgrid import ComplexField, HydroField
from .models import FiveFunction, RhoExpr, push_forward


class NotEquivalent:
    """Witness result: no generator maps f to g."""

    def __init__(self, witness: str):
        self.witness = witness

    def __repr__(self) -> str:
        return f"NotEquivalent({self.witness!r})"


class NotLinearizable:
    """Witness result: the vector fails a linearizability condition."""

    def __init__(self, witness: str):
        self.witness = witness

    def __repr__(self) -> str:
        return f"NotLinearizable({self.witness!r})"


def equivalence_generator(f: FiveFunction, g: FiveFunction):
    """Generator omega with push_forward(f, omega) == g, or NotEquivalent.

    Direction convention: omega maps f to g.  The candidate is forced by the
    f5 component (omega' = (f5 - g5)/rho); the remaining components are then
    checked exactly, and the first violated invariant relation is reported.
    f2 is an invariant when f6 = 0; otherwise it is checked on the image.
    """
    if f.f0 != g.f0:
        return NotEquivalent("f~0 = f0 violated (f0 is a gauge invariant)")
    if f.f6 != g.f6:
        return NotEquivalent("f~6 = f6 violated (f6 is a gauge invariant)")
    if not f.f6 and f.f2 != g.f2:
        return NotEquivalent("f~2 = f2 violated (f2 is a gauge invariant)")
    if RhoExpr.combine((1, g.f1), (-1, f.f1), (-2, g.f5), (2, f.f5)):
        return NotEquivalent("f~1 - f1 = 2(f~5 - f5) violated")
    omega = (f.f5 - g.f5).div_rho().antideriv().drop_constant()
    image = push_forward(f, omega)
    if image.f2 != g.f2:
        return NotEquivalent("f~2 - f2 = -2 f6 omega' violated")
    if image.f4 != g.f4:
        return NotEquivalent("f~4 - f4 relation violated")
    if image.f3 != g.f3:
        return NotEquivalent("f~3 - f3 relation violated")
    return omega


def linearizable(f: FiveFunction):
    """Generator omega with push_forward(f, omega) == 0, or NotLinearizable.

    The vector is gauge equivalent to the linear equation iff f0 = 0,
    f6 = 0, f1 = 2 f5, f2 = 0, f3 = (f5/rho)(2 f5' - f5/rho),
    f4 = 2 f5^2 / rho; the generator is then omega = int (f5/rho) drho."""
    if f.f0:
        return NotLinearizable("f0 = 0 violated")
    if f.f6:
        return NotLinearizable("f6 = 0 violated")
    f5_over_rho = f.f5.div_rho()
    if f.f1 != 2 * f.f5:
        return NotLinearizable("f1 = 2 f5 violated")
    if not f.f2.is_zero:
        return NotLinearizable("f2 = 0 violated")
    if RhoExpr.combine((1, f.f3), (-2, f5_over_rho, f.f5.deriv()), (1, f5_over_rho, f5_over_rho)):
        return NotLinearizable("f3 = (f5/rho)(2 f5' - f5/rho) violated")
    if RhoExpr.combine((1, f.f4), (-2, f.f5, f5_over_rho)):
        if f.f5.is_zero:
            return NotLinearizable("f4 = 2 f5^2/rho violated (f5=0 forces f4=0)")
        return NotLinearizable("f4 = 2 f5^2/rho violated")
    return f5_over_rho.antideriv().drop_constant()


# ---------------------------------------------------------------------------
# phase-scaling linearization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearizationMap:
    """Phase-scaling map chi = sqrt(rho) exp(i S / kbar), kbar = sqrt(1-D^2)."""

    kbar: float
    D: float


def guerra_map(D: float) -> LinearizationMap:
    if not 0.0 <= D < 1.0:
        raise DomainError(f"phase-scaling map needs 0 <= D < 1, got {D}")
    return LinearizationMap(kbar=math.sqrt(1.0 - D * D), D=float(D))

def guerra_field(h: HydroField, lin: LinearizationMap) -> ComplexField:
    """chi = sqrt(rho) * exp(i * phase / kbar)."""
    values = np.sqrt(h.rho) * np.exp(1j * h.phase / lin.kbar)
    return ComplexField(values=values, grid=h.grid)


def log_diffusive_model(D: float) -> FiveFunction:
    """The real nonlinearity -(D^2/2)[lap rho / rho - (1/2)(grad rho / rho)^2]
    in five-function form: f3 = (D^2/4) rho^-2, f4 = -(D^2/2) rho^-1."""
    Dq = Fraction(D).limit_denominator(10**12)
    return FiveFunction(
        f3=RhoExpr.monomial(Dq * Dq / 4, -2),
        f4=RhoExpr.monomial(-Dq * Dq / 2, -1),
    )
