"""Classification engine on the five-function family.

Gauge transformations with density-dependent generators e^{i omega(rho)} act
on the coefficient functions (f0..f6) as an abelian group; this module
implements that push-forward exactly, decides gauge equivalence of two family
members (recovering the generator), tests linearizability, and provides the
fixed phase-scaling map chi = sqrt(rho) exp(i S / kbar) that linearizes the
logarithmic diffusive model.

Everything here is exact rational algebra: equality means canonical-form
equality of RhoExpr, never a numeric tolerance.  Each push-forward component
and each tested relation is one ``RhoExpr.combine``, canonicalized once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fieldgrid import ComplexField, HydroField
from .models import FiveFunction, RhoExpr


def push_forward(f: FiveFunction, omega: RhoExpr) -> FiveFunction:
    """Action of the gauge transformation with generator omega(rho) on the
    coefficient vector.  Exact; the group law
    push_forward(push_forward(f, w1), w2) == push_forward(f, w1 + w2) holds
    identically.  Each component is one ``RhoExpr.combine``, canonicalized
    once; rho omega' is a shift of omega' 's powers.  The potential f0 is
    invariant.  So is f6, and it moves f2 by -2 f6 omega' and f3 by
    f6 omega'^2 (with f6 = 0, f2 is invariant too)."""
    wp = omega.deriv()
    wpp = wp.deriv()
    rho_wp = wp.div_rho(-1)
    c = RhoExpr.combine
    f1t = c((1, f.f1), (-2, rho_wp))
    f2t = f.f2
    f3_parts = [(1, f.f3), (-1, f.f2, wp), (1, wp, wp), (-2, f.f5.deriv(), wp), (-1, f1t, wpp)]
    if f.f6:
        f6_wp = f.f6 * wp
        f2t = c((1, f.f2), (-2, f6_wp))
        f3_parts.append((1, f6_wp, wp))
    f3t = c(*f3_parts)
    f4t = c((1, f.f4), (-1, f1t, wp), (-2, f.f5, wp))
    f5t = c((1, f.f5), (-1, rho_wp))
    return FiveFunction(f1=f1t, f2=f2t, f3=f3t, f4=f4t, f5=f5t, f6=f.f6, f0=f.f0)


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

