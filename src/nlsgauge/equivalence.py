"""Classification engine on the five-function family.

Gauge transformations with density-dependent generators e^{i omega(rho)} act
on the coefficient functions (f0..f6) as an abelian group
(``models.push_forward``); this module decides gauge equivalence of two
family members (recovering the generator) with one decider, and
linearizability is equivalence to the free equation, the zero vector.  It
also provides the logarithmic diffusive model with the fixed phase-scaling
map chi = sqrt(rho) exp(i S / kbar) that linearizes it.

The classification is exact rational algebra: equality means canonical-form
equality of RhoExpr, never a numeric tolerance.
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
    """Witness result: no generator maps f to g (for ``linearizable``, g is
    the free equation, the zero vector)."""

    def __init__(self, witness: str):
        self.witness = witness

    def __repr__(self) -> str:
        return f"NotEquivalent({self.witness!r})"


def _decide(f: FiveFunction, g: FiveFunction, witnesses: dict):
    """Generator omega with push_forward(f, omega) == g, forced by f5 as
    omega' = (f5 - g5)/rho, or NotEquivalent with the witness of the first
    component in ``witnesses`` (name -> text) where the image differs from
    g.  push_forward copies f0 and f6, so those are compared before it."""
    for name in ("f0", "f6"):
        if getattr(f, name) != getattr(g, name):
            return NotEquivalent(witnesses[name])
    omega = (f.f5 - g.f5).div_rho().antideriv()
    image = push_forward(f, omega)
    for name, witness in witnesses.items():
        if getattr(image, name) != getattr(g, name):
            return NotEquivalent(witness)
    return omega


def equivalence_generator(f: FiveFunction, g: FiveFunction):
    """Generator omega with push_forward(f, omega) == g, or NotEquivalent.

    Direction convention: omega maps f to g.  f0 and f6 are gauge
    invariants, and so is f2 when f6 = 0; otherwise f2 moves by -2 f6 omega'
    and is checked after f1."""
    f1 = ("f1", "f~1 - f1 = 2(f~5 - f5) violated")
    if f.f6:
        f1_f2 = (f1, ("f2", "f~2 - f2 = -2 f6 omega' violated"))
    else:
        f1_f2 = (("f2", "f~2 = f2 violated (f2 is a gauge invariant)"), f1)
    return _decide(f, g, dict([
        ("f0", "f~0 = f0 violated (f0 is a gauge invariant)"),
        ("f6", "f~6 = f6 violated (f6 is a gauge invariant)"),
        *f1_f2,
        ("f4", "f~4 - f4 relation violated"),
        ("f3", "f~3 - f3 relation violated"),
    ]))


def linearizable(f: FiveFunction):
    """Generator omega with push_forward(f, omega) == 0, or NotEquivalent:
    equivalence to the free equation, with omega = int (f5/rho) drho."""
    f4 = "f4 = 2 f5^2/rho violated" + ("" if f.f5 else " (f5=0 forces f4=0)")
    return _decide(f, FiveFunction(), {
        "f0": "f0 = 0 violated",
        "f6": "f6 = 0 violated",
        "f1": "f1 = 2 f5 violated",
        "f2": "f2 = 0 violated",
        "f3": "f3 = (f5/rho)(2 f5' - f5/rho) violated",
        "f4": f4,
    })


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
