"""Exact algebra of functions of rho and the catalog of nonlinearity families.

``RhoExpr`` is the closed algebra of rational-coefficient sums of
``rho**p * log(rho)**m`` (p rational, m a nonnegative integer).  It is closed
under addition, multiplication, d/drho, division by rho, and antidifferentiation,
so every coefficient map in the package is exact rational arithmetic.

The model families are frozen dataclasses; ``eval_nonlinearity`` produces the
(W, calW) split on a hydrodynamic field, ``current_functional`` the nonlinear
current J (with calW = div(J)/(2 rho) holding *discretely*), and
``to_five_function`` the exact embedding into the five-function family when
one exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from . import fieldgrid
from .errors import DomainError, NotIntegrable
from .fieldgrid import FLOOR_DEFAULT, Grid1D, HydroField

Rational = Union[Fraction, int, str]


def _frac(v: Rational) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


# ---------------------------------------------------------------------------
# RhoExpr
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RhoExpr:
    """Canonical sum of terms ``coeff * rho**p * log(rho)**m``.

    ``terms`` is a tuple of (coeff, p, m) with exact Fraction coeff and p,
    int m >= 0, sorted by (p, m), duplicates merged, zero coefficients dropped.
    """

    terms: tuple[tuple[Fraction, Fraction, int], ...]

    # -- construction -------------------------------------------------------

    @staticmethod
    def make(terms) -> "RhoExpr":
        acc: dict[tuple[Fraction, int], Fraction] = {}
        for coeff, p, m in terms:
            coeff, p, m = _frac(coeff), _frac(p), int(m)
            if m < 0:
                raise ValueError("log power must be nonnegative")
            key = (p, m)
            acc[key] = acc.get(key, Fraction(0)) + coeff
        canon = tuple(
            (c, p, m) for (p, m), c in sorted(acc.items()) if c != 0
        )
        return RhoExpr(canon)

    @staticmethod
    def zero() -> "RhoExpr":
        return RhoExpr(())

    @staticmethod
    def const(c: Rational) -> "RhoExpr":
        return RhoExpr.make([(c, 0, 0)])

    @staticmethod
    def monomial(coeff: Rational, p: Rational, m: int = 0) -> "RhoExpr":
        return RhoExpr.make([(coeff, p, m)])

    @staticmethod
    def rho(power: Rational = 1) -> "RhoExpr":
        return RhoExpr.make([(1, power, 0)])

    @staticmethod
    def log_rho() -> "RhoExpr":
        return RhoExpr.make([(1, 0, 1)])

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "RhoExpr") -> "RhoExpr":
        return RhoExpr.make(self.terms + other.terms)

    def __neg__(self) -> "RhoExpr":
        return RhoExpr(tuple((-c, p, m) for c, p, m in self.terms))

    def __sub__(self, other: "RhoExpr") -> "RhoExpr":
        return self + (-other)

    def __mul__(self, other) -> "RhoExpr":
        if isinstance(other, RhoExpr):
            return RhoExpr.make(
                [
                    (c1 * c2, p1 + p2, m1 + m2)
                    for c1, p1, m1 in self.terms
                    for c2, p2, m2 in other.terms
                ]
            )
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c: Rational) -> "RhoExpr":
        c = _frac(c)
        return RhoExpr.make([(c * coeff, p, m) for coeff, p, m in self.terms])

    def div_rho(self, power: Rational = 1) -> "RhoExpr":
        power = _frac(power)
        return RhoExpr(tuple((c, p - power, m) for c, p, m in self.terms))

    def deriv(self) -> "RhoExpr":
        """Exact d/drho."""
        out = []
        for c, p, m in self.terms:
            if p != 0:
                out.append((c * p, p - 1, m))
            if m > 0:
                out.append((c * m, p - 1, m - 1))
        return RhoExpr.make(out)

    def antideriv(self) -> "RhoExpr":
        """Exact antiderivative with zero integration constant.

        Uses integration by parts for p != -1 and the pure-log primitive
        log^{m+1}/(m+1) for p == -1; the algebra is closed under both.
        """
        out = RhoExpr.zero()
        for c, p, m in self.terms:
            out = out + _antideriv_term(c, p, m)
        return out

    def drop_constant(self) -> "RhoExpr":
        """Remove the pure-constant term (generator normalization)."""
        return RhoExpr(tuple(t for t in self.terms if not (t[1] == 0 and t[2] == 0)))

    def monomial_quotient(self, den: "RhoExpr") -> "RhoExpr":
        """Exact division by a single-term expression."""
        if len(den.terms) != 1:
            raise NotIntegrable(f"cannot divide by non-monomial {den}")
        c, p, m = den.terms[0]
        if any(tm < m for _, _, tm in self.terms):
            raise NotIntegrable(f"quotient by {den} leaves a negative log power")
        return RhoExpr(tuple((tc / c, tp - p, tm - m) for tc, tp, tm in self.terms))

    # -- predicates / evaluation -------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self) -> Fraction | None:
        """The exact value if the expression is constant, else None."""
        if self.is_zero:
            return Fraction(0)
        if len(self.terms) == 1 and self.terms[0][1] == 0 and self.terms[0][2] == 0:
            return self.terms[0][0]
        return None

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        needs_positive = any(
            m > 0 or p < 0 or p.denominator != 1 for _, p, m in self.terms
        )
        if needs_positive and np.any(rho <= 0.0):
            raise DomainError("expression requires rho > 0")
        out = np.zeros_like(rho)
        if not self.terms:
            return out
        log = np.log(rho) if any(m > 0 for _, _, m in self.terms) else None
        for c, p, m in self.terms:
            term = float(c) * rho ** float(p)
            if m > 0:
                term = term * log**m
            out = out + term
        return out

    # -- serialization ------------------------------------------------------

    def to_triples(self) -> list[list[str]]:
        return [[str(c), str(p), str(m)] for c, p, m in self.terms]

    @staticmethod
    def from_triples(triples) -> "RhoExpr":
        return RhoExpr.make([(Fraction(c), Fraction(p), int(m)) for c, p, m in triples])

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for c, p, m in self.terms:
            s = str(c)
            if p != 0:
                s += f"*rho^{p}"
            if m > 0:
                s += f"*log(rho)^{m}" if m > 1 else "*log(rho)"
            parts.append(s)
        return " + ".join(parts)


def _antideriv_term(c: Fraction, p: Fraction, m: int) -> RhoExpr:
    if p == -1:
        return RhoExpr.make([(c / (m + 1), 0, m + 1)])
    if m == 0:
        return RhoExpr.make([(c / (p + 1), p + 1, 0)])
    lead = RhoExpr.make([(c / (p + 1), p + 1, m)])
    return lead + _antideriv_term(-c * m / (p + 1), p, m - 1)


# ---------------------------------------------------------------------------
# model catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DNLS:
    """Derivative-NLS family: W = b1 rho + b2 rho^2 + b3 rho dS,
    calW = b4 d(rho), current J = b4 rho^2."""

    b1: Fraction
    b2: Fraction
    b3: Fraction
    b4: Fraction

    def __init__(self, b1: Rational, b2: Rational, b3: Rational, b4: Rational):
        object.__setattr__(self, "b1", _frac(b1))
        object.__setattr__(self, "b2", _frac(b2))
        object.__setattr__(self, "b3", _frac(b3))
        object.__setattr__(self, "b4", _frac(b4))

    @staticmethod
    def from_wave_params(a1: Rational, a2: Rational, a3: Rational, a4: Rational) -> "DNLS":
        a1, a2, a3, a4 = map(_frac, (a1, a2, a3, a4))
        return DNLS(a1, a2, a4 - a3, (a3 + a4) / 2)

    @property
    def canonical(self) -> bool:
        return self.b3 == -2 * self.b4


@dataclass(frozen=True)
class DoebnerGoldin:
    """W = sum c_i R_i, calW = (D/2) R2, with
    R1 = div(rho grad S)/rho, R2 = lap(rho)/rho, R3 = (grad S)^2,
    R4 = grad S . grad rho / rho, R5 = (grad rho / rho)^2."""

    c1: Fraction
    c2: Fraction
    c3: Fraction
    c4: Fraction
    c5: Fraction
    D: Fraction

    def __init__(self, c1, c2, c3, c4, c5, D):
        for name, v in zip(("c1", "c2", "c3", "c4", "c5", "D"), (c1, c2, c3, c4, c5, D)):
            object.__setattr__(self, name, _frac(v))

    @property
    def canonical(self) -> bool:
        return self.c1 == self.D and self.c4 == -self.D and self.c3 == 0 and self.c2 == -2 * self.c5


@dataclass(frozen=True)
class EIP:
    """Current-current coupled family: W = -2 kappa rho (dS)^2,
    calW = (kappa/rho) d(rho^2 dS)."""

    kappa: Fraction

    def __init__(self, kappa: Rational):
        object.__setattr__(self, "kappa", _frac(kappa))


@dataclass(frozen=True)
class Entropic:
    """Entropy-derived diffusive family:
    W = -D f(rho) lap S + G(rho), calW = -(D/2 rho) div(f grad rho),
    with f(rho) = rho dlog(kappa)/drho."""

    kappa_fn: RhoExpr
    D: Fraction
    G: RhoExpr

    def __init__(self, kappa_fn: RhoExpr, D: Rational, G: RhoExpr = RhoExpr.zero()):
        object.__setattr__(self, "kappa_fn", kappa_fn)
        object.__setattr__(self, "D", _frac(D))
        object.__setattr__(self, "G", G)

    def f_of_rho(self, rho: np.ndarray) -> np.ndarray:
        """f(rho) = rho * kappa'(rho)/kappa(rho), evaluated numerically."""
        kap = self.kappa_fn(rho)
        if np.any(kap <= 0.0):
            raise DomainError("kappa(rho) must be positive")
        return rho * self.kappa_fn.deriv()(rho) / kap

    def f_expr(self) -> RhoExpr:
        """f(rho) in the algebra; requires kappa to be a single term."""
        return (RhoExpr.rho() * self.kappa_fn.deriv()).monomial_quotient(self.kappa_fn)


@dataclass(frozen=True)
class FiveFunction:
    """W = f1 lap S + f2 grad rho . grad S + f3 (grad rho)^2 + f4 lap rho,
    calW = div(f5 grad rho)/rho."""

    f1: RhoExpr
    f2: RhoExpr
    f3: RhoExpr
    f4: RhoExpr
    f5: RhoExpr

    @property
    def fvec(self) -> tuple[RhoExpr, ...]:
        return (self.f1, self.f2, self.f3, self.f4, self.f5)


@dataclass(frozen=True)
class GaugedAnomalous:
    """Anomalous-diffusion family (the A=0 restriction when used as a scalar
    model): W = qD rho^{q-1} lap S + 2 alpha rho^{2q-3} lap rho
    + alpha(2q-3) rho^{2q-4} (grad rho)^2, calW = (D/2) lap(rho^q)/rho."""

    q: Fraction
    D: Fraction
    alpha: Fraction

    def __init__(self, q: Rational, D: Rational, alpha: Rational):
        object.__setattr__(self, "q", _frac(q))
        object.__setattr__(self, "D", _frac(D))
        object.__setattr__(self, "alpha", _frac(alpha))


@dataclass(frozen=True)
class EIPTransformed:
    """Gauge image of EIP: W = -2 kappa rho/(1 + kappa rho) (dS)^2
    + (kappa/2) rho d^2(log rho), calW = 0."""

    kappa: Fraction

    def __init__(self, kappa: Rational):
        object.__setattr__(self, "kappa", _frac(kappa))


@dataclass(frozen=True)
class EntropicTransformed:
    """Gauge image of Entropic: W = -(D^2/2)[g1 lap rho + g2 (grad rho)^2]
    + G(rho) with g1 = rho (dlog kappa/drho)^2 and g2 = g1'/2; calW = 0."""

    g1: RhoExpr
    g2: RhoExpr
    G: RhoExpr
    D: Fraction


ModelSpec = Union[
    DNLS,
    DoebnerGoldin,
    EIP,
    Entropic,
    FiveFunction,
    GaugedAnomalous,
    EIPTransformed,
    EntropicTransformed,
]


@dataclass(frozen=True)
class NonlinearityEval:
    W: np.ndarray
    calW: np.ndarray


class NotRepresentable:
    """Marker result: the model has no exact five-function embedding."""

    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self) -> str:
        return f"NotRepresentable({self.reason!r})"


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _clamped(rho: np.ndarray, floor: float) -> np.ndarray:
    return np.maximum(rho, floor)


def current_functional(
    model: ModelSpec, h: HydroField, floor: float = FLOOR_DEFAULT
) -> np.ndarray:
    """The nonlinear current J with calW = div(J)/(2 rho) discretely."""
    grid = h.grid
    rho = h.rho
    if isinstance(model, DNLS):
        return float(model.b4) * rho**2
    if isinstance(model, DoebnerGoldin):
        return float(model.D) * fieldgrid.derivative4(rho, grid)
    if isinstance(model, EIP):
        dS = fieldgrid.derivative4(h.phase, grid)
        return 2.0 * float(model.kappa) * rho**2 * dS
    if isinstance(model, Entropic):
        f = model.f_of_rho(_clamped(rho, floor))
        return -float(model.D) * f * fieldgrid.derivative4(rho, grid)
    if isinstance(model, FiveFunction):
        return 2.0 * model.f5(_clamped(rho, floor)) * fieldgrid.derivative4(rho, grid)
    if isinstance(model, GaugedAnomalous):
        q, D = float(model.q), float(model.D)
        return D * q * _clamped(rho, floor) ** (q - 1.0) * fieldgrid.derivative4(rho, grid)
    if isinstance(model, (EIPTransformed, EntropicTransformed)):
        return np.zeros_like(rho)
    raise TypeError(f"unknown model {model!r}")


def eval_nonlinearity(
    model: ModelSpec, h: HydroField, floor: float = FLOOR_DEFAULT
) -> NonlinearityEval:
    """(W, calW) on the field.  calW is always assembled in discrete divergence
    form from the current functional, so the continuity identity
    calW = div(J)/(2 rho) holds by construction (the exact telescoping of the
    divergence form is what keeps N conservation at roundoff level)."""
    grid = h.grid
    rho = h.rho
    rho_safe = _clamped(rho, floor)
    J = current_functional(model, h, floor)
    calW = fieldgrid.derivative4(J, grid) / (2.0 * rho_safe)

    if isinstance(model, DNLS):
        dS = fieldgrid.derivative4(h.phase, grid)
        W = float(model.b1) * rho + float(model.b2) * rho**2 + float(model.b3) * rho * dS
    elif isinstance(model, DoebnerGoldin):
        drho = fieldgrid.derivative4(rho, grid)
        dS = fieldgrid.derivative4(h.phase, grid)
        lapS = fieldgrid.laplacian4(h.phase, grid)
        laprho = fieldgrid.laplacian4(rho, grid)
        R1 = lapS + drho * dS / rho_safe
        R2 = laprho / rho_safe
        R3 = dS**2
        R4 = dS * drho / rho_safe
        R5 = (drho / rho_safe) ** 2
        W = (
            float(model.c1) * R1
            + float(model.c2) * R2
            + float(model.c3) * R3
            + float(model.c4) * R4
            + float(model.c5) * R5
        )
    elif isinstance(model, EIP):
        dS = fieldgrid.derivative4(h.phase, grid)
        W = -2.0 * float(model.kappa) * rho * dS**2
    elif isinstance(model, Entropic):
        lapS = fieldgrid.laplacian4(h.phase, grid)
        W = -float(model.D) * model.f_of_rho(rho_safe) * lapS + model.G(rho_safe)
    elif isinstance(model, FiveFunction):
        drho = fieldgrid.derivative4(rho, grid)
        dS = fieldgrid.derivative4(h.phase, grid)
        lapS = fieldgrid.laplacian4(h.phase, grid)
        laprho = fieldgrid.laplacian4(rho, grid)
        W = (
            model.f1(rho_safe) * lapS
            + model.f2(rho_safe) * drho * dS
            + model.f3(rho_safe) * drho**2
            + model.f4(rho_safe) * laprho
        )
    elif isinstance(model, GaugedAnomalous):
        q, D, alpha = float(model.q), float(model.D), float(model.alpha)
        drho = fieldgrid.derivative4(rho, grid)
        lapS = fieldgrid.laplacian4(h.phase, grid)
        laprho = fieldgrid.laplacian4(rho, grid)
        W = (
            q * D * rho_safe ** (q - 1.0) * lapS
            + 2.0 * alpha * rho_safe ** (2.0 * q - 3.0) * laprho
            + alpha * (2.0 * q - 3.0) * rho_safe ** (2.0 * q - 4.0) * drho**2
        )
    elif isinstance(model, EIPTransformed):
        kap = float(model.kappa)
        dS = fieldgrid.derivative4(h.phase, grid)
        laplog = fieldgrid.laplacian4(np.log(rho_safe), grid)
        W = -2.0 * kap * rho / (1.0 + kap * rho) * dS**2 + 0.5 * kap * rho * laplog
    elif isinstance(model, EntropicTransformed):
        drho = fieldgrid.derivative4(rho, grid)
        laprho = fieldgrid.laplacian4(rho, grid)
        D2half = float(model.D) ** 2 / 2.0
        W = (
            -D2half * (model.g1(rho_safe) * laprho + model.g2(rho_safe) * drho**2)
            + model.G(rho_safe)
        )
    else:
        raise TypeError(f"unknown model {model!r}")
    return NonlinearityEval(W=W, calW=calW)


def to_five_function(model: ModelSpec):
    """Exact embedding into the five-function family, or NotRepresentable."""
    if isinstance(model, FiveFunction):
        return model
    if isinstance(model, DNLS):
        if model.b1 == model.b2 == model.b3 == model.b4 == 0:
            z = RhoExpr.zero()
            return FiveFunction(z, z, z, z, z)
        return NotRepresentable(
            "potential terms rho, rho^2 and the rho*dS term lie outside the family"
        )
    if isinstance(model, EIP):
        if model.kappa == 0:
            z = RhoExpr.zero()
            return FiveFunction(z, z, z, z, z)
        return NotRepresentable("(grad S)^2 term lies outside the family")
    if isinstance(model, DoebnerGoldin):
        if model.c3 != 0:
            return NotRepresentable("(grad S)^2 term (c3) lies outside the family")
        return FiveFunction(
            f1=RhoExpr.const(model.c1),
            f2=RhoExpr.monomial(model.c1 + model.c4, -1),
            f3=RhoExpr.monomial(model.c5, -2),
            f4=RhoExpr.monomial(model.c2, -1),
            f5=RhoExpr.const(model.D / 2),
        )
    if isinstance(model, Entropic):
        if not model.G.is_zero:
            return NotRepresentable("potential term G(rho) lies outside the family")
        try:
            f = model.f_expr()
        except NotIntegrable:
            return NotRepresentable(
                "f(rho) = rho dlog(kappa)/drho has no closed form in the algebra"
            )
        z = RhoExpr.zero()
        return FiveFunction(
            f1=(-model.D) * f, f2=z, f3=z, f4=z, f5=Fraction(-model.D, 2) * f
        )
    if isinstance(model, GaugedAnomalous):
        q, D, alpha = model.q, model.D, model.alpha
        return FiveFunction(
            f1=RhoExpr.monomial(q * D, q - 1),
            f2=RhoExpr.zero(),
            f3=RhoExpr.monomial(alpha * (2 * q - 3), 2 * q - 4),
            f4=RhoExpr.monomial(2 * alpha, 2 * q - 3),
            f5=RhoExpr.monomial(q * D / 2, q - 1),
        )
    if isinstance(model, EntropicTransformed):
        if not model.G.is_zero:
            return NotRepresentable("potential term G(rho) lies outside the family")
        D2half = model.D * model.D / 2
        z = RhoExpr.zero()
        return FiveFunction(
            f1=z, f2=z, f3=(-D2half) * model.g2, f4=(-D2half) * model.g1, f5=z
        )
    if isinstance(model, EIPTransformed):
        if model.kappa == 0:
            z = RhoExpr.zero()
            return FiveFunction(z, z, z, z, z)
        return NotRepresentable("rational-in-rho coefficients lie outside the family")
    raise TypeError(f"unknown model {model!r}")


# ---------------------------------------------------------------------------
# config (de)serialization
# ---------------------------------------------------------------------------

FAMILY_NAMES = {
    DNLS: "dnls",
    DoebnerGoldin: "doebner-goldin",
    EIP: "eip",
    Entropic: "entropic",
    FiveFunction: "five-function",
    GaugedAnomalous: "gauged-anomalous",
    EIPTransformed: "eip-transformed",
    EntropicTransformed: "entropic-transformed",
}


def model_to_config(model: ModelSpec) -> dict:
    d: dict = {"family": FAMILY_NAMES[type(model)]}
    if isinstance(model, DNLS):
        d["b"] = [str(model.b1), str(model.b2), str(model.b3), str(model.b4)]
    elif isinstance(model, DoebnerGoldin):
        d["c"] = [str(getattr(model, f"c{i}")) for i in range(1, 6)]
        d["D"] = str(model.D)
    elif isinstance(model, EIP):
        d["kappa"] = str(model.kappa)
    elif isinstance(model, Entropic):
        d["kappa_fn"] = model.kappa_fn.to_triples()
        d["D"] = str(model.D)
        d["G"] = model.G.to_triples()
    elif isinstance(model, FiveFunction):
        for i, f in enumerate(model.fvec, start=1):
            d[f"f{i}"] = f.to_triples()
    elif isinstance(model, GaugedAnomalous):
        d["q"], d["D"], d["alpha"] = str(model.q), str(model.D), str(model.alpha)
    elif isinstance(model, EIPTransformed):
        d["kappa"] = str(model.kappa)
    elif isinstance(model, EntropicTransformed):
        d["g1"] = model.g1.to_triples()
        d["g2"] = model.g2.to_triples()
        d["G"] = model.G.to_triples()
        d["D"] = str(model.D)
    return d


def model_from_config(cfg: dict) -> ModelSpec:
    family = cfg.get("family")
    if family == "dnls":
        return DNLS(*cfg["b"])
    if family == "doebner-goldin":
        return DoebnerGoldin(*cfg["c"], cfg["D"])
    if family == "eip":
        return EIP(cfg["kappa"])
    if family == "entropic":
        return Entropic(
            RhoExpr.from_triples(cfg["kappa_fn"]),
            cfg["D"],
            RhoExpr.from_triples(cfg.get("G", [])),
        )
    if family == "five-function":
        return FiveFunction(*(RhoExpr.from_triples(cfg[f"f{i}"]) for i in range(1, 6)))
    if family == "gauged-anomalous":
        return GaugedAnomalous(cfg["q"], cfg["D"], cfg["alpha"])
    if family == "eip-transformed":
        return EIPTransformed(cfg["kappa"])
    if family == "entropic-transformed":
        return EntropicTransformed(
            RhoExpr.from_triples(cfg["g1"]),
            RhoExpr.from_triples(cfg["g2"]),
            RhoExpr.from_triples(cfg.get("G", [])),
            _frac(cfg["D"]),
        )
    raise ValueError(f"unknown family {family!r}")
