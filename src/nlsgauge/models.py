"""Exact algebra of functions of rho and the catalog of nonlinearity families.

``RhoExpr`` is the closed algebra of rational-coefficient sums of
``rho**p * log(rho)**m`` (p rational, m a nonnegative integer).  It is closed
under addition, multiplication, d/drho, division by rho, and antidifferentiation,
so every coefficient map in the package is exact rational arithmetic.  Each
term is one row of Python ints (coefficient and power as numerator and
denominator in lowest terms, and the log power); the algebra reduces them
with ``math.gcd`` and builds no ``Fraction``.

Each model family is one frozen dataclass (see ``ModelSpec``) that holds
everything about it: config schema, catalog text, evaluation, five-function
embedding, gauge generator and exact transform; ``FAMILIES`` registers them.
``eval_nonlinearity`` produces the (W, calW) split on a hydrodynamic field,
``current_functional`` the nonlinear current J (with calW = div(J)/(2 rho)
holding *discretely*), and ``to_five_function`` the exact embedding into the
five-function family when one exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from types import SimpleNamespace
from typing import Union

import numpy as np

from . import fieldgrid
from .errors import DomainError, NotIntegrable
from .fieldgrid import HydroField, _cached

Rational = Union[Fraction, int, str]


def _frac(v: Rational) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def _ratio(v: Rational) -> tuple[int, int]:
    """``v`` (coerced with :func:`_frac`) as ints (n, d) in lowest terms, d > 0."""
    if type(v) is int:
        return v, 1
    v = _frac(v)
    return v.numerator, v.denominator


def _lowest(n: int, d: int) -> tuple[int, int]:
    """n/d, for d != 0, as ints in lowest terms with a positive denominator."""
    g = math.gcd(n, d)
    return (n // g, d // g) if d > 0 else (-n // g, -d // g)


def _qstr(n: int, d: int) -> str:
    """n/d (lowest terms, d > 0) written as ``str(Fraction(n, d))`` writes it."""
    return str(n) if d == 1 else f"{n}/{d}"


# ---------------------------------------------------------------------------
# RhoExpr
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RhoExpr:
    """Canonical sum of terms ``coeff * rho**p * log(rho)**m``.

    ``rows`` holds one integer row ``(cn, cd, pn, pd, m)`` per term: the
    coefficient cn/cd and the power pn/pd in lowest terms with positive
    denominators, and the log power m >= 0.  Rows are sorted by (p, m), with
    duplicates merged and zero coefficients dropped, so equality and hashing
    are those of the tuple.  Every operation runs on Python ints with
    ``math.gcd``; ``terms``, the (Fraction coeff, Fraction p, int m) view of
    the rows, is built on its first read.
    """

    rows: tuple[tuple[int, int, int, int, int], ...]

    # -- construction -------------------------------------------------------

    @staticmethod
    def make(terms) -> "RhoExpr":
        """The canonical form of (coeff, p, m) triples: coeff and p are any
        rationals (int, str, Fraction), m an integer >= 0."""
        rows = []
        for coeff, p, m in terms:
            c, p, m = _ratio(coeff), _ratio(p), int(m)
            if m < 0:
                raise ValueError("log power must be nonnegative")
            rows.append((*c, *p, m))
        return _canon(rows)

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
        return _canon(self.rows + other.rows)

    def __neg__(self) -> "RhoExpr":
        return RhoExpr(tuple((-cn, cd, pn, pd, m) for cn, cd, pn, pd, m in self.rows))

    def __sub__(self, other: "RhoExpr") -> "RhoExpr":
        return _canon(self.rows + (-other).rows)

    def __mul__(self, other) -> "RhoExpr":
        if not isinstance(other, RhoExpr):
            return self.scale(other)
        return _canon(
            (*_lowest(cn * dn, cd * dd), *_lowest(pn * qd + qn * pd, pd * qd), m + k)
            for cn, cd, pn, pd, m in self.rows
            for dn, dd, qn, qd, k in other.rows
        )

    __rmul__ = __mul__

    def scale(self, c: Rational) -> "RhoExpr":
        n, d = _ratio(c)
        if not n:
            return RhoExpr(())
        return RhoExpr(tuple((*_lowest(cn * n, cd * d), *t) for cn, cd, *t in self.rows))

    def div_rho(self, power: Rational = 1) -> "RhoExpr":
        n, d = _ratio(power)  # a shift of every power keeps the order
        return RhoExpr(
            tuple((cn, cd, *_lowest(pn * d - n * pd, pd * d), m) for cn, cd, pn, pd, m in self.rows)
        )

    def deriv(self) -> "RhoExpr":
        """Exact d/drho.  p - 1 = (pn - pd)/pd is in lowest terms like p."""
        out = []
        for cn, cd, pn, pd, m in self.rows:
            if pn:
                out.append((*_lowest(cn * pn, cd * pd), pn - pd, pd, m))
            if m:
                out.append((*_lowest(cn * m, cd), pn - pd, pd, m - 1))
        return _canon(out)

    def antideriv(self) -> "RhoExpr":
        """Exact antiderivative with zero integration constant.

        For p == -1 the primitive of ``c log^m / rho`` is c log^{m+1}/(m+1);
        otherwise integration by parts, with q = p + 1, gives the terms
        a_k rho^q log^k for k = m..0, a_m = c/q and a_{k-1} = -k a_k / q.
        """
        out = []
        for cn, cd, pn, pd, m in self.rows:
            qn = pn + pd  # q = qn/pd, in lowest terms like p
            if not qn:
                out.append((*_lowest(cn, cd * (m + 1)), 0, 1, m + 1))
                continue
            for k in range(m, -1, -1):
                cn, cd = _lowest(cn * pd, cd * qn)
                out.append((cn, cd, qn, pd, k))
                cn = -k * cn
        return _canon(out)

    def drop_constant(self) -> "RhoExpr":
        """Remove the pure-constant term (generator normalization)."""
        return RhoExpr(tuple(r for r in self.rows if r[2] or r[4]))

    def monomial_quotient(self, den: "RhoExpr") -> "RhoExpr":
        """Exact division by a single-term expression."""
        if len(den.rows) != 1:
            raise NotIntegrable(f"cannot divide by non-monomial {den}")
        dn, dd, qn, qd, k = den.rows[0]
        if any(m < k for *_, m in self.rows):
            raise NotIntegrable(f"quotient by {den} leaves a negative log power")
        return RhoExpr(
            tuple(
                (*_lowest(cn * dd, cd * dn), *_lowest(pn * qd - qn * pd, pd * qd), m - k)
                for cn, cd, pn, pd, m in self.rows
            )
        )

    # -- predicates / evaluation -------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def __bool__(self) -> bool:  # a zero expression is false, like a zero Fraction
        return bool(self.rows)

    def constant_value(self) -> Fraction | None:
        """The exact value if the expression is constant, else None."""
        if not self.rows:
            return Fraction(0)
        if len(self.rows) == 1 and not self.rows[0][2] and not self.rows[0][4]:
            return Fraction(*self.rows[0][:2])
        return None

    @_cached
    def terms(self) -> tuple[tuple[Fraction, Fraction, int], ...]:
        """The terms as (coeff, p, m) with Fraction coeff and p, int m."""
        return tuple((Fraction(cn, cd), Fraction(pn, pd), m) for cn, cd, pn, pd, m in self.rows)

    @_cached
    def _numeric(self) -> tuple[bool, tuple]:
        """Whether evaluation needs rho > 0, and the terms in floats: read on
        the first evaluation, never when the expression is built.  cn / cd
        is the correctly rounded float of the coefficient."""
        needs_positive = any(m or pn < 0 or pd != 1 for _, _, pn, pd, m in self.rows)
        return needs_positive, tuple((cn / cd, pn / pd, m) for cn, cd, pn, pd, m in self.rows)

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        needs_positive, terms = self._numeric
        if needs_positive and np.any(rho <= 0.0):
            raise DomainError("expression requires rho > 0")
        out = np.zeros_like(rho)
        if not terms:
            return out
        log = np.log(rho) if any(m > 0 for _, _, m in terms) else None
        for c, p, m in terms:
            term = c * rho**p
            if m > 0:
                term = term * log**m
            out = out + term
        return out

    # -- serialization ------------------------------------------------------

    def to_triples(self) -> list[list[str]]:
        return [[_qstr(cn, cd), _qstr(pn, pd), str(m)] for cn, cd, pn, pd, m in self.rows]

    @staticmethod
    def from_triples(triples, key: str) -> "RhoExpr":
        """The inverse of :meth:`to_triples`, reading a config value: a
        list of [coeff, power, log power] triples of rationals (see
        :func:`config_rational`) with integral log powers.  Anything else is a
        ValueError naming ``key``."""
        if not isinstance(triples, (list, tuple)) or not all(
            isinstance(t, (list, tuple)) and len(t) == 3 for t in triples
        ):
            raise ValueError(
                f"{key} must be a list of [coeff, power, log power] triples, got {triples!r}"
            )
        terms = [tuple(config_rational(v, key) for v in t) for t in triples]
        if any(m.denominator != 1 for _, _, m in terms):
            raise ValueError(f"{key} must have integer log powers, got {triples!r}")
        return RhoExpr.make(terms)

    def __str__(self) -> str:
        if not self.rows:
            return "0"
        parts = []
        for cn, cd, pn, pd, m in self.rows:
            s = _qstr(cn, cd)
            if pn:
                s += f"*rho^{_qstr(pn, pd)}"
            if m > 0:
                s += f"*log(rho)^{m}" if m > 1 else "*log(rho)"
            parts.append(s)
        return " + ".join(parts)


def _canon(rows) -> RhoExpr:
    """The expression of integer rows, each in lowest terms: rows with the
    same (p, m) merged, zero rows dropped, sorted by (p, m).  With L the lcm
    of the power denominators, pn * (L // pd) is the integer p * L."""
    acc: dict[tuple[int, int, int], tuple[int, int]] = {}
    for cn, cd, pn, pd, m in rows:
        key = (pn, pd, m)
        seen = acc.get(key)
        acc[key] = (cn, cd) if seen is None else _lowest(seen[0] * cd + cn * seen[1], seen[1] * cd)
    live = [(cn, cd, pn, pd, m) for (pn, pd, m), (cn, cd) in acc.items() if cn]
    lcm = math.lcm(*(r[3] for r in live))
    live.sort(key=lambda r: (r[2] * (lcm // r[3]), r[4]))
    return RhoExpr(tuple(live))


# ---------------------------------------------------------------------------
# gauge generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Local:
    """sigma is a pointwise function of rho."""

    sigma: RhoExpr


@dataclass(frozen=True)
class Nonlocal:
    """sigma(x) = integral_{x_min}^{x} [alpha(rho) + beta(rho) dS/dx'] dx'."""

    alpha: RhoExpr
    beta: RhoExpr


GeneratorSpec = Union[Local, Nonlocal]


# ---------------------------------------------------------------------------
# model catalog
# ---------------------------------------------------------------------------


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


def _report(*rows) -> tuple[tuple[str, str, str], ...]:
    return tuple((name, str(before), str(after)) for name, before, after in rows)


def _zero_five_function() -> "FiveFunction":
    z = RhoExpr.zero()
    return FiveFunction(z, z, z, z, z)


class ModelSpec:
    """A model family: a frozen dataclass whose ``Fraction`` fields accept any
    rational (int, str, Fraction) and are coerced on construction.

    Each family defines, in its own class:

    * ``family``, its config name, and ``config_keys``, each config key
      mapped to the fields it holds (a key holding several fields is a list);
      ``optional`` names the expression keys that read as zero when absent;
    * ``catalog``, its one-line catalog entry;
    * ``current(h)``, the nonlinear current J, ``current_free``, whether J
      vanishes identically (read from the exact coefficients), and
      ``real_part(h)``, the real nonlinearity W, or ``real_terms``, its
      (field, term(c, h)) pairs for the default ``real_part``, c the float
      of a ``Fraction`` field or the field itself (a ``RhoExpr``).
      Both read the field alone: every division by rho and every function
      of rho that is singular at 0 reads ``h.rho_safe``, the density
      clamped at the field's own floor.  ``current_free``, the float
      coefficients (``floats``) and the nonzero terms are computed once per
      model, on first read, so an evaluation pays only for its arithmetic;
    * ``five_function()``, the exact five-function embedding or
      ``NotRepresentable``;
    * ``generator()``, the sigma with grad(sigma) = J/(2 rho), and
      ``curl_condition()`` when it differs from the default below;
    * ``transform(gen)``, the gauge image under ``gen`` (its own generator)
      as (transformed model, coefficient-report rows, flags).
    """

    optional: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.type == "Fraction":
                object.__setattr__(self, f.name, _frac(getattr(self, f.name)))

    @_cached
    def floats(self) -> SimpleNamespace:
        """The float of each ``Fraction`` field, by name."""
        names = [f.name for f in fields(self) if f.type == "Fraction"]
        return SimpleNamespace(**{name: float(getattr(self, name)) for name in names})

    @_cached
    def _nonzero_terms(self) -> tuple:
        floats = vars(self.floats)
        named = ((getattr(self, name), name, term) for name, term in self.real_terms)
        return tuple((floats.get(name, value), term) for value, name, term in named if value)

    def real_part(self, h: HydroField) -> np.ndarray:
        """The sum, left to right, of ``term(c, h)`` over the terms of
        ``real_terms`` whose exact coefficient is nonzero.

        A skipped term would add an exact zero, so the sum is the full
        formula's bit for bit (up to the sign of a zero), and the
        derivatives that only skipped terms read are never computed.  With
        no term left the sum is zeros shaped like rho."""
        out = None
        for c, term in self._nonzero_terms:
            out = term(c, h) if out is None else out + term(c, h)
        return np.zeros_like(h.rho) if out is None else out

    def curl_condition(self) -> tuple[bool, str]:
        """Whether J/rho is a gradient in more than one dimension, and why."""
        if isinstance(self.generator(), Local):
            return True, "J/(2 rho) = grad(sigma(rho)) is curl-free in any dimension"
        return False, "nonlocal generator: J/rho is not a gradient of a function of rho"


class _RealNonlinearity(ModelSpec):
    """A family whose nonlinearity is already real: J = 0, sigma = 0, and the
    gauge map is the identity."""

    current_free = True

    def current(self, h: HydroField) -> np.ndarray:
        return np.zeros_like(h.rho)

    def generator(self) -> GeneratorSpec:
        return Local(RhoExpr.zero())

    def transform(self, gen: GeneratorSpec):
        return self, (), {"note": "nonlinearity already real; identity transformation"}


@dataclass(frozen=True)
class DNLS(ModelSpec):
    """Derivative-NLS family: W = b1 rho + b2 rho^2 + b3 rho dS,
    calW = b4 d(rho), current J = b4 rho^2."""

    b1: Fraction
    b2: Fraction
    b3: Fraction
    b4: Fraction

    family = "dnls"
    config_keys = {"b": ("b1", "b2", "b3", "b4")}
    catalog = (
        "parameters b1, b2, b3, b4; W = b1 rho + b2 rho^2 + b3 rho dS, "
        "J = b4 rho^2; canonical iff b3 = -2 b4; "
        "generator sigma = (b4/2) int rho dx"
    )

    @staticmethod
    def from_wave_params(a1: Rational, a2: Rational, a3: Rational, a4: Rational) -> "DNLS":
        a1, a2, a3, a4 = map(_frac, (a1, a2, a3, a4))
        return DNLS(a1, a2, a4 - a3, (a3 + a4) / 2)

    @property
    def canonical(self) -> bool:
        return self.b3 == -2 * self.b4

    @_cached
    def current_free(self) -> bool:
        return self.b4 == 0

    real_terms = (
        ("b1", lambda c, h: c * h.rho),
        ("b2", lambda c, h: c * h.rho**2),
        ("b3", lambda c, h: c * h.rho * h.dS),
    )

    def current(self, h: HydroField) -> np.ndarray:
        return self.floats.b4 * h.rho**2

    def five_function(self):
        if self.b1 == self.b2 == self.b3 == self.b4 == 0:
            return _zero_five_function()
        return NotRepresentable(
            "potential terms rho, rho^2 and the rho*dS term lie outside the family"
        )

    def generator(self) -> GeneratorSpec:
        return Nonlocal(alpha=RhoExpr.monomial(self.b4 / 2, 1), beta=RhoExpr.zero())

    def curl_condition(self) -> tuple[bool, str]:
        if self.current_free:
            return True, "J = 0"
        return super().curl_condition()

    def transform(self, gen: GeneratorSpec):
        b2t = self.b2 - self.b3 * self.b4 / 2 - self.b4 * self.b4 / 4
        out = DNLS(self.b1, b2t, self.b3, 0)
        flags = {"canonical": self.canonical}
        if self.b3 == -2 * self.b4 and self.b3 != 0:
            flags["discrepancy"] = (
                "commonly quoted special-case value b2~ = 3 b3^2/4 disagrees with the "
                "general map (3 b3^2/16); the general map is used, adjudicated numerically"
            )
        report = _report(
            ("b2", self.b2, b2t),
            ("b4", self.b4, Fraction(0)),
        )
        return out, report, flags


@dataclass(frozen=True)
class DoebnerGoldin(ModelSpec):
    """W = sum c_i R_i, calW = (D/2) R2, with
    R1 = div(rho grad S)/rho, R2 = lap(rho)/rho, R3 = (grad S)^2,
    R4 = grad S . grad rho / rho, R5 = (grad rho / rho)^2."""

    c1: Fraction
    c2: Fraction
    c3: Fraction
    c4: Fraction
    c5: Fraction
    D: Fraction

    family = "doebner-goldin"
    config_keys = {"c": ("c1", "c2", "c3", "c4", "c5"), "D": ("D",)}
    catalog = (
        "parameters c1..c5, D; W = sum c_i R_i over "
        "R1 = div(rho grad S)/rho, R2 = lap rho/rho, R3 = (grad S)^2, "
        "R4 = grad S.grad rho/rho, R5 = (grad rho/rho)^2; J = D grad rho; "
        "canonical iff c1 = -c4 = D, c3 = 0, c2 = -2 c5; "
        "generator sigma = (D/2) log rho"
    )

    @property
    def canonical(self) -> bool:
        return self.c1 == self.D and self.c4 == -self.D and self.c3 == 0 and self.c2 == -2 * self.c5

    @_cached
    def current_free(self) -> bool:
        return self.D == 0

    real_terms = (
        ("c1", lambda c, h: c * (h.lapS + h.drho * h.dS / h.rho_safe)),  # R1
        ("c2", lambda c, h: c * (h.laprho / h.rho_safe)),  # R2
        ("c3", lambda c, h: c * h.dS**2),  # R3
        ("c4", lambda c, h: c * (h.dS * h.drho / h.rho_safe)),  # R4
        ("c5", lambda c, h: c * (h.drho / h.rho_safe) ** 2),  # R5
    )

    def current(self, h: HydroField) -> np.ndarray:
        return self.floats.D * h.drho

    def five_function(self):
        if self.c3 != 0:
            return NotRepresentable("(grad S)^2 term (c3) lies outside the family")
        return FiveFunction(
            f1=RhoExpr.const(self.c1),
            f2=RhoExpr.monomial(self.c1 + self.c4, -1),
            f3=RhoExpr.monomial(self.c5, -2),
            f4=RhoExpr.monomial(self.c2, -1),
            f5=RhoExpr.const(self.D / 2),
        )

    def generator(self) -> GeneratorSpec:
        return Local(RhoExpr.monomial(self.D / 2, 0, 1))

    def transform(self, gen: GeneratorSpec):
        c1, c2, c3, c4, c5, D = self.c1, self.c2, self.c3, self.c4, self.c5, self.D
        c1t = c1 - D
        c2t = c2 - c1 * D / 2
        c4t = c4 + (1 - c3) * D
        c5t = c5 - c4 * D / 2 + (c3 - 1) * D * D / 4
        out = DoebnerGoldin(c1t, c2t, c3, c4t, c5t, 0)
        flags = {
            "canonical": self.canonical,
            "discrepancy": (
                "a commonly quoted form of this map reads c4~ = c4 + (c3-1)D, "
                "c5~ = c5 - c4 D - (c3-1)D^2/4; that version is inconsistent with the "
                "five-function push-forward (which fixes f2) and with the canonical-case "
                "closed form, so the consistent map is used"
            ),
        }
        report = _report(
            ("c1", c1, c1t),
            ("c2", c2, c2t),
            ("c4", c4, c4t),
            ("c5", c5, c5t),
            ("D", D, Fraction(0)),
        )
        return out, report, flags


@dataclass(frozen=True)
class EIP(ModelSpec):
    """Current-current coupled family: W = -2 kappa rho (dS)^2,
    calW = (kappa/rho) d(rho^2 dS)."""

    kappa: Fraction

    family = "eip"
    config_keys = {"kappa": ("kappa",)}
    catalog = (
        "parameter kappa; W = -2 kappa rho (dS)^2, J = 2 kappa rho^2 dS; "
        "generator sigma = kappa int rho dS dx (nonlocal; curl-obstructed for n > 1)"
    )

    @_cached
    def current_free(self) -> bool:
        return self.kappa == 0

    def current(self, h: HydroField) -> np.ndarray:
        return 2.0 * self.floats.kappa * h.rho**2 * h.dS

    def real_part(self, h: HydroField) -> np.ndarray:
        return -2.0 * self.floats.kappa * h.rho * h.dS**2

    def five_function(self):
        if self.kappa == 0:
            return _zero_five_function()
        return NotRepresentable("(grad S)^2 term lies outside the family")

    def generator(self) -> GeneratorSpec:
        return Nonlocal(alpha=RhoExpr.zero(), beta=RhoExpr.monomial(self.kappa, 1))

    def curl_condition(self) -> tuple[bool, str]:
        return False, "J/rho = 2 kappa rho grad(S) is not curl-free"

    def transform(self, gen: GeneratorSpec):
        report = _report(("kappa", self.kappa, self.kappa))
        flags = {"note": "transformed coefficients are rational functions of rho"}
        return EIPTransformed(self.kappa), report, flags


@dataclass(frozen=True)
class Entropic(ModelSpec):
    """Entropy-derived diffusive family:
    W = -D f(rho) lap S + G(rho), calW = -(D/2 rho) div(f grad rho),
    with f(rho) = rho dlog(kappa)/drho."""

    kappa_fn: RhoExpr
    D: Fraction
    G: RhoExpr = RhoExpr.zero()

    family = "entropic"
    config_keys = {"kappa_fn": ("kappa_fn",), "D": ("D",), "G": ("G",)}
    optional = ("G",)
    catalog = (
        "parameters kappa(rho), D, G(rho); W = -D f(rho) lap S + G, "
        "J = -D f grad rho with f = rho (log kappa)'; "
        "generator sigma = (D/2) log kappa (requires monomial kappa)"
    )

    def f_of_rho(self, rho: np.ndarray) -> np.ndarray:
        """f(rho) = rho * kappa'(rho)/kappa(rho), evaluated numerically."""
        kap = self.kappa_fn(rho)
        if np.any(kap <= 0.0):
            raise DomainError("kappa(rho) must be positive")
        return rho * self.kappa_fn.deriv()(rho) / kap

    def f_expr(self) -> RhoExpr:
        """f(rho) in the algebra; requires kappa to be a single term."""
        return (RhoExpr.rho() * self.kappa_fn.deriv()).monomial_quotient(self.kappa_fn)

    @_cached
    def current_free(self) -> bool:
        return self.D == 0

    def current(self, h: HydroField) -> np.ndarray:
        f = self.f_of_rho(h.rho_safe)
        return -self.floats.D * f * h.drho

    def real_part(self, h: HydroField) -> np.ndarray:
        return -self.floats.D * self.f_of_rho(h.rho_safe) * h.lapS + self.G(h.rho_safe)

    def five_function(self):
        if not self.G.is_zero:
            return NotRepresentable("potential term G(rho) lies outside the family")
        try:
            f = self.f_expr()
        except NotIntegrable:
            return NotRepresentable(
                "f(rho) = rho dlog(kappa)/drho has no closed form in the algebra"
            )
        z = RhoExpr.zero()
        return FiveFunction(
            f1=(-self.D) * f, f2=z, f3=z, f4=z, f5=Fraction(-self.D, 2) * f
        )

    def generator(self) -> GeneratorSpec:
        # sigma = -(D/2) log(kappa): with J = -D f grad(rho) and f = rho
        # (log kappa)', grad(sigma) = J/(2 rho) forces the minus sign (it also
        # follows from the five-function embedding, whose f5 is -D f/2).
        # Closed form requires a monomial kappa.
        if len(self.kappa_fn.terms) != 1 or self.kappa_fn.terms[0][2] != 0:
            raise NotIntegrable(
                f"log(kappa) lies outside the expression algebra for kappa = {self.kappa_fn}"
            )
        _, a, _ = self.kappa_fn.terms[0]
        return Local(RhoExpr.monomial(-self.D * a / 2, 0, 1))

    def transform(self, gen: GeneratorSpec):
        f = self.f_expr()  # raises NotIntegrable for non-monomial kappa
        g1 = (f * f).div_rho()
        g2 = Fraction(1, 2) * g1.deriv()
        out = EntropicTransformed(g1=g1, g2=g2, G=self.G, D=self.D)
        return out, _report(("g1", "-", g1), ("g2", "-", g2)), {}


@dataclass(frozen=True)
class FiveFunction(ModelSpec):
    """W = f1 lap S + f2 grad rho . grad S + f3 (grad rho)^2 + f4 lap rho,
    calW = div(f5 grad rho)/rho."""

    f1: RhoExpr
    f2: RhoExpr
    f3: RhoExpr
    f4: RhoExpr
    f5: RhoExpr

    family = "five-function"
    config_keys = {f"f{i}": (f"f{i}",) for i in range(1, 6)}
    catalog = (
        "parameters f1..f5 (functions of rho); "
        "W = f1 lap S + f2 grad rho.grad S + f3 (grad rho)^2 + f4 lap rho, "
        "J = 2 f5 grad rho; closed under gauge push-forward; "
        "generator sigma = int (f5/rho) drho"
    )

    @property
    def fvec(self) -> tuple[RhoExpr, ...]:
        return (self.f1, self.f2, self.f3, self.f4, self.f5)

    @_cached
    def current_free(self) -> bool:
        return self.f5.is_zero

    def current(self, h: HydroField) -> np.ndarray:
        return 2.0 * self.f5(h.rho_safe) * h.drho

    real_terms = (  # each with its expression f in place of a float coefficient
        ("f1", lambda f, h: f(h.rho_safe) * h.lapS),
        ("f2", lambda f, h: f(h.rho_safe) * h.drho * h.dS),
        ("f3", lambda f, h: f(h.rho_safe) * h.drho**2),
        ("f4", lambda f, h: f(h.rho_safe) * h.laprho),
    )

    def five_function(self):
        return self

    def generator(self) -> GeneratorSpec:
        return Local(self.f5.div_rho().antideriv().drop_constant())

    def transform(self, gen: GeneratorSpec):
        # the group action lives with the classification engine, which
        # imports this module
        from .equivalence import push_forward

        out = push_forward(self, gen.sigma)
        report = _report(
            *(
                (f"f{i}", before, after)
                for i, (before, after) in enumerate(zip(self.fvec, out.fvec), start=1)
                if before != after
            )
        )
        return out, report, {}


@dataclass(frozen=True)
class GaugedAnomalous(ModelSpec):
    """Anomalous-diffusion family (the A=0 restriction when used as a scalar
    model): W = qD rho^{q-1} lap S + 2 alpha rho^{2q-3} lap rho
    + alpha(2q-3) rho^{2q-4} (grad rho)^2, calW = (D/2) lap(rho^q)/rho."""

    q: Fraction
    D: Fraction
    alpha: Fraction

    family = "gauged-anomalous"
    config_keys = {"q": ("q",), "D": ("D",), "alpha": ("alpha",)}
    catalog = (
        "parameters q, D, alpha; W = qD rho^{q-1} lap S + alpha-terms, "
        "J = Dq rho^{q-1} grad rho; "
        "generator sigma = (D/2)(q rho^{q-1} - 1)/(q - 1), log form at q = 1"
    )

    @_cached
    def current_free(self) -> bool:
        return self.q * self.D == 0

    def current(self, h: HydroField) -> np.ndarray:
        q, D = self.floats.q, self.floats.D
        return D * q * h.rho_safe ** (q - 1.0) * h.drho

    def real_part(self, h: HydroField) -> np.ndarray:
        q, D, alpha = self.floats.q, self.floats.D, self.floats.alpha
        rho_safe = h.rho_safe
        return (
            q * D * rho_safe ** (q - 1.0) * h.lapS
            + 2.0 * alpha * rho_safe ** (2.0 * q - 3.0) * h.laprho
            + alpha * (2.0 * q - 3.0) * rho_safe ** (2.0 * q - 4.0) * h.drho**2
        )

    def five_function(self):
        q, D, alpha = self.q, self.D, self.alpha
        return FiveFunction(
            f1=RhoExpr.monomial(q * D, q - 1),
            f2=RhoExpr.zero(),
            f3=RhoExpr.monomial(alpha * (2 * q - 3), 2 * q - 4),
            f4=RhoExpr.monomial(2 * alpha, 2 * q - 3),
            f5=RhoExpr.monomial(q * D / 2, q - 1),
        )

    def generator(self) -> GeneratorSpec:
        q, D = self.q, self.D
        if q == 1:
            return Local(RhoExpr.monomial(D / 2, 0, 1))
        return Local(
            RhoExpr.make([(D * q / (2 * (q - 1)), q - 1, 0), (-D / (2 * (q - 1)), 0, 0)])
        )

    def transform(self, gen: GeneratorSpec):
        alpha_t = self.alpha - self.q * self.q * self.D * self.D / 4
        out = GaugedAnomalous(self.q, 0, alpha_t)
        report = _report(
            ("alpha", self.alpha, alpha_t),
            ("D", self.D, Fraction(0)),
        )
        return out, report, {}


@dataclass(frozen=True)
class EIPTransformed(_RealNonlinearity):
    """Gauge image of EIP: W = -2 kappa rho/(1 + kappa rho) (dS)^2
    + (kappa/2) rho d^2(log rho), calW = 0."""

    kappa: Fraction

    family = "eip-transformed"
    config_keys = {"kappa": ("kappa",)}
    catalog = (
        "parameter kappa; real nonlinearity "
        "-2 kappa rho/(1 + kappa rho) (dS)^2 + (kappa/2) rho lap log rho; J = 0"
    )

    def real_part(self, h: HydroField) -> np.ndarray:
        rho = h.rho
        kap = self.floats.kappa
        laplog = fieldgrid.laplacian4(np.log(h.rho_safe), h.grid)
        return -2.0 * kap * rho / (1.0 + kap * rho) * h.dS**2 + 0.5 * kap * rho * laplog

    def five_function(self):
        if self.kappa == 0:
            return _zero_five_function()
        return NotRepresentable("rational-in-rho coefficients lie outside the family")


@dataclass(frozen=True)
class EntropicTransformed(_RealNonlinearity):
    """Gauge image of Entropic: W = -(D^2/2)[g1 lap rho + g2 (grad rho)^2]
    + G(rho) with g1 = rho (dlog kappa/drho)^2 and g2 = g1'/2; calW = 0."""

    g1: RhoExpr
    g2: RhoExpr
    G: RhoExpr
    D: Fraction

    family = "entropic-transformed"
    config_keys = {"g1": ("g1",), "g2": ("g2",), "G": ("G",), "D": ("D",)}
    optional = ("G",)
    catalog = (
        "parameters g1, g2, G, D; real nonlinearity "
        "-(D^2/2)[g1 lap rho + g2 (grad rho)^2] + G(rho); J = 0"
    )

    def real_part(self, h: HydroField) -> np.ndarray:
        D2half = self.floats.D ** 2 / 2.0
        rho_safe = h.rho_safe
        return (
            -D2half * (self.g1(rho_safe) * h.laprho + self.g2(rho_safe) * h.drho**2)
            + self.G(rho_safe)
        )

    def five_function(self):
        if not self.G.is_zero:
            return NotRepresentable("potential term G(rho) lies outside the family")
        D2half = self.D * self.D / 2
        z = RhoExpr.zero()
        return FiveFunction(
            f1=z, f2=z, f3=(-D2half) * self.g2, f4=(-D2half) * self.g1, f5=z
        )


# The family registry: config names, catalog order and the CLI's key schema
# all come from here.
FAMILIES = (
    DNLS,
    DoebnerGoldin,
    EIP,
    Entropic,
    FiveFunction,
    GaugedAnomalous,
    EIPTransformed,
    EntropicTransformed,
)


def family_named(name) -> type[ModelSpec]:
    for cls in FAMILIES:
        if cls.family == name:
            return cls
    raise ValueError(f"unknown family {name!r}")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def current_functional(model: ModelSpec, h: HydroField) -> np.ndarray:
    """The nonlinear current J with calW = div(J)/(2 rho) discretely."""
    return model.current(h)


def eval_nonlinearity(model: ModelSpec, h: HydroField) -> NonlinearityEval:
    """(W, calW) on the field.  calW is always assembled in discrete divergence
    form from the current functional, so the continuity identity
    calW = div(J)/(2 rho) holds by construction (the exact telescoping of the
    divergence form is what keeps N conservation at roundoff level).  A model
    whose current vanishes identically (``current_free``) gets calW = 0
    without evaluating J, its divergence or the division."""
    if model.current_free:
        calW = np.zeros_like(h.rho)
    else:
        J = current_functional(model, h)
        calW = fieldgrid.derivative4(J, h.grid) / (2.0 * h.rho_safe)
    return NonlinearityEval(W=model.real_part(h), calW=calW)


def to_five_function(model: ModelSpec):
    """Exact embedding into the five-function family, or NotRepresentable."""
    return model.five_function()


# ---------------------------------------------------------------------------
# config (de)serialization
# ---------------------------------------------------------------------------


def model_to_config(model: ModelSpec) -> dict:
    d: dict = {"family": model.family}
    for key, names in model.config_keys.items():
        values = [getattr(model, name) for name in names]
        values = [v.to_triples() if isinstance(v, RhoExpr) else str(v) for v in values]
        d[key] = values if len(names) > 1 else values[0]
    return d


def config_rational(value, key: str) -> Fraction:
    """A rational config value: an int, a float or a string such as "2/5",
    whose value is a finite float.  A boolean, a non-finite or overflowing
    number, a zero denominator or any other type is a ValueError naming
    ``key``."""
    bad = ValueError(f"{key} must be a finite rational number, got {value!r}")
    if isinstance(value, bool):
        raise bad
    try:
        q = Fraction(value)
        float(q)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise bad from None
    return q


def model_from_config(cfg: dict) -> ModelSpec:
    """The model a config names; every coefficient is read with
    :func:`config_rational` and every expression with
    :meth:`RhoExpr.from_triples`, so a malformed value is a ValueError."""
    cls = family_named(cfg.get("family"))
    kinds = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for key, names in cls.config_keys.items():
        raw = cfg.get(key, []) if key in cls.optional else cfg[key]
        values = raw if len(names) > 1 else [raw]
        if not isinstance(values, (list, tuple)) or len(values) != len(names):
            raise ValueError(f"{key} must be a list of {len(names)} values, got {raw!r}")
        for name, value in zip(names, values):
            if kinds[name] == "RhoExpr":
                kwargs[name] = RhoExpr.from_triples(value, key)
            else:
                kwargs[name] = config_rational(value, key)
    return cls(**kwargs)
