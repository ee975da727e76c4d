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
embedding, gauge generator (which gives the current J = 2 rho grad(sigma))
and exact transform; ``FAMILIES`` registers them.  Doebner-Goldin, the
anomalous-diffusion family, Entropic and the entropic image are views of
the normal form ``FiveFunction`` (``_NormalFormView``), on which
``push_forward`` is the gauge group's action: each writes its embedding and
its read-back, and the rest comes from the normal form, but
for the image's identity map and Entropic's float W and J (a non-monomial
kappa has no embedding).  ``eval_nonlinearity`` produces the (W, calW)
split on a hydrodynamic field, ``current_functional`` the nonlinear current
J (with calW = div(J)/(2 rho) holding *discretely*), and
``to_five_function`` the exact embedding into the five-function family when
one exists.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
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
    Operations build rows whose coefficients may arrive unreduced; they are
    merged unreduced and each surviving coefficient is reduced with one gcd
    (:func:`_canon`), once per result, however many terms :meth:`combine` sums.
    """

    rows: tuple[tuple[int, int, int, int, int], ...]

    # -- construction -------------------------------------------------------

    @staticmethod
    def make(terms) -> "RhoExpr":
        """The canonical form of (coeff, p, m) triples: coeff and p are any
        rationals (int, str, Fraction), m an integer >= 0."""
        rows = []
        for coeff, p, m in terms:
            if isinstance(m, bool) or int(m) != m:
                raise ValueError(f"log power must be an integer, got {m!r}")
            if m < 0:
                raise ValueError("log power must be nonnegative")
            rows.append((*_ratio(coeff), *_ratio(p), int(m)))
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

    @staticmethod
    def combine(*parts) -> "RhoExpr":
        """The canonical form of sum k * e, or k * e1 * e2, over the parts
        ``(k, e)`` and ``(k, e1, e2)`` (k an int), canonicalized once."""
        rows = []
        for k, *factors in parts:
            if len(factors) == 1:
                rows += _scaled(factors[0].rows, k)
            else:
                rows += _products(factors[0].rows, factors[1].rows, k)
        return _canon(rows)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "RhoExpr") -> "RhoExpr":
        return _canon(self.rows + other.rows)

    def __neg__(self) -> "RhoExpr":
        return RhoExpr(tuple(_scaled(self.rows, -1)))

    def __sub__(self, other: "RhoExpr") -> "RhoExpr":
        return RhoExpr.combine((1, self), (-1, other))

    def __mul__(self, other) -> "RhoExpr":
        if not isinstance(other, RhoExpr):
            return self.scale(other)
        return _canon(_products(self.rows, other.rows))

    __rmul__ = __mul__

    def scale(self, c: Rational) -> "RhoExpr":
        return _canon(_scaled(self.rows, *_ratio(c)))

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
                out.append((cn * pn, cd * pd, pn - pd, pd, m))
            if m:
                out.append((cn * m, cd, pn - pd, pd, m - 1))
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
                out.append((cn, cd * (m + 1), 0, 1, m + 1))
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
        """Whether evaluation needs rho > 0, and the terms as floats (c, k, p,
        m), read on the first evaluation, never when the expression is built:
        c = cn / cd correctly rounded, and k = p for an integer |p| <= 4, a
        power taken as a product of rho or 1/rho, else k = 0."""
        needs_positive = any(m or pn < 0 or pd != 1 for _, _, pn, pd, m in self.rows)
        return needs_positive, tuple(
            (cn / cd, pn if pd == 1 and abs(pn) <= 4 else 0, pn / pd, m)
            for cn, cd, pn, pd, m in self.rows
        )

    def _evaluate(self, rho: np.ndarray, h: HydroField | None = None) -> float | np.ndarray:
        """The sum, in row order, of c rho^p log(rho)^m, with 1/rho computed
        once or read as ``h.rho_inv``: a constant expression is its float,
        zero is 0.0.  A product starts with ``np.square``: x * x, but faster."""
        out = log = inverse = None
        for c, k, p, m in self._numeric[1]:
            if k:
                if k < 0 and inverse is None:
                    inverse = 1.0 / rho if h is None else h.rho_inv
                base = rho if k > 0 else inverse
                term = np.square(base) if abs(k) > 1 else base
                for _ in range(abs(k) - 2):
                    term = term * base
                term = c * term
            else:
                term = c * rho**p if p else c
            if m:
                log = np.log(rho) if log is None else log
                term = term * log**m
            out = term if out is None else out + term
        return 0.0 if out is None else out

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        if self._numeric[0] and np.any(rho <= 0.0):
            raise DomainError("expression requires rho > 0")
        value = self._evaluate(rho)
        return np.full_like(rho, value) if isinstance(value, float) else value

    def on_field(self, h: HydroField) -> float | np.ndarray:
        """``self(h.rho_safe)`` bit for bit, 1/rho read as ``h.rho_inv``, and
        a constant expression its float, to multiply as a scalar."""
        return self._evaluate(h.rho_safe, h)

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


def _scaled(rows, n: int, d: int = 1) -> list:
    """The rows times n/d (d > 0), coefficients unreduced."""
    return [(cn * n, cd * d, pn, pd, m) for cn, cd, pn, pd, m in rows]


def _products(a, b, k: int = 1) -> list:
    """The rows of k * a * b, coefficients unreduced.  A power sum needs a gcd
    only when both powers are fractions: (pn qd + qn) / qd is in lowest terms."""
    out = []
    for cn, cd, pn, pd, m in a:
        cn *= k
        for dn, dd, qn, qd, j in b:
            if pd == 1 or qd == 1:
                out.append((cn * dn, cd * dd, pn * qd + qn * pd, pd * qd, m + j))
            else:
                out.append((cn * dn, cd * dd, *_lowest(pn * qd + qn * pd, pd * qd), m + j))
    return out


def _canon(rows) -> RhoExpr:
    """The expression of integer rows, powers in lowest terms, coefficients
    perhaps not (denominator > 0): rows with the same (p, m) merged, zero
    rows dropped, each coefficient reduced with one gcd, sorted by (p, m).
    With L the lcm of the power denominators, pn * (L // pd) is p * L."""
    if len(rows) == 1:  # nothing to merge or sort
        cn, cd, pn, pd, m = rows[0]
        g = math.gcd(cn, cd)
        return RhoExpr(((cn // g, cd // g, pn, pd, m),) if cn else ())
    acc: dict[tuple[int, int, int], tuple[int, int]] = {}
    for cn, cd, pn, pd, m in rows:
        key = (pn, pd, m)
        seen = acc.get(key)
        acc[key] = (cn, cd) if seen is None else (seen[0] * cd + cn * seen[1], seen[1] * cd)
    live = []
    for (pn, pd, m), (cn, cd) in acc.items():
        if cn:
            g = math.gcd(cn, cd)
            live.append((cn // g, cd // g, pn, pd, m))
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


@functools.cache
def _fraction_fields(cls) -> tuple[str, ...]:
    """The names of the ``Fraction`` fields of a family."""
    return tuple(f.name for f in fields(cls) if f.type == "Fraction")


class ModelSpec:
    """A model family: a frozen dataclass whose ``Fraction`` fields accept any
    rational (int, str, Fraction) and are coerced on construction.

    Each family defines, in its own class:

    * ``family``, its config name, and ``config_keys``, each config key
      mapped to the fields it holds (a key holding several fields is a list);
      ``optional`` names the expression keys that read as zero when absent;
    * ``catalog``, its one-line catalog entry;
    * ``real_part(h)``, the real nonlinearity W, or ``real_terms``, its
      (field, term(c, h)) pairs for the default ``real_part``, c the float
      of a ``Fraction`` field or the field itself (a ``RhoExpr``).  It reads
      the field alone, and ``h.rho_safe`` (rho clamped at
      ``fieldgrid.DENSITY_FLOOR``) wherever it divides by rho or reads a
      function of rho singular at 0;
    * ``five_function()``, the exact five-function embedding or
      ``NotRepresentable``;
    * ``generator()``, the sigma with grad(sigma) = J/(2 rho);
    * ``transform(gen)``, the gauge image under ``gen`` (its own generator)
      as (transformed model, coefficient-report rows, flags).

    The defaults below read the current J = 2 rho grad(sigma) and
    ``current_free`` (J = 0) from the generator; ``Entropic``, whose
    generator needs an embedding (a monomial kappa, or D = 0), writes its
    own.  The generator, its current's nonzero parts, ``floats`` and the
    nonzero terms of W are computed once per model, so an evaluation pays
    only for its arithmetic.  A local family that embeds in the normal form
    is a ``_NormalFormView``: it writes ``five_function()`` and its
    read-back, and its ``transform`` (and, unless it writes them,
    ``real_part`` and ``generator()``) come from the normal form; a view
    with no embedding refuses ``generator()`` with the refusal's reason.
    """

    optional: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in _fraction_fields(type(self)):
            object.__setattr__(self, name, _frac(getattr(self, name)))

    @_cached
    def floats(self) -> SimpleNamespace:
        """The float of each ``Fraction`` field, by name."""
        names = _fraction_fields(type(self))
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

    @_cached
    def _generator(self) -> GeneratorSpec:
        """``generator()``, built once per model."""
        return self.generator()

    @_cached
    def _current_parts(self) -> tuple:
        """The nonzero parts (e, local, d) of J, each e(rho) times the field's
        derivative d (1 for None): e = 2 rho sigma' and d = drho on
        ``h.rho_safe`` for a local sigma; e = 2 rho alpha (d None) and
        2 rho beta (d = dS) on ``h.rho`` for a nonlocal one, as DNLS and EIP
        read them, so each must be a polynomial in rho with no constant term
        (defined at rho = 0, and an array)."""
        gen = self._generator
        if isinstance(gen, Local):
            parts = ((gen.sigma.deriv(), True, "drho"),)
        else:
            parts = ((gen.alpha, False, None), (gen.beta, False, "dS"))
        return tuple((e.div_rho(-1).scale(2), local, d) for e, local, d in parts if e)

    @_cached
    def current_free(self) -> bool:
        return not self._current_parts

    def current(self, h: HydroField) -> np.ndarray:
        """J = 2 rho grad(sigma), the sum of its nonzero parts: a zero part is
        skipped with the derivatives only it reads; no part is J = 0."""
        out = None
        for e, local, d in self._current_parts:
            term = e.on_field(h) if local else e._evaluate(h.rho)
            if d:
                term = term * getattr(h, d)
            out = term if out is None else out + term
        return np.zeros_like(h.rho) if out is None else out


class _RealNonlinearity(ModelSpec):
    """A family whose nonlinearity is already real: J = 0, sigma = 0, and the
    gauge map is the identity."""

    def generator(self) -> GeneratorSpec:
        return Local(RhoExpr.zero())

    def transform(self, gen: GeneratorSpec):
        return self, (), {"note": "nonlinearity already real; identity transformation"}


def _coefficient(e: RhoExpr, power: Rational) -> Fraction:
    """c where e = c rho^power; a ValueError for any other e."""
    if len(e.rows) > 1 or e.rows and e.rows[0][2:] != (*_ratio(power), 0):
        raise ValueError(f"{e} is not a multiple of rho^{power}")
    return Fraction(*e.rows[0][:2]) if e.rows else Fraction(0)


class _NormalFormView(ModelSpec):
    """A family that is a view of the normal form ``FiveFunction``: its real
    part and its generator, unless it writes its own, are those of its
    embedding ``five_function()``, built once, and its gauge image is that
    embedding pushed forward by its generator and read back with
    ``from_five_function``.  ``report_fields`` names the fields its
    coefficient report lists, with "-" before for a field only the image
    has; ``transform_flags()`` may add flags."""

    @_cached
    def _normal_form(self) -> "FiveFunction":
        return self.five_function()

    def real_part(self, h: HydroField) -> np.ndarray:
        return self._normal_form.real_part(h)

    def generator(self) -> GeneratorSpec:
        """The embedding's; NotIntegrable, with the refusal's reason, when
        ``five_function()`` is ``NotRepresentable``."""
        if isinstance(self._normal_form, NotRepresentable):
            raise NotIntegrable(self._normal_form.reason)
        return self._normal_form.generator()

    def transform_flags(self) -> dict:
        return {}

    def transform(self, gen: GeneratorSpec):
        out = self.from_five_function(push_forward(self._normal_form, gen.sigma))
        rows = ((name, getattr(self, name, "-"), getattr(out, name)) for name in self.report_fields)
        return out, _report(*rows), self.transform_flags()


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

    real_terms = (
        ("b1", lambda c, h: c * h.rho),
        ("b2", lambda c, h: c * h.rho**2),
        ("b3", lambda c, h: c * h.rho * h.dS),
    )

    def five_function(self):
        terms = (("the rho*dS term", self.b3), ("the current b4 rho^2", self.b4))
        outside = [name for name, c in terms if c]
        if outside:
            verb = "lies" if len(outside) == 1 else "lie"
            return NotRepresentable(f"{' and '.join(outside)} {verb} outside the family")
        return FiveFunction(f0=RhoExpr.make([(self.b1, 1, 0), (self.b2, 2, 0)]))

    def generator(self) -> GeneratorSpec:
        return Nonlocal(alpha=RhoExpr.monomial(self.b4 / 2, 1), beta=RhoExpr.zero())

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
class DoebnerGoldin(_NormalFormView):
    """W = sum c_i R_i, calW = (D/2) R2, with
    R1 = div(rho grad S)/rho, R2 = lap(rho)/rho, R3 = (grad S)^2,
    R4 = grad S . grad rho / rho, R5 = (grad rho / rho)^2: the normal form
    f1 = c1, f2 = (c1 + c4)/rho, f3 = c5/rho^2, f4 = c2/rho, f5 = D/2,
    f6 = c3."""

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
    report_fields = ("c1", "c2", "c4", "c5", "D")

    @property
    def canonical(self) -> bool:
        return self.c1 == self.D and self.c4 == -self.D and self.c3 == 0 and self.c2 == -2 * self.c5

    def five_function(self) -> "FiveFunction":
        return FiveFunction(
            f1=RhoExpr.const(self.c1),
            f2=RhoExpr.monomial(self.c1 + self.c4, -1),
            f3=RhoExpr.monomial(self.c5, -2),
            f4=RhoExpr.monomial(self.c2, -1),
            f5=RhoExpr.const(self.D / 2),
            f6=RhoExpr.const(self.c3),
        )

    def from_five_function(self, p: "FiveFunction") -> "DoebnerGoldin":
        c1 = _coefficient(p.f1, 0)
        return DoebnerGoldin(
            c1=c1,
            c2=_coefficient(p.f4, -1),
            c3=_coefficient(p.f6, 0),
            c4=_coefficient(p.f2, -1) - c1,
            c5=_coefficient(p.f3, -2),
            D=2 * _coefficient(p.f5, 0),
        )

    def transform_flags(self) -> dict:
        return {
            "canonical": self.canonical,
            "discrepancy": (
                "a commonly quoted form of this map reads c4~ = c4 + (c3-1)D, "
                "c5~ = c5 - c4 D - (c3-1)D^2/4; that version is inconsistent with the "
                "five-function push-forward (which fixes f2) and with the canonical-case "
                "closed form, so the consistent map is used"
            ),
        }


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

    def real_part(self, h: HydroField) -> np.ndarray:
        return -2.0 * self.floats.kappa * h.rho * h.dS**2

    def five_function(self):
        if self.kappa == 0:
            return FiveFunction()
        return NotRepresentable("the current 2 kappa rho^2 dS lies outside the family")

    def generator(self) -> GeneratorSpec:
        return Nonlocal(alpha=RhoExpr.zero(), beta=RhoExpr.monomial(self.kappa, 1))

    def transform(self, gen: GeneratorSpec):
        report = _report(("kappa", self.kappa, self.kappa))
        flags = {"note": "transformed coefficients are rational functions of rho"}
        return EIPTransformed(self.kappa), report, flags


@dataclass(frozen=True)
class Entropic(_NormalFormView):
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
        "generator sigma = -(D/2) log kappa (requires monomial kappa unless D = 0)"
    )
    report_fields = ("g1", "g2")  # fields of the image only

    @_cached
    def _kappa_deriv(self) -> RhoExpr:
        return self.kappa_fn.deriv()

    def f_on_field(self, h: HydroField) -> np.ndarray:
        """f(rho) = rho * kappa'(rho)/kappa(rho) on ``h.rho_safe``."""
        kap = self.kappa_fn.on_field(h)
        if np.any(kap <= 0.0):
            raise DomainError("kappa(rho) must be positive")
        return h.rho_safe * self._kappa_deriv.on_field(h) / kap

    @_cached
    def current_free(self) -> bool:
        return self.D == 0

    def current(self, h: HydroField) -> np.ndarray:
        return -self.floats.D * self.f_on_field(h) * h.drho

    def real_part(self, h: HydroField) -> np.ndarray:
        return -self.floats.D * self.f_on_field(h) * h.lapS + self.G.on_field(h)

    def five_function(self):
        """f1 = -D f, f5 = -(D/2) f, f0 = G; f0 = G alone at D = 0, any kappa."""
        if not self.D:
            return FiveFunction(f0=self.G)
        try:  # f = rho kappa'/kappa, in the algebra for a monomial kappa
            f = self._kappa_deriv.div_rho(-1).monomial_quotient(self.kappa_fn)
        except NotIntegrable:
            return NotRepresentable(
                f"log(kappa) lies outside the expression algebra for kappa = {self.kappa_fn}"
            )
        return FiveFunction(f1=(-self.D) * f, f5=Fraction(-self.D, 2) * f, f0=self.G)

    def from_five_function(self, p: "FiveFunction") -> "EntropicTransformed":
        """The real member with this D whose embedding is p: g1 = -2 f4/D^2,
        g2 = -2 f3/D^2, G = f0 (g1 = g2 = 0 at D = 0)."""
        k = Fraction(-2) / (self.D * self.D) if self.D else 0
        return EntropicTransformed(g1=k * p.f4, g2=k * p.f3, G=p.f0, D=self.D)


@dataclass(frozen=True)
class FiveFunction(ModelSpec):
    """The normal form: W = f1 lap S + f2 grad rho . grad S + f3 (grad rho)^2
    + f4 lap rho + f6 (grad S)^2 + f0, calW = div(f5 grad rho)/rho; each f
    defaults to zero, and f0 and f6 are gauge invariants."""

    f1: RhoExpr = field(default_factory=RhoExpr.zero)
    f2: RhoExpr = field(default_factory=RhoExpr.zero)
    f3: RhoExpr = field(default_factory=RhoExpr.zero)
    f4: RhoExpr = field(default_factory=RhoExpr.zero)
    f5: RhoExpr = field(default_factory=RhoExpr.zero)
    f6: RhoExpr = field(default_factory=RhoExpr.zero)
    f0: RhoExpr = field(default_factory=RhoExpr.zero)

    family = "five-function"
    config_keys = {f"f{i}": (f"f{i}",) for i in (*range(1, 7), 0)}
    optional = ("f6", "f0")
    catalog = (
        "parameters f0..f6 (functions of rho); "
        "W = f1 lap S + f2 grad rho.grad S + f3 (grad rho)^2 + f4 lap rho + f6 (grad S)^2 + f0, "
        "J = 2 f5 grad rho; closed under gauge push-forward, f0 and f6 invariant; "
        "generator sigma = int (f5/rho) drho"
    )

    @property
    def fvec(self) -> tuple[RhoExpr, ...]:
        return (self.f1, self.f2, self.f3, self.f4, self.f5, self.f6)

    real_terms = (  # each with its expression f in place of a float coefficient
        ("f1", lambda f, h: f.on_field(h) * h.lapS),
        ("f2", lambda f, h: f.on_field(h) * h.drho * h.dS),
        ("f3", lambda f, h: f.on_field(h) * h.drho**2),
        ("f4", lambda f, h: f.on_field(h) * h.laprho),
        ("f6", lambda f, h: f.on_field(h) * h.dS**2),
        ("f0", lambda f, h: f(h.rho_safe)),  # an array even for a constant f0
    )

    def five_function(self):
        return self

    def generator(self) -> GeneratorSpec:
        return Local(self.f5.div_rho().antideriv().drop_constant())

    def transform(self, gen: GeneratorSpec):
        out = push_forward(self, gen.sigma)
        report = _report(
            *(
                (f"f{i}", before, after)
                for i, (before, after) in enumerate(zip(self.fvec, out.fvec), start=1)
                if before != after
            )
        )
        return out, report, {}


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


@dataclass(frozen=True)
class GaugedAnomalous(_NormalFormView):
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
    report_fields = ("alpha", "D")

    def five_function(self) -> "FiveFunction":
        qD, p, alpha = self.q * self.D, self.q - 1, self.alpha
        t = 2 * p - 1  # 2q - 3
        return FiveFunction(
            f1=RhoExpr.monomial(qD, p),
            f3=RhoExpr.monomial(alpha * t, t - 1),
            f4=RhoExpr.monomial(2 * alpha, t),
            f5=RhoExpr.monomial(qD / 2, p),
        )

    def from_five_function(self, p: "FiveFunction") -> "GaugedAnomalous":
        """The member with this q (D = 0 at q = 0, where D leaves the model)."""
        q = self.q
        D = 2 * _coefficient(p.f5, q - 1) / q if q else 0
        return GaugedAnomalous(q, D, _coefficient(p.f4, 2 * q - 3) / 2)

    def generator(self) -> GeneratorSpec:
        q, D = self.q, self.D
        if q == 1:
            return Local(RhoExpr.monomial(D / 2, 0, 1))
        k = D / (2 * (q - 1))
        return Local(RhoExpr.make([(q * k, q - 1, 0), (-k, 0, 0)]))


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
            return FiveFunction()
        return NotRepresentable("rational-in-rho coefficients lie outside the family")


@dataclass(frozen=True)
class EntropicTransformed(_RealNonlinearity, _NormalFormView):
    """Gauge image of Entropic: W = -(D^2/2)[g1 lap rho + g2 (grad rho)^2]
    + G(rho) with g1 = rho (dlog kappa/drho)^2 and g2 = g1'/2; calW = 0.
    A view of the normal form f3 = -(D^2/2) g2, f4 = -(D^2/2) g1, f0 = G,
    whose gauge map is the identity."""

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

    def five_function(self) -> "FiveFunction":
        k = -self.D * self.D / 2
        return FiveFunction(f3=k * self.g2, f4=k * self.g1, f0=self.G)

    from_five_function = Entropic.from_five_function


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
    """The config of a model; an optional key is written only when nonzero."""
    d: dict = {"family": model.family}
    for key, names in model.config_keys.items():
        values = [getattr(model, name) for name in names]
        if key in model.optional and not any(values):
            continue
        values = [v.to_triples() if isinstance(v, RhoExpr) else str(v) for v in values]
        d[key] = values if len(names) > 1 else values[0]
    return d


def config_rational(value, key: str) -> Fraction:
    """A rational config value: an int, a float or a string such as "2/5",
    whose value is a finite float.  A float reads as the shortest decimal
    that prints as it (0.4 is 2/5, not its binary value).  A boolean, a
    non-finite or overflowing number, a zero denominator or any other type
    is a ValueError naming ``key``."""
    bad = ValueError(f"{key} must be a finite rational number, got {value!r}")
    if isinstance(value, bool):
        raise bad
    try:
        q = Fraction(repr(float(value)) if isinstance(value, float) else value)
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
