"""Exact expression algebra (checked against sympy) and the nonlinearity
evaluation of every model family (checked against manufactured fields with
analytic derivatives)."""

import numpy as np
import pytest
import sympy as sp
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from nlsgauge import cli, fieldgrid, gauge
from nlsgauge import models as models_module
from nlsgauge.errors import DomainError, NotIntegrable
from nlsgauge.models import (
    DNLS,
    FAMILIES,
    EIP,
    DoebnerGoldin,
    EIPTransformed,
    Entropic,
    EntropicTransformed,
    FiveFunction,
    GaugedAnomalous,
    NotRepresentable,
    RhoExpr,
    current_functional,
    eval_nonlinearity,
    model_from_config,
    model_to_config,
    to_five_function,
)
from conftest import field_from, random_fraction

_r = sp.Symbol("rho", positive=True)


def to_sympy(e: RhoExpr):
    return sum(
        sp.Rational(c.numerator, c.denominator)
        * _r ** sp.Rational(p.numerator, p.denominator)
        * sp.log(_r) ** m
        for c, p, m in e.terms
    )


def random_expr(rng, n_terms=3):
    return RhoExpr.make(
        [
            (random_fraction(rng), random_fraction(rng, max_num=4, max_den=3), int(rng.integers(0, 3)))
            for _ in range(n_terms)
        ]
    )


# ---------------------------------------------------------------------------
# expression algebra vs sympy
# ---------------------------------------------------------------------------


def test_expr_arithmetic_against_sympy():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b = random_expr(rng), random_expr(rng)
        assert sp.simplify(to_sympy(a + b) - (to_sympy(a) + to_sympy(b))) == 0
        assert sp.simplify(to_sympy(a * b) - to_sympy(a) * to_sympy(b)) == 0
        assert sp.simplify(to_sympy(a - b) - (to_sympy(a) - to_sympy(b))) == 0


def test_expr_derivative_against_sympy():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = random_expr(rng)
        assert sp.simplify(to_sympy(a.deriv()) - sp.diff(to_sympy(a), _r)) == 0


def test_expr_antiderivative_against_sympy():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = random_expr(rng)
        # d/drho of the antiderivative recovers the expression (exact algebra)
        assert a.antideriv().deriv() == a
        # and sympy's derivative of it agrees with the original expression
        assert sp.simplify(sp.diff(to_sympy(a.antideriv()), _r) - to_sympy(a)) == 0


def test_expr_numeric_evaluation():
    rng = np.random.default_rng(14)
    rho = np.linspace(0.3, 2.5, 7)
    for _ in range(10):
        a = random_expr(rng)
        fn = sp.lambdify(_r, to_sympy(a), "numpy")
        expected = np.broadcast_to(fn(rho), rho.shape)
        assert np.max(np.abs(a(rho) - expected)) < 1e-12


def test_expr_canonical_form():
    a = RhoExpr.make([(1, 2, 0), (-1, 2, 0)])
    assert a.is_zero
    assert RhoExpr.const(Fraction(3, 2)).constant_value() == Fraction(3, 2)
    assert RhoExpr.rho().constant_value() is None
    with pytest.raises(ValueError):
        RhoExpr.make([(1, 0, -1)])


@pytest.mark.parametrize("m", [1.5, True, False, Fraction(1, 2), "1"])
def test_make_rejects_a_log_power_that_is_not_an_integer(m):
    """A fractional or boolean log power is refused, not truncated to int."""
    with pytest.raises(ValueError, match="log power must be an integer"):
        RhoExpr.make([(1, 0, m)])


def test_make_reads_an_integral_log_power_of_any_numeric_type():
    square = RhoExpr.make([(1, 0, 2)])
    for m in (Fraction(2), 2.0, np.int64(2)):
        got = RhoExpr.make([(1, 0, m)])
        assert got == square and type(got.rows[0][4]) is int


def test_config_floats_read_as_the_decimals_they_print():
    """A float config value is the shortest decimal it prints as (0.1 is
    1/10, not the binary double), in model coefficients, expression triples
    and coupled-transform entries alike; NaN, inf and booleans stay errors."""
    assert models_module.config_rational(0.4, "c") == Fraction(2, 5)
    assert models_module.config_rational(-1e-5, "c") == Fraction(-1, 100000)
    assert RhoExpr.from_triples([[0.1, 0.5, 0]], "f1") == RhoExpr.from_triples(
        [["1/10", "1/2", "0"]], "f1"
    )
    assert cli._rationals([[0.25, -0.2]], "a", 2) == [[Fraction(1, 4), Fraction(-1, 5)]]
    for bad in (float("nan"), float("inf"), True):
        with pytest.raises(ValueError, match="f1 must be a finite rational number"):
            RhoExpr.from_triples([[bad, 1, 0]], "f1")


def test_canon_merges_unreduced_rows_and_reduces_each_survivor():
    """Rows may arrive with coefficients not in lowest terms: they merge
    unreduced (over equal or unequal denominators), cancelling rows drop
    out, and each surviving coefficient is reduced once."""
    rows = [
        (2, 4, 1, 2, 0),  # 1/2 rho^(1/2)
        (-3, 6, 1, 2, 0),  # -1/2 rho^(1/2): cancels the row above
        (6, 4, -1, 3, 1),  # 3/2 rho^(-1/3) log(rho)
        (2, 6, -1, 3, 1),  # + 1/3 over another denominator: 11/6
        (-10, 5, 0, 1, 0),  # -2, alone and unreduced
        (4, 8, 2, 1, 0),  # 1/2 rho^2, twice over one denominator: 1
        (4, 8, 2, 1, 0),
    ]
    expected = ((11, 6, -1, 3, 1), (-2, 1, 0, 1, 0), (1, 1, 2, 1, 0))
    for order in (rows, rows[::-1]):
        assert models_module._canon(order).rows == expected
    assert models_module._canon(rows).terms == _make_oracle(
        [(Fraction(cn, cd), Fraction(pn, pd), m) for cn, cd, pn, pd, m in rows]
    )
    assert models_module._canon(rows[:2]).rows == ()


def _make_oracle(terms):
    """The canonical form written directly: terms merged in a dict keyed by
    (Fraction p, m), then sorted by comparing those keys."""
    acc = {}
    for coeff, p, m in terms:
        key = (Fraction(p), int(m))
        acc[key] = acc.get(key, Fraction(0)) + Fraction(coeff)
    return tuple((c, p, m) for (p, m), c in sorted(acc.items()) if c != 0)


# 6004799503160661/18014398509481984 is float(1/3) exactly: the two powers
# are distinct but equal as floats.
_NEAR_THIRD = Fraction(6004799503160661, 18014398509481984)
_RATIONALS = st.one_of(
    st.sampled_from([Fraction(1, 3), _NEAR_THIRD, Fraction(0), Fraction(-1), Fraction(3, 4)]),
    st.fractions(-4, 4, max_denominator=12),
    st.fractions(-4, 4, max_denominator=10**20),
)


@st.composite
def _spelling(draw, q):
    """``q`` as a Fraction, as a string "n/d" not always in lowest terms, or
    as an int when it is one."""
    k = draw(st.integers(1, 4))
    forms = [q, f"{q.numerator * k}/{q.denominator * k}", Fraction(q.numerator * k, q.denominator * k)]
    if q.denominator == 1:
        forms.append(int(q))
    return draw(st.sampled_from(forms))


@st.composite
def _term_lists(draw):
    """A few (p, m) pairs, each used by several terms spelled in different
    forms; a term is sometimes followed by its negation, so sums cancel."""
    keys = draw(st.lists(st.tuples(_RATIONALS, st.integers(0, 2)), min_size=1, max_size=5))
    terms = []
    for _ in range(draw(st.integers(0, 10))):
        p, m = draw(st.sampled_from(keys))
        c = draw(_RATIONALS)
        terms.append((draw(_spelling(c)), draw(_spelling(p)), m))
        if draw(st.booleans()):
            terms.append((draw(_spelling(-c)), draw(_spelling(p)), m))
    return draw(st.permutations(terms))


@settings(max_examples=300, deadline=None)
@given(terms=_term_lists())
@example(terms=[(1, Fraction(1, 3), 0), (2, str(_NEAR_THIRD), 0)])
@example(terms=[(1, 1, 0), ("1", "3/4", 0), (1, "-2", 1)])
@example(terms=[(1, "1/2", 0), (1, "1/3", 0), ("2/4", Fraction(2, 4), 0)])
@example(terms=[(1, 2, 0), ("-2/2", Fraction(4, 2), 0), (Fraction(1, 5), "-7/3", 2)])
def test_make_matches_the_fraction_keyed_oracle(terms):
    got = RhoExpr.make(terms).terms
    assert got == _make_oracle(terms)
    assert all(
        (type(c), type(p), type(m)) == (Fraction, Fraction, int) for c, p, m in got
    )


# The Fraction algebra RhoExpr ran before its integer rows, kept as the
# reference for them: an expression is its canonical tuple of
# (Fraction coeff, Fraction p, int m) terms, built by _make_oracle.


def _ref_antideriv_terms(c, p, m, out):
    if p == -1:
        out.append((c / (m + 1), 0, m + 1))
        return
    out.append((c / (p + 1), p + 1, m))
    if m > 0:
        _ref_antideriv_terms(-c * m / (p + 1), p, m - 1, out)


def _ref_antideriv(terms):
    out = []
    for c, p, m in terms:
        _ref_antideriv_terms(c, p, m, out)
    return _make_oracle(out)


def _ref_deriv(terms):
    out = []
    for c, p, m in terms:
        if p != 0:
            out.append((c * p, p - 1, m))
        if m > 0:
            out.append((c * m, p - 1, m - 1))
    return _make_oracle(out)


def _ref_monomial_quotient(terms, den):
    if len(den) != 1:
        raise NotIntegrable("non-monomial")
    c, p, m = den[0]
    if any(tm < m for _, _, tm in terms):
        raise NotIntegrable("negative log power")
    return tuple((tc / c, tp - p, tm - m) for tc, tp, tm in terms)


def _ref_constant_value(terms):
    if not terms:
        return Fraction(0)
    if len(terms) == 1 and terms[0][1] == 0 and terms[0][2] == 0:
        return terms[0][0]
    return None


def _ref_str(terms):
    parts = []
    for c, p, m in terms:
        s = str(c)
        if p != 0:
            s += f"*rho^{p}"
        if m > 0:
            s += f"*log(rho)^{m}" if m > 1 else "*log(rho)"
        parts.append(s)
    return " + ".join(parts) if parts else "0"


_POWERS = st.one_of(
    st.sampled_from([Fraction(-1), Fraction(-2), Fraction(0), Fraction(1, 2), Fraction(-1, 3)]),
    st.fractions(-3, 3, max_denominator=6),
)
_COEFFS = st.fractions(-5, 5, max_denominator=7)


@st.composite
def _expr_terms(draw):
    """Up to four terms with negative, fractional and p = -1 powers and log
    powers up to 3; a term is sometimes followed by its negation, so sums
    cancel, down to the empty expression."""
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        c, p, m = draw(_COEFFS), draw(_POWERS), draw(st.integers(0, 3))
        terms.append((c, p, m))
        if draw(st.booleans()):
            terms.append((-c, p, m))
    return terms


def _same(expr, ref):
    """``expr`` is the reference expression ``ref`` in every view."""
    assert expr.terms == ref
    assert all((type(c), type(p), type(m)) == (Fraction, Fraction, int) for c, p, m in expr.terms)
    assert expr.to_triples() == [[str(c), str(p), str(m)] for c, p, m in ref]
    assert str(expr) == _ref_str(ref)
    assert expr == RhoExpr.make(ref) and hash(expr) == hash(RhoExpr.make(ref))
    assert expr.is_zero == (not ref) and bool(expr) == bool(ref)
    value = expr.constant_value()
    assert value == _ref_constant_value(ref) and type(value) is type(_ref_constant_value(ref))
    needs_positive = any(m > 0 or p < 0 or p.denominator != 1 for _, p, m in ref)
    plan = tuple(
        (float(c), int(p) if p.denominator == 1 and abs(p) <= 4 else 0, float(p), m)
        for c, p, m in ref
    )
    assert expr._numeric == (needs_positive, plan)


@settings(max_examples=300, deadline=None)
@given(
    ta=_expr_terms(),
    tb=_expr_terms(),
    c=_COEFFS.flatmap(_spelling),
    power=_POWERS.flatmap(_spelling),
    den=st.tuples(_COEFFS.filter(bool), _POWERS, st.integers(0, 3)),
)
@example(ta=[], tb=[], c=0, power=1, den=(Fraction(1), Fraction(0), 0))
@example(
    ta=[(Fraction(2), Fraction(-1), 3), (Fraction(-1, 3), Fraction(1, 2), 2)],
    tb=[(Fraction(1), Fraction(-1), 3)],
    c="-6/4",
    power=Fraction(-1, 3),
    den=(Fraction(-3, 5), Fraction(-1), 2),
)
def test_integer_rows_match_the_fraction_algebra(ta, tb, c, power, den):
    a, b = RhoExpr.make(ta), RhoExpr.make(tb)
    ra, rb = _make_oracle(ta), _make_oracle(tb)
    _same(a, ra)
    _same(b, rb)
    _same(a + b, _make_oracle(ra + rb))
    _same(a - b, _make_oracle(ra + tuple((-k, p, m) for k, p, m in rb)))
    _same(a - a, ())
    products = [(k1 * k2, p1 + p2, m1 + m2) for k1, p1, m1 in ra for k2, p2, m2 in rb]
    _same(a * b, _make_oracle(products))
    _same(
        RhoExpr.combine((3, a), (-2, a, b), (1, b, b), (0, b)),
        _make_oracle(
            [(3 * k, p, m) for k, p, m in ra]
            + [(-2 * k, p, m) for k, p, m in products]
            + [(k1 * k2, p1 + p2, m1 + m2) for k1, p1, m1 in rb for k2, p2, m2 in rb]
        ),
    )
    _same(a.scale(c), _make_oracle([(Fraction(c) * k, p, m) for k, p, m in ra]))
    _same(a.div_rho(power), tuple((k, p - Fraction(power), m) for k, p, m in ra))
    _same(a.deriv(), _ref_deriv(ra))
    _same(a.antideriv(), _ref_antideriv(ra))
    _same(a.drop_constant(), tuple(t for t in ra if not (t[1] == 0 and t[2] == 0)))
    for divisor in (_make_oracle([den]), rb):
        try:
            quotient = _ref_monomial_quotient(ra, divisor)
        except NotIntegrable:
            with pytest.raises(NotIntegrable):
                a.monomial_quotient(RhoExpr.make(divisor))
        else:
            _same(a.monomial_quotient(RhoExpr.make(divisor)), quotient)
    assert (a == b) == (ra == rb)
    assert RhoExpr.make(reversed(ta)) == a and hash(RhoExpr.make(reversed(ta))) == hash(a)


def test_expr_domain_guard():
    from nlsgauge.errors import DomainError

    with pytest.raises(DomainError):
        RhoExpr.log_rho()(np.array([0.0, 1.0]))


def test_monomial_quotient():
    from nlsgauge.errors import NotIntegrable

    num = RhoExpr.make([(3, 2, 1)])
    den = RhoExpr.monomial(Fraction(1, 2), 1)
    q = num.monomial_quotient(den)
    assert q == RhoExpr.make([(6, 1, 1)])
    with pytest.raises(NotIntegrable):
        num.monomial_quotient(RhoExpr.rho() + RhoExpr.const(1))
    # powers and log powers subtract; an equal log power is allowed, a
    # smaller one is not
    num = RhoExpr.make([(3, Fraction(5, 2), 2), (1, 1, 1)])
    den = RhoExpr.monomial(2, Fraction(1, 2), 1)
    q = num.monomial_quotient(den)
    assert q == RhoExpr.make([(Fraction(3, 2), 2, 1), (Fraction(1, 2), Fraction(1, 2), 0)])
    with pytest.raises(NotIntegrable, match="negative log power"):
        (num + RhoExpr.rho()).monomial_quotient(den)


# ---------------------------------------------------------------------------
# nonlinearity evaluation against analytic manufactured fields
# ---------------------------------------------------------------------------


def _manufactured(grid):
    """(rho, S) with all needed derivatives available in closed form."""
    x = grid.x
    rho = 0.6 * np.exp(-(x**2) / 10.0) + 0.05
    drho = -0.12 * x * np.exp(-(x**2) / 10.0)
    ddrho = (-0.12 + 0.024 * x**2) * np.exp(-(x**2) / 10.0)
    S = 0.3 * np.sin(x / 3.0)
    dS = 0.1 * np.cos(x / 3.0)
    ddS = -(0.1 / 3.0) * np.sin(x / 3.0)
    return rho, drho, ddrho, S, dS, ddS


@pytest.fixture
def manufactured(grid512):
    return grid512, _manufactured(grid512)


def _interior(arr, k=8):
    return arr[k:-k]


def test_dnls_nonlinearity(manufactured):
    grid, (rho, drho, ddrho, S, dS, ddS) = manufactured
    h = field_from(rho, S, grid)
    m = DNLS("1/3", "1/5", "2", "-1/2")
    ev = eval_nonlinearity(m, h)
    W_exact = rho / 3.0 + rho**2 / 5.0 + 2.0 * rho * dS
    calW_exact = -0.5 * drho  # d(b4 rho^2)/dx / (2 rho)
    assert np.max(np.abs(_interior(ev.W - W_exact))) < 1e-6
    assert np.max(np.abs(_interior(ev.calW - calW_exact))) < 1e-6
    assert np.max(np.abs(current_functional(m, h) + 0.5 * rho**2)) < 1e-14


def test_doebner_goldin_nonlinearity(manufactured):
    grid, (rho, drho, ddrho, S, dS, ddS) = manufactured
    h = field_from(rho, S, grid)
    m = DoebnerGoldin("2/5", "-1/5", "0", "-2/5", "1/10", "2/5")
    R1 = ddS + drho * dS / rho
    R2 = ddrho / rho
    R4 = dS * drho / rho
    R5 = (drho / rho) ** 2
    W_exact = 0.4 * R1 - 0.2 * R2 - 0.4 * R4 + 0.1 * R5
    calW_exact = 0.2 * ddrho / rho
    ev = eval_nonlinearity(m, h)
    assert np.max(np.abs(_interior(ev.W - W_exact))) < 1e-5
    assert np.max(np.abs(_interior(ev.calW - calW_exact))) < 1e-5


def test_eip_nonlinearity(manufactured):
    grid, (rho, drho, ddrho, S, dS, ddS) = manufactured
    h = field_from(rho, S, grid)
    m = EIP("3/10")
    ev = eval_nonlinearity(m, h)
    W_exact = -0.6 * rho * dS**2
    J_exact = 0.6 * rho**2 * dS
    calW_exact = 0.6 * (2.0 * rho * drho * dS + rho**2 * ddS) / (2.0 * rho)
    assert np.max(np.abs(_interior(ev.W - W_exact))) < 1e-6
    assert np.max(np.abs(_interior(current_functional(m, h) - J_exact))) < 1e-6
    assert np.max(np.abs(_interior(ev.calW - calW_exact))) < 1e-6


def test_entropic_nonlinearity(manufactured):
    grid, (rho, drho, ddrho, S, dS, ddS) = manufactured
    h = field_from(rho, S, grid)
    # kappa = rho^2  =>  f = rho d(log kappa)/drho = 2
    m = Entropic(RhoExpr.rho(2), "1/2")
    ev = eval_nonlinearity(m, h)
    assert np.max(np.abs(_interior(ev.W + 1.0 * ddS))) < 1e-6
    # J = -D f drho = -drho; calW = -ddrho/(2 rho)
    assert np.max(np.abs(_interior(ev.calW + 0.5 * ddrho / rho))) < 1e-5


def test_gauged_anomalous_nonlinearity(manufactured):
    grid, (rho, drho, ddrho, S, dS, ddS) = manufactured
    h = field_from(rho, S, grid)
    m = GaugedAnomalous(2, "1/2", "1/4")
    ev = eval_nonlinearity(m, h)
    # q=2, D=1/2: W = qD rho^{q-1} lapS + 2 alpha rho^{2q-3} laprho
    #            + alpha (2q-3) rho^{2q-4} (drho)^2
    W_exact = rho * ddS + 0.5 * rho * ddrho + 0.25 * drho**2
    assert np.max(np.abs(_interior(ev.W - W_exact))) < 1e-6
    # J = Dq rho^{q-1} drho = rho drho
    assert np.max(np.abs(_interior(current_functional(m, h) - rho * drho))) < 1e-6


def test_five_function_nonlinearity(manufactured):
    grid, (rho, drho, ddrho, S, dS, ddS) = manufactured
    h = field_from(rho, S, grid)
    z = RhoExpr.zero()
    m = FiveFunction(
        f1=RhoExpr.rho(),
        f2=RhoExpr.const(2),
        f3=z,
        f4=RhoExpr.monomial(1, -1),
        f5=RhoExpr.monomial(Fraction(1, 2), 1),
    )
    ev = eval_nonlinearity(m, h)
    W_exact = rho * ddS + 2.0 * drho * dS + ddrho / rho
    assert np.max(np.abs(_interior(ev.W - W_exact))) < 1e-5
    # J = 2 f5 drho = rho drho
    assert np.max(np.abs(_interior(current_functional(m, h) - rho * drho))) < 1e-6


def test_transformed_families_have_zero_imaginary_part(manufactured):
    grid, (rho, drho, ddrho, S, dS, ddS) = manufactured
    h = field_from(rho, S, grid)
    for m in (EIPTransformed("3/10"), EntropicTransformed(RhoExpr.rho(), RhoExpr.const(1), RhoExpr.zero(), Fraction(1, 2))):
        ev = eval_nonlinearity(m, h)
        assert np.max(np.abs(ev.calW)) == 0.0
        assert np.max(np.abs(current_functional(m, h))) == 0.0


def test_continuity_identity_all_families(manufactured):
    """calW == div(J)/(2 rho) discretely, for every family."""
    grid, (rho, drho, ddrho, S, dS, ddS) = manufactured
    h = field_from(rho, S, grid)
    models = [
        DNLS(0, 1, 0, "1/2"),
        DoebnerGoldin("2/5", "-1/5", 0, "-2/5", "1/10", "2/5"),
        EIP("3/10"),
        Entropic(RhoExpr.rho(2), "1/2"),
        FiveFunction(RhoExpr.rho(), RhoExpr.zero(), RhoExpr.zero(), RhoExpr.zero(), RhoExpr.monomial(Fraction(1, 2), 1)),
        GaugedAnomalous(2, "1/2", "1/4"),
    ]
    for m in models:
        ev = eval_nonlinearity(m, h)
        J = current_functional(m, h)
        div = fieldgrid.derivative4(J, grid) / (2.0 * np.maximum(rho, 1e-12))
        assert np.max(np.abs(ev.calW - div)) < 1e-10


# ---------------------------------------------------------------------------
# terms with an exact zero coefficient, and current-free models
# ---------------------------------------------------------------------------


def _full_formula(m, h):
    """(W, calW) with every term evaluated, whatever its coefficient: the
    formulas as written in the model docstrings, in the evaluation order of
    ``models``, with calW = div(J)/(2 rho) always assembled.  The phase
    derivatives are the field's own, read from its current.  Doebner-Goldin
    and the anomalous-diffusion family are evaluated as their normal form,
    each coefficient an array of ``RhoExpr.__call__`` (a constant one
    multiplies each element by its float, as the scalar does)."""
    if isinstance(m, (DoebnerGoldin, GaugedAnomalous)):
        return _full_formula(m.five_function(), h)
    rho, grid = h.rho, h.grid
    rs = np.maximum(rho, fieldgrid.DENSITY_FLOOR)
    drho, dS = fieldgrid.derivative4(rho, grid), h.dS
    laprho, lapS = fieldgrid.laplacian4(rho, grid), h.lapS
    if isinstance(m, DNLS):
        W = float(m.b1) * rho + float(m.b2) * rho**2 + float(m.b3) * rho * dS
        J = float(m.b4) * rho**2
    else:
        W = (
            m.f1(rs) * lapS
            + m.f2(rs) * drho * dS
            + m.f3(rs) * drho**2
            + m.f4(rs) * laprho
            + m.f6(rs) * dS**2
            + m.f0(rs)
        )
        J = 2.0 * m.f5(rs) * drho
    return W, fieldgrid.derivative4(J, grid) / (2.0 * rs)


# half the draws are an exact zero
_coeff = st.sampled_from(["0", "0", "0", "0", "1/3", "-2/5", "3/2", "-1"]).map(Fraction)
_power = st.sampled_from(["0", "1", "-1", "1/2", "2"]).map(Fraction)
_expr = st.one_of(
    st.just(RhoExpr.zero()),
    st.builds(lambda c, p: RhoExpr.monomial(c, p) if c else RhoExpr.zero(), _coeff, _power),
)
_sparse_models = st.one_of(
    st.builds(DNLS, _coeff, _coeff, _coeff, _coeff),
    st.builds(DoebnerGoldin, _coeff, _coeff, _coeff, _coeff, _coeff, _coeff),
    st.builds(FiveFunction, _expr, _expr, _expr, _expr, _expr, _expr, _expr),
    st.builds(
        GaugedAnomalous, st.sampled_from(["0", "1/2", "1", "3/2", "2"]).map(Fraction), _coeff, _coeff
    ),
)


@settings(max_examples=150, deadline=None)
@given(_sparse_models)
@example(FiveFunction(f0=RhoExpr.const(2)))  # a constant read alone is still an array
def test_skipped_zero_terms_leave_the_nonlinearity_unchanged(m):
    grid = fieldgrid.Grid1D(-20.0, 20.0, 128)
    _, _, _, S, _, _ = _manufactured(grid)
    rho = 0.6 * np.exp(-(grid.x**2) / 10.0)  # under 1e-12 for |x| > 16.5
    h = field_from(rho, S, grid)
    ev = eval_nonlinearity(m, h)
    W, calW = _full_formula(m, h)
    assert np.array_equal(ev.W, W)
    assert np.array_equal(ev.calW, calW)


def _hand_formula(m, h):
    """(W, calW) of Doebner-Goldin and the anomalous-diffusion family from
    their own formulas, R1..R5 and the rho^q terms, not the normal form."""
    rs, drho, dS, laprho, lapS = h.rho_safe, h.drho, h.dS, h.laprho, h.lapS
    if isinstance(m, DoebnerGoldin):
        c1, c2, c3, c4, c5, D = map(float, (m.c1, m.c2, m.c3, m.c4, m.c5, m.D))
        W = (
            c1 * (lapS + drho * dS / rs)
            + c2 * (laprho / rs)
            + c3 * dS**2
            + c4 * (dS * drho / rs)
            + c5 * (drho / rs) ** 2
        )
        J = D * drho
    else:
        q, D, alpha = float(m.q), float(m.D), float(m.alpha)
        W = (
            q * D * rs ** (q - 1.0) * lapS
            + 2.0 * alpha * rs ** (2.0 * q - 3.0) * laprho
            + alpha * (2.0 * q - 3.0) * rs ** (2.0 * q - 4.0) * drho**2
        )
        J = D * q * rs ** (q - 1.0) * drho
    return W, fieldgrid.derivative4(J, h.grid) / (2.0 * rs)


def _entropic_transformed_hand_formula(m, h):
    """The entropic image's W from its own formula, not its normal form, and
    the sum of its terms' magnitudes, each coefficient term |c rho^p log^m|."""
    D2half = float(m.D) ** 2 / 2.0
    W = -D2half * (m.g1.on_field(h) * h.laprho + m.g2.on_field(h) * h.drho**2) + m.G.on_field(h)
    rs = h.rho_safe

    def size(e):
        return sum((float(abs(c)) * rs ** float(p) * np.abs(np.log(rs)) ** k for c, p, k in e.terms), 0 * rs)

    return W, D2half * (size(m.g1) * np.abs(h.laprho) + size(m.g2) * h.drho**2) + size(m.G)


_term = st.tuples(_coeff, _power, st.sampled_from([0, 0, 1]))
_poly = st.lists(_term, max_size=3).map(RhoExpr.make)


@settings(max_examples=100, deadline=None)
@given(st.builds(EntropicTransformed, _poly, _poly, _poly, st.fractions(-3, 3, max_denominator=7)))
@example(EntropicTransformed(RhoExpr.rho(), RhoExpr.const(1), RhoExpr.const(1), Fraction(1, 2)))
@example(gauge.transform_model(Entropic(RhoExpr.rho(2), "1/4")).transformed)
def test_entropic_transformed_matches_its_hand_formula(m):
    """The entropic image evaluates its normal form: its own formula's W to
    roundoff, pointwise 16 ulps of the sum of the terms' magnitudes (7.0 is
    the worst of 3,000 seeded draws; both formulas round each term several
    times), and bit for bit when D^2/2 is a power of two, where each
    coefficient of f3 and f4 is g2's and g1's, exactly scaled."""
    grid = fieldgrid.Grid1D(-20.0, 20.0, 512)
    _, _, _, S, _, _ = _manufactured(grid)
    h = field_from(0.6 * np.exp(-(grid.x**2) / 10.0), S, grid)  # tails under the floor
    W = eval_nonlinearity(m, h).W
    hand, size = _entropic_transformed_hand_formula(m, h)
    assert W.shape == grid.x.shape
    assert np.all(np.abs(W - hand) <= 16 * 2.0**-53 * size)
    k = m.D * m.D / 2
    if k and k.numerator & (k.numerator - 1) == 0 and k.denominator & (k.denominator - 1) == 0:
        assert np.array_equal(W, hand)


@pytest.mark.parametrize(
    "m",
    [
        DoebnerGoldin("2/5", "-1/5", 0, "-2/5", "1/10", "2/5"),
        DoebnerGoldin("1/3", "1/5", "-3/7", "-1/7", "2/9", "1/4"),
        GaugedAnomalous(2, "1/2", "1/3"),
        GaugedAnomalous(1, "1/2", "1/3"),
        GaugedAnomalous("3/2", "1/2", "1/3"),
        GaugedAnomalous("1/2", "-3/4", "1/5"),
        GaugedAnomalous(-1, "1/3", "2/7"),
    ],
    ids=repr,
)
def test_views_match_their_hand_formulas(manufactured, m):
    """A view evaluates its normal form: the same W as its own formulas to
    roundoff, and the same calW."""
    grid, (rho, drho, ddrho, S, dS, ddS) = manufactured
    h = field_from(rho, S, grid)
    ev = eval_nonlinearity(m, h)
    W, calW = _hand_formula(m, h)
    assert np.max(np.abs(ev.W - W)) <= 1e-14 * np.max(np.abs(W))
    assert np.max(np.abs(ev.calW - calW)) <= 1e-10


CURRENT_FREE = [
    DNLS(0, 1, 0, 0),
    GaugedAnomalous(0, "1/2", "1/4"),  # q = 0: J = D q rho^{q-1} grad rho = 0
] + [
    # every gauge image is current-free
    gauge.transform_model(m).transformed
    for m in (
        DNLS(0, 1, 0, "1/2"),
        DoebnerGoldin("2/5", "-1/5", 0, "-2/5", "1/10", "2/5"),
        EIP("3/10"),
        Entropic(RhoExpr.rho(2), "1/2"),
        FiveFunction(RhoExpr.rho(), RhoExpr.zero(), RhoExpr.zero(), RhoExpr.zero(), RhoExpr.rho()),
        GaugedAnomalous(2, "1/2", "1/4"),
    )
]


@pytest.mark.parametrize("k", range(len(CURRENT_FREE)))
def test_current_free_models_skip_the_current(manufactured, monkeypatch, k):
    m = CURRENT_FREE[k]
    assert m.current_free
    grid, (rho, drho, ddrho, S, dS, ddS) = manufactured
    h = field_from(rho, S, grid)
    expected = eval_nonlinearity(m, field_from(rho, S, grid)).W
    for name in ("drho", "dS", "laprho", "lapS"):
        getattr(h, name)  # the real part may read these; the current may not

    def forbidden(*args, **kwargs):
        raise AssertionError("a current-free model evaluated its current")

    monkeypatch.setattr(fieldgrid, "derivative4", forbidden)
    monkeypatch.setattr(models_module, "current_functional", forbidden)
    ev = eval_nonlinearity(m, h)
    assert np.array_equal(ev.W, expected)
    assert ev.calW.shape == rho.shape and np.all(ev.calW == 0.0)


def test_entropic_without_diffusion_still_checks_kappa(manufactured):
    """D = 0 zeroes the f(rho) term but does not skip evaluating it, so a
    kappa that is not positive is rejected in the step."""
    grid, (rho, drho, ddrho, S, dS, ddS) = manufactured
    h = field_from(rho, S, grid)
    with pytest.raises(DomainError, match="kappa"):
        eval_nonlinearity(Entropic(RhoExpr.monomial(-1, 1), 0), h)


def test_phase_is_computed_once_per_field(gaussian_state, monkeypatch):
    calls = []
    held_phase = fieldgrid._held_phase

    def counting(values, valid):
        calls.append(values)
        return held_phase(values, valid)

    monkeypatch.setattr(fieldgrid, "_held_phase", counting)
    h = fieldgrid.to_hydro(gaussian_state)
    # R1 reads lapS and dS, R3 and R4 read dS: all come from the current
    m = DoebnerGoldin("2/5", "-1/5", "1/3", "-2/5", "1/10", "2/5")
    eval_nonlinearity(m, h)
    current_functional(EIP("3/10"), h)
    assert calls == []  # nothing has read the phase yet
    assert h.phase is h.phase
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# five-function embedding
# ---------------------------------------------------------------------------


def test_embedding_matches_direct_evaluation(manufactured):
    grid, (rho, drho, ddrho, S, dS, ddS) = manufactured
    h = field_from(rho, S, grid)
    models = [
        DoebnerGoldin("2/5", "-1/5", 0, "-2/5", "1/10", "2/5"),
        Entropic(RhoExpr.rho(2), "1/2"),
        GaugedAnomalous(2, "1/2", "1/4"),
    ]
    for m in models:
        ff = to_five_function(m)
        assert isinstance(ff, FiveFunction)
        ev_m = eval_nonlinearity(m, h)
        ev_f = eval_nonlinearity(ff, h)
        assert np.max(np.abs(_interior(ev_m.W - ev_f.W))) < 1e-9
        assert np.max(np.abs(_interior(ev_m.calW - ev_f.calW))) < 1e-9


def test_embedding_refusals():
    # the potential terms of DNLS are f0; the reason names only what is left
    assert to_five_function(DNLS(1, "1/2", 0, 0)) == FiveFunction(f0=RhoExpr.make([(1, 1, 0), ("1/2", 2, 0)]))
    for b3, b4, reason in (
        (1, 0, "the rho*dS term lies outside the family"),
        (0, 1, "the current b4 rho^2 lies outside the family"),
        (1, 1, "the rho*dS term and the current b4 rho^2 lie outside the family"),
    ):
        assert to_five_function(DNLS(1, 1, b3, b4)).reason == reason
    assert isinstance(to_five_function(EIP(1)), NotRepresentable)
    # every Doebner-Goldin model embeds: c3 is the (grad S)^2 coefficient f6
    assert to_five_function(DoebnerGoldin(1, 0, "1/2", 0, 0, 1)).f6 == RhoExpr.const("1/2")
    assert isinstance(to_five_function(EIPTransformed(1)), NotRepresentable)


def test_eip_families_at_kappa_zero_embed_as_the_zero_normal_form():
    assert to_five_function(EIP(0)) == FiveFunction()
    assert to_five_function(EIPTransformed(0)) == FiveFunction()


def test_canonical_predicates():
    assert DNLS(0, 0, 1, "-1/2").canonical
    assert not DNLS(0, 0, 1, "1/2").canonical
    assert DoebnerGoldin("2/5", "-1/5", 0, "-2/5", "1/10", "2/5").canonical
    assert not DoebnerGoldin("2/5", 0, 0, "-2/5", "1/10", "2/5").canonical


def test_from_wave_params():
    m = DNLS.from_wave_params("1/2", "1/3", "1/4", "3/4")
    assert (m.b1, m.b2) == (Fraction(1, 2), Fraction(1, 3))
    assert m.b3 == Fraction(3, 4) - Fraction(1, 4)
    assert m.b4 == (Fraction(1, 4) + Fraction(3, 4)) / 2


def test_model_config_round_trip():
    rng = np.random.default_rng(15)
    models = [
        DNLS("1/3", "-2/5", 1, "1/2"),
        DoebnerGoldin("2/5", "-1/5", 0, "-2/5", "1/10", "2/5"),
        EIP("3/10"),
        Entropic(RhoExpr.rho(2), "1/2", RhoExpr.const(1)),
        FiveFunction(*(random_expr(rng) for _ in range(5))),
        GaugedAnomalous(2, "1/2", "1/4"),
        EIPTransformed("3/10"),
        EntropicTransformed(RhoExpr.rho(), RhoExpr.const(1), RhoExpr.zero(), Fraction(1, 2)),
    ]
    for m in models:
        assert model_from_config(model_to_config(m)) == m


# One sample per registered family.  The test below requires exactly the
# registry's families here, so a family added without a sample, or without
# any of its pieces, fails it.
FAMILY_SAMPLES = {
    "dnls": DNLS("1/3", "-2/5", 1, "1/2"),
    "doebner-goldin": DoebnerGoldin("2/5", "-1/5", "1/3", "-2/5", "1/10", "2/5"),
    "eip": EIP("3/10"),
    "entropic": Entropic(RhoExpr.rho(2), "1/2", RhoExpr.const(1)),
    "five-function": FiveFunction(
        RhoExpr.rho(),
        RhoExpr.const(2),
        RhoExpr.zero(),
        RhoExpr.monomial(1, -1),
        RhoExpr.monomial(Fraction(1, 2), 1) + RhoExpr.log_rho(),
    ),
    "gauged-anomalous": GaugedAnomalous(2, "1/2", "1/4"),
    "eip-transformed": EIPTransformed("3/10"),
    "entropic-transformed": EntropicTransformed(
        RhoExpr.rho(), RhoExpr.const(1), RhoExpr.const(1), Fraction(1, 2)
    ),
}


def test_every_registered_family_is_complete(manufactured, capsys):
    assert set(FAMILY_SAMPLES) == {cls.family for cls in FAMILIES}
    assert "transform" not in vars(Entropic)  # its gauge image is the view's
    assert "generator" not in vars(Entropic)  # so is its generator, or the refusal
    grid, (rho, drho, ddrho, S, dS, ddS) = manufactured
    h = field_from(rho, S, grid)
    for name, m in FAMILY_SAMPLES.items():
        assert type(m).family == name
        assert cli.main(["catalog", "--family", name]) == 0
        assert capsys.readouterr().out.startswith(f"{name}: ")

        cfg = model_to_config(m)
        assert model_from_config(cfg) == m
        cli.check_keys(cfg, {"family", *type(m).config_keys})
        assert cli.build_model(cfg, set()) == m

        ev = eval_nonlinearity(m, h)
        J = current_functional(m, h)
        assert np.array_equal(m.current(h), J), name
        assert np.array_equal(m.real_part(h), ev.W), name
        div = fieldgrid.derivative4(J, grid) / (2.0 * np.maximum(rho, fieldgrid.DENSITY_FLOOR))
        assert np.max(np.abs(ev.calW - div)) < 1e-10, name
        assert isinstance(to_five_function(m), (FiveFunction, NotRepresentable))
        ok, reason = gauge.curl_condition_holds(m, 2)
        assert isinstance(ok, bool) and reason

        assert m.current_free == bool(np.all(J == 0.0)), name

        tr = gauge.transform_model(m)
        assert type(tr.transformed) in FAMILIES
        assert np.all(current_functional(tr.transformed, h) == 0.0), name
        assert tr.transformed.current_free, name


# ---------------------------------------------------------------------------
# currents read from the generators
# ---------------------------------------------------------------------------


def _current_field(boundary):
    """A Gaussian whose tails fall below the density floor on a dirichlet
    grid, and a positive wave on a periodic one, both with a moving phase."""
    grid = fieldgrid.Grid1D(-20.0, 20.0, 512, boundary)
    x, k = grid.x, 2.0 * np.pi / 40.0
    if boundary == "periodic":
        psi = (0.6 + 0.3 * np.cos(k * x)) * np.exp(1j * (np.sin(k * x) + 0.2 * np.cos(2 * k * x)))
    else:
        psi = 0.8 * np.exp(-(x**2) / 16.0) * np.exp(0.3j * np.sin(x / 5.0) + 0.02j * x**2)
    return fieldgrid.to_hydro(fieldgrid.ComplexField(psi, grid))


def _hand_current(m, h):
    """The current and ``current_free`` of each family as its own formula,
    written before the current was read from the generator."""
    if isinstance(m, DNLS):
        return float(m.b4) * h.rho**2, m.b4 == 0
    if isinstance(m, EIP):
        return 2.0 * float(m.kappa) * h.rho**2 * h.dS, m.kappa == 0
    if isinstance(m, (EIPTransformed, EntropicTransformed)):
        return np.zeros_like(h.rho), True
    f5 = m.five_function().f5
    return 2.0 * f5.on_field(h) * h.drho, f5.is_zero


def _generated_current_models(seed):
    """Random members of every family whose current comes from its
    generator, each also with its current's coefficient set to zero."""
    rng = np.random.default_rng(seed)

    def r():
        return random_fraction(rng, nonzero=True)

    def e():
        return random_expr(rng, n_terms=int(rng.integers(1, 4)))

    z = RhoExpr.zero()
    q = random_fraction(rng, max_num=5, max_den=4)
    return [
        DNLS(r(), r(), r(), r()),
        DNLS(r(), r(), r(), 0),
        EIP(r()),
        EIP(0),
        DoebnerGoldin(*(r() for _ in range(6))),
        DoebnerGoldin(*(r() for _ in range(5)), 0),
        GaugedAnomalous(1, r(), r()),
        GaugedAnomalous(0, r(), r()),
        GaugedAnomalous(q, r(), r()),
        GaugedAnomalous(2, 0, r()),
        FiveFunction(e(), e(), e(), e(), e()),
        FiveFunction(e(), e(), e(), e(), z),
        EIPTransformed(r()),
        EntropicTransformed(e(), e(), e(), r()),
    ]


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("seed", range(6))
def test_generated_currents_are_the_hand_formulas(seed, boundary):
    """J = 2 rho grad(sigma), read from each model's generator, is the
    family's own formula for J bit for bit, and ``current_free`` its rule."""
    for m in _generated_current_models(seed):
        h = _current_field(boundary)
        J, free = _hand_current(m, h)
        assert np.array_equal(m.current(h), J), m
        assert m.current_free == free, m


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize(
    "kappa",
    [
        RhoExpr.rho(2),
        RhoExpr.rho(-1),
        RhoExpr.monomial(3, "1/2"),
        RhoExpr.rho(3),
        RhoExpr.monomial("2/7", "-5/3"),
    ],
    ids=str,
)
def test_entropic_current_is_its_generators(kappa, boundary):
    """Entropic writes its own current, for any positive kappa; for a
    monomial kappa it is 2 rho grad(sigma) of its generator to roundoff."""
    m = Entropic(kappa, "3/5")
    h = _current_field(boundary)
    sigma = m.generator().sigma
    J = sigma.deriv().div_rho(-1).scale(2).on_field(h) * h.drho
    assert np.max(np.abs(m.current(h) - J)) <= 1e-14 * np.max(np.abs(J))
