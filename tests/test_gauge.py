"""Gauge engine: every coefficient map is checked against an independent
symbolic oracle that substitutes phi = e^{i sigma} psi into the equation of
motion and reads off the transformed nonlinearity; plus unitarity/involution
property tests, curl checks, and the discrete-generator identity."""

import numpy as np
import pytest
import sympy
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from nlsgauge import fieldgrid, gauge
from nlsgauge.errors import NotIntegrable
from nlsgauge.fieldgrid import ComplexField, Grid1D
from nlsgauge.models import (
    DNLS,
    EIP,
    DoebnerGoldin,
    EIPTransformed,
    Entropic,
    EntropicTransformed,
    FiveFunction,
    GaugedAnomalous,
    RhoExpr,
    current_functional,
    push_forward,
    to_five_function,
)
from conftest import field_from, random_fraction

sp = sympy
x, t = sp.symbols("x t", real=True)
rho = sp.Function("rho", positive=True)(x, t)
S = sp.Function("S", real=True)(x, t)


def symbolic_gauge_image(W, J, sigma_x, sigma_t):
    """The nonlinearity felt by phi = e^{i sigma} psi.

    Starting from i psi_t + psi_xx + (W + i J_x/(2 rho)) psi = 0 with
    psi = sqrt(rho) e^{iS}, the hydrodynamic equations fix S_t and rho_t;
    substituting them into i phi_t + phi_xx yields -G~ phi, and G~ is
    returned.  sigma is specified through its x- and t-derivatives as
    expressions in rho, S and their x-derivatives (covers nonlocal
    generators, whose sigma itself has no local expression)."""
    sqrtrho = sp.sqrt(rho)
    S_t = sp.diff(sqrtrho, x, 2) / sqrtrho - sp.diff(S, x) ** 2 + W
    rho_t = -sp.diff(2 * rho * sp.diff(S, x), x) - sp.diff(J, x)
    sig = sp.Function("sig", real=True)(x, t)
    phi = sqrtrho * sp.exp(sp.I * (S + sig))
    E = (sp.I * sp.diff(phi, t) + sp.diff(phi, x, 2)).doit()
    E = E.subs(
        {
            sp.Derivative(sig, (x, 2)): sp.diff(sigma_x, x),
            sp.Derivative(sig, x): sigma_x,
            sp.Derivative(sig, t): sigma_t,
            sp.Derivative(S, t): S_t,
            sp.Derivative(rho, t): rho_t,
        },
        simultaneous=True,
    )
    return sp.simplify(-E / phi)


def _sf(f: Fraction):
    return sp.Rational(f.numerator, f.denominator)


def expr_to_sympy(e: RhoExpr, var):
    return sum(
        _sf(c) * var ** sp.Rational(p.numerator, p.denominator) * sp.log(var) ** m
        for c, p, m in e.terms
    )


def _zero(expr) -> bool:
    return sp.simplify(sp.expand(expr)) == 0


# ---------------------------------------------------------------------------
# symbolic oracles for the coefficient maps
# ---------------------------------------------------------------------------


def _dnls_check(b1, b2, b3, b4):
    b1, b2, b3, b4 = map(_sf, (b1, b2, b3, b4))
    W = b1 * rho + b2 * rho**2 + b3 * rho * sp.diff(S, x)
    J = b4 * rho**2
    sigma_x = b4 * rho / 2
    # sigma = (b4/2) int rho dx with decaying data:
    # sigma_t = (b4/2) int rho_t = -(b4/2)(2 rho S_x + J)
    sigma_t = -(b4 / 2) * (2 * rho * sp.diff(S, x) + J)
    G = symbolic_gauge_image(W, J, sigma_x, sigma_t)
    model = DNLS(Fraction(int(b1.p), int(b1.q)), Fraction(int(b2.p), int(b2.q)),
                 Fraction(int(b3.p), int(b3.q)), Fraction(int(b4.p), int(b4.q)))
    out = gauge.transform_model(model).transformed
    S_new_x = sp.diff(S, x) + sigma_x
    expected = _sf(out.b1) * rho + _sf(out.b2) * rho**2 + _sf(out.b3) * rho * S_new_x
    assert out.b4 == 0
    assert _zero(G - expected)


def test_dnls_map_symbolic_oracle():
    rng = np.random.default_rng(21)
    for _ in range(3):
        _dnls_check(*(random_fraction(rng, 4, 4) for _ in range(4)))
    # the named special cases
    _dnls_check(Fraction(0), Fraction(1), Fraction(0), Fraction(1, 2))   # cubic + quadratic current
    _dnls_check(Fraction(0), Fraction(0), Fraction(1), Fraction(-1, 2))  # canonical b3 = -2 b4
    _dnls_check(Fraction(0), Fraction(-3, 16), Fraction(1), Fraction(1, 2))


def _dg_R(c, Sx_expr):
    rx = sp.diff(rho, x)
    return (
        _sf(c[0]) * (sp.diff(Sx_expr, x) + rx * Sx_expr / rho)
        + _sf(c[1]) * sp.diff(rho, x, 2) / rho
        + _sf(c[2]) * Sx_expr**2
        + _sf(c[3]) * Sx_expr * rx / rho
        + _sf(c[4]) * (rx / rho) ** 2
    )


def test_doebner_goldin_map_symbolic_oracle():
    rng = np.random.default_rng(22)
    cases = [
        tuple(random_fraction(rng, 3, 3) for _ in range(5)) + (random_fraction(rng, 3, 3, nonzero=True),)
        for _ in range(3)
    ]
    cases.append(
        (Fraction(2, 5), Fraction(-1, 5), Fraction(0), Fraction(-2, 5), Fraction(1, 10), Fraction(2, 5))
    )
    for c1, c2, c3, c4, c5, D in cases:
        model = DoebnerGoldin(c1, c2, c3, c4, c5, D)
        W = _dg_R((c1, c2, c3, c4, c5), sp.diff(S, x))
        J = _sf(D) * sp.diff(rho, x)
        sigma_x = _sf(D) * sp.diff(rho, x) / (2 * rho)
        rho_t = -sp.diff(2 * rho * sp.diff(S, x), x) - sp.diff(J, x)
        sigma_t = _sf(D) * rho_t / (2 * rho)
        G = symbolic_gauge_image(W, J, sigma_x, sigma_t)
        out = gauge.transform_model(model).transformed
        assert out.D == 0
        expected = _dg_R(
            (out.c1, out.c2, out.c3, out.c4, out.c5), sp.diff(S, x) + sigma_x
        )
        assert _zero(G - expected)


@pytest.mark.parametrize("q", [Fraction(2), Fraction(3), Fraction(1, 2)])
def test_gauged_anomalous_map_symbolic_oracle(q):
    D, alpha = Fraction(1, 2), Fraction(1, 3)
    model = GaugedAnomalous(q, D, alpha)
    qs, Ds, als = _sf(q), _sf(D), _sf(alpha)
    rx = sp.diff(rho, x)

    def W_of(Dv, av, Sx_expr):
        return (
            qs * Dv * rho ** (qs - 1) * sp.diff(Sx_expr, x)
            + 2 * av * rho ** (2 * qs - 3) * sp.diff(rho, x, 2)
            + av * (2 * qs - 3) * rho ** (2 * qs - 4) * rx**2
        )

    J = Ds * qs * rho ** (qs - 1) * rx
    sigma_x = Ds * qs * rho ** (qs - 2) * rx / 2
    rho_t = -sp.diff(2 * rho * sp.diff(S, x), x) - sp.diff(J, x)
    sigma_t = Ds * qs * rho ** (qs - 2) * rho_t / 2
    G = symbolic_gauge_image(W_of(Ds, als, sp.diff(S, x)), J, sigma_x, sigma_t)
    out = gauge.transform_model(model).transformed
    assert out.D == 0
    expected = W_of(0, _sf(out.alpha), sp.diff(S, x) + sigma_x)
    assert _zero(G - expected)


@pytest.mark.parametrize(
    "fv",
    [
        # f1..f6 and f0 as (coeff, power, log power) triples; f5 != 0 and f6 != 0
        ([("1/2", 1, 0)], [("1/3", 0, 0)], [("-1/5", -1, 0)], [("2/7", 0, 0)], [("1/4", 1, 0)], [("3/2", 0, 0)], []),
        ([("-1", 0, 0)], [], [("1/3", 0, 0)], [("1/2", -1, 0)], [("2/3", 0, 0)], [("1/5", 1, 0), ("-2", 0, 0)], []),
        ([("1/2", 1, 0)], [], [], [], [("1/4", 1, 0)], [("3/2", 0, 0)], [("1", 2, 0), ("-1/3", 0, 1)]),
    ],
)
def test_five_function_f6_map_symbolic_oracle(fv):
    """The (grad S)^2 coefficient f6 moves f2 and f3 under the push-forward,
    and the potential f0 stays: the transformed vector's W at S~ = S + sigma
    is the gauge image."""
    model = FiveFunction(*(RhoExpr.make(t) for t in fv[:6]), f0=RhoExpr.make(fv[6]))
    rx = sp.diff(rho, x)

    def of_rho(vector):
        return [sp.sympify(expr_to_sympy(e, rho)) for e in (*vector.fvec, vector.f0)]

    f = of_rho(model)

    def W_of(fs, Sx_expr):
        f1, f2, f3, f4, _, f6, f0 = fs
        return f1 * sp.diff(Sx_expr, x) + f2 * rx * Sx_expr + f3 * rx**2 + f4 * sp.diff(rho, x, 2) + f6 * Sx_expr**2 + f0

    J = 2 * f[4] * rx
    sigma_x = f[4] * rx / rho
    rho_t = -sp.diff(2 * rho * sp.diff(S, x), x) - sp.diff(J, x)
    sigma_t = f[4] * rho_t / rho
    G = symbolic_gauge_image(W_of(f, sp.diff(S, x)), J, sigma_x, sigma_t)
    out = gauge.transform_model(model).transformed
    assert out.f5.is_zero and out.f6 == model.f6 and out.f2 != model.f2 and out.f0 == model.f0
    assert _zero(G - W_of(of_rho(out), sp.diff(S, x) + sigma_x))


def test_entropic_map_symbolic_oracle():
    # kappa = rho^2, D = 1/4: f = 2, sigma = -(D/2) log kappa = -(D) log rho
    D = Fraction(1, 4)
    model = Entropic(RhoExpr.rho(2), D)
    Ds = _sf(D)
    f = sp.Integer(2)
    W = -Ds * f * sp.diff(S, x, 2)
    J = -Ds * f * sp.diff(rho, x)
    sigma_x = J / (2 * rho)
    rho_t = -sp.diff(2 * rho * sp.diff(S, x), x) - sp.diff(J, x)
    sigma_t = -Ds * f * rho_t / (2 * rho)
    G = symbolic_gauge_image(W, J, sigma_x, sigma_t)
    res = gauge.transform_model(model)
    assert res.coefficient_report == (("g1", "-", "4*rho^-1"), ("g2", "-", "-2*rho^-2"))
    assert res.flags == {"curl_1d": True}
    out = res.transformed
    assert isinstance(out, EntropicTransformed)
    rv = sp.Symbol("rho", positive=True)
    g1 = expr_to_sympy(out.g1, rv).subs(rv, rho)
    g2 = expr_to_sympy(out.g2, rv).subs(rv, rho)
    expected = -(Ds**2 / 2) * (g1 * sp.diff(rho, x, 2) + g2 * sp.diff(rho, x) ** 2)
    assert _zero(G - expected)


def test_eip_transformed_is_numerically_equivalent_short_horizon():
    # the EIP image is a rational function of rho, outside the exact algebra;
    # check the transformation numerically on a short horizon instead
    from nlsgauge import solver

    grid = Grid1D(-20.0, 20.0, 512)
    xg = grid.x
    psi0 = ComplexField((0.8 * np.exp(-(xg**2) / 16.0)).astype(complex), grid)
    report = solver.verify_equivalence(
        EIP("3/10"), psi0, solver.SolverConfig(dt=1e-3, t_end=0.2)
    )
    assert report.max_rho_discrepancy < 1e-7


# ---------------------------------------------------------------------------
# named special cases
# ---------------------------------------------------------------------------


def test_cubic_map_special_cases():
    # quadratic-current cubic model: b2~ = b2 - b4^2/4
    out = gauge.transform_model(DNLS(0, 1, 0, "1/2")).transformed
    assert out.b2 == Fraction(15, 16)
    # canonical b3 = -2 b4 families: b2~ = 3 b3^2 / 16
    for b3, b4 in ((1, "-1/2"), (2, -1)):
        m = DNLS(0, 0, b3, b4)
        assert m.canonical
        res = gauge.transform_model(m)
        assert res.transformed.b2 == 3 * Fraction(b3) ** 2 / 16
        assert "discrepancy" in res.flags
    # with b3 = -2 b4, the choice b2 = -3 b4^2/4 cancels the rho^2 term
    out = gauge.transform_model(DNLS(0, "-3/16", -1, "1/2")).transformed
    assert out.b2 == 0
    assert out.b3 == -1 and out.b4 == 0


def test_dg_canonical_map_values():
    res = gauge.transform_model(
        DoebnerGoldin("2/5", "-1/5", 0, "-2/5", "1/10", "2/5")
    )
    out = res.transformed
    assert (out.c1, out.c2, out.c3, out.c4, out.c5, out.D) == (
        Fraction(0),
        Fraction(-7, 25),
        Fraction(0),
        Fraction(0),
        Fraction(7, 50),
        Fraction(0),
    )
    assert "discrepancy" in res.flags


def test_dg_closure():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = DoebnerGoldin(*(random_fraction(rng) for _ in range(5)), random_fraction(rng, nonzero=True))
        out = gauge.transform_model(m).transformed
        assert isinstance(out, DoebnerGoldin)
        assert out.D == 0


def test_entropic_non_monomial_kappa_rejected():
    m = Entropic(RhoExpr.rho() + RhoExpr.const(1), "1/2")
    with pytest.raises(NotIntegrable):
        gauge.derive_generator(m)
    with pytest.raises(NotIntegrable, match="log\\(kappa\\) lies outside the expression algebra"):
        gauge.transform_model(m)


def test_entropic_without_diffusion_has_an_image_for_any_kappa():
    """At D = 0 the embedding is f0 = G alone, for a non-monomial kappa too:
    sigma = 0, and the image keeps G with g1 = g2 = 0."""
    G = RhoExpr.make([(1, 2, 0), ("-1/2", 0, 0)])
    for kappa in (RhoExpr.rho() + RhoExpr.const(1), RhoExpr.rho(2)):
        for m in (Entropic(kappa, 0), Entropic(kappa, 0, G)):
            res = gauge.transform_model(m)
            assert res.generator == gauge.Local(RhoExpr.zero())
            assert res.transformed == EntropicTransformed(RhoExpr.zero(), RhoExpr.zero(), m.G, 0)


# ---------------------------------------------------------------------------
# consistency with the five-function push-forward
# ---------------------------------------------------------------------------


def test_transform_commutes_with_embedding():
    models = [
        DoebnerGoldin("2/5", "-1/5", 0, "-2/5", "1/10", "2/5"),
        DoebnerGoldin("1/3", "1/7", 0, "2/5", "-1/2", "1/4"),
        Entropic(RhoExpr.rho(2), "1/2"),
        GaugedAnomalous(2, "1/2", "1/4"),
        GaugedAnomalous(3, "1/3", "-1/5"),
    ]
    for m in models:
        ff = to_five_function(m)
        gen = gauge.derive_generator(m)
        assert isinstance(gen, gauge.Local)
        via_family = push_forward(ff, gen.sigma)
        via_map = to_five_function(gauge.transform_model(m).transformed)
        assert isinstance(via_map, FiveFunction)
        assert via_family.fvec == via_map.fvec


_FRACTIONS = st.fractions(-3, 3, max_denominator=5)
_DG_MODELS = st.builds(DoebnerGoldin, *[_FRACTIONS] * 6)
_GA_MODELS = st.builds(
    GaugedAnomalous,
    st.sampled_from(["1", "2", "3", "-1", "1/2", "3/2", "2/3", "-1/2"]).map(Fraction),
    _FRACTIONS,
    _FRACTIONS,
)
_NONZERO = _FRACTIONS.filter(bool)
_EXPRS = st.lists(
    st.tuples(_FRACTIONS, st.sampled_from(["0", "1", "-1", "1/2", "2"]), st.sampled_from([0, 1])),
    max_size=3,
).map(RhoExpr.make)
_ENTROPIC_MODELS = st.builds(
    Entropic, st.builds(RhoExpr.monomial, _NONZERO, st.sampled_from(["0", "1", "2", "-1", "1/2"])), _NONZERO, _EXPRS
)
_ENTROPIC_IMAGES = st.builds(EntropicTransformed, _EXPRS, _EXPRS, _EXPRS, _NONZERO)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_DG_MODELS, _GA_MODELS, _ENTROPIC_MODELS, _ENTROPIC_IMAGES))
def test_read_back_round_trip(m):
    """A view's read-back inverts its embedding, on the embedding and on the
    embedding pushed forward by the generator, whose read-back is the gauge
    image; a read-back that drops a component fails it.  Entropic reads back
    into its image family, whose read-back inverts its own embedding.  (At
    q = 0 the anomalous family's D leaves the model, and at D = 0 the
    entropic image's g1 and g2 do, so neither is drawn.)"""
    ff = m.five_function()
    if not isinstance(m, Entropic):
        assert m.from_five_function(ff) == m
    pushed = push_forward(ff, gauge.derive_generator(m).sigma)
    image = m.from_five_function(pushed)
    assert image.five_function() == pushed
    assert image.from_five_function(pushed) == image
    assert image == gauge.transform_model(m).transformed
    assert image.current_free and (not isinstance(m, DoebnerGoldin) or image.c3 == m.c3)


# ---------------------------------------------------------------------------
# curl obstruction
# ---------------------------------------------------------------------------


def test_curl_condition():
    dg = DoebnerGoldin("2/5", "-1/5", 0, "-2/5", "1/10", "2/5")
    assert gauge.curl_condition_holds(EIP("3/10"), 1)[0]
    assert not gauge.curl_condition_holds(EIP("3/10"), 2)[0]
    assert gauge.curl_condition_holds(dg, 3)[0]
    assert not gauge.curl_condition_holds(DNLS(0, 1, 0, "1/2"), 2)[0]
    assert gauge.curl_condition_holds(DNLS(0, 1, 0, 0), 2)[0]
    assert gauge.curl_condition_holds(EIP(0), 2)[0]  # J = 0 needs no gradient
    with pytest.raises(ValueError):
        gauge.curl_condition_holds(dg, 0)


# ---------------------------------------------------------------------------
# unitarity / involution / discrete generator
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_apply_gauge_unitary_and_involutive(seed):
    rng = np.random.default_rng(seed)
    grid = Grid1D(-5.0, 5.0, 64)
    psi = ComplexField(
        rng.normal(size=64) + 1j * rng.normal(size=64) + 2.0, grid
    )
    sigma = rng.normal(size=64)
    phi = gauge.apply_gauge(psi, sigma)
    scale = float(np.max(np.abs(psi.values) ** 2))
    assert np.max(np.abs(np.abs(phi.values) ** 2 - np.abs(psi.values) ** 2)) < 1e-14 * scale
    back = gauge.apply_gauge(phi, -sigma)
    assert np.max(np.abs(back.values - psi.values)) < 1e-14


def test_discrete_generator_collapse_identity(gaussian_state):
    """2 rho * derivative4(sigma_h) equals the (tapered) current exactly."""
    h = fieldgrid.to_hydro(gaussian_state)
    for model in (DNLS(0, 1, 0, "1/2"), EIP("3/10"),
                  DoebnerGoldin("2/5", "-1/5", 0, "-2/5", "1/10", "2/5")):
        sig = gauge.discrete_generator_field(model, h)
        J = current_functional(model, h) * fieldgrid.tail_taper(h.rho)
        lhs = 2.0 * h.rho * fieldgrid.derivative4(sig, h.grid)
        # exact at indices 1..n-1 by the inverse pair (scaled by 2 rho)
        assert np.max(np.abs((lhs - J)[1:])) < 1e-12


def test_analysis_generator_matches_discrete_up_to_constant(gaussian_state):
    h = fieldgrid.to_hydro(gaussian_state)
    model = DoebnerGoldin("2/5", "-1/5", 0, "-2/5", "1/10", "2/5")
    sa = gauge.analysis_generator_field(model, h)
    sd = gauge.discrete_generator_field(model, h)
    mask = h.rho > 1e-4 * h.rho.max()
    diff = (sa - sd)[mask]
    assert np.max(np.abs(diff - diff.mean())) < 1e-3  # same generator, O(h^4) apart


def test_nonlocal_analysis_generator_is_the_discrete_one(gaussian_state):
    """A nonlocal generator has no closed form: both representatives are
    the one antiderivative of its integrand, bit for bit."""
    h = fieldgrid.to_hydro(gaussian_state)
    for model in (DNLS(0, 1, 0, "1/2"), EIP("3/10")):
        assert not isinstance(gauge.derive_generator(model), gauge.Local)
        sa = gauge.analysis_generator_field(model, h)
        assert sa.tobytes() == gauge.discrete_generator_field(model, h).tobytes()


def test_local_generator_reads_the_floor_of_its_field():
    grid = Grid1D(-20.0, 20.0, 256)
    rho = np.exp(-(grid.x**2) / 4.0)  # under 1e-12 for |x| > 10.6
    h = field_from(rho, np.zeros_like(rho), grid)
    below = h.rho < fieldgrid.DENSITY_FLOOR
    assert below.any() and np.all(h.rho_safe[below] == fieldgrid.DENSITY_FLOOR)
    model = DoebnerGoldin("2/5", "-1/5", 0, "-2/5", "1/10", "2/5")
    sigma = gauge.derive_generator(model).sigma
    expected = sigma(h.rho_safe)
    assert np.array_equal(gauge.analysis_generator_field(model, h), expected)
    assert not np.array_equal(expected, sigma(h.rho))  # the clamp reaches sigma


def test_nonlocal_generator_periodic_quantization():
    grid = Grid1D(0.0, 2.0 * np.pi, 128, "periodic")
    xg = grid.x
    h = field_from(1.0 + 0.3 * np.cos(xg), np.zeros_like(xg), grid)
    model = DNLS(0, 1, 0, "1/2")  # J/(2 rho) = rho/4, loop = pi/2 != 0 mod 2pi
    from nlsgauge.errors import PeriodicityViolation

    for field in (gauge.discrete_generator_field, gauge.analysis_generator_field):
        with pytest.raises(PeriodicityViolation, match="loop integral 1.57"):
            field(model, h)


def test_local_generator_passes_the_periodic_seam_check():
    """A local sigma(rho) is single-valued; the discrete loop integral of
    its integrand (5e-8 here, above LOOP_TOL) is discretization error."""
    grid = Grid1D(0.0, 2.0 * np.pi, 128, "periodic")
    xg = grid.x
    rho = 1.0 + 0.3 * np.cos(xg) + 0.2 * np.sin(3.0 * xg)
    h = fieldgrid.to_hydro(fieldgrid.ComplexField(np.sqrt(rho) * np.exp(1j * np.sin(xg)), grid))
    model = DoebnerGoldin("2/5", "-1/5", 0, "-2/5", "1/10", "2/5")
    for field in (gauge.discrete_generator_field, gauge.analysis_generator_field):
        assert np.all(np.isfinite(field(model, h)))


def test_generator_report_round_trip():
    res = gauge.transform_model(DoebnerGoldin("2/5", "-1/5", 0, "-2/5", "1/10", "2/5"))
    rep = res.to_report()
    assert rep["generator"]["variant"] == "local"
    assert rep["transformed"]["family"] == "doebner-goldin"
