"""Five-function classification engine: push-forward group action (with a
symbolic substitution oracle in test_gauge), equivalence decision with
generator recovery, linearizability conditions, and the phase-scaling map."""

import math
import numpy as np
import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from nlsgauge import equivalence, gauge
from nlsgauge.equivalence import (
    NotEquivalent,
    NotLinearizable,
    equivalence_generator,
    guerra_field,
    guerra_map,
    linearizable,
)
from nlsgauge.errors import DomainError
from nlsgauge.fieldgrid import ComplexField, Grid1D
from nlsgauge.models import DoebnerGoldin, FiveFunction, RhoExpr, push_forward
from conftest import field_from, random_fraction

_RHO = RhoExpr.rho()


def random_expr(rng, n_terms=2):
    return RhoExpr.make(
        [
            (random_fraction(rng), random_fraction(rng, 3, 3), int(rng.integers(0, 2)))
            for _ in range(n_terms)
        ]
    )


def random_vector(rng):
    return FiveFunction(*(random_expr(rng) for _ in range(5)))


def random_omega(rng):
    # generators must have expressible derivatives; any algebra element works
    return random_expr(rng)


# ---------------------------------------------------------------------------
# group action
# ---------------------------------------------------------------------------


def test_push_forward_group_law_50_random():
    rng = np.random.default_rng(31)
    for _ in range(50):
        f = random_vector(rng)
        w1, w2 = random_omega(rng), random_omega(rng)
        lhs = push_forward(push_forward(f, w1), w2)
        rhs = push_forward(f, w1 + w2)
        assert lhs.fvec == rhs.fvec


def test_push_forward_identity_and_inverse():
    rng = np.random.default_rng(32)
    for _ in range(20):
        f = random_vector(rng)
        w = random_omega(rng)
        assert push_forward(f, RhoExpr.zero()).fvec == f.fvec
        assert push_forward(push_forward(f, w), -w).fvec == f.fvec


def test_f2_is_invariant():
    rng = np.random.default_rng(33)
    for _ in range(20):
        f = random_vector(rng)
        w = random_omega(rng)
        assert push_forward(f, w).f2 == f.f2


# ---------------------------------------------------------------------------
# equivalence decision
# ---------------------------------------------------------------------------


def test_generator_round_trip():
    rng = np.random.default_rng(34)
    for _ in range(20):
        f = random_vector(rng)
        w = random_omega(rng).drop_constant()
        g = push_forward(f, w)
        rec = equivalence_generator(f, g)
        assert isinstance(rec, RhoExpr)
        assert rec == w
        assert push_forward(f, rec).fvec == g.fvec


def test_not_equivalent_witnesses():
    rng = np.random.default_rng(35)
    f = random_vector(rng)
    g = push_forward(f, random_omega(rng))
    bad = FiveFunction(g.f1, g.f2 + RhoExpr.const(1), g.f3, g.f4, g.f5)
    res = equivalence_generator(f, bad)
    assert isinstance(res, NotEquivalent)
    assert "f2" in res.witness
    bad = FiveFunction(g.f1 + RhoExpr.const(1), g.f2, g.f3, g.f4, g.f5)
    res = equivalence_generator(f, bad)
    assert isinstance(res, NotEquivalent)
    bad = FiveFunction(g.f1, g.f2, g.f3 + RhoExpr.const(1), g.f4, g.f5)
    res = equivalence_generator(f, bad)
    assert isinstance(res, NotEquivalent)
    assert "f~3" in res.witness


# ---------------------------------------------------------------------------
# linearizability
# ---------------------------------------------------------------------------


def linear_image(omega: RhoExpr) -> FiveFunction:
    """The vector gauge-equivalent to the free equation via e^{-i omega}."""
    z = FiveFunction(*(RhoExpr.zero() for _ in range(5)))
    return push_forward(z, -omega)


def test_linearizable_accepts_constructed_vectors():
    rng = np.random.default_rng(36)
    for _ in range(20):
        w = random_omega(rng).drop_constant()
        f = linear_image(w)
        rec = linearizable(f)
        assert isinstance(rec, RhoExpr)
        assert push_forward(f, rec).fvec == tuple(RhoExpr.zero() for _ in range(6))


def test_linearizable_rejects_20_perturbed_vectors():
    rng = np.random.default_rng(37)
    count = 0
    while count < 20:
        w = random_omega(rng).drop_constant()
        f = linear_image(w)
        slot = int(rng.integers(0, 5))
        bump = RhoExpr.monomial(random_fraction(rng, nonzero=True), int(rng.integers(0, 3)))
        fields = list(f.fvec)
        fields[slot] = fields[slot] + bump
        g = FiveFunction(*fields)
        res = linearizable(g)
        if not isinstance(res, NotLinearizable):
            # a perturbation can land on another linearizable vector only by
            # respecting all four conditions; verify and skip
            assert push_forward(g, res).fvec == tuple(RhoExpr.zero() for _ in range(6))
            continue
        assert res.witness  # a named violated condition
        count += 1


def test_linearizable_witness_names_condition():
    z = RhoExpr.zero()
    res = linearizable(FiveFunction(RhoExpr.const(1), z, z, z, z))
    assert isinstance(res, NotLinearizable)
    assert "f1" in res.witness
    res = linearizable(FiveFunction(z, RhoExpr.const(1), z, z, z))
    assert "f2" in res.witness
    res = linearizable(FiveFunction(z, z, RhoExpr.const(1), z, z))
    assert "f3" in res.witness
    res = linearizable(FiveFunction(z, z, z, RhoExpr.const(1), z))
    assert "f4" in res.witness


# ---------------------------------------------------------------------------
# the (grad S)^2 coefficient f6
# ---------------------------------------------------------------------------

_DG_C3 = DoebnerGoldin("1/3", "1/5", "-3/7", "-1/7", "2/9", "1/4")


def test_f6_is_invariant_and_moves_f2():
    rng = np.random.default_rng(38)
    for _ in range(20):
        f = FiveFunction(*random_vector(rng).fvec[:5], random_expr(rng), f0=random_expr(rng))
        w = random_omega(rng)
        image = push_forward(f, w)
        assert image.f6 == f.f6 and image.f0 == f.f0
        assert image.f2 == f.f2 - 2 * f.f6 * w.deriv()
        assert push_forward(image, -w) == f


def test_dg_with_c3_is_equivalent_to_its_gauge_image():
    f = _DG_C3.five_function()
    g = gauge.transform_model(_DG_C3).transformed.five_function()
    assert not f.f6.is_zero and g.f6 == f.f6 and g.f2 != f.f2
    assert equivalence_generator(f, g) == gauge.derive_generator(_DG_C3).sigma


def test_f6_witnesses():
    f = _DG_C3.five_function()
    g = gauge.transform_model(_DG_C3).transformed.five_function()
    res = equivalence_generator(f, FiveFunction(*g.fvec[:5], g.f6 + RhoExpr.const(1)))
    assert isinstance(res, NotEquivalent)
    assert res.witness == "f~6 = f6 violated (f6 is a gauge invariant)"
    res = equivalence_generator(f, FiveFunction(g.f1, g.f2 + _RHO, *g.fvec[2:]))
    assert isinstance(res, NotEquivalent) and "f~2" in res.witness
    res = linearizable(f)
    assert isinstance(res, NotLinearizable) and res.witness == "f6 = 0 violated"
    # f6 alone keeps a vector from the linear equation
    z = RhoExpr.zero()
    assert linearizable(FiveFunction(z, z, z, z, z, RhoExpr.const(1))).witness == "f6 = 0 violated"


def test_f0_witnesses():
    """The potential f0 is checked first: a vector that differs in f0, and
    in f6, reports f0; so does a vector with f0 and f6 on linearize."""
    f = _DG_C3.five_function()
    g = gauge.transform_model(_DG_C3).transformed.five_function()
    assert equivalence_generator(FiveFunction(*f.fvec, f0=_RHO), FiveFunction(*g.fvec, f0=_RHO)) == (
        gauge.derive_generator(_DG_C3).sigma
    )
    res = equivalence_generator(f, FiveFunction(*g.fvec[:5], g.f6 + _RHO, f0=_RHO))
    assert isinstance(res, NotEquivalent)
    assert res.witness == "f~0 = f0 violated (f0 is a gauge invariant)"
    res = linearizable(FiveFunction(*f.fvec, f0=RhoExpr.const(1)))
    assert isinstance(res, NotLinearizable) and res.witness == "f0 = 0 violated"
    assert linearizable(FiveFunction(f0=_RHO)).witness == "f0 = 0 violated"


# ---------------------------------------------------------------------------
# the fused algebra against the operator chain
# ---------------------------------------------------------------------------

# push_forward, equivalence_generator and linearizable as they were written
# before each component became one RhoExpr.combine: every operator
# canonicalizes its own result.  The canonical form is unique, so the fused
# code must return the same rows and the same witnesses.


def _ref_push_forward(f: FiveFunction, omega: RhoExpr) -> FiveFunction:
    wp = omega.deriv()
    wpp = wp.deriv()
    rho_wp = _RHO * wp
    f1t = f.f1 - 2 * rho_wp
    f3t = f.f3 - (f.f2 - wp + 2 * f.f5.deriv()) * wp - f1t * wpp
    f4t = f.f4 - (f1t + 2 * f.f5) * wp
    f5t = f.f5 - rho_wp
    return FiveFunction(f1=f1t, f2=f.f2, f3=f3t, f4=f4t, f5=f5t)


def _ref_equivalence_generator(f: FiveFunction, g: FiveFunction):
    if f.f2 != g.f2:
        return NotEquivalent("f~2 = f2 violated (f2 is a gauge invariant)")
    if g.f1 - f.f1 != 2 * (g.f5 - f.f5):
        return NotEquivalent("f~1 - f1 = 2(f~5 - f5) violated")
    omega = (f.f5 - g.f5).div_rho().antideriv().drop_constant()
    image = _ref_push_forward(f, omega)
    if image.f4 != g.f4:
        return NotEquivalent("f~4 - f4 relation violated")
    if image.f3 != g.f3:
        return NotEquivalent("f~3 - f3 relation violated")
    return omega


def _ref_linearizable(f: FiveFunction):
    f5_over_rho = f.f5.div_rho()
    if f.f1 != 2 * f.f5:
        return NotLinearizable("f1 = 2 f5 violated")
    if not f.f2.is_zero:
        return NotLinearizable("f2 = 0 violated")
    if f.f3 != f5_over_rho * (2 * f.f5.deriv() - f5_over_rho):
        return NotLinearizable("f3 = (f5/rho)(2 f5' - f5/rho) violated")
    if f.f4 != 2 * f.f5 * f5_over_rho:
        if f.f5.is_zero:
            return NotLinearizable("f4 = 2 f5^2/rho violated (f5=0 forces f4=0)")
        return NotLinearizable("f4 = 2 f5^2/rho violated")
    return f5_over_rho.antideriv().drop_constant()


def _same_result(got, ref):
    """The same generator row for row, or the same witness class and text."""
    assert type(got) is type(ref)
    if isinstance(ref, RhoExpr):
        assert got.rows == ref.rows
    else:
        assert got.witness == ref.witness


_POWERS = st.one_of(
    st.sampled_from([Fraction(-1), Fraction(-2), Fraction(0), Fraction(1), Fraction(1, 2)]),
    st.fractions(-3, 3, max_denominator=6),
)
# up to three terms with rational and negative powers and log powers up to
# 2; an empty list is the zero expression
_EXPRS = st.lists(
    st.tuples(st.fractions(-5, 5, max_denominator=7), _POWERS, st.integers(0, 2)), max_size=3
).map(RhoExpr.make)
_VECTORS = st.tuples(*[_EXPRS] * 5).map(lambda fv: FiveFunction(*fv))
_ZERO = RhoExpr.zero()


def _bumped(f: FiveFunction, slot: int, bump: RhoExpr) -> FiveFunction:
    fields = list(f.fvec)
    fields[slot] = fields[slot] + bump
    return FiveFunction(*fields)


@settings(max_examples=300, deadline=None)
@given(f=_VECTORS, omega=_EXPRS, bump=_EXPRS, slot=st.integers(0, 4))
@example(f=FiveFunction(*[_ZERO] * 5), omega=_ZERO, bump=_ZERO, slot=0)
@example(
    f=FiveFunction(*[_ZERO] * 5), omega=_ZERO, bump=RhoExpr.monomial(1, "1/3", 1), slot=3
)
@example(
    f=FiveFunction(
        RhoExpr.make([("1/2", "2/3", 0), (-3, 0, 1)]),
        RhoExpr.rho(),
        RhoExpr.make([("-2/3", "-1/2", 1)]),
        RhoExpr.monomial("3/4", "1/3"),
        RhoExpr.make([(2, "3/2", 0), ("-1/3", 1, 1)]),
    ),
    omega=RhoExpr.make([("-5/4", "1/2", 1), ("2/3", "4/3", 0), ("1/6", -2, 0)]),
    bump=RhoExpr.monomial("1/9", "1/3", 1),
    slot=2,
)
def test_fused_algebra_matches_the_operator_chain(f, omega, bump, slot):
    """push_forward's components, and every generator and witness of
    equivalence_generator and linearizable, on an equivalent pair, the pair
    with one component of the image bumped, a linearizable vector, the same
    vector bumped, and the random vector itself."""
    image = push_forward(f, omega)
    assert [e.rows for e in image.fvec] == [e.rows for e in _ref_push_forward(f, omega).fvec]
    g = push_forward(f, omega.drop_constant())
    for target in (g, _bumped(g, slot, bump)):
        _same_result(equivalence_generator(f, target), _ref_equivalence_generator(f, target))
    linear = push_forward(FiveFunction(*[_ZERO] * 5), -omega)
    for vector in (linear, _bumped(linear, slot, bump), f):
        _same_result(linearizable(vector), _ref_linearizable(vector))


# ---------------------------------------------------------------------------
# phase-scaling map
# ---------------------------------------------------------------------------


def test_guerra_map_exact_identity():
    for D in (0.0, 0.3, 0.6, 0.8):
        lin = guerra_map(D)
        assert abs(lin.kbar**2 + lin.D**2 - 1.0) < 1e-15
    assert guerra_map(0.6).kbar == pytest.approx(0.8, abs=1e-15)
    with pytest.raises(DomainError):
        guerra_map(1.0)
    with pytest.raises(DomainError):
        guerra_map(-0.1)


def test_guerra_field_round_trip():
    grid = Grid1D(-10.0, 10.0, 256)
    x = grid.x
    h = field_from(np.exp(-x**2 / 8.0) + 1e-6, 0.4 * np.sin(x / 3.0), grid)
    lin = guerra_map(0.6)
    chi = guerra_field(h, lin)
    assert np.max(np.abs(np.abs(chi.values) ** 2 - h.rho)) < 1e-13
