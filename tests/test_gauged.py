"""External-field module: the matter-side and field-side removals of the
imaginary nonlinearity must carry the same physical current, the transformed
dispersion coefficient obeys a closed formula, and the generator has a smooth
logarithmic limit."""

import numpy as np
import pytest
from fractions import Fraction

from nlsgauge import fieldgrid, gauge, gauged
from nlsgauge.errors import DomainError
from nlsgauge.fieldgrid import Grid1D, HydroField
from nlsgauge.gauged import (
    ExternalGauge,
    Side,
    covariant_current,
    field_transform,
    matter_transform,
    nonlinear_current,
    q_limit_consistency,
    read_gauge_csv,
    transformed_beta,
    two_route_currents,
    write_gauge_csv,
)
from nlsgauge.models import GaugedAnomalous
from conftest import random_fraction


def _random_setup(rng, n=256):
    grid = Grid1D(-12.0, 12.0, n)
    x = grid.x
    rho = 0.1 + 0.7 * np.exp(-((x - rng.uniform(-2, 2)) ** 2) / rng.uniform(3, 8))
    phase = rng.uniform(-0.6, 0.6) * np.sin(x / rng.uniform(2, 4))
    A = rng.uniform(-0.5, 0.5) * np.cos(x / rng.uniform(3, 6)) + rng.uniform(-0.2, 0.2)
    A0 = rng.uniform(-0.3, 0.3) * np.exp(-(x**2) / 20.0)
    h = HydroField(rho=rho, phase=phase, grid=grid)
    return h, ExternalGauge(A=A, A0=A0, grid=grid)


# ---------------------------------------------------------------------------
# two-route agreement
# ---------------------------------------------------------------------------


def test_two_routes_agree_on_random_states():
    rng = np.random.default_rng(51)
    for k in range(10):
        q = [2, 1, Fraction(3, 2), 3][k % 4]
        model = GaugedAnomalous(q, Fraction(1, 2), Fraction(1, 3))
        h, ext = _random_setup(rng)
        jm, jf = two_route_currents(model, h, ext)
        scale = max(1.0, float(np.max(np.abs(jm))))
        assert np.max(np.abs(jm - jf)) < 1e-10 * scale


def test_routes_reproduce_covariant_current():
    """After the matter-side removal the nonlinear current is gone; the gauge
    current of the shifted phase must equal the original covariant current
    (to discretization accuracy of the smooth comparison)."""
    rng = np.random.default_rng(52)
    model = GaugedAnomalous(2, Fraction(2, 5), Fraction(1, 4))
    h, ext = _random_setup(rng, n=1024)
    jm, _ = two_route_currents(model, h, ext)
    j_cov = covariant_current(model, h, ext)
    mask = h.rho > 1e-3
    assert np.max(np.abs((jm - j_cov)[mask])) < 1e-4


# ---------------------------------------------------------------------------
# transformed coefficient and generator
# ---------------------------------------------------------------------------


def test_transformed_beta_formula_random():
    rng = np.random.default_rng(53)
    for _ in range(20):
        q = random_fraction(rng, nonzero=True)
        if q <= 0:
            q = -q
        D = random_fraction(rng)
        alpha = random_fraction(rng)
        model = GaugedAnomalous(q, D, alpha)
        assert transformed_beta(model) == 2 * alpha - q * q * D * D / 2
    # q = 1 uses the same closed formula
    m1 = GaugedAnomalous(1, Fraction(3, 5), Fraction(1, 7))
    assert transformed_beta(m1) == 2 * Fraction(1, 7) - Fraction(9, 50)


def test_matter_transform_result():
    model = GaugedAnomalous(2, Fraction(1, 2), Fraction(1, 3))
    res = matter_transform(model)
    assert res.side is Side.MATTER
    assert res.beta == transformed_beta(model)
    assert res.sigma == gauge.derive_generator(model)
    rep = res.to_report()
    assert rep["side"] == "matter"
    assert rep["beta"] == str(res.beta)


def test_matter_transform_rejects_nonpositive_q():
    with pytest.raises(DomainError):
        matter_transform(GaugedAnomalous(0, Fraction(1, 2), 0))
    with pytest.raises(DomainError):
        matter_transform(GaugedAnomalous(-1, Fraction(1, 2), 0))


def test_q_limit_of_generator():
    rho = np.linspace(0.05, 2.0, 40)
    assert q_limit_consistency(0.5, rho, eps=1e-3) <= 1e-2
    # tightening eps tightens agreement (first-order in eps)
    a = q_limit_consistency(0.5, rho, eps=1e-3)
    b = q_limit_consistency(0.5, rho, eps=1e-4)
    assert b < a / 5.0
    with pytest.raises(DomainError):
        q_limit_consistency(0.5, [1.0, -0.1])


# ---------------------------------------------------------------------------
# field-side shift
# ---------------------------------------------------------------------------


def test_field_transform_chi_is_A_minus_dsigma():
    rng = np.random.default_rng(54)
    model = GaugedAnomalous(2, Fraction(1, 2), Fraction(1, 3))
    h, ext = _random_setup(rng)
    chi, chi0 = field_transform(model, h, ext)
    sig = gauge.analysis_generator_field(model, h)
    dsig = fieldgrid.derivative(sig, h.grid)
    mask = h.rho > 1e-3
    assert np.max(np.abs((chi - (ext.A - dsig))[mask])) < 1e-8
    assert chi0.shape == ext.A0.shape
    assert np.all(np.isfinite(chi0))


def test_nonlinear_current_closed_form():
    grid = Grid1D(-10.0, 10.0, 512)
    x = grid.x
    rho = 0.2 + np.exp(-x**2 / 6.0)
    h = HydroField(rho=rho, phase=np.zeros_like(x), grid=grid)
    model = GaugedAnomalous(3, Fraction(1, 4), 0)
    J = nonlinear_current(model, h)
    exact = 0.25 * 3.0 * rho**2 * h.drho
    assert np.max(np.abs(J - exact)) < 1e-12
    # the family's own current, bit for bit
    assert J.tobytes() == model.current(h, fieldgrid.FLOOR_DEFAULT).tobytes()


def test_domain_guard_for_subunit_exponent():
    grid = Grid1D(0.0, 1.0, 16)
    h = HydroField(rho=np.zeros(16), phase=np.zeros(16), grid=grid)
    with pytest.raises(DomainError):
        nonlinear_current(GaugedAnomalous(Fraction(1, 2), Fraction(1, 2), 0), h)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_gauge_csv_round_trip(tmp_path):
    rng = np.random.default_rng(55)
    _, ext = _random_setup(rng)
    path = tmp_path / "potential.csv"
    write_gauge_csv(path, ext)
    back = read_gauge_csv(path)
    assert back.grid.n == ext.grid.n
    assert np.max(np.abs(back.A - ext.A)) < 1e-14
    assert np.max(np.abs(back.A0 - ext.A0)) < 1e-14
    assert abs(back.grid.h - ext.grid.h) < 1e-12
    # a periodic grid stores no point at x_max, which is read back from h
    grid = Grid1D(-12.0, 12.0, 256, "periodic")
    write_gauge_csv(path, ExternalGauge(A=np.cos(grid.x), A0=np.sin(grid.x), grid=grid))
    back = read_gauge_csv(path, boundary="periodic")
    assert back.grid.boundary == "periodic" and back.grid.n == grid.n
    assert abs(back.grid.x_max - grid.x_max) < 1e-12
    assert abs(back.grid.h - grid.h) < 1e-14


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "unexpected CSV header None"),
        ("x,A,A0\r\n", "expected rows of 3 values"),
        ("x,A,A0\r\n" + "".join("%d,0,0\r\n" % i for i in range(7)) + "7,0\r\n", "expected rows"),
        ("x,A,A0\r\n" + "".join("%d,0,0\r\n" % i for i in (0, 1, 2, 3, 4, 5, 6, 7, 9)), "evenly"),
    ],
    ids=["empty", "header-only", "ragged", "uneven"],
)
def test_malformed_gauge_csv_is_a_value_error(tmp_path, text, message):
    path = tmp_path / "potential.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_gauge_csv(path)
