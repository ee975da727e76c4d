"""Discrete calculus: stencil orders, the inverse pair of derivative4 and
cumulative_integral (exact to roundoff, fourth-order accurate), the one
stencil set, polar conversion, and CSV round-trips."""

import ast
import csv
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.special import erf

from nlsgauge import fieldgrid
from nlsgauge.fieldgrid import ComplexField, Grid1D, HydroField
from conftest import field_from


def _max_err(f, exact):
    return float(np.max(np.abs(f - exact)))


# ---------------------------------------------------------------------------
# stencil orders
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_derivative4_fourth_order(boundary):
    errs = []
    for n in (128, 256):
        grid = Grid1D(0.0, 2.0 * np.pi, n + (1 if boundary == "dirichlet" else 0), boundary)
        x = grid.x
        errs.append(_max_err(fieldgrid.derivative4(np.sin(x), grid), np.cos(x)))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0  # fourth order: factor ~16 per halving


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_laplacian_orders(boundary):
    errs = []
    for n in (128, 256):
        grid = Grid1D(0.0, 2.0 * np.pi, n + (1 if boundary == "dirichlet" else 0), boundary)
        x = grid.x
        errs.append(_max_err(fieldgrid.laplacian4(np.sin(x), grid), -np.sin(x)))
    # at least the nominal order (edge stencils can superconverge)
    assert errs[0] / errs[1] > 12.0


def test_derivative_exact_on_low_polynomials():
    grid = Grid1D(-1.0, 1.0, 64)
    x = grid.x
    # exact on quadratics
    assert _max_err(fieldgrid.derivative4(3.0 + 2.0 * x + x**2, grid), 2.0 + 2.0 * x) < 1e-12
    # constants annihilated exactly
    assert _max_err(fieldgrid.derivative4(np.full(64, 7.0), grid), 0.0) == 0.0
    # and on quartics
    p = x**4 - 2 * x**3 + x
    dp = 4 * x**3 - 6 * x**2 + 1
    assert _max_err(fieldgrid.derivative4(p, grid), dp) < 1e-10
    assert _max_err(fieldgrid.laplacian4(p, grid), 12 * x**2 - 12 * x) < 1e-9


# Oracle for derivative4, laplacian4 and the current of a HydroField: each
# stencil as a dense matrix.  Central rows (offsets -2..2) and the one-sided
# rows of the two points at each end of a dirichlet grid, all times 1/12: the
# right rows are the left rows mirrored, negated for the odd derivative.
_CENTRAL_ROWS = {1: [1, -8, 0, 8, -1], 2: [-1, 16, -30, 16, -1]}
_ONE_SIDED_ROWS = {
    1: [[-25, 48, -36, 16, -3], [-3, -10, 18, -6, 1]],
    2: [[45, -154, 214, -156, 61, -10], [10, -15, -4, 14, -6, 1]],
}


def _dense_stencil(grid, order):
    n = grid.n
    a = np.zeros((n, n))
    for i in range(n):
        for offset, c in zip(range(-2, 3), _CENTRAL_ROWS[order]):
            if grid.boundary == "periodic":
                a[i, (i + offset) % n] = c
            elif 0 <= i + offset < n:
                a[i, i + offset] = c
    if grid.boundary == "dirichlet":
        for r, row in enumerate(_ONE_SIDED_ROWS[order]):
            a[r], a[n - 1 - r] = 0.0, 0.0
            a[r, : len(row)] = row
            a[n - 1 - r, n - 1 - np.arange(len(row))] = (-1) ** order * np.array(row)
    return a / (12.0 * grid.h**order)


@pytest.mark.parametrize(
    "boundary, n",
    [("dirichlet", 8), ("dirichlet", 9), ("dirichlet", 40), ("periodic", 8), ("periodic", 40)],
)
def test_stencils_match_dense_matrices(boundary, n):
    """At n = 8 the edge windows of a dirichlet grid overlap."""
    grid = Grid1D(-3.0, 2.0, n, boundary)
    rng = np.random.default_rng(n)
    f = rng.standard_normal(n)
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    d1, d2 = _dense_stencil(grid, 1), _dense_stencil(grid, 2)
    current = HydroField(psi, grid).current
    for got, want in (
        (fieldgrid.derivative4(f, grid), d1 @ f),
        (fieldgrid.laplacian4(f, grid), d2 @ f),
        (current, (psi.conj() * (d1 @ psi)).imag),
    ):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# inverse pair
# ---------------------------------------------------------------------------


def test_cumulative_integral_constant_exemplar():
    grid = Grid1D(0.0, 1.0, 11)
    F = fieldgrid.cumulative_integral(np.ones(11), grid)
    assert _max_err(F, grid.x) < 1e-12
    assert _max_err(fieldgrid.derivative4(F, grid), 1.0) < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        min_size=16,
        max_size=64,
    )
)
def test_inverse_pair_dirichlet_interior(values):
    f = np.array(values)
    grid = Grid1D(0.0, 1.0, len(f))
    F = fieldgrid.cumulative_integral(f, grid)
    assert abs(F[0]) < 1e-12
    back = fieldgrid.derivative4(F, grid)
    # exact (to solve roundoff) at every index except possibly the anchor row
    assert _max_err(back[1:], f[1:]) < 1e-9


def test_cumulative_integral_exact_on_quadratics_to_the_right_end():
    """The central rows and the one-sided rows of the system are exact on
    quadratics, so F = 3x^2 - 2x (with F[0] = 0) is its solution for f = F'
    at every index, the last one included."""
    grid = Grid1D(0.0, 1.0, 16)
    x = grid.x
    F = fieldgrid.cumulative_integral(6.0 * x - 2.0, grid)
    assert _max_err(F, 3.0 * x**2 - 2.0 * x) < 1e-13
    assert abs(F[-1] - 1.0) < 1e-13


def test_inverse_pair_dirichlet_smooth_all_indices():
    grid = Grid1D(-5.0, 5.0, 257)
    f = np.exp(-grid.x**2)
    F = fieldgrid.cumulative_integral(f, grid)
    assert _max_err(fieldgrid.derivative4(F, grid), f) < 1e-10


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        min_size=17,
        max_size=41,
    )
)
def test_inverse_pair_periodic_zero_mean(values):
    if len(values) % 2 == 0:
        values = values[:-1]  # odd n: the central symbol is invertible
    f = np.array(values)
    f = f - f.mean()
    grid = Grid1D(0.0, 1.0, len(f), "periodic")
    F = fieldgrid.cumulative_integral(f, grid)
    assert _max_err(fieldgrid.derivative4(F, grid), f) < 1e-9


def test_periodic_cumulative_integral_carries_the_mean_on_a_ramp():
    """A nonzero mean on a periodic grid: F is the antiderivative of the
    zero-mean part plus the ramp mean * h * (0, 1, ..., n - 1).  The data are
    dyadic and their sum is exactly n * mean, so ``f - mean`` is the zero-mean
    part bit for bit and both sides must agree bit for bit."""
    n = 33
    grid = Grid1D(0.0, 2.0, n, "periodic")
    k = np.arange(n)
    zero_mean = np.round(1024.0 * (np.sin(2 * np.pi * k / n) + 0.5 * np.cos(6 * np.pi * k / n)))
    zero_mean /= 1024.0
    zero_mean[-1] -= zero_mean.sum()
    f = zero_mean + 3.0
    assert zero_mean.sum() == 0.0 and f.mean() == 3.0
    F = fieldgrid.cumulative_integral(f, grid)
    assert F[0] == 0.0
    ramp = f.mean() * grid.h * np.arange(n)
    assert np.array_equal(F, fieldgrid.cumulative_integral(zero_mean, grid) + ramp)
    assert _max_err(fieldgrid.derivative4(F - ramp, grid), zero_mean) < 1e-12


@pytest.mark.parametrize("n", [8, 9, 64, 512])
def test_cumulative_integral_is_scipys_banded_solve_bit_for_bit(n):
    """The dirichlet antiderivative solves with the grid's cached gbtrf
    factorization of its band: the numbers of scipy's solve_banded on that
    band, which factorizes it on every call, and a ValueError for a
    non-finite f, as there."""
    grid = Grid1D(-20.0, 20.0, n)
    rng = np.random.default_rng(n)
    for _ in range(3):
        f = rng.standard_normal(n)
        rhs = f.copy()
        rhs[0] = 0.0
        expected = scipy.linalg.solve_banded((4, 3), grid.antiderivative_band, rhs)
        assert np.array_equal(fieldgrid.cumulative_integral(f, grid), expected)
    f[n // 2] = np.nan
    with pytest.raises(ValueError):
        fieldgrid.cumulative_integral(f, grid)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_cumulative_integral_fourth_order(boundary):
    """The antiderivative converges at fourth order, the boundary rows of a
    dirichlet grid included: a Gaussian against its erf integral there, a
    trigonometric polynomial on a periodic grid."""
    errs = []
    for n in (128, 256):
        if boundary == "dirichlet":
            grid = Grid1D(-4.0, 4.0, n + 1)
            x = grid.x
            f, exact = np.exp(-(x**2)), 0.5 * np.sqrt(np.pi) * (erf(x) - erf(-4.0))
        else:
            grid = Grid1D(0.0, 2.0 * np.pi, n + 1, "periodic")
            x = grid.x
            f = np.cos(3.0 * x) + 2.0 * np.sin(5.0 * x)
            exact = np.sin(3.0 * x) / 3.0 - 0.4 * np.cos(5.0 * x) + 0.4
        errs.append(_max_err(fieldgrid.cumulative_integral(f, grid), exact))
    assert 12.0 < errs[0] / errs[1] < 20.0


# ---------------------------------------------------------------------------
# polar conversion
# ---------------------------------------------------------------------------


def test_to_hydro_round_trip(gaussian_state):
    h = fieldgrid.to_hydro(gaussian_state)
    back = np.sqrt(h.rho) * np.exp(1j * h.phase)
    err = np.abs(back - gaussian_state.values)
    # exact where the density is above the floor; where it is held, the error
    # is bounded by the (negligible) amplitude there
    valid = h.rho > fieldgrid.DENSITY_FLOOR
    assert float(np.max(err[valid])) < 1e-12
    assert float(np.max(err[~valid])) < 2.0 * np.sqrt(fieldgrid.DENSITY_FLOOR)


def test_to_hydro_unwraps_phase():
    grid = Grid1D(-10.0, 10.0, 256)
    x = grid.x
    psi = ComplexField(np.exp(-x**2 / 8.0) * np.exp(2.0j * x), grid)
    h = fieldgrid.to_hydro(psi)
    # the continuous phase 2x spans ~40 rad; unwrapped phase must not jump
    interior = np.abs(np.diff(h.phase[np.abs(x) < 5]))
    assert np.max(interior) < 1.0


def test_to_hydro_floor_hold():
    grid = Grid1D(-20.0, 20.0, 256)
    x = grid.x
    psi = ComplexField(np.exp(-x**2) * np.exp(0.5j * x), grid)
    h = fieldgrid.to_hydro(psi)
    assert np.all(np.isfinite(h.phase))


def _hydro_oracle(values, floor):
    """The floor-and-hold rule point by point: unwrap the phase along the
    points with rho > floor; every other point takes the phase of its nearest
    valid point, the left one when two are equally near."""
    rho = np.abs(values) ** 2
    valid = [i for i in range(len(values)) if rho[i] > floor]
    phase = np.empty(len(values))
    prev = None
    for i in valid:
        p = float(np.angle(values[i]))
        if prev is not None:
            while p - prev > np.pi:
                p -= 2.0 * np.pi
            while p - prev < -np.pi:
                p += 2.0 * np.pi
        phase[i] = prev = p
    nearest = [min(valid, key=lambda j: (abs(i - j), j)) for i in range(len(values))]
    return phase, nearest


def _hold_cases():
    grid = Grid1D(-10.0, 10.0, 64)
    x = grid.x
    winding = np.exp(3.0j * x)  # about 10 turns: the unwrap matters
    gaps = np.exp(-x**2 / 20.0) * winding
    gaps[[10, 11, 12, 30, 41, 42]] = 0.0  # below-floor runs inside the grid
    single = np.zeros(64, dtype=complex)
    single[37] = 0.5j
    tie = np.zeros(64, dtype=complex)
    tie[20], tie[24] = 1.0, 1.0j  # index 22 is equally near both
    # one contiguous valid run with below-floor tails (a narrow packet)
    tails = np.exp(-x**2) * winding
    left_tail, right_tail = 0.7 * winding, 0.7 * winding
    left_tail[:9] = 0.0
    right_tail[50:] = 1e-7  # rho = 1e-14, under the floor but not zero
    # valid points 0..49, 53, 54 and 58: gap 52 holds from its right
    # neighbour 53, the gaps 55..57 split between 54 and 58, and the right
    # tail 59.. holds from 58, the last valid point
    right_hold = 0.7 * winding
    right_hold[[50, 51, 52, 55, 56, 57]] = 0.0
    right_hold[59:] = 1e-7
    return {
        "interior_gaps": ComplexField(gaps, grid),
        "all_valid": ComplexField(0.7 * winding, grid),
        "single_valid": ComplexField(single, grid),
        "tie": ComplexField(tie, grid),
        "tails": ComplexField(tails, grid),
        "left_tail": ComplexField(left_tail, grid),
        "right_tail": ComplexField(right_tail, grid),
        "right_hold": ComplexField(right_hold, grid),
    }


@pytest.mark.parametrize(
    "case",
    [
        "interior_gaps",
        "all_valid",
        "single_valid",
        "tie",
        "tails",
        "left_tail",
        "right_tail",
        "right_hold",
    ],
)
def test_to_hydro_floor_hold_matches_oracle(case):
    psi = _hold_cases()[case]
    floor = fieldgrid.DENSITY_FLOOR
    h = fieldgrid.to_hydro(psi)
    phase, nearest = _hydro_oracle(psi.values, floor)
    valid = h.rho > floor
    assert np.array_equal(h.rho, np.abs(psi.values) ** 2)
    assert np.allclose(h.phase[valid], phase[valid], rtol=0.0, atol=1e-12)
    # the valid points carry numpy's unwrap of their raw phases, bit for bit
    assert h.phase[valid].tobytes() == np.unwrap(np.angle(psi.values[valid])).tobytes()
    for i in np.flatnonzero(~valid):
        assert h.phase[i] == h.phase[nearest[i]]
    if case == "tie":
        assert nearest[22] == 20
        assert h.phase[22] == 0.0 and h.phase[23] == np.pi / 2
    if case == "right_hold":
        assert [nearest[i] for i in (50, 51, 52, 55, 56, 57, 59, 63)] == [49, 49, 53, 54, 54, 58, 58, 58]
        assert len(set(h.phase[[49, 53, 54, 58]])) == 4  # a wrong neighbour shows


def test_cached_derivatives_equal_the_stencils(smooth_hydro):
    h = smooth_hydro
    psi = h._values  # the complex derivative is checked against dense matrices above
    current = (psi.conj() * fieldgrid._derivative4_complex(psi, h.grid)).imag
    rho_safe = np.maximum(h.rho, fieldgrid.DENSITY_FLOOR)
    drho = fieldgrid.derivative4(h.rho, h.grid)
    dS = current / rho_safe
    expected = {
        "rho_safe": rho_safe,
        "drho": drho,
        "laprho": fieldgrid.laplacian4(h.rho, h.grid),
        "current": current,
        "dS": dS,
        "lapS": (fieldgrid.derivative4(current, h.grid) - drho * dS) / rho_safe,
    }
    for name, want in expected.items():
        cached = getattr(h, name)
        assert cached.tobytes() == want.tobytes(), name
        assert getattr(h, name) is cached, name  # computed once per field


@pytest.mark.parametrize("n", [15, 17])
def test_field_of_the_wrong_length_is_a_value_error(n):
    grid = Grid1D(0.0, 1.0, 16)
    values = np.ones(n, dtype=complex)
    with pytest.raises(ValueError, match="field length does not match grid"):
        ComplexField(values, grid)
    with pytest.raises(ValueError, match="field length does not match grid"):
        HydroField(values, grid)


def test_to_hydro_all_below_floor_raises():
    grid = Grid1D(0.0, 1.0, 16)
    psi = ComplexField(np.full(16, 1e-30 + 0j), grid)
    with pytest.raises(fieldgrid.AllBelowFloor):
        fieldgrid.to_hydro(psi)


def test_field_keeps_its_floor():
    """Every field clamps at the one floor: rho_safe is DENSITY_FLOOR where
    rho is below it and rho elsewhere."""
    grid = Grid1D(0.0, 1.0, 16)
    rho = np.linspace(0.0, 1e-11, 16)
    h = field_from(rho, np.zeros(16), grid)
    below = h.rho < fieldgrid.DENSITY_FLOOR
    assert 0 < below.sum() < 16
    assert np.all(h.rho_safe[below] == fieldgrid.DENSITY_FLOOR)
    assert np.array_equal(h.rho_safe[~below], h.rho[~below])
    assert h.rho_safe is h.rho_safe  # computed once per field


def test_bilinear_current_oracle():
    grid = Grid1D(-10.0, 10.0, 512)
    x = grid.x
    h = field_from(np.exp(-x**2 / 4.0), 0.7 * x, grid)
    j = fieldgrid.bilinear_current(h)
    assert _max_err(j, 2.0 * h.rho * 0.7) < 1e-10


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_field_csv_round_trip(tmp_path, gaussian_state):
    path = tmp_path / "field.csv"
    fieldgrid.write_field_csv(path, gaussian_state)
    back = fieldgrid.read_field_csv(path)
    assert back.grid.n == gaussian_state.grid.n
    assert _max_err(back.values, gaussian_state.values) < 1e-14
    assert abs(back.grid.h - gaussian_state.grid.h) < 1e-14
    # a periodic grid stores no point at x_max, which is read back from h
    grid = Grid1D(-12.0, 12.0, 256, "periodic")
    psi = ComplexField((1.0 + 0.5 * np.cos(grid.x)) * np.exp(1j * np.sin(grid.x)), grid)
    fieldgrid.write_field_csv(path, psi)
    back = fieldgrid.read_field_csv(path, boundary="periodic")
    assert back.grid.boundary == "periodic" and back.grid.n == grid.n
    assert abs(back.grid.x_max - grid.x_max) < 1e-12
    assert abs(back.grid.h - grid.h) < 1e-14
    assert _max_err(back.values, psi.values) < 1e-14


def _field_rows(xs):
    return "x,rho,S,re_psi,im_psi\r\n" + "".join("%d,1,0,1,0\r\n" % x for x in xs)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "unexpected CSV header None"),
        (_field_rows(()), "expected rows of 5 values"),
        (_field_rows(range(7)) + "7,1,0,1\r\n", "expected rows"),
        (_field_rows((0, 1, 2, 3, 4, 5, 6, 7, 9)), "evenly"),
    ],
    ids=["empty", "header-only", "ragged", "uneven"],
)
def test_malformed_field_csv_is_a_value_error(tmp_path, text, message):
    path = tmp_path / "field.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        fieldgrid.read_field_csv(path)


def _csv_writer_reference(path, psi):
    """The row-by-row ``csv.writer`` export that write_field_csv replaces."""
    h = fieldgrid.to_hydro(psi)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "rho", "S", "re_psi", "im_psi"])
        for x, rho, S, v in zip(psi.grid.x, h.rho, h.phase, psi.values):
            writer.writerow(
                ["%.17g" % x, "%.17g" % rho, "%.17g" % S, "%.17g" % v.real, "%.17g" % v.imag]
            )


@pytest.mark.filterwarnings("ignore:overflow encountered")  # |1e300|^2 is inf
def test_field_csv_bytes_equal_csv_writer(tmp_path, gaussian_state):
    values = gaussian_state.values.copy()
    values[:4] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 5e-324 - 1e-310j]
    values[4:8] = [2e150, -1e150j, complex(1e150, -2.5e-320), complex(-1e-300, 1e150)]
    for psi in (gaussian_state, ComplexField(values, gaussian_state.grid)):
        fieldgrid.write_field_csv(tmp_path / "field.csv", psi)
        _csv_writer_reference(tmp_path / "reference.csv", psi)
        got = (tmp_path / "field.csv").read_bytes()
        assert got == (tmp_path / "reference.csv").read_bytes()
        assert got.count(b"\r\n") == psi.grid.n + 1
    assert b",-0," in got and b"e-324" in got and b"e+300" in got  # rho = 4e300
    values[4] = 1e300  # a finite psi whose density overflows has no field
    with pytest.raises(ValueError, match="overflows"):
        fieldgrid.write_field_csv(tmp_path / "field.csv", ComplexField(values, gaussian_state.grid))


# ---------------------------------------------------------------------------
# one set of field stencils, one clamp
# ---------------------------------------------------------------------------


def _calls_by_function(source: str):
    """(qualified name of the enclosing def, Call node) for every call."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                out.append((scope, child))
            visit(child, inner)

    visit(ast.parse(source), "")
    return out


def _callee(call: ast.Call) -> str:
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")


def _mentions(node: ast.AST, word: str) -> bool:
    return any(
        word in getattr(n, "id", getattr(n, "attr", "")) for n in ast.walk(node)
    )


def _functions(source: str) -> dict:
    """Qualified name -> FunctionDef of every def in a module."""
    out = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope else child.name
                if isinstance(child, ast.FunctionDef):
                    out[name] = child
                visit(child, name)

    visit(ast.parse(source), "")
    return out


def test_one_stencil_set_and_one_density_clamp():
    """No module defines or calls a second first-derivative operator
    (``derivative``) or a second antiderivative (``cumulative_simpson``);
    cumulative_integral's dirichlet band (Grid1D.antiderivative_band) and its
    periodic symbol read their coefficients from Grid1D.stencils; and the
    only max-like call that sets a density against a floor is
    HydroField.rho_safe."""
    banned = {"derivative", "cumulative_simpson"}
    found, clamps = set(), set()
    for path in sorted(Path(fieldgrid.__file__).parent.glob("*.py")):
        source = path.read_text()
        found |= {f"{path.stem}.{name}" for name, fn in _functions(source).items() if fn.name in banned}
        for scope, call in _calls_by_function(source):
            name = _callee(call)
            if name in banned:
                found.add(f"{path.stem}.{scope} calls {name}")
            if name in ("maximum", "fmax", "max", "clip", "where") and (
                any(_mentions(a, "rho") for a in call.args)
                and any(_mentions(a, "floor") or _mentions(a, "FLOOR") for a in call.args)
            ):
                clamps.add(f"{path.stem}.{scope}")
    assert found == set()
    assert clamps == {"fieldgrid.HydroField.rho_safe"}
    defs = _functions(Path(fieldgrid.__file__).read_text())
    assert _mentions(defs["Grid1D.antiderivative_band"], "stencils")
    integral = defs["cumulative_integral"]
    periodic = next(
        node for node in ast.walk(integral) if isinstance(node, ast.If) and _mentions(node.test, "boundary")
    )
    assert any(_mentions(statement, "stencils") for statement in periodic.body)
    assert _mentions(integral, "antiderivative_band")


def test_no_module_reads_the_environment():
    """A run is set by its config and its command line alone: no module of
    the package reads ``os.environ`` or ``os.getenv``, by attribute or
    imported from ``os``."""
    readers = set()
    for path in sorted(Path(fieldgrid.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names]
        for word in ("environ", "getenv"):
            if _mentions(tree, word) or any(word in name for name in imported):
                readers.add(f"{path.stem} reads {word}")
    assert readers == set()
