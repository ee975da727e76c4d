"""Coupled-system engine: conservation analysis, generator vectors,
Hermitian assembly, and the closed reduction regimes."""

import re

import numpy as np
import pytest
from fractions import Fraction as F
from hypothesis import given, settings, strategies as st

from nlsgauge import coupled, fieldgrid
from nlsgauge.coupled import (
    CoupledModel,
    Custom,
    CurrentCoupled,
    DecoupledLinear,
    General,
    HermitianResult,
    JackiwLike,
    NonConserving,
    PerSpecies,
    SpeciesGenerator,
    TotalOnly,
    conservation_structure,
    special_reduction,
    transform_coupled,
)
from nlsgauge.errors import NonConservingModel

from conftest import field_from, random_fraction


def _zeros(p):
    return [[0] * p for _ in range(p)]


def make_total_only_p2():
    """p = 2, conserving only the total density: d_12 + e_21 = d_21 + e_12
    with d != e off the diagonal."""
    return CoupledModel.make(
        p=2,
        a=("1", "2"),
        b=(("1/2", "0"), ("0", "1/3")),
        c=(("0", "1/5"), ("0", "0")),
        d=(("1/7", "1/3"), ("1/4", "1/2")),
        e=(("1/9", "1/6"), ("1/12", "1/8")),
    )


def make_per_species_p2():
    return CoupledModel.make(
        p=2,
        a=(1, 1),
        b=(("1/2", "1/3"), ("1/5", "1/7")),
        c=_zeros(2),
        d=(("1/4", "1/3"), ("1/6", "1/2")),
        e=(("1/9", "1/3"), ("1/6", "1/8")),  # off-diagonal d == e
    )


def _random_fields(rng, grid, p):
    x = grid.x
    rhos = [
        0.2
        + 0.5 * np.exp(-((x - rng.uniform(-3, 3)) ** 2) / rng.uniform(4, 9))
        for _ in range(p)
    ]
    phases = [
        rng.uniform(-0.5, 0.5) * np.sin(x / rng.uniform(2, 5)) for _ in range(p)
    ]
    return [field_from(rho, S, grid) for rho, S in zip(rhos, phases)]


# ---------------------------------------------------------------------------
# conservation analysis
# ---------------------------------------------------------------------------


def test_conservation_structure_cases():
    assert isinstance(conservation_structure(make_per_species_p2()), PerSpecies)
    assert isinstance(conservation_structure(make_total_only_p2()), TotalOnly)
    bad = CoupledModel.make(
        p=2, a=(1, 1), b=_zeros(2), c=_zeros(2),
        d=(("0", "1/3"), ("1/4", "0")), e=(("0", "1/4"), ("1/3", "0")),
    )
    res = conservation_structure(bad)
    assert isinstance(res, NonConserving)
    assert res.witness == (0, 1)
    with pytest.raises(NonConservingModel):
        transform_coupled(bad)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(p=0, a=[], b=[], c=[], d=[], e=[]), "p must be a positive integer"),
        (dict(multiplets=[[0, 1.5]]), "multiplets must hold integer indices"),
        (dict(multiplets=[[0], [True]]), "multiplets must hold integer indices"),
        (dict(fpot=[_zeros(2)]), "fpot must hold 2 matrices"),
        (dict(multiplets=[0, 1]), r"multiplets must be a list of index lists, got \[0, 1\]"),
        (dict(multiplets=[[0], 1]), r"multiplets must be a list of index lists, got \[\[0\], 1\]"),
        (dict(multiplets=5), "multiplets must be a list of index lists, got 5"),
    ],
)
def test_make_rejects_malformed_structure(kwargs, message):
    base = dict(p=2, a=(1, 1), b=_zeros(2), c=_zeros(2), d=_zeros(2), e=_zeros(2))
    with pytest.raises(ValueError, match=message):
        CoupledModel.make(**{**base, **kwargs})


def test_custom_multiplets():
    # p = 3: components {0,1} share a multiplet, {2} is a singleton
    m = CoupledModel.make(
        p=3,
        a=(1, 1, 1),
        b=_zeros(3),
        c=_zeros(3),
        d=[["0", "1/3", "0"], ["1/4", "0", "0"], ["0", "0", "0"]],
        e=[["0", "1/6", "0"], ["1/12", "0", "0"], ["0", "0", "0"]],
        multiplets=((0, 1), (2,)),
    )
    res = conservation_structure(m)
    assert isinstance(res, Custom)
    assert res.multiplets == ((0, 1), (2,))
    # breaking the cross-multiplet condition d_02 = e_02 kills it
    m2 = CoupledModel.make(
        p=3,
        a=(1, 1, 1),
        b=_zeros(3),
        c=_zeros(3),
        d=[["0", "1/3", "1/5"], ["1/4", "0", "0"], ["0", "0", "0"]],
        e=[["0", "1/6", "0"], ["1/12", "0", "0"], ["0", "0", "0"]],
        multiplets=((0, 1), (2,)),
    )
    assert isinstance(conservation_structure(m2), NonConserving)


def test_generator_weights():
    m = make_total_only_p2()
    gens = transform_coupled(m).generators
    for j, g in enumerate(gens):
        for i in range(2):
            assert g.weights[i] == -(m.d[i][j] + m.e[i][j]) / (2 * m.a[j])


# ---------------------------------------------------------------------------
# transformed system
# ---------------------------------------------------------------------------


def test_per_species_gives_real_diagonal():
    m = make_per_species_p2()
    res = transform_coupled(m)
    grid = fieldgrid.Grid1D(-15.0, 15.0, 256)
    rng = np.random.default_rng(41)
    fields = _random_fields(rng, grid, 2)
    C = res.assemble_matrix(fields)
    # off-diagonal blocks empty, diagonal real
    assert np.max(np.abs(C[:, 0, 1])) == 0.0
    assert np.max(np.abs(C[:, 1, 0])) == 0.0
    assert np.max(np.abs(C.imag)) == 0.0
    # R_j = 0 in the per-species case
    assert all(all(all(v == 0 for v in row) for row in mj) for mj in res.rpot)


def test_total_only_hermitian_and_F_sum():
    m = make_total_only_p2()
    res = transform_coupled(m)
    grid = fieldgrid.Grid1D(-15.0, 15.0, 256)
    rng = np.random.default_rng(42)
    for _ in range(20):
        fields = _random_fields(rng, grid, 2)
        C = res.assemble_matrix(fields)
        herm = np.max(np.abs(C - np.conj(np.swapaxes(C, 1, 2))))
        assert herm < 1e-12
        Fv = res.evaluate_F(fields)
        assert np.max(np.abs(Fv[0] + Fv[1])) < 1e-12


def test_offdiagonal_denominator_reads_each_fields_floor():
    """Where one density sits under the density floor, the off-diagonal
    entry divides by 2 sqrt(rho_safe_l rho_safe_m), with that field's
    rho_safe at DENSITY_FLOOR, and C stays Hermitian."""
    res = transform_coupled(make_total_only_p2())
    grid = fieldgrid.Grid1D(-15.0, 15.0, 256)
    x, k = grid.x, 100
    rho0 = 0.2 + 0.5 * np.exp(-((x - 1.0) ** 2) / 6.0)
    rho0[k] = 1e-14
    fields = [
        field_from(rho0, 0.3 * np.sin(x / 3.0), grid),
        field_from(0.3 + 0.4 * np.exp(-(x**2) / 5.0), 0.2 * np.cos(x / 4.0), grid),
    ]
    h0, h1 = fields
    assert h0.rho[k] < fieldgrid.DENSITY_FLOOR == h0.rho_safe[k]
    C = res.assemble_matrix(fields)
    F = res.evaluate_F(fields)
    expected = (
        1j * (F[0][k] - F[1][k]) / (2.0 * np.sqrt(h0.rho_safe[k] * h1.rho_safe[k]))
        * np.exp(1j * (h0.phase[k] - h1.phase[k]))
    )
    assert C[k, 0, 1] == pytest.approx(expected, rel=1e-14)
    assert np.max(np.abs(C - np.conj(np.swapaxes(C, 1, 2)))) < 1e-12


def test_assembly_needs_one_field_per_component_on_one_grid():
    res = transform_coupled(make_total_only_p2())
    rng = np.random.default_rng(43)
    grid = fieldgrid.Grid1D(-15.0, 15.0, 256)
    other = fieldgrid.Grid1D(-15.0, 15.0, 128)
    wrong = [
        _random_fields(rng, grid, 1),
        _random_fields(rng, grid, 3),
        _random_fields(rng, grid, 1) + _random_fields(rng, other, 1),
    ]
    for fields in wrong:
        for method in (res.evaluate_F, res.evaluate_diagonal, res.assemble_matrix):
            with pytest.raises(ValueError):
                method(fields)


def _seeded_conserving_model(rng, p, total_only):
    """Random rational a, b, c, d with d - e diagonal (each density
    conserved) or symmetric off the diagonal (only the total conserved)."""
    rand = lambda: [[random_fraction(rng) for _ in range(p)] for _ in range(p)]
    a = [random_fraction(rng, nonzero=True) for _ in range(p)]
    b, c, d, g = rand(), rand(), rand(), rand()
    for i in range(p):
        for j in range(i + 1, p):
            g[i][j] = g[j][i] = g[i][j] if total_only else F(0)
    e = [[d[i][j] - g[i][j] for j in range(p)] for i in range(p)]
    return CoupledModel.make(p=p, a=a, b=b, c=c, d=d, e=e)


def _coefficient_cases():
    rng = np.random.default_rng(20110304)
    yield make_total_only_p2()
    yield make_per_species_p2()
    for p in (2, 3):
        for k in range(6):
            yield _seeded_conserving_model(rng, p, total_only=k % 2 == 1)


def test_transformed_coefficient_formulas():
    """Every coefficient against the closed formulas, entry by entry, with
    lambda_ij = d_ij + e_ij summed here rather than read from the model."""
    for m in _coefficient_cases():
        res = transform_coupled(m)
        p = m.p
        lam = lambda i, j: m.d[i][j] + m.e[i][j]
        for i in range(p):
            for j in range(p):
                assert res.mu[i][j] == m.b[i][j] + lam(i, j)
                assert res.nu[i][j] == m.c[i][j] - m.a[i] / m.a[j] * lam(i, j)
                assert res.gmat[i][j] == m.d[i][j] - m.e[i][j]
        for j in range(p):
            raw = lambda i, k: (
                lam(i, j) * lam(k, j)
                + 2 * m.b[i][j] * lam(k, j)
                + 2 * (m.a[j] / m.a[i]) * m.c[i][j] * lam(k, i)
            ) / (4 * m.a[j])
            for i in range(p):
                for k in range(p):
                    assert res.omega[j][i][k] == (raw(i, k) + raw(k, i)) / 2, (j, i, k)


# ---------------------------------------------------------------------------
# the Fraction algebra, kept as the oracle of the integer-pair algebra
# ---------------------------------------------------------------------------


def _ref_group_of(cm, i):
    for k, g in enumerate(cm.multiplets):
        if i in g:
            return k
    raise IndexError(i)


def _ref_sym(mat):
    out = [list(row) for row in mat]
    for i in range(len(mat)):
        for k in range(i):
            out[i][k] = out[k][i] = (mat[i][k] + mat[k][i]) / 2
    return tuple(map(tuple, out))


def _ref_lam(cm):
    return tuple(
        tuple(dij + eij for dij, eij in zip(drow, erow)) for drow, erow in zip(cm.d, cm.e)
    )


def _ref_conservation_structure(cm):
    p = cm.p
    if all(cm.d[i][j] == cm.e[i][j] for i in range(p) for j in range(p) if i != j):
        return PerSpecies()
    for i in range(p):
        for j in range(p):
            if i == j:
                continue
            if _ref_group_of(cm, i) == _ref_group_of(cm, j):
                if cm.d[i][j] + cm.e[j][i] != cm.d[j][i] + cm.e[i][j]:
                    return NonConserving((i, j))
            else:
                if cm.d[i][j] != cm.e[i][j]:
                    return NonConserving((i, j))
    if len(cm.multiplets) == 1:
        return TotalOnly()
    return Custom(cm.multiplets)


def _ref_conserving(cm):
    verdict = _ref_conservation_structure(cm)
    if isinstance(verdict, NonConserving):
        raise NonConservingModel(
            f"neither species nor multiplet densities conserved; witness pair {verdict.witness}"
        )
    return verdict


def _ref_generators(cm):
    lam, rng = _ref_lam(cm), range(cm.p)
    return tuple(
        SpeciesGenerator(tuple(-lam[i][j] / (2 * cm.a[j]) for i in rng)) for j in rng
    )


def _ref_transform_coupled(cm):
    verdict = _ref_conserving(cm)
    p, rng = cm.p, range(cm.p)
    a, b, c, lam = cm.a, cm.b, cm.c, _ref_lam(cm)
    mu = tuple(tuple(b[i][j] + lam[i][j] for j in rng) for i in rng)
    nu = tuple(tuple(c[i][j] - a[i] / a[j] * lam[i][j] for j in rng) for i in rng)
    u = [[(lam[i][j] + 2 * b[i][j]) / (4 * a[j]) for j in rng] for i in rng]
    v = [[c[i][j] / (2 * a[i]) for j in rng] for i in rng]
    omega = tuple(
        _ref_sym(
            tuple(
                tuple(u[i][j] * lam[k][j] + v[i][j] * lam[k][i] for k in rng)
                for i in rng
            )
        )
        for j in rng
    )
    rpot_raw = [[[F(0)] * p for _ in rng] for _ in rng]
    if not isinstance(verdict, PerSpecies):
        for j in rng:
            for i in rng:
                if i != j and _ref_group_of(cm, i) == _ref_group_of(cm, j):
                    rpot_raw[j][i][j] = -lam[i][j]
    rpot = tuple(
        _ref_sym(m) if any(map(any, m)) else tuple(map(tuple, m)) for m in rpot_raw
    )
    gmat = tuple(tuple(cm.d[i][j] - cm.e[i][j] for j in rng) for i in rng)
    flags = {
        "conservation": type(verdict).__name__,
        "offdiag_denominator": "2*sqrt(rho_l*rho_m) (component-count factor omitted)",
        "offdiag_phases": "transformed",
    }
    return HermitianResult(
        model=cm, mu=mu, nu=nu, omega=omega, rpot=rpot, gmat=gmat,
        generators=_ref_generators(cm), flags=flags,
    )


def _ref_evaluate_F(res, fields):
    n, out = fields[0].grid.n, []
    for j, hj in enumerate(fields):
        Fj = np.zeros(n)
        for i, hi in enumerate(fields):
            g = res.gmat[i][j]
            if g != 0:
                Fj = Fj + float(g) * (hi.rho * hj.drho - hj.rho * hi.drho)
        out.append(Fj)
    return out


def _ref_evaluate_diagonal(res, fields):
    n, out = fields[0].grid.n, []
    for j, hj in enumerate(fields):
        acc = np.zeros(n)
        for i, hi in enumerate(fields):
            acc = acc + hi.rho * (float(res.mu[i][j]) * hj.dS + float(res.nu[i][j]) * hi.dS)
            for k, hk in enumerate(fields):
                coeff = res.omega[j][i][k] + res.model.fpot[j][i][k]
                if coeff != 0:
                    acc = acc + float(coeff) * hi.rho * hk.rho
        out.append(acc)
    return out


def _ref_assemble_matrix(res, fields):
    p = res.model.p
    out = np.zeros((fields[0].grid.n, p, p), dtype=complex)
    for j, diag in enumerate(_ref_evaluate_diagonal(res, fields)):
        out[:, j, j] = diag
    Fv = _ref_evaluate_F(res, fields)
    for l, hl in enumerate(fields):
        for m, hm in enumerate(fields):
            if l == m or _ref_group_of(res.model, l) != _ref_group_of(res.model, m):
                continue
            denom = 2.0 * np.sqrt(hl.rho_safe * hm.rho_safe)
            out[:, l, m] = 1j * (Fv[l] - Fv[m]) / denom * np.exp(1j * (hl.phase - hm.phase))
    return out


# n/d with |n|, d <= 50, and a zero about one draw in five
_RATIONAL = st.builds(
    lambda n, d, keep: F(n, d) if keep else F(0),
    st.integers(-50, 50), st.integers(1, 50), st.integers(0, 4),
)
_NONZERO = _RATIONAL.filter(lambda v: v != 0)


@st.composite
def _coupled_models(draw):
    """p = 1..4 on a random multiplet partition, with d - e built to conserve
    each density, only the total or each multiplet's sum; ``broken`` moves
    one off-diagonal e_ij of a multiplet-conserving model by one, and
    ``free`` draws e at random, which mostly conserves nothing.  fpot is
    drawn too."""
    p = draw(st.sampled_from([1, 2, 3, 4]))
    order = draw(st.permutations(range(p)))
    cuts = [k for k in range(1, p) if draw(st.booleans())]
    groups = [list(order[lo:hi]) for lo, hi in zip([0, *cuts], [*cuts, p])]
    kinds = ["per-species", "total-only", "per-multiplet", "free"] + ["broken"] * (p > 1)
    kind = draw(st.sampled_from(kinds))
    if kind == "total-only":
        groups = [list(order)]
    grp = {i: k for k, g in enumerate(groups) for i in g}
    mat = lambda: [[draw(_RATIONAL) for _ in range(p)] for _ in range(p)]
    a = [draw(_NONZERO) for _ in range(p)]
    b, c, d, g = mat(), mat(), mat(), mat()
    if kind == "free":
        e = mat()
    else:
        for i in range(p):
            for j in range(i + 1, p):
                same = kind != "per-species" and grp[i] == grp[j]
                g[i][j] = g[j][i] = g[i][j] if same else F(0)
        e = [[d[i][j] - g[i][j] for j in range(p)] for i in range(p)]
    if kind == "broken":
        i, j = draw(st.sampled_from([(i, j) for i in range(p) for j in range(p) if i != j]))
        e[i][j] += 1
    fpot = [mat() for _ in range(p)] if draw(st.booleans()) else None
    return CoupledModel.make(p=p, a=a, b=b, c=c, d=d, e=e, fpot=fpot, multiplets=groups)


def _entries(res):
    yield from (v for m in (res.mu, res.nu, res.gmat) for row in m for v in row)
    yield from (v for t in (res.omega, res.rpot) for m in t for row in m for v in row)
    yield from (w for gen in res.generators for w in gen.weights)


@settings(max_examples=300, deadline=None)
@given(cm=_coupled_models())
def test_integer_pairs_match_the_fraction_algebra(cm):
    """The verdict, the transformed coefficients, the generators and the
    NonConservingModel message (with its witness pair) are the Fraction
    algebra's, and every coefficient is a Fraction."""
    verdict = _ref_conservation_structure(cm)
    assert conservation_structure(cm) == verdict
    if isinstance(verdict, NonConserving):
        message = re.escape(f"witness pair {verdict.witness}") + "$"
        with pytest.raises(NonConservingModel, match=message) as got:
            transform_coupled(cm)
        with pytest.raises(NonConservingModel) as want:
            _ref_transform_coupled(cm)
        assert str(got.value) == str(want.value)
        return
    res = transform_coupled(cm)
    assert res == _ref_transform_coupled(cm)
    assert list(res.generators) == list(_ref_generators(cm))
    assert all(type(v) is F for v in _entries(res))


def _fraction_free(monkeypatch):
    """Make every Fraction operator but construction raise."""

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic in the integer-pair algebra")

    for name in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__neg__", "__eq__",
    ):
        monkeypatch.setattr(F, name, forbidden)


def _custom_multiplets_p3():
    """{0, 1} conserve their sum, {2} its own density."""
    return CoupledModel.make(
        p=3,
        a=(1, "-1/2", 3),
        b=[["1/3", "-1/2", "0"], ["1/4", "0", "1/6"], ["0", "2/7", "1"]],
        c=[["0", "1/5", "-1/3"], ["1/9", "1/2", "0"], ["3/8", "0", "-1/4"]],
        d=[["1/5", "1/3", "1/7"], ["1/4", "-1/3", "-2/9"], ["1/2", "3/5", "1/8"]],
        e=[["1/6", "1/6", "1/7"], ["1/12", "0", "-2/9"], ["1/2", "3/5", "-1/5"]],
        multiplets=[[0, 1], [2]],
    )


def test_transform_pays_no_fraction_arithmetic(monkeypatch):
    """transform_coupled reads the model's Fractions and builds each output
    Fraction from an int pair: it does no Fraction arithmetic at all."""
    total_only = _seeded_conserving_model(np.random.default_rng(5), 3, total_only=True)
    cases = [total_only, _custom_multiplets_p3()]
    want = [_ref_transform_coupled(cm) for cm in cases]
    assert [r.flags["conservation"] for r in want] == ["TotalOnly", "Custom"]
    _fraction_free(monkeypatch)
    got = [transform_coupled(cm) for cm in cases]
    monkeypatch.undo()
    assert got == want


def test_assembly_reads_its_tables_once_and_matches():
    """The assembly gives the matrices, F and the diagonal of the reference
    assembly bit for bit."""
    grid = fieldgrid.Grid1D(-15.0, 15.0, 256)
    rng = np.random.default_rng(44)
    for m in [*_coefficient_cases(), _custom_multiplets_p3()]:
        res = transform_coupled(m)
        for _ in range(2):
            fields = _random_fields(rng, grid, m.p)
            assert np.array_equal(res.assemble_matrix(fields), _ref_assemble_matrix(res, fields))
            for got, want in zip(res.evaluate_F(fields), _ref_evaluate_F(res, fields)):
                assert np.array_equal(got, want)
            for got, want in zip(
                res.evaluate_diagonal(fields), _ref_evaluate_diagonal(res, fields)
            ):
                assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# closed reduction regimes
# ---------------------------------------------------------------------------


def _fpot_for_decoupled(p, a, b):
    return [
        [
            [F(b[i][j]) * (F(b[k][j]) - 2 * F(b[k][i])) / (4 * F(a[j])) for k in range(p)]
            for i in range(p)
        ]
        for j in range(p)
    ]


def test_decoupled_linear_detected():
    p = 2
    a = (F(1), F(2))
    lam = [[F(1, 3), F(1, 5)], [F(1, 7), F(1, 2)]]
    b = [[-lam[i][j] for j in range(p)] for i in range(p)]
    c = [[2 * a[i] / a[j] * lam[i][j] for j in range(p)] for i in range(p)]
    d = [[lam[i][j] / 2 for j in range(p)] for i in range(p)]
    e = d
    fpot = _fpot_for_decoupled(p, a, b)
    m = CoupledModel.make(p=p, a=a, b=b, c=c, d=d, e=e, fpot=fpot)
    assert isinstance(special_reduction(m), DecoupledLinear)
    # wrong potential: not the closed regime
    m2 = CoupledModel.make(p=p, a=a, b=b, c=c, d=d, e=e, fpot=None)
    assert isinstance(special_reduction(m2), General)


def test_jackiw_like_detected_with_eta():
    p = 2
    a = (F(1), F(1))
    lam = [[F(1, 2), F(1, 3)], [F(1, 5), F(1, 4)]]
    # off-diagonal b = -lam; diagonal b free
    b = [[F(2, 3) if i == j == 0 else (F(1, 6) if i == j else -lam[i][j]) for j in range(p)] for i in range(p)]
    c = [[2 * a[i] / a[j] * lam[i][j] for j in range(p)] for i in range(p)]
    d = [[lam[i][j] / 2 for j in range(p)] for i in range(p)]
    table = []
    for k in range(p):
        mk = [[F(0)] * p for _ in range(p)]
        for j in range(p):
            for i in range(p):
                if j == k and i == k:
                    mk[j][i] = lam[k][k] * (b[k][k] + F(3, 2) * lam[k][k]) / (2 * a[k])
                elif i == k and j != k:
                    mk[j][i] = lam[k][j] * (b[k][k] + lam[k][k] / 2 + lam[j][k]) / (2 * a[k])
                elif j == k and i != k:
                    mk[j][i] = lam[k][k] * lam[k][i] / (4 * a[k])
                else:
                    mk[j][i] = lam[k][j] * (lam[j][i] - lam[k][i] / 2) / (2 * a[k])
        table.append(mk)
    m = CoupledModel.make(p=p, a=a, b=b, c=c, d=d, e=d, fpot=table)
    res = special_reduction(m)
    assert isinstance(res, JackiwLike)
    for j in range(p):
        assert res.eta[j] == (b[j][j] + lam[j][j]) / (2 * a[j])


def test_current_coupled_detected_with_eta():
    p = 2
    a = (F(1), F(3))
    lam = [[F(1, 2), F(1, 3)], [F(1, 5), F(1, 4)]]
    b = [[-lam[i][j] for j in range(p)] for i in range(p)]
    c = [[F(1, 6), F(2, 7)], [F(3, 8), F(1, 9)]]  # generic (breaks the other regimes)
    d = [[lam[i][j] / 2 for j in range(p)] for i in range(p)]
    table = [
        [
            [
                c[k_][j] * lam[j][i] / (2 * a[j]) - lam[k_][j] * lam[k_][i] / (4 * a[k_])
                for i in range(p)
            ]
            for j in range(p)
        ]
        for k_ in range(p)
    ]
    m = CoupledModel.make(p=p, a=a, b=b, c=c, d=d, e=d, fpot=table)
    res = special_reduction(m)
    assert isinstance(res, CurrentCoupled)
    for j in range(p):
        for k in range(p):
            assert res.eta[j][k] == (c[j][k] - a[k] * lam[j][k] / a[j]) / (2 * a[k])


def test_wave_param_constructor():
    p = 2
    alpha = [["1/2", "1/3"], ["1/4", "1/5"]]
    beta = [["1/6", "1/7"], ["1/8", "1/9"]]
    gamma = [["0", "1/2"], ["1/3", "0"]]
    eps = [["0", "1/4"], ["1/5", "0"]]
    m = CoupledModel.from_wave_params(p, (1, 1), alpha, beta, gamma, eps)
    for i in range(p):
        for j in range(p):
            assert m.b[i][j] == F(alpha[i][j]) - F(beta[i][j])
            assert m.c[i][j] == F(gamma[i][j]) - F(eps[i][j])
            assert m.d[i][j] == (F(alpha[i][j]) + F(beta[i][j])) / 2
            assert m.e[i][j] == (F(gamma[i][j]) + F(eps[i][j])) / 2


def test_report_serialization():
    res = transform_coupled(make_total_only_p2())
    rep = res.to_report()
    assert rep["flags"]["conservation"] == "TotalOnly"
    assert len(rep["generator_weights"]) == 2
