"""Acceptance suite: one test per release criterion, each printing a single
pass/fail line with the measured quantity and its tolerance.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as they
are produced; under plain ``pytest`` the verdict is the test outcome itself.
"""

import numpy as np
import pytest
from fractions import Fraction

from nlsgauge import coupled, equivalence, fieldgrid, gauge, gauged, solver
from nlsgauge.fieldgrid import ComplexField, Grid1D
from nlsgauge.models import (
    DNLS,
    EIP,
    DoebnerGoldin,
    FiveFunction,
    GaugedAnomalous,
    RhoExpr,
    push_forward,
)
from conftest import QuotedImageDNLS, field_from, random_fraction


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"criterion {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {label}: {detail}"


def _gaussian(grid: Grid1D, amp=0.8, width=16.0) -> ComplexField:
    x = grid.x
    return ComplexField((amp * np.exp(-(x**2) / width)).astype(complex), grid)


# ---------------------------------------------------------------------------
# 1. exact coefficient maps
# ---------------------------------------------------------------------------


def test_criterion_1a_cubic_family_map():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(20):
        b = [random_fraction(rng) for _ in range(4)]
        out = gauge.transform_model(DNLS(*b)).transformed
        ok &= out.b2 == b[1] - b[2] * b[3] / 2 - b[3] ** 2 / 4
        ok &= out.b4 == 0
    # quadratic-current specialization: b2~ = b2 - b4^2/4
    out = gauge.transform_model(DNLS(0, 1, 0, "1/2")).transformed
    ok &= out.b2 == Fraction(15, 16)
    # canonical b3 = -2 b4 specialization: b2~ = 3 b3^2 / 16
    out = gauge.transform_model(DNLS(0, 0, 2, -1)).transformed
    ok &= out.b2 == Fraction(3, 4)
    # fully cancelling choice: only the rho * dS term survives
    out = gauge.transform_model(DNLS(0, "-3/16", -1, "1/2")).transformed
    ok &= out.b2 == 0 and out.b1 == 0 and out.b3 == -1 and out.b4 == 0
    _report("1a", ok, "cubic-family map exact on 20 random + 3 named cases")


def test_criterion_1b_diffusive_family_map():
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(20):
        c = [random_fraction(rng) for _ in range(5)]
        D = random_fraction(rng, nonzero=True)
        out = gauge.transform_model(DoebnerGoldin(*c, D)).transformed
        ok &= isinstance(out, DoebnerGoldin)  # closure
        ok &= out.c1 == c[0] - D
        ok &= out.c2 == c[1] - c[0] * D / 2
        ok &= out.c3 == c[2]
        ok &= out.c4 == c[3] + (1 - c[2]) * D
        ok &= out.c5 == c[4] - c[3] * D / 2 + (c[2] - 1) * D * D / 4
        ok &= out.D == 0
    _report("1b", ok, "all five transformed coefficients exact on 20 random models")


def test_criterion_1c_anomalous_diffusion_coefficient():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(20):
        q = abs(random_fraction(rng, nonzero=True))
        D = random_fraction(rng)
        alpha = random_fraction(rng)
        model = GaugedAnomalous(q, D, alpha)
        out = gauge.transform_model(model).transformed
        # the stored coefficient is alpha~ = alpha - q^2 D^2/4; the physical
        # dispersion coefficient is beta = 2 alpha~ = 2 alpha - q^2 D^2/2
        ok &= out.alpha == alpha - q * q * D * D / 4
        ok &= gauged.transformed_beta(model) == 2 * alpha - q * q * D * D / 2
        ok &= out.D == 0
    m1 = GaugedAnomalous(1, "3/5", "1/7")
    ok &= gauged.transformed_beta(m1) == 2 * Fraction(1, 7) - Fraction(9, 50)
    _report("1c", ok, "beta = 2 alpha - q^2 D^2 / 2 exact, including q = 1")


# ---------------------------------------------------------------------------
# 2. push-forward algebra
# ---------------------------------------------------------------------------


def _random_expr(rng, n_terms=2):
    return RhoExpr.make(
        [
            (random_fraction(rng), random_fraction(rng, 3, 3), int(rng.integers(0, 2)))
            for _ in range(n_terms)
        ]
    )


def test_criterion_2_five_function_algebra():
    rng = np.random.default_rng(104)
    ok = True
    zero5 = tuple(RhoExpr.zero() for _ in range(5))
    for _ in range(50):
        f = FiveFunction(*(_random_expr(rng) for _ in range(5)))
        w1, w2 = _random_expr(rng), _random_expr(rng)
        lhs = push_forward(push_forward(f, w1), w2)
        rhs = push_forward(f, w1 + w2)
        ok &= lhs.fvec == rhs.fvec
        ok &= lhs.f2 == f.f2  # invariant slot
    # generator recovery
    for _ in range(20):
        f = FiveFunction(*(_random_expr(rng) for _ in range(5)))
        w = _random_expr(rng).drop_constant()
        rec = equivalence.equivalence_generator(f, push_forward(f, w))
        ok &= rec == w
    # linearizability: accept constructed, reject perturbed with witness
    rejected = 0
    accepted = 0
    while rejected < 20 or accepted < 20:
        w = _random_expr(rng).drop_constant()
        f = push_forward(FiveFunction(*zero5), -w)
        if accepted < 20:
            res = equivalence.linearizable(f)
            ok &= isinstance(res, RhoExpr)
            accepted += 1
        slot = int(rng.integers(0, 5))
        bump = RhoExpr.monomial(
            random_fraction(rng, nonzero=True), int(rng.integers(0, 3))
        )
        fields = list(f.fvec)
        fields[slot] = fields[slot] + bump
        res = equivalence.linearizable(FiveFunction(*fields))
        if isinstance(res, equivalence.NotEquivalent):
            ok &= bool(res.witness)
            rejected += 1
    _report(
        "2",
        ok,
        "group law on 50 samples, invariance, generator recovery, "
        "linearizability accept/reject with witnesses",
    )


# ---------------------------------------------------------------------------
# 3. numerical gauge equivalence
# ---------------------------------------------------------------------------

_EQUIV_MODELS = [
    ("quadratic-current cubic", DNLS(0, 1, 0, "1/2")),
    ("intensity-phase coupling", EIP("3/10")),
    (
        "canonical diffusive",
        DoebnerGoldin("2/5", "-1/5", 0, "-2/5", "1/10", "2/5"),
    ),
]


def _equiv_report(model, n, dt, t_end=1.0, boundary="dirichlet"):
    grid = Grid1D(-20.0, 20.0, n, boundary)
    psi0 = _gaussian(grid)
    return solver.verify_equivalence(
        model, psi0, solver.SolverConfig(dt=dt, t_end=t_end)
    )


# each model on both boundaries; an id names the boundary when it is not
# the default dirichlet one
_EQUIV_CASES = [
    pytest.param(
        name, model, boundary, id=name if boundary == "dirichlet" else f"{name}, {boundary}"
    )
    for boundary in ("dirichlet", "periodic")
    for name, model in _EQUIV_MODELS
]


@pytest.mark.parametrize("name,model,boundary", _EQUIV_CASES)
def test_criterion_3_numerical_equivalence(name, model, boundary):
    rep = _equiv_report(model, 512, 1e-3, boundary=boundary)
    fine = _equiv_report(model, 1024, 5e-4, boundary=boundary)
    ratio = rep.max_rho_discrepancy / fine.max_rho_discrepancy
    ok = (
        rep.max_rho_discrepancy <= 1e-5
        and rep.phase_relation_residual <= 1e-5
        and rep.current_collapse_residual <= 1e-8
        and rep.N_drift_original <= 1e-8
        and rep.N_drift_transformed <= 1e-8
        and ratio >= 4.0
    )
    _report(
        f"3 [{name}, {boundary}]",
        ok,
        "rho %.2e<=1e-5, phase %.2e<=1e-5, collapse %.2e<=1e-8, "
        "N-drift %.2e/%.2e<=1e-8, refinement x%.1f>=4"
        % (
            rep.max_rho_discrepancy,
            rep.phase_relation_residual,
            rep.current_collapse_residual,
            rep.N_drift_original,
            rep.N_drift_transformed,
            ratio,
        ),
    )


# ---------------------------------------------------------------------------
# 4. derivative-coupling adjudication
# ---------------------------------------------------------------------------


def test_criterion_4_derivative_coupling_adjudication():
    model = DNLS(0, 0, 1, "-1/2")
    grid = Grid1D(-20.0, 20.0, 512)
    psi0 = _gaussian(grid)
    cfg = solver.SolverConfig(dt=1e-3, t_end=1.0)
    good = solver.verify_equivalence(model, psi0, cfg)
    bad = solver.verify_equivalence(QuotedImageDNLS(0, 0, 1, "-1/2"), psi0, cfg)
    ok = good.max_rho_discrepancy <= 1e-5 and bad.max_rho_discrepancy > 1e-2
    _report(
        "4",
        ok,
        "general-map target %.2e<=1e-5; alternative coefficient 3/4 "
        "residual %.2e>1e-2" % (good.max_rho_discrepancy, bad.max_rho_discrepancy),
    )


# ---------------------------------------------------------------------------
# 5. linearization of the logarithmic diffusive model
# ---------------------------------------------------------------------------


def test_criterion_5_linearization():
    def run(n, dt):
        grid = Grid1D(-20.0, 20.0, n)
        psi0 = _gaussian(grid, amp=1.0, width=2.0)
        return solver.verify_linearization(
            0.6, psi0, solver.SolverConfig(dt=dt, t_end=1.0)
        )

    rep = run(512, 1e-3)
    fine = run(1024, 5e-4)
    ratio = rep.max_rho_discrepancy / fine.max_rho_discrepancy
    lin = equivalence.guerra_map(0.6)
    exact = abs(lin.kbar**2 + lin.D**2 - 1.0) < 1e-15 and rep.kbar == pytest.approx(
        0.8, abs=1e-15
    )
    ok = rep.max_rho_discrepancy <= 1e-4 and ratio >= 4.0 and exact
    _report(
        "5",
        ok,
        "rho %.2e<=1e-4 at t=1, refinement x%.1f>=4 (2nd order), "
        "kbar^2+D^2=1 exact" % (rep.max_rho_discrepancy, ratio),
    )


# ---------------------------------------------------------------------------
# 6. coupled engine
# ---------------------------------------------------------------------------


def test_criterion_6_coupled_engine():
    ok = True
    # per-species conservation: empty off-diagonal block, real diagonal
    per = coupled.CoupledModel.make(
        p=2,
        a=(1, 1),
        b=(("1/2", "1/3"), ("1/5", "1/7")),
        c=((0, 0), (0, 0)),
        d=(("1/4", "1/3"), ("1/6", "1/2")),
        e=(("1/9", "1/3"), ("1/6", "1/8")),
    )
    res = coupled.transform_coupled(per)
    grid = Grid1D(-15.0, 15.0, 256)
    rng = np.random.default_rng(106)

    def fields():
        x = grid.x
        rhos = [
            0.2 + 0.5 * np.exp(-((x - rng.uniform(-3, 3)) ** 2) / rng.uniform(4, 9))
            for _ in range(2)
        ]
        phases = [rng.uniform(-0.5, 0.5) * np.sin(x / rng.uniform(2, 5)) for _ in range(2)]
        return [field_from(rho, S, grid) for rho, S in zip(rhos, phases)]

    C = res.assemble_matrix(fields())
    ok &= np.max(np.abs(C[:, 0, 1])) == 0.0 and np.max(np.abs(C[:, 1, 0])) == 0.0
    ok &= np.max(np.abs(C.imag)) == 0.0

    # total-only conservation: Hermitian block, functionals summing to zero
    tot = coupled.CoupledModel.make(
        p=2,
        a=("1", "2"),
        b=(("1/2", "0"), ("0", "1/3")),
        c=(("0", "1/5"), ("0", "0")),
        d=(("1/7", "1/3"), ("1/4", "1/2")),
        e=(("1/9", "1/6"), ("1/12", "1/8")),
    )
    res = coupled.transform_coupled(tot)
    herm_max = 0.0
    fsum_max = 0.0
    for _ in range(20):
        hs = fields()
        C = res.assemble_matrix(hs)
        herm_max = max(herm_max, float(np.max(np.abs(C - np.conj(np.swapaxes(C, 1, 2))))))
        Fv = res.evaluate_F(hs)
        fsum_max = max(fsum_max, float(np.max(np.abs(Fv[0] + Fv[1]))))
    ok &= herm_max < 1e-12 and fsum_max < 1e-12

    # closed reduction regimes detected with their constants
    F = Fraction
    p = 2
    a = (F(1), F(2))
    lam = [[F(1, 3), F(1, 5)], [F(1, 7), F(1, 2)]]
    b = [[-lam[i][j] for j in range(p)] for i in range(p)]
    c = [[2 * a[i] / a[j] * lam[i][j] for j in range(p)] for i in range(p)]
    d = [[lam[i][j] / 2 for j in range(p)] for i in range(p)]
    fpot = [
        [
            [b[i][j] * (b[k][j] - 2 * b[k][i]) / (4 * a[j]) for k in range(p)]
            for i in range(p)
        ]
        for j in range(p)
    ]
    m = coupled.CoupledModel.make(p=p, a=a, b=b, c=c, d=d, e=d, fpot=fpot)
    ok &= isinstance(coupled.special_reduction(m), coupled.DecoupledLinear)

    b2 = [[F(2, 3) if i == j else -lam[i][j] for j in range(p)] for i in range(p)]
    table = []
    for k in range(p):
        mk = [[F(0)] * p for _ in range(p)]
        for j in range(p):
            for i in range(p):
                if j == k and i == k:
                    mk[j][i] = lam[k][k] * (b2[k][k] + F(3, 2) * lam[k][k]) / (2 * a[k])
                elif i == k and j != k:
                    mk[j][i] = lam[k][j] * (b2[k][k] + lam[k][k] / 2 + lam[j][k]) / (
                        2 * a[k]
                    )
                elif j == k and i != k:
                    mk[j][i] = lam[k][k] * lam[k][i] / (4 * a[k])
                else:
                    mk[j][i] = lam[k][j] * (lam[j][i] - lam[k][i] / 2) / (2 * a[k])
        table.append(mk)
    m = coupled.CoupledModel.make(p=p, a=a, b=b2, c=c, d=d, e=d, fpot=table)
    res2 = coupled.special_reduction(m)
    ok &= isinstance(res2, coupled.JackiwLike)
    ok &= all(res2.eta[j] == (b2[j][j] + lam[j][j]) / (2 * a[j]) for j in range(p))

    c3 = [[F(1, 6), F(2, 7)], [F(3, 8), F(1, 9)]]
    table = [
        [
            [
                c3[k_][j] * lam[j][i] / (2 * a[j])
                - lam[k_][j] * lam[k_][i] / (4 * a[k_])
                for i in range(p)
            ]
            for j in range(p)
        ]
        for k_ in range(p)
    ]
    m = coupled.CoupledModel.make(p=p, a=a, b=b, c=c3, d=d, e=d, fpot=table)
    res3 = coupled.special_reduction(m)
    ok &= isinstance(res3, coupled.CurrentCoupled)
    ok &= all(
        res3.eta[j][k] == (c3[j][k] - a[k] * lam[j][k] / a[j]) / (2 * a[k])
        for j in range(p)
        for k in range(p)
    )
    _report(
        "6",
        ok,
        "per-species block empty/real; Hermiticity %.1e<=1e-12, "
        "sum-F %.1e<=1e-12 over 20 samples; all three reduction regimes "
        "detected with exact constants" % (herm_max, fsum_max),
    )


# ---------------------------------------------------------------------------
# 7. external-field two-route agreement
# ---------------------------------------------------------------------------


def test_criterion_7_two_route_agreement():
    rng = np.random.default_rng(107)
    worst = 0.0
    for k in range(10):
        q = [2, 1, Fraction(3, 2), 3][k % 4]
        model = GaugedAnomalous(q, Fraction(1, 2), Fraction(1, 3))
        grid = Grid1D(-12.0, 12.0, 256)
        x = grid.x
        h = field_from(
            0.1 + 0.7 * np.exp(-((x - rng.uniform(-2, 2)) ** 2) / rng.uniform(3, 8)),
            rng.uniform(-0.6, 0.6) * np.sin(x / rng.uniform(2, 4)),
            grid,
        )
        A = rng.uniform(0.1, 0.5) * np.cos(x / rng.uniform(3, 6)) + 0.2
        ext = gauged.ExternalGauge(A=A, A0=np.zeros_like(x), grid=grid)
        jm, jf = gauged.two_route_currents(model, h, ext)
        worst = max(worst, float(np.max(np.abs(jm - jf))))
    qlim = gauged.q_limit_consistency(0.5, np.linspace(0.05, 2.0, 40), eps=1e-3)
    ok = worst <= 1e-10 and qlim <= 1e-2
    _report(
        "7",
        ok,
        "two-route current mismatch %.1e<=1e-10 on 10 states; "
        "q->1 generator limit %.1e<=1e-2" % (worst, qlim),
    )


# ---------------------------------------------------------------------------
# 8. universal invariants
# ---------------------------------------------------------------------------


def test_criterion_8_universal_invariants():
    grid = Grid1D(-20.0, 20.0, 512)
    psi = _gaussian(grid)
    x = grid.x
    sigma = 0.7 * np.sin(x / 3.0) + 0.2 * x / (1.0 + x**2)
    phi = gauge.apply_gauge(psi, sigma)
    unit = float(np.max(np.abs(np.abs(phi.values) ** 2 - np.abs(psi.values) ** 2)))
    back = gauge.apply_gauge(phi, -sigma)
    invol = float(np.max(np.abs(back.values - psi.values)))
    cfg = solver.SolverConfig(dt=1e-3, t_end=0.1)
    model = DNLS(0, 1, 0, "1/2")
    t1 = solver.integrate(model, psi, cfg)
    t2 = solver.integrate(model, psi, cfg)
    deterministic = all(
        np.array_equal(a.values, b.values) for a, b in zip(t1.states, t2.states)
    )
    eip_ok, _ = gauge.curl_condition_holds(EIP("3/10"), 2)
    dg_ok, _ = gauge.curl_condition_holds(
        DoebnerGoldin("2/5", "-1/5", 0, "-2/5", "1/10", "2/5"), 3
    )
    ok = (
        unit <= 1e-14
        and invol <= 1e-14
        and deterministic
        and eip_ok is False
        and dg_ok is True
    )
    _report(
        "8",
        ok,
        "unitarity %.1e<=1e-14, involution %.1e<=1e-14, bit-identical reruns, "
        "curl obstruction detected (nonlocal yes / local no)" % (unit, invol),
    )
