"""Time integration and the verification harness: exact-solution oracles,
self-convergence, conservation, determinism, and the equivalence checks."""

import collections
import re

import numpy as np
import pytest
import scipy.linalg
from fractions import Fraction

from nlsgauge import equivalence, fieldgrid, gauge, solver
from nlsgauge.errors import BlowUp, ConfigError
from nlsgauge.fieldgrid import ComplexField, Grid1D
from nlsgauge.models import (
    DNLS,
    EIP,
    DoebnerGoldin,
    Entropic,
    FiveFunction,
    GaugedAnomalous,
    RhoExpr,
    eval_nonlinearity,
)


def _zero_model():
    z = RhoExpr.zero()
    return FiveFunction(z, z, z, z, z)


def _gaussian(grid, amp=0.8, width=16.0):
    x = grid.x
    return ComplexField((amp * np.exp(-(x**2) / width)).astype(complex), grid)


# ---------------------------------------------------------------------------
# exact-solution oracles
# ---------------------------------------------------------------------------


def test_free_evolution_matches_exact_gaussian():
    """i psi_t + psi_xx = 0 with Gaussian data has a closed-form solution."""
    grid = Grid1D(-20.0, 20.0, 512)
    x = grid.x
    a = 0.125  # psi0 = exp(-a x^2)
    psi0 = ComplexField(np.exp(-a * x**2).astype(complex), grid)
    cfg = solver.SolverConfig(dt=1e-3, t_end=1.0)
    traj = solver.integrate(_zero_model(), psi0, cfg)
    t = traj.times[-1]
    # with the convention i psi_t = -psi_xx: psi(t) = exp(-a x^2 s)/sqrt(s),
    # s = 1 + 4 i a t
    s = 1.0 + 4.0j * a * t
    exact = np.exp(-a * x**2 / s) / np.sqrt(s)
    err = np.max(np.abs(traj.states[-1].values - exact))
    assert err < 1e-6
    assert traj.n_drift() < 1e-10


def test_free_evolution_periodic_plane_wave():
    """A plane wave is an eigenvector of the cyclic compact Laplacian, with
    eigenvalue s = ((2 cos kh - 2)/h^2) / ((10 + 2 cos kh)/12), so each step
    multiplies it by exactly (1 + z s)/(1 - z s), z = i dt/2.  Against the
    continuum wave exp(i(kx - k^2 t)) the error falls at fourth order in h."""
    k, cfg = 3.0, solver.SolverConfig(dt=1e-4, t_end=0.1)
    errors = []
    for n in (64, 128):
        grid = Grid1D(0.0, 2.0 * np.pi, n, "periodic")
        x, h = grid.x, grid.h
        psi0 = ComplexField(np.exp(1j * k * x), grid)
        traj = solver.integrate(_zero_model(), psi0, cfg)
        s = ((2.0 * np.cos(k * h) - 2.0) / h**2) / ((10.0 + 2.0 * np.cos(k * h)) / 12.0)
        z = 0.5j * cfg.dt
        discrete = ((1.0 + z * s) / (1.0 - z * s)) ** round(cfg.t_end / cfg.dt) * psi0.values
        assert np.max(np.abs(traj.states[-1].values - discrete)) <= 1e-12
        exact = np.exp(1j * (k * x - k * k * traj.times[-1]))
        errors.append(np.max(np.abs(traj.states[-1].values - exact)))
        # the winding phase k x must not enter the bilinear current j0 = 2k
        assert max(d["continuity_residual"] for d in traj.diagnostics) <= 1e-8
    assert errors[0] / errors[1] >= 12.0


def test_cubic_defocusing_self_convergence():
    """No closed form at hand: halving dt four-fold must cut the error ~16x
    for the second-order scheme; the fine run is the reference."""
    grid = Grid1D(-20.0, 20.0, 256)
    x = grid.x
    psi0 = ComplexField((1.0 / np.cosh(x / 2.0)).astype(complex), grid)
    model = DNLS(0, -1, 0, 0)  # plain cubic nonlinearity
    sols = {}
    for dt in (4e-3, 1e-3, 2.5e-4):
        cfg = solver.SolverConfig(dt=dt, t_end=0.5)
        sols[dt] = solver.integrate(model, psi0, cfg).states[-1].values
    e_coarse = np.max(np.abs(sols[4e-3] - sols[2.5e-4]))
    e_fine = np.max(np.abs(sols[1e-3] - sols[2.5e-4]))
    assert e_coarse / e_fine > 8.0  # 2nd order in dt: ratio ~16 against reference
    assert e_fine < 1e-6


def test_norm_conserved_with_imaginary_nonlinearity():
    grid = Grid1D(-20.0, 20.0, 512)
    psi0 = _gaussian(grid)
    model = DNLS(0, 1, 0, "1/2")
    traj = solver.integrate(model, psi0, solver.SolverConfig(dt=1e-3, t_end=0.5))
    assert traj.n_drift() < 1e-10


# ---------------------------------------------------------------------------
# continuity diagnostic
# ---------------------------------------------------------------------------


def test_diffusive_continuity_residual_base_resolution():
    """Pure imaginary-nonlinearity diffusive model: the continuity law
    rho_t + div(j0 + J) = 0 holds to discretization accuracy."""
    grid = Grid1D(-20.0, 20.0, 512)
    psi0 = _gaussian(grid, amp=1.0, width=2.0)
    model = DoebnerGoldin(0, 0, 0, 0, 0, "1/10")
    traj = solver.integrate(model, psi0, solver.SolverConfig(dt=1e-3, t_end=1.0))
    res = max(d["continuity_residual"] for d in traj.diagnostics)
    assert res < 1e-4
    assert traj.n_drift() < 1e-9


def test_diffusive_continuity_residual_refines():
    """Refinement on a short horizon, before the fine-grid sawtooth
    instability of this explicitly-treated damping term can grow (see README
    known limitations)."""

    def run(n, dt):
        grid = Grid1D(-20.0, 20.0, n)
        psi0 = _gaussian(grid, amp=1.0, width=2.0)
        model = DoebnerGoldin(0, 0, 0, 0, 0, "1/10")
        traj = solver.integrate(model, psi0, solver.SolverConfig(dt=dt, t_end=0.2))
        return max(d["continuity_residual"] for d in traj.diagnostics)

    coarse = run(512, 1e-3)
    fine = run(1024, 5e-4)
    assert fine < coarse / 3.0


def test_density_node_evolves_without_continuity_spike():
    """A state with a density node (tanh profile): the phase jumps by pi
    across it, but the step reads the current, which is smooth there, so the
    continuity law and the particle number hold through the node."""
    grid = Grid1D(-20.0, 20.0, 512)
    x = grid.x
    psi0 = ComplexField(0.8 * np.tanh(x) * np.exp(-(x**2) / 16.0) * np.exp(0.5j * x), grid)
    cfg = solver.SolverConfig(dt=1e-3, t_end=0.2, snapshot_every=10)
    traj = solver.integrate(EIP("3/10"), psi0, cfg)  # no AllBelowFloor at the node
    assert len(traj.diagnostics) == 21
    assert max(d["continuity_residual"] for d in traj.diagnostics) <= 1e-3
    assert traj.n_drift() <= 1e-8


# ---------------------------------------------------------------------------
# equivalence harness
# ---------------------------------------------------------------------------


def test_identity_model_equivalence_residuals_vanish():
    """A model with zero nonlinearity transforms to itself with sigma = 0;
    every residual must vanish identically."""
    grid = Grid1D(-20.0, 20.0, 512)
    psi0 = _gaussian(grid)
    report = solver.verify_equivalence(
        _zero_model(), psi0, solver.SolverConfig(dt=1e-3, t_end=0.2)
    )
    assert report.max_rho_discrepancy <= 1e-10
    assert report.phase_relation_residual <= 1e-10
    assert report.current_collapse_residual <= 1e-10


def test_entropic_equivalence_short_horizon():
    grid = Grid1D(-20.0, 20.0, 512)
    psi0 = _gaussian(grid)
    model = Entropic(RhoExpr.rho(2), "1/4")
    report = solver.verify_equivalence(
        model, psi0, solver.SolverConfig(dt=1e-3, t_end=0.3)
    )
    assert report.max_rho_discrepancy < 1e-6
    assert report.phase_relation_residual < 1e-5


def test_transformed_override_changes_result():
    grid = Grid1D(-20.0, 20.0, 512)
    psi0 = _gaussian(grid)
    model = DNLS(0, 0, 1, "-1/2")
    good = solver.verify_equivalence(
        model, psi0, solver.SolverConfig(dt=1e-3, t_end=0.2)
    )
    bad = solver.verify_equivalence(
        model,
        psi0,
        solver.SolverConfig(dt=1e-3, t_end=0.2),
        transformed_override=DNLS(0, "3/4", 1, 0),
    )
    assert good.max_rho_discrepancy < 1e-6
    assert bad.max_rho_discrepancy > 1e-3
    assert bad.flags.get("transformed_override")


# ---------------------------------------------------------------------------
# linearization harness
# ---------------------------------------------------------------------------


def test_linearization_d06():
    grid = Grid1D(-20.0, 20.0, 512)
    psi0 = _gaussian(grid, amp=1.0, width=2.0)
    report = solver.verify_linearization(0.6, psi0, solver.SolverConfig(dt=1e-3, t_end=1.0))
    assert report.kbar == pytest.approx(0.8, abs=1e-15)
    assert report.max_rho_discrepancy < 1e-4


def test_log_diffusive_model_structure():
    m = solver.log_diffusive_model(0.6)
    D2 = Fraction(0.6).limit_denominator(10**12) ** 2
    assert m.f3 == RhoExpr.monomial(D2 / 4, -2)
    assert m.f4 == RhoExpr.monomial(-D2 / 2, -1)
    assert m.f1.is_zero and m.f2.is_zero and m.f5.is_zero


# ---------------------------------------------------------------------------
# guard rails and determinism
# ---------------------------------------------------------------------------


def test_bad_solver_config_rejected():
    for bad in ({"dt": -1.0}, {"t_end": 0.0}, {"dt": 1e-320}, {"snapshot_every": 0}):
        with pytest.raises(ConfigError):
            solver.SolverConfig(**bad)


def test_blow_up_detected():
    # D > 0 anti-diffuses (T = D - c1 > 0): the density's ripple grows
    # without bound, which the state check stops at its bound
    grid = Grid1D(0.0, 2.0 * np.pi, 64, "periodic")
    x = grid.x
    psi0 = ComplexField((1.0 + 0.5 * np.cos(x)).astype(complex), grid)
    # the whole message: the time is written to 12 digits, not as 563 * 1e-3
    with pytest.raises(
        BlowUp, match=re.escape("sup norm exceeded 1e+06 at t=0.563") + r"\Z"
    ) as info:
        solver.integrate(
            DoebnerGoldin(0, 0, 0, 0, 0, 1),
            psi0,
            solver.SolverConfig(dt=1e-3, t_end=1.0),
        )
    assert info.value.t == 563 * 1e-3  # the exact float of the step's time


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("evaluation", [1, 2, 3, 4, 5])
def test_nan_nonlinearity_is_a_blowup_from_the_step_start(monkeypatch, evaluation, value):
    """A non-finite lam at any evaluation of the first two steps is a BlowUp
    naming the start of its step (the first step evaluates three times, the
    second twice), on either boundary, at an inner point or at index 0, the
    corner column that a periodic grid's Sherman-Morrison correction reads.
    An inf raises under np.errstate where lam enters a product; a quiet NaN
    raises nothing, so the scan of the Euler midpoint (evaluation 1) or of a
    solve's solution (evaluations 2 to 5) finds it."""
    nonlinearity = solver._nonlinearity
    calls, index = [], None

    def poisoned(*args):
        lam = nonlinearity(*args)
        calls.append(1)
        if len(calls) == evaluation:
            lam = lam.copy()
            lam[index] = value
        return lam

    monkeypatch.setattr(solver, "_nonlinearity", poisoned)
    start = "0.0" if evaluation <= 3 else "0.001"
    for boundary in ("dirichlet", "periodic"):
        grid = Grid1D(-20.0, 20.0, 64, boundary)
        for index in (20, 0):
            calls.clear()
            with pytest.raises(
                BlowUp, match=re.escape(f"non-finite values in the step from t={start} (")
            ):
                solver.integrate(
                    DNLS(0, 1, 0, "1/2"), _gaussian(grid), solver.SolverConfig(dt=1e-3, t_end=0.01)
                )


@pytest.mark.filterwarnings("ignore:overflow encountered")  # |1e308 + 1e308j| is inf
def test_state_check_names_the_failure():
    psi = np.full(16, 1.0 + 1.0j)
    solver._check_state(psi, 0.5)
    for bad, message in (
        (complex(np.nan, 0.0), "non-finite values at t=0.5"),
        (complex(0.0, np.inf), "non-finite values at t=0.5"),
        (2e6, "sup norm exceeded 1e+06 at t=0.5"),
        (1e308 + 1e308j, "sup norm exceeded 1e+06 at t=0.5"),
    ):
        psi[3] = bad
        with pytest.raises(BlowUp, match=re.escape(message)):
            solver._check_state(psi, 0.5)


def test_determinism_bit_identical():
    grid = Grid1D(-20.0, 20.0, 256)
    psi0 = _gaussian(grid)
    model = DNLS(0, 1, 0, "1/2")
    cfg = solver.SolverConfig(dt=1e-3, t_end=0.1)
    a = solver.integrate(model, psi0, cfg)
    b = solver.integrate(model, psi0, cfg)
    for sa, sb in zip(a.states, b.states):
        assert np.array_equal(sa.values, sb.values)
    assert a.diagnostics == b.diagnostics


def test_real_initial_state_evolves_as_its_complex_form():
    grid = Grid1D(-20.0, 20.0, 128)
    cplx = _gaussian(grid)
    real = ComplexField(cplx.values.real.copy(), grid)
    cfg = solver.SolverConfig(dt=1e-3, t_end=0.01, snapshot_every=5)
    for model in (DNLS(0, 1, 0, "1/2"), EIP("3/10")):
        a = solver.integrate(model, real, cfg)
        b = solver.integrate(model, cplx, cfg)
        for sa, sb in zip(a.states[1:], b.states[1:]):
            assert np.array_equal(sa.values, sb.values)
        assert a.diagnostics == b.diagnostics


# ---------------------------------------------------------------------------
# what a Crank-Nicolson step evaluates
# ---------------------------------------------------------------------------

CANONICAL_DG = DoebnerGoldin("2/5", "-1/5", 0, "-2/5", "1/10", "2/5")


@pytest.mark.parametrize(
    "model, reads_dS",
    [
        (DNLS(0, 1, 0, "1/2"), False),
        (gauge.transform_model(DNLS(0, 1, 0, "1/2")).transformed, False),
        (gauge.transform_model(CANONICAL_DG).transformed, False),
        (CANONICAL_DG, True),
        (EIP("3/10"), True),
    ],
)
def test_step_unwraps_only_for_models_that_read_the_phase(model, reads_dS, monkeypatch):
    """No model reads the phase in a step: dS and lapS come from the current,
    which is computed once per evaluation for the models that read them."""
    grid = Grid1D(-20.0, 20.0, 128)
    psi = _gaussian(grid).values * np.exp(0.5j * grid.x)
    calls = {"phase": 0, "current": 0}
    held_phase, d4_complex = fieldgrid._held_phase, fieldgrid._derivative4_complex

    def counting_phase(values, valid):
        calls["phase"] += 1
        return held_phase(values, valid)

    def counting_current(psi, grid):
        calls["current"] += 1
        return d4_complex(psi, grid)

    monkeypatch.setattr(fieldgrid, "_held_phase", counting_phase)
    monkeypatch.setattr(fieldgrid, "_derivative4_complex", counting_current)
    solver._step_crank_nicolson(model, psi, grid, 1e-3)
    # a first step's three nonlinearity evaluations, each on its own field
    assert calls == {"phase": 0, "current": 3 if reads_dS else 0}


def test_phase_free_step_still_rejects_an_all_below_floor_state():
    grid = Grid1D(-20.0, 20.0, 64)
    with pytest.raises(fieldgrid.AllBelowFloor):
        solver._nonlinearity(DNLS(0, 1, 0, 0), np.zeros(64, dtype=complex), grid)


def test_step_pays_only_for_arithmetic(monkeypatch):
    """A step evaluates the nonlinearity twice and solves twice (the first
    step, which has no previous state to extrapolate from, evaluates it a
    third time and solves once more with B for its predictor), and builds no
    ComplexField for it: each evaluation builds one HydroField from the
    array.  Snapshots are the only ComplexFields an integration builds."""
    grid = Grid1D(-20.0, 20.0, 128)
    psi0 = _gaussian(grid)
    model = DNLS(0, 1, 0, "1/2")
    calls = collections.Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(solver, "_nonlinearity")
    count(solver, "solve_banded")
    count(fieldgrid.ComplexField, "__post_init__")
    step = solver._step_crank_nicolson
    psi1 = step(model, psi0.values, grid, 1e-3)
    assert calls == {"_nonlinearity": 3, "solve_banded": 3}
    step(model, psi1, grid, 1e-3, psi0.values)
    assert calls == {"_nonlinearity": 5, "solve_banded": 5}
    for runs in (1, 2):
        cfg = solver.SolverConfig(dt=1e-3, t_end=0.01, snapshot_every=5)
        traj = solver.integrate(model, psi0, cfg)
        assert len(traj.states) == 3
        assert calls["__post_init__"] == 2 * runs
        # ten steps: the first evaluates and solves 3 times, the other nine
        # 2 times each
        assert (calls["_nonlinearity"], calls["solve_banded"]) == (
            5 + (3 + 2 * 9) * runs,
            5 + (3 + 2 * 9) * runs,
        )


def _dense_compact_laplacian(grid):
    """L4c = B^-1 L2 as a dense matrix, from L2 = tridiag(1, -2, 1)/h^2 and
    B = I + (h^2/12) L2, with zero ghosts on a dirichlet grid and cyclic,
    with L2's corner entries, on a periodic one."""
    n, h = grid.n, grid.h
    l2 = np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    if grid.boundary == "periodic":
        l2[0, -1] = l2[-1, 0] = 1.0
    l2 /= h**2
    return np.linalg.solve(np.eye(n) + h * h / 12.0 * l2, l2)


def test_compact_laplacian_is_fourth_order():
    """L4c of a Gaussian on a dirichlet grid and of exp(sin x), which fills
    the grid, on a periodic one: halving h divides the largest error by
    about 16, and L4c is the dense (cyclic) matrix's product to 1e-12
    relative."""
    cases = [
        (
            lambda n: Grid1D(-20.0, 20.0, n),
            lambda x: np.exp(-(x**2) / 4.0),
            lambda x: (x**2 / 4.0 - 0.5) * np.exp(-(x**2) / 4.0),
            (128, 256),
        ),
        (
            lambda n: Grid1D(0.0, 2.0 * np.pi, n, "periodic"),
            lambda x: np.exp(np.sin(x)),
            lambda x: (np.cos(x) ** 2 - np.sin(x)) * np.exp(np.sin(x)),
            (32, 64),
        ),
    ]
    for make_grid, f, f_xx, sizes in cases:
        errors = []
        for n in sizes:
            grid = make_grid(n)
            lap = solver._compact_laplacian(f(grid.x).astype(complex), grid)
            dense = _dense_compact_laplacian(grid) @ f(grid.x)
            assert np.max(np.abs(lap - dense)) <= 1e-12 * np.max(np.abs(dense))
            errors.append(np.max(np.abs(lap - f_xx(grid.x))))
        assert 12.0 < errors[0] / errors[1] < 20.0


def test_step_with_real_lam_is_the_unitary_compact_cayley_step(monkeypatch):
    """With a real lam, one step keeps N to 1e-14 relative and is the Cayley
    step of H = -L4c - diag(lam) with the dense L4c, to 1e-12: on a
    dirichlet grid, and on a periodic one, with a state that fills it, with
    the dense cyclic L4c."""
    dt = 1e-2
    for grid, envelope in (
        (Grid1D(-20.0, 20.0, 64), lambda x: np.exp(-(x**2) / 16.0)),
        (Grid1D(0.0, 2.0 * np.pi, 64, "periodic"), lambda x: 1.0 + 0.5 * np.cos(x)),
    ):
        psi = 0.8 * envelope(grid.x) * np.exp(0.5j * grid.x)
        lam = -0.01 * grid.x**2 + np.cos(grid.x)
        monkeypatch.setattr(solver, "_nonlinearity", lambda *args: lam)
        new = solver._step_crank_nicolson(None, psi, grid, dt, 0.99 * psi)
        n_before = solver.particle_number(psi, grid)
        assert abs(solver.particle_number(new, grid) - n_before) <= 1e-14 * n_before
        zh = 0.5j * dt * (-_dense_compact_laplacian(grid) - np.diag(lam))
        cayley = np.linalg.solve(np.eye(grid.n) + zh, psi - zh @ psi)
        assert np.max(np.abs(new - cayley)) <= 1e-12


def test_later_steps_predict_at_the_extrapolated_midpoint(monkeypatch):
    """The first step predicts with an explicit Euler half-step; the second
    evaluates its predictor at 1.5 psi_1 - 0.5 psi_0.  Each step of a run
    equals one built by hand from its predictor, two passes that solve
    (B - z L2 - z B diag(lam)) y = B psi with scipy's banded solve, lam read
    at the last y, and psi_new = 2 y - psi; the Euler predictor would give
    another second step.  The hand-built step is the dense midpoint solve
    of I - z L4c - z diag(lam) at n = 64."""
    grid = Grid1D(-20.0, 20.0, 64)
    n, dt = grid.n, 1e-3
    nonlinearity = solver._nonlinearity
    seen = []

    def recording(model, psi, grid):
        seen.append(psi.copy())
        return nonlinearity(model, psi, grid)

    monkeypatch.setattr(solver, "_nonlinearity", recording)
    cfg = solver.SolverConfig(dt=dt, t_end=2 * dt, snapshot_every=1)
    traj = solver.integrate(CANONICAL_DG, _gaussian(grid), cfg)
    psi_0, psi_1, psi_2 = (st.values for st in traj.states)
    assert len(seen) == 5
    assert np.array_equal(seen[3], 1.5 * psi_1 - 0.5 * psi_0)

    z = 0.5j * dt
    b = np.array([[1.0], [10.0], [1.0]]) / 12.0
    l2 = np.array([[1.0], [-2.0], [1.0]])
    b_band = np.repeat(b, n, axis=1).astype(complex)

    def tridiag(column, psi):  # column in (1, 1) diagonal-ordered form, zero ghosts
        out = np.zeros_like(psi)
        out[1:] = column[2, 0] * psi[:-1]
        out += column[1, 0] * psi
        out[:-1] += column[0, 0] * psi[1:]
        return out

    def hand_step(psi, guess):
        b_psi = tridiag(b, psi)
        y = guess
        for _ in range(2):
            lam = nonlinearity(CANONICAL_DG, y, grid)
            y = scipy.linalg.solve_banded((1, 1), b - z / grid.h**2 * l2 - z * b * lam, b_psi)
        return 2.0 * y - psi, lam

    def euler(psi):
        lam = nonlinearity(CANONICAL_DG, psi, grid)
        lap = scipy.linalg.solve_banded((1, 1), b_band, tridiag(l2 / grid.h**2, psi))
        return psi + z * (lap + lam * psi)

    hand_1, _ = hand_step(psi_0, euler(psi_0))
    hand_2, lam = hand_step(psi_1, 1.5 * psi_1 - 0.5 * psi_0)
    assert np.array_equal(psi_1, hand_1)
    assert np.array_equal(psi_2, hand_2)
    assert not np.array_equal(psi_2, hand_step(psi_1, euler(psi_1))[0])
    y = np.linalg.solve(np.eye(n) - z * _dense_compact_laplacian(grid) - z * np.diag(lam), psi_1)
    assert np.max(np.abs(psi_2 - (2.0 * y - psi_1))) <= 1e-12


def _criterion_3_run(model, n, monkeypatch):
    """verify_equivalence on the README Gaussian, dt = 1e-3 and t_end = 1,
    and the largest continuity residual of each of its two runs."""
    grid = Grid1D(-20.0, 20.0, n)
    integrate, runs = solver.integrate, []

    def recording(*args):
        runs.append(integrate(*args))
        return runs[-1]

    monkeypatch.setattr(solver, "integrate", recording)
    rep = solver.verify_equivalence(model, _gaussian(grid), solver.SolverConfig(dt=1e-3, t_end=1.0))
    return rep, [max(d["continuity_residual"] for d in r.diagnostics) for r in runs]


@pytest.mark.parametrize(
    "model, n",
    [(CANONICAL_DG, 4096), (GaugedAnomalous(2, "1/2", "1/3"), 1024)],
    ids=["canonical-dg-n4096", "gauged-anomalous-n1024"],
)
def test_stiff_cases_meet_criterion_3(model, n, monkeypatch):
    """Two T = 0 cases that the explicit Euler predictor of every step
    broke: canonical Doebner-Goldin at n = 4096 raised BlowUp at t = 0.521,
    and GaugedAnomalous(2, 1/2, 1/3) at n = 1024 had a phase residual of
    2.1e-4 and a continuity residual of 1e-3.  With the extrapolated
    predictor both meet the criterion-3 tolerances to t = 1, and both runs
    keep the continuity law to 1e-6."""
    rep, continuity = _criterion_3_run(model, n, monkeypatch)
    assert rep.max_rho_discrepancy <= 1e-5
    assert rep.phase_relation_residual <= 1e-5
    assert rep.current_collapse_residual <= 1e-8
    assert rep.N_drift_original <= 1e-8
    assert rep.N_drift_transformed <= 1e-8
    assert max(continuity) <= 1e-6


@pytest.mark.parametrize(
    "model, nonlocal_generator",
    [(DNLS(0, 1, 0, "1/2"), True), (EIP("3/10"), True), (CANONICAL_DG, False)],
    ids=["dnls", "eip", "canonical-dg"],
)
def test_one_antiderivative_per_snapshot(model, nonlocal_generator, monkeypatch):
    """verify_equivalence antidifferentiates once per snapshot: a nonlocal
    generator's phase-check sigma is the collapse's (plus once for phi_0),
    and a local one's phase check reads its closed form."""
    grid = Grid1D(-20.0, 20.0, 128)
    integral, calls = fieldgrid.cumulative_integral, []

    def counted(*args):
        calls.append(1)
        return integral(*args)

    monkeypatch.setattr(fieldgrid, "cumulative_integral", counted)
    cfg = solver.SolverConfig(dt=1e-3, t_end=0.02, snapshot_every=5)
    solver.verify_equivalence(model, _gaussian(grid), cfg)
    assert len(calls) == 5 + nonlocal_generator  # snapshots at t = 0, 0.005, ..., 0.02


def test_dg_nonlinearity_makes_one_correlation_per_derivative(monkeypatch):
    """Canonical Doebner-Goldin reads psi', rho', rho'', j' and J': five
    correlations, and no other pass over the grid makes one."""
    grid = Grid1D(-20.0, 20.0, 64)
    psi = _gaussian(grid).values * np.exp(0.5j * grid.x)
    calls = collections.Counter()
    correlate = np.correlate

    def counting(*args, **kwargs):
        calls["correlate"] += 1
        return correlate(*args, **kwargs)

    monkeypatch.setattr(np, "correlate", counting)
    solver._nonlinearity(CANONICAL_DG, psi, grid)
    assert calls["correlate"] == 5


def test_five_function_model_skips_its_zero_expressions(monkeypatch):
    """log_diffusive_model has f1 = f2 = 0, so W reads neither the current
    nor its derivative; its expressions convert their integer rows to floats
    on the first evaluation only, never when the model is built, and no step
    converts a Fraction."""
    grid = Grid1D(-20.0, 20.0, 512)
    psi0 = _gaussian(grid)
    model = solver.log_diffusive_model(0.6)
    assert not any("_numeric" in vars(f) for f in model.fvec)
    h = fieldgrid.to_hydro(psi0)
    W = eval_nonlinearity(model, h).W
    f1, f2, f3, f4 = (f(h.rho_safe) for f in model.fvec[:4])
    assert np.array_equal(W, f1 * h.lapS + f2 * h.drho * h.dS + f3 * h.drho**2 + f4 * h.laprho)
    calls = collections.Counter()
    d4_complex, to_float = fieldgrid._derivative4_complex, Fraction.__float__

    def counting(name, original):
        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    monkeypatch.setattr(fieldgrid, "_derivative4_complex", counting("current", d4_complex))
    monkeypatch.setattr(Fraction, "__float__", counting("float", to_float))
    psi = psi0.values
    for _ in range(100):
        psi = solver._step_crank_nicolson(model, psi, grid, 1e-3)
    assert calls == {}


# ---------------------------------------------------------------------------
# banded solve of the Crank-Nicolson step
# ---------------------------------------------------------------------------


def _random_band(rng, n):
    return rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))


def _raised(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return None


@pytest.mark.parametrize("n", [8, 512, 4096])
def test_banded_solve_matches_scipy(n):
    rng = np.random.default_rng(n)
    for _ in range(2):
        ab = _random_band(rng, n)
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        kept = rhs.copy()
        expected = scipy.linalg.solve_banded((1, 1), ab, rhs)
        assert np.array_equal(solver.solve_banded(ab.copy(), rhs), expected)
        assert np.array_equal(rhs, kept)


@pytest.mark.parametrize(
    "case",
    ["nan_rhs", "inf_diagonal", "singular", "nan_lam_first", "nan_lam_last", "inf_lam_first", "inf_lam_last", "inf_rhs"],
)
def test_banded_solve_raises_like_scipy(case):
    """A NaN or inf right-hand side, a NaN or inf in lam (which reaches the
    diagonal and the off-diagonals of its column; an inf as a NaN, since z
    is imaginary) in an inner, the first or the last column, and a singular
    matrix.  scipy scans its inputs; solve_banded scans only its solution,
    which every one of these non-finite inputs reaches."""
    n = 16
    rng = np.random.default_rng(7)
    lam = rng.standard_normal(n)
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = np.array([[1.0], [10.0], [1.0]]) / 12.0
    z = 0.5j * 1e-3
    if case == "nan_rhs":
        rhs[3] = np.nan
    elif case == "inf_rhs":
        rhs[3] = np.inf
    elif case == "inf_diagonal":
        lam[5] = np.inf
    elif case.endswith("_lam_first") or case.endswith("_lam_last"):
        lam[0 if case.endswith("first") else -1] = np.nan if case.startswith("nan") else np.inf
    with np.errstate(invalid="ignore"):  # z * inf has a NaN real part
        ab = b - z * b * lam
    if case == "singular":
        ab[:, 0] = 0.0  # the first column of the matrix is zero
    expected = _raised(lambda: scipy.linalg.solve_banded((1, 1), ab, rhs))
    assert expected is (np.linalg.LinAlgError if case == "singular" else ValueError)
    assert _raised(lambda: solver.solve_banded(ab.copy(), rhs)) is expected


def test_export_trajectory(tmp_path):
    grid = Grid1D(-20.0, 20.0, 128)
    psi0 = _gaussian(grid)
    traj = solver.integrate(_zero_model(), psi0, solver.SolverConfig(dt=1e-2, t_end=0.1, snapshot_every=5))
    solver.export_trajectory(traj, str(tmp_path))
    files = sorted(p.name for p in tmp_path.iterdir())
    assert "diagnostics.csv" in files
    assert sum(f.startswith("snapshot_") for f in files) == len(traj.times)
