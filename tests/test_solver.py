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
    grid = Grid1D(0.0, 2.0 * np.pi, 64, "periodic")
    x = grid.x
    k = 3.0
    psi0 = ComplexField(np.exp(1j * k * x), grid)
    cfg = solver.SolverConfig(dt=1e-4, t_end=0.1)  # a periodic grid steps with RK4Spectral
    traj = solver.integrate(_zero_model(), psi0, cfg)
    exact = np.exp(1j * (k * x - k * k * traj.times[-1]))
    assert np.max(np.abs(traj.states[-1].values - exact)) < 1e-8
    # the winding phase k x must not enter the bilinear current j0 = 2k
    assert max(d["continuity_residual"] for d in traj.diagnostics) <= 1e-8


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
    # an explicit step far outside its stability region grows without bound
    grid = Grid1D(0.0, 2.0 * np.pi, 64, "periodic")
    x = grid.x
    psi0 = ComplexField((1.0 + 0.5 * np.cos(x)).astype(complex), grid)
    with pytest.raises(BlowUp):
        solver.integrate(
            _zero_model(),
            psi0,
            solver.SolverConfig(dt=0.5, t_end=50.0),
        )


def test_nan_nonlinearity_is_a_blowup_from_the_step_start(monkeypatch):
    """A quiet NaN raises nothing under np.errstate, so only the finiteness
    scans of solve_banded turn a NaN in lam into a BlowUp: the fifth
    evaluation is the second step's predictor, the step from t=0.001."""
    grid = Grid1D(-20.0, 20.0, 64)
    nonlinearity = solver._nonlinearity
    calls = []

    def poisoned(*args):
        lam = nonlinearity(*args)
        calls.append(1)
        if len(calls) == 5:
            lam = lam.copy()
            lam[20] = np.nan
        return lam

    monkeypatch.setattr(solver, "_nonlinearity", poisoned)
    with pytest.raises(BlowUp, match=re.escape("non-finite values in the step from t=0.001 (")):
        solver.integrate(DNLS(0, 1, 0, "1/2"), _gaussian(grid), solver.SolverConfig(dt=1e-3, t_end=0.01))


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
    band = solver._cn_band(grid, 1e-3)
    solver._step_crank_nicolson(model, psi, grid, 1e-3, fieldgrid.FLOOR_DEFAULT, band)
    # three nonlinearity evaluations per step, each on its own field
    assert calls == {"phase": 0, "current": 3 if reads_dS else 0}


def test_phase_free_step_still_rejects_an_all_below_floor_state():
    grid = Grid1D(-20.0, 20.0, 64)
    with pytest.raises(fieldgrid.AllBelowFloor):
        solver._nonlinearity(DNLS(0, 1, 0, 0), np.zeros(64, dtype=complex), grid, 1e-12)


def test_step_pays_only_for_arithmetic(monkeypatch):
    """A step evaluates the nonlinearity three times and solves twice, and
    builds no ComplexField and checks no floor for it: each evaluation
    builds one HydroField from the array.  The floor of a run is checked
    once, when its SolverConfig is built; snapshots are the only
    ComplexFields an integration builds."""
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
    count(fieldgrid, "_check_floor")
    count(fieldgrid.ComplexField, "__post_init__")
    band = solver._cn_band(grid, 1e-3)
    solver._step_crank_nicolson(model, psi0.values, grid, 1e-3, fieldgrid.FLOOR_DEFAULT, band)
    assert calls == {"_nonlinearity": 3, "solve_banded": 2}
    for runs in (1, 2):
        cfg = solver.SolverConfig(dt=1e-3, t_end=0.01, snapshot_every=5)
        traj = solver.integrate(model, psi0, cfg)
        assert len(traj.states) == 3
        assert calls["_check_floor"] == runs
        assert calls["__post_init__"] == 2 * runs
        assert (calls["_nonlinearity"], calls["solve_banded"]) == (3 + 30 * runs, 2 + 20 * runs)


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
    solver._nonlinearity(CANONICAL_DG, psi, grid, fieldgrid.FLOOR_DEFAULT)
    assert calls["correlate"] == 5


def test_five_function_model_skips_its_zero_expressions(monkeypatch):
    """log_diffusive_model has f1 = f2 = 0, so W reads neither the current
    nor its derivative; its expressions convert their Fractions to floats on
    the first evaluation only, and never when the model is built."""
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
    band = solver._cn_band(grid, 1e-3)
    psi = psi0.values
    for _ in range(100):
        psi = solver._step_crank_nicolson(model, psi, grid, 1e-3, fieldgrid.FLOOR_DEFAULT, band)
    assert calls == {}


# ---------------------------------------------------------------------------
# banded solve of the Crank-Nicolson step
# ---------------------------------------------------------------------------


def _random_band(rng, n):
    return rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))


def _raised(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return None


@pytest.mark.parametrize("n", [8, 512, 4096])
def test_banded_solve_matches_scipy(n):
    rng = np.random.default_rng(n)
    ab = _random_band(rng, n)
    band = solver.PentaBand(ab)
    for _ in range(2):
        # a new diagonal and right-hand side each time: a factorization left
        # over from the previous solve would give a different answer
        ab[2] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        band.diagonal[:] = ab[2]
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        kept = rhs.copy()
        x = solver.solve_banded(band, rhs)
        assert np.array_equal(x, scipy.linalg.solve_banded((2, 2), ab, rhs))
        assert np.array_equal(rhs, kept)
    # the same system again, after the workspace held its factorization
    assert np.array_equal(
        solver.solve_banded(band, rhs), scipy.linalg.solve_banded((2, 2), ab, rhs)
    )


@pytest.mark.parametrize("case", ["nan_rhs", "inf_diagonal", "singular"])
def test_banded_solve_raises_like_scipy(case):
    n = 16
    rng = np.random.default_rng(7)
    ab = _random_band(rng, n)
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if case == "nan_rhs":
        rhs[3] = np.nan
    elif case == "inf_diagonal":
        ab[2, 5] = np.inf
    else:
        ab[2:, 0] = 0.0  # first column of the matrix is zero
    band = solver.PentaBand(np.where(np.isfinite(ab), ab, 0.0))
    band.diagonal[:] = ab[2]
    expected = _raised(lambda: scipy.linalg.solve_banded((2, 2), ab, rhs))
    assert expected in (ValueError, np.linalg.LinAlgError)
    assert _raised(lambda: solver.solve_banded(band, rhs)) is expected


def test_export_trajectory(tmp_path):
    grid = Grid1D(-20.0, 20.0, 128)
    psi0 = _gaussian(grid)
    traj = solver.integrate(_zero_model(), psi0, solver.SolverConfig(dt=1e-2, t_end=0.1, snapshot_every=5))
    solver.export_trajectory(traj, str(tmp_path))
    files = sorted(p.name for p in tmp_path.iterdir())
    assert "diagnostics.csv" in files
    assert sum(f.startswith("snapshot_") for f in files) == len(traj.times)


def test_export_writes_the_phase_at_the_runs_floor(tmp_path):
    """The trajectory carries its run's floor, and the exported S column is
    the phase at that floor, not at the default one."""
    grid = Grid1D(-20.0, 20.0, 128)
    psi0 = ComplexField(_gaussian(grid).values * np.exp(2j * grid.x), grid)
    cfg = solver.SolverConfig(dt=1e-2, t_end=0.1, snapshot_every=5, floor=1e-8)
    traj = solver.integrate(_zero_model(), psi0, cfg)
    assert traj.floor == 1e-8
    solver.export_trajectory(traj, str(tmp_path))
    for i, st in enumerate(traj.states):
        table = np.loadtxt(tmp_path / f"snapshot_{i:04d}.csv", delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 2], fieldgrid.to_hydro(st, 1e-8).phase)
        assert not np.array_equal(table[:, 2], fieldgrid.to_hydro(st).phase)
