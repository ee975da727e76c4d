"""Time integration of 1-D NLSEs with complex nonlinearities, and the
verification harness that demonstrates gauge equivalence numerically.

Every grid steps with one scheme, an implicit-midpoint Cayley step with the
compact fourth-order Laplacian L4c = B^-1 L2 (tridiagonal B and L2) and the
full nonlinearity W + i calW on the diagonal.  Each corrector pass solves
for the step midpoint a tridiagonal system (the step's system multiplied
through by B, one LAPACK gtsv call); for real W the operator is Hermitian,
the Cayley transform is exactly l2-unitary, and the particle number is
conserved to roundoff.  The grid's boundary picks only how the stencils
end: a dirichlet (decaying) grid has zero ghosts, and a periodic grid wraps
B and L2 into cyclic matrices, whose systems each take one Sherman-Morrison
correction over a gtsv call on two right-hand sides.  A step makes two
nonlinearity evaluations and two solves: the predictor extrapolates the
midpoint from the last two states (Akrivis, Dougalis & Karakashian, Numer.
Math. 59 (1991) 31), so only the first step applies the Laplacian
explicitly, which amplifies the Nyquist mode of a fine grid.  Each
nonlinearity evaluation computes only what the model reads: the phase
derivatives come from the current j = Im(conj(psi) psi') (see
``fieldgrid.HydroField``), DNLS and the normal form (so Doebner-Goldin)
skip the terms whose exact coefficient is zero, and a model with no
current gets a real lam.  The nonlinearity's derivatives read the grid's
fourth-order stencils, scaled by h or h^2 once per grid (``Grid1D.stencils``).

Checks are paid where their input changes: ``SolverConfig`` checks dt,
t_end and snapshot_every once per run; each nonlinearity evaluation builds
one ``fieldgrid.HydroField`` from the array, whose one maximum of rho makes
its checks against the fixed ``fieldgrid.DENSITY_FLOOR``.  A step runs with
numpy's overflow, divide and invalid errors raised and each solve scans its
solution values: a non-finite lam or right-hand side is a BlowUp naming the
step's start time.

The harness evolves a model and its gauge image side by side and reports the
density discrepancy, the phase-relation residual, and the current-collapse
residual.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

from . import equivalence, fieldgrid, gauge
from .errors import BlowUp, ConfigError
from .fieldgrid import ComplexField, Grid1D, HydroField
from .models import (
    FiveFunction,
    ModelSpec,
    RhoExpr,
    current_functional,
    eval_nonlinearity,
)

BLOWUP_THRESHOLD = 1e6


@dataclass(frozen=True)
class SolverConfig:
    dt: float = 1e-3
    t_end: float = 1.0
    snapshot_every: int = 100

    def __post_init__(self) -> None:
        if not (self.dt > 0 and self.t_end > 0 and math.isfinite(self.t_end / self.dt)):
            raise ConfigError("dt and t_end must be positive and finite")
        if self.snapshot_every < 1:
            raise ConfigError("snapshot_every must be >= 1")


@dataclass(frozen=True)
class Trajectory:
    times: tuple[float, ...]
    states: tuple[ComplexField, ...]
    diagnostics: tuple[dict, ...]  # per snapshot: {"N": ..., "continuity_residual": ...}

    @property
    def grid(self) -> Grid1D:
        return self.states[0].grid

    def n_drift(self) -> float:
        ns = [d["N"] for d in self.diagnostics]
        return max(abs(v - ns[0]) for v in ns)


def particle_number(psi: np.ndarray, grid: Grid1D) -> float:
    return float(np.sum(np.abs(psi) ** 2) * grid.h)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def _nonlinearity(model: ModelSpec, psi: np.ndarray, grid: Grid1D):
    h = HydroField(psi, grid)
    ev = eval_nonlinearity(model, h)
    if model.current_free:
        return ev.W  # calW is 0: lam stays real
    return ev.W + 1j * ev.calW


def _when(t: float) -> str:
    """t to 12 significant digits: k * dt reads 0.563, not 0.5630000000000001."""
    return repr(float(f"{t:.12g}"))


def _check_state(psi: np.ndarray, t: float) -> None:
    # one reduction in the common case: a NaN or inf entry makes the
    # maximum fail the bound too
    if not np.max(np.abs(psi)) <= BLOWUP_THRESHOLD:
        if not np.all(np.isfinite(psi)):
            raise BlowUp(t, f"non-finite values at t={_when(t)}")
        raise BlowUp(t, f"sup norm exceeded {BLOWUP_THRESHOLD:g} at t={_when(t)}")


_CORRECTOR_ITERATIONS = 2

# The compact fourth-order Laplacian L4c = B^-1 L2 (Lele, J. Comput. Phys. 103
# (1992) 16) with L2 = tridiag(1, -2, 1)/h^2 and B = I + (h^2/12) L2 =
# tridiag(1/12, 5/6, 1/12), both with zero ghosts on a dirichlet grid (the
# fields decay well before the edge) and cyclic on a periodic one.  Each is
# one column of scipy's (1, 1) diagonal-ordered form, constant along the
# diagonals; L2 is stored times h^2.
_B = np.array([[1.0], [10.0], [1.0]]) / 12.0
_H2_L2 = np.array([[1.0], [-2.0], [1.0]])


def _tridiag_apply(column: np.ndarray, psi: np.ndarray, grid: Grid1D) -> np.ndarray:
    """The tridiagonal Toeplitz matrix with the diagonal-ordered ``column``
    times psi: one correlation pass over the (re, im) floats of psi as a
    contiguous complex array (no copy when it is one), which gives zero
    ghosts, and on a periodic grid the two corner terms."""
    pairs = np.zeros(5)
    pairs[::2] = column[::-1, 0]  # the coefficients of psi[i-1], psi[i], psi[i+1]
    psi = np.ascontiguousarray(psi, dtype=complex)
    out = np.correlate(psi.view(float), pairs, "same").view(complex)
    if grid.boundary == "periodic":
        out[0] += column[2, 0] * psi[-1]
        out[-1] += column[0, 0] * psi[0]
    return out


(_gtsv,) = get_lapack_funcs(("gtsv",), (np.zeros(1, dtype=complex),))


def solve_banded(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a @ x = rhs for a tridiagonal a in scipy's (1, 1)
    diagonal-ordered form, ``ab[1 + i - j, j] == a[i, j]``.

    The gtsv call of ``scipy.linalg.solve_banded((1, 1), ab, rhs)`` without
    its copies and input scans: a complex C-ordered ab is factorized in
    place; rhs is left as it was.  LinAlgError on a singular matrix;
    ValueError on a non-finite x, which a NaN in ab or any non-finite rhs
    gives, but a pure inf in ab may not (a step's band holds z inf = NaN)."""
    *_, x, info = _gtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs, True, True, True, False)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    if not np.isfinite(x).all():
        raise ValueError("non-finite solution of the banded system")
    return x


def _solve_cyclic(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a @ x = rhs for a cyclic tridiagonal a: the band of
    :func:`solve_banded` plus the corners a[n-1, 0] = ``ab[0, 0]`` and
    a[0, n-1] = ``ab[2, -1]``, the entries gtsv does not read.  With
    gamma = -a[0, 0], a = T + u v^T for u = (gamma, 0, ..., 0, a[n-1, 0])
    and v = (1, 0, ..., 0, a[0, n-1]/gamma), so one gtsv call solves T for
    rhs and u together, and one Sherman-Morrison correction gives x (Press
    et al., Numerical Recipes, 3rd ed., section 2.7.2).  ab is factorized in
    place, and its errors are those of :func:`solve_banded`."""
    alpha, beta = ab[0, 0], ab[2, -1]
    gamma = -ab[1, 0]
    ab[1, 0] -= gamma
    ab[1, -1] -= alpha * beta / gamma
    cols = np.zeros((2, len(rhs)), dtype=complex)
    cols[0] = rhs
    cols[1, 0], cols[1, -1] = gamma, alpha
    x, w = solve_banded(ab, cols.T).T  # cols.T is Fortran-ordered, as gtsv wants
    return x - (x[0] + beta * x[-1] / gamma) / (1.0 + w[0] + beta * w[-1] / gamma) * w


def _solver(grid: Grid1D):
    """The grid's tridiagonal solve: cyclic on a periodic grid."""
    return _solve_cyclic if grid.boundary == "periodic" else solve_banded


def _compact_laplacian(psi: np.ndarray, grid: Grid1D) -> np.ndarray:
    """L4c psi = B^-1 (L2 psi): one product and one solve with B."""
    b = np.repeat(_B.astype(complex), grid.n, axis=1)
    return _solver(grid)(b, _tridiag_apply(_H2_L2 / grid.h**2, psi, grid))


def _step_crank_nicolson(
    model: ModelSpec,
    psi: np.ndarray,
    grid: Grid1D,
    dt: float,
    psi_prev: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Implicit-midpoint Cayley step (I + z H) psi_new = (I - z H) psi with
    H = -L4c - diag(lam), z = i dt/2 and the nonlinearity evaluated at the
    step midpoint y = (psi + psi_new)/2.  Each pass solves for y,
    (I - z L4c - z diag(lam)) y = psi, multiplied through by B:
    (B - z L2 - z B diag(lam)) y = B psi, a tridiagonal system whose column
    j reads lam[j] (cyclic on a periodic grid, each corner in its column);
    then psi_new = 2 y - psi.  The first pass takes lam at the predictor
    1.5 psi - 0.5 psi_prev (extrapolated Crank-Nicolson, Sanz-Serna &
    Verwer, IMA J. Numer. Anal. 6 (1986) 25), the next at the y it solved
    for.  A first step, with no ``psi_prev``, predicts with an explicit
    Euler half-step, one more evaluation and one solve with B.  B and L2
    commute, cyclic or not, so H is Hermitian for real W and the step is
    exactly l2-unitary there.  A NaN in lam shows in the scan of each solution (of
    the Euler midpoint in a first step)."""
    z = 0.5j * dt
    if psi_prev is None:
        lam = _nonlinearity(model, psi, grid)
        mid = psi + z * (_compact_laplacian(psi, grid) + lam * psi)
        if not np.isfinite(mid).all():  # a quiet NaN in lam raised nothing
            raise FloatingPointError("non-finite predictor")
    else:
        mid = psi * 1.5
        mid -= 0.5 * psi_prev
    (b_off, b_diag), (l_off, l_diag), q = _B[:2, 0].tolist(), _H2_L2[:2, 0].tolist(), z / grid.h**2
    # the off-diagonal and diagonal entries of B - z L2 and of z B
    c_off, c_diag, z_off, z_diag = b_off - q * l_off, b_diag - q * l_diag, z * b_off, z * b_diag
    b_psi = _tridiag_apply(_B, psi, grid)
    solve = _solver(grid)
    ab = np.empty((3, grid.n), dtype=complex)
    for _ in range(_CORRECTOR_ITERATIONS):
        lam = _nonlinearity(model, mid, grid)
        np.subtract(c_off, np.multiply(z_off, lam, out=ab[0]), out=ab[0])
        ab[2] = ab[0]
        np.subtract(c_diag, np.multiply(z_diag, lam, out=ab[1]), out=ab[1])
        try:
            mid = solve(ab, b_psi)
        except ValueError as exc:  # a NaN in lam, which raises nothing under np.errstate
            raise FloatingPointError(exc) from None
    mid *= 2.0
    return np.subtract(mid, psi, out=mid)


def integrate(model: ModelSpec, psi0: ComplexField, cfg: SolverConfig) -> Trajectory:
    """Advance i psi_t = -Lap psi - (W + i calW) psi to t_end with the
    compact Crank-Nicolson step.

    Snapshot diagnostics: N = integral of rho, and the continuity residual
    max|Delta_t rho + div(j0 + J)| with j0 = 2 Im(conj(psi) psi') the
    bilinear current and J the model's nonlinear current, evaluated with a
    midpoint rule over the step that leaves the snapshot.  j0 = 2 rho dS of
    the midpoint field, which is 2 Im(conj(psi) psi') wherever rho > DENSITY_FLOOR.
    """
    grid = psi0.grid
    n_steps = max(1, round(cfg.t_end / cfg.dt))
    dt = cfg.t_end / n_steps

    def continuity_residual(p_before, p_after):
        rho_dot = (np.abs(p_after) ** 2 - np.abs(p_before) ** 2) / dt
        h_mid = HydroField(0.5 * (p_before + p_after), grid)
        # each part of div j is discretized at the order the scheme generates
        # it: the bilinear current to 4th order, the nonlinear current with
        # the same central stencil that defines calW.
        div_j0 = fieldgrid.derivative4(2.0 * h_mid.rho * h_mid.dS, grid)
        div_J = fieldgrid.derivative4(current_functional(model, h_mid), grid)
        return float(np.max(np.abs(rho_dot + div_j0 + div_J)))

    times = [0.0]
    states = [psi0]
    psi = psi0.values.astype(complex)  # a real psi0 steps as its complex form
    diagnostics = [{"N": particle_number(psi, grid)}]
    psi_prev = None  # the state before psi: none before psi0
    for k_step in range(1, n_steps + 1):
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                psi_prev, psi = psi, _step_crank_nicolson(model, psi, grid, dt, psi_prev)
        except FloatingPointError as exc:
            t = (k_step - 1) * dt
            raise BlowUp(t, f"non-finite values in the step from t={_when(t)} ({exc})") from None
        _check_state(psi, k_step * dt)
        if k_step == 1:  # snapshot 0's residual is that of the step leaving it
            diagnostics[0]["continuity_residual"] = continuity_residual(psi_prev, psi)
        if k_step % cfg.snapshot_every == 0 or k_step == n_steps:
            t = k_step * dt
            times.append(t)
            states.append(ComplexField(psi.copy(), grid))
            diagnostics.append(
                {
                    "N": particle_number(psi, grid),
                    "continuity_residual": continuity_residual(psi_prev, psi),
                }
            )
    return Trajectory(tuple(times), tuple(states), tuple(diagnostics))


# ---------------------------------------------------------------------------
# verification harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    max_rho_discrepancy: float
    phase_relation_residual: float
    current_collapse_residual: float
    N_drift_original: float
    N_drift_transformed: float
    flags: dict = field(default_factory=dict)

    def to_report(self) -> dict:
        return asdict(self)


# The phase comparison is restricted to points where rho exceeds this
# fraction of its maximum.  Below it the comparison is ill-conditioned, not
# merely noisy: sigma depends on the density (e.g. (D/2) ln rho), so a
# density error at the rho-discrepancy tolerance translates into a phase
# uncertainty ~ |dsigma/drho| * delta_rho that exceeds the phase tolerance
# once rho falls a few decades below its peak.
PHASE_MASK_RELATIVE = 1e-4


def verify_equivalence(
    model: ModelSpec,
    psi0: ComplexField,
    cfg: SolverConfig,
    transformed_override: Optional[ModelSpec] = None,
) -> EquivalenceReport:
    """Evolve psi under the model and phi = e^{i sigma[psi0]} psi0 under the
    transformed model, then compare:

    * density discrepancy between the two runs (gauge invariance of rho);
    * phase relation S~ - S - sigma constant in space (measured where
      rho exceeds a relative floor; the phase is meaningless in deep tails);
    * current collapse j0 of the gauge image of the evolved state against
      j0 + J of that same state (near-exact by the discrete inverse pair).

    phi_0 and the phases use the analysis generator, the collapse the
    discrete one (cumulative_integral, the exact inverse of derivative4).
    For a nonlocal generator the two are the same fourth-order
    antiderivative, computed once per snapshot; a local one's analysis form
    is its closed form.  A snapshot where no point passes the phase mask
    makes the phase residual inf and sets the flag ``phase_mask_empty``.
    """
    tr = gauge.transform_model(model)
    nonlocal_generator = not isinstance(tr.generator, gauge.Local)
    transformed = transformed_override if transformed_override is not None else tr.transformed
    h0 = fieldgrid.to_hydro(psi0)
    sigma0 = gauge.analysis_generator_field(model, h0)
    phi0 = gauge.apply_gauge(psi0, sigma0)

    traj_psi = integrate(model, psi0, cfg)
    traj_phi = integrate(transformed, phi0, cfg)

    rho_disc = 0.0
    phase_res = 0.0
    collapse_res = 0.0
    mask_floor_hit = mask_empty = False
    for st_psi, st_phi in zip(traj_psi.states, traj_phi.states):
        h_psi = fieldgrid.to_hydro(st_psi)
        h_phi = fieldgrid.to_hydro(st_phi)
        rho_disc = max(rho_disc, float(np.max(np.abs(h_psi.rho - h_phi.rho))))
        sigma_t = gauge.analysis_generator_field(model, h_psi)
        mask = (h_psi.rho > PHASE_MASK_RELATIVE * h_psi.rho.max()) & (
            h_phi.rho > PHASE_MASK_RELATIVE * h_phi.rho.max()
        )
        if not mask.all():
            mask_floor_hit = True
        rel = (h_phi.phase - h_psi.phase - sigma_t)[mask]
        if rel.size:
            phase_res = max(phase_res, float(np.max(np.abs(rel - rel.mean()))))
        else:  # the densities share no point to compare phases at
            phase_res = math.inf
            mask_empty = True
        # same-state current collapse, with the inverse-pair generator, which
        # for a nonlocal generator is sigma_t itself
        if nonlocal_generator:
            sigma_c = sigma_t
        else:
            sigma_c = gauge.discrete_generator_field(model, h_psi)
        phi_g = gauge.apply_gauge(st_psi, sigma_c)
        h_g = fieldgrid.to_hydro(phi_g)
        j_img = fieldgrid.bilinear_current(h_g)
        j_exp = fieldgrid.bilinear_current(h_psi) + current_functional(model, h_psi)
        collapse_res = max(collapse_res, float(np.max(np.abs(j_img - j_exp))))

    flags = dict(tr.flags)
    if transformed_override is not None:
        flags["transformed_override"] = True
    if mask_floor_hit:
        flags["phase_mask_active"] = True
    if mask_empty:
        flags["phase_mask_empty"] = True
    return EquivalenceReport(
        max_rho_discrepancy=rho_disc,
        phase_relation_residual=phase_res,
        current_collapse_residual=collapse_res,
        N_drift_original=traj_psi.n_drift(),
        N_drift_transformed=traj_phi.n_drift(),
        flags=flags,
    )


def log_diffusive_model(D: float) -> FiveFunction:
    """The real nonlinearity -(D^2/2)[lap rho / rho - (1/2)(grad rho / rho)^2]
    in five-function form: f3 = (D^2/4) rho^-2, f4 = -(D^2/2) rho^-1."""
    Dq = Fraction(D).limit_denominator(10**12)
    return FiveFunction(
        f3=RhoExpr.monomial(Dq * Dq / 4, -2),
        f4=RhoExpr.monomial(-Dq * Dq / 2, -1),
    )


@dataclass(frozen=True)
class LinearizationReport:
    kbar: float
    D: float
    max_rho_discrepancy: float

    def to_report(self) -> dict:
        return asdict(self)


def verify_linearization(
    D: float, psi0: ComplexField, cfg: SolverConfig
) -> LinearizationReport:
    """Direct nonlinear evolution of the logarithmic diffusive model vs the
    phase-scaled linear route chi = sqrt(rho) e^{iS/kbar} propagated exactly
    in Fourier space (i kbar chi_t + kbar^2 lap chi = 0), mapped back to rho.

    The linear propagator is exact in time, so the reported discrepancy
    bounds the nonlinear solver's error."""
    lin = equivalence.guerra_map(D)
    model = log_diffusive_model(D)
    traj = integrate(model, psi0, cfg)

    h0 = fieldgrid.to_hydro(psi0)
    chi0 = equivalence.guerra_field(h0, lin).values
    k = 2.0 * np.pi * np.fft.fftfreq(psi0.grid.n, d=psi0.grid.h)  # angular wavenumbers
    chi0_hat = np.fft.fft(chi0)
    disc = 0.0
    for t, st in zip(traj.times, traj.states):
        chi_t = np.fft.ifft(np.exp(-1j * lin.kbar * k * k * t) * chi0_hat)
        rho_lin = np.abs(chi_t) ** 2
        rho_direct = np.abs(st.values) ** 2
        disc = max(disc, float(np.max(np.abs(rho_direct - rho_lin))))
    return LinearizationReport(kbar=lin.kbar, D=float(D), max_rho_discrepancy=disc)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def export_trajectory(traj: Trajectory, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for i, st in enumerate(traj.states):
        fieldgrid.write_field_csv(os.path.join(out_dir, f"snapshot_{i:04d}.csv"), st)
    fieldgrid.write_csv_table(
        os.path.join(out_dir, "diagnostics.csv"),
        ["t", "N", "continuity_residual"],
        (
            traj.times,
            [d["N"] for d in traj.diagnostics],
            [d["continuity_residual"] for d in traj.diagnostics],
        ),
    )
