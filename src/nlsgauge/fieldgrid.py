"""1-D grids, complex <-> hydrodynamic field conversion, and the discrete
calculus (derivative, Laplacian, exact cumulative integral) shared by all
other modules.

The discrete derivative and the cumulative integral form an (almost) exact
algebraic inverse pair: ``derivative(cumulative_integral(f)) == f`` holds to
solve roundoff at every interior index.  This pairing is what makes the
current-collapse identity of the gauge engine hold to machine precision.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np
from scipy.linalg import solve_banded

from .errors import AllBelowFloor

FLOOR_DEFAULT = 1e-12

# Relative scale of the smooth tail taper used wherever a quantity divided by
# rho must be suppressed in the deep tail (nonlinear damping term, generator
# integrand).  See tail_taper.
TAPER_RELATIVE = 1e-9

Boundary = Literal["periodic", "dirichlet"]


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D grid.

    ``periodic`` grids store n points on [x_min, x_max) with spacing
    (x_max - x_min)/n; ``dirichlet`` (decaying) grids store n points on
    [x_min, x_max] with spacing (x_max - x_min)/(n - 1).
    """

    x_min: float
    x_max: float
    n: int
    boundary: Boundary = "dirichlet"

    def __post_init__(self) -> None:
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.n < 8:
            raise ValueError("need at least 8 grid points")
        if self.boundary not in ("periodic", "dirichlet"):
            raise ValueError(f"unknown boundary {self.boundary!r}")

    @property
    def h(self) -> float:
        if self.boundary == "periodic":
            return (self.x_max - self.x_min) / self.n
        return (self.x_max - self.x_min) / (self.n - 1)

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.h * np.arange(self.n)


@dataclass(frozen=True)
class ComplexField:
    values: np.ndarray
    grid: Grid1D

    def __post_init__(self) -> None:
        if len(self.values) != self.grid.n:
            raise ValueError("field length does not match grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite entries")


class HydroField:
    """Polar (hydrodynamic) representation: psi = sqrt(rho) * exp(i*phase).

    Built by :func:`to_hydro`, the field computes its phase from psi on the
    first read, so a caller that reads only rho pays for no polar
    decomposition; built directly, it holds the phase it is given.  The
    fourth-order derivatives of rho and the phase are likewise computed on
    first use and kept, so every term of a nonlinearity evaluated on the
    field shares them.  No array (psi, rho or phase) may be modified after
    the field is built."""

    def __init__(self, rho: np.ndarray, phase: np.ndarray, grid: Grid1D) -> None:
        if len(rho) != grid.n or len(phase) != grid.n:
            raise ValueError("field length does not match grid")
        self.rho = rho
        self.grid = grid
        self.__dict__["phase"] = phase  # taken by the cached property as its value

    @classmethod
    def _polar(cls, psi: ComplexField, rho: np.ndarray, valid: np.ndarray) -> HydroField:
        """The field of psi, with rho = |psi|^2 and ``valid`` = rho > floor."""
        h = cls.__new__(cls)
        h.rho = rho
        h.grid = psi.grid
        h._values = psi.values
        h._valid = valid
        return h

    @cached_property
    def phase(self) -> np.ndarray:
        return _held_phase(self._values, self._valid)

    @cached_property
    def drho(self) -> np.ndarray:
        return derivative4(self.rho, self.grid)

    @cached_property
    def dS(self) -> np.ndarray:
        return derivative4(self.phase, self.grid)

    @cached_property
    def laprho(self) -> np.ndarray:
        return laplacian4(self.rho, self.grid)

    @cached_property
    def lapS(self) -> np.ndarray:
        return laplacian4(self.phase, self.grid)


# ---------------------------------------------------------------------------
# discrete calculus
# ---------------------------------------------------------------------------


def derivative(f: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Second-order first derivative: central differences, with second-order
    one-sided stencils at the ends of a dirichlet grid and index wraparound on
    a periodic grid.  Annihilates constants exactly."""
    f = np.asarray(f, dtype=float)
    h = grid.h
    out = np.empty_like(f)
    if grid.boundary == "periodic":
        out[:] = (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * h)
        return out
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return out


def laplacian(f: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Second derivative: 3-point stencil, one-sided 4-point stencils at the
    ends of a dirichlet grid.  Annihilates constants exactly."""
    f = np.asarray(f, dtype=float)
    h2 = grid.h * grid.h
    out = np.empty_like(f)
    if grid.boundary == "periodic":
        out[:] = (np.roll(f, -1) - 2.0 * f + np.roll(f, 1)) / h2
        return out
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h2
    out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / h2
    out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / h2
    return out


# Fourth-order central stencils on the points i-2 .. i+2: row 0 is h d/dx,
# row 1 is h^2 d^2/dx^2.  derivative4, laplacian4 and the Crank-Nicolson step
# matrix and its right-hand side (solver) all read this one table.
CENTRAL4 = np.array([[1.0, -8.0, 0.0, 8.0, -1.0], [-1.0, 16.0, -30.0, 16.0, -1.0]]) / 12.0

# One-sided fourth-order rows for the two points at the left end of a
# dirichlet grid, on f[0], f[1], ...; the right end uses them mirrored (with
# a sign flip for the odd derivative).
_D4_EDGE = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0], [-3.0, -10.0, 18.0, -6.0, 1.0]]) / 12.0
_LAP4_EDGE = (
    np.array([[45.0, -154.0, 214.0, -156.0, 61.0, -10.0], [10.0, -15.0, -4.0, 14.0, -6.0, 1.0]])
    / 12.0
)


def _central4(f: np.ndarray, grid: Grid1D, order: int, edge: np.ndarray) -> np.ndarray:
    """The ``order``-th derivative of f with the row of :data:`CENTRAL4`,
    one correlation pass over the interior; a periodic grid wraps around, a
    dirichlet grid takes its two end points on each side from ``edge``."""
    f = np.asarray(f, dtype=float)
    stencil = CENTRAL4[order - 1]
    if grid.boundary == "periodic":
        out = np.correlate(np.concatenate((f[-2:], f, f[:2])), stencil)
    else:
        k = edge.shape[1]
        out = np.empty_like(f)
        out[2:-2] = np.correlate(f, stencil)
        out[:2] = edge @ f[:k]
        out[:-3:-1] = (-1) ** order * (edge @ f[: -k - 1 : -1])
    out /= grid.h**order
    return out


def derivative4(f: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Fourth-order first derivative (one-sided fourth-order stencils at the
    ends of a dirichlet grid).  Used for nonlinearity evaluation, where the
    extra accuracy keeps solver cross-comparisons well below tolerance; the
    second-order :func:`derivative` remains the grid's canonical operator
    (it is the one paired exactly with :func:`cumulative_integral`)."""
    return _central4(f, grid, 1, _D4_EDGE)


def laplacian4(f: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Fourth-order second derivative; companion of :func:`derivative4`."""
    return _central4(f, grid, 2, _LAP4_EDGE)


def cumulative_integral(f: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Discrete antiderivative F with F[0] = 0, defined as the algebraic
    right-inverse of :func:`derivative`.

    Dirichlet: solves the banded system {F[0] = 0, derivative(F)[i] = f[i]
    for i = 1..n-1}; the identity derivative(F) == f then holds to solve
    roundoff at every index except possibly index 0, where the residual is
    O(h^2) for smooth data (a square stencil that annihilates constants has
    rank n-1, so one row cannot be enforced for arbitrary data).

    Periodic: inverts the central-difference symbol on the zero-mean part via
    FFT and adds a linear ramp carrying the mean.  Exact (all indices) for
    zero-mean data on odd-n grids; a nonzero mean makes the true
    antiderivative non-periodic, which is precisely what the gauge module's
    quantization check polices.
    """
    f = np.asarray(f, dtype=float)
    n = grid.n
    h = grid.h

    if grid.boundary == "periodic":
        mean = f.mean()
        g = f - mean
        k = np.fft.fftfreq(n, d=1.0 / n)  # integer mode numbers
        sym = 1j * np.sin(2.0 * np.pi * k / n) / h  # symbol of the stencil
        ghat = np.fft.fft(g)
        with np.errstate(divide="ignore", invalid="ignore"):
            Fhat = np.where(np.abs(sym) > 1e-300, ghat / sym, 0.0)
        F = np.real(np.fft.ifft(Fhat))
        F = F - F[0] + mean * h * np.arange(n)
        return F

    # banded system: row 0 is the anchor F[0]=0; rows 1..n-2 are the central
    # stencil; row n-1 is the one-sided right-boundary stencil.
    ab = np.zeros((4, n))  # l=2, u=1 banded storage
    rhs = np.empty(n)
    ab[1, 0] = 1.0  # diagonal entry of row 0 (anchor)
    rhs[0] = 0.0
    # interior rows i: (-F[i-1] + F[i+1]) / 2h = f[i]
    two_h = 2.0 * h
    ab[0, 2:n] = 1.0 / two_h  # superdiagonal entries of rows 1..n-2
    ab[2, 0 : n - 2] = -1.0 / two_h  # subdiagonal entries of rows 1..n-2
    rhs[1 : n - 1] = f[1 : n - 1]
    # right boundary row: (F[n-3] - 4 F[n-2] + 3 F[n-1]) / 2h = f[n-1]
    ab[3, n - 3] = 1.0 / two_h
    ab[2, n - 2] += -4.0 / two_h
    ab[1, n - 1] = 3.0 / two_h
    rhs[n - 1] = f[n - 1]
    return solve_banded((2, 1), ab, rhs)


def tail_taper(rho: np.ndarray) -> np.ndarray:
    """Smooth weight ~1 where rho is appreciable, ~0 deep in the tails.

    Quantities of the form f/rho (the imaginary nonlinearity div(J)/(2 rho),
    the generator integrand J/(2 rho)) are dominated by floor artifacts and
    grid-scale roughness where rho has decayed many decades below its peak;
    left unweighted they seed sawtooth modes and spurious tail growth.  The
    weight rho^2/(rho^2 + eps^2) with eps = TAPER_RELATIVE * max(rho) turns
    such quantities off smoothly in the region carrying < 1e-9 of the peak
    density, where their physical effect is negligible by the same measure.
    """
    eps = TAPER_RELATIVE * float(np.max(rho))
    return rho * rho / (rho * rho + eps * eps)


# ---------------------------------------------------------------------------
# field conversion
# ---------------------------------------------------------------------------


def _unwrap(p: np.ndarray) -> np.ndarray:
    """``np.unwrap(p)`` bit for bit, with the correction (``mod``) computed
    only where a step is not smaller than pi; every other entry gets the
    ``+ 0.0`` of ``np.unwrap``'s zero correction (which turns -0.0 into
    0.0)."""
    dd = np.diff(p)
    jumps = np.flatnonzero(~(np.abs(dd) < np.pi))
    up = np.empty_like(p)
    up[0] = p[0]
    if jumps.size == 0:
        up[1:] = p[1:] + 0.0
        return up
    d = dd[jumps]
    dmod = np.mod(d + np.pi, 2.0 * np.pi) - np.pi
    np.copyto(dmod, np.pi, where=(dmod == -np.pi) & (d > 0))
    correct = np.zeros_like(dd)
    correct[jumps] = dmod - d
    up[1:] = p[1:] + correct.cumsum()
    return up


def to_hydro(psi: ComplexField, floor: float = FLOOR_DEFAULT) -> HydroField:
    """Polar decomposition with continuous phase.

    rho = |psi|^2 is computed here, and AllBelowFloor is raised here when no
    point has rho > floor; the phase is computed on its first read (see
    :class:`HydroField`).  It is unwrapped along the subsequence of points with
    rho > floor (anchored at the leftmost such point); where rho <= floor it
    is held from the nearest valid neighbor (the floor-and-hold rule).
    """
    if floor <= 0:
        raise ValueError("floor must be positive")
    rho = np.abs(psi.values) ** 2
    valid = rho > floor
    if not valid.any():
        raise AllBelowFloor("rho <= floor everywhere; phase undefined")
    return HydroField._polar(psi, rho, valid)


def _held_phase(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """The floor-and-hold phase of ``values``, with ``valid`` marking the
    points above the floor (at least one)."""
    idx = np.flatnonzero(valid)
    first, last = idx[0], idx[-1]
    if last - first + 1 == idx.size:
        # one contiguous valid run: each tail holds the phase of its end
        run = _unwrap(np.angle(values[first : last + 1]))
        if idx.size == len(values):
            return run
        phase = np.empty(len(values))
        phase[first : last + 1] = run
        phase[:first] = run[0]
        phase[last + 1 :] = run[-1]
        return phase
    phase = np.empty(len(values))
    phase[idx] = _unwrap(np.angle(values[idx]))
    # hold from the nearest valid neighbor (the left one on a tie); a gap
    # outside the valid points has the same point on both sides
    gaps = np.flatnonzero(~valid)
    after = np.searchsorted(idx, gaps)  # len(idx) past the last valid point
    left = idx[np.maximum(after - 1, 0)]
    right = idx[np.minimum(after, len(idx) - 1)]
    phase[gaps] = phase[np.where(gaps - left <= right - gaps, left, right)]
    return phase


def from_hydro(h: HydroField) -> ComplexField:
    values = np.sqrt(h.rho) * np.exp(1j * h.phase)
    return ComplexField(values=values, grid=h.grid)


def quantum_potential(h: HydroField, floor: float = FLOOR_DEFAULT) -> np.ndarray:
    """U_q = -laplacian(sqrt(rho)) / sqrt(rho)."""
    if not (h.rho > floor).any():
        raise AllBelowFloor("rho <= floor everywhere")
    amp = np.sqrt(np.maximum(h.rho, floor))
    return -laplacian(amp, h.grid) / amp


def bilinear_current(h: HydroField) -> np.ndarray:
    """j0 = 2 rho * derivative(S): the standard bilinear particle current."""
    return 2.0 * h.rho * derivative(h.phase, h.grid)


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

_CSV_HEADER = ["x", "rho", "S", "re_psi", "im_psi"]


def write_field_csv(path, psi: ComplexField, floor: float = FLOOR_DEFAULT) -> None:
    """One ``x, rho, S, re_psi, im_psi`` row per grid point, each value as
    ``%.17g``; the bytes are those of ``csv.writer`` (excel dialect: no value
    needs quoting, rows end in CRLF), formatted and written at once."""
    h = to_hydro(psi, floor)
    cols = np.column_stack((psi.grid.x, h.rho, h.phase, psi.values.real, psi.values.imag))
    rows = ("%.17g,%.17g,%.17g,%.17g,%.17g\r\n" * len(cols)) % tuple(cols.ravel().tolist())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_CSV_HEADER) + "\r\n" + rows)


def read_field_csv(path, boundary: Boundary = "dirichlet") -> ComplexField:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        rows = [[float(c) for c in row] for row in reader if row]
    if not rows or any(len(row) != len(_CSV_HEADER) for row in rows):
        raise ValueError(f"expected rows of {len(_CSV_HEADER)} values")
    arr = np.array(rows)
    x = arr[:, 0]
    n = len(x)
    h = (x[-1] - x[0]) / (n - 1)
    x_max = x[-1] if boundary == "dirichlet" else x[0] + n * h
    grid = Grid1D(x_min=x[0], x_max=x_max, n=n, boundary=boundary)
    return ComplexField(values=arr[:, 3] + 1j * arr[:, 4], grid=grid)
