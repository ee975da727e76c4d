"""1-D grids, complex -> hydrodynamic field conversion, and the discrete
calculus (derivatives, Laplacian, exact cumulative integral, cumulative
Simpson quadrature) shared by all other modules.

The discrete derivative and the cumulative integral form an (almost) exact
algebraic inverse pair: ``derivative(cumulative_integral(f)) == f`` holds to
solve roundoff at every interior index.  This pairing is what makes the
current-collapse identity of the gauge engine hold to machine precision.

The fourth-order stencils are kernels scaled by h or h^2 once per grid
(``Grid1D.stencils``): a derivative is one correlation pass and, on a
dirichlet grid, one product for the four edge points, with no division pass.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
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


class _cached:
    """``functools.cached_property`` without the lock it takes on a first
    read: the value is computed on the first read and stored in the
    instance's ``__dict__`` (a frozen dataclass's too), where later reads
    find it without calling the descriptor."""

    def __init__(self, fn) -> None:
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


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
        if not 0 < self.h < math.inf:
            raise ValueError(f"grid spacing must be finite and positive, got {self.h!r}")

    @_cached
    def h(self) -> float:
        if self.boundary == "periodic":
            return (self.x_max - self.x_min) / self.n
        return (self.x_max - self.x_min) / (self.n - 1)

    @_cached
    def stencils(self) -> tuple[tuple, tuple]:
        """The stencils of d/dx and d^2/dx^2, divided by h and h^2: each is
        its :data:`CENTRAL4` row, that row's (re, im)-pair form, and on a
        dirichlet grid the (4, 12) matrix of the one-sided rows over
        f[_EDGE_IN] (None on a periodic grid)."""
        out = []
        for order, one_sided in ((1, _D4_EDGE), (2, _LAP4_EDGE)):
            scale, k = self.h**order, one_sided.shape[1]
            edges = None if self.boundary == "periodic" else np.zeros((4, 12))
            if edges is not None:
                edges[:2, :k] = one_sided / scale
                edges[2:, 12 - k :] = (-1) ** order * one_sided[::-1, ::-1] / scale
            out.append((CENTRAL4[order - 1] / scale, CENTRAL4_PAIRS[order - 1] / scale, edges))
        return tuple(out)

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


def _check_floor(floor: float, error: type[Exception] = ValueError) -> None:
    if not (math.isfinite(floor) and floor > 0):
        raise error(f"floor must be finite and positive, got {floor!r}")


class HydroField:
    """Polar (hydrodynamic) representation: psi = sqrt(rho) * exp(i*phase).

    The field owns its density floor: ``rho_safe = max(rho, floor)`` is the
    density every division by rho reads (the generator, the currents and
    the nonlinearities of the model families), so no consumer takes a floor
    of its own.  ``floor`` must be finite and positive.

    Built directly from (rho, phase), the field holds the phase it is given,
    and its phase derivatives ``dS`` and ``lapS`` are the fourth-order
    stencils applied to that phase.  Built from psi by :func:`to_hydro`, it
    is a :class:`PolarField`, whose phase derivatives come from the current
    instead and whose phase is computed only when something reads it.
    ``rho_safe`` and the fourth-order derivatives of rho and the phase are
    computed on first use and kept, so every term of a nonlinearity
    evaluated on the field shares them.  No array (psi, rho or phase) may be
    modified after the field is built."""

    def __init__(
        self, rho: np.ndarray, phase: np.ndarray, grid: Grid1D, floor: float = FLOOR_DEFAULT
    ) -> None:
        if len(rho) != grid.n or len(phase) != grid.n:
            raise ValueError("field length does not match grid")
        _check_floor(floor)
        self.rho = rho
        self.grid = grid
        self.phase = phase
        self.floor = floor

    @_cached
    def rho_safe(self) -> np.ndarray:
        """max(rho, floor)."""
        return np.maximum(self.rho, self.floor)

    @_cached
    def drho(self) -> np.ndarray:
        return derivative4(self.rho, self.grid)

    @_cached
    def laprho(self) -> np.ndarray:
        return laplacian4(self.rho, self.grid)

    @_cached
    def dS(self) -> np.ndarray:
        return derivative4(self.phase, self.grid)

    @_cached
    def lapS(self) -> np.ndarray:
        return laplacian4(self.phase, self.grid)


class PolarField(HydroField):
    """The field of psi, an array of ``grid.n`` values.  Its one maximum of
    rho makes the checks of each field: AllBelowFloor when rho <= floor
    everywhere, a ValueError for a non-finite psi (looked for only when the
    maximum is not finite).  The floor is trusted: :func:`to_hydro` checks
    it on every call, the solver once per run (``SolverConfig``).

    Its phase derivatives are read from the current j = Im(conj(psi) psi')
    = rho dS, with psi' the fourth-order derivative of psi: dS = j / rho_safe
    and lapS = (j' - rho' dS) / rho_safe.  No phase is computed for them, so
    they stay defined through density zeros, where the phase jumps by pi and
    a floor-and-hold phase is a guess.  The phase itself (floor-and-hold,
    see :func:`to_hydro`) is computed on its first read, for reports and
    phase comparisons."""

    def __init__(self, values: np.ndarray, grid: Grid1D, floor: float) -> None:
        rho = np.abs(values) ** 2
        top = rho.max()
        if not floor < top < math.inf:
            if top <= floor:
                raise AllBelowFloor("rho <= floor everywhere; phase undefined")
            np.asarray_chkfinite(values)  # a ValueError for a non-finite psi
        self.rho = rho
        self.grid = grid
        self.floor = floor
        self._values = values

    @_cached
    def phase(self) -> np.ndarray:
        return _held_phase(self._values, self.rho > self.floor)

    @_cached
    def current(self) -> np.ndarray:
        """j = Im(conj(psi) psi') = rho dS."""
        psi = np.ascontiguousarray(self._values, dtype=complex)
        return (psi.conj() * _derivative4_complex(psi, self.grid)).imag

    @_cached
    def dS(self) -> np.ndarray:
        return self.current / self.rho_safe

    @_cached
    def lapS(self) -> np.ndarray:
        return (derivative4(self.current, self.grid) - self.drho * self.dS) / self.rho_safe


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


# Fourth-order central stencils on the points i-2 .. i+2: row 0 is h d/dx,
# row 1 is h^2 d^2/dx^2, scaled once per grid (Grid1D.stencils), whose rows
# derivative4, laplacian4, the current of a PolarField and the Crank-Nicolson
# step (solver) all read.  CENTRAL4_PAIRS is the same table spread over the
# (re, im) floats of a complex array, so one correlation differentiates both.
CENTRAL4 = np.array([[1.0, -8.0, 0.0, 8.0, -1.0], [-1.0, 16.0, -30.0, 16.0, -1.0]]) / 12.0
CENTRAL4_PAIRS = np.zeros((2, 2 * CENTRAL4.shape[1] - 1))
CENTRAL4_PAIRS[:, ::2] = CENTRAL4

# One-sided fourth-order rows for the two points at each end of a dirichlet
# grid, by derivative order, acting on f[0], f[1], ...; the right rows are
# these mirrored (negated for the odd derivative).  A grid gathers all four
# into one matrix, so one product of f[_EDGE_IN] fills out[_EDGE_OUT].
_D4_EDGE = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0], [-3.0, -10.0, 18.0, -6.0, 1.0]]) / 12.0
_LAP4_EDGE = (
    np.array([[45.0, -154.0, 214.0, -156.0, 61.0, -10.0], [10.0, -15.0, -4.0, 14.0, -6.0, 1.0]])
    / 12.0
)
_EDGE_IN, _EDGE_OUT = np.r_[0:6, -6:0], np.array([0, 1, -2, -1])


def _stencil(f: np.ndarray, grid: Grid1D, order: int) -> np.ndarray:
    """The ``order``-th derivative of f, a float or a contiguous complex
    array, with the grid's :attr:`Grid1D.stencils`: one correlation (over the
    (re, im) floats of a complex f), and on a dirichlet grid one product for
    the four edge points."""
    row, pairs, edges = grid.stencils[order - 1]
    mode = "same"
    if edges is None:  # periodic: the n full overlaps of the wrapped array
        f, mode = np.concatenate((f[-2:], f, f[:2])), "valid"
    if f.dtype == complex:
        out = np.correlate(f.view(float), pairs, mode).view(complex)
    else:
        out = np.correlate(f, row, mode)
    if edges is not None:
        out[_EDGE_OUT] = edges.dot(f[_EDGE_IN])
    return out


def _derivative4_complex(psi: np.ndarray, grid: Grid1D) -> np.ndarray:
    """:func:`derivative4` of a contiguous complex array."""
    return _stencil(psi, grid, 1)


def derivative4(f: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Fourth-order first derivative (one-sided fourth-order stencils at the
    ends of a dirichlet grid).  Used for nonlinearity evaluation, where the
    extra accuracy keeps solver cross-comparisons well below tolerance; the
    second-order :func:`derivative` remains the grid's canonical operator
    (it is the one paired exactly with :func:`cumulative_integral`)."""
    return _stencil(np.asarray(f, dtype=float), grid, 1)


def laplacian4(f: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Fourth-order second derivative; companion of :func:`derivative4`."""
    return _stencil(np.asarray(f, dtype=float), grid, 2)


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


def cumulative_simpson(f: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Antiderivative F with F[0] = 0 by cumulative Simpson quadrature, the
    values of ``scipy.integrate.cumulative_simpson(f, dx=grid.h,
    initial=0.0)``: each interval's integral is the quadratic through it and
    one neighbouring point, the right neighbour on intervals 0, 2, 4, ...,
    the left one on intervals 1, 3, 5, ... and on the last interval."""
    f = np.asarray(f, dtype=float)
    third = grid.h / 3
    with_right = third * (5 * f[:-2] / 4 + 2 * f[1:-1] - f[2:] / 4)  # [x_i, x_i+1]
    with_left = third * (5 * f[2:] / 4 + 2 * f[1:-1] - f[:-2] / 4)  # [x_i+1, x_i+2]
    parts = np.empty(len(f))
    parts[0] = 0.0
    parts[1:-1:2] = with_right[::2]
    parts[2::2] = with_left[::2]
    parts[-1] = with_left[-1]
    return np.cumsum(parts)


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


def to_hydro(psi: ComplexField, floor: float = FLOOR_DEFAULT) -> PolarField:
    """Polar decomposition with continuous phase: the :class:`PolarField`
    of psi, after checking the floor (a ValueError unless it is finite and
    positive).  AllBelowFloor is raised when no point has rho > floor.

    The phase is unwrapped along the subsequence of points with rho > floor
    (anchored at the leftmost such point); where rho <= floor it is held
    from the nearest valid neighbor (the floor-and-hold rule)."""
    _check_floor(floor)
    return PolarField(psi.values, psi.grid, floor)


def _held_phase(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """The floor-and-hold phase of ``values``, with ``valid`` marking the
    points above the floor (at least one)."""
    idx = np.flatnonzero(valid)
    phase = np.empty(len(values))
    phase[idx] = np.unwrap(np.angle(values[idx]))
    # hold from the nearest valid neighbor (the left one on a tie); a gap
    # outside the valid points has the same point on both sides
    gaps = np.flatnonzero(~valid)
    after = np.searchsorted(idx, gaps)  # len(idx) past the last valid point
    left = idx[np.maximum(after - 1, 0)]
    right = idx[np.minimum(after, len(idx) - 1)]
    phase[gaps] = phase[np.where(gaps - left <= right - gaps, left, right)]
    return phase


def bilinear_current(h: HydroField) -> np.ndarray:
    """j0 = 2 rho * derivative(S): the standard bilinear particle current."""
    return 2.0 * h.rho * derivative(h.phase, h.grid)


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def write_csv_table(path, header: list[str], columns) -> None:
    """One row per entry of the equal-length ``columns``, under ``header``:
    each value as ``%.17g`` (which reads back exactly), comma-separated,
    rows ending in CRLF (the bytes of ``csv.writer``'s excel dialect, since
    no value needs quoting), formatted and written at once."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + (row * len(table)) % tuple(table.ravel().tolist()))


def read_csv_table(path, header: list[str], boundary: Boundary) -> tuple[Grid1D, np.ndarray]:
    """The grid read back from the x column (the first) of a
    :func:`write_csv_table` file, and the table as an (n, columns) array.  A
    wrong header, no rows, a row of the wrong length, a non-number or an
    unevenly spaced x column is a ValueError."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != header:
            raise ValueError(f"unexpected CSV header {found!r}")
        rows = [[float(c) for c in row] for row in reader if row]
    if not rows or any(len(row) != len(header) for row in rows):
        raise ValueError(f"expected rows of {len(header)} values")
    table = np.array(rows)
    x = table[:, 0]
    n = len(x)
    h = (x[-1] - x[0]) / max(n - 1, 1)  # one row: x_max = x_min, which Grid1D rejects
    x_max = x[-1] if boundary == "dirichlet" else x[0] + n * h
    grid = Grid1D(x_min=x[0], x_max=x_max, n=n, boundary=boundary)
    if not np.max(np.abs(x - grid.x)) <= 1e-6 * grid.h:
        raise ValueError("the x column is not evenly spaced")
    return grid, table


_CSV_HEADER = ["x", "rho", "S", "re_psi", "im_psi"]


def write_field_csv(path, psi: ComplexField, floor: float = FLOOR_DEFAULT) -> None:
    """One ``x, rho, S, re_psi, im_psi`` row per grid point (see
    :func:`write_csv_table`)."""
    h = to_hydro(psi, floor)
    write_csv_table(
        path, _CSV_HEADER, (psi.grid.x, h.rho, h.phase, psi.values.real, psi.values.imag)
    )


def read_field_csv(path, boundary: Boundary = "dirichlet") -> ComplexField:
    grid, table = read_csv_table(path, _CSV_HEADER, boundary)
    return ComplexField(values=table[:, 3] + 1j * table[:, 4], grid=grid)
