"""1-D grids, complex -> hydrodynamic field conversion, and the discrete
calculus (derivatives, Laplacian, exact cumulative integral) shared by all
other modules.

There is one set of field stencils, the fourth-order :func:`derivative4`
and :func:`laplacian4` (the Crank-Nicolson step's kinetic operator is the
compact Laplacian of ``solver``).  Every field's derivatives are these,
cached on its :class:`HydroField`, which also holds the one density clamp
(``rho_safe``, at the fixed :data:`DENSITY_FLOOR`).
:func:`cumulative_integral` is the right inverse of :func:`derivative4`:
``derivative4(cumulative_integral(f)) == f`` holds to solve roundoff at
every index but the anchor (a summation-by-parts pair), which the
current-collapse check (:func:`bilinear_current`) and the external-field
two-route check measure, and the antiderivative is fourth-order accurate.

The stencils are kernels scaled by h or h^2 once per grid
(``Grid1D.stencils``): a derivative is one correlation pass and, on a
dirichlet grid, one product for the four edge points, with no division pass.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs
from scipy.linalg import solve_banded  # noqa: F401  (bench/spans.py tells it from solver's)

from .errors import AllBelowFloor

# The density floor of every field (rho_safe and the floor-and-hold phase).
DENSITY_FLOOR = 1e-12

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
        h2 = self.h * self.h  # the stencils divide their coefficients by h^2
        if not (0 < h2 < math.inf and _STENCIL_MAX / h2 < math.inf):
            raise ValueError(
                "grid spacing must be finite and positive, as must h^2 and the stencils "
                f"over h^2, got {self.h!r}"
            )

    @_cached
    def h(self) -> float:
        if self.boundary == "periodic":
            return (self.x_max - self.x_min) / self.n
        return (self.x_max - self.x_min) / (self.n - 1)

    @_cached
    def stencils(self) -> tuple[tuple, tuple]:
        """The stencils of d/dx and d^2/dx^2 that every field derivative
        reads, divided by h and h^2: each is its :data:`CENTRAL4` row, that
        row's (re, im)-pair form, and on a dirichlet grid the (4, 12) matrix
        of the one-sided rows over f[_EDGE_IN] (None on a periodic grid).
        The Crank-Nicolson step's kinetic operator is not among them: it is
        the compact Laplacian of ``solver``."""
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
    def antiderivative_band(self) -> np.ndarray:
        """:func:`derivative4` on a dirichlet grid as solve_banded's (4, 3)
        banded matrix, ``a[i, j] == band[3 + i - j, j]``, with row 0 the
        anchor F[0] = 0: the system :func:`cumulative_integral` solves.
        Built on each read; the grid keeps only its factorization,
        :attr:`antiderivative_band_lu`."""
        row, _, edges = self.stencils[0]
        n, k = self.n, _D4_EDGE.shape[1]
        band = np.zeros((8, n))
        for off in range(-2, 3):  # a[i, i + off] sits in row 3 - off, column i + off
            band[3 - off, max(off, 0) : n + min(off, 0)] = row[2 + off]
        left, right = np.arange(k), np.arange(n - k, n)  # the one-sided rows' columns
        for i, cols, coefs in (
            (1, left, edges[1, :k]),
            (n - 2, right, edges[2, -k:]),
            (n - 1, right, edges[3, -k:]),
        ):
            band[3 + i - cols, cols] = coefs
        band[[3, 2, 1], [0, 1, 2]] = 1.0, 0.0, 0.0  # row 0: the anchor F[0] = 0
        return band

    @_cached
    def antiderivative_band_lu(self) -> tuple:
        """LAPACK gbtrf's LU factorization of :attr:`antiderivative_band`
        (in gbsv layout, four leading rows for the fill-in), its pivots and
        the gbtrs that solves with them: the factorization that
        ``solve_banded((4, 3), band, rhs)`` makes on every call, made once
        per grid."""
        ab = np.zeros((12, self.n))
        ab[4:] = self.antiderivative_band
        gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
        lu, piv, info = gbtrf(ab, 4, 3, overwrite_ab=True)
        if info > 0:
            raise LinAlgError("singular matrix")
        return lu, piv, gbtrs

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
    """Polar (hydrodynamic) form psi = sqrt(rho) * exp(i*phase) of psi, an
    array of ``grid.n`` values.  Its one maximum of rho makes the checks of
    each field: AllBelowFloor when rho <= DENSITY_FLOOR everywhere, a
    ValueError for a non-finite psi (looked for only when the maximum is not
    finite) or a finite one whose density overflows.

    Every division by rho reads ``rho_safe = max(rho, DENSITY_FLOOR)`` (or
    multiplies by its reciprocal ``rho_inv``), and no consumer clamps rho.

    The phase derivatives come from the current j = Im(conj(psi) psi') =
    rho dS, with psi' the fourth-order derivative of psi: dS = j / rho_safe
    and lapS = (j' - rho' dS) / rho_safe.  They need no phase, so they stay
    defined through density zeros, where the phase jumps by pi and a
    floor-and-hold phase is a guess.  The phase itself (see :func:`to_hydro`)
    is for reports and phase comparisons.  Each is computed on first read
    and kept, so the terms of a nonlinearity share it.  No array may be
    modified after the field is built."""

    def __init__(self, values: np.ndarray, grid: Grid1D) -> None:
        if len(values) != grid.n:
            raise ValueError("field length does not match grid")
        rho = np.abs(values) ** 2
        top = rho.max()
        if not DENSITY_FLOOR < top < math.inf:
            if top <= DENSITY_FLOOR:
                raise AllBelowFloor("rho <= floor everywhere; phase undefined")
            np.asarray_chkfinite(values)  # a ValueError for a non-finite psi
            raise ValueError("the density |psi|^2 overflows")
        self.rho = rho
        self.grid = grid
        self._values = values

    @_cached
    def rho_safe(self) -> np.ndarray:
        """max(rho, DENSITY_FLOOR)."""
        return np.maximum(self.rho, DENSITY_FLOOR)

    @_cached
    def rho_inv(self) -> np.ndarray:
        """1 / rho_safe."""
        return 1.0 / self.rho_safe

    @_cached
    def drho(self) -> np.ndarray:
        return derivative4(self.rho, self.grid)

    @_cached
    def laprho(self) -> np.ndarray:
        return laplacian4(self.rho, self.grid)

    @_cached
    def phase(self) -> np.ndarray:
        return _held_phase(self._values, self.rho > DENSITY_FLOOR)

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


# Fourth-order central stencils on the points i-2 .. i+2: row 0 is h d/dx,
# row 1 is h^2 d^2/dx^2, scaled once per grid (Grid1D.stencils), whose rows
# derivative4, laplacian4 and the current of a HydroField read (the
# Crank-Nicolson step's kinetic operator is solver's compact Laplacian).
# CENTRAL4_PAIRS is the same table spread over the (re, im) floats of a
# complex array, so one correlation differentiates both.
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
_STENCIL_MAX = float(max(np.abs(s).max() for s in (CENTRAL4, _D4_EDGE, _LAP4_EDGE)))


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
    ends of a dirichlet grid): every field's operator, the solver's, the
    nonlinearities' and the coupled and external-field numerics'."""
    return _stencil(np.asarray(f, dtype=float), grid, 1)


def laplacian4(f: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Fourth-order second derivative; companion of :func:`derivative4`."""
    return _stencil(np.asarray(f, dtype=float), grid, 2)


def cumulative_integral(f: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Discrete antiderivative F with F[0] = 0, the right inverse of
    :func:`derivative4`: derivative4(F) == f to solve roundoff at every
    index but 0, and F is a fourth-order accurate integral of f.

    Dirichlet: solves {F[0] = 0, derivative4(F)[i] = f[i] for i >= 1}, the
    grid's ``antiderivative_band`` (derivative4 has rank n-1, since it
    annihilates constants, so the row of index 0 gives way to the anchor),
    with the grid's ``antiderivative_band_lu``: one gbtrs call, the numbers
    of ``solve_banded((4, 3), band, rhs)`` without factorizing the band
    again.  A non-finite f is a ValueError.

    Periodic: divides the zero-mean part by the symbol of derivative4's
    central row via FFT and adds a linear ramp carrying the mean.  Exact
    (all indices) for zero-mean data on odd-n grids; on even-n grids the
    Nyquist mode, which derivative4 annihilates, is dropped.  A nonzero
    mean makes the true antiderivative non-periodic, which is precisely what
    the gauge module's quantization check polices.
    """
    f = np.asarray(f, dtype=float)
    n = grid.n
    if grid.boundary == "periodic":
        mean = f.mean()
        k = np.arange(n)
        theta = 2.0 * np.pi * k / n
        sym = np.exp(1j * np.outer(theta, np.arange(-2, 3))) @ grid.stencils[0][0]
        live = 2 * k % n != 0  # the symbol vanishes on the mean and the Nyquist mode
        Fhat = np.zeros(n, dtype=complex)
        Fhat[live] = np.fft.fft(f - mean)[live] / sym[live]
        F = np.real(np.fft.ifft(Fhat))
        return F - F[0] + mean * grid.h * k
    rhs = np.asarray_chkfinite(f).copy()
    rhs[0] = 0.0
    lu, piv, gbtrs = grid.antiderivative_band_lu
    F, _ = gbtrs(lu, 4, 3, rhs, piv, overwrite_b=True)
    return F


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


def to_hydro(psi: ComplexField) -> HydroField:
    """Polar decomposition with continuous phase: the :class:`HydroField`
    of psi.  AllBelowFloor is raised when no point has rho > DENSITY_FLOOR.

    The phase is unwrapped along the subsequence of points above the floor
    (anchored at the leftmost such point); at or below it the phase is held
    from the nearest valid neighbor (the floor-and-hold rule)."""
    return HydroField(psi.values, psi.grid)


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
    """j0 = 2 rho * derivative4(S): the standard bilinear particle current,
    differentiated with the partner of :func:`cumulative_integral`, so that
    a generator from it collapses the current to solve roundoff."""
    return 2.0 * h.rho * derivative4(h.phase, h.grid)


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


_CSV_HEADER = ["x", "rho", "S", "re_psi", "im_psi"]


def write_field_csv(path, psi: ComplexField) -> None:
    """One ``x, rho, S, re_psi, im_psi`` row per grid point (see
    :func:`write_csv_table`)."""
    h = to_hydro(psi)
    write_csv_table(
        path, _CSV_HEADER, (psi.grid.x, h.rho, h.phase, psi.values.real, psi.values.imag)
    )


def read_field_csv(path, boundary: Boundary = "dirichlet") -> ComplexField:
    """The state of a :func:`write_field_csv` file, on the grid read back
    from its x column.  A wrong header, no rows, a row of the wrong length, a
    non-number or an unevenly spaced x column is a ValueError."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != _CSV_HEADER:
            raise ValueError(f"unexpected CSV header {found!r}")
        rows = [[float(c) for c in row] for row in reader if row]
    if not rows or any(len(row) != len(_CSV_HEADER) for row in rows):
        raise ValueError(f"expected rows of {len(_CSV_HEADER)} values")
    table = np.array(rows)
    x = table[:, 0]
    n = len(x)
    x_min, x_last = float(x[0]), float(x[-1])  # Python floats overflow to inf with no warning
    h = (x_last - x_min) / max(n - 1, 1)  # one row: x_max = x_min, which Grid1D rejects
    x_max = x_last if boundary == "dirichlet" else x_min + n * h
    grid = Grid1D(x_min=x_min, x_max=x_max, n=n, boundary=boundary)
    if not np.max(np.abs(x - grid.x)) <= 1e-6 * grid.h:
        raise ValueError("the x column is not evenly spaced")
    return ComplexField(values=table[:, 3] + 1j * table[:, 4], grid=grid)
