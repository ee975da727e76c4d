"""Coupled-system engine: multiplet conservation analysis, generator vectors,
and transformation to a purely Hermitian nonlinearity.

The model class is the p-component system

    i dpsi_j/dt + a_j lap psi_j
      + [ sum_i rho_i (b_ij dS_j/dx + c_ij dS_i/dx) + f_j(rho) ] psi_j
      + i [ sum_i (d_ij (rho_i/rho_j) drho_j/dx + e_ij drho_i/dx) ] psi_j = 0,

with exact-rational matrices b, c, d, e and quadratic potentials
f_j = sum_ik lambda_jik rho_i rho_k.  Depending on the structure of d and e
the system conserves each density, only the total density, or per-multiplet
sums; in the conserving cases a vector of generators sigma_j removes the
anti-Hermitian part, leaving a real diagonal block plus (when only group sums
are conserved) an off-diagonal Hermitian block assembled from the functionals
F_j.

The exact algebra runs on Python int pairs (numerator, denominator): each
call reads the model's Fractions once, carries every coefficient as an
unreduced pair and builds it as a Fraction once, with one gcd.  Fractions
appear only at the boundary, in the model and in the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Integral
from typing import Union

import numpy as np

from .errors import NonConservingModel
from .fieldgrid import HydroField, _cached

_ZERO = Fraction(0)


def _mat(rows, p) -> tuple[tuple[Fraction, ...], ...]:
    out = tuple(tuple(Fraction(v) for v in row) for row in rows)
    if len(out) != p or any(len(r) != p for r in out):
        raise ValueError(f"matrix must be {p}x{p}")
    return out


def _pairs(mat) -> list[list[tuple[int, int]]]:
    """A matrix of Fractions as int pairs (numerator, denominator)."""
    return [[(v.numerator, v.denominator) for v in row] for row in mat]


def _sym(mat) -> tuple[tuple[Fraction, ...], ...]:
    """(mat + mat^T) / 2 of a matrix of int pairs (n, d), d != 0, as
    Fractions: the diagonal is copied, and each unordered pair (i, k) is
    averaged once into one Fraction that both of its places share."""
    out = [[None] * len(mat) for _ in mat]
    for i, row in enumerate(mat):
        out[i][i] = Fraction(*row[i])
        for k in range(i):
            (n, d), (m, e) = row[k], mat[k][i]
            out[i][k] = out[k][i] = Fraction(n * e + m * d, 2 * d * e)
    return tuple(map(tuple, out))


def _dot2(x, y, z, w) -> tuple[int, int]:
    """x y + z w on int pairs, unreduced."""
    return x[0] * y[0] * z[1] * w[1] + z[0] * w[0] * x[1] * y[1], x[1] * y[1] * z[1] * w[1]


@dataclass(frozen=True)
class CoupledModel:
    """p-component model; fpot holds one symmetric coefficient matrix per
    component j, with f_j = sum_ik fpot[j][i][k] rho_i rho_k (coefficients
    canonically symmetrized in i,k)."""

    p: int
    multiplets: tuple[tuple[int, ...], ...]  # partition of 0..p-1
    a: tuple[Fraction, ...]
    b: tuple[tuple[Fraction, ...], ...]
    c: tuple[tuple[Fraction, ...], ...]
    d: tuple[tuple[Fraction, ...], ...]
    e: tuple[tuple[Fraction, ...], ...]
    fpot: tuple[tuple[tuple[Fraction, ...], ...], ...]

    @staticmethod
    def make(p, a, b, c, d, e, fpot=None, multiplets=None) -> "CoupledModel":
        if p < 1:
            raise ValueError(f"p must be a positive integer, got {p!r}")
        a = tuple(Fraction(v) for v in a)
        if len(a) != p or any(v == 0 for v in a):
            raise ValueError("need p nonzero diffusion coefficients")
        if multiplets is None:
            multiplets = [list(range(p))]
        lists = (list, tuple)
        if not isinstance(multiplets, lists) or not all(isinstance(g, lists) for g in multiplets):
            raise ValueError(f"multiplets must be a list of index lists, got {multiplets!r}")
        groups = tuple(tuple(g) for g in multiplets)
        if any(isinstance(i, bool) or not isinstance(i, Integral) for g in groups for i in g):
            raise ValueError(f"multiplets must hold integer indices, got {multiplets!r}")
        groups = tuple(tuple(int(i) for i in g) for g in groups)
        seen = sorted(i for g in groups for i in g)
        if seen != list(range(p)):
            raise ValueError("multiplets must partition 0..p-1")
        if fpot is None:
            fpot = [[[0] * p for _ in range(p)] for _ in range(p)]
        if len(fpot) != p:
            raise ValueError(f"fpot must hold {p} matrices, got {len(fpot)}")
        return CoupledModel(
            p=p,
            multiplets=groups,
            a=a,
            b=_mat(b, p),
            c=_mat(c, p),
            d=_mat(d, p),
            e=_mat(e, p),
            fpot=tuple(_sym(_pairs(_mat(m, p))) for m in fpot),
        )

    @staticmethod
    def from_wave_params(p, a, alpha, beta, gamma, eps, fpot=None, multiplets=None):
        """Constructor from the symmetric/antisymmetric splitting
        b = alpha - beta, c = gamma - eps, d = (alpha+beta)/2, e = (gamma+eps)/2."""
        al, be = _mat(alpha, p), _mat(beta, p)
        ga, ep = _mat(gamma, p), _mat(eps, p)
        sub = lambda m, n: [[m[i][j] - n[i][j] for j in range(p)] for i in range(p)]
        avg = lambda m, n: [[(m[i][j] + n[i][j]) / 2 for j in range(p)] for i in range(p)]
        return CoupledModel.make(
            p, a, sub(al, be), sub(ga, ep), avg(al, be), avg(ga, ep), fpot, multiplets
        )

    @_cached
    def group_index(self) -> tuple[int, ...]:
        """group_index[i] = k iff component i is in multiplets[k]."""
        return tuple(k for _, k in sorted((i, k) for k, g in enumerate(self.multiplets) for i in g))


# ---------------------------------------------------------------------------
# conservation analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerSpecies:
    pass


@dataclass(frozen=True)
class TotalOnly:
    pass


@dataclass(frozen=True)
class Custom:
    multiplets: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class NonConserving:
    witness: tuple[int, int]


ConservationStructure = Union[PerSpecies, TotalOnly, Custom, NonConserving]


def conservation_structure(cm: CoupledModel) -> ConservationStructure:
    """PerSpecies iff d_ij = e_ij off the diagonal; otherwise check, within
    each declared multiplet, the symmetry d_ij + e_ji = d_ji + e_ij and,
    across multiplets, d_ij = e_ij."""
    return _structure(cm, _pairs(cm.d), _pairs(cm.e))


def _structure(cm: CoupledModel, d, e) -> ConservationStructure:
    """:func:`conservation_structure` on the lowest-terms int pairs d, e of cm."""
    p, grp = cm.p, cm.group_index
    off = [(i, j) for i in range(p) for j in range(p) if i != j]
    if all(d[i][j] == e[i][j] for i, j in off):  # equal pairs are equal values
        return PerSpecies()
    for i, j in off:
        if grp[i] != grp[j]:
            if d[i][j] != e[i][j]:
                return NonConserving((i, j))
            continue
        # d_ij + e_ji = d_ji + e_ij, cross-multiplied by the positive denominators
        (n1, d1), (n2, d2), (n3, d3), (n4, d4) = d[i][j], e[j][i], d[j][i], e[i][j]
        if (n1 * d2 + n2 * d1) * d3 * d4 != (n3 * d4 + n4 * d3) * d1 * d2:
            return NonConserving((i, j))
    return TotalOnly() if len(cm.multiplets) == 1 else Custom(cm.multiplets)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpeciesGenerator:
    """sigma = sum_i weights[i] * int^x rho_i dx'.

    ``transform_coupled(cm).generators[j]`` is component j's generator,
    sigma_j = -(1/2 a_j) sum_i lambda_ij int rho_i, lambda_ij = d_ij + e_ij."""

    weights: tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# transformation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HermitianResult:
    """Coefficient data of the transformed nonlinearity.

    Diagonal entry j:  sum_i rho_i (mu_ij dS~_j + nu_ij dS~_i)
                       + sum_ik omega[j][i][k] rho_i rho_k + f_j + R_j;
    off-diagonal (within a multiplet, between distinct components l, m):
        i (F_l - F_m) / (2 sqrt(rho_l rho_m)) * exp(i (S~_l - S~_m)),
    with F_j = sum_i g_ij (rho_i drho_j - rho_j drho_i), g = d - e.

    The numerical assembly takes one :class:`HydroField` per component, on
    one grid, and reads its fourth-order ``drho``, current-based ``dS``,
    ``rho_safe`` (the off-diagonal denominator) and ``phase``.
    """

    model: CoupledModel
    mu: tuple[tuple[Fraction, ...], ...]
    nu: tuple[tuple[Fraction, ...], ...]
    omega: tuple[tuple[tuple[Fraction, ...], ...], ...]
    rpot: tuple[tuple[tuple[Fraction, ...], ...], ...]  # R_j coefficient matrices
    gmat: tuple[tuple[Fraction, ...], ...]  # d - e
    generators: tuple[SpeciesGenerator, ...]
    flags: dict = field(default_factory=dict)

    # -- numerical assembly --------------------------------------------------

    def _n(self, fields: list[HydroField]) -> int:
        """The size of the one grid of ``fields``, one field per component."""
        if len(fields) != self.model.p or any(h.grid != fields[0].grid for h in fields):
            raise ValueError(f"need {self.model.p} fields on one grid")
        return fields[0].grid.n

    def evaluate_F(self, fields: list[HydroField]) -> list[np.ndarray]:
        n, out = self._n(fields), []
        for j, hj in enumerate(fields):
            F = np.zeros(n)
            for i, hi in enumerate(fields):
                if g := self.gmat[i][j]:
                    F = F + float(g) * (hi.rho * hj.drho - hj.rho * hi.drho)
            out.append(F)
        return out

    def evaluate_diagonal(self, fields: list[HydroField]) -> list[np.ndarray]:
        n, out, fpot = self._n(fields), [], self.model.fpot
        for j, hj in enumerate(fields):
            acc = np.zeros(n)
            for i, hi in enumerate(fields):
                acc = acc + hi.rho * (float(self.mu[i][j]) * hj.dS + float(self.nu[i][j]) * hi.dS)
                for k, hk in enumerate(fields):
                    if coeff := self.omega[j][i][k] + fpot[j][i][k]:
                        acc = acc + float(coeff) * hi.rho * hk.rho
            out.append(acc)
        return out

    def assemble_matrix(self, fields: list[HydroField]) -> np.ndarray:
        """Full transformed nonlinearity matrix, shape (n, p, p), Hermitian in
        the last two axes at every grid point."""
        p, grp = self.model.p, self.model.group_index
        out = np.zeros((self._n(fields), p, p), dtype=complex)
        for j, diag in enumerate(self.evaluate_diagonal(fields)):
            out[:, j, j] = diag
        F = self.evaluate_F(fields)
        for l, hl in enumerate(fields):
            for m, hm in enumerate(fields):
                if l == m or grp[l] != grp[m]:
                    continue
                denom = 2.0 * np.sqrt(hl.rho_safe * hm.rho_safe)
                out[:, l, m] = 1j * (F[l] - F[m]) / denom * np.exp(1j * (hl.phase - hm.phase))
        return out

    def to_report(self) -> dict:
        tostr = lambda m: [[str(v) for v in row] for row in m]
        return {
            "mu": tostr(self.mu),
            "nu": tostr(self.nu),
            "omega": [tostr(m) for m in self.omega],
            "R": [tostr(m) for m in self.rpot],
            "F_coefficients": tostr(self.gmat),
            "generator_weights": [[str(w) for w in g.weights] for g in self.generators],
            "flags": dict(self.flags),
        }


def transform_coupled(cm: CoupledModel) -> HermitianResult:
    d, e = _pairs(cm.d), _pairs(cm.e)
    verdict = _structure(cm, d, e)
    if isinstance(verdict, NonConserving):
        raise NonConservingModel(
            f"neither species nor multiplet densities conserved; witness pair {verdict.witness}"
        )
    p, rng, grp = cm.p, range(cm.p), cm.group_index
    (a,), b, c = _pairs([cm.a]), _pairs(cm.b), _pairs(cm.c)
    lam = [  # lambda = d + e
        [(dn * ed + en * dd, dd * ed) for (dn, dd), (en, ed) in zip(*rows)] for rows in zip(d, e)
    ]
    mu = tuple(
        tuple(Fraction(bn * ld + ln * bd, bd * ld) for (bn, bd), (ln, ld) in zip(brow, lrow))
        for brow, lrow in zip(b, lam)
    )
    # nu_ij = c_ij - (a_i / a_j) lam_ij
    nu = tuple(
        tuple(
            Fraction(cn * ad * an_j * ld - cd * an * ad_j * ln, cd * ad * an_j * ld)
            for (cn, cd), (ln, ld), (an_j, ad_j) in zip(crow, lrow, a)
        )
        for crow, lrow, (an, ad) in zip(c, lam, a)
    )
    # omega_j[i][k] = (lam_ij lam_kj + 2 b_ij lam_kj + 2 (a_j/a_i) c_ij lam_ki) / (4 a_j)
    #               = u_ij lam_kj + v_ij lam_ki, symmetrized in (i, k)
    u = [
        [((ln * bd + 2 * bn * ld) * ad, 4 * ld * bd * an) for (bn, bd), (ln, ld), (an, ad) in row]
        for row in (zip(brow, lrow, a) for brow, lrow in zip(b, lam))
    ]
    v = [[(cn * ad, 2 * cd * an) for cn, cd in crow] for crow, (an, ad) in zip(c, a)]
    omega = tuple(
        _sym([[_dot2(u[i][j], lam[k][j], v[i][j], lam[k][i]) for k in rng] for i in rng])
        for j in rng
    )
    # R_j = 0 for per-species conservation; otherwise the canonical choice
    # R_j = - sum_{i != j, same multiplet} lambda_ij rho_i rho_j, whose
    # symmetrization is -lambda_ij / 2 at (i, j) and (j, i).
    rpot = [[[_ZERO] * p for _ in rng] for _ in rng]
    if not isinstance(verdict, PerSpecies):
        for j in rng:
            for i in rng:
                if i != j and grp[i] == grp[j]:
                    ln, ld = lam[i][j]
                    rpot[j][i][j] = rpot[j][j][i] = Fraction(-ln, 2 * ld)
    gmat = tuple(
        tuple(Fraction(dn * ed - en * dd, dd * ed) for (dn, dd), (en, ed) in zip(*rows))
        for rows in zip(d, e)
    )
    # sigma_j weights -lambda_ij / (2 a_j)
    generators = tuple(
        SpeciesGenerator(tuple(Fraction(-row[j][0] * ad, 2 * row[j][1] * an) for row in lam))
        for j, (an, ad) in enumerate(a)
    )
    flags = {
        "conservation": type(verdict).__name__,
        "offdiag_denominator": "2*sqrt(rho_l*rho_m) (component-count factor omitted)",
        "offdiag_phases": "transformed",
    }
    return HermitianResult(
        model=cm,
        mu=mu,
        nu=nu,
        omega=omega,
        rpot=tuple(tuple(map(tuple, m)) for m in rpot),
        gmat=gmat,
        generators=generators,
        flags=flags,
    )


# ---------------------------------------------------------------------------
# special reductions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecoupledLinear:
    pass


@dataclass(frozen=True)
class JackiwLike:
    eta: tuple[Fraction, ...]


@dataclass(frozen=True)
class CurrentCoupled:
    eta: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class General:
    pass


def _fpot_matches(cm: CoupledModel, table) -> bool:
    """Exact comparison of f_j coefficients after symmetrization in (i, k)."""
    return all(
        _sym(_pairs(_mat(table[j], cm.p))) == cm.fpot[j] for j in range(cm.p)
    )


def special_reduction(cm: CoupledModel):
    """Detect the three closed reduction regimes by exact rational equality."""
    p = cm.p
    rng = range(p)
    lam = [[dij + eij for dij, eij in zip(drow, erow)] for drow, erow in zip(cm.d, cm.e)]

    b_all = all(cm.b[i][j] == -lam[i][j] for i in rng for j in rng)
    b_off = all(cm.b[i][j] == -lam[i][j] for i in rng for j in rng if i != j)
    c_cond = all(cm.a[j] * cm.c[i][j] == 2 * cm.a[i] * lam[i][j] for i in rng for j in rng)

    if b_all and c_cond:
        table = [
            [
                [cm.b[i][j] * (cm.b[k][j] - 2 * cm.b[k][i]) / (4 * cm.a[j]) for k in rng]
                for i in rng
            ]
            for j in rng
        ]
        if _fpot_matches(cm, table):
            return DecoupledLinear()

    if b_off and c_cond:
        table = []
        for k in rng:
            m = [[Fraction(0)] * p for _ in rng]
            for j in rng:
                for i in rng:
                    if j == k and i == k:
                        m[j][i] = lam[k][k] * (cm.b[k][k] + Fraction(3, 2) * lam[k][k]) / (2 * cm.a[k])
                    elif i == k and j != k:
                        m[j][i] = lam[k][j] * (cm.b[k][k] + lam[k][k] / 2 + lam[j][k]) / (2 * cm.a[k])
                    else:
                        m[j][i] = lam[k][j] * (lam[j][i] - lam[k][i] / 2) / (2 * cm.a[k])
            table.append(m)
        if _fpot_matches(cm, table):
            return JackiwLike(
                eta=tuple((cm.b[j][j] + lam[j][j]) / (2 * cm.a[j]) for j in rng)
            )

    if b_all:
        table = [
            [
                [
                    cm.c[k][j] * lam[j][i] / (2 * cm.a[j])
                    - lam[k][j] * lam[k][i] / (4 * cm.a[k])
                    for i in rng
                ]
                for j in rng
            ]
            for k in rng
        ]
        if _fpot_matches(cm, table):
            return CurrentCoupled(
                eta=tuple(
                    tuple(
                        (cm.c[j][k] - cm.a[k] * lam[j][k] / cm.a[j]) / (2 * cm.a[k])
                        for k in rng
                    )
                    for j in rng
                )
            )

    return General()
