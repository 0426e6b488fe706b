"""Matrix-valued coefficient fields and elliptic systems.

A coefficient field maps points of a box domain to complex m x m matrices.
Three storable kinds are supported: constant matrices, matrices of
multivariate polynomial entries, and piecewise-constant matrices sampled on a
uniform cell grid.  An elliptic system bundles a d x d array of such fields
with a box, a boundary-condition tag, and a declared ellipticity constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericalError, UnsupportedContract
from .polynomials import MultiPoly

#: Default cap on the total degree of polynomial entries.
DEFAULT_MAX_TOTAL_DEGREE = 6


def _as_box(box):
    out = tuple((float(a), float(b)) for a, b in box)
    for a, b in out:
        if not b > a:
            raise ValueError("box intervals must have positive length")
    return out


def _check_point_in_box(x, box):
    x = np.asarray(x, dtype=float)
    if x.shape != (len(box),):
        raise DomainError(f"point has dimension {x.shape}, box has {len(box)}")
    for xi, (a, b) in zip(x, box):
        if xi < a or xi > b:
            raise DomainError(f"coordinate {xi} outside [{a}, {b}]")
    return x


class MatrixField:
    """Common surface of the three coefficient kinds.

    Every kind is a polynomial on a small enough sub-box: a constant, a
    polynomial, or the value of one grid cell.  ``monomials`` exposes that
    polynomial as ``(exponents, m x m matrix)`` terms, which is all the form
    evaluator and the assembler need to know about a field.
    """

    kind = "abstract"

    def eval(self, x):
        raise NotImplementedError

    def monomials(self, d, region):
        """The ``(exponents, m x m matrix)`` terms of C on the sub-box
        ``region`` (d intervals), zero terms omitted: C(x) is the sum of
        ``matrix * prod_i x_i**exponents[i]`` there."""
        raise NotImplementedError

    def bound(self, box):
        """A uniform bound M with ||C(x)|| <= M over the domain box."""
        raise NotImplementedError

    def realified(self):
        """The field x -> realification of C(x) (entrywise real part)."""
        raise NotImplementedError

    def diagonal_scalar(self, n):
        """The real scalar field x -> Re (C(x) e_n, e_n)."""
        raise NotImplementedError

    def average(self, box):
        """Exact average of C over the box."""
        raise NotImplementedError

    def is_zero(self, tol=0.0):
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantField(MatrixField):
    matrix: np.ndarray

    kind = "constant"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("need a square matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "matrix", m)

    @property
    def m(self):
        return self.matrix.shape[0]

    def eval(self, x):
        return self.matrix.copy()

    @cached_property
    def _nonzero(self):
        return bool(self.matrix.any())

    def monomials(self, d, region):
        return [((0,) * d, self.matrix)] if self._nonzero else []

    def bound(self, box):
        return float(np.linalg.norm(self.matrix, 2))

    def realified(self):
        return ConstantField(self.matrix.real.astype(complex))

    def diagonal_scalar(self, n):
        return ConstantField(np.array([[self.matrix[n, n].real]], dtype=complex))

    def average(self, box):
        return self.matrix.copy()

    def is_zero(self, tol=0.0):
        return bool(np.max(np.abs(self.matrix), initial=0.0) <= tol)


@dataclass(frozen=True)
class PolynomialField(MatrixField):
    entries: tuple          # m x m nested tuple of MultiPoly
    d: int
    max_total_degree: int = DEFAULT_MAX_TOTAL_DEGREE

    kind = "polynomial"

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        m = len(rows)
        for row in rows:
            if len(row) != m:
                raise ValueError("entries must be square")
            for p in row:
                if not isinstance(p, MultiPoly) or p.d != self.d:
                    raise ValueError("entries must be MultiPoly in d variables")
                if p.total_degree > self.max_total_degree:
                    raise ValueError(
                        f"entry degree {p.total_degree} exceeds cap {self.max_total_degree}"
                    )
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_scalar(cls, poly, d=None):
        d = poly.d if d is None else d
        return cls(((poly,),), d)

    @property
    def m(self):
        return len(self.entries)

    def entry(self, i, j):
        return self.entries[i][j]

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        out = np.empty((self.m, self.m), dtype=complex)
        for i in range(self.m):
            for j in range(self.m):
                out[i, j] = self.entries[i][j](x)
        if not np.all(np.isfinite(out)):
            raise NumericalError("non-finite coefficient value")
        return out

    @cached_property
    def _monomials(self):
        by_exponent = {}
        for i in range(self.m):
            for j in range(self.m):
                for exps, coef in self.entries[i][j].terms():
                    C = by_exponent.setdefault(exps, np.zeros((self.m, self.m), dtype=complex))
                    C[i, j] += coef
        return sorted(by_exponent.items())

    def monomials(self, d, region):
        return self._monomials

    def bound(self, box):
        b = np.empty((self.m, self.m))
        for i in range(self.m):
            for j in range(self.m):
                b[i, j] = self.entries[i][j].bound_on_box(box)
        return float(np.linalg.norm(b, 2))

    def realified(self):
        return PolynomialField(
            tuple(tuple(p.real for p in row) for row in self.entries),
            self.d,
            self.max_total_degree,
        )

    def diagonal_scalar(self, n):
        return PolynomialField(((self.entries[n][n].real,),), self.d, self.max_total_degree)

    def average(self, box):
        vol = float(np.prod([b - a for a, b in box]))
        out = np.empty((self.m, self.m), dtype=complex)
        for i in range(self.m):
            for j in range(self.m):
                out[i, j] = self.entries[i][j].box_integral(box) / vol
        return out

    def is_zero(self, tol=0.0):
        return all(p.is_zero(tol) for row in self.entries for p in row)


@dataclass(frozen=True)
class GridSampledField(MatrixField):
    """Piecewise-constant field: one matrix per cell of a uniform grid."""

    box: tuple
    values: np.ndarray      # shape (*ncells, m, m)

    kind = "grid"

    def __post_init__(self):
        box = _as_box(self.box)
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != len(box) + 2 or v.shape[-1] != v.shape[-2]:
            raise ValueError("values must have shape (*ncells, m, m)")
        if not np.all(np.isfinite(v)):
            raise ValueError("cell values must be finite")
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "values", v)

    @property
    def d(self):
        return len(self.box)

    @property
    def m(self):
        return self.values.shape[-1]

    @property
    def ncells(self):
        return self.values.shape[: self.d]

    def cell_widths(self):
        return tuple((b - a) / n for (a, b), n in zip(self.box, self.ncells))

    def cell_index(self, x):
        """Cell containing x; points on a shared face go to the lower cell."""
        x = _check_point_in_box(x, self.box)
        idx = []
        for xi, (a, b), n in zip(x, self.box, self.ncells):
            t = (xi - a) / (b - a) * n
            i = int(np.ceil(t)) - 1 if t > 0 else 0
            idx.append(min(max(i, 0), n - 1))
        return tuple(idx)

    def cell_centers(self):
        axes = [
            a + (np.arange(n) + 0.5) * (b - a) / n
            for (a, b), n in zip(self.box, self.ncells)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def eval(self, x):
        return self.values[self.cell_index(x)].copy()

    def monomials(self, d, region):
        """The constant term of the one cell that holds ``region``."""
        mid = np.array([(lo + hi) / 2 for lo, hi in region])
        idx = self.cell_index(mid)
        widths = self.cell_widths()
        for axis, ((lo, hi), i) in enumerate(zip(region, idx)):
            a = self.box[axis][0] + i * widths[axis]
            b = a + widths[axis]
            if lo < a - 1e-12 or hi > b + 1e-12:
                raise UnsupportedContract(
                    "grid-sampled coefficients need the test support inside a single cell"
                )
        return [((0,) * d, self.values[idx])]

    def bound(self, box):
        flat = self.values.reshape(-1, self.m, self.m)
        return float(max(np.linalg.norm(M, 2) for M in flat))

    def realified(self):
        return GridSampledField(self.box, self.values.real.astype(complex))

    def diagonal_scalar(self, n):
        vals = self.values[..., n, n].real.astype(complex)
        return GridSampledField(self.box, vals[..., None, None])

    def average(self, box):
        if _as_box(box) != self.box:
            raise ValueError("grid-sampled average only over its own box")
        return self.values.reshape(-1, self.m, self.m).mean(axis=0)

    def is_zero(self, tol=0.0):
        return bool(np.max(np.abs(self.values), initial=0.0) <= tol)


def eval_coefficient(field, x, box=None):
    """Evaluate a coefficient field at a point of the (closed) domain box."""
    if box is not None:
        x = _check_point_in_box(x, _as_box(box))
    elif isinstance(field, GridSampledField):
        x = _check_point_in_box(x, field.box)
    return field.eval(np.asarray(x, dtype=float))


def realify_matrix(Q):
    """Realification of an operator matrix; equals the entrywise real part."""
    return np.asarray(Q, dtype=complex).real.astype(complex)


def realify_field(fld):
    return fld.realified()


@dataclass(frozen=True)
class EllipticSystem:
    """Second-order divergence-form system with matrix coefficients."""

    box: tuple                 # d intervals (a_i, b_i)
    m: int
    coeffs: tuple              # d x d nested tuple of MatrixField
    bc: str = "dirichlet"      # 'dirichlet' (zero trace) or 'free' (natural)
    mu: float = 0.0

    def __post_init__(self):
        box = _as_box(self.box)
        object.__setattr__(self, "box", box)
        if self.bc not in ("dirichlet", "free"):
            raise ValueError("bc must be 'dirichlet' or 'free'")
        d = len(box)
        rows = tuple(tuple(row) for row in self.coeffs)
        if len(rows) != d or any(len(r) != d for r in rows):
            raise ValueError("need a d x d coefficient array")
        for row in rows:
            for fld in row:
                if fld.m != self.m:
                    raise ValueError("all coefficient fields must share m")
                if isinstance(fld, PolynomialField) and fld.d != d:
                    raise ValueError("polynomial entries must have d variables")
                if isinstance(fld, GridSampledField) and fld.box != box:
                    raise ValueError("grid-sampled field box must match the system box")
        object.__setattr__(self, "coeffs", rows)

    @property
    def d(self):
        return len(self.box)

    def coefficient(self, k, l):
        return self.coeffs[k][l]

    def eval_coefficient(self, k, l, x):
        return eval_coefficient(self.coeffs[k][l], x, box=self.box)

    def bound(self):
        """Uniform coefficient bound M over all (k, l) and the whole box."""
        return max(self.coeffs[k][l].bound(self.box)
                   for k in range(self.d) for l in range(self.d))

    def block_matrix(self, x):
        """The (m d) x (m d) matrix with blocks C_kl(x)."""
        x = _check_point_in_box(x, self.box)
        d, m = self.d, self.m
        B = np.zeros((d * m, d * m), dtype=complex)
        for k in range(d):
            for l in range(d):
                B[k * m:(k + 1) * m, l * m:(l + 1) * m] = self.coeffs[k][l].eval(x)
        return B

    def symmetrized(self, k, l, x):
        """C_kl(x) + C_lk(x), the combination the form determines."""
        x = _check_point_in_box(x, self.box)
        return self.coeffs[k][l].eval(x) + self.coeffs[l][k].eval(x)

    def realified(self):
        return EllipticSystem(
            self.box, self.m,
            tuple(tuple(f.realified() for f in row) for row in self.coeffs),
            self.bc, self.mu,
        )

    def with_coefficient(self, k, l, fld):
        rows = [list(r) for r in self.coeffs]
        rows[k][l] = fld
        return EllipticSystem(self.box, self.m, tuple(tuple(r) for r in rows),
                              self.bc, self.mu)

    def interior_tensor_points(self, per_dim=3):
        """Tensor grid of interior sample points at relative offsets
        (i + 1) / (per_dim + 1)."""
        axes = [
            a + (np.arange(1, per_dim + 1) / (per_dim + 1)) * (b - a)
            for a, b in self.box
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([mm.ravel() for mm in mesh], axis=-1)


def symmetrized(sys, k, l, x):
    return sys.symmetrized(k, l, x)


@dataclass(frozen=True)
class EllipticityReport:
    lambda_min: float
    passed: bool
    argmin: np.ndarray
    per_point: tuple = field(default=None)

    def __bool__(self):
        return self.passed


def refinement_cuts(sys):
    """Per axis ``(cuts, fine)``: the cell faces of the common refinement of
    every grid-sampled coefficient's cells are ``a + cuts * (b - a) / fine``.
    None when no coefficient is grid-sampled."""
    counts = {fld.ncells for row in sys.coeffs for fld in row
              if isinstance(fld, GridSampledField)}
    if not counts:
        return None
    out = []
    for axis in range(sys.d):
        fine = math.lcm(*(n[axis] for n in counts))
        cuts = np.unique(np.concatenate(
            [np.arange(n[axis] + 1) * (fine // n[axis]) for n in counts]))
        out.append((cuts, fine))
    return out


def grid_cell_centers(sys):
    """Cell centers of the common refinement of the cells of every
    grid-sampled coefficient, or None when no coefficient is grid-sampled.

    Every grid-sampled field is constant on each refined cell, so these
    points see every cell value of every field.  With a single cell grid
    they are exactly that grid's ``cell_centers()``.
    """
    refinement = refinement_cuts(sys)
    if refinement is None:
        return None
    axes = []
    for (a, b), (cuts, fine) in zip(sys.box, refinement):
        mids = (cuts[:-1] + cuts[1:]) / 2
        axes.append(a + mids * (b - a) / fine)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([mm.ravel() for mm in mesh], axis=-1)


def default_ellipticity_points(sys, per_dim=5):
    """Sample points for the coercivity check: a single center point when all
    coefficients are constant, grid cell centers for sampled fields, and an
    interior tensor grid otherwise."""
    kinds = {sys.coeffs[k][l].kind for k in range(sys.d) for l in range(sys.d)}
    pts = []
    if kinds == {"constant"}:
        center = np.array([(a + b) / 2 for a, b in sys.box])
        return center[None, :]
    if "polynomial" in kinds or "constant" in kinds:
        pts.append(sys.interior_tensor_points(per_dim))
    centers = grid_cell_centers(sys)
    if centers is not None:
        pts.append(centers)
    return np.unique(np.concatenate(pts, axis=0), axis=0)


def check_ellipticity(sys, sample_points=None, tol=None, per_dim=5):
    """Smallest eigenvalue of the Hermitian part of the coefficient block
    matrix over the sample points, compared against the declared mu."""
    if sample_points is None or len(sample_points) == 0:
        sample_points = default_ellipticity_points(sys, per_dim)
    sample_points = np.atleast_2d(np.asarray(sample_points, dtype=float))
    if tol is None:
        tol = 1e-10 * max(1.0, sys.bound())
    lam_min = np.inf
    argmin = sample_points[0]
    per_point = []
    for x in sample_points:
        B = sys.block_matrix(x)
        H = 0.5 * (B + B.conj().T)
        try:
            lam = float(np.linalg.eigvalsh(H)[0])
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigensolver failed at x = {x}") from exc
        per_point.append(lam)
        if lam < lam_min:
            lam_min, argmin = lam, x
    passed = lam_min >= sys.mu - tol
    return EllipticityReport(lam_min, passed, np.asarray(argmin), tuple(per_point))
