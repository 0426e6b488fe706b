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
        if not -math.inf < a < b < math.inf:
            raise ValueError("box intervals must be finite with positive length")
    return out


def tensor_points(axes):
    """(n, d) array of the tensor grid of d coordinate arrays, the first
    axis varying slowest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([mm.ravel() for mm in mesh], axis=-1)


def _check_point_in_box(x, box):
    """x as floats, checked to lie in the box: a point or (n, d) points."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (len(box),) or x.ndim > 2:
        raise DomainError(f"point has dimension {x.shape}, box has {len(box)}")
    lows, highs = (x.min(axis=0), x.max(axis=0)) if x.ndim == 2 else (x, x)
    for lo, hi, (a, b) in zip(lows, highs, box):
        if lo < a or hi > b:
            raise DomainError(f"coordinate {lo if lo < a else hi} outside [{a}, {b}]")
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
        """C(x): an m x m matrix at a point, an (n, m, m) stack at (n, d)
        points.  The monomial terms are summed over all points at once; the
        constant and polynomial terms do not depend on the region, so the
        points' bounding box is passed (the grid kind reads its cells)."""
        x = np.asarray(x, dtype=float)
        pts = np.atleast_2d(x)
        region = list(zip(pts.min(axis=0), pts.max(axis=0)))
        out = np.zeros((len(pts), self.m, self.m), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for exps, C in self.monomials(pts.shape[1], region):
                out += np.prod(pts ** np.array(exps), axis=1)[:, None, None] * C
        if not np.all(np.isfinite(out)):
            raise NumericalError("non-finite coefficient value")
        return out if x.ndim == 2 else out[0]

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
        """Exact average of C over the box, from the monomial moments
        prod_i (b_i**(e_i+1) - a_i**(e_i+1)) / ((e_i+1) (b_i - a_i))."""
        box = _as_box(box)
        out = np.zeros((self.m, self.m), dtype=complex)
        for exps, C in self.monomials(len(box), box):
            out += math.prod([(b ** (e + 1) - a ** (e + 1)) / ((e + 1) * (b - a))
                              for (a, b), e in zip(box, exps)]) * C
        return out

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

    @property
    def m(self):
        return len(self.entries)

    def entry(self, i, j):
        return self.entries[i][j]

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
        if d != self.d:
            raise DomainError(f"{d} coordinates for a field in {self.d} variables")
        return self._monomials

    def bound(self, box):
        """2-norm of the entrywise bounds sum_e |C_e| prod_i max(|a_i|, |b_i|)**e_i."""
        b = np.zeros((self.m, self.m))
        for exps, C in self._monomials:
            b += np.abs(C) * math.prod([max(abs(lo), abs(hi)) ** e
                                        for (lo, hi), e in zip(box, exps)])
        return float(np.linalg.norm(b, 2))

    def realified(self):
        return PolynomialField(
            tuple(tuple(p.real for p in row) for row in self.entries),
            self.d,
            self.max_total_degree,
        )

    def diagonal_scalar(self, n):
        return PolynomialField(((self.entries[n][n].real,),), self.d, self.max_total_degree)

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
        """Index tuple of the cell containing x (Python ints), or of index
        arrays for (n, d) points: ceil(t) - 1 clipped to the grid at
        t = (x_i - a_i) / h_i, so points on a shared face go to the lower cell."""
        x = _check_point_in_box(x, self.box)
        lo, hi = np.array(self.box).T
        t = np.ceil((np.atleast_2d(x) - lo) / (hi - lo) * self.ncells).astype(int) - 1
        t = np.clip(t, 0, np.array(self.ncells) - 1)
        return tuple(t.T) if x.ndim == 2 else tuple(t[0].tolist())

    def cell_centers(self):
        return tensor_points([a + (np.arange(n) + 0.5) * (b - a) / n
                              for (a, b), n in zip(self.box, self.ncells)])

    def eval(self, x):
        """The value of the cell holding x, for a point or (n, d) points."""
        return self.values[self.cell_index(x)]

    def monomials(self, d, region):
        """The constant term of the one cell that holds ``region``."""
        idx = self.cell_index([(lo + hi) / 2 for lo, hi in region])
        for (lo, hi), i, (a, _), w in zip(region, idx, self.box, self.cell_widths()):
            if lo < a + i * w - 1e-12 or hi > a + (i + 1) * w + 1e-12:
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
    """Evaluate a coefficient field at a point, or at (n, d) points, of the
    (closed) domain box."""
    if box is not None:
        x = _check_point_in_box(x, _as_box(box))
    return field.eval(x)


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
        return self._bound

    @cached_property
    def _bound(self):
        return max(fld.bound(self.box) for row in self.coeffs for fld in row)

    def block_matrix(self, x):
        """The (m d) x (m d) matrix with blocks C_kl(x) at a point, or the
        (n, m d, m d) stack of them at (n, d) points."""
        x = _check_point_in_box(x, self.box)
        return np.block([[fld.eval(x) for fld in row] for row in self.coeffs])

    def symmetrized(self, k, l, x):
        """C_kl(x) + C_lk(x), the combination the form determines, at a point
        or stacked over (n, d) points."""
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
        return tensor_points([a + (np.arange(1, per_dim + 1) / (per_dim + 1)) * (b - a)
                              for a, b in self.box])


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


def _refined_cell_points(sys, offsets):
    """Tensor points at the given relative offsets in every cell of the
    common refinement of the grid-sampled coefficients' cells; the box is the
    single cell when no coefficient is grid-sampled."""
    axes = []
    whole = [(np.arange(2), 1)] * sys.d
    for (a, b), (cuts, fine) in zip(sys.box, refinement_cuts(sys) or whole):
        pts = cuts[:-1, None] + np.asarray(offsets) * (cuts[1:] - cuts[:-1])[:, None]
        axes.append(a + pts.ravel() * (b - a) / fine)
    return tensor_points(axes)


def default_ellipticity_points(sys):
    """Sample points for the coercivity check: the cell centers of grid-sampled
    fields (the box center when there are none), joined by an interior 5^d
    tensor grid when a polynomial, or a constant beside a grid, is present."""
    kinds = {fld.kind for row in sys.coeffs for fld in row}
    pts = _refined_cell_points(sys, (0.5,))
    if "polynomial" in kinds or kinds == {"constant", "grid"}:
        pts = np.unique(np.concatenate([pts, sys.interior_tensor_points(5)]), axis=0)
    return pts


def check_ellipticity(sys, sample_points=None, tol=None):
    """Smallest eigenvalue of the Hermitian part of the coefficient block
    matrix over the sample points, compared against the declared mu.

    One ``block_matrix`` read over all points and one stacked ``eigvalsh``;
    ``per_point`` holds every point's smallest eigenvalue and ``argmin`` is
    the first point that attains the minimum."""
    if sample_points is None or len(sample_points) == 0:
        sample_points = default_ellipticity_points(sys)
    sample_points = np.atleast_2d(np.asarray(sample_points, dtype=float))
    if tol is None:
        tol = 1e-10 * max(1.0, sys.bound())
    B = sys.block_matrix(sample_points)
    try:
        lams = np.linalg.eigvalsh(0.5 * (B + B.conj().swapaxes(-1, -2)))[:, 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigensolver failed on the sample points") from exc
    i = int(np.argmin(lams))
    passed = lams[i] >= sys.mu - tol
    return EllipticityReport(float(lams[i]), bool(passed), sample_points[i],
                             tuple(lams.tolist()))
