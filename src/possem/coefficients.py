"""Matrix-valued coefficient fields and elliptic systems.

A coefficient field maps points of a box domain to complex m x m matrices.
Three storable kinds are supported, each holding one read-only complex
array, a copy of its input checked once for finiteness: a constant matrix
(m, m), the coefficient tensor (*exponent, m, m) of a matrix of
multivariate polynomials, and the cell values (*cells, m, m) of a
piecewise-constant field on a uniform grid.  ``MatrixField`` reads that
array for every kind alike: its channel count, its zero test, its real part
and its channel slices.  An elliptic system bundles a d x d array of such
fields with a box, a boundary-condition tag, and a declared ellipticity
constant; its uniform bound is the largest of its fields' bounds.

Every pointwise read of a system goes through its ``CoefficientTable``: the
distinct exponents of its constant and polynomial terms with their
coefficients in the (d m) x (d m) block layout, built once from the fields'
``monomials`` arrays.  The block matrices at n points are one (n, T) power
matrix times the table, plus one cell lookup per grid-sampled field; the
symmetrized coefficients, the coercivity check, the exact form and the
assembler read the same table.  Every tensor grid of sample points is
written into one array (``tensor_points``).
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
    if not out:
        raise ValueError("box needs at least one interval")
    for a, b in out:
        if not -math.inf < a < b < math.inf:
            raise ValueError("box intervals must be finite with positive length")
    return out


def tensor_points(axes):
    """(n, d) array of the tensor grid of d coordinate arrays, the first
    axis varying slowest: each axis is written once into one (n_1, ..., n_d,
    d) array of the axes' common dtype, the rows and values of
    ``np.meshgrid(*axes, indexing="ij")`` stacked."""
    axes = [np.ravel(a) for a in axes]
    d = len(axes)
    out = np.empty(tuple(map(len, axes)) + (d,), dtype=np.result_type(*axes))
    for i, a in enumerate(axes):
        out[..., i] = a.reshape((-1,) + (1,) * (d - 1 - i))
    return out.reshape(-1, d)


def _check_point_in_box(x, box):
    """x as floats, checked to lie in the box: a point or (n, d) points."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (len(box),) or x.ndim > 2:
        raise DomainError(f"point has dimension {x.shape}, box has {len(box)}")
    lows, highs = (x.min(axis=0), x.max(axis=0)) if x.ndim == 2 else (x, x)
    for lo, hi, (a, b) in zip(lows, highs, box):
        if not a <= lo <= hi <= b:      # NaN fails every comparison
            raise DomainError(f"coordinate {hi if a <= lo else lo} outside [{a}, {b}]")
    return x


def _monomial_sum(pts, exps, coefs):
    """``sum_t prod_i x_i**exps[t, i] * coefs[t]`` at (n, d) points: one
    real (n, T) power matrix times the (T, ...) coefficients, read as real
    and imaginary parts side by side."""
    shape = coefs.shape[1:]
    flat = np.ascontiguousarray(coefs).view(float).reshape(len(coefs), 2 * math.prod(shape))
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.prod(pts[:, None, :] ** exps, axis=-1) @ flat
    if not np.all(np.isfinite(out)):
        raise NumericalError("non-finite coefficient value")
    return out.view(complex).reshape((len(pts),) + shape)


def _entrywise_bound(exps, coefs, box):
    """``sum_t |coefs[t]| prod_i max(|a_i|, |b_i|)**exps[t, i]``, summed in
    term order (a cumulative sum, not a pairwise one), so the bound of a
    field is the same float whichever table it is read from."""
    radius = [max(abs(lo), abs(hi)) for lo, hi in box]
    try:
        w = np.array([math.prod([r ** e for r, e in zip(radius, row)]) for row in exps.tolist()])
    except OverflowError as exc:        # a float power past the largest double
        raise NumericalError("non-finite coefficient bound") from exc
    if not len(w):
        return np.zeros(coefs.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.cumsum(np.abs(coefs) * w[:, None, None], axis=0)[-1]
    if not np.all(np.isfinite(out)):
        raise NumericalError("non-finite coefficient bound")
    return out


class MatrixField:
    """Common surface of the three coefficient kinds.  Each holds one
    read-only complex array (..., m, m), named by ``_array_name``: its
    ``matrix``, its coefficient tensor ``coeffs`` or its cell ``values``.
    The array is a copy of the caller's input, checked once for finiteness
    (``_hold``); a real part or a channel slice of it is a field of the same
    kind that needs no second check (``_with``), which is all ``realified``
    and ``diagonal_scalar`` are.

    Every kind is a polynomial on a small enough sub-box: a constant, a
    polynomial, or the value of one grid cell.  ``monomials`` exposes that
    polynomial as arrays of exponents and m x m coefficients.  A system
    reads its fields' terms once, into its ``CoefficientTable``, and every
    pointwise value, form entry and stiffness block is read from that
    table; a field's own ``eval`` is the one-field case of the same product.
    """

    kind = "abstract"
    _array_name = None

    @property
    def _array(self):
        return getattr(self, self._array_name)

    def _hold(self, array, what):
        """Keep a read-only complex copy of ``array`` as the kind's array;
        ValueError "<what> must be finite" unless every entry is."""
        a = np.array(array, dtype=complex)
        if not np.isfinite(a).all():
            raise ValueError(f"{what} must be finite")
        a.flags.writeable = False
        object.__setattr__(self, self._array_name, a)
        return a

    def _with(self, array):
        """The same field with ``array``, a real part or slice of its
        checked array, in place of its own."""
        array.flags.writeable = False
        new = object.__new__(type(self))
        vars(new).update(vars(self), **{self._array_name: array})
        return new

    @property
    def m(self):
        return self._array.shape[-1]

    def is_zero(self):
        return not self._array.any()

    def realified(self):
        """The field x -> realification of C(x) (entrywise real part)."""
        return self._with(self._array.real.astype(complex))

    def diagonal_scalar(self, n):
        """The real scalar field x -> Re (C(x) e_n, e_n)."""
        return self._with(self._array[..., n:n + 1, n:n + 1].real.astype(complex))

    def eval(self, x):
        """C(x): an m x m matrix at a point, an (n, m, m) stack at (n, d)
        points, from one product of the monomial powers with the terms.  The
        constant and polynomial terms do not depend on the region, so the
        points' bounding box is passed (the grid kind reads its cells)."""
        x = np.asarray(x, dtype=float)
        pts = np.atleast_2d(x)
        region = list(zip(pts.min(axis=0), pts.max(axis=0)))
        out = _monomial_sum(pts, *self.monomials(pts.shape[1], region))
        return out if x.ndim == 2 else out[0]

    def monomials(self, d, region):
        """The terms of C on the sub-box ``region`` (d intervals), zero terms
        omitted, as exponents (T, d) and coefficients (T, m, m): C(x) is
        ``sum_t coefficients[t] * prod_i x_i**exponents[t, i]`` there."""
        raise NotImplementedError

    def bound(self, box):
        """A uniform bound M with ||C(x)|| <= M over the domain box."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantField(MatrixField):
    """One m x m matrix, held as a read-only copy."""

    matrix: np.ndarray

    kind = "constant"
    _array_name = "matrix"

    def __post_init__(self):
        shape = np.shape(self.matrix)
        if len(shape) != 2 or shape[0] != shape[1] or not shape[0]:
            raise ValueError("need a nonempty square matrix")
        self._hold(self.matrix, "matrix entries")

    def monomials(self, d, region):
        n = int(self.matrix.any())      # the zero matrix has no term
        return np.zeros((n, d), dtype=int), self.matrix[None][:n]

    def bound(self, box):
        return float(np.linalg.norm(self.matrix, 2))


@dataclass(frozen=True, init=False, eq=False)
class PolynomialField(MatrixField):
    """m x m polynomials in d variables as one read-only complex tensor
    ``coeffs`` (*exponent, m, m), copied from nested ``MultiPoly`` entries and
    checked once; ``entry`` and ``entries`` are read-only views of it."""

    coeffs: np.ndarray
    d: int
    max_total_degree: int = DEFAULT_MAX_TOTAL_DEGREE

    kind = "polynomial"
    _array_name = "coeffs"

    def __init__(self, entries, d, max_total_degree=DEFAULT_MAX_TOTAL_DEGREE):
        rows = tuple(tuple(row) for row in entries)
        m = len(rows)
        if m < 1 or any(len(row) != m for row in rows):
            raise ValueError("entries must be square, m >= 1")
        if not all(isinstance(p, MultiPoly) and p.d == d for row in rows for p in row):
            raise ValueError("entries must be MultiPoly in d variables")
        shape = tuple(map(max, zip(*(p.coeffs.shape for row in rows for p in row))))
        coeffs = np.zeros((*shape, m, m), dtype=complex)
        # added into zeros, so no part is -0.0; an all-zero entry would add
        # nothing, so it is skipped
        for i, row in enumerate(rows):
            for j, p in enumerate(row):
                if p.coeffs.any():
                    coeffs[tuple(map(slice, p.coeffs.shape)) + (i, j)] += p.coeffs
        coeffs = self._hold(coeffs, "polynomial coefficients")
        # sum(shape) - d is the highest degree the tensor can hold
        if sum(shape) - d > max_total_degree:
            degree = np.argwhere(coeffs)[:, :d].sum(axis=1).max(initial=0)
            if degree > max_total_degree:
                raise ValueError(f"entry degree {degree} exceeds cap {max_total_degree}")
        vars(self).update(d=d, max_total_degree=max_total_degree)

    def entry(self, i, j):
        return MultiPoly(self.coeffs[..., i, j])

    @property
    def entries(self):
        return tuple(tuple(self.entry(i, j) for j in range(self.m)) for i in range(self.m))

    def monomials(self, d, region):
        if d != self.d:
            raise DomainError(f"{d} coordinates for a field in {self.d} variables")
        # argwhere lists the exponents of nonzero terms in ascending order
        exps = np.argwhere(self.coeffs.any(axis=(-2, -1)))
        return exps, self.coeffs[tuple(exps.T)]

    def bound(self, box):
        """2-norm of the entrywise bounds sum_e |C_e| prod_i max(|a_i|, |b_i|)**e_i."""
        return float(np.linalg.norm(_entrywise_bound(*self.monomials(self.d, box), box), 2))


@dataclass(frozen=True)
class GridSampledField(MatrixField):
    """Piecewise-constant field: one matrix per cell of a uniform grid, the
    cell values (*ncells, m, m) held as a read-only copy."""

    box: tuple
    values: np.ndarray

    kind = "grid"
    _array_name = "values"

    def __post_init__(self):
        box = _as_box(self.box)
        shape = np.shape(self.values)
        if len(shape) != len(box) + 2 or shape[-1] != shape[-2] or not math.prod(shape):
            raise ValueError("values must have a nonempty shape (*ncells, m, m)")
        object.__setattr__(self, "box", box)
        self._hold(self.values, "cell values")

    @property
    def d(self):
        return len(self.box)

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
        return np.zeros((1, d), dtype=int), self.values[idx][None]

    def bound(self, box):
        """The largest 2-norm of a cell value, over one stack of all cells."""
        flat = self.values.reshape(-1, self.m, self.m)
        return float(np.linalg.norm(flat, 2, axis=(1, 2)).max())


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
class CoefficientTable:
    """A system's constant and polynomial terms, read once from its fields'
    ``monomials`` over the box.

    ``exps`` (T, d) holds the distinct exponents in ascending order and
    ``blocks`` (T, d m, d m) their coefficients in the layout of
    ``EllipticSystem.block_matrix``: C_kl(x) is block (k, l) of
    ``sum_t x**exps[t] * blocks[t]``, except for the grid-sampled fields,
    listed as (k, l, field) in ``sampled``, whose blocks are zero.  ``terms``
    holds the same terms one by one in (k, l, exponent) order, as arrays
    k (T'), l (T'), exponents (T', d) and m x m coefficients (T', m, m).

    ``top`` is the largest exponent (0 without terms).  What only the form
    reads is built on first use (a system that is only decided never reads
    it): ``orders`` (dk, dl), the one-hot (T', d) derivative orders of each
    term along k and along l (the test function is differentiated along k,
    the trial function along l); ``degree``, the largest per-axis integrand
    degree e + 2 - dk - dl of a term against two tents, which
    ``form_matrix`` and ``assemble`` check against the quadrature's capacity
    on every call; and ``moment_index`` (T' + len(sampled), d), where each
    term, then each grid-sampled field as a constant, reads its per-axis
    moment in a flattened (d, 2, 2, top + 1) ``tents.moment_tables`` table
    of the pair (trial, test).
    """

    exps: np.ndarray
    blocks: np.ndarray
    terms: tuple
    sampled: tuple
    top: int = field(init=False, repr=False)

    def __post_init__(self):
        for arr in (self.exps, self.blocks, *self.terms):
            arr.flags.writeable = False     # one table is shared by every reader
        object.__setattr__(self, "top", int(self.terms[2].max(initial=0)))

    @cached_property
    def _form_fields(self):
        """(orders, degree, moment_index), read-only."""
        k, l, exps, _ = self.terms
        T, d = exps.shape
        # the form reads each grid-sampled field as one constant term, after the terms
        sampled_kl = np.array([(kk, ll) for kk, ll, _ in self.sampled], dtype=int).reshape(-1, 2)
        dk, dl = (np.eye(d, dtype=int)[np.concatenate([axes, sampled_kl[:, i]])]
                  for i, axes in enumerate((k, l)))
        index = ((np.arange(d) * 2 + dl) * 2 + dk) * (self.top + 1)
        index[:T] += exps
        orders = dk[:T], dl[:T]
        for arr in (*orders, index):
            arr.flags.writeable = False
        return orders, int((exps - sum(orders)).max(initial=-2)) + 2, index

    orders = property(lambda self: self._form_fields[0])
    degree = property(lambda self: self._form_fields[1])
    moment_index = property(lambda self: self._form_fields[2])

    @classmethod
    def from_terms(cls, k, l, exps, C, sampled):
        """The table of the terms k, l (T), exponents (T, d) and m x m
        coefficients (T, m, m), beside the grid-sampled entries ``sampled``."""
        d, m = exps.shape[1], C.shape[-1]
        rows = list(map(tuple, exps.tolist()))
        distinct = sorted(set(rows))
        index = {e: i for i, e in enumerate(distinct)}
        blocks = np.zeros((len(distinct), d, m, d, m), dtype=complex)
        blocks[[index[e] for e in rows], k, :, l, :] = C
        return cls(np.array(distinct, dtype=int).reshape(-1, d),
                   blocks.reshape(-1, d * m, d * m), (k, l, exps, C), sampled)


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

    @cached_property
    def table(self):
        """The ``CoefficientTable`` of the system, built on first use."""
        d, m = self.d, self.m
        fields = [(k, l, fld) for k, row in enumerate(self.coeffs) for l, fld in enumerate(row)]
        # each field's terms, and an empty part so that a system of grid
        # fields alone gets empty arrays
        k, l, exps, C = zip(*[(k, l, *fld.monomials(d, self.box))
                              for k, l, fld in fields if fld.kind != "grid"],
                            (0, 0, np.zeros((0, d), dtype=int), np.zeros((0, m, m), dtype=complex)))
        counts = [len(e) for e in exps]
        return CoefficientTable.from_terms(
            np.repeat(k, counts), np.repeat(l, counts), np.concatenate(exps), np.concatenate(C),
            tuple(f for f in fields if f[2].kind == "grid"))

    def bound(self):
        """Uniform coefficient bound M over all (k, l) and the whole box: the
        largest field ``bound``; NumericalError when it is not a finite float."""
        return self._bound

    @cached_property
    def _bound(self):
        bound = max(fld.bound(self.box) for row in self.coeffs for fld in row)
        if not math.isfinite(bound):
            raise NumericalError("non-finite coefficient bound")
        return bound

    def block_matrix(self, x):
        """The (m d) x (m d) matrix with blocks C_kl(x) at a point, or the
        (n, m d, m d) stack of them at (n, d) points: the table's monomial
        sum, plus each grid-sampled field's cell values."""
        x = _check_point_in_box(x, self.box)
        pts, m, tab = np.atleast_2d(x), self.m, self.table
        out = _monomial_sum(pts, tab.exps, tab.blocks)
        for k, l, fld in tab.sampled:
            out[:, k * m:(k + 1) * m, l * m:(l + 1) * m] += fld.values[fld.cell_index(pts)]
        return out if x.ndim == 2 else out[0]

    def symmetrized(self, k, l, x):
        """C_kl(x) + C_lk(x), the combination the form determines, at a point
        or stacked over (n, d) points, from one ``block_matrix`` read; for
        index arrays k and l, the (..., len(k), m, m) sums of every pair."""
        return pair_sums(self.block_matrix(x), self.d, self.m, k, l)

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


def pair_sums(B, d, m, k, l):
    """C_kl + C_lk from block matrices B (..., d m, d m), as
    ``EllipticSystem.symmetrized`` returns them."""
    B = B.reshape(B.shape[:-2] + (d, m, d, m)).swapaxes(-3, -2)
    return B[..., k, l, :, :] + B[..., l, k, :, :]


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
    if "polynomial" in kinds and "grid" not in kinds:
        # the 5^d grid already holds the box center, in np.unique's row order
        return sys.interior_tensor_points(5)
    pts = _refined_cell_points(sys, (0.5,))
    if "polynomial" in kinds or kinds == {"constant", "grid"}:
        pts = np.unique(np.concatenate([pts, sys.interior_tensor_points(5)]), axis=0)
    return pts


def default_coercivity_tol(sys):
    """How far below mu a coercivity check lets the smallest eigenvalue of
    the Hermitian part fall: 1e-10 max(1, M), for the system bound M."""
    return 1e-10 * max(1.0, sys.bound())


def hermitian_lambda_min(B):
    """Smallest eigenvalue of the Hermitian part of each matrix of the stack
    B (..., n, n), read as complex: one stacked ``eigvalsh``."""
    B = np.asarray(B, dtype=complex)
    try:
        return np.linalg.eigvalsh(0.5 * (B + B.conj().swapaxes(-1, -2)))[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigensolver failed") from exc


def hermitian_at_least(B, floor):
    """Whether the Hermitian part H of every matrix of the stack B (..., n, n)
    has all its eigenvalues above ``floor``: one stacked Cholesky factorization
    of H - floor I, False when it breaks down (numpy raises for the whole
    stack if one member fails).  A real stack is factored in real arithmetic.

    Cholesky is backward stable, so the answer is exact outside a rounding
    band: it succeeds when lambda_min(H) - floor exceeds about n u ||H||, for
    the unit roundoff u, and fails when it is below about -n u ||H||
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 10).
    Inside the band it can answer either way, as ``hermitian_lambda_min(B)
    >= floor`` can; a caller that needs that comparison's exact answer reads
    the eigenvalues when this returns False."""
    B = np.asarray(B)
    H = 0.5 * (B + B.conj().swapaxes(-1, -2))
    diag = np.arange(H.shape[-1])
    H[..., diag, diag] -= floor
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return False
    return True


def check_ellipticity(sys, sample_points=None, tol=None):
    """Smallest eigenvalue of the Hermitian part of the coefficient block
    matrix over the sample points, compared against the declared mu, with
    slack ``default_coercivity_tol`` unless ``tol`` is given.

    One ``block_matrix`` read over all points and one stacked ``eigvalsh``;
    ``per_point`` holds every point's smallest eigenvalue and ``argmin`` is
    the first point that attains the minimum."""
    if sample_points is None or len(sample_points) == 0:
        sample_points = default_ellipticity_points(sys)
    sample_points = np.atleast_2d(np.asarray(sample_points, dtype=float))
    if tol is None:
        tol = default_coercivity_tol(sys)
    lams = hermitian_lambda_min(sys.block_matrix(sample_points))
    i = int(np.argmin(lams))
    passed = lams[i] >= sys.mu - tol
    return EllipticityReport(float(lams[i]), bool(passed), sample_points[i],
                             tuple(lams.tolist()))
