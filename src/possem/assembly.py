"""Galerkin discretization on uniform box grids with multilinear elements.

The stiffness matrix of the form a(u, v) = sum_kl int (C_kl d_l u, d_k v) is
assembled into one stencil-block array, one CSR build: on a uniform grid every
contribution couples a node to its 3^d neighbours, so K is summed into a dense
array indexed by active node and stencil slot (channel i, neighbour offset,
channel j).  Each
monomial term is a product of per-axis banded moments ``int x^e b_p^(dp)
b_q^(dq) dx``: a grid hat is a dilated unit tent, so these are the tents'
reference moments shifted to each node, under the Gauss rule and capacity
check of ``form_matrix``.  The sum over the terms is factorized by axis: one
matrix product of the coefficients times the first axis's bands against the
product of the other axes' bands, real when every term is, and one gather of
its result into the stencil layout; K's stored data is complex either way.
Only the stencil slots (i, offset, j) that some contribution can fill are
gathered and stored: a slot mask, derived from the factors before the
product, keeps a slot when a term has C[i, j] != 0 and a nonzero band at
that offset on every axis, or when a grid-sampled field has a nonzero (i, j)
in some cell and a nonzero summed corner entry that offset apart.
Every other slot is an exact zero at every node.  On an axis that no
exponent reads, the bands are the same at every interior node (the stencil is
translation invariant there), so that axis enters the product with three
rows, its node classes: its first, one interior and its last node.  A table
with no exponent and no grid-sampled field thus has a stencil of 3^d node
classes, and from ``TILED_MIN_ROWS`` rows of K on, K is laid out from them
directly: each class's exact zeros, the off-grid neighbours and exact
cancellations, are dropped once, and its entries are tiled over its nodes, so
neither a per-node stencil nor a zero drop over K is built.  Other tables,
and smaller grids, take the per-node layout: the class rows are repeated over
the nodes, the grid-sampled fields added, and ``eliminate_zeros`` drops the
off-grid neighbours and exact cancellations.  Both layouts give K canonical,
with the entries and bits of the full stencil.  Grid-sampled coefficients
use their cell-center value times the same moments on one cell; all of them
are summed per corner pair in one real product before one add into the
stencil per corner pair.  The mass matrix is lumped.

Degree-of-freedom layout is node-major, channel-minor: dof = node * m + ch.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .coefficients import _as_box, tensor_points
from .errors import NumericalError
from .tents import (
    binomial_shift,
    check_capacity,
    hat_moments,
    interval_moments,
    reference_intervals,
)

if TYPE_CHECKING:
    import scipy.sparse


#: Rows of K from which a table with no exponent and no cell-sampled field
#: is laid out from its node classes (``_tiled_csr``).  Below, the per-node
#: layout's fewer numpy calls cost less: the two broke even at 700-1,400
#: rows (constant systems of 1 and 2 channels in 2D and 3D, one 2-core
#: x86-64 VM).
TILED_MIN_ROWS = 1024


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid over a box with zero-trace or natural boundary."""

    box: tuple
    n: tuple            # cells per dimension
    bc: str = "dirichlet"

    def __post_init__(self):
        object.__setattr__(self, "box", _as_box(self.box))
        try:
            n = tuple(operator.index(v) for v in
                      (self.n if np.iterable(self.n) else (self.n,) * len(self.box)))
        except TypeError:
            raise ValueError("cell counts must be integers") from None
        if len(n) != len(self.box) or any(v < 1 for v in n):
            raise ValueError("need >= 1 cell per dimension")
        object.__setattr__(self, "n", n)
        if self.bc not in ("dirichlet", "free"):
            raise ValueError("bc must be 'dirichlet' or 'free'")
        if self.bc == "dirichlet" and any(v < 2 for v in n):
            raise ValueError("zero-trace grid needs >= 2 cells per dimension")

    @property
    def d(self):
        return len(self.box)

    @property
    def h(self):
        return tuple((b - a) / nn for (a, b), nn in zip(self.box, self.n))

    def nodes_per_dim(self, axis):
        return self.n[axis] - 1 if self.bc == "dirichlet" else self.n[axis] + 1

    @property
    def shape(self):
        return tuple(self.nodes_per_dim(i) for i in range(self.d))

    @property
    def N(self):
        return math.prod(self.shape)

    def node_coords(self, axis):
        a, b = self.box[axis]
        full = np.linspace(a, b, self.n[axis] + 1)
        return full[1:-1] if self.bc == "dirichlet" else full

    def node_points(self):
        return tensor_points([self.node_coords(i) for i in range(self.d)])

    def cell_center_coords(self, axis):
        return self.box[axis][0] + (np.arange(self.n[axis]) + 0.5) * self.h[axis]

    def cell_centers(self):
        return tensor_points([self.cell_center_coords(i) for i in range(self.d)])

    def mass_weights(self):
        """Lumped mass per active node: product of per-axis hat integrals."""
        per_axis = []
        for i in range(self.d):
            nn, hh = self.n[i], self.h[i]
            w = np.full(nn + 1, hh)
            w[0] = w[-1] = hh / 2
            if self.bc == "dirichlet":
                w = w[1:-1]
            per_axis.append(w)
        out = per_axis[0]
        for w in per_axis[1:]:
            out = np.multiply.outer(out, w)
        return out.ravel()


def _axis_bands(grid, axis, top, rows=slice(None)):
    """Banded 1D moments ``int x^e b_p^(dp) b_q^(dq) dx`` over the axis
    interval: array (e, dp, dq, active node p, 3) whose last index is the
    neighbour offset q - p + 1: the ``tents.hat_moments`` of p's class shifted
    to p, zero where they point at a removed or out-of-range node.  ``rows``
    selects the nodes p, all of them by default; the first and the last
    selected row must be the axis's first and last node."""
    h, nodes = grid.h[axis], grid.node_coords(axis)[rows]
    cls = 1 - (nodes == grid.box[axis][0]) + (nodes == grid.box[axis][1])    # 0, 2 at edges
    bands = binomial_shift(hat_moments()[cls], nodes, h, top, np.add.outer((0, 1), (0, 1)))
    bands = bands.transpose(4, 2, 3, 0, 1)
    if grid.bc == "dirichlet":
        bands[..., 0, 0] = bands[..., -1, 2] = 0.0
    return bands


@dataclass(frozen=True)
class DiscreteForm:
    """Assembled stiffness and lumped mass on a grid, channel-minor layout.

    The arrays of K and the mass are made read-only, so a value derived from
    them can be kept with the form (``memo``) and freed with it.
    """

    K: scipy.sparse.csr_matrix
    mass: np.ndarray        # per node; dof mass = repeat(mass, m)
    grid: Grid
    m: int
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for arr in (self.K.data, self.K.indices, self.K.indptr, self.mass):
            arr.flags.writeable = False

    def memo(self, key, compute):
        """``compute()``, evaluated on the first request for ``key`` only."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def ndof(self):
        return self.grid.N * self.m

    @property
    def dof_mass(self):
        return np.repeat(self.mass, self.m)

    def is_real(self):
        """Whether every |Im K_ij| is at most 1e-12 max(1, max |Re K|)."""
        data = self.K.data
        if data.size == 0:
            return True
        scale = np.abs(data.real).max()
        return np.abs(data.imag).max() <= 1e-12 * max(1.0, scale)

    def channel_coupling_max(self):
        """Largest |K| entry coupling two different channels."""
        coo = self.K.tocoo()
        mask = (coo.row % self.m) != (coo.col % self.m)
        if not mask.any():
            return 0.0
        return float(np.abs(coo.data[mask]).max())


def _term_stencil(grid, table, m, filled):
    """Stencil-block array (*rows, slot) of the monomial terms of a
    ``CoefficientTable``, one row per node or, on an axis that no exponent
    reads, per node class, read with the derivative orders and the capacity
    degree it holds, and the bool mask (i, *offsets, j) of the slots it
    keeps, in row-major order: ``sum_t C_t[i, j] prod_axis band_t(node,
    offset)``.  The sum over the terms t is one matrix product R = P^T Q of
    P_t = C_t band_t on the first axis and Q_t = the product of the other
    axes' bands: real, from Re C_t, when no term has a nonzero imaginary
    part, so S is then real, and complex otherwise.

    The slot mask is derived from the factors before the product: a slot
    is kept if ``filled`` marks it (the slots the cell-sampled fields fill)
    or if some term has C_t[i, j] != 0 and, on every axis, a nonzero band
    entry at that offset for some node; every other slot of R is a sum of
    exact zeros at every node.  One ``take`` from R's buffer, at the offsets
    that R's transposed view gives each (node, kept slot), writes the kept
    slots only, node-major; when every slot is kept, this is the full (i,
    *offsets, j) layout.

    An axis of more than 3 nodes on which every exponent is 0 enters with
    three band rows only, its node classes: its first, one interior and its
    last node.  S keeps these rows; ``_node_stencil`` repeats them back over
    the nodes, one ``np.repeat`` per such axis, and ``_tiled_csr`` lays out
    a table with no exponent and no cell-sampled field from them, with no
    per-node stencil.  This keeps the bits: at exponent 0 the binomial shift
    multiplies each class moment by exactly 1.0, so every interior row is
    the interior class's, and only the edge rows differ (edge classes when
    free, a zeroed off-grid neighbour under zero trace).  Axes that an
    exponent reads keep every row."""
    d = grid.d
    _, _, exps, C = table.terms
    if not len(C):
        return np.zeros(tuple(min(n, 3) for n in grid.shape) + (np.count_nonzero(filled),)), filled
    check_capacity(table.degree)
    dk, dl = table.orders
    tops, shape = exps.max(axis=0), grid.shape
    # an axis no exponent reads has three distinct band rows past 3 nodes
    shrunk = [ax for ax in range(d) if tops[ax] == 0 and shape[ax] > 3]
    bands, stacks = {}, []          # axes of one interval, cell count and top share bands
    for ax in range(d):
        key = (grid.box[ax], grid.n[ax], tops[ax], ax in shrunk)
        if key not in bands:
            bands[key] = _axis_bands(grid, ax, tops[ax], [0, 1, -1] if ax in shrunk else slice(None))
        stacks.append(bands[key][exps[:, ax], dk[:, ax], dl[:, ax]])     # (T, rows, 3)
    if not all(np.isfinite(a).all() for a in (*stacks, C)):
        # a non-finite factor would turn the zero blocks of off-grid
        # neighbours into NaN, which _stencil_csr cannot drop
        raise NumericalError("non-finite coefficient term or moment")
    T = len(C)
    # reach[t, offsets]: term t has a nonzero band at that offset on every axis
    reach = np.ones((T, 1), dtype=bool)
    for band in stacks:
        reach = (reach[:, :, None] & np.logical_or.reduce(band != 0, axis=1)[:, None]).reshape(T, -1)
    # slots[i, *offsets, j] = any_t (C_t[i, j] != 0 and reach[t, offsets])
    slots = ((C != 0).reshape(T, -1).T @ reach).reshape(m, m, -1).transpose(0, 2, 1)
    slots = filled | slots.reshape(filled.shape)
    P = np.einsum("tij,tao->taioj", C if C.imag.any() else C.real, stacks[0])  # (T, n_0, i, 3, j)
    Q = np.ones((T, 1))
    for band in stacks[1:]:                                  # (T, n_1, 3, n_2, 3, ...)
        Q = (Q[:, :, None] * band.reshape(T, 1, -1)).reshape(T, -1)
    R = P.reshape(T, -1).T @ Q
    view = R.reshape(P.shape[1:] + sum(((b.shape[1], 3) for b in stacks[1:]), ()))
    # (n_0, i, 3, j, n_1, 3, n_2, 3, ...) -> (n_0, n_1, ..., i, 3, 3, ..., j)
    rest = range(1, d)
    view = view.transpose(0, *(2 + 2 * ax for ax in rest), 1, 2, *(3 + 2 * ax for ax in rest), 3)
    # one take of R's buffer at the view's offsets of (node, kept slot), node-major
    steps = np.array(view.strides) // view.itemsize
    nodes = functools.reduce(np.add.outer, [np.arange(n) * st for n, st in zip(view.shape[:d], steps)])
    S = R.reshape(-1).take(np.add.outer(nodes, np.transpose(np.nonzero(slots)) @ steps[d:]))
    return S, slots


def _node_stencil(S, shape):
    """The stencil-block array of ``_term_stencil`` with one row per node
    of a grid of this node ``shape``: each axis held as its three node
    classes is repeated back over its nodes, the last axis first (whole
    slabs copy last)."""
    for ax in reversed(range(len(shape))):
        if S.shape[ax] < shape[ax]:
            S = S.repeat((1, shape[ax] - 2, 1), axis=ax)
    return S


def _corner_matrix(grid, k, l):
    """The corner matrix ``L[a, b] = int_cell d_l b_b d_k b_a`` of one
    assembly cell (corner 0 a left edge on every axis).  For k > l it is
    the transpose of (l, k)'s, as the integral is: ``hat_moments`` holds
    int t' s and int t s' of a neighbour pair an ulp apart, so read directly
    a symmetric coupling's two mixed terms would not cancel exactly."""
    if k > l:
        return _corner_matrix(grid, l, k).T
    a, b, ref = *np.indices((2, 2)), hat_moments()
    return functools.reduce(np.kron, [
        ref[2 * a, b - a + 1, int(ax == k), int(ax == l), 0] * h ** (1 - (ax == k) - (ax == l))
        for ax, h in enumerate(grid.h)])


def _sampled_sum(grid, sampled, m):
    """The cell-sampled fields of ``sampled`` ((k, l, field) each) summed
    per corner pair, and the bool mask (i, *offsets, j) of the slots they
    fill.  The sum is an array (2^d, 2^d, *cells, i, j) of ``sum_f L_f[a,
    b] V_f``, L_f the corner matrix of field f's (k, l) and V_f its value at
    every assembly cell, or None without fields; each field looks the
    assembly cell centres up on its own cell grid, one axis at a time, as
    they form a tensor grid.  It is one real product of the stacked corner
    matrices (F, 2^d 2^d) with the stacked cell values (F, cells m^2),
    their real and imaginary parts side by side.  Fields with equal cell
    values share one row, their corner matrices summed first: the exactly
    opposite mixed moments of a symmetric coupling then cancel before the
    product, whose fused multiply-adds would keep a rounding residue.  A
    slot is filled by a corner pair ``offset`` apart whose summed L[a, b] is
    nonzero for a row with a nonzero (i, j) in some cell."""
    d = grid.d
    filled = np.zeros((m,) + (3,) * d + (m,), dtype=bool)
    if not sampled:
        return None, filled
    rows, fields = [], []
    for k, l, fld in sampled:
        L = _corner_matrix(grid, k, l).ravel()
        same = [r for r, f in enumerate(fields) if np.array_equal(f.values, fld.values)]
        if same:
            rows[same[0]] = rows[same[0]] + L
        else:
            rows.append(L)
            fields.append(fld)
    # the assembly cell centres form a tensor grid: cell_index reads each
    # axis's centres once, side by side, each axis cycled to the longest
    axes = np.stack([np.resize(grid.cell_center_coords(ax), max(grid.n)) for ax in range(d)], axis=1)
    L = np.array(rows)
    V = np.stack([fld.values[np.ix_(*(t[:n] for t, n in zip(fld.cell_index(axes), grid.n)))]
                  for fld in fields]).reshape(len(fields), -1, m, m)        # (F, cells, i, j)
    A = (L.T @ V.reshape(len(fields), -1).view(float)).view(complex)
    # reach[a, b, (i, j)]: some row has L[a, b] != 0 and a nonzero (i, j)
    reach = (L != 0).T @ (V != 0).any(axis=1).reshape(len(fields), -1)
    for a, _, b, _, offset in _corner_pairs(d):
        filled[(slice(None),) + offset] |= reach[2 ** d * a + b].reshape(m, m)
    return A.reshape((2 ** d, 2 ** d) + grid.n + (m, m)), filled


def _corner_pairs(d):
    """Corner pairs (a, ca, b, cb) of a cell, ca and cb the corners' 0/1
    positions per axis, and their stencil offset cb - ca + 1."""
    corners = list(itertools.product((0, 1), repeat=d))
    for (a, ca), (b, cb) in itertools.product(enumerate(corners), repeat=2):
        yield a, ca, b, cb, tuple(q - p + 1 for p, q in zip(ca, cb))


def _add_sampled(S, slots, grid, A):
    """The stencil-block array S of the kept ``slots`` plus the summed
    cell-sampled fields A of ``_sampled_sum``, in A's complex dtype: for
    each corner pair (a, b), A[a, b] of every assembly cell whose corners a
    and b are both active nodes, on the kept (i, j) of that offset (the
    others add exact zeros).  S is written in place when it is complex."""
    S = S.astype(complex, copy=False)
    drop = int(grid.bc == "dirichlet")
    pos = np.cumsum(slots).reshape(slots.shape) - 1       # kept slot -> column of S
    for a, ca, b, cb, offset in _corner_pairs(grid.d):
        span = [(max(0, drop - p, drop - q), min(n, n + 1 - drop - p, n + 1 - drop - q))
                for p, q, n in zip(ca, cb, grid.n)]
        cells = tuple(slice(lo, hi) for lo, hi in span)
        rows = tuple(slice(lo + p - drop, hi + p - drop) for (lo, hi), p in zip(span, ca))
        i, j = np.nonzero(slots[(slice(None),) + offset])
        S[rows + (pos[(i,) + offset + (j,)],)] += A[(a, b) + cells][..., i, j]
    return S


def _slot_columns(slots, shape):
    """Channel i and column shift m * (node shift) + j of every kept slot
    (i, *offsets, j), in row-major order: the node shift is the flat index
    step of the neighbour offset on a grid of this node ``shape``."""
    i, *offsets, j = np.nonzero(slots)
    steps = [math.prod(shape[ax + 1:]) for ax in range(len(shape))]
    return i, slots.shape[0] * sum((o - 1) * step for o, step in zip(offsets, steps)) + j


def _stencil_csr(S, slots, grid):
    """CSR matrix of a per-node stencil-block array of the kept ``slots``,
    the layout of tables with an exponent or a cell-sampled field and of
    grids below ``TILED_MIN_ROWS`` rows, built on S's own buffer: rows
    (node, i), columns m * (node + shift) + j ascending, shift the flat
    index step of each neighbour offset.  Slots left out of the mask hold
    exact zeros at every node, so they are not stored.  Blocks of
    neighbours off the grid hold exact zeros too (their bands and cell
    corners are zero), and so can sums that cancel exactly: one
    eliminate_zeros drops them and leaves K canonical, with the entries and
    bits of the full stencil; until then their columns, clipped into range,
    may name another node."""
    import scipy.sparse

    N, m = grid.N, slots.shape[0]
    idx = np.int32 if max(S.size, N * m) < 2 ** 31 else np.int64      # indptr, columns
    i, shift = _slot_columns(slots, grid.shape)
    # each node's own column plus its kept slots' columns, written once
    cols = (m * np.arange(N, dtype=idx)[:, None] + shift.astype(idx)).ravel()
    np.clip(cols, 0, m * N - 1, out=cols)
    # row (node, i) holds channel i's kept slots
    indptr = np.zeros(N * m + 1, dtype=idx)
    np.cumsum(np.tile(np.bincount(i, minlength=m).astype(idx), N), out=indptr[1:])
    data = S.reshape(-1).astype(complex, copy=False)
    K = scipy.sparse.csr_matrix((data, cols, indptr), shape=(N * m, N * m))
    K.eliminate_zeros()
    return K


def _tiled_csr(S, slots, grid):
    """CSR matrix of the stencil-block array of a table with no exponent and
    no cell-sampled field, S holding one row per node class on every axis
    (first node, interior, last node; every node of an axis of at most 3
    nodes): the matrix ``_stencil_csr`` builds from the per-node stencil,
    bit for bit, with no per-node stencil and no zero drop over K.  A
    class's exact zeros (off-grid neighbours and exact cancellations) are
    the same at each of its nodes, so they are dropped once per class, in
    one boolean gather of every class's nonzero entries; the row lengths
    are each class's, repeated over its nodes.  Data and columns are then
    written once, at their final size: every class's entries at its first
    node (0, 1 or the last one on every axis), and then, one axis at a time
    and the last axis first, for every class of the axes before it, the slab
    at interior node 1 is copied to nodes 2 .. n - 2, its columns shifted
    one node step per copy."""
    import scipy.sparse

    shape, m = grid.shape, slots.shape[0]
    N = math.prod(shape)
    steps = [math.prod(shape[ax + 1:]) for ax in range(grid.d)]          # node step per axis
    idx = np.int32 if max(S.shape[-1], m) * N < 2 ** 31 else np.int64      # indptr, columns
    i, shift = _slot_columns(slots, shape)
    keep = S != 0
    # row (node, i) holds its class's nonzero entries of channel i
    indptr = np.zeros(N * m + 1, dtype=idx)
    np.cumsum(_node_stencil(keep @ (i[:, None] == np.arange(m)).astype(idx), shape), out=indptr[1:])
    # the first node of each class on every axis: 0, 1, ... and the last one
    first = [[k * step for k in range(r - 1)] + [(n - 1) * step]
             for r, n, step in zip(S.shape, shape, steps)]
    home = m * functools.reduce(np.add.outer, map(np.array, first))[..., None]
    # a class's entries start at the first row of its first node
    at = (indptr[home] + np.cumsum(keep, axis=-1) - 1)[keep]
    data, cols = np.empty(indptr[-1], dtype=complex), np.empty(indptr[-1], dtype=idx)
    data[at] = S[keep]
    cols[at] = (home + shift)[keep]
    for ax in reversed(range(grid.d)):
        n, step = shape[ax], m * steps[ax]
        if n > 3:
            copies = np.arange(step, (n - 2) * step, step, dtype=idx)[:, None]
            bases = [m * sum(p) for p in itertools.product(*first[:ax])]
            for a, b, e in indptr[np.add.outer(bases, (step, 2 * step, (n - 1) * step))].tolist():
                data[b:e].reshape(n - 3, b - a)[...] = data[a:b]
                np.add(cols[a:b], copies, out=cols[b:e].reshape(n - 3, b - a))
    return scipy.sparse.csr_matrix((data, cols, indptr), shape=(N * m, N * m))


def assemble(sys, grid):
    """Assemble the discrete form of an elliptic system on a grid.

    Quadrature is exact for constant and polynomial coefficient kinds;
    grid-sampled coefficients are evaluated at assembly-cell centers.
    """
    if _as_box(sys.box) != grid.box:
        raise ValueError("grid box must equal the system box")
    m = sys.m
    A, filled = _sampled_sum(grid, sys.table.sampled, m)
    S, slots = _term_stencil(grid, sys.table, m, filled)
    if A is None and not sys.table.top and grid.N * m >= TILED_MIN_ROWS:
        K = _tiled_csr(S, slots, grid)
    else:
        S = _node_stencil(S, grid.shape)
        if A is not None:
            S = _add_sampled(S, slots, grid, A)
        K = _stencil_csr(S, slots, grid)
    return DiscreteForm(K, grid.mass_weights(), grid, m)


def form_matrix(sys, phi, psi, deltas=None):
    """Exact channel matrix ``F[i, j] = a(phi e_j, psi e_i)`` of the
    continuous form on two scalar tensor test functions that share a center
    and dilation; no grid is involved.  With ``deltas`` the pair is
    re-dilated about its center to each of them and the result is the
    (S, m, m) stack of their matrices; the single pair is the one-dilation
    case.

    On the intersection of the supports and the box every coefficient is a
    sum of monomial terms ``x**e * C_e``.  One pass,
    ``tents.reference_intervals``, checks the pair and gives the (S, d)
    reference intervals of all dilations; they decide which dilations are
    empty, and the terms are read on the hull of ``center + delta [lo,
    hi]`` over the others (the largest one when the supports are nested,
    as a tent pair's are), so grid-sampled coefficients raise
    UnsupportedContract unless every dilation's intersection lies inside a
    single coefficient cell.  ``tents.interval_moments`` turns the same
    intervals into one (2, 2, top + 1) table per dilation and axis, ``int
    x**e phi_axis^(a) psi_axis^(b)`` over the box for every derivative
    pattern (a, b); the weights ``prod_axis table[axis, l == axis, k ==
    axis, e_axis]`` of every term of every (k, l) and dilation times the
    terms ``C_e`` are one matrix product.  Where each term reads its
    weights (``moment_index``), the top exponent and the capacity degree
    come from the system's ``CoefficientTable``; the capacity is checked
    on every call.
    """
    d, m, table = sys.d, sys.m, sys.table
    stack, lo, hi = reference_intervals((phi, psi), sys.box, deltas)
    nonempty = (hi > lo).all(axis=1)
    out = np.zeros((len(stack), m, m), dtype=complex)
    if nonempty.any():
        C = table.terms[3]
        if table.sampled:       # each grid-sampled field's constant on the hull
            center, dil = np.array(phi.center), stack[nonempty, None]
            region = list(zip((center + dil * lo[nonempty]).min(axis=0).tolist(),
                              (center + dil * hi[nonempty]).max(axis=0).tolist()))
            C = np.concatenate([C] + [fld.monomials(d, region)[1] for _, _, fld in table.sampled])
        if len(C):
            check_capacity(table.degree)
            tables = interval_moments((phi, psi), table.top, stack, lo, hi)
            if not np.isfinite(tables).all():
                raise NumericalError("non-finite coefficient term or moment")
            # weights[s, t] = prod_axis tables[s, axis, l == axis, k == axis, e_axis]
            weights = tables.reshape(len(stack), -1).take(table.moment_index, axis=1).prod(axis=-1)
            out = phi.scale * psi.scale * np.einsum("st,tij->sij", weights, C)
    return out[0] if deltas is None else out


def form_value(sys, u, v):
    """Exact form value ``a(u, v) = g^H F f`` on elementary tensors
    ``u = (phi, f)`` and ``v = (psi, g)``, F = ``form_matrix(sys, phi, psi)``."""
    (phi, f), (psi, g) = u, v
    F = form_matrix(sys, phi, psi)
    return complex(np.vdot(np.asarray(g, dtype=complex), F @ np.asarray(f, dtype=complex)))


def export_matrix_text(K, fileobj):
    """Write a sparse complex matrix as header + 1-based coordinate triplets."""
    import scipy.sparse

    coo = scipy.sparse.coo_matrix(K)
    fileobj.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
    order = np.lexsort((coo.col, coo.row))
    for r, c, val in zip(coo.row[order], coo.col[order], coo.data[order]):
        fileobj.write(f"{r + 1} {c + 1} {val.real:.17g} {val.imag:.17g}\n")
