"""Galerkin discretization on uniform box grids with multilinear elements.

The stiffness matrix of the form a(u, v) = sum_kl int (C_kl d_l u, d_k v) is
assembled with quadrature that is exact for constant and polynomial
coefficient kinds: every contribution factorizes through per-axis banded
matrices ``int x^a b_p^(dp) b_q^(dq) dx`` combined by Kronecker products.
Grid-sampled coefficients use their cell-center value times exact geometric
factors.  The mass matrix is lumped (product of per-axis node weights).

Degree-of-freedom layout is node-major, channel-minor: dof = node * m + ch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .coefficients import GridSampledField, _as_box
from .errors import UnsupportedContract
from .tents import (
    PiecewiseLinear1D,
    TensorTestFunction,
    gauss_rule,
    tensor_product_integral,
)


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid over a box with zero-trace or natural boundary."""

    box: tuple
    n: tuple            # cells per dimension
    bc: str = "dirichlet"

    def __post_init__(self):
        object.__setattr__(self, "box", _as_box(self.box))
        n = tuple(int(v) for v in (self.n if np.iterable(self.n) else (self.n,) * len(self.box)))
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
        return int(np.prod(self.shape))

    def node_coords(self, axis):
        a, b = self.box[axis]
        full = np.linspace(a, b, self.n[axis] + 1)
        return full[1:-1] if self.bc == "dirichlet" else full

    def node_points(self):
        mesh = np.meshgrid(*[self.node_coords(i) for i in range(self.d)], indexing="ij")
        return np.stack([mm.ravel() for mm in mesh], axis=-1)

    def active_index(self, axis):
        """Map full 1D node index -> active index (-1 for removed nodes)."""
        nn = self.n[axis]
        idx = np.arange(nn + 1)
        if self.bc == "dirichlet":
            out = idx - 1
            out[0] = -1
            out[-1] = -1
            return out
        return idx

    def cell_centers(self):
        axes = [a + (np.arange(nn) + 0.5) * hh
                for (a, b), nn, hh in zip(self.box, self.n, self.h)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([mm.ravel() for mm in mesh], axis=-1)

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


_axis_matrix_cache: dict = {}


def axis_moment_matrix(grid, axis, exponent, dp, dq):
    """Banded 1D matrix  A[p, q] = int x^exponent b_p^(dp) b_q^(dq) dx
    over the axis interval, restricted to the grid's active nodes."""
    key = (grid, axis, exponent, dp, dq)
    if key in _axis_matrix_cache:
        return _axis_matrix_cache[key]
    a, b = grid.box[axis]
    nn = grid.n[axis]
    h = grid.h[axis]
    lows = a + h * np.arange(nn)
    nodes = max(2, (exponent + 4) // 2)   # exact for degree exponent + 2
    gx, gw = gauss_rule(nodes)
    pts = lows[:, None] + h * (gx[None, :] + 1) / 2          # (cells, g)
    wts = (h / 2) * gw[None, :] * pts ** exponent            # (cells, g)
    base = {
        (0, 0): (lows[:, None] + h - pts) / h,               # left hat value
        (0, 1): (pts - lows[:, None]) / h,                   # right hat value
        (1, 0): np.full_like(pts, -1.0 / h),
        (1, 1): np.full_like(pts, 1.0 / h),
    }
    dense = np.zeros((nn + 1, nn + 1))
    for ploc in (0, 1):
        for qloc in (0, 1):
            contrib = np.sum(wts * base[(dp, ploc)] * base[(dq, qloc)], axis=1)
            np.add.at(dense, (np.arange(nn) + ploc, np.arange(nn) + qloc), contrib)
    if grid.bc == "dirichlet":
        dense = dense[1:-1, 1:-1]
    mat = sp.csr_matrix(dense)
    _axis_matrix_cache[key] = mat
    return mat


def directional_stiffness(grid, k, l, exponents=None):
    """Kronecker product over axes of the 1D moment matrices for the
    derivative pattern (test derivative along k, trial derivative along l)."""
    if exponents is None:
        exponents = (0,) * grid.d
    mat = None
    for axis in range(grid.d):
        f = axis_moment_matrix(grid, axis, int(exponents[axis]),
                               int(axis == k), int(axis == l))
        mat = f if mat is None else sp.kron(mat, f, format="csr")
    return sp.csr_matrix(mat)


@dataclass(frozen=True)
class DiscreteForm:
    """Assembled stiffness and lumped mass on a grid, channel-minor layout."""

    K: sp.csr_matrix
    mass: np.ndarray        # per node; dof mass = repeat(mass, m)
    grid: Grid
    m: int

    @property
    def ndof(self):
        return self.grid.N * self.m

    @property
    def dof_mass(self):
        return np.repeat(self.mass, self.m)

    def is_real(self, tol=1e-12):
        data = self.K.data
        if data.size == 0:
            return True
        scale = np.abs(data.real).max()
        return np.abs(data.imag).max() <= tol * max(1.0, scale)

    def generator_matrix(self):
        """Dense A = Mass^-1 K."""
        A = self.K.toarray()
        A /= self.dof_mass[:, None]
        return A

    def channel_coupling_max(self):
        """Largest |K| entry coupling two different channels."""
        coo = self.K.tocoo()
        mask = (coo.row % self.m) != (coo.col % self.m)
        if not mask.any():
            return 0.0
        return float(np.abs(coo.data[mask]).max())


def _local_geometric(grid, k, l):
    """Reference-cell matrices L[a_loc, b_loc] = int_cell d_l b_b d_k b_a."""
    mats = []
    for axis in range(grid.d):
        h = grid.h[axis]
        dp, dq = int(axis == k), int(axis == l)
        if dp and dq:
            mats.append(np.array([[1.0, -1.0], [-1.0, 1.0]]) / h)
        elif dp:
            mats.append(np.array([[-0.5, -0.5], [0.5, 0.5]]))
        elif dq:
            mats.append(np.array([[-0.5, 0.5], [-0.5, 0.5]]))
        else:
            mats.append(h / 6 * np.array([[2.0, 1.0], [1.0, 2.0]]))
    out = mats[0]
    for mm in mats[1:]:
        out = np.kron(out, mm)
    return out


def _cell_corner_dofs(grid):
    """Active flat node index per (cell, local corner); -1 where removed."""
    d = grid.d
    cell_idx = np.meshgrid(*[np.arange(nn) for nn in grid.n], indexing="ij")
    cell_idx = [c.ravel() for c in cell_idx]
    shape = grid.shape
    corners = []
    for bits in range(2 ** d):
        per_axis = []
        valid = np.ones(cell_idx[0].shape, dtype=bool)
        for axis in range(d):
            bit = (bits >> (d - 1 - axis)) & 1
            act = grid.active_index(axis)[cell_idx[axis] + bit]
            valid &= act >= 0
            per_axis.append(np.clip(act, 0, None))
        flat = np.ravel_multi_index(per_axis, shape)
        flat = np.where(valid, flat, -1)
        corners.append(flat)
    return np.stack(corners, axis=1)   # (ncells, 2**d)


def assemble(sys, grid):
    """Assemble the discrete form of an elliptic system on a grid.

    Quadrature is exact for constant and polynomial coefficient kinds;
    grid-sampled coefficients are evaluated at assembly-cell centers.
    """
    if _as_box(sys.box) != grid.box:
        raise ValueError("grid box must equal the system box")
    d, m, N = sys.d, sys.m, grid.N
    K = sp.csr_matrix((N * m, N * m), dtype=complex)

    corner_dofs = None
    for k in range(d):
        for l in range(d):
            fld = sys.coefficient(k, l)
            if isinstance(fld, GridSampledField):
                if corner_dofs is None:
                    corner_dofs = _cell_corner_dofs(grid)
                K = K + _assemble_sampled(grid, fld, k, l, corner_dofs)
                continue
            for exps, C in fld.monomials(d, grid.box):
                A = directional_stiffness(grid, k, l, exps)
                K = K + sp.kron(A, sp.csr_matrix(C), format="csr")
    K.sum_duplicates()
    return DiscreteForm(K, grid.mass_weights(), grid, m)


def _assemble_sampled(grid, fld, k, l, corner_dofs):
    m = fld.m
    vals = fld.values[fld.cell_index(grid.cell_centers())]   # (ncells, m, m)
    L = _local_geometric(grid, k, l)                      # (2^d, 2^d)
    ncells, nloc = corner_dofs.shape
    rows, cols, data = [], [], []
    for a in range(nloc):
        for b in range(nloc):
            if L[a, b] == 0.0:
                continue
            pa = corner_dofs[:, a]
            qb = corner_dofs[:, b]
            ok = (pa >= 0) & (qb >= 0)
            if not ok.any():
                continue
            block = L[a, b] * vals[ok]                    # (nok, m, m)
            ii, jj = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
            rows.append((pa[ok][:, None, None] * m + ii[None]).ravel())
            cols.append((qb[ok][:, None, None] * m + jj[None]).ravel())
            data.append(block.ravel())
    if not rows:
        return sp.csr_matrix((grid.N * m, grid.N * m), dtype=complex)
    return sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.N * m, grid.N * m),
    )


def form_matrix(sys, phi, psi):
    """Exact channel matrix ``F[i, j] = a(phi e_j, psi e_i)`` of the
    continuous form on two scalar tensor test functions; no grid is involved.

    On the intersection of the supports every coefficient is a sum of
    monomial terms ``x**e * C_e``, and each (k, l) adds one tensor-product
    integral ``sum_e C_e int x**e (d_l phi)(d_k psi)``.  Grid-sampled
    coefficients raise UnsupportedContract unless that intersection lies
    inside a single coefficient cell.
    """
    d, m = sys.d, sys.m
    F = np.zeros((m, m), dtype=complex)
    region = []
    for (a1, b1), (a2, b2) in zip(phi.support_box(), psi.support_box()):
        lo, hi = max(a1, a2), min(b1, b2)
        if hi <= lo:
            return F
        region.append((lo, hi))
    for k in range(d):
        for l in range(d):
            weight = sys.coefficient(k, l).monomials(d, region)
            if weight:
                F += tensor_product_integral(
                    [(phi, l), (psi, k)], weight=weight, box=sys.box)
    return F


def form_value(sys, u, v):
    """Exact form value ``a(u, v) = g^H F f`` on elementary tensors
    ``u = (phi, f)`` and ``v = (psi, g)``, F = ``form_matrix(sys, phi, psi)``."""
    (phi, f), (psi, g) = u, v
    F = form_matrix(sys, phi, psi)
    return complex(np.vdot(np.asarray(g, dtype=complex), F @ np.asarray(f, dtype=complex)))


def commutation_residual(grid, B, u, v, k, l):
    """|int (B d_l u, d_k v) - int (B d_k u, d_l v)| for nodal states on a
    zero-trace grid (the identity fails with the natural boundary)."""
    if grid.bc != "dirichlet":
        raise UnsupportedContract(
            "the gradient commutation identity requires the zero-trace space"
        )
    B = np.asarray(B, dtype=complex)
    m = B.shape[0]
    U = np.asarray(u, dtype=complex).reshape(grid.N, m)
    V = np.asarray(v, dtype=complex).reshape(grid.N, m)

    def pairing(kk, ll):
        G = directional_stiffness(grid, kk, ll)
        return np.sum(np.conj(V) * ((G @ U) @ B.T))

    return float(abs(pairing(k, l) - pairing(l, k)))


def export_matrix_text(K, fileobj):
    """Write a sparse complex matrix as header + 1-based coordinate triplets."""
    coo = sp.coo_matrix(K)
    fileobj.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
    order = np.lexsort((coo.col, coo.row))
    for r, c, val in zip(coo.row[order], coo.col[order], coo.data[order]):
        fileobj.write(f"{r + 1} {c + 1} {val.real:.17g} {val.imag:.17g}\n")


def affine_tensor(box, axis):
    """Tensor test function equal to the coordinate x_axis on the box."""
    return TensorTestFunction(1.0, tuple(
        PiecewiseLinear1D([a, b], [a, b] if i == axis else [1.0, 1.0])
        for i, (a, b) in enumerate(box)))
