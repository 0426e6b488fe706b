import copy
import io
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

from possem import catalog
from possem.assembly import (
    Grid,
    _add_sampled,
    _axis_bands,
    _sampled_sum,
    _stencil_csr,
    _term_stencil,
    assemble,
    export_matrix_text,
    form_matrix,
    form_value,
)
from possem.coefficients import (
    ConstantField,
    EllipticSystem,
    GridSampledField,
    PolynomialField,
)
from possem.decoupling import _probe_pair, probe_system
from possem.errors import CapacityError, GeometryError, NumericalError, UnsupportedContract
from possem.polynomials import MultiPoly
from possem.tents import (
    TensorTestFunction,
    _common_support,
    build_test_pair,
    hat,
    moment_tables,
    tensor_product_integral,
)


def scalar_identity_system(box, bc="free"):
    d = len(box)
    one = ConstantField(np.eye(1, dtype=complex))
    zero = ConstantField(np.zeros((1, 1), dtype=complex))
    coeffs = tuple(tuple(one if k == l else zero for l in range(d)) for k in range(d))
    return EllipticSystem(box, 1, coeffs, bc, 1.0)


def test_1d_single_node_stiffness():
    # two cells on (0, 1), one interior node: K = [2/h] = [4]
    sys_ = scalar_identity_system(((0.0, 1.0),), bc="dirichlet")
    g = Grid(((0.0, 1.0),), (2,), "dirichlet")
    dform = assemble(sys_, g)
    assert dform.K.shape == (1, 1)
    assert dform.K[0, 0] == pytest.approx(4.0)
    assert dform.mass[0] == pytest.approx(0.5)


def test_1d_tridiagonal_pattern():
    sys_ = scalar_identity_system(((0.0, 1.0),), bc="dirichlet")
    g = Grid(((0.0, 1.0),), (4,), "dirichlet")
    K = assemble(sys_, g).K.toarray().real
    h = 0.25
    expected = (1 / h) * (2 * np.eye(3) - np.eye(3, k=1) - np.eye(3, k=-1))
    assert np.allclose(K, expected)


def test_decoupled_system_has_block_structure():
    rng = np.random.default_rng(0)
    d = 2
    diag = np.diag(rng.uniform(1, 2, 3)).astype(complex)
    fld = ConstantField(diag)
    zero = ConstantField(np.zeros((3, 3), dtype=complex))
    coeffs = ((fld, zero), (zero, fld))
    sys_ = EllipticSystem(((0, 1), (0, 1)), 3, coeffs, "dirichlet", 0.5)
    dform = assemble(sys_, Grid(sys_.box, (4, 4), "dirichlet"))
    assert dform.channel_coupling_max() == 0.0


def test_discrete_form_arrays_are_read_only():
    sys_ = catalog.get("ex1_3").build(bc="dirichlet")
    dform = assemble(sys_, Grid(sys_.box, (4, 4), "dirichlet"))
    for arr in (dform.K.data, dform.K.indices, dform.K.indptr, dform.mass):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


def test_nullform_assembles_to_zero():
    sys_ = catalog.get("ex3_5_nullform").build()
    g = Grid(sys_.box, (4, 4, 4), "free")
    K = assemble(sys_, g).K
    assert np.abs(K.data).max(initial=0.0) <= 1e-10


def test_form_value_cross_term_of_antisymmetric_pair():
    # u = phi x e1, v = psi x e2 with the off-diagonal tent pair sees only
    # the symmetrized coupling, which vanishes for the antisymmetric pair
    from possem.tents import build_test_pair

    sys_ = catalog.get("ex1_3").build()
    pair = build_test_pair(1.0, 0, 1, 2).dilated(np.zeros(2), 1.0)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    val = form_value(sys_, (pair.phi, e1), (pair.psi, e2))
    assert abs(val) <= 1e-12


def test_form_value_gradient_energy():
    sys_ = scalar_identity_system(((-2.0, 2.0), (-2.0, 2.0)))
    uu = TensorTestFunction(1.0, (hat(), hat()))
    val = form_value(sys_, (uu, [1.0]), (uu, [1.0]))
    assert val == pytest.approx(8 / 3, abs=1e-14)


def test_form_value_zero_channel_vector():
    sys_ = catalog.get("ex1_3").build()
    uu = TensorTestFunction(1.0, (hat(), hat()))
    val = form_value(sys_, (uu, [0.0, 0.0]), (uu, [1.0, 1.0]))
    assert val == 0.0


def single_coupling_systems(bc, B):
    """Two systems whose only coefficient is the constant B, one at
    (k, l) = (0, 1) and one at (1, 0)."""
    zero = ConstantField(np.zeros(B.shape, dtype=complex))

    def placed(k, l):
        coeffs = tuple(tuple(ConstantField(B) if (i, j) == (k, l) else zero
                             for j in range(2)) for i in range(2))
        return EllipticSystem(((0.0, 1.0), (0.0, 1.0)), B.shape[0], coeffs, bc, 0.0)

    return placed(0, 1), placed(1, 0)


def test_commutation_identity():
    # int (B d_2 u, d_1 v) = int (B d_1 u, d_2 v) for zero-trace u, v
    g = Grid(((0.0, 1.0), (0.0, 1.0)), (8, 8), "dirichlet")
    rng = np.random.default_rng(3)
    m = 2
    B = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    u = rng.standard_normal(g.N * m) + 1j * rng.standard_normal(g.N * m)
    v = rng.standard_normal(g.N * m) + 1j * rng.standard_normal(g.N * m)
    K01, K10 = (assemble(s, g).K for s in single_coupling_systems("dirichlet", B))
    bound = 1e-10 * np.linalg.norm(B, 2) * np.linalg.norm(u) * np.linalg.norm(v)
    assert abs(np.vdot(v, K01 @ u) - np.vdot(v, K10 @ u)) <= bound
    assert np.abs((K01 - K10).toarray()).max() <= 1e-10 * np.linalg.norm(B, 2)


def test_commutation_requires_zero_trace():
    g = Grid(((0.0, 1.0), (0.0, 1.0)), (4, 4), "free")
    K01, K10 = (assemble(s, g).K for s in single_coupling_systems("free", np.eye(1)))
    assert np.abs((K01 - K10).toarray()).max() > 0.1


def gauge_shift(sys_, c):
    """C_12 -> C_12 + c I, C_21 -> C_21 - c I."""
    m = sys_.m
    eye = np.eye(m, dtype=complex)
    f12 = sys_.coefficient(0, 1)
    f21 = sys_.coefficient(1, 0)
    shifted = sys_.with_coefficient(0, 1, ConstantField(f12.eval(np.array(
        [(a + b) / 2 for a, b in sys_.box])) + c * eye))
    return shifted.with_coefficient(1, 0, ConstantField(f21.eval(np.array(
        [(a + b) / 2 for a, b in sys_.box])) - c * eye))


@pytest.mark.parametrize("c", [1.0, 1j, 2 + 3j])
def test_gauge_invariance_zero_trace(c):
    sys_ = catalog.get("witness_W").build()      # constant coefficients
    g = Grid(sys_.box, (6, 6), "dirichlet")
    K0 = assemble(sys_, g).K
    K1 = assemble(gauge_shift(sys_, c), g).K
    scale = np.abs(K0.toarray()).max()
    assert np.abs((K1 - K0).toarray()).max() <= 1e-10 * scale


def test_symmetrization_sufficiency():
    # K depends on the coefficients only through C_kl + C_lk on zero-trace grids
    sys_ = catalog.get("witness_W").build()
    g = Grid(sys_.box, (6, 6), "dirichlet")
    K0 = assemble(sys_, g).K
    S = sys_.symmetrized(0, 1, np.zeros(2)) / 2
    sym = sys_.with_coefficient(0, 1, ConstantField(S))
    sym = sym.with_coefficient(1, 0, ConstantField(S))
    K1 = assemble(sym, g).K
    scale = np.abs(K0.toarray()).max()
    assert np.abs((K1 - K0).toarray()).max() <= 1e-10 * scale


def test_coercivity_inherited_by_discretization():
    # Re u*Ku >= mu * u*Lu with L the channelwise gradient quadratic form
    sys_ = catalog.get("ex1_3").build(bc="dirichlet")
    g = Grid(sys_.box, (6, 6), "dirichlet")
    K = assemble(sys_, g).K
    L = assemble(scalar_identity_system(sys_.box, "dirichlet"), Grid(sys_.box, (6, 6), "dirichlet")).K
    rng = np.random.default_rng(9)
    for _ in range(20):
        u = rng.standard_normal(K.shape[0]) + 1j * rng.standard_normal(K.shape[0])
        quad = np.real(np.vdot(u, K @ u))
        grads = sum(np.real(np.vdot(u[ch::2], L @ u[ch::2])) for ch in range(2))
        assert quad >= 3.5 * grads - 1e-9 * abs(quad)


def test_free_bc_mass_weights():
    g = Grid(((0.0, 1.0),), (2,), "free")
    assert np.allclose(g.mass_weights(), [0.25, 0.5, 0.25])
    g2 = Grid(((0.0, 1.0), (0.0, 2.0)), (2, 2), "dirichlet")
    assert np.allclose(g2.mass_weights(), [0.5])


def test_export_matrix_text_format():
    sys_ = scalar_identity_system(((0.0, 1.0),), bc="dirichlet")
    dform = assemble(sys_, Grid(((0.0, 1.0),), (3,), "dirichlet"))
    buf = io.StringIO()
    export_matrix_text(dform.K, buf)
    lines = buf.getvalue().strip().splitlines()
    rows, cols, nnz = (int(v) for v in lines[0].split())
    assert (rows, cols) == dform.K.shape
    assert nnz == len(lines) - 1
    first = lines[1].split()
    assert len(first) == 4
    assert int(first[0]) >= 1 and int(first[1]) >= 1


def test_row_sparsity_bound():
    sys_ = catalog.get("witness_W").build()
    g = Grid(sys_.box, (8, 8), "dirichlet")
    K = assemble(sys_, g).K
    assert np.diff(K.indptr).max() <= 3 ** 2 * 2 ** 2


def test_symmetrization_sufficiency_polynomial():
    from possem.coefficients import PolynomialField

    sys_ = catalog.get("rand_coupled(5)").build()
    g = Grid(sys_.box, (5, 5), "dirichlet")
    K0 = assemble(sys_, g).K

    def averaged(k, l):
        fk, fl = sys_.coefficient(k, l), sys_.coefficient(l, k)
        entries = tuple(tuple((fk.entries[i][j] + fl.entries[i][j]) * 0.5
                        for j in range(sys_.m)) for i in range(sys_.m))
        return PolynomialField(entries, sys_.d)

    sym = sys_.with_coefficient(0, 1, averaged(0, 1))
    sym = sym.with_coefficient(1, 0, averaged(1, 0))
    K1 = assemble(sym, g).K
    scale = np.abs(K0.toarray()).max()
    assert np.abs((K1 - K0).toarray()).max() <= 1e-10 * scale


def cell_sampled_system():
    """Two channels on the unit square with seeded coupled values on a
    2 x 2 coefficient grid."""
    rng = np.random.default_rng(7)
    box = ((0.0, 1.0), (0.0, 1.0))

    def field():
        vals = 0.2 * (rng.standard_normal((2, 2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2, 2)))
        return GridSampledField(box, vals + np.eye(2))

    return EllipticSystem(box, 2, ((field(), field()), (field(), field())), "free", 0.0)


FORM_KINDS = {
    "constant": (lambda: catalog.get("witness_W").build(bc="free"), (-1.5, 0.5)),
    "polynomial": (lambda: catalog.get("rand_coupled(3)").build(bc="free"), (0.375, 0.625)),
    "grid": (cell_sampled_system, (0.25, 0.75)),
}


def grid_tent_pair(sys_, grid, x0, k, l):
    """Tent pair at a grid node dilated by delta = 2h: every breakpoint is on
    a grid line, so the pair lies in the Q1 space and vH K u is exact."""
    return build_test_pair(1.0, k, l, sys_.d).dilated(np.asarray(x0), 2.0 * grid.h[0])


@pytest.mark.parametrize("kind", sorted(FORM_KINDS))
def test_form_value_matches_assembly(kind):
    build, x0 = FORM_KINDS[kind]
    sys_ = build()
    grid = Grid(sys_.box, (16, 16), "free")
    dform = assemble(sys_, grid)
    nodes = grid.node_points()
    rng = np.random.default_rng(11)
    for k, l in [(0, 0), (0, 1), (1, 1)]:
        pair = grid_tent_pair(sys_, grid, x0, k, l)
        f = rng.standard_normal(sys_.m) + 1j * rng.standard_normal(sys_.m)
        g = rng.standard_normal(sys_.m) + 1j * rng.standard_normal(sys_.m)
        u = np.kron(pair.phi(nodes), f)
        v = np.kron(pair.psi(nodes), g)
        lattice = np.vdot(v, dform.K @ u)
        exact = form_value(sys_, (pair.phi, f), (pair.psi, g))
        assert abs(exact) > 1e-3
        assert abs(lattice - exact) <= 1e-9 * max(1.0, abs(exact))
        # every channel pair at once: F[i, j] = a(phi e_j, psi e_i) = (V^H K U)[i, j]
        eye = np.eye(sys_.m)
        U = np.kron(pair.phi(nodes)[:, None], eye)
        V = np.kron(pair.psi(nodes)[:, None], eye)
        lattice_F = V.conj().T @ (dform.K @ U)
        F = form_matrix(sys_, pair.phi, pair.psi)
        assert np.abs(F).max() > 1e-3
        assert np.abs(lattice_F - F).max() <= 1e-9 * max(1.0, np.abs(F).max())


def test_form_value_rejects_support_across_cells():
    sys_ = cell_sampled_system()
    grid = Grid(sys_.box, (16, 16), "free")
    # the diagonal pair's supports meet on both sides of x0 along axis 0
    pair = grid_tent_pair(sys_, grid, (0.5, 0.25), 0, 0)
    with pytest.raises(UnsupportedContract):
        form_value(sys_, (pair.phi, np.ones(2)), (pair.psi, np.ones(2)))


# -- Kronecker-sum oracle ---------------------------------------------------------
# Reference assembly: every monomial term of every (k, l) is a full-size
# Kronecker product of per-axis banded moment matrices, summed one by one;
# a cell-sampled field adds COO triplets per cell corner pair.


def oracle_axis_matrix(grid, axis, exponent, dp, dq):
    """A[p, q] = int x^exponent b_p^(dp) b_q^(dq) dx over the active nodes."""
    a, _ = grid.box[axis]
    nn, h = grid.n[axis], grid.h[axis]
    lows = a + h * np.arange(nn)
    gx, gw = np.polynomial.legendre.leggauss(max(2, (exponent + 4) // 2))
    pts = lows[:, None] + h * (gx[None, :] + 1) / 2
    wts = (h / 2) * gw[None, :] * pts ** exponent
    base = {(0, 0): (lows[:, None] + h - pts) / h, (0, 1): (pts - lows[:, None]) / h,
            (1, 0): np.full_like(pts, -1.0 / h), (1, 1): np.full_like(pts, 1.0 / h)}
    dense = np.zeros((nn + 1, nn + 1))
    for ploc in (0, 1):
        for qloc in (0, 1):
            contrib = np.sum(wts * base[(dp, ploc)] * base[(dq, qloc)], axis=1)
            np.add.at(dense, (np.arange(nn) + ploc, np.arange(nn) + qloc), contrib)
    if grid.bc == "dirichlet":
        dense = dense[1:-1, 1:-1]
    return sp.csr_matrix(dense)


def oracle_directional(grid, k, l, exps):
    mat = None
    for axis in range(grid.d):
        f = oracle_axis_matrix(grid, axis, int(exps[axis]), int(axis == k), int(axis == l))
        mat = f if mat is None else sp.kron(mat, f, format="csr")
    return sp.csr_matrix(mat)


def oracle_sampled(grid, fld, k, l):
    """Cell value times the exact corner matrix, scattered per cell."""
    d, m = grid.d, fld.m
    # one-cell free grids give the reference-cell corner matrices per axis
    L = np.ones((1, 1))
    for axis in range(d):
        cell = Grid(((0.0, grid.h[axis]),), (1,), "free")
        L = np.kron(L, oracle_axis_matrix(cell, 0, 0, int(axis == k), int(axis == l)).toarray())
    vals = fld.values[fld.cell_index(grid.cell_centers())]
    drop = int(grid.bc == "dirichlet")
    cells = [c.ravel() for c in np.meshgrid(*[np.arange(n) for n in grid.n], indexing="ij")]
    corners = []
    for bits in itertools.product((0, 1), repeat=d):
        act = [c + b - drop for c, b in zip(cells, bits)]
        ok = np.all([(a >= 0) & (a < n) for a, n in zip(act, grid.shape)], axis=0)
        corners.append(np.where(ok, np.ravel_multi_index(
            [np.clip(a, 0, n - 1) for a, n in zip(act, grid.shape)], grid.shape), -1))
    rows, cols, data = [], [], []
    ii, jj = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    for a, pa in enumerate(corners):
        for b, qb in enumerate(corners):
            ok = (pa >= 0) & (qb >= 0)
            rows.append((pa[ok][:, None, None] * m + ii).ravel())
            cols.append((qb[ok][:, None, None] * m + jj).ravel())
            data.append((L[a, b] * vals[ok]).ravel())
    n = grid.N * m
    return sp.csr_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n))


def kronecker_assembly(sys_, grid):
    n = grid.N * sys_.m
    K = sp.csr_matrix((n, n), dtype=complex)
    for k in range(sys_.d):
        for l in range(sys_.d):
            fld = sys_.coefficient(k, l)
            if isinstance(fld, GridSampledField):
                K = K + oracle_sampled(grid, fld, k, l)
                continue
            for exps, C in zip(*fld.monomials(sys_.d, grid.box)):
                K = K + sp.kron(oracle_directional(grid, k, l, exps), sp.csr_matrix(C))
    return K


ORACLE_BOXES = ((-0.5, 1.0), (0.25, 2.0), (-2.0, -1.0))


def seeded_field(rng, kind, d, m, box):
    if kind == "constant":
        return ConstantField(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    if kind in ("grid", "grid_2"):
        cells = (3, 2, 2)[:d] if kind == "grid" else (2,) * d
        vals = rng.standard_normal(cells + (m, m)) + 1j * rng.standard_normal(cells + (m, m))
        return GridSampledField(box, vals)
    if kind == "polynomial":
        # polynomial entries of degree <= 2 per axis, <= 4 in total (<= 2 in 3D)
        exps = [e for e in itertools.product(range(3), repeat=d) if sum(e) <= (4 if d < 3 else 2)]
    else:
        # "poly_x1" / "poly_xd": degree <= 2 in the first / last coordinate only
        axis = 0 if kind == "poly_x1" else d - 1
        exps = [tuple(e * (ax == axis) for ax in range(d)) for e in range(3)]

    def entry():
        return MultiPoly.from_terms(
            [(e, complex(*rng.standard_normal(2))) for e in exps], d)

    return PolynomialField(tuple(tuple(entry() for _ in range(m)) for _ in range(m)), d)


#: Kinds that cycle several field kinds over the (k, l) pairs.
CYCLED_KINDS = {"mixed": ["constant", "polynomial", "grid"], "constant_grid": ["constant", "grid"],
                "two_grids": ["grid", "grid_2"]}


def seeded_system(kind, d, m, bc, seed=0):
    """Seeded coefficients of one kind; "mixed" cycles constant, polynomial
    and grid-sampled fields over the (k, l) pairs, "constant_grid" constant
    and grid-sampled ones, and "two_grids" grid-sampled fields on 3 x 2 x 2
    and 2 x 2 x 2 cells (the first d of each), with C_lk = C_kl.  A "real_"
    prefix keeps the real part of every field of the kind."""
    rng = np.random.default_rng(seed)
    box = ORACLE_BOXES[:d]
    base = kind.removeprefix("real_")
    kinds = itertools.cycle(CYCLED_KINDS.get(base, [base]))
    coeffs = [[seeded_field(rng, next(kinds), d, m, box) for _ in range(d)] for _ in range(d)]
    if base == "two_grids":
        for k, l in itertools.combinations(range(d), 2):
            coeffs[l][k] = coeffs[k][l]
    if kind != base:
        coeffs = [[fld.realified() for fld in row] for row in coeffs]
    return EllipticSystem(box, m, tuple(map(tuple, coeffs)), bc, 0.0)


def assert_canonical_csr(K, grid, m):
    """Sorted column indices within rows, no duplicates, no stored zeros,
    and at most m^2 3^d entries per node."""
    n = grid.N * m
    assert K.shape == (n, n)
    assert K.indptr[0] == 0 and K.indptr[-1] == K.nnz
    assert np.all(np.diff(K.indptr) >= 0)
    row_of = np.repeat(np.arange(n), np.diff(K.indptr))
    same_row = row_of[1:] == row_of[:-1]
    assert np.all(np.diff(K.indices)[same_row] > 0)
    assert np.all(K.data != 0)
    assert K.nnz <= grid.N * m * m * 3 ** grid.d


@pytest.mark.parametrize("bc", ["free", "dirichlet"])
@pytest.mark.parametrize("cells", [1, 2, 5])
def test_axis_bands_are_the_moment_matrix_diagonals(cells, bc):
    if bc == "dirichlet" and cells < 2:
        return
    grid = Grid((ORACLE_BOXES[0],), (cells,), bc)
    bands = _axis_bands(grid, 0, 3)
    n = grid.shape[0]
    assert bands.shape == (4, 2, 2, n, 3)
    for e, dp, dq in itertools.product(range(4), (0, 1), (0, 1)):
        A = oracle_axis_matrix(grid, 0, e, dp, dq).toarray()
        padded = np.zeros((n, n + 2))
        padded[:, 1:-1] = A
        # band[p, o] = A[p, p + o - 1], zero where p + o - 1 is off the grid
        expect = np.stack([padded[np.arange(n), np.arange(n) + o] for o in range(3)], axis=1)
        assert np.abs(bands[e, dp, dq] - expect).max() <= 1e-14 * max(1.0, np.abs(A).max())
    # int b_p b_p' dx vanishes by symmetry at every interior node, exactly,
    # so a constant mixed-derivative term stores no rounding residue in K
    inner = slice(1, -1) if bc == "free" else slice(None)
    assert np.all(bands[0, 0, 1, inner, 1] == 0) and np.all(bands[0, 1, 0, inner, 1] == 0)


@pytest.mark.parametrize("bc", ["free", "dirichlet"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["constant", "polynomial", "grid", "mixed",
                                  "poly_x1", "poly_xd", "constant_grid", "two_grids",
                                  "real_mixed", "real_poly_x1"])
def test_assembly_matches_kronecker_oracle(kind, d, bc):
    # poly_x1 keeps every band row of the first axis and gathers the others,
    # poly_xd gathers the first axis (the one that carries C), constant_grid
    # adds cell-sampled fields into a gathered stencil, two_grids sums fields
    # on two cell grids, real_* take the real product; (7, 6, 5) has at
    # least 4 active nodes on every axis under both boundaries
    smallest = 1 if bc == "free" else 2
    for m in (1, 2, 3):
        sys_ = seeded_system(kind, d, m, bc, seed=10 * d + m)
        for cells in ((smallest,) * d, (5, 4, 3)[:d], (7, 6, 5)[:d]):
            assert_matches_kronecker_oracle(sys_, Grid(sys_.box, cells, bc))


def assert_matches_kronecker_oracle(sys_, grid):
    K = assemble(sys_, grid).K
    ref = kronecker_assembly(sys_, grid)
    scale = np.abs(ref.data).max()
    assert scale > 0
    assert np.abs((K - ref).toarray()).max() <= 1e-13 * scale, (sys_.m, grid.n)
    assert_canonical_csr(K, grid, sys_.m)


@pytest.mark.parametrize("bc", ["free", "dirichlet"])
@pytest.mark.parametrize("d", [1, 2])
def test_constant_assembly_on_every_small_grid(d, bc):
    # 1-5 cells per axis: 1-4 active nodes under zero trace, 2-6 free, so
    # axes with and without a gathered interior row meet in one grid
    sys_ = seeded_system("constant", d, 2, bc, seed=7)
    for cells in itertools.product(range(1 if bc == "free" else 2, 6), repeat=d):
        assert_matches_kronecker_oracle(sys_, Grid(sys_.box, cells, bc))


@pytest.mark.parametrize("sampled", [False, True])
def test_zero_coefficients_assemble_to_empty_matrix(sampled):
    box = ORACLE_BOXES[:2]
    zero = (GridSampledField(box, np.zeros((2, 2, 3, 3))) if sampled
            else ConstantField(np.zeros((3, 3))))
    sys_ = EllipticSystem(box, 3, ((zero, zero), (zero, zero)), "free", 0.0)
    grid = Grid(box, (4, 3), "free")
    K = assemble(sys_, grid).K
    assert K.shape == (grid.N * 3, grid.N * 3)
    assert K.nnz == 0
    assert_canonical_csr(K, grid, 3)


def test_non_finite_polynomial_term_is_rejected():
    # when the field is built, so no system holding it reaches assemble
    with pytest.raises(ValueError, match="polynomial coefficients must be finite"):
        PolynomialField(((MultiPoly.from_terms([((1, 0), np.inf)], 2),),), 2)


def huge_box_system():
    """C_11 = x1^2 + 1 on a square of side 1e160: the tent moments of its
    square term pass the largest double."""
    box = ((0.0, 1e160), (0.0, 1e160))
    c11 = PolynomialField(((MultiPoly.from_terms([((2, 0), 1.0), ((0, 0), 1.0)], 2),),), 2)
    one = ConstantField(np.eye(1, dtype=complex))
    zero = ConstantField(np.zeros((1, 1), dtype=complex))
    return EllipticSystem(box, 1, ((c11, zero), (zero, one)), "free", 1.0)


def test_overflowing_moments_are_a_numerical_error():
    # an error, not a RuntimeWarning (warnings fail this suite) and not NaN
    sys_ = huge_box_system()
    with pytest.raises(NumericalError, match="non-finite coefficient term or moment"):
        assemble(sys_, Grid(sys_.box, (3, 3), "free"))
    pair = build_test_pair(2.0, 0, 0, 2).dilated((5e159, 5e159), 1e159)
    with pytest.raises(NumericalError, match="non-finite coefficient term or moment"):
        form_matrix(sys_, pair.phi, pair.psi)
    with pytest.raises(NumericalError, match="non-finite coefficient term or moment"):
        probe_system(sys_, [5e159, 5e159], 0, 0)


@pytest.mark.parametrize("name, bc, cells, stored", [
    ("ex1_3", "free", 8, 1318),
    ("ex1_3", "free", 64, 75014),
    ("ex5_5", "dirichlet", 6, 6122),
    ("witness_W", "dirichlet", 8, 866),
    ("ex1_3", "dirichlet", 64, 69938),
    ("witness_W", "free", 64, 91398),
    ("scalar_heat", "free", 32, 9409),
    ("ex1_3", "free", 128, 297478),
    ("rand_decoupled(3)", "dirichlet", 16, 3698),
    ("rand_decoupled(3)", "free", 16, 4802),
    ("ex1_3", "free", 256, 1184774),
])
def test_stored_entry_counts_are_pinned(name, bc, cells, stored):
    # a reordered term sum must keep exactly these entries through
    # eliminate_zeros: no rounding residue stored where K is exactly zero
    sys_ = catalog.get(name).build(bc=bc)
    grid = Grid(sys_.box, (cells,) * sys_.d, bc)
    K = assemble(sys_, grid).K
    assert K.nnz == stored
    assert_canonical_csr(K, grid, sys_.m)


@pytest.mark.parametrize("bc, stored", [("free", 2464), ("dirichlet", 1408)])
def test_stored_entry_counts_of_a_cell_sampled_system_are_pinned(bc, stored):
    sys_ = seeded_system("grid", 2, 2, bc, seed=3)
    grid = Grid(sys_.box, (9, 7), bc)
    K = assemble(sys_, grid).K
    assert K.nnz == stored
    assert_canonical_csr(K, grid, sys_.m)


def full_stencil(sys_, grid):
    """The stencil-block array with every slot (i, *offsets, j) kept, as
    ``assemble`` builds it before the slot mask, and that all-true mask."""
    every = np.ones((sys_.m,) + (3,) * grid.d + (sys_.m,), dtype=bool)
    S, _ = _term_stencil(grid, sys_.table, sys_.m, every)
    A, _ = _sampled_sum(grid, sys_.table.sampled, sys_.m)
    if A is not None:
        S = _add_sampled(S, every, grid, A)
    return S, every


def kept_slots(sys_, grid):
    """The slot mask that ``assemble`` derives from the factors."""
    _, filled = _sampled_sum(grid, sys_.table.sampled, sys_.m)
    return _term_stencil(grid, sys_.table, sys_.m, filled)[1]


def assert_mask_covers_full_stencil(sys_, grid):
    S, every = full_stencil(sys_, grid)
    nonzero = (S != 0).reshape((-1,) + every.shape).any(axis=0)
    slots = kept_slots(sys_, grid)
    assert np.all(slots[nonzero]), (sys_.m, grid.n)
    # the compact stencil stores the full stencil's entries, bit for bit
    K, full = assemble(sys_, grid).K, _stencil_csr(S, every, grid)
    for a, b in ((K.data, full.data), (K.indices, full.indices), (K.indptr, full.indptr)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    return slots


@pytest.mark.parametrize("bc", ["free", "dirichlet"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["mixed", "poly_x1", "poly_xd", "constant_grid",
                                  "real_mixed", "real_poly_x1"])
def test_slot_mask_covers_every_nonzero_slot(kind, d, bc):
    for m in (1, 2):
        sys_ = seeded_system(kind, d, m, bc, seed=10 * d + m)
        for cells in (((1 if bc == "free" else 2),) * d, (5, 4, 3)[:d]):
            assert_mask_covers_full_stencil(sys_, Grid(sys_.box, cells, bc))


@pytest.mark.parametrize("name, bc, kept", [
    ("ex1_3", "free", 27),
    ("rand_decoupled(3)", "dirichlet", 18),
    ("ex5_5", "dirichlet", 81),
    ("ex3_5_nullform", "free", 27),
])
def test_slot_mask_drops_the_channel_pairs_no_term_reads(name, bc, kept):
    # ex1_3 couples channel 1 to 0 but not 0 to 1; rand_decoupled couples none
    sys_ = catalog.get(name).build(bc=bc)
    slots = assert_mask_covers_full_stencil(sys_, Grid(sys_.box, (6,) * sys_.d, bc))
    assert np.count_nonzero(slots) == kept


@pytest.mark.parametrize("cells", [4.7, np.nan, np.inf, (4, 4.7), (np.float64(4.5), 4)])
def test_grid_refuses_cell_counts_that_are_not_integers(cells):
    with pytest.raises(ValueError, match="^cell counts must be integers$"):
        Grid(((0.0, 1.0), (0.0, 1.0)), cells)


@pytest.mark.parametrize("cells", [4, (4, 4), np.int64(4), (np.int32(4), np.int64(4))])
def test_grid_takes_python_and_numpy_integer_cell_counts(cells):
    grid = Grid(((0.0, 1.0), (0.0, 1.0)), cells)
    assert grid.n == (4, 4) and all(type(v) is int for v in grid.n)


# -- per-(k, l) form oracle -----------------------------------------------------
# Reference form matrix: one tensor_product_integral per (k, l), each with
# the monomial terms of C_kl on the intersection of the supports and the box.


def per_kl_form_matrix(sys_, phi, psi):
    d, m = sys_.d, sys_.m
    F = np.zeros((m, m), dtype=complex)
    region = []
    for (a1, b1), (a2, b2), (a, b) in zip(phi.support_box(), psi.support_box(), sys_.box):
        lo, hi = max(a1, a2, a), min(b1, b2, b)
        if hi <= lo:
            return F
        region.append((lo, hi))
    for k in range(d):
        for l in range(d):
            weight = list(zip(*sys_.coefficient(k, l).monomials(d, region)))
            if weight:
                F += tensor_product_integral(
                    [(phi, l), (psi, k)], weight=weight, box=sys_.box)
    return F


# pair centers on ORACLE_BOXES for dilation 0.2: inside one cell of the
# grid-sampled fields (3 x 2 x 2 cells) and inside the box, or inside the
# corner cell with the supports clipped by the box
FORM_PLACEMENTS = {"inside": (0.25, 0.7, -1.25), "clipped": (-0.45, 0.3, -1.95)}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["constant", "polynomial", "grid", "mixed"])
def test_form_matrix_matches_per_kl_oracle(kind, d):
    # all five pair cases: tau > 0 and tau < 0 on and off the diagonal, tau = 0
    targets = [(tau, kt, lt) for tau in (1.5, -0.7, 0.0)
               for kt in range(d) for lt in range(d) if d > 1 or kt == lt]
    for m in (1, 2, 3):
        sys_ = seeded_system(kind, d, m, "free", seed=10 * d + m)
        cases = set()
        for placement, x0 in FORM_PLACEMENTS.items():
            for tau, kt, lt in targets:
                pair = build_test_pair(tau, kt, lt, d).dilated(x0[:d], 0.2)
                cases.add(pair.case_id)
                clipped = any(lo < a or hi > b for fn in (pair.phi, pair.psi)
                              for (lo, hi), (a, b) in zip(fn.support_box(), sys_.box))
                assert clipped == (placement == "clipped" and tau != 0)
                F = form_matrix(sys_, pair.phi, pair.psi)
                ref = per_kl_form_matrix(sys_, pair.phi, pair.psi)
                assert F.shape == (m, m)
                assert (np.abs(ref).max() > 1e-3) == (tau != 0)
                assert np.abs(F - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max()), \
                    (placement, tau, kt, lt, m)
        assert cases == ({1, 3, 5} if d == 1 else {1, 2, 3, 4, 5})


#: Dilations of a stacked evaluation: at the "clipped" placement the box cuts
#: the supports of the two largest and not those of the others.
STACK_DELTAS = (0.2, 0.1, 0.04, 0.02, 0.01)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["constant", "polynomial", "grid", "mixed"])
def test_form_matrix_stack_matches_one_call_per_dilation(kind, d):
    sys_ = seeded_system(kind, d, 2, "free", seed=7 * d)
    for placement, x0 in FORM_PLACEMENTS.items():
        for tau, kt, lt in [(2.0, 0, 0), (1.0, 0, 1), (-0.7, 1, 1), (-0.7, 0, d - 1)]:
            pair = build_test_pair(tau, kt, lt, d)
            stack = form_matrix(sys_, pair.phi.dilated(x0[:d], 1.0),
                                pair.psi.dilated(x0[:d], 1.0), STACK_DELTAS)
            assert stack.shape == (len(STACK_DELTAS), 2, 2)
            for delta, F in zip(STACK_DELTAS, stack):
                dil = pair.dilated(x0[:d], delta)
                ref = form_matrix(sys_, dil.phi, dil.psi)
                clipped = any(lo < a for fn in (dil.phi, dil.psi)
                              for (lo, _), (a, _) in zip(fn.support_box(), sys_.box))
                assert clipped == (placement == "clipped" and delta > 0.05)
                assert np.abs(ref).max() > 0
                assert np.abs(F - ref).max() <= 1e-14 * np.abs(ref).max(), (placement, delta)


def test_form_matrix_stack_rejects_a_dilation_across_cells():
    # the largest dilation at the "inside" placement reaches the next cell
    # along axis 0 of the 3 x 2 x 2 cells; the smaller ones do not
    sys_ = seeded_system("grid", 3, 2, "free", seed=1)
    x0 = FORM_PLACEMENTS["inside"]
    pair = build_test_pair(1.0, 0, 1, 3).dilated(x0, 1.0)
    with pytest.raises(UnsupportedContract):
        form_matrix(sys_, pair.phi, pair.psi, (0.3,) + STACK_DELTAS)
    with pytest.raises(UnsupportedContract):
        form_matrix(sys_, pair.phi.dilated(x0, 0.3), pair.psi.dilated(x0, 0.3))
    assert form_matrix(sys_, pair.phi, pair.psi, STACK_DELTAS).shape == (len(STACK_DELTAS), 2, 2)


def test_form_matrix_capacity():
    # C_11 = x_2**14: in the (1, 1) term neither factor along axis 2 is
    # differentiated, so the integrand has degree 16 > 15; x_1**14 there
    # meets two slopes and has degree 14.  The assembled stiffness follows
    # the same rule, since its bands come from the same moments.
    box = ((0.0, 1.0), (0.0, 1.0))
    one, zero = ConstantField(np.eye(1)), ConstantField(np.zeros((1, 1)))
    pair = build_test_pair(1.0, 0, 0, 2).dilated((0.5, 0.5), 0.25)
    grid = Grid(box, (5, 4), "free")
    for exps, raises in [((0, 14), True), ((14, 0), False)]:
        c11 = PolynomialField(((MultiPoly.from_terms([(exps, 1.0)], 2),),), 2,
                              max_total_degree=14)
        sys_ = EllipticSystem(box, 1, ((c11, zero), (zero, one)), "free", 0.0)
        if raises:
            # the table holds the degree, and every call checks it, not the first only
            for _ in range(2):
                with pytest.raises(CapacityError):
                    form_matrix(sys_, pair.phi, pair.psi)
                with pytest.raises(CapacityError):
                    assemble(sys_, grid)
        else:
            F = form_matrix(sys_, pair.phi, pair.psi)
            assert np.abs(F - per_kl_form_matrix(sys_, pair.phi, pair.psi)).max() <= 1e-14
            ref = kronecker_assembly(sys_, grid)
            K = assemble(sys_, grid).K
            assert np.abs((K - ref).toarray()).max() <= 1e-13 * np.abs(ref.data).max()


@pytest.mark.parametrize("delta", [-0.5, math.nan, 0.0, math.inf])
def test_dilation_that_is_not_positive_and_finite_is_refused(delta):
    # each of these read an all-zero form or table (0.0 also with
    # RuntimeWarnings) before the interval pass refused it
    sys_ = catalog.get("ex1_3").build()
    pair = build_test_pair(1.0, 0, 1, 2).dilated((0.5, -1.0), 0.5)
    for refuse in (lambda: pair.phi.dilated((0.5, -1.0), delta),
                   lambda: pair.dilated((0.5, -1.0), delta),
                   lambda: TensorTestFunction(1.0, (hat(),), (0.0,), delta),
                   lambda: hat().affine_pullback(0.0, delta)):
        with pytest.raises(GeometryError):
            refuse()
    for deltas in ([delta], [0.5, 0.25, delta]):
        with pytest.raises(GeometryError):
            form_matrix(sys_, pair.phi, pair.psi, deltas)
        with pytest.raises(GeometryError):
            moment_tables((pair.phi, pair.psi), 2, sys_.box, deltas)
    # a single pair whose dilation got past the constructor's check
    phi, psi = copy.copy(pair.phi), copy.copy(pair.psi)
    for fn in (phi, psi):
        object.__setattr__(fn, "delta", delta)
    for refuse in (lambda: form_matrix(sys_, phi, psi),
                   lambda: form_value(sys_, (phi, [1.0, 0.0]), (psi, [0.0, 1.0])),
                   lambda: moment_tables((phi, psi), 2, sys_.box),
                   lambda: moment_tables((phi, psi), 2)):
        with pytest.raises(GeometryError):
            refuse()


@pytest.mark.parametrize("name", ["ex1_3", "ex5_5", "grid"])
@pytest.mark.parametrize("steps", [1, 7])
def test_form_matrix_clips_the_supports_once(name, steps):
    # one reference-interval pass per call: the common support is looked up
    # once, for one dilation and for a probe's stack of seven
    sys_ = (seeded_system("grid", 3, 2, "free", seed=1) if name == "grid"
            else catalog.get(name).build())
    x0 = FORM_PLACEMENTS["inside"][:sys_.d] if name == "grid" else np.zeros(sys_.d) + 0.25
    deltas = 0.05 * 2.0 ** -np.arange(steps)
    pair = _probe_pair(sys_.d, 0, 1).dilated(x0, deltas[0])
    for stack in ([None] if steps == 1 else []) + [deltas]:
        before = _common_support.cache_info()
        F = form_matrix(sys_, pair.phi, pair.psi, stack)
        after = _common_support.cache_info()
        assert np.abs(F).max() > 0
        assert (after.hits + after.misses) - (before.hits + before.misses) == 1
