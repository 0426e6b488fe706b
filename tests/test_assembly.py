import io

import numpy as np
import pytest

from possem import catalog
from possem.assembly import (
    Grid,
    affine_tensor,
    assemble,
    commutation_residual,
    export_matrix_text,
    form_matrix,
    form_value,
)
from possem.coefficients import ConstantField, EllipticSystem, GridSampledField
from possem.errors import UnsupportedContract
from possem.tents import TensorTestFunction, build_test_pair, hat


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


def test_commutation_identity():
    g = Grid(((0.0, 1.0), (0.0, 1.0)), (8, 8), "dirichlet")
    rng = np.random.default_rng(3)
    m = 2
    B = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    u = rng.standard_normal(g.N * m) + 1j * rng.standard_normal(g.N * m)
    v = rng.standard_normal(g.N * m) + 1j * rng.standard_normal(g.N * m)
    res = commutation_residual(g, B, u, v, 0, 1)
    bound = 1e-10 * np.linalg.norm(B, 2) * np.linalg.norm(u) * np.linalg.norm(v)
    assert res <= bound
    assert commutation_residual(g, B, u, v, 0, 0) == 0.0
    assert commutation_residual(g, np.eye(m), u, u, 0, 1) <= bound


def test_commutation_requires_zero_trace():
    g = Grid(((0.0, 1.0), (0.0, 1.0)), (4, 4), "free")
    with pytest.raises(UnsupportedContract):
        commutation_residual(g, np.eye(1), np.zeros(g.N), np.zeros(g.N), 0, 1)


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


def test_affine_tensor_evaluates_coordinates():
    box = ((-1.0, 2.0), (0.0, 1.0))
    fx = affine_tensor(box, 0)
    pts = np.array([[0.5, 0.25], [-1.0, 0.9]])
    assert np.allclose(fx(pts), pts[:, 0])


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
