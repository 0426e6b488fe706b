import numpy as np
import pytest

from possem import catalog
from possem.assembly import Grid
from possem.coefficients import (
    ConstantField,
    EllipticSystem,
    GridSampledField,
    PolynomialField,
    check_ellipticity,
    default_ellipticity_points,
    eval_coefficient,
    hermitian_at_least,
    hermitian_lambda_min,
    realify_field,
    realify_matrix,
    tensor_points,
)
from possem.config import dump_system
from possem.decoupling import extract_scalar_systems
from possem.errors import DomainError, NumericalError
from possem.polynomials import MultiPoly


def hermitian_block_lambda_min(sys_, x):
    """Independent oracle: smallest eigenvalue of (B + B*) / 2 assembled
    directly from the coefficient blocks."""
    d, m = sys_.d, sys_.m
    B = np.zeros((d * m, d * m), dtype=complex)
    for k in range(d):
        for l in range(d):
            B[k * m:(k + 1) * m, l * m:(l + 1) * m] = sys_.eval_coefficient(k, l, x)
    return float(np.linalg.eigvalsh(0.5 * (B + B.conj().T))[0])


def test_eval_constant_scaled_identity():
    fld = ConstantField(6 * np.eye(2, dtype=complex))
    out = eval_coefficient(fld, np.array([0.1, -3.0]), box=((-4, 4), (-4, 4)))
    assert np.allclose(out, 6 * np.eye(2))


def test_eval_polynomial_entries():
    x1 = MultiPoly.variable(0, 3)
    x2 = MultiPoly.variable(1, 3)
    x3 = MultiPoly.variable(2, 3)
    one = MultiPoly.constant(1.0, 3)
    p = -1 * (x1 * x1 - one) * (x2 * x2 - one) * x3
    fld = PolynomialField(((p,),), 3)
    box = ((-1, 1),) * 3
    assert eval_coefficient(fld, np.zeros(3), box=box)[0, 0] == 0
    assert eval_coefficient(fld, np.array([0.0, 0.0, 0.5]), box=box)[0, 0] == pytest.approx(-0.5)
    huge = PolynomialField(((1e300 * x1 * x1 * x2,),), 3)
    with np.errstate(over="ignore"), pytest.raises(NumericalError):
        huge.eval(np.array([1e5, 1.0, 0.0]))
    # over (n, d) points: one overflowing point is enough
    assert huge.eval(np.array([[1.0, 1.0, 0.0], [0.5, 2.0, 0.0]]))[:, 0, 0] == \
        pytest.approx([1e300, 5e299])
    with np.errstate(over="ignore"), pytest.raises(NumericalError):
        huge.eval(np.array([[1.0, 1.0, 0.0], [1e5, 1.0, 0.0]]))


@pytest.mark.parametrize("value", [np.nan, complex(1.0, -np.inf)])
def test_polynomial_field_rejects_non_finite_coefficients(value):
    # as the constant and grid kinds do (a real inf: test_assembly's
    # test_non_finite_polynomial_term_is_rejected)
    x1 = MultiPoly.variable(0, 2)
    with pytest.raises(ValueError, match="polynomial coefficients must be finite"):
        PolynomialField(((x1 + MultiPoly.constant(value, 2),),), 2)


def test_overflowing_bound_is_a_numerical_error():
    x1 = MultiPoly.variable(0, 2)
    zero, one = ConstantField(np.zeros((1, 1))), ConstantField(np.eye(1))
    sextic = PolynomialField(((1e300 * x1 * x1 * x1 * x1 * x1 * x1,),), 2)
    square = PolynomialField(((x1 * x1,),), 2)
    huge = ConstantField(np.full((2, 2), 1e308))
    # 100^6 * 1e300 in the entrywise sum; 1e200^2 as a float power; a 2-norm
    # past the largest double
    for fld, box in [(sextic, ((0.0, 100.0),) * 2), (square, ((0.0, 1e200), (0.0, 1.0)))]:
        with pytest.raises(NumericalError, match="non-finite coefficient bound"):
            fld.bound(box)
        sys_ = EllipticSystem(box, 1, ((fld, zero), (zero, one)))
        with pytest.raises(NumericalError, match="non-finite coefficient bound"):
            sys_.bound()
    big = EllipticSystem(((0.0, 1.0),), 2, ((huge,),))
    with pytest.raises(NumericalError, match="non-finite coefficient bound"):
        big.bound()


def test_eval_outside_box_raises():
    fld = ConstantField(np.eye(1, dtype=complex))
    with pytest.raises(DomainError):
        eval_coefficient(fld, np.array([2.0]), box=((0.0, 1.0),))
    with pytest.raises(DomainError):
        PolynomialField(((MultiPoly.variable(1, 2),),), 2).eval(np.array([0.5]))
    # over (n, d) points: one point outside the box is enough
    with pytest.raises(DomainError):
        eval_coefficient(fld, np.array([[0.5], [1.5], [0.25]]), box=((0.0, 1.0),))
    with pytest.raises(DomainError):
        PolynomialField(((MultiPoly.variable(1, 2),),), 2).eval(np.array([[0.5], [0.25]]))


def test_block_matrix_rejects_a_nan_point():
    # lo < a is False for NaN, so a NaN coordinate must fail a <= lo instead
    sys_ = catalog.get("ex1_3").build()
    with pytest.raises(DomainError, match="nan"):
        sys_.block_matrix([np.nan, 0.0])
    with pytest.raises(DomainError, match="nan"):
        sys_.block_matrix([[0.0, 0.0], [0.5, np.nan]])


def test_cell_index_rejects_a_nan_point():
    fld = GridSampledField(((0.0, 1.0), (0.0, 1.0)), np.ones((2, 2, 1, 1), dtype=complex))
    with pytest.raises(DomainError, match="nan"):
        fld.cell_index([np.nan, 0.5])


def test_grid_sampled_tie_break_low_cell():
    vals = np.arange(4, dtype=complex).reshape(4, 1, 1)
    fld = GridSampledField(((0.0, 1.0),), vals)
    # 0.25 sits on the face between cells 0 and 1: lower cell wins
    assert fld.cell_index(np.array([0.25])) == (0,)
    assert fld.eval(np.array([0.25]))[0, 0] == 0
    assert fld.cell_index(np.array([1.0])) == (3,)


def test_grid_cell_index_of_point_array():
    box = ((0.0, 1.0), (-1.0, 2.0))
    fld = GridSampledField(box, np.arange(12, dtype=complex).reshape(4, 3, 1, 1))
    rng = np.random.default_rng(4)
    interior = rng.uniform([0.0, -1.0], [1.0, 2.0], size=(20, 2))
    faces = np.array([[0.25, 0.5], [0.5, 0.0], [0.75, 1.0], [0.25, 1.7]])
    edges = np.array([[0.0, -1.0], [1.0, 2.0], [0.0, 2.0], [0.6, -1.0], [1.0, 0.3]])
    pts = np.concatenate([interior, faces, edges])
    idx = fld.cell_index(pts)
    assert [tuple(int(i) for i in ij) for ij in zip(*idx)] == [fld.cell_index(x) for x in pts]
    assert np.array_equal(fld.values[idx], np.stack([fld.eval(x) for x in pts]))
    assert np.array_equal(fld.eval(pts), fld.values[idx])
    for bad in ([[0.5, 0.5], [1.5, 0.5]], [[0.5, -1.5]], [[0.5, 0.5, 0.5]]):
        with pytest.raises(DomainError):
            fld.cell_index(np.array(bad))


def test_ellipticity_scalar_heat():
    sys_ = catalog.get("scalar_heat").build()
    rep = check_ellipticity(sys_)
    assert rep.lambda_min == pytest.approx(1.0, abs=1e-12)
    assert rep.passed


def test_ellipticity_coupled_complex_pair():
    # frozen against the direct 4x4 Hermitian eigenvalue oracle: the
    # Hermitian part pairs C_12 with the conjugate transpose of C_21, so the
    # antisymmetric complex coupling shifts the bottom eigenvalue to
    # 6 - |3+4i|/2 = 3.5
    sys_ = catalog.get("ex1_3").build()
    x = np.array([0.2, 0.8])
    assert hermitian_block_lambda_min(sys_, x) == pytest.approx(3.5, abs=1e-12)
    rep = check_ellipticity(sys_)
    assert rep.lambda_min == pytest.approx(3.5, abs=1e-12)
    assert rep.passed


def test_ellipticity_symmetric_coupling():
    # 6 - sigma((R + R^T)/2) = 6 - 1/2 by the same oracle
    sys_ = catalog.get("witness_W").build()
    x = np.array([0.0, 0.0])
    assert hermitian_block_lambda_min(sys_, x) == pytest.approx(5.5, abs=1e-12)
    rep = check_ellipticity(sys_)
    assert rep.lambda_min == pytest.approx(5.5, abs=1e-12)
    assert rep.passed


def test_ellipticity_points_of_polynomial_systems_match_the_union():
    # without grid-sampled fields the 5^d grid is returned as it is: it
    # equals the deduplicated union with the box center, row for row
    from possem.coefficients import _refined_cell_points

    box = ((-0.5, 1.0), (0.25, 2.0), (-2.0, -1.0))
    x = MultiPoly.variable(0, 3)
    poly = PolynomialField(((0.5 * x * x + MultiPoly.constant(1.0, 3),),), 3)
    one = ConstantField(np.eye(1))
    zero = ConstantField(np.zeros((1, 1)))
    stretched = EllipticSystem(box, 1, tuple(
        tuple((poly if k == 0 else one) if k == l else zero for l in range(3))
        for k in range(3)), "free", 0.5)
    for sys_ in (catalog.get("rand_coupled(3)").build(d=3), stretched):
        union = np.unique(np.concatenate([_refined_cell_points(sys_, (0.5,)),
                                          sys_.interior_tensor_points(5)]), axis=0)
        pts = default_ellipticity_points(sys_)
        assert pts.shape == (125, 3) and np.array_equal(pts, union)


def test_ellipticity_per_point_matches_oracle():
    # one stacked eigvalsh over all points against the per-point oracle
    box = ((0.0, 1.0), (0.0, 2.0))
    rng = np.random.default_rng(8)
    two = GridSampledField(box, 3 * np.eye(2) + 0.3 * rng.uniform(-1, 1, (2, 1, 2, 2)))
    three = GridSampledField(box, 3 * np.eye(2) + 0.3 * rng.uniform(-1, 1, (1, 3, 2, 2)))
    coupling = GridSampledField(box, 0.2j * rng.uniform(-1, 1, (3, 2, 2, 2)))
    mixed = EllipticSystem(box, 2, ((two, coupling), (coupling, three)))
    for sys_ in (catalog.get("rand_coupled(3)").build(), mixed):
        pts = np.concatenate([default_ellipticity_points(sys_), sys_.interior_tensor_points(4)])
        rep = check_ellipticity(sys_, pts)
        oracle = np.array([hermitian_block_lambda_min(sys_, x) for x in pts])
        assert np.abs(np.array(rep.per_point) - oracle).max() <= 1e-13 * np.abs(oracle).max()
        assert rep.lambda_min == min(rep.per_point)
        assert np.array_equal(rep.argmin, pts[int(np.argmin(oracle))])
    # all points tie on a constant system: the first one is the minimiser
    sys_ = catalog.get("ex1_3").build()
    pts = sys_.interior_tensor_points(3)[::-1]
    rep = check_ellipticity(sys_, pts)
    assert len(set(rep.per_point)) == 1
    assert np.array_equal(rep.argmin, pts[0])


def test_realify_matches_defining_action():
    # realification acts as Re(Q Re f) + i Re(Q Im f); on the standard basis
    # that is the entrywise real part
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rng.integers(1, 5)
        Q = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        f = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        defining = np.real(Q @ f.real) + 1j * np.real(Q @ f.imag)
        assert np.allclose(realify_matrix(Q) @ f, defining, atol=1e-13)


def test_realify_examples():
    assert np.allclose(realify_matrix(1j * np.eye(1)), 0.0)
    Q = np.zeros((2, 2), dtype=complex)
    Q[1, 0] = 3 + 4j
    out = realify_matrix(Q)
    assert out[1, 0] == 3.0
    R = np.array([[1.0, 2.0], [0.5, -1.0]], dtype=complex)
    assert np.allclose(realify_matrix(R), R)


def test_realify_idempotent_on_fields():
    sys_ = catalog.get("ex1_3").build()
    for k in range(2):
        for l in range(2):
            fld = sys_.coefficient(k, l)
            once = realify_field(fld)
            twice = realify_field(once)
            x = np.array([0.3, 0.3])
            assert np.allclose(once.eval(x), twice.eval(x))


def seeded_stack(rng, shape, n, complex_):
    """A stack of non-Hermitian matrices whose Hermitian parts have smallest
    eigenvalues spread over about [-3, 3]."""
    B = rng.standard_normal(shape + (n, n))
    if complex_:
        B = B + 1j * rng.standard_normal(shape + (n, n))
    return B + rng.uniform(-1.0, 4.0, shape)[..., None, None] * np.eye(n)


@pytest.mark.parametrize("complex_", [False, True])
def test_hermitian_at_least_agrees_with_lambda_min(complex_):
    # floors at least 1e-6 (relative) away from every member's smallest
    # eigenvalue, so the Cholesky gate's rounding band holds none of them
    rng = np.random.default_rng(41 + complex_)
    for shape, n in (((25,), 4), ((25,), 8), ((5, 7), 6), ((3,), 1)):
        B = seeded_stack(rng, shape, n, complex_)
        lams = hermitian_lambda_min(B)
        scale = max(1.0, float(np.abs(lams).max()))
        floors = np.concatenate([lams.ravel() + 1e-6 * scale, lams.ravel() - 1e-6 * scale,
                                 [lams.min() - 1.0, lams.max() + 1.0, np.median(lams)]])
        for floor in floors:
            assert hermitian_at_least(B, floor) == bool(lams.min() >= floor), (shape, n, floor)


@pytest.mark.parametrize("complex_", [False, True])
def test_hermitian_at_least_fails_with_one_member(complex_):
    # numpy's stacked Cholesky raises for the whole stack when one member
    # is not positive definite; the gate reads that as one False
    rng = np.random.default_rng(43 + complex_)
    B = seeded_stack(rng, (12,), 5, complex_)
    B += (5.0 - hermitian_lambda_min(B))[:, None, None] * np.eye(5)     # every lambda_min ~ 5
    assert hermitian_at_least(B, 4.0)
    for i in (0, 6, 11):
        one = B.copy()
        one[i] -= 2.0 * np.eye(5)                                        # this one ~ 3
        assert hermitian_lambda_min(one).min() < 4.0
        assert not hermitian_at_least(one, 4.0)
        assert hermitian_at_least(np.delete(one, i, axis=0), 4.0)


@pytest.mark.parametrize("complex_", [False, True])
def test_hermitian_at_least_resolves_a_known_eigenvalue(complex_):
    # H = U diag(lam) U^H plus an antihermitian part, lam_min = 2.5: floors
    # 1e-9 (relative) below and above it fall on either side of the gate
    rng = np.random.default_rng(47 + complex_)
    n, lam = 6, np.array([2.5, 3.0, 4.0, 4.5, 7.0, 9.0])
    G = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_ else 0)
    U = np.linalg.qr(G)[0]
    A = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_ else 0)
    B = (U * lam) @ U.conj().T + (A - A.conj().T)
    assert hermitian_lambda_min(B) == pytest.approx(2.5, rel=1e-13)
    assert hermitian_at_least(B, 2.5 * (1 - 1e-9))
    assert not hermitian_at_least(B, 2.5 * (1 + 1e-9))
    assert hermitian_at_least(B[None].repeat(3, axis=0), 2.5 * (1 - 1e-9))


def test_realify_preserves_ellipticity():
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = int(rng.integers(2, 4))
        m = int(rng.integers(1, 4))
        blocks = [[None] * d for _ in range(d)]
        for k in range(d):
            for l in range(d):
                M = 0.3 * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
                if k == l:
                    M = M + 2.0 * np.eye(m)
                blocks[k][l] = ConstantField(M)
        box = ((0.0, 1.0),) * d
        sys_ = EllipticSystem(box, m, tuple(tuple(r) for r in blocks), "dirichlet", 0.0)
        lam = check_ellipticity(sys_).lambda_min
        lam_real = check_ellipticity(sys_.realified()).lambda_min
        assert lam_real >= lam - 1e-10


def test_operator_norm_within_bound():
    rng = np.random.default_rng(2)
    x1 = MultiPoly.variable(0, 2)
    x2 = MultiPoly.variable(1, 2)
    p = 0.5 * x1 * x2 + MultiPoly.constant(1.0 + 0.5j, 2)
    fld = PolynomialField(((p, MultiPoly.constant(0.25, 2)),
                           (MultiPoly.constant(0.0, 2), 2 * x2 * x2)), 2)
    box = ((-1.0, 1.0), (0.0, 2.0))
    M = fld.bound(box)
    pts = np.stack([rng.uniform(a, b, 1000) for a, b in box], axis=-1)
    for x in pts:
        assert np.linalg.norm(fld.eval(x), 2) <= M + 1e-12
    # the same bound as the 2-norm of the per-entry coefficient-norm bounds
    per_entry = [[q.bound_on_box(box) for q in row] for row in fld.entries]
    assert M == pytest.approx(np.linalg.norm(per_entry, 2), rel=1e-14)


def random_polynomial_field(rng, m, d):
    """m x m complex polynomial entries of total degree <= 6, some zero."""
    def entry():
        terms = []
        for _ in range(int(rng.integers(0, 5))):
            exps = rng.multinomial(int(rng.integers(0, 7)), np.ones(d + 1) / (d + 1))[:d]
            terms.append((tuple(exps), complex(rng.standard_normal(), rng.standard_normal())))
        return MultiPoly.from_terms(terms, d)
    return PolynomialField(tuple(tuple(entry() for _ in range(m)) for _ in range(m)), d)


@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_monomial_reads_match_entrywise_polynomials(m, d):
    # eval and bound read the monomial terms; MultiPoly evaluates and
    # bounds each entry on its own
    rng = np.random.default_rng(100 * m + d)
    for _ in range(5):
        fld = random_polynomial_field(rng, m, d)
        lows = rng.uniform(-2.0, 0.5, d)
        box = tuple(zip(lows, lows + rng.uniform(0.5, 2.0, d)))
        per_entry = [[q.bound_on_box(box) for q in row] for row in fld.entries]
        assert fld.bound(box) == pytest.approx(np.linalg.norm(per_entry, 2), rel=1e-14, abs=0.0)
        xs = rng.uniform(*np.array(box).T, size=(10, d))
        refs = np.array([[[q(x) for q in row] for row in fld.entries] for x in xs])
        for x, ref in zip(xs, refs):
            assert np.abs(fld.eval(x) - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())
        assert np.abs(fld.eval(xs) - refs).max() <= 1e-13 * max(1.0, np.abs(refs).max())


def table_systems():
    """Every catalog entry, seeded rand_* systems with m = 4 and with d = 3,
    a cell-sampled system and a constant beside a grid."""
    out = [catalog.get(name).build() for name in catalog.names()
           if not catalog.needs_seed(name)]
    for base in ("rand_decoupled", "rand_coupled"):
        for seed in (0, 7):
            out += [catalog.get(f"{base}({seed})").build(**kw)
                    for kw in ({}, {"m": 4}, {"d": 3}, {"m": 3, "d": 3})]
    box = ((0.0, 1.0), (-1.0, 2.0))
    rng = np.random.default_rng(17)
    cells = GridSampledField(box, rng.standard_normal((3, 2, 2, 2))
                             + 1j * rng.standard_normal((3, 2, 2, 2)))
    coarse = GridSampledField(box, 3 * np.eye(2) + rng.uniform(-1, 1, (2, 1, 2, 2)))
    out.append(EllipticSystem(box, 2, ((coarse, cells), (cells, coarse))))
    const = ConstantField(np.array([[2.0, 0.5j], [0.0, 1.5 - 1j]]))
    out.append(EllipticSystem(box, 2, ((const, cells), (ConstantField(np.zeros((2, 2))), const))))
    return out


def test_block_matrix_reads_the_table_like_per_field_eval():
    # one power matrix times the system's table, plus the cell lookups,
    # against the block matrix glued from each field's own eval
    rng = np.random.default_rng(5)
    for sys_ in table_systems():
        lo, hi = np.array(sys_.box).T
        pts = np.concatenate([rng.uniform(lo, hi, size=(20, sys_.d)), [lo, hi]])
        ref = np.block([[fld.eval(pts) for fld in row] for row in sys_.coeffs])
        scale = max(1.0, float(np.abs(ref).max()))
        assert np.abs(sys_.block_matrix(pts) - ref).max() <= 1e-14 * scale
        assert np.abs(sys_.block_matrix(pts[3]) - ref[3]).max() <= 1e-14 * scale


def test_system_bound_is_the_largest_field_bound():
    # the bound sets every decision tolerance, so it is kept to the bit
    for sys_ in table_systems():
        assert sys_.bound() == max(fld.bound(sys_.box) for row in sys_.coeffs for fld in row)


def test_system_bound_bits_are_pinned():
    # float.hex of bound() as the per-field, per-term loops gave it before
    # the table: a change of summation order moves a last bit of these
    def built(name, **kw):
        return catalog.get(name).build(**kw)

    cases = [(built("ex1_3"), "0x1.8000000000000p+2"),
             (built("ex5_5"), "0x1.8000000000000p+2"),
             (built("ex3_5_nullform"), "0x1.0000000000000p+2"),
             (built("rand_coupled(0)", m=4), "0x1.4cccccccccccdp+0"),
             (built("rand_decoupled(7)", d=3), "0x1.4cccccccccccep+0"),
             (built("rand_coupled(7)", m=3, d=3), "0x1.4cccccccccccep+0")]
    cases += zip(extract_scalar_systems(built("rand_decoupled(7)", m=4)),
                 ["0x1.4ccccccccccccp+0", "0x1.4ccccccccccccp+0",
                  "0x1.4cccccccccccdp+0", "0x1.4ccccccccccccp+0"])
    cases += zip(table_systems()[-2:], ["0x1.e0c12b663bbc3p+1", "0x1.da20f19716df4p+1"])
    assert [float.hex(s.bound()) for s, _ in cases] == [bits for _, bits in cases]


def monomial(exps, shape=None):
    """x**exps as a MultiPoly whose coefficient tensor has the given shape
    (the smallest one that holds it by default)."""
    c = np.zeros(shape or tuple(e + 1 for e in exps), dtype=complex)
    c[tuple(exps)] = 1.0
    return MultiPoly(c)


@pytest.mark.parametrize("exps, shape, cap, degree", [
    ((4, 3), None, 6, 7),           # shape bound 7 > 6: read, rejected
    ((7,), None, 6, 7),             # 1D
    ((2, 2, 3), None, 6, 7),        # 3D, shape bound 7
    ((1, 1), (7, 7), 1, 2),         # shape bound 12, degree 2 > 1
    ((2, 2), None, 3, 4),           # a cap other than the default
])
def test_degree_cap_rejects_above_the_cap(exps, shape, cap, degree):
    p = monomial(exps, shape)
    assert p.total_degree == degree
    with pytest.raises(ValueError, match=rf"^entry degree {degree} exceeds cap {cap}$"):
        PolynomialField(((p,),), len(exps), cap)


@pytest.mark.parametrize("exps, shape, cap", [
    ((3, 3), None, 6),              # shape bound 6 = cap: the degree is not read
    ((1, 1), (7, 7), 6),            # shape bound 12, degree 2
    ((6,), None, 6),                # 1D at the cap
    ((0,), (12,), 6),               # 1D constant in a long tensor
    ((2, 2, 2), None, 6),           # 3D at the cap
    ((1, 0, 2), (5, 5, 5), 6),      # 3D, shape bound 12, degree 3
    ((2, 2, 2), (4, 4, 4), 6),      # shape bound 9, degree 6 = cap
])
def test_degree_cap_accepts_up_to_the_cap(exps, shape, cap):
    p = monomial(exps, shape)
    fld = PolynomialField(((p,),), len(exps), cap)
    assert np.array_equal(fld.entry(0, 0).coeffs, p.coeffs)


def test_shape_bound_holds_the_total_degree():
    # the cap reads the exact degree only when sum(shape) - d exceeds it
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        for _ in range(40):
            shape = tuple(rng.integers(1, 6, size=d))
            c = np.where(rng.random(shape) < 0.3, 1.0, 0.0)
            assert MultiPoly(c).total_degree <= sum(shape) - d


def test_diagonal_scalar_keeps_the_degree_cap():
    x1, zero = MultiPoly.variable(0, 2), MultiPoly.constant(0.0, 2)
    p = monomial((4, 4)) + 1j * x1
    fld = PolynomialField(((p, zero), (zero, x1)), 2, 8)
    with pytest.raises(ValueError, match="^entry degree 8 exceeds cap 6$"):
        PolynomialField(((p,),), 2)
    for n in range(2):
        scalar = fld.diagonal_scalar(n)
        assert scalar.max_total_degree == 8
        assert np.array_equal(scalar.entry(0, 0).coeffs, fld.entry(n, n).real.coeffs)
    assert fld.realified().max_total_degree == 8


def test_degree_cap_reports_the_highest_entry_degree():
    # one check on the whole tensor: the message names the field's highest
    # entry degree, wherever that entry sits
    x1, zero = MultiPoly.variable(0, 2), MultiPoly.constant(0.0, 2)
    with pytest.raises(ValueError, match="^entry degree 8 exceeds cap 6$"):
        PolynomialField(((monomial((3, 4)), zero), (zero, monomial((8, 0)) + x1)), 2)


def test_field_holds_its_own_read_only_tensor():
    # a caller's later writes into its MultiPoly entries reach neither the
    # field's values, nor its entries, nor its config text, and a non-finite
    # value cannot enter after the check; the entry views cannot be written
    x = MultiPoly.variable(0, 1)
    fld = PolynomialField(((x,),), 1)
    sys_ = EllipticSystem(((0.0, 1.0),), 1, ((fld,),), "dirichlet", 0.0)
    text = dump_system(sys_)
    x.coeffs[1] = 7
    x.coeffs[0] = np.nan
    assert fld.eval([0.5])[0, 0] == 0.5
    assert np.array_equal(fld.entry(0, 0).coeffs, [0, 1])
    assert dump_system(sys_) == text
    for view in (fld.entry(0, 0), fld.entries[0][0], fld.diagonal_scalar(0).entry(0, 0),
                 fld.realified().entry(0, 0)):
        with pytest.raises(ValueError, match="read-only"):
            view.coeffs[1] = 7
    with pytest.raises(ValueError, match="read-only"):
        fld.coeffs[0, 0, 0] = 7


@pytest.mark.parametrize("kind", ["constant", "grid"])
def test_constant_and_grid_fields_hold_their_own_array(kind):
    # a caller's later writes into its array reach neither the field's array
    # nor its values nor its is_zero, and a non-finite value cannot enter
    # after the check; the field's array, its real part's and its channel
    # slices' cannot be written
    shape = (2, 2) if kind == "constant" else (3, 2, 2)

    def build(a):
        return ConstantField(a) if kind == "constant" else GridSampledField(((0.0, 1.0),), a)

    def held(fld):
        return fld.matrix if kind == "constant" else fld.values

    zeros, ones = np.zeros(shape, dtype=complex), np.ones(shape, dtype=complex)
    empty, full = build(zeros), build(ones)
    zeros[..., 0, 1] = 5.0
    ones[...] = 0.0
    ones[..., 0, 0] = np.nan
    assert empty.is_zero() and not full.is_zero()
    assert not held(empty).any() and (held(full) == 1).all()
    assert (full.eval([0.5]) == 1).all()
    # a zero constant has no term; a grid field always has its cell's
    assert len(empty.monomials(1, ((0.25, 0.3),))[0]) == (kind == "grid")
    for fld in (full, full.realified(), full.diagonal_scalar(1)):
        with pytest.raises(ValueError, match="read-only"):
            held(fld)[..., 0, 0] = 7


def test_empty_box_is_refused():
    # a box of no intervals would make a system, a grid or a grid field of
    # dimension 0; every one of them reads its box through the same check
    for build in (lambda: EllipticSystem((), 0, ()), lambda: Grid((), ()),
                  lambda: GridSampledField((), np.ones((1, 1)))):
        with pytest.raises(ValueError, match="^box needs at least one interval$"):
            build()


def array_bits(a):
    return a.dtype.str, a.shape, a.tobytes()


def table_bits(table):
    return [array_bits(a) for a in (table.exps, table.blocks, *table.terms)]


def test_scalar_and_real_slices_match_rebuilt_fields():
    # diagonal_scalar and realified slice each kind's checked array; their
    # tables and cell values are bit-identical to those of fields rebuilt
    # from the real parts of the entries, matrices and cell values
    def real_field(fld, n=None):
        pick = (lambda a: a) if n is None else (lambda a: a[..., n:n + 1, n:n + 1])
        if fld.kind == "constant":
            return ConstantField(pick(fld.matrix).real)
        if fld.kind == "grid":
            return GridSampledField(fld.box, pick(fld.values).real)
        rows = fld.entries if n is None else [[fld.entry(n, n)]]
        return PolynomialField([[p.real for p in row] for row in rows], fld.d, fld.max_total_degree)

    def bits(sys_):
        return table_bits(sys_.table) + [(k, l, array_bits(fld.values))
                                         for k, l, fld in sys_.table.sampled]

    rng = np.random.default_rng(8)
    complex_systems = [EllipticSystem(((0.0, 1.0),) * d, m, [[random_polynomial_field(rng, m, d)
                                                              for _ in range(d)] for _ in range(d)])
                       for m, d in ((2, 2), (3, 3))]
    kinds = {"constant": 0, "polynomial": 0, "grid": 0}
    for sys_ in table_systems() + complex_systems:
        parts = [(sys_.m, lambda f: f.realified(), real_field)]
        parts += [(1, lambda f, n=n: f.diagonal_scalar(n),
                   lambda f, n=n: real_field(f, n)) for n in range(sys_.m)]
        for m, part, rebuilt in parts:
            sliced, ref = (EllipticSystem(sys_.box, m, [[build(f) for f in row] for row in sys_.coeffs])
                           for build in (part, rebuilt))
            assert bits(sliced) == bits(ref)
        for kind in {f.kind for row in sys_.coeffs for f in row}:
            kinds[kind] += 1
    assert kinds["polynomial"] >= 16 and kinds["constant"] >= 5 and kinds["grid"] >= 2


def meshgrid_points(axes):
    return np.stack([mm.ravel() for mm in np.meshgrid(*axes, indexing="ij")], axis=-1)


@pytest.mark.parametrize("axes", [
    [np.linspace(-1.0, 2.0, 5)],
    [np.linspace(0.0, 1.0, 4), np.array([0.25, 0.5, 0.75])],
    [np.linspace(0.0, 1.0, 3), np.array([0.5]), np.linspace(-4.0, 4.0, 6)],
    [np.array([0.125])],
    [np.arange(3), np.arange(2)],
    [np.arange(3), np.linspace(0.0, 1.0, 2, dtype=np.float32), np.arange(4, dtype=np.int32)],
    [np.linspace(0.1, 0.3, 3, dtype=np.float32)] * 2,
    [[0.1, 0.2], (1, 2, 3)],
    np.linspace([0.1, 0.2, 0.3], [0.4, 0.6, 0.8], 4, axis=0).T,   # cli's 2-D array
], ids=["1d", "2d", "3d-length-1", "single", "int", "mixed", "float32", "lists", "2d-array"])
def test_tensor_points_match_meshgrid(axes):
    out, ref = tensor_points(axes), meshgrid_points(axes)
    assert out.dtype == ref.dtype and out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()
    assert out.flags.c_contiguous and out.flags.writeable
    assert not any(np.shares_memory(out, a) for a in axes if isinstance(a, np.ndarray))


def test_symmetrized_examples():
    sys_ = catalog.get("ex1_3").build()
    x = np.array([1.0, -1.0])
    assert np.allclose(sys_.symmetrized(0, 1, x), 0.0)
    assert np.allclose(sys_.symmetrized(0, 0, x), 12 * np.eye(2))
    sysW = catalog.get("witness_W").build()
    S = sysW.symmetrized(0, 1, np.zeros(2))
    expected = np.zeros((2, 2))
    expected[1, 0] = 2.0
    assert np.allclose(S, expected)


def test_system_validation():
    one = ConstantField(np.eye(1, dtype=complex))
    two = ConstantField(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="share m"):
        EllipticSystem(((0, 1),), 1, ((two,),), "dirichlet", 1.0)
    with pytest.raises(ValueError, match="bc"):
        EllipticSystem(((0, 1),), 1, ((one,),), "neumann", 1.0)
    # no channels: every field kind refuses m = 0 when it is built
    box = ((0, 1), (0, 1))
    with pytest.raises(ValueError, match="^need a nonempty square matrix$"):
        EllipticSystem(box, 0, ((ConstantField(np.zeros((0, 0))),) * 2,) * 2)
    with pytest.raises(ValueError, match=r"^entries must be square, m >= 1$"):
        PolynomialField((), 2)
    with pytest.raises(ValueError, match="nonempty"):
        GridSampledField(box, np.zeros((2, 2, 0, 0)))


@pytest.mark.xfail(raises=AssertionError,
                   reason="coercivity is checked on 5^d sample points, and the "
                          "quintic dip of C_11 vanishes on all of them")
def test_coercivity_counterexample_fails():
    # C_11 = 1 + 2000 prod_{i=1..5} (x_1 - i/6) reads 1 on the sample grid,
    # but its Hermitian part drops to 0.156 < mu = 0.5 at x_1 = 0.75
    x = MultiPoly.variable(0, 2)
    dip = MultiPoly.constant(2000.0, 2)
    for i in range(1, 6):
        dip = dip * (x - i / 6)
    c11 = PolynomialField(((MultiPoly.constant(1.0, 2) + dip,),), 2)
    one = ConstantField(np.ones((1, 1)))
    zero = ConstantField(np.zeros((1, 1)))
    sys_ = EllipticSystem(((0.0, 1.0), (0.0, 1.0)), 1, ((c11, zero), (zero, one)),
                          "dirichlet", 0.5)
    assert float(c11.eval(np.array([0.75, 0.5]))[0, 0].real) < 0.5
    assert check_ellipticity(sys_).passed is False
