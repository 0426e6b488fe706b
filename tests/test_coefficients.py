import numpy as np
import pytest

from possem import catalog
from possem.coefficients import (
    ConstantField,
    EllipticSystem,
    GridSampledField,
    PolynomialField,
    check_ellipticity,
    default_ellipticity_points,
    eval_coefficient,
    realify_field,
    realify_matrix,
)
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
    # eval, average and bound read the monomial terms; MultiPoly evaluates,
    # integrates and bounds each entry on its own
    rng = np.random.default_rng(100 * m + d)
    for _ in range(5):
        fld = random_polynomial_field(rng, m, d)
        lows = rng.uniform(-2.0, 0.5, d)
        box = tuple(zip(lows, lows + rng.uniform(0.5, 2.0, d)))
        vol = np.prod([b - a for a, b in box])
        entrywise = [[q.box_integral(box) / vol for q in row] for row in fld.entries]
        avg = fld.average(box)
        assert np.abs(avg - entrywise).max() <= 1e-13 * max(1.0, np.abs(avg).max())
        per_entry = [[q.bound_on_box(box) for q in row] for row in fld.entries]
        assert fld.bound(box) == pytest.approx(np.linalg.norm(per_entry, 2), rel=1e-14, abs=0.0)
        xs = rng.uniform(*np.array(box).T, size=(10, d))
        refs = np.array([[[q(x) for q in row] for row in fld.entries] for x in xs])
        for x, ref in zip(xs, refs):
            assert np.abs(fld.eval(x) - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())
        assert np.abs(fld.eval(xs) - refs).max() <= 1e-13 * max(1.0, np.abs(refs).max())


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
