import numpy as np
import pytest
import scipy.linalg

from possem import catalog
from possem.assembly import Grid, assemble
from possem.coefficients import ConstantField, EllipticSystem
from possem.decoupling import decide_decoupling, extract_scalar_systems
from possem.errors import ContractViolation, NumericalError
from possem.semigroup import (
    GeneratorOperator,
    expm_apply,
    factorization_residual,
    positivity_scan,
    sign_witness,
)


def test_expm_zero_is_identity():
    gen = GeneratorOperator(np.zeros((3, 3)))
    u = np.array([1.0, -2.0, 0.5])
    assert np.allclose(expm_apply(gen, 1.0, u), u)


def test_expm_diagonal():
    a = np.array([0.5, 1.0, -0.25])
    gen = GeneratorOperator(np.diag(a))
    u = np.array([1.0, 1.0, 1.0])
    out = expm_apply(gen, 1.0, u)
    assert np.allclose(out, np.exp(-a), atol=1e-12)


def test_expm_nilpotent():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    gen = GeneratorOperator(A)
    for t in (0.1, 1.0, 3.0):
        E = gen.propagator(t)
        assert np.allclose(E, [[1.0, -t], [0.0, 1.0]], atol=1e-13)


def test_expm_closed_form_2x2():
    A = np.array([[1.0, -0.5], [-0.5, 1.0]])
    gen = GeneratorOperator(A)
    E = gen.propagator(1.0)
    c, s = np.cosh(0.5), np.sinh(0.5)
    expected = np.exp(-1.0) * np.array([[c, s], [s, c]])
    assert np.abs(E - expected).max() <= 1e-12


def test_expm_against_eigendecomposition():
    # oracle exp(A) = V diag(exp(w)) V^-1 from the eigendecomposition
    rng = np.random.default_rng(0)
    for n in (5, 30, 90):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ours = GeneratorOperator(-A).propagator(1.0)
        w, V = np.linalg.eig(A)
        ref = np.linalg.solve(V.T, (V * np.exp(w)).T).T
        assert np.abs(ours - ref).max() <= 1e-10 * np.abs(ref).max()


def test_semigroup_law():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(2, 40))
        A = rng.standard_normal((n, n))
        A = A + n * np.eye(n)     # keep decay well behaved
        gen = GeneratorOperator(A)
        u = rng.standard_normal(n)
        s, t = 0.3, 0.7
        left = expm_apply(gen, s + t, u)
        right = expm_apply(gen, s, expm_apply(gen, t, u))
        assert np.linalg.norm(left - right) <= 1e-9 * np.linalg.norm(u)


def test_positivity_scan_sign_pattern_heat():
    sys_ = catalog.get("scalar_heat").build()
    dform = assemble(sys_, Grid(sys_.box, (8, 8), "dirichlet"))
    rep = positivity_scan(GeneratorOperator.from_discrete_form(dform))
    assert rep.verdict == "SIGN-PATTERN-OK"
    assert rep.min_entry >= -1e-12


def test_positivity_scan_negative_found():
    gen = GeneratorOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    rep = positivity_scan(gen, times=(0.5,))
    assert rep.verdict == "NEGATIVE-FOUND"
    t, val, i, j = rep.offender
    assert (i, j) == (0, 1)
    assert val == pytest.approx(-0.5)


def test_positivity_offender_is_stable_under_rounding():
    # A = L^2 for the free 1D Laplacian on 6 nodes is symmetric under
    # transposition and reversal, so the minimum of exp(-0.3 A) is taken at
    # (0, 3), (3, 0), (2, 5) and (5, 2); a 1-ulp change of one entry of A
    # moves the plain argmin between (5, 2) and (3, 0)
    n = 6
    L = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    L[0, 0] = L[-1, -1] = 1.0
    A = L @ L
    variants = [A]
    for r, c in [(0, 0), (1, 1), (2, 3), (3, 2), (5, 5)]:
        for direction in (-np.inf, np.inf):
            B = A.copy()
            B[r, c] = np.nextafter(B[r, c], direction)
            variants.append(B)
    for B in variants:
        rep = positivity_scan(GeneratorOperator(B), times=(0.3,))
        assert rep.verdict == "NEGATIVE-FOUND"
        t, val, i, j = rep.offender
        assert (i, j) == (0, 3)
        assert val == pytest.approx(rep.min_entry, abs=1e-15)


def test_positivity_scan_coupled_complex_pair():
    # the antisymmetric coupling vanishes on zero-trace grids, so the scan
    # sees a plain decoupled heat flow
    sys_ = catalog.get("ex1_3").build(bc="dirichlet")
    dform = assemble(sys_, Grid(sys_.box, (8, 8), "dirichlet"))
    rep = positivity_scan(GeneratorOperator.from_discrete_form(dform),
                          times=(0.01, 0.1, 1.0))
    assert rep.verdict != "NEGATIVE-FOUND"
    assert rep.min_entry >= -1e-12


def test_positivity_scan_lattice_witness_below_sampled_times():
    # the positive off-diagonal entry is too small for any default time to
    # show a negative entry; the offender comes from the witness itself
    gen = GeneratorOperator(np.array([[1.0, 1e-9], [0.0, 1.0]]))
    rep = positivity_scan(gen)
    assert rep.verdict == "NEGATIVE-FOUND" and not rep.positive
    assert rep.witness == ("lattice", 0, 1, 1e-9)
    t, val, i, j = rep.offender
    assert (i, j) == (0, 1) and val < 0
    ref = scipy.linalg.expm(-t * gen.A)[0, 1]
    assert ref < 0 and abs(val - ref) <= 1e-8


def _scalar_system(c11, c22, c12=0.0):
    """Scalar system with constant coefficients on the unit square, zero trace."""
    coeffs = tuple(tuple(ConstantField(np.array([[c]], dtype=complex)) for c in row)
                   for row in ((c11, c12), (c12, c22)))
    return EllipticSystem(((0, 1), (0, 1)), 1, coeffs, "dirichlet", 0.05)


def test_positivity_scan_nonreal_scalar():
    sys_ = _scalar_system(1 + 0.1j, 1 + 0.1j)
    dform = assemble(sys_, Grid(sys_.box, (8, 8), "dirichlet"))
    rep = positivity_scan(GeneratorOperator.from_discrete_form(dform))
    assert rep.verdict == "NONREAL-FOUND" and not rep.positive
    assert rep.offender is None
    assert rep.witness[0] == "nonreal"


def test_sign_witness_scalar_heat():
    sys_ = catalog.get("scalar_heat").build()
    dform = assemble(sys_, Grid(sys_.box, (8, 8), "dirichlet"))
    assert sign_witness(dform.K) is None
    assert sign_witness(GeneratorOperator.from_discrete_form(dform).A) is None


@pytest.mark.parametrize("name, bc", [("witness_W", "dirichlet"), ("ex1_3", "free")])
def test_sign_witness_same_on_stiffness_and_generator(name, bc):
    # K and A = Mass^-1 K share their signs; on these grids the largest
    # positive off-diagonal entry also sits at the same place
    sys_ = catalog.get(name).build(bc=bc)
    dform = assemble(sys_, Grid(sys_.box, (8, 8), bc))
    from_K = sign_witness(dform.K)
    from_A = sign_witness(GeneratorOperator.from_discrete_form(dform).A)
    assert from_K[0] == "lattice" and from_K[:3] == from_A[:3]


def test_sign_witness_is_a_lattice_pair():
    # a positive K_ij makes u+ = e_j, u- = e_i a nonnegative, disjointly
    # supported pair with Re (u-)^T K u+ = K_ij > 0
    sys_ = catalog.get("witness_W").build()
    dform = assemble(sys_, Grid(sys_.box, (6, 6), "dirichlet"))
    kind, i, j, value = sign_witness(dform.K)
    assert kind == "lattice" and i != j and value > 0
    plus, minus = np.eye(dform.ndof)[[j, i]]
    assert float(np.real(minus @ (dform.K @ plus))) == value
    K = dform.K.toarray().real
    np.fill_diagonal(K, -np.inf)
    assert value == K.max()


def test_q1_diagonal_neighbour_gap():
    # a real scalar system with a mixed term: positive semigroup, but the
    # Q1 entry b/2 - (c11 + c22)/6 between diagonal neighbours turns
    # positive once |b| > 2/3, on every square grid
    sys_ = _scalar_system(1.0, 1.0, 0.9)
    assert decide_decoupling(sys_).decision == "positive-decoupled"
    grid = Grid(sys_.box, (8, 8), "dirichlet")
    dform = assemble(sys_, grid)
    kind, i, j, value = sign_witness(dform.K)
    nodes = np.ravel_multi_index(([0, 1], [1, 0]), grid.shape)
    assert kind == "lattice" and (i, j) == tuple(nodes)
    assert value == pytest.approx(0.9 / 2 - 1 / 3, abs=1e-12)
    rep = positivity_scan(GeneratorOperator.from_discrete_form(dform))
    assert rep.verdict == "NEGATIVE-FOUND"
    below = assemble(_scalar_system(1.0, 1.0, 0.66), grid)
    assert sign_witness(below.K) is None


def test_positivity_scan_validates_times():
    gen = GeneratorOperator(np.eye(2))
    with pytest.raises(ValueError):
        positivity_scan(gen, times=())
    with pytest.raises(ValueError):
        positivity_scan(gen, times=(-1.0,))


def test_contractivity_decoupled():
    sys_ = catalog.get("rand_decoupled").build(seed=4)
    g = Grid(sys_.box, (6, 6), "dirichlet")
    dform = assemble(sys_, g)
    gen = GeneratorOperator.from_discrete_form(dform)
    rng = np.random.default_rng(0)
    for t in (0.05, 0.5):
        for _ in range(5):
            u = rng.standard_normal(dform.ndof)
            out = expm_apply(gen, t, u)
            assert np.linalg.norm(out) <= np.linalg.norm(u) * (1 + 1e-9)


def test_factorization_scalar_trivial():
    sys_ = catalog.get("scalar_heat").build()
    g = Grid(sys_.box, (6, 6), "dirichlet")
    dform = assemble(sys_, g)
    scalars = extract_scalar_systems(sys_)
    forms = [assemble(s, g) for s in scalars]
    u = np.random.default_rng(0).standard_normal(dform.ndof)
    assert factorization_residual(dform, forms, 0.3, u) <= 1e-12


def test_factorization_block_diagonal_constant():
    one = ConstantField(np.diag([1.0, 2.0]).astype(complex))
    zero = ConstantField(np.zeros((2, 2), dtype=complex))
    sys_ = EllipticSystem(((0, 1), (0, 1)), 2, ((one, zero), (zero, one)),
                          "dirichlet", 1.0)
    g = Grid(sys_.box, (5, 5), "dirichlet")
    dform = assemble(sys_, g)
    forms = [assemble(s, g) for s in extract_scalar_systems(sys_)]
    rng = np.random.default_rng(1)
    for t in (0.01, 0.1, 1.0):
        u = rng.standard_normal(dform.ndof)
        assert factorization_residual(dform, forms, t, u) <= 1e-10


def test_factorization_coupled_complex_pair_zero_trace():
    sys_ = catalog.get("ex1_3").build(bc="dirichlet")
    g = Grid(sys_.box, (8, 8), "dirichlet")
    dform = assemble(sys_, g)
    forms = [assemble(s, g) for s in extract_scalar_systems(sys_)]
    rng = np.random.default_rng(2)
    u = rng.standard_normal(dform.ndof) + 1j * rng.standard_normal(dform.ndof)
    for t in (0.01, 0.1, 1.0):
        assert factorization_residual(dform, forms, t, u) <= 1e-10


def test_factorization_rejects_coupled_input():
    sys_ = catalog.get("witness_W").build()
    g = Grid(sys_.box, (6, 6), "dirichlet")
    dform = assemble(sys_, g)
    forms = [assemble(s, g) for s in extract_scalar_systems(sys_)]
    u = np.ones(dform.ndof)
    with pytest.raises(ContractViolation):
        factorization_residual(dform, forms, 0.1, u)


def _without_mixed_terms(sys_):
    """Zero the k != l coefficients; the certificate targets pure-diffusion
    sign patterns (mixed derivatives can flip discrete off-diagonal signs)."""
    zero = ConstantField(np.zeros((sys_.m, sys_.m), dtype=complex))
    out = sys_
    for k in range(sys_.d):
        for l in range(sys_.d):
            if k != l:
                out = out.with_coefficient(k, l, zero)
    return out


def test_sign_pattern_certificate_sound():
    # SIGN-PATTERN-OK implies sampled nonnegativity on random decoupled systems
    checked = 0
    for seed in range(50):
        sys_ = _without_mixed_terms(catalog.get("rand_decoupled").build(seed=seed))
        dform = assemble(sys_, Grid(sys_.box, (4, 4), "dirichlet"))
        gen = GeneratorOperator.from_discrete_form(dform)
        rep = positivity_scan(gen, times=(0.01, 0.1, 1.0))
        if rep.verdict == "SIGN-PATTERN-OK":
            checked += 1
            assert rep.min_entry >= -1e-12
    assert checked >= 25


def test_falsification_on_refined_grids():
    # non-decoupled coefficients show up as negative propagator entries at
    # small times; fixed grid/time fixtures
    sys_ = catalog.get("witness_W").build()
    for res in (8, 16):
        g = Grid(sys_.box, (res, res), "dirichlet")
        gen = GeneratorOperator.from_discrete_form(assemble(sys_, g))
        rep = positivity_scan(gen, times=(0.005, 0.02, 0.1))
        assert rep.verdict == "NEGATIVE-FOUND"
        t, val, _, _ = rep.offender
        assert t == 0.005 and val < -1e-3


def test_assembled_forms_are_accretive():
    # ellipticity makes Re u*Ku >= 0 on every state: the Hermitian part of
    # the assembled stiffness is positive semidefinite up to rounding
    for name in ("scalar_heat", "ex1_3", "witness_W"):
        sys_ = catalog.get(name).build(bc="dirichlet")
        dform = assemble(sys_, Grid(sys_.box, (6,) * sys_.d, "dirichlet"))
        K = dform.K.toarray()
        lam = np.linalg.eigvalsh(0.5 * (K + K.conj().T))[0]
        assert lam >= -1e-10 * max(1.0, np.abs(K).max())


def test_expm_rejects_nonfinite():
    with pytest.raises(NumericalError):
        GeneratorOperator(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    gen = GeneratorOperator(np.diag([-1000.0, 1.0]))
    with pytest.raises(NumericalError, match="overflowed"), np.errstate(over="ignore"):
        gen.propagator(1.0)
