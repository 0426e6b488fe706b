import numpy as np
import pytest
import scipy.linalg

from possem import catalog, semigroup
from possem.assembly import Grid, assemble
from possem.coefficients import ConstantField, EllipticSystem, PolynomialField
from possem.decoupling import decide_decoupling, extract_scalar_systems
from possem.errors import ContractViolation, NumericalError
from possem.polynomials import MultiPoly
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
    for t in (np.nan, np.inf):
        with pytest.raises(ValueError, match="nonempty, positive and finite"):
            positivity_scan(gen, times=(0.1, t))
    for t in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="time must be positive"):
            expm_apply(gen, t, np.ones(2))


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


def test_factorization_rejects_forms_of_another_grid_or_width():
    # a Dirichlet 6^2 and a free 4^2 grid both have 25 nodes; the block form
    # itself has two channels
    sys_ = catalog.get("rand_decoupled(3)").build(bc="dirichlet")
    dform = assemble(sys_, Grid(sys_.box, (6, 6), "dirichlet"))
    other = Grid(sys_.box, (4, 4), "free")
    u = np.random.default_rng(0).standard_normal(dform.ndof)
    for forms in ([assemble(s, other) for s in extract_scalar_systems(sys_)], [dform] * 2):
        with pytest.raises(ValueError, match="one-channel forms on the block form's grid"):
            factorization_residual(dform, forms, 0.1, u)


def test_factorization_rejects_coupled_input():
    sys_ = catalog.get("witness_W").build()
    g = Grid(sys_.box, (6, 6), "dirichlet")
    dform = assemble(sys_, g)
    forms = [assemble(s, g) for s in extract_scalar_systems(sys_)]
    u = np.ones(dform.ndof)
    with pytest.raises(ContractViolation):
        factorization_residual(dform, forms, 0.1, u)


@pytest.mark.parametrize("t", [0.0, -0.1, np.nan, np.inf])
def test_factorization_rejects_nonpositive_time(t):
    sys_ = catalog.get("scalar_heat").build()
    g = Grid(sys_.box, (4, 4), "dirichlet")
    dform = assemble(sys_, g)
    forms = [assemble(s, g) for s in extract_scalar_systems(sys_)]
    u = np.ones(dform.ndof)
    factorization_residual(dform, forms, 0.1, u)
    for _ in range(2):      # a refused time is neither kept nor skipped
        with pytest.raises(ValueError, match="time must be positive"):
            factorization_residual(dform, forms, t, u)


def _counting(monkeypatch, module, name):
    """Record the argument shapes of every call to ``module.name``."""
    calls = []
    raw = getattr(module, name)
    monkeypatch.setattr(module, name, lambda a, *args: calls.append(a.shape) or raw(a, *args))
    return calls


def _reuse_case(sys_, n=5):
    """Residuals of 6 states at 3 times on fresh forms each, and the forms and
    states to repeat them on one set of forms."""
    g = Grid(sys_.box, (n, n), "dirichlet")
    scalars = extract_scalar_systems(sys_)
    rng = np.random.default_rng(5)
    states = [(t, rng.standard_normal(g.N * sys_.m))
              for t in (0.01, 0.1, 1.0) for _ in range(2)]
    fresh = [factorization_residual(assemble(sys_, g), [assemble(s, g) for s in scalars], t, u)
             for t, u in states]
    return fresh, assemble(sys_, g), [assemble(s, g) for s in scalars], states


def test_factorization_reuses_one_decomposition_per_form(monkeypatch):
    sys_ = catalog.get("rand_decoupled(3)").build(bc="dirichlet")
    fresh, dform, forms, states = _reuse_case(sys_)
    eighs = _counting(monkeypatch, np.linalg, "eigh")
    expms = _counting(monkeypatch, scipy.linalg, "expm")
    reused = [factorization_residual(dform, forms, t, u) for t, u in states]
    assert sys_.m == 2 and len(eighs) == 1 + sys_.m and not expms
    assert reused == fresh and max(fresh) > 0.0
    positivity_scan(GeneratorOperator.from_discrete_form(dform))
    assert len(eighs) == 1 + sys_.m and not expms


def _sheared_scalar(d=2, shear=0.3, mu=0.5):
    """Real scalar system on the unit box with C_12 = shear x1 and C_21 = 0:
    a first-order term makes K non-symmetric."""
    x1 = MultiPoly.variable(0, d)
    one, zero = MultiPoly.constant(1.0, d), MultiPoly.constant(0.0, d)
    rows = [[one if k == l else zero for l in range(d)] for k in range(d)]
    rows[0][1] = shear * x1
    coeffs = tuple(tuple(PolynomialField(((p,),), d) for p in row) for row in rows)
    return EllipticSystem(((0, 1),) * d, 1, coeffs, "dirichlet", mu)


def _two_way_pair(d=2, bc="free"):
    """ex1_3 with a second coupling entry: C_12 = [[0, 1], [3 + 4i, 0]] = -C_21
    over a conductivity-6 diagonal on (-4, 4)^d.  On the free space K couples
    the two channels both ways, so the generator is not self-adjoint and
    has no one-way spectral form."""
    six = ConstantField(6 * np.eye(2, dtype=complex))
    zero = ConstantField(np.zeros((2, 2), dtype=complex))
    C = np.array([[0, 1], [3 + 4j, 0]])
    rows = [[six if k == l else zero for l in range(d)] for k in range(d)]
    rows[0][1], rows[1][0] = ConstantField(C), ConstantField(-C)
    return EllipticSystem(((-4.0, 4.0),) * d, 2, tuple(map(tuple, rows)), bc, 3.5)


#: Systems of this module by name, each built from its dimension d.
LOCAL_SYSTEMS = {
    "sheared_scalar": _sheared_scalar,
    # past the Q1 gap, so that K has a lattice witness
    "steep_shear": lambda d: _sheared_scalar(d, shear=1.8, mu=0.05),
    "two_way_pair": _two_way_pair,
}


def test_factorization_reuses_one_exponential_per_form_and_time(monkeypatch):
    # a non-self-adjoint generator keeps one dense exponential per form and time
    sys_ = _sheared_scalar()
    fresh, dform, forms, states = _reuse_case(sys_)
    expms = _counting(monkeypatch, scipy.linalg, "expm")
    reused = [factorization_residual(dform, forms, t, u) for t, u in states]
    assert GeneratorOperator.from_discrete_form(dform).method == "expm"
    assert len(expms) == 3 * (1 + sys_.m)
    assert reused == fresh


SPECTRAL_FORMS = [("scalar_heat", "dirichlet", 2, 8), ("scalar_heat", "free", 2, 8),
                  ("ex1_3", "dirichlet", 2, 8), ("rand_decoupled(3)", "dirichlet", 2, 8),
                  ("ex5_5", "dirichlet", 3, 6)]


@pytest.mark.parametrize("name, bc, d, n", SPECTRAL_FORMS)
def test_spectral_propagator_matches_expm(name, bc, d, n):
    # ex5_5's K is symmetric only up to ulp residues
    sys_ = catalog.get(name).build(bc=bc)
    gen = GeneratorOperator.from_discrete_form(assemble(sys_, Grid(sys_.box, (n,) * d, bc)))
    assert gen.method == "spectral"
    rng = np.random.default_rng(0)
    u = rng.standard_normal(gen.ndof) + 1j * rng.standard_normal(gen.ndof)
    for t in positivity_scan(gen).times + (0.01, 0.1, 1.0):
        ref = scipy.linalg.expm(-t * gen.A)
        assert np.abs(gen.propagator(t) - ref).max() <= 1e-13 * np.abs(ref).max()
        for v in (u.real, u, np.stack([u, u.imag], axis=1)):
            assert np.abs(gen.apply(t, v) - ref @ v).max() <= 1e-13 * np.abs(ref @ v).max()


ONE_WAY_FORMS = [("ex1_3", "free", 2, 8), ("ex1_3_entry1", "free", 2, 8),
                 ("witness_W", "dirichlet", 2, 8), ("rand_coupled(3)", "dirichlet", 2, 8),
                 ("rand_coupled(3)", "dirichlet", 3, 5)]


@pytest.mark.parametrize("name, bc, d, n", ONE_WAY_FORMS)
def test_one_way_propagator_matches_expm(name, bc, d, n):
    # each channel's block of K is self-adjoint and one channel drives the
    # other: two groups and one link, first-order Dyson term exact
    gen = _form_generator(name, bc, d, n)
    assert gen.method == "spectral"
    groups, links = gen.spectral
    assert len(groups) == 2 and len(links) == 1
    rng = np.random.default_rng(0)
    u = rng.standard_normal(gen.ndof) + 1j * rng.standard_normal(gen.ndof)
    states = (u.real, u, np.stack([u, u.imag], axis=1))
    for t in positivity_scan(gen).times + (0.01, 0.1, 1.0):
        ref = scipy.linalg.expm(-t * gen.A)
        assert np.abs(gen.propagator(t) - ref).max() <= 1e-13 * np.abs(ref).max()
        for v in states:
            assert np.abs(gen.apply(t, v) - ref @ v).max() <= 1e-13 * np.abs(ref @ v).max()
    # far past every mode's decay (t ||A||_1 = 1e3): finite and silent, as the
    # suite turns warnings into errors; there expm's squarings cost it digits
    # (the self-adjoint path of scalar_heat free reads 1.3e-13 against it)
    t = 1e3 / gen.norm1
    ref = scipy.linalg.expm(-t * gen.A)
    E = gen.propagator(t)
    assert np.all(np.isfinite(E)) and np.abs(E - ref).max() <= 1e-12 * np.abs(ref).max()
    for v in states:
        assert np.abs(gen.apply(t, v) - ref @ v).max() <= 1e-12 * np.abs(ref @ v).max()


@pytest.mark.parametrize("name, bc, d, n", ONE_WAY_FORMS)
def test_one_way_scan_matches_the_dense_path(monkeypatch, name, bc, d, n):
    gen = _form_generator(name, bc, d, n)
    rep = positivity_scan(gen)
    assert rep.propagator == "spectral"
    monkeypatch.setattr(semigroup, "CHAIN_COST", np.inf)
    ref = positivity_scan(GeneratorOperator(gen.A))
    assert ref.propagator == "expm"
    # a minimum near zero carries the rounding of a propagator of size 1 on
    # either path (rand_coupled(3) 5^3: -9.5e-5, the two 3.3e-16 apart)
    _assert_same_scan(rep, ref, atol=1e-15)


def test_one_way_form_scans_its_spectral_factors(monkeypatch):
    # with the chain priced at zero, a generator with no spectral form takes
    # it; one with one-way factors still scans by them
    monkeypatch.setattr(semigroup, "CHAIN_COST", 0)
    assert positivity_scan(_form_generator("witness_W", "dirichlet", 2, 6)).propagator == "spectral"
    two_way = _form_generator("two_way_pair", "free", 2, 8)
    assert two_way.method == "expm"
    assert positivity_scan(two_way).propagator == "expm_multiply"


def test_one_way_generator_densifies_K_once(monkeypatch):
    # the Hermitian test, the one-way plan and the factors read one dense K
    sys_ = catalog.get("witness_W").build()
    dform = assemble(sys_, Grid(sys_.box, (6, 6), "dirichlet"))
    calls, raw = [], dform.K.toarray
    monkeypatch.setattr(dform.K, "toarray", lambda *a, **kw: calls.append(1) or raw(*a, **kw))
    gen = GeneratorOperator.from_discrete_form(dform)
    rep = positivity_scan(gen)
    assert gen.spectral[1] and rep.propagator == "spectral"
    assert len(calls) == 1


def test_one_way_generator_is_read_only(monkeypatch):
    sys_ = catalog.get("witness_W").build()
    dform = assemble(sys_, Grid(sys_.box, (6, 6), "dirichlet"))
    eighs = _counting(monkeypatch, np.linalg, "eigh")
    gen = GeneratorOperator.from_discrete_form(dform)
    assert gen.method == "spectral" and gen._A is None
    positivity_scan(gen)
    assert len(eighs) == 2 and gen._A is None        # one eigh per group, no dense A
    A = (dform.K.toarray() / dform.dof_mass[:, None]).real
    assert np.array_equal(gen.A, A) and gen.A is gen.A
    arrays = semigroup._factor_arrays(gen.spectral) + [dofs for dofs, *_ in gen.spectral[0]]
    for arr in [gen.A] + arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    assert len(eighs) == 2


@pytest.mark.parametrize("name, bc", [("sheared_scalar", "dirichlet"), ("two_way_pair", "free"),
                                      (None, None)])
def test_expm_path_is_unchanged(name, bc):
    # generators with no spectral form: a non-symmetric scalar block, and
    # channels coupled both ways
    if name is None:
        gen = GeneratorOperator(np.array([[1.0, -0.5], [-0.5, 1.0]]))
    else:
        sys_ = LOCAL_SYSTEMS[name](2)
        dform = assemble(sys_, Grid(sys_.box, (8, 8), bc))
        gen = GeneratorOperator.from_discrete_form(dform)
        A = dform.K.toarray()
        A /= dform.dof_mass[:, None]
        assert np.array_equal(gen.A, A.real if dform.is_real() else A)
    assert np.array_equal(gen.csr.toarray(), gen.A) and gen.csr.dtype == gen.A.dtype
    assert gen.method == "expm" and gen.spectral is None
    for t in (0.01, 0.1, 1.0):
        assert np.array_equal(gen.propagator(t), scipy.linalg.expm(-t * gen.A))


def test_memoized_generator_is_read_only():
    sys_ = catalog.get("scalar_heat").build()
    dform = assemble(sys_, Grid(sys_.box, (4, 4), "dirichlet"))
    gen = GeneratorOperator.from_discrete_form(dform)
    assert GeneratorOperator.from_discrete_form(dform) is gen
    for arr in (gen.A, gen.csr.data, gen.csr.indices, *semigroup._factor_arrays(gen.spectral)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    plain = np.eye(2)
    with pytest.raises(ValueError, match="read-only"):
        GeneratorOperator(plain).A[0, 0] = 2.0
    plain[0, 0] = 2.0       # the caller's array stays writable


@pytest.mark.parametrize("name, bc", [("witness_W", "dirichlet"), ("scalar_heat", "dirichlet")])
def test_real_generator_is_contiguous(name, bc):
    # a real generator holds its own bytes, not the real view of a complex array
    sys_ = catalog.get(name).build(bc=bc)
    gen = GeneratorOperator.from_discrete_form(assemble(sys_, Grid(sys_.box, (8, 8), bc)))
    for arr in (gen.A, gen.csr.data):
        owner = arr if arr.base is None else arr.base
        assert arr.dtype == np.float64 and arr.flags.c_contiguous
        assert owner.nbytes == arr.nbytes


def _form_generator(name, bc, d, n):
    """The generator of a catalog entry or of one of LOCAL_SYSTEMS."""
    if name in LOCAL_SYSTEMS:
        sys_ = LOCAL_SYSTEMS[name](d)
    else:
        kw = {"d": d} if name.startswith("rand_") else {}
        sys_ = catalog.get(name).build(bc=bc, **kw)
    return GeneratorOperator.from_discrete_form(assemble(sys_, Grid(sys_.box, (n,) * d, bc)))


def _assert_same_scan(rep, ref, atol=0.0):
    assert (rep.verdict, rep.witness, rep.times) == (ref.verdict, ref.witness, ref.times)
    (t, value, i, j), (t_ref, value_ref, i_ref, j_ref) = rep.offender, ref.offender
    assert (t, i, j) == (t_ref, i_ref, j_ref) and value == pytest.approx(value_ref, rel=1e-13)
    for got, want in zip(rep.per_time, ref.per_time):
        assert np.allclose(got, want, rtol=1e-13, atol=atol)


@pytest.mark.parametrize("name, bc, d, n", [("two_way_pair", "free", 2, 12),
                                            ("steep_shear", "dirichlet", 2, 16),
                                            ("sheared_scalar", "dirichlet", 3, 10)])
def test_sparse_scan_matches_expm(monkeypatch, name, bc, d, n):
    # one chain of expm_multiply over the sorted times, against a dense
    # exponential per time (the cost rule switched off)
    gen = _form_generator(name, bc, d, n)
    expms = _counting(monkeypatch, scipy.linalg, "expm")
    rep = positivity_scan(gen)
    assert rep.propagator == "expm_multiply" and not expms
    monkeypatch.setattr(semigroup, "CHAIN_COST", np.inf)
    ref = positivity_scan(gen)
    assert ref.propagator == "expm" and len(expms) == 3
    _assert_same_scan(rep, ref)


def test_sparse_scan_keeps_the_callers_time_order(monkeypatch):
    gen = _form_generator("two_way_pair", "free", 2, 12)
    times = (1e-3, 1e-4, 1e-3)
    rep = positivity_scan(gen, times=times)
    assert rep.propagator == "expm_multiply" and rep.times == times
    assert rep.per_time[0] == rep.per_time[2]
    assert rep.per_time[:2] == positivity_scan(gen, times=(1e-4, 1e-3)).per_time[::-1]
    # both times show a negative entry; the offender is at the caller's first
    assert rep.per_time[1][0] < 0 and rep.offender[0] == 1e-3
    monkeypatch.setattr(semigroup, "CHAIN_COST", np.inf)
    _assert_same_scan(rep, positivity_scan(gen, times=times))


def test_scan_leaves_the_global_rng_alone():
    # the chain's 1-norm estimate resamples columns from numpy's global RNG
    # on this form; the scan draws them under its own seed and restores the
    # caller's state, so the report does not depend on that state either
    gen = _form_generator("two_way_pair", "free", 2, 16)
    saved = np.random.get_state()
    try:
        reports = []
        for seed in (1, 2):
            np.random.seed(seed)
            before = np.random.get_state()
            reports.append(positivity_scan(gen))
            after = np.random.get_state()
            assert after[0] == before[0] and np.array_equal(after[1], before[1])
            assert after[2:] == before[2:]
    finally:
        np.random.set_state(saved)
    assert reports[0].propagator == "expm_multiply"
    assert reports[0] == reports[1]


@pytest.mark.parametrize("n, times", [(8, None), (12, (1.0,))])
def test_dense_side_of_the_cost_rule_keeps_expm(n, times):
    # a small form, or a large ||t A||_1 (103.5 here), keeps one dense
    # exponential per time, bit for bit
    gen = _form_generator("two_way_pair", "free", 2, n)
    rep = positivity_scan(gen, times=times)
    assert rep.propagator == "expm"
    for t, got in zip(rep.times, rep.per_time):
        E = scipy.linalg.expm(-t * gen.A)
        assert got == (float(E.real.min()), float(np.abs(E.imag).max()))


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
