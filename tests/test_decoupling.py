import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from possem import catalog
from possem.assembly import Grid, assemble, form_value
from possem.coefficients import (
    ConstantField,
    EllipticSystem,
    GridSampledField,
    PolynomialField,
)
from possem.decoupling import (
    NonrealWitness,
    construct_witness,
    decide_decoupling,
    default_probe_points,
    extract_offdiag_2d,
    extract_scalar_systems,
    probe_system,
    system_delta_max,
)
from possem.errors import ContractViolation, GeometryError, UnsupportedContract
from possem.polynomials import MultiPoly


def test_probe_constant_system_exact():
    sys_ = catalog.get("ex1_3").build()
    x0 = np.array([0.7, -1.1])
    for kt in range(2):
        for lt in range(kt, 2):
            res = probe_system(sys_, x0, kt, lt)
            target = sys_.symmetrized(kt, lt, x0)
            assert np.abs(res.estimate - target).max() <= 1e-12 * max(1, np.abs(target).max())
            # delta independence for constant coefficients
            base = res.history[0][1]
            spread = max(np.abs(est - base).max() for _, est in res.history)
            assert spread <= 1e-12 * max(1.0, np.abs(target).max())


def test_probe_nullform_is_zero():
    sys_ = catalog.get("ex3_5_nullform").build()
    x0 = np.array([0.25, -0.5, 0.5])
    for kt in range(3):
        for lt in range(kt, 3):
            res = probe_system(sys_, x0, kt, lt)
            assert np.abs(res.estimate).max() <= 1e-8


def test_probe_linear_field_recovers_twice_value():
    x1 = MultiPoly.variable(0, 2)
    one = ConstantField(np.eye(1, dtype=complex))
    zero = ConstantField(np.zeros((1, 1), dtype=complex))
    c11 = PolynomialField(((x1,),), 2)
    sys_ = EllipticSystem(((0.0, 1.0), (0.0, 1.0)), 1,
                          ((c11, zero), (zero, one)), "free", 0.0)
    res = probe_system(sys_, np.array([0.3, 0.4]), 0, 0)
    assert res.estimate[0, 0].real == pytest.approx(2 * 0.3, abs=1e-10)
    assert res.converged


def test_probe_first_order_convergence_offdiagonal():
    x1 = MultiPoly.variable(0, 2)
    x2 = MultiPoly.variable(1, 2)
    q = x1 * x1 * x2 + 0.5 * x2 * x2
    one = ConstantField(np.eye(1, dtype=complex))
    zero = ConstantField(np.zeros((1, 1), dtype=complex))
    c12 = PolynomialField(((q,),), 2)
    sys_ = EllipticSystem(((0.0, 1.0), (0.0, 1.0)), 1,
                          ((one, c12), (zero, one)), "free", 0.0)
    x0 = np.array([0.3, 0.4])
    res = probe_system(sys_, x0, 0, 1, richardson=False)
    target = sys_.symmetrized(0, 1, x0)[0, 0]
    errs = [abs(est[0, 0] - target) for _, est in res.history]
    orders = [np.log2(errs[i - 1] / errs[i]) for i in range(1, len(errs))]
    assert min(orders) >= 0.9
    rich = probe_system(sys_, x0, 0, 1, richardson=True)
    assert abs(rich.estimate[0, 0] - target) <= errs[-1]


def test_probe_geometry_error():
    sys_ = catalog.get("scalar_heat").build()
    with pytest.raises(GeometryError):
        probe_system(sys_, np.array([0.5, 0.5]), 0, 0, deltas=(0.9,))
    with pytest.raises(GeometryError):
        probe_system(sys_, np.array([0.0, 0.5]), 0, 0)   # boundary point


def test_decision_catalog_positive():
    for name in ("scalar_heat", "ex1_3", "ex1_3_entry1", "ex5_5"):
        verdict = decide_decoupling(catalog.get(name).build())
        assert verdict.positive, name
        assert verdict.scalar_systems is not None
        assert verdict.witness is None


def test_decision_extracted_scalars_coupled_complex_pair():
    verdict = decide_decoupling(catalog.get("ex1_3").build())
    assert len(verdict.scalar_systems) == 2
    x = np.array([0.5, 0.5])
    for scalar in verdict.scalar_systems:
        for k in range(2):
            for l in range(2):
                val = scalar.eval_coefficient(k, l, x)[0, 0]
                assert val.imag == 0
                assert val.real == pytest.approx(6.0 if k == l else 0.0)
    assert verdict.diagnostics["scalar_bounds_ok"]
    assert verdict.diagnostics["scalar_coercivity_ok"]


def test_positive_verdict_requires_its_scalar_checks():
    # C_11 = 1 + 2000 prod_{i=1..5} (x_1 - i/6) reads 1 at the 5^2 samples
    # of the system's coercivity check, which sit on the roots of the
    # product, but reads below mu at the probe points, where the scalar
    # systems are checked
    d = 2
    x1, one = MultiPoly.variable(0, d), MultiPoly.constant(1.0, d)
    prod = one
    for i in range(1, 6):
        prod = prod * (x1 - MultiPoly.constant(i / 6, d))
    c11 = PolynomialField(((one + 2000 * prod,),), d)
    unit, zero = ConstantField(np.eye(1)), ConstantField(np.zeros((1, 1)))
    sys_ = EllipticSystem(((0.0, 1.0), (0.0, 1.0)), 1, ((c11, zero), (zero, unit)),
                          "dirichlet", 0.5)
    with pytest.raises(ContractViolation, match="scalar systems fail their coercivity"):
        decide_decoupling(sys_)
    verdict = decide_decoupling(sys_, require_elliptic=False)
    assert verdict.positive
    assert verdict.diagnostics["scalar_bounds_ok"]
    assert not verdict.diagnostics["scalar_coercivity_ok"]


def test_decision_embedded_nullform():
    verdict = decide_decoupling(catalog.get("ex5_5").build())
    assert verdict.positive
    x = np.array([0.3, -0.2, 0.1])
    for scalar in verdict.scalar_systems:
        for k in range(3):
            for l in range(3):
                val = scalar.eval_coefficient(k, l, x)[0, 0].real
                assert val == pytest.approx(6.0 if k == l else 0.0, abs=1e-12)


def test_decision_witness_system():
    verdict = decide_decoupling(catalog.get("witness_W").build())
    assert not verdict.positive
    w = verdict.witness
    assert w.kind == "lattice"
    assert w.mult_witness.pairing == pytest.approx(2.0)
    assert w.value == pytest.approx(4.0, abs=1e-10)
    assert w.value >= w.threshold * (1 - 1e-9)
    # disjoint channel supports: f vanishes on B
    assert np.all(w.f * w.indicator == 0.0)


def test_decision_via_probe_matches_direct():
    for name in ("ex1_3", "witness_W"):
        sys_ = catalog.get(name).build()
        direct = decide_decoupling(sys_)
        probed = decide_decoupling(sys_, via_probe=True)
        assert direct.decision == probed.decision


def mixed_resolution_system(fine_first):
    """C_11 = C_22 = 3I and a coupling C_12 = C_21 that is [[0, 1], [1, 0]]
    in the top corner cell of a 4 x 4 grid and zero elsewhere.  The
    constant C_11 is stored on a 2 x 2 grid, or on the 4 x 4 grid when
    ``fine_first``, so the first grid-sampled field differs in resolution."""
    box = ((0.0, 1.0), (0.0, 1.0))

    def constant(cells):
        return GridSampledField(box, np.broadcast_to(3.0 * np.eye(2), (cells, cells, 2, 2)))

    coupling = np.zeros((4, 4, 2, 2))
    coupling[3, 3] = [[0.0, 1.0], [1.0, 0.0]]
    c12 = GridSampledField(box, coupling)
    return EllipticSystem(box, 2, ((constant(4 if fine_first else 2), c12),
                                   (c12, constant(2))), "dirichlet", 1.0)


@pytest.mark.parametrize("fine_first", [False, True])
def test_decision_sees_every_cell_of_mixed_resolution_grids(fine_first):
    sys_ = mixed_resolution_system(fine_first)
    verdict = decide_decoupling(sys_)
    assert len(verdict.probe_points) == 16
    assert verdict.decision == "not-positive"
    w = verdict.witness
    assert np.allclose(w.x0, [0.875, 0.875])
    value = form_value(sys_, (w.pair.phi, w.f), (w.pair.psi, w.indicator)).real
    assert value == pytest.approx(w.value)
    assert value >= w.threshold * (1 - 1e-9)


def four_cell_system(coupled):
    """C_11 = C_22 = 3I on a 4 x 4 coefficient grid; C_12 = C_21 is zero, or
    [[0, 1], [1, 0]] in cell (3, 3) when ``coupled``."""
    box = ((0.0, 1.0), (0.0, 1.0))
    diag = GridSampledField(box, np.broadcast_to(3.0 * np.eye(2), (4, 4, 2, 2)))
    coupling = np.zeros((4, 4, 2, 2))
    if coupled:
        coupling[3, 3] = [[0.0, 1.0], [1.0, 0.0]]
    c12 = GridSampledField(box, coupling)
    return EllipticSystem(box, 2, ((diag, c12), (c12, diag)), "dirichlet", 1.0)


@pytest.mark.parametrize("coupled", [False, True])
def test_decision_via_probe_on_grid_sampled_cells(coupled):
    # the default dilations stay inside one coefficient cell, so every probe
    # at a cell center converges and recovers the cell value exactly
    sys_ = four_cell_system(coupled)
    for x0 in ((0.125, 0.375), (0.875, 0.875)):
        for k, l in [(0, 0), (0, 1), (1, 1)]:
            res = probe_system(sys_, x0, k, l)
            assert res.converged
            assert np.abs(res.estimate - sys_.symmetrized(k, l, x0)).max() <= 1e-12
    verdict = decide_decoupling(sys_, via_probe=True)
    if not coupled:
        assert verdict.decision == "positive-decoupled"
        return
    assert verdict.decision == "not-positive"
    w = verdict.witness
    assert np.allclose(w.x0, [0.875, 0.875])
    value = form_value(sys_, (w.pair.phi, w.f), (w.pair.psi, w.indicator)).real
    assert value == pytest.approx(w.value)
    assert value >= w.threshold * (1 - 1e-9)


def test_witness_dilation_capped_like_the_probes():
    # x0 lies 0.05 from the cell face x_1 = 0.75: the witness search starts at
    # system_delta_max (0.025), and a larger delta0 is capped, not trusted
    sys_ = four_cell_system(True)
    x0 = np.array([0.8, 0.875])
    Q = sys_.symmetrized(0, 1, x0)
    cap = system_delta_max(sys_, x0)
    for delta0 in (None, 0.2):
        w = construct_witness(sys_, x0, 0, 1, Q, delta0=delta0)
        assert w.delta <= cap
        value = form_value(sys_, (w.pair.phi, w.f), (w.pair.psi, w.indicator)).real
        assert value == pytest.approx(w.value)
        assert value >= w.threshold * (1 - 1e-9)
    with pytest.raises(GeometryError):      # on the cell face x_1 = 0.75
        construct_witness(sys_, np.array([0.75, 0.875]), 0, 1, Q)


def grid_polynomial_system():
    """C_11 = 3I stored on 2 x 2 coefficient cells, C_22 = 3I, and a
    polynomial coupling C_12 = C_21 = 2 (x_1 - 1/4)(x_1 - 3/4) [[0, 1], [1, 0]]
    that vanishes at every cell center but not in between."""
    box = ((0.0, 1.0), (0.0, 1.0))
    x1 = MultiPoly.variable(0, 2)
    c = 2 * (x1 - 0.25) * (x1 - 0.75)
    zero = MultiPoly.constant(0.0, 2)
    c12 = PolynomialField(((zero, c), (c, zero)), 2)
    c11 = GridSampledField(box, np.broadcast_to(3.0 * np.eye(2), (2, 2, 2, 2)))
    c22 = ConstantField(3.0 * np.eye(2))
    return EllipticSystem(box, 2, ((c11, c12), (c12, c22)), "dirichlet", 1.0)


@pytest.mark.parametrize("via_probe", [False, True])
def test_decision_sees_polynomial_coupling_between_cell_centres(via_probe):
    # 3 x 3 interior points in each of the 2 x 2 cells, none on a cell face
    sys_ = grid_polynomial_system()
    verdict = decide_decoupling(sys_, via_probe=via_probe)
    assert len(verdict.probe_points) == 36
    assert verdict.decision == "not-positive"
    w = verdict.witness
    value = form_value(sys_, (w.pair.phi, w.f), (w.pair.psi, w.indicator)).real
    assert value == pytest.approx(w.value)
    assert value >= w.threshold * (1 - 1e-9)


def test_decision_gauge_robust():
    # shifting (C_12, C_21) by +-c I never changes the verdict
    for name in ("ex1_3", "witness_W"):
        sys_ = catalog.get(name).build()
        base = decide_decoupling(sys_).decision
        for c in (1.0, 1j, 2 + 3j):
            eye = np.eye(sys_.m, dtype=complex)
            mid = np.array([(a + b) / 2 for a, b in sys_.box])
            shifted = sys_.with_coefficient(
                0, 1, ConstantField(sys_.eval_coefficient(0, 1, mid) + c * eye))
            shifted = shifted.with_coefficient(
                1, 0, ConstantField(sys_.eval_coefficient(1, 0, mid) - c * eye))
            after = decide_decoupling(shifted, require_elliptic=False)
            assert after.decision == base


def test_construct_witness_directly():
    sys_ = catalog.get("witness_W").build()
    Q = sys_.symmetrized(0, 1, np.zeros(2))
    cert = construct_witness(sys_, np.zeros(2), 0, 1, Q, delta0=1.0)
    assert cert.value == pytest.approx(4.0, abs=1e-12)
    assert cert.delta == 1.0
    # exact re-evaluation through the form
    val = form_value(sys_, (cert.pair.phi, cert.f),
                     (cert.pair.psi, cert.indicator)).real
    assert val == pytest.approx(cert.value, abs=1e-12)


def test_construct_witness_requires_offdiagonal():
    sys_ = catalog.get("ex1_3").build()
    Q = sys_.symmetrized(0, 1, np.zeros(2))        # identically zero
    with pytest.raises(ValueError):
        construct_witness(sys_, np.zeros(2), 0, 1, Q)
    sys55 = catalog.get("ex5_5").build()
    Q55 = sys55.symmetrized(0, 1, np.array([0.3, 0.3, 0.3]))
    with pytest.raises(ValueError):
        construct_witness(sys55, np.array([0.3, 0.3, 0.3]), 0, 1, Q55)


def test_construct_witness_diagonal_pair_threshold_equality():
    # a coupling inside C_11 leads through the diagonal-pair tents, whose
    # limiting value sits exactly at the acceptance threshold
    R = np.zeros((2, 2)); R[1, 0] = 1.0
    C11 = ConstantField((6 * np.eye(2) + R).astype(complex))
    z = ConstantField(np.zeros((2, 2), dtype=complex))
    six = ConstantField(6 * np.eye(2, dtype=complex))
    sys_ = EllipticSystem(((-4.0, 4.0), (-4.0, 4.0)), 2,
                          ((C11, z), (z, six)), "dirichlet", 4.0)
    verdict = decide_decoupling(sys_)
    w = verdict.witness
    assert (w.ktilde, w.ltilde) == (0, 0)
    assert w.value == pytest.approx(w.threshold)
    assert w.value > 0


def test_nonreal_witness_for_complex_diagonal():
    z = ConstantField(np.zeros((2, 2), dtype=complex))
    six = ConstantField(6 * np.eye(2, dtype=complex))
    Cc = ConstantField(np.diag([6.0, 6.0 + 2.0j]))
    sys_ = EllipticSystem(((-4.0, 4.0), (-4.0, 4.0)), 2,
                          ((Cc, z), (z, six)), "dirichlet", 4.0)
    verdict = decide_decoupling(sys_)
    assert not verdict.positive
    assert isinstance(verdict.witness, NonrealWitness)
    assert abs(verdict.witness.value_imag) == pytest.approx(4.0, abs=1e-10)


def test_random_suites():
    for seed in range(8):
        assert decide_decoupling(catalog.get("rand_decoupled").build(seed=seed)).positive
        assert not decide_decoupling(catalog.get("rand_coupled").build(seed=seed)).positive


def test_extraction_respects_bounds():
    sys_ = catalog.get("ex1_3").build()
    M = sys_.bound()
    scalars = extract_scalar_systems(sys_)
    x = np.array([0.1, 0.1])
    for s in scalars:
        for k in range(2):
            for l in range(2):
                assert abs(s.eval_coefficient(k, l, x)[0, 0]) <= M + 1e-12


def test_extract_offdiag_2d_recovers_average():
    sys_ = catalog.get("ex1_3").build(bc="free")
    rep = extract_offdiag_2d(sys_)
    expected = np.zeros((2, 2), dtype=complex)
    expected[1, 0] = 3 + 4j
    assert np.abs(rep.average - expected).max() <= 1e-10
    assert rep.symmetrized_constant
    # antisymmetric part equals the coupling itself here
    assert np.abs(rep.antisymmetric_average - expected).max() <= 1e-10


def test_extract_offdiag_2d_symmetric_system():
    sys_ = catalog.get("witness_W").build(bc="free")
    rep = extract_offdiag_2d(sys_)
    assert np.abs(rep.antisymmetric_average).max() <= 1e-10
    R = np.zeros((2, 2)); R[1, 0] = 1.0
    assert np.abs(rep.average - R).max() <= 1e-10


def test_extract_offdiag_2d_sees_polynomial_symmetrized_part():
    # C_12 = C_21 = (x - 1/4)(x - 1/2)(x - 3/4) I vanishes on the 3 x 3 grid
    # at 1/4, 1/2, 3/4 but not on the 4 x 4 grid its cubic degree asks for
    x = MultiPoly.variable(0, 2)
    q = (x - 0.25) * (x - 0.5) * (x - 0.75)
    zero = MultiPoly.constant(0.0, 2)
    c12 = PolynomialField(((q, zero), (zero, q)), 2)
    diag = ConstantField(3.0 * np.eye(2))
    sys_ = EllipticSystem(((0.0, 1.0), (0.0, 1.0)), 2,
                          ((diag, c12), (c12, diag)), "free", 1.0)
    assert not extract_offdiag_2d(sys_).symmetrized_constant


def test_extract_offdiag_2d_zero_form():
    one = ConstantField(np.eye(1, dtype=complex))
    zero = ConstantField(np.zeros((1, 1), dtype=complex))
    sys_ = EllipticSystem(((0.0, 1.0), (0.0, 1.0)), 1,
                          ((zero, zero), (zero, zero)), "free", 0.0)
    rep = extract_offdiag_2d(sys_)
    assert np.abs(rep.average).max() <= 1e-14


def test_extract_offdiag_2d_needs_free_bc():
    sys_ = catalog.get("ex1_3").build(bc="dirichlet")
    with pytest.raises(UnsupportedContract):
        extract_offdiag_2d(sys_)


def test_form_criterion_witness_state_positive():
    # nodal interpolation of the certified witness pair keeps the positive
    # form value once tents are grid aligned: delta = 1, h = 0.25
    sys_ = catalog.get("witness_W").build()
    verdict = decide_decoupling(sys_)
    w = verdict.witness
    grid = Grid(sys_.box, (32, 32), "dirichlet")
    dform = assemble(sys_, grid)
    pts = grid.node_points()
    state = np.empty(dform.ndof)
    plus = w.pair.phi(pts)
    minus = w.pair.psi(pts)
    for ch in range(sys_.m):
        state[ch::sys_.m] = plus * w.f[ch] - minus * w.indicator[ch]
    val = np.maximum(-state, 0.0) @ (dform.K @ np.maximum(state, 0.0)).real
    assert val == pytest.approx(4.0, abs=1e-10)


def test_probe_consistency_random_points():
    # polynomial fields match the direct symmetrized value at 5 random
    # interior points to 1e-8 (constants to 1e-12); the default 7-step
    # schedule targets 1e-6, so the finer check extends it to 12 steps
    from possem.decoupling import default_delta_max

    rng = np.random.default_rng(17)
    sys_poly = catalog.get("rand_coupled(2)").build()
    pts = np.stack([rng.uniform(0.3, 0.7, 5), rng.uniform(0.3, 0.7, 5)], axis=-1)
    for x0 in pts:
        dmax = default_delta_max(sys_poly.box, x0)
        deltas = tuple(dmax * 2.0 ** (-j) for j in range(12))
        for kt in range(2):
            for lt in range(kt, 2):
                est = probe_system(sys_poly, x0, kt, lt, deltas=deltas).estimate
                ref = sys_poly.symmetrized(kt, lt, x0)
                assert np.abs(est - ref).max() <= 1e-8
    sys_const = catalog.get("witness_W").build()
    for x0 in pts * 8 - 4 + 2:     # map into the (-4, 4) box interior
        est = probe_system(sys_const, x0, 0, 1).estimate
        ref = sys_const.symmetrized(0, 1, x0)
        assert np.abs(est - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_probe_flags_divergent_evaluator():
    from possem.decoupling import probe

    calls = {"n": 0}

    def hostile(phi, psi):
        calls["n"] += 1
        return [[1.0 / phi.delta ** 2]]     # blows up as delta shrinks

    res = probe(hostile, 2, ((0.0, 1.0), (0.0, 1.0)),
                np.array([0.5, 0.5]), 0, 0)
    assert not res.converged
    assert calls["n"] == len(res.deltas)


def _perfbench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_soundness_counterexample_not_positive():
    import possem

    sys_ = _perfbench_workloads().soundness_counterexample(possem)
    verdict = decide_decoupling(sys_)
    assert verdict.decision == "not-positive"
    assert verdict.witness.value >= verdict.witness.threshold


def test_soundness_counterexample_not_positive_via_probe():
    import possem

    sys_ = _perfbench_workloads().soundness_counterexample(possem)
    verdict = decide_decoupling(sys_, via_probe=True)
    assert verdict.decision == "not-positive"
    w = verdict.witness
    value = form_value(sys_, (w.pair.phi, w.f), (w.pair.psi, w.indicator)).real
    assert value >= w.threshold * (1 - 1e-9)


def hidden_coupling_system(p, layout):
    """Channel coupling 20 (x_1 - 1/4)(x_1 - 1/2)(x_1 - 3/4) x_1**(p - 3) in
    C_11 over the diagonal 3I, on the unit square or cube.  It has per-axis
    degree p and vanishes wherever x_1 is 1/4, 1/2 or 3/4.  With layout
    'grid' the system also holds C_22 = 3I on 1 x 2 cells, so each cell
    spans all of x_1 and 3 points per axis and cell miss the coupling too."""
    d = 3 if layout == "3d" else 2
    x = MultiPoly.variable(0, d)
    c = 20 * (x - 0.25) * (x - 0.5) * (x - 0.75)
    for _ in range(p - 3):
        c = c * x
    three = MultiPoly.constant(3.0, d)
    zero = ConstantField(np.zeros((2, 2)))
    rows = [[zero] * d for _ in range(d)]
    for k in range(d):
        rows[k][k] = ConstantField(3.0 * np.eye(2))
    rows[0][0] = PolynomialField(((three, c), (c, three)), d)
    box = ((0.0, 1.0),) * d
    if layout == "grid":
        rows[1][1] = GridSampledField(box, np.broadcast_to(3.0 * np.eye(2), (1, 2, 2, 2)))
    return EllipticSystem(box, 2, rows, "dirichlet", 1.0)


@pytest.mark.parametrize("layout", ["2d", "3d", "grid"])
@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_decision_sees_coupling_hidden_from_three_points_per_axis(p, layout):
    sys_ = hidden_coupling_system(p, layout)
    cells = 2 if layout == "grid" else 1
    assert len(default_probe_points(sys_)) == cells * (p + 1) ** sys_.d
    verdict = decide_decoupling(sys_)
    assert verdict.decision == "not-positive"
    w = verdict.witness
    value = form_value(sys_, (w.pair.phi, w.f), (w.pair.psi, w.indicator)).real
    assert value == pytest.approx(w.value)
    assert value >= w.threshold * (1 - 1e-9)


def test_default_probe_points_common_refinement():
    # grid-only systems read every cell centre of the common refinement of
    # the fields' cells; with nothing grid-sampled the box is the one cell
    box = ((0.0, 1.0), (0.0, 2.0))
    two = GridSampledField(box, np.zeros((2, 1, 1, 1)))
    three = GridSampledField(box, np.zeros((3, 1, 1, 1)))
    zero = ConstantField(np.zeros((1, 1)))
    alone = EllipticSystem(box, 1, ((two, zero), (zero, two)))
    assert np.array_equal(default_probe_points(alone), two.cell_centers())
    mixed = EllipticSystem(box, 1, ((two, zero), (zero, three)))
    # cuts at 0, 1/3, 1/2, 2/3, 1 along the first axis; one cell along the second
    assert np.allclose(default_probe_points(mixed),
                       [[1 / 6, 1.0], [5 / 12, 1.0], [7 / 12, 1.0], [5 / 6, 1.0]])
    constant = EllipticSystem(box, 1, ((zero, zero), (zero, zero)))
    assert np.array_equal(default_probe_points(constant), [[0.5, 1.0]])
