import importlib.util
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from possem import catalog, decoupling
from possem.assembly import Grid, assemble, form_matrix, form_value
from possem.coefficients import (
    ConstantField,
    EllipticSystem,
    GridSampledField,
    PolynomialField,
    check_ellipticity,
    default_coercivity_tol,
    default_ellipticity_points,
    hermitian_at_least,
)
from possem.decoupling import (
    NonrealWitness,
    _exactly_real_diagonal,
    _first_failure,
    construct_witness,
    decide_decoupling,
    default_decision_tol,
    default_delta_max,
    default_probe_points,
    extract_scalar_systems,
    probe,
    probe_system,
    scalar_bounds,
    scalar_coercivity,
    system_delta_max,
)
from possem.errors import (
    ContractViolation,
    DomainError,
    GeometryError,
    IndeterminateDecision,
    NoWitnessExists,
    NumericalError,
    WitnessNotLocalized,
)
from possem.multop import is_multiplication
from possem.polynomials import MultiPoly
from possem.semigroup import GeneratorOperator, positivity_scan, sign_witness
from possem.tents import PiecewiseLinear1D, TensorTestFunction, build_test_pair


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


@pytest.mark.parametrize("build", [catalog.get("ex1_3").build, catalog.get("ex5_5").build,
                                   partial(catalog.embedded_nullform, "dirichlet"),
                                   catalog.get("ex3_5_nullform").build],
                         ids=["ex1_3", "ex5_5", "embedded_nullform", "ex3_5_nullform"])
def test_symmetrized_offdiagonal_cancels_exactly(build):
    # the degree-sized zero test needs C_kl + C_lk to cancel to 0.0, not
    # to rounding level, wherever the coupling is antisymmetric
    sys_ = build()
    pts = default_probe_points(sys_)
    off = ~np.eye(sys_.m, dtype=bool)
    for k in range(sys_.d):
        for l in range(k, sys_.d):
            assert np.all(sys_.symmetrized(k, l, pts)[:, off] == 0.0)


def per_pair_first_failure(sys_, points, tol):
    for x0 in points:
        for k in range(sys_.d):
            for l in range(k, sys_.d):
                Q = sys_.symmetrized(k, l, x0)
                if not (is_multiplication(Q, tol) and np.abs(Q.imag).max() <= tol):
                    return x0, k, l
    return None


@pytest.mark.parametrize("base", ["rand_coupled", "rand_decoupled"])
@pytest.mark.parametrize("m, d", [(2, 2), (4, 2), (2, 3), (4, 3)])
def test_direct_first_failure_matches_a_per_pair_loop(base, m, d):
    for seed in (2, 11, 40):
        sys_ = catalog.get(f"{base}({seed})").build(m=m, d=d)
        points = default_probe_points(sys_)
        tol = default_decision_tol(sys_)
        ref = per_pair_first_failure(sys_, points, tol)
        got = _first_failure(sys_, points, tol, sys_.block_matrix(points))
        assert (ref is None) == (base == "rand_decoupled") == (got is None)
        if ref is not None:
            assert np.array_equal(got[0], ref[0]) and got[1:3] == ref[1:]


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


def four_cell_system(eps):
    """C_11 = C_22 = 3I on a 4 x 4 coefficient grid; C_12 = C_21 is zero but
    for eps [[0, 1], [1, 0]] in cell (3, 3)."""
    box = ((0.0, 1.0), (0.0, 1.0))
    diag = GridSampledField(box, np.broadcast_to(3.0 * np.eye(2), (4, 4, 2, 2)))
    coupling = np.zeros((4, 4, 2, 2))
    coupling[3, 3] = [[0.0, eps], [eps, 0.0]]
    c12 = GridSampledField(box, coupling)
    return EllipticSystem(box, 2, ((diag, c12), (c12, diag)), "dirichlet", 1.0)


@pytest.mark.parametrize("coupled", [False, True])
def test_probes_and_decision_on_grid_sampled_cells(coupled):
    # the default dilations stay inside one coefficient cell, so every probe
    # at a cell center converges and recovers the cell value exactly
    sys_ = four_cell_system(float(coupled))
    for x0 in ((0.125, 0.375), (0.875, 0.875)):
        for k, l in [(0, 0), (0, 1), (1, 1)]:
            res = probe_system(sys_, x0, k, l)
            assert res.converged
            assert np.abs(res.estimate - sys_.symmetrized(k, l, x0)).max() <= 1e-12
    verdict = decide_decoupling(sys_)
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
    sys_ = four_cell_system(1.0)
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


def test_decision_sees_polynomial_coupling_between_cell_centres():
    # 3 x 3 interior points in each of the 2 x 2 cells, none on a cell face
    sys_ = grid_polynomial_system()
    verdict = decide_decoupling(sys_)
    assert len(verdict.probe_points) == 36
    assert verdict.decision == "not-positive"
    w = verdict.witness
    value = form_value(sys_, (w.pair.phi, w.f), (w.pair.psi, w.indicator)).real
    assert value == pytest.approx(w.value)
    assert value >= w.threshold * (1 - 1e-9)


def two_three_cell_system(shift=0.0):
    """C_11 = 3I on 2 x 2 cells, C_22 = 3I on 3 x 3 cells, and couplings
    C_12 = a I + S / 2 on 2 x 2 cells and C_21 = b I - S / 2 on 3 x 3 cells,
    S = [[0, 1], [1, 0]], with dyadic a and b that differ cell by cell.  The
    swap parts cancel exactly on every cell of the 4 x 4 common refinement,
    unless ``shift`` is added to the last 3 x 3 cell's."""
    box = ((0.0, 1.0), (0.0, 1.0))
    rng = np.random.default_rng(5)

    def cells(n, diag, swap):
        v = np.zeros((n, n, 2, 2))
        v[..., 0, 0] = v[..., 1, 1] = diag
        v[..., 0, 1] = v[..., 1, 0] = swap
        return GridSampledField(box, v)

    swap = np.full((3, 3), -0.5)
    swap[2, 2] += shift
    c12 = cells(2, rng.integers(-4, 5, (2, 2)) / 16, 0.5)
    c21 = cells(3, rng.integers(-4, 5, (3, 3)) / 16, swap)
    return EllipticSystem(box, 2, ((cells(2, 3.0, 0.0), c12), (c21, cells(3, 3.0, 0.0))),
                          "dirichlet", 1.0)


def test_mixed_resolution_coupling_that_cancels_exactly_is_positive():
    # the 2- and 3-cell grids meet on the refinement 0, 1/3, 1/2, 2/3, 1 per
    # axis; each refined cell reads its own cell of each field
    sys_ = two_three_cell_system()
    verdict = decide_decoupling(sys_)
    assert len(verdict.probe_points) == 16
    assert verdict.decision == "positive-decoupled"
    # a residue of 2**-40 in the last 3 x 3 cell is placed in that cell
    sys_ = two_three_cell_system(2.0 ** -40)
    verdict = decide_decoupling(sys_)
    assert verdict.decision == "not-positive"
    w = verdict.witness
    assert np.all(w.x0 > 2 / 3) and verdict.diagnostics["failed_pair"] == (0, 1)
    value = form_value(sys_, (w.pair.phi, w.f), (w.pair.psi, w.indicator)).real
    assert value == pytest.approx(w.value)
    assert value >= w.threshold * (1 - 1e-9)


def test_polynomial_remainder_beside_a_grid_coupling_is_not_positive():
    # C_12 = -S / 2 on 2 x 2 cells cancels the constant term of the
    # polynomial C_21 = (1/2 + 1e-9 x_1) S in every cell; its term
    # 1e-9 x_1 S is left over and couples the channels
    box = ((0.0, 1.0), (0.0, 1.0))
    x1, zero = MultiPoly.variable(0, 2), MultiPoly.constant(0.0, 2)
    c = MultiPoly.constant(0.5, 2) + 1e-9 * x1
    c12 = GridSampledField(box, np.broadcast_to(-0.5 * SWAP, (2, 2, 2, 2)))
    c21 = PolynomialField(((zero, c), (c, zero)), 2)
    diag = ConstantField(3.0 * np.eye(2))
    sys_ = EllipticSystem(box, 2, ((diag, c12), (c21, diag)), "dirichlet", 1.0)
    verdict = decide_decoupling(sys_)
    assert verdict.decision == "not-positive"
    w = verdict.witness
    assert w.kind == "lattice" and verdict.diagnostics["failed_pair"] == (0, 1)
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


def test_only_a_real_diagonal_matrix_makes_the_decision_indeterminate(monkeypatch):
    # a real diagonal Q has no witness (NoWitnessExists, a ValueError); any
    # other ValueError from the witness search is a fault and must surface
    sys_ = catalog.get("ex1_3").build()
    with pytest.raises(NoWitnessExists):
        construct_witness(sys_, np.zeros(2), 0, 1, np.zeros((2, 2)))
    coupled = four_cell_system(1.0)
    for exc, raised in ((NoWitnessExists("real diagonal"), IndeterminateDecision),
                        (ValueError("fault"), ValueError)):
        def fail(*args, **kwargs):
            raise exc
        monkeypatch.setattr(decoupling, "construct_witness", fail)
        with pytest.raises(raised) as info:
            decide_decoupling(coupled)
        assert type(info.value) is raised


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


def assert_same_pair(got, want):
    """Two tent pairs agree bit for bit: scales, centres and dilations as
    float hex, factors by their breakpoint and value bytes, tau, target and
    case."""
    for a, b in ((got.phi, want.phi), (got.psi, want.psi)):
        assert [float.hex(float(v)) for v in (a.scale, *a.center, a.delta)] == \
            [float.hex(float(v)) for v in (b.scale, *b.center, b.delta)]
        assert a.factors == b.factors
    assert float.hex(got.tau) == float.hex(want.tau)
    assert (got.ktilde, got.ltilde, got.case_id) == (want.ktilde, want.ltilde, want.case_id)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kl", [(0, 0), (0, 1), (1, 1), (1, 0)])
@pytest.mark.parametrize("coupling", [0.3, -0.3, 1.7, -1.7])
def test_witness_pair_is_build_test_pair(d, kl, coupling):
    # construct_witness reads the verified pair of tau's sign and scales its
    # phi by |tau|; that is build_test_pair(tau, ...) bit for bit, in each of
    # the four cases (sign x diagonal target)
    k, l = kl
    R = np.zeros((2, 2))
    R[1, 0] = coupling
    six = ConstantField(6 * np.eye(2, dtype=complex))
    z = ConstantField(np.zeros((2, 2), dtype=complex))
    rows = [[six if i == j else z for j in range(d)] for i in range(d)]
    rows[k][l] = ConstantField((6 * np.eye(2) * (k == l) + R).astype(complex))
    sys_ = EllipticSystem(((-4.0, 4.0),) * d, 2, rows, "dirichlet", 4.0)
    x0 = np.full(d, 0.5)
    cert = construct_witness(sys_, x0, k, l, sys_.symmetrized(k, l, x0))
    tau = cert.pair.tau
    assert np.sign(tau) == np.sign(coupling)
    assert_same_pair(cert.pair, build_test_pair(tau, k, l, d).dilated(x0, cert.delta))
    assert cert.value >= cert.threshold * (1 - 1e-9)


def test_counterexample_witness_pair_is_build_test_pair():
    # the ROADMAP counterexample's witness has tau < 0 on the diagonal target
    # (0, 0): case 3, which a pair cached without its sign would miss
    import possem

    sys_ = _perfbench_workloads().soundness_counterexample(possem)
    w = decide_decoupling(sys_).witness
    assert (w.ktilde, w.ltilde) == (0, 0) and w.pair.tau < 0 and w.pair.case_id == 3
    want = build_test_pair(w.mult_witness.pairing.real, 0, 0, 2).dilated(w.x0, w.delta)
    assert_same_pair(w.pair, want)
    assert w.value == pytest.approx(0.0938437, abs=1e-6)


def _complex_diagonal_system():
    z = ConstantField(np.zeros((2, 2), dtype=complex))
    six = ConstantField(6 * np.eye(2, dtype=complex))
    Cc = ConstantField(np.diag([6.0, 6.0 + 2.0j]))
    return EllipticSystem(((-4.0, 4.0), (-4.0, 4.0)), 2,
                          ((Cc, z), (z, six)), "dirichlet", 4.0)


def test_nonreal_witness_for_complex_diagonal():
    verdict = decide_decoupling(_complex_diagonal_system())
    assert not verdict.positive
    assert isinstance(verdict.witness, NonrealWitness)
    assert abs(verdict.witness.value) == pytest.approx(4.0, abs=1e-10)


def test_construct_witness_builds_the_nonreal_kind():
    # Re Q is diagonal, so the one witness search falls back to the largest
    # |Im Q| = 4 at (row, col) = (1, 1)
    sys_ = _complex_diagonal_system()
    x0 = np.zeros(2)
    w = construct_witness(sys_, x0, 0, 0, sys_.symmetrized(0, 0, x0))
    assert w.kind == "nonreal" and w.row == w.col == 1
    value = form_value(sys_, (w.pair.phi, w.f), (w.pair.psi, w.indicator))
    assert value.imag == w.value
    assert abs(w.value) >= w.threshold


@pytest.mark.parametrize("build, kl, kind", [
    (catalog.get("witness_W").build, (0, 1), "lattice"),
    (_complex_diagonal_system, (0, 0), "nonreal"),
])
def test_unlocalized_witness_names_its_kind(build, kl, kind, monkeypatch):
    monkeypatch.setattr(decoupling, "MAX_HALVINGS", 0)
    sys_, x0 = build(), np.zeros(2)
    with pytest.raises(WitnessNotLocalized, match=f"certified a {kind} witness at"):
        construct_witness(sys_, x0, *kl, sys_.symmetrized(*kl, x0))


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


def dipping_channel_system():
    """m = 2: channel 2 of C_11 is 1 + 2000 prod_{i=1..5} (x_1 - i/6), which
    reads 1 at the 5^2 samples of the system's own coercivity check and
    below mu = 0.5 at some probe points; channel 1 and C_22 are 1."""
    d = 2
    x1, one = MultiPoly.variable(0, d), MultiPoly.constant(1.0, d)
    zero = MultiPoly.constant(0.0, d)
    prod = one
    for i in range(1, 6):
        prod = prod * (x1 - MultiPoly.constant(i / 6, d))
    c11 = PolynomialField(((one, zero), (zero, one + 2000 * prod)), d)
    off = ConstantField(np.zeros((2, 2)))
    return EllipticSystem(((0.0, 1.0), (0.0, 1.0)), 2, ((c11, off), (off, ConstantField(np.eye(2)))),
                          "dirichlet", 0.5)


def decoupled_systems():
    """Every catalog entry, seeded rand_decoupled with m = 2, 4 and d = 2, 3,
    a decoupled grid-sampled system (cells beside polynomial couplings with
    an imaginary antisymmetric part), a constant beside a grid, and
    ``dipping_channel_system``."""
    out = [catalog.get(name).build() for name in catalog.names()
           if not catalog.needs_seed(name)]
    out += [catalog.get(f"rand_decoupled({seed})").build(m=m, d=d)
            for seed in (3, 7) for m in (2, 4) for d in (2, 3)]
    # an m = 4 and a d = 3 system of perfbench's seed-1 decide list, among
    # the jobs where its p90 falls
    out += [catalog.get("rand_decoupled(1069973050)").build(m=4),
            catalog.get("rand_decoupled(344997561)").build(d=3)]
    rng = np.random.default_rng(23)
    box, m, ch = ((0.0, 1.0), (-1.0, 2.0)), 3, np.arange(3)

    def cells(shape, lo, hi):
        v = np.zeros(shape + (m, m), dtype=complex)
        v[..., ch, ch] = rng.uniform(lo, hi, shape + (m,))
        return GridSampledField(box, v)

    x1, x2 = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
    zero = MultiPoly.constant(0.0, 2)

    def coupling(sign):
        p = [0.2 * x1 * x2 + sign * 0.3j * x1, 0.1 * x2 * x2, -0.15 * x1 + sign * 0.5j * x2]
        return PolynomialField(tuple(tuple(p[i] if i == j else zero for j in range(m))
                                     for i in range(m)), 2)

    out.append(EllipticSystem(box, m, ((cells((3, 2), 3, 4), coupling(1)),
                                       (coupling(-1), cells((1, 3), 3, 4))), "free", 1.0))
    diag = ConstantField(np.diag([2.0, 1.5, 3.0]))
    grid = cells((2, 2), -0.25, 0.25)
    out.append(EllipticSystem(box, m, ((diag, grid), (grid, diag)), "dirichlet", 0.5))
    out.append(dipping_channel_system())
    return out


def test_scalar_bounds_are_the_scalar_systems_bounds():
    # scalar_bounds reads the parent's table; each is the bound the scalar
    # system computes from its own fields, to the bit
    for sys_ in decoupled_systems():
        bounds = scalar_bounds(sys_)
        for n, s in enumerate(extract_scalar_systems(sys_)):
            assert float.hex(float(bounds[n])) == float.hex(s.bound())


def test_positive_verdict_builds_no_scalar_table():
    # the decision reads the parent's table only; a scalar system builds its
    # own table from its fields on first read
    verdicts = [decide_decoupling(s, require_elliptic=False) for s in decoupled_systems()]
    positive = [v for v in verdicts if v.decision == "positive-decoupled"]
    assert len(positive) >= 10
    for v in positive:
        assert all("table" not in vars(s) for s in v.scalar_systems)


def test_exactly_decoupled_systems_have_no_failure_at_the_tolerance():
    # why a positive verdict may skip the tolerance scan: every system that
    # passes the exact test is real diagonal to within default_decision_tol
    # at every probe point
    passed = 0
    for sys_ in decoupled_systems():
        if _exactly_real_diagonal(sys_):
            points = default_probe_points(sys_)
            tol = default_decision_tol(sys_)
            assert _first_failure(sys_, points, tol, sys_.block_matrix(points)) is None
            passed += 1
    assert passed >= 10


def test_stacked_scalar_coercivity_matches_check_ellipticity():
    for sys_ in decoupled_systems():
        pts, tol = default_probe_points(sys_), default_decision_tol(sys_)
        lams, passed = scalar_coercivity(sys_, sys_.block_matrix(pts), tol)
        for n, s in enumerate(extract_scalar_systems(sys_)):
            rep = check_ellipticity(EllipticSystem(s.box, 1, s.coeffs, s.bc, s.mu), pts, tol)
            assert float.hex(float(lams[n])) == float.hex(rep.lambda_min)
            assert bool(passed[n]) == rep.passed


def test_positive_verdict_records_a_channel_below_mu():
    sys_ = dipping_channel_system()
    assert check_ellipticity(sys_).passed
    pts, tol = default_probe_points(sys_), default_decision_tol(sys_)
    assert scalar_coercivity(sys_, sys_.block_matrix(pts), tol)[1].tolist() == [True, False]
    verdict = decide_decoupling(sys_, require_elliptic=False)
    assert verdict.positive
    assert verdict.diagnostics["scalar_bounds_ok"]
    assert not verdict.diagnostics["scalar_coercivity_ok"]
    with pytest.raises(ContractViolation, match="scalar systems fail their coercivity"):
        decide_decoupling(sys_)


def with_mu(sys_, mu):
    return EllipticSystem(sys_.box, sys_.m, sys_.coeffs, sys_.bc, mu)


@pytest.mark.parametrize("name", ["scalar_heat", "ex1_3", "ex5_5", "rand_coupled(3)", "mixed"])
def test_decision_fails_a_declared_coercivity_above_lambda_min(name):
    # the gate fails, and the eigenvalues give the message the smallest
    # eigenvalue of check_ellipticity, to the bit
    if name == "mixed":
        base = decoupled_systems()[-2]          # a constant beside a grid
    else:
        base = catalog.get(name).build()
    lam = check_ellipticity(base).lambda_min
    for mu in (lam + 0.5, lam + 1e-6 * max(1.0, abs(lam))):
        sys_ = with_mu(base, mu)
        assert not check_ellipticity(sys_).passed
        with pytest.raises(ContractViolation, match="fails its declared coercivity") as exc:
            decide_decoupling(sys_)
        read = float(re.search(r"lambda_min = (\S+) <", str(exc.value)).group(1))
        assert float.hex(read) == float.hex(lam)


def test_coercivity_on_the_floor_is_decided_by_the_eigenvalues():
    # a heat flow with conductivity c = 1 - tol below 1, declared mu = 1:
    # its Hermitian part is c I, so H - floor I is zero at the floor
    # mu - tol = c, the Cholesky gate fails, lambda_min = c clears the floor
    # and the decision passes, as check_ellipticity does
    def heat(c):
        one, zero = ConstantField(np.array([[c]])), ConstantField(np.zeros((1, 1)))
        return EllipticSystem(((0.0, 1.0), (0.0, 1.0)), 1, ((one, zero), (zero, one)),
                              "dirichlet", 1.0)

    sys_ = heat(1.0 - 1e-10)
    floor = sys_.mu - default_coercivity_tol(sys_)
    assert floor == 1.0 - 1e-10
    assert not hermitian_at_least(sys_.block_matrix(default_ellipticity_points(sys_)), floor)
    assert check_ellipticity(sys_).passed
    assert decide_decoupling(sys_).positive
    # the same for the scalar systems' check, whose floor is mu - tol
    sys_ = heat(1.0 - 1e-8)
    tol = default_decision_tol(sys_)
    B = sys_.block_matrix(default_probe_points(sys_))
    assert sys_.mu - tol == 1.0 - 1e-8
    assert not hermitian_at_least(B, sys_.mu - tol)
    assert scalar_coercivity(sys_, B, tol)[1].all()
    verdict = decide_decoupling(sys_, require_elliptic=False)
    assert verdict.positive and verdict.diagnostics["scalar_coercivity_ok"]


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


@pytest.mark.parametrize("name, steps", [("ex1_3", None), ("rand_coupled(2)", 12),
                                         ("ex5_5", 3), ("witness_W", 1)])
def test_probe_system_reads_every_dilation_in_one_call(monkeypatch, name, steps):
    # one stacked form_matrix call per probe, whatever the schedule's length,
    # with the history of one form_matrix call per dilation through probe
    import possem.decoupling as decoupling
    from possem.decoupling import default_delta_max, probe

    sys_ = catalog.get(name).build()
    x0 = np.array([a + 0.41 * (b - a) for a, b in sys_.box])
    deltas = None if steps is None else tuple(
        0.5 * default_delta_max(sys_.box, x0) * 2.0 ** -j for j in range(steps))
    calls = []

    def counting(*args):
        calls.append(args)
        return form_matrix(*args)

    monkeypatch.setattr(decoupling, "form_matrix", counting)
    for k, l in [(0, 0), (0, 1)]:
        calls.clear()
        res = probe_system(sys_, x0, k, l, deltas=deltas)
        assert len(calls) == 1 and len(calls[0][-1]) == len(res.deltas)
        ref = probe(partial(form_matrix, sys_), sys_.d, sys_.box, x0, k, l, deltas=res.deltas)
        for (dd, got), (dd_ref, want) in zip(res.history, ref.history):
            assert dd == dd_ref
            assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max())
        assert res.converged == ref.converged


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
    w = verdict.witness
    assert w.value >= w.threshold
    value = form_value(sys_, (w.pair.phi, w.f), (w.pair.psi, w.indicator)).real
    assert value == pytest.approx(w.value)


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


def test_scalar_bounds_never_exceed_the_system_bound():
    # a positive verdict's scalar_bounds_ok rests on this inequality; it is
    # an equality on channel-diagonal fields such as rand_decoupled's
    seeded = [catalog.get(f"rand_decoupled({seed})").build(m=m, d=d)
              for seed in range(20) for m in (1, 2, 4) for d in (1, 2, 3)]
    for sys_ in decoupled_systems() + seeded:
        M = sys_.bound()
        assert all(b <= M for b in scalar_bounds(sys_).tolist())
    for sys_ in seeded:
        assert max(scalar_bounds(sys_).tolist()) == sys_.bound()


def test_default_delta_max_rejects_a_nan_point():
    box = ((-4.0, 4.0), (-4.0, 4.0))
    for x0 in ([np.nan, 0.5], [0.5, np.nan]):
        with pytest.raises(GeometryError):
            default_delta_max(box, np.array(x0))


def test_probe_system_rejects_a_nan_point():
    sys_ = catalog.get("ex1_3").build()
    for x0 in ([np.nan, 0.5], [0.5, np.nan]):
        with pytest.raises(GeometryError):
            probe_system(sys_, x0, 0, 1)


def test_given_schedule_rejects_a_nan_point():
    sys_ = catalog.get("ex1_3").build()
    with pytest.raises(GeometryError):
        probe_system(sys_, [np.nan, 0.5], 0, 1, deltas=(0.1, 0.05))
    with pytest.raises(GeometryError):
        probe_system(sys_, [0.5, 0.5], 0, 1, deltas=(0.1, np.nan))


def test_empty_schedule_is_a_geometry_error():
    sys_ = catalog.get("ex1_3").build()
    with pytest.raises(GeometryError, match="at least one dilation"):
        probe_system(sys_, [0.5, 0.5], 0, 1, deltas=())
    with pytest.raises(GeometryError, match="at least one dilation"):
        probe(partial(form_matrix, sys_), 2, sys_.box, [0.5, 0.5], 0, 1, deltas=())


def test_point_of_the_wrong_dimension_is_a_domain_error():
    sys_ = catalog.get("ex1_3").build()
    for x0 in ([0.5], [0.5, 0.5, 0.5]):
        with pytest.raises(DomainError, match=f"dimension \\({len(x0)},\\), box has 2"):
            probe_system(sys_, x0, 0, 1)
        with pytest.raises(DomainError):
            probe_system(sys_, x0, 0, 1, deltas=(0.1,))
        with pytest.raises(DomainError):
            construct_witness(sys_, x0, 0, 1, np.array([[0.0, 1.0], [1.0, 0.0]]))


# ROADMAP item 1: on the free space the antisymmetric coupling C_12 = -C_21
# of ex1_3 and ex1_3_entry1 leaves a boundary term that the symmetrized test
# does not see.  The nonnegative pair u+ = (x2 + 4)/8 e_1, u- = (x1 + 4)/8 e_2
# on (-4, 4)^2 then has a(u+, u-) equal to the coupling, 1 or 3 + 4i, so
# neither semigroup is positive.
FREE_GAP = [("ex1_3_entry1", 1.0), ("ex1_3", 3 + 4j)]


def free_gap_pair():
    one = PiecewiseLinear1D([-4.0, 4.0], [1.0, 1.0])
    rise = PiecewiseLinear1D([-4.0, 4.0], [0.0, 1.0])      # (x + 4) / 8
    return ((TensorTestFunction(1.0, (one, rise)), np.array([1.0, 0.0])),
            (TensorTestFunction(1.0, (rise, one)), np.array([0.0, 1.0])))


@pytest.mark.parametrize("name, value", FREE_GAP)
def test_free_gap_pair_reads_the_coupling(name, value):
    sys_ = catalog.get(name).build(bc="free")
    assert abs(form_value(sys_, *free_gap_pair()) - value) <= 1e-12


@pytest.mark.xfail(raises=AssertionError,
                   reason="the decision tests only C_kl + C_lk, not the antisymmetric "
                          "remainder's boundary term (ROADMAP item 1)")
@pytest.mark.parametrize("name", [name for name, _ in FREE_GAP])
def test_free_antisymmetric_coupling_is_not_positive(name):
    assert decide_decoupling(catalog.get(name).build(bc="free")).decision == "not-positive"


# ROADMAP item 1, the two Dirichlet systems of its scratch facts: an
# antisymmetric coupling whose divergence does not vanish is a first-order
# term of the form.  The drift pair C_11 = C_22 = 6 I, C_12 = x1 R = -C_21
# (R = e_2 e_1^T) couples its channels; the scalar C_12 = 0.5i x1 = -C_21 is
# an imaginary drift that does not keep real functions real.  Both read
# POSITIVE-DECOUPLED today, while their assembled generators already carry a
# cross-channel lattice witness and a non-real entry.
def _x1_drift_pair():
    d = 2
    x1 = MultiPoly.variable(0, d)
    zero, six = MultiPoly.constant(0.0, d), MultiPoly.constant(6.0, d)
    diag = PolynomialField(((six, zero), (zero, six)), d)
    c12 = PolynomialField(((zero, zero), (x1, zero)), d)
    c21 = PolynomialField(((zero, zero), (-1 * x1, zero)), d)
    return EllipticSystem(((0.0, 1.0), (0.0, 1.0)), 2, ((diag, c12), (c21, diag)),
                          "dirichlet", 5.0)


def _imaginary_drift():
    d = 2
    x1, one = MultiPoly.variable(0, d), MultiPoly.constant(1.0, d)

    def fld(p):
        return PolynomialField(((p,),), d)

    return EllipticSystem(((0.0, 1.0), (0.0, 1.0)), 1,
                          ((fld(one), fld(0.5j * x1)), (fld(-0.5j * x1), fld(one))),
                          "dirichlet", 0.4)


DIVERGENT_DRIFTS = [_x1_drift_pair, _imaginary_drift]


@pytest.mark.xfail(raises=AssertionError,
                   reason="the decision tests only C_kl + C_lk, not the divergence of the "
                          "antisymmetric remainder (ROADMAP item 1)")
@pytest.mark.parametrize("build", DIVERGENT_DRIFTS)
def test_divergent_antisymmetric_coupling_is_not_positive(build):
    assert decide_decoupling(build()).decision == "not-positive"


@pytest.mark.parametrize("build, verdict, witness", [
    (_x1_drift_pair, "NEGATIVE-FOUND", ("lattice", 3, 0, 8 / 3)),
    (_imaginary_drift, "NONREAL-FOUND", ("nonreal", 0, 1, -4 / 3)),
])
def test_divergent_drift_scans_find_the_witness(build, verdict, witness):
    # dof 3 is node 1 of channel 2 and dof 0 node 0 of channel 1: a
    # cross-channel entry of K, so a lattice pair of the continuous form
    sys_ = build()
    rep = positivity_scan(GeneratorOperator.from_discrete_form(
        assemble(sys_, Grid(sys_.box, (8, 8), "dirichlet"))))
    assert rep.verdict == verdict and rep.witness[:3] == witness[:3]
    assert rep.witness[3] == pytest.approx(witness[3], abs=1e-12)


# ROADMAP item 10: a zero test to within 1e-8 max(1, M) would pass a
# coupling below it; the exact test does not.  C_11 = [[1, eps], [eps, 1]], C_22 = I couples the two
# channels through eps, so the semigroup is not positive for any eps != 0;
# a cross-channel tent pair's form value holds no channel-diagonal
# coefficient, so it reads eps to full relative accuracy.
TOLERANCE_BAND = [5e-9, 1e-9]


def _coupled_inside_tolerance(eps):
    zero = ConstantField(np.zeros((2, 2)))
    c11 = ConstantField(np.array([[1.0, eps], [eps, 1.0]]))
    return EllipticSystem(((0.0, 1.0), (0.0, 1.0)), 2,
                          ((c11, zero), (zero, ConstantField(np.eye(2)))), "dirichlet", 0.5)


@pytest.mark.parametrize("eps", TOLERANCE_BAND)
def test_coupling_below_the_tolerance_is_not_positive(eps):
    # constant coefficients, and one grid-sampled cell coupled by eps
    for sys_ in (_coupled_inside_tolerance(eps), four_cell_system(eps)):
        assert decide_decoupling(sys_).decision == "not-positive"


@pytest.mark.parametrize("eps", TOLERANCE_BAND)
def test_coupling_below_the_tolerance_has_a_lattice_witness(eps):
    # dofs 0 and 1 are channels 1 and 2 of node 0: K_01 = 4 eps / 3 > 0 is a
    # cross-channel lattice pair of the 8^2 form
    sys_ = _coupled_inside_tolerance(eps)
    witness = sign_witness(assemble(sys_, Grid(sys_.box, (8, 8), "dirichlet")).K)
    assert witness[:3] == ("lattice", 0, 1)
    assert witness[3] == pytest.approx(4 * eps / 3, rel=1e-9)


@pytest.mark.parametrize("eps", TOLERANCE_BAND)
def test_coupling_below_the_tolerance_has_a_tent_witness(eps):
    # the symmetrized C_11 + C_11 holds the coupling 2 eps; at 5e-9 the form
    # value 4.999999999999999e-17 clears the threshold 0.5 (2 eps)**2 only
    # through the relative slack 1e-9
    sys_ = _coupled_inside_tolerance(eps)
    x0 = np.array([0.5, 0.5])
    w = construct_witness(sys_, x0, 0, 0, sys_.symmetrized(0, 0, x0))
    assert w.kind == "lattice" and w.delta == 0.25
    assert form_value(sys_, (w.pair.phi, w.f), (w.pair.psi, w.indicator)).real == w.value
    assert w.value >= w.threshold * (1 - 1e-9)


def test_decision_inside_the_tolerance_has_a_lattice_witness():
    # the decision must read NOT-POSITIVE with the witness that the tent
    # search finds at eps = 5e-9, reproduced exactly by form_value; a
    # grid-sampled coupling is placed in its cell
    systems = [(_coupled_inside_tolerance(5e-9), None)]
    systems += [(four_cell_system(eps), [0.875, 0.875]) for eps in TOLERANCE_BAND]
    for sys_, x0 in systems:
        verdict = decide_decoupling(sys_)
        assert verdict.decision == "not-positive"
        w = verdict.witness
        assert w.kind == "lattice"
        assert x0 is None or np.array_equal(w.x0, x0)
        value = form_value(sys_, (w.pair.phi, w.f), (w.pair.psi, w.indicator)).real
        assert value == w.value >= w.threshold * (1 - 1e-9)


def test_underflowing_coupling_is_indeterminate():
    # the coupling 2 eps = 2e-200 fails the exact test, but lies below
    # rounding at the probe point, and a lattice witness's threshold
    # 0.5 (2 eps)**2 would underflow to 0.0, which certifies nothing
    with pytest.raises(IndeterminateDecision):
        decide_decoupling(_coupled_inside_tolerance(1e-200))


# ROADMAP item 10, a box far from the origin: the system bound M reads the
# global monomial expansion of C_11 = C_22 = (3 + (x_1 - o - 1/2)**2) I, about
# 4.2e6 at o = 1024, although the coefficient stays in [3, 3.25] on the box.
# A tolerance 1e-8 M = 0.042 would pass the coupling C_12 + C_21 = 2**-5 S.
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def _far_box_system(o, c12, c21):
    """C_11 = C_22 = (3 + (x_1 - o - 1/2)**2) I on the box (o, o + 1)**2,
    Dirichlet, mu = 1, with the given couplings C_12 and C_21."""
    d = 2
    x1 = MultiPoly.variable(0, d)
    c = MultiPoly.constant(3.0, d) + (x1 - (o + 0.5)) * (x1 - (o + 0.5))
    zero = MultiPoly.constant(0.0, d)
    diag = PolynomialField(((c, zero), (zero, c)), d)
    return EllipticSystem(((o, o + 1.0),) * 2, 2, ((diag, c12), (c21, diag)), "dirichlet", 1.0)


def _far_coupled(o):
    c12 = ConstantField(2.0 ** -6 * SWAP)
    return _far_box_system(o, c12, c12)


def _far_cancelling(o):
    """C_12 = p I + S / 2 and C_21 = p I - S / 2 with p = 2**-5 (x_2 - o - 1/2):
    the channel coupling cancels exactly in C_12 + C_21 = 2 p I."""
    d = 2
    p = 2.0 ** -5 * (MultiPoly.variable(1, d) - (o + 0.5))
    half = MultiPoly.constant(0.5, d)
    return _far_box_system(o, PolynomialField(((p, half), (half, p)), d),
                           PolynomialField(((p, -1 * half), (-1 * half, p)), d))


@pytest.mark.parametrize("o", [0, 1024])
def test_far_box_coupling_is_not_positive(o):
    assert decide_decoupling(_far_coupled(o)).decision == "not-positive"


@pytest.mark.parametrize("o", [0, 1024])
def test_far_box_coupling_has_a_witness(o):
    # dofs 2 and 15 are channel 1 of node 1 and channel 2 of node 7: a
    # cross-channel lattice pair of the 8^2 form, at every offset
    sys_ = _far_coupled(o)
    witness = sign_witness(assemble(sys_, Grid(sys_.box, (8, 8), "dirichlet")).K)
    assert witness[:3] == ("lattice", 2, 15)
    assert witness[3] == pytest.approx(2.0 ** -7, rel=1e-9)
    x0 = np.array([o + 0.5, o + 0.5])
    w = construct_witness(sys_, x0, 0, 1, sys_.symmetrized(0, 1, x0))
    assert w.delta == 0.25 and w.threshold == 2.0 ** -11
    assert w.value == pytest.approx(2.0 ** -10, rel=1e-9)
    value = form_value(sys_, (w.pair.phi, w.f), (w.pair.psi, w.indicator)).real
    assert value == pytest.approx(w.value)


@pytest.mark.parametrize("o", [0, 1024, 2 ** 20])
def test_far_box_cancelling_coupling_is_positive(o):
    # what an exact zero test must keep: the coupling cancels exactly, and
    # the 4^2 form has no sign witness
    sys_ = _far_cancelling(o)
    assert decide_decoupling(sys_).decision == "positive-decoupled"
    assert sign_witness(assemble(sys_, Grid(sys_.box, (4, 4), "dirichlet")).K) is None


def _decision_systems():
    names = [f"{name}(3)" if catalog.needs_seed(name) else name for name in catalog.names()]
    return [(name, bc) for name in names for bc in ("dirichlet", "free")]


@pytest.mark.parametrize("name, bc", _decision_systems())
def test_decision_reads_the_coefficients_once(name, bc, monkeypatch):
    # one block_matrix read serves the coercivity check, the zero test and
    # the scalar checks; only the witness search evaluates the form
    sys_ = catalog.get(name).build(bc=bc)
    reads, forms = [], []
    block_matrix, form = EllipticSystem.block_matrix, decoupling.form_matrix

    def counted_read(self, points):
        reads.append(len(points))
        return block_matrix(self, points)

    def counted_form(*args, **kwargs):
        forms.append(sys._getframe(1).f_code.co_name)
        return form(*args, **kwargs)

    monkeypatch.setattr(EllipticSystem, "block_matrix", counted_read)
    monkeypatch.setattr(decoupling, "form_matrix", counted_form)
    verdict = decide_decoupling(sys_)
    assert len(reads) == 1
    if verdict.positive:
        assert forms == []
    else:
        assert forms and set(forms) == {"construct_witness"}


def test_deciding_imports_no_scipy():
    # scipy is imported inside the functions that use it (the sparse
    # assembly, the semigroup engine), so a decision loads none of it
    code = ("import sys, possem\n"
            "verdict = possem.decide_decoupling(possem.catalog.get('ex1_3').build())\n"
            "print(verdict.decision, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(catalog.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["positive-decoupled", "[]"]


def test_non_finite_probe_history_is_a_numerical_error():
    # NaN compares false, so a NaN history would read as converged;
    # probe_system's non-finite moments: test_assembly's overflow test
    sys_ = catalog.get("ex1_3").build()

    def nan_form(phi, psi):
        return np.full((sys_.m, sys_.m), np.nan, dtype=complex)

    with pytest.raises(NumericalError, match="non-finite form value"):
        probe(nan_form, 2, sys_.box, [0.5, 0.5], 0, 1)
    with pytest.raises(NumericalError, match="non-finite form value"):
        probe(nan_form, 2, sys_.box, [0.5, 0.5], 0, 1, deltas=(0.1,))
