"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import numpy as np
import pytest

from possem import catalog
from possem.assembly import Grid, assemble
from possem.coefficients import (
    ConstantField,
    EllipticSystem,
    PolynomialField,
    check_ellipticity,
)
from possem.decoupling import decide_decoupling, probe_system
from possem.multop import (
    diag_projection,
    find_witness,
    is_multiplication,
    trace_duality_residual,
)
from possem.polynomials import MultiPoly
from possem.semigroup import (
    GeneratorOperator,
    expm_apply,
    factorization_residual,
    positivity_scan,
)
from possem.tents import build_test_pair


def _report(num, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_tent_pair_suite():
    taus = (-3.0, -1.0, 0.0, 1.0, 2.0)
    worst = 0.0
    rng = np.random.default_rng(0)
    for d in (2, 3, 4):
        pts = rng.uniform(-1.1, 1.1, (10_000, d))
        for tau in taus:
            for kt in range(d):
                for lt in range(d):
                    pair = build_test_pair(tau, kt, lt, d, verify=False)
                    G = pair.interaction_matrix()
                    worst = max(worst, float(np.abs(G - pair.expected_interaction()).max()))
                    assert pair.phi(pts).min() >= 0.0
                    assert pair.psi(pts).min() >= 0.0
    _report(1, worst <= 1e-12,
            f"interaction matrices exact to {worst:.2e} (tol 1e-12), "
            f"pairs nonnegative on 1e4 samples, d = 2..4")


def test_criterion_02_nullform_reproduction():
    sys_ = catalog.get("ex3_5_nullform").build()
    worst_K = 0.0
    for res in (4, 8, 16):
        g = Grid(sys_.box, (res,) * 3, "free")
        K = assemble(sys_, g).K
        worst_K = max(worst_K, float(np.abs(K.data).max(initial=0.0)))
    worst_probe = 0.0
    for x0 in sys_.interior_tensor_points(3):       # 27 interior points
        for kt in range(3):
            for lt in range(kt, 3):
                res_ = probe_system(sys_, x0, kt, lt)
                worst_probe = max(worst_probe, float(np.abs(res_.estimate).max()))
    ok = worst_K <= 1e-10 and worst_probe <= 1e-8
    _report(2, ok, f"assembled null form max |K| = {worst_K:.2e} (tol 1e-10), "
                   f"probe max = {worst_probe:.2e} (tol 1e-8) at 27 points")


def test_criterion_03_decision_suite():
    positives = ["scalar_heat", "ex1_3", "ex1_3_entry1", "ex5_5"]
    positives += [f"rand_decoupled({seed})" for seed in range(20)]
    negatives = ["witness_W"]
    negatives += [f"rand_coupled({seed})" for seed in range(20)]
    mistakes = []
    for name in positives:
        if not decide_decoupling(catalog.get(name).build()).positive:
            mistakes.append(name)
    for name in negatives:
        if decide_decoupling(catalog.get(name).build()).positive:
            mistakes.append(name)
    _report(3, not mistakes,
            f"{len(positives)} positive and {len(negatives)} negative systems "
            f"classified, misclassifications: {mistakes or 'none'}")


def test_criterion_04_witness_soundness():
    from possem.assembly import form_value

    names = ["witness_W"] + [f"rand_coupled({seed})" for seed in range(20)]
    worst_margin = np.inf
    w_value = None
    for name in names:
        sys_ = catalog.get(name).build()
        verdict = decide_decoupling(sys_)
        assert not verdict.positive
        w = verdict.witness
        value = form_value(sys_, (w.pair.phi, w.f),
                           (w.pair.psi, w.indicator)).real
        tau = w.mult_witness.pairing.real
        need = 0.5 * w.delta ** (sys_.d - 2) * tau ** 2
        worst_margin = min(worst_margin, value - need * (1 - 1e-9))
        if name == "witness_W":
            w_value = value
    ok = worst_margin >= 0 and abs(w_value - 4.0) <= 1e-10
    _report(4, ok, f"all 21 witnesses re-evaluate above the margin "
                   f"(worst slack {worst_margin:.3e}); witness_W value "
                   f"= {w_value:.12f} (target 4 to 1e-10)")


def test_criterion_05_factorization():
    cases = [
        ("scalar_heat", (8, 8)),
        ("ex1_3", (8, 8)),
        ("ex1_3_entry1", (8, 8)),
        ("ex5_5", (4, 4, 4)),
        ("rand_decoupled(0)", (6, 6)),
        ("rand_decoupled(1)", (6, 6)),
    ]
    rng = np.random.default_rng(42)
    worst = 0.0
    scalar_verdicts = set()
    for name, cells in cases:
        sys_ = catalog.get(name).build(bc="dirichlet")
        verdict = decide_decoupling(sys_)
        assert verdict.positive, name
        grid = Grid(sys_.box, cells, "dirichlet")
        dform = assemble(sys_, grid)
        forms = [assemble(s, grid) for s in verdict.scalar_systems]
        for t in (0.01, 0.1, 1.0):
            for _ in range(10):
                u = rng.standard_normal(dform.ndof)
                worst = max(worst, factorization_residual(dform, forms, t, u))
        for sf in forms:
            rep = positivity_scan(GeneratorOperator.from_discrete_form(sf),
                                  times=(0.01, 0.1, 1.0), tol=1e-9)
            scalar_verdicts.add(rep.verdict)
            assert rep.verdict == "SIGN-PATTERN-OK"
    _report(5, worst <= 1e-10,
            f"factorization residual <= {worst:.2e} (tol 1e-10) over "
            f"{len(cases)} systems x 3 times x 10 states; scalar semigroup "
            f"verdicts: {sorted(scalar_verdicts)}")


def test_criterion_06_multiplication_operator_suite():
    rng = np.random.default_rng(7)
    # predicate agreement on 1e4 matrices, half diagonal, half perturbed
    for trial in range(10_000):
        m = int(rng.integers(1, 5))
        Q = np.diag(rng.standard_normal(m)).astype(complex)
        if trial % 2 and m > 1:
            i, j = rng.integers(0, m, 2)
            Q[i, j] += rng.standard_normal() * 1j + rng.standard_normal()
        is_multiplication(Q)        # raises on predicate disagreement
    # exhaustive sparsity/sign agreement for m <= 3
    for m in (1, 2, 3):
        for bits in range(2 ** (m * m)):
            Q = np.zeros((m, m), dtype=complex)
            for pos in range(m * m):
                if bits >> pos & 1:
                    Q[pos // m, pos % m] = (-1.0) ** pos
            offdiag = bool(np.abs(Q - np.diag(np.diag(Q))).max(initial=0.0) > 0)
            assert (find_witness(Q, tol=0.0) is None) == (not offdiag)
            assert is_multiplication(Q, tol=0.0) == (not offdiag)
    # trace duality on 1e3 random pairs, m <= 8
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        S = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        T = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        bound = 1e-12 * np.linalg.norm(S, 2) * np.linalg.norm(T, 2) * m
        res = trace_duality_residual(S, T)
        assert res <= bound
        worst = max(worst, res / bound)
        P = diag_projection(S)
        assert np.allclose(diag_projection(P), P)
    _report(6, True, "predicates agree on 1e4 matrices, witness complete for "
                     f"m <= 3, trace duality within bound (worst ratio {worst:.2e})")


def _shift_identity(fld, c, m, d):
    if isinstance(fld, ConstantField):
        return ConstantField(fld.matrix + c * np.eye(m))
    shift = MultiPoly.constant(c, d)
    entries = [list(row) for row in fld.entries]
    for n in range(m):
        entries[n][n] = entries[n][n] + shift
    return PolynomialField(tuple(tuple(r) for r in entries), d)


def test_criterion_07_gauge_invariance():
    names = (["witness_W", "scalar_heat"]
             + [f"rand_decoupled({s})" for s in range(4)]
             + [f"rand_coupled({s})" for s in range(2)]
             + ["ex1_3", "ex1_3_entry1"])
    worst = 0.0
    for name in names:
        sys_ = catalog.get(name).build(bc="dirichlet")
        grid = Grid(sys_.box, (6,) * sys_.d, "dirichlet")
        K0 = assemble(sys_, grid).K
        scale = float(np.abs(K0.toarray()).max())
        base = decide_decoupling(sys_).decision
        for c in (1.0, 1j, 2 + 3j):
            shifted = sys_.with_coefficient(
                0, 1, _shift_identity(sys_.coefficient(0, 1), c, sys_.m, sys_.d))
            shifted = shifted.with_coefficient(
                1, 0, _shift_identity(shifted.coefficient(1, 0), -c, sys_.m, sys_.d))
            K1 = assemble(shifted, grid).K
            worst = max(worst, float(np.abs((K1 - K0).toarray()).max()) / scale)
            # the pointwise block coercivity is not gauge invariant (only the
            # form is), so the precondition is bypassed for shifted systems
            after = decide_decoupling(shifted, require_elliptic=False).decision
            assert after == base, (name, c)
    _report(7, worst <= 1e-10,
            f"10 zero-trace systems x 3 shifts: relative assembly change "
            f"<= {worst:.2e} (tol 1e-10), verdicts unchanged")


def test_criterion_08_realified_coercivity():
    rng = np.random.default_rng(13)
    worst = np.inf
    for _ in range(100):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        blocks = []
        for k in range(d):
            row = []
            for l in range(d):
                M = 0.25 * (rng.standard_normal((m, m))
                            + 1j * rng.standard_normal((m, m)))
                if k == l:
                    M = M + (2.0 + d * 0.5) * np.eye(m)
                row.append(ConstantField(M))
            blocks.append(tuple(row))
        sys_ = EllipticSystem(((0.0, 1.0),) * d, m, tuple(blocks), "dirichlet", 0.0)
        lam = check_ellipticity(sys_).lambda_min
        lam_re = check_ellipticity(sys_.realified()).lambda_min
        worst = min(worst, lam_re - lam)
    _report(8, worst >= -1e-10,
            f"100 random systems: realified lambda_min - original >= "
            f"{worst:.3e} (tol -1e-10)")


def test_criterion_09_probe_convergence():
    deltas = tuple(0.1 * 2.0 ** (-j) for j in range(7))
    one = ConstantField(np.eye(1, dtype=complex))
    zero = ConstantField(np.zeros((1, 1), dtype=complex))
    x0 = np.array([0.45, 0.55])
    worst_order, worst_rich = np.inf, 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        terms = [(tuple(int(e) for e in rng.integers(0, 3, 2)),
                  float(rng.uniform(-1, 1))) for _ in range(3)]
        s = sum(abs(c) for _, c in terms)
        q = MultiPoly.from_terms([(e, 0.5 * c / s) for e, c in terms], 2)
        c12 = PolynomialField(((q,),), 2)
        sys_ = EllipticSystem(((0.0, 1.0), (0.0, 1.0)), 1,
                              ((one, c12), (zero, one)), "free", 0.0)
        target = sys_.symmetrized(0, 1, x0)[0, 0]
        raw = probe_system(sys_, x0, 0, 1, deltas=deltas, richardson=False)
        errs = np.array([abs(est[0, 0] - target) for _, est in raw.history])
        if errs.max() > 1e-12:
            tail = errs[-4:]
            slope = -np.polyfit(np.arange(4), np.log2(np.maximum(tail, 1e-16)), 1)[0]
            worst_order = min(worst_order, slope)
        rich = probe_system(sys_, x0, 0, 1, deltas=deltas, richardson=True)
        worst_rich = max(worst_rich, abs(rich.estimate[0, 0] - target))
    ok = worst_order >= 0.9 and worst_rich <= 1e-6
    _report(9, ok, f"10 polynomial fields: observed order >= {worst_order:.3f} "
                   f"(floor 0.9), extrapolated error <= {worst_rich:.2e} "
                   f"(tol 1e-6) at delta_min = delta_max/64")


def test_criterion_10_semigroup_engine():
    # closed-form oracles
    gen = GeneratorOperator(np.diag([0.5, 1.0, -0.25]))
    diag_err = np.abs(expm_apply(gen, 1.0, np.ones(3))
                      - np.exp(-np.array([0.5, 1.0, -0.25]))).max()
    gen = GeneratorOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    nil_err = np.abs(gen.propagator(2.0) - np.array([[1.0, -2.0], [0.0, 1.0]])).max()
    gen = GeneratorOperator(np.array([[1.0, -0.5], [-0.5, 1.0]]))
    c, s = np.cosh(0.5), np.sinh(0.5)
    closed_err = np.abs(gen.propagator(1.0)
                        - np.exp(-1.0) * np.array([[c, s], [s, c]])).max()
    oracle_err = max(diag_err, nil_err, closed_err)
    # semigroup law on 50 random generators up to size 128
    rng = np.random.default_rng(99)
    worst_law = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 129))
        A = rng.standard_normal((n, n)) / np.sqrt(n) + 1.5 * np.eye(n)
        gen = GeneratorOperator(A)
        u = rng.standard_normal(n)
        s_, t_ = float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.1, 1.0))
        lhs = expm_apply(gen, s_ + t_, u)
        rhs = expm_apply(gen, s_, expm_apply(gen, t_, u))
        worst_law = max(worst_law, float(np.linalg.norm(lhs - rhs)
                                         / np.linalg.norm(u)))
    ok = oracle_err <= 1e-12 and worst_law <= 1e-9
    _report(10, ok, f"oracle error {oracle_err:.2e} (tol 1e-12); semigroup "
                    f"law residual <= {worst_law:.2e} (tol 1e-9) on 50 "
                    f"generators up to n = 128")
