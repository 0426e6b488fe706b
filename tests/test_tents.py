import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from possem import catalog
from possem.coefficients import DEFAULT_MAX_TOTAL_DEGREE
from possem.decoupling import _probe_pair, boundary_distance, probe_system
from possem.errors import CapacityError
from possem.polynomials import MultiPoly
from possem.tents import (
    CAPACITY,
    MOMENT_MEMO_SIZE,
    PiecewiseLinear1D,
    TensorTestFunction,
    _BINOMIAL,
    _reference_moments,
    _slope_counts,
    binomial_shift,
    build_test_pair,
    double_hat,
    hat,
    moment_tables,
    shifted_hat,
    tensor_product_integral,
)


def test_hat_values():
    eta = hat()
    assert eta(0.0) == 1.0
    assert eta(1.0) == 0.0
    assert eta(-1.0) == 0.0
    assert eta(0.5) == 0.5
    assert eta(2.0) == 0.0


def test_double_hat_values():
    rho = double_hat()
    assert rho(-0.5) == 1.0
    assert rho(0.5) == 1.0
    assert rho(0.0) == 0.0
    assert rho(1.0) == 0.0


def integral_1d(f, df, g, dg, weight=None, box=None):
    # 1D tensor_product_integral of the factor pair, each optionally differentiated
    terms = [(TensorTestFunction(1.0, (f,)), 0 if df else None),
             (TensorTestFunction(1.0, (g,)), 0 if dg else None)]
    return tensor_product_integral(terms, weight=weight, box=box)


def test_base_identities():
    # the four 1D integrals every interaction computation reduces to
    eta, rho = hat(), double_hat()
    assert integral_1d(eta, False, rho, False) == pytest.approx(0.5, abs=1e-15)
    assert integral_1d(eta, True, rho, False) == pytest.approx(0.0, abs=1e-15)
    assert integral_1d(eta, False, rho, True) == pytest.approx(0.0, abs=1e-15)
    assert integral_1d(eta, True, rho, True) == pytest.approx(0.0, abs=1e-15)
    fn = TensorTestFunction(1.0, (eta,))
    assert tensor_product_integral([(fn, None)]) == pytest.approx(1.0, abs=1e-15)


def test_affine_pullback():
    # q(x) = eta((x - 2) / 0.5) peaks at 2 with support [1.5, 2.5]
    q = hat().affine_pullback(2.0, 0.5)
    assert q(2.0) == pytest.approx(1.0)
    assert q(1.5) == pytest.approx(0.0)
    assert q(2.25) == pytest.approx(0.5)
    assert q.support == (1.5, 2.5)


def test_capacity_error():
    # x**14 against two tents has degree 16, past the 8-node capacity of 15
    fn = TensorTestFunction(1.0, (hat(),))
    with pytest.raises(CapacityError):
        tensor_product_integral([(fn, None), (fn, None)], weight=[((14,), 1.0)])


def test_box_cutting_a_piece():
    # the box [0, 0.3] ends inside the right piece of the tent
    eta = hat()
    fn = TensorTestFunction(1.0, (eta,))
    box = ((0.0, 0.3),)
    val = tensor_product_integral([(fn, None)], weight=[((2,), 1.0)], box=box)
    assert val == pytest.approx(0.006975, abs=1e-15)
    val = integral_1d(eta, True, eta, False, weight=[((1,), 1.0)], box=box)
    assert val == pytest.approx(-0.036, abs=1e-15)
    assert tensor_product_integral([(fn, None)], weight=[], box=box) == 0


@pytest.mark.parametrize("tau", [-10.0, -3.0, -1.0, 0.0, 1.0, 2.0, 10.0])
@pytest.mark.parametrize("d", [2, 3])
def test_pair_interaction_pattern(tau, d):
    for kt in range(d):
        for lt in range(d):
            pair = build_test_pair(tau, kt, lt, d)
            G = pair.interaction_matrix()
            assert np.abs(G - pair.expected_interaction()).max() <= 1e-12


def test_pair_examples():
    G = build_test_pair(1.0, 0, 1, 2).interaction_matrix()
    assert np.allclose(G, [[0.0, 1.0], [1.0, 0.0]], atol=1e-13)
    G = build_test_pair(2.0, 0, 0, 2).interaction_matrix()
    assert np.allclose(G, [[2.0, 0.0], [0.0, 0.0]], atol=1e-13)
    pair = build_test_pair(0.0, 0, 1, 2)
    assert pair.phi.scale == 0.0
    assert np.allclose(pair.interaction_matrix(), 0.0)


def test_pair_nonnegative():
    rng = np.random.default_rng(7)
    for tau, kt, lt in [(1.0, 0, 1), (2.0, 1, 1), (-1.0, 0, 0), (-3.0, 1, 0)]:
        pair = build_test_pair(tau, kt, lt, 2)
        pts = rng.uniform(-1.2, 1.2, (2000, 2))
        assert pair.phi(pts).min() >= 0.0
        assert pair.psi(pts).min() >= 0.0


def test_pair_index_validation():
    with pytest.raises(ValueError):
        build_test_pair(1.0, 0, 2, 2)
    with pytest.raises(ValueError):
        build_test_pair(1.0, 0, 1, 1)


def test_dilation_scaling_law():
    # the interaction matrix of the dilated pair picks up delta**(d-2)
    for d, delta in [(2, 0.25), (3, 0.5)]:
        pair = build_test_pair(1.0, 0, min(1, d - 1), d)
        dil = pair.dilated(np.zeros(d), delta)
        G0 = pair.interaction_matrix()
        G1 = dil.interaction_matrix()
        assert np.abs(G1 - delta ** (d - 2) * G0).max() <= 1e-12


def test_tensor_integral_with_polynomial_weight():
    # integral of eta(x1)*eta(x2) * x1**2 over the plane:
    # (int t^2 eta)(int eta) = (1/6) * 1
    fn = TensorTestFunction(1.0, (hat(), hat()))
    w = MultiPoly.from_terms([((2, 0), 1.0)], 2)
    val = tensor_product_integral([(fn, None)], weight=w.terms())
    assert val == pytest.approx(1 / 6, abs=1e-14)


def test_tensor_integral_with_matrix_weight():
    # m x m coefficients give the m x m array of the per-entry scalar integrals
    pair = build_test_pair(1.0, 0, 1, 2).dilated((0.3, -0.2), 0.5)
    rng = np.random.default_rng(5)
    weight = [((i, j), rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
              for i, j in [(0, 0), (1, 0), (2, 3)]]
    terms = [(pair.phi, 1), (pair.psi, 0)]
    box = ((0.0, 0.7), (-1.0, 1.0))
    F = tensor_product_integral(terms, weight=weight, box=box)
    assert F.shape == (3, 3)
    for i in range(3):
        for j in range(3):
            entry = [(exps, C[i, j]) for exps, C in weight]
            ref = tensor_product_integral(terms, weight=entry, box=box)
            assert abs(F[i, j] - ref) <= 1e-14 * max(1.0, abs(ref))


def test_tensor_integral_rejects_different_dilations():
    pair = build_test_pair(1.0, 0, 0, 2)
    phi = pair.phi.dilated((0.0, 0.0), 0.5)
    psi = pair.psi.dilated((0.0, 0.0), 0.25)
    with pytest.raises(ValueError):
        tensor_product_integral([(phi, 0), (psi, 0)])
    with pytest.raises(ValueError):
        tensor_product_integral([(phi, 0), (pair.psi.dilated((0.1, 0.0), 0.5), 0)])


def test_tensor_integral_box_clipping():
    fn = TensorTestFunction(1.0, (hat(),))
    whole = tensor_product_integral([(fn, None)])
    half = tensor_product_integral([(fn, None)], box=((0.0, 1.0),))
    assert whole == pytest.approx(1.0)
    assert half == pytest.approx(0.5)


def test_case2_third_coordinate_vanishes():
    # d = 3 off-diagonal pair: interactions through the spectator axis vanish
    pair = build_test_pair(1.0, 0, 1, 3)
    val = tensor_product_integral([(pair.phi, 0), (pair.psi, 2)])
    assert abs(val) <= 1e-14 * pair.phi.scale


def test_shifted_hat_matches_composition():
    left = shifted_hat(-0.5, 0.5)
    ts = np.linspace(-1.2, 1.2, 101)
    ref = np.maximum(0.0, 1 - np.abs(2 * (ts + 0.5)))
    assert np.abs(left(ts) - ref).max() <= 1e-14


def test_pair_one_dimensional_diagonal():
    for tau in (-2.0, 1.5):
        pair = build_test_pair(tau, 0, 0, 1)
        assert pair.interaction_matrix()[0, 0] == pytest.approx(tau, abs=1e-13)


def test_integral_odd_weight_vanishes():
    # the antisymmetric cubic-box coefficient is odd in its last variable
    from possem.catalog import _nullform_polys

    c12, _, _ = _nullform_polys()
    assert abs(c12.box_integral(((-1, 1), (-1, 1), (-1, 1)))) <= 1e-15


# -- reference moments against per-piece antiderivatives ------------------------

PAIR_SHAPES = {"eta": hat(), "rho": double_hat(), "left": shifted_hat(-0.5, 0.5),
               "right": shifted_hat(0.5, 0.5), "mid": shifted_hat(0.0, 0.5)}


def exact_moment(factors, derivs, e, lo, hi, absolute=False):
    """int_lo^hi x**e prod_i f_i^(derivs_i)(x) dx from the antiderivative of
    each piece between the factors' breakpoints, or with absolute=True the
    same integral of |x|**e prod_i |f_i^(derivs_i)(x)| (the factors are
    nonnegative).  A piece is expanded in s = x - p around its end p
    nearer to 0, so the powers of x = p + s do not cancel."""
    cuts = np.unique(np.concatenate([[lo, hi]] + [f.breakpoints for f in factors]))
    cuts = cuts[(cuts >= lo) & (cuts <= hi)]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        p = a if abs(a) <= abs(b) else b
        u, v = a + (b - a) / 4, a + 3 * (b - a) / 4
        q = ((-1 if absolute and b <= 0 else 1) * Polynomial([p, 1])) ** e
        for f, dd in zip(factors, derivs):
            slope = (f(v) - f(u)) / (v - u)
            if dd:
                q = q * (abs(slope) if absolute else slope)
            else:
                q = q * Polynomial([f(u) + slope * (p - u), slope])
        antiderivative = q.integ()
        total += antiderivative(b - p) - antiderivative(a - p)
    return total


def test_reference_moments_match_antiderivatives():
    # the memoized reference moments are exact for every j the capacity allows
    for (nf, f), (ng, g) in [(a, b) for a in PAIR_SHAPES.items() for b in PAIR_SHAPES.items()]:
        for lo, hi in [(-1.0, 1.0), (-0.3, 0.8)]:
            ref = _reference_moments((f, g), lo, hi)
            assert ref.shape == (2, 2, CAPACITY + 1) and not ref.flags.writeable
            for da in (0, 1):
                for db in (0, 1):
                    for j in range(CAPACITY + 1 - (2 - da - db)):
                        expect = exact_moment((f, g), (da, db), j, lo, hi)
                        assert abs(ref[da, db, j] - expect) <= 2e-14, (nf, ng, lo, da, db, j)


@pytest.mark.parametrize("base", [0.0, 10.0])
def test_moment_tables_match_antiderivatives(base):
    # global moments int_box x**e f^(a) g^(b) dx up to the coefficient degree
    # cap, on the unit box or [10, 11]; the supports are inside the box or
    # clipped by it.  Global monomials are ill-conditioned off the origin,
    # so the error is measured against the sum of the absolute terms of
    # the binomial shift.
    box = (base, base + 1.0)
    top = DEFAULT_MAX_TOTAL_DEGREE
    for offset, delta in [(0.4, 0.3), (0.2, 0.5), (0.9, 0.25)]:
        center = base + offset
        for f in PAIR_SHAPES.values():
            for g in PAIR_SHAPES.values():
                F = TensorTestFunction(1.0, (f,), (center,), delta)
                G = TensorTestFunction(1.0, (g,), (center,), delta)
                tables = moment_tables((F, G), top, (box,))
                assert tables.shape == (1, 2, 2, top + 1)
                fg = [q.affine_pullback(center, delta) for q in (f, g)]
                lo = max(box[0], *(q.support[0] for q in fg))
                hi = min(box[1], *(q.support[1] for q in fg))
                if hi <= lo:
                    assert not tables.any()
                    continue
                for da in (0, 1):
                    for db in (0, 1):
                        # sum of the absolute shift terms, each reference
                        # moment replaced by its absolute counterpart
                        absolute = [exact_moment((f, g), (da, db), j, (lo - center) / delta,
                                                 (hi - center) / delta, absolute=True)
                                    for j in range(top + 1)]
                        for e in range(top + 1):
                            expect = exact_moment(fg, (da, db), e, lo, hi)
                            terms = delta ** (1 - da - db) * sum(
                                math.comb(e, j) * abs(center) ** (e - j) * delta ** j
                                * absolute[j] for j in range(e + 1))
                            got = tables[0, da, db, e]
                            assert abs(got - expect) <= 1e-13 * terms, (center, e, da, db)


def test_factors_are_immutable_and_compare_by_value():
    f = hat()
    with pytest.raises(ValueError):
        f.values[1] = 2.0
    with pytest.raises(ValueError):
        f.breakpoints[0] = -2.0
    with pytest.raises(FrozenInstanceError):
        f.values = np.zeros(3)
    # -0.0 and 0.0 give the same key; the caller's arrays are copied
    bp = np.array([-1.0, -0.0, 1.0])
    same = PiecewiseLinear1D(bp, [0.0, 1.0, 0.0])
    bp[0] = -5.0
    assert same == f and hash(same) == hash(f)
    assert same.support == (-1.0, 1.0)
    assert f != double_hat() and f != PiecewiseLinear1D([-1.0, 0.0, 1.0], [0.0, 2.0, 0.0])


@pytest.mark.parametrize("breakpoints, values", [
    ([0.0, np.nan, 1.0], [0.0, 1.0, 0.0]),     # diff <= 0 is false for NaN
    ([0.0, 1.0, np.inf], [0.0, 1.0, 0.0]),
    ([0.0, 0.5, 1.0], [0.0, np.nan, 0.0]),
    ([0.0, 1.0], [0.0, np.inf]),
], ids=["nan-breakpoint", "inf-breakpoint", "nan-value", "inf-value"])
def test_nonfinite_factor_is_refused(breakpoints, values):
    with pytest.raises(ValueError, match="finite"):
        PiecewiseLinear1D(breakpoints, values)


def test_moment_memo_is_bounded():
    # probes at distinct points reuse the reference moments of their pairs:
    # the memo holds the same entries after 10 and after 1000 probes
    sys_ = catalog.get("ex1_3").build()
    rng = np.random.default_rng(4)
    pairs = [(0, 0), (0, 1), (1, 1)]
    _reference_moments.cache_clear()

    def probes(count):
        for i in range(count):
            x0 = [a + (b - a) * rng.uniform(0.1, 0.9) for a, b in sys_.box]
            probe_system(sys_, x0, *pairs[i % len(pairs)])

    probes(10)
    after_10 = _reference_moments.cache_info()
    probes(990)
    after_1000 = _reference_moments.cache_info()
    assert 0 < after_1000.currsize == after_10.currsize <= MOMENT_MEMO_SIZE
    assert after_1000.misses == after_10.misses
    assert after_1000.hits > after_10.hits


@pytest.mark.parametrize("name", ["ex1_3", "ex5_5", "rand_coupled(2)", "witness_W",
                                  "ex3_5_nullform"])
@pytest.mark.parametrize("clipped", [False, True])
def test_stacked_moment_tables_match_one_call_per_dilation(name, clipped):
    # a stack shares each axis's reference moments among the dilations with
    # the same clipped interval; every table must keep the bits of its own
    # call.  The clipped stack's larger dilations reach past the box on
    # some axes, its smaller ones do not.
    sys_ = catalog.get(name).build()
    x0 = np.array([a + (b - a) * f for (a, b), f in zip(sys_.box, (0.3, 0.55, 0.7))])
    dist = boundary_distance(sys_.box, x0)
    deltas = dist * (np.array([0.25, 0.5, 1.5, 3.0]) if clipped else 2.0 ** -np.arange(7))
    for k in range(sys_.d):
        for l in range(k, sys_.d):
            pair = _probe_pair(sys_.d, k, l).dilated(x0, deltas[0])
            for top in sorted({0, int(sys_.table.exps.max(initial=0)), 4}):
                stacked = moment_tables((pair.phi, pair.psi), top, sys_.box, deltas)
                for dd, tables in zip(deltas, stacked):
                    dil = pair.dilated(x0, dd)
                    assert np.array_equal(tables, moment_tables((dil.phi, dil.psi), top, sys_.box))


def test_unclipped_stack_looks_up_each_axis_once():
    # the seven dilations of a probe schedule share each axis's reference
    # moments: one memo lookup per axis, not one per dilation and axis
    sys_ = catalog.get("ex5_5").build()
    x0 = np.array([0.1, -0.2, 0.3])
    deltas = boundary_distance(sys_.box, x0) * 2.0 ** -np.arange(7)
    pair = _probe_pair(sys_.d, 0, 1).dilated(x0, deltas[0])
    before = _reference_moments.cache_info()
    moment_tables((pair.phi, pair.psi), 2, sys_.box, deltas)
    after = _reference_moments.cache_info()
    assert (after.hits + after.misses) - (before.hits + before.misses) == sys_.d


def test_binomial_shift_at_top_zero_keeps_the_general_bits():
    # at top 0 the shift is 1 and the sum has one term, added to a zero
    # start: -0.0 comes out as 0.0, as from the general formula and from the
    # e = 0 column of a larger top
    rng = np.random.default_rng(5)
    refs = rng.standard_normal((6, 2, 2, 4))
    refs[0, 0, 0, 0] = refs[1, 1, 0, 0] = -0.0
    refs[2, 0, 1, 0] = 0.0
    centers, delta, derivs = rng.uniform(-3, 3, 6), rng.uniform(0.01, 2, 6), _slope_counts(2)
    got = binomial_shift(refs, centers, delta, 0, derivs)
    shift = _BINOMIAL[:1, :1] * centers[:, None, None] ** 0 * delta[:, None, None] ** 0
    general = (delta.reshape(-1, 1, 1, 1) ** (1.0 - derivs)[..., None]
               * np.einsum("c...j,cej->c...e", refs[..., :1], shift))
    wider = binomial_shift(refs, centers, delta, 3, derivs)[..., :1]
    for expect in (general, wider):
        assert np.array_equal(got, expect)
        assert np.array_equal(np.signbit(got), np.signbit(expect))
    assert got[0, 0, 0, 0] == 0.0 and not np.signbit(got[[0, 1], [0, 1], 0, 0]).any()


def test_binomial_shift_of_a_dilated_pair():
    # a dilated pair has the moments of its reference pair, shifted: int x**e
    # (eta eta)((x - c) / delta) dx = delta sum_j C(e, j) c**(e-j) delta**j m_j
    c, delta, e = 0.7, 0.125, 4
    fn = TensorTestFunction(1.0, (hat(),), (c,), delta)
    val = tensor_product_integral([(fn, None), (fn, None)], weight=[((e,), 1.0)])
    m = [exact_moment((hat(), hat()), (0, 0), j, -1.0, 1.0) for j in range(e + 1)]
    expect = delta * sum(math.comb(e, j) * c ** (e - j) * delta ** j * m[j]
                         for j in range(e + 1))
    assert val == pytest.approx(expect, rel=1e-14)
