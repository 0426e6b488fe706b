import numpy as np
import pytest

from possem.errors import CapacityError
from possem.polynomials import MultiPoly
from possem.tents import (
    PiecewisePoly1D,
    TensorTestFunction,
    build_test_pair,
    double_hat,
    hat,
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


def test_base_identities():
    # the four 1D integrals every interaction computation reduces to
    eta, rho = hat(), double_hat()
    assert (eta * rho).integral() == pytest.approx(0.5, abs=1e-15)
    assert (eta.derivative() * rho).integral() == pytest.approx(0.0, abs=1e-15)
    assert (eta * rho.derivative()).integral() == pytest.approx(0.0, abs=1e-15)
    assert (eta.derivative() * rho.derivative()).integral() == pytest.approx(0.0, abs=1e-15)
    assert eta.integral() == pytest.approx(1.0, abs=1e-15)


def test_continuity_enforced():
    with pytest.raises(ValueError, match="discontinuity"):
        PiecewisePoly1D([-1.0, 0.0, 1.0], [[1.0, 1.0], [0.5, -1.0]])


def test_affine_pullback():
    # q(x) = eta((x - 2) / 0.5) peaks at 2 with support [1.5, 2.5]
    q = hat().affine_pullback(2.0, 0.5)
    assert q(2.0) == pytest.approx(1.0)
    assert q(1.5) == pytest.approx(0.0)
    assert q(2.25) == pytest.approx(0.5)
    assert q.support == (1.5, 2.5)


def test_capacity_error():
    # degree 20 polynomial piece exceeds the default 8-node capacity
    high = PiecewisePoly1D([0.0, 1.0], [np.zeros(21)], check_continuity=False)
    with pytest.raises(CapacityError):
        high.integral()


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
