import numpy as np
import pytest

from possem.polynomials import MultiPoly


def test_constant_and_variable():
    c = MultiPoly.constant(3 - 2j, 2)
    assert c(np.array([0.7, -0.3])) == 3 - 2j
    x1 = MultiPoly.variable(0, 2)
    x2 = MultiPoly.variable(1, 2)
    assert x1(np.array([0.25, 9.0])) == 0.25
    assert x2(np.array([0.25, 9.0])) == 9.0


def test_arithmetic_and_eval():
    x1 = MultiPoly.variable(0, 3)
    x2 = MultiPoly.variable(1, 3)
    x3 = MultiPoly.variable(2, 3)
    one = MultiPoly.constant(1.0, 3)
    p = -1 * (x1 * x1 - one) * (x2 * x2 - one) * x3
    pt = np.array([0.0, 0.0, 0.5])
    assert p(pt) == pytest.approx(-0.5)
    assert p(np.array([0.0, 0.0, 0.0])) == 0
    assert p.total_degree == 5


def test_vectorized_eval_matches_loop():
    rng = np.random.default_rng(0)
    p = MultiPoly.from_terms([((2, 1), 1.5), ((0, 3), -2j), ((1, 1), 0.25)], 2)
    pts = rng.uniform(-2, 2, (40, 2))
    vec = p(pts)
    for x, v in zip(pts, vec):
        assert v == pytest.approx(p(x))


def test_partial_derivative():
    x1 = MultiPoly.variable(0, 2)
    x2 = MultiPoly.variable(1, 2)
    p = x1 * x1 * x2 + 3 * x2
    dp = p.partial(0)
    pt = np.array([0.4, -1.2])
    assert dp(pt) == pytest.approx(2 * 0.4 * -1.2)
    assert p.partial(1)(pt) == pytest.approx(0.4 ** 2 + 3)


def test_bound_on_box_dominates_samples():
    rng = np.random.default_rng(1)
    p = MultiPoly.from_terms([((2, 0), 1.0), ((1, 1), -0.5j), ((0, 2), 2.0)], 2)
    box = ((-1.5, 0.5), (0.0, 2.0))
    bound = p.bound_on_box(box)
    pts = np.stack([rng.uniform(a, b, 500) for a, b in box], axis=-1)
    assert np.all(np.abs(p(pts)) <= bound + 1e-12)


def test_box_integral_against_quadrature():
    p = MultiPoly.from_terms([((3, 2), 2.0), ((0, 0), 1.0)], 2)
    box = ((0.0, 1.0), (-1.0, 1.0))
    # closed form: 2 * (1/4) * (2/3) + 1 * 1 * 2
    assert p.box_integral(box) == pytest.approx(2 * 0.25 * (2 / 3) + 2.0)


def test_real_and_imag_parts():
    p = MultiPoly.from_terms([((1, 0), 2 + 3j)], 2)
    pt = np.array([1.0, 0.0])
    assert p.real(pt) == pytest.approx(2.0)
    assert p.imag(pt) == pytest.approx(3.0)


def test_from_terms_rejects_negative_exponents():
    # numpy would read the index -1 as the last slot, here the constant term
    with pytest.raises(ValueError, match="negative exponent"):
        MultiPoly.from_terms([((-1, 0), 1.0)], 2)
