"""Piecewise-linear test functions and exact tensor-product quadrature.

The building blocks are the unit tent ``hat`` and the double tent
``double_hat``; ``build_test_pair`` combines scaled and shifted copies into a
pair (phi, psi) of nonnegative tensor-product functions whose gradient
interaction matrix ``G[k, l] = integral of (d_l phi)(d_k psi)`` has a single
prescribed symmetric entry pattern and vanishes elsewhere.  Every 1D factor
is piecewise linear, stored as its values at its breakpoints.  Along each
axis one Gauss-Legendre routine integrates monomials against the product of
the factors (or their slopes), cut at the union of their breakpoints, so the
integrals are exact up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, GeometryError

#: Most Gauss-Legendre nodes per piece; 8 nodes integrate degree <= 15 exactly.
DEFAULT_GAUSS_NODES = 8

_gauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_rule(nodes):
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1]."""
    if nodes not in _gauss_cache:
        _gauss_cache[nodes] = np.polynomial.legendre.leggauss(nodes)
    return _gauss_cache[nodes]


class PiecewiseLinear1D:
    """Compactly supported piecewise-linear function on the real line.

    The function takes ``values[i]`` at ``breakpoints[i]``, is linear in
    between and zero outside ``[breakpoints[0], breakpoints[-1]]``.
    """

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints, values):
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or len(bp) < 2 or np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing, length >= 2")
        vals = np.asarray(values, dtype=float)
        if vals.shape != bp.shape:
            raise ValueError("need one value per breakpoint")
        self.breakpoints = bp
        self.values = vals

    @classmethod
    def zero(cls):
        return cls([0.0, 1.0], [0.0, 0.0])

    @property
    def support(self):
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def __call__(self, t):
        return np.interp(t, self.breakpoints, self.values, left=0.0, right=0.0)

    def slope(self, t):
        """Slope of the piece containing t, zero outside the support."""
        slopes = np.diff(self.values) / np.diff(self.breakpoints)
        idx = np.searchsorted(self.breakpoints, t, side="right") - 1
        inside = (idx >= 0) & (idx < len(slopes))
        return np.where(inside, slopes[np.clip(idx, 0, len(slopes) - 1)], 0.0)

    def affine_pullback(self, center, delta):
        """Return q with q(x) = self((x - center) / delta), delta > 0."""
        if delta <= 0:
            raise GeometryError("dilation must be positive")
        return PiecewiseLinear1D(center + delta * self.breakpoints, self.values)


# -- canonical 1D shapes -----------------------------------------------------

def hat():
    """Unit tent: peak 1 at 0, support [-1, 1]."""
    return PiecewiseLinear1D([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])


def double_hat():
    """Two half-width tents peaking at -1/2 and +1/2, support [-1, 1]."""
    return PiecewiseLinear1D([-1.0, -0.5, 0.0, 0.5, 1.0], [0.0, 1.0, 0.0, 1.0, 0.0])


def shifted_hat(center, halfwidth):
    """Tent with peak 1 at ``center`` and support of the given half width."""
    return hat().affine_pullback(center, halfwidth)


# -- tensor-product test functions -------------------------------------------

@dataclass(frozen=True)
class TensorTestFunction:
    """scale * prod_i factor_i((x_i - center_i) / delta)."""

    scale: float
    factors: tuple
    center: tuple = None
    delta: float = 1.0

    def __post_init__(self):
        if self.center is None:
            object.__setattr__(self, "center", (0.0,) * len(self.factors))
        if len(self.center) != len(self.factors):
            raise ValueError("center length must match dimension")
        if self.delta <= 0:
            raise GeometryError("dilation must be positive")

    @property
    def d(self):
        return len(self.factors)

    def support_box(self):
        return [
            (self.center[i] + self.delta * f.support[0],
             self.center[i] + self.delta * f.support[1])
            for i, f in enumerate(self.factors)
        ]

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        vals = np.full(pts.shape[0], self.scale, dtype=float)
        for i, f in enumerate(self.factors):
            vals = vals * f((pts[:, i] - self.center[i]) / self.delta)
        return float(vals[0]) if single else vals

    def dilated(self, center, delta):
        """Re-centered and dilated copy (reference factors unchanged)."""
        return TensorTestFunction(self.scale, self.factors, tuple(center), float(delta))


def _axis_moments(terms, axis, top, interval):
    """``[integral of x**e * prod_j f_j(x) dx for e in 0..top]`` in global x.

    ``f_j`` is the axis factor of term j, or its derivative when the term
    differentiates along ``axis``; the integral runs over ``interval``
    (None for the whole line).  The terms must share their center and
    dilation, so the factors are evaluated in reference coordinates
    ``t = (x - center) / delta`` on the pieces between the union of their
    breakpoints, with the fewest Gauss-Legendre nodes per piece that are
    exact for the integrand's degree.
    """
    maps = {(fn.center[axis], fn.delta) for fn, _ in terms}
    if len(maps) != 1:
        raise ValueError("tensor functions must share their center and dilation")
    center, delta = next(iter(maps))
    factors = [fn.factors[axis] for fn, _ in terms]
    differentiated = [dax == axis for _, dax in terms]
    nderiv = sum(differentiated)
    degree = top + len(terms) - nderiv
    capacity = 2 * DEFAULT_GAUSS_NODES - 1
    if degree > capacity:
        raise CapacityError(
            f"integrand degree {degree} exceeds Gauss-Legendre capacity {capacity}"
        )
    lo = max(f.breakpoints[0] for f in factors)
    hi = min(f.breakpoints[-1] for f in factors)
    if interval is not None:
        lo = max(lo, (interval[0] - center) / delta)
        hi = min(hi, (interval[1] - center) / delta)
    if hi <= lo:
        return np.zeros(top + 1)
    cuts = np.concatenate([[lo, hi]] + [f.breakpoints for f in factors])
    cuts = np.unique(cuts[(cuts >= lo) & (cuts <= hi)])
    x, w = gauss_rule(degree // 2 + 1)
    half = 0.5 * np.diff(cuts)[:, None]
    t = 0.5 * (cuts[:-1] + cuts[1:])[:, None] + half * x
    vals = half * w
    for f, deriv in zip(factors, differentiated):
        vals = vals * (f.slope(t) if deriv else f(t))
    powers = (center + delta * t)[..., None] ** np.arange(top + 1)
    return delta ** (1 - nderiv) * np.einsum("pn,pne->e", vals, powers)


def tensor_product_integral(terms, weight=None, box=None):
    """Exact integral of a product of (possibly differentiated) tensor test
    functions against an optional polynomial weight, over R^d or over a box.

    ``terms`` is a list of ``(fn, deriv_axis_or_None)`` whose functions share
    one center and dilation (ValueError otherwise); ``weight`` is an iterable
    of ``(exponents, coefficient)`` monomial terms, for instance
    ``MultiPoly.terms()`` or ``MatrixField.monomials``, or None for the
    weight 1.  The result is complex with the shape of the coefficients
    (scalars or m x m matrices).  Fubini reduces every term to products of
    per-axis moments, each axis's computed once up to its largest exponent.
    """
    if not terms:
        raise ValueError("need at least one function")
    d = terms[0][0].d
    scale = 1.0
    for fn, _ in terms:
        if fn.d != d:
            raise ValueError("dimension mismatch")
        scale *= fn.scale
    if box is not None and len(box) != d:
        raise ValueError("box dimension mismatch")
    weight = [((0,) * d, 1.0)] if weight is None else list(weight)
    top = [0] * d
    for exps, _ in weight:
        if len(exps) != d:
            raise ValueError("weight dimension mismatch")
        top = [max(t, e) for t, e in zip(top, exps)]
    intervals = [None] * d if box is None else list(box)
    moments = [_axis_moments(terms, axis, top[axis], intervals[axis])
               for axis in range(d)]
    total = 0.0 + 0.0j
    for exps, coef in weight:
        term = coef * scale
        for axis, e in enumerate(exps):
            term = term * moments[axis][e]
        total = total + term
    return total if isinstance(total, np.ndarray) else complex(total)


# -- the five-case pair construction ------------------------------------------

@dataclass(frozen=True)
class TestPair:
    """Pair (phi, psi) realizing a single-entry gradient interaction pattern.

    The target pattern is ``G[kt, lt] = G[lt, kt] = tau`` (one diagonal entry
    equal to tau when kt == lt) and zero elsewhere.
    """

    phi: TensorTestFunction
    psi: TensorTestFunction
    tau: float
    ktilde: int
    ltilde: int
    case_id: int

    @property
    def d(self):
        return self.phi.d

    def interaction_matrix(self):
        d = self.d
        G = np.zeros((d, d))
        for k in range(d):
            for l in range(d):
                G[k, l] = tensor_product_integral(
                    [(self.phi, l), (self.psi, k)]).real
        return G

    def expected_interaction(self):
        d = self.d
        G = np.zeros((d, d))
        G[self.ktilde, self.ltilde] = self.tau
        G[self.ltilde, self.ktilde] = self.tau
        return G

    def dilated(self, center, delta):
        return TestPair(
            self.phi.dilated(center, delta),
            self.psi.dilated(center, delta),
            self.tau,
            self.ktilde,
            self.ltilde,
            self.case_id,
        )


def build_test_pair(tau, ktilde, ltilde, d, verify=True):
    """Construct the test pair for the prescribed interaction pattern.

    Indices are 0-based.  For ``ktilde != ltilde`` the dimension must be at
    least 2.  With tau = 0 the pair is identically zero.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if not (0 <= ktilde < d and 0 <= ltilde < d):
        raise ValueError("target indices out of range")
    if ktilde != ltilde and d < 2:
        raise ValueError("off-diagonal targets need d >= 2")

    eta = hat()
    rho = double_hat()
    left = shifted_hat(-0.5, 0.5)
    right = shifted_hat(0.5, 0.5)
    mid = shifted_hat(0.0, 0.5)

    if tau == 0:
        zero = PiecewiseLinear1D.zero()
        pair = TestPair(
            TensorTestFunction(0.0, (zero,) * d),
            TensorTestFunction(0.0, (zero,) * d),
            0.0, ktilde, ltilde, 5,
        )
    elif tau > 0 and ktilde == ltilde:
        phi = TensorTestFunction(2.0 ** (d - 2) * tau, (eta,) * d)
        psi_factors = tuple(eta if k == ltilde else rho for k in range(d))
        pair = TestPair(phi, TensorTestFunction(1.0, psi_factors), tau, ktilde, ltilde, 1)
    elif tau > 0:
        phi = TensorTestFunction(2.0 ** d * tau, (eta,) * d)
        psi_factors = tuple(
            left if k == ktilde else right if k == ltilde else rho for k in range(d)
        )
        pair = TestPair(phi, TensorTestFunction(1.0, psi_factors), tau, ktilde, ltilde, 2)
    elif ktilde == ltilde:
        phi_factors = tuple(left if k == ltilde else eta for k in range(d))
        phi = TensorTestFunction(2.0 ** (d - 2) * abs(tau), phi_factors)
        psi_factors = tuple(mid if k == ltilde else rho for k in range(d))
        pair = TestPair(phi, TensorTestFunction(1.0, psi_factors), tau, ktilde, ltilde, 3)
    else:
        phi = TensorTestFunction(2.0 ** d * abs(tau), (eta,) * d)
        psi_factors = tuple(
            right if k in (ktilde, ltilde) else rho for k in range(d)
        )
        pair = TestPair(phi, TensorTestFunction(1.0, psi_factors), tau, ktilde, ltilde, 4)

    if verify:
        err = np.abs(pair.interaction_matrix() - pair.expected_interaction()).max()
        if err > 1e-12 * max(1.0, abs(tau)):
            raise AssertionError(f"interaction pattern off by {err:.3e}")
    return pair
